//! Typed configuration and job-setup errors for the simulated cluster.
//!
//! Malformed cluster configs used to abort via `assert!`; experiments that
//! sweep generated configurations want to skip a bad point and keep going,
//! so the constructors now surface these as values (the panicking
//! convenience constructors remain and delegate to the `try_` forms).

/// Why a cluster, network, or job configuration was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A cluster needs at least one node.
    EmptyCluster,
    /// Network latency must be non-negative and finite.
    BadLatency(f64),
    /// Network bandwidth must be positive and finite.
    BadBandwidth(f64),
    /// `execute_job` needs exactly one task per node.
    TaskCountMismatch {
        /// Number of nodes in the cluster.
        nodes: usize,
        /// Number of tasks supplied.
        tasks: usize,
    },
    /// `account_costs` needs exactly one cost per node.
    CostCountMismatch {
        /// Number of nodes in the cluster.
        nodes: usize,
        /// Number of costs supplied.
        costs: usize,
    },
    /// A fault spec string failed to parse (see [`crate::FaultPlan::parse`]).
    BadFaultSpec(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::EmptyCluster => write!(f, "cluster needs at least one node"),
            ClusterError::BadLatency(l) => {
                write!(f, "latency must be non-negative and finite, got {l}")
            }
            ClusterError::BadBandwidth(b) => {
                write!(f, "bandwidth must be positive and finite, got {b}")
            }
            ClusterError::TaskCountMismatch { nodes, tasks } => {
                write!(f, "one task per node required: {nodes} nodes, {tasks} tasks")
            }
            ClusterError::CostCountMismatch { nodes, costs } => {
                write!(f, "one cost per node required: {nodes} nodes, {costs} costs")
            }
            ClusterError::BadFaultSpec(msg) => write!(f, "bad fault spec: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}
