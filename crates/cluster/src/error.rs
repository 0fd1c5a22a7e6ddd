//! Typed configuration and job-setup errors for the simulated cluster.
//!
//! Malformed cluster configs used to abort via `assert!`; experiments that
//! sweep generated configurations want to skip a bad point and keep going,
//! so the constructors now surface these as values (the panicking
//! convenience constructors remain and delegate to the `try_` forms).

/// Why a cluster or job configuration was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A cluster needs at least one node.
    EmptyCluster,
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
            ClusterError::TaskCountMismatch { nodes, tasks } => {
                write!(
                    f,
                    "one task per node required: {nodes} nodes, {tasks} tasks"
                )
            }
            ClusterError::CostCountMismatch { nodes, costs } => {
                write!(
                    f,
                    "one cost per node required: {nodes} nodes, {costs} costs"
                )
            }
            ClusterError::BadFaultSpec(msg) => write!(f, "bad fault spec: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}
