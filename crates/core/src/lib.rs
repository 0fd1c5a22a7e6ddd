//! # pareto-core — the Pareto partitioning framework
//!
//! This crate is the primary contribution of Chakrabarti, Parthasarathy &
//! Stewart, *"A Pareto Framework for Data Analytics on Heterogeneous
//! Systems"* (ICPP 2017): a middleware that decides **how much data to put
//! on each node of a heterogeneous cluster, and which data**, before a
//! distributed analytics job runs.
//!
//! The five components of the paper's Figure 1 map to modules here:
//!
//! | Paper component (Fig. 1) | Module |
//! |---|---|
//! | I. Task-specific heterogeneity estimator | [`estimator`] |
//! | II. Available green-energy estimator | [`estimator`] (energy profiles) |
//! | III. Data stratifier | re-exported from `pareto-stratify` |
//! | IV. Pareto-optimal modeler | [`pareto`] |
//! | V. Data partitioner | [`partitioner`] |
//!
//! [`framework`] wires them together into the end-to-end pipeline: stratify
//! → progressively sample and fit per-node time models `f_i(x) = m_i x +
//! c_i` → profile green energy into `k_i = E_i − ḠE_i` → solve the
//! scalarized LP `min α·v + (1−α)·Σ k_i f_i(x_i)` → lay out partitions →
//! run the real workload on the simulated cluster and report makespan and
//! dirty energy.
//!
//! ## Quick example
//!
//! ```
//! use pareto_cluster::{NodeSpec, SimCluster};
//! use pareto_core::framework::{Framework, FrameworkConfig, Strategy};
//! use pareto_workloads::WorkloadKind;
//!
//! let dataset = pareto_datagen::rcv1_syn(7, 0.02); // tiny synthetic corpus
//! let cluster = SimCluster::new(NodeSpec::paper_cluster(4, 400.0, 2, 9, 7));
//! let cfg = FrameworkConfig {
//!     strategy: Strategy::HetAware,
//!     ..FrameworkConfig::default()
//! };
//! let outcome = Framework::new(&cluster, cfg)
//!     .try_run(&dataset, WorkloadKind::FrequentPatterns { support: 0.05 })
//!     .expect("non-empty dataset");
//! assert!(outcome.report.makespan_seconds > 0.0);
//! ```

pub mod audit;
pub mod cache;
pub mod chaos;
pub mod elastic;
pub mod estimator;
pub mod framework;
pub mod frontier;
pub mod pareto;
pub mod partitioner;
pub mod recovery;
pub mod session;
pub mod stages;
pub mod stealing;

pub use audit::{audit_run, AuditReport, Invariant, Violation};
pub use cache::{CacheStats, Fingerprint, FingerprintBuilder, PlanCache, SharedPlanCache};
pub use chaos::{run_chaos, shrink_schedule, ChaosConfig, ChaosReport, ScheduleFailure};
pub use elastic::{advise_join, JoinAdvice};
pub use estimator::{EnergyEstimator, HeterogeneityEstimator, NodeTimeModel, SamplingPlan};
pub use framework::{
    DurabilityReport, FaultRunOutcome, Framework, FrameworkConfig, NodeDurability, Plan,
    PlanTimings, RunOutcome, Strategy,
};
pub use frontier::{
    dominates, explore, hypervolume, pareto_frontier, AlphaSolver, FrontierConfig, FrontierPoint,
    FrontierReport, FrontierResult, ModelerSolver, Objective, ObjectiveSet,
};
pub use pareto::{ParetoModeler, ParetoPoint, ParetoVertex, PartitionPlanError};
pub use session::{FrontierOutcome, PlanSession};
pub use stages::{dataset_fingerprint, Deadline, PlanEngine, PlanError, StageReuse};
pub use recovery::{
    ExecRequest, RecoveryConfig, RecoveryConfigError, RecoveryOutcome, RecoveryReport,
};
pub use partitioner::{DataPartitioner, PartitionLayout};
pub use stealing::RecordWork;

// The stratifier is a first-class component of the framework; re-export it
// so downstream users need only this crate.
pub use pareto_stratify::{Stratification, Stratifier, StratifierConfig};
