//! Statistics substrate for the Pareto analytics framework.
//!
//! This crate provides the numeric building blocks the partitioning
//! framework of Chakrabarti et al. (ICPP 2017) relies on:
//!
//! * [`regression`] — least-squares fitting of execution-time utility
//!   functions `f_i(x) = m_i x + c_i` (and higher-degree polynomial fits for
//!   the ablation discussed in §III-D of the paper).
//! * [`sampling`] — simple-random and stratified sampling without
//!   replacement, plus the progressive-sampling schedule (0.05%–2%) used by
//!   the task-specific heterogeneity estimator (§III-A).
//! * [`describe`] — summary statistics, Shannon entropy and distribution
//!   distances used to quantify partition skew and sample
//!   representativeness (Cochran's argument in §III-E).
//! * [`rng`] — deterministic, splittable random-number-generator helpers so
//!   that every experiment in the repository is reproducible from a single
//!   `u64` seed.
//!
//! All floating point work is `f64`; all randomized entry points take
//! explicit seeds or `&mut impl Rng` so nothing in the workspace depends on
//! ambient entropy.

pub mod describe;
pub mod regression;
pub mod rng;
pub mod sampling;

pub use describe::{entropy_bits, normalize, total_variation_distance};
pub use regression::{LinearFit, PolyFit, RegressionError};
pub use rng::{mix64, seeded_rng, split_seed};
pub use sampling::{
    largest_remainder_apportion, progressive_schedule, proportional_allocation,
    simple_random_sample, stratified_sample, SamplingError,
};
