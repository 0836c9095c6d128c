//! # workload — the paper's evaluation workload (§5), reproducible
//!
//! Data side: [`Dataset`] wraps the `motion` crate's random walk with the
//! paper's parameters (5000 objects, 100×100 space, ≈1 update/time-unit,
//! 100 time units ⇒ ≈500 k segments) and builds the NSI / double-temporal-
//! axes R-trees at the paper's page size and fill factor.
//!
//! Query side: [`QueryWorkload`] generates dynamic-query trajectories at a
//! given *overlap level* — the paper's x-axis. Consecutive snapshots
//! 0.1 time units apart overlap by `1 − v·0.1/w`, so the trajectory speed
//! for a target overlap is `v = (1 − overlap)·w/0.1`. Fast trajectories
//! bounce off the space borders (each reflection becomes a key snapshot),
//! keeping every query inside the data space.
//!
//! Experiment side: [`experiments`] contains the measurement loops shared
//! by every figure harness: evaluate a dynamic query with the naive /
//! PDQ / NPDQ engines and report first-query and average-subsequent-query
//! cost.

pub mod dataset;
pub mod experiments;
pub mod queries;

pub use dataset::{Dataset, DatasetConfig};
pub use experiments::{measure_naive_dta, measure_naive_nsi, measure_npdq, measure_pdq, PointSummary};
pub use queries::{DynamicQuerySpec, QueryWorkload, QueryWorkloadConfig};
