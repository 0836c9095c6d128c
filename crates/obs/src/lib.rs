//! # obs — metrics for the serving path
//!
//! The paper's evaluation (§5) measures query cost in counts — node
//! accesses and distance computations — beside queue growth and
//! per-snapshot latency; aggregate post-run statistics cannot show a hot
//! buffer-pool shard, a PDQ queue ballooning mid-flight, or a
//! frame-latency spike. This crate provides the one instrument the rest
//! of the workspace threads through its hot paths, cheap enough to stay
//! on in release builds:
//!
//! * [`MetricsRegistry`] — named atomic counters, gauges and fixed-bucket
//!   latency histograms. Registration takes a short lock; every *update*
//!   goes through an `Arc` handle and is a single relaxed atomic op, so
//!   the hot path never contends. [`MetricsRegistry::render`] /
//!   [`MetricsRegistry::render_json`] dump every metric.
//!
//! The same counters double as a *cross-check oracle*: because every
//! layer counts independently (pool hits+misses, per-level node reads,
//! per-engine `QueryStats`), exact identities between them pin down
//! accounting bugs — see `per_region_reconciliation_identities_hold`
//! in `tests/partition.rs` and `chaos_a` in `tests/chaos.rs`.

pub mod metrics;

pub use metrics::{Counter, Gauge, Histogram, MetricValue, MetricsRegistry};
