//! # obs — observability kit for the serving path
//!
//! The paper's evaluation (§5) is entirely about *measured* query cost —
//! node accesses, queue growth, per-snapshot latency — but aggregate
//! post-run statistics cannot show a hot buffer-pool shard, a PDQ queue
//! ballooning mid-flight, or a frame-latency spike. This crate provides
//! the two primitives the rest of the workspace threads through its hot
//! paths, both cheap enough to stay on in release builds:
//!
//! * [`MetricsRegistry`] — named atomic counters, gauges and fixed-bucket
//!   latency histograms. Registration takes a short lock; every *update*
//!   goes through an `Arc` handle and is a single relaxed atomic op, so
//!   the hot path never contends. [`MetricsRegistry::render`] /
//!   [`MetricsRegistry::render_json`] dump every metric.
//! * [`TraceRing`] — a bounded ring of structured [`TraceEvent`]s
//!   (`FrameStart`/`FrameEnd`, `NodeVisit`, `QueueOp`, `CacheEvict`,
//!   `InsertBroadcast`). A per-thread ring is maintained behind
//!   [`trace`]; when the ring is full the oldest events are overwritten,
//!   so tracing is O(1) per event and never allocates after start-up.
//!
//! The same counters double as a *cross-check oracle*: because every
//! layer counts independently (pool hits+misses, per-level node reads,
//! per-engine `QueryStats`), exact identities between them pin down
//! accounting bugs — see `per_region_reconciliation_identities_hold`
//! in `tests/partition.rs` and `chaos_a` in `tests/chaos.rs`.

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricValue, MetricsRegistry};
pub use trace::{
    take_thread_trace, thread_trace_dropped, trace, EvictReason, QueueOpKind, TraceEvent, TraceRing,
    Watermark,
};
