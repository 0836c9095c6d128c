//! # motion — mobile objects and their update streams
//!
//! §3.1 of the paper: an object's location changes continuously; the
//! database stores, per update, a validity interval and motion parameters
//! (initial location + constant velocity), i.e. one linear
//! [`stkit::MotionSegment`] per update. This crate produces those update
//! streams:
//!
//! * [`MotionUpdate`] — one object's motion update event, the unit every
//!   index ingests.
//! * [`RandomWalk`] — the paper's workload generator (§5): `n` objects in
//!   a box, re-drawing a random direction roughly every
//!   `mean_update_interval` time units (normally distributed), at a speed
//!   around `speed`. Deterministic under a seed.
//! * [`DeadReckoner`] — the threshold-based update policy of §3.1: an
//!   update is emitted only when the object's true position deviates from
//!   the database's dead-reckoned prediction by more than a threshold,
//!   bounding the database-side error (asserted by
//!   `examples/dead_reckoning.rs`).
//! * [`ObjectTrace`] — a per-object segment history with continuity
//!   checks and position lookup, shared by tests and benches.

// Numeric kernels iterate several fixed-size arrays in lockstep; index
// loops keep the per-axis math symmetric and readable.
#![allow(clippy::needless_range_loop)]

pub mod deadreckon;
pub mod rng;
pub mod trace;
pub mod update;
pub mod walk;

pub use deadreckon::DeadReckoner;
pub use trace::ObjectTrace;
pub use update::MotionUpdate;
pub use walk::{RandomWalk, RandomWalkConfig};
