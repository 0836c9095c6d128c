//! # mobiquery — dynamic queries over mobile objects (EDBT 2002)
//!
//! The paper's primary contribution: query processing for *dynamic
//! queries* — spatio-temporal range queries whose window moves with an
//! observer — over an R-tree of motion segments, retrieving each object
//! **once**, when it enters the view, instead of re-running a snapshot
//! query per rendered frame.
//!
//! * [`SnapshotQuery`] — one instantaneous (or small-extent) range query
//!   (Definition 3).
//! * [`Trajectory`] — a predictive dynamic query's sequence of key
//!   snapshots, with the Eq. 3 overlap-time computation against bounding
//!   boxes and exact motion segments.
//! * [`PdqEngine`] — the §4.1 algorithm: a priority queue ordered by
//!   overlap start time; `get_next(t_start, t_end)` emits objects as they
//!   enter the view, visiting each R-tree node at most once per dynamic
//!   query. Handles concurrent insertions via the §4.1 update-management
//!   protocol (the top-most node a split created — the LCA of all new
//!   nodes — enqueued without a read; duplicate elimination on pop).
//! * [`NpdqEngine`] — the §4.2 algorithm for unknown trajectories:
//!   consecutive snapshot queries over the double-temporal-axes index,
//!   discarding any subtree whose overlap with the current query is
//!   covered by the previous one (`(Q ∩ R) ⊆ P`), with node timestamps
//!   deciding when the previous query is still usable.
//! * Semi-predictive queries (§4) are [`PdqEngine`] over
//!   [`Trajectory::inflate`]`(δ)`: "SPDQ can be easily implemented using
//!   the PDQ algorithms".
//! * [`naive`] — the baseline: every snapshot evaluated independently.
//! * [`ClientCache`] — the client-side buffer keyed on object
//!   disappearance time that completes the paper's system picture.
//! * [`knn`] — the paper's future-work extension (i): best-first
//!   nearest-neighbour search at an instant, on the same priority-queue
//!   machinery.

// Numeric kernels iterate several fixed-size arrays in lockstep; index
// loops keep the per-axis math symmetric and readable.
#![allow(clippy::needless_range_loop)]

pub mod aggregate;
pub mod cache;
pub mod clock;
pub mod durability;
pub mod join;
pub mod knn;
pub mod layout;
pub mod naive;
pub mod npdq;
pub mod pdq;
pub mod psi;
pub mod region;
pub mod router;
pub mod service;
pub mod snapshot;
pub mod stats;
pub mod trajectory;

pub use aggregate::CountProfile;
pub use cache::ClientCache;
pub use clock::{FrameClock, SessionLiveness};
pub use durability::{
    DurableImage, DurableLog, DurableStats, LogicalCheckpoint, RecoverError, RecoveryReport,
};
pub use join::{distance_join, self_distance_join, JoinPair};
pub use knn::{knn_at, KnnResult};
pub use layout::{MotionRecord, PdqRecord};
pub use naive::NaiveEngine;
pub use npdq::NpdqEngine;
pub use pdq::{PdqEngine, PdqResult};
pub use psi::{psi_query, psi_query_key, PsiBounds, PsiSegmentRecord};
pub use region::RegionGrid;
pub use router::{PartitionedDqServer, PartitionedServeReport, RegionReport};
pub use service::{
    FrameDelta, FrameReport, FrameSink, ServeReport, SessionKind, SessionOutcome,
    SessionOutput, SessionPlan, SessionSpec, SinkVerdict,
};
pub use snapshot::SnapshotQuery;
pub use stats::QueryStats;
pub use trajectory::{KeySnapshot, Trajectory};

/// Convenience alias: the NSI record type the PDQ/naive engines index.
pub type NsiRecord<const D: usize> = rtree::NsiSegmentRecord<D>;
/// Convenience alias: the double-temporal-axes record type NPDQ indexes.
pub type DtaRecord<const D: usize> = rtree::DtaSegmentRecord<D>;
