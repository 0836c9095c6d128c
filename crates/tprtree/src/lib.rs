//! # tprtree — a time-parameterized R-tree for current and future motion
//!
//! The paper's future work (iii): "adapting dynamic queries to a
//! specialized index for mobile objects such as TPR-tree \[19\]" (Šaltenis,
//! Jensen, Leutenegger, Lopez — SIGMOD 2000). Where the NSI index of the
//! main reproduction stores *historical* motion segments by their static
//! space-time bounding boxes, a TPR-tree stores each object's **current
//! motion**: a moving point, bounded by node rectangles whose edges
//! themselves move linearly with time.
//!
//! The implementation reuses the entire paginated R-tree substrate: a
//! [`TpBox`] implements `rtree::Key` (with volume/margin defined as the
//! *integrals* over the box's active time window, after the TPR-tree's
//! integrated-area insertion goodness), and a [`TprRecord`] implements
//! `rtree::Record`, so `rtree::RTree<TprRecord, S>` *is* the TPR-tree —
//! insertion with same-path splits, bulk loading and node stamps all
//! come for free.
//!
//! On top, [`TprDynamicQuery`] is the §4.1 best-first algorithm —
//! `mobiquery::PdqEngine` itself, instantiated over [`TprRecord`] — run
//! against the moving-window trajectory: the overlap time of a
//! linearly-moving query window with a linearly-moving bounding rectangle
//! is still a conjunction of linear inequalities, so `stkit::LinearForm`
//! solves it exactly. The same geometry kit and the same engine power
//! both index families; this crate supplies only the geometry.

// Numeric kernels iterate several fixed-size arrays in lockstep; index
// loops keep the per-axis math symmetric and readable.
#![allow(clippy::needless_range_loop)]

pub mod engine;
pub mod record;
pub mod tpbox;

pub use engine::TprDynamicQuery;
pub use record::TprRecord;
pub use tpbox::TpBox;

/// A TPR-tree over 2-d moving points, on any page store.
pub type TprTree<S> = rtree::RTree<TprRecord, S>;
