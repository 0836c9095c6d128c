//! # stkit — spatio-temporal geometry kit
//!
//! Foundation types for the reproduction of *"Dynamic Queries over Mobile
//! Objects"* (Lazaridis, Porkaew, Mehrotra — EDBT 2002).
//!
//! The paper's Definitions 1 and 2 introduce an interval algebra
//! (intersection `∩`, coverage `⊎`, overlap `≬`, precedes `⪯`) and
//! `n`-dimensional boxes built from intervals. Section 4.1 (Eq. 3 and
//! Fig. 3) computes the *overlap-time interval* between an axis-aligned
//! bounding box and a linearly-moving query window; §3.2 requires exact
//! intersection tests between linear motion segments and query boxes at the
//! R-tree leaf level. This crate implements all of that geometry:
//!
//! * [`Interval`] — closed interval with empty-on-inversion semantics
//!   (Definition 1).
//! * [`TimeSet`] — a sorted union of disjoint intervals, used when the exact
//!   (possibly disconnected) overlap-time set of a box with a multi-segment
//!   trajectory is needed.
//! * [`Rect`] — const-generic `N`-dimensional box (Definition 2).
//! * [`LinearForm`] — scalar linear function of time `a + b·t`, with exact
//!   inequality solving; the workhorse behind every overlap-time formula.
//! * [`MotionSegment`] — a linear motion `x(t) = x₀ + v·(t − t₀)` over a
//!   validity interval, with bounding-box extraction and exact
//!   segment-vs-box intersection (the leaf-level optimization of §3.2).
//! * [`MovingWindow`] — a query window whose lower/upper borders move
//!   linearly with time (one trapezoid segment of Fig. 3), with
//!   overlap-time computation against static boxes and motion segments —
//!   the one overlap kernel the query engines run, entry by entry.
//!
//! All computation is `f64`; on-page storage downcasts to `f32` elsewhere
//! (see the `rtree` crate) exactly as the paper's fanout figures imply.

// Numeric kernels iterate several fixed-size arrays in lockstep; index
// loops keep the per-axis math symmetric and readable.
#![allow(clippy::needless_range_loop)]

mod batch;
pub mod interval;
pub mod linear;
pub mod quadratic;
pub mod rect;
pub mod segment;
pub mod timeset;
pub mod window;

#[doc(hidden)]
pub use batch::{RectBatch, SegmentBatch};
pub use interval::Interval;
pub use linear::LinearForm;
pub use quadratic::{solve_quadratic_le, within_distance};
pub use rect::Rect;
pub use segment::{MotionSegment, StBox};
pub use timeset::TimeSet;
pub use window::MovingWindow;

/// Scalar type used for all geometry computation.
pub type Scalar = f64;
