//! # rtree — a paginated R-tree for spatio-temporal motion data
//!
//! The index substrate of the EDBT 2002 reproduction (§3.2): motion
//! segments are indexed by their space-time bounding boxes in an R-tree
//! whose nodes map one-to-one onto the 4 KiB pages of the [`storage`]
//! simulated disk. Loading a node is exactly one disk access — the paper's
//! I/O metric.
//!
//! Features required by the paper and provided here:
//!
//! * **Generic keys** — the tree is generic over [`Key`]; the provided
//!   implementation is [`stkit::StBox`] with `T = 1` temporal axis (native
//!   space indexing) or `T = 2` (the double-temporal-axes layout NPDQ
//!   needs, §4.2 Fig. 5(b)).
//! * **Exact leaf records** — leaves store actual motion segments (not
//!   just their boxes) so queries can run the exact segment-vs-query test
//!   of §3.2 and avoid false admissions ([`Record`]).
//! * **Guttman insertion** with linear or quadratic split
//!   ([`SplitPolicy`]), modified per §4.1 so that all nodes created by a
//!   cascading split lie **on one path**: the split group containing the
//!   cascading new entry always receives the freshly allocated page. The
//!   new nodes therefore nest, and the insert reports the top-most of
//!   them — their common ancestor, and a page no running query has read
//!   ([`InsertReport`]) — so running dynamic queries can be notified.
//! * **Node stamps** — every node an insert writes is stamped with the
//!   tree's record count after it, so "written since the previous query"
//!   is a comparison with the count that query saw: what lets NPDQ decide
//!   whether the previous query may be used to discard a subtree (§4.2).
//! * **A record by page** — beside the pages, in memory, the tree keeps
//!   for each page an upper bound on the latest record start and on the
//!   greatest per-axis speed under it, and the page's stamp
//!   ([`RTree::page_bound`], [`PageBound`]): what lets an instant NPDQ
//!   query judge a child, written or not, started or not, and how far its
//!   records can move, without reading it.
//! * **STR bulk loading** ([`bulk`]): one packing routine, called by the
//!   §5 experiment build at the paper's fill factor of 0.5 and by every
//!   rebuild of a serving tree.
//! * **Range search** with I/O and comparison counting — the *naive*
//!   baseline the paper compares against, and the building block for the
//!   first snapshot of every dynamic query.
//!
//! On-page geometry is `f32` (bounds rounded outward, so containment
//! invariants survive the narrowing); this reproduces the paper's fanout
//! of 145 (internal) / 127 (leaf) on 4 KiB pages for `d = 2`.

pub mod bulk;
pub mod levels;
pub mod node;
pub mod records;
pub mod search;
pub mod split;
mod staged;
pub mod stbox_key;
pub mod traits;
pub mod tree;

pub use levels::{LevelCounters, LevelSnapshot, MAX_TRACKED_LEVELS};
pub use node::NodeRef;
pub use records::{DtaSegmentRecord, NsiSegmentRecord};
pub use search::QueryStats;
pub use split::SplitPolicy;
pub use traits::{Key, Record};
pub use tree::{EpochStats, InsertReport, Inserted, PageBound, RTree, RTreeConfig};
