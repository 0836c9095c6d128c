//! The paper's data set and index buildup (§5).

use motion::{MotionUpdate, RandomWalk, RandomWalkConfig};
use rtree::bulk::bulk_load;
use rtree::{DtaSegmentRecord, NsiSegmentRecord, RTree, RTreeConfig};
use storage::{PageStore, Pager};
use stkit::Rect;

/// Scalable version of the paper's data configuration. The paper's full
/// scale is [`DatasetConfig::paper`]; tests use smaller instances.
#[derive(Clone, Copy, Debug)]
pub struct DatasetConfig {
    /// Number of mobile objects (paper: 5000).
    pub objects: u32,
    /// Duration in time units (paper: 100).
    pub duration: f64,
    /// Side length of the square space (paper: 100).
    pub space_side: f64,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetConfig {
    /// The paper's §5 configuration: ≈ 502 504 segments.
    pub fn paper() -> Self {
        DatasetConfig {
            objects: 5000,
            duration: 100.0,
            space_side: 100.0,
            seed: 0xED87_2002,
        }
    }

    /// A scaled-down configuration for tests and quick runs: same object
    /// density per area-time, smaller totals.
    pub fn quick() -> Self {
        DatasetConfig {
            objects: 1000,
            duration: 20.0,
            space_side: 100.0,
            seed: 0xED87_2002,
        }
    }
}

/// The generated motion data plus everything needed to build indexes.
pub struct Dataset {
    config: DatasetConfig,
    updates: Vec<MotionUpdate<2>>,
}

impl Dataset {
    /// Generate the data set (deterministic per config).
    pub fn generate(config: DatasetConfig) -> Self {
        let walk = RandomWalk::new(RandomWalkConfig {
            objects: config.objects,
            space: Rect::from_corners([0.0, 0.0], [config.space_side, config.space_side]),
            duration: config.duration,
            seed: config.seed,
            ..RandomWalkConfig::default()
        });
        let updates =
            motion::update::interleave_by_time(walk.generate().into_iter().map(|t| t.updates));
        Dataset { config, updates }
    }

    /// The configuration this data set was generated from.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// All motion updates, sorted by start time.
    pub fn updates(&self) -> &[MotionUpdate<2>] {
        &self.updates
    }

    /// Number of motion segments (the paper reports 502 504 at full
    /// scale).
    pub fn segment_count(&self) -> usize {
        self.updates.len()
    }

    /// The data space.
    pub fn space(&self) -> Rect<2> {
        Rect::from_corners(
            [0.0, 0.0],
            [self.config.space_side, self.config.space_side],
        )
    }

    /// NSI leaf records for every update.
    pub fn nsi_records(&self) -> Vec<NsiSegmentRecord<2>> {
        self.updates
            .iter()
            .map(|u| {
                NsiSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position())
            })
            .collect()
    }

    /// Double-temporal-axes leaf records for every update.
    pub fn dta_records(&self) -> Vec<DtaSegmentRecord<2>> {
        self.updates
            .iter()
            .map(|u| {
                DtaSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position())
            })
            .collect()
    }

    /// Build the NSI tree the way a live moving-objects database does —
    /// by inserting updates in time order (each insert stamped with the
    /// motion's start time). This is the paper's index buildup: splits at
    /// the 0.5 minimum fill, and leaves strongly clustered in start time,
    /// which is what makes NPDQ discardability effective.
    pub fn build_nsi_tree(&self) -> RTree<NsiSegmentRecord<2>, Pager> {
        self.build_nsi_tree_on(Pager::new())
    }

    /// Build the double-temporal-axes tree for NPDQ: STR bulk load with
    /// *spatial-only* tiling (`bulk_leading_axes = 2`).
    ///
    /// NPDQ's discardability for open-ended queries (§4.2) prunes nodes
    /// spatially interior to the previous query window; that requires
    /// leaf spatial extents smaller than the window, which at the paper's
    /// data density is only achievable when leaves are clustered purely
    /// by space (fine spatial tiles, wide temporal extents). See the
    /// `ablation_npdq_clustering` bench for the quantified comparison.
    pub fn build_dta_tree(&self) -> RTree<DtaSegmentRecord<2>, Pager> {
        let cfg = RTreeConfig {
            bulk_leading_axes: Some(2),
            ..RTreeConfig::default()
        };
        bulk_load(Pager::new(), cfg, self.dta_records())
    }

    /// Double-temporal-axes tree built by time-ordered insertion — the
    /// live-database build, used by the update-management experiments and
    /// the clustering ablation.
    pub fn build_dta_tree_inserted(&self) -> RTree<DtaSegmentRecord<2>, Pager> {
        let mut tree = RTree::new(Pager::new(), RTreeConfig::default());
        for r in self.dta_records() {
            tree.insert(r, r.seg.t.lo);
        }
        tree
    }

    /// Time-ordered insertion build over a caller-supplied store (e.g. a
    /// buffer pool for the buffering ablation).
    pub fn build_nsi_tree_on<S: PageStore>(&self, store: S) -> RTree<NsiSegmentRecord<2>, S> {
        let mut tree = RTree::new(store, RTreeConfig::default());
        for r in self.nsi_records() {
            tree.insert(r, r.seg.t.lo);
        }
        tree
    }

    /// STR bulk-loaded NSI tree (space-first clustering) — kept for the
    /// build-method ablation: bulk loading at 0.5 fill produces the same
    /// size index but coarse temporal clustering, which defeats NPDQ
    /// discardability.
    pub fn build_nsi_tree_bulk(&self) -> RTree<NsiSegmentRecord<2>, Pager> {
        bulk_load(Pager::new(), RTreeConfig::default(), self.nsi_records())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_dataset_shape() {
        let ds = Dataset::generate(DatasetConfig::quick());
        // 1000 objects × 20 tu / ≈1 per tu ⇒ ≈ 20 000 segments.
        let n = ds.segment_count();
        assert!((19_000..24_000).contains(&n), "{n} segments");
        // Sorted by start time.
        assert!(ds
            .updates()
            .windows(2)
            .all(|w| w[0].seg.t.lo <= w[1].seg.t.lo));
    }

    #[test]
    fn trees_build_and_validate() {
        let ds = Dataset::generate(DatasetConfig {
            objects: 200,
            duration: 10.0,
            ..DatasetConfig::quick()
        });
        let nsi = ds.build_nsi_tree();
        let inv = nsi.validate().unwrap();
        assert_eq!(inv.records as usize, ds.segment_count());
        let dta = ds.build_dta_tree();
        assert_eq!(dta.len() as usize, ds.segment_count());
        dta.validate().unwrap();
    }

    #[test]
    fn deterministic() {
        let a = Dataset::generate(DatasetConfig::quick());
        let b = Dataset::generate(DatasetConfig::quick());
        assert_eq!(a.updates(), b.updates());
    }
}

#[cfg(test)]
mod clustering_tests {
    use super::*;
    use rtree::Record;

    /// Regression guard for the NPDQ reproduction finding: the DTA tree's
    /// leaves must be spatially fine (≪ the 8-unit query window), which
    /// only the spatial-only STR build provides. If a refactor silently
    /// changes the build, NPDQ discardability quietly stops pruning; this
    /// test fails loudly instead.
    #[test]
    fn dta_tree_leaves_are_spatially_fine() {
        let ds = Dataset::generate(DatasetConfig {
            objects: 2000,
            duration: 20.0,
            ..DatasetConfig::quick()
        });
        let measure = |tree: &RTree<DtaSegmentRecord<2>, storage::Pager>| {
            let (mut n, mut sx) = (0u32, 0.0f64);
            let mut stack = vec![tree.root_page()];
            while let Some(pg) = stack.pop() {
                let node = tree.read_node(pg);
                if node.is_leaf() {
                    let k = node.leaf_records().fold(
                        rtree::Key::empty(),
                        |acc: <DtaSegmentRecord<2> as Record>::Key, r| {
                            rtree::Key::cover(&acc, &r.key())
                        },
                    );
                    n += 1;
                    sx += k.space.extent(0).length().max(k.space.extent(1).length());
                } else {
                    for (_, c) in node.internal_entries() {
                        stack.push(c);
                    }
                }
            }
            sx / n as f64
        };
        let spatial = measure(&ds.build_dta_tree());
        let inserted = measure(&ds.build_dta_tree_inserted());
        assert!(
            spatial < 8.0,
            "spatial STR leaves must be finer than the 8-unit window: {spatial:.1}"
        );
        assert!(
            spatial < inserted / 4.0,
            "spatial build ({spatial:.1}) must be much finer than insertion build ({inserted:.1})"
        );
    }
}
