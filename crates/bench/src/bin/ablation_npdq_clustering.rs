//! Ablation: index clustering × query shape for NPDQ discardability.
//!
//! A reproduction finding documented in EXPERIMENTS.md: with the paper's
//! workload (≈1-time-unit segment lifetimes), *instant* delta queries
//! can hardly discard — an instant query skips a subtree only if every
//! record under it started by the previous instant and the part of its
//! space its records could reach the current window from lies inside the
//! previous window (the motion-bounded rule, `npdq.rs`), and a node
//! holding currently-alive segments also holds freshly started ones,
//! while time-clustered leaves are spatially huge. The
//! §4.2 open-ended query shape keeps Lemma 1, and spatial-only
//! clustering makes its spatial containment hold. This bench measures
//! all combinations, and asserts every NPDQ frame over these static
//! trees against naive's newly visible set, so a discard that loses a
//! record fails the run instead of scoring as a saving.

use bench::{f2, FigureTable, Scale};
use mobiquery::{MotionRecord, NaiveEngine, NpdqEngine, SnapshotQuery};
use rtree::bulk::bulk_load;
use rtree::{DtaSegmentRecord, RTree, RTreeConfig};
use std::collections::BTreeSet;
use storage::Pager;
use workload::{DynamicQuerySpec, QueryWorkload};

fn run(
    tree: &RTree<DtaSegmentRecord<2>, Pager>,
    specs: &[DynamicQuerySpec],
    open_ended: bool,
) -> (f64, f64) {
    let naive = NaiveEngine::new();
    let (mut npdq_disk, mut naive_disk, mut frames) = (0u64, 0u64, 0u64);
    for spec in specs {
        let mut eng = NpdqEngine::new();
        let mut before = BTreeSet::new();
        for (i, t) in spec.frame_times.iter().enumerate() {
            let q = if open_ended {
                spec.open_snapshot(i)
            } else {
                SnapshotQuery::at_instant(spec.trajectory.window_at(*t), *t)
            };
            let mut got = BTreeSet::new();
            let s = eng.execute(tree, &q, |r| {
                got.insert(r.ids());
            });
            let mut visible = BTreeSet::new();
            let ns = naive.query_dta(tree, &q, |r| {
                visible.insert(r.ids());
            });
            // Over a static tree an NPDQ frame is exactly what the
            // snapshot matches that the previous one did not.
            let fresh: BTreeSet<_> = visible.difference(&before).copied().collect();
            assert_eq!(got, fresh, "frame {i} at t = {t}: NPDQ vs naive's newly visible set");
            before = visible;
            if i > 0 {
                npdq_disk += s.disk_accesses;
                naive_disk += ns.disk_accesses;
                frames += 1;
            }
        }
    }
    (
        naive_disk as f64 / frames as f64,
        npdq_disk as f64 / frames as f64,
    )
}

fn main() {
    let scale = Scale::from_env();
    let ds = bench::build_dataset(scale);
    let specs = QueryWorkload::new(scale.query_config(0.9, 8.0)).generate();

    let spatial = ds.build_dta_tree(); // STR, spatial-only tiling
    let balanced = bulk_load(Pager::new(), RTreeConfig::default(), ds.dta_records());
    let inserted = ds.build_dta_tree_inserted(); // time-ordered insertion

    let mut table = FigureTable::new(
        "ablation_npdq_clustering",
        "NPDQ effectiveness vs index clustering and query shape (overlap 90%)",
        &[
            "clustering",
            "query shape",
            "naive disk/query",
            "NPDQ disk/query",
            "saving",
        ],
    );
    for (cname, tree) in [
        ("spatial STR", &spatial),
        ("balanced STR", &balanced),
        ("time-ordered insert", &inserted),
    ] {
        for (qname, open) in [("instant", false), ("open-ended", true)] {
            let (naive, npdq) = run(tree, &specs, open);
            let saving = if naive > 0.0 {
                format!("{:.1}%", (1.0 - npdq / naive) * 100.0)
            } else {
                "-".into()
            };
            table.row(vec![
                cname.into(),
                qname.into(),
                f2(naive),
                f2(npdq),
                saving,
            ]);
        }
    }
    table.print();
    table.write_json();
}
