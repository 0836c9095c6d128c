//! Ablation: index clustering × query shape for NPDQ discardability.
//!
//! A reproduction finding documented in EXPERIMENTS.md: with the paper's
//! workload (≈1-time-unit segment lifetimes), *instant* delta queries can
//! never benefit from Lemma 1 — every node holding currently-alive
//! segments also holds freshly-started ones, so `(Q∩R).t_start ⊆ P`
//! fails; and time-clustered leaves are spatially huge, so the spatial
//! containment fails too. The §4.2 open-ended query shape fixes the
//! temporal axis, and spatial-only clustering fixes the spatial one.
//! This bench measures all combinations.

use bench::{f2, FigureTable, Scale};
use mobiquery::{NaiveEngine, NpdqEngine, SnapshotQuery};
use rtree::bulk::bulk_load;
use rtree::{DtaSegmentRecord, RTree, RTreeConfig};
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
        for (i, t) in spec.frame_times.iter().enumerate() {
            let q = if open_ended {
                spec.open_snapshot(i)
            } else {
                SnapshotQuery::at_instant(spec.trajectory.window_at(*t), *t)
            };
            let s = eng.execute(tree, &q, |_| {});
            let ns = naive.query_dta(tree, &q, |_| {});
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
