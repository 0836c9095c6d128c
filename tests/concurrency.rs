//! Concurrency: the paper's server model runs many query sessions
//! against one index. The tree and pager use interior mutability
//! (`parking_lot`), so shared read-only access from multiple threads
//! must be safe and consistent.

use dq_repro::mobiquery::{NaiveEngine, NpdqEngine, PdqEngine};
use dq_repro::storage::PageStore;
use dq_repro::workload::{Dataset, DatasetConfig, QueryWorkload, QueryWorkloadConfig};

fn setup() -> (
    Dataset,
    dq_repro::rtree::RTree<dq_repro::rtree::NsiSegmentRecord<2>, dq_repro::storage::Pager>,
    Vec<dq_repro::workload::DynamicQuerySpec>,
) {
    let ds = Dataset::generate(DatasetConfig {
        objects: 400,
        duration: 15.0,
        space_side: 100.0,
        seed: 0xC0C0,
    });
    let tree = ds.build_nsi_tree();
    let specs = QueryWorkload::new(QueryWorkloadConfig {
        count: 8,
        data_duration: 15.0,
        subsequent_frames: 20,
        ..QueryWorkloadConfig::paper(0.8)
    })
    .generate();
    (ds, tree, specs)
}

#[test]
fn parallel_pdq_sessions_share_one_tree() {
    let (_ds, tree, specs) = setup();
    // Serial reference.
    let serial: Vec<Vec<(u32, u32)>> = specs
        .iter()
        .map(|spec| {
            let mut e = PdqEngine::start(&tree, spec.trajectory.clone());
            let t0 = spec.frame_times[0];
            let t1 = *spec.frame_times.last().unwrap();
            e.drain_window(&tree, t0, t1)
                .iter()
                .map(|r| (r.record.oid, r.record.seq))
                .collect()
        })
        .collect();
    // Parallel: one session per thread, all sharing &tree.
    let parallel: Vec<Vec<(u32, u32)>> = std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| {
                let tree = &tree;
                s.spawn(move || {
                    let mut e = PdqEngine::start(tree, spec.trajectory.clone());
                    let t0 = spec.frame_times[0];
                    let t1 = *spec.frame_times.last().unwrap();
                    e.drain_window(tree, t0, t1)
                        .iter()
                        .map(|r| (r.record.oid, r.record.seq))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(serial, parallel);
}

#[test]
fn parallel_mixed_engines() {
    let (ds, tree, specs) = setup();
    let dta = ds.build_dta_tree();
    let io_before = tree.store().io();
    std::thread::scope(|s| {
        // Naive scans.
        for spec in &specs[..4] {
            let tree = &tree;
            s.spawn(move || {
                let e = NaiveEngine::new();
                for q in spec.snapshots() {
                    e.query_nsi(tree, &q, |_| {});
                }
            });
        }
        // NPDQ sessions on the DTA tree.
        for spec in &specs[4..] {
            let dta = &dta;
            s.spawn(move || {
                let mut e = NpdqEngine::new();
                for (i, _) in spec.frame_times.iter().enumerate() {
                    e.execute(dta, &spec.open_snapshot(i), |_| {});
                }
            });
        }
    });
    // The shared I/O counter saw every access, none lost to races.
    let delta = tree.store().io() - io_before;
    assert!(delta.reads > 0);
    assert_eq!(delta.writes, 0);
}
