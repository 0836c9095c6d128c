//! Concurrency: the paper's server model runs many query sessions
//! against one index. The mixed workload's sessions share one region's
//! tree, each on its own thread, with no live inserts; the served oracle
//! (`support::served`) holds the concurrent serve to the serial one and
//! to the record-list truth. The library engines, which the serving
//! lanes do not run, share their trees across threads too.

mod support;

use dq_repro::mobiquery::{NaiveEngine, NpdqEngine, SessionKind};
use dq_repro::storage::PageStore;
use dq_repro::workload::{Dataset, DatasetConfig, QueryWorkload, QueryWorkloadConfig};
use support::mixed_workload;
use support::served::{check_served, Case};

/// The mixed workload's preload and those of its sessions `keep` admits.
fn shared_tree_case(keep: impl Fn(SessionKind) -> bool) -> Case {
    let (preload, _, specs) = mixed_workload();
    Case::new(preload, Vec::new(), specs.into_iter().filter(|s| keep(s.kind)).collect())
}

#[test]
fn parallel_pdq_sessions_share_one_tree() {
    check_served(&shared_tree_case(|kind| kind == SessionKind::Pdq)).unwrap();
}

/// The served sessions of both kinds; then naive scans of an NSI tree and
/// NPDQ sessions on a DTA tree, one thread each, answer as they do one
/// at a time, and the NSI tree's shared I/O counter sees reads, no write.
#[test]
fn parallel_mixed_engines() {
    check_served(&shared_tree_case(|_| true)).unwrap();
    let ds = Dataset::generate(DatasetConfig { objects: 400, duration: 15.0, space_side: 100.0, seed: 0xC0C0 });
    let (nsi, dta) = (ds.build_nsi_tree(), ds.build_dta_tree());
    let specs = QueryWorkload::new(QueryWorkloadConfig {
        count: 8,
        data_duration: 15.0,
        subsequent_frames: 20,
        ..QueryWorkloadConfig::paper(0.8)
    })
    .generate();
    let run = |i: usize| {
        let (spec, mut got) = (&specs[i], Vec::new());
        if i < 4 {
            for q in spec.snapshots() {
                NaiveEngine::new().query_nsi(&nsi, &q, |r| got.push((r.oid, r.seq)));
            }
        } else {
            let mut e = NpdqEngine::new();
            for k in 0..spec.frame_times.len() {
                e.execute(&dta, &spec.open_snapshot(k), |r| got.push((r.oid, r.seq)));
            }
        }
        got
    };
    let serial: Vec<_> = (0..specs.len()).map(run).collect();
    let io = nsi.store().io();
    let parallel: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..specs.len()).map(|i| s.spawn(move || run(i))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let delta = nsi.store().io() - io;
    assert!(delta.reads > 0 && delta.writes == 0, "{delta:?}");
    assert_eq!(serial, parallel);
}
