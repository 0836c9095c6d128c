//! Region-partitioned serving. Seams: objects sit at every integer x,
//! cuts sit on integers, and a unit window's edges cross them exactly at
//! frame times, so every closed-slab tie is hit; the served oracle
//! (`support::served`) holds each case to exactly-once delivery in the
//! record-list truth's frames, concurrent == serial, and the per-region
//! read identities. And under a realistic workload, a seeded data set
//! over a uniform grid loads no region past twice the mean.

mod support;

use dq_repro::mobiquery::{RegionGrid, SessionKind};
use dq_repro::stkit::Interval;
use support::served::{check_served, Case};
use support::{integer_line, mixed_workload, partitioned, slide_spec, R};

/// A PDQ sweep over 1, 2 and 4 regions with objects exactly on every
/// cut: each entry event is delivered once, in its true frame.
#[test]
fn pdq_entry_events_are_exactly_once_across_seams() {
    for cuts in [vec![], vec![20.0], vec![10.0, 20.0, 30.0]] {
        let specs = vec![slide_spec(SessionKind::Pdq, 0.0, 40, 40.0)];
        check_served(&Case { cuts, ..Case::new(integer_line(40), Vec::new(), specs) }).unwrap();
    }
}

/// NPDQ across seams: frame `k` is exactly what entered the window since
/// `t_{k-1}`, seam replicas emitted once, the first frame the full window.
#[test]
fn npdq_seam_frames_are_sound_and_entry_complete() {
    let specs = vec![slide_spec(SessionKind::Npdq, 0.0, 20, 20.0)];
    let case = Case { cuts: vec![5.0, 10.0, 15.0], ..Case::new(integer_line(40), Vec::new(), specs) };
    check_served(&case).unwrap();
}

/// The mixed workload over 2 and 4 regions behind small pools.
#[test]
fn partitioned_serve_matches_partitioned_serial_on_mixed_workload() {
    let (preload, inserts, specs) = mixed_workload();
    for cuts in [vec![50.0], vec![25.0, 50.0, 75.0]] {
        let case = Case { cuts, faults: Some((0xD1CE, 0.0)), ..Case::new(preload.clone(), inserts.clone(), specs.clone()) };
        check_served(&case).unwrap();
    }
}

/// A PDQ and an NPDQ sweep over three regions behind small pools, one
/// insert a frame: each region's level reads are its sessions' plus its
/// writer's, each a pool hit or miss, each miss one device read — and the
/// small pools both hit and miss.
#[test]
fn per_region_reconciliation_identities_hold() {
    let inserts = (0..20)
        .map(|k| {
            let t = f64::from(k);
            let at = [t * 2.0 + 0.5, 0.5];
            vec![(R::new(1000 + k, 0, Interval::new(t, 200.0), at, at), t)]
        })
        .collect();
    let specs = vec![slide_spec(SessionKind::Pdq, 0.0, 20, 40.0), slide_spec(SessionKind::Npdq, 0.0, 20, 40.0)];
    let case = Case { cuts: vec![20.0, 40.0], faults: Some((60, 0.0)), ..Case::new(integer_line(60), inserts, specs) };
    let store = check_served(&case).unwrap().store;
    assert!(store.misses > 0 && store.hits > 0, "{store:?}");
}

/// Load balance: the mixed workload over a uniform 4-region grid puts no
/// more than twice the mean load (writer reads and writes plus session
/// reads) on any region.
#[test]
fn uniform_workload_loads_no_region_past_twice_the_mean() {
    let (preload, inserts, specs) = mixed_workload();
    let server = partitioned(RegionGrid::uniform(0, Interval::new(0.0, 100.0), 4), &preload);
    server.serve(&specs, &inserts);
    let loads = server.region_loads();
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    let max = *loads.iter().max().expect("four regions") as f64;
    assert!(max <= 2.0 * mean, "loads {loads:?}: hottest {:.2}x the mean", max / mean);
}
