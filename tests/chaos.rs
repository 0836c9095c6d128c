//! Chaos suite: faults against the served oracle, `support::served`.
//!
//! The contract under test, layer by layer:
//!
//! - **Transient-only faults + pool retry** are invisible: the serve is
//!   the fault-free one, and the only evidence is the retry counters,
//!   which pair one to one with the plan's own draws — on one region and
//!   on three (`chaos_a`, `chaos_e`).
//! - **A corrupt page** — damaged beneath a checksum layer, a flipped
//!   magic, a wrong level, a child id off the device or naming an
//!   ancestor — is a typed `Corrupt { page }` read, never a panic or a
//!   hang: the sessions that reach it degrade,
//!   the region writer drops and logs each insert that descends to it,
//!   everyone else is the fault-free serve, and concurrent equals serial,
//!   outcomes included (`chaos_b`, `c`, `d`, `n`, `o`). A non-finite
//!   float is not detected yet (`garbage_floats_answer_silently`).
//! - **A crash at any point of the durable write path** — mid-serve, or
//!   between a frame's group commit and its first page write — recovers
//!   exactly a committed-frame prefix, at least every frame acked before
//!   the crash, and the recovered server serves the rest of the run as
//!   the record list says (`chaos_g`), even when the WAL tail is torn or
//!   bit-flipped at every byte offset of its last record (`chaos_h`),
//!   under one region or many on either side of the crash (`chaos_j`),
//!   and from random batches whose ids repeat, cadences, crash points
//!   and damaged tails (`chaos_l`).
//!
//! Each of those is a pinned case of the oracle, asserting only what is
//! particular to it. Three faults are not oracle inputs and keep their
//! own checks: a full device fails the writer cleanly while the WAL keeps
//! the backlog recoverable (`chaos_i`), the log keeps checkpointing when
//! a region writer fails (`chaos_k`), and with no pool beneath it the
//! writer retries transients itself (`chaos_m`).

mod support;

use std::collections::BTreeSet;
use std::sync::Arc;

use dq_repro::mobiquery::{
    DurableImage, DurableLog, MotionRecord, PartitionedDqServer, RecoveryReport, RegionGrid, SessionKind,
    SessionOutcome, SessionPlan, SessionSpec,
};
use dq_repro::rtree::{RTree, RTreeConfig};
use dq_repro::stkit::Interval;
use dq_repro::storage::{FaultPlan, FaultyStore, PageStore, Pager};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use support::served::{check_served, multiset, At, Case, Corrupt, Crash, Mutation, Served, Tail};
use support::{line_inserts, line_records, slide_spec, Batch, R};

/// The single-tree server: one region over `store`, `recs` preloaded.
fn single<S: PageStore>(store: S, recs: &[R]) -> PartitionedDqServer<2, S> {
    let mut store = Some(store);
    PartitionedDqServer::build(RegionGrid::single(), recs, |_| {
        RTree::new(store.take().expect("one region"), RTreeConfig::default())
    })
}

/// Four sessions over 120 objects on a line, two inserts a frame.
fn transient_case(cuts: Vec<f64>, p: f64) -> Case {
    let specs = vec![
        slide_spec(SessionKind::Pdq, 0.0, 12, 12.0),
        slide_spec(SessionKind::Npdq, 30.0, 12, 12.0),
        slide_spec(SessionKind::Pdq, 60.0, 8, 12.0),
        slide_spec(SessionKind::Npdq, 90.0, 8, 12.0),
    ];
    Case { cuts, faults: Some((42, p)), ..Case::new(line_records(120), line_inserts(12, 2), specs) }
}

/// (a) Transient-only schedule, retry at the pool layer, one region. The
/// oracle pairs every retry with a transient the plan drew; the serve
/// must have drawn some.
#[test]
fn chaos_a_transient_faults_are_invisible_through_retry() {
    let store = check_served(&transient_case(Vec::new(), 0.05)).unwrap().store;
    assert!(store.retries > 0, "{store:?}");
}

/// (e) The same over three regions, each pool absorbing its own fault
/// stream. 10 %, not `chaos_a`'s 5 %: over these regions' few device
/// reads the seeds 42–44 inject nothing at 5 %.
#[test]
fn chaos_e_partitioned_transients_match_clean_partitioned_serial() {
    let store = check_served(&transient_case(vec![40.0, 80.0], 0.10)).unwrap().store;
    assert!(store.retries > 0, "{store:?}");
}

/// `mutation` on region 0's page `depth` steps down towards the line's
/// object at `x` (a leaf for any depth past the tree's height).
fn toward(x: f64, depth: usize, mutation: Mutation) -> Option<Corrupt> {
    Some(Corrupt { region: 0, toward: [x, 0.5], depth, mutation })
}

/// Any depth reaches a leaf.
const LEAF: usize = usize::MAX;

/// (b) Checksum-detected corruption of one leaf behind a pool: only the
/// sessions whose windows reach it degrade, and the one that never does
/// is `Ok`. A sweeps x ∈ [0, 9] and B x ∈ [24, 33], disjoint by more than
/// a page; C is B's sweep as per-frame snapshots. The leaf holds object
/// 28, which B and C cannot deliver. The serial serve's bare pager sees
/// a flipped magic on the same page instead.
#[test]
fn chaos_b_corruption_blast_radius_is_one_session() {
    let specs = vec![
        slide_spec(SessionKind::Pdq, 0.0, 8, 8.0),
        slide_spec(SessionKind::Pdq, 24.0, 8, 8.0),
        slide_spec(SessionKind::Npdq, 24.0, 8, 8.0),
    ];
    let case = Case {
        faults: Some((7, 0.0)),
        corrupt: toward(28.5, LEAF, Mutation::Checksum),
        ..Case::new(line_records(40), Vec::new(), specs)
    };
    let Served { report, store } = check_served(&case).unwrap();
    assert!(store.corrupt > 0, "the checksum layer caught nothing: {store:?}");
    assert!(report.sessions[0].outcome.is_ok(), "A: {:?}", report.sessions[0].outcome);
    for s in &report.sessions[1..] {
        assert!(matches!(s.outcome, SessionOutcome::Degraded { .. }), "{:?}", s.outcome);
        assert!(!s.results.contains(&(28, 0)), "a record on the corrupt page was delivered");
    }
}

/// (c) A node header destroyed on bare pagers, where no checksum can
/// catch it: the tree's total header parse does, so it costs the one
/// session that reaches the page a degraded run — not a panic, and
/// nothing for anyone else. Two ways to break it: a flipped magic, and a
/// header that parses field by field but contradicts itself, a leaf above
/// level 0, whose entries an engine would read as children.
#[test]
fn chaos_c_undetected_header_corruption_degrades_one_session() {
    for mutation in [Mutation::Magic, Mutation::Level] {
        let specs = vec![slide_spec(SessionKind::Pdq, 0.0, 8, 8.0), slide_spec(SessionKind::Pdq, 24.0, 8, 8.0)];
        let case = Case { corrupt: toward(28.5, LEAF, mutation), ..Case::new(line_records(40), Vec::new(), specs) };
        let report = check_served(&case).unwrap().report;
        assert!(report.sessions[0].outcome.is_ok(), "{mutation:?}, A: {:?}", report.sessions[0].outcome);
        let b = &report.sessions[1];
        assert!(matches!(b.outcome, SessionOutcome::Degraded { .. }), "{mutation:?}, B: {:?}", b.outcome);
        assert!(!b.results.contains(&(28, 0)), "{mutation:?}: a record on the corrupt page was delivered");
        assert_eq!((report.frames, report.sessions[0].frames.len()), (8, 8));
    }
}

/// (d) A corrupt root starves the writer: every insert descent fails
/// fail-stop, the records are dropped and logged, and the tree is left
/// exactly as it was — no partial writes, no panic, no deadlock.
#[test]
fn chaos_d_corrupt_root_stops_the_writer_cleanly() {
    let case = Case { corrupt: toward(0.5, 0, Mutation::Magic), ..Case::new(line_records(20), line_inserts(3, 1), vec![]) };
    let report = check_served(&case).unwrap().report;
    assert_eq!(report.inserts_applied, 0, "no insert can get past a corrupt root");
    assert_eq!(report.writer_outcome.errors().len(), 3);
    assert_eq!(report.writer_reads, 0, "a read that does not parse is not a node read");
    assert_eq!(report.writer_writes, 0, "the tree must be untouched");
}

/// (n) Bytes behind a header that parses: the root's entry over the
/// object at x = 5.5 names a child id with its high byte flipped, far
/// past the device's last page. The pager reports that read as
/// `Corrupt { page }` on that id — no panic reaches either
/// `catch_unwind` — so the region writer drops and logs each insert whose
/// descent follows it, the way `chaos_d`'s writer does, and both sessions
/// reach it and degrade.
#[test]
fn chaos_n_a_child_id_off_the_device_is_corrupt_and_the_serve_completes() {
    let specs = vec![slide_spec(SessionKind::Pdq, 0.0, 8, 8.0), slide_spec(SessionKind::Npdq, 0.0, 8, 8.0)];
    let case = Case {
        corrupt: toward(5.5, 0, Mutation::OffDevice),
        ..Case::new(line_records(40), line_inserts(4, 2), specs)
    };
    let report = check_served(&case).unwrap().report;
    let writer = &report.writer_outcome;
    assert!(matches!(writer, SessionOutcome::Degraded { .. }) && !writer.errors().is_empty(), "{writer:?}");
    for (i, s) in report.sessions.iter().enumerate() {
        assert!(!s.outcome.is_ok(), "session {i} never reached the bad child");
    }
}

/// (o) A child id that names an ancestor, on the internal page one level
/// under region 0's root: its entry over `x = 5.5` is rewritten to name
/// the root. Every descent carries the level it expects, so the root read
/// where a leaf should be is a typed `Corrupt { page }` on the root, not
/// a loop: region 0's writer drops and logs each insert that descends to
/// it, and the NPDQ session that sweeps over it degrades. The PDQ session
/// stays in region 1, past the cut at 60, so the oracle holds it to the
/// fault-free serve.
#[test]
fn chaos_o_a_child_id_naming_an_ancestor_is_corrupt_and_the_serve_completes() {
    let specs = vec![slide_spec(SessionKind::Pdq, 61.0, 8, 8.0), slide_spec(SessionKind::Npdq, 0.0, 8, 8.0)];
    // Each frame drops one object by the broken entry and one at x > 66,
    // which no descent through it reaches. The line's keys are flat in y;
    // these are not, so ChooseLeaf picks by x instead of by position.
    let inserts: Vec<Batch> = (0..4u32)
        .map(|k| {
            let t = f64::from(k) * 0.3;
            let object = |j: u32, x: f64| R::new(1000 + 2 * k + j, 0, Interval::new(t, 100.0), [x, 0.5], [x, 0.75]);
            vec![(object(0, 1.25 + f64::from(k)), t), (object(1, 66.25 + f64::from(k)), t)]
        })
        .collect();
    let case = Case {
        cuts: vec![60.0],
        corrupt: toward(5.5, 1, Mutation::Ancestor),
        ..Case::new(line_records(120), inserts, specs)
    };
    let report = check_served(&case).unwrap().report;
    let writer = &report.regions[0].writer_outcome;
    assert!(matches!(writer, SessionOutcome::Degraded { .. }), "writer: {writer:?}");
    assert_eq!(report.inserts_applied, 4, "only the inserts by x = 5.5 may be dropped");
    assert!(report.sessions[0].outcome.is_ok(), "PDQ: {:?}", report.sessions[0].outcome);
    assert!(matches!(report.sessions[1].outcome, SessionOutcome::Degraded { .. }), "NPDQ: {:?}", report.sessions[1].outcome);
}

/// A NaN key float on the leaf under the sessions' windows is not
/// detected yet: the serve completes, concurrent equals serial, and every
/// participant ends `Ok`, answering whatever the engines make of the
/// float. Once entry floats are validated at parse, this tightens to
/// `Corrupt { page }` on the leaf.
#[test]
fn garbage_floats_answer_silently() {
    let specs = vec![slide_spec(SessionKind::Pdq, 0.0, 8, 8.0), slide_spec(SessionKind::Npdq, 0.0, 8, 8.0)];
    let case = Case {
        corrupt: toward(2.5, LEAF, Mutation::Float(f32::NAN)),
        ..Case::new(line_records(40), line_inserts(4, 2), specs)
    };
    let report = check_served(&case).unwrap().report;
    assert!(report.writer_outcome.is_ok() && report.sessions.iter().all(|s| s.outcome.is_ok()), "{report:?}");
}

/// A durable case over `recs` and `inserts`, crashing as `crash` says.
fn durable(every: u64, crash: Crash, recs: Vec<R>, inserts: Vec<Batch>, specs: Vec<SessionSpec<2>>) -> Case {
    Case { durable: Some(every), crash: Some(crash), ..Case::new(recs, inserts, specs) }
}

/// A crash at `at` with a clean tail, recovered onto one region.
fn clean_crash(at: At) -> Crash {
    Crash { at, tail: Tail::Clean, cuts: Vec::new() }
}

/// (g) The crash-point matrix for the durable single-tree server: after
/// any number of served frames — captured mid-serve, and between the
/// next frame's group commit and its first page write — recovery hands
/// back a committed-frame prefix of at least the frames acked so far,
/// and the rebuilt server serves the rest. The checkpoint cadence of 3
/// puts initial-checkpoint-only, post-checkpoint and mid-interval crash
/// points all in the matrix; a crash past the session's last frame
/// captures the image after the serve.
#[test]
fn chaos_g_crash_points_recover_the_committed_prefix() {
    let (frames, inserts) = (6, line_inserts(6, 3));
    let specs = || vec![slide_spec(SessionKind::Pdq, 0.0, frames + 2, 8.0)];
    for j in 0..=frames {
        let mid = clean_crash(At::Frame(j));
        check_served(&durable(3, mid, line_records(60), inserts.clone(), specs())).unwrap();
        if let Some(next) = inserts.get(j) {
            let unapplied = clean_crash(At::Unapplied(next.clone()));
            check_served(&durable(3, unapplied, line_records(60), inserts[..j].to_vec(), specs())).unwrap();
        }
    }
}

/// (h) Tail damage at every byte offset of the WAL's last record — the
/// fourth frame's three inserts, 128 bytes, committed but never applied
/// — truncated or bit-flipped must land recovery on the last complete
/// group commit, and the tail reads clean only at the exact record
/// boundary.
#[test]
fn chaos_h_torn_and_corrupt_wal_tails_recover_the_last_complete_commit() {
    let inserts = line_inserts(4, 3);
    for back in 1..=128 {
        for tail in [Tail::Cut(back), Tail::Flip(back)] {
            let crash = Crash { at: At::Unapplied(inserts[3].clone()), tail, cuts: Vec::new() };
            check_served(&durable(0, crash, line_records(40), inserts[..3].to_vec(), Vec::new())).unwrap();
        }
    }
}

/// (j) Recovery through a rebuild, one region or many, before and after
/// the crash, over bare pagers and over buffer pools: one shared WAL
/// with a mid-run checkpoint, a crash with frame 7 committed but applied
/// to no region, recovery by `PartitionedDqServer::build` plus frame
/// replay, and the rest of the run served on the result.
#[test]
fn chaos_j_partitioned_recovery_is_result_equivalent() {
    let inserts = line_inserts(8, 2);
    let grids = || [Vec::new(), vec![40.0, 80.0]];
    for (cuts, faults) in grids().into_iter().flat_map(|c| [(c.clone(), None), (c, Some((0x1D, 0.0)))]) {
        for after in grids() {
            let specs = vec![
                slide_spec(SessionKind::Pdq, 0.0, 12, 12.0),
                slide_spec(SessionKind::Npdq, 30.0, 12, 12.0),
            ];
            let crash = Crash { at: At::Unapplied(inserts[7].clone()), tail: Tail::Clean, cuts: after };
            let case = durable(5, crash, line_records(120), inserts[..7].to_vec(), specs);
            let report = check_served(&Case { cuts: cuts.clone(), faults, ..case }).unwrap().report;
            assert!(report.checkpoints >= 1, "7 commits at every=5 must install a mid-run checkpoint");
        }
    }
}

/// (l) Random batches — ids that repeat and collide with the preload —
/// random cadences, and a crash at every commit boundary of each:
/// applied, and committed but unapplied with a clean, a torn and a
/// bit-flipped tail, over three regions recovered under three. Each
/// recovers a committed prefix as a multiset, duplicates included, whose
/// WAL holds exactly the frames its cadence leaves unfolded. No session
/// runs: the record-list truth keys on ids.
#[test]
fn chaos_l_random_crash_points_recover_the_committed_prefix() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x6C);
    for _ in 0..24 {
        let recs = line_records(rng.gen_range(0..40u32));
        let batches: Vec<Batch> = (0..rng.gen_range(1..9))
            .map(|k| {
                let t = k as f64 * 0.3;
                (0..rng.gen_range(0..5))
                    .map(|_| {
                        let (oid, x) = (rng.gen_range(20..60u32), rng.gen_range(0.0..36.0));
                        (R::new(oid, 0, Interval::new(t, 100.0), [x, 0.5], [x, 0.5]), t)
                    })
                    .collect()
            })
            .collect();
        let (every, back) = (rng.gen_range(0..5u64), rng.gen_range(1..200usize));
        for j in 0..=batches.len() {
            let mut crashes = vec![(At::Frame(usize::MAX), Tail::Clean)];
            if let Some(next) = batches.get(j) {
                let tails = [Tail::Clean, Tail::Cut(back), Tail::Flip(back)];
                crashes.extend(tails.map(|tail| (At::Unapplied(next.clone()), tail)));
            }
            for (at, tail) in crashes {
                let crash = Crash { at, tail, cuts: vec![12.0, 24.0] };
                let case = durable(every, crash, recs.clone(), batches[..j].to_vec(), Vec::new());
                check_served(&Case { cuts: vec![12.0, 24.0], ..case }).unwrap();
            }
        }
    }
}

/// Everything a durable image recovers, in order: the checkpoint base,
/// then the replayed frames' records.
fn recovered_records(image: &DurableImage) -> (Vec<R>, RecoveryReport) {
    let (mut all, frames, rep) = image.recover_records::<2>().unwrap();
    all.extend(frames.iter().flat_map(|(_, batch)| batch.iter().map(|(r, _)| *r)));
    (all, rep)
}

/// Every record `inserts` holds, after the preload `recs`.
fn committed<'a>(recs: &'a [R], inserts: &'a [Batch]) -> impl Iterator<Item = &'a R> {
    recs.iter().chain(inserts.iter().flatten().map(|(r, _)| r))
}

/// A fixed PDQ + NPDQ query pair.
fn requery_specs() -> Vec<SessionSpec<2>> {
    vec![slide_spec(SessionKind::Pdq, 0.0, 10, 10.0), slide_spec(SessionKind::Npdq, 20.0, 10, 10.0)]
}

/// (i) A device that fills mid-run: the writer degrades to `Failed`
/// without panicking or zombifying the serve (every frame still runs,
/// sessions still read), the log keeps group-committing and folding
/// every frame, and recovery onto an uncapped device replays the whole
/// backlog — every committed record, answered as the record list says.
#[test]
fn chaos_i_full_device_fails_writer_cleanly_and_wal_recovers_the_backlog() {
    let recs = line_records(30);
    let frames = 5;
    let inserts = line_inserts(frames, 4);

    // Cap the id space so the preload fits with two pages to spare: the
    // insert stream must hit `StorageError::Full` partway through.
    let pages = single(Pager::with_page_size(256), &recs).with_region_tree(0, |t| t.store().page_count());
    let capped = Pager::with_page_size(256).with_id_cap(pages + 2);

    let log = Arc::new(DurableLog::new(2));
    let server = single(capped, &recs).with_durability(Arc::clone(&log));
    let specs = vec![slide_spec(SessionKind::Pdq, 0.0, frames, 5.0)];
    let report = server.serve(&specs, &inserts);

    assert!(
        matches!(report.writer_outcome, SessionOutcome::Failed(_)),
        "full device must fail the writer, got {:?}",
        report.writer_outcome
    );
    assert!(
        report.inserts_applied < frames * 4,
        "the cap never bit — the regression is vacuous"
    );
    assert_eq!(report.frames, frames, "a failed writer must not stall the serve");
    assert!(report.sessions[0].outcome.is_ok(), "readers outlive a full device");
    assert_eq!(
        report.wal_appends, frames as u64,
        "a failed writer must keep group-committing"
    );
    let stats = log.stats();
    assert_eq!(
        (stats.checkpoints, stats.checkpoint_failures),
        (3, 0),
        "5 commits at every=2 fold twice past the base: a checkpoint holds what was committed"
    );

    let (got, rep) = recovered_records(&log.durable_image());
    assert_eq!(multiset(got.iter()), multiset(committed(&recs, &inserts)), "recovery lost a committed record");
    assert_eq!(rep.replayed_frames, 1, "only the unfolded frame replays");
    assert!(rep.tail.is_clean());
    check_served(&Case::new(got, Vec::new(), requery_specs())).unwrap();
}

/// The `(oid, seq)` set resident across a server's regions, seam
/// replicas collapsed.
fn resident_ids<S: PageStore>(srv: &PartitionedDqServer<2, S>) -> BTreeSet<(u32, u32)> {
    let mut ids = BTreeSet::new();
    for r in 0..srv.grid().len() {
        srv.with_region_tree(r, |t| t.try_scan(|rec| _ = ids.insert(rec.ids()))).unwrap();
    }
    ids
}

/// (k) A region writer that dies mid-run (its id-capped device fills)
/// must cost durability nothing: a logical checkpoint holds what was
/// *committed*, not what a tree absorbed, so checkpoints keep installing
/// on cadence, the WAL stays bounded by that cadence, and recovery hands
/// back every committed record — including the ones the dead region
/// never applied. Concurrent and serial paths alike.
#[test]
fn chaos_k_failed_region_writer_neither_stops_checkpoints_nor_loses_commits() {
    let recs = line_records(36);
    let frames = 12;
    let inserts = line_inserts(frames, 4);
    let grid = RegionGrid::from_cuts(0, vec![12.0, 24.0]);
    let plans = vec![SessionPlan::new(slide_spec(SessionKind::Pdq, 0.0, frames, 12.0))];

    // Cap region 1's id space two pages past its share of the preload:
    // its slice of the insert stream must hit `StorageError::Full`.
    let mut tree = RTree::new(Pager::with_page_size(256), RTreeConfig::default());
    for r in &recs[12..24] {
        tree.insert(*r, 0.0);
    }
    let pages = tree.store().page_count();
    let make = |r: usize| {
        let pager = Pager::with_page_size(256);
        let pager = if r == 1 { pager.with_id_cap(pages + 2) } else { pager };
        RTree::new(pager, RTreeConfig::default())
    };

    let extra = vec![(R::new(9000, 0, Interval::new(3.6, 100.0), [15.25, 0.5], [15.25, 0.5]), 3.6)];
    let all = [inserts.clone(), vec![extra.clone()]].concat();

    for concurrent in [true, false] {
        let registry = dq_repro::obs::MetricsRegistry::new();
        let log = Arc::new(DurableLog::new(3));
        log.attach_metrics(&registry);
        let server = PartitionedDqServer::build(grid.clone(), &recs, make).with_durability(Arc::clone(&log));
        let report = match concurrent {
            true => server.serve_plans_streamed(&plans, &inserts, &[]),
            false => server.serve_serial_plans(&plans, &inserts),
        };
        let what = if concurrent { "concurrent" } else { "serial" };

        for (r, region) in report.regions.iter().enumerate() {
            assert_eq!(
                matches!(region.writer_outcome, SessionOutcome::Failed(_)),
                r == 1,
                "{what}: region {r} ended {:?}",
                region.writer_outcome
            );
        }
        assert!(
            report.base.inserts_applied < frames * 4,
            "{what}: the cap never bit — the regression is vacuous"
        );
        assert!(report.base.sessions[0].outcome.is_ok(), "{what}");
        assert_eq!(report.base.wal_appends, frames as u64, "{what}");
        assert_eq!(
            report.base.checkpoints, 4,
            "{what}: 12 commits at every=3 fold four times, failed writer or not"
        );
        let stats = log.stats();
        assert_eq!((stats.checkpoints, stats.checkpoint_failures), (5, 0), "{what}");
        assert_eq!(registry.counter_value("wal.appends"), stats.wal.appends, "{what}");
        assert_eq!(
            log.durable_image().wal.len(),
            8,
            "{what}: the last fold left the WAL header-only"
        );

        // Crash with one more frame durable, aimed at the dead region.
        log.commit_frame(frames as u64, &extra);
        let (got, rep) = recovered_records(&log.durable_image());
        assert!(rep.tail.is_clean(), "{what}");
        assert_eq!(rep.replayed_frames, 1, "{what}: only the unfolded frame replays");
        assert_eq!(
            multiset(got.iter()),
            multiset(committed(&recs, &all)),
            "{what}: recovery lost or invented a committed record"
        );
        rep.publish(&registry);
        assert_eq!(registry.counter_value("wal.replayed_records"), rep.replayed_records, "{what}");

        // Rebuilt on devices with room, the recovered server holds it all.
        let held = resident_ids(&PartitionedDqServer::build(grid.clone(), &got, |_| {
            RTree::new(Pager::with_page_size(256), RTreeConfig::default())
        }));
        assert_eq!(held.len(), got.len(), "{what}");
        assert!(held.len() > resident_ids(&server).len(), "{what}: the crashed server was short");
    }
}

/// What a server answers to [`requery_specs`].
fn requery<S: PageStore>(server: &PartitionedDqServer<2, S>) -> Vec<Vec<(u32, u32)>> {
    let plans: Vec<_> = requery_specs().into_iter().map(SessionPlan::new).collect();
    let report = server.serve_serial_plans(&plans, &[]);
    for (i, s) in report.sessions.iter().enumerate() {
        assert!(s.outcome.is_ok(), "requery session {i}: {:?}", s.outcome);
    }
    report.base.sessions.into_iter().map(|s| s.results).collect()
}

/// (m) Transient faults with *no* retrying pool beneath the tree: every
/// injected fault reaches the region writer raw, whose own policy —
/// release the write lock, back off, retry the same record on the tree
/// the failed descent left unchanged — is then the only thing between a
/// fault and a dropped insert. No session runs while faults fire (a
/// session has no retry of its own and would degrade); the tree the
/// writer leaves behind must answer like the fault-free oracle's.
#[test]
fn chaos_m_writer_retries_transients_with_no_pool_beneath_it() {
    let recs = line_records(120);
    let inserts = line_inserts(12, 4);

    let faulty = FaultyStore::new(Pager::with_page_size(256), FaultPlan::transient(9, 0.05));
    faulty.set_enabled(false);
    let server = single(faulty, &recs);
    server.with_region_tree(0, |t| t.store().set_enabled(true));
    let report = server.serve(&[], &inserts);
    server.with_region_tree(0, |t| t.store().set_enabled(false));

    let oracle = single(Pager::with_page_size(256), &recs);
    let expected = oracle.serve_serial_plans(&[], &inserts);

    assert!(report.writer_outcome.is_ok(), "writer: {:?}", report.writer_outcome);
    assert_eq!(report.inserts_applied, expected.inserts_applied);
    let transients = server.with_region_tree(0, |t| t.store().injected().transients);
    assert!(transients > 0, "no transient fault ever reached the writer");
    assert_eq!(requery(&server), requery(&oracle));
}
