//! The traced run: one episode behind the timing wrappers and an
//! attached `MetricsRegistry`, the ladder rungs it is compared with,
//! and each layer's kernel timed in isolation. End-to-end numbers never
//! come from here.
//!
//! Every layer is measured from outside, through public functions and
//! public traits; nothing in the program is edited.

use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mobiquery::{DurableLog, FrameClock, NaiveEngine, SessionKind, SessionLiveness, SnapshotQuery};
use obs::MetricsRegistry;
use rtree::{RTree, RTreeConfig};
use server::{encode, FrameReader, Msg, Outbox, Pop, DEFAULT_MAX_FRAME_BYTES};
use stkit::{RectBatch, SegmentBatch};
use storage::{
    save_pager, ChecksumStore, FaultPlan, FaultyStore, PageStore, Pager, RetryPolicy,
    ShardedBufferPool,
};

use crate::gen::{plan_steps, Inputs, Rec};
use crate::measure::{inputs_for, RunOutput};
use crate::metrics::{Measured, PER_LAYER};
use crate::probe::{Boundary, LayerTally, Timed};
use crate::run::{plain_pool, run_episode, Episode, EpisodeSpec, FrameMark, Oracle};
use crate::stats::{median_u64, percentile};
use crate::workloads::{Surface, Workload, POOL_SHARDS, REGIONS};

/// Naive snapshots sampled per session by the single-tree replay.
const NAIVE_SAMPLES: usize = 400;
/// Deltas sampled for the codec and outbox kernels.
const CODEC_SAMPLES: usize = 4_000;
/// Lanes staged for the overlap kernels, and solves timed over them.
const KERNEL_LANES: usize = 4_096;
const KERNEL_SOLVES: usize = 2_000;
/// Pool capacity of the isolated hit / miss loops.
const ISOLATED_POOL_PAGES: usize = 1_024;
const HANDSHAKE_FRAMES: u64 = 20_000;

pub fn run_traced(
    w: &'static Workload,
    seed: u64,
    shrink: usize,
    trace_dir: &std::path::Path,
) -> RunOutput {
    let (inputs, _) = inputs_for(w, seed, shrink);
    let oracle = Oracle::compute(w, &inputs);
    let attempted = inputs.session_frames() as f64;

    // The traced episode: timing wrappers above and below each region's
    // pool, the serving core's own registry attached.
    let registry = Arc::new(MetricsRegistry::new());
    let (above, below) = (
        Arc::new(LayerTally::default()),
        Arc::new(LayerTally::default()),
    );
    let traced = run_episode(
        &EpisodeSpec {
            traced: true,
            registry: Some(Arc::clone(&registry)),
            ..EpisodeSpec::of(w)
        },
        &inputs,
        &oracle,
        || {
            let device = Timed::new(Pager::new(), Boundary::BelowPool, Arc::clone(&below));
            let pool = ShardedBufferPool::new(device, w.pool_pages, POOL_SHARDS);
            Timed::new(pool, Boundary::AbovePool, Arc::clone(&above))
        },
    );
    let spans = write_spans(w.name, &traced.marks, trace_dir);

    // Ladder. `same` is the workload as the end-to-end run sees it;
    // `plain` is the in-process, non-durable concurrent core on the same
    // inputs, which is `same` itself for ingest and query.
    let same = run_episode(&EpisodeSpec::of(w), &inputs, &oracle, || plain_pool(w));
    let plain_spec = EpisodeSpec {
        surface: Surface::InProcess,
        durable: false,
        ..EpisodeSpec::of(w)
    };
    let extra_rung = w.durable || w.surface == Surface::Wire;
    let plain_extra =
        extra_rung.then(|| run_episode(&plain_spec, &inputs, &oracle, || plain_pool(w)));
    let plain = plain_extra.as_ref().unwrap_or(&same);
    let faulty = run_episode(&plain_spec, &inputs, &oracle, || {
        let device = ChecksumStore::new(FaultyStore::new(
            Pager::new(),
            FaultPlan::transient(seed, 0.01),
        ));
        ShardedBufferPool::new(device, w.pool_pages, POOL_SHARDS).with_retry(RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_micros(1),
        })
    });

    let lab = single_tree_replay(w, &inputs);
    let kernels = overlap_kernels(&lab.tree, &inputs);
    let (hit_ns, miss_ns) = isolated_pool_reads(w);
    let codec = codec_kernels(&oracle);

    let fps = |ep: &Episode| ep.delivered() as f64 / ep.timed_s.max(1e-9);
    let serial_fps = attempted / oracle.serial_s;
    let mut steps: Vec<u64> = traced.marks.iter().flatten().map(|m| m.step_ns).collect();
    steps.sort_unstable();
    // The burst shape is an end-to-end observation: taken with tracing off.
    let mut gaps = same.gaps_ns();
    gaps.sort_unstable();
    let gap_total: u64 = traced
        .marks
        .iter()
        .filter_map(|m| m.last())
        .map(|m| m.at_ns)
        .sum();
    let step_total: u64 = steps.iter().sum();
    let sink_total: u64 = traced.marks.iter().flatten().map(|m| m.sink_ns).sum();
    let hist_sum = |name: &str| registry.histogram(name).sum() as f64;
    let clock_wait = hist_sum("service.clock_wait_ns");
    let writer_hold = hist_sum("service.writer.lock_hold_ns");
    let first_frame_ns: Vec<u64> = traced
        .marks
        .iter()
        .filter_map(|m| m.first())
        .map(|m| m.at_ns)
        .collect();

    let by_kind = |kind: SessionKind| {
        let (mut reads, mut frames) = (0u64, 0usize);
        for (plan, stats) in inputs.plans.iter().zip(&oracle.session_stats) {
            if plan.spec.kind == kind {
                reads += stats.disk_accesses;
                frames += plan_steps(plan);
            }
        }
        (reads, reads as f64 / frames.max(1) as f64)
    };
    let (_, pdq_reads) = by_kind(SessionKind::Pdq);
    let (npdq_total, npdq_reads) = by_kind(SessionKind::Npdq);
    let discarded = registry.counter_value("service.npdq.discarded") as f64;
    let unique_records = (inputs.preload.len() + inputs.live_inserts()) as f64;
    let loads: Vec<f64> = plain.region_loads.iter().map(|&l| l as f64).collect();
    let durable = traced.durable.unwrap_or_default();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let wire = w.surface == Surface::Wire;

    // `None`: the metric does not apply to this workload. One metric a line.
    #[rustfmt::skip]
    let values: Vec<(&str, Option<f64>, usize)> = vec![
        ("storage.pool_hit_ratio", Some(ratio(traced.pool.hits as f64, (traced.pool.hits + traced.pool.misses) as f64)), (traced.pool.hits + traced.pool.misses) as usize),
        ("storage.device_reads_per_frame", Some(traced.pool.device_reads as f64 / attempted), traced.attempted),
        ("storage.evictions_per_frame", Some(traced.pool.evictions as f64 / attempted), traced.attempted),
        ("storage.pool_ns_per_frame", Some(above.reader_ns.load(Ordering::Relaxed) as f64 / attempted), above.reader_reads.load(Ordering::Relaxed) as usize),
        ("storage.pool_read_hit_ns", Some(hit_ns), ISOLATED_READS),
        ("storage.pool_read_miss_ns", Some(miss_ns), ISOLATED_READS),
        ("storage.wal_commit_us_p50", Some(wal_commit_us_p50(&inputs)), inputs.batches.len()),
        ("storage.snapshot_ms", Some(lab.snapshot_ms), 1),
        ("storage.fault1pct_fps_ratio", Some(ratio(fps(&faulty), fps(plain))), 1),
        ("rtree.insert_ns", Some(lab.insert_ns), lab.inserts),
        ("rtree.insert_node_reads", Some(lab.insert_reads), lab.inserts),
        ("rtree.insert_node_writes", Some(lab.insert_writes), lab.inserts),
        ("rtree.range_ns_per_node", Some(lab.range_ns_per_node), lab.naive_samples),
        ("rtree.read_retries", Some(registry.counter_value("tree.read_retries") as f64), 1),
        ("rtree.height", Some(lab.tree.height() as f64), 1),
        ("rtree.leaf_fill", Some(lab.leaf_fill / lab.tree.leaf_capacity() as f64), 1),
        ("stkit.segment_solve_ns_per_lane", Some(kernels.0), KERNEL_SOLVES),
        ("stkit.rect_solve_ns_per_lane", Some(kernels.1), KERNEL_SOLVES),
        ("mobiquery.step_us_p50", Some(percentile(&steps, 50.0) as f64 / 1e3), steps.len()),
        ("mobiquery.step_us_p99", Some(percentile(&steps, 99.0) as f64 / 1e3), steps.len()),
        ("mobiquery.first_frame_us", Some(first_frame_ns.iter().sum::<u64>() as f64 / 1e3 / first_frame_ns.len().max(1) as f64), first_frame_ns.len()),
        ("mobiquery.pdq_reads_per_frame", Some(pdq_reads), traced.attempted),
        ("mobiquery.npdq_reads_per_frame", Some(npdq_reads), traced.attempted),
        ("mobiquery.naive_reads_per_frame", Some(lab.naive_reads_per_frame), lab.naive_samples),
        ("mobiquery.pdq_vs_naive_reads", Some(ratio(pdq_reads, lab.naive_reads_per_frame)), lab.naive_samples),
        ("mobiquery.npdq_vs_naive_reads", Some(ratio(npdq_reads, lab.naive_reads_per_frame)), lab.naive_samples),
        ("mobiquery.npdq_discard_rate", Some(ratio(discarded, discarded + npdq_total as f64)), npdq_total as usize),
        ("mobiquery.pdq_queue_hwm", Some(registry.gauge_value("service.pdq.queue_hwm") as f64), 1),
        ("router.serial_fps", Some(serial_fps), 1),
        ("router.concurrent_fps", Some(fps(plain)), 1),
        ("router.concurrent_vs_serial", Some(fps(plain) / serial_fps), 1),
        ("clock.wait_ns_per_frame", Some(clock_wait / attempted), registry.histogram("service.clock_wait_ns").count() as usize),
        ("router.drain_ns_per_frame", Some(hist_sum("service.drain_ns") / attempted), registry.histogram("service.drain_ns").count() as usize),
        ("router.writer_hold_ns_per_frame", Some(writer_hold / attempted), registry.histogram("service.writer.lock_hold_ns").count() as usize),
        ("router.writer_busy_frac", Some(writer_hold / 1e9 / (traced.timed_s * REGIONS as f64)), 1),
        ("router.mailbox_hwm", Some(registry.gauge_value("service.mailbox_hwm") as f64), 1),
        ("clock.handshake_ns", Some(clock_handshake_ns()), HANDSHAKE_FRAMES as usize),
        ("router.seam_dup_ratio", Some(plain.region_records.iter().sum::<u64>() as f64 / unique_records - 1.0), unique_records as usize),
        ("router.region_load_skew", Some(ratio(loads.iter().cloned().fold(0.0, f64::max), loads.iter().sum::<f64>() / loads.len().max(1) as f64)), loads.len()),
        ("trace.step_share", Some(step_total as f64 / gap_total as f64), steps.len()),
        ("trace.unattributed_frac", Some((gap_total as f64 - step_total as f64 - sink_total as f64) / gap_total as f64), steps.len()),
        ("durability.commit_us_mean", w.durable.then(|| ratio(traced.wal_commit_ns as f64 / 1e3, traced.wal_appends as f64)), traced.wal_appends as usize),
        ("durability.checkpoint_ms", w.durable.then_some(durable.checkpoint_ms), usize::from(w.durable)),
        ("durability.checkpoints", w.durable.then_some(traced.checkpoints as f64), 1),
        ("durability.replayed_records", w.durable.then_some(durable.replayed_records as f64), 1),
        ("durability.fps_ratio", w.durable.then(|| ratio(fps(&same), fps(plain))), 1),
        ("durability.recover_ms", w.durable.then_some(durable.recover_ms), usize::from(w.durable)),
        ("durability.wal_bytes_per_insert", w.durable.then_some(durable.wal_bytes_per_insert), traced.inserts_applied),
        ("server.wire_vs_inproc", wire.then(|| ratio(fps(&same), fps(plain))), 1),
        ("server.encode_ns_per_delta", Some(codec.encode_ns), codec.samples),
        ("server.decode_ns_per_delta", Some(codec.decode_ns), codec.samples),
        ("server.bytes_per_delta", Some(codec.bytes), codec.samples),
        ("server.outbox_ns_per_frame", Some(codec.outbox_ns), codec.samples),
        ("server.admit_us", wire.then(|| { traced.admit_ns.iter().sum::<u64>() as f64 / 1e3 / traced.admit_ns.len().max(1) as f64 }), traced.admit_ns.len()),
        ("server.outbox_hwm", wire.then(|| registry.gauge_value("net.outbox.hwm") as f64), 1),
        ("server.evicted", wire.then(|| traced.wire.map_or(0.0, |s| s.evicted as f64)), 1),
        ("server.gap_p50_us", Some(percentile(&gaps, 50.0) as f64 / 1e3), gaps.len()),
        ("server.gap_p90_us", Some(percentile(&gaps, 90.0) as f64 / 1e3), gaps.len()),
        ("server.gap_p99_us", Some(percentile(&gaps, 99.0) as f64 / 1e3), gaps.len()),
        ("obs.trace_overhead_frac", Some(1.0 - fps(&traced) / fps(&same)), 1),
        ("trace.frames_per_s", Some(fps(&traced)), traced.delivered()),
        ("trace.spans", Some(spans as f64), spans),
    ];
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "every declared per-layer metric is measured"
    );
    let metrics = PER_LAYER
        .iter()
        .filter_map(|def| {
            let &(_, value, samples) = values
                .iter()
                .find(|(name, _, _)| *name == def.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", def.name));
            Some(Measured::new(def.name, value?, samples))
        })
        .collect();

    let rungs: Vec<(&str, &Episode)> = [
        ("traced", &traced),
        ("untraced", &same),
        ("faulty", &faulty),
    ]
    .into_iter()
    .chain(plain_extra.as_ref().map(|ep| ("plain", ep)))
    .collect();
    RunOutput {
        workload: w.name,
        seed,
        traced: true,
        inputs_hash: inputs.hash,
        episodes: rungs.len(),
        attempted: rungs.iter().map(|(_, ep)| ep.attempted).sum(),
        failed: rungs.iter().map(|(_, ep)| ep.failed).sum(),
        problems: rungs
            .iter()
            .flat_map(|(rung, ep)| {
                ep.problems
                    .iter()
                    .map(move |p| format!("{rung} episode: {p}"))
            })
            .collect(),
        metrics,
    }
}

/// Raw spans of the traced episode, one line per (session, frame): the
/// frame's span is the gap since the session's previous delta; its
/// children are the engine step, the sink's self-measured time and the
/// same-thread pool read time with device time nested inside. Self time
/// is the span minus its children. Returns the number of frame spans.
fn write_spans(workload: &str, marks: &[Vec<FrameMark>], dir: &std::path::Path) -> usize {
    let write = || -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let file = std::fs::File::create(dir.join(format!("trace-{workload}.jsonl")))?;
        let mut out = std::io::BufWriter::new(file);
        let mut spans = 0;
        for (s, marks) in marks.iter().enumerate() {
            let end = marks.last().map_or(0, |m| m.at_ns);
            writeln!(
                out,
                r#"{{"id":"{workload}/s{s}","name":"session","parent":"{workload}","start_ns":0,"end_ns":{end}}}"#
            )?;
            let mut prev = FrameMark::default();
            for (k, m) in marks.iter().enumerate() {
                // The previous frame's sink ran at the head of this gap.
                let children = m.step_ns + prev.sink_ns;
                let self_ns = (m.at_ns - prev.at_ns).saturating_sub(children);
                writeln!(
                    out,
                    r#"{{"id":"{workload}/s{s}/f{k}","name":"frame","parent":"{workload}/s{s}","start_ns":{},"end_ns":{},"self_ns":{self_ns},"children":[{{"name":"sink","start_ns":{},"ns":{}}},{{"name":"step","start_ns":{},"ns":{},"children":[{{"name":"pool","ns":{},"children":[{{"name":"device","ns":{}}}]}}]}}]}}"#,
                    prev.at_ns,
                    m.at_ns,
                    prev.at_ns,
                    prev.sink_ns,
                    m.at_ns.saturating_sub(m.step_ns),
                    m.step_ns,
                    m.pool_ns,
                    m.device_ns,
                )?;
                prev = *m;
                spans += 1;
            }
        }
        out.flush()?;
        Ok(spans)
    };
    write().unwrap_or_else(|e| panic!("writing spans under {}: {e}", dir.display()))
}

/// One tree, one thread: the workload's batches replayed into an
/// identically preloaded single tree, with naive snapshot queries posed
/// at the tree states the sessions saw.
struct Lab {
    tree: RTree<Rec, crate::run::PlainPool>,
    inserts: usize,
    insert_ns: f64,
    insert_reads: f64,
    insert_writes: f64,
    naive_samples: usize,
    naive_reads_per_frame: f64,
    range_ns_per_node: f64,
    leaf_fill: f64,
    snapshot_ms: f64,
}

fn single_tree_replay(w: &Workload, inputs: &Inputs) -> Lab {
    let mut tree = RTree::new(plain_pool(w), RTreeConfig::default());
    for rec in &inputs.preload {
        tree.insert(*rec, rec.seg.t.lo);
    }
    let stride = (inputs.batches.len() / NAIVE_SAMPLES).max(1);
    let naive = NaiveEngine::new();
    let (mut insert_ns, mut reads, mut writes) = (0u64, 0u64, 0u64);
    let (mut range_ns, mut range_nodes, mut naive_samples) = (0u64, 0u64, 0usize);
    for (k, batch) in inputs.batches.iter().enumerate() {
        let before = tree.level_counters().snapshot();
        let started = Instant::now();
        for (rec, now) in batch {
            tree.insert(*rec, *now);
        }
        insert_ns += started.elapsed().as_nanos() as u64;
        let delta = tree.level_counters().snapshot() - before;
        reads += delta.total_reads();
        writes += delta.total_writes();
        if k % stride != 0 {
            continue;
        }
        for plan in &inputs.plans {
            let Some(&t) = plan.spec.frame_times.get(k) else {
                continue;
            };
            let q = SnapshotQuery::at_instant(plan.spec.trajectory.window_at(t), t);
            let started = Instant::now();
            let stats = naive.query_nsi(&tree, &q, |r| {
                std::hint::black_box(r);
            });
            range_ns += started.elapsed().as_nanos() as u64;
            range_nodes += stats.disk_accesses;
            naive_samples += 1;
        }
    }
    let inserts = inputs.live_inserts();
    let per_insert = |total: u64| total as f64 / inserts.max(1) as f64;
    let leaf_fill = tree
        .validate()
        .expect("the replayed tree is structurally valid")
        .avg_leaf_fill();
    let started = Instant::now();
    let mut image = Vec::new();
    save_pager(tree.store(), &mut image).expect("snapshot into memory");
    let snapshot_ms = started.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(&image);
    Lab {
        inserts,
        insert_ns: per_insert(insert_ns),
        insert_reads: per_insert(reads),
        insert_writes: per_insert(writes),
        naive_samples,
        naive_reads_per_frame: range_nodes as f64 / naive_samples.max(1) as f64,
        range_ns_per_node: range_ns as f64 / range_nodes.max(1) as f64,
        leaf_fill,
        snapshot_ms,
        tree,
    }
}

/// `(segment, rect)` ns per lane of `SegmentBatch` / `RectBatch::solve`
/// over entries sampled from the replayed index, against the first
/// session's first trajectory segment.
fn overlap_kernels<S: PageStore>(tree: &RTree<Rec, S>, inputs: &Inputs) -> (f64, f64) {
    let window = inputs.plans[0].spec.trajectory.segments()[0];
    let (mut rects, mut segments) = (RectBatch::<2>::new(), SegmentBatch::<2>::new());
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let node = tree.read_node(page);
        if node.is_leaf() {
            for rec in node.leaf_records() {
                if segments.len() < KERNEL_LANES {
                    segments.push(&rec.seg);
                }
            }
        } else {
            for (key, child) in node.internal_entries() {
                if rects.len() < KERNEL_LANES {
                    rects.push(&key.space, &key.time.extent(0));
                }
                stack.push(child);
            }
        }
        if segments.len() >= KERNEL_LANES && (rects.len() >= KERNEL_LANES || stack.is_empty()) {
            break;
        }
    }
    let time = |lanes: usize, mut solve: Box<dyn FnMut() + '_>| {
        let started = Instant::now();
        for _ in 0..KERNEL_SOLVES {
            solve();
        }
        started.elapsed().as_nanos() as f64 / (KERNEL_SOLVES * lanes.max(1)) as f64
    };
    let segment_ns = time(
        segments.len(),
        Box::new(|| {
            segments.solve(std::hint::black_box(&window));
            std::hint::black_box(segments.result(0));
        }),
    );
    let rect_ns = time(
        rects.len(),
        Box::new(|| {
            rects.solve(std::hint::black_box(&window));
            std::hint::black_box(rects.result(0));
        }),
    );
    (segment_ns, rect_ns)
}

const ISOLATED_READS: usize = 200_000;

/// `ShardedBufferPool::try_read_page` alone: ns per read when every
/// read hits, and when every read misses (a cyclic scan over twice the
/// capacity defeats LRU).
fn isolated_pool_reads(w: &Workload) -> (f64, f64) {
    let capacity = w.pool_pages.min(ISOLATED_POOL_PAGES);
    let pool = ShardedBufferPool::new(Pager::new(), capacity, POOL_SHARDS);
    let pages: Vec<_> = (0..capacity * 2).map(|_| pool.alloc()).collect();
    pool.clear();
    let time = |set: &[storage::PageId]| {
        for id in set {
            std::hint::black_box(pool.try_read_page(*id).expect("in-memory read"));
        }
        let started = Instant::now();
        for i in 0..ISOLATED_READS {
            std::hint::black_box(
                pool.try_read_page(set[i % set.len()])
                    .expect("in-memory read"),
            );
        }
        started.elapsed().as_nanos() as f64 / ISOLATED_READS as f64
    };
    // Half a shard's share each, so hash skew cannot evict a hit-set page.
    let hit = time(&pages[..capacity / 2]);
    let miss = time(&pages);
    (hit, miss)
}

/// Median `DurableLog::commit_frame` (encode + `Wal::commit`) over the
/// workload's own non-empty batches, µs.
fn wal_commit_us_p50(inputs: &Inputs) -> f64 {
    let log = DurableLog::new(0);
    let mut ns: Vec<u64> = inputs
        .batches
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .map(|(k, batch)| {
            let started = Instant::now();
            log.commit_frame(k as u64, batch);
            started.elapsed().as_nanos() as u64
        })
        .collect();
    if ns.is_empty() {
        return 0.0;
    }
    median_u64(&mut ns) as f64 / 1e3
}

/// One writer and one session thread ping-ponging on a `FrameClock`
/// with nothing to apply and nothing to query: ns per frame.
fn clock_handshake_ns() -> f64 {
    let clock = FrameClock::new(
        vec![Some((0, HANDSHAKE_FRAMES - 1))],
        SessionLiveness::new(1),
        0,
        false,
    );
    let started = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for k in 0..HANDSHAKE_FRAMES {
                clock.wait_ready(k);
                clock.advance_applied(k + 1);
            }
        });
        scope.spawn(|| {
            clock.wait_applied(0);
            clock.ack(0, 1);
            for k in 0..HANDSHAKE_FRAMES {
                clock.wait_applied(k + 1);
                clock.ack(0, k + 2);
            }
            clock.detach(0);
        });
    });
    started.elapsed().as_nanos() as f64 / HANDSHAKE_FRAMES as f64
}

struct Codec {
    samples: usize,
    encode_ns: f64,
    decode_ns: f64,
    bytes: f64,
    outbox_ns: f64,
}

/// `protocol::encode`, `FrameReader::next_msg` and `Outbox::push`/`pop`
/// alone, over deltas of the sizes this workload delivers.
fn codec_kernels(oracle: &Oracle) -> Codec {
    let total: usize = oracle.streams.iter().map(|s| s.counts.len()).sum();
    let stride = (total / CODEC_SAMPLES).max(1);
    let mut deltas = Vec::new();
    for stream in &oracle.streams {
        let mut at = 0;
        for (k, &n) in stream.counts.iter().enumerate() {
            if k % stride == 0 {
                deltas.push(Msg::Delta {
                    frame: k as u32,
                    latency_ns: 12_345,
                    results: stream.results[at..at + n].to_vec(),
                });
            }
            at += n;
        }
    }
    let started = Instant::now();
    let frames: Vec<Vec<u8>> = deltas.iter().map(encode).collect();
    let encode_ns = started.elapsed().as_nanos() as f64;

    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
    let started = Instant::now();
    for frame in &frames {
        reader.extend(frame);
        let msg = reader.next_msg().expect("own encoding decodes");
        assert!(msg.is_some(), "one whole frame was supplied");
        std::hint::black_box(msg);
    }
    let decode_ns = started.elapsed().as_nanos() as f64;

    let bytes: usize = frames.iter().map(Vec::len).sum();
    let outbox = Outbox::new(4);
    let started = Instant::now();
    for frame in frames {
        outbox
            .push(frame, Duration::from_secs(1))
            .expect("an open, empty outbox accepts a frame");
        assert!(matches!(outbox.pop(true, Duration::ZERO), Pop::Frame(_)));
    }
    let outbox_ns = started.elapsed().as_nanos() as f64;

    let n = deltas.len().max(1) as f64;
    Codec {
        samples: deltas.len(),
        encode_ns: encode_ns / n,
        decode_ns: decode_ns / n,
        bytes: bytes as f64 / n,
        outbox_ns: outbox_ns / n,
    }
}
