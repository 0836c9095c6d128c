//! Serving experiment: single-tree (one-region) throughput and buffer
//! hit-rate vs shared pool size, then throughput vs region count.
//!
//! The paper's setting (§2) is a server evaluating many concurrent
//! dynamic-query sessions over one index while updates stream in. This
//! bench stands that server up: N mixed PDQ/NPDQ sessions plus a live
//! writer, all over ONE tree behind a [`ShardedBufferPool`], sweeping
//! the pool's page budget. Reported per configuration: wall-clock
//! throughput (frames and delivered objects per second), true disk reads
//! behind the cache, and the pool's hit ratio — demonstrating how a
//! *shared* (not per-session, cf. `ablation_buffer`) pool amortises the
//! sessions' overlapping working sets.
//!
//! `DQ_SCALE=paper` for the full configuration, `DQ_SESSIONS` to
//! override the session count (default 8).
//!
//! Chaos mode: `DQ_FAULT_RATE=0.01` (plus optional `DQ_FAULT_SEED`)
//! reruns the same sweep with every device read subject to seeded
//! transient faults, absorbed by pool-level retry. Every reconciliation
//! identity must still hold — failed reads never reach the device
//! counters and the retry loop pairs each miss with exactly one
//! successful device read — and every session must finish `Ok`. The
//! figure is then written as `exp_service_chaos` so the fault-free
//! baseline JSON is never overwritten.
//!
//! Durable mode: `DQ_DURABLE=1` attaches a WAL-backed [`DurableLog`]
//! (group commit per frame, checkpoint every 8 commits) to each
//! single-tree run, then *recovers from the durable image* after the
//! serve — `recover_records`, rebuild, replay — and asserts the
//! recovered server holds the served one's records and answers the
//! sweep's queries equivalently. The base checkpoint (the one tree scan
//! of a durable server's life) is taken before the measured window and
//! periodic checkpoints fold the log without reading a tree, so every
//! identity stays exact; the figure is written as `exp_service_durable`.

use bench::{f2, FigureTable, Scale};
use mobiquery::{DurableLog, PartitionedDqServer, RegionGrid, SessionKind, SessionSpec};
use rtree::{NsiSegmentRecord, RTree, RTreeConfig};
use std::sync::Arc;
use std::time::Duration;
use stkit::Interval;
use storage::{
    ChecksumStore, FaultPlan, FaultyStore, PageStore, Pager, RetryPolicy, ShardedBufferPool,
};
use workload::QueryWorkload;

const FRAMES: usize = 20;
const SHARDS: usize = 4;

fn sessions(scale: Scale) -> Vec<SessionSpec<2>> {
    let count = std::env::var("DQ_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let cfg = workload::QueryWorkloadConfig {
        count,
        subsequent_frames: FRAMES,
        ..scale.query_config(0.8, 8.0)
    };
    QueryWorkload::new(cfg)
        .generate()
        .into_iter()
        .enumerate()
        .map(|(i, q)| SessionSpec {
            kind: if i % 2 == 0 {
                SessionKind::Pdq
            } else {
                SessionKind::Npdq
            },
            trajectory: q.trajectory,
            frame_times: q.frame_times,
        })
        .collect()
}

/// The sweep's shared inputs (identical for every configuration).
struct Workload<'a> {
    specs: &'a [SessionSpec<2>],
    preload: &'a [NsiSegmentRecord<2>],
    inserts: &'a [Vec<(NsiSegmentRecord<2>, f64)>],
}

/// One sweep configuration over an arbitrary page-store stack: build the
/// one-region server, serve, verify the reconciliation identities, and
/// append a row.
fn run_config<S: PageStore + Send + Sync>(
    table: &mut FigureTable,
    mode: &str,
    pool_pages: usize,
    pool: ShardedBufferPool<S>,
    wl: &Workload<'_>,
    fault_mode: bool,
    durable: bool,
) {
    let Workload {
        specs,
        preload,
        inserts,
    } = *wl;
    let registry = Arc::new(obs::MetricsRegistry::new());
    let mut pool = Some(pool);
    let mut server = PartitionedDqServer::build(RegionGrid::single(), preload, |_| {
        RTree::new(pool.take().expect("one region, one pool"), RTreeConfig::default())
    })
    .with_metrics(Arc::clone(&registry));
    let log = durable.then(|| Arc::new(DurableLog::new(8)));
    if let Some(log) = &log {
        log.attach_metrics(&registry);
        server = server.with_durability(Arc::clone(log));
        assert!(server.checkpoint_now(), "base checkpoint before the measured window");
    }
    let (build_stats, io_before, levels_before) = server.with_region_tree(0, |t| {
        t.store().clear(); // serve from a cold cache
        if fault_mode {
            t.store().attach_fault_metrics(&registry);
        }
        (t.store().cache_stats(), t.store().io(), t.level_counters().snapshot())
    });

    let t0 = std::time::Instant::now();
    let report = if mode == "serial" {
        server.serve_serial(specs, inserts)
    } else {
        server.serve(specs, inserts)
    };
    let secs = t0.elapsed().as_secs_f64();

    let (reads, cs, levels, fault_stats) = server.with_region_tree(0, |t| {
        t.store().publish_to(&registry, "pool");
        t.level_counters().snapshot().publish_to(&registry, "rtree");
        (
            (t.store().io() - io_before).reads,
            {
                let mut cs = t.store().cache_stats();
                // Counters accumulated during the tree build don't belong to
                // the serving run.
                cs.hits -= build_stats.hits;
                cs.misses -= build_stats.misses;
                cs.evictions -= build_stats.evictions;
                cs
            },
            t.level_counters().snapshot() - levels_before,
            t.store().fault_stats(),
        )
    });
    assert!(cs.hits > 0 && cs.misses > 0, "pool counters must be live");

    // Transient faults with pool retry must be invisible to serving:
    // every participant clean, no retry budget exhausted.
    assert!(
        report.writer_outcome.is_ok(),
        "writer outcome: {:?}",
        report.writer_outcome
    );
    for (i, s) in report.sessions.iter().enumerate() {
        assert!(s.outcome.is_ok(), "session {i} outcome: {:?}", s.outcome);
    }
    assert_eq!(fault_stats.exhausted, 0, "a retry budget was exhausted");
    assert_eq!(fault_stats.corrupt_pages, 0, "unexpected corruption");

    // Reconciliation: three independent observers of the serving
    // run's I/O must agree exactly — with or without fault injection
    // (failed reads never touch the device counters, and the pool's
    // retry pairs each miss with exactly one successful device read).
    //  tree level counters == engine QueryStats + writer attribution
    assert_eq!(
        levels.total_reads(),
        report.total_reads(),
        "tree node reads must equal session disk accesses + writer reads"
    );
    //  a region's writer publishes one frame's insert reports at a time,
    //  for every PDQ lane on the region to read in place (the clock's flow
    //  control keeps it from replacing them under a reader), so the most
    //  it ever publishes is one frame's insert batch. The gauge keeps the
    //  name it had when the reports were copied into per-session mailboxes.
    let mailbox_hwm = registry.gauge_value("service.mailbox_hwm");
    let mailbox_bound = inserts.iter().map(Vec::len).max().unwrap_or(0) as i64;
    assert!(
        mailbox_hwm <= mailbox_bound,
        "mailbox hwm {mailbox_hwm} exceeds the one-batch bound {mailbox_bound}"
    );
    if mode == "concurrent" && mailbox_bound > 0 {
        assert!(mailbox_hwm > 0, "insert broadcasts must land in mailboxes");
    }
    //  tree level counters == buffer pool hit/miss accounting
    assert_eq!(
        levels.total_reads(),
        cs.hits + cs.misses,
        "every node read is exactly one pool access"
    );
    //  pool misses == true disk reads behind the cache
    assert_eq!(cs.misses, reads, "every pool miss is exactly one disk read");
    //  the per-frame timeline re-adds to the run totals
    let timeline = report.timeline();
    let tl_results: usize = timeline.iter().map(|&(_, f)| f.results).sum();
    let tl_reads: u64 = timeline.iter().map(|&(_, f)| f.stats.disk_accesses).sum();
    assert_eq!(tl_results, report.total_results(), "timeline results drift");
    assert_eq!(
        tl_reads,
        report.total_stats().disk_accesses,
        "timeline disk accesses drift"
    );

    if fault_mode {
        eprintln!(
            "# fault recovery ({mode}, {pool_pages} pages): retries={} exhausted={} corrupt={}",
            fault_stats.retries, fault_stats.exhausted, fault_stats.corrupt_pages
        );
    }

    let frames = (report.frames * specs.len()) as f64;
    table.row(vec![
        mode.into(),
        pool_pages.to_string(),
        f2(frames / secs),
        f2(report.total_results() as f64 / secs),
        reads.to_string(),
        cs.hits.to_string(),
        cs.misses.to_string(),
        format!("{:.1}%", cs.hit_ratio() * 100.0),
    ]);

    // Per-frame timeline (one line per global frame step) and the
    // metrics registry for the largest concurrent configuration.
    if mode == "concurrent" && pool_pages == 1024 {
        eprintln!("# timeline ({mode}, {pool_pages} pages): frame sessions results reads max_drain_us");
        for frame in 0..report.frames {
            let rows: Vec<_> = timeline.iter().filter(|&&(_, f)| f.frame == frame).collect();
            if rows.is_empty() {
                continue;
            }
            let results: usize = rows.iter().map(|&&(_, f)| f.results).sum();
            let frame_reads: u64 = rows.iter().map(|&&(_, f)| f.stats.disk_accesses).sum();
            let max_us = rows.iter().map(|&&(_, f)| f.latency_ns).max().unwrap_or(0) / 1000;
            eprintln!(
                "#   {frame:>3} {:>8} {results:>7} {frame_reads:>5} {max_us:>12}",
                rows.len()
            );
        }
        eprintln!("# metrics registry after the run:");
        for line in registry.render().lines() {
            eprintln!("#   {line}");
        }
    }

    // Durable mode: the WAL saw every frame, checkpoints fired on
    // cadence, and — the point of the whole exercise — recovering from
    // the durable image right now rebuilds a server that holds the
    // served one's records and answers the sweep's queries equivalently.
    // (Last, because re-querying the served core moves its counters.)
    if let Some(log) = &log {
        let stats = log.stats();
        assert_eq!(
            report.wal_appends,
            inserts.len() as u64,
            "every frame batch must be group-committed"
        );
        assert_eq!(stats.wal.appends, report.wal_appends);
        assert_eq!(registry.counter_value("wal.appends"), stats.wal.appends);
        assert!(
            report.checkpoints >= 1,
            "{} commits at every=8 must checkpoint mid-run",
            report.wal_appends
        );
        assert_eq!(stats.checkpoint_failures, 0, "a checkpoint fold was refused");

        let (base, frames, rep) = log
            .durable_image()
            .recover_records::<2>()
            .expect("recovery from the post-run durable image");
        rep.publish(&registry);
        assert!(rep.tail.is_clean(), "undamaged WAL recovered {:?}", rep.tail);
        assert_eq!(
            registry.counter_value("wal.replayed_records"),
            rep.replayed_records
        );
        let recovered = PartitionedDqServer::build(RegionGrid::single(), &base, |_| {
            RTree::new(Pager::new(), RTreeConfig::default())
        });
        let replayed: Vec<_> = frames.into_iter().map(|(_, batch)| batch).collect();
        recovered.serve_serial(&[], &replayed);
        assert_eq!(
            recovered.region_record_counts(),
            server.region_record_counts(),
            "recovered record count diverged from the served tree"
        );
        // Both session kinds' streams are functions of the record set,
        // not of the tree that holds it.
        let (got, want) = (recovered.serve_serial(specs, &[]), server.serve_serial(specs, &[]));
        for (i, (g, w)) in got.sessions.iter().zip(&want.sessions).enumerate() {
            assert_eq!(g.results, w.results, "session {i} diverged after recovery");
        }
        eprintln!(
            "# durability ({mode}, {pool_pages} pages): appends={} group_commit_ns={} checkpoints={} replayed_frames={} replayed_records={}",
            stats.wal.appends,
            report.wal_commit_ns,
            report.checkpoints,
            rep.replayed_frames,
            rep.replayed_records
        );
    }
}

/// One partitioned configuration: `regions` trees behind per-region
/// sharded pools (the total page budget split across regions), every
/// per-region reconciliation identity asserted, one row appended.
fn run_partitioned(
    table: &mut FigureTable,
    regions: usize,
    total_pool_pages: usize,
    wl: &Workload<'_>,
) {
    let Workload {
        specs,
        preload,
        inserts,
    } = *wl;
    // Uniform initial cuts over the data's x-extent; live inserts land
    // inside the same extent by construction of the dataset.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for r in preload.iter().chain(inserts.iter().flatten().map(|(r, _)| r)) {
        let e = r.seg.spatial_bbox().extent(0);
        lo = lo.min(e.lo);
        hi = hi.max(e.hi);
    }
    let grid = RegionGrid::uniform(0, Interval::new(lo, hi), regions);
    let pool_pages = (total_pool_pages / regions).max(16);
    let server = PartitionedDqServer::build(grid, preload, |_| {
        RTree::new(
            ShardedBufferPool::new(Pager::new(), pool_pages, SHARDS),
            RTreeConfig::default(),
        )
    });
    let before: Vec<_> = (0..regions)
        .map(|r| {
            server.with_region_tree(r, |t| {
                t.store().clear(); // serve from a cold cache
                (t.level_counters().snapshot(), t.store().cache_stats())
            })
        })
        .collect();

    let t0 = std::time::Instant::now();
    let report = server.serve(specs, inserts);
    let secs = t0.elapsed().as_secs_f64();

    assert!(
        report.base.writer_outcome.is_ok(),
        "writers: {:?}",
        report.base.writer_outcome
    );
    for (i, s) in report.sessions.iter().enumerate() {
        assert!(s.outcome.is_ok(), "session {i} outcome: {:?}", s.outcome);
        // The flight recorder stays exact out of lockstep: sessions run
        // at their own pace under the per-region clocks, yet the frame
        // reports must still sum to the session totals.
        let mut frame_stats = mobiquery::QueryStats::default();
        let mut frame_results = 0;
        for f in &s.frames {
            frame_stats += f.stats;
            frame_results += f.results;
        }
        assert_eq!(frame_stats, s.stats, "session {i}: frame stats vs session stats");
        assert_eq!(frame_results, s.results.len(), "session {i}: frame results vs delivered");
    }
    // The PR 3 identities, region by region and summed: each region
    // tree's level-counter reads equal that region's attributed session
    // reads + writer reads, and each of those reads is exactly one pool
    // hit or miss.
    let mut disk_reads = 0;
    let mut summed_reads = 0;
    for (r, (levels0, cache0)) in before.into_iter().enumerate() {
        let (levels, cache) = server.with_region_tree(r, |t| {
            (t.level_counters().snapshot(), t.store().cache_stats())
        });
        let reads = (levels - levels0).total_reads();
        assert_eq!(
            reads,
            report.regions[r].session_reads + report.regions[r].writer_reads,
            "region {r}: tree reads vs attributed reads"
        );
        assert_eq!(
            (cache.hits - cache0.hits) + (cache.misses - cache0.misses),
            reads,
            "region {r}: every node read is one pool access"
        );
        disk_reads += cache.misses - cache0.misses;
        summed_reads += reads;
    }
    assert_eq!(
        summed_reads,
        report.base.total_stats().disk_accesses + report.base.writer_reads,
        "summed region reads vs aggregate report"
    );

    let loads = server.region_loads();
    let max_load = loads.iter().copied().max().unwrap_or(0);
    let mean_load = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    let frames = (report.base.frames * specs.len()) as f64;
    table.row(vec![
        regions.to_string(),
        pool_pages.to_string(),
        f2(frames / secs),
        f2(report.total_results() as f64 / secs),
        report.base.inserts_applied.to_string(),
        disk_reads.to_string(),
        f2(max_load as f64 / mean_load.max(1.0)),
    ]);
}

fn main() {
    let scale = Scale::from_env();
    let ds = bench::build_dataset(scale);
    let specs = sessions(scale);
    let fault_rate: f64 = std::env::var("DQ_FAULT_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    let fault_seed: u64 = std::env::var("DQ_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let durable = std::env::var("DQ_DURABLE").is_ok_and(|v| !v.is_empty() && v != "0");

    // 80 % of the updates pre-loaded, 20 % arriving live per frame.
    let records = ds.nsi_records();
    let split = records.len() * 8 / 10;
    let (preload, live) = records.split_at(split);
    let inserts: Vec<Vec<(NsiSegmentRecord<2>, f64)>> = live
        .chunks(live.len().div_ceil(FRAMES).max(1))
        .map(|c| c.iter().map(|r| (*r, r.seg.t.lo)).collect())
        .collect();
    eprintln!(
        "# serving {} sessions ({} frames), {} preloaded + {} live records",
        specs.len(),
        FRAMES,
        preload.len(),
        live.len()
    );
    if fault_rate > 0.0 {
        eprintln!("# fault injection: transient rate {fault_rate}, seed {fault_seed}");
    }
    if durable {
        eprintln!("# durability: WAL group commit per frame, checkpoint every 8 commits");
    }

    let figure = if fault_rate > 0.0 {
        "exp_service_chaos"
    } else if durable {
        "exp_service_durable"
    } else {
        "exp_service"
    };
    let mut table = FigureTable::new(
        figure,
        "one region: mixed PDQ/NPDQ sessions + writer over one shared sharded pool",
        &[
            "mode",
            "pool pages",
            "frames/s",
            "results/s",
            "disk reads",
            "hits",
            "misses",
            "hit ratio",
        ],
    );

    for &(mode, pool_pages) in &[
        ("serial", 64usize),
        ("concurrent", 16),
        ("concurrent", 64),
        ("concurrent", 256),
        ("concurrent", 1024),
    ] {
        let wl = Workload {
            specs: &specs,
            preload,
            inserts: &inserts,
        };
        if fault_rate > 0.0 {
            let store = ChecksumStore::new(FaultyStore::new(
                Pager::new(),
                FaultPlan::transient(fault_seed, fault_rate),
            ));
            let pool = ShardedBufferPool::new(store, pool_pages, SHARDS).with_retry(RetryPolicy {
                max_attempts: 10,
                base_backoff: Duration::from_micros(1),
            });
            run_config(&mut table, mode, pool_pages, pool, &wl, true, durable);
        } else {
            let pool = ShardedBufferPool::new(Pager::new(), pool_pages, SHARDS);
            run_config(&mut table, mode, pool_pages, pool, &wl, false, durable);
        }
    }

    table.print();
    table.write_json();

    // Regions-vs-throughput sweep (fault-free runs only): the same
    // workload served by the partitioned multi-writer server, splitting
    // one total page budget across 1..=8 region pools. `DQ_REGIONS`
    // overrides the sweep (comma-separated region counts).
    if fault_rate == 0.0 {
        let counts: Vec<usize> = std::env::var("DQ_REGIONS")
            .ok()
            .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
            .unwrap_or_else(|| vec![1, 2, 4, 8]);
        let mut regions_table = FigureTable::new(
            "exp_service_regions",
            "PartitionedDqServer: region count vs throughput, one writer per region",
            &[
                "regions",
                "pool pages/region",
                "frames/s",
                "results/s",
                "inserts applied",
                "disk reads",
                "max/mean load",
            ],
        );
        for &regions in &counts {
            let wl = Workload {
                specs: &specs,
                preload,
                inserts: &inserts,
            };
            run_partitioned(&mut regions_table, regions, 256, &wl);
        }
        regions_table.print();
        regions_table.write_json();
    }
}
