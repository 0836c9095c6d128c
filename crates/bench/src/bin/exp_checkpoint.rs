//! Checkpoint cost against index size.
//!
//! A periodic logical checkpoint folds the WAL's tail into the installed
//! checkpoint ([`mobiquery::DurableLog::fold_checkpoint`]), so it should
//! cost what was committed since the last one and be indifferent to how
//! much the index already holds. This bench pins that: the same fixed
//! delta — `FRAMES` commits of `PER_FRAME` records — is committed on top
//! of a base of `BASE` records and on top of one four times larger, and
//! `checkpoint_now()` is timed on each, `REPS` times.
//!
//! The figure is the ratio of the two medians. A checkpoint that reads
//! the index (the tree scan this replaced) sits near 4; the fold sits
//! near 1. The binary fails above 2.0, which `tools/check.sh --only wal`
//! relies on — a ratio of two runs on one machine, so it is portable
//! where the absolute times are not.

use bench::{f2, FigureTable};
use mobiquery::{DurableLog, PartitionedDqServer, RegionGrid};
use rtree::{NsiSegmentRecord, RTree, RTreeConfig};
use std::sync::Arc;
use std::time::Instant;
use stkit::Interval;
use storage::Pager;

type R = NsiSegmentRecord<2>;

const BASE: u32 = 40_000;
const FRAMES: u32 = 64;
const PER_FRAME: u32 = 16;
const REPS: u32 = 9;
/// The gate: checkpointing the delta over the 4× base may cost at most
/// this many times what it costs over the 1× base.
const MAX_RATIO: f64 = 2.0;

fn record(oid: u32, t: f64) -> R {
    let x = f64::from(oid % 9973) * (100.0 / 9973.0);
    R::new(oid, 0, Interval::new(t, 1_000.0), [x, 0.5], [x, 0.5])
}

/// Median microseconds of `checkpoint_now()` over the fixed delta, on a
/// durable server preloaded with `base` records.
fn checkpoint_us(base: u32) -> f64 {
    let preload: Vec<R> = (0..base).map(|oid| record(oid, 0.0)).collect();
    let log = Arc::new(DurableLog::new(0));
    let server = PartitionedDqServer::build(
        RegionGrid::from_cuts(0, vec![25.0, 50.0, 75.0]),
        &preload,
        |_| RTree::new(Pager::new(), RTreeConfig::default()),
    )
    .with_durability(Arc::clone(&log));
    // The base checkpoint is the one tree scan; keep it out of the timing.
    assert!(server.checkpoint_now());

    let mut next_oid = base;
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            for frame in 0..FRAMES {
                let batch: Vec<(R, f64)> = (0..PER_FRAME)
                    .map(|_| {
                        next_oid += 1;
                        (record(next_oid, 1.0), 1.0)
                    })
                    .collect();
                log.commit_frame(u64::from(frame), &batch);
            }
            let started = Instant::now();
            assert!(server.checkpoint_now());
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let folded = log.stats().checkpoint_records - u64::from(base);
    assert_eq!(
        folded,
        u64::from(REPS * FRAMES * PER_FRAME),
        "every commit folded once"
    );
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let small = checkpoint_us(BASE);
    let large = checkpoint_us(4 * BASE);
    let ratio = large / small;

    let mut table = FigureTable::new(
        "exp_checkpoint",
        "logical checkpoint of a fixed delta vs base size",
        &["base records", "delta records", "median us", "vs 1x base"],
    );
    let delta = (FRAMES * PER_FRAME).to_string();
    table.row(vec![BASE.to_string(), delta.clone(), f2(small), f2(1.0)]);
    table.row(vec![(4 * BASE).to_string(), delta, f2(large), f2(ratio)]);
    bench::figures::emit(table);

    if ratio > MAX_RATIO {
        eprintln!(
            "FAIL: checkpointing the same delta over a 4x base cost {ratio:.2}x \
             (bound {MAX_RATIO}x) -- the checkpoint is reading the index again"
        );
        std::process::exit(1);
    }
    println!("OK: 4x base costs {ratio:.2}x the 1x checkpoint (bound {MAX_RATIO}x).");
}
