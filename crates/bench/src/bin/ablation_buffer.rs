//! Ablation: can a server-side LRU buffer substitute for PDQ?
//!
//! §4 argues no: "buffering takes place at the client … If each session
//! used a buffer on the server, then the server's ability to handle
//! multiple sessions would be diminished." This bench grants the naive
//! approach a per-session LRU buffer pool of increasing size and measures
//! the *true* disk accesses behind the cache, against PDQ with no buffer
//! at all.

use bench::{f2, FigureTable, Scale};
use mobiquery::NaiveEngine;
use storage::{PageStore, Pager, ShardedBufferPool};
use workload::{measure_pdq, QueryWorkload};

fn main() {
    let scale = Scale::from_env();
    let ds = bench::build_dataset(scale);
    let specs = QueryWorkload::new(scale.query_config(0.9, 8.0)).generate();

    let mut table = FigureTable::new(
        "ablation_buffer",
        "Naive + per-session LRU buffer vs unbuffered PDQ (overlap 90%)",
        &[
            "configuration",
            "buffer pages",
            "disk reads/query",
            "hit ratio",
        ],
    );

    // PDQ, no buffer.
    let plain_tree = ds.build_nsi_tree();
    let pdq = measure_pdq(&plain_tree, &specs);
    table.row(vec![
        "PDQ (no buffer)".into(),
        "0".into(),
        f2(pdq.sub_disk),
        "-".into(),
    ]);

    // Naive behind LRU buffers of growing size.
    for cap in [8usize, 32, 128, 512] {
        let tree = ds.build_nsi_tree_on(ShardedBufferPool::new(Pager::new(), cap, 1));
        tree.store().clear(); // cold cache after build
        let engine = NaiveEngine::new();
        let mut frames = 0u64;
        let before = tree.store().io();
        for spec in &specs {
            tree.store().clear(); // each session starts cold
            for q in spec.snapshots() {
                engine.query_nsi(&tree, &q, |_| {});
                frames += 1;
            }
        }
        let reads = (tree.store().io() - before).reads;
        let cs = tree.store().cache_stats();
        table.row(vec![
            "naive + LRU".into(),
            cap.to_string(),
            f2(reads as f64 / frames as f64),
            format!("{:.1}%", cs.hit_ratio() * 100.0),
        ]);
    }
    table.print();
    table.write_json();
}
