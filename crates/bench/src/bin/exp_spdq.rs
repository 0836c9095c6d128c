//! Experiment: SPDQ cost vs deviation bound δ (§4).
//!
//! SPDQ is PDQ over the δ-inflated trajectory, so each snapshot is
//! "larger" than the plain PDQ one. This sweep quantifies the price of
//! deviation tolerance: subsequent-query I/O and objects fetched, as δ
//! grows from 0 (plain PDQ) to a full window width.

use bench::{f2, FigureTable, Scale};
use mobiquery::PdqEngine;
use workload::QueryWorkload;

fn main() {
    let scale = Scale::from_env();
    let ds = bench::build_dataset(scale);
    let tree = ds.build_nsi_tree();
    let specs = QueryWorkload::new(scale.query_config(0.9, 8.0)).generate();

    let mut table = FigureTable::new(
        "exp_spdq",
        "SPDQ: cost of deviation tolerance (overlap 90%, 8×8 window)",
        &[
            "delta",
            "disk/query",
            "cpu/query",
            "objects/dq",
            "overhead vs PDQ",
        ],
    );

    let mut base_disk = None;
    for delta in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let (mut disk, mut cpu, mut results, mut frames) = (0u64, 0u64, 0u64, 0u64);
        for spec in &specs {
            let mut s = PdqEngine::start(&tree, spec.trajectory.inflate(delta));
            let t0 = spec.frame_times[0];
            results += s.drain_window(&tree, t0, t0).len() as u64;
            let _ = s.take_stats();
            for w in spec.frame_times.windows(2) {
                results += s.drain_window(&tree, w[0], w[1]).len() as u64;
                let st = s.take_stats();
                disk += st.disk_accesses;
                cpu += st.distance_computations;
                frames += 1;
            }
        }
        let d = disk as f64 / frames as f64;
        let base = *base_disk.get_or_insert(d);
        table.row(vec![
            f2(delta),
            f2(d),
            f2(cpu as f64 / frames as f64),
            f2(results as f64 / specs.len() as f64),
            format!("{:+.1}%", (d / base - 1.0) * 100.0),
        ]);
    }
    table.print();
    table.write_json();
}
