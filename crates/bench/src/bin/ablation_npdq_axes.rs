//! Ablation: the two discardability layouts of §4.2 Fig. 5.
//!
//! (a) open-ended temporal range queries over the **NSI** index (single
//!     temporal axis), vs
//! (b) the **double-temporal-axes** index the paper's implementation
//!     chose.
//!
//! Both trees are spatially STR-clustered and hold identical segments;
//! the same open-ended snapshot stream runs through `NpdqEngine` (the
//! engine is layout-generic). The DTA layout separates "still alive" on
//! its own axis, so its key space discriminates old segments better.

use bench::{f2, pct, FigureTable, Scale, PAPER_OVERLAPS};
use mobiquery::NpdqEngine;
use rtree::bulk::bulk_load;
use rtree::{NsiSegmentRecord, RTreeConfig};
use storage::Pager;

fn main() {
    let scale = Scale::from_env();
    let ds = bench::build_dataset(scale);
    let dta = ds.build_dta_tree();
    let nsi_spatial = {
        let cfg = RTreeConfig {
            bulk_leading_axes: Some(2),
            ..RTreeConfig::default()
        };
        let recs: Vec<NsiSegmentRecord<2>> = ds.nsi_records();
        bulk_load(Pager::new(), cfg, recs)
    };

    let mut table = FigureTable::new(
        "ablation_npdq_axes",
        "NPDQ layouts: open-ended over NSI (Fig. 5a) vs double temporal axes (Fig. 5b)",
        &[
            "overlap",
            "NSI disk/query",
            "DTA disk/query",
            "NSI cpu/query",
            "DTA cpu/query",
        ],
    );
    for overlap in PAPER_OVERLAPS {
        let specs = bench::build_queries(scale, overlap, 8.0);
        let (mut nd, mut dd, mut nc, mut dc, mut frames) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for spec in &specs {
            let mut e_nsi = NpdqEngine::new();
            let mut e_dta = NpdqEngine::new();
            for (i, _) in spec.frame_times.iter().enumerate() {
                let q = spec.open_snapshot(i);
                let sn = e_nsi.execute(&nsi_spatial, &q, |_| {});
                let sd = e_dta.execute(&dta, &q, |_| {});
                if i > 0 {
                    nd += sn.disk_accesses;
                    dd += sd.disk_accesses;
                    nc += sn.distance_computations;
                    dc += sd.distance_computations;
                    frames += 1;
                }
            }
        }
        table.row(vec![
            pct(overlap),
            f2(nd as f64 / frames as f64),
            f2(dd as f64 / frames as f64),
            f2(nc as f64 / frames as f64),
            f2(dc as f64 / frames as f64),
        ]);
    }
    table.print();
    table.write_json();
}
