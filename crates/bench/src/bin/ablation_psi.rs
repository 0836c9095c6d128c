//! Ablation: NSI vs PSI (parametric space indexing) — the §2 claim.
//!
//! "A comparative study between the two indicates that NSI outperforms
//! PSI, because of the loss of locality associated with PSI."
//!
//! Both indexes hold the identical segment set; the same snapshot queries
//! run against each (exact leaf test on, so the binary asserts that every
//! query's answers are identical). PSI's
//! conservative parametric query box (window inflated by v_max ·
//! max_duration, full velocity range) reads more of the tree.

use bench::{f2, pct, FigureTable, Scale, PAPER_OVERLAPS};
use mobiquery::{psi_query, NaiveEngine, PsiBounds, PsiSegmentRecord};
use rtree::bulk::bulk_load;
use rtree::RTreeConfig;
use storage::Pager;

fn main() {
    let scale = Scale::from_env();
    let ds = bench::build_dataset(scale);
    let nsi = ds.build_nsi_tree();
    let psi_recs: Vec<PsiSegmentRecord> = ds
        .updates()
        .iter()
        .map(|u| PsiSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position()))
        .collect();
    // Workload stats for the parametric query mapping.
    let v_max = ds
        .updates()
        .iter()
        .flat_map(|u| u.seg.v.iter().map(|v| v.abs()))
        .fold(0.0f64, f64::max);
    let max_duration = ds
        .updates()
        .iter()
        .map(|u| u.seg.t.length())
        .fold(0.0f64, f64::max);
    let bounds = PsiBounds { v_max, max_duration };
    eprintln!("# psi bounds: v_max {v_max:.2}, max segment duration {max_duration:.2}");
    let psi = bulk_load(Pager::new(), RTreeConfig::default(), psi_recs);

    let mut table = FigureTable::new(
        "ablation_psi",
        "NSI vs PSI (identical data, identical answers)",
        &[
            "overlap",
            "NSI disk/query",
            "PSI disk/query",
            "NSI cpu/query",
            "PSI cpu/query",
        ],
    );
    let naive = NaiveEngine::new();
    for overlap in PAPER_OVERLAPS {
        let specs = bench::build_queries(scale, overlap, 8.0);
        let (mut nd, mut pd, mut nc, mut pc, mut frames) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for spec in &specs {
            for q in spec.snapshots() {
                let (mut n_ids, mut p_ids) = (Vec::new(), Vec::new());
                let ns = naive.query_nsi(&nsi, &q, |r| n_ids.push((r.oid, r.seq)));
                let ps = psi_query(&psi, &q, &bounds, |r| p_ids.push((r.oid, r.seq)));
                n_ids.sort_unstable();
                p_ids.sort_unstable();
                assert_eq!(n_ids, p_ids, "PSI must answer what NSI answers");
                nd += ns.disk_accesses;
                pd += ps.disk_accesses;
                nc += ns.distance_computations;
                pc += ps.distance_computations;
                frames += 1;
            }
        }
        table.row(vec![
            pct(overlap),
            f2(nd as f64 / frames as f64),
            f2(pd as f64 / frames as f64),
            f2(nc as f64 / frames as f64),
            f2(pc as f64 / frames as f64),
        ]);
    }
    table.print();
    table.write_json();
}
