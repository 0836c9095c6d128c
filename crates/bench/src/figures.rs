//! The measurement sweeps behind Figs. 6–13, shared by the binaries.
//!
//! Four sweep shapes cover all eight figures:
//!
//! | Figures | Sweep | Engines |
//! |---|---|---|
//! | 6 (I/O), 7 (CPU) | overlap, small window | naive-NSI vs PDQ |
//! | 8 (I/O), 9 (CPU) | overlap × window size | naive-NSI vs PDQ, subsequent queries |
//! | 10 (I/O), 11 (CPU) | overlap, small window | naive-DTA vs NPDQ |
//! | 12 (I/O), 13 (CPU) | overlap × window size | naive-DTA vs NPDQ, subsequent queries |

use crate::{build_dataset, build_queries, f2, pct, FigureTable, Scale, PAPER_OVERLAPS,
            PAPER_WINDOW_SIDES};
use rtree::{DtaSegmentRecord, NsiSegmentRecord, RTree};
use storage::Pager;
use workload::{measure_naive_dta, measure_naive_nsi, measure_npdq, measure_pdq, PointSummary};

/// Which of the paper's two metrics a figure plots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Disk accesses per query (leaf / total).
    Io,
    /// Distance computations per query.
    Cpu,
}

impl Metric {
    fn first(self, p: &PointSummary) -> String {
        match self {
            Metric::Io => format!("{}/{}", f2(p.first_leaf), f2(p.first_disk)),
            Metric::Cpu => f2(p.first_cpu),
        }
    }

    fn subsequent(self, p: &PointSummary) -> String {
        match self {
            Metric::Io => format!("{}/{}", f2(p.sub_leaf), f2(p.sub_disk)),
            Metric::Cpu => f2(p.sub_cpu),
        }
    }
}

/// Which dynamic-query algorithm a sweep compares against its naive
/// baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Predictive dynamic queries over the NSI tree (Figs. 6–9).
    Pdq,
    /// Non-predictive dynamic queries over the DTA tree (Figs. 10–13).
    Npdq,
}

impl Algo {
    fn name(self) -> &'static str {
        match self {
            Algo::Pdq => "PDQ",
            Algo::Npdq => "NPDQ",
        }
    }

    /// The one index this algorithm and its baseline read, over the
    /// scale's data set.
    fn index(self, scale: Scale) -> Index {
        let ds = build_dataset(scale);
        match self {
            Algo::Pdq => Index::Nsi(ds.build_nsi_tree()),
            Algo::Npdq => Index::Dta(ds.build_dta_tree()),
        }
    }
}

enum Index {
    Nsi(RTree<NsiSegmentRecord<2>, Pager>),
    Dta(RTree<DtaSegmentRecord<2>, Pager>),
}

struct Sweep {
    naive: PointSummary,
    dq: PointSummary,
}

fn run_point(index: &Index, scale: Scale, overlap: f64, window: f64) -> Sweep {
    let specs = build_queries(scale, overlap, window);
    match index {
        Index::Nsi(nsi) => Sweep {
            naive: measure_naive_nsi(nsi, &specs),
            dq: measure_pdq(nsi, &specs),
        },
        Index::Dta(dta) => Sweep {
            naive: measure_naive_dta(dta, &specs),
            dq: measure_npdq(dta, &specs),
        },
    }
}

/// Figs. 6, 7, 10, 11: first + subsequent cost vs overlap, small window.
pub fn overlap_figure(figure: &str, title: &str, algo: Algo, metric: Metric) -> FigureTable {
    let scale = Scale::from_env();
    let index = algo.index(scale);
    let algo_name = algo.name();
    let mut table = FigureTable::new(
        figure,
        title,
        &[
            "overlap",
            "naive first",
            "naive subs",
            &format!("{algo_name} first"),
            &format!("{algo_name} subs"),
        ],
    );
    for overlap in PAPER_OVERLAPS {
        let s = run_point(&index, scale, overlap, 8.0);
        table.row(vec![
            pct(overlap),
            metric.first(&s.naive),
            metric.subsequent(&s.naive),
            metric.first(&s.dq),
            metric.subsequent(&s.dq),
        ]);
    }
    table
}

/// Figs. 8, 9, 12, 13: subsequent-query cost vs overlap for the three
/// window sizes.
pub fn size_figure(figure: &str, title: &str, algo: Algo, metric: Metric) -> FigureTable {
    let scale = Scale::from_env();
    let index = algo.index(scale);
    let algo_name = algo.name();
    let mut cols: Vec<String> = vec!["overlap".into()];
    for w in PAPER_WINDOW_SIDES {
        cols.push(format!("naive {w:.0}x{w:.0}"));
        cols.push(format!("{algo_name} {w:.0}x{w:.0}"));
    }
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut table = FigureTable::new(figure, title, &col_refs);
    for overlap in PAPER_OVERLAPS {
        let mut cells = vec![pct(overlap)];
        for w in PAPER_WINDOW_SIDES {
            let s = run_point(&index, scale, overlap, w);
            cells.push(metric.subsequent(&s.naive));
            cells.push(metric.subsequent(&s.dq));
        }
        table.row(cells);
    }
    table
}

/// Run, print and persist one figure — the whole body of each binary.
pub fn emit(table: FigureTable) {
    table.print();
    table.write_json();
}
