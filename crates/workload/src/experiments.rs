//! Measurement loops shared by every figure harness.
//!
//! Each function evaluates a set of dynamic queries with one engine and
//! reports the paper's two rows per histogram group: cost of the *first*
//! snapshot query and mean cost of the *subsequent* snapshot queries
//! (§5: "results of subsequent queries are averaged over 50 consecutive
//! queries of each dynamic query").

use crate::queries::DynamicQuerySpec;
use mobiquery::stats::StatsAccumulator;
use mobiquery::{NaiveEngine, NpdqEngine, PdqEngine};
use rtree::{DtaSegmentRecord, NsiSegmentRecord, RTree};
use storage::PageStore;

/// Mean first-query and subsequent-query costs over a set of dynamic
/// queries — one histogram group of Figs. 6–13.
#[derive(Clone, Copy, Debug, Default)]
pub struct PointSummary {
    /// Mean disk accesses of the first snapshot query.
    pub first_disk: f64,
    /// Mean leaf-level disk accesses of the first snapshot query.
    pub first_leaf: f64,
    /// Mean distance computations of the first snapshot query.
    pub first_cpu: f64,
    /// Mean disk accesses per subsequent snapshot query.
    pub sub_disk: f64,
    /// Mean leaf-level disk accesses per subsequent snapshot query.
    pub sub_leaf: f64,
    /// Mean distance computations per subsequent snapshot query.
    pub sub_cpu: f64,
    /// Mean objects delivered per dynamic query (naive: per-frame result
    /// sets summed; PDQ/NPDQ: distinct deliveries).
    pub results_per_dq: f64,
}

fn summarize(
    first: StatsAccumulator,
    subsequent: StatsAccumulator,
    results_total: u64,
    dq_count: usize,
) -> PointSummary {
    PointSummary {
        first_disk: first.mean_disk(),
        first_leaf: first.mean_leaf(),
        first_cpu: first.mean_cpu(),
        sub_disk: subsequent.mean_disk(),
        sub_leaf: subsequent.mean_leaf(),
        sub_cpu: subsequent.mean_cpu(),
        results_per_dq: results_total as f64 / dq_count.max(1) as f64,
    }
}

/// Naive baseline over the NSI tree: every frame is an independent
/// snapshot query (the paper's comparison for PDQ, Figs. 6–9).
pub fn measure_naive_nsi<S: PageStore>(
    tree: &RTree<NsiSegmentRecord<2>, S>,
    specs: &[DynamicQuerySpec],
) -> PointSummary {
    let engine = NaiveEngine::new();
    let mut first = StatsAccumulator::default();
    let mut subsequent = StatsAccumulator::default();
    let mut results = 0;
    for spec in specs {
        for (i, q) in spec.snapshots().enumerate() {
            let s = engine.query_nsi(tree, &q, |_| {});
            results += s.results;
            if i == 0 {
                first.push(s);
            } else {
                subsequent.push(s);
            }
        }
    }
    summarize(first, subsequent, results, specs.len())
}

/// Naive baseline over the double-temporal-axes tree (the comparison for
/// NPDQ, Figs. 10–13 — same index, no result reuse).
pub fn measure_naive_dta<S: PageStore>(
    tree: &RTree<DtaSegmentRecord<2>, S>,
    specs: &[DynamicQuerySpec],
) -> PointSummary {
    let engine = NaiveEngine::new();
    let mut first = StatsAccumulator::default();
    let mut subsequent = StatsAccumulator::default();
    let mut results = 0;
    for spec in specs {
        for (i, q) in spec.open_snapshots().enumerate() {
            let s = engine.query_dta(tree, &q, |_| {});
            results += s.results;
            if i == 0 {
                first.push(s);
            } else {
                subsequent.push(s);
            }
        }
    }
    summarize(first, subsequent, results, specs.len())
}

/// PDQ (§4.1): one engine per dynamic query; the first frame's cost is
/// the initial drain, subsequent frames drain incrementally.
pub fn measure_pdq<S: PageStore>(
    tree: &RTree<NsiSegmentRecord<2>, S>,
    specs: &[DynamicQuerySpec],
) -> PointSummary {
    let mut first = StatsAccumulator::default();
    let mut subsequent = StatsAccumulator::default();
    let mut results = 0;
    for spec in specs {
        let mut engine = PdqEngine::start(tree, spec.trajectory.clone());
        let t0 = spec.frame_times[0];
        let n = engine.drain_window(tree, t0, t0).len();
        results += n as u64;
        first.push(engine.take_stats());
        for w in spec.frame_times.windows(2) {
            let n = engine.drain_window(tree, w[0], w[1]).len();
            results += n as u64;
            subsequent.push(engine.take_stats());
        }
    }
    summarize(first, subsequent, results, specs.len())
}

/// NPDQ (§4.2) over the double-temporal-axes tree: consecutive snapshots
/// with discardability against the previous one.
pub fn measure_npdq<S: PageStore>(
    tree: &RTree<DtaSegmentRecord<2>, S>,
    specs: &[DynamicQuerySpec],
) -> PointSummary {
    let mut first = StatsAccumulator::default();
    let mut subsequent = StatsAccumulator::default();
    let mut results = 0;
    for spec in specs {
        let mut engine = NpdqEngine::new();
        for (i, q) in spec.open_snapshots().enumerate() {
            let s = engine.execute(tree, &q, |_| {});
            results += s.results;
            if i == 0 {
                first.push(s);
            } else {
                subsequent.push(s);
            }
        }
    }
    summarize(first, subsequent, results, specs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetConfig};
    use crate::queries::{QueryWorkload, QueryWorkloadConfig};

    fn small_setup(overlap: f64) -> (Dataset, Vec<DynamicQuerySpec>) {
        let ds = Dataset::generate(DatasetConfig {
            objects: 500,
            duration: 20.0,
            ..DatasetConfig::quick()
        });
        let wl = QueryWorkload::new(QueryWorkloadConfig {
            count: 10,
            data_duration: 20.0,
            ..QueryWorkloadConfig::paper(overlap)
        });
        (ds, wl.generate())
    }

    #[test]
    fn pdq_beats_naive_on_subsequent_queries() {
        let (ds, specs) = small_setup(0.9);
        let tree = ds.build_nsi_tree();
        let naive = measure_naive_nsi(&tree, &specs);
        let pdq = measure_pdq(&tree, &specs);
        // The headline claim of the paper.
        assert!(
            pdq.sub_disk < naive.sub_disk * 0.5,
            "PDQ {} vs naive {}",
            pdq.sub_disk,
            naive.sub_disk
        );
        // Naive's first and subsequent costs are the same order.
        assert!((naive.first_disk - naive.sub_disk).abs() < naive.first_disk * 0.5);
    }

    #[test]
    fn pdq_improvement_grows_with_overlap() {
        let (ds, lo_specs) = small_setup(0.25);
        let tree = ds.build_nsi_tree();
        let (_, hi_specs) = small_setup(0.9999);
        let lo = measure_pdq(&tree, &lo_specs);
        let hi = measure_pdq(&tree, &hi_specs);
        assert!(
            hi.sub_disk < lo.sub_disk,
            "higher overlap must cost less: {} vs {}",
            hi.sub_disk,
            lo.sub_disk
        );
    }

    #[test]
    fn npdq_beats_naive_dta_at_high_overlap() {
        let (ds, specs) = small_setup(0.9);
        let tree = ds.build_dta_tree();
        let naive = measure_naive_dta(&tree, &specs);
        let npdq = measure_npdq(&tree, &specs);
        assert!(
            npdq.sub_leaf < naive.sub_leaf,
            "NPDQ {} vs naive {}",
            npdq.sub_leaf,
            naive.sub_leaf
        );
        // First queries cost the same (no previous query to reuse).
        assert!((npdq.first_disk - naive.first_disk).abs() < 1e-9);
    }

    #[test]
    fn results_delivered_are_consistent() {
        // PDQ delivers each object once; naive re-delivers every frame —
        // naive's total must be at least PDQ's.
        let (ds, specs) = small_setup(0.9);
        let tree = ds.build_nsi_tree();
        let naive = measure_naive_nsi(&tree, &specs);
        let pdq = measure_pdq(&tree, &specs);
        assert!(naive.results_per_dq >= pdq.results_per_dq);
        assert!(pdq.results_per_dq > 0.0);
    }
}
