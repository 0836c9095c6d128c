//! Every metric the benchmark reports: name, unit, direction, and for
//! the end-to-end ones the regression bound. `BENCHMARK.json` declares
//! the same tables; a unit test holds the two together.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; `None` for per-layer
    /// metrics, which are never gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload reports and the driver gates
/// (the contract's `end_to_end` table). The timing bounds sit at the
/// contract's cap: the shared host the benchmark was sized on runs the
/// same binary up to twice as slow for minutes at a time, and what the
/// quiet-host correction leaves of that is up to 0.13 between ten runs.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("frames_per_s", "1/s", Higher, 0.25),
    e2e("cpu_us_per_frame", "us", Lower, 0.25),
    e2e("node_reads_per_frame", "count", Lower, 0.20),
    e2e("dist_comps_per_frame", "count", Lower, 0.20),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// End-to-end metrics that `--all` reports and `--selfcheck` gates but
/// the contract's `end_to_end` table cannot hold: `frame_gap_p99_us`
/// because a tail under host preemption moves by more than the largest
/// bound the contract allows, the other two because only `durable` has
/// them and that table must hold for every workload. `BENCHMARK.json`
/// carries all three in its per-layer table, which has no bounds and
/// may read 0 where a metric does not apply: `server.gap_p99_us`,
/// `durability.recover_ms`, `durability.wal_bytes_per_insert`.
pub const UNGATED_END_TO_END: [MetricDef; 3] = [
    e2e("frame_gap_p99_us", "us", Lower, 0.25),
    e2e("recover_ms", "ms", Lower, 0.25),
    e2e("wal_bytes_per_insert", "bytes", Lower, 0.20),
];

/// `failed_frac` is reported beside the tables: it is 0 on a correct
/// run, and the contract carries it as `failed` over `attempted`.
pub const FAILED_FRAC: MetricDef = e2e("failed_frac", "ratio", Lower, 0.0);

/// Per-layer metrics of the traced run (the contract's `per_layer`
/// table). A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [MetricDef; 62] = [
    // storage
    layer("storage.pool_hit_ratio", "ratio", Higher),
    layer("storage.device_reads_per_frame", "count", Lower),
    layer("storage.evictions_per_frame", "count", Lower),
    layer("storage.pool_ns_per_frame", "ns", Lower),
    layer("storage.pool_read_hit_ns", "ns", Lower),
    layer("storage.pool_read_miss_ns", "ns", Lower),
    layer("storage.wal_commit_us_p50", "us", Lower),
    layer("storage.snapshot_ms", "ms", Lower),
    layer("storage.fault1pct_fps_ratio", "ratio", Higher),
    // rtree
    layer("rtree.insert_ns", "ns", Lower),
    layer("rtree.insert_node_reads", "count", Lower),
    layer("rtree.insert_node_writes", "count", Lower),
    layer("rtree.range_ns_per_node", "ns", Lower),
    layer("rtree.read_retries", "count", Lower),
    layer("rtree.height", "count", Lower),
    layer("rtree.leaf_fill", "ratio", Higher),
    // stkit
    layer("stkit.segment_solve_ns_per_lane", "ns", Lower),
    layer("stkit.rect_solve_ns_per_lane", "ns", Lower),
    // mobiquery engines
    layer("mobiquery.step_us_p50", "us", Lower),
    layer("mobiquery.step_us_p99", "us", Lower),
    layer("mobiquery.first_frame_us", "us", Lower),
    layer("mobiquery.pdq_reads_per_frame", "count", Lower),
    layer("mobiquery.npdq_reads_per_frame", "count", Lower),
    layer("mobiquery.naive_reads_per_frame", "count", Lower),
    layer("mobiquery.pdq_vs_naive_reads", "ratio", Lower),
    layer("mobiquery.npdq_vs_naive_reads", "ratio", Lower),
    layer("mobiquery.npdq_discard_rate", "ratio", Higher),
    layer("mobiquery.pdq_queue_hwm", "count", Lower),
    // serving core
    layer("router.serial_fps", "1/s", Higher),
    layer("router.concurrent_fps", "1/s", Higher),
    layer("router.concurrent_vs_serial", "ratio", Higher),
    layer("clock.wait_ns_per_frame", "ns", Lower),
    layer("router.drain_ns_per_frame", "ns", Lower),
    layer("router.writer_hold_ns_per_frame", "ns", Lower),
    layer("router.writer_busy_frac", "ratio", Lower),
    layer("router.mailbox_hwm", "count", Lower),
    layer("clock.handshake_ns", "ns", Lower),
    layer("router.seam_dup_ratio", "ratio", Lower),
    layer("router.region_load_skew", "ratio", Lower),
    layer("trace.step_share", "ratio", Lower),
    layer("trace.unattributed_frac", "ratio", Lower),
    // durability
    layer("durability.commit_us_mean", "us", Lower),
    layer("durability.checkpoint_ms", "ms", Lower),
    layer("durability.checkpoints", "count", Lower),
    layer("durability.replayed_records", "count", Lower),
    layer("durability.fps_ratio", "ratio", Higher),
    layer("durability.recover_ms", "ms", Lower),
    layer("durability.wal_bytes_per_insert", "bytes", Lower),
    // server
    layer("server.wire_vs_inproc", "ratio", Higher),
    layer("server.encode_ns_per_delta", "ns", Lower),
    layer("server.decode_ns_per_delta", "ns", Lower),
    layer("server.bytes_per_delta", "bytes", Lower),
    layer("server.outbox_ns_per_frame", "ns", Lower),
    layer("server.admit_us", "us", Lower),
    layer("server.outbox_hwm", "count", Lower),
    layer("server.evicted", "count", Lower),
    layer("server.gap_p50_us", "us", Lower),
    layer("server.gap_p90_us", "us", Lower),
    layer("server.gap_p99_us", "us", Lower),
    // obs
    layer("obs.trace_overhead_frac", "ratio", Lower),
    // the traced run's own throughput, the base of the ratios above
    layer("trace.frames_per_s", "1/s", Higher),
    layer("trace.spans", "count", Higher),
];

/// The declaration of `name`, whichever table holds it. Measuring a
/// metric nobody declared is a bug in the benchmark.
pub fn declared(name: &str) -> MetricDef {
    END_TO_END
        .iter()
        .chain(&UNGATED_END_TO_END)
        .chain([&FAILED_FRAC])
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .copied()
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Measured {
    pub def: MetricDef,
    pub value: f64,
    /// Samples behind the value (frames, gaps, episodes: the metric's
    /// README entry says which).
    pub samples: usize,
}

impl Measured {
    pub fn new(name: &str, value: f64, samples: usize) -> Measured {
        Measured {
            def: declared(name),
            value,
            samples,
        }
    }
}

/// `BENCHMARK.json` as these tables declare it (`dqbench
/// --benchmark-json` prints it; a unit test holds the committed file to it).
pub fn benchmark_json(run_seconds: u64) -> crate::json::Json {
    use crate::json::Json;
    let metric = |m: &MetricDef| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", Json::Num(bound)));
        }
        Json::obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmarks/dqbench/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmarks")])),
        ("run_seconds", Json::Num(run_seconds as f64)),
        (
            "workloads",
            Json::Arr(
                crate::workloads::WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::workloads::WORKLOADS;

    fn well_formed(name: &str, max: usize) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= max
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&UNGATED_END_TO_END)
            .chain([&FAILED_FRAC])
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for name in &names {
            assert!(
                well_formed(name, 64),
                "{name:?} is not [A-Za-z0-9][A-Za-z0-9_.-]*"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?}",
                m.unit
            );
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let text = include_str!("../../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let file = parse(text).expect("BENCHMARK.json parses");
        assert!(
            file == benchmark_json(crate::RUN_SECONDS),
            "BENCHMARK.json is stale: run `dqbench --benchmark-json > BENCHMARK.json`"
        );

        // The contract's limits, checked on the file itself.
        let keys: Vec<&str> = file.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            file.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        assert!((2..=8).contains(&names("workloads").len()));
        assert!((1..=16).contains(&names("end_to_end").len()));
        assert!((1..=128).contains(&names("per_layer").len()));
        for w in file.get("workloads").unwrap().as_arr() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
        }
        let setup: Vec<_> = file
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .filter(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
            .collect();
        assert_eq!(setup.len(), 1);
        assert_eq!(setup[0].get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(setup[0].get("better").and_then(Json::as_str), Some("lower"));
        for m in file.get("end_to_end").unwrap().as_arr() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
            assert!(bound <= setup[0].get("bound").and_then(Json::as_f64).unwrap());
        }
        // Every metric and workload the binary can print is declared.
        for m in END_TO_END.iter() {
            assert!(names("end_to_end").contains(&m.name.to_owned()));
        }
        for m in PER_LAYER.iter() {
            assert!(names("per_layer").contains(&m.name.to_owned()));
        }
        for w in &WORKLOADS {
            assert!(names("workloads").contains(&w.name.to_owned()));
        }
        for twin in [
            "server.gap_p99_us",
            "durability.recover_ms",
            "durability.wal_bytes_per_insert",
        ] {
            assert!(names("per_layer").contains(&twin.to_owned()), "{twin}");
        }
    }
}
