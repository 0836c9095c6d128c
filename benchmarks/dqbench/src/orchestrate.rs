//! The modes a person runs: `--all`, `--selfcheck`, `--smoke`. Each
//! workload run is a child process of this same binary in contract
//! mode (one process per run, so `peak_rss_mb` means one workload), and
//! this module folds what the children print.

use std::process::{Command, Stdio};

use crate::json::{parse, Json};
use crate::metrics::{MetricDef, END_TO_END, FAILED_FRAC, PER_LAYER, UNGATED_END_TO_END};
use crate::stats::{fold, Fold};
use crate::workloads::{Workload, WORKLOADS};

/// Metrics that are counts of deterministic work: the same seed must
/// give the same value on every run.
const EXACT: [&str; 3] = [
    "node_reads_per_frame",
    "dist_comps_per_frame",
    "wal_bytes_per_insert",
];

pub const E2E_RESULTS: &str = "benchmarks/results/e2e.json";
pub const LAYER_RESULTS: &str = "benchmarks/results/layers.json";

#[derive(Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub repeats: usize,
    pub seconds: u64,
    /// Divide every workload's frames by this (1 except under `--smoke`).
    pub shrink: usize,
    pub traced: bool,
}

/// What is wrong with a contract result line, if anything: it must hold
/// exactly `correct`, `attempted`, `failed` and `metrics`, and the
/// metrics must be exactly the declared table with the declared units.
pub fn contract_violation(line: &Json, table: &[MetricDef]) -> Option<String> {
    let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Some(format!("result keys {keys:?}"));
    }
    let metrics = line.get("metrics")?.as_obj();
    if metrics.len() != table.len() {
        return Some(format!(
            "{} metrics for a table of {}",
            metrics.len(),
            table.len()
        ));
    }
    for def in table {
        let Some((_, m)) = metrics.iter().find(|(k, _)| k == def.name) else {
            return Some(format!("metric {} is missing", def.name));
        };
        if m.get("unit").and_then(Json::as_str) != Some(def.unit) {
            return Some(format!("metric {} has the wrong unit", def.name));
        }
        if !m
            .get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite)
        {
            return Some(format!("metric {} is not a number", def.name));
        }
    }
    None
}

/// One child's detail object (its contract line is checked on the way).
fn run_child(w: &Workload, plan: &Plan, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--shrink", &plan.shrink.to_string()])
        .arg("--detail")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} run: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("#detail "))
        .ok_or_else(|| format!("the {} run printed no result:\n{stdout}", w.name))?;
    let detail = parse(detail)?;
    let contract = parse(stdout.lines().last().unwrap_or_default())?;
    let table: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
    if let Some(what) = contract_violation(&contract, table) {
        return Err(format!(
            "the {} run broke the result contract: {what}",
            w.name
        ));
    }
    if !output.status.success() || detail.get("correct").and_then(Json::as_bool) != Some(true) {
        for line in stdout.lines().filter(|l| l.starts_with("PROBLEM")) {
            eprintln!("{}: {line}", w.name);
        }
        return Err(format!("the {} run failed its correctness checks", w.name));
    }
    Ok(detail)
}

/// One workload's repeats, folded.
pub struct Row {
    pub workload: &'static str,
    pub inputs_hash: String,
    pub attempted: f64,
    pub failed: f64,
    pub metrics: Vec<(MetricDef, Fold, f64)>,
}

impl Row {
    fn metric(&self, name: &str) -> Option<&Fold> {
        self.metrics
            .iter()
            .find(|(d, _, _)| d.name == name)
            .map(|(_, f, _)| f)
    }
}

fn fold_runs(w: &'static Workload, table: &[MetricDef], runs: &[Json]) -> Result<Row, String> {
    let text = |run: &Json, key: &str| run.get(key).and_then(Json::as_str).map(str::to_owned);
    let number = |run: &Json, key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let inputs_hash = text(&runs[0], "inputs_hash").ok_or("a run reported no inputs_hash")?;
    if runs
        .iter()
        .any(|r| text(r, "inputs_hash").as_deref() != Some(&inputs_hash))
    {
        return Err(format!(
            "{}: inputs_hash changed between runs of one seed",
            w.name
        ));
    }
    let mut metrics = Vec::new();
    for def in table {
        let samples: Vec<(f64, f64)> = runs
            .iter()
            .filter_map(|r| {
                let m = r.get("metrics")?.get(def.name)?;
                Some((m.get("value")?.as_f64()?, m.get("samples")?.as_f64()?))
            })
            .collect();
        if samples.is_empty() {
            continue; // does not apply to this workload: omitted, not zeroed
        }
        if samples.len() != runs.len() {
            return Err(format!("{}: {} missing from some runs", w.name, def.name));
        }
        let values: Vec<f64> = samples.iter().map(|s| s.0).collect();
        if EXACT.contains(&def.name) && values.iter().any(|v| *v != values[0]) {
            return Err(format!(
                "{}: {} must repeat exactly, got {values:?}",
                w.name, def.name
            ));
        }
        metrics.push((*def, fold(&values), samples[0].1));
    }
    Ok(Row {
        workload: w.name,
        inputs_hash,
        attempted: runs.iter().map(|r| number(r, "attempted")).sum(),
        failed: runs.iter().map(|r| number(r, "failed")).sum(),
        metrics,
    })
}

fn e2e_table() -> Vec<MetricDef> {
    END_TO_END
        .iter()
        .chain(&UNGATED_END_TO_END)
        .chain([&FAILED_FRAC])
        .copied()
        .collect()
}

/// Run every workload `plan.repeats` times untraced, plus one traced
/// run each when asked; `(end-to-end rows, per-layer rows)`.
pub fn run_set(plan: &Plan) -> Result<(Vec<Row>, Vec<Row>), String> {
    let (mut e2e, mut layers) = (Vec::new(), Vec::new());
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for rep in 0..plan.repeats {
            eprintln!("# {} run {}/{}", w.name, rep + 1, plan.repeats);
            runs.push(run_child(w, plan, false)?);
        }
        e2e.push(fold_runs(w, &e2e_table(), &runs)?);
        if plan.traced {
            eprintln!("# {} traced run", w.name);
            layers.push(fold_runs(w, &PER_LAYER, &[run_child(w, plan, true)?])?);
        }
    }
    Ok((e2e, layers))
}

pub fn print_rows(title: &str, rows: &[Row]) {
    println!("== {title}");
    for row in rows {
        println!(
            "-- {} inputs_hash {} attempted {} failed {}",
            row.workload, row.inputs_hash, row.attempted, row.failed
        );
        for (def, f, samples) in &row.metrics {
            println!(
                "{:<34} {:>16.4} {:<6} q1 {:>14.4} q3 {:>14.4} spread {:>6.3} runs {} samples {}",
                def.name,
                f.median,
                def.unit,
                f.q1,
                f.q3,
                f.spread(),
                f.n,
                samples
            );
        }
    }
}

fn rows_json(plan: &Plan, rows: &[Row]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        ("benchmark", Json::str("dqbench")),
        ("seed", Json::Num(plan.seed as f64)),
        ("repeats", Json::Num(plan.repeats as f64)),
        ("run_seconds", Json::Num(plan.seconds as f64)),
        ("host", Json::obj([("nproc", Json::Num(nproc as f64))])),
        (
            "workloads",
            Json::Arr(
                rows.iter()
                    .map(|row| {
                        Json::obj([
                            ("name", Json::str(row.workload)),
                            ("inputs_hash", Json::str(row.inputs_hash.clone())),
                            ("attempted", Json::Num(row.attempted)),
                            ("failed", Json::Num(row.failed)),
                            (
                                "metrics",
                                Json::obj(row.metrics.iter().map(|(def, f, samples)| {
                                    let mut fields = vec![
                                        ("unit", Json::str(def.unit)),
                                        ("better", Json::str(def.better.as_str())),
                                        ("median", Json::Num(f.median)),
                                        ("q1", Json::Num(f.q1)),
                                        ("q3", Json::Num(f.q3)),
                                        ("runs", Json::Num(f.n as f64)),
                                        ("samples", Json::Num(*samples)),
                                    ];
                                    if let Some(bound) = def.bound {
                                        fields.push(("bound", Json::Num(bound)));
                                    }
                                    (def.name, Json::obj(fields))
                                })),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub fn write_results(path: &str, plan: &Plan, rows: &[Row]) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, rows_json(plan, rows).pretty()).map_err(|e| format!("{path}: {e}"))
}

/// `--all`: run, print, write the result files.
pub fn all(plan: &Plan) -> Result<(), String> {
    let (e2e, layers) = run_set(plan)?;
    print_rows("end to end (untraced runs)", &e2e);
    write_results(E2E_RESULTS, plan, &e2e)?;
    println!("wrote {E2E_RESULTS}");
    if plan.traced {
        print_rows("per layer (traced run)", &layers);
        // One traced run per workload, whatever `--repeats` says.
        write_results(
            LAYER_RESULTS,
            &Plan {
                repeats: 1,
                ..*plan
            },
            &layers,
        )?;
        println!("wrote {LAYER_RESULTS}");
    }
    Ok(())
}

/// Relative difference of `b` against `a`.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
    }
}

/// `(workload, metric, rel diff, bound)` of every end-to-end metric on
/// which two sets of runs of the same code disagree by more than the
/// metric's bound, or at all where the value must repeat exactly.
pub fn disagreements(a: &[Row], b: &[Row]) -> Vec<(String, String, f64, f64)> {
    let mut out = Vec::new();
    for (ra, rb) in a.iter().zip(b) {
        if ra.inputs_hash != rb.inputs_hash {
            out.push((ra.workload.into(), "inputs_hash".into(), 1.0, 0.0));
        }
        for (def, fa, _) in &ra.metrics {
            let Some(fb) = rb.metric(def.name) else {
                continue;
            };
            let diff = rel_diff(fa.median, fb.median);
            let bound = if EXACT.contains(&def.name) {
                0.0
            } else {
                def.bound.unwrap_or(0.0)
            };
            if diff > bound {
                out.push((ra.workload.into(), def.name.into(), diff, bound));
            }
        }
    }
    out
}

/// `--selfcheck`: the whole set twice, A then B, same code, same seed.
pub fn selfcheck(plan: &Plan) -> Result<(), String> {
    let plan = Plan {
        traced: false,
        ..*plan
    };
    let (a, _) = run_set(&plan)?;
    let (b, _) = run_set(&plan)?;
    println!(
        "{:<8} {:<24} {:>14} {:>12} {:>14} {:>12} {:>9} {:>7}",
        "workload", "metric", "median A", "iqr A", "median B", "iqr B", "rel diff", "bound"
    );
    for (ra, rb) in a.iter().zip(&b) {
        for (def, fa, _) in &ra.metrics {
            let Some(fb) = rb.metric(def.name) else {
                continue;
            };
            println!(
                "{:<8} {:<24} {:>14.4} {:>12.4} {:>14.4} {:>12.4} {:>9.4} {:>7.2}",
                ra.workload,
                def.name,
                fa.median,
                fa.q3 - fa.q1,
                fb.median,
                fb.q3 - fb.q1,
                rel_diff(fa.median, fb.median),
                def.bound.unwrap_or(0.0)
            );
        }
    }
    let bad = disagreements(&a, &b);
    for (w, m, diff, bound) in &bad {
        println!("NOISE {w} {m}: sets differ by {diff:.4}, bound {bound:.2}");
    }
    if bad.is_empty() {
        println!("selfcheck: two sets of runs agree within every bound");
        Ok(())
    } else {
        Err(format!(
            "{} end-to-end metrics differ by more than their bound",
            bad.len()
        ))
    }
}

/// `--smoke`: every workload at 1/20 of its frames, one untraced and
/// one traced run each; checks names, units, schema and correctness,
/// never a timing.
pub fn smoke(seed: u64) -> Result<(), String> {
    let plan = Plan {
        seed,
        repeats: 1,
        seconds: 0,
        shrink: 20,
        traced: true,
    };
    // `run_child` has already held every result line to the contract.
    let (e2e, layers) = run_set(&plan)?;
    for row in e2e.iter().chain(&layers) {
        if row.failed != 0.0 || row.attempted < 1.0 {
            return Err(format!(
                "{}: {} of {} session-frames failed",
                row.workload, row.failed, row.attempted
            ));
        }
        if let Some((def, _, _)) = row.metrics.iter().find(|(_, f, _)| !f.median.is_finite()) {
            return Err(format!("{}: {} is not a number", row.workload, def.name));
        }
    }
    let durable = e2e
        .iter()
        .find(|r| r.workload == "durable")
        .ok_or("no durable row")?;
    for def in &UNGATED_END_TO_END {
        if durable.metric(def.name).is_none() {
            return Err(format!("durable: {} is missing", def.name));
        }
    }
    print_rows("smoke, end to end", &e2e);
    print_rows("smoke, per layer", &layers);
    println!("smoke: {} workloads, schema and correctness ok", e2e.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Better;

    fn row(fps: f64, reads: f64) -> Row {
        let one = |name: &str, v: f64| {
            let def = *END_TO_END.iter().find(|m| m.name == name).unwrap();
            (def, fold(&[v, v, v]), 3.0)
        };
        Row {
            workload: "ingest",
            inputs_hash: "00".into(),
            attempted: 10.0,
            failed: 0.0,
            metrics: vec![one("frames_per_s", fps), one("node_reads_per_frame", reads)],
        }
    }

    #[test]
    fn selfcheck_flags_noise_beyond_the_bound_and_any_drift_of_an_exact_count() {
        assert!(disagreements(&[row(1000.0, 8.0)], &[row(1050.0, 8.0)]).is_empty());
        let noisy = disagreements(&[row(1000.0, 8.0)], &[row(1300.0, 8.0)]);
        assert_eq!(noisy.len(), 1);
        assert_eq!((noisy[0].1.as_str(), noisy[0].3), ("frames_per_s", 0.25));
        let drift = disagreements(&[row(1000.0, 8.0)], &[row(1000.0, 8.001)]);
        assert_eq!(
            (drift[0].1.as_str(), drift[0].3),
            ("node_reads_per_frame", 0.0)
        );
    }

    #[test]
    fn contract_line_is_held_to_exact_keys_names_and_units() {
        let table = [MetricDef {
            name: "setup_s",
            unit: "s",
            better: Better::Lower,
            bound: Some(0.25),
        }];
        let line = |text: &str| parse(text).unwrap();
        let good = r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#;
        assert_eq!(contract_violation(&line(good), &table), None);
        for bad in [
            r#"{"correct":true,"attempted":1,"failed":0,"extra":1,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"ms"}}}"#,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup":{"value":0.5,"unit":"s"}}}"#,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":null,"unit":"s"}}}"#,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{}}"#,
        ] {
            assert!(contract_violation(&line(bad), &table).is_some(), "{bad}");
        }
    }
}
