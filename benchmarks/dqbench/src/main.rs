//! dqbench: the end-to-end and per-layer benchmark for the PDQ/NPDQ
//! serving stack. See `benchmarks/README.md`.
//!
//! ```text
//! dqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result on the last line
//! dqbench --all [--seed n] [--repeats r] [--seconds s] [--trace]      every workload, folded, results written
//! dqbench --selfcheck [--seed n] [--repeats r] [--seconds s]          the set twice; fails on noise beyond a bound
//! dqbench --smoke [--seed n]                                          1/20 size; schema and correctness only
//! dqbench --benchmark-json                                            BENCHMARK.json as the metric tables declare it
//! ```
//!
//! The orchestrating modes run each workload as a child process in the
//! first form, adding `--detail` (print every measured metric with its
//! sample count on a `#detail` line before the result line) and, under
//! `--smoke`, `--shrink 20`.

mod gen;
mod json;
mod layers;
mod measure;
mod metrics;
mod orchestrate;
mod probe;
mod run;
mod stats;
mod workloads;

use std::process::ExitCode;

/// How long one run measures unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 24;

struct Args(Vec<String>);

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
        }
    }
}

/// Where the traced run writes its raw spans: `<target dir>/dqbench`,
/// found from this executable (`<target dir>/<profile>/dqbench`).
fn trace_dir() -> std::path::PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("dqbench")))
        .unwrap_or_else(|| "target/dqbench".into())
}

fn one_run(args: &Args, name: &str) -> Result<ExitCode, String> {
    let names = || workloads::WORKLOADS.map(|w| w.name).join(", ");
    let w = workloads::by_name(name)
        .ok_or_else(|| format!("no workload {name:?}; have {}", names()))?;
    let seed: u64 = args.number("--seed", 1)?;
    let seconds: f64 = args.number("--seconds", RUN_SECONDS as f64)?;
    let shrink: usize = args.number("--shrink", 1)?;
    let traced = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    match probe::confine_to_one_cpu() {
        Some(cpu) => println!("# confined to cpu {cpu}"),
        None => println!("# could not confine to one cpu; running on all"),
    }
    let out = if traced {
        layers::run_traced(w, seed, shrink.max(1), &trace_dir())
    } else {
        measure::run_untraced(w, seed, seconds, shrink.max(1))
    };
    out.print();
    if args.has("--detail") {
        println!("#detail {}", out.detail_json().compact());
    }
    println!("{}", out.contract_json().compact());
    Ok(exit_code(out.failed, out.problems.len()))
}

/// Any failed session-frame or violated identity is a failed run.
fn exit_code(failed: usize, problems: usize) -> ExitCode {
    if failed == 0 && problems == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    if let Some(name) = args.value("--workload") {
        return one_run(args, name);
    }
    if args.has("--benchmark-json") {
        print!("{}", metrics::benchmark_json(RUN_SECONDS).pretty());
        return Ok(ExitCode::SUCCESS);
    }
    let plan = orchestrate::Plan {
        seed: args.number("--seed", 1)?,
        repeats: args.number("--repeats", 3usize)?.max(1),
        seconds: args.number("--seconds", RUN_SECONDS)?,
        shrink: 1,
        traced: args.has("--trace"),
    };
    if args.has("--all") {
        orchestrate::all(&plan)?;
    } else if args.has("--selfcheck") {
        orchestrate::selfcheck(&plan)?;
    } else if args.has("--smoke") {
        orchestrate::smoke(plan.seed)?;
    } else {
        return Err("give --workload <name>, --all, --selfcheck or --smoke".into());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match dispatch(&Args(std::env::args().skip(1).collect())) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dqbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_and_problems_make_the_exit_status_non_zero() {
        assert_eq!(exit_code(0, 0), ExitCode::SUCCESS);
        assert_eq!(exit_code(1, 0), ExitCode::FAILURE);
        assert_eq!(exit_code(0, 1), ExitCode::FAILURE);
    }
}
