//! The untraced run: as many of the workload's fixed-size episodes as
//! fill `--seconds`, each stated as the undisturbed host would have run
//! it, folded into the end-to-end metrics.

use std::time::Instant;

use crate::gen::{generate, Inputs};
use crate::json::Json;
use crate::metrics::{Measured, MetricDef, END_TO_END, PER_LAYER};
use crate::probe::{now_s, peak_rss_mb, HostSpeed};
use crate::run::{plain_pool, run_episode, Episode, EpisodeSpec, Oracle};
use crate::stats::{fold, percentile_or_supported};
use crate::workloads::Workload;

/// A run sets up at least this often.
const MIN_EPISODES: usize = 2;
/// Episodes of a `durable` run that end in crash and recovery. Recovery
/// rebuilds the whole index, which costs as much as serving the episode;
/// the episodes after these serve and check only, so that the run's
/// seconds buy throughput samples.
const RECOVERIES: usize = 2;

/// What one process measured on one workload.
pub struct RunOutput {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub inputs_hash: u64,
    pub episodes: usize,
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    pub metrics: Vec<Measured>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.value)
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and the declared table's metrics.
    pub fn contract_json(&self) -> Json {
        let table: &[MetricDef] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let metrics = table.iter().map(|def| {
            let value = self.value(def.name).unwrap_or(0.0);
            (
                def.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Everything, for the orchestrating modes: the contract object plus
    /// identity, sample counts and every measured metric.
    pub fn detail_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            (
                "inputs_hash",
                Json::str(format!("{:016x}", self.inputs_hash)),
            ),
            ("episodes", Json::Num(self.episodes as f64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.def.name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.def.unit)),
                            ("samples", Json::Num(m.samples as f64)),
                        ]),
                    )
                })),
            ),
        ])
    }

    pub fn print(&self) {
        println!(
            "# {} seed {} inputs_hash {:016x} episodes {} {}",
            self.workload,
            self.seed,
            self.inputs_hash,
            self.episodes,
            if self.traced { "traced" } else { "untraced" }
        );
        for m in &self.metrics {
            println!(
                "{:<34} {:>16.4} {:<6} better={} n={}",
                m.def.name,
                m.value,
                m.def.unit,
                m.def.better.as_str(),
                m.samples
            );
        }
        for p in &self.problems {
            println!("PROBLEM {p}");
        }
    }
}

/// Generate the workload's inputs at `1/shrink` of its frames. Index
/// build time does not shrink with frames, so a smoke-sized run
/// (`shrink` 20) also keeps only a quarter of the objects.
pub fn inputs_for(w: &Workload, seed: u64, shrink: usize) -> (Inputs, f64) {
    let started = Instant::now();
    let mut shape = w.shape;
    shape.frames = (shape.frames / shrink).max(8);
    shape.objects = (shape.objects / (shrink as u32 / 5).max(1)).max(100);
    let inputs = generate(&shape, seed);
    (inputs, started.elapsed().as_secs_f64())
}

/// Episodes a run of `seconds` makes: as many of the workload's nominal
/// episodes as fill them, and never fewer than [`MIN_EPISODES`]. The
/// count depends on the arguments alone, not on how fast this host
/// happens to be, so every run of a workload folds the same number of
/// samples.
pub fn episodes_for(w: &Workload, seconds: f64) -> usize {
    ((seconds / w.episode_s).round() as usize).max(MIN_EPISODES)
}

/// One episode's timings as the undisturbed host would have produced
/// them: see [`HostSpeed`].
struct Quiet {
    /// Input generation, index build and server start.
    setup_s: f64,
    /// Serve call / first Hello to the last delta.
    timed_s: f64,
    /// Process CPU over the timed region.
    cpu_s: f64,
}

/// How much harder the host's slow phases hit the program than they
/// hit the reference slice: the program's time grows as the slice's to
/// this power. Measured over ten seeds each in a slow and a fast phase
/// of the sizing host, CPU time per frame fitted powers of 1.4-1.5 on
/// `ingest` and `query`, 1.5-1.9 on `durable`, and 0.8-0.9 on `wire`
/// (mostly system calls, and too little of its wall time to matter).
/// With power 1 the medians of the slow and the fast set still differed
/// by up to 18 %; with 1.4 by up to 11 %, most of it time off the CPU.
const SENSITIVITY: f64 = 1.4;

impl Quiet {
    /// `began_s` is when the episode's input generation began, `gen_s`
    /// how long it took.
    fn of(host: &HostSpeed, began_s: f64, gen_s: f64, ep: &Episode) -> Quiet {
        let setting_up = host.share_of_quiet(began_s, ep.timed_at_s);
        let serving = host.share_of_quiet(ep.timed_at_s, ep.timed_at_s + ep.timed_s);
        Quiet::at(
            setting_up.powf(SENSITIVITY),
            serving.powf(SENSITIVITY),
            gen_s,
            ep,
        )
    }

    /// The episode with the program at these shares of its undisturbed
    /// speed while setting up and while serving. Set-up computes all the
    /// time, so all of it scales with the host's speed. Of the timed
    /// region only the part the process spent computing does (on its one
    /// CPU, `cpu_s` of the `timed_s`); the rest is the program's own
    /// waiting — a pump's poll interval, a write deadline — and stays as
    /// measured.
    fn at(setting_up: f64, serving: f64, gen_s: f64, ep: &Episode) -> Quiet {
        let computing = ep.cpu_s.min(ep.timed_s);
        Quiet {
            setup_s: (gen_s + ep.setup_s) * setting_up,
            timed_s: ep.timed_s - computing * (1.0 - serving),
            cpu_s: ep.cpu_s * serving,
        }
    }
}

pub fn run_untraced(w: &'static Workload, seed: u64, seconds: f64, shrink: usize) -> RunOutput {
    let host = HostSpeed::start();
    let (inputs, _) = inputs_for(w, seed, shrink);
    println!(
        "# {} records preloaded, {} inserted live",
        inputs.preload.len(),
        inputs.live_inserts()
    );
    let oracle = Oracle::compute(w, &inputs);
    let inputs_hash = inputs.hash;
    drop(inputs);
    let mut problems = Vec::new();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut quiet: Vec<Quiet> = Vec::new();
    let mut peak_mb = 0.0;
    for i in 0..episodes_for(w, seconds) {
        // Every episode sets up from nothing, input generation included:
        // one whole `setup_s` sample each.
        let began_s = now_s();
        let (inputs, gen_s) = inputs_for(w, seed, shrink);
        if inputs.hash != inputs_hash {
            problems.push(format!(
                "episode {i}: seed {seed} generated inputs {inputs_hash:016x}, then {:016x}",
                inputs.hash
            ));
        }
        let spec = EpisodeSpec {
            recover: i < RECOVERIES,
            ..EpisodeSpec::of(w)
        };
        let ep = run_episode(&spec, &inputs, &oracle, || plain_pool(w));
        quiet.push(Quiet::of(&host, began_s, gen_s, &ep));
        episodes.push(ep);
        if i == 0 {
            // One set of inputs, one oracle and one episode: what a
            // single serve of this workload needs, whatever `--seconds` is.
            peak_mb = peak_rss_mb();
        }
    }
    let (median_s, fastest_s) = host.slices_s();
    println!(
        "# host: reference slice {:.1} us median, {:.1} us fastest 1 %",
        median_s * 1e6,
        fastest_s * 1e6
    );
    let mut out = fold_untraced(w, seed, inputs_hash, peak_mb, &episodes, &quiet);
    out.problems.extend(problems);
    out
}

fn fold_untraced(
    w: &'static Workload,
    seed: u64,
    inputs_hash: u64,
    peak_mb: f64,
    episodes: &[Episode],
    quiet: &[Quiet],
) -> RunOutput {
    let n = episodes.len();
    let attempted: usize = episodes.iter().map(|e| e.attempted).sum();
    let failed: usize = episodes.iter().map(|e| e.failed).sum();

    let each = |value: fn(&Episode, &Quiet) -> f64| -> Vec<f64> {
        episodes
            .iter()
            .zip(quiet)
            .map(|(e, q)| value(e, q))
            .collect()
    };
    let setup_s = each(|_, q| q.setup_s);
    let frames_per_s = each(|e, q| e.delivered() as f64 / q.timed_s.max(1e-9));
    let cpu_us = each(|e, q| q.cpu_s * 1e6 / e.delivered().max(1) as f64);
    println!(
        "# per episode, as measured: frames/s {:.0?}, cpu us/frame {:.1?}",
        each(|e, _| e.delivered() as f64 / e.timed_s.max(1e-9)),
        each(|e, _| e.cpu_s * 1e6 / e.delivered().max(1) as f64),
    );
    println!(
        "# per episode, on the quiet host: frames/s {frames_per_s:.0?}, cpu us/frame {cpu_us:.1?}, setup s {setup_s:.2?}"
    );
    // Every gap stretched or shrunk as its episode's timed region was.
    let mut gaps_ns: Vec<u64> = episodes
        .iter()
        .zip(quiet)
        .flat_map(|(e, q)| {
            let scale = q.timed_s / e.timed_s.max(1e-9);
            e.gaps_ns()
                .into_iter()
                .map(move |g| (g as f64 * scale) as u64)
        })
        .collect();
    gaps_ns.sort_unstable();
    let (gap_pct, gap_ns) = percentile_or_supported(&gaps_ns, 99.0);
    if gap_pct != 99.0 {
        println!(
            "# frame_gap_p99_us: {} gaps support only p{gap_pct}",
            gaps_ns.len()
        );
    }
    let first = &episodes[0];
    let per_frame = |count: u64| count as f64 / first.attempted as f64;

    let mut metrics = vec![
        Measured::new("setup_s", fold(&setup_s).median, n),
        Measured::new("frames_per_s", fold(&frames_per_s).median, n),
        Measured::new("frame_gap_p99_us", gap_ns as f64 / 1e3, gaps_ns.len()),
        Measured::new("cpu_us_per_frame", fold(&cpu_us).median, n),
        Measured::new(
            "node_reads_per_frame",
            per_frame(first.stats.disk_accesses),
            first.attempted,
        ),
        Measured::new(
            "dist_comps_per_frame",
            per_frame(first.stats.distance_computations),
            first.attempted,
        ),
        Measured::new("peak_rss_mb", peak_mb, 1),
        Measured::new("failed_frac", failed as f64 / attempted as f64, attempted),
    ];
    let durable: Vec<_> = episodes.iter().filter_map(|e| e.durable).collect();
    if !durable.is_empty() {
        let recover: Vec<f64> = durable.iter().map(|d| d.recover_ms).collect();
        metrics.push(Measured::new(
            "recover_ms",
            fold(&recover).median,
            recover.len(),
        ));
        metrics.push(Measured::new(
            "wal_bytes_per_insert",
            durable[0].wal_bytes_per_insert,
            first.inserts_applied,
        ));
    }

    RunOutput {
        workload: w.name,
        seed,
        traced: false,
        inputs_hash,
        episodes: n,
        attempted,
        failed,
        problems: episodes
            .iter()
            .enumerate()
            .flat_map(|(i, e)| e.problems.iter().map(move |p| format!("episode {i}: {p}")))
            .collect(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn quiet_host_scales_computing_and_leaves_waiting_alone() {
        // 1 s of set-up in all; 2 s timed, of which 0.5 s computing.
        let ep = Episode {
            setup_s: 0.75,
            timed_s: 2.0,
            cpu_s: 0.5,
            ..Episode::default()
        };
        // The host at 80 % while setting up, at half speed while serving.
        let quiet = Quiet::at(0.8, 0.5, 0.25, &ep);
        assert!((quiet.setup_s - 0.8).abs() < 1e-12);
        assert!((quiet.cpu_s - 0.25).abs() < 1e-12);
        assert!((quiet.timed_s - 1.75).abs() < 1e-12);
        // An undisturbed host changes nothing.
        let same = Quiet::at(1.0, 1.0, 0.25, &ep);
        assert_eq!((same.setup_s, same.timed_s, same.cpu_s), (1.0, 2.0, 0.5));
        // Several CPUs (unconfined): no more computing than the region is long.
        let busy = Episode { cpu_s: 3.0, ..ep };
        assert!((Quiet::at(1.0, 0.5, 0.0, &busy).timed_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn episode_count_depends_on_the_arguments_alone() {
        let ingest = &WORKLOADS[0];
        assert_eq!(episodes_for(ingest, 24.0), 10);
        assert_eq!(episodes_for(ingest, 0.0), MIN_EPISODES);
        assert_eq!(episodes_for(ingest, 60.0), 25);
    }
}
