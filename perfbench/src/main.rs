//! `haccs-perfbench`: the repository's outside-in benchmark.
//!
//! ```text
//! haccs-perfbench --workload engine-train|coord-fleet|recluster-drift|all
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is a closed loop: one caller issues the next round (or
//! re-clustering tick) only after the last one returned, as a synchronous
//! federated server does. Inputs are generated from `--seed`; the rounds
//! run for about `--seconds`. With `--trace 0` the run prints every
//! end-to-end metric `BENCHMARK.json` lists; with `--trace 1` it prints
//! every per-layer metric, measured by wrappers around the program's
//! public traits and by the program's own `haccs_obs` spans, and writes
//! the benchmark's spans to `perfbench/traces/`. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! `--workload all` runs each workload in its own child process, so that
//! every peak-RSS reading is that workload's own.

mod coord_fleet;
mod engine_train;
mod recluster_drift;
mod stats;
mod trace;
mod wrap;

use haccs_obs::json::Json;
use stats::{Series, Timed};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["engine-train", "coord-fleet", "recluster-drift"];

/// What one run is asked to do.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Private directory for files the run writes (snapshots).
    pub scratch: PathBuf,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Run-level values by metric name.
    values: BTreeMap<&'static str, f64>,
    /// Raw wall-clock readings of the probe-scaled timing metrics.
    wall: BTreeMap<&'static str, f64>,
    /// Per-round samples of the traced run.
    layers: Series,
    tracer: Option<Tracer>,
    /// Most OS threads seen while the workload ran.
    threads_peak: u64,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Sets the timing metrics every workload reports, scaled to the host
    /// probe; the raw wall-clock readings go to the report's text lines.
    /// `client_rounds` is the number of clients summed over the rounds.
    pub fn set_timings(
        &mut self,
        setup_s: &Timed,
        enroll_s: &Timed,
        rounds_ms: &Timed,
        client_rounds: f64,
    ) {
        for (name, t, q) in [
            ("setup_s", setup_s, 0.5),
            ("enroll_s", enroll_s, 0.5),
            ("round_ms_p50", rounds_ms, 0.5),
            ("round_ms_p90", rounds_ms, 0.9),
        ] {
            self.set(name, t.normalized(q));
            self.wall.insert(name, t.raw(q));
        }
        self.set("client_rounds_per_s", client_rounds * 1e3 / rounds_ms.normalized_total());
        self.wall.insert("client_rounds_per_s", client_rounds * 1e3 / rounds_ms.total());
        self.set("host.probe_ms", stats::median(&rounds_ms.probe));
    }

    /// One operation or correctness check; a failure counts against the run.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {what}"));
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A metric's value: the per-round median of the traced run, else the
    /// run-level value, else 0 (a layer this workload does not exercise).
    fn value(&self, name: &str) -> f64 {
        let samples = self.layers.get(name);
        if !samples.is_empty() {
            stats::median(samples)
        } else {
            self.values.get(name).copied().unwrap_or(0.0)
        }
    }
}

/// The metric lists of `BENCHMARK.json`: `(name, unit)` pairs.
struct Spec {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

impl Spec {
    fn load(path: &Path) -> Result<Spec, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let json = Json::parse(&text)?;
        let list = |key: &str| -> Result<Vec<(String, String)>, String> {
            let arr = json.get(key).and_then(Json::as_arr).ok_or(format!("{key} missing"))?;
            arr.iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(String::from)
                            .ok_or(format!("{key}.{f}"))
                    };
                    Ok((field("name")?, field("unit")?))
                })
                .collect()
        };
        Ok(Spec { end_to_end: list("end_to_end")?, per_layer: list("per_layer")? })
    }

    fn unit(&self, name: &str) -> &str {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| u.as_str())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 30.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The host stamp every report carries.
fn host(os_threads: u64) -> Vec<(&'static str, String)> {
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    vec![
        ("nproc", stats::nproc().to_string()),
        ("git_rev", stats::git_rev(&bench_dir().join(".."))),
        ("profile", profile.to_string()),
        ("os_threads", os_threads.to_string()),
    ]
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
) -> String {
    let metrics = metrics
        .into_iter()
        .map(|(name, v, unit)| {
            (name, Json::obj(vec![("value", Json::Num(v)), ("unit", Json::Str(unit))]))
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render_compact()
}

fn run_one(args: &Args, spec: &Spec) -> ExitCode {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: bench_dir().join(".scratch").join(format!(
            "{}-{}",
            args.workload,
            std::process::id()
        )),
    };
    let mut out = match args.workload.as_str() {
        "engine-train" => engine_train::run(&cfg),
        "coord-fleet" => coord_fleet::run(&cfg),
        _ => recluster_drift::run(&cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch);

    let listed = if args.trace { &spec.per_layer } else { &spec.end_to_end };
    let mut metrics = Vec::new();
    for (name, unit) in listed {
        let v = out.value(name);
        // an end-to-end metric is never 0: a missing one fails the run
        if !v.is_finite() || (!args.trace && v == 0.0) {
            out.check(false, &format!("metric {name} was measured"));
        }
        metrics.push((name.clone(), if v.is_finite() { v } else { 0.0 }, unit.clone()));
    }
    let stamp = host(out.threads_peak.max(stats::os_threads()));
    if let Some(tracer) = &out.tracer {
        let path =
            bench_dir().join("traces").join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let mut header = stamp.clone();
        header.push(("workload", args.workload.clone()));
        match tracer.write_jsonl(&path, &header) {
            Ok(()) => out.note(format!("spans written to {}", path.display())),
            Err(e) => out.check(false, &format!("write spans to {}: {e}", path.display())),
        }
    }

    let line: Vec<String> = stamp.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "workload {} seed {} ({}s, trace {}): {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        line.join(" ")
    );
    for note in &out.notes {
        println!("  {note}");
    }
    println!("  end-to-end (untraced rounds):");
    for (name, v) in &out.values {
        let wall = out.wall.get(name).map_or(String::new(), |w| format!("   (wall {w:.4})"));
        println!("    {name:<30} {v:>16.4} {}{wall}", spec.unit(name));
    }
    if args.trace {
        println!("  per layer (traced rounds, median per round or tick):");
        for (name, v, unit) in &metrics {
            println!("    {name:<30} {v:>16.4} {unit}");
        }
    }
    println!("  ops {} ops_failed {}", out.attempted, out.failed);
    println!("{}", result_line(out.failed == 0, out.attempted, out.failed, metrics));
    ExitCode::SUCCESS
}

/// Runs every workload in its own child process and merges the results.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut attempted, mut failed, mut metrics) = (0u64, 0u64, Vec::new());
    for w in WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args([
                "--workload",
                w,
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
            ])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let stdout = match child {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("{w} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("cannot run {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (body, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
        println!("{body}");
        let Ok(json) = Json::parse(last) else {
            eprintln!("{w} printed no result");
            return ExitCode::FAILURE;
        };
        attempted += json.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        failed += json.get("failed").and_then(Json::as_f64).unwrap_or(1.0) as u64;
        if let Some(Json::Obj(m)) = json.get("metrics") {
            for (name, v) in m {
                let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
                metrics.push((format!("{w}/{name}"), value, unit));
            }
        }
    }
    println!("{}", result_line(failed == 0, attempted, failed, metrics));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: haccs-perfbench --workload {}|all [--seed N] [--seconds S] [--trace 0|1]", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    let spec = match Spec::load(&bench_dir().join("..").join("BENCHMARK.json")) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args, &spec)
    }
}
