//! The repository benchmark: one command, two workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --select-rate 48000 \
//!     --workload wire_select --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics (timed from outside, around calls into each layer's public
//! functions). The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! are a human-readable report. See `perfbench/README.md` for what each
//! workload exercises and which metric each layer should move.

mod offline;
mod probes;
mod stalls;
mod traffic;
mod wire;

use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workloads this benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Feature-only frames through the daemon.
    WireSelect,
    /// Offline training, evaluation and one retrain cycle; no socket.
    Tune,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "wire_select" => Some(Workload::WireSelect),
            "tune" => Some(Workload::Tune),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::WireSelect => "wire_select",
            Workload::Tune => "tune",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Open-loop rate of `wire_select` and of `tune`'s in-process
    /// loop, selections per second.
    pub select_rate: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut select_rate = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let number = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => trace = Some(value == "1"),
            "--select-rate" => select_rate = Some(number(&value)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        select_rate: select_rate.ok_or("--select-rate is required")?,
    };
    if !(args.seconds > 0.0 && args.select_rate > 0.0) {
        return Err("--seconds and --select-rate must be positive".into());
    }
    Ok(args)
}

/// Everything one run reports: metrics in the order measured, and the
/// correctness tally.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records one metric (a later value under the same name replaces
    /// the earlier one).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Counts operations checked against a reference.
    pub fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Every checked operation passed, and at least one was checked.
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of a sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// What a run reports for a time it measured several times: the
/// fastest repetition. Other tenants of a shared host only ever slow a
/// repetition down, and they do it in episodes of seconds: on the 2-vCPU
/// development host the same retrain cycle took 0.34–0.41 s in four
/// repetitions and 0.51–0.52 s in the next four. A quantile then reads
/// whichever state held for most of the run, while the fastest
/// repetition needs only one quiet episode. No noise makes the
/// program's fixed work faster than it is.
pub fn quiet_time(samples: &[f64]) -> f64 {
    quantile(samples, 0.0)
}

/// [`quiet_time`] for a rate: the fastest window.
pub fn quiet_rate(samples: &[f64]) -> f64 {
    quantile(samples, 1.0)
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A scratch directory under the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: Workload) -> std::io::Result<WorkDir> {
        let dir =
            Path::new(".bench_work").join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // Leave the parent only if another run still uses it.
        std::fs::remove_dir(".bench_work").ok();
    }
}

/// Bytes of the files in `dir` (a log directory: files only).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `(name, unit)` of the metrics `BENCHMARK.json` declares for this
/// mode: `end_to_end` untraced, `per_layer` traced.
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| e.to_string())?;
    let doc: serde_json::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = doc
        .get(key)
        .and_then(serde_json::Value::as_array)
        .ok_or(format!("no {key} list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(serde_json::Value::as_str);
            match (field("name"), field("unit")) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("malformed {key} entry")),
            }
        })
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host fingerprint printed with every run.
fn host_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let threads = std::env::var("INTUNE_THREADS").unwrap_or_else(|_| "unset".into());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" INTUNE_THREADS={threads} | workload={} seed={} seconds={} trace={} select_rate={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.select_rate
    )
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", host_line(&args));
    let work = match WorkDir::create(args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            std::process::exit(1);
        }
    };
    let mut report = Report::default();
    let outcome = match args.workload {
        Workload::WireSelect => wire::run(&args, &work, started, &mut report),
        Workload::Tune => offline::run_tune(&args, &work, started, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    if !report.metrics.iter().any(|(n, _, _)| n == "peak_rss_mb") {
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    let declared = match declared_metrics(args.trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: BENCHMARK.json: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "error_ratio: {} ({} failed of {} attempted)",
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    let mut out = Report {
        metrics: Vec::new(),
        attempted: report.attempted,
        failed: report.failed,
    };
    for (name, unit) in &declared {
        match report.metrics.iter().find(|(n, _, _)| n == name) {
            Some((_, value, _)) => out.metrics.push((name.clone(), *value, unit.clone())),
            // Per-layer metrics of a layer this workload does not
            // exercise read 0.
            None if args.trace => out.metrics.push((name.clone(), 0.0, unit.clone())),
            None => {
                eprintln!("perfbench: {name} was not measured");
                std::process::exit(1);
            }
        }
    }
    for (name, value, unit) in &out.metrics {
        let note = if report.metrics.iter().any(|(n, _, _)| n == name) {
            ""
        } else {
            "  (layer not exercised)"
        };
        println!("  {name:<36} {value:>16.6} {unit}{note}");
    }
    println!("wall: {:.2} s", secs(started));
    drop(work);
    println!("{}", out.json());
    // A failed check fails the run, after the result line says so.
    if !out.correct() {
        std::process::exit(1);
    }
}
