//! # intune-bench
//!
//! Criterion benches for the `intune` workspace. Each paper table/figure
//! has a corresponding bench target that exercises the code path which
//! regenerates it (at micro scale — the `intune-eval` binaries produce the
//! full artifacts):
//!
//! * `table1` — the eight end-to-end learn+evaluate cases.
//! * `figures` — Figure 6 distribution computation, Figure 7 model,
//!   Figure 8 landmark-subset sweeps.
//! * `micro` — the underlying algorithms (sorts, packers, solvers, SVD
//!   methods, K-means, trees, the EA).
//! * `ablations` — λ sweep and landmark-selection strategies.
//!
//! Besides the Criterion targets, three binaries emit machine-readable
//! baselines so performance trajectories can be tracked across commits
//! (all rendered by [`report`]: sorted keys, trailing newline):
//!
//! * `bench_exec` → `BENCH_exec.json` — per-case suite wall time plus the
//!   measurement engine's cache-hit accounting (set `INTUNE_CACHE_DIR`
//!   to warm-start repeated runs from persisted cost caches);
//! * `serve_bench` → `BENCH_serve.json` — selector-service throughput
//!   (selections/sec), batch sizes, and drift/fallback counters over
//!   reloaded model artifacts ([`serve_baseline`]);
//! * `daemon_bench` → `BENCH_daemon.json` — wire-protocol load test
//!   against a live `intune_daemon`: N client threads × batched
//!   requests, p50/p95 frame latency, shadow agreement
//!   ([`daemon_baseline`]);
//! * `daemon_bench --journal` → `BENCH_retrain.json` — the
//!   continuous-learning loop under load: journal append throughput,
//!   compaction ratio, retrain wall time, and the cells the warm cost
//!   cache saved ([`retrain_baseline`]);
//! * `daemon_bench --replay` → `BENCH_replay.json` — the record/replay
//!   round trip: capture wire traffic under load, replay it twice
//!   in-process, and prove zero byte-wise divergence
//!   ([`replay_baseline`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod daemon_baseline;
mod replay_baseline;
pub mod report;
mod retrain_baseline;
mod serve_baseline;

pub use daemon_baseline::{
    daemon_baseline, daemon_baseline_json, DaemonBenchConfig, DaemonBenchResult, LatencyHistogram,
    TenantBenchResult,
};
pub use replay_baseline::{
    replay_baseline, replay_baseline_json, ReplayBenchConfig, ReplayBenchResult,
};
pub use retrain_baseline::{
    retrain_baseline, retrain_baseline_json, RetrainBenchConfig, RetrainBenchResult,
};
pub use serve_baseline::{
    serve_baseline, serve_baseline_json, ServeBenchConfig, ServeCaseBaseline,
};

pub(crate) use intune_core::ScratchDir;
use intune_eval::{run_case_full, CaseRunOptions, SuiteConfig, TestCase};
use intune_exec::Engine;
use std::path::Path;
use std::time::Instant;

/// A micro-scale suite configuration for benches: one case runs in tens of
/// milliseconds so Criterion can sample it meaningfully.
pub fn micro_config() -> SuiteConfig {
    SuiteConfig {
        train: 16,
        test: 8,
        clusters: 3,
        ea_population: 6,
        ea_generations: 3,
        folds: 2,
        sort_n: (64, 256),
        cluster_n: (60, 120),
        pack_n: (60, 150),
        svd_n: (8, 12),
        pde2_sizes: vec![7],
        pde3_sizes: vec![3],
        ..SuiteConfig::ci()
    }
}

/// One case's contribution to the `BENCH_exec.json` baseline.
#[derive(Debug, Clone)]
pub struct CaseBaseline {
    /// Table-1 case name.
    pub name: String,
    /// End-to-end learn + evaluate wall time, milliseconds.
    pub wall_ms: f64,
    /// Fresh benchmark executions performed by the engine.
    pub cells_measured: u64,
    /// Measurements answered from the cost cache.
    pub cache_hits: u64,
    /// Duplicate cells collapsed at plan construction.
    pub dedup_saved: u64,
    /// Cache hits over requested cells.
    pub hit_rate: f64,
}

/// Runs `cases` at `cfg` scale on one shared engine and collects the
/// measurement-path baseline (wall time + engine counters per case).
/// When `cache_dir` is given, per-corpus cost caches are loaded from and
/// saved back to it, so repeated runs warm-start (a second run measures
/// zero fresh cells); the committed `BENCH_exec.json` is a cold run.
pub fn exec_baseline(
    cfg: &SuiteConfig,
    cases: &[TestCase],
    engine: &Engine,
    cache_dir: Option<&Path>,
) -> Vec<CaseBaseline> {
    let run = CaseRunOptions {
        cache_dir: cache_dir.map(Path::to_path_buf),
        ..CaseRunOptions::default()
    };
    cases
        .iter()
        .map(|&case| {
            let start = Instant::now();
            let outcome = run_case_full(case, cfg, engine, &run).expect("suite case failed");
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            CaseBaseline {
                name: case.name().to_string(),
                wall_ms,
                cells_measured: outcome.engine.cells_measured,
                cache_hits: outcome.engine.cache_hits,
                dedup_saved: outcome.engine.dedup_saved,
                hit_rate: outcome.engine.hit_rate(),
            }
        })
        .collect()
}

/// Renders a baseline as the machine-readable `BENCH_exec.json` document
/// (through [`report`]: sorted keys, trailing newline, versioned schema).
pub fn baseline_json(threads: usize, cases: &[CaseBaseline]) -> String {
    use serde_json::Value;
    let total_wall: f64 = cases.iter().map(|c| c.wall_ms).sum();
    let total_measured: u64 = cases.iter().map(|c| c.cells_measured).sum();
    let total_hits: u64 = cases.iter().map(|c| c.cache_hits).sum();
    let total_rate = intune_exec::hit_rate(total_hits, total_measured + total_hits);
    let doc = report::obj(vec![
        ("schema", Value::String("intune-bench-exec/2".into())),
        ("threads", Value::UInt(threads as u64)),
        (
            "cases",
            Value::Array(
                cases
                    .iter()
                    .map(|c| {
                        report::obj(vec![
                            ("name", Value::String(c.name.clone())),
                            ("wall_ms", report::ms(c.wall_ms)),
                            ("cells_measured", Value::UInt(c.cells_measured)),
                            ("cache_hits", Value::UInt(c.cache_hits)),
                            ("dedup_saved", Value::UInt(c.dedup_saved)),
                            ("hit_rate", report::rate(c.hit_rate)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "total",
            report::obj(vec![
                ("wall_ms", report::ms(total_wall)),
                ("cells_measured", Value::UInt(total_measured)),
                ("cache_hits", Value::UInt(total_hits)),
                ("hit_rate", report::rate(total_rate)),
            ]),
        ),
    ]);
    report::render(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_config_is_tiny() {
        let cfg = micro_config();
        assert!(cfg.train <= 16);
        assert!(cfg.clusters <= 3);
    }

    #[test]
    fn warm_cache_dir_eliminates_fresh_measurement() {
        let scratch = ScratchDir::new("warm");
        let dir = scratch.path();
        let cold = exec_baseline(
            &micro_config(),
            &[TestCase::Sort2],
            &Engine::serial(),
            Some(dir),
        );
        assert!(cold[0].cells_measured > 0);
        let warm = exec_baseline(
            &micro_config(),
            &[TestCase::Sort2],
            &Engine::serial(),
            Some(dir),
        );
        assert_eq!(warm[0].cells_measured, 0, "persisted caches warm-start");
        assert!(warm[0].hit_rate > 0.99);
    }

    #[test]
    fn baseline_measures_and_serializes() {
        let engine = Engine::serial();
        let cases = exec_baseline(&micro_config(), &[TestCase::Sort2], &engine, None);
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].name, "sort2");
        assert!(cases[0].cells_measured > 0);
        assert!(
            cases[0].cache_hits > 0,
            "suite must exercise a warm cost cache"
        );
        assert!(cases[0].hit_rate > 0.0);

        let json = baseline_json(engine.threads(), &cases);
        for key in [
            "\"schema\": \"intune-bench-exec/2\"",
            "\"cases\"",
            "\"wall_ms\"",
            "\"cache_hits\"",
            "\"hit_rate\"",
            "\"total\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON braces"
        );
    }
}
