//! The wire-protocol baseline behind `BENCH_daemon.json`.
//!
//! Train one Table-1 case *per tenant* at micro scale, export the
//! artifacts, start a single multi-tenant [`Daemon`] (one readiness-driven
//! event loop) on a loopback port, stage an identical revision-bumped
//! shadow behind every tenant, and hammer the daemon with N client
//! threads — round-robined across the tenants — each sending batched
//! `SelectBatch` requests over TCP. The report records aggregate
//! throughput (selections/sec), a full per-frame round-trip latency
//! histogram (p50/p90/p99/p999 + max over every recorded sample), and
//! each tenant's shadow agreement record — which is **100% by
//! construction** (identical model), making the shadow counters
//! deterministic. Request and selection counts are deterministic;
//! wall-clock figures are environment-dependent.
//!
//! The fallback policy is disabled (`drift_threshold: 1.0` can never be
//! strictly exceeded), so every answer is the pure classifier selection
//! regardless of drift-counter interleaving across client threads.

use crate::{report, ScratchDir};
use intune_core::{Benchmark, FeatureVector};
use intune_daemon::{
    protocol, Daemon, DaemonClient, DaemonOptions, ListenConfig, ShadowPolicy, TenantSpec,
};
use intune_eval::{visit_case, CaseVisitor, SuiteConfig, TestCase};
use intune_exec::Engine;
use intune_learning::pipeline::learn;
use intune_learning::TwoLevelOptions;
use intune_obs::{Histogram, LatencySummary, SpanLog};
use intune_serve::{ModelArtifact, ServeOptions, ARTIFACT_VERSION};
use serde_json::Value;
use std::sync::Arc;
use std::time::Instant;

/// Knobs of the daemon load test.
#[derive(Debug, Clone)]
pub struct DaemonBenchConfig {
    /// Suite scale used for training the served artifacts.
    pub suite: SuiteConfig,
    /// The cases whose artifacts are served — one tenant each, all out
    /// of the same daemon process.
    pub cases: Vec<TestCase>,
    /// Concurrent client threads, round-robined across the tenants.
    pub clients: usize,
    /// `SelectBatch` requests per client.
    pub batches_per_client: usize,
    /// Daemon-side selection worker threads.
    pub threads: usize,
}

/// Frame round-trip latency distribution over every recorded sample.
///
/// Backed by [`intune_obs::Histogram`] — the same log-bucketed,
/// wait-free histogram the daemon records its own stage timings into
/// (16 sub-buckets per power of two, ≤6.25% relative bucket error; the
/// bucket scheme and its readout are pinned by `intune_obs` unit
/// tests). Clients record nanoseconds concurrently with no sorting or
/// post-hoc merge; quantiles are nearest-rank over the bucket counts
/// and the max is tracked exactly.
#[derive(Debug, Clone, Copy)]
pub struct LatencyHistogram {
    /// Number of samples behind the percentiles (one per frame).
    pub count: u64,
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 90th percentile, milliseconds.
    pub p90_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// 99.9th percentile, milliseconds.
    pub p999_ms: f64,
    /// Slowest observed frame, milliseconds.
    pub max_ms: f64,
}

impl LatencyHistogram {
    /// Quantile readout of everything recorded into `histogram`.
    fn of(histogram: &Histogram) -> LatencyHistogram {
        let ms = |ns: u64| ns as f64 / 1e6;
        let summary = LatencySummary::of(&histogram.snapshot());
        LatencyHistogram {
            count: summary.count,
            p50_ms: ms(summary.p50_ns),
            p90_ms: ms(summary.p90_ns),
            p99_ms: ms(summary.p99_ns),
            p999_ms: ms(summary.p999_ns),
            max_ms: ms(summary.max_ns),
        }
    }
}

/// One tenant's deterministic slice of the load.
#[derive(Debug, Clone)]
pub struct TenantBenchResult {
    /// Case name this tenant serves.
    pub case: String,
    /// Client threads bound to this tenant.
    pub clients: u64,
    /// Vectors per request (the case's held-out corpus size).
    pub batch_size: u64,
    /// `SelectBatch` frames this tenant answered.
    pub requests: u64,
    /// Selections this tenant answered.
    pub selections: u64,
    /// Selections mirrored to the staged shadow (one per vector).
    pub shadow_mirrored: u64,
    /// Mirrored selections the shadow agreed on (all of them).
    pub shadow_agreed: u64,
    /// `agreed / mirrored` (1.0 by construction).
    pub shadow_agreement_rate: f64,
    /// Revision serving after this tenant's promote.
    pub promoted_revision: u64,
}

/// The tracing-overhead phase: the same load replayed against a second
/// daemon that head-samples 1-in-64 requests into a span log. Wall-clock
/// figures are environment-dependent; `spans_recorded` is deterministic
/// (the sampler admits the first request and every 64th thereafter, and
/// each sampled request records a fixed set of spans).
#[derive(Debug, Clone, Copy)]
pub struct TraceBenchResult {
    /// Wall time of the traced load phase, milliseconds.
    pub wall_ms: f64,
    /// Aggregate selections per second under 1-in-64 sampling.
    pub selections_per_sec: f64,
    /// Spans the daemon appended to its log during the phase.
    pub spans_recorded: u64,
    /// `traced wall / untraced wall` — ~1.0 when sampling is cheap.
    pub overhead_ratio: f64,
}

/// The measured outcome (see module docs for what is deterministic).
#[derive(Debug, Clone)]
pub struct DaemonBenchResult {
    /// Total client thread count.
    pub clients: u64,
    /// Requests per client.
    pub batches_per_client: u64,
    /// Total `SelectBatch` frames sent, all tenants.
    pub requests: u64,
    /// Total selections answered, all tenants.
    pub selections: u64,
    /// Wall time of the load phase, milliseconds.
    pub wall_ms: f64,
    /// Aggregate selections per second (wall-clock).
    pub selections_per_sec: f64,
    /// Frame round-trip latency over every client's every frame.
    pub latency: LatencyHistogram,
    /// Per-tenant counters, in `cases` order.
    pub tenants: Vec<TenantBenchResult>,
    /// The 1-in-64 sampled re-run.
    pub traced: TraceBenchResult,
}

/// Extracts the case's artifact and the full feature vectors of its
/// held-out corpus (what wire clients ship).
struct ExportVisitor;

impl CaseVisitor for ExportVisitor {
    type Output = (ModelArtifact, Vec<FeatureVector>);

    fn visit<B: Benchmark + Sync>(
        &mut self,
        _case: TestCase,
        benchmark: &B,
        train: &[B::Input],
        test: &[B::Input],
        opts: &TwoLevelOptions,
        engine: &Engine,
    ) -> intune_core::Result<(ModelArtifact, Vec<FeatureVector>)>
    where
        B::Input: Sync,
    {
        let result = learn(benchmark, train, opts, engine)?;
        let artifact = ModelArtifact::export(benchmark, &result).with_revision(1);
        let features = test.iter().map(|i| benchmark.extract_all(i)).collect();
        Ok((artifact, features))
    }
}

/// Runs the load test end to end (train every tenant → serve them from
/// one event loop → stage shadows → hammer → promote each → shutdown).
///
/// # Panics
/// Panics if training, the daemon, or any client fails — baseline
/// emitters want loud failures.
pub fn daemon_baseline(cfg: &DaemonBenchConfig) -> DaemonBenchResult {
    assert!(!cfg.cases.is_empty(), "at least one tenant case");
    let engine = Engine::serial();
    let mut specs = Vec::with_capacity(cfg.cases.len());
    let mut shadows = Vec::with_capacity(cfg.cases.len());
    let mut tenant_features: Vec<Vec<FeatureVector>> = Vec::with_capacity(cfg.cases.len());
    // `Benchmark::name()` keys tenants, not the case name: e.g. the
    // `sort2` case serves benchmark `sort`.
    let mut tenant_names: Vec<String> = Vec::with_capacity(cfg.cases.len());
    // Artifacts for the traced re-run daemon, cloned before the specs
    // consume them.
    let mut traced_specs = Vec::with_capacity(cfg.cases.len());
    for case in &cfg.cases {
        let (artifact, features) =
            visit_case(*case, &cfg.suite, &engine, &mut ExportVisitor).expect("training failed");
        shadows.push(artifact.clone().with_revision(2));
        tenant_names.push(artifact.benchmark.clone());
        traced_specs.push(TenantSpec {
            artifact: artifact.clone(),
            trace: None,
            recorder: None,
            trace_sample: None,
        });
        specs.push(TenantSpec {
            artifact,
            trace: None,
            recorder: None,
            trace_sample: None,
        });
        tenant_features.push(features);
    }

    let daemon = Daemon::bind_tenants(
        specs,
        DaemonOptions {
            serve: ServeOptions {
                threads: cfg.threads,
                // Never strictly exceeded: the fallback policy stays off.
                drift_threshold: 1.0,
                ..ServeOptions::default()
            },
            // Shadows mirror the same deterministic traffic; their
            // monitors are pinned off too so the agreement record (not a
            // drift trip) decides each promote.
            shadow_serve: ServeOptions {
                threads: cfg.threads,
                drift_threshold: 1.0,
                ..ServeOptions::default()
            },
            shadow: ShadowPolicy {
                min_mirrored: 1,
                min_agreement: 0.99,
            },
            trace: None,
            inject_faults: false,
            ..DaemonOptions::default()
        },
        &ListenConfig::default(),
    )
    .expect("daemon bind failed");
    let addr = daemon.tcp_addr().to_string();
    let handle = daemon.spawn();

    // One control client per tenant; stage every shadow before any
    // traffic so every request is mirrored.
    let controls: Vec<DaemonClient> = tenant_names
        .iter()
        .map(|name| DaemonClient::connect_to(&addr, name).expect("control client"))
        .collect();
    for (control, shadow) in controls.iter().zip(&shadows) {
        control.load_artifact(shadow).expect("stage shadow");
    }

    let latency = Histogram::new();
    let wall = hammer(&addr, cfg, &tenant_names, &tenant_features, &latency);

    // Per-tenant accounting, promotes, and the final shutdown (sent once;
    // the daemon is one process).
    let mut tenants = Vec::with_capacity(cfg.cases.len());
    let mut total_requests = 0u64;
    let mut total_selections = 0u64;
    for (t, (case, control)) in cfg.cases.iter().zip(&controls).enumerate() {
        let stats = control.stats().expect("stats");
        let shadow = stats.shadow.expect("shadow still staged");
        let promoted_revision = control.promote().expect("promote gate");
        let clients =
            (cfg.clients / cfg.cases.len() + usize::from(t < cfg.clients % cfg.cases.len())) as u64;
        let batch_size = tenant_features[t].len() as u64;
        let requests = clients * cfg.batches_per_client as u64;
        let selections = requests * batch_size;
        total_requests += requests;
        total_selections += selections;
        tenants.push(TenantBenchResult {
            case: case.name().to_string(),
            clients,
            batch_size,
            requests,
            selections,
            shadow_mirrored: shadow.mirrored,
            shadow_agreed: shadow.agreed,
            shadow_agreement_rate: shadow.agreement_rate,
            promoted_revision,
        });
    }
    controls[0].shutdown().expect("shutdown");
    handle.join().expect("daemon exit");

    // Tracing-overhead phase: the identical load against a fresh daemon
    // that head-samples 1-in-64 requests into a span log (no shadows —
    // the comparison isolates the sampling layer, not the mirror).
    let scratch = ScratchDir::new("daemon");
    let span_path = scratch.path().join("daemon.spans.log");
    let spans = Arc::new(SpanLog::open(&span_path).expect("span log"));
    let traced_daemon = Daemon::bind_tenants(
        traced_specs,
        DaemonOptions {
            serve: ServeOptions {
                threads: cfg.threads,
                drift_threshold: 1.0,
                ..ServeOptions::default()
            },
            trace_sample: 64,
            spans: Some(Arc::clone(&spans)),
            ..DaemonOptions::default()
        },
        &ListenConfig::default(),
    )
    .expect("traced daemon bind failed");
    let traced_addr = traced_daemon.tcp_addr().to_string();
    let traced_handle = traced_daemon.spawn();
    let traced_latency = Histogram::new();
    let traced_wall = hammer(
        &traced_addr,
        cfg,
        &tenant_names,
        &tenant_features,
        &traced_latency,
    );
    DaemonClient::connect_to(&traced_addr, &tenant_names[0])
        .expect("traced control client")
        .shutdown()
        .expect("traced shutdown");
    traced_handle.join().expect("traced daemon exit");
    let spans_recorded = spans.appended();
    drop(spans);

    DaemonBenchResult {
        clients: cfg.clients as u64,
        batches_per_client: cfg.batches_per_client as u64,
        requests: total_requests,
        selections: total_selections,
        wall_ms: wall * 1e3,
        selections_per_sec: if wall > 0.0 {
            total_selections as f64 / wall
        } else {
            0.0
        },
        latency: LatencyHistogram::of(&latency),
        tenants,
        traced: TraceBenchResult {
            wall_ms: traced_wall * 1e3,
            selections_per_sec: if traced_wall > 0.0 {
                total_selections as f64 / traced_wall
            } else {
                0.0
            },
            spans_recorded,
            overhead_ratio: if wall > 0.0 { traced_wall / wall } else { 0.0 },
        },
    }
}

/// The load phase: N clients x R framed batches each, client i bound
/// to tenant i mod cases. Thread spawns and the N `Hello` handshakes
/// happen *before* the barrier so the timed window measures serving
/// throughput, not connection setup. Each client drives the wire
/// protocol directly with a request body encoded **once** — a load
/// generator re-serializing the identical batch every iteration
/// measures its own JSON printer, not the daemon. Responses are still
/// fully decoded and checked per frame. Every client records each
/// frame's round trip straight into one shared wait-free histogram —
/// no per-thread sample vectors, no post-hoc sort/merge. Returns the
/// wall time of the timed window in seconds.
fn hammer(
    addr: &str,
    cfg: &DaemonBenchConfig,
    tenant_names: &[String],
    tenant_features: &[Vec<FeatureVector>],
    latency: &Histogram,
) -> f64 {
    let ready = std::sync::Barrier::new(cfg.clients + 1);
    let mut start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|i| {
                let ready = &ready;
                let name = &tenant_names[i % cfg.cases.len()];
                let features = &tenant_features[i % cfg.cases.len()];
                scope.spawn(move || {
                    let mut stream =
                        std::net::TcpStream::connect(addr).expect("load client connect");
                    stream.set_nodelay(true).ok();
                    let mut reader = protocol::FrameReader::new();
                    protocol::send(
                        &mut stream,
                        &protocol::Request::Hello {
                            client: "daemon-bench".to_string(),
                            benchmark: name.clone(),
                        },
                    )
                    .expect("hello");
                    match reader.recv(&mut stream).expect("hello reply") {
                        Some(protocol::Response::HelloAck { .. }) => {}
                        other => panic!("unexpected hello reply: {other:?}"),
                    }
                    let body = protocol::encode_select_batch(features);
                    ready.wait();
                    for _ in 0..cfg.batches_per_client {
                        let t = Instant::now();
                        protocol::write_frame(&mut stream, &body).expect("send batch");
                        let reply = reader
                            .recv(&mut stream)
                            .expect("batch reply")
                            .expect("connection open");
                        latency.record(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                        match reply {
                            protocol::Response::Selections { selections } => {
                                assert_eq!(selections.len(), features.len());
                            }
                            other => panic!("unexpected batch reply: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        ready.wait();
        start = Instant::now();
        for h in handles {
            h.join().expect("client thread panicked");
        }
    });
    start.elapsed().as_secs_f64()
}

/// Renders the result as the `BENCH_daemon.json` document (through
/// [`report`]: sorted keys, trailing newline).
pub fn daemon_baseline_json(cfg: &DaemonBenchConfig, r: &DaemonBenchResult) -> String {
    let tenants = r
        .tenants
        .iter()
        .map(|t| {
            (
                t.case.as_str(),
                report::obj(vec![
                    ("batch_size", Value::UInt(t.batch_size)),
                    ("clients", Value::UInt(t.clients)),
                    ("requests", Value::UInt(t.requests)),
                    ("selections", Value::UInt(t.selections)),
                    (
                        "shadow",
                        report::obj(vec![
                            ("mirrored", Value::UInt(t.shadow_mirrored)),
                            ("agreed", Value::UInt(t.shadow_agreed)),
                            ("agreement_rate", report::rate(t.shadow_agreement_rate)),
                            ("promoted_revision", Value::UInt(t.promoted_revision)),
                        ]),
                    ),
                ]),
            )
        })
        .collect();
    let doc = report::obj(vec![
        ("schema", Value::String("intune-bench-daemon/3".into())),
        ("artifact_version", Value::UInt(ARTIFACT_VERSION as u64)),
        ("clients", Value::UInt(r.clients)),
        ("batches_per_client", Value::UInt(r.batches_per_client)),
        ("workers", Value::UInt(cfg.threads as u64)),
        ("requests", Value::UInt(r.requests)),
        ("selections", Value::UInt(r.selections)),
        ("wall_ms", report::ms(r.wall_ms)),
        (
            "selections_per_sec",
            Value::Float(r.selections_per_sec.round()),
        ),
        (
            "frame_latency_ms",
            report::obj(vec![
                ("count", Value::UInt(r.latency.count)),
                ("p50", report::ms(r.latency.p50_ms)),
                ("p90", report::ms(r.latency.p90_ms)),
                ("p99", report::ms(r.latency.p99_ms)),
                ("p999", report::ms(r.latency.p999_ms)),
                ("max", report::ms(r.latency.max_ms)),
            ]),
        ),
        (
            "trace_1_in_64",
            report::obj(vec![
                ("wall_ms", report::ms(r.traced.wall_ms)),
                (
                    "selections_per_sec",
                    Value::Float(r.traced.selections_per_sec.round()),
                ),
                ("spans_recorded", Value::UInt(r.traced.spans_recorded)),
                ("overhead_ratio", report::rate(r.traced.overhead_ratio)),
            ]),
        ),
        ("tenants", report::obj(tenants)),
    ]);
    report::render(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro_config;

    fn tiny() -> DaemonBenchConfig {
        DaemonBenchConfig {
            suite: micro_config(),
            cases: vec![TestCase::Sort2, TestCase::Binpacking],
            clients: 3,
            batches_per_client: 2,
            threads: 1,
        }
    }

    #[test]
    fn daemon_baseline_counts_are_deterministic_and_shadows_agree() {
        let cfg = tiny();
        let r = daemon_baseline(&cfg);
        let batch = cfg.suite.test as u64;
        assert_eq!(r.requests, 6);
        assert_eq!(r.selections, 6 * batch);
        assert_eq!(r.latency.count, 6, "one latency sample per frame");
        assert!(r.latency.p50_ms <= r.latency.p90_ms);
        assert!(r.latency.p90_ms <= r.latency.p99_ms);
        assert!(r.latency.p99_ms <= r.latency.p999_ms);
        assert!(r.latency.p999_ms <= r.latency.max_ms);
        assert!(r.selections_per_sec > 0.0);
        assert_eq!(r.tenants.len(), 2);
        assert_eq!(r.tenants[0].case, "sort2");
        assert_eq!(r.tenants[1].case, "binpacking");
        // 3 clients round-robined over 2 tenants: 2 + 1.
        assert_eq!(r.tenants[0].clients, 2);
        assert_eq!(r.tenants[1].clients, 1);
        for t in &r.tenants {
            assert_eq!(t.requests, t.clients * 2);
            assert_eq!(t.selections, t.requests * batch);
            assert_eq!(t.shadow_mirrored, t.selections, "every selection mirrored");
            assert_eq!(t.shadow_agreed, t.shadow_mirrored, "identical model agrees");
            assert_eq!(t.shadow_agreement_rate, 1.0);
            assert_eq!(t.promoted_revision, 2, "{}", t.case);
        }
        // The 1-in-64 sampler admits the first request, so at least one
        // request traced end to end: server span + stage spans + the
        // service's own selection span.
        assert!(
            r.traced.spans_recorded >= 4,
            "expected spans from the sampled request, got {}",
            r.traced.spans_recorded
        );
        assert!(r.traced.overhead_ratio > 0.0);
    }

    #[test]
    fn daemon_json_has_stable_schema() {
        let cfg = tiny();
        let r = daemon_baseline(&cfg);
        let json = daemon_baseline_json(&cfg, &r);
        for key in [
            "\"schema\": \"intune-bench-daemon/3\"",
            "\"trace_1_in_64\"",
            "\"spans_recorded\"",
            "\"overhead_ratio\"",
            "\"artifact_version\": 2",
            "\"frame_latency_ms\"",
            "\"count\": 6",
            "\"p999\"",
            "\"max\"",
            "\"tenants\"",
            "\"sort2\"",
            "\"binpacking\"",
            "\"agreement_rate\": 1.0",
            "\"promoted_revision\": 2",
            "\"workers\": 1",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let reparsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(crate::report::render(&reparsed), json);
    }

    #[test]
    fn latency_histogram_readout_matches_obs_summary() {
        // The bench's ms-facing view is a unit conversion over the
        // shared obs histogram, nothing more: max is exact, quantiles
        // are the obs nearest-rank readout.
        let h = Histogram::new();
        for ns in [1_000_000u64, 2_000_000, 3_000_000, 4_000_000] {
            h.record(ns);
        }
        let lat = LatencyHistogram::of(&h);
        assert_eq!(lat.count, 4);
        assert_eq!(lat.max_ms, 4.0, "max tracked exactly");
        assert!(lat.p50_ms <= lat.p90_ms && lat.p90_ms <= lat.p99_ms);
        assert!(lat.p999_ms <= lat.max_ms);
        // ≤6.25% bucket error around the true 2ms median.
        assert!((lat.p50_ms - 2.0).abs() / 2.0 <= 0.0625, "{}", lat.p50_ms);

        let empty = LatencyHistogram::of(&Histogram::new());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.max_ms, 0.0);
    }
}
