//! Offline layers: training (`learn`, level 1 inside it), held-out
//! evaluation, and one retrain cycle over a journal — plus the `tune`
//! workload that runs them on all eight Table-1 cases.

use crate::stalls::{StallClock, Stalls, ThreadClock};
use crate::traffic::{self, TenantTraffic, BATCH, INPUTS, TENANTS};
use crate::{median, quantile, quiet_rate, quiet_time, ratio, secs, Args, Report, WorkDir};
use intune_core::{Benchmark, FeatureVector};
use intune_eval::{visit_case, CaseVisitor, SuiteConfig, TestCase};
use intune_exec::{Engine, EngineStats};
use intune_learning::level1::run_level1;
use intune_learning::pipeline::{evaluate, learn, TwoLevelResult};
use intune_learning::TwoLevelOptions;
use intune_retrain::{
    compact_journal, input_fingerprint, retrain_from_corpus, save_warm_cache, CorpusStore,
};
use intune_serve::{JournalOptions, JournalRecord, JournalWriter, ModelArtifact, VectorService};
use std::path::Path;
use std::time::{Duration, Instant};

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One trained case: the served artifact and the result behind it.
pub struct Trained {
    pub case: TestCase,
    pub artifact: ModelArtifact,
    pub result: TwoLevelResult,
}

/// A training pass over several cases.
pub struct Training {
    pub trained: Vec<Trained>,
    /// `learn` wall time of each case.
    pub per_case_s: Vec<f64>,
    /// Summed `learn` wall time.
    pub learn_s: f64,
    /// Summed `run_level1` wall time (traced passes only).
    pub level1_s: f64,
    /// Engine counters of the `learn` calls.
    pub engine: EngineStats,
}

struct TrainVisitor {
    time_level1: bool,
}

impl CaseVisitor for TrainVisitor {
    type Output = (Trained, f64, f64, EngineStats);

    fn visit<B: Benchmark + Sync>(
        &mut self,
        case: TestCase,
        benchmark: &B,
        train: &[B::Input],
        _test: &[B::Input],
        opts: &TwoLevelOptions,
        engine: &Engine,
    ) -> intune_core::Result<Self::Output>
    where
        B::Input: Sync + Clone,
    {
        // Level 1 alone, timed on its own run so `learn` below is timed
        // exactly as the untraced run times it.
        let level1_s = if self.time_level1 {
            let t = Instant::now();
            run_level1(benchmark, train, &opts.level1, engine)?;
            secs(t)
        } else {
            0.0
        };
        let before = engine.stats();
        let t = Instant::now();
        let result = learn(benchmark, train, opts, engine)?;
        let learn_s = secs(t);
        let stats = engine.stats().since(&before);
        let artifact = ModelArtifact::export(benchmark, &result).with_revision(1);
        Ok((
            Trained {
                case,
                artifact,
                result,
            },
            learn_s,
            level1_s,
            stats,
        ))
    }
}

/// Runs `learn` on each case's CI-scale training corpus (the fixed
/// Table-1 corpora: the seed never changes what is trained).
pub fn train_cases(cases: &[TestCase], engine: &Engine, time_level1: bool) -> Res<Training> {
    let mut training = Training {
        trained: Vec::with_capacity(cases.len()),
        per_case_s: Vec::with_capacity(cases.len()),
        learn_s: 0.0,
        level1_s: 0.0,
        engine: EngineStats::default(),
    };
    for &case in cases {
        let (trained, learn_s, level1_s, stats) = visit_case(
            case,
            &SuiteConfig::ci(),
            engine,
            &mut TrainVisitor { time_level1 },
        )
        .map_err(err)?;
        training.trained.push(trained);
        training.per_case_s.push(learn_s);
        training.learn_s += learn_s;
        training.level1_s += level1_s;
        let e = &mut training.engine;
        e.plans += stats.plans;
        e.cells_requested += stats.cells_requested;
        e.cells_measured += stats.cells_measured;
        e.cache_hits += stats.cache_hits;
        e.dedup_saved += stats.dedup_saved;
        e.steals += stats.steals;
    }
    Ok(training)
}

/// `train_s` over repeated training passes: the sum over cases of each
/// case's [`quiet_time`] `learn` time.
pub fn train_s(per_case: &[Vec<f64>]) -> f64 {
    let cases = per_case.first().map_or(0, Vec::len);
    (0..cases)
        .map(|c| quiet_time(&per_case.iter().map(|rep| rep[c]).collect::<Vec<_>>()))
        .sum()
}

/// Per-layer metrics of a traced training pass.
pub fn report_training(report: &mut Report, t: &Training) {
    report.metric("autotuner.level1_s", t.level1_s, "s");
    report.metric("learning.select_s", (t.learn_s - t.level1_s).max(0.0), "s");
    report.metric(
        "exec.cells_measured",
        t.engine.cells_measured as f64,
        "count",
    );
    report.metric("exec.cache_hits", t.engine.cache_hits as f64, "count");
    report.metric("exec.hit_rate", t.engine.hit_rate(), "ratio");
    report.metric("exec.steals", t.engine.steals as f64, "count");
    report.metric(
        "exec.cells_per_s",
        ratio(t.engine.cells_measured as f64, t.learn_s),
        "1/s",
    );
}

/// Checks that repeated training produced byte-identical artifacts.
pub fn check_same_artifacts(report: &mut Report, a: &[Trained], b: &[Trained]) {
    for (x, y) in a.iter().zip(b) {
        let same = x.artifact.to_document() == y.artifact.to_document();
        report.check(1, u64::from(!same));
        if !same {
            println!("FAILED: {} trained to a different artifact", x.case.name());
        }
    }
}

struct EvalVisitor<'a> {
    result: &'a TwoLevelResult,
}

impl CaseVisitor for EvalVisitor<'_> {
    type Output = f64;

    fn visit<B: Benchmark + Sync>(
        &mut self,
        _case: TestCase,
        benchmark: &B,
        _train: &[B::Input],
        test: &[B::Input],
        _opts: &TwoLevelOptions,
        engine: &Engine,
    ) -> intune_core::Result<f64>
    where
        B::Input: Sync + Clone,
    {
        Ok(evaluate(benchmark, self.result, test, engine)?.two_level_fx)
    }
}

/// Geometric mean over `trained` of the two-level speedup (feature
/// extraction included) over the static oracle on held-out inputs.
/// Costs are deterministic, so this repeats exactly.
pub fn speedup_geomean(trained: &[Trained], engine: &Engine) -> Res<f64> {
    let mut log_sum = 0.0;
    for t in trained {
        let s = visit_case(
            t.case,
            &SuiteConfig::ci(),
            engine,
            &mut EvalVisitor { result: &t.result },
        )
        .map_err(err)?;
        println!("  speedup {:<12} {s:.6}", t.case.name());
        log_sum += s.ln();
    }
    Ok((log_sum / trained.len() as f64).exp())
}

/// Inputs journaled for the retrain cycle (a fixed-size sort2 journal).
const JOURNAL_INPUTS: usize = 32;

/// The retrain journal's inputs: the first sort2 inputs of one fixed
/// seed, the same in every run. A journal's inputs set how many cells a
/// warm retrain measures (1413 for the first 32 sort inputs of seed 11,
/// 1317 for seed 12's), so a journal drawn from `--seed` made
/// `retrain_s` differ by about 13% between seeds.
pub fn journal_traffic() -> TenantTraffic {
    TenantTraffic::generate(TestCase::Sort2, 0, JOURNAL_INPUTS)
}

/// What the retrain phase measured.
#[derive(Default)]
pub struct RetrainRun {
    /// Wall time of each compact + warm retrain repetition.
    pub samples: Vec<f64>,
    /// The compaction share of each repetition.
    pub compact: Vec<f64>,
    /// `JournalWriter::append` call times, microseconds.
    pub append_us: Vec<f64>,
    /// Journal bytes per journaled selection.
    pub bytes_per_sel: f64,
    /// Cold-retrain fresh cells minus warm-retrain fresh cells (traced).
    pub warm_cells_saved: u64,
}

impl RetrainRun {
    /// Adds a later call's repetitions to this one's.
    pub fn extend(&mut self, next: RetrainRun) {
        self.samples.extend(next.samples);
        self.compact.extend(next.compact);
        self.append_us.extend(next.append_us);
        self.bytes_per_sel = next.bytes_per_sel;
        self.warm_cells_saved = self.warm_cells_saved.max(next.warm_cells_saved);
    }
}

struct RetrainVisitor<'a> {
    base: &'a TwoLevelResult,
    records: Vec<JournalRecord>,
    dir: &'a Path,
    reps: usize,
    cold: bool,
}

impl CaseVisitor for RetrainVisitor<'_> {
    type Output = RetrainRun;

    fn visit<B: Benchmark + Sync>(
        &mut self,
        _case: TestCase,
        benchmark: &B,
        train: &[B::Input],
        _test: &[B::Input],
        opts: &TwoLevelOptions,
        engine: &Engine,
    ) -> intune_core::Result<RetrainRun>
    where
        B::Input: Sync + Clone,
    {
        let journal = self.dir.join("journal");
        let cache = self.dir.join("warm.cache.json");
        let mut append_us = Vec::with_capacity(self.records.len());
        let mut writer = JournalWriter::open(&journal, JournalOptions::default())?;
        for record in self.records.drain(..) {
            let t = Instant::now();
            writer.append(record)?;
            append_us.push(secs(t) * 1e6);
        }
        drop(writer);
        let bytes_per_sel = ratio(crate::dir_bytes(&journal) as f64, append_us.len() as f64);

        let prints: Vec<Option<u64>> = train
            .iter()
            .map(|i| input_fingerprint(benchmark, i))
            .collect();
        let mut samples = Vec::with_capacity(self.reps);
        let mut compact = Vec::with_capacity(self.reps);
        let mut warm_measured = 0;
        for _ in 0..self.reps {
            // Every repetition starts from the base run's warm cache, as
            // a first cycle after training would.
            save_warm_cache(&cache, &prints, &self.base.level1.cache)?;
            let t = Instant::now();
            let mut corpus = CorpusStore::new(4096);
            compact_journal(&journal, &mut corpus)?;
            compact.push(secs(t));
            let model =
                retrain_from_corpus(benchmark, train, opts, engine, &corpus, Some(&cache), 2)?;
            samples.push(secs(t));
            warm_measured = model.stats.cells_measured;
        }
        let warm_cells_saved = if self.cold {
            let mut corpus = CorpusStore::new(4096);
            compact_journal(&journal, &mut corpus)?;
            let cold = retrain_from_corpus(benchmark, train, opts, engine, &corpus, None, 2)?;
            cold.stats.cells_measured.saturating_sub(warm_measured)
        } else {
            0
        };
        Ok(RetrainRun {
            samples,
            compact,
            append_us,
            bytes_per_sel,
            warm_cells_saved,
        })
    }
}

/// Journals the [`JOURNAL_INPUTS`] inputs of [`journal_traffic`] (with
/// payloads and the landmarks `sort2` selects for them) through
/// `JournalWriter::append`, then times `reps` cycles of
/// `compact_journal` + warm `retrain_from_corpus`.
pub fn retrain(
    sort2: &Trained,
    traffic: &TenantTraffic,
    work: &WorkDir,
    engine: &Engine,
    reps: usize,
    cold: bool,
) -> Res<RetrainRun> {
    let service =
        VectorService::new(sort2.artifact.clone(), traffic::serve_options()).map_err(err)?;
    let features: Vec<FeatureVector> = traffic.features.clone();
    let selections = service.select_vector_batch(&features).map_err(err)?;
    let records = features
        .into_iter()
        .zip(&traffic.payloads)
        .zip(&selections)
        .map(|((features, payload), s)| JournalRecord {
            seq: 0,
            revision: sort2.artifact.revision,
            landmark: s.landmark as u64,
            out_of_distribution: s.out_of_distribution,
            fell_back: s.fell_back,
            features,
            payload: Some(payload.clone()),
            trace_id: None,
        })
        .collect();
    let dir = work.path("retrain");
    let run = visit_case(
        TestCase::Sort2,
        &SuiteConfig::ci(),
        engine,
        &mut RetrainVisitor {
            base: &sort2.result,
            records,
            dir: &dir,
            reps,
            cold,
        },
    )
    .map_err(err)?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(run)
}

/// Reports the retrain phase: `retrain_s` untraced, its layers traced.
pub fn report_retrain(report: &mut Report, run: &RetrainRun, trace: bool) {
    println!(
        "  retrain cycles (s): {}",
        run.samples
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if trace {
        report.metric("retrain.compact_s", median(&run.compact), "s");
        report.metric(
            "retrain.warm_cells_saved",
            run.warm_cells_saved as f64,
            "count",
        );
        report.metric("journal.append_us", median(&run.append_us), "us");
        report.metric("journal.bytes_per_sel", run.bytes_per_sel, "B");
    } else {
        report.metric("retrain_s", quiet_time(&run.samples), "s");
    }
}

struct NoopVisitor;

impl CaseVisitor for NoopVisitor {
    type Output = ();

    fn visit<B: Benchmark + Sync>(
        &mut self,
        _case: TestCase,
        _benchmark: &B,
        _train: &[B::Input],
        _test: &[B::Input],
        _opts: &TwoLevelOptions,
        _engine: &Engine,
    ) -> intune_core::Result<()>
    where
        B::Input: Sync + Clone,
    {
        Ok(())
    }
}

/// The trained sort and binpacking artifacts served in-process (the
/// `tune` workload's serving figures: the artifacts' own cost, with no
/// socket), every answer checked against the reference.
struct InProcess {
    services: Vec<VectorService>,
    frames: Vec<Vec<Vec<FeatureVector>>>,
    refs: Vec<Vec<Vec<usize>>>,
    next: usize,
    attempted: u64,
    failed: u64,
}

impl InProcess {
    fn new(trained: &[&Trained], traffic: &[TenantTraffic]) -> Res<InProcess> {
        Ok(InProcess {
            services: trained
                .iter()
                .map(|t| {
                    VectorService::new(t.artifact.clone(), traffic::serve_options()).map_err(err)
                })
                .collect::<Res<_>>()?,
            frames: traffic
                .iter()
                .map(|t| (0..t.frames.len()).map(|f| t.frame_features(f)).collect())
                .collect(),
            refs: trained
                .iter()
                .zip(traffic)
                .map(|(t, tr)| traffic::reference(&t.artifact, tr))
                .collect(),
            next: 0,
            attempted: 0,
            failed: 0,
        })
    }

    /// Selects the next frame (tenants alternating) and checks it.
    fn select(&mut self) -> Res<()> {
        let tenant = self.next % self.services.len();
        let f = (self.next / self.services.len()) % self.frames[tenant].len();
        self.next += 1;
        let got = self.services[tenant]
            .select_vector_batch(&self.frames[tenant][f])
            .map_err(err)?;
        let ok = got
            .iter()
            .map(|s| s.landmark)
            .eq(self.refs[tenant][f].iter().copied());
        self.attempted += 1;
        self.failed += u64::from(!ok);
        Ok(())
    }

    /// Back-to-back frames for `window`; returns selections per second.
    fn closed_window(&mut self, window: Duration) -> Res<f64> {
        let t = Instant::now();
        let mut n = 0usize;
        while t.elapsed() < window {
            self.select()?;
            n += 1;
        }
        Ok((n * BATCH) as f64 / secs(t))
    }

    /// One frame every `BATCH / rate` seconds for `dur` seconds, added
    /// to `out`. The thread spins until each frame is due, so it never
    /// waits for a wake-up and its CPU time accounts for all of its wall
    /// time but host stalls, which a [`StallClock`] sampled after every
    /// frame (outside the timed span) sorts out.
    fn open_loop(&mut self, rate: f64, dur: f64, out: &mut InProcessLoop) -> Res<()> {
        let interval = Duration::from_secs_f64(BATCH as f64 / rate);
        let total = (dur / interval.as_secs_f64()) as usize;
        let mut clock = StallClock::new(vec![ThreadClock::current()], FRAME_SLACK);
        let mut timed = Vec::with_capacity(total);
        let t0 = Instant::now();
        for k in 0..total {
            let due = t0 + interval * k as u32;
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            out.lags
                .push(Instant::now().saturating_duration_since(due).as_secs_f64());
            self.select()?;
            timed.push((due, Instant::now()));
            clock.sample();
        }
        out.ran_s += secs(t0);
        let stalls = Stalls::new(std::slice::from_ref(&clock));
        out.stalled_s += stalls.covered_s();
        let mut clean = Vec::with_capacity(total);
        for (due, done) in timed {
            let latency = done.saturating_duration_since(due).as_secs_f64();
            out.from_due.push(latency);
            if !stalls.touched(due, done) {
                clean.push(latency);
            }
        }
        // Windows of LATENCY_WINDOW frames; a short tail joins the last.
        let windows = (clean.len() / LATENCY_WINDOW).max(1);
        for w in 0..windows {
            let end = if w + 1 == windows {
                clean.len()
            } else {
                (w + 1) * LATENCY_WINDOW
            };
            out.window_p99
                .push(quantile(&clean[w * LATENCY_WINDOW..end], 0.99));
        }
        out.clean.extend(clean);
        Ok(())
    }
}

/// What the in-process open loop measured (seconds).
#[derive(Default)]
struct InProcessLoop {
    /// Completion time minus due time, per frame.
    from_due: Vec<f64>,
    /// The same, for the frames no host stall touched.
    clean: Vec<f64>,
    /// The p99 of the untouched frames of each window of
    /// [`LATENCY_WINDOW`] frames.
    window_p99: Vec<f64>,
    /// Start time minus due time, per frame.
    lags: Vec<f64>,
    /// Wall time the segments ran, and the share of it host stalls and
    /// their backlogs covered (seconds).
    ran_s: f64,
    stalled_s: f64,
}

/// Frames per window of the in-process open loop's `p99_ms`, the median
/// of the window p99s. Its frames take about 4 µs, so interrupts and
/// hypervisor exits that the CPU clock charges to the thread (which the
/// stall check cannot see) set the p99 of a window they cluster in: on
/// the 2-vCPU development host most window p99s read 0.004–0.012 ms and
/// the 3–12 of 32 such episodes hit up to 0.033 ms. A program stall that
/// recurs in more than half the windows (every 1/3 s or more often)
/// still moves the median.
const LATENCY_WINDOW: usize = 1000;

/// Wall time the in-process open loop's thread may lack from its CPU
/// time between two frames before it counts as a host stall: above the
/// cost of reading its own CPU clock.
const FRAME_SLACK: Duration = Duration::from_micros(2);

/// Shares of `--seconds` the `tune` in-process closed-loop windows and
/// open-loop segments run, in all.
const TUNE_CLOSED_SHARE: f64 = 0.1;
const TUNE_OPEN_SHARE: f64 = 0.15;
/// Seconds of `--seconds` per `tune` round (one `learn` pass over the
/// eight cases, two closed-loop windows, an open-loop segment, two
/// retrain cycles).
const TUNE_ROUND_S: f64 = 5.0;
/// Retrain cycles per `tune` round.
const TUNE_RETRAINS: usize = 2;

/// The `tune` workload. Its timed phases are interleaved in rounds, so
/// each metric samples the whole run rather than one stretch of it.
pub fn run_tune(args: &Args, work: &WorkDir, started: Instant, report: &mut Report) -> Res<()> {
    let engine = Engine::try_from_env().map_err(err)?;
    // Set-up: build every case's corpora and the seeded traffic, three
    // times; the first repetition counts from process start.
    let mut setups = Vec::new();
    let mut traffic = Vec::new();
    for rep in 0..3 {
        let t = Instant::now();
        for case in TestCase::all() {
            visit_case(case, &SuiteConfig::ci(), &engine, &mut NoopVisitor).map_err(err)?;
        }
        traffic = TENANTS
            .iter()
            .map(|&c| TenantTraffic::generate(c, args.seed, INPUTS))
            .collect();
        setups.push(if rep == 0 { secs(started) } else { secs(t) });
    }

    let journal = journal_traffic();
    let rounds = ((args.seconds / TUNE_ROUND_S).round() as usize).max(1);
    let window = Duration::from_secs_f64(args.seconds * TUNE_CLOSED_SHARE / (2 * rounds) as f64);
    let mut learn = Vec::with_capacity(rounds);
    let segment = args.seconds * TUNE_OPEN_SHARE / rounds as f64;
    let mut rates = Vec::with_capacity(2 * rounds);
    let mut open = InProcessLoop::default();
    let mut retrains = RetrainRun::default();
    let mut first: Option<(Training, InProcess)> = None;
    for round in 0..rounds {
        let training = train_cases(&TestCase::all(), &engine, args.trace && round == 0)?;
        println!("  learn over 8 cases: {:.3} s", training.learn_s);
        learn.push(training.per_case_s.clone());
        match &first {
            Some((base, _)) => check_same_artifacts(report, &base.trained, &training.trained),
            None => {
                let served = InProcess::new(&served_of(&training), &traffic)?;
                first = Some((training, served));
            }
        }
        let (base, served) = first.as_mut().expect("the first round set it");
        for _ in 0..2 {
            rates.push(served.closed_window(window)?);
        }
        served.open_loop(args.select_rate, segment, &mut open)?;
        retrains.extend(retrain(
            served_of(base)[0],
            &journal,
            work,
            &engine,
            TUNE_RETRAINS,
            args.trace && round == 0,
        )?);
    }
    let (training, served) = first.expect("at least one round");
    let speedup = speedup_geomean(&training.trained, &engine)?;
    report.check(served.attempted, served.failed);
    println!(
        "  in-process: {} frames checked; closed loop windows (sel/s): {}",
        served.attempted,
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "  in-process open loop: {} timed frames, from due: p50 {:.4} ms, p99 {:.4} ms; host stalls and their backlogs covered {:.2}% of the time and touched {} frames; the other {}: p50 {:.4} ms, p99 {:.4} ms",
        open.from_due.len(),
        quantile(&open.from_due, 0.5) * 1e3,
        quantile(&open.from_due, 0.99) * 1e3,
        ratio(open.stalled_s, open.ran_s) * 100.0,
        open.from_due.len() - open.clean.len(),
        open.clean.len(),
        quantile(&open.clean, 0.5) * 1e3,
        quantile(&open.clean, 0.99) * 1e3
    );
    println!(
        "  in-process open loop p99 per window of {LATENCY_WINDOW} frames (ms): {}",
        open.window_p99
            .iter()
            .map(|p| format!("{:.4}", p * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    );
    report_retrain(report, &retrains, args.trace);

    if args.trace {
        let interval = BATCH as f64 / args.select_rate;
        let late = open.lags.iter().filter(|&&l| l > interval).count();
        report.metric("gen.lag_max_ms", quantile(&open.lags, 1.0) * 1e3, "ms");
        report.metric(
            "gen.late_ratio",
            ratio(late as f64, open.lags.len() as f64),
            "ratio",
        );
        report.metric("gen.latency_samples", open.clean.len() as f64, "count");
        report.metric(
            "gen.stalled_ratio",
            ratio(
                (open.from_due.len() - open.clean.len()) as f64,
                open.from_due.len() as f64,
            ),
            "ratio",
        );
        report.metric("trace.sel_per_s", quiet_rate(&rates), "1/s");
        report_training(report, &training);
        let artifacts: Vec<&ModelArtifact> =
            served_of(&training).iter().map(|t| &t.artifact).collect();
        crate::probes::layers(report, &artifacts, &traffic, work, false)?;
    } else {
        report.metric("setup_s", median(&setups), "s");
        report.metric("sel_per_s", quiet_rate(&rates), "1/s");
        report.metric("p50_ms", quantile(&open.clean, 0.5) * 1e3, "ms");
        report.metric("p99_ms", median(&open.window_p99) * 1e3, "ms");
        report.metric("train_s", train_s(&learn), "s");
        report.metric("speedup_geomean", speedup, "x");
    }
    Ok(())
}

/// The served tenants' trained cases, in [`TENANTS`] order.
fn served_of(training: &Training) -> Vec<&Trained> {
    TENANTS
        .iter()
        .map(|&c| {
            training
                .trained
                .iter()
                .find(|t| t.case == c)
                .expect("every case trained")
        })
        .collect()
}
