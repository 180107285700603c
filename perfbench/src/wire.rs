//! The `wire_select` workload: one multi-tenant daemon on loopback,
//! driven by this process over one connection per tenant (two
//! connections, one generator thread), every reply checked against an
//! in-process reference.

use crate::offline::{self, RetrainRun, Trained};
use crate::stalls::{StallClock, Stalls, ThreadClock, STALL_SAMPLE};
use crate::traffic::{self, TenantTraffic, BATCH, INPUTS, TENANTS};
use crate::{median, quantile, quiet_rate, ratio, secs, Args, Report, WorkDir};
use intune_daemon::protocol::{self, Request, Response};
use intune_daemon::{
    Daemon, DaemonClient, DaemonOptions, Fill, FrameReader, ListenConfig, ShadowPolicy, TenantSpec,
};
use intune_exec::Engine;
use intune_serve::ModelArtifact;
use std::collections::VecDeque;
use std::io::Read;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Frames in flight per connection in the closed loop.
const WINDOW: usize = 4;
/// Rounds, each an open-loop segment, a closed-loop window, retrain
/// cycles and a training pass.
const ROUNDS: usize = 12;
/// Retrain cycles per round.
const RETRAINS: usize = 2;
/// Shares of `--seconds` the open-loop segments and the closed-loop
/// windows run, in all.
const OPEN_SHARE: f64 = 0.25;
const CLOSED_SHARE: f64 = 0.25;
/// Set-ups per run (train, bind, connect); the last one serves.
const SETUPS: usize = 5;
/// Untimed start of every open-loop segment.
const OPEN_WARMUP: Duration = Duration::from_millis(100);
/// Wall time a stall-clock sample may lack from its threads' CPU time
/// before it counts as a stall: above the cost and skew of reading two
/// other threads' clocks.
const STALL_SLACK: Duration = Duration::from_micros(25);
/// Frames per tenant in each closed-loop burst of the traced shadow
/// phase.
const SHADOW_FRAMES: usize = 64;

/// One data connection, bound to one tenant.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

/// A thread's CPU affinity: a bit per CPU, up to 1024 CPUs.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
}

/// Linux `SCHED_IDLE` and `MSG_DONTWAIT`.
const SCHED_IDLE: i32 = 5;
const MSG_DONTWAIT: i32 = 0x40;

/// The calling thread's CPU mask, if the OS reports one.
fn affinity() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Restricts the calling thread to `mask`; a mask the OS refuses leaves
/// the thread as it was.
fn set_affinity(mask: &CpuMask) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
}

/// Where the daemon's event loop and the generator run. Left to the
/// scheduler, the two threads often shared one CPU, and closed-loop
/// throughput fell into one of two bands per run (110k–160k or
/// 165k–235k sel/s over five runs on the 2-vCPU development host); with
/// a CPU each, every window of four runs read 160k–250k.
struct Cpus {
    /// The process's CPUs, which training and retraining use.
    all: CpuMask,
    daemon: CpuMask,
    generator: CpuMask,
}

impl Cpus {
    /// The first two CPUs the calling thread may use, one for the daemon
    /// and one for the generator; `None` with fewer than two.
    fn split() -> Option<Cpus> {
        let all = affinity()?;
        let mut ids = (0..all.len() * 64).filter(|&c| all[c / 64] >> (c % 64) & 1 == 1);
        let only = |c: usize| {
            let mut mask: CpuMask = [0; 16];
            mask[c / 64] = 1 << (c % 64);
            mask
        };
        let (daemon, generator) = (ids.next()?, ids.next()?);
        Some(Cpus {
            all,
            daemon: only(daemon),
            generator: only(generator),
        })
    }
}

/// A running daemon with its control clients and data connections.
struct Rig {
    thread: JoinHandle<intune_core::Result<()>>,
    /// The daemon's event loop thread.
    loop_clock: ThreadClock,
    controls: Vec<DaemonClient>,
    conns: Vec<Conn>,
    cpus: Option<Cpus>,
}

impl Rig {
    /// Binds a daemon serving `artifacts` (one tenant each) and connects
    /// one control client and one data connection per tenant.
    fn start(artifacts: &[ModelArtifact]) -> Res<Rig> {
        let names: Vec<String> = artifacts.iter().map(|a| a.benchmark.clone()).collect();
        let specs = artifacts
            .iter()
            .map(|a| TenantSpec {
                artifact: a.clone(),
                trace: None,
                recorder: None,
                trace_sample: None,
            })
            .collect();
        let opts = DaemonOptions {
            serve: traffic::serve_options(),
            shadow_serve: traffic::serve_options(),
            // The traced run's shadow is a different classifier:
            // promotion is gated on mirrored volume, not agreement.
            shadow: ShadowPolicy {
                min_mirrored: 1,
                min_agreement: 0.0,
            },
            ..DaemonOptions::default()
        };
        let daemon = Daemon::bind_tenants(specs, opts, &ListenConfig::default()).map_err(err)?;
        let addr = daemon.tcp_addr().to_string();
        // The loop thread inherits the spawning thread's CPU mask.
        let cpus = Cpus::split();
        if let Some(c) = &cpus {
            set_affinity(&c.daemon);
        }
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            tx.send(ThreadClock::current()).ok();
            daemon.run()
        });
        let loop_clock = rx.recv().map_err(err)?;
        if let Some(c) = &cpus {
            set_affinity(&c.all);
        }
        let mut controls = Vec::new();
        let mut conns = Vec::new();
        for name in &names {
            controls.push(DaemonClient::connect_to(&addr, name).map_err(err)?);
            let mut stream = TcpStream::connect(&addr).map_err(err)?;
            stream.set_nodelay(true).map_err(err)?;
            let mut reader = FrameReader::new();
            protocol::send(
                &mut stream,
                &Request::Hello {
                    client: "perfbench".into(),
                    benchmark: name.clone(),
                },
            )
            .map_err(err)?;
            match reader.recv::<_, Response>(&mut stream).map_err(err)? {
                Some(Response::HelloAck { .. }) => {}
                other => return Err(format!("unexpected hello reply: {other:?}")),
            }
            conns.push(Conn { stream, reader });
        }
        Ok(Rig {
            thread,
            loop_clock,
            controls,
            conns,
            cpus,
        })
    }

    /// Moves the calling thread onto the generator's CPU (threads it
    /// spawns follow), or back onto every CPU.
    fn generator_cpu(&self, on: bool) {
        if let Some(c) = &self.cpus {
            set_affinity(if on { &c.generator } else { &c.all });
        }
    }

    /// Shuts the daemon down and waits for its loop to exit.
    fn stop(self) -> Res<()> {
        self.controls[0].shutdown().map_err(err)?;
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked")?
            .map_err(err)
    }
}

/// A copy of `t`'s artifact answering with another trained candidate
/// classifier — a shadow whose answers genuinely differ.
fn shadow_of(t: &Trained) -> ModelArtifact {
    let mut shadow = t.artifact.clone().with_revision(2);
    let n = t.result.candidates.len();
    if n > 1 {
        shadow.classifier = t.result.candidates[(t.result.chosen + 1) % n]
            .classifier
            .clone();
    }
    shadow
}

/// Generator state shared by every phase: frame bodies, the reference
/// answers of the serving revision, and the running correctness tally.
struct Gen {
    bodies: Arc<Vec<Vec<String>>>,
    refs: Vec<Vec<Vec<usize>>>,
    cursor: Vec<usize>,
    attempted: u64,
    failed: u64,
    /// Reply decode times, microseconds (timed windows only).
    decode_us: Vec<f64>,
}

impl Gen {
    /// Picks the next frame for `tenant`.
    fn next_frame(&mut self, tenant: usize) -> usize {
        let f = self.cursor[tenant] % self.refs[tenant].len();
        self.cursor[tenant] += 1;
        f
    }

    /// Checks one reply against the reference; returns the selections
    /// it answered (0 for a failed frame).
    fn check(&mut self, tenant: usize, frame: usize, payload: &str, timed: bool) -> usize {
        let t = timed.then(Instant::now);
        let reply = protocol::decode_message::<Response>(payload);
        if let Some(t) = t {
            self.decode_us.push(secs(t) * 1e6);
        }
        self.attempted += 1;
        let expected = &self.refs[tenant][frame];
        match reply {
            Ok(Response::Selections { selections })
                if selections
                    .iter()
                    .map(|s| s.landmark)
                    .eq(expected.iter().copied()) =>
            {
                selections.len()
            }
            other => {
                if self.failed < 5 {
                    println!("FAILED: tenant {tenant} frame {frame}: {other:?}");
                }
                self.failed += 1;
                0
            }
        }
    }
}

/// How long a closed-loop burst runs.
#[derive(Clone, Copy)]
enum Span {
    /// For a fixed time.
    Time(Duration),
    /// Until this many frames went to every tenant.
    Frames(usize),
}

/// Closed loop for `span`: one thread keeps `WINDOW` frames in flight
/// on every connection, then drains. Returns selections per second.
fn closed_loop(gen: &mut Gen, conns: &mut [Conn], span: Span, timed: bool) -> Res<f64> {
    let bodies = gen.bodies.clone();
    let mut inflight: Vec<VecDeque<usize>> = vec![VecDeque::new(); conns.len()];
    let start = Instant::now();
    for (t, conn) in conns.iter_mut().enumerate() {
        for _ in 0..WINDOW {
            let f = gen.next_frame(t);
            protocol::write_frame(&mut conn.stream, &bodies[t][f]).map_err(err)?;
            inflight[t].push_back(f);
        }
    }
    let mut selections = 0usize;
    let mut sent = WINDOW;
    while inflight.iter().any(|q| !q.is_empty()) {
        let open = match span {
            Span::Time(dur) => start.elapsed() < dur,
            Span::Frames(n) => sent < n,
        };
        sent += usize::from(open);
        for (t, conn) in conns.iter_mut().enumerate() {
            let Some(f) = inflight[t].pop_front() else {
                continue;
            };
            let payload = conn
                .reader
                .read_frame(&mut conn.stream)
                .map_err(err)?
                .ok_or("daemon closed a data connection")?;
            selections += gen.check(t, f, payload, timed);
            if open {
                let f = gen.next_frame(t);
                protocol::write_frame(&mut conn.stream, &bodies[t][f]).map_err(err)?;
                inflight[t].push_back(f);
            }
        }
    }
    Ok(selections as f64 / secs(start))
}

/// What an open-loop phase measured (seconds).
struct OpenLoop {
    /// Reply time minus due time, per frame.
    from_due: Vec<f64>,
    /// The same, for the frames no host stall touched.
    clean: Vec<f64>,
    /// Reply time minus actual send time, per frame.
    from_send: Vec<f64>,
    /// Send time minus due time, per frame.
    lags: Vec<f64>,
    interval: f64,
    /// Wall time the segments ran, and the share of it host stalls and
    /// their backlogs covered (seconds).
    ran_s: f64,
    stalled_s: f64,
}

impl OpenLoop {
    fn new(rate: f64) -> OpenLoop {
        OpenLoop {
            from_due: Vec::new(),
            clean: Vec::new(),
            from_send: Vec::new(),
            lags: Vec::new(),
            interval: BATCH as f64 / rate,
            ran_s: 0.0,
            stalled_s: 0.0,
        }
    }
}

/// Reads a blocking socket without waiting for bytes (`recv` with
/// `MSG_DONTWAIT`), so one thread can poll both connections between
/// sends while writes stay blocking.
struct DontWait<'a>(&'a TcpStream);

impl Read for DontWait<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // SAFETY: `buf` is writable for `buf.len()` bytes and the fd is
        // an open socket owned by the borrowed stream.
        let n = unsafe {
            recv(
                self.0.as_raw_fd(),
                buf.as_mut_ptr(),
                buf.len(),
                MSG_DONTWAIT,
            )
        };
        if n < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }
}

/// Spins on `cpu` at idle priority (`SCHED_IDLE`) until `stop` is set,
/// after sending its clock on `clock`. It keeps the daemon's CPU busy
/// between frames, so the CPU time of it and the daemon's loop thread
/// accounts for all of that CPU's time but host stalls (see
/// [`crate::stalls`]), and a frame's arrival wakes the daemon inside the
/// guest instead of waiting for the hypervisor to resume a halted vCPU.
/// A runnable thread of normal priority preempts it at once.
fn spin_idle(cpu: &CpuMask, stop: &AtomicBool, clock: mpsc::Sender<ThreadClock>) {
    set_affinity(cpu);
    let param: i32 = 0;
    // SAFETY: `param` is a valid `struct sched_param` (one int) and pid 0
    // names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    clock.send(ThreadClock::current()).ok();
    while !stop.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
}

/// One open-loop segment of `dur` seconds at `out`'s rate, added to
/// `out`. One thread on the generator's CPU does it all: it writes frame
/// k at `t0 + k * interval` (tenants alternating) and, between sends,
/// polls both connections for replies without sleeping, so neither a
/// send nor a reply waits for a wake-up. With the CPUs split it also
/// samples two stall clocks, one for its own CPU and one for the
/// daemon's (loop thread plus an idle-priority spinner), and sorts out
/// the frames a host stall touched.
fn open_loop(gen: &mut Gen, rig: &mut Rig, dur: f64, out: &mut OpenLoop) -> Res<()> {
    let conns = &mut rig.conns;
    let n = conns.len();
    let interval = out.interval;
    let total = (((dur + OPEN_WARMUP.as_secs_f64()) / interval) as usize).max(n);
    let plan: Vec<usize> = (0..total).map(|k| gen.next_frame(k % n)).collect();
    // Frames due in the first OPEN_WARMUP are sent and checked but not
    // timed: the switch from the closed loop settles there.
    let skip = ((OPEN_WARMUP.as_secs_f64() / interval) as usize).min(total / 2);
    let bodies = gen.bodies.clone();
    let mut sent_at = Vec::with_capacity(total);
    let mut timed = Vec::with_capacity(total - skip);
    let step = Duration::from_secs_f64(interval);
    let stop = AtomicBool::new(false);
    let daemon_cpu = rig.cpus.as_ref().map(|c| &c.daemon);
    let loop_clock = rig.loop_clock;
    let clocks = std::thread::scope(|scope| -> Res<Vec<StallClock>> {
        let mut clocks = Vec::new();
        if let Some(cpu) = daemon_cpu {
            let (tx, rx) = mpsc::channel();
            let stop = &stop;
            scope.spawn(move || spin_idle(cpu, stop, tx));
            let spinner = rx.recv().map_err(err)?;
            clocks.push(StallClock::new(vec![loop_clock, spinner], STALL_SLACK));
            clocks.push(StallClock::new(vec![ThreadClock::current()], STALL_SLACK));
        }
        let t0 = Instant::now() + Duration::from_millis(5);
        let due = |k: usize| t0 + step * k as u32;
        let result = (|| -> Res<()> {
            let mut received = vec![0usize; n];
            let mut got = 0;
            let mut progress = Instant::now();
            let mut sampled = Instant::now();
            while got < total {
                let now = Instant::now();
                if now - sampled >= STALL_SAMPLE {
                    clocks.iter_mut().for_each(StallClock::sample);
                    sampled = now;
                }
                while sent_at.len() < total && due(sent_at.len()) <= now {
                    let k = sent_at.len();
                    let sent = Instant::now();
                    out.lags
                        .push(sent.saturating_duration_since(due(k)).as_secs_f64());
                    sent_at.push(sent);
                    protocol::write_frame(&mut conns[k % n].stream, &bodies[k % n][plan[k]])
                        .map_err(err)?;
                }
                for (t, conn) in conns.iter_mut().enumerate() {
                    match conn.reader.fill(&mut DontWait(&conn.stream)).map_err(err)? {
                        Fill::Closed => return Err("daemon closed a data connection".into()),
                        Fill::WouldBlock => continue,
                        Fill::Bytes(_) => progress = Instant::now(),
                    }
                    while let Some(payload) = conn.reader.pop_frame().map_err(err)? {
                        let now = Instant::now();
                        let k = received[t] * n + t;
                        received[t] += 1;
                        got += 1;
                        if k >= skip {
                            timed.push((due(k), now));
                            out.from_send
                                .push(now.saturating_duration_since(sent_at[k]).as_secs_f64());
                        }
                        gen.check(t, plan[k], payload, false);
                    }
                }
                if progress.elapsed() > Duration::from_secs(20) {
                    return Err("open loop: no reply for 20 s".into());
                }
            }
            clocks.iter_mut().for_each(StallClock::sample);
            out.ran_s += secs(due(skip));
            Ok(())
        })();
        stop.store(true, Ordering::Relaxed);
        result.map(|()| clocks)
    })?;
    let stalls = Stalls::new(&clocks);
    out.stalled_s += stalls.covered_s();
    for (due, done) in timed {
        let latency = done.saturating_duration_since(due).as_secs_f64();
        out.from_due.push(latency);
        if !stalls.touched(due, done) {
            out.clean.push(latency);
        }
    }
    Ok(())
}

/// Promotes every tenant's staged shadow (the generator is drained), and
/// switches the reference to the shadow's answers. Returns the median
/// promote round trip (ms) and the mirrored agreement before it.
fn promote(
    controls: &[DaemonClient],
    gen: &mut Gen,
    shadow_refs: Vec<Vec<Vec<usize>>>,
) -> Res<(f64, f64)> {
    let (mut mirrored, mut agreed) = (0u64, 0u64);
    let mut promote_ms = Vec::new();
    for control in controls {
        let stats = control.stats().map_err(err)?;
        let shadow = stats.shadow.ok_or("no shadow staged")?;
        mirrored += shadow.mirrored;
        agreed += shadow.agreed;
        let t = Instant::now();
        let revision = control.promote().map_err(err)?;
        promote_ms.push(secs(t) * 1e3);
        if revision != 2 {
            return Err(format!("promoted to revision {revision}, expected 2"));
        }
    }
    gen.refs = shadow_refs;
    Ok((median(&promote_ms), ratio(agreed as f64, mirrored as f64)))
}

/// The `wire_select` workload.
pub fn run(args: &Args, work: &WorkDir, started: Instant, report: &mut Report) -> Res<()> {
    let engine = Engine::try_from_env().map_err(err)?;
    let traffic: Vec<TenantTraffic> = TENANTS
        .iter()
        .map(|&c| TenantTraffic::generate(c, args.seed, INPUTS))
        .collect();

    // Set-up, SETUPS times: train the served artifacts, bind the daemon,
    // connect. The first repetition counts from process start; the
    // previous rig stops (untimed) before the next set-up, and the last
    // rig serves the run.
    let mut setups = Vec::new();
    let mut train = Vec::new();
    let mut first: Option<offline::Training> = None;
    let mut rig: Option<Rig> = None;
    for rep in 0..SETUPS {
        if let Some(old) = rig.take() {
            old.stop()?;
        }
        let t = Instant::now();
        let training = offline::train_cases(&TENANTS, &engine, args.trace && rep == 0)?;
        let artifacts: Vec<ModelArtifact> = training
            .trained
            .iter()
            .map(|t| t.artifact.clone())
            .collect();
        rig = Some(Rig::start(&artifacts)?);
        setups.push(if rep == 0 { secs(started) } else { secs(t) });
        println!(
            "  set-up {rep}: {:.3} s, learn {:.3} s",
            setups[rep], training.learn_s
        );
        train.push(training.per_case_s.clone());
        match &first {
            None => first = Some(training),
            Some(f) => offline::check_same_artifacts(report, &f.trained, &training.trained),
        }
    }
    let mut rig = rig.expect("set-ups ran");
    let training = first.expect("set-ups ran");
    let speedup = offline::speedup_geomean(&training.trained, &engine)?;
    let journal = offline::journal_traffic();

    let mut gen = Gen {
        bodies: Arc::new(traffic.iter().map(TenantTraffic::bodies).collect()),
        refs: training
            .trained
            .iter()
            .zip(&traffic)
            .map(|(t, tr)| traffic::reference(&t.artifact, tr))
            .collect(),
        cursor: vec![0; traffic.len()],
        attempted: 0,
        failed: 0,
        decode_us: Vec::new(),
    };
    let window = Duration::from_secs_f64(args.seconds * CLOSED_SHARE / ROUNDS as f64);

    // The rounds interleave the open and closed loops with retraining
    // and training (the daemon idles meanwhile), so each metric samples
    // the whole run rather than one stretch of it. The traced run times
    // every reply decode from outside; its closed-loop rate against the
    // untraced run's `sel_per_s` is the overhead of that tracing.
    rig.generator_cpu(true);
    closed_loop(
        &mut gen,
        &mut rig.conns,
        Span::Time(Duration::from_millis(300)),
        false,
    )?;
    let segment = args.seconds * OPEN_SHARE / ROUNDS as f64;
    let mut open = OpenLoop::new(args.select_rate);
    let mut rates = Vec::with_capacity(ROUNDS);
    let mut retrains = RetrainRun::default();
    for round in 0..ROUNDS {
        rig.generator_cpu(true);
        open_loop(&mut gen, &mut rig, segment, &mut open)?;
        if args.trace && round == 0 {
            // The daemon's cumulative stage histograms hold the warm-up's
            // and this segment's frames only.
            let m = rig.controls[0].metrics().map_err(err)?;
            report_stages(report, &m, &open);
        }
        rates.push(closed_loop(
            &mut gen,
            &mut rig.conns,
            Span::Time(window),
            args.trace,
        )?);
        rig.generator_cpu(false);
        retrains.extend(offline::retrain(
            &training.trained[0],
            &journal,
            work,
            &engine,
            RETRAINS,
            args.trace && round == 0,
        )?);
        let again = offline::train_cases(&TENANTS, &engine, false)?;
        train.push(again.per_case_s);
        offline::check_same_artifacts(report, &training.trained, &again.trained);
    }
    println!(
        "  closed loop windows (sel/s): {}",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "  open loop: {} timed frames at {} sel/s, from due: p50 {:.4} ms, p99 {:.4} ms; host stalls and their backlogs covered {:.2}% of the time and touched {} frames; the other {}: p50 {:.4} ms, p99 {:.4} ms; p50 from send {:.4} ms",
        open.from_due.len(),
        args.select_rate,
        quantile(&open.from_due, 0.5) * 1e3,
        quantile(&open.from_due, 0.99) * 1e3,
        ratio(open.stalled_s, open.ran_s) * 100.0,
        open.from_due.len() - open.clean.len(),
        open.clean.len(),
        quantile(&open.clean, 0.5) * 1e3,
        quantile(&open.clean, 0.99) * 1e3,
        quantile(&open.from_send, 0.5) * 1e3
    );
    if args.trace {
        report_generator(report, &open);
        report.metric("trace.sel_per_s", quiet_rate(&rates), "1/s");
        report.metric("gen.reply_decode_us", median(&gen.decode_us), "us");
        shadow_phase(&mut rig, &mut gen, &training.trained, &traffic, report)?;
    } else {
        report.metric("sel_per_s", quiet_rate(&rates), "1/s");
        report.metric("p50_ms", quantile(&open.clean, 0.5) * 1e3, "ms");
        report.metric("p99_ms", quantile(&open.clean, 0.99) * 1e3, "ms");
    }
    rig.stop()?;
    report.check(gen.attempted, gen.failed);
    println!(
        "  replies: {} frames checked, {} failed",
        gen.attempted, gen.failed
    );
    offline::report_retrain(report, &retrains, args.trace);
    if args.trace {
        offline::report_training(report, &training);
        let artifacts: Vec<&ModelArtifact> = training.trained.iter().map(|t| &t.artifact).collect();
        crate::probes::layers(report, &artifacts, &traffic, work, true)?;
    } else {
        report.metric("setup_s", median(&setups), "s");
        report.metric("train_s", offline::train_s(&train), "s");
        report.metric("speedup_geomean", speedup, "x");
    }
    Ok(())
}

/// Traced run only, after the measured loops: stage a shadow (another
/// trained candidate classifier) behind every tenant, mirror a burst,
/// promote, and check a burst against the shadow's answers.
fn shadow_phase(
    rig: &mut Rig,
    gen: &mut Gen,
    trained: &[Trained],
    traffic: &[TenantTraffic],
    report: &mut Report,
) -> Res<()> {
    let mut shadow_refs = Vec::new();
    for ((t, control), tr) in trained.iter().zip(&rig.controls).zip(traffic) {
        let shadow = shadow_of(t);
        control.load_artifact(&shadow).map_err(err)?;
        shadow_refs.push(traffic::reference(&shadow, tr));
    }
    closed_loop(gen, &mut rig.conns, Span::Frames(SHADOW_FRAMES), false)?;
    let (promote_ms, agreement) = promote(&rig.controls, gen, shadow_refs)?;
    closed_loop(gen, &mut rig.conns, Span::Frames(SHADOW_FRAMES), false)?;
    report.metric("daemon.promote_ms", promote_ms, "ms");
    report.metric("shadow.agreement_rate", agreement, "ratio");
    Ok(())
}

/// How far the stage p50s plus the residual may stray from the client
/// p50 before the accounting check counts a failure.
const ACCOUNTING_TOLERANCE: f64 = 0.25;

/// Daemon stage split of the open loop's frames, and the residual the
/// client saw beyond the daemon's own request time. The request time
/// runs from frame read to reply queued (decode, select, encode), so
/// the queued write is part of the residual. Checks that the decode,
/// select and encode p50s plus the residual come within
/// [`ACCOUNTING_TOLERANCE`] of the client p50: a stage the daemon stops
/// timing, or time it spends outside its stages, fails the check.
fn report_stages(report: &mut Report, m: &intune_daemon::MetricsSnapshot, open: &OpenLoop) {
    let us = |ns: u64| ns as f64 / 1e3;
    let s = &m.stages;
    let mut stage_sum = 0.0;
    for (name, summary) in [
        ("decode", &s.decode),
        ("select", &s.select),
        ("encode", &s.encode),
        ("queued_write", &s.queued_write),
    ] {
        report.metric(
            &format!("daemon.stage.{name}.p50_us"),
            us(summary.p50_ns),
            "us",
        );
        report.metric(
            &format!("daemon.stage.{name}.p99_us"),
            us(summary.p99_ns),
            "us",
        );
        if name != "queued_write" {
            stage_sum += us(summary.p50_ns);
        }
    }
    let requests: u64 = m.tenants.iter().map(|t| t.requests).sum();
    let request_p50 = m
        .tenants
        .iter()
        .map(|t| us(t.latency.p50_ns) * t.requests as f64)
        .sum::<f64>()
        / requests.max(1) as f64;
    let client_p50 = quantile(&open.from_send, 0.5) * 1e6;
    let residual = client_p50 - request_p50;
    let accounted = ratio(stage_sum + residual, client_p50);
    let off = (accounted - 1.0).abs() > ACCOUNTING_TOLERANCE;
    report.check(1, u64::from(off));
    report.metric("daemon.request_p50_us", request_p50, "us");
    report.metric("daemon.residual_us", residual, "us");
    report.metric("daemon.accounted_ratio", accounted, "ratio");
    println!(
        "  {}client p50 {client_p50:.1} us = daemon request p50 {request_p50:.1} us + residual (queued write/network/generator) {residual:.1} us; decode+select+encode p50s + residual = {:.0}% of the client p50 (tolerance {:.0}%)",
        if off { "FAILED: " } else { "" },
        accounted * 100.0,
        ACCOUNTING_TOLERANCE * 100.0
    );
}

/// How late the open-loop generator ran.
fn report_generator(report: &mut Report, open: &OpenLoop) {
    let late = open.lags.iter().filter(|&&l| l > open.interval).count();
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
}
