//! Host stalls: stretches of wall time in which the threads that keep a
//! CPU busy did not run.
//!
//! On a shared virtual machine the hypervisor takes a vCPU away for
//! 0.03–10 ms several times a second, and other processes of the guest
//! preempt ours; on the 2-vCPU development host the two together took
//! 0.5–5% of each vCPU's time, varying from minute to minute. An
//! open-loop frame that meets such a stall waits it out, so the p99 of
//! every frame reads the host, not the program, whenever stalls cover
//! more than 1% of the time. A [`StallClock`] finds the stalls: it
//! samples the wall clock against the CPU time of every thread that can
//! run on one CPU, a set kept busy throughout (a thread that spins, or
//! one that spins at idle priority behind the others), so whatever wall
//! time those threads did not get went to the host or to another
//! process. The kernel charges CPU time net of the time the hypervisor
//! reports stolen (paravirtual steal accounting), and a thread that
//! blocks inside the program (a lock, an `fsync`) leaves its CPU to the
//! spinner, so a stall of the program itself is never counted.

use std::time::{Duration, Instant};

extern "C" {
    fn gettid() -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// How often an open loop samples its stall clocks.
pub const STALL_SAMPLE: Duration = Duration::from_micros(100);

/// One thread of this process, whose CPU time can be read from any
/// other.
#[derive(Debug, Clone, Copy)]
pub struct ThreadClock(i32);

impl ThreadClock {
    /// The calling thread.
    pub fn current() -> ThreadClock {
        // SAFETY: `gettid` takes no arguments and cannot fail.
        ThreadClock(unsafe { gettid() })
    }

    /// CPU time the thread has run, ns (the kernel's per-thread
    /// `CPUCLOCK_SCHED` clock for this tid).
    fn cpu_ns(self) -> u64 {
        let clock = (!self.0 << 3) | 6;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a writable `struct timespec`; an invalid clock
        // id returns an error rather than writing.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        if rc != 0 {
            return 0;
        }
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    }
}

/// A stall: from `start` to `end` the sampled CPU lost `lost` of wall
/// time to something other than its threads.
#[derive(Debug, Clone, Copy)]
struct Stall {
    start: Instant,
    end: Instant,
    lost: Duration,
}

/// Samples one CPU's threads (see the module docs).
pub struct StallClock {
    threads: Vec<ThreadClock>,
    /// Wall time a sample may lack from its threads' CPU time before it
    /// counts as a stall: above the clock reads' own cost and skew.
    slack: Duration,
    last: (Instant, u64),
    stalls: Vec<Stall>,
}

impl StallClock {
    /// Starts sampling `threads`, which between them keep one CPU busy.
    pub fn new(threads: Vec<ThreadClock>, slack: Duration) -> StallClock {
        let cpu = threads.iter().map(|t| t.cpu_ns()).sum();
        StallClock {
            threads,
            slack,
            last: (Instant::now(), cpu),
            stalls: Vec::new(),
        }
    }

    /// Closes the sample that started at the previous call: records a
    /// stall if the threads ran for less of it than its wall time.
    pub fn sample(&mut self) {
        let cpu: u64 = self.threads.iter().map(|t| t.cpu_ns()).sum();
        let now = Instant::now();
        let (since, ran) = self.last;
        let wall = now.saturating_duration_since(since);
        let lost = wall.saturating_sub(Duration::from_nanos(cpu.saturating_sub(ran)));
        if lost > self.slack {
            self.stalls.push(Stall {
                start: since,
                end: now,
                lost,
            });
        }
        self.last = (now, cpu);
    }
}

/// Which frames a stall touched. A stall spoils every frame in flight
/// during it, and the frames due in the time it took away after it
/// ends, which queue behind the backlog it left (at under 50% load the
/// backlog drains within that time). Samples that overlap or follow
/// each other within that time form one stall, whose lost times add up:
/// a 50 ms stall is 500 samples of 100 µs, and its backlog takes
/// milliseconds to drain, not 100 µs.
pub struct Stalls(Vec<(Instant, Instant)>);

impl Stalls {
    pub fn new(clocks: &[StallClock]) -> Stalls {
        let mut samples: Vec<Stall> = clocks.iter().flat_map(|c| c.stalls.clone()).collect();
        samples.sort_by_key(|s| s.start);
        let mut merged: Vec<Stall> = Vec::with_capacity(samples.len());
        for s in samples {
            match merged.last_mut() {
                Some(last) if s.start <= last.end + last.lost => {
                    last.end = last.end.max(s.end);
                    last.lost += s.lost;
                }
                _ => merged.push(s),
            }
        }
        Stalls(merged.iter().map(|s| (s.start, s.end + s.lost)).collect())
    }

    /// Whether a frame in flight from `from` to `to` met a stall.
    pub fn touched(&self, from: Instant, to: Instant) -> bool {
        let i = self.0.partition_point(|s| s.1 < from);
        self.0.get(i).is_some_and(|s| s.0 <= to)
    }

    /// Wall time the stalls and their backlogs cover, seconds.
    pub fn covered_s(&self) -> f64 {
        self.0.iter().map(|s| (s.1 - s.0).as_secs_f64()).sum()
    }
}
