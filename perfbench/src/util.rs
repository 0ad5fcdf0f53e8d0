//! Closed-loop pool, order statistics, seed derivation and span recording.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// SplitMix64: derives independent, reproducible sub-seeds from the
/// benchmark's `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One job's output, its wall latency and the CPU time of the thread
/// that ran it.
pub struct Timed<R> {
    pub out: R,
    pub ms: f64,
    pub cpu_ms: f64,
}

/// What a closed-loop pass over a fixed batch produced.
pub struct Pass<R> {
    /// Outputs in job order.
    pub jobs: Vec<Timed<R>>,
    /// Wall time from the first job's start to the last job's end.
    pub wall_s: f64,
    /// CPU time the whole process used meanwhile.
    pub cpu_s: f64,
}

impl<R> Pass<R> {
    /// Σ job busy time ÷ (workers × wall time).
    pub fn efficiency(&self, workers: usize) -> f64 {
        let busy: f64 = self.jobs.iter().map(|j| j.ms / 1e3).sum();
        busy / (workers as f64 * self.wall_s)
    }
}

/// Runs `jobs` on `workers` threads, closed loop: each worker takes the
/// next job as soon as its previous one returns.
pub fn closed_loop<J: Sync, R: Send>(
    jobs: &[J],
    workers: usize,
    f: impl Fn(usize, &J) -> R + Sync,
) -> Pass<R> {
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Timed<R>)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let started = Instant::now();
    let cpu0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    std::thread::scope(|s| {
        for _ in 0..workers.min(jobs.len()).max(1) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let (t, c) = (Instant::now(), cpu_s(CLOCK_THREAD_CPUTIME_ID));
                let out = f(i, job);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let cpu_ms = (cpu_s(CLOCK_THREAD_CPUTIME_ID) - c) * 1e3;
                done.lock()
                    .expect("result list poisoned")
                    .push((i, Timed { out, ms, cpu_ms }));
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    let mut done = done.into_inner().expect("result list poisoned");
    done.sort_by_key(|(i, _)| *i);
    Pass {
        jobs: done.into_iter().map(|(_, t)| t).collect(),
        wall_s,
        cpu_s,
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of the whole process, all threads.
pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// CPU time of the calling thread.
pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time used so far, in seconds, by the process or the calling
/// thread (Linux clock ids). CPU time does not grow while another
/// tenant of the host holds the core, which wall time does.
pub fn cpu_s(clock: i32) -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable timespec with the C layout, and
    // clock_gettime writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "Linux provides the process and thread CPU clocks");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Times `f` once, in seconds.
pub fn time_s<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// sample with exactly ten larger ones. Returns `(value, percentile)`;
/// with ten or fewer samples it falls back to the maximum.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// The median over consecutive blocks of `block` samples of each block's
/// [`tail`]: one stall from outside the process moves one block, not the
/// result. Returns `(value, percentile, blocks)`; a sample shorter than
/// one block is its own block.
pub fn block_tail(xs: &[f64], block: usize) -> (f64, f64, usize) {
    if xs.len() < block {
        let (v, p) = tail(xs);
        return (v, p, 1);
    }
    let tails: Vec<f64> = xs.chunks_exact(block).map(|b| tail(b).0).collect();
    (median(&tails), tail(&xs[..block]).1, tails.len())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One recorded span: a named interval around a public call.
#[derive(Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// In-memory span recorder. Disabled in untraced runs, where `span`
/// only calls the closure.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f`, recording a span named `name` for `job` when enabled.
    pub fn span<R>(&self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = self.epoch.elapsed().as_secs_f64() * 1e6;
        let r = f();
        let end = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.lock().expect("span list poisoned").push(Span {
            name,
            job,
            start_us: start,
            end_us: end,
        });
        r
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(p, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn block_tail_ignores_one_slow_block() {
        let mut xs: Vec<f64> = (0..500).map(|i| f64::from(i % 100)).collect();
        xs[..100].iter_mut().for_each(|x| *x += 1000.0);
        let (v, p, n) = block_tail(&xs, 100);
        assert_eq!((v, p, n), (89.0, 90.0, 5));
    }

    #[test]
    fn closed_loop_returns_job_order() {
        let jobs: Vec<u64> = (0..50).collect();
        let pass = closed_loop(&jobs, 2, |_, j| j * 2);
        let outs: Vec<u64> = pass.jobs.iter().map(|t| t.out).collect();
        assert_eq!(outs, jobs.iter().map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn median_of_even_sample_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
