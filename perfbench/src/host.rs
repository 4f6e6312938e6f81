//! Host-side measurements: process memory and CPU time from `/proc`,
//! the worker cap, the calibration kernel, and small statistics helpers.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Iterations of the calibration kernel (about 10 ms on a 2020s core).
const CALIB_ITERS: u64 = 4_000_000;

/// Host worker threads the workloads may use: the machine's available
/// parallelism.
pub fn worker_cap() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pin the program's worker pools to [`worker_cap`] threads. Must run
/// before any thread is spawned; child processes inherit the setting.
pub fn cap_workers() {
    std::env::set_var("RACER_BATCH_THREADS", worker_cap().to_string());
}

/// The process's peak resident set in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds this process has used, all threads
/// included, or `None` where `/proc` does not report it.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated, utime and stime being the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Host nanoseconds for one pass of a fixed pure-Rust kernel (an xorshift
/// stream folded by multiplication). It touches none of the program's
/// code, so a change of its time between runs is drift of the host, not
/// of the code.
pub fn calib_ns() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = 0u64;
    for i in 0..CALIB_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(i | 1));
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64
}

/// Spans ended so far in this process (calls of [`secs`]).
static SPANS: AtomicU64 = AtomicU64::new(0);

/// Spans timed per sample of [`span_cost_s`].
const SPAN_BATCH: u32 = 10_000;

/// Seconds elapsed since `start`: the end of a span.
pub fn secs(start: Instant) -> f64 {
    SPANS.fetch_add(1, Ordering::Relaxed);
    start.elapsed().as_secs_f64()
}

/// Spans ended so far in this process.
pub fn spans() -> u64 {
    SPANS.load(Ordering::Relaxed)
}

/// Median host seconds of one span (an `Instant::now` plus a [`secs`]),
/// over nine batches.
pub fn span_cost_s() -> f64 {
    let (batch, _) = median_of(9, || {
        for _ in 0..SPAN_BATCH {
            black_box(secs(black_box(Instant::now())));
        }
    });
    batch / f64::from(SPAN_BATCH)
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of `values`; 0 for an empty slice.
///
/// The statistic of the many short `sim-kernels` rounds. Co-tenant load
/// on a shared host only ever slows a sample, and comes in phases that
/// load the memory system, not the ALU. On a 2-vCPU cloud VM a round at
/// 12000 iterations per shape took 105-145 ms in quiet phases and a
/// steady 185-210 ms in loaded ones covering about half of the time; over
/// six 20-second runs the spread (interquartile range over median) of the
/// per-run statistic was 0.24 for the 10th percentile, 0.27 for the
/// median, 0.13 for the mean and 0.06 for the 90th percentile. In another
/// hour the same host ran rounds at 6000 iterations in 55-60 ms with
/// bursts of 100-125 ms taking 10-50% of a run; over six 30-second runs
/// the spreads were 0.05, 0.14, 0.09 and 0.16. Each percentile swings
/// when the share of loaded samples crosses it; the mean, the run's
/// throughput, moved least in the worse of the two.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The 90th percentile (nearest rank) of host-time samples; 0 for an
/// empty slice. With 100 samples it is the highest percentile that keeps
/// ten samples beyond it.
pub fn p90(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() as f64 * 0.9).ceil().max(1.0) as usize;
    v[rank - 1]
}

/// Time `f` once untimed and then `n` times, and return the median of
/// the timed samples in seconds, plus the last result. For sub-millisecond
/// layer probes, whose first call would otherwise be the tail.
pub fn median_of<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    black_box(f());
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let start = Instant::now();
        last = Some(black_box(f()));
        times.push(secs(start));
    }
    (median(&times), last.expect("n > 0"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mean_handles_values_and_empty() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn p90_is_the_nearest_rank_ninetieth_percentile() {
        assert_eq!(p90(&[5.0]), 5.0);
        assert_eq!(p90(&[3.0, 1.0, 2.0]), 3.0);
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(p90(&v), 18.0);
        assert_eq!(p90(&[]), 0.0);
    }

    #[test]
    fn proc_readers_report_this_process() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(calib_ns() > 0.0);
    }

    #[test]
    fn spans_are_counted_and_cost_time() {
        let before = spans();
        secs(Instant::now());
        assert!(spans() > before);
        assert!(span_cost_s() > 0.0);
    }
}
