//! Fixed-size probes of single layers: µop decode, cache-hierarchy
//! accesses, copy-on-write forks and snapshots. Each times a public
//! function of its layer directly.

use crate::host::{median, median_of, secs};
use racer_cpu::workloads::memory_stream;
use racer_cpu::{Backend, Cpu, CpuConfig};
use racer_isa::{DecodedProgram, Program};
use racer_mem::{Addr, Hierarchy, HierarchyConfig};
use std::hint::black_box;
use std::time::Instant;

/// Accesses per timed batch of the hierarchy probes.
const MEM_BATCH: u64 = 4096;

/// Timed batches per probe (the median is reported).
const SAMPLES: usize = 9;

/// Iterations of the memory-stream program the fork probes run.
const FORK_ITERS: i64 = 2_000;

/// Median nanoseconds per instruction decoded by
/// `DecodedProgram::decode` over `programs`.
pub fn decode(programs: &[Program]) -> f64 {
    let instrs: usize = programs.iter().map(Program::len).sum();
    let (pass, _) = median_of(SAMPLES, || {
        programs
            .iter()
            .map(DecodedProgram::decode)
            .map(|d| d.len())
            .sum::<usize>()
    });
    pass * 1e9 / instrs.max(1) as f64
}

/// Median nanoseconds of `Hierarchy::load` on a resident line and on a
/// flushed line.
pub fn mem_access() -> (f64, f64) {
    let mut h = Hierarchy::new(HierarchyConfig::coffee_lake());
    let hot = Addr(0x4000);
    h.load(hot);
    let (batch, _) = median_of(SAMPLES, || {
        for _ in 0..MEM_BATCH {
            black_box(h.load(black_box(hot)));
        }
    });
    let l1_hit_ns = batch * 1e9 / MEM_BATCH as f64;

    let lines: Vec<Addr> = (0..MEM_BATCH).map(|i| Addr(0x100_0000 + i * 64)).collect();
    let mut misses = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        for &a in &lines {
            h.flush(a);
        }
        let start = Instant::now();
        for &a in &lines {
            black_box(h.load(a));
        }
        misses.push(secs(start) * 1e9 / MEM_BATCH as f64);
    }
    (l1_hit_ns, median(&misses))
}

/// Snapshot and fork costs of a warmed Coffee-Lake machine, and the
/// cache storage a forked run materialises privately.
pub struct EngineProbe {
    /// Median microseconds per `Cpu::snapshot`.
    pub snapshot_us: f64,
    /// Median microseconds per `Snapshot::fork`.
    pub fork_us: f64,
    /// KiB of cache storage a fork no longer shares with its base after
    /// one memory-stream run (`Hierarchy::private_bytes_vs`).
    pub cow_private_kb: f64,
}

/// Measure [`EngineProbe`].
pub fn engine() -> EngineProbe {
    let prog = memory_stream(FORK_ITERS);
    let mut base = Cpu::new(CpuConfig::coffee_lake(), HierarchyConfig::coffee_lake());
    base.run_one(&prog, Backend::EventDriven);
    let (snapshot, snap) = median_of(SAMPLES, || base.snapshot());
    let (fork, _) = median_of(SAMPLES, || snap.fork());
    let mut forked = snap.fork();
    forked.run_one(&prog, Backend::EventDriven);
    EngineProbe {
        snapshot_us: snapshot * 1e6,
        fork_us: fork * 1e6,
        cow_private_kb: forked.hierarchy().private_bytes_vs(base.hierarchy()) as f64 / 1024.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_positive_costs() {
        assert!(decode(&[memory_stream(10), memory_stream(20)]) > 0.0);
        let (hit, miss) = mem_access();
        assert!(hit > 0.0 && miss > 0.0);
        let e = engine();
        assert!(e.snapshot_us > 0.0 && e.fork_us > 0.0 && e.cow_private_kb > 0.0);
    }
}
