//! Property tests for warm-state snapshots (`racer_cpu::engine`).
//!
//! A fork of a [`Snapshot`] must produce exactly the [`RunResult`] the
//! captured machine would have produced next — cycles, registers, load
//! events, traces and cache statistics. These tests exercise, on
//! randomized program populations, the fork semantics the sweep drivers
//! rely on: forks are isolated from the snapshot, from each other and
//! from the parent machine; `run_many` keeps input order; and the
//! process-wide [`SnapshotCache`] keys, hits and evicts exactly.

use racer_cpu::workloads::{alu_chain, memory_stream};
use racer_cpu::{Backend, Countermeasure, Cpu, CpuConfig, RunResult, Snapshot, SnapshotCache};
use racer_isa::{AluOp, Cond, Instr, MemOperand, Operand, Program, Reg};
use racer_mem::HierarchyConfig;

/// xorshift64* — deterministic, dependency-free. Seed must be non-zero.
struct Xs(u64);

impl Xs {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random terminating gadget: ALU chains with multiplies and divides,
/// aliased loads/stores, strided-line loads, prefetch/flush, fences and
/// forward branches — optionally wrapped in a counted backward-branch
/// loop (register 7 holds the trip counter, never written by the body).
fn random_gadget(rng: &mut Xs, len: usize, loop_trips: Option<u64>) -> Program {
    let reg = |i: u64| Reg::new(i as usize);
    let mut instrs: Vec<Instr> = Vec::with_capacity(len + 12);
    for i in 0..7u64 {
        instrs.push(Instr::Alu {
            op: AluOp::Add,
            dst: reg(i),
            a: Operand::Imm(1 + rng.below(50) as i64),
            b: Operand::Imm(0),
        });
    }
    if let Some(trips) = loop_trips {
        instrs.push(Instr::Alu {
            op: AluOp::Add,
            dst: reg(7),
            a: Operand::Imm(trips as i64),
            b: Operand::Imm(0),
        });
    }
    let body_start = instrs.len();
    let end = body_start + len;
    for at in body_start..end {
        let d = reg(rng.below(7));
        let a = reg(rng.below(7));
        let b = reg(rng.below(7));
        let pool = 0x200 + rng.below(8) * 8;
        let line = 0x8000 + rng.below(32) * 64;
        let fwd = (at as u64 + 1 + rng.below((end - at) as u64)).min(end as u64) as usize;
        instrs.push(match rng.below(16) {
            0..=3 => Instr::Alu {
                op: match rng.below(4) {
                    0 => AluOp::Add,
                    1 => AluOp::Sub,
                    2 => AluOp::Xor,
                    _ => AluOp::And,
                },
                dst: d,
                a: Operand::Reg(a),
                b: Operand::Reg(b),
            },
            4 => Instr::Alu {
                op: AluOp::Mul,
                dst: d,
                a: Operand::Reg(a),
                b: Operand::Imm(5),
            },
            5 => Instr::Alu {
                op: AluOp::Div,
                dst: d,
                a: Operand::Reg(a),
                b: Operand::Reg(b),
            },
            6..=8 => Instr::Load {
                dst: d,
                mem: MemOperand::abs(if rng.below(2) == 0 { pool } else { line }),
            },
            9 | 10 => Instr::Store {
                src: Operand::Reg(a),
                mem: MemOperand::abs(pool),
            },
            11 => Instr::Prefetch {
                mem: MemOperand::abs(line),
                nta: rng.below(2) == 0,
            },
            12 => Instr::Flush {
                mem: MemOperand::abs(line),
            },
            13 | 14 => Instr::Branch {
                cond: if rng.below(2) == 0 {
                    Cond::Lt
                } else {
                    Cond::Ne
                },
                a,
                b: Operand::Imm(rng.below(40) as i64),
                target: fwd,
            },
            _ => Instr::Fence,
        });
    }
    if loop_trips.is_some() {
        instrs.push(Instr::Alu {
            op: AluOp::Sub,
            dst: reg(7),
            a: Operand::Reg(reg(7)),
            b: Operand::Imm(1),
        });
        instrs.push(Instr::Branch {
            cond: Cond::Ne,
            a: reg(7),
            b: Operand::Imm(0),
            target: body_start,
        });
    }
    instrs.push(Instr::Halt);
    Program::from_instrs(instrs).expect("generated gadget is valid")
}

/// A population of random gadgets: every third one loops, lengths vary.
fn gadget_population(seed: u64, count: usize) -> Vec<Program> {
    let mut rng = Xs(seed);
    (0..count)
        .map(|i| {
            let len = 30 + (rng.below(41) as usize);
            let trips = (i % 3 == 2).then(|| 2 + rng.below(3));
            random_gadget(&mut rng, len, trips)
        })
        .collect()
}

/// Bit-identity over every observable: the named fields give readable
/// failures, the Debug rendering closes over everything else (load
/// events, traces, cache statistics).
fn assert_bit_identical(tag: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.cycles, b.cycles, "{tag}: cycles diverge");
    assert_eq!(a.committed, b.committed, "{tag}: commit counts diverge");
    assert_eq!(a.regs, b.regs, "{tag}: registers diverge");
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "{tag}: full results diverge"
    );
}

/// A snapshot of a machine warmed on the standard kernels (trained
/// predictor, populated caches — the state a sweep would fork from).
fn warmed_snapshot(cfg: CpuConfig) -> Snapshot {
    let mut cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
    cpu.run_one(&alu_chain(200), Backend::EventDriven);
    cpu.run_one(&memory_stream(200), Backend::EventDriven);
    cpu.snapshot()
}

#[test]
fn forks_are_deterministic_and_isolated() {
    let snap = warmed_snapshot(CpuConfig::coffee_lake().with_load_recording());
    let prog = gadget_population(0xF0_4E5, 1).remove(0);

    // N forks of the same snapshot all see the same starting state, no
    // matter how many siblings ran (and dirtied their caches) before
    // them: running one fork (stores, cache fills, predictor training)
    // must not leak into the snapshot or into a live sibling.
    let solo = snap.fork().run_one(&prog, Backend::EventDriven);
    let mut live = snap.fork();
    for i in 0..8 {
        let sibling = snap.fork().run_one(&prog, Backend::EventDriven);
        assert_bit_identical(&format!("sibling fork #{i}"), &sibling, &solo);
    }
    let late = live.run_one(&prog, Backend::EventDriven);
    assert_bit_identical("fork taken before its siblings ran", &late, &solo);
}

#[test]
fn run_many_matches_individual_forks_in_input_order() {
    let snap = warmed_snapshot(CpuConfig::coffee_lake().with_load_recording());
    let progs = gadget_population(0x0BA7_C4ED, 9);
    let got = snap.run_many(&progs);
    assert_eq!(got.len(), progs.len());
    for (i, (prog, got)) in progs.iter().zip(&got).enumerate() {
        let want = snap.fork().run_one(prog, Backend::EventDriven);
        assert_bit_identical(&format!("run_many gadget #{i}"), got, &want);
    }
}

#[test]
fn snapshot_cache_distinct_configs_never_share() {
    let cache = SnapshotCache::new(16);
    let cfg = CpuConfig::coffee_lake();
    let warmup = alu_chain(100);
    // Four keys differing in exactly one component each.
    type Key<'a> = (CpuConfig, HierarchyConfig, Option<(&'a Program, usize)>);
    let keys: [Key; 4] = [
        (cfg, HierarchyConfig::coffee_lake(), None),
        (
            cfg.with_countermeasure(Countermeasure::DelayOnMiss),
            HierarchyConfig::coffee_lake(),
            None,
        ),
        (cfg, HierarchyConfig::small_plru(), None),
        (cfg, HierarchyConfig::coffee_lake(), Some((&warmup, 2))),
    ];
    for (cfg, hier, warm) in &keys {
        cache.warmed(*cfg, *hier, *warm);
    }
    assert_eq!(cache.len(), keys.len(), "each distinct key owns an entry");
    let c = cache.counters();
    assert_eq!((c.hits, c.misses), (0, keys.len() as u64));
    // Same warmup program but a different run count is a different key.
    cache.warmed(cfg, HierarchyConfig::coffee_lake(), Some((&warmup, 3)));
    assert_eq!(cache.len(), keys.len() + 1);
    assert_eq!(cache.counters().hits, 0);
}

#[test]
fn snapshot_cache_hits_return_identical_forks() {
    let cache = SnapshotCache::new(16);
    let cfg = CpuConfig::coffee_lake().with_load_recording();
    let warmup = memory_stream(200);
    let probe = gadget_population(0xCAC4E, 1).remove(0);

    let first = cache.warmed(cfg, HierarchyConfig::coffee_lake(), Some((&warmup, 2)));
    let second = cache.warmed(cfg, HierarchyConfig::coffee_lake(), Some((&warmup, 2)));
    let c = cache.counters();
    assert_eq!((c.hits, c.misses), (1, 1), "second lookup hits");

    // A cached hit's fork, a first-build fork, and a hand-warmed fresh
    // machine all run the probe bit-identically.
    let mut by_hand = Cpu::new(cfg, HierarchyConfig::coffee_lake());
    by_hand.run_one(&warmup, Backend::EventDriven);
    by_hand.run_one(&warmup, Backend::EventDriven);
    let want = by_hand.run_one(&probe, Backend::EventDriven);
    let from_first = first.fork().run_one(&probe, Backend::EventDriven);
    let from_second = second.fork().run_one(&probe, Backend::EventDriven);
    assert_bit_identical("miss-built fork vs hand-warmed", &from_first, &want);
    assert_bit_identical("hit fork vs hand-warmed", &from_second, &want);
}

#[test]
fn snapshot_cache_evicts_least_recently_used_at_capacity() {
    let cache = SnapshotCache::new(2);
    let cfg = CpuConfig::coffee_lake();
    let a = HierarchyConfig::coffee_lake();
    let b = HierarchyConfig::small_plru();
    let c = HierarchyConfig::coffee_lake_noisy(7);
    cache.cold(cfg, a); // miss
    cache.cold(cfg, b); // miss
    cache.cold(cfg, a); // hit — refreshes a, making b the LRU
    cache.cold(cfg, c); // miss — evicts b
    assert_eq!(cache.len(), 2);
    cache.cold(cfg, a); // still cached
    let before = cache.counters();
    cache.cold(cfg, b); // evicted: must rebuild
    let after = cache.counters();
    assert_eq!(after.hits, before.hits);
    assert_eq!(after.misses, before.misses + 1);
}

#[test]
fn fork_leaves_the_parent_machine_untouched() {
    let mut cpu = Cpu::new(
        CpuConfig::coffee_lake().with_load_recording(),
        HierarchyConfig::coffee_lake(),
    );
    cpu.run_one(&alu_chain(200), Backend::EventDriven); // warm the parent
    let prog = gadget_population(0x5EED_5EED, 1).remove(0);

    // Forks capture the parent's current state without advancing it:
    // repeated forks keep observing the same state, and the parent's own
    // run that follows starts exactly where the forks did.
    let f1 = cpu.snapshot().fork().run_one(&prog, Backend::EventDriven);
    let f2 = cpu.snapshot().fork().run_one(&prog, Backend::EventDriven);
    let direct = cpu.run_one(&prog, Backend::EventDriven);
    assert_bit_identical("repeated forks", &f1, &f2);
    assert_bit_identical("fork vs parent", &f1, &direct);
}
