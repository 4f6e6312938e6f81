//! Differential validation of the event-driven production scheduler
//! against the retained scan-based reference scheduler
//! (`racer_cpu::reference`), plus a snapshot fork (`racer_cpu::engine`)
//! of the event-driven machine, on every program.
//!
//! The implementations must be **cycle-exact** equivalents: for any
//! program and configuration, every observable of [`RunResult`] — total
//! cycles, commit counts, squash/mispredict/interrupt counters, final
//! registers, the full per-load event stream, the pipeline trace and the
//! cache-hierarchy statistics — must be identical. Several hundred
//! randomized programs (dependent ALU chains, divides, loads/stores with
//! aliasing, prefetch/flush, fences, forward branches and jumps) are run
//! under every countermeasure mode, on machine state that deliberately
//! accumulates (warm caches, trained predictors) across programs.

use racer_cpu::{Backend, Countermeasure, Cpu, CpuConfig, RecordLevel, RunResult};
use racer_isa::{AluOp, Cond, Instr, MemOperand, Operand, Program, Reg};
use racer_mem::HierarchyConfig;

/// Deterministic SplitMix64 (the tests must not depend on external crates).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random terminating program: a mix of every instruction class the
/// scheduler handles specially, with forward branches/jumps inside the
/// body. When `loop_trips` is set, the whole body runs inside a counted
/// loop closed by a **backward** branch (register 8 holds the trip
/// counter, which the body never writes), so re-fetching trained branch
/// PCs and squash-redirects to earlier PCs get differential coverage too.
fn random_program(rng: &mut Rng, len: usize, loop_trips: Option<u64>) -> Program {
    let reg = |i: u64| Reg::new(i as usize);
    let mut instrs: Vec<Instr> = Vec::with_capacity(len + 12);
    // Seed the first eight registers with small values.
    for i in 0..8u64 {
        instrs.push(Instr::Alu {
            op: AluOp::Add,
            dst: reg(i),
            a: Operand::Imm(rng.below(100) as i64),
            b: Operand::Imm(0),
        });
    }
    if let Some(trips) = loop_trips {
        instrs.push(Instr::Alu {
            op: AluOp::Add,
            dst: reg(8),
            a: Operand::Imm(trips as i64),
            b: Operand::Imm(0),
        });
    }
    let body_start = instrs.len();
    // Forward targets are capped at `end`, the loop-decrement index, so
    // every path through the body still decrements the trip counter.
    let end = body_start + len;
    for at in body_start..end {
        let d = reg(rng.below(8));
        let a = reg(rng.below(8));
        let b = reg(rng.below(8));
        // Aliased word pool (forces store-load disambiguation) plus strided
        // lines (forces misses and MSHR pressure).
        let pool_addr = 0x100 + rng.below(16) * 8;
        let line_addr = 0x4000 + rng.below(64) * 64;
        let fwd = (at as u64 + 1 + rng.below((end - at) as u64)).min(end as u64) as usize;
        let instr = match rng.below(20) {
            0..=4 => Instr::Alu {
                op: match rng.below(5) {
                    0 => AluOp::Add,
                    1 => AluOp::Sub,
                    2 => AluOp::Xor,
                    3 => AluOp::Shl,
                    _ => AluOp::And,
                },
                dst: d,
                a: Operand::Reg(a),
                b: Operand::Reg(b),
            },
            5 | 6 => Instr::Alu {
                op: AluOp::Mul,
                dst: d,
                a: Operand::Reg(a),
                b: Operand::Imm(3),
            },
            7 => Instr::Alu {
                op: AluOp::Div,
                dst: d,
                a: Operand::Reg(a),
                b: Operand::Reg(b),
            },
            8..=10 => Instr::Load {
                dst: d,
                mem: MemOperand::abs(if rng.below(2) == 0 {
                    pool_addr
                } else {
                    line_addr
                }),
            },
            11 | 12 => Instr::Store {
                src: Operand::Reg(a),
                mem: MemOperand::abs(pool_addr),
            },
            13 => Instr::Lea {
                dst: d,
                mem: MemOperand::base_disp(a, rng.below(64) as i64),
            },
            14 => Instr::Prefetch {
                mem: MemOperand::abs(line_addr),
                nta: rng.below(2) == 0,
            },
            15 => Instr::Flush {
                mem: MemOperand::abs(line_addr),
            },
            16 | 17 => Instr::Branch {
                cond: if rng.below(2) == 0 {
                    Cond::Lt
                } else {
                    Cond::Ne
                },
                a,
                b: Operand::Imm(rng.below(60) as i64),
                target: fwd,
            },
            18 => {
                if rng.below(4) == 0 {
                    Instr::Jump { target: fwd }
                } else {
                    Instr::Nop
                }
            }
            _ => Instr::Fence,
        };
        instrs.push(instr);
    }
    if loop_trips.is_some() {
        instrs.push(Instr::Alu {
            op: AluOp::Sub,
            dst: reg(8),
            a: Operand::Reg(reg(8)),
            b: Operand::Imm(1),
        });
        instrs.push(Instr::Branch {
            cond: Cond::Ne,
            a: reg(8),
            b: Operand::Imm(0),
            target: body_start,
        });
    }
    instrs.push(Instr::Halt);
    Program::from_instrs(instrs).expect("generated program is valid")
}

/// Assert every observable of the two runs matches.
fn assert_equivalent(tag: &str, fast: &RunResult, slow: &RunResult) {
    assert_eq!(fast.cycles, slow.cycles, "{tag}: cycles diverge");
    assert_eq!(
        fast.committed, slow.committed,
        "{tag}: commit counts diverge"
    );
    assert_eq!(fast.halted, slow.halted, "{tag}: halt state diverges");
    assert_eq!(fast.limit_hit, slow.limit_hit, "{tag}: limit flag diverges");
    assert_eq!(
        fast.mispredicts, slow.mispredicts,
        "{tag}: mispredicts diverge"
    );
    assert_eq!(
        fast.squashed_instrs, slow.squashed_instrs,
        "{tag}: squash counts diverge"
    );
    assert_eq!(
        fast.interrupts, slow.interrupts,
        "{tag}: interrupt counts diverge"
    );
    assert_eq!(
        fast.regs, slow.regs,
        "{tag}: architectural registers diverge"
    );
    assert_eq!(fast.loads, slow.loads, "{tag}: load-event streams diverge");
    assert_eq!(
        format!("{:?}", fast.mem_stats),
        format!("{:?}", slow.mem_stats),
        "{tag}: cache statistics diverge"
    );
    assert_eq!(
        fast.trace.len(),
        slow.trace.len(),
        "{tag}: trace lengths diverge"
    );
    for (f, s) in fast.trace.iter().zip(&slow.trace) {
        assert_eq!(
            (
                f.seq,
                f.pc,
                &f.text,
                f.fetched,
                f.dispatched,
                f.issued,
                f.completed,
                f.committed
            ),
            (
                s.seq,
                s.pc,
                &s.text,
                s.fetched,
                s.dispatched,
                s.issued,
                s.completed,
                s.committed
            ),
            "{tag}: trace records diverge"
        );
    }
}

/// Run `count` random programs through both [`Backend`]s on a persistent
/// pair of `hier`-configured machines (warm caches + trained predictors
/// accumulate identically). Every third program wraps its body in a counted
/// backward-branch loop.
///
/// Each program also runs first on a [`racer_cpu::Snapshot`] fork of the
/// fast machine's *current* state, which leaves the machine untouched;
/// the event-driven run that follows starts from that same state, so the
/// two must be bit-identical — which pins fork == parent on every
/// program, countermeasure and accumulated warm state the suite covers.
///
/// Returns the event-driven results, for cases that must show they
/// reached a particular path.
fn run_differential(
    cfg: CpuConfig,
    hier: HierarchyConfig,
    seed: u64,
    count: usize,
    len: usize,
) -> Vec<RunResult> {
    let mut runs = Vec::with_capacity(count);
    let mut fast_cpu = Cpu::new(cfg, hier);
    let mut slow_cpu = Cpu::new(cfg, hier);
    let mut rng = Rng(seed);
    for i in 0..count {
        let trips = if i % 3 == 2 {
            Some(2 + rng.below(3))
        } else {
            None
        };
        let prog = random_program(&mut rng, len, trips);
        let forked = fast_cpu
            .snapshot()
            .fork()
            .run_one(&prog, Backend::EventDriven);
        let fast = fast_cpu.run_one(&prog, Backend::EventDriven);
        let slow = slow_cpu.run_one(&prog, Backend::Reference);
        let tag = format!("cm={} program #{i}", cfg.countermeasure);
        assert_equivalent(&format!("{tag} [event-driven vs reference]"), &fast, &slow);
        assert_equivalent(&format!("{tag} [fork vs parent]"), &forked, &fast);
        assert_eq!(
            fast_cpu.mem(),
            slow_cpu.mem(),
            "{tag}: data memory diverges"
        );
        runs.push(fast);
    }
    runs
}

#[test]
fn baseline_matches_reference_on_200_random_programs() {
    let cfg = CpuConfig::coffee_lake().with_load_recording();
    run_differential(cfg, HierarchyConfig::coffee_lake(), 0xD1FF, 200, 90);
}

#[test]
fn every_countermeasure_matches_reference() {
    for (i, cm) in [
        Countermeasure::InOrder,
        Countermeasure::DelayOnMiss,
        Countermeasure::InvisibleSpec,
        Countermeasure::GhostMinion,
        Countermeasure::CleanupSpec,
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = CpuConfig::coffee_lake()
            .with_countermeasure(cm)
            .with_load_recording();
        run_differential(
            cfg,
            HierarchyConfig::coffee_lake(),
            0xBEEF + i as u64,
            40,
            70,
        );
    }
}

#[test]
fn full_trace_matches_reference() {
    let cfg = CpuConfig::coffee_lake().with_record_level(RecordLevel::Trace);
    run_differential(cfg, HierarchyConfig::coffee_lake(), 0x7ACE, 40, 60);
}

#[test]
fn narrow_window_and_interrupts_match_reference() {
    // Tight ROB/scheduler plus the timer-interrupt drain exercises every
    // structural stall the schedulers model.
    let mut cfg = CpuConfig::coffee_lake().with_load_recording();
    cfg.rob_size = 24;
    cfg.rs_size = 8;
    cfg.mshrs = 2;
    cfg.interrupt_interval = Some(150);
    run_differential(cfg, HierarchyConfig::coffee_lake(), 0x1177, 60, 80);

    let mut tiny = CpuConfig::coffee_lake().with_load_recording();
    tiny.issue_width = 2;
    tiny.alu_ports = 1;
    tiny.load_ports = 1;
    tiny.dispatch_width = 2;
    tiny.commit_width = 2;
    run_differential(tiny, HierarchyConfig::coffee_lake(), 0x2288, 40, 70);
}

#[test]
fn counters_only_recording_matches_reference() {
    // RecordLevel::Counters must not change timing, only skip event vectors.
    let cfg = CpuConfig::coffee_lake();
    run_differential(cfg, HierarchyConfig::coffee_lake(), 0x3399, 40, 90);
}

#[test]
fn far_completions_and_the_cycle_limit_match_reference() {
    // 700-cycle DRAM plus up to 90 cycles of jitter puts every miss beyond
    // the event-driven core's 512-cycle completion wheel, so completions
    // take the far-list path and long idle stretches end at each kind of
    // event: a far completion entering the wheel, the cycle limit, an
    // interrupt boundary, and loads stalled on two MSHRs.
    let mut hier = HierarchyConfig::coffee_lake();
    hier.memory_latency = 700;
    hier.memory_jitter = 90;
    let cfg = CpuConfig::coffee_lake().with_load_recording();
    let runs = run_differential(cfg, hier, 0x4A11, 40, 70);
    assert!(runs.iter().any(|r| r
        .loads
        .iter()
        .any(|l| l.complete_cycle - l.issue_cycle > 512)));

    let mut limited = cfg;
    limited.max_run_cycles = 777;
    let runs = run_differential(limited, hier, 0x4A12, 40, 70);
    assert!(runs.iter().any(|r| r.limit_hit) && runs.iter().any(|r| !r.limit_hit));

    let mut interrupted = cfg;
    interrupted.interrupt_interval = Some(333);
    interrupted.mshrs = 2;
    let runs = run_differential(interrupted, hier, 0x4A13, 40, 70);
    assert!(runs.iter().any(|r| r.interrupts > 0));
}
