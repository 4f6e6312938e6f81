//! Path construction (paper §4).
//!
//! A **path** is an instruction sequence with no external data dependences,
//! eligible to execute in parallel with other paths on an out-of-order core.
//! Racing gadgets need three properties, all provided here:
//!
//! 1. **Synchronization** (§4.1): every path's first instruction depends on
//!    one shared cache-missing load (the *head*), so all instructions reach
//!    the backend before any path starts executing — see [`emit_sync_head`].
//! 2. **Expression embedding** (§4.2): the *target expression* is wrapped in
//!    a pre-extension (inputs derived from the head) and a post-extension
//!    (all outputs folded into a single *terminator* register with an
//!    attacker-known value) — [`PathSpec::emit`] maintains the invariant
//!    that the terminator always holds 0, so it can address an
//!    attacker-chosen probe line or feed a branch condition.
//! 3. **Known reference latency** (§5's `path_b`): [`PathSpec::ideal_latency`]
//!    predicts a path's critical-path execution time so reference paths of
//!    chosen duration can be generated.

use racer_cpu::Latencies;
use racer_isa::{AluOp, Asm, MemOperand, Reg};
use racer_mem::Addr;

/// Emit the §4.1 synchronization head: a load of `sync` (which the attack
/// driver flushes beforehand) whose value is folded to zero. Returns the
/// zero-valued seed register every path hangs off.
pub fn emit_sync_head(asm: &mut Asm, sync: Addr) -> Reg {
    let raw = asm.reg();
    asm.load(raw, MemOperand::abs(sync.0));
    let seed = asm.reg();
    asm.and(seed, raw, 0i64); // seed = 0, data-dependent on the slow load
    seed
}

/// A recipe for one dependence chain — the paper's measurable unit.
///
/// Every specification's emitted code maintains the invariant that the
/// chain register holds **zero** at every step (ops use identity
/// immediates; loads are masked), so the terminator can directly index an
/// attacker-chosen address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathSpec {
    /// `count` chained ALU operations of kind `op` (value-preserving:
    /// `add r,r,0` / `mul r,r,1` / `div r,r,1` / …).
    OpChain {
        /// Operation kind.
        op: AluOp,
        /// Chain length.
        count: usize,
    },
    /// `count` chained `lea` operations (1-cycle address arithmetic; one of
    /// Figure 8's target operations).
    LeaChain {
        /// Chain length.
        count: usize,
    },
    /// A dependent pointer-style chase through the given addresses; each
    /// access is masked so the chain value stays zero.
    LoadChain {
        /// Addresses visited, in order.
        addrs: Vec<u64>,
    },
    /// Dereference the pointer stored at `ptr`: one load fetches the
    /// subject address from attacker memory, a second loads through it.
    /// Lets one program measure *data-selected* subjects (the address can
    /// change between runs without changing the code — and therefore
    /// without retraining branch predictors).
    IndirectLoad {
        /// Address of the attacker-memory cell holding the subject address.
        ptr: u64,
    },
    /// Concatenation: the chains run back-to-back as one longer chain.
    Seq(Vec<PathSpec>),
}

impl PathSpec {
    /// `count` chained ops of `op`.
    pub fn op_chain(op: AluOp, count: usize) -> Self {
        PathSpec::OpChain { op, count }
    }

    /// `count` chained `lea`s.
    pub fn lea_chain(count: usize) -> Self {
        PathSpec::LeaChain { count }
    }

    /// A dependent load chain through `addrs`.
    pub fn load_chain(addrs: impl IntoIterator<Item = Addr>) -> Self {
        PathSpec::LoadChain {
            addrs: addrs.into_iter().map(|a| a.0).collect(),
        }
    }

    /// This chain followed by `next`.
    pub fn then(self, next: PathSpec) -> Self {
        match self {
            PathSpec::Seq(mut v) => {
                v.push(next);
                PathSpec::Seq(v)
            }
            first => PathSpec::Seq(vec![first, next]),
        }
    }

    /// Emit the chain seeded by `seed` (which must hold 0); returns the
    /// terminator register, which again holds 0.
    pub fn emit(&self, asm: &mut Asm, seed: Reg) -> Reg {
        match self {
            PathSpec::OpChain { op, count } => {
                if *count == 0 {
                    return seed;
                }
                let identity: i64 = match op {
                    AluOp::Mul | AluOp::Div => 1,
                    _ => 0,
                };
                // One register suffices: register renaming makes the reuse
                // free, and the chain is serial by construction anyway.
                let r = asm.reg();
                asm.alu(*op, r, seed, identity);
                for _ in 1..*count {
                    asm.alu(*op, r, r, identity);
                }
                r
            }
            PathSpec::LeaChain { count } => {
                if *count == 0 {
                    return seed;
                }
                let r = asm.reg();
                asm.lea(r, MemOperand::base_disp(seed, 0));
                for _ in 1..*count {
                    asm.lea(r, MemOperand::base_disp(r, 0));
                }
                r
            }
            PathSpec::LoadChain { addrs } => {
                if addrs.is_empty() {
                    return seed;
                }
                let val = asm.reg();
                let mask = asm.reg();
                let mut prev = seed;
                for &a in addrs {
                    asm.load(val, MemOperand::base_disp(prev, a as i64));
                    asm.and(mask, val, 0i64);
                    prev = mask;
                }
                prev
            }
            PathSpec::IndirectLoad { ptr } => {
                let p = asm.reg();
                asm.load(p, MemOperand::base_disp(seed, *ptr as i64));
                let v = asm.reg();
                asm.load(v, MemOperand::base_disp(p, 0));
                let mask = asm.reg();
                asm.and(mask, v, 0i64);
                mask
            }
            PathSpec::Seq(parts) => {
                let mut prev = seed;
                for p in parts {
                    prev = p.emit(asm, prev);
                }
                prev
            }
        }
    }

    /// Number of "operations" in the chain (the x-axis unit of Figures 8–9).
    pub fn op_count(&self) -> usize {
        match self {
            PathSpec::OpChain { count, .. } | PathSpec::LeaChain { count } => *count,
            PathSpec::LoadChain { addrs } => addrs.len(),
            PathSpec::IndirectLoad { .. } => 2,
            PathSpec::Seq(parts) => parts.iter().map(PathSpec::op_count).sum(),
        }
    }

    /// Idealized critical-path latency in cycles, assuming every load costs
    /// `load_latency` (caller picks L1/L2/DRAM as appropriate).
    ///
    /// `div` chains are value-stable at 0/1 in emitted code, which makes the
    /// operand-parity term constant: `0 ^ 1 = 1`, so each divide costs
    /// `div_min + 1`.
    pub fn ideal_latency(&self, lat: &Latencies, load_latency: u64) -> u64 {
        match self {
            PathSpec::OpChain { op, count } => {
                let per = match op {
                    AluOp::Mul => lat.mul,
                    AluOp::Div => lat.div_min + 1,
                    _ => lat.alu,
                };
                per * *count as u64
            }
            PathSpec::LeaChain { count } => lat.alu * *count as u64,
            PathSpec::LoadChain { addrs } => (load_latency + lat.alu) * addrs.len() as u64,
            PathSpec::IndirectLoad { .. } => 2 * load_latency + lat.alu,
            PathSpec::Seq(parts) => parts
                .iter()
                .map(|p| p.ideal_latency(lat, load_latency))
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racer_cpu::{Backend, Cpu, CpuConfig};
    use racer_isa::Asm;
    use racer_mem::HierarchyConfig;

    fn cpu() -> Cpu {
        Cpu::new(CpuConfig::coffee_lake(), HierarchyConfig::coffee_lake())
    }

    /// Emitted chains preserve the zero-value invariant.
    #[test]
    fn terminator_value_is_zero() {
        for spec in [
            PathSpec::op_chain(AluOp::Add, 9),
            PathSpec::op_chain(AluOp::Mul, 5),
            PathSpec::op_chain(AluOp::Div, 4),
            PathSpec::lea_chain(6),
            PathSpec::load_chain([Addr(0x9000), Addr(0xA000)]),
            PathSpec::op_chain(AluOp::Add, 2).then(PathSpec::op_chain(AluOp::Mul, 2)),
        ] {
            let mut asm = Asm::new();
            let seed = emit_sync_head(&mut asm, Addr(0x100));
            let term = spec.emit(&mut asm, seed);
            // Expose the terminator by storing it.
            asm.store(term, MemOperand::abs(0x8));
            asm.halt();
            let prog = asm.assemble().unwrap();
            let mut c = cpu();
            c.mem_mut().write(0x100, 0xDEAD_BEEF); // sync value is masked away
            c.mem_mut().write(0x9000, 42);
            c.run_one(&prog, Backend::EventDriven);
            assert_eq!(c.mem().read(0x8), 0, "terminator of {spec:?} must be 0");
        }
    }

    /// Measured chain time matches `ideal_latency` (chains serialize).
    #[test]
    fn measured_latency_tracks_ideal() {
        let lat = Latencies::default();
        for (spec, slack) in [
            (PathSpec::op_chain(AluOp::Add, 30), 3u64),
            (PathSpec::op_chain(AluOp::Mul, 12), 3),
            (PathSpec::op_chain(AluOp::Div, 6), 3),
            (PathSpec::lea_chain(25), 3),
        ] {
            let measure = |spec: &PathSpec| {
                let mut asm = Asm::new();
                let seed = asm.reg();
                let _ = spec.emit(&mut asm, seed);
                asm.halt();
                let mut c = cpu();
                c.run_one(&asm.assemble().unwrap(), Backend::EventDriven)
                    .cycles
            };
            let base = {
                let mut asm = Asm::new();
                asm.halt();
                let mut c = cpu();
                c.run_one(&asm.assemble().unwrap(), Backend::EventDriven)
                    .cycles
            };
            let measured = measure(&spec) - base;
            let ideal = spec.ideal_latency(&lat, 4);
            assert!(
                measured.abs_diff(ideal) <= slack + ideal / 10,
                "{spec:?}: measured {measured} vs ideal {ideal}"
            );
        }
    }

    /// The sync head makes two paths start together: neither path's first
    /// instruction executes before the head load returns.
    #[test]
    fn sync_head_aligns_path_starts() {
        let mut c = Cpu::new(
            CpuConfig::coffee_lake().with_load_recording(),
            HierarchyConfig::coffee_lake(),
        );
        let mut asm = Asm::new();
        let seed = emit_sync_head(&mut asm, Addr(0x4_0000));
        // Two one-load paths hanging off the seed.
        let a = PathSpec::load_chain([Addr(0x5_0000)]).emit(&mut asm, seed);
        let b = PathSpec::load_chain([Addr(0x6_0000)]).emit(&mut asm, seed);
        let join = asm.reg();
        asm.add(join, a, b);
        asm.halt();
        let prog = asm.assemble().unwrap();
        let r = c.run_one(&prog, Backend::EventDriven);

        let head = r
            .loads
            .iter()
            .find(|l| l.addr == 0x4_0000)
            .expect("head load");
        let la = r
            .loads
            .iter()
            .find(|l| l.addr == 0x5_0000)
            .expect("path A load");
        let lb = r
            .loads
            .iter()
            .find(|l| l.addr == 0x6_0000)
            .expect("path B load");
        assert!(
            la.issue_cycle >= head.complete_cycle,
            "path A must wait for the head"
        );
        assert!(
            lb.issue_cycle >= head.complete_cycle,
            "path B must wait for the head"
        );
        assert!(
            la.issue_cycle.abs_diff(lb.issue_cycle) <= 1,
            "synchronized paths start within an issue slot of each other"
        );
    }

    /// Code Listing 1 reproduced with PathSpecs: two synchronized paths run
    /// concurrently (total ≈ max, not sum).
    #[test]
    fn listing1_paths_execute_simultaneously() {
        let chase = |base: u64| PathSpec::load_chain((0..4).map(|i| Addr(base + i * 0x1_0000)));
        let run = |two_paths: bool| {
            let mut asm = Asm::new();
            let seed = emit_sync_head(&mut asm, Addr(0x9_0000));
            chase(0xA0_0000).emit(&mut asm, seed);
            if two_paths {
                chase(0xB0_0000).emit(&mut asm, seed);
            }
            asm.halt();
            let mut c = cpu();
            c.run_one(&asm.assemble().unwrap(), Backend::EventDriven)
                .cycles
        };
        let one = run(false);
        let two = run(true);
        assert!(
            two < one + one / 4,
            "second path must overlap the first: one={one} two={two}"
        );
    }

    #[test]
    fn op_count_sums_through_seq() {
        let spec = PathSpec::op_chain(AluOp::Add, 3)
            .then(PathSpec::lea_chain(2))
            .then(PathSpec::load_chain([Addr(0)]));
        assert_eq!(spec.op_count(), 6);
    }

    #[test]
    fn then_flattens_sequences() {
        let s = PathSpec::op_chain(AluOp::Add, 1)
            .then(PathSpec::op_chain(AluOp::Add, 2))
            .then(PathSpec::op_chain(AluOp::Add, 3));
        match s {
            PathSpec::Seq(v) => assert_eq!(v.len(), 3),
            other => panic!("expected Seq, got {other:?}"),
        }
    }
}
