//! Pre-decoded µop tables.
//!
//! [`Instr`] is the architectural, human-facing instruction form; every
//! consumer that used to pattern-match it per *dynamic* instruction
//! (dispatch, issue, commit, the interpreter) re-derived the same static
//! facts millions of times: the functional-unit class, the source-register
//! list, the destination, the branch target, the memory-operand shape.
//! [`DecodedInstr::decode`] computes those facts once per *static*
//! instruction, and a program's dense table indexed by pc is built once
//! per program: [`Program::decoded`] decodes on first use and every
//! consumer — both `racer-cpu` schedulers and the [`interp`](crate::interp)
//! interpreter — reads that one table, shared by the program's clones, so
//! re-running or forking a program never decodes it again.
//! [`DecodedProgram::decode`] builds a fresh, unshared table (for callers
//! that want to time or inspect decoding itself).
//!
//! Two representation choices matter for the hot paths:
//!
//! * **Dense FU-class indices** ([`FuClass::index`]) instead of the enum,
//!   so schedulers index per-class arrays without a match.
//! * **Slot-mapped operands** ([`SrcRef`]): every register operand is
//!   resolved at decode time to its position in the instruction's source
//!   list (the same order [`Instr::srcs_fixed`] reports). A scheduler that
//!   captured source values in that order reads an operand by indexing,
//!   instead of walking the list comparing register names.
//!
//! Decoding is a pure re-encoding: the `decode_agrees_with_instr_accessors`
//! test pins every decoded field to the corresponding [`Instr`] accessor,
//! and the 420-program differential suite in `racer-cpu` runs the decoded
//! event-driven scheduler against the `Instr`-matching reference scheduler
//! cycle-exactly.

use crate::instr::{AluOp, Cond, FuClass, Instr, MemOperand, Operand};
use crate::program::Program;
use crate::reg::Reg;

impl FuClass {
    /// Number of distinct functional-unit classes.
    pub const COUNT: usize = 7;

    /// Dense index for per-class tables (ready queues, port counters).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            FuClass::Alu => 0,
            FuClass::Mul => 1,
            FuClass::Div => 2,
            FuClass::Load => 3,
            FuClass::Store => 4,
            FuClass::Branch => 5,
            FuClass::None => 6,
        }
    }
}

/// A source operand resolved at decode time: either the index of a register
/// in the instruction's source list, or an immediate already extended to
/// 64 bits.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub enum SrcRef {
    /// `slot(i)`: the value of the `i`-th source register (the order of
    /// [`DecodedInstr::srcs`] / [`Instr::srcs_fixed`]).
    Slot(u8),
    /// Immediate value (sign-extended at decode).
    Imm(u64),
}

/// A memory operand with its registers resolved to source slots.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub struct DecodedMem {
    /// Source slot of the base register, if any.
    pub base: Option<u8>,
    /// Source slot of the index register, if any.
    pub index: Option<u8>,
    /// Scale applied to the index register.
    pub scale: u8,
    /// Constant displacement.
    pub disp: i64,
}

impl DecodedMem {
    /// Effective address given the instruction's source values (indexed by
    /// slot, in [`DecodedInstr::srcs`] order).
    #[inline]
    pub fn eval(&self, src: impl Fn(u8) -> u64) -> u64 {
        let base = self.base.map_or(0, &src);
        let index = self.index.map_or(0, &src);
        base.wrapping_add(index.wrapping_mul(self.scale as u64))
            .wrapping_add(self.disp as u64)
    }
}

/// The operation of a decoded instruction, with operands slot-mapped.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub enum DecodedOp {
    /// ALU operation (including `Mul`/`Div`, whose FU class differs).
    Alu {
        /// Operation.
        op: AluOp,
        /// First source.
        a: SrcRef,
        /// Second source.
        b: SrcRef,
    },
    /// Address computation.
    Lea(DecodedMem),
    /// Demand load.
    Load(DecodedMem),
    /// Store of `src` to `mem`.
    Store {
        /// Value to store.
        src: SrcRef,
        /// Address expression.
        mem: DecodedMem,
    },
    /// Software prefetch (`nta`: non-temporal hint).
    Prefetch {
        /// Address expression.
        mem: DecodedMem,
        /// Non-temporal hint.
        nta: bool,
    },
    /// Line flush.
    Flush(DecodedMem),
    /// Conditional branch; `a` is always source slot 0.
    Branch {
        /// Comparison condition.
        cond: Cond,
        /// Right comparison source.
        b: SrcRef,
        /// Target instruction index.
        target: u32,
    },
    /// Unconditional jump.
    Jump {
        /// Target instruction index.
        target: u32,
    },
    /// Serializing fence.
    Fence,
    /// Stop at commit.
    Halt,
    /// No operation.
    Nop,
}

/// One pre-decoded instruction: the operation plus every static fact the
/// pipeline stages used to recompute per dynamic instance.
#[derive(Copy, Clone, Debug)]
pub struct DecodedInstr {
    /// Slot-mapped operation.
    pub op: DecodedOp,
    /// Dense functional-unit class index ([`FuClass::index`]).
    pub cls: u8,
    /// Number of live entries in [`DecodedInstr::srcs`].
    pub nsrcs: u8,
    /// Source registers, in [`Instr::srcs_fixed`] order.
    pub srcs: [Reg; 3],
    /// Destination register, if the instruction writes one.
    pub dst: Option<Reg>,
    /// Whether this is a control-flow instruction.
    pub is_control: bool,
    /// Whether this instruction touches the data-cache hierarchy.
    pub is_memory: bool,
}

impl DecodedInstr {
    /// Decode one instruction.
    pub fn decode(instr: &Instr) -> Self {
        let (srcs, nsrcs) = instr.srcs_fixed();
        // Operand → slot mapping mirrors `srcs_fixed`'s push order exactly:
        // each register operand consumes the next slot.
        let mut next = 0u8;
        let slot = |o: Operand, next: &mut u8| -> SrcRef {
            match o {
                Operand::Reg(_) => {
                    let s = SrcRef::Slot(*next);
                    *next += 1;
                    s
                }
                Operand::Imm(v) => SrcRef::Imm(v as u64),
            }
        };
        let mem_slot = |m: &MemOperand, next: &mut u8| -> DecodedMem {
            let base = m.base.map(|_| {
                let s = *next;
                *next += 1;
                s
            });
            let index = m.index.map(|_| {
                let s = *next;
                *next += 1;
                s
            });
            DecodedMem {
                base,
                index,
                scale: m.scale,
                disp: m.disp,
            }
        };
        let op = match *instr {
            Instr::Alu { op, a, b, .. } => {
                let a = slot(a, &mut next);
                let b = slot(b, &mut next);
                DecodedOp::Alu { op, a, b }
            }
            Instr::Lea { ref mem, .. } => DecodedOp::Lea(mem_slot(mem, &mut next)),
            Instr::Load { ref mem, .. } => DecodedOp::Load(mem_slot(mem, &mut next)),
            Instr::Store { src, ref mem } => {
                let src = slot(src, &mut next);
                DecodedOp::Store {
                    src,
                    mem: mem_slot(mem, &mut next),
                }
            }
            Instr::Prefetch { ref mem, nta } => DecodedOp::Prefetch {
                mem: mem_slot(mem, &mut next),
                nta,
            },
            Instr::Flush { ref mem } => DecodedOp::Flush(mem_slot(mem, &mut next)),
            Instr::Branch {
                cond, b, target, ..
            } => {
                next += 1; // `a` is always a register: slot 0.
                DecodedOp::Branch {
                    cond,
                    b: slot(b, &mut next),
                    target: target as u32,
                }
            }
            Instr::Jump { target } => DecodedOp::Jump {
                target: target as u32,
            },
            Instr::Fence => DecodedOp::Fence,
            Instr::Halt => DecodedOp::Halt,
            Instr::Nop => DecodedOp::Nop,
        };
        debug_assert_eq!(next as usize, nsrcs, "slot mapping must cover all sources");
        DecodedInstr {
            op,
            cls: instr.fu_class().index() as u8,
            nsrcs: nsrcs as u8,
            srcs,
            dst: instr.dst(),
            is_control: instr.is_control(),
            is_memory: instr.is_memory(),
        }
    }
}

/// A [`Program`] decoded into a dense µop table, indexed by pc — a
/// fresh table of its own. Execution reads the program's shared table
/// ([`Program::decoded`]) instead.
#[derive(Clone, Debug)]
pub struct DecodedProgram {
    instrs: Vec<DecodedInstr>,
}

impl DecodedProgram {
    /// Decode every static instruction of `prog` (always decodes; never
    /// reads or fills the program's shared table).
    pub fn decode(prog: &Program) -> Self {
        DecodedProgram {
            instrs: prog.instrs().iter().map(DecodedInstr::decode).collect(),
        }
    }

    /// The decoded instructions, in program order.
    pub fn instrs(&self) -> &[DecodedInstr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the table is empty (never true for a validated program).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

impl std::ops::Index<usize> for DecodedProgram {
    type Output = DecodedInstr;
    #[inline]
    fn index(&self, pc: usize) -> &DecodedInstr {
        &self.instrs[pc]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, Cond, MemOperand, Operand};

    fn r(i: usize) -> Reg {
        Reg::new(i)
    }

    /// Every instruction form the ISA can express, for exhaustive checks.
    fn exhaustive_forms() -> Vec<Instr> {
        let mems = [
            MemOperand::abs(0x40),
            MemOperand::base_disp(r(1), -8),
            MemOperand::base_index(r(2), r(3), 8, 16),
        ];
        let mut forms = vec![
            Instr::Fence,
            Instr::Halt,
            Instr::Nop,
            Instr::Jump { target: 0 },
        ];
        for op in [
            AluOp::Add,
            AluOp::Sub,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Shl,
            AluOp::Shr,
            AluOp::Mul,
            AluOp::Div,
        ] {
            for a in [Operand::Reg(r(1)), Operand::Imm(-3)] {
                for b in [Operand::Reg(r(2)), Operand::Reg(r(1)), Operand::Imm(7)] {
                    forms.push(Instr::Alu {
                        op,
                        dst: r(4),
                        a,
                        b,
                    });
                }
            }
        }
        for mem in mems {
            forms.push(Instr::Lea { dst: r(5), mem });
            forms.push(Instr::Load { dst: r(5), mem });
            forms.push(Instr::Prefetch { mem, nta: false });
            forms.push(Instr::Prefetch { mem, nta: true });
            forms.push(Instr::Flush { mem });
            for src in [Operand::Reg(r(6)), Operand::Imm(1)] {
                forms.push(Instr::Store { src, mem });
            }
        }
        for b in [Operand::Reg(r(2)), Operand::Imm(0)] {
            forms.push(Instr::Branch {
                cond: Cond::Lt,
                a: r(1),
                b,
                target: 0,
            });
        }
        forms
    }

    #[test]
    fn decode_agrees_with_instr_accessors() {
        for instr in exhaustive_forms() {
            let d = DecodedInstr::decode(&instr);
            assert_eq!(d.dst, instr.dst(), "{instr}");
            assert_eq!(d.cls as usize, instr.fu_class().index(), "{instr}");
            assert_eq!(d.is_control, instr.is_control(), "{instr}");
            assert_eq!(d.is_memory, instr.is_memory(), "{instr}");
            let (srcs, n) = instr.srcs_fixed();
            assert_eq!(d.nsrcs as usize, n, "{instr}");
            assert_eq!(&d.srcs[..n], &srcs[..n], "{instr}");
        }
    }

    /// Slot references must name the register the original operand held,
    /// and immediates must carry the sign-extended value.
    #[test]
    fn slot_mapping_resolves_to_the_right_registers() {
        for instr in exhaustive_forms() {
            let d = DecodedInstr::decode(&instr);
            let reg_of = |s: SrcRef| match s {
                SrcRef::Slot(i) => Operand::Reg(d.srcs[i as usize]),
                SrcRef::Imm(v) => Operand::Imm(v as i64),
            };
            match (instr, d.op) {
                (Instr::Alu { a, b, .. }, DecodedOp::Alu { a: da, b: db, .. }) => {
                    assert_eq!(reg_of(da), a);
                    assert_eq!(reg_of(db), b);
                }
                (Instr::Store { src, mem }, DecodedOp::Store { src: ds, mem: dm }) => {
                    assert_eq!(reg_of(ds), src);
                    assert_eq!(dm.base.map(|i| d.srcs[i as usize]), mem.base);
                    assert_eq!(dm.index.map(|i| d.srcs[i as usize]), mem.index);
                    assert_eq!((dm.scale, dm.disp), (mem.scale, mem.disp));
                }
                (Instr::Load { mem, .. }, DecodedOp::Load(dm))
                | (Instr::Lea { mem, .. }, DecodedOp::Lea(dm))
                | (Instr::Prefetch { mem, .. }, DecodedOp::Prefetch { mem: dm, .. })
                | (Instr::Flush { mem }, DecodedOp::Flush(dm)) => {
                    assert_eq!(dm.base.map(|i| d.srcs[i as usize]), mem.base);
                    assert_eq!(dm.index.map(|i| d.srcs[i as usize]), mem.index);
                    assert_eq!((dm.scale, dm.disp), (mem.scale, mem.disp));
                }
                (
                    Instr::Branch { a, b, target, .. },
                    DecodedOp::Branch {
                        b: db, target: dt, ..
                    },
                ) => {
                    assert_eq!(d.srcs[0], a);
                    assert_eq!(reg_of(db), b);
                    assert_eq!(dt as usize, target);
                }
                (Instr::Jump { target }, DecodedOp::Jump { target: dt }) => {
                    assert_eq!(dt as usize, target);
                }
                (Instr::Fence, DecodedOp::Fence)
                | (Instr::Halt, DecodedOp::Halt)
                | (Instr::Nop, DecodedOp::Nop) => {}
                (i, o) => panic!("decode shape mismatch: {i} → {o:?}"),
            }
        }
    }

    #[test]
    fn decoded_mem_eval_matches_mem_operand_eval() {
        let mut regs = vec![0u64; crate::reg::NUM_REGS];
        regs[1] = 100;
        regs[2] = 3;
        let m = MemOperand::base_index(r(1), r(2), 8, 4);
        let instr = Instr::Load { dst: r(5), mem: m };
        let d = DecodedInstr::decode(&instr);
        let DecodedOp::Load(dm) = d.op else {
            panic!("not a load")
        };
        let by_slot = dm.eval(|s| regs[d.srcs[s as usize].index()]);
        assert_eq!(by_slot, m.eval(&regs));
    }

    #[test]
    fn decode_program_round_trip() {
        let p = Program::from_instrs(vec![
            Instr::Alu {
                op: AluOp::Add,
                dst: r(0),
                a: Operand::Imm(1),
                b: Operand::Imm(2),
            },
            Instr::Jump { target: 2 },
            Instr::Halt,
        ])
        .unwrap();
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert!(matches!(d[2].op, DecodedOp::Halt));
        // The program's shared table holds the same µops.
        let shared = p.decoded();
        assert_eq!(shared.len(), 3);
        for (a, b) in d.instrs().iter().zip(shared) {
            assert_eq!((a.op, a.cls, a.dst), (b.op, b.cls, b.dst));
        }
    }
}
