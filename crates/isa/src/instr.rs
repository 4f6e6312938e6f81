//! Instruction forms, operands and functional-unit classes.

use crate::reg::Reg;
use std::fmt;

/// ALU operation kinds.
///
/// The latency-relevant split (paper §6.4 and §7.2, after Agner Fog's
/// tables) is: 1-cycle simple ops (`Add` … `Shr`), the 3-cycle pipelined
/// `Mul`, and the 13–14-cycle *non-fully-pipelined* `Div`.
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub enum AluOp {
    /// Wrapping 64-bit add (1 cycle).
    Add,
    /// Wrapping 64-bit subtract (1 cycle).
    Sub,
    /// Bitwise and (1 cycle).
    And,
    /// Bitwise or (1 cycle).
    Or,
    /// Bitwise xor (1 cycle).
    Xor,
    /// Logical shift left by `b & 63` (1 cycle).
    Shl,
    /// Logical shift right by `b & 63` (1 cycle).
    Shr,
    /// Wrapping 64-bit multiply (3 cycles, fully pipelined).
    Mul,
    /// 64-bit unsigned divide (13–14 cycles, **not** fully pipelined:
    /// 4-cycle reciprocal throughput, the contention the §6.4 magnifier
    /// exploits). Division by zero yields `u64::MAX`, mirroring a saturating
    /// hardware divider rather than trapping.
    Div,
}

impl AluOp {
    /// Evaluate the operation on two 64-bit values.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Mul => a.wrapping_mul(b),
            #[allow(clippy::manual_checked_ops)]
            AluOp::Div => {
                // Saturating divide-by-zero is deliberate hardware
                // semantics, not a checked_div candidate.
                if b == 0 {
                    u64::MAX
                } else {
                    a / b
                }
            }
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
        };
        f.write_str(s)
    }
}

/// Branch conditions (unsigned comparisons).
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub enum Cond {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b` (unsigned)
    Lt,
    /// `a >= b` (unsigned)
    Ge,
}

impl Cond {
    /// Evaluate the condition.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Ge => a >= b,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// A register or immediate source operand.
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub enum Operand {
    /// Register source.
    Reg(Reg),
    /// Immediate (sign-extended to 64 bits at evaluation).
    Imm(i64),
}

impl Operand {
    /// The register, if this operand is one.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v:#x}"),
        }
    }
}

/// An x86-flavoured memory operand: `base + index * scale + disp`.
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub struct MemOperand {
    /// Base register, if any.
    pub base: Option<Reg>,
    /// Index register, if any.
    pub index: Option<Reg>,
    /// Scale applied to the index register (typically 1 or 8).
    pub scale: u8,
    /// Constant displacement.
    pub disp: i64,
}

impl MemOperand {
    /// Absolute address `disp`.
    pub fn abs(disp: u64) -> Self {
        MemOperand {
            base: None,
            index: None,
            scale: 1,
            disp: disp as i64,
        }
    }

    /// `base + disp`.
    pub fn base_disp(base: Reg, disp: i64) -> Self {
        MemOperand {
            base: Some(base),
            index: None,
            scale: 1,
            disp,
        }
    }

    /// `base + index * scale + disp`.
    pub fn base_index(base: Reg, index: Reg, scale: u8, disp: i64) -> Self {
        MemOperand {
            base: Some(base),
            index: Some(index),
            scale,
            disp,
        }
    }

    /// Registers this operand reads.
    pub fn srcs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.base.iter().chain(self.index.iter()).copied()
    }

    /// Evaluate the effective address given a register file.
    pub fn eval(&self, regs: &[u64]) -> u64 {
        let base = self.base.map_or(0, |r| regs[r.index()]);
        let index = self.index.map_or(0, |r| regs[r.index()]);
        base.wrapping_add(index.wrapping_mul(self.scale as u64))
            .wrapping_add(self.disp as u64)
    }
}

impl fmt::Display for MemOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut first = true;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            first = false;
        }
        if let Some(i) = self.index {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{i}*{}", self.scale)?;
            first = false;
        }
        if self.disp != 0 || first {
            if first {
                write!(f, "{:#x}", self.disp)?;
            } else {
                write!(f, " + {:#x}", self.disp)?;
            }
        }
        write!(f, "]")
    }
}

/// Which class of functional unit executes an instruction (the CPU model
/// maps classes to ports and latencies).
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub enum FuClass {
    /// 1-cycle integer ALU.
    Alu,
    /// Pipelined multiplier.
    Mul,
    /// Non-fully-pipelined divider.
    Div,
    /// Load port (address generation + cache access).
    Load,
    /// Store port.
    Store,
    /// Branch unit.
    Branch,
    /// No functional unit (nop, fence, halt handled by the core).
    None,
}

/// A single instruction.
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub enum Instr {
    /// `dst = op(a, b)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
    },
    /// `dst = effective_address(mem)` — x86 `lea` (1-cycle ALU op; one of
    /// the paper's Figure 8 target operations).
    Lea {
        /// Destination register.
        dst: Reg,
        /// Address expression.
        mem: MemOperand,
    },
    /// `dst = memory[mem]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address expression.
        mem: MemOperand,
    },
    /// `memory[mem] = src`.
    Store {
        /// Value to store.
        src: Operand,
        /// Address expression.
        mem: MemOperand,
    },
    /// Software prefetch of `mem` (non-blocking, no architectural result).
    Prefetch {
        /// Address expression.
        mem: MemOperand,
        /// Non-temporal hint: insert at eviction-candidate priority
        /// (paper §6.3.1 footnote 7).
        nta: bool,
    },
    /// Flush `mem`'s line from the whole hierarchy (a `clflush` analogue —
    /// *not* available to the JavaScript threat model; used by baselines).
    Flush {
        /// Address expression.
        mem: MemOperand,
    },
    /// Conditional branch to instruction index `target` when
    /// `cond(a, b)` holds.
    Branch {
        /// Comparison condition.
        cond: Cond,
        /// Left comparison source.
        a: Reg,
        /// Right comparison source.
        b: Operand,
        /// Target instruction index (resolved by the assembler).
        target: usize,
    },
    /// Unconditional jump to instruction index `target`.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Serializing fence: drains the pipeline (baseline/test use only).
    Fence,
    /// Stop the simulation when committed.
    Halt,
    /// No operation.
    Nop,
}

impl Instr {
    /// Destination register, if the instruction writes one.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Instr::Alu { dst, .. } | Instr::Lea { dst, .. } | Instr::Load { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Source registers read by the instruction.
    pub fn srcs(&self) -> Vec<Reg> {
        let (regs, n) = self.srcs_fixed();
        regs[..n].to_vec()
    }

    /// Source registers without allocating: at most 3 for any instruction
    /// (store: value + base + index). The first `n` array entries are the
    /// sources, in the same order [`Instr::srcs`] reports them. This is the
    /// rename-stage fast path — dispatch runs once per dynamic instruction,
    /// so a `Vec` here would put an allocation on the simulator's hottest
    /// loop.
    pub fn srcs_fixed(&self) -> ([Reg; 3], usize) {
        let mut regs = [Reg::new(0); 3];
        let mut n = 0usize;
        let push = |r: Reg, regs: &mut [Reg; 3], n: &mut usize| {
            regs[*n] = r;
            *n += 1;
        };
        match self {
            Instr::Alu { a, b, .. } => {
                if let Some(r) = a.reg() {
                    push(r, &mut regs, &mut n);
                }
                if let Some(r) = b.reg() {
                    push(r, &mut regs, &mut n);
                }
            }
            Instr::Lea { mem, .. }
            | Instr::Load { mem, .. }
            | Instr::Prefetch { mem, .. }
            | Instr::Flush { mem } => {
                for r in mem.srcs() {
                    push(r, &mut regs, &mut n);
                }
            }
            Instr::Store { src, mem } => {
                if let Some(r) = src.reg() {
                    push(r, &mut regs, &mut n);
                }
                for r in mem.srcs() {
                    push(r, &mut regs, &mut n);
                }
            }
            Instr::Branch { a, b, .. } => {
                push(*a, &mut regs, &mut n);
                if let Some(r) = b.reg() {
                    push(r, &mut regs, &mut n);
                }
            }
            Instr::Jump { .. } | Instr::Fence | Instr::Halt | Instr::Nop => {}
        }
        (regs, n)
    }

    /// Functional-unit class executing this instruction.
    pub fn fu_class(&self) -> FuClass {
        match self {
            Instr::Alu { op: AluOp::Mul, .. } => FuClass::Mul,
            Instr::Alu { op: AluOp::Div, .. } => FuClass::Div,
            Instr::Alu { .. } | Instr::Lea { .. } => FuClass::Alu,
            Instr::Load { .. } | Instr::Prefetch { .. } | Instr::Flush { .. } => FuClass::Load,
            Instr::Store { .. } => FuClass::Store,
            Instr::Branch { .. } | Instr::Jump { .. } => FuClass::Branch,
            Instr::Fence | Instr::Halt | Instr::Nop => FuClass::None,
        }
    }

    /// Whether this is a control-flow instruction.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Branch { .. } | Instr::Jump { .. } | Instr::Halt
        )
    }

    /// Whether this instruction touches the data-cache hierarchy.
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. } | Instr::Store { .. } | Instr::Prefetch { .. } | Instr::Flush { .. }
        )
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { op, dst, a, b } => write!(f, "{op} {dst}, {a}, {b}"),
            Instr::Lea { dst, mem } => write!(f, "lea {dst}, {mem}"),
            Instr::Load { dst, mem } => write!(f, "load {dst}, {mem}"),
            Instr::Store { src, mem } => write!(f, "store {mem}, {src}"),
            Instr::Prefetch { mem, nta } => {
                write!(f, "prefetch{} {mem}", if *nta { "nta" } else { "" })
            }
            Instr::Flush { mem } => write!(f, "flush {mem}"),
            Instr::Branch { cond, a, b, target } => write!(f, "b{cond} {a}, {b}, @{target}"),
            Instr::Jump { target } => write!(f, "jmp @{target}"),
            Instr::Fence => f.write_str("fence"),
            Instr::Halt => f.write_str("halt"),
            Instr::Nop => f.write_str("nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Sub.eval(2, 3), u64::MAX);
        assert_eq!(AluOp::Mul.eval(6, 7), 42);
        assert_eq!(AluOp::Div.eval(42, 6), 7);
        assert_eq!(
            AluOp::Div.eval(42, 0),
            u64::MAX,
            "division by zero saturates"
        );
        assert_eq!(AluOp::Shl.eval(1, 65), 2, "shift counts wrap at 64");
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Shr.eval(8, 2), 2);
    }

    #[test]
    fn cond_semantics() {
        assert!(Cond::Eq.eval(1, 1));
        assert!(Cond::Ne.eval(1, 2));
        assert!(Cond::Lt.eval(1, 2));
        assert!(!Cond::Lt.eval(u64::MAX, 0), "comparisons are unsigned");
        assert!(Cond::Ge.eval(2, 2));
    }

    #[test]
    fn mem_operand_eval() {
        let mut regs = vec![0u64; 8];
        regs[1] = 100;
        regs[2] = 3;
        let m = MemOperand::base_index(Reg::new(1), Reg::new(2), 8, 4);
        assert_eq!(m.eval(&regs), 100 + 3 * 8 + 4);
        assert_eq!(MemOperand::abs(0x1000).eval(&regs), 0x1000);
        assert_eq!(MemOperand::base_disp(Reg::new(1), -4).eval(&regs), 96);
    }

    #[test]
    fn srcs_and_dst_extraction() {
        let r = |i| Reg::new(i);
        let i = Instr::Alu {
            op: AluOp::Add,
            dst: r(3),
            a: r(1).into(),
            b: Operand::Imm(5),
        };
        assert_eq!(i.dst(), Some(r(3)));
        assert_eq!(i.srcs(), vec![r(1)]);

        let ld = Instr::Load {
            dst: r(4),
            mem: MemOperand::base_index(r(1), r(2), 1, 0),
        };
        assert_eq!(ld.dst(), Some(r(4)));
        assert_eq!(ld.srcs(), vec![r(1), r(2)]);

        let st = Instr::Store {
            src: r(5).into(),
            mem: MemOperand::base_disp(r(6), 0),
        };
        assert_eq!(st.dst(), None);
        assert_eq!(st.srcs(), vec![r(5), r(6)]);

        let br = Instr::Branch {
            cond: Cond::Lt,
            a: r(7),
            b: Operand::Imm(2),
            target: 0,
        };
        assert_eq!(br.srcs(), vec![r(7)]);
    }

    #[test]
    fn fu_classes() {
        let r = |i| Reg::new(i);
        let mul = Instr::Alu {
            op: AluOp::Mul,
            dst: r(0),
            a: r(1).into(),
            b: r(2).into(),
        };
        assert_eq!(mul.fu_class(), FuClass::Mul);
        let div = Instr::Alu {
            op: AluOp::Div,
            dst: r(0),
            a: r(1).into(),
            b: r(2).into(),
        };
        assert_eq!(div.fu_class(), FuClass::Div);
        assert_eq!(Instr::Nop.fu_class(), FuClass::None);
        assert_eq!(
            Instr::Lea {
                dst: r(0),
                mem: MemOperand::abs(0)
            }
            .fu_class(),
            FuClass::Alu
        );
        assert_eq!(
            Instr::Prefetch {
                mem: MemOperand::abs(0),
                nta: false
            }
            .fu_class(),
            FuClass::Load
        );
    }

    #[test]
    fn display_forms() {
        let r = |i| Reg::new(i);
        let i = Instr::Alu {
            op: AluOp::Add,
            dst: r(3),
            a: r(1).into(),
            b: Operand::Imm(5),
        };
        assert_eq!(i.to_string(), "add r3, r1, 0x5");
        let ld = Instr::Load {
            dst: r(4),
            mem: MemOperand::base_index(r(1), r(2), 8, 16),
        };
        assert_eq!(ld.to_string(), "load r4, [r1 + r2*8 + 0x10]");
        assert_eq!(Instr::Halt.to_string(), "halt");
    }
}
