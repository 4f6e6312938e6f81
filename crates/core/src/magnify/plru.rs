//! The tree-PLRU magnifier gadgets (paper §6.1 and §6.2, Figures 3–4).
//!
//! Both variants prepare one 4-way L1 set with lines `B, C, D, E` in the
//! exact Figure 3.1 state, then repeatedly walk an access pattern:
//!
//! * **P/A input** (§6.1): pattern `B,C,E,C,D,C`. If the racing gadget
//!   inserted `A`, the PLRU tree protects it forever and every other access
//!   misses; if not, the pattern fits the set and every access hits.
//! * **Reorder input** (§6.2): pattern `C,E,C,D,C,B`. The racing gadget
//!   touches *both* `A` and `B` — only their order differs. `A` before `B`
//!   leaves `A` protected (misses forever); `B` before `A` evicts `A` after
//!   one round (hits forever).
//!
//! The cycle difference grows linearly and indefinitely with the round
//! count, defeating any finite timer coarsening.

use crate::layout::Layout;
use crate::machine::Machine;
use racer_isa::{Asm, MemOperand, Program};
use racer_mem::Addr;

/// Which §6 input state the magnifier amplifies.
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub enum PlruInput {
    /// §6.1: A present vs absent (from a transient P/A racing gadget).
    PresenceAbsence,
    /// §6.2: A inserted before vs after B (from a reorder racing gadget).
    Reorder,
}

/// Driver for the PLRU magnifiers. Requires a machine whose L1 is 4-way
/// tree-PLRU (e.g. [`Machine::baseline`]).
#[derive(Clone, Debug)]
pub struct PlruMagnifier {
    layout: Layout,
    /// L1 set index the gadget lives in (default 5, clear of the
    /// sync/x-flag lines which map to set 0).
    pub set: usize,
    /// Pattern repetitions per measurement (default 1000 ⇒ ~12 µs of
    /// difference at 2 GHz, comfortably above a 5 µs timer).
    pub rounds: usize,
}

impl PlruMagnifier {
    /// A magnifier on L1 set 5 with 1000 rounds.
    pub fn new(layout: Layout) -> Self {
        PlruMagnifier {
            layout,
            set: 5,
            rounds: 1000,
        }
    }

    /// Use a specific set and round count.
    pub fn with(layout: Layout, set: usize, rounds: usize) -> Self {
        PlruMagnifier {
            layout,
            set,
            rounds,
        }
    }

    /// The five congruent lines `[A, B, C, D, E]` this gadget uses on `m`.
    pub fn lines(&self, m: &Machine) -> [Addr; 5] {
        let l1 = m.cpu().hierarchy().l1d();
        [
            self.layout.plru_line(l1, self.set, 0), // A
            self.layout.plru_line(l1, self.set, 1), // B
            self.layout.plru_line(l1, self.set, 2), // C
            self.layout.plru_line(l1, self.set, 3), // D
            self.layout.plru_line(l1, self.set, 4), // E
        ]
    }

    /// Line `A` — the protected line a racing gadget inserts.
    pub fn line_a(&self, m: &Machine) -> Addr {
        self.lines(m)[0]
    }

    /// Line `B` — the second raced line of the reorder variant.
    pub fn line_b(&self, m: &Machine) -> Addr {
        self.lines(m)[1]
    }

    /// Prepare the exact Figure 3.1 initial state: the set holds
    /// `[B, C, E, D]` (fill order chosen so the eviction candidate is `B`
    /// and, after `A` fills, the candidate becomes `E` — verified against
    /// the figure in `racer-mem`'s tree-PLRU tests). `A` is L2-warm but not
    /// L1-resident.
    pub fn prepare(&self, m: &mut Machine) {
        let [a, b, c, d, e] = self.lines(m);
        m.clear_l1_set(self.set);
        // Warm A below the L1 so its later racing-gadget fill is fast.
        m.warm(a);
        m.evict_from_l1(a);
        // Fill order B, C, E, D (ways 0..3) — the Figure 3.1 tree state.
        for addr in [b, c, e, d] {
            m.warm(addr);
        }
    }

    /// The magnifier program: `rounds` repetitions of the pattern as one
    /// dependent (masked) access chain, so out-of-order execution cannot
    /// reorder the pattern itself.
    pub fn program(&self, m: &Machine, input: PlruInput) -> Program {
        let [_, b, c, d, e] = self.lines(m);
        let pattern: [Addr; 6] = match input {
            PlruInput::PresenceAbsence => [b, c, e, c, d, c],
            PlruInput::Reorder => [c, e, c, d, c, b],
        };
        let mut asm = Asm::new();
        // Two registers suffice: renaming makes the WAW reuse free, while
        // the and→load→and chain keeps the accesses strictly ordered.
        let val = asm.reg();
        let mask = asm.reg();
        for _ in 0..self.rounds {
            for addr in pattern {
                asm.and(mask, val, 0i64);
                asm.load(val, MemOperand::base_disp(mask, addr.0 as i64));
            }
        }
        asm.halt();
        asm.assemble().expect("PLRU magnifier assembles")
    }

    /// Run the magnifier and return its cycle count — the quantity the
    /// attacker reads through a coarse timer.
    pub fn measure(&self, m: &mut Machine, input: PlruInput) -> u64 {
        let prog = self.program(m, input);
        m.run_cycles(&prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racer_mem::HitLevel;

    #[test]
    fn presence_of_a_costs_three_misses_per_round() {
        let mut m = Machine::baseline();
        let mag = PlruMagnifier::with(m.layout(), 5, 200);

        // Absent case.
        mag.prepare(&mut m);
        let absent = mag.measure(&mut m, PlruInput::PresenceAbsence);

        // Present case: the racing gadget's insert is emulated by one load.
        mag.prepare(&mut m);
        let a = mag.line_a(&m);
        m.warm(a);
        let present = mag.measure(&mut m, PlruInput::PresenceAbsence);

        let diff = present.saturating_sub(absent);
        // 3 misses/round × (L2 12 − L1 4) = 24 cycles/round expected.
        let per_round = diff as f64 / 200.0;
        assert!(
            (15.0..=35.0).contains(&per_round),
            "expected ~24 cycles/round of magnification, got {per_round:.1}"
        );
        // A must still be resident after the whole run (never evicted).
        assert_eq!(m.cpu().hierarchy().probe(a), HitLevel::L1);
    }

    #[test]
    fn magnification_scales_linearly_with_rounds() {
        let mut m = Machine::baseline();
        let diff_at = |m: &mut Machine, rounds: usize| {
            let mag = PlruMagnifier::with(m.layout(), 5, rounds);
            mag.prepare(m);
            let absent = mag.measure(m, PlruInput::PresenceAbsence);
            mag.prepare(m);
            let a = mag.line_a(m);
            m.warm(a);
            let present = mag.measure(m, PlruInput::PresenceAbsence);
            present.saturating_sub(absent)
        };
        let d100 = diff_at(&mut m, 100);
        let d400 = diff_at(&mut m, 400);
        let ratio = d400 as f64 / d100.max(1) as f64;
        assert!(
            (3.2..=4.8).contains(&ratio),
            "4× rounds should give ~4× difference: {d100} → {d400}"
        );
    }

    #[test]
    fn reorder_input_direction_flips_measurement() {
        let mut m = Machine::baseline();
        let mag = PlruMagnifier::with(m.layout(), 5, 200);
        let (a, b) = (mag.line_a(&m), mag.line_b(&m));

        // A before B (transmit 1): A survives, pattern misses forever.
        mag.prepare(&mut m);
        m.warm(a);
        m.warm(b);
        let a_first = mag.measure(&mut m, PlruInput::Reorder);

        // B before A (transmit 0): A is evicted, pattern settles to hits.
        mag.prepare(&mut m);
        m.warm(b);
        m.warm(a);
        let b_first = mag.measure(&mut m, PlruInput::Reorder);

        assert!(
            a_first > b_first + 2000,
            "reorder magnifier must separate the orders: a_first={a_first} b_first={b_first}"
        );
    }

    #[test]
    fn five_microsecond_timer_sees_the_difference() {
        use racer_time::{CoarseTimer, Timer};
        let mut m = Machine::baseline();
        // 1500 rounds ≈ 36000 cycles ≈ 18 µs of difference at 2 GHz.
        let mag = PlruMagnifier::with(m.layout(), 5, 1500);

        mag.prepare(&mut m);
        let absent_cycles = mag.measure(&mut m, PlruInput::PresenceAbsence);
        mag.prepare(&mut m);
        let a = mag.line_a(&m);
        m.warm(a);
        let present_cycles = mag.measure(&mut m, PlruInput::PresenceAbsence);

        let mut timer = CoarseTimer::browser_5us();
        let ns = |c: u64| c as f64 * 0.5;
        let absent_obs = timer.measure(0.0, ns(absent_cycles));
        let present_obs = timer.measure(0.0, ns(present_cycles));
        assert!(
            present_obs - absent_obs >= 10_000.0,
            "the coarse timer must see ≥2 ticks of difference: absent={absent_obs} present={present_obs}"
        );
    }

    #[test]
    fn prepare_is_idempotent_across_trials() {
        let mut m = Machine::baseline();
        let mag = PlruMagnifier::with(m.layout(), 5, 50);
        let mut absents = Vec::new();
        for _ in 0..3 {
            mag.prepare(&mut m);
            absents.push(mag.measure(&mut m, PlruInput::PresenceAbsence));
        }
        assert_eq!(absents[0], absents[1]);
        assert_eq!(absents[1], absents[2]);
    }
}
