//! First-round AES-style key recovery with an ILP-race timer — the classic
//! cache attack the paper's §2.1 lists among those "requiring timing
//! information", resurrected without any fine-grained timer.
//!
//! Victim model: a table lookup indexed by `plaintext ⊕ key` (the first
//! round of T-table AES). The table spans 16 cache lines, so the accessed
//! *line* reveals the high nibble of `p ⊕ k`. The attacker primes the
//! candidate L1 sets with its own congruent lines, triggers the victim,
//! then probes each prime line — deciding L1-hit vs miss (a 4-vs-12-cycle
//! difference!) with a transient P/A racing gadget instead of a timer.
//!
//! The probe uses [`PathSpec::IndirectLoad`](crate::path::PathSpec::IndirectLoad): the subject address lives in
//! attacker memory, so a *single* program serves every probe. Its branch is
//! trained against a dummy subject and detection then measures the real
//! one — no per-line retraining, and training never touches primed state.

use crate::attacks::probe::L1Probe;
use crate::layout::Layout;
use crate::machine::Machine;
use racer_isa::{Asm, MemOperand, Program};
use racer_mem::Addr;

/// Result of one key-nibble recovery.
#[derive(Clone, Debug)]
pub struct AesRecovery {
    /// The plaintext high nibbles used.
    pub plaintexts: Vec<u8>,
    /// The table line observed per plaintext (None = no line detected).
    pub observed_lines: Vec<Option<u8>>,
    /// The recovered high nibble of the key byte (majority vote).
    pub key_nibble: Option<u8>,
}

/// Driver for the AES-style recovery.
#[derive(Clone, Debug)]
pub struct AesAttack {
    layout: Layout,
    /// Reference-path ADD count separating an L1-hit probe body (~10
    /// cycles: pointer hop + hit) from an L1-miss body (~17): default 11.
    pub ref_adds: usize,
}

// Victim inputs live on dedicated lines in the x-flag region, at offsets
// whose L1 sets (35/36 on a 64-set L1) stay clear of both the monitored
// table sets (16..=31) and the probe plumbing (sets 33/34, see `L1Probe`).
const P_OFFSET: u64 = 0x8C0; // set 35: victim plaintext
const K_OFFSET: u64 = 0x900; // set 36: victim key byte

impl AesAttack {
    /// An attack driver over `layout`. Requires a 64-set L1 machine (e.g.
    /// `Machine::with(CpuConfig::coffee_lake().with_load_recording(),
    /// HierarchyConfig::coffee_lake())`).
    pub fn new(layout: Layout) -> Self {
        AesAttack {
            layout,
            ref_adds: 11,
        }
    }

    /// Base address of the victim's 16-line lookup table (its lines occupy
    /// L1 sets 16..=31, clear of the gadget infrastructure in set 0).
    pub fn table_base(&self, m: &Machine) -> Addr {
        let l1 = m.cpu().hierarchy().l1d();
        self.layout.plru_line(l1, 16 % l1.num_sets(), 0)
    }

    fn p_addr(&self) -> Addr {
        Addr(self.layout.x_flag.0 + P_OFFSET)
    }

    fn k_addr(&self) -> Addr {
        Addr(self.layout.x_flag.0 + K_OFFSET)
    }

    /// The victim program: `load T[((p ⊕ k) >> 4) * 64]` — the secret-
    /// dependent table access of first-round AES, one lookup.
    pub fn victim_program(&self, m: &Machine) -> Program {
        let table = self.table_base(m);
        let mut asm = Asm::new();
        let p = asm.reg();
        asm.load(p, MemOperand::abs(self.p_addr().0));
        let k = asm.reg();
        asm.load(k, MemOperand::abs(self.k_addr().0));
        let x = asm.reg();
        asm.xor(x, p, k);
        let line = asm.reg();
        asm.shr(line, x, 4i64);
        let off = asm.reg();
        asm.shl(off, line, 6i64); // line * 64 bytes
        let v = asm.reg();
        asm.load(v, MemOperand::base_disp(off, table.0 as i64));
        asm.halt();
        asm.assemble().expect("victim assembles")
    }

    /// Attacker lines congruent with table line `j` (same L1 set),
    /// disjoint from the table itself.
    fn prime_lines(&self, m: &Machine, j: u8) -> Vec<Addr> {
        let l1 = m.cpu().hierarchy().l1d();
        let set = (16 + j as usize) % l1.num_sets();
        let ways = l1.config().ways;
        (8..8 + ways)
            .map(|i| self.layout.plru_line(l1, set, i))
            .collect()
    }

    /// Probe one line with the racing-gadget timer: was it evicted from the
    /// L1? (Delegates to the shared [`L1Probe`].)
    fn line_was_evicted(&self, m: &mut Machine, line: Addr) -> bool {
        let mut probe = L1Probe::new(self.layout);
        probe.ref_adds = self.ref_adds;
        probe.was_evicted(m, line)
    }

    /// One prime → victim → probe round: which table line did the victim
    /// touch for plaintext `p_high << 4`?
    pub fn observe_victim_line(&self, m: &mut Machine, p_high: u8) -> Option<u8> {
        let victim = self.victim_program(m);
        m.cpu_mut()
            .mem_mut()
            .write(self.p_addr().0, (p_high as u64) << 4);
        m.warm(self.p_addr());
        m.warm(self.k_addr());

        // Prime every candidate set with attacker lines.
        let all_lines: Vec<(u8, Vec<Addr>)> =
            (0..16u8).map(|j| (j, self.prime_lines(m, j))).collect();
        for (_, lines) in &all_lines {
            for _ in 0..2 {
                for &l in lines {
                    m.warm(l);
                }
            }
        }

        // Victim executes its secret-dependent lookup.
        m.run(&victim);

        // Probe: the set whose prime line went missing is the victim's.
        for (j, lines) in &all_lines {
            if lines.iter().any(|&l| self.line_was_evicted(m, l)) {
                return Some(*j);
            }
        }
        None
    }

    /// Recover the key byte's high nibble from several plaintexts.
    pub fn recover_key_nibble(&self, m: &mut Machine, plaintexts: &[u8]) -> AesRecovery {
        let mut observed = Vec::new();
        let mut votes = [0u32; 16];
        for &p in plaintexts {
            let line = self.observe_victim_line(m, p);
            if let Some(l) = line {
                let k_guess = (l ^ p) & 0xF;
                votes[k_guess as usize] += 1;
            }
            observed.push(line);
        }
        let key_nibble = votes
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .filter(|(_, &v)| v > 0)
            .map(|(i, _)| i as u8);
        AesRecovery {
            plaintexts: plaintexts.to_vec(),
            observed_lines: observed,
            key_nibble,
        }
    }

    /// Plant the victim's key byte.
    pub fn plant_key(&self, m: &mut Machine, key_byte: u8) {
        m.cpu_mut()
            .mem_mut()
            .write(self.k_addr().0, key_byte as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racer_cpu::CpuConfig;
    use racer_mem::HierarchyConfig;

    fn machine() -> Machine {
        Machine::with(
            CpuConfig::coffee_lake().with_load_recording(),
            HierarchyConfig::coffee_lake(),
        )
    }

    #[test]
    fn victim_touches_the_expected_line() {
        let mut m = machine();
        let atk = AesAttack::new(m.layout());
        atk.plant_key(&mut m, 0xA7);
        let victim = atk.victim_program(&m);
        m.cpu_mut().mem_mut().write(atk.p_addr().0, 0x30);
        let r = m.run(&victim);
        // Expected line: (0x30 ^ 0xA7) >> 4 = 0x9.
        let expect = atk.table_base(&m).0 + 9 * 64;
        assert!(
            r.loads.iter().any(|l| l.addr == expect),
            "victim must access table line 9"
        );
    }

    #[test]
    fn probe_distinguishes_resident_from_evicted() {
        let mut m = machine();
        let atk = AesAttack::new(m.layout());
        let subject = atk.prime_lines(&m, 3)[0];
        m.warm(subject);
        assert!(
            !atk.line_was_evicted(&mut m, subject),
            "resident line misread as evicted"
        );
        m.evict_from_l1(subject);
        assert!(
            atk.line_was_evicted(&mut m, subject),
            "evicted line misread as resident"
        );
    }

    #[test]
    fn observes_the_victims_table_line() {
        let mut m = machine();
        let atk = AesAttack::new(m.layout());
        atk.plant_key(&mut m, 0x50);
        // p_high = 2 → index high nibble = 2 ^ 5 = 7.
        let line = atk.observe_victim_line(&mut m, 2);
        assert_eq!(line, Some(7), "prime+probe must localize the victim's line");
    }

    #[test]
    fn recovers_the_key_nibble() {
        let mut m = machine();
        let atk = AesAttack::new(m.layout());
        atk.plant_key(&mut m, 0xC3);
        let rec = atk.recover_key_nibble(&mut m, &[0x0, 0x5, 0xB]);
        assert_eq!(rec.key_nibble, Some(0xC), "high nibble of 0xC3");
    }

    #[test]
    fn different_keys_give_different_nibbles() {
        for key in [0x00u8, 0x40, 0xF0] {
            let mut m = machine();
            let atk = AesAttack::new(m.layout());
            atk.plant_key(&mut m, key);
            let rec = atk.recover_key_nibble(&mut m, &[0x1, 0x8]);
            assert_eq!(rec.key_nibble, Some(key >> 4), "key {key:#x}");
        }
    }
}
