//! Website fingerprinting through a per-set cache-occupancy channel —
//! another §2.1 motivation ("website fingerprinting") resurrected with the
//! ILP-race timer.
//!
//! Each "website" is a victim workload touching a characteristic set of
//! cache lines. The attacker primes every L1 set with its own lines, lets
//! the victim run, then asks — per set, via the [`L1Probe`] racing gadget —
//! whether its prime lines survived. The resulting 0/1 occupancy vector is
//! the fingerprint; classification is nearest-Hamming-distance against
//! offline-profiled references.

use crate::attacks::probe::L1Probe;
use crate::layout::Layout;
use crate::machine::Machine;
use racer_isa::{Asm, MemOperand, Program};
use racer_mem::Addr;

/// A synthetic "website": a deterministic workload touching `lines`
/// distinct cache lines chosen by `seed`.
#[derive(Clone, Debug)]
pub struct Website {
    /// Display name.
    pub name: String,
    /// Workload seed (selects which sets it touches).
    pub seed: u64,
    /// Number of distinct lines the site touches.
    pub lines: usize,
}

impl Website {
    /// The line addresses this site touches (a seeded pseudo-random spread
    /// over the monitored region).
    pub fn footprint(&self) -> Vec<Addr> {
        let mut state = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..self.lines)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Spread over 64 L1 sets within a dedicated region.
                let set = (state >> 33) % 64;
                let way_salt = (state >> 40) % 4;
                Addr(0x0B00_0000 + set * 64 + way_salt * 64 * 64)
            })
            .collect()
    }

    /// The site's "page load": a program visiting its footprint.
    pub fn workload(&self) -> Program {
        let mut asm = Asm::new();
        let d = asm.reg();
        for a in self.footprint() {
            asm.load(d, MemOperand::abs(a.0));
        }
        asm.halt();
        asm.assemble().expect("website workload assembles")
    }
}

/// The fingerprinting attack.
#[derive(Clone, Debug)]
pub struct FingerprintAttack {
    layout: Layout,
    /// Prime lines per monitored set.
    pub prime_ways: usize,
    /// Monitored L1 sets (all 64 by default would collide with gadget
    /// plumbing; sets 40..56 are used).
    pub sets: Vec<usize>,
}

impl FingerprintAttack {
    /// A 16-set monitor (L1 sets 40..56).
    pub fn new(layout: Layout) -> Self {
        FingerprintAttack {
            layout,
            prime_ways: 8,
            sets: (40..56).collect(),
        }
    }

    fn prime_lines(&self, m: &Machine, set: usize) -> Vec<Addr> {
        let l1 = m.cpu().hierarchy().l1d();
        (16..16 + self.prime_ways)
            .map(|i| self.layout.plru_line(l1, set, i))
            .collect()
    }

    /// One prime → visit → probe round: the occupancy vector (true = the
    /// site displaced something in that set).
    pub fn observe(&self, m: &mut Machine, site: &Website) -> Vec<bool> {
        let probe = L1Probe::new(self.layout);
        let workload = site.workload();
        // Prime all monitored sets.
        for &s in &self.sets {
            for _ in 0..2 {
                for l in self.prime_lines(m, s) {
                    m.warm(l);
                }
            }
        }
        // The victim "loads the page".
        m.run(&workload);
        // Probe every prime line per set: any eviction marks the set as
        // touched (a single victim fill displaces just one way, and the
        // PLRU victim choice is not ours to predict).
        self.sets
            .iter()
            .map(|&s| {
                self.prime_lines(m, s)
                    .into_iter()
                    .map(|line| probe.was_evicted(m, line))
                    .fold(false, |acc, e| acc | e)
            })
            .collect()
    }

    /// Offline profiling: reference fingerprints per site.
    pub fn profile(&self, m: &mut Machine, sites: &[Website]) -> Vec<(String, Vec<bool>)> {
        sites
            .iter()
            .map(|s| (s.name.clone(), self.observe(m, s)))
            .collect()
    }

    /// Classify an observed fingerprint against references
    /// (nearest Hamming distance).
    pub fn classify(references: &[(String, Vec<bool>)], observed: &[bool]) -> String {
        references
            .iter()
            .min_by_key(|(_, r)| r.iter().zip(observed).filter(|(a, b)| a != b).count())
            .map(|(name, _)| name.clone())
            .expect("at least one reference")
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

    fn sites() -> Vec<Website> {
        vec![
            Website {
                name: "news".into(),
                seed: 3,
                lines: 40,
            },
            Website {
                name: "mail".into(),
                seed: 17,
                lines: 12,
            },
            Website {
                name: "bank".into(),
                seed: 99,
                lines: 25,
            },
        ]
    }

    #[test]
    fn footprints_are_deterministic_and_distinct() {
        let s = sites();
        assert_eq!(s[0].footprint(), s[0].footprint());
        assert_ne!(s[0].footprint(), s[2].footprint());
    }

    #[test]
    fn occupancy_vectors_differ_between_sites() {
        let mut m = machine();
        let atk = FingerprintAttack::new(m.layout());
        let s = sites();
        let a = atk.observe(&mut m, &s[0]);
        let b = atk.observe(&mut m, &s[1]);
        assert_ne!(
            a, b,
            "a 40-line site and a 12-line site must look different"
        );
        assert!(a.iter().filter(|&&x| x).count() > b.iter().filter(|&&x| x).count());
    }

    #[test]
    fn classifies_repeat_visits_correctly() {
        let mut m = machine();
        let atk = FingerprintAttack::new(m.layout());
        let s = sites();
        let refs = atk.profile(&mut m, &s);
        for site in &s {
            let obs = atk.observe(&mut m, site);
            let got = FingerprintAttack::classify(&refs, &obs);
            assert_eq!(got, site.name, "revisit must classify as itself");
        }
    }
}
