//! §6.3.3: how many addresses should SEQ_i and PAR_i contain?
//!
//! The paper reports that with random replacement, `SEQ = 6` (three-quarters
//! of the 8-way associativity) and `PAR = 5` give at least one SEQ miss with
//! ~96% probability, with larger values approaching certainty. This driver
//! measures that probability directly on the replacement-policy model.

use racer_mem::{CacheSet, LineAddr, ReplacementKind};

/// Measured eviction probability for one (seq, par) size pair.
#[derive(Copy, Clone, Debug)]
pub struct ParSeqPoint {
    /// SEQ size.
    pub seq_len: usize,
    /// PAR size.
    pub par_len: usize,
    /// Probability that filling PAR evicts ≥1 SEQ member.
    pub evict_probability: f64,
}

/// Estimate, over `trials` randomized sets, the probability that filling
/// `par_len` fresh lines into an 8-way random-replacement set holding
/// `seq_len` resident SEQ members evicts at least one of them.
pub fn evict_probability(seq_len: usize, par_len: usize, ways: usize, trials: usize) -> f64 {
    let mut hits = 0usize;
    for t in 0..trials {
        let mut set = CacheSet::new(ReplacementKind::Random.build(ways, t as u64 * 11 + 3));
        // Fill the set completely: SEQ members plus filler lines (the state
        // after an attack round: SEQ resident, other ways holding strays).
        for k in 0..seq_len {
            set.fill(LineAddr(1000 + k as u64));
        }
        for k in seq_len..ways {
            set.fill(LineAddr(2000 + k as u64));
        }
        // Bring in PAR.
        let mut evicted_seq = false;
        for k in 0..par_len {
            if let Some(victim) = set.fill(LineAddr(3000 + k as u64)).evicted {
                if (1000..1000 + seq_len as u64).contains(&victim.0) {
                    evicted_seq = true;
                }
            }
        }
        if evicted_seq {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

/// Sweep the (seq, par) grid of §6.3.3.
pub fn par_seq_table(ways: usize, trials: usize) -> Vec<ParSeqPoint> {
    let mut out = Vec::new();
    for seq_len in [4usize, 5, 6, 7] {
        for par_len in [3usize, 4, 5, 6, 7] {
            out.push(ParSeqPoint {
                seq_len,
                par_len,
                evict_probability: evict_probability(seq_len, par_len, ways, trials),
            });
        }
    }
    out
}

/// Render the sweep as a table.
pub fn render(points: &[ParSeqPoint]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("seq\tpar\tP(≥1 SEQ evicted)\n");
    for p in points {
        let _ = writeln!(
            s,
            "{}\t{}\t{:.3}",
            p.seq_len, p.par_len, p.evict_probability
        );
    }
    s
}

/// JSON form of the (SEQ, PAR) grid.
pub fn to_value(points: &[ParSeqPoint]) -> racer_results::Value {
    racer_results::Value::Array(
        points
            .iter()
            .map(|p| {
                racer_results::Value::object()
                    .with("seq_len", p.seq_len)
                    .with("par_len", p.par_len)
                    .with("evict_probability", p.evict_probability)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_operating_point_is_near_96_percent() {
        let p = evict_probability(6, 5, 8, 4000);
        assert!(
            (0.90..=1.0).contains(&p),
            "SEQ=6, PAR=5 should evict with ~96% probability, got {p:.3}"
        );
    }

    #[test]
    fn probability_increases_with_par_size() {
        let p3 = evict_probability(6, 3, 8, 4000);
        let p7 = evict_probability(6, 7, 8, 4000);
        assert!(
            p7 > p3,
            "larger PAR must increase the probability: {p3:.3} vs {p7:.3}"
        );
        assert!(p7 > 0.98, "PAR=7 should be near certainty, got {p7:.3}");
    }

    #[test]
    fn probability_increases_with_seq_size() {
        let s4 = evict_probability(4, 5, 8, 4000);
        let s7 = evict_probability(7, 5, 8, 4000);
        assert!(s7 > s4, "larger SEQ must increase the probability");
    }

    #[test]
    fn table_covers_the_grid() {
        let t = par_seq_table(8, 200);
        assert_eq!(t.len(), 20);
        assert!(render(&t).contains("seq\tpar"));
    }
}
