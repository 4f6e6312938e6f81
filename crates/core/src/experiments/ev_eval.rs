//! §7.4 evaluation: eviction-set generation success rate.
//!
//! The paper retains Purnal et al.'s 100% success rate after swapping their
//! SharedArrayBuffer timer for the racing-gadget timer. We repeat the
//! profiling across targets at several page offsets and report the rate.

use crate::attacks::EvictionSetAttack;
use crate::machine::Machine;
use racer_mem::{candidate_pool, Addr};

/// Result of the repeated-profiling evaluation.
#[derive(Clone, Debug)]
pub struct EvEval {
    /// Profiling attempts.
    pub trials: usize,
    /// Attempts that produced a correct minimal eviction set.
    pub successes: usize,
    /// Ways per LLC set (the target minimal-set size).
    pub ways: usize,
}

impl EvEval {
    /// Success rate in [0, 1].
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }
}

/// Run `trials` profiling attempts, each for a target at a different page
/// offset, validating results against ground truth.
pub fn evaluate(trials: usize, pool_pages: usize) -> EvEval {
    let mut successes = 0;
    let mut ways = 0;
    for t in 0..trials {
        let mut m = Machine::small_llc();
        ways = m.cpu().hierarchy().l3().config().ways;
        let base = m.layout().ev_pool_base;
        // Stay clear of LLC set 0, where the gadget infrastructure lives.
        let offset = 0x800 + (t as u64 % 16) * 128;
        let target = Addr(base.0 + offset);
        let pool = candidate_pool(Addr(base.0 + 4096), pool_pages, offset);
        let atk = EvictionSetAttack::new(m.layout());
        if let Some(set) = atk.build_minimal_set(&mut m, target, &pool, ways) {
            let l3 = m.cpu().hierarchy().l3();
            let tset = l3.set_index(target.line());
            let all_congruent = set.iter().all(|a| l3.set_index(a.line()) == tset);
            if all_congruent && set.len() == ways {
                successes += 1;
            }
        }
    }
    EvEval {
        trials,
        successes,
        ways,
    }
}

/// Render like the paper's §7.4 claim.
pub fn render(eval: &EvEval) -> String {
    format!(
        "eviction-set profiling: {}/{} succeeded ({:.0}%), minimal sets of {} ways\n",
        eval.successes,
        eval.trials,
        eval.rate() * 100.0,
        eval.ways
    )
}

impl EvEval {
    /// JSON form: counts plus the derived success rate.
    pub fn to_value(&self) -> racer_results::Value {
        racer_results::Value::object()
            .with("trials", self.trials)
            .with("successes", self.successes)
            .with("ways", self.ways)
            .with("success_rate", self.rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_rate_is_total() {
        let eval = evaluate(3, 48);
        assert_eq!(
            eval.rate(),
            1.0,
            "paper reports a 100% success rate: {eval:?}"
        );
    }

    #[test]
    fn renders_rate() {
        let eval = EvEval {
            trials: 4,
            successes: 4,
            ways: 8,
        };
        assert!(render(&eval).contains("100%"));
    }
}
