//! Figure 7: stage-time stacks of the repetition gadget, bare (7a) and with
//! the load stage wrapped in a racing gadget (7b).

use crate::attacks::repetition::{run_repetition, RepetitionConfig, StageBreakdown};
use crate::machine::Machine;

/// One bar of Figure 7: stage cycles for one address relationship.
#[derive(Clone, Debug)]
pub struct RepetitionBar {
    /// `true` for the same-address (secret = 1) case.
    pub same_addr: bool,
    /// Per-stage cycle totals.
    pub stages: StageBreakdown,
}

/// A full sub-figure: both bars plus derived percentages.
#[derive(Clone, Debug)]
pub struct RepetitionFigure {
    /// Whether the load stage was raced (Figure 7b) or bare (7a).
    pub racing: bool,
    /// The same-address and different-address bars.
    pub bars: [RepetitionBar; 2],
}

/// Run one sub-figure of Figure 7 with `iterations` repetitions.
pub fn figure7(racing: bool, iterations: usize) -> RepetitionFigure {
    let run = |same_addr: bool| {
        let mut m = Machine::baseline();
        let cfg = RepetitionConfig {
            iterations,
            same_addr,
            use_racing: racing,
            baseline_ops: 95,
        };
        RepetitionBar {
            same_addr,
            stages: run_repetition(&mut m, &cfg),
        }
    };
    RepetitionFigure {
        racing,
        bars: [run(true), run(false)],
    }
}

impl RepetitionFigure {
    /// Relative total difference |same − different| / max.
    pub fn total_separation(&self) -> f64 {
        let a = self.bars[0].stages.total() as f64;
        let b = self.bars[1].stages.total() as f64;
        (a - b).abs() / a.max(b)
    }

    /// Render the stacked-bar data with per-stage percentages, normalized
    /// to the same-address total as in the paper's caption.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let norm = self.bars[0].stages.total() as f64;
        let mut s = format!(
            "# Figure 7{} ({})\n# case\tload\treload\tevict\ttotal\tload%\treload%\tevict%\n",
            if self.racing { "b" } else { "a" },
            if self.racing {
                "racing-gadget load stage"
            } else {
                "bare repetition"
            },
        );
        for bar in &self.bars {
            let st = &bar.stages;
            let _ = writeln!(
                s,
                "{}\t{}\t{}\t{}\t{}\t{:.1}%\t{:.1}%\t{:.1}%",
                if bar.same_addr { "same" } else { "different" },
                st.load,
                st.reload,
                st.evict,
                st.total(),
                st.load as f64 / norm * 100.0,
                st.reload as f64 / norm * 100.0,
                st.evict as f64 / norm * 100.0,
            );
        }
        let _ = writeln!(
            s,
            "# total separation: {:.2}%",
            self.total_separation() * 100.0
        );
        s
    }
}

impl RepetitionBar {
    /// JSON form: address relationship plus the stage stack.
    pub fn to_value(&self) -> racer_results::Value {
        racer_results::Value::object()
            .with("same_addr", self.same_addr)
            .with("stages", self.stages.to_value())
    }
}

impl RepetitionFigure {
    /// JSON form: sub-figure identity, separation metric and both bars.
    pub fn to_value(&self) -> racer_results::Value {
        racer_results::Value::object()
            .with("racing", self.racing)
            .with("total_separation", self.total_separation())
            .with(
                "bars",
                racer_results::Value::Array(self.bars.iter().map(|b| b.to_value()).collect()),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_gadget_totals_cancel_but_raced_totals_separate() {
        let bare = figure7(false, 25);
        let raced = figure7(true, 25);
        assert!(
            bare.total_separation() < 0.05,
            "Figure 7a: totals must cancel, got {:.3}",
            bare.total_separation()
        );
        assert!(
            raced.total_separation() > 0.05,
            "Figure 7b: totals must separate, got {:.3}",
            raced.total_separation()
        );
    }

    #[test]
    fn render_shows_both_cases() {
        let f = figure7(false, 5);
        let r = f.render();
        assert!(r.contains("same") && r.contains("different"));
    }
}
