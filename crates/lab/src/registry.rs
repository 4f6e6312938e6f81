//! The scenario registry.
//!
//! A [`Scenario`] is one addressable experiment: a stable name, a
//! parameter schema with quick/paper presets, and a run function that
//! produces both a structured [`racer_results::Value`] and the
//! human-readable text the old per-figure binaries printed. The registry
//! is the single enumeration CI, the CLI and the golden tests all share.

use crate::error::LabError;
use crate::params::{ParamSpec, ResolvedParams, Scale};
use racer_results::Value;

/// A scenario body: produces structured results + text, or a typed
/// [`LabError`] for recoverable problems (invalid parameter combinations
/// and the like). Panics raised inside the body do not abort the run —
/// the runner catches them at the isolation boundary and records a
/// `status: "failed"` cell instead.
pub type RunFn = fn(&RunContext) -> Result<ScenarioOutput, LabError>;

/// What one scenario run produces.
pub struct ScenarioOutput {
    /// Structured results — becomes the report's `results` member.
    pub data: Value,
    /// Plot-ready human text (what the legacy binary printed).
    pub text: String,
}

/// Everything a scenario run may read.
pub struct RunContext {
    /// Resolved parameters (preset + overrides).
    pub params: ResolvedParams,
    /// Scenario seed: the registered base seed unless overridden with
    /// `--seed`. Scenarios with stochastic inputs derive their streams
    /// from it; purely structural scenarios ignore it.
    pub seed: u64,
    /// The preset this run resolved against (some scenarios record it in
    /// their payload for baseline compatibility).
    pub scale: Scale,
}

/// One registered experiment.
pub struct Scenario {
    /// Stable machine-readable name (also the legacy binary name and the
    /// `results/<name>.json` stem).
    pub name: &'static str,
    /// Paper artefact label, e.g. `Figure 8` or `§7.4`.
    pub title: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Parameter schema with per-preset values.
    pub params: Vec<ParamSpec>,
    /// Base seed recorded in the report and fed to [`RunContext::seed`].
    pub seed: u64,
    /// Whether two runs with identical config produce byte-identical
    /// reports. Everything except wall-clock benchmarks is deterministic;
    /// the golden tests enforce this flag.
    pub deterministic: bool,
    /// The experiment body.
    pub run: RunFn,
}

/// All registered scenarios, in presentation order (figures, tables,
/// evaluations, then infrastructure benchmarks).
pub fn registry() -> Vec<Scenario> {
    crate::scenarios::all()
}

/// Look up one scenario by name.
pub fn find(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_has_all_legacy_binaries_and_unique_names() {
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        assert!(
            names.len() >= 17,
            "expected >= 17 scenarios, got {}",
            names.len()
        );
        let unique: HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate scenario names");
        // Every paper figure, table and evaluation keeps its name: scripts
        // and CI address scenarios by these strings.
        for legacy in [
            "countermeasures_eval",
            "detection_eval",
            "eviction_set_eval",
            "fig03_plru_walk",
            "fig07_repetition",
            "fig08_granularity_add",
            "fig09_granularity_mul",
            "fig10_reorder_distribution",
            "fig11_arbitrary_replacement",
            "fig12_arithmetic",
            "noise_sensitivity_eval",
            "perf_baseline",
            "spectre_back_eval",
            "table_granularity",
            "table_par_seq",
            "timer_mitigations_eval",
            "window_ablation_eval",
        ] {
            assert!(names.contains(&legacy), "missing scenario {legacy}");
        }
    }

    #[test]
    fn find_resolves_names() {
        assert!(find("fig08_granularity_add").is_some());
        assert!(find("no_such_scenario").is_none());
    }
}
