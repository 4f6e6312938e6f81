//! Correctness checks. Each returns the number of failed operations so
//! the caller can fold it into `failed` / `attempted`.

use racer_cpu::RunResult;
use racer_results::Value;

/// Whether a written lab report is a success for `scenario`: it parses,
/// names the scenario, carries `results`, and has no `status` member
/// (only failed cells have one).
pub fn report_ok(text: &str, scenario: &str) -> bool {
    let Ok(doc) = Value::parse(text) else {
        return false;
    };
    doc.get("scenario").and_then(Value::as_str) == Some(scenario)
        && doc.get("status").is_none()
        && doc.get("results").is_some_and(|r| *r != Value::Null)
}

/// Failures among `(rendered results, committed golden)` pairs: any pair
/// that is not byte for byte equal.
pub fn golden_failures(pairs: &[(String, String)]) -> u64 {
    pairs.iter().filter(|(got, want)| got != want).count() as u64
}

/// Failures among `(event-driven, reference)` results of the same
/// kernel: any thread whose cycles, committed count or final registers
/// differ between the two schedulers.
pub fn kernel_failures(pairs: &[(Vec<RunResult>, Vec<RunResult>)]) -> u64 {
    pairs
        .iter()
        .filter(|(fast, reference)| {
            fast.len() != reference.len()
                || fast.iter().zip(reference).any(|(f, r)| {
                    (f.cycles, f.committed, &f.regs) != (r.cycles, r.committed, &r.regs)
                })
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(body: &str) -> String {
        format!("{{\"scenario\": \"fig03_plru_walk\", {body}}}")
    }

    #[test]
    fn a_failed_cell_or_a_foreign_report_is_a_failure() {
        assert!(report_ok(
            &report("\"results\": {\"x\": 1}"),
            "fig03_plru_walk"
        ));
        assert!(!report_ok(
            &report("\"status\": \"failed\", \"results\": null"),
            "fig03_plru_walk"
        ));
        assert!(!report_ok(&report("\"results\": {}"), "fig07_repetition"));
        assert!(!report_ok("{\"scenario\": ", "fig03_plru_walk"));
    }

    #[test]
    fn one_corrupted_report_byte_counts_one_failure() {
        let golden = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../crates/lab/tests/golden/fig03_plru_walk.results.json"
        ))
        .expect("committed golden");
        let mut bytes = golden.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'0' { b'1' } else { b'0' };
        let corrupted = String::from_utf8(bytes).expect("ascii edit");
        let pairs = vec![
            (golden.clone(), golden.clone()),
            (corrupted, golden.clone()),
        ];
        assert_eq!(golden_failures(&pairs), 1);
    }

    #[test]
    fn one_wrong_reference_cycle_count_counts_one_failure() {
        let run = RunResult {
            cycles: 1000,
            committed: 400,
            regs: vec![1, 2, 3],
            ..Default::default()
        };
        let mut wrong = run.clone();
        wrong.cycles += 1;
        let pairs = vec![
            (vec![run.clone()], vec![run.clone()]),
            (vec![run.clone()], vec![wrong]),
        ];
        assert_eq!(kernel_failures(&pairs), 1);
    }
}
