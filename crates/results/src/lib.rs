//! Dependency-free JSON for experiment results.
//!
//! The workspace builds offline with no serde, so structured output needs
//! its own machinery. This crate is that machinery: an order-preserving [`Value`]
//! model, a deterministic writer, and a small strict parser — enough to
//! emit every `racer-lab` scenario report and to read committed baselines
//! like `BENCH_pipeline.json` back for regression gating.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Two runs of the same experiment must serialize to
//!    byte-identical text so CI can diff results and golden tests can
//!    assert snapshots. Objects keep insertion order (no HashMap), floats
//!    format via Rust's shortest-roundtrip `Display`, and the writer has
//!    exactly one rendering per value.
//! 2. **Correctness over features.** Full RFC 8259 string escaping and
//!    strict parsing, but no streaming, no zero-copy, no serde bridge.
//! 3. **Ergonomics for builders.** `From` impls for the primitive types
//!    experiments actually produce, plus [`Value::object`]/[`Value::with`]
//!    for literal-ish construction.
//!
//! Consumers that need to *interpret* report payloads (the `racer-report`
//! dashboard) get [`Table`]: a zero-copy rectangular view over an array
//! of JSON objects with per-column type classification ([`ColumnKind`]).
//!
//! ```
//! use racer_results::Value;
//!
//! let report = Value::object()
//!     .with("scenario", "fig08_granularity_add")
//!     .with("points", vec![1i64, 2, 3])
//!     .with("slope", 1.04);
//! let text = report.to_pretty();
//! assert_eq!(Value::parse(&text).unwrap(), report);
//! ```

#![warn(missing_docs)]

mod parse;
mod table;
mod value;
mod write;

pub use parse::ParseError;
pub use table::{Column, ColumnKind, Table};
pub use value::Value;
