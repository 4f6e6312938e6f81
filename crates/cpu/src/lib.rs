//! # racer-cpu — cycle-level out-of-order core for Hacky Racers
//!
//! This crate is the substitute for the paper's physical evaluation machines
//! (Intel i7-8750H / AMD Ryzen 5900HX): a dynamically scheduled core with a
//! reorder buffer, register renaming, a unified scheduler, per-class
//! functional-unit ports (including the non-fully-pipelined divider the §6.4
//! magnifier leans on), a trainable branch predictor, and misspeculation
//! recovery that — like real hardware — leaves speculative cache fills in
//! place.
//!
//! The architectural contract is simple: for every program, committed
//! results equal the in-order reference interpreter in
//! [`racer_isa::interp`]. Speculation and out-of-order issue may only change
//! *timing* and *microarchitectural state*. The Hacky Racers attack surface
//! lives entirely in that gap.
//!
//! ## Countermeasures
//!
//! [`Countermeasure`] models the §8 defence landscape: in-order issue,
//! delay-on-miss, invisible speculation and GhostMinion-style strictness
//! ordering, so the paper's claims about which gadgets survive which
//! defences become testable.
//!
//! ## SMT
//!
//! The core is multi-context: [`CpuConfig::threads`] hardware threads
//! each own a private front end, ROB and rename state, while issue
//! bandwidth, functional-unit ports, divider units, MSHRs and the cache
//! hierarchy are shared, arbitrated per cycle by an [`SmtPolicy`]
//! (round-robin or ICOUNT). [`Cpu::run`] co-schedules one program
//! per thread — the substrate for the paper's §9 "other shared resources"
//! observation that racing-gadget timers read *any* contended shared
//! resource, SMT port contention included. [`workloads`] provides
//! port-pressure contender kernels, and the `smt_contention_eval` lab
//! scenario measures timer resolution against them.
//!
//! ## Execution backends and throughput
//!
//! Every run goes through one entry point — [`Cpu::run`] (or the
//! single-program [`Cpu::run_one`]) — parameterised by a [`Backend`]:
//! the event-driven production scheduler ([`core`], allocation-free in
//! steady state) or the retained scan-based golden model in
//! [`mod@reference`]. The two are cycle-exact against each other, pinned
//! by the differential suites. Sweeps of independent runs warm one
//! machine, capture it as a copy-on-fork [`Snapshot`] ([`engine`]) and run
//! each trial on a fork; [`SnapshotCache`] keeps warm snapshots per
//! process. [`RecordLevel`] controls how much event data a run records,
//! and [`batch::par_map`] fans independent simulations out across host
//! cores. `BENCH_pipeline.json` at the repo root records measured
//! throughput for the schedulers and the fork-based sweeps.
//!
//! ## Quickstart
//!
//! ```
//! use racer_cpu::{Backend, Cpu, CpuConfig};
//! use racer_isa::{Asm, MemOperand};
//! use racer_mem::HierarchyConfig;
//!
//! let mut cpu = Cpu::new(CpuConfig::coffee_lake(), HierarchyConfig::coffee_lake());
//! cpu.mem_mut().write(0x1000, 7);
//!
//! let mut asm = Asm::new();
//! let r = asm.reg();
//! asm.load(r, MemOperand::abs(0x1000));
//! asm.halt();
//! let prog = asm.assemble()?;
//!
//! let cold = cpu.run_one(&prog, Backend::EventDriven);
//! let warm = cpu.run_one(&prog, Backend::EventDriven);
//! assert_eq!(cold.regs[r.index()], 7);
//! assert!(warm.cycles < cold.cycles, "second run hits the warm cache");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod batch;
pub mod config;
pub mod core;
pub mod engine;
pub mod predictor;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use config::{
    Backend, Countermeasure, CpuConfig, Latencies, PredictorKind, RecordLevel, SmtPolicy,
};
pub use core::Cpu;
pub use engine::{Snapshot, SnapshotCache, SnapshotCacheCounters};
pub use stats::{LoadEvent, RunResult};
pub use trace::{render_pipeline, TraceRecord};
