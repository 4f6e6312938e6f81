//! The cycle-level out-of-order pipeline.
//!
//! A classic dynamically scheduled core: predicted fetch → rename/dispatch
//! into a reorder buffer → data-driven issue to functional-unit ports →
//! writeback with branch resolution and squash → in-order commit.
//!
//! Two properties matter for Hacky Racers and are modelled faithfully:
//!
//! 1. **ILP races are real**: independent dependence chains issue in data
//!    order, not program order, bounded by ports, the scheduler window and
//!    the ROB — so which of two *paths* (paper §4) finishes first depends
//!    only on their latencies.
//! 2. **Cache state updates at access time**: a load that issues — even one
//!    later squashed by a mispredicted branch — changes replacement state
//!    immediately ("fill at issue"). Completion order of racing loads is
//!    therefore visible in the cache, which is precisely what the racing
//!    gadgets (§5) transmit through and the countermeasure modes
//!    (`Countermeasure`) selectively suppress.
//!
//! # SMT: multiple hardware threads
//!
//! The core is a **multi-context SMT machine** (paper §9, "other shared
//! resources"): [`CpuConfig::threads`](crate::CpuConfig) contexts each own
//! a private front end (fetch PC, fetch queue), ROB ring, rename state
//! (RAT + undo log), scheduling structures and retire port — all hoisted
//! into [`ThreadCtx`] — while the *structural* resources stay shared at the
//! core level: issue bandwidth, functional-unit ports, the non-pipelined
//! divider units, the MSHR file and the cache hierarchy ([`Shared`]).
//! Each cycle an [`SmtPolicy`](crate::config::SmtPolicy) (round-robin or
//! ICOUNT) decides which context claims issue slots first. With
//! `threads == 1` every structure and decision reduces exactly to the
//! single-threaded core — the differential suite pins that path
//! cycle-exactly against the retained reference scheduler.
//!
//! Threads share the data memory as a common physical address space but
//! have **no cross-thread memory-ordering model** (no inter-thread store
//! forwarding or disambiguation); co-scheduled workloads are expected to
//! use disjoint address ranges, which is exactly the SMT port-contention
//! threat model: the attacker observes the victim through *timing* on
//! shared ports, never through shared data.
//!
//! # Scheduling implementation
//!
//! Every paper experiment funnels millions of simulated cycles through this
//! file, so the scheduler is **event-driven** rather than scan-based (the
//! original scan-based implementation survives, cycle-exactly equivalent, as
//! [`crate::reference`]):
//!
//! * **Tag-broadcast wakeup.** Each in-flight producer keeps a list of the
//!   (consumer, operand-slot) pairs that renamed against it; when it
//!   completes, only those dependents are woken. There is no per-cycle
//!   ROB-wide source refresh and no commit-time broadcast scan — a consumer
//!   that dispatches after its producer completed reads the value straight
//!   from the producer's ROB slot.
//! * **Ring-buffer ROB.** Entries live in fixed slots of a pre-sized ring;
//!   a `(sequence, slot)` pair is a validated O(1) handle, replacing the
//!   `VecDeque` + `binary_search` lookups. Squash invalidates the tail
//!   lazily: stale handles in the scheduling heaps are dropped on pop.
//! * **Ready heaps per functional-unit class.** Issue merges the per-class
//!   min-sequence heaps, skipping classes whose ports are exhausted — the
//!   same instructions the reference scheduler picks by scanning the whole
//!   ROB in program order, at O(issued · log window) instead of O(ROB).
//! * **Undo-log rename recovery.** Each entry records the RAT mapping its
//!   destination displaced; a squash walks the squashed suffix youngest-
//!   first restoring them — no per-branch RAT clone, no checkpoint
//!   `HashMap`.
//! * **O(1) order checks.** Load speculation status ("any older unresolved
//!   branch?") and conservative store disambiguation come from small
//!   in-flight queues (`spec_branches`, `store_q`) instead of prefix walks
//!   of the ROB.
//! * **Pre-decoded µop tables, decoded once per program.** Every stage
//!   indexes the program's own µop table ([`Program::decoded`]) by pc
//!   instead of pattern-matching [`Instr`](racer_isa::Instr): FU classes
//!   are dense indices, operand reads are slot lookups (no
//!   register-compare walks), destinations/source lists/branch targets are
//!   precomputed. ROB slots do not store the instruction at all. The table
//!   is built on the program's first run and shared by its clones, so a
//!   sweep that runs one program on many forks decodes it once, not once
//!   per run. (The reference scheduler reads the same table for rename but
//!   deliberately keeps executing from `Instr`, so the differential suite
//!   cross-checks the decoder too.)
//! * **Load stall pool.** A load that fails issue (MSHR capacity, store
//!   disambiguation, delay-on-miss) parks in `stalled_loads` and is
//!   re-attempted only when a wake condition fires — the earliest
//!   outstanding-miss expiry, a store issuing or committing, a line fill,
//!   or branch resolution under delay-on-miss — instead of a heap
//!   round-trip plus a full re-check every cycle. Every skipped cycle is
//!   one where the attempt provably fails exactly as before, so issue
//!   timing is unchanged (and differentially tested). With more than one
//!   hardware thread the pool drains every cycle instead: another thread's
//!   fills and MSHR traffic are cross-thread wake sources the per-thread
//!   event model cannot see, and per-cycle attempts are exactly what the
//!   reference scheduler does anyway.
//! * **Idle-cycle fast-forward.** Long dependent chains spend most of
//!   their simulated time waiting on a miss or a divide. Each stage
//!   reports whether it acted; after a single-thread cycle in which none
//!   did, the loop jumps straight to the earliest cycle at which anything
//!   can change. Exactness: an idle cycle leaves the state unchanged, so
//!   the next cycle replays it unless a clock-dependent predicate flips,
//!   and every such predicate is an event source of
//!   `Pipeline::next_event_cycle` — the next non-empty completion-wheel
//!   bucket, a `far` completion entering the wheel horizon, the stall
//!   pool's MSHR wake and 64-cycle fallback drain (while it holds loads),
//!   the fetch-queue front becoming ready, a divider unit freeing, the
//!   next `interrupt_interval` boundary and `max_run_cycles`. The skipped cycles would each have done nothing,
//!   so timing is unchanged (the differential suite drives every source).
//!   SMT runs and the reference scheduler step every cycle.
//! * **No steady-state allocation.** All scheduling structures live in
//!   the per-thread [`ThreadCtx`] structs, owned by [`Cpu`] and reused
//!   across [`Cpu::run`] calls; a run allocates no µop table either (the
//!   program already owns it). Sources use inline `[Src; 3]` storage (no
//!   instruction has more than three; the register names live in the
//!   decoded table), and the `loads`/`trace` vectors are only touched when
//!   [`CpuConfig::record`](crate::CpuConfig) asks for them. (SMT
//!   arbitration allocates two small per-cycle vectors, but only when
//!   `threads > 1`.)

use crate::config::{Backend, Countermeasure, CpuConfig};
use crate::predictor::{self, Predictor};
use crate::stats::{LoadEvent, RunResult};
use racer_isa::{
    AluOp, DataMemory, DecodedInstr, DecodedMem, DecodedOp, FuClass, Program, SrcRef, NUM_REGS,
};
use racer_mem::{AccessKind, Addr, Hierarchy, HitLevel};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Dynamic-instruction sequence number (per hardware thread).
type Seq = u64;

#[derive(Copy, Clone, Debug, Eq, PartialEq)]
enum EntryState {
    /// Dispatched, waiting for sources / a port.
    Waiting,
    /// Executing on a functional unit.
    Issued,
    /// Result available.
    Done,
}

#[derive(Copy, Clone, Debug)]
enum Src {
    Ready(u64),
    Tag(Seq),
}

/// Completion time-wheel size in cycles (power of two, comfortably above
/// the worst memory latency the hierarchy model produces).
const WHEEL: usize = 512;

/// Functional-unit classes as dense indices for the per-class ready heaps —
/// the same indices [`FuClass::index`] bakes into every
/// [`DecodedInstr::cls`] at decode time.
const CLS_ALU: usize = FuClass::Alu.index();
const CLS_MUL: usize = FuClass::Mul.index();
const CLS_DIV: usize = FuClass::Div.index();
const CLS_LOAD: usize = FuClass::Load.index();
const CLS_STORE: usize = FuClass::Store.index();
const CLS_BRANCH: usize = FuClass::Branch.index();
const NUM_CLASSES: usize = FuClass::COUNT;

/// One ROB ring slot. Slots are overwritten in place at dispatch; the
/// `consumers` vector keeps its capacity across reuse, so a warmed-up
/// pipeline dispatches without touching the allocator. The instruction
/// itself is *not* stored: `pc` indexes the program's µop table
/// ([`Program::decoded`]), which already holds every static fact the
/// stages need.
#[derive(Clone, Debug)]
struct Slot {
    seq: Seq,
    pc: usize,
    state: EntryState,
    /// Number of sources (`srcs[..nsrcs]` are live).
    nsrcs: u8,
    /// Sources still waiting on a producer tag.
    pending: u8,
    /// Inline source storage — no instruction reads more than 3 registers.
    /// Indexed by decode-time source slot; the register names live in the
    /// decoded table, so only the value/tag state is kept here.
    srcs: [Src; 3],
    result: u64,
    completion: u64,
    predicted_taken: bool,
    /// Effective address for memory ops, resolved at issue.
    mem_addr: Option<u64>,
    /// Cache fill deferred to commit (invisible-speculation modes).
    deferred_fill: bool,
    /// Index into the run's load-event vector, if recorded.
    load_event: Option<u32>,
    /// Index into the run's trace vector, if recorded.
    trace_idx: Option<u32>,
    /// RAT mapping this entry's destination displaced at rename (the squash
    /// undo-log entry).
    prev_rat: Option<(Seq, u32)>,
    /// For branches: resolution (train + possible squash) already happened.
    resolved: bool,
    /// Cycle of the most recent issue attempt (loads only): a stall-pool
    /// drain triggered by a mid-cycle event must not attempt the same entry
    /// twice in one cycle — the reference scheduler attempts each entry at
    /// most once per cycle.
    last_attempt: u64,
    /// Dependents to wake at completion: (consumer seq, slot, source index).
    consumers: Vec<(Seq, u32, u8)>,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            seq: 0,
            pc: 0,
            state: EntryState::Done,
            nsrcs: 0,
            pending: 0,
            srcs: [Src::Ready(0); 3],
            result: 0,
            completion: 0,
            predicted_taken: false,
            mem_addr: None,
            deferred_fill: false,
            load_event: None,
            trace_idx: None,
            prev_rat: None,
            resolved: false,
            last_attempt: u64::MAX,
            consumers: Vec::new(),
        }
    }
}

/// A fetch-queue entry. Deliberately lean — the instruction itself is
/// re-read from program memory at dispatch rather than copied through the
/// queue (the front end moves `fetch_width` of these every cycle).
#[derive(Copy, Clone, Debug)]
struct FetchedInstr {
    pc: u32,
    predicted_taken: bool,
    ready_cycle: u64,
}

/// One hardware thread context: everything private to a context — the
/// reusable scheduling structures (ROB ring, RAT, ready heaps, completion
/// wheel, stall pool, front-end queue) *and* the per-run state (fetch PC,
/// fence/drain flags, result counters, event vectors). Owned by [`Cpu`] so
/// consecutive [`Cpu::run`] calls (the shape of every sweep) run
/// allocation-free once capacities have warmed up.
#[derive(Debug, Default)]
pub(crate) struct ThreadCtx {
    /// ROB ring storage (capacity = `rob_size`).
    slots: Vec<Slot>,
    /// Ring position of the oldest entry.
    head: usize,
    /// Occupied ring length.
    len: usize,
    /// Per-class min-seq heaps of ready-to-issue entries.
    ready: [BinaryHeap<Reverse<(Seq, u32)>>; NUM_CLASSES],
    /// Bitmask of classes whose ready heap is non-empty (issue's class
    /// merge skips empty heaps without touching them).
    ready_mask: u8,
    /// Completion time wheel: in-flight entries bucketed by completion
    /// cycle modulo [`WHEEL`] — O(1) insert and O(arrivals) drain, replacing
    /// a binary heap on the two hottest per-instruction edges.
    wheel: Vec<Vec<(Seq, u32)>>,
    /// Scratch bucket swapped in while draining the current wheel slot.
    wheel_scratch: Vec<(Seq, u32)>,
    /// Completions further than [`WHEEL`] cycles out (DRAM-latency outliers;
    /// re-homed into the wheel as their arrival approaches).
    far: Vec<(u64, Seq, u32)>,
    /// Completed branches awaiting resolution, oldest first.
    resolve_q: BinaryHeap<Reverse<(Seq, u32)>>,
    /// Loads whose issue attempt failed (store disambiguation, MSHR
    /// capacity, delay-on-miss). They re-enter the ready heap only when a
    /// *wake condition* fires — the earliest outstanding-miss expiry
    /// (`stall_wake_cycle`) or an unblocking event (`stall_wake_now`) —
    /// instead of burning a heap round-trip plus a full re-check every
    /// cycle. Every skipped cycle is one where the attempt provably fails
    /// exactly as it did before, so issue timing is unchanged.
    stalled_loads: Vec<(Seq, u32)>,
    /// Earliest cycle an outstanding L1 miss completes and frees an MSHR
    /// (`u64::MAX` when no capacity-blocked load is waiting on one).
    stall_wake_cycle: u64,
    /// An unblocking event fired (store issued/committed, a line filled,
    /// a branch resolved under delay-on-miss): drain the stall pool at the
    /// next issue opportunity.
    stall_wake_now: bool,
    /// Wakeup scratch (swapped with a completing producer's consumer list).
    wake: Vec<(Seq, u32, u8)>,
    /// Front-end queue between fetch and dispatch.
    fetch_q: VecDeque<FetchedInstr>,
    /// Register alias table: architectural register → youngest in-flight
    /// producer handle.
    rat: Vec<Option<(Seq, u32)>>,
    /// Architectural register file.
    arch_regs: Vec<u64>,
    /// In-flight stores in program order: (seq, address once resolved).
    store_q: VecDeque<(Seq, Option<u64>)>,
    /// In-flight conditional branches in program order (resolved ones are
    /// popped lazily from the front).
    spec_branches: VecDeque<(Seq, u32)>,
    /// Entries in `Waiting` state (reservation-station occupancy).
    waiting_count: usize,
    /// In-order mode: window positions before this offset hold no Waiting
    /// entry (monotone cursor, reset on squash).
    inorder_skip: usize,

    // ---- per-run state (reset by `reset`) ------------------------------
    /// Next dynamic sequence number.
    next_seq: Seq,
    /// Next pc the front end fetches.
    fetch_pc: usize,
    /// Fetch has stopped (program end or fetched `halt`).
    fetch_stopped: bool,
    /// An in-flight fence blocks dispatch until it commits/squashes.
    fence_active: Option<Seq>,
    /// Pipeline draining for the timer-interrupt model.
    draining: bool,
    /// This context finished its program (committed halt, ran off the end,
    /// or hit the cycle limit) — the driver skips all its stages.
    done: bool,
    /// Cycle this context finished at (its `RunResult::cycles`).
    end_cycle: u64,
    /// The context aborted at the configured cycle limit.
    limit_hit: bool,

    // Results under construction.
    committed: u64,
    mispredicts: u64,
    squashed: u64,
    interrupts: u64,
    halted: bool,
    loads: Vec<LoadEvent>,
    trace: Vec<crate::trace::TraceRecord>,
}

impl ThreadCtx {
    fn reset(&mut self, rob_size: usize) {
        if self.slots.len() != rob_size {
            self.slots.clear();
            self.slots.resize_with(rob_size, Slot::empty);
        }
        self.head = 0;
        self.len = 0;
        for h in &mut self.ready {
            h.clear();
        }
        self.ready_mask = 0;
        if self.wheel.len() != WHEEL {
            self.wheel = (0..WHEEL).map(|_| Vec::new()).collect();
        }
        for b in &mut self.wheel {
            b.clear();
        }
        self.wheel_scratch.clear();
        self.far.clear();
        self.resolve_q.clear();
        self.stalled_loads.clear();
        self.stall_wake_cycle = u64::MAX;
        self.stall_wake_now = false;
        self.wake.clear();
        self.fetch_q.clear();
        if self.rat.len() != NUM_REGS {
            self.rat.resize(NUM_REGS, None);
            self.arch_regs.resize(NUM_REGS, 0);
        }
        self.rat.fill(None);
        self.arch_regs.fill(0);
        self.store_q.clear();
        self.spec_branches.clear();
        self.waiting_count = 0;
        self.inorder_skip = 0;

        self.next_seq = 0;
        self.fetch_pc = 0;
        self.fetch_stopped = false;
        self.fence_active = None;
        self.draining = false;
        self.done = false;
        self.end_cycle = 0;
        self.limit_hit = false;
        self.committed = 0;
        self.mispredicts = 0;
        self.squashed = 0;
        self.interrupts = 0;
        self.halted = false;
        self.loads = Vec::new();
        self.trace = Vec::new();
    }

    #[inline]
    fn cap(&self) -> usize {
        self.slots.len()
    }

    /// `x mod cap` for `x < 2*cap` without an integer division (the ROB
    /// capacity is not a power of two, and these run several times per
    /// simulated instruction).
    #[inline]
    fn wrap(&self, x: usize) -> usize {
        let cap = self.cap();
        if x >= cap {
            x - cap
        } else {
            x
        }
    }

    /// Ring position of `slot` relative to the window head.
    #[inline]
    fn pos(&self, slot: u32) -> usize {
        self.wrap(slot as usize + self.cap() - self.head)
    }

    /// Is this (seq, slot) handle still a live ROB entry?
    #[inline]
    fn valid(&self, seq: Seq, slot: u32) -> bool {
        self.pos(slot) < self.len && self.slots[slot as usize].seq == seq
    }

    /// Ring index of the youngest entry (window must be non-empty).
    #[inline]
    fn tail_slot(&self) -> usize {
        self.wrap(self.head + self.len - 1)
    }

    /// Ring index the next dispatch will use.
    #[inline]
    fn alloc_slot(&self) -> usize {
        self.wrap(self.head + self.len)
    }

    /// Assemble this context's finished run into a [`RunResult`], moving
    /// the recorded event vectors out. `mem_stats` is the hierarchy delta
    /// the caller attributes to the run.
    fn take_result(&mut self, mem_stats: racer_mem::HierarchyStats) -> RunResult {
        RunResult {
            cycles: self.end_cycle,
            committed: self.committed,
            halted: self.halted,
            limit_hit: self.limit_hit,
            mispredicts: self.mispredicts,
            squashed_instrs: self.squashed,
            interrupts: self.interrupts,
            regs: self.arch_regs.clone(),
            mem_stats,
            loads: std::mem::take(&mut self.loads),
            trace: std::mem::take(&mut self.trace),
        }
    }
}

/// The hierarchy-stats delta since `before` — the `mem_stats` a run
/// reports. One function used by both schedulers, so attribution can
/// never drift between them.
fn mem_stats_since(
    hier: &Hierarchy,
    before: &racer_mem::HierarchyStats,
) -> racer_mem::HierarchyStats {
    let mut s = hier.stats();
    s.l1d = s.l1d.since(&before.l1d);
    s.l2 = s.l2.since(&before.l2);
    s.l3 = s.l3.since(&before.l3);
    s.memory_accesses -= before.memory_accesses;
    s.flushes -= before.flushes;
    s.prefetches -= before.prefetches;
    s
}

/// Structural resources shared by every hardware thread: the divider
/// units (one busy-until cycle **per unit** — multi-port divide configs no
/// longer serialize on a single scalar) and the L1 MSHR file. Issue ports
/// and bandwidth are also shared, but live as per-cycle counters in the
/// driver loop.
#[derive(Debug)]
struct Shared {
    /// Outstanding L1 miss lines → data-arrival cycle (MSHR model; at most
    /// `mshrs` entries, so linear scans beat hashing). Shared across
    /// threads, like a real L1's MSHR file: one thread's misses consume
    /// capacity — and open merge windows — for the other.
    inflight: Vec<(u64, u64)>,
    /// Per-divider-unit next-free cycle (non-fully-pipelined units).
    div_busy_until: Vec<u64>,
    /// Hardware thread count for this run (SMT wake-policy switch).
    nthreads: usize,
}

impl Shared {
    fn new(div_ports: usize, nthreads: usize) -> Self {
        Shared {
            inflight: Vec::new(),
            div_busy_until: vec![0; div_ports],
            nthreads,
        }
    }

    /// Is any divider unit free this cycle?
    #[inline]
    fn div_unit_free(&self, now: u64) -> bool {
        self.div_busy_until.iter().any(|&b| b <= now)
    }

    /// Claim a free divider unit for `recip` cycles (caller checked
    /// [`Shared::div_unit_free`]).
    #[inline]
    fn claim_div_unit(&mut self, now: u64, recip: u64) {
        let unit = self
            .div_busy_until
            .iter()
            .position(|&b| b <= now)
            .expect("div_unit_free checked before claiming");
        self.div_busy_until[unit] = now + recip;
    }
}

/// The simulated core, owning its memory hierarchy, data memory and branch
/// predictors. All of those persist across [`Cpu::run`] calls — caches
/// stay warm and the predictors stay trained, exactly like the machine a
/// JavaScript attacker repeatedly invokes functions on.
///
/// ```
/// use racer_cpu::{Backend, Cpu, CpuConfig};
/// use racer_isa::Asm;
/// use racer_mem::HierarchyConfig;
///
/// let mut cpu = Cpu::new(CpuConfig::default(), HierarchyConfig::coffee_lake());
/// let mut asm = Asm::new();
/// let r = asm.reg();
/// asm.mov_imm(r, 21);
/// asm.add(r, r, r);
/// asm.halt();
/// let prog = asm.assemble()?;
/// let result = cpu.run_one(&prog, Backend::EventDriven);
/// assert!(result.halted);
/// assert_eq!(result.regs[r.index()], 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Cpu {
    pub(crate) cfg: CpuConfig,
    pub(crate) hier: Hierarchy,
    pub(crate) mem: DataMemory,
    /// One predictor per hardware thread (real SMT designs partition or
    /// tag predictor state per context; sharing it would also be a
    /// cross-thread channel this model deliberately does not open).
    /// Index 0 is the classic single-thread predictor; all persist across
    /// `run` calls.
    pub(crate) predictors: Vec<Box<dyn Predictor>>,
    /// One scheduling context per hardware thread, grown on demand.
    pub(crate) ctxs: Vec<ThreadCtx>,
}

impl Cpu {
    /// Build a core with a fresh (cold) memory hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CpuConfig::validate`].
    pub fn new(cfg: CpuConfig, hier_cfg: racer_mem::HierarchyConfig) -> Self {
        cfg.validate();
        Cpu {
            predictors: vec![predictor::build(cfg.predictor)],
            cfg,
            hier: Hierarchy::new(hier_cfg),
            mem: DataMemory::new(),
            ctxs: vec![ThreadCtx::default()],
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Replace the countermeasure mode (for sweeping defences over the same
    /// warmed-up machine state).
    pub fn set_countermeasure(&mut self, c: Countermeasure) {
        self.cfg.countermeasure = c;
    }

    /// Architectural data memory.
    pub fn mem(&self) -> &DataMemory {
        &self.mem
    }

    /// Mutable architectural data memory (experiment setup).
    pub fn mem_mut(&mut self) -> &mut DataMemory {
        &mut self.mem
    }

    /// The cache hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// Mutable cache hierarchy (experiment setup, e.g. pre-warming sets).
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.hier
    }

    /// Reset every hardware thread's branch predictor (forget all
    /// training).
    pub fn reset_predictor(&mut self) {
        for p in &mut self.predictors {
            p.reset();
        }
    }

    /// Grow the per-thread structures to `n` contexts.
    fn ensure_threads(&mut self, n: usize) {
        while self.predictors.len() < n {
            self.predictors.push(predictor::build(self.cfg.predictor));
        }
        while self.ctxs.len() < n {
            self.ctxs.push(ThreadCtx::default());
        }
    }

    /// Run `prog` to completion (committed `halt`, program end, or the
    /// configured cycle limit) on a single hardware thread with the chosen
    /// [`Backend`], returning timing and event data.
    ///
    /// Pipeline state is fresh per call; caches, data memory and predictor
    /// state persist from previous calls (run on a
    /// [`Snapshot`](crate::Snapshot) fork to leave this machine
    /// untouched). Always runs exactly one context regardless of
    /// [`CpuConfig::threads`](crate::CpuConfig) — use [`Cpu::run`] for
    /// co-scheduled programs.
    pub fn run_one(&mut self, prog: &Program, backend: Backend) -> RunResult {
        let results = match backend {
            Backend::EventDriven => self.run_event_driven(&[prog]),
            Backend::Reference => self.run_reference(&[prog]),
        };
        results.into_iter().next().expect("one program, one result")
    }

    /// The single execution entry point: run `progs` with the chosen
    /// [`Backend`], returning one [`RunResult`] per program
    /// (index-matched).
    ///
    /// The programs are **co-scheduled**, one per configured hardware
    /// thread (`progs.len()` must equal
    /// [`CpuConfig::threads`](crate::CpuConfig)). Each thread's `cycles`
    /// is the cycle *that thread* finished at; a thread that finishes
    /// early leaves the machine to the survivors, so contention is
    /// strongest while both run. `mem_stats` is the shared hierarchy's
    /// delta for the whole co-run (the caches are shared, so per-thread
    /// attribution does not exist in hardware either). Independent
    /// programs that should each start from this machine's current state
    /// run on [`Snapshot`](crate::Snapshot) forks instead.
    ///
    /// # Panics
    ///
    /// Panics unless `progs.len()` equals the configured thread count.
    pub fn run(&mut self, progs: &[&Program], backend: Backend) -> Vec<RunResult> {
        assert_eq!(
            progs.len(),
            self.cfg.threads,
            "the {backend} backend co-schedules one program per configured hardware thread"
        );
        match backend {
            Backend::EventDriven => self.run_event_driven(progs),
            Backend::Reference => self.run_reference(progs),
        }
    }

    /// Capture this machine's persistent state (config, caches, data
    /// memory, trained predictor) as a shareable [`Snapshot`] that
    /// [`Snapshot::fork`] can stamp out independent machines from.
    ///
    /// # Panics
    ///
    /// Panics unless this is a single-thread config (forks are
    /// single-thread machines).
    pub fn snapshot(&self) -> crate::engine::Snapshot {
        crate::engine::Snapshot::capture(self)
    }

    fn run_event_driven(&mut self, progs: &[&Program]) -> Vec<RunResult> {
        let n = progs.len();
        self.ensure_threads(n);
        for ctx in &mut self.ctxs[..n] {
            ctx.reset(self.cfg.rob_size);
        }
        SmtRun {
            cfg: self.cfg,
            hier: &mut self.hier,
            mem: &mut self.mem,
            predictors: &mut self.predictors[..n],
            progs,
            ctxs: &mut self.ctxs[..n],
            shared: Shared::new(self.cfg.div_ports, n),
            cycle: 0,
        }
        .run()
    }

    fn run_reference(&mut self, progs: &[&Program]) -> Vec<RunResult> {
        let n = progs.len();
        self.ensure_threads(n);
        crate::reference::RefPipeline::new(
            self.cfg,
            &mut self.hier,
            &mut self.mem,
            &mut self.predictors[..n],
            progs,
        )
        .run()
    }
}

/// The per-cycle driver: owns the shared structural resources and walks
/// every live thread context through the five pipeline stages in a fixed
/// global order (all writebacks, all commits, arbitrated issue, all
/// dispatches, all fetches). With one thread this is exactly the original
/// single-threaded cycle loop.
struct SmtRun<'a> {
    cfg: CpuConfig,
    hier: &'a mut Hierarchy,
    mem: &'a mut DataMemory,
    predictors: &'a mut [Box<dyn Predictor>],
    progs: &'a [&'a Program],
    ctxs: &'a mut [ThreadCtx],
    shared: Shared,
    cycle: u64,
}

impl SmtRun<'_> {
    /// Run one stage of thread `tid` through a per-thread pipeline view.
    fn stage<R>(&mut self, tid: usize, f: impl FnOnce(&mut Pipeline<'_>) -> R) -> R {
        let mut view = Pipeline {
            cfg: &self.cfg,
            hier: self.hier,
            mem: self.mem,
            predictor: self.predictors[tid].as_mut(),
            prog: self.progs[tid],
            dec: self.progs[tid].decoded(),
            s: &mut self.ctxs[tid],
            sh: &mut self.shared,
            cycle: self.cycle,
        };
        f(&mut view)
    }

    /// Mark thread `tid` finished at the current cycle.
    fn finish_thread(&mut self, tid: usize, limit_hit: bool) {
        let c = &mut self.ctxs[tid];
        c.done = true;
        c.end_cycle = self.cycle;
        c.limit_hit = limit_hit;
    }

    fn run(mut self) -> Vec<RunResult> {
        let stats_before = self.hier.stats();
        let n = self.progs.len();
        if n == 1 {
            // Single-thread fast path: one view for the whole run, the
            // cycle loop on the view itself — structurally the original
            // single-threaded scheduler, with zero per-cycle driver
            // overhead. (The multi-thread driver below is separately
            // pinned against the reference by the SMT differential
            // suite.)
            self.stage(0, |p| p.run_single());
        } else {
            self.run_multi(n);
        }
        let mem_stats = mem_stats_since(self.hier, &stats_before);
        self.ctxs
            .iter_mut()
            .map(|c| c.take_result(mem_stats))
            .collect()
    }

    fn run_multi(&mut self, n: usize) {
        loop {
            for tid in 0..n {
                if !self.ctxs[tid].done {
                    self.stage(tid, |p| p.writeback());
                }
            }
            for tid in 0..n {
                if self.ctxs[tid].done {
                    continue;
                }
                self.stage(tid, |p| p.commit());
                if self.ctxs[tid].halted {
                    self.finish_thread(tid, false);
                }
            }
            // Issue: shared bandwidth and ports; the arbitration policy
            // decides which context claims first. Both live here in the
            // driver, not per thread.
            let mut used = [0usize; NUM_CLASSES];
            let mut issued = 0usize;
            let occupancy: Vec<usize> = self.ctxs.iter().map(|c| c.len).collect();
            for tid in self.cfg.smt_policy.order(self.cycle, &occupancy) {
                if !self.ctxs[tid].done {
                    self.stage(tid, |p| p.issue(&mut used, &mut issued));
                }
            }
            for tid in 0..n {
                if !self.ctxs[tid].done {
                    self.stage(tid, |p| p.dispatch());
                }
            }
            for tid in 0..n {
                if !self.ctxs[tid].done {
                    self.stage(tid, |p| p.fetch());
                }
            }
            for tid in 0..n {
                if !self.ctxs[tid].done && self.stage(tid, |p| p.finished()) {
                    self.finish_thread(tid, false);
                }
            }
            if self.ctxs.iter().all(|c| c.done) {
                break;
            }
            self.cycle += 1;
            for tid in 0..n {
                let c = &mut self.ctxs[tid];
                if c.done {
                    continue;
                }
                if let Some(interval) = self.cfg.interrupt_interval {
                    if self.cycle.is_multiple_of(interval) && !c.draining {
                        c.draining = true;
                        c.interrupts += 1;
                    }
                }
                if c.draining && c.len == 0 {
                    c.draining = false;
                }
            }
            if self.cycle >= self.cfg.max_run_cycles {
                for tid in 0..n {
                    if !self.ctxs[tid].done {
                        self.finish_thread(tid, true);
                    }
                }
                break;
            }
        }
    }
}

/// One thread's view of the machine for one pipeline stage: its private
/// context (`s`), the shared structural resources (`sh`), and the shared
/// memory system.
struct Pipeline<'a> {
    cfg: &'a CpuConfig,
    hier: &'a mut Hierarchy,
    mem: &'a mut DataMemory,
    predictor: &'a mut dyn Predictor,
    prog: &'a Program,
    /// The program's µop table ([`Program::decoded`]), indexed by pc.
    dec: &'a [DecodedInstr],
    s: &'a mut ThreadCtx,
    sh: &'a mut Shared,
    cycle: u64,
}

impl<'a> Pipeline<'a> {
    /// The whole single-thread run, on one view: structurally the
    /// original pre-SMT cycle loop (stage order, halt/finish breaks,
    /// interrupt drain, cycle limit), so the classic path pays no
    /// per-cycle driver cost. Leaves the context's `done`/`end_cycle`/
    /// `limit_hit` set for the shared result assembly.
    ///
    /// Each stage reports whether it acted; after a cycle in which none
    /// did, the loop fast-forwards to [`Pipeline::next_event_cycle`]
    /// instead of stepping through cycles that would be just as idle.
    fn run_single(&mut self) {
        loop {
            // `|` rather than `||`: every stage runs every cycle.
            let mut busy = self.writeback() | self.commit();
            if self.s.halted {
                self.finish(false);
                return;
            }
            let mut used = [0usize; NUM_CLASSES];
            let mut issued = 0usize;
            busy |= self.issue(&mut used, &mut issued) | self.dispatch() | self.fetch();
            if self.finished() {
                self.finish(false);
                return;
            }
            self.cycle += 1;
            if !busy {
                self.cycle = self.next_event_cycle();
            }
            if let Some(interval) = self.cfg.interrupt_interval {
                if self.cycle.is_multiple_of(interval) && !self.s.draining {
                    self.s.draining = true;
                    self.s.interrupts += 1;
                }
            }
            if self.s.draining && self.s.len == 0 {
                self.s.draining = false;
            }
            if self.cycle >= self.cfg.max_run_cycles {
                self.finish(true);
                return;
            }
        }
    }

    /// Called after an idle cycle `C` with `self.cycle == C + 1`: the
    /// earliest cycle `>= C + 1` at which a stage can act, or the
    /// interrupt/limit bookkeeping can fire. Nothing acted at `C`, so the
    /// state entering `C + 1` is the state `C` started from, and the
    /// stages only consult the clock through the predicates below; until
    /// the first of them flips, every cycle repeats `C` exactly and is
    /// skipped. The event sources are:
    ///
    /// * the next non-empty completion-wheel bucket (a completion);
    /// * a `far` completion entering the wheel horizon;
    /// * while the stall pool holds loads: the MSHR wake
    ///   (`stall_wake_cycle`) and the 64-cycle fallback drain;
    /// * the fetch-queue front becoming ready to dispatch;
    /// * a busy divider unit freeing (a ready divide can issue);
    /// * the next `interrupt_interval` boundary;
    /// * `max_run_cycles`.
    ///
    /// An MSHR freeing needs no source of its own: an outstanding fill
    /// arrives in the very cycle the load that opened it completes, a
    /// wheel (or `far`) event. Fills that arrived during skipped cycles
    /// are pruned from `Shared::inflight` at the next issue pass, before
    /// anything reads it.
    ///
    /// Kept out of line: busy cycles never call it, and the cycle loop
    /// they run stays as small as before.
    #[inline(never)]
    fn next_event_cycle(&self) -> u64 {
        let from = self.cycle;
        if self.s.stall_wake_now {
            return from;
        }
        let mut next = self.cfg.max_run_cycles;
        if let Some(interval) = self.cfg.interrupt_interval.filter(|&i| i > 0) {
            next = next.min(from.next_multiple_of(interval));
        }
        if !self.s.stalled_loads.is_empty() {
            next = next
                .min(self.s.stall_wake_cycle)
                .min(from.next_multiple_of(64));
        }
        // A front that is already ready is blocked by window state, which
        // only an event changes.
        if let Some(front) = self.s.fetch_q.front().filter(|f| f.ready_cycle >= from) {
            next = next.min(front.ready_cycle);
        }
        for &(comp, _, _) in &self.s.far {
            next = next.min(comp + 1 - WHEEL as u64);
        }
        for &free in &self.sh.div_busy_until {
            if free >= from {
                next = next.min(free);
            }
        }
        // Wheel entries complete within `WHEEL` cycles of the idle cycle,
        // so at most one lap of buckets is scanned.
        let next = next.max(from);
        (from..next.min(from + WHEEL as u64))
            .find(|&c| !self.s.wheel[c as usize & (WHEEL - 1)].is_empty())
            .unwrap_or(next)
    }

    /// Record this context as finished at the current cycle.
    fn finish(&mut self, limit_hit: bool) {
        self.s.done = true;
        self.s.end_cycle = self.cycle;
        self.s.limit_hit = limit_hit;
    }

    /// With ROB and fetch queue empty and fetch stopped (or the program
    /// exhausted), nothing can restart the machine: a stopped fetch either
    /// means the program fell off its end (a committed `halt` would have set
    /// `halted` instead), or a wrong-path `halt` was fetched — and the
    /// mispredicted branch that caused it must already have resolved and
    /// redirected fetch, since the ROB has drained.
    fn finished(&self) -> bool {
        self.s.len == 0
            && self.s.fetch_q.is_empty()
            && (self.s.fetch_stopped || self.s.fetch_pc >= self.prog.len())
            && !self.s.halted
    }

    // ---- helpers -----------------------------------------------------------

    /// Value of the `i`-th source slot (the decode-time slot mapping: no
    /// register comparison walk).
    #[inline]
    fn slot_value(slot: &Slot, i: u8) -> u64 {
        match slot.srcs[i as usize] {
            Src::Ready(v) => v,
            Src::Tag(_) => panic!("source slot {i} read before ready"),
        }
    }

    /// Value of a decode-time operand reference.
    #[inline]
    fn src_value(slot: &Slot, s: SrcRef) -> u64 {
        match s {
            SrcRef::Slot(i) => Self::slot_value(slot, i),
            SrcRef::Imm(v) => v,
        }
    }

    /// Effective address of a slot-mapped memory operand.
    #[inline]
    fn mem_operand_addr(slot: &Slot, m: &DecodedMem) -> u64 {
        let base = m.base.map_or(0, |i| Self::slot_value(slot, i));
        let index = m.index.map_or(0, |i| Self::slot_value(slot, i));
        base.wrapping_add(index.wrapping_mul(m.scale as u64))
            .wrapping_add(m.disp as u64)
    }

    /// Is the entry with sequence number `seq` speculative, i.e. does an
    /// older unresolved conditional branch exist? O(1) amortized: resolved
    /// and retired branches are popped from the front lazily, so the front
    /// is always the oldest in-flight unresolved branch.
    fn is_speculative(&mut self, seq: Seq) -> bool {
        while let Some(&(bseq, bslot)) = self.s.spec_branches.front() {
            if !self.s.valid(bseq, bslot) || self.s.slots[bslot as usize].state == EntryState::Done
            {
                self.s.spec_branches.pop_front();
                continue;
            }
            break;
        }
        matches!(self.s.spec_branches.front(), Some(&(bseq, _)) if bseq < seq)
    }

    // ---- pipeline stages ----------------------------------------------------

    /// Push an entry onto a class ready heap (and flag the class non-empty).
    #[inline]
    fn ready_push(&mut self, cls: usize, seq: Seq, slot: u32) {
        self.s.ready[cls].push(Reverse((seq, slot)));
        self.s.ready_mask |= 1 << cls;
    }

    /// Completions, dependency wakeup and branch resolution. Returns
    /// whether anything completed or was re-homed.
    fn writeback(&mut self) -> bool {
        let mut busy = false;
        // Re-home far-out completions (DRAM outliers) whose arrival is now
        // inside the wheel horizon.
        if !self.s.far.is_empty() {
            let mut i = 0;
            while i < self.s.far.len() {
                let (comp, seq, slot) = self.s.far[i];
                if comp - self.cycle < WHEEL as u64 {
                    self.s.far.swap_remove(i);
                    self.s.wheel[comp as usize & (WHEEL - 1)].push((seq, slot));
                    busy = true;
                } else {
                    i += 1;
                }
            }
        }
        // Drain this cycle's wheel bucket: everything whose functional-unit
        // latency has elapsed.
        let mut bucket = std::mem::take(&mut self.s.wheel_scratch);
        std::mem::swap(
            &mut bucket,
            &mut self.s.wheel[self.cycle as usize & (WHEEL - 1)],
        );
        busy |= !bucket.is_empty();
        for &(seq, slot) in &bucket {
            if !self.s.valid(seq, slot) {
                continue; // squashed while in flight
            }
            let e = &mut self.s.slots[slot as usize];
            debug_assert_eq!(
                e.state,
                EntryState::Issued,
                "completion of non-issued entry"
            );
            e.state = EntryState::Done;
            let result = e.result;
            if let Some(t) = e.trace_idx {
                self.s.trace[t as usize].completed = Some(e.completion);
            }
            // Tag broadcast: wake exactly the registered dependents.
            let is_branch = matches!(
                self.dec[self.s.slots[slot as usize].pc].op,
                DecodedOp::Branch { .. }
            );
            if is_branch && self.cfg.countermeasure == Countermeasure::DelayOnMiss {
                // A resolving branch can turn a delay-on-miss-blocked load
                // non-speculative: wake the stall pool this cycle.
                self.s.stall_wake_now = true;
            }
            if self.s.slots[slot as usize].consumers.is_empty() {
                if is_branch {
                    self.s.resolve_q.push(Reverse((seq, slot)));
                }
                continue;
            }
            let mut wake = std::mem::take(&mut self.s.wake);
            std::mem::swap(&mut wake, &mut self.s.slots[slot as usize].consumers);
            for &(cseq, cslot, si) in &wake {
                if !self.s.valid(cseq, cslot) {
                    continue; // consumer squashed
                }
                let c = &mut self.s.slots[cslot as usize];
                debug_assert!(
                    matches!(c.srcs[si as usize], Src::Tag(t) if t == seq),
                    "consumer source does not hold the producer tag"
                );
                c.srcs[si as usize] = Src::Ready(result);
                c.pending -= 1;
                let now_ready = c.pending == 0
                    && c.state == EntryState::Waiting
                    && self.cfg.countermeasure != Countermeasure::InOrder;
                if now_ready {
                    let cls = self.dec[c.pc].cls as usize;
                    self.ready_push(cls, cseq, cslot);
                }
            }
            wake.clear();
            self.s.wake = wake;
            if is_branch {
                self.s.resolve_q.push(Reverse((seq, slot)));
            }
        }
        bucket.clear();
        self.s.wheel_scratch = bucket;
        // Resolve branches oldest-first; a squash invalidates younger ones,
        // whose stale handles are dropped by the validity check.
        while let Some(Reverse((seq, slot))) = self.s.resolve_q.pop() {
            if !self.s.valid(seq, slot) {
                continue;
            }
            let e = &self.s.slots[slot as usize];
            if e.resolved {
                continue;
            }
            let taken = e.result != 0;
            let predicted = e.predicted_taken;
            let pc = e.pc;
            self.predictor.train(pc, taken);
            self.s.slots[slot as usize].resolved = true;
            if taken != predicted {
                self.mispredict(slot, seq, taken);
            }
        }
        busy
    }

    fn mispredict(&mut self, slot: u32, seq: Seq, taken: bool) {
        self.s.mispredicts += 1;
        // Squash everything younger than the branch, youngest first,
        // restoring the displaced RAT mappings as we go (undo log). Walking
        // youngest-to-oldest makes the sequence of `prev_rat` restores
        // reconstruct exactly the rename state at the branch's dispatch.
        while self.s.len > 0 {
            let t = self.s.tail_slot();
            if self.s.slots[t].seq <= seq {
                break;
            }
            let d = &self.dec[self.s.slots[t].pc];
            let v = &mut self.s.slots[t];
            if let Some(dst) = d.dst {
                self.s.rat[dst.index()] = v.prev_rat;
            }
            if v.state == EntryState::Waiting {
                self.s.waiting_count -= 1;
            }
            if let Some(li) = v.load_event {
                // Invariant: a load being squashed can never have committed.
                assert!(
                    !self.s.loads[li as usize].committed,
                    "squashed load marked committed"
                );
            }
            // CleanupSpec: undo the squashed load's cache fill. The *state*
            // is repaired — but any timing difference it caused has already
            // been consumed by older instructions (SpectreBack's point).
            if self.cfg.countermeasure == Countermeasure::CleanupSpec {
                let v = &self.s.slots[t];
                if let DecodedOp::Load(_) = d.op {
                    if v.state != EntryState::Waiting {
                        if let Some(addr) = v.mem_addr {
                            self.hier.flush(Addr(addr));
                        }
                    }
                }
            }
            self.s.squashed += 1;
            self.s.len -= 1;
        }
        while matches!(self.s.store_q.back(), Some(&(sseq, _)) if sseq > seq) {
            self.s.store_q.pop_back();
        }
        while matches!(self.s.spec_branches.back(), Some(&(bseq, _)) if bseq > seq) {
            self.s.spec_branches.pop_back();
        }
        self.s.stalled_loads.retain(|&(sseq, _)| sseq <= seq);
        if self.s.inorder_skip > self.s.len {
            self.s.inorder_skip = self.s.len;
        }
        // Redirect fetch down the correct path.
        let pc = self.s.slots[slot as usize].pc;
        let target = match self.dec[pc].op {
            DecodedOp::Branch { target, .. } => {
                if taken {
                    target as usize
                } else {
                    pc + 1
                }
            }
            _ => unreachable!("mispredict on non-branch"),
        };
        self.s.fetch_q.clear();
        self.s.fetch_pc = target;
        self.s.fetch_stopped = target >= self.prog.len();
        // A squashed fence no longer blocks dispatch.
        if let Some(fseq) = self.s.fence_active {
            if fseq > seq {
                self.s.fence_active = None;
            }
        }
    }

    /// In-order retirement. (No commit-time tag broadcast is needed: the
    /// completion-time wakeup resolved every registered consumer, and later
    /// consumers rename straight to the ready value.) Returns whether
    /// anything committed.
    fn commit(&mut self) -> bool {
        let before = self.s.committed;
        for _ in 0..self.cfg.commit_width {
            if self.s.len == 0 {
                break;
            }
            let h = self.s.head;
            if self.s.slots[h].state != EntryState::Done {
                break;
            }
            self.s.head = self.s.wrap(h + 1);
            self.s.len -= 1;
            self.s.inorder_skip = self.s.inorder_skip.saturating_sub(1);
            self.s.committed += 1;
            let e = &self.s.slots[h];
            let (seq, result, mem_addr) = (e.seq, e.result, e.mem_addr);
            let d = &self.dec[e.pc];
            if let Some(t) = e.trace_idx {
                self.s.trace[t as usize].committed = Some(self.cycle);
            }
            // Architectural register update + RAT release.
            if let Some(dst) = d.dst {
                self.s.arch_regs[dst.index()] = result;
                if matches!(self.s.rat[dst.index()], Some((rseq, _)) if rseq == seq) {
                    self.s.rat[dst.index()] = None;
                }
            }
            match d.op {
                DecodedOp::Store { .. } => {
                    let addr = mem_addr.expect("store address resolved at issue");
                    self.mem.write(addr, result);
                    self.hier.access(Addr(addr), AccessKind::Store);
                    debug_assert_eq!(
                        self.s.store_q.front().map(|&(s, _)| s),
                        Some(seq),
                        "stores commit in store-queue order"
                    );
                    self.s.store_q.pop_front();
                    // The commit both fills the line and removes the store
                    // from the disambiguation window: wake aliased loads.
                    // Commit precedes issue, so everyone may observe it.
                    self.wake_stalled_on_line(Addr(addr).line().0, 0);
                }
                DecodedOp::Load(_) if self.s.slots[h].deferred_fill => {
                    // Invisible-speculation modes: apply the fill now.
                    let addr = mem_addr.expect("load address resolved at issue");
                    self.hier.access(Addr(addr), AccessKind::Load);
                    self.wake_stalled_on_line(Addr(addr).line().0, 0);
                }
                DecodedOp::Fence => {
                    self.s.fence_active = None;
                }
                DecodedOp::Halt => {
                    self.s.halted = true;
                    return true;
                }
                _ => {}
            }
            if let Some(li) = self.s.slots[h].load_event {
                self.s.loads[li as usize].committed = true;
            }
        }
        self.s.committed != before
    }

    /// Data-driven issue to functional units: merge the per-class ready
    /// heaps in global sequence order, skipping classes with exhausted
    /// ports — selecting exactly the instructions the reference scheduler's
    /// program-order ROB scan would pick. `used` and `issued` are the
    /// per-cycle port and bandwidth budgets, shared across hardware
    /// threads: the driver passes the same counters to every context, in
    /// arbitration order. Returns whether the stall pool woke or any entry
    /// was attempted (issued or parked).
    fn issue(&mut self, used: &mut [usize; NUM_CLASSES], issued: &mut usize) -> bool {
        if self.cfg.countermeasure == Countermeasure::InOrder {
            return self.issue_in_order(used, issued);
        }
        // Prune arrived fills once per cycle (`now` is constant inside the
        // cycle, so per-attempt pruning was redundant work; with SMT the
        // retain simply re-runs as a no-op for later threads).
        let now = self.cycle;
        self.sh.inflight.retain(|&(_, done)| done > now);
        // Wake the stall pool when a blocking condition may have cleared:
        // an outstanding miss expired (deterministic cycle) or an
        // unblocking event fired since the last issue pass. With more than
        // one hardware thread the pool drains every cycle — other threads'
        // fills and MSHR traffic are wake sources the per-thread event
        // model cannot see, and per-cycle attempts are exactly the
        // reference scheduler's behavior. A periodic fallback drain bounds
        // staleness as a liveness belt-and-braces — a drained attempt that
        // still fails just goes straight back.
        let woke = self.s.stall_wake_now
            || now >= self.s.stall_wake_cycle
            || (self.sh.nthreads > 1 && !self.s.stalled_loads.is_empty())
            || (!self.s.stalled_loads.is_empty() && now.is_multiple_of(64));
        if woke {
            self.s.stall_wake_now = false;
            self.s.stall_wake_cycle = u64::MAX;
            self.drain_stalled(None);
        }
        let (issued_before, parked_before) = (*issued, self.s.stalled_loads.len());
        while *issued < self.cfg.issue_width {
            // Pick the oldest ready entry among classes with a free port,
            // visiting only classes whose heap is non-empty.
            let mut best: Option<(Seq, u32, usize)> = None;
            let mut mask = self.s.ready_mask;
            while mask != 0 {
                let cls = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if !self.port_available(cls, used) {
                    continue;
                }
                // Drop stale (squashed) handles while peeking.
                let top = loop {
                    let candidate = match self.s.ready[cls].peek() {
                        Some(&Reverse((seq, slot))) => (seq, slot),
                        None => {
                            self.s.ready_mask &= !(1 << cls);
                            break None;
                        }
                    };
                    if self.s.valid(candidate.0, candidate.1) {
                        break Some(candidate);
                    }
                    self.s.ready[cls].pop();
                };
                if let Some((seq, slot)) = top {
                    if best.is_none_or(|(bseq, _, _)| seq < bseq) {
                        best = Some((seq, slot, cls));
                    }
                }
            }
            let Some((seq, slot, cls)) = best else { break };
            self.s.ready[cls].pop();
            if self.s.ready[cls].is_empty() {
                self.s.ready_mask &= !(1 << cls);
            }
            if self.try_issue(slot as usize, cls, used) {
                *issued += 1;
            } else {
                // Only loads can fail (disambiguation / MSHRs /
                // delay-on-miss): park in the stall pool until a wake
                // condition fires.
                debug_assert_eq!(cls, CLS_LOAD);
                self.s.stalled_loads.push((seq, slot));
            }
        }
        woke || *issued != issued_before || self.s.stalled_loads.len() != parked_before
    }

    /// Move stalled loads back into the ready heap. `after = None` drains
    /// everything (start-of-cycle wake); a mid-issue event passes its own
    /// sequence number and only entries *younger* than it drain, because
    /// the reference scheduler's program-order scan only lets younger
    /// instructions observe the event's effect within the same cycle.
    /// Entries already attempted this cycle stay pooled (one attempt per
    /// entry per cycle) and re-arm a next-cycle wake.
    fn drain_stalled(&mut self, after: Option<Seq>) {
        let cycle = self.cycle;
        let mut i = 0;
        while i < self.s.stalled_loads.len() {
            let (seq, slot) = self.s.stalled_loads[i];
            if !self.s.valid(seq, slot) {
                self.s.stalled_loads.swap_remove(i); // squashed
                continue;
            }
            if after.is_some_and(|a| seq <= a) {
                i += 1;
                continue;
            }
            if self.s.slots[slot as usize].last_attempt == cycle {
                self.s.stall_wake_now = true;
                i += 1;
                continue;
            }
            self.s.stalled_loads.swap_remove(i);
            self.ready_push(CLS_LOAD, seq, slot);
        }
    }

    /// A line was just filled (or an aliased store left the store queue):
    /// wake stalled loads on that line — younger ones this cycle (from
    /// `event_seq`), everyone at the next issue pass.
    fn wake_stalled_on_line(&mut self, line: u64, event_seq: Seq) {
        let hit = self.s.stalled_loads.iter().any(|&(_, slot)| {
            self.s.slots[slot as usize]
                .mem_addr
                .is_some_and(|a| Addr(a).line().0 == line)
        });
        if hit {
            self.s.stall_wake_now = true;
            self.drain_stalled(Some(event_seq));
        }
    }

    /// Strict in-order issue (the `Countermeasure::InOrder` mode): the
    /// oldest unissued instruction must go first; if it cannot, nothing
    /// younger may. `inorder_skip` remembers how much of the window front is
    /// already issued, so the scan is O(1) amortized. Returns whether
    /// anything issued (a blocked attempt changes nothing).
    fn issue_in_order(&mut self, used: &mut [usize; NUM_CLASSES], issued: &mut usize) -> bool {
        let before = *issued;
        // Prune arrived fills once per cycle (mirrors `issue`).
        let now = self.cycle;
        self.sh.inflight.retain(|&(_, done)| done > now);
        while *issued < self.cfg.issue_width {
            while self.s.inorder_skip < self.s.len {
                let slot = self.s.wrap(self.s.head + self.s.inorder_skip);
                if self.s.slots[slot].state == EntryState::Waiting {
                    break;
                }
                self.s.inorder_skip += 1;
            }
            if self.s.inorder_skip >= self.s.len {
                break;
            }
            let slot = self.s.wrap(self.s.head + self.s.inorder_skip);
            if self.s.slots[slot].pending > 0 {
                break; // oldest unissued not ready ⇒ stall everything
            }
            let cls = self.dec[self.s.slots[slot].pc].cls as usize;
            if !self.port_available(cls, used) || !self.try_issue(slot, cls, used) {
                break;
            }
            *issued += 1;
        }
        *issued != before
    }

    /// Does class `cls` still have an issue port this cycle?
    fn port_available(&self, cls: usize, used: &[usize; NUM_CLASSES]) -> bool {
        match cls {
            CLS_ALU => used[CLS_ALU] < self.cfg.alu_ports,
            CLS_MUL => used[CLS_MUL] < self.cfg.mul_ports,
            CLS_DIV => used[CLS_DIV] < self.cfg.div_ports && self.sh.div_unit_free(self.cycle),
            CLS_LOAD => used[CLS_LOAD] < self.cfg.load_ports,
            CLS_STORE => used[CLS_STORE] < self.cfg.store_ports,
            CLS_BRANCH => used[CLS_BRANCH] < self.cfg.branch_ports,
            _ => true,
        }
    }

    /// Execute the issue of the entry in `slot` (port availability already
    /// checked); returns false only for loads that must retry later.
    fn try_issue(&mut self, slot: usize, cls: usize, used: &mut [usize; NUM_CLASSES]) -> bool {
        let lat = self.cfg.latencies;
        let now = self.cycle;
        match self.dec[self.s.slots[slot].pc].op {
            DecodedOp::Alu { op, a, b } => {
                let av = Self::src_value(&self.s.slots[slot], a);
                let bv = Self::src_value(&self.s.slots[slot], b);
                let latency = match op {
                    AluOp::Mul => lat.mul,
                    AluOp::Div => {
                        self.sh.claim_div_unit(now, lat.div_recip);
                        lat.div_min + ((av ^ bv) & 1)
                    }
                    _ => lat.alu,
                };
                self.finish_issue(slot, cls, used, op.eval(av, bv), now + latency);
            }
            DecodedOp::Lea(mem) => {
                let addr = Self::mem_operand_addr(&self.s.slots[slot], &mem);
                self.finish_issue(slot, cls, used, addr, now + lat.alu);
            }
            DecodedOp::Load(mem) => {
                if !self.issue_load(slot, mem, used) {
                    return false;
                }
            }
            DecodedOp::Store { src, mem } => {
                let addr = Self::mem_operand_addr(&self.s.slots[slot], &mem);
                let val = Self::src_value(&self.s.slots[slot], src);
                let e = &mut self.s.slots[slot];
                e.mem_addr = Some(addr);
                let seq = e.seq;
                // Publish the now-known address for load disambiguation.
                if let Some(entry) = self
                    .s
                    .store_q
                    .iter_mut()
                    .rev()
                    .find(|(sseq, _)| *sseq == seq)
                {
                    entry.1 = Some(addr);
                }
                self.finish_issue(slot, cls, used, val, now + lat.store);
                // The now-known address unblocks younger loads that were
                // stalled on this store's unknown address.
                self.drain_stalled(Some(seq));
            }
            DecodedOp::Prefetch { mem, nta } => {
                let addr = Self::mem_operand_addr(&self.s.slots[slot], &mem);
                let kind = if nta {
                    AccessKind::PrefetchNta
                } else {
                    AccessKind::Prefetch
                };
                self.hier.access(Addr(addr), kind);
                self.s.slots[slot].mem_addr = Some(addr);
                let seq = self.s.slots[slot].seq;
                self.finish_issue(slot, cls, used, 0, now + 1);
                // Prefetch fills at issue: stalled loads on this line may
                // now hit.
                self.wake_stalled_on_line(Addr(addr).line().0, seq);
            }
            DecodedOp::Flush(mem) => {
                let addr = Self::mem_operand_addr(&self.s.slots[slot], &mem);
                self.hier.flush(Addr(addr));
                self.s.slots[slot].mem_addr = Some(addr);
                self.finish_issue(slot, cls, used, 0, now + 1);
            }
            DecodedOp::Branch { cond, b, .. } => {
                let av = Self::slot_value(&self.s.slots[slot], 0);
                let bv = Self::src_value(&self.s.slots[slot], b);
                let result = u64::from(cond.eval(av, bv));
                self.finish_issue(slot, cls, used, result, now + lat.branch);
            }
            DecodedOp::Jump { .. } | DecodedOp::Nop | DecodedOp::Fence | DecodedOp::Halt => {
                self.finish_issue(slot, cls, used, 0, now);
            }
        }
        true
    }

    /// Common successful-issue bookkeeping: state transition, port charge,
    /// completion event, trace stamp.
    fn finish_issue(
        &mut self,
        slot: usize,
        cls: usize,
        used: &mut [usize; NUM_CLASSES],
        result: u64,
        completion: u64,
    ) {
        used[cls] += 1;
        let e = &mut self.s.slots[slot];
        debug_assert_eq!(e.state, EntryState::Waiting);
        e.result = result;
        e.state = EntryState::Issued;
        e.completion = completion;
        let seq = e.seq;
        self.s.waiting_count -= 1;
        // Writeback processes arrivals strictly after the issuing cycle, so
        // zero-latency completions land in the next cycle's bucket.
        let arrival = completion.max(self.cycle + 1);
        if arrival - self.cycle < WHEEL as u64 {
            self.s.wheel[arrival as usize & (WHEEL - 1)].push((seq, slot as u32));
        } else {
            self.s.far.push((arrival, seq, slot as u32));
        }
        if let Some(t) = self.s.slots[slot].trace_idx {
            self.s.trace[t as usize].issued = Some(self.cycle);
        }
    }

    /// Issue a load, honouring store ordering, MSHRs and countermeasures.
    /// Returns false if the load must retry later.
    fn issue_load(
        &mut self,
        slot: usize,
        mem_op: DecodedMem,
        used: &mut [usize; NUM_CLASSES],
    ) -> bool {
        // A load only reaches here with all sources ready, so its effective
        // address is final: compute it once and cache it across the (often
        // many) MSHR-full retry attempts. `mem_addr` on a still-Waiting
        // entry is ignored by every other consumer.
        let addr = match self.s.slots[slot].mem_addr {
            Some(a) => a,
            None => {
                let a = Self::mem_operand_addr(&self.s.slots[slot], &mem_op);
                self.s.slots[slot].mem_addr = Some(a);
                a
            }
        };
        self.s.slots[slot].last_attempt = self.cycle;
        let seq = self.s.slots[slot].seq;
        // Conservative memory disambiguation: an older in-flight store with
        // an unknown address, or a known address matching this word, blocks
        // the load until the store commits. The store queue holds only
        // in-flight stores, so this scan is tiny (vs. the reference
        // scheduler's walk of the whole ROB prefix). Stores are a
        // same-thread affair: threads share no memory-ordering model.
        for &(sseq, saddr) in &self.s.store_q {
            if sseq > seq {
                break;
            }
            match saddr {
                None => return false,
                Some(sa) if sa == addr => return false,
                _ => {}
            }
        }

        let speculative = self.is_speculative(seq);
        let now = self.cycle;
        let line = Addr(addr).line().0;
        // (Arrived fills were pruned from `inflight` once at the top of
        // this cycle's issue pass.)

        let cm = self.cfg.countermeasure;
        let shield = match cm {
            Countermeasure::InvisibleSpec | Countermeasure::GhostMinion => speculative,
            _ => false,
        };
        let inflight_done = self
            .sh
            .inflight
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, done)| done);
        // Single stateless L1 lookup; the hit path below reuses the way
        // instead of re-scanning the tags (and, unlike a full `probe`, an
        // L1 miss here never walks the L2/L3 tag arrays).
        let l1_way = self.hier.lookup_l1(Addr(addr));
        if cm == Countermeasure::DelayOnMiss
            && speculative
            && l1_way.is_none()
            && inflight_done.is_none()
        {
            // Speculative L1 miss: delay until non-speculative.
            return false;
        }

        let (latency, level) = if let Some(done) = inflight_done {
            // Merge into the outstanding miss (MSHR hit) — possibly one
            // another hardware thread started.
            (
                done.saturating_sub(now).max(self.cfg.latencies.alu),
                HitLevel::L2,
            )
        } else if shield {
            // Invisible speculation: timing only, no state change.
            (
                self.hier.peek_latency(Addr(addr)),
                self.hier.probe(Addr(addr)),
            )
        } else {
            // Normal path: check MSHR capacity for misses.
            if l1_way.is_none() && self.sh.inflight.len() >= self.cfg.mshrs {
                // Capacity cannot free before the earliest outstanding
                // fill arrives: arm the stall pool's deterministic wake.
                let min_done = self
                    .sh
                    .inflight
                    .iter()
                    .map(|&(_, done)| done)
                    .min()
                    .expect("MSHRs full implies outstanding entries");
                self.s.stall_wake_cycle = self.s.stall_wake_cycle.min(min_done);
                return false;
            }
            let out = match l1_way {
                Some(way) => self.hier.access_l1_hit(Addr(addr), way),
                None => self.hier.access_l1_miss(Addr(addr), AccessKind::Load),
            };
            if out.level != HitLevel::L1 {
                self.sh.inflight.push((line, now + out.latency));
                // The miss filled the line at issue and registered it as
                // outstanding: stalled loads on the same line can now
                // merge or hit.
                self.wake_stalled_on_line(line, seq);
            }
            (out.latency, out.level)
        };

        let value = self.mem.read(addr);
        let record = self.cfg.record.loads();
        let e = &mut self.s.slots[slot];
        e.mem_addr = Some(addr);
        e.deferred_fill = shield;
        if record {
            let ev = LoadEvent {
                pc: e.pc,
                seq: e.seq,
                addr,
                issue_cycle: now,
                complete_cycle: now + latency,
                level,
                speculative,
                committed: false,
            };
            e.load_event = Some(self.s.loads.len() as u32);
            self.s.loads.push(ev);
        }
        self.finish_issue(slot, CLS_LOAD, used, value, now + latency);
        true
    }

    /// Rename and dispatch from the fetch queue into the ROB. Returns
    /// whether anything dispatched.
    fn dispatch(&mut self) -> bool {
        if self.s.draining {
            return false;
        }
        let before = self.s.next_seq;
        for _ in 0..self.cfg.dispatch_width {
            if self.s.fence_active.is_some() {
                break;
            }
            if self.s.len >= self.cfg.rob_size {
                break;
            }
            if self.s.waiting_count >= self.cfg.rs_size {
                break;
            }
            let Some(front) = self.s.fetch_q.front() else {
                break;
            };
            if front.ready_cycle > self.cycle {
                break;
            }
            let fetched = self.s.fetch_q.pop_front().expect("front exists");
            let pc = fetched.pc as usize;
            let d = &self.dec[pc];
            let seq = self.s.next_seq;
            self.s.next_seq += 1;
            let slot = self.s.alloc_slot();

            // Rename: resolve each source against the RAT. A live producer
            // that is already Done hands over its value immediately; an
            // in-flight one gets this entry appended to its consumer list.
            let nsrcs = d.nsrcs as usize;
            let src_regs = d.srcs;
            let mut srcs = [Src::Ready(0); 3];
            let mut pending = 0u8;
            for (i, &r) in src_regs[..nsrcs].iter().enumerate() {
                let src = match self.s.rat[r.index()] {
                    None => Src::Ready(self.s.arch_regs[r.index()]),
                    Some((pseq, pslot)) => {
                        if self.s.valid(pseq, pslot) {
                            let p = &mut self.s.slots[pslot as usize];
                            if p.state == EntryState::Done {
                                Src::Ready(p.result)
                            } else {
                                p.consumers.push((seq, slot as u32, i as u8));
                                pending += 1;
                                Src::Tag(pseq)
                            }
                        } else {
                            // Producer already committed.
                            Src::Ready(self.s.arch_regs[r.index()])
                        }
                    }
                };
                srcs[i] = src;
            }

            let d = &self.dec[pc];
            let prev_rat = match d.dst {
                Some(dst) => {
                    let prev = self.s.rat[dst.index()];
                    self.s.rat[dst.index()] = Some((seq, slot as u32));
                    prev
                }
                None => None,
            };
            let cls = d.cls as usize;
            match d.op {
                DecodedOp::Branch { .. } => self.s.spec_branches.push_back((seq, slot as u32)),
                DecodedOp::Fence => self.s.fence_active = Some(seq),
                DecodedOp::Store { .. } => self.s.store_q.push_back((seq, None)),
                _ => {}
            }

            let trace_idx = if self.cfg.record.trace() {
                let instr = self.prog.get(pc).expect("fetched pc in range");
                let fetched_cycle = fetched.ready_cycle.saturating_sub(self.cfg.front_end_depth);
                let mut rec = crate::trace::TraceRecord::new(seq, pc, instr, fetched_cycle);
                rec.dispatched = self.cycle;
                self.s.trace.push(rec);
                Some((self.s.trace.len() - 1) as u32)
            } else {
                None
            };

            let e = &mut self.s.slots[slot];
            e.seq = seq;
            e.pc = pc;
            e.state = EntryState::Waiting;
            e.nsrcs = nsrcs as u8;
            e.pending = pending;
            e.srcs = srcs;
            e.result = 0;
            e.completion = 0;
            e.predicted_taken = fetched.predicted_taken;
            e.mem_addr = None;
            e.deferred_fill = false;
            e.load_event = None;
            e.trace_idx = trace_idx;
            e.prev_rat = prev_rat;
            e.resolved = false;
            e.last_attempt = u64::MAX;
            e.consumers.clear();
            self.s.len += 1;
            self.s.waiting_count += 1;

            if pending == 0 && self.cfg.countermeasure != Countermeasure::InOrder {
                self.ready_push(cls, seq, slot as u32);
            }
        }
        self.s.next_seq != before
    }

    /// Predicted instruction fetch. Returns whether anything was fetched
    /// or fetch stopped.
    fn fetch(&mut self) -> bool {
        if self.s.draining || self.s.fetch_stopped {
            return false;
        }
        let before = self.s.fetch_q.len();
        for _ in 0..self.cfg.fetch_width {
            if self.s.fetch_pc >= self.prog.len() {
                self.s.fetch_stopped = true;
                break;
            }
            if self.s.fetch_q.len() >= self.cfg.rob_size {
                break;
            }
            let pc = self.s.fetch_pc;
            let mut predicted_taken = false;
            let mut next = pc + 1;
            match self.dec[pc].op {
                DecodedOp::Branch { target, .. } => {
                    predicted_taken = self.predictor.predict(pc);
                    if predicted_taken {
                        next = target as usize;
                    }
                }
                DecodedOp::Jump { target } => {
                    predicted_taken = true;
                    next = target as usize;
                }
                DecodedOp::Halt => {
                    self.s.fetch_stopped = true;
                }
                _ => {}
            }
            self.s.fetch_q.push_back(FetchedInstr {
                pc: pc as u32,
                predicted_taken,
                ready_cycle: self.cycle + self.cfg.front_end_depth,
            });
            if self.s.fetch_stopped {
                break;
            }
            self.s.fetch_pc = next;
        }
        self.s.fetch_q.len() != before || self.s.fetch_stopped
    }
}
