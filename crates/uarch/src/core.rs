//! The cycle-level out-of-order core.
//!
//! Per-cycle stage order: branch resolution → retire → issue/execute →
//! dispatch/rename → fetch. Fetch runs the speculative emulator
//! ([`crate::emu::SpecEmulator`]) along the predicted path; branch
//! resolution compares the predicted direction with the architectural one
//! and flushes (or, for wish branches in low-confidence mode, deliberately
//! does not flush) per §3.5.4 of the paper.
//!
//! # Layout
//!
//! [`Simulator`] owns the program's pre-decoded per-PC tables
//! ([`DecodedProgram`]) and one [`Pipeline`], the machine's dynamic state.
//! The per-cycle loop is event-driven rather than scan-driven:
//!
//! * **Slot arena** — a fetched µop is written once, at fetch, into a
//!   [`UopSlot`]; the front-end queue and the ROB hold `u32` slot indices,
//!   so no µop record moves through the pipeline stages. Branch metadata
//!   (which embeds a RAS checkpoint) lives in a side arena, referenced
//!   only by the µops that carry it. Static per-PC facts are read from the
//!   decoded tables, never copied per µop.
//! * **Slim ROB with implicit ids** — a ROB entry ([`RobSlim`]) is a slot
//!   reference plus scheduling state; the id of entry `i` is
//!   `front_id + i`, kept contiguous across retire and flush.
//! * **Wakeup lists and a ready bitmap** — each producer keeps the ids of
//!   its waiting consumers ([`WaiterList`]); a consumer whose last
//!   producer completes is set in a circular ready bitmap, and issue takes
//!   the lowest ready ids first.
//! * **Calendar ring** — completion events live in per-cycle buckets for
//!   the next [`RING`] cycles (longer latencies overflow into a heap), and
//!   an event is scheduled only for a producer that has waiters.
//! * **Inert-span skip** — when no stage can act before some future cycle
//!   ([`Pipeline::inert_until`]), the loop jumps there and bulk-applies
//!   the idle accounting the skipped cycles would have produced.
//!
//! `tests/golden_figures.rs` pins every architected number this core
//! produces, byte for byte.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::error::Error;
use std::fmt;
use std::marker::PhantomData;

use crate::config::{MachineConfig, OracleConfig, PredMechanism};
use crate::decode::{DecodedProgram, PcInfo, EC_DIV, EC_LOAD, EC_MUL, EC_UNIT};
use crate::emu::{SpecEmulator, StepInfo};
use crate::stats::{HotSiteCounts, SimStats, WishClassCounts};
use crate::trace::{TraceEvent, TraceKind};
use wishbranch_bpred::{
    Btb, BtbEntry, BtbKind, HybridPredictor, HybridToken, IndirectConfig, IndirectTargetCache,
    JrsConfidence, LoopPredictor, LoopToken, RasCheckpoint, ReturnAddressStack,
};
use wishbranch_isa::{
    insn_addr, BranchKind, Gpr, Insn, InsnKind, PredReg, Program, RetireRecord, WishType,
    NUM_GPRS, NUM_PREDS,
};
use wishbranch_mem::{AccessOutcome, MemoryHierarchy, StoreOutcome};

/// Errors from [`Simulator::run`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The cycle budget was exhausted before `halt` retired.
    CycleLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CycleLimitExceeded { limit } => {
                write!(f, "program did not retire halt within {limit} cycles")
            }
        }
    }
}

impl Error for SimError {}

/// Outcome of a simulation.
#[derive(Clone, PartialEq, Debug)]
pub struct SimResult {
    /// All statistics.
    pub stats: SimStats,
    /// Final (retired) general registers.
    pub final_regs: [i64; NUM_GPRS],
    /// Final (retired) predicate registers.
    pub final_preds: [bool; NUM_PREDS],
    /// Final (retired) memory, sorted.
    pub final_mem: std::collections::BTreeMap<u64, i64>,
}

/// Dynamic-hammock-predication fetch state: which region is currently
/// being fetched under an injected guard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum DhpState {
    Off,
    /// Guarding the fall-through arm. At `until`, either stop (triangle) or
    /// redirect into the taken arm (`then` = (taken_start, taken_until,
    /// skip_to-after-taken)).
    GuardFall {
        pred: PredReg,
        negated: bool,
        /// Architectural value of `pred` when the branch was fetched (the
        /// renamed condition real hardware would hold).
        cond: bool,
        until: u32,
        then: Option<(u32, u32, Option<u32>)>,
    },
    /// Guarding the taken arm under the complement; at `until`, optionally
    /// skip the arm's trailing unconditional jump back to `skip_to`.
    GuardTaken {
        pred: PredReg,
        negated: bool,
        /// See [`DhpState::GuardFall::cond`].
        cond: bool,
        until: u32,
        skip_to: Option<u32>,
    },
}

/// Front-end mode of Fig. 8.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Normal,
    HighConf,
    /// Low-confidence mode. For wish jumps/joins, `exit_target` is the
    /// target of the branch that caused entry (fetching it exits the mode);
    /// for wish loops, `loop_pc` identifies the loop being predicated.
    LowConf {
        exit_target: Option<u32>,
        loop_pc: Option<u32>,
    },
}

/// Branch metadata captured at fetch.
#[derive(Clone, Copy, Debug)]
struct BrMeta {
    /// Direction fetch followed (conditional branches).
    predicted_taken: bool,
    /// pc fetch continued at.
    predicted_next: u32,
    /// Hybrid predictor token (conditional branches, non-oracle).
    bp_token: Option<HybridToken>,
    /// What the direction predictor said before any wish-branch forcing.
    predictor_said_taken: bool,
    /// GHR before this branch's speculative update.
    ghr_checkpoint: u64,
    /// GHR value used to index the confidence estimator.
    conf_ghr: u64,
    /// RAS state after this branch's own push/pop.
    ras_checkpoint: RasCheckpoint,
    /// Confidence estimate for wish branches (None = not a wish branch or
    /// hardware disabled).
    conf_high: Option<bool>,
    /// Mode the front end was in when this branch was fetched (§3.5.4
    /// footnote: recovery checks the mode at fetch, not at resolution).
    fetch_mode: Mode,
    /// Specialized wish-loop predictor token, when that predictor is
    /// enabled and produced this prediction.
    loop_token: Option<LoopToken>,
    /// This branch was dynamically hammock-predicated (DHP): both arms are
    /// in the pipeline under hardware guards, so it never flushes.
    dhp: bool,
}

/// Role of a ROB entry under the select-µop mechanism.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    /// The whole architectural µop (C-style, or unguarded).
    Whole,
    /// Select-µop expansion: the unguarded compute part.
    Compute,
    /// Select-µop expansion: the select merging under the predicate.
    Select,
}

/// Inline capacity of a [`WaiterList`]; spills go to a pooled `Vec`.
const WAITERS_INLINE: usize = 4;

/// Consumers waiting on one producer's completion, in ascending ROB-id
/// order (ids only grow between flushes, and a flush truncates the tail).
/// Small-buffer inline; the rare spill vectors are recycled through
/// `Pipeline::waiter_pool` across flushes so steady state allocates
/// nothing per µop.
#[derive(Clone, Debug, Default)]
struct WaiterList {
    len: u32,
    inline: [u64; WAITERS_INLINE],
    spill: Vec<u64>,
}

impl WaiterList {
    fn push(&mut self, id: u64) {
        let l = self.len as usize;
        if l < WAITERS_INLINE {
            self.inline[l] = id;
        } else {
            self.spill.push(id);
        }
        self.len += 1;
    }

    /// The next `push` would land in the spill vector.
    fn will_spill(&self) -> bool {
        self.len as usize >= WAITERS_INLINE
    }

    /// Drops waiters with id > `boundary` (flush squash). The list is
    /// ascending, so squashed ids form the tail.
    fn truncate_above(&mut self, boundary: u64) {
        while self.len > 0 {
            let l = (self.len - 1) as usize;
            let last = if l < WAITERS_INLINE {
                self.inline[l]
            } else {
                self.spill[l - WAITERS_INLINE]
            };
            if last <= boundary {
                break;
            }
            if l >= WAITERS_INLINE {
                self.spill.pop();
            }
            self.len -= 1;
        }
    }
}

/// In-flight µop state, written once at fetch into the slot arena.
/// The front-end queue and ROB reference slots by index; the instruction
/// itself is *not* stored — static facts come from the
/// [`DecodedProgram`].
struct UopSlot {
    seq: u64,
    pc: u32,
    fetch_cycle: u64,
    info: StepInfo,
    /// Branch metadata arena reference ([`NO_BR`] = not a branch and not a
    /// predicted predicate write). [`BrMeta`] embeds a full RAS checkpoint
    /// (~300 bytes), so it lives out-of-line: the per-µop slot copy stays
    /// small and the metadata is written only for µops that carry it.
    br: u32,
    /// Guard value supplied by the predicate-dependency-elimination buffer
    /// (§3.5.3), if any.
    guard_pred_elim: Option<bool>,
    /// Hardware-injected guard from dynamic hammock predication.
    hw_guard: Option<(PredReg, bool)>,
    /// Predicate prediction: predicted first-destination value.
    pred_check: Option<bool>,
}

/// `UopSlot::br` value for µops without branch metadata.
const NO_BR: u32 = u32::MAX;

/// `RobSlim::flags` bits.
const F_ISSUED: u8 = 1;
const F_DONE: u8 = 2;
const F_RESOLVED: u8 = 4;
const F_MISPRED: u8 = 8;
/// A completion event for this entry is scheduled (lazy wakeup: events
/// exist only for producers that actually have registered waiters).
const F_EVENT: u8 = 16;

/// `RobSlim::meta` layout: execution-latency class in the low bits plus
/// the two static facts the scheduler checks every cycle, copied out of
/// the [`PcInfo`] at dispatch so the resolve/retire/issue hot paths
/// never touch the decoded-program tables for non-memory µops.
const META_CLASS: u8 = 7;
const META_BRANCH: u8 = 8;
const META_PREDCHK: u8 = 16;

/// Completion-event calendar ring: events within `RING` cycles of now live
/// in per-cycle buckets (O(1) push/drain, occupancy bitmap for the flush
/// purge); the rare longer-latency events overflow into a heap.
const RING: u64 = 512;
const RING_WORDS: usize = (RING as usize) / 64;

/// `RobSlim::loop_class`: how a mispredicted low-confidence wish loop
/// resolved (§3.2); 0 for every other entry. Early exit: fewer iterations
/// fetched than needed — flush.
const LC_EARLY: u8 = 1;
/// Late exit: a few extra iterations fetched, the front end already out
/// of the loop — no flush, the case where wish loops win.
const LC_LATE: u8 = 2;
/// No exit: the front end is still spinning in the loop — flush.
const LC_NOEXIT: u8 = 3;

/// A slim ROB entry: a slot reference plus scheduling state. Entry ids are
/// implicit — the entry at index `i` has id `front_id + i`.
struct RobSlim {
    slot: u32,
    pc: u32,
    unready: u32,
    /// `META_*` bits: exec class + is-branch + has-pred-check.
    meta: u8,
    role: Role,
    flags: u8,
    /// Filled at resolution for mispredicted low-confidence wish loops.
    loop_class: u8,
    ready_cycle: u64,
    waiters: WaiterList,
}

/// The simulator. Create with [`Simulator::new`], optionally preload the
/// program input via [`Simulator::preload_mem`], then [`Simulator::run`].
pub struct Simulator<'p> {
    /// Pre-decoded static per-PC tables (µop cache, DHP plans, wish-loop
    /// PC set), read by every stage.
    decoded: DecodedProgram,
    pipe: Pipeline,
    /// Ties the simulator to the program it decoded.
    program: PhantomData<&'p Program>,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator over `program` with cold predictors and caches.
    #[must_use]
    pub fn new(program: &'p Program, cfg: MachineConfig) -> Simulator<'p> {
        Simulator {
            decoded: DecodedProgram::build(program, &cfg),
            pipe: Pipeline::new(cfg, program.len(), program.entry()),
            program: PhantomData,
        }
    }

    /// Enables pipeline event tracing (see [`crate::trace`]). Call before
    /// [`Simulator::run`]; collect the events with
    /// [`Simulator::take_trace`]. Tracing does not change timing.
    pub fn enable_trace(&mut self) {
        self.pipe.trace = Some(Vec::new());
    }

    /// Takes the collected trace (empty if tracing was never enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.pipe.trace.take().unwrap_or_default()
    }

    /// Enables the retired-instruction stream for differential validation
    /// against [`wishbranch_isa::LockstepOracle`]. Call before
    /// [`Simulator::run`]; collect with [`Simulator::take_retire_log`].
    /// Like tracing, the log observes retirement and never changes timing.
    pub fn enable_retire_log(&mut self) {
        self.pipe.retire_log = Some(Vec::new());
    }

    /// Takes the collected retired stream (empty if never enabled). One
    /// record per retired architectural µop in commit order; select-µop
    /// `Compute` halves are folded into their `Select` records.
    pub fn take_retire_log(&mut self) -> Vec<RetireRecord> {
        self.pipe.retire_log.take().unwrap_or_default()
    }

    /// Preloads a data-memory word (program input).
    pub fn preload_mem(&mut self, addr: u64, value: i64) {
        self.pipe.emu.mem.insert(addr, value);
    }

    /// Runs to `halt` retirement. The accumulated statistics move into the
    /// returned [`SimResult`]; a second `run` on the same simulator would
    /// observe them reset.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CycleLimitExceeded`] if the configured cycle
    /// budget runs out (runaway program or configuration bug).
    pub fn run(&mut self) -> Result<SimResult, SimError> {
        self.pipe.run(&self.decoded)?;
        Ok(self.pipe.finish())
    }
}

/// The machine's complete dynamic state. Every stage reads the static
/// per-PC facts from the [`DecodedProgram`] it is handed.
struct Pipeline {
    cfg: MachineConfig,
    /// Cached [`MachineConfig::fetch_queue_cap`].
    fetch_queue_cap: usize,
    cycle: u64,
    emu: SpecEmulator,
    mem: MemoryHierarchy,
    bp: HybridPredictor,
    btb: Btb,
    ras: ReturnAddressStack,
    itc: IndirectTargetCache,
    jrs: JrsConfidence,
    loop_pred: Option<LoopPredictor>,
    // Fetch state.
    fetch_pc: u32,
    fetch_stall_until: u64,
    /// Why `fetch_stall_until` was last armed (cycle accounting).
    fetch_stall_reason: StallReason,
    fetch_blocked: bool,
    fetch_line: Option<u64>,
    /// Cycle of the most recent pipeline flush (cycle accounting: idle
    /// cycles inside the refill shadow are charged to `flush_recovery`).
    last_flush_cycle: Option<u64>,
    /// Set by `retire_entry` when a useful (non-overhead) µop retires in
    /// the current cycle.
    cyc_retired_useful: bool,
    /// Set by `retire_entry` when a guard-false µop retires in the
    /// current cycle.
    cyc_retired_guard_false: bool,
    /// Set by `issue` when a ready load/store was refused an MSHR this
    /// cycle (non-blocking hierarchy; drives the `mshr-full` cause).
    cyc_mshr_stalled: bool,
    /// Set by `issue` when a ready store was refused a write-buffer entry
    /// this cycle (non-blocking hierarchy; drives the `writebuf-full`
    /// cause).
    cyc_writebuf_stalled: bool,
    mode: Mode,
    /// §3.5.3 buffer: predicted value per predicate register.
    pred_elim: [Option<bool>; NUM_PREDS],
    /// Live entries in `pred_elim` (emptiness without a scan).
    pred_elim_live: u32,
    /// Decode-time cmp2 pairing: complement partner per predicate register.
    cmp2_partner: [Option<u8>; NUM_PREDS],
    /// §3.5.4 buffer, indexed by static wish-loop pc:
    /// (last predicted direction, seq).
    loop_last_pred: Vec<Option<(bool, u64)>>,
    dhp: DhpState,
    /// Per-PC two-bit counters for the predicate-prediction baseline
    /// (initialized to 2, weakly predicting true).
    pred_value_pht: Vec<u8>,
    /// Per-PC hot-site counters (flat during the run; folded into
    /// `SimStats::hot_sites` once at the end).
    hot_sites: Vec<HotSiteCounts>,
    /// The confidence estimator's own history register: resolved outcomes
    /// of retired wish branches. Using non-speculative outcome history
    /// (rather than the fetch-direction GHR, which contains forced
    /// not-taken bits) keeps confidence contexts stable — our "modified
    /// JRS" (§3.5.5).
    conf_history: u64,
    next_seq: u64,
    /// Id of the ROB entry at index 0; when the ROB is empty, the id the
    /// next pushed entry receives (the next id is always
    /// `front_id + rob.len()`).
    front_id: u64,
    /// The µop slot arena and its free list.
    slots: Vec<UopSlot>,
    free: Vec<u32>,
    /// Branch-metadata arena (referenced by `UopSlot::br`) and free list.
    br_arena: Vec<BrMeta>,
    br_free: Vec<u32>,
    fe_queue: VecDeque<u32>,
    rob: VecDeque<RobSlim>,
    /// Ready set: a circular bitmap over entry ids (capacity ≥ ROB size,
    /// power of two), extracted lowest id first; insertion order is
    /// irrelevant to a bitmap, so wakeup events may fire in any
    /// within-cycle order.
    ready_bits: Vec<u64>,
    ready_mask: u64,
    ready_count: u32,
    /// Completion-event calendar: per-cycle buckets for the next `RING`
    /// cycles plus an overflow heap for longer latencies.
    ring: Vec<Vec<u64>>,
    ring_occ: [u64; RING_WORDS],
    far_events: BinaryHeap<Reverse<(u64, u64)>>,
    far_min: u64,
    /// Earliest cycle at which an unresolved branch/pred-check could become
    /// eligible; the resolve scan is skipped entirely before then.
    next_resolve: u64,
    /// Dispatch-ordered ids of unresolved Whole branches / predicate
    /// checks.
    unresolved: Vec<u64>,
    /// Dispatch-ordered store ids with the executed prefix popped.
    store_queue: VecDeque<u64>,
    /// Scratch: ready loads blocked behind an older store this cycle.
    blocked_loads: Vec<u64>,
    /// Scratch: the dependence list being built during rename (reused for
    /// every µop — dependences become counters at registration).
    dep_scratch: Vec<u64>,
    /// Recycled spill vectors for [`WaiterList`].
    waiter_pool: Vec<Vec<u64>>,
    gpr_prod: [Option<u64>; NUM_GPRS],
    pred_prod: [Option<u64>; NUM_PREDS],
    stats: SimStats,
    halted: bool,
    trace: Option<Vec<TraceEvent>>,
    /// Retired-instruction stream for the lockstep oracle (off by default).
    retire_log: Option<Vec<RetireRecord>>,
}

impl Pipeline {
    /// A cold machine about to fetch `entry` of an `n`-instruction program.
    fn new(cfg: MachineConfig, n: usize, entry: u32) -> Pipeline {
        let ready_cap = cfg.rob_size.next_power_of_two().max(64);
        Pipeline {
            fetch_pc: entry,
            fetch_queue_cap: cfg.fetch_queue_cap(),
            cycle: 0,
            emu: SpecEmulator::new(),
            mem: MemoryHierarchy::new(cfg.mem),
            bp: HybridPredictor::new(cfg.bpred),
            btb: Btb::new(cfg.btb),
            ras: ReturnAddressStack::new(),
            itc: IndirectTargetCache::new(IndirectConfig::default()),
            jrs: JrsConfidence::new(cfg.jrs),
            loop_pred: cfg.wish_loop_predictor.map(LoopPredictor::new),
            fetch_stall_until: 0,
            fetch_stall_reason: StallReason::Redirect,
            fetch_blocked: false,
            fetch_line: None,
            last_flush_cycle: None,
            cyc_retired_useful: false,
            cyc_retired_guard_false: false,
            cyc_mshr_stalled: false,
            cyc_writebuf_stalled: false,
            mode: Mode::Normal,
            pred_elim: [None; NUM_PREDS],
            pred_elim_live: 0,
            cmp2_partner: [None; NUM_PREDS],
            loop_last_pred: vec![None; n],
            dhp: DhpState::Off,
            pred_value_pht: vec![2; n],
            hot_sites: vec![HotSiteCounts::default(); n],
            conf_history: 0,
            next_seq: 1,
            front_id: 1,
            slots: Vec::new(),
            free: Vec::new(),
            br_arena: Vec::new(),
            br_free: Vec::new(),
            fe_queue: VecDeque::new(),
            rob: VecDeque::new(),
            ready_bits: vec![0; ready_cap / 64],
            ready_mask: ready_cap as u64 - 1,
            ready_count: 0,
            ring: (0..RING).map(|_| Vec::new()).collect(),
            ring_occ: [0; RING_WORDS],
            far_events: BinaryHeap::new(),
            far_min: u64::MAX,
            next_resolve: 0,
            unresolved: Vec::new(),
            store_queue: VecDeque::new(),
            blocked_loads: Vec::new(),
            dep_scratch: Vec::new(),
            waiter_pool: Vec::new(),
            gpr_prod: [None; NUM_GPRS],
            pred_prod: [None; NUM_PREDS],
            stats: SimStats::default(),
            halted: false,
            trace: None,
            retire_log: None,
            cfg,
        }
    }

    /// Runs the per-cycle loop until `halt` retires or the cycle budget
    /// runs out.
    fn run(&mut self, d: &DecodedProgram) -> Result<(), SimError> {
        while !self.halted {
            if self.cycle >= self.cfg.max_cycles {
                return Err(SimError::CycleLimitExceeded {
                    limit: self.cfg.max_cycles,
                });
            }
            // Event-driven fast-forward: when every stage is provably
            // unable to act until some future cycle, jump straight there,
            // bulk-applying the per-cycle idle accounting the skipped
            // cycles would have produced.
            if let Some(wake) = self.inert_until(d) {
                self.skip_inert_cycles(wake - self.cycle);
                continue;
            }
            // Resolve completions first so a branch that finished executing
            // this cycle can retire this cycle (otherwise every branch that
            // reaches the ROB head right after completing would lose a
            // cycle, throttling retirement in window-full phases).
            self.resolve_branches(d);
            let retired_before = self.stats.retired_uops;
            self.cyc_retired_useful = false;
            self.cyc_retired_guard_false = false;
            self.cyc_mshr_stalled = false;
            self.cyc_writebuf_stalled = false;
            self.retire(d);
            let retired_any = self.stats.retired_uops != retired_before;
            if !retired_any {
                self.stats.retire_idle_cycles += 1;
            }
            if self.halted {
                // The halt-retiring iteration does not increment `cycle`,
                // so it is deliberately left out of the accounting.
                break;
            }
            self.issue(d);
            let rob_before = self.rob.len();
            self.dispatch(d);
            if self.rob.len() == rob_before {
                self.stats.dispatch_idle_cycles += 1;
            }
            let fetched_before = self.stats.fetched_uops;
            self.fetch(d);
            if self.stats.fetched_uops == fetched_before {
                self.stats.fetch_idle_cycles += 1;
                self.account_fetch_idle(1);
            }
            // Attribute this cycle to exactly one cause, immediately before
            // the cycle counter advances — this placement makes the
            // `cycle_accounting.total() == cycles` invariant structural.
            self.account_cycle(retired_any);
            self.cycle += 1;
        }
        Ok(())
    }

    /// Final statistics fold and architectural-state capture.
    fn finish(&mut self) -> SimResult {
        self.stats.cycles = self.cycle;
        let (ic, l1, l2) = self.mem.stats();
        self.stats.icache = ic;
        self.stats.l1d = l1;
        self.stats.l2 = l2;
        self.stats.wrong_path_fills = self.mem.wrong_path_fills();
        for (pc, c) in self.hot_sites.iter().enumerate() {
            if *c != HotSiteCounts::default() {
                self.stats.hot_sites.insert(pc as u32, *c);
            }
        }
        SimResult {
            stats: std::mem::take(&mut self.stats),
            final_regs: self.emu.regs,
            final_preds: self.emu.preds,
            final_mem: self.emu.mem.sorted_entries().into_iter().collect(),
        }
    }

    /// Records one pipeline event. Every call site pre-guards with
    /// `self.trace.is_some()`: the non-tracing path must pay nothing for
    /// disasm formatting or event allocation.
    fn trace_event(&mut self, d: &DecodedProgram, kind: TraceKind, seq: u64, pc: u32, extra: u64) {
        debug_assert!(self.trace.is_some(), "trace_event called without an active trace");
        let cycle = self.cycle;
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEvent {
                cycle,
                kind,
                seq,
                pc,
                disasm: d.pcs[pc as usize].insn.to_string(),
                extra,
            });
        }
    }

    // ------------------------------------------------------ cycle accounting

    /// Splits `k` zero-fetch cycles by cause (`SimStats::fetch_idle_*`).
    /// The four split counters always sum to `fetch_idle_cycles`.
    fn account_fetch_idle(&mut self, k: u64) {
        if self.fetch_blocked {
            self.stats.fetch_idle_blocked += k;
        } else if self.cycle < self.fetch_stall_until {
            match self.fetch_stall_reason {
                StallReason::IMiss => self.stats.fetch_idle_imiss += k,
                StallReason::Redirect => self.stats.fetch_idle_redirect += k,
            }
        } else if self.fe_queue.len() >= self.fetch_queue_cap {
            self.stats.fetch_idle_queue_full += k;
        } else {
            // An I-miss stall armed during this cycle's own fetch attempt
            // lands in the branch above; anything left is a same-cycle
            // redirect bubble.
            self.stats.fetch_idle_redirect += k;
        }
    }

    /// Charges the current cycle to exactly one [`CycleAccounting`]
    /// category (top-down: what retired, else why nothing did).
    ///
    /// [`CycleAccounting`]: crate::CycleAccounting
    fn account_cycle(&mut self, retired_any: bool) {
        if !retired_any {
            self.account_stall(1);
            return;
        }
        let acc = &mut self.stats.cycle_accounting;
        if self.cyc_retired_useful {
            acc.useful_retire += 1;
        } else if self.cyc_retired_guard_false {
            acc.guard_false_retire += 1;
        } else {
            acc.select_uop_retire += 1;
        }
    }

    /// Charges `k` cycles in which nothing retired to the one cause that
    /// held the machine up.
    fn account_stall(&mut self, k: u64) {
        let acc = &mut self.stats.cycle_accounting;
        if !self.rob.is_empty() {
            // Something is in flight but the head cannot retire yet. The
            // memory causes only fire under the non-blocking hierarchy:
            // `cyc_mshr_stalled`/`cyc_writebuf_stalled` are set when an
            // issue was refused this cycle, and `fill_pending_at` is true
            // while a line fill is still in flight. All stay false under
            // the flat model.
            if self.cyc_mshr_stalled {
                acc.mshr_full += k;
            } else if self.cyc_writebuf_stalled {
                acc.writebuf_full += k;
            } else if self.rob.len() >= self.cfg.rob_size {
                acc.rob_stall += k;
            } else if self.mem.fill_pending_at(self.cycle) {
                acc.miss_pending += k;
            } else {
                acc.exec_wait += k;
            }
            return;
        }
        // Empty window: the front end is the bottleneck.
        let in_flush_shadow = self
            .last_flush_cycle
            .is_some_and(|c| self.cycle <= c + self.cfg.pipeline_depth + 1);
        if in_flush_shadow {
            acc.flush_recovery += k;
        } else if self.cycle < self.fetch_stall_until
            && self.fetch_stall_reason == StallReason::IMiss
            && !self.fetch_blocked
        {
            // Non-blocking I-side stalls (an I-fill in flight in the
            // I-MSHRs) get their own cause; flat-model I-miss stalls keep
            // the `fetch_imiss` attribution.
            if self.mem.ifill_pending_at(self.cycle) {
                acc.imiss_pending += k;
            } else {
                acc.fetch_imiss += k;
            }
        } else if !self.fe_queue.is_empty() || self.fetch_blocked {
            acc.frontend_fill += k;
        } else {
            acc.fetch_redirect += k;
        }
    }

    // ------------------------------------------------- idle fast-forward

    /// If no pipeline stage can change any state this cycle, returns the
    /// earliest future cycle at which one could (clamped to `max_cycles`);
    /// `None` when the machine would act right now.
    ///
    /// The reasoning, stage by stage, given `ready_count == 0` (so issue
    /// has nothing to select and every non-issued ROB entry is waiting on
    /// a producer whose completion event is scheduled in the calendar):
    ///
    /// * *resolve* acts no earlier than `next_resolve`;
    /// * *retire* is gated on the head's `ready_cycle` (time), on resolve
    ///   (bounded by `next_resolve`), or on issue (bounded by the event
    ///   calendar);
    /// * *issue* acts no earlier than the next calendar event;
    /// * *dispatch* is gated on the front µop's pipeline-depth timer or on
    ///   retire freeing ROB space;
    /// * *fetch* is gated on its stall timer, on a flush (via resolve), or
    ///   on dispatch draining the front-end queue.
    ///
    /// The returned cycle is additionally bounded by the points where the
    /// per-cycle idle *classification* could change (flush-shadow end and
    /// MSHR fill expiry), so every skipped cycle provably classifies — and
    /// therefore counts — exactly as if it had been executed.
    fn inert_until(&self, d: &DecodedProgram) -> Option<u64> {
        if self.ready_count != 0 {
            return None; // something issues this cycle
        }
        let mut wake = self.next_resolve;
        if wake <= self.cycle {
            return None; // resolve may act this cycle
        }
        // Fetch.
        if !self.fetch_blocked {
            if self.cycle < self.fetch_stall_until {
                wake = wake.min(self.fetch_stall_until);
            } else if self.fe_queue.len() < self.fetch_queue_cap {
                return None; // fetch would fetch
            }
        }
        // Dispatch.
        if let Some(&front) = self.fe_queue.front() {
            let eligible =
                self.slots[front as usize].fetch_cycle + self.cfg.pipeline_depth;
            if eligible > self.cycle {
                wake = wake.min(eligible);
            } else if self.rob.len() + self.rob_slots_needed(d, front) <= self.cfg.rob_size
            {
                return None; // dispatch would dispatch
            }
        }
        // Retire.
        if let Some(head) = self.rob.front() {
            if head.flags & F_DONE != 0 {
                if head.ready_cycle > self.cycle {
                    wake = wake.min(head.ready_cycle);
                } else if head.meta & META_BRANCH == 0 || head.flags & F_RESOLVED != 0 {
                    return None; // head retires this cycle
                }
            }
        }
        // Issue: the next scheduled completion event.
        let cur = (self.cycle & (RING - 1)) as usize;
        if self.ring_occ[cur >> 6] & (1 << (cur & 63)) != 0 {
            return None; // events fire this cycle
        }
        wake = wake.min(self.far_min);
        if let Some(c) = self.next_ring_event() {
            wake = wake.min(c);
        }
        // Idle-classification boundaries.
        if self.rob.is_empty() {
            if let Some(c) = self.last_flush_cycle {
                let shadow_end = c + self.cfg.pipeline_depth + 2;
                if self.cycle < shadow_end {
                    wake = wake.min(shadow_end);
                }
            }
        } else if self.rob.len() < self.cfg.rob_size {
            if let Some(f) = self.mem.next_fill_change_after(self.cycle) {
                wake = wake.min(f);
            }
        }
        wake = wake.min(self.cfg.max_cycles);
        (wake > self.cycle).then_some(wake)
    }

    /// Advances `cycle` by `k` provably-inert cycles, applying the idle
    /// accounting each would have produced. The classification inputs are
    /// constant across the window by construction of
    /// [`Pipeline::inert_until`]. In particular the I-fill split: the wake
    /// cycle never exceeds `fetch_stall_until`, the demand I-fill's
    /// arrival, so the I-MSHR entry stays busy (and under the flat model
    /// stays absent) for every skipped cycle. No issue was refused in the
    /// last executed cycle either — a refused µop stays ready, and a ready
    /// µop makes the machine active.
    fn skip_inert_cycles(&mut self, k: u64) {
        debug_assert!(!self.cyc_mshr_stalled && !self.cyc_writebuf_stalled);
        self.stats.retire_idle_cycles += k;
        self.stats.dispatch_idle_cycles += k;
        self.stats.fetch_idle_cycles += k;
        self.account_fetch_idle(k);
        self.account_stall(k);
        self.cycle += k;
    }

    /// Smallest cycle in `(cycle, cycle + RING)` with a scheduled calendar
    /// event, scanning the occupancy bitmap circularly from `cycle + 1`.
    fn next_ring_event(&self) -> Option<u64> {
        let start = ((self.cycle + 1) & (RING - 1)) as usize;
        let (w0, off) = (start >> 6, start & 63);
        for i in 0..=RING_WORDS {
            let w = (w0 + i) & (RING_WORDS - 1);
            let mut bits = self.ring_occ[w];
            if i == 0 {
                bits &= !0u64 << off;
            } else if i == RING_WORDS {
                bits &= (1u64 << off) - 1;
            }
            if bits != 0 {
                let b = (w * 64 + bits.trailing_zeros() as usize) as u64;
                let delta = b.wrapping_sub(self.cycle + 1) & (RING - 1);
                return Some(self.cycle + 1 + delta);
            }
        }
        None
    }

    // ------------------------------------------------------------- wakeup

    fn ready_set(&mut self, id: u64) {
        let pos = (id & self.ready_mask) as usize;
        self.ready_bits[pos >> 6] |= 1 << (pos & 63);
        self.ready_count += 1;
    }

    /// Extracts the lowest ready id ≥ `front_id`, scanning the circular
    /// bitmap from the window's start. All set bits are live entry ids in
    /// `[front_id, front_id + rob.len())`, a window no wider than the
    /// bitmap, so one wrap-around pass finds the minimum.
    fn ready_pop_lowest(&mut self) -> Option<u64> {
        if self.ready_count == 0 {
            return None;
        }
        let nw = self.ready_bits.len();
        let start = (self.front_id & self.ready_mask) as usize;
        let (w0, off) = (start >> 6, start & 63);
        for i in 0..=nw {
            let w = (w0 + i) & (nw - 1);
            let mut bits = self.ready_bits[w];
            if i == 0 {
                bits &= !0u64 << off;
            } else if i == nw {
                bits &= (1u64 << off) - 1;
            }
            if bits != 0 {
                let b = bits.trailing_zeros() as usize;
                self.ready_bits[w] &= !(1u64 << b);
                self.ready_count -= 1;
                let pos = (w * 64 + b) as u64;
                let delta = pos.wrapping_sub(self.front_id) & self.ready_mask;
                return Some(self.front_id + delta);
            }
        }
        unreachable!("ready_count > 0 implies a set bit");
    }

    /// Clears ready bits for the squashed id range `(boundary, boundary +
    /// count]` (flush purge), word-at-a-time.
    fn ready_clear_above(&mut self, boundary: u64, count: u64) {
        let mut id = boundary + 1;
        let end = id + count.min(self.ready_mask + 1);
        while id < end {
            let pos = (id & self.ready_mask) as usize;
            let (w, off) = (pos >> 6, (pos & 63) as u64);
            let span = (64 - off).min(end - id);
            let mask = if span == 64 { !0u64 } else { ((1u64 << span) - 1) << off };
            let cleared = self.ready_bits[w] & mask;
            self.ready_count -= cleared.count_ones();
            self.ready_bits[w] &= !mask;
            id += span;
        }
    }

    /// Schedules a completion event: calendar bucket if within the ring
    /// horizon, overflow heap otherwise. `at` is always in the future.
    fn push_event(&mut self, at: u64, id: u64) {
        if at - self.cycle >= RING {
            self.far_events.push(Reverse((at, id)));
            self.far_min = self.far_min.min(at);
        } else {
            let b = (at & (RING - 1)) as usize;
            self.ring[b].push(id);
            self.ring_occ[b >> 6] |= 1 << (b & 63);
        }
    }

    fn alloc_br(&mut self, m: BrMeta) -> u32 {
        match self.br_free.pop() {
            Some(i) => {
                self.br_arena[i as usize] = m;
                i
            }
            None => {
                self.br_arena.push(m);
                (self.br_arena.len() - 1) as u32
            }
        }
    }

    /// Returns a µop slot (and its branch metadata, if any) to the free
    /// lists. Compute halves never own their slot — the Select twin frees
    /// it — so callers guard on role.
    fn free_slot(&mut self, slot: u32) {
        let br = self.slots[slot as usize].br;
        if br != NO_BR {
            self.br_free.push(br);
        }
        self.free.push(slot);
    }

    fn recycle_spill(&mut self, w: WaiterList) {
        if w.spill.capacity() > 0 {
            let mut s = w.spill;
            s.clear();
            self.waiter_pool.push(s);
        }
    }

    fn wake_list(&mut self, w: WaiterList) {
        let n = w.len as usize;
        for i in 0..n.min(WAITERS_INLINE) {
            self.dec_unready(w.inline[i]);
        }
        for i in WAITERS_INLINE..n {
            self.dec_unready(w.spill[i - WAITERS_INLINE]);
        }
        self.recycle_spill(w);
    }

    fn wake(&mut self, id: u64) {
        if self.rob.is_empty() {
            return; // producer retired with the rest of the window
        }
        if id < self.front_id {
            return; // retired: its waiters were already woken at retire
        }
        let idx = (id - self.front_id) as usize;
        debug_assert!(idx < self.rob.len(), "events are purged on flush");
        let w = std::mem::take(&mut self.rob[idx].waiters);
        self.wake_list(w);
    }

    fn dec_unready(&mut self, id: u64) {
        debug_assert!(!self.rob.is_empty(), "waiters are live entries");
        let idx = (id - self.front_id) as usize;
        let e = &mut self.rob[idx];
        debug_assert!(e.unready > 0, "each registration decrements once");
        debug_assert!(e.flags & F_ISSUED == 0, "issued entries had no deps");
        e.unready -= 1;
        if e.unready == 0 {
            self.ready_set(id);
        }
    }

    // ----------------------------------------------------------------- retire

    fn retire(&mut self, d: &DecodedProgram) {
        let mut retired = 0;
        while retired < self.cfg.retire_width {
            let Some(head) = self.rob.front() else { break };
            if head.flags & F_DONE == 0 || head.ready_cycle > self.cycle {
                break;
            }
            if head.meta & META_BRANCH != 0 && head.flags & F_RESOLVED == 0 {
                break;
            }
            debug_assert!(
                head.flags & F_RESOLVED != 0
                    || head.role != Role::Whole
                    || self.slots[head.slot as usize].pred_check.is_none(),
                "pred checks resolve before retiring"
            );
            let mut entry = self.rob.pop_front().expect("checked non-empty");
            self.front_id += 1;
            let waiters = std::mem::take(&mut entry.waiters);
            self.wake_list(waiters);
            retired += 1;
            self.retire_entry(d, &entry);
            // Compute halves share their slot with the Select twin, which
            // retires later and frees it.
            if entry.role != Role::Compute {
                self.free_slot(entry.slot);
            }
            if self.halted {
                return;
            }
        }
    }

    fn retire_entry(&mut self, d: &DecodedProgram, e: &RobSlim) {
        let (seq, pc, info, br_ref, hw_guard, pred_check) = {
            let s = &self.slots[e.slot as usize];
            (s.seq, s.pc, s.info, s.br, s.hw_guard, s.pred_check)
        };
        if self.trace.is_some() {
            self.trace_event(d, TraceKind::Retire, seq, pc, 0);
        }
        let pi = &d.pcs[pc as usize];
        let insn = &pi.insn;
        let dhp = br_ref != NO_BR && self.br_arena[br_ref as usize].dhp;
        if let Some(log) = self.retire_log.as_mut() {
            if e.role != Role::Compute {
                let defs = insn.def_preds();
                let mut pred_writes = [None, None];
                for slot in 0..2 {
                    if let (Some(p), Some(v)) = (defs[slot], info.pred_values[slot]) {
                        pred_writes[slot] = Some((p.index() as u8, v));
                    }
                }
                log.push(wishbranch_isa::RetireRecord {
                    seq,
                    pc,
                    next_pc: info.followed_next,
                    guard_true: info.guard_true,
                    taken: info.actual_taken,
                    forced: info.followed_next != info.actual_next,
                    wish: insn.wish,
                    dhp,
                    hw_guard: hw_guard.is_some(),
                    reg_write: info.reg_write,
                    pred_writes,
                    mem_write: if info.is_store {
                        info.mem_addr.zip(info.store_value)
                    } else {
                        None
                    },
                    halted: info.halted,
                });
            }
        }
        self.stats.retired_uops += 1;
        if e.role == Role::Select {
            self.stats.retired_select_uops += 1;
        }
        let guard_false = e.role != Role::Compute
            && !info.guard_true
            && (insn.guard.is_some() || hw_guard.is_some());
        if guard_false {
            self.stats.retired_guard_false += 1;
            self.hot_sites[pc as usize].guard_false_uops += 1;
            self.cyc_retired_guard_false = true;
        } else if e.role != Role::Select {
            self.cyc_retired_useful = true;
        }
        self.emu.commit_through(seq);

        if pi.is_halt {
            self.halted = true;
            return;
        }

        if pred_check.is_some() {
            self.stats.pred_value_predictions += 1;
            if let Some(actual) = info.pred_values[0] {
                let c = &mut self.pred_value_pht[pc as usize];
                if actual {
                    *c = (*c + 1).min(3);
                } else {
                    *c = c.saturating_sub(1);
                }
            }
        }

        if e.role != Role::Whole || !pi.is_branch {
            return;
        }
        if br_ref == NO_BR {
            return;
        }
        // Copy the small predictor-bookkeeping fields out of the arena so
        // the update calls below can borrow `self` mutably.
        let br = &self.br_arena[br_ref as usize];
        let bp_token = br.bp_token;
        let conf_high = br.conf_high;
        let conf_ghr = br.conf_ghr;
        let predictor_said_taken = br.predictor_said_taken;
        let ghr_checkpoint = br.ghr_checkpoint;
        let loop_token = br.loop_token;
        let mispredicted = e.flags & F_MISPRED != 0;
        match insn.kind {
            InsnKind::Branch {
                kind: BranchKind::Cond { .. },
                ..
            } => {
                self.stats.retired_cond_branches += 1;
                let actual = info.actual_taken;
                if let Some(token) = bp_token {
                    self.bp.update(pc, &token, actual);
                }
                if mispredicted {
                    self.stats.retired_mispredicted += 1;
                }
                if let Some(conf_high) = conf_high {
                    let predictor_correct = predictor_said_taken == actual;
                    if !self.cfg.oracles.perfect_confidence {
                        self.jrs.update(pc, conf_ghr, predictor_correct);
                    }
                    self.conf_history = (self.conf_history << 1) | u64::from(actual);
                    let counts: Option<&mut WishClassCounts> = match insn.wish {
                        Some(WishType::Jump) => Some(&mut self.stats.wish_jumps),
                        Some(WishType::Join) => Some(&mut self.stats.wish_joins),
                        Some(WishType::Loop) => Some(&mut self.stats.wish_loops),
                        None => None, // DHP branch
                    };
                    if let Some(counts) = counts {
                        match (conf_high, predictor_correct) {
                            (true, true) => counts.high_correct += 1,
                            (true, false) => counts.high_mispredicted += 1,
                            (false, true) => counts.low_correct += 1,
                            (false, false) => counts.low_mispredicted += 1,
                        }
                    }
                    match e.loop_class {
                        LC_EARLY => self.stats.loop_early_exits += 1,
                        LC_LATE => self.stats.loop_late_exits += 1,
                        LC_NOEXIT => self.stats.loop_no_exits += 1,
                        _ => {}
                    }
                }
                if insn.wish == Some(WishType::Loop) {
                    if let (Some(lp), Some(ltok)) = (self.loop_pred.as_mut(), loop_token) {
                        lp.update(pc, &ltok, actual);
                    }
                }
                if insn.wish == Some(WishType::Loop) {
                    if let Some((_, s)) = self.loop_last_pred[pc as usize] {
                        if s == seq {
                            self.loop_last_pred[pc as usize] = None;
                        }
                    }
                }
            }
            InsnKind::Branch {
                kind: BranchKind::Indirect { .. },
                ..
            } => {
                self.itc.update(pc, ghr_checkpoint, info.actual_next);
                if mispredicted {
                    self.stats.retired_mispredicted += 1;
                }
            }
            _ => {
                if mispredicted {
                    self.stats.retired_mispredicted += 1;
                }
            }
        }
    }

    // ---------------------------------------------------------- resolution

    fn resolve_branches(&mut self, d: &DecodedProgram) {
        // Nothing can become eligible before `next_resolve` (maintained at
        // issue when a branch/pred-check completes, and by the scan below);
        // skip the scan entirely until then.
        if self.cycle < self.next_resolve {
            return;
        }
        // Minimum completion cycle among the done-but-not-yet-eligible
        // entries. Not-yet-done entries are covered by the issue-side
        // update; squashed entries can only make this too small (an extra
        // scan), never too large.
        let mut min_future = u64::MAX;
        let mut i = 0;
        while i < self.unresolved.len() {
            let id = self.unresolved[i];
            debug_assert!(id >= self.front_id, "unresolved entries never retire first");
            let idx = (id - self.front_id) as usize;
            let e = &self.rob[idx];
            if e.flags & F_DONE == 0 || e.ready_cycle > self.cycle {
                if e.flags & F_DONE != 0 {
                    min_future = min_future.min(e.ready_cycle);
                }
                i += 1;
                continue;
            }
            let has_pred_check = e.meta & META_PREDCHK != 0;
            self.unresolved.remove(i);
            if has_pred_check {
                self.resolve_pred_check(d, idx);
            } else {
                self.resolve_one(d, idx);
            }
        }
        self.next_resolve = min_future;
    }

    fn resolve_pred_check(&mut self, d: &DecodedProgram, idx: usize) -> bool {
        self.rob[idx].flags |= F_RESOLVED;
        let (predicted, actual, site_pc) = {
            let s = &self.slots[self.rob[idx].slot as usize];
            (s.pred_check.expect("caller checked"), s.info.pred_values[0], s.pc)
        };
        // Guard-false definitions keep their old value; treat as correct.
        let Some(actual) = actual else {
            return false;
        };
        if actual == predicted {
            return false;
        }
        self.rob[idx].flags |= F_MISPRED;
        self.stats.pred_value_mispredictions += 1;
        self.stats.flushes += 1;
        self.hot_sites[site_pc as usize].flushes += 1;
        self.flush_after(d, idx, site_pc + 1);
        true
    }

    fn resolve_one(&mut self, d: &DecodedProgram, idx: usize) -> bool {
        self.rob[idx].flags |= F_RESOLVED;
        let slot = self.rob[idx].slot as usize;
        let (br_ref, actual_next, actual_taken, site_pc) = {
            let s = &self.slots[slot];
            (s.br, s.info.actual_next, s.info.actual_taken, s.pc)
        };
        debug_assert!(br_ref != NO_BR, "branches always carry metadata");
        let (predicted_next, fetch_mode, dhp) = {
            let br = &self.br_arena[br_ref as usize];
            (br.predicted_next, br.fetch_mode, br.dhp)
        };
        let mispredicted = predicted_next != actual_next;
        if mispredicted {
            self.rob[idx].flags |= F_MISPRED;
        }
        if !mispredicted {
            return false;
        }
        let insn = &d.pcs[site_pc as usize].insn;
        let is_wish = insn.is_wish_branch() && self.cfg.wish_enabled;
        let fetched_low_conf = matches!(fetch_mode, Mode::LowConf { .. });

        if dhp {
            self.stats.flushes_avoided += 1;
            self.stats.dhp_flushes_avoided += 1;
            self.hot_sites[site_pc as usize].flushes_avoided += 1;
            return false;
        }
        let mut flush = true;
        if is_wish && fetched_low_conf {
            match insn.wish.expect("is_wish") {
                WishType::Jump | WishType::Join => {
                    flush = false;
                }
                WishType::Loop => {
                    if actual_taken {
                        self.rob[idx].loop_class = LC_EARLY;
                    } else {
                        match self.loop_last_pred[site_pc as usize] {
                            Some((false, _)) => {
                                self.rob[idx].loop_class = LC_LATE;
                                flush = false;
                            }
                            _ => {
                                self.rob[idx].loop_class = LC_NOEXIT;
                            }
                        }
                    }
                }
            }
        }
        if !flush {
            self.stats.flushes_avoided += 1;
            self.hot_sites[site_pc as usize].flushes_avoided += 1;
            return false;
        }
        self.stats.flushes += 1;
        self.hot_sites[site_pc as usize].flushes += 1;
        // The branch retires having followed the architectural path.
        self.slots[slot].info.followed_next = actual_next;
        self.flush_after(d, idx, actual_next);
        true
    }

    fn flush_after(&mut self, d: &DecodedProgram, idx: usize, resume_pc: u32) {
        let (seq, flush_pc, br_ref, actual_taken) = {
            let s = &self.slots[self.rob[idx].slot as usize];
            (s.seq, s.pc, s.br, s.info.actual_taken)
        };
        debug_assert!(br_ref != NO_BR, "flush source is a branch");
        // Small fields out of the arena up front; the 272-byte RAS
        // checkpoint is restored by reference below, never copied.
        let (ghr_checkpoint, loop_token) = {
            let br = &self.br_arena[br_ref as usize];
            (br.ghr_checkpoint, br.loop_token)
        };
        let boundary = self.front_id + idx as u64;
        let is_cond = d.pcs[flush_pc as usize].is_cond_branch;

        // Squash younger ROB entries and the whole front-end queue.
        let squashed_rob = self.rob.len() - (idx + 1);
        while self.rob.len() > idx + 1 {
            let dead = self.rob.pop_back().expect("length checked");
            self.recycle_spill(dead.waiters);
            if dead.role != Role::Compute {
                self.free_slot(dead.slot);
            }
        }
        let squashed_total = squashed_rob as u64 + self.fe_queue.len() as u64;
        self.stats.squashed_uops += squashed_total;
        if self.trace.is_some() {
            self.trace_event(d, TraceKind::Flush, seq, flush_pc, squashed_total);
        }
        while let Some(slot) = self.fe_queue.pop_front() {
            self.free_slot(slot);
        }
        // Ids stay contiguous implicitly: the next id is front_id + len.
        // Events and ready bits of squashed entries must go eagerly: ids
        // are reused for the refetched path.
        self.ready_clear_above(boundary, squashed_rob as u64);
        for w in 0..RING_WORDS {
            let mut bits = self.ring_occ[w];
            while bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = &mut self.ring[b];
                v.retain(|&id| id <= boundary);
                if v.is_empty() {
                    self.ring_occ[w] &= !(1u64 << (b & 63));
                }
            }
        }
        if self.far_min != u64::MAX {
            let mut far = std::mem::take(&mut self.far_events).into_vec();
            far.retain(|&Reverse((_, id))| id <= boundary);
            self.far_events = far.into();
            self.far_min = self
                .far_events
                .peek()
                .map_or(u64::MAX, |&Reverse((c, _))| c);
        }
        while self.store_queue.back().is_some_and(|&id| id > boundary) {
            self.store_queue.pop_back();
        }
        let keep = self.unresolved.partition_point(|&id| id <= boundary);
        self.unresolved.truncate(keep);

        // Rebuild rename maps from the surviving entries, dropping their
        // squashed waiters along the way.
        self.gpr_prod = [None; NUM_GPRS];
        self.pred_prod = [None; NUM_PREDS];
        for i in 0..self.rob.len() {
            let id = self.front_id + i as u64;
            let (pc, role) = {
                let e = &mut self.rob[i];
                e.waiters.truncate_above(boundary);
                (e.pc, e.role)
            };
            if role == Role::Compute {
                continue; // temps are invisible to the rename map
            }
            let info = &d.pcs[pc as usize];
            if let Some(dg) = info.def_gpr {
                self.gpr_prod[dg.index()] = Some(id);
            }
            for p in info.def_preds.into_iter().flatten() {
                if !p.is_hardwired_true() {
                    self.pred_prod[p.index()] = Some(id);
                }
            }
        }

        // Roll the speculative world back to just after the branch.
        self.emu.rollback_after(seq);
        self.ras.restore(&self.br_arena[br_ref as usize].ras_checkpoint);
        if is_cond {
            self.bp.restore_ghr(ghr_checkpoint, actual_taken);
        } else {
            self.bp.set_ghr(ghr_checkpoint);
        }
        self.pred_elim = [None; NUM_PREDS];
        self.pred_elim_live = 0;
        self.cmp2_partner = [None; NUM_PREDS];
        self.mode = Mode::Normal;
        self.dhp = DhpState::Off;
        for &pc in &d.wish_loop_pcs {
            if let Some((_, s)) = self.loop_last_pred[pc as usize] {
                if s > seq {
                    self.loop_last_pred[pc as usize] = None;
                }
            }
        }
        if let (Some(lp), Some(ltok)) = (self.loop_pred.as_mut(), loop_token) {
            lp.repair(flush_pc, &ltok, actual_taken);
        }

        // Redirect fetch. Pending wrong-path I-fills (other lines than the
        // resume target's) are cancelled before the resteer.
        self.mem
            .squash_wrong_path_ifills(self.cycle, insn_addr(resume_pc));
        self.fetch_pc = resume_pc;
        self.fetch_blocked = false;
        self.fetch_line = None;
        self.fetch_stall_until = self.cycle + 1;
        self.fetch_stall_reason = StallReason::Redirect;
        self.last_flush_cycle = Some(self.cycle);
    }

    // -------------------------------------------------------------- issue

    fn store_executed(&self, id: u64) -> bool {
        if self.rob.is_empty() || id < self.front_id {
            return true; // retired
        }
        let e = &self.rob[(id - self.front_id) as usize];
        e.flags & F_DONE != 0 && e.ready_cycle <= self.cycle
    }

    fn issue(&mut self, d: &DecodedProgram) {
        // Fire the completion events due this cycle, waking dependents.
        // Within-cycle order is free: wakeups only decrement counters and
        // set ready bits, both order-independent.
        let b = (self.cycle & (RING - 1)) as usize;
        if self.ring_occ[b >> 6] & (1 << (b & 63)) != 0 {
            self.ring_occ[b >> 6] &= !(1u64 << (b & 63));
            let mut ids = std::mem::take(&mut self.ring[b]);
            for id in ids.drain(..) {
                self.wake(id);
            }
            self.ring[b] = ids;
        }
        if self.far_min <= self.cycle {
            while let Some(&Reverse((c, id))) = self.far_events.peek() {
                if c > self.cycle {
                    break;
                }
                self.far_events.pop();
                self.wake(id);
            }
            self.far_min = self
                .far_events
                .peek()
                .map_or(u64::MAX, |&Reverse((c, _))| c);
        }
        // Oldest not-yet-executed store (conservative load/store ordering).
        while let Some(&sid) = self.store_queue.front() {
            if self.store_executed(sid) {
                self.store_queue.pop_front();
            } else {
                break;
            }
        }
        let store_limit = self.store_queue.front().copied();

        let mut issued = 0;
        debug_assert!(self.blocked_loads.is_empty());
        while issued < self.cfg.issue_width {
            let Some(id) = self.ready_pop_lowest() else { break };
            let idx = (id - self.front_id) as usize;
            let e = &self.rob[idx];
            debug_assert!(e.flags & F_ISSUED == 0 && e.unready == 0);
            let is_load = e.meta & META_CLASS == EC_LOAD;
            if is_load && store_limit.is_some_and(|limit| id > limit) {
                match self.forward_state(idx) {
                    ForwardState::Forward => {}
                    ForwardState::PartialOverlap => {
                        self.stats.load_replays += 1;
                        self.blocked_loads.push(id);
                        continue;
                    }
                    ForwardState::NoMatch => {
                        self.blocked_loads.push(id);
                        continue;
                    }
                }
            }
            let Some(lat) = self.exec_latency(idx) else {
                // The memory access could not be accepted this cycle —
                // MSHRs, write buffer or ports all busy; `exec_latency`
                // recorded which. Retry next cycle without consuming
                // issue bandwidth (mirrors blocked loads).
                self.blocked_loads.push(id);
                continue;
            };
            let ready_cycle = self.cycle + lat;
            if self.trace.is_some() {
                let s = &self.slots[self.rob[idx].slot as usize];
                let (seq, pc) = (s.seq, s.pc);
                self.trace_event(d, TraceKind::Issue, seq, pc, ready_cycle);
            }
            let e = &mut self.rob[idx];
            e.flags |= F_ISSUED | F_DONE;
            e.ready_cycle = ready_cycle;
            // Lazy events: schedule a wakeup only if someone is waiting
            // (later registrants schedule it themselves at dispatch).
            let has_waiters = e.waiters.len > 0;
            if has_waiters {
                e.flags |= F_EVENT;
            }
            let track_resolve =
                e.role == Role::Whole && e.meta & (META_BRANCH | META_PREDCHK) != 0;
            if has_waiters {
                self.push_event(ready_cycle, id);
            }
            if track_resolve {
                self.next_resolve = self.next_resolve.min(ready_cycle);
            }
            issued += 1;
        }
        // Blocked loads stay ready; they compete again next cycle.
        while let Some(id) = self.blocked_loads.pop() {
            self.ready_set(id);
        }
    }

    /// Execution latency of the entry at `idx`, or `None` when a memory
    /// access could not be accepted this cycle (non-blocking hierarchy,
    /// every needed MSHR, write-buffer entry or port busy) — the caller
    /// retries next cycle.
    fn exec_latency(&mut self, idx: usize) -> Option<u64> {
        let e = &self.rob[idx];
        // The common single-cycle classes never touch the µop slot.
        match e.meta & META_CLASS {
            EC_UNIT => return Some(1),
            EC_MUL => return Some(self.cfg.mul_latency),
            EC_DIV => return Some(self.cfg.div_latency),
            _ => {}
        }
        let is_load = e.meta & META_CLASS == EC_LOAD;
        let role = e.role;
        let pc = e.pc;
        let (guard_true, mem_addr) = {
            let s = &self.slots[e.slot as usize];
            (s.info.guard_true, s.info.mem_addr)
        };
        if is_load {
            let accesses_mem = match role {
                Role::Whole => guard_true,
                Role::Compute => true,
                Role::Select => false,
            };
            if accesses_mem {
                if let Some(addr) = mem_addr {
                    if self.cfg.mem.store_forwarding
                        && matches!(self.forward_state(idx), ForwardState::Forward)
                    {
                        self.stats.store_forwards += 1;
                        return Some(1 + self.cfg.mem.l1d.latency);
                    }
                    if self.mem.realistic() {
                        return match self.mem.data_access_nonblocking(
                            addr,
                            false,
                            u64::from(pc),
                            self.cycle,
                        ) {
                            AccessOutcome::Ready(lat) => Some(1 + lat),
                            AccessOutcome::Pending(fill) => {
                                Some(1 + fill.saturating_sub(self.cycle).max(1))
                            }
                            AccessOutcome::MshrFull => {
                                self.cyc_mshr_stalled = true;
                                self.stats.mshr_full_stalls += 1;
                                None
                            }
                            AccessOutcome::PortBusy => {
                                self.stats.port_conflict_stalls += 1;
                                None
                            }
                        };
                    }
                    return Some(1 + self.mem.data_access_at(addr, false, self.cycle));
                }
            }
            Some(1)
        } else {
            // Store.
            if guard_true && role != Role::Select {
                if let Some(addr) = mem_addr {
                    if self.mem.realistic() {
                        // Write-allocate: the store needs an MSHR on a
                        // miss like a load, plus (when enabled) a free
                        // write-buffer entry to drain through. Once
                        // accepted it completes in one cycle — the drain
                        // continues asynchronously behind it.
                        match self
                            .mem
                            .store_access_nonblocking(addr, u64::from(pc), self.cycle)
                        {
                            StoreOutcome::Accepted => {}
                            StoreOutcome::WriteBufFull => {
                                self.cyc_writebuf_stalled = true;
                                self.stats.writebuf_full_stalls += 1;
                                return None;
                            }
                            StoreOutcome::MshrFull => {
                                self.cyc_mshr_stalled = true;
                                self.stats.mshr_full_stalls += 1;
                                return None;
                            }
                            StoreOutcome::PortBusy => {
                                self.stats.port_conflict_stalls += 1;
                                return None;
                            }
                        }
                    } else {
                        self.mem.data_access_at(addr, true, self.cycle);
                    }
                }
            }
            Some(1)
        }
    }

    /// Store-to-load-forwarding verdict for the load at `idx`: scan older
    /// in-flight stores youngest-first; the first one whose 8-byte window
    /// overlaps the load decides. Full overlap with ready store data
    /// forwards; partial overlap (or full overlap with the store's data
    /// not yet ready) conservatively waits.
    fn forward_state(&self, idx: usize) -> ForwardState {
        if !self.cfg.mem.store_forwarding {
            return ForwardState::NoMatch;
        }
        let e = &self.rob[idx];
        let s = &self.slots[e.slot as usize];
        let accesses_mem = match e.role {
            Role::Whole => s.info.guard_true,
            Role::Compute => true,
            Role::Select => false,
        };
        let Some(la) = s.info.mem_addr else {
            return ForwardState::NoMatch;
        };
        if !accesses_mem {
            return ForwardState::NoMatch;
        }
        let id = self.front_id + idx as u64;
        for &sid in self.store_queue.iter().rev() {
            if sid >= id {
                continue; // younger than the load
            }
            let se = &self.rob[(sid - self.front_id) as usize];
            let ss = &self.slots[se.slot as usize];
            // Guard-false and select-placeholder stores write nothing.
            if !ss.info.guard_true || se.role == Role::Select {
                continue;
            }
            let Some(sa) = ss.info.mem_addr else { continue };
            if sa == la {
                if se.flags & F_ISSUED != 0 || se.unready == 0 {
                    return ForwardState::Forward;
                }
                return ForwardState::NoMatch;
            }
            if sa < la + 8 && la < sa + 8 {
                return ForwardState::PartialOverlap;
            }
        }
        ForwardState::NoMatch
    }

    // ----------------------------------------------------------- dispatch

    fn dispatch(&mut self, d: &DecodedProgram) {
        let mut dispatched = 0;
        while dispatched < self.cfg.issue_width {
            let Some(&front) = self.fe_queue.front() else { break };
            if self.slots[front as usize].fetch_cycle + self.cfg.pipeline_depth > self.cycle {
                break;
            }
            let needed = self.rob_slots_needed(d, front);
            if self.rob.len() + needed > self.cfg.rob_size {
                break;
            }
            let slot = self.fe_queue.pop_front().expect("checked non-empty");
            self.rename_into_rob(d, slot);
            dispatched += needed;
        }
    }

    fn rob_slots_needed(&self, d: &DecodedProgram, slot: u32) -> usize {
        let s = &self.slots[slot as usize];
        if self.cfg.pred_mechanism == PredMechanism::SelectUop
            && s.guard_pred_elim.is_none()
            && d.pcs[s.pc as usize].select_expandable
        {
            2
        } else {
            1
        }
    }

    /// Pushes one ROB entry whose dependences are in `dep_scratch`.
    fn push_rob(&mut self, d: &DecodedProgram, slot: u32, role: Role) -> u64 {
        if self.trace.is_some() {
            let s = &self.slots[slot as usize];
            let (seq, pc) = (s.seq, s.pc);
            self.trace_event(d, TraceKind::Dispatch, seq, pc, 0);
        }
        let id = self.front_id + self.rob.len() as u64;
        let mut unready = 0u32;
        let have_front = !self.rob.is_empty();
        let scratch = std::mem::take(&mut self.dep_scratch);
        for &dep in &scratch {
            if !have_front {
                continue; // empty window: every producer retired
            }
            if dep < self.front_id {
                continue; // producer retired
            }
            let idx = (dep - self.front_id) as usize;
            let value_ready = match self.rob.get(idx) {
                Some(p) => p.flags & F_DONE != 0 && p.ready_cycle <= self.cycle,
                None => true,
            };
            if value_ready {
                continue;
            }
            let mut schedule = None;
            {
                let p = &mut self.rob[idx];
                if p.waiters.will_spill() && p.waiters.spill.capacity() == 0 {
                    if let Some(v) = self.waiter_pool.pop() {
                        p.waiters.spill = v;
                    }
                }
                p.waiters.push(id);
                // First waiter on an already-issued producer: schedule the
                // completion event it skipped at issue (lazy events).
                if p.flags & (F_ISSUED | F_EVENT) == F_ISSUED {
                    p.flags |= F_EVENT;
                    schedule = Some(p.ready_cycle);
                }
            }
            if let Some(at) = schedule {
                self.push_event(at, dep);
            }
            unready += 1;
        }
        self.dep_scratch = scratch;
        let (pc, pred_check) = {
            let s = &self.slots[slot as usize];
            (s.pc, s.pred_check)
        };
        let pi = &d.pcs[pc as usize];
        let unresolved = role == Role::Whole && (pi.is_branch || pred_check.is_some());
        let meta = pi.exec_class
            | if pi.is_branch { META_BRANCH } else { 0 }
            | if pred_check.is_some() { META_PREDCHK } else { 0 };
        self.rob.push_back(RobSlim {
            slot,
            pc,
            unready,
            meta,
            role,
            flags: 0,
            loop_class: 0,
            ready_cycle: 0,
            waiters: WaiterList::default(),
        });
        if unready == 0 {
            self.ready_set(id);
        }
        if pi.is_store {
            self.store_queue.push_back(id);
        }
        if unresolved {
            self.unresolved.push(id);
        }
        id
    }

    fn guard_dep(&self, d: &DecodedProgram, slot: u32, oracles: &OracleConfig) -> GuardPlan {
        let s = &self.slots[slot as usize];
        let Some(g) = d.pcs[s.pc as usize].insn.guard else {
            return GuardPlan::None;
        };
        if oracles.no_pred_dependencies {
            return GuardPlan::Known(s.info.guard_true);
        }
        if let Some(v) = s.guard_pred_elim {
            return GuardPlan::Known(v);
        }
        match self.pred_prod[g.index()] {
            Some(id) => {
                if self.cfg.predicate_prediction && !self.rob.is_empty() && id >= self.front_id {
                    let idx = (id - self.front_id) as usize;
                    assert!(
                        idx < self.rob.len(),
                        "producer id {id} front {} len {}",
                        self.front_id,
                        self.rob.len()
                    );
                    let ps = &self.slots[self.rob[idx].slot as usize];
                    if let Some(predicted) = ps.pred_check {
                        let defs = d.pcs[ps.pc as usize].def_preds;
                        if defs[0] == Some(g) {
                            return GuardPlan::Known(predicted);
                        }
                        if defs[1] == Some(g) {
                            return GuardPlan::Known(!predicted);
                        }
                    }
                }
                GuardPlan::Wait(id)
            }
            None => GuardPlan::Ready,
        }
    }

    fn push_src_deps(&mut self, info: &PcInfo, oracles: &OracleConfig) {
        for r in info.gpr_srcs.into_iter().flatten() {
            if let Some(id) = self.gpr_prod[r.index()] {
                self.dep_scratch.push(id);
            }
        }
        for p in info.pred_srcs.into_iter().flatten() {
            let eliminated = !info.is_branch
                && self.pred_elim_active()
                && self.pred_elim[p.index()].is_some();
            if oracles.no_pred_dependencies && !info.is_branch {
                continue;
            }
            if eliminated {
                continue;
            }
            if let Some(id) = self.pred_prod[p.index()] {
                self.dep_scratch.push(id);
            }
        }
    }

    fn push_old_dest_deps(&mut self, info: &PcInfo) {
        if let Some(dg) = info.def_gpr {
            if let Some(id) = self.gpr_prod[dg.index()] {
                self.dep_scratch.push(id);
            }
        }
        for p in info.def_preds.into_iter().flatten() {
            if let Some(id) = self.pred_prod[p.index()] {
                self.dep_scratch.push(id);
            }
        }
    }

    fn rename_into_rob(&mut self, d: &DecodedProgram, slot: u32) {
        let oracles = self.cfg.oracles;
        let (pc, hw_guard) = {
            let s = &self.slots[slot as usize];
            (s.pc, s.hw_guard)
        };
        let info = &d.pcs[pc as usize];
        let select_expand = self.rob_slots_needed(d, slot) == 2;
        let guard = self.guard_dep(d, slot, &oracles);
        let wants_old_dest =
            (info.insn.guard.is_some() || hw_guard.is_some()) && !oracles.no_pred_dependencies;

        let known_false = matches!(guard, GuardPlan::Known(false));
        let update_maps = |sim: &mut Self, id: u64| {
            if known_false {
                return;
            }
            if let Some(dg) = info.def_gpr {
                sim.gpr_prod[dg.index()] = Some(id);
            }
            for p in info.def_preds.into_iter().flatten() {
                if !p.is_hardwired_true() {
                    sim.pred_prod[p.index()] = Some(id);
                }
            }
        };

        if select_expand {
            // Compute part: sources only, no guard, no old destination.
            self.dep_scratch.clear();
            self.push_src_deps(info, &oracles);
            let compute_id = self.push_rob(d, slot, Role::Compute);
            // Select part: compute result + guard + old destination.
            self.dep_scratch.clear();
            self.dep_scratch.push(compute_id);
            match guard {
                GuardPlan::Wait(id) => self.dep_scratch.push(id),
                GuardPlan::None | GuardPlan::Ready | GuardPlan::Known(_) => {}
            }
            if wants_old_dest {
                self.push_old_dest_deps(info);
            }
            let select_id = self.push_rob(d, slot, Role::Select);
            update_maps(self, select_id);
            return;
        }

        // C-style single µop (or a non-expandable guarded store/branch).
        self.dep_scratch.clear();
        if let Some((p, _)) = hw_guard {
            if !oracles.no_pred_dependencies {
                if let Some(id) = self.pred_prod[p.index()] {
                    self.dep_scratch.push(id);
                }
            }
        }
        match guard {
            GuardPlan::Wait(id) => {
                self.dep_scratch.push(id);
                self.push_src_deps(info, &oracles);
                if wants_old_dest {
                    self.push_old_dest_deps(info);
                }
            }
            GuardPlan::Known(true) => self.push_src_deps(info, &oracles),
            GuardPlan::Known(false) => {
                if wants_old_dest {
                    self.push_old_dest_deps(info);
                }
            }
            GuardPlan::None | GuardPlan::Ready => {
                self.push_src_deps(info, &oracles);
                if wants_old_dest {
                    self.push_old_dest_deps(info);
                }
            }
        }
        let id = self.push_rob(d, slot, Role::Whole);
        update_maps(self, id);
    }

    fn pred_elim_active(&self) -> bool {
        matches!(self.mode, Mode::HighConf) && self.pred_elim_live > 0
    }

    fn pred_elim_insert(&mut self, index: usize, value: bool) {
        if self.pred_elim[index].is_none() {
            self.pred_elim_live += 1;
        }
        self.pred_elim[index] = Some(value);
    }

    // -------------------------------------------------------------- fetch

    fn fetch(&mut self, d: &DecodedProgram) {
        if self.fetch_blocked || self.cycle < self.fetch_stall_until {
            return;
        }
        let queue_cap = self.fetch_queue_cap;
        let mut budget = self.cfg.fetch_width;
        let mut cond_budget = self.cfg.max_cond_branches_per_cycle;
        while budget > 0 && self.fe_queue.len() < queue_cap {
            // Mode exit on reaching the low-confidence region's join target.
            if let Mode::LowConf {
                exit_target: Some(t),
                ..
            } = self.mode
            {
                if self.fetch_pc == t {
                    self.mode = Mode::Normal;
                }
            }
            let Some(info) = d.pcs.get(self.fetch_pc as usize) else {
                // Wrong-path fetch escaped the image; wait for the flush.
                self.fetch_blocked = true;
                return;
            };
            // I-cache.
            if !self.fetch_line_ready(info.line) {
                return;
            }

            let pc = self.fetch_pc;
            // Dynamic hammock predication: advance the guard-injection
            // state machine before fetching this µop.
            match self.dhp {
                DhpState::GuardFall {
                    pred,
                    negated,
                    cond,
                    until,
                    then,
                } => {
                    if pc >= until {
                        match then {
                            Some((taken_start, taken_until, skip_to)) => {
                                self.fetch_pc = taken_start;
                                self.dhp = DhpState::GuardTaken {
                                    pred,
                                    negated: !negated,
                                    cond,
                                    until: taken_until,
                                    skip_to,
                                };
                                continue;
                            }
                            None => self.dhp = DhpState::Off,
                        }
                    }
                }
                DhpState::GuardTaken { until, skip_to, .. } => {
                    if pc >= until {
                        self.dhp = DhpState::Off;
                        if let Some(j) = skip_to {
                            self.fetch_pc = j;
                            continue;
                        }
                    }
                }
                DhpState::Off => {}
            }
            if info.is_cond_branch {
                if cond_budget == 0 {
                    return; // next cycle
                }
                cond_budget -= 1;
            }
            let slot = self.fetch_one(d, pc);
            budget -= 1;
            let (followed_next, guard_true) = {
                let s = &self.slots[slot as usize];
                (s.info.followed_next, s.info.guard_true)
            };
            let taken_redirect = followed_next != pc + 1;
            self.fetch_pc = followed_next;

            // NO-FETCH oracle: guard-false µops vanish before taking any
            // bandwidth (they also don't count against the fetch budget).
            let skip = self.cfg.oracles.no_false_predicate_fetch
                && !guard_true
                && info.insn.guard.is_some()
                && !info.is_branch;
            if skip {
                budget += 1;
                self.stats.fetched_uops += 1;
                self.free_slot(slot);
                continue;
            }
            self.stats.fetched_uops += 1;
            self.fe_queue.push_back(slot);

            if info.is_halt {
                self.fetch_blocked = true;
                return;
            }
            if taken_redirect {
                // Fetch ends at the first taken branch (Table 2).
                return;
            }
        }
    }

    /// The fetch-stage I-cache gate: given the line the next µop lives on,
    /// decides whether fetch can proceed this cycle and arms the I-miss
    /// stall if not.
    ///
    /// Under the flat model: access the I-cache, latch the line, and stall
    /// for the returned latency when it exceeds an L1-I hit. Under the
    /// non-blocking model the access goes through the I-side MSHRs: a
    /// `Pending` fill stalls fetch until the fill cycle (the line is
    /// latched so the post-fill resume does not re-access), and an
    /// `MshrFull` refusal retries next cycle without latching — no request
    /// was issued, so the retry must re-access.
    fn fetch_line_ready(&mut self, line: u64) -> bool {
        if self.fetch_line == Some(line) {
            return true;
        }
        let addr = insn_addr(self.fetch_pc);
        if self.mem.realistic() {
            match self.mem.fetch_access_nonblocking(addr, self.cycle) {
                AccessOutcome::Ready(_) => {
                    self.fetch_line = Some(line);
                    true
                }
                AccessOutcome::Pending(fill_at) => {
                    self.fetch_line = Some(line);
                    self.fetch_stall_until = fill_at;
                    self.fetch_stall_reason = StallReason::IMiss;
                    false
                }
                AccessOutcome::MshrFull | AccessOutcome::PortBusy => {
                    // No request left the fetch stage: retry next cycle.
                    self.fetch_stall_until = self.cycle + 1;
                    self.fetch_stall_reason = StallReason::IMiss;
                    false
                }
            }
        } else {
            let lat = self.mem.fetch_access_at(addr, self.cycle);
            self.fetch_line = Some(line);
            if lat > self.cfg.mem.icache.latency {
                self.fetch_stall_until = self.cycle + lat;
                self.fetch_stall_reason = StallReason::IMiss;
                false
            } else {
                true
            }
        }
    }

    /// Processes one µop at fetch: predictions, wish-branch mode logic,
    /// speculative emulation, front-end table updates. Returns the arena
    /// slot the µop was written into.
    fn fetch_one(&mut self, d: &DecodedProgram, pc: u32) -> u32 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pi = &d.pcs[pc as usize];

        // Predicate-dependency elimination lookup (before this µop's own
        // writes invalidate entries).
        let guard_pred_elim = match pi.insn.guard {
            Some(g) if self.pred_elim_active() && !pi.is_branch => self.pred_elim[g.index()],
            _ => None,
        };

        let mut br_meta: Option<BrMeta> = None;
        let mut forced_next: Option<u32> = None;

        if let InsnKind::Branch { kind, target } = pi.insn.kind {
            let ghr_checkpoint = self.bp.ghr();
            let fetch_mode = self.mode;
            let mut meta = BrMeta {
                predicted_taken: false,
                predicted_next: pc + 1,
                bp_token: None,
                predictor_said_taken: false,
                ghr_checkpoint,
                conf_ghr: ghr_checkpoint,
                ras_checkpoint: self.ras.checkpoint(),
                conf_high: None,
                fetch_mode,
                loop_token: None,
                dhp: false,
            };
            match kind {
                BranchKind::Cond { .. } => {
                    let (dir, token) = self.predict_cond(d, pc, &pi.insn, &mut meta);
                    meta.predicted_taken = dir;
                    meta.bp_token = token;
                    meta.predicted_next = if dir { target } else { pc + 1 };
                    self.bp.on_fetch_branch(dir);
                    self.btb_note(pc, BtbKind::Cond, target, pi.insn.wish, dir);
                }
                BranchKind::Uncond => {
                    meta.predicted_taken = true;
                    meta.predicted_next = target;
                    self.btb_note(pc, BtbKind::Uncond, target, None, true);
                }
                BranchKind::Call => {
                    meta.predicted_taken = true;
                    meta.predicted_next = target;
                    self.ras.push(pc + 1);
                    meta.ras_checkpoint = self.ras.checkpoint();
                    self.btb_note(pc, BtbKind::Call, target, None, true);
                }
                BranchKind::Ret => {
                    let predicted = self
                        .ras
                        .pop()
                        .or_else(|| self.itc.predict(pc, self.bp.ghr()))
                        .unwrap_or(0);
                    meta.predicted_taken = true;
                    meta.predicted_next = predicted;
                    meta.ras_checkpoint = self.ras.checkpoint();
                    self.btb_note(pc, BtbKind::Ret, predicted, None, true);
                }
                BranchKind::Indirect { .. } => {
                    let predicted = self.itc.predict(pc, self.bp.ghr()).unwrap_or(pc + 1);
                    meta.predicted_taken = true;
                    meta.predicted_next = predicted;
                    self.btb_note(pc, BtbKind::Indirect, predicted, None, true);
                }
            }
            if self.cfg.oracles.perfect_branch_prediction {
                // PERFECT-CBP: override everything with the oracle.
                let actual = self.emu.peek_cond(&pi.insn);
                match kind {
                    BranchKind::Cond { .. } => {
                        let t = actual.expect("cond branch peeks");
                        meta.predicted_taken = t;
                        meta.predicted_next = if t { target } else { pc + 1 };
                        meta.bp_token = None;
                        meta.conf_high = None;
                    }
                    _ => {
                        meta.predicted_next = self.peek_target(&pi.insn, pc);
                    }
                }
            }
            forced_next = Some(meta.predicted_next);
            br_meta = Some(meta);
        }

        // DHP: non-control µops inside an active region carry the injected
        // guard.
        let (hw_guard, hw_guard_ok) = if pi.is_branch {
            (None, None)
        } else {
            match self.dhp {
                DhpState::GuardFall {
                    pred,
                    negated,
                    cond,
                    ..
                }
                | DhpState::GuardTaken {
                    pred,
                    negated,
                    cond,
                    ..
                } => (Some((pred, negated)), Some(cond ^ negated)),
                DhpState::Off => (None, None),
            }
        };
        // Predicate prediction (Chuang & Calder baseline).
        let mut pred_check = None;
        if self.cfg.predicate_prediction && pi.defines_pred && br_meta.is_none() {
            let counter = self.pred_value_pht[pc as usize];
            pred_check = Some(counter >= 2);
            br_meta = Some(BrMeta {
                predicted_taken: false,
                predicted_next: pc + 1,
                bp_token: None,
                predictor_said_taken: false,
                ghr_checkpoint: self.bp.ghr(),
                conf_ghr: self.conf_history,
                ras_checkpoint: self.ras.checkpoint(),
                conf_high: None,
                fetch_mode: self.mode,
                loop_token: None,
                dhp: false,
            });
        }

        let info = self.emu.exec(seq, pc, &pi.insn, forced_next, hw_guard_ok);

        // Front-end table maintenance after the µop is "decoded".
        self.note_pred_writes(d, pc);

        if self.trace.is_some() {
            self.trace_event(d, TraceKind::Fetch, seq, pc, 0);
        }

        // Branch metadata lives in a side arena: most µops are not
        // branches, and `BrMeta` embeds a 272-byte RAS checkpoint that
        // would otherwise be copied into every slot.
        let br_ref = match br_meta {
            Some(m) => self.alloc_br(m),
            None => NO_BR,
        };
        let uop = UopSlot {
            seq,
            pc,
            fetch_cycle: self.cycle,
            info,
            br: br_ref,
            guard_pred_elim,
            hw_guard,
            pred_check,
        };
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = uop;
                i
            }
            None => {
                self.slots.push(uop);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Oracle target of a control µop (for PERFECT-CBP on ret/indirect).
    fn peek_target(&self, insn: &Insn, pc: u32) -> u32 {
        match insn.kind {
            InsnKind::Branch { kind, target } => match kind {
                BranchKind::Ret => self.emu.regs[Gpr::LINK.index()] as u32,
                BranchKind::Indirect { target: r } => self.emu.regs[r.index()] as u32,
                _ => target,
            },
            _ => pc + 1,
        }
    }

    /// Direction prediction for a conditional branch, including all wish
    /// branch mode logic (§3.1, §3.2, Table 1, Fig. 8).
    fn predict_cond(
        &mut self,
        d: &DecodedProgram,
        pc: u32,
        insn: &Insn,
        meta: &mut BrMeta,
    ) -> (bool, Option<HybridToken>) {
        let (mut bp_dir, token) = self.bp.predict(pc);
        meta.predictor_said_taken = bp_dir;
        meta.conf_ghr = self.conf_history;
        let wish = insn.wish.filter(|_| self.cfg.wish_enabled);
        let Some(wtype) = wish else {
            // Dynamic hammock predication for plain conditional branches.
            if self.cfg.dhp_enabled && self.dhp == DhpState::Off {
                if let Some(plan) = self.dhp_region(d, pc) {
                    let low = if self.cfg.oracles.perfect_confidence {
                        let actual = self.emu.peek_cond(insn).expect("cond branch");
                        bp_dir != actual
                    } else {
                        !self.jrs.estimate(pc, self.conf_history).is_high()
                    };
                    meta.conf_high = Some(!low);
                    if low {
                        meta.dhp = true;
                        self.dhp = plan;
                        self.stats.dhp_predications += 1;
                        return (false, Some(token));
                    }
                }
            }
            return (bp_dir, Some(token));
        };
        // Specialized wish-loop predictor (§3.2 extension).
        if wtype == WishType::Loop {
            if let Some(lp) = self.loop_pred.as_mut() {
                let (pred, ltok) = lp.fetch_predict(pc);
                meta.loop_token = Some(ltok);
                if let Some(dir) = pred {
                    bp_dir = dir;
                    meta.predictor_said_taken = dir;
                }
            }
        }

        let mut final_dir = bp_dir;

        match self.mode {
            Mode::LowConf {
                exit_target,
                loop_pc,
            } => {
                match wtype {
                    WishType::Jump | WishType::Join => {
                        final_dir = false;
                        meta.conf_high = Some(false);
                        if exit_target.is_none() {
                            if let Some(t) = insn.direct_target() {
                                self.mode = Mode::LowConf {
                                    exit_target: Some(t),
                                    loop_pc,
                                };
                            }
                        }
                    }
                    WishType::Loop => {
                        meta.conf_high = Some(false);
                    }
                }
                meta.fetch_mode = Mode::LowConf {
                    exit_target,
                    loop_pc,
                };
            }
            Mode::Normal | Mode::HighConf => {
                let high = if self.cfg.oracles.perfect_confidence {
                    let actual = self.emu.peek_cond(insn).expect("cond branch");
                    bp_dir == actual
                } else {
                    self.jrs.estimate(pc, meta.conf_ghr).is_high()
                };
                meta.conf_high = Some(high);
                if high {
                    self.mode = Mode::HighConf;
                    self.install_pred_elim(insn, bp_dir);
                } else {
                    match wtype {
                        WishType::Jump | WishType::Join => {
                            final_dir = false;
                            self.mode = Mode::LowConf {
                                exit_target: insn.direct_target(),
                                loop_pc: None,
                            };
                        }
                        WishType::Loop => {
                            self.mode = Mode::LowConf {
                                exit_target: None,
                                loop_pc: Some(pc),
                            };
                        }
                    }
                }
                meta.fetch_mode = self.mode;
            }
        }
        if wtype == WishType::Loop {
            self.loop_last_pred[pc as usize] = Some((final_dir, self.next_seq - 1));
            if !final_dir {
                match self.mode {
                    Mode::HighConf => self.mode = Mode::Normal,
                    Mode::LowConf {
                        loop_pc: Some(lp), ..
                    } if lp == pc => self.mode = Mode::Normal,
                    _ => {}
                }
            }
        }
        (final_dir, Some(token))
    }

    fn install_pred_elim(&mut self, insn: &Insn, predicted_dir: bool) {
        let InsnKind::Branch {
            kind: BranchKind::Cond { pred, sense },
            ..
        } = insn.kind
        else {
            return;
        };
        let value = if sense { predicted_dir } else { !predicted_dir };
        self.pred_elim_insert(pred.index(), value);
        if let Some(partner) = self.cmp2_partner[pred.index()] {
            self.pred_elim_insert(partner as usize, !value);
        }
    }

    fn note_pred_writes(&mut self, d: &DecodedProgram, pc: u32) {
        let info = &d.pcs[pc as usize];
        let def_preds = info.def_preds;
        let is_cmp2 = info.is_cmp2;
        if is_cmp2 {
            let t = def_preds[0].expect("cmp2 defines two predicates").index();
            let f = def_preds[1].expect("cmp2 defines two predicates").index();
            self.cmp2_partner[t] = Some(f as u8);
            self.cmp2_partner[f] = Some(t as u8);
        }
        for p in def_preds.into_iter().flatten() {
            if self.pred_elim[p.index()].take().is_some() {
                self.pred_elim_live -= 1;
            }
            if !is_cmp2 {
                self.cmp2_partner[p.index()] = None;
            }
        }
        if matches!(self.mode, Mode::HighConf) && self.pred_elim_live == 0 {
            self.mode = Mode::Normal;
        }
    }

    fn dhp_region(&self, d: &DecodedProgram, pc: u32) -> Option<DhpState> {
        let plan = d.dhp_plans[pc as usize]?;
        Some(DhpState::GuardFall {
            pred: plan.pred,
            negated: plan.negated,
            cond: self.emu.preds[plan.pred.index()],
            until: plan.until,
            then: plan.then,
        })
    }

    fn btb_note(
        &mut self,
        pc: u32,
        kind: BtbKind,
        target: u32,
        wish: Option<WishType>,
        redirects: bool,
    ) {
        let hit = self.btb.lookup(pc).is_some();
        if !hit {
            self.btb.install(pc, BtbEntry { target, kind, wish });
            if redirects {
                self.fetch_stall_until = self.cycle + self.cfg.btb_miss_penalty;
                self.fetch_stall_reason = StallReason::Redirect;
            }
        }
    }
}

/// Why the fetch stage is stalled (`fetch_stall_until` armed).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StallReason {
    /// I-cache miss in flight.
    IMiss,
    /// Redirect bubble: post-flush resteer or BTB-miss target bubble.
    Redirect,
}

/// Store-to-load-forwarding verdict for a ready load (see
/// `Pipeline::forward_state`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ForwardState {
    /// Fully covered by the youngest older overlapping store whose data
    /// is ready: take the value from the store queue at L1-hit latency.
    Forward,
    /// Partially covered: conservative replay — wait until the store
    /// drains and read from the cache.
    PartialOverlap,
    /// No older in-flight store overlaps (or forwarding is off).
    NoMatch,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum GuardPlan {
    /// Unguarded.
    None,
    /// Guarded; producer already retired (value architecturally ready).
    Ready,
    /// Guarded; wait on this ROB producer.
    Wait(u64),
    /// Guarded; value known at rename (oracle or §3.5.3 elimination).
    Known(bool),
}
