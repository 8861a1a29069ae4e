//! Simulation statistics, shaped to regenerate the paper's figures.

use std::collections::BTreeMap;
use wishbranch_mem::CacheStats;

/// Counts for one wish-branch class (Fig. 11 / Fig. 13 bars).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct WishClassCounts {
    /// Estimated high confidence, prediction was correct.
    pub high_correct: u64,
    /// Estimated high confidence, prediction was wrong (pipeline flush).
    pub high_mispredicted: u64,
    /// Estimated low confidence, prediction would have been correct
    /// (pure predication overhead).
    pub low_correct: u64,
    /// Estimated low confidence, prediction would have been wrong
    /// (a flush was avoided).
    pub low_mispredicted: u64,
}

impl WishClassCounts {
    /// Total dynamic wish branches of this kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.high_correct + self.high_mispredicted + self.low_correct + self.low_mispredicted
    }
}

/// Where every cycle of a run went: each simulated cycle is attributed to
/// **exactly one** category, so `total()` equals `SimStats::cycles` — a
/// hard invariant the test suite enforces for every benchmark × variant.
///
/// The attribution point is the retire stage (top-down accounting): a
/// cycle in which µops retire is classified by *what* retired, and a cycle
/// in which nothing retires is classified by *why* — working backwards
/// from the ROB to the front end. This turns the paper's Eq. 4.1–4.3
/// overhead terms and the Fig. 2 oracle deltas into direct measurements:
///
/// * `guard_false_retire` cycles are predication's fetch/execution
///   overhead of useless instructions (the NO-FETCH oracle's target);
/// * `exec_wait` contains the predicate-dependency delay (the NO-DEPEND
///   oracle's target) along with plain data-dependency and memory stalls;
/// * `flush_recovery` + the fetch categories are the misprediction-penalty
///   term wish branches trade against predication overhead.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct CycleAccounting {
    /// At least one useful µop retired (not guard-false, not a select µop).
    pub useful_retire: u64,
    /// µops retired, but every one of them was a guard-false predicated
    /// µop (the retire bandwidth went entirely to predication overhead).
    pub guard_false_retire: u64,
    /// µops retired, but every one of them was select-µop overhead
    /// (§5.3.3 machine only).
    pub select_uop_retire: u64,
    /// Nothing retired: the ROB head is still executing (data dependences,
    /// cache misses, long-latency ops, or an unresolved branch).
    pub exec_wait: u64,
    /// Nothing retired and the ROB is full: the window is the bottleneck
    /// (dispatch is blocked behind a stalled head).
    pub rob_stall: u64,
    /// Nothing retired, ROB empty, within the refill shadow of a pipeline
    /// flush: the misprediction-recovery cost wish branches avoid.
    pub flush_recovery: u64,
    /// Nothing retired, ROB empty, fetch stalled on an I-cache miss.
    pub fetch_imiss: u64,
    /// Nothing retired, ROB empty, fetch redirecting (taken-branch realign
    /// or BTB-miss bubble).
    pub fetch_redirect: u64,
    /// Nothing retired, ROB empty, µops in flight in the front-end queue
    /// (initial pipeline fill or end-of-program drain).
    pub frontend_fill: u64,
    /// Nothing retired and a ready load/store could not issue because
    /// every MSHR it needed was busy (non-blocking hierarchy only; always
    /// zero under the flat latency model).
    pub mshr_full: u64,
    /// Nothing retired, the window is not full, and at least one line fill
    /// is still outstanding: the core is waiting on memory (non-blocking
    /// hierarchy only; always zero under the flat latency model).
    pub miss_pending: u64,
    /// Nothing retired, ROB empty, fetch stalled on an I-miss whose fill
    /// is still in flight in the I-MSHRs (non-blocking hierarchy only;
    /// always zero under the flat latency model, whose I-miss stalls stay
    /// in `fetch_imiss`).
    pub imiss_pending: u64,
    /// Nothing retired and a ready store could not issue because the
    /// write buffer had no free entry (non-blocking hierarchy with
    /// `write_buffer_entries` > 0 only; always zero otherwise).
    pub writebuf_full: u64,
}

impl CycleAccounting {
    /// Sum over every category. The accounting invariant is
    /// `total() == SimStats::cycles`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.useful_retire
            + self.guard_false_retire
            + self.select_uop_retire
            + self.exec_wait
            + self.rob_stall
            + self.flush_recovery
            + self.fetch_imiss
            + self.fetch_redirect
            + self.frontend_fill
            + self.mshr_full
            + self.miss_pending
            + self.imiss_pending
            + self.writebuf_full
    }

    /// `(category name, cycles)` rows in a stable order, for rendering and
    /// machine-readable reports. The non-blocking-hierarchy causes come
    /// last so the legacy nine keep their historical positions.
    #[must_use]
    pub fn rows(&self) -> [(&'static str, u64); 13] {
        [
            ("useful_retire", self.useful_retire),
            ("guard_false_retire", self.guard_false_retire),
            ("select_uop_retire", self.select_uop_retire),
            ("exec_wait", self.exec_wait),
            ("rob_stall", self.rob_stall),
            ("flush_recovery", self.flush_recovery),
            ("fetch_imiss", self.fetch_imiss),
            ("fetch_redirect", self.fetch_redirect),
            ("frontend_fill", self.frontend_fill),
            ("mshr_full", self.mshr_full),
            ("miss_pending", self.miss_pending),
            ("imiss_pending", self.imiss_pending),
            ("writebuf_full", self.writebuf_full),
        ]
    }
}

/// Per-PC counters for the hot-site table: which static branch sites cause
/// flushes, avoid them, and pay guard-false predication overhead — the
/// measured substrate behind Fig. 11/13-style claims.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct HotSiteCounts {
    /// Pipeline flushes triggered at this PC.
    pub flushes: u64,
    /// Flushes avoided at this PC (low-confidence wish branches, late-exit
    /// wish loops, DHP).
    pub flushes_avoided: u64,
    /// Guard-false µops retired at this PC.
    pub guard_false_uops: u64,
}

impl HotSiteCounts {
    /// Activity score used to rank hot sites.
    #[must_use]
    pub fn score(&self) -> u64 {
        self.flushes + self.flushes_avoided + self.guard_false_uops
    }
}

/// Aggregate counters for one simulation.
#[derive(Clone, PartialEq, Default, Debug)]
pub struct SimStats {
    /// Total cycles to retire the program.
    pub cycles: u64,
    /// Retired µops (including guard-false NOPs and select µops).
    pub retired_uops: u64,
    /// Retired µops whose guard read FALSE (predication overhead #1).
    pub retired_guard_false: u64,
    /// Extra select µops retired (select-µop mechanism overhead).
    pub retired_select_uops: u64,
    /// Retired conditional branches (wish or normal).
    pub retired_cond_branches: u64,
    /// Pipeline flushes due to branch mispredictions.
    pub flushes: u64,
    /// Mispredicted retired conditional branches (including non-flushing
    /// low-confidence wish branches).
    pub retired_mispredicted: u64,
    /// Flushes avoided by low-confidence wish jumps/joins and late-exit
    /// wish loops.
    pub flushes_avoided: u64,
    /// Total µops fetched (both paths).
    pub fetched_uops: u64,
    /// Cycles in which fetch delivered no µop (stall, redirect, I-miss,
    /// queue full, or blocked).
    pub fetch_idle_cycles: u64,
    /// Fetch-idle cycles caused by an I-cache miss in progress.
    pub fetch_idle_imiss: u64,
    /// Fetch-idle cycles caused by a redirect bubble (post-flush resteer,
    /// BTB-miss target bubble, or taken-branch realign).
    pub fetch_idle_redirect: u64,
    /// Fetch-idle cycles caused by a full front-end queue (dispatch is the
    /// bottleneck).
    pub fetch_idle_queue_full: u64,
    /// Fetch-idle cycles with fetch blocked (`halt` fetched, or wrong-path
    /// fetch ran off the program image and is waiting for the flush).
    pub fetch_idle_blocked: u64,
    /// Cycles in which dispatch moved nothing into the ROB.
    pub dispatch_idle_cycles: u64,
    /// Cycles in which nothing retired.
    pub retire_idle_cycles: u64,
    /// Wrong-path µops squashed.
    pub squashed_uops: u64,
    /// Branches dynamically hammock-predicated (DHP extension).
    pub dhp_predications: u64,
    /// Flushes avoided by DHP (subset of `flushes_avoided`).
    pub dhp_flushes_avoided: u64,
    /// Predicate-value predictions made (predicate-prediction baseline).
    pub pred_value_predictions: u64,
    /// Predicate-value mispredictions (each one flushes).
    pub pred_value_mispredictions: u64,
    /// Loads whose value was forwarded from an older in-flight store
    /// (store-to-load forwarding; zero when the knob is off).
    pub store_forwards: u64,
    /// Cycles a ready load stayed blocked on a *partially* overlapping
    /// older store (conservative replay; zero when forwarding is off).
    pub load_replays: u64,
    /// Issue attempts refused because the memory hierarchy had no free
    /// MSHR (each refused µop retries; zero under the flat model).
    pub mshr_full_stalls: u64,
    /// Issue attempts refused because every data-cache port was taken
    /// this cycle (`MemConfig::data_ports`; zero when unlimited).
    pub port_conflict_stalls: u64,
    /// Store issues refused because the asynchronous write buffer was
    /// full (`MemConfig::write_buffer_entries`; zero when disabled).
    pub writebuf_full_stalls: u64,
    /// In-flight instruction fills cancelled as wrong-path on pipeline
    /// squashes (non-blocking hierarchy only).
    pub wrong_path_fills: u64,
    /// Wish jump dynamics by confidence class (retired only).
    pub wish_jumps: WishClassCounts,
    /// Wish join dynamics by confidence class (retired only).
    pub wish_joins: WishClassCounts,
    /// Wish loop dynamics by confidence class (retired only).
    pub wish_loops: WishClassCounts,
    /// Mispredicted low-confidence wish loops by exit class.
    pub loop_early_exits: u64,
    /// Late-exit count (the winning case).
    pub loop_late_exits: u64,
    /// No-exit count.
    pub loop_no_exits: u64,
    /// Single-cause attribution of every cycle (`total() == cycles`).
    pub cycle_accounting: CycleAccounting,
    /// Per-PC flush / flush-avoided / guard-false counters. Deterministic
    /// (BTreeMap) so parallel and serial runs stay bit-identical. During a
    /// run the simulator counts into a flat per-PC array and folds the
    /// touched rows in here once at the end.
    pub hot_sites: BTreeMap<u32, HotSiteCounts>,
    /// I-cache statistics.
    pub icache: CacheStats,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
}

impl SimStats {
    /// Retired µops per cycle.
    #[must_use]
    pub fn upc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired_uops as f64 / self.cycles as f64
        }
    }

    /// Mispredicted branches per 1000 retired µops (Table 4's metric).
    #[must_use]
    pub fn mispredicts_per_kuop(&self) -> f64 {
        if self.retired_uops == 0 {
            0.0
        } else {
            self.retired_mispredicted as f64 * 1000.0 / self.retired_uops as f64
        }
    }

    /// Dynamic wish branches of all kinds (retired).
    #[must_use]
    pub fn wish_branches_total(&self) -> u64 {
        self.wish_jumps.total() + self.wish_joins.total() + self.wish_loops.total()
    }

    /// Scales a count to "per one million retired µops" (Figs. 11/13).
    /// With no retired µops the rate is undefined, not zero: NaN here is
    /// the explicit-gap marker that `jf`/`cf` render as `null`/empty.
    #[must_use]
    pub fn per_million_uops(&self, count: u64) -> f64 {
        if self.retired_uops == 0 {
            f64::NAN
        } else {
            count as f64 * 1.0e6 / self.retired_uops as f64
        }
    }

    /// The `n` most active sites of the per-PC table, ranked by
    /// [`HotSiteCounts::score`] (ties broken by PC, so the order is
    /// deterministic).
    #[must_use]
    pub fn top_sites(&self, n: usize) -> Vec<(u32, HotSiteCounts)> {
        let mut sites: Vec<(u32, HotSiteCounts)> =
            self.hot_sites.iter().map(|(&pc, &c)| (pc, c)).collect();
        sites.sort_by(|a, b| b.1.score().cmp(&a.1.score()).then(a.0.cmp(&b.0)));
        sites.truncate(n);
        sites
    }
}
