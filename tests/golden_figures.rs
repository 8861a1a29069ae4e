//! Golden-figure regression: headline averages of Figs. 10 and 12 at a
//! reduced, fully deterministic scale.
//!
//! EXPERIMENTS.md records the paper-scale (WISHBRANCH_SCALE=4000) headline
//! numbers — Fig. 10 wish-jj AVGnomcf 0.918, Fig. 12 wish-jjl AVG 0.827,
//! BASE-DEF 0.892. Simulating at that scale is minutes of work, so this
//! test snapshots the same averages at scale 150 on the paper machine
//! (values measured from the engine, which is bit-identical to the serial
//! spine — see `engine_equivalence.rs`). The whole stack is deterministic,
//! so a drift beyond the stated tolerance means a real change to the
//! compiler, simulator, or workloads — rerun the paper-scale sweep and
//! update both this snapshot and EXPERIMENTS.md if the change is intended.

use proptest::prelude::*;
use wishbranch_compiler::BinaryVariant;
use wishbranch_core::journal::fnv1a64;
use wishbranch_core::{
    compile_adaptive_variant, compile_variant, simulate, trace_binary, Experiment,
    ExperimentConfig, FigureData, Report, ReportData, SweepRunner,
};
use wishbranch_isa::Program;
use wishbranch_uarch::{render_trace, MachineConfig, PredMechanism, SimResult, Simulator};
use wishbranch_workloads::{suite, InputSet};

const SCALE: i32 = 150;

/// Tolerance on each snapshot value. Generous enough to survive benign
/// heuristic retunes, tight enough to catch a broken mechanism (breaking
/// wish-loop conversion moves the Fig. 12 averages by > 0.02).
const TOL: f64 = 0.015;

fn avg_row<'a>(fig: &'a FigureData, which: &str, series: &str) -> f64 {
    let idx = fig
        .series
        .iter()
        .position(|s| s == series)
        .unwrap_or_else(|| panic!("series {series:?} missing from {:?}", fig.series));
    fig.rows
        .iter()
        .find(|r| r.name == which)
        .unwrap_or_else(|| panic!("{which} row missing"))
        .values[idx]
}

fn assert_close(label: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= TOL,
        "{label}: got {got:.6}, snapshot {want:.6} (tolerance ±{TOL})"
    );
}

/// Runs an experiment through the unified catalog API and unwraps the
/// figure payload — so the golden values below also pin the
/// `Experiment::run` → `Report` path, not just the raw figure functions.
fn run_figure(exp: Experiment, runner: &SweepRunner) -> (Report, FigureData) {
    let report = exp.run(runner);
    let ReportData::Figure(fig) = report.data.clone() else {
        panic!("{}: expected a figure payload", report.id)
    };
    (report, fig)
}

#[test]
fn figure_10_and_12_headline_averages_match_snapshot() {
    let ec = ExperimentConfig::paper(SCALE);
    let runner = SweepRunner::new(&ec);
    let (report10, fig10) = run_figure(Experiment::Fig10, &runner);
    let (_, fig12) = run_figure(Experiment::Fig12, &runner);

    // The report serializes the exact simulated values (six decimals).
    assert!(
        report10.to_json().contains(&format!(
            "{:.6}",
            avg_row(&fig10, "AVG", "BASE-DEF")
        )),
        "fig10 JSON must carry the snapshot value verbatim"
    );

    // Fig. 10 snapshot (scale 150).
    assert_close("fig10 BASE-DEF AVG", avg_row(&fig10, "AVG", "BASE-DEF"), 1.001474);
    assert_close(
        "fig10 wish-jj AVGnomcf",
        avg_row(&fig10, "AVGnomcf", "wish-jj (real-conf)"),
        0.982445,
    );
    assert_close(
        "fig10 wish-jj perf-conf AVG",
        avg_row(&fig10, "AVG", "wish-jj (perf-conf)"),
        0.974505,
    );

    // Fig. 12 snapshot (scale 150).
    assert_close(
        "fig12 wish-jjl AVG",
        avg_row(&fig12, "AVG", "wish-jjl (real-conf)"),
        0.943934,
    );
    assert_close(
        "fig12 wish-jjl AVGnomcf",
        avg_row(&fig12, "AVGnomcf", "wish-jjl (real-conf)"),
        0.917767,
    );

    // The paper's qualitative headline must hold at any scale: adding wish
    // loops beats both the predicated baseline and the jump/join binary.
    let wjjl = avg_row(&fig12, "AVGnomcf", "wish-jjl (real-conf)");
    assert!(
        wjjl < avg_row(&fig12, "AVGnomcf", "BASE-DEF"),
        "wish-jjl must beat BASE-DEF"
    );
    assert!(
        wjjl < avg_row(&fig12, "AVGnomcf", "wish-jj (real-conf)"),
        "wish loops must add benefit over jump/join alone"
    );
    assert!(wjjl < 1.0, "wish-jjl must beat the normal-branch binary");
}

// ---------------------------------------------------------------------------
// Randomized old-vs-new simulator equivalence.
//
// The hot-path overhaul (pre-decoded µop cache, flat state tables, wakeup
// lists) must not move a single architected number. These fingerprints were
// generated with the pre-overhaul simulator over a seeded random matrix of
// benchmark × variant × machine-config jobs; the rewritten simulator must
// reproduce every `SimResult` — stats, cycle accounting, hot-site table and
// final architectural state — byte for byte.
//
// To regenerate after an *intended* architected change:
//   cargo test --release --test golden_figures regenerate_random_job_goldens -- --ignored --nocapture

/// Scale for the randomized jobs (small: the matrix runs many machines).
const RJ_SCALE: i32 = 40;

/// Number of randomized jobs in the golden matrix.
const RJ_CASES: u64 = 24;

/// Pre-overhaul `SimResult` fingerprints, one per randomized job.
const RJ_GOLDEN: [u64; RJ_CASES as usize] = [
    0xd9bd_81d0_f5f3_6d33,
    0x7a29_d3d9_9eee_4c9c,
    0x92f6_ad70_f4b5_1782,
    0xc972_5c86_cf8b_ccb9,
    0x768f_b5ab_dcd2_e6aa,
    0xac76_cac9_ed00_b71f,
    0xf751_bd5a_2a1e_bbcc,
    0x29e7_d0b0_7418_dfe9,
    0x0306_3a37_ba34_3964,
    0xd765_7f74_abab_f03d,
    0x213f_61fc_5f75_9037,
    0x9fba_2bd1_9e0e_8bac,
    0xb123_158c_84d6_7e52,
    0x01ab_c847_5a77_6cb6,
    0x4f94_6c24_c135_d768,
    0x00e0_ce56_389d_4041,
    0x9540_4fa5_7960_240a,
    0x60fc_5c40_ffc2_19c4,
    0xbb81_67fb_9ed1_af03,
    0xe3f5_98d3_d9cc_e828,
    0xab41_005d_7bbe_4f90,
    0x077f_c5d1_2e46_9411,
    0xf632_42a1_bb9c_e9df,
    0xf6f7_00b1_16e1_3774,
];

/// splitmix64: the deterministic stream the job matrix is drawn from.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a-64 over a canonical byte serialization of a whole [`SimResult`]:
/// every stats field in declaration order, the cycle-accounting rows, the
/// hot-site table, cache stats, and the final architectural state.
fn fingerprint(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let s = &r.stats;
    for v in [
        s.cycles,
        s.retired_uops,
        s.retired_guard_false,
        s.retired_select_uops,
        s.retired_cond_branches,
        s.flushes,
        s.retired_mispredicted,
        s.flushes_avoided,
        s.fetched_uops,
        s.fetch_idle_cycles,
        s.fetch_idle_imiss,
        s.fetch_idle_redirect,
        s.fetch_idle_queue_full,
        s.fetch_idle_blocked,
        s.dispatch_idle_cycles,
        s.retire_idle_cycles,
        s.squashed_uops,
        s.dhp_predications,
        s.dhp_flushes_avoided,
        s.pred_value_predictions,
        s.pred_value_mispredictions,
    ] {
        put(v);
    }
    for w in [&s.wish_jumps, &s.wish_joins, &s.wish_loops] {
        put(w.high_correct);
        put(w.high_mispredicted);
        put(w.low_correct);
        put(w.low_mispredicted);
    }
    put(s.loop_early_exits);
    put(s.loop_late_exits);
    put(s.loop_no_exits);
    // The nine flat-model accounting causes, explicitly — NOT rows(), so
    // adding hierarchy-only causes (mshr_full/miss_pending, zero for every
    // golden job because the knobs default off) cannot silently shift the
    // hash. The assert pins that precondition.
    let a = &s.cycle_accounting;
    assert_eq!(
        (a.mshr_full, a.miss_pending),
        (0, 0),
        "golden jobs run the flat memory model; hierarchy causes must be zero"
    );
    for v in [
        a.useful_retire,
        a.guard_false_retire,
        a.select_uop_retire,
        a.exec_wait,
        a.rob_stall,
        a.flush_recovery,
        a.fetch_imiss,
        a.fetch_redirect,
        a.frontend_fill,
    ] {
        put(v);
    }
    for (&pc, c) in &s.hot_sites {
        put(u64::from(pc));
        put(c.flushes);
        put(c.flushes_avoided);
        put(c.guard_false_uops);
    }
    for c in [&s.icache, &s.l1d, &s.l2] {
        put(c.hits);
        put(c.misses);
        put(c.probes);
    }
    for &v in &r.final_regs {
        put(v as u64);
    }
    for &p in &r.final_preds {
        put(u64::from(p));
    }
    for (&a, &v) in &r.final_mem {
        put(a);
        put(v as u64);
    }
    h
}

// ---------------------------------------------------------------------------
// Second golden lane: the same job matrix with the non-blocking memory
// hierarchy on.
//
// The flat lane above pins the default model byte-for-byte; this lane pins
// `MemConfig::realistic_preset()` (I-MSHRs, next-line instruction
// prefetch, finite write buffer, limited data ports, store forwarding,
// stride prefetch) with per-case knob variation, so a timing change
// anywhere in the hierarchy path — MSHR allocation, fill ordering, port
// arbitration, write-buffer drains, wrong-path cancellation — moves a
// committed fingerprint. The hierarchy fingerprint hashes the FULL
// 13-cause accounting split plus the hierarchy-only counters the flat
// fingerprint deliberately excludes.
//
// To regenerate after an *intended* timing change:
//   cargo test --release --test golden_figures regenerate_hierarchy_job_goldens -- --ignored --nocapture

/// Hierarchy-on `SimResult` fingerprints, one per randomized job.
const RH_GOLDEN: [u64; RJ_CASES as usize] = [
    0xfa03_c0fa_8edf_e68c,
    0x3405_98db_2b39_8850,
    0xe05b_6f53_ce24_c64b,
    0xab13_a85c_f671_6ceb,
    0x0323_c44f_efd3_2790,
    0x28ae_65f9_b6ad_b5bd,
    0x41fa_e690_e817_41a3,
    0x22a3_0472_0494_dbf8,
    0x302b_843e_81eb_9a4e,
    0xbc6a_5430_69dc_2275,
    0x9d1a_d5c8_abca_bf3b,
    0x45c1_2d04_691e_8bec,
    0x539e_9edc_9767_227b,
    0x30a7_01e1_27e4_9de0,
    0xb4ff_3b1a_005f_391c,
    0xe87c_0bb4_cddc_acc4,
    0xabef_c0b2_b370_258c,
    0x2d73_fadc_6c63_a459,
    0x7514_01aa_7a88_2619,
    0xa321_cb34_62bb_1d52,
    0xaf58_f5c6_663d_e7b5,
    0x5841_6535_cb3e_a1ae,
    0xf6d3_5cb8_43a3_e664,
    0x4fdf_32ee_5ff3_51ed,
];

/// FNV-1a-64 over the flat fingerprint's serialization PLUS the full
/// 13-row cycle-accounting split and the hierarchy-only counters
/// (`mshr_full_stalls`, `writebuf_full_stalls`, `port_conflict_stalls`,
/// `wrong_path_fills`, `store_forwards`, `load_replays`) — everything the
/// non-blocking model can move.
fn fingerprint_hierarchy(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let s = &r.stats;
    for v in [
        s.cycles,
        s.retired_uops,
        s.retired_guard_false,
        s.retired_select_uops,
        s.retired_cond_branches,
        s.flushes,
        s.retired_mispredicted,
        s.flushes_avoided,
        s.fetched_uops,
        s.fetch_idle_cycles,
        s.fetch_idle_imiss,
        s.fetch_idle_redirect,
        s.fetch_idle_queue_full,
        s.fetch_idle_blocked,
        s.dispatch_idle_cycles,
        s.retire_idle_cycles,
        s.squashed_uops,
        s.store_forwards,
        s.load_replays,
        s.mshr_full_stalls,
        s.writebuf_full_stalls,
        s.port_conflict_stalls,
        s.wrong_path_fills,
    ] {
        put(v);
    }
    for (_, v) in s.cycle_accounting.rows() {
        put(v);
    }
    for (&pc, c) in &s.hot_sites {
        put(u64::from(pc));
        put(c.flushes);
        put(c.flushes_avoided);
        put(c.guard_false_uops);
    }
    for c in [&s.icache, &s.l1d, &s.l2] {
        put(c.hits);
        put(c.misses);
        put(c.probes);
    }
    for &v in &r.final_regs {
        put(v as u64);
    }
    for &p in &r.final_preds {
        put(u64::from(p));
    }
    for (&a, &v) in &r.final_mem {
        put(a);
        put(v as u64);
    }
    h
}

/// The hierarchy-lane job: the flat lane's job with the memory model
/// swapped for the realistic preset, then per-case knob variation drawn
/// from an independent stream — every new knob gets exercised at several
/// values across the 24 cases.
fn random_hierarchy_job(case: u64) -> (usize, Option<BinaryVariant>, InputSet, MachineConfig) {
    let (bench, variant, input, mut m) = random_job(case);
    m.mem = wishbranch_mem::MemConfig::realistic_preset();
    let mut st = 0x43ac_4e5e_u64 ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut pick = |n: u64| splitmix64(&mut st) % n;
    m.mem.write_buffer_entries = [0, 2, 4][pick(3) as usize];
    m.mem.data_ports = [0, 1, 2][pick(3) as usize];
    if pick(3) == 0 {
        m.mem.iprefetch = false;
    }
    m.mem.i_mshrs = [1, 4][pick(2) as usize];
    if pick(3) == 0 {
        m.mem.l1_mshrs = 2;
    }
    if pick(3) == 0 {
        m.mem.prefetch_entries = 0;
    }
    if pick(4) == 0 {
        m.mem.store_forwarding = false;
    }
    (bench, variant, input, m)
}

/// Runs one hierarchy-lane job through the full suite spine and
/// fingerprints the verified result.
fn run_hierarchy_job(case: u64) -> u64 {
    let (bench_idx, variant, input, machine) = random_hierarchy_job(case);
    let ec = ExperimentConfig::quick(RJ_SCALE);
    let benches = suite(RJ_SCALE);
    let bench = &benches[bench_idx];
    let bin = match variant {
        Some(v) => compile_variant(bench, v, &ec).expect("compile"),
        None => compile_adaptive_variant(bench, &[InputSet::A, InputSet::C], &ec)
            .expect("compile adaptive"),
    };
    let result = simulate(&bin.program, bench, input, &machine).expect("simulate + verify");
    fingerprint_hierarchy(&result)
}

/// Every hierarchy-lane job must reproduce its committed fingerprint
/// exactly — the non-blocking model's timing is pinned as tightly as the
/// flat model's.
#[test]
fn randomized_hierarchy_jobs_are_bit_identical_to_goldens() {
    for case in 0..RJ_CASES {
        let got = run_hierarchy_job(case);
        assert_eq!(
            got,
            RH_GOLDEN[case as usize],
            "case {case} ({:?}): hierarchy SimResult diverged from its golden",
            random_hierarchy_job(case)
        );
    }
}

/// Regeneration helper (ignored): prints the hierarchy golden array.
#[test]
#[ignore = "golden generator, run manually with --nocapture"]
fn regenerate_hierarchy_job_goldens() {
    println!("const RH_GOLDEN: [u64; RJ_CASES as usize] = [");
    for case in 0..RJ_CASES {
        println!("    {:#018x},", run_hierarchy_job(case));
    }
    println!("];");
}

/// One randomized job drawn from the splitmix64 stream: a benchmark, a
/// binary variant (including the adaptive extension), an input set, and a
/// machine configuration spanning every mechanism the simulator models.
fn random_job(case: u64) -> (usize, Option<BinaryVariant>, InputSet, MachineConfig) {
    let mut st = 0x5eed_c0de_u64 ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut pick = |n: u64| splitmix64(&mut st) % n;

    let bench = pick(9) as usize; // the suite has nine benchmarks
    // None = the adaptive extension binary (compiled from several profiles).
    let variant = match pick(6) {
        0 => Some(BinaryVariant::NormalBranch),
        1 => Some(BinaryVariant::BaseDef),
        2 => Some(BinaryVariant::BaseMax),
        3 => Some(BinaryVariant::WishJumpJoin),
        4 => Some(BinaryVariant::WishJumpJoinLoop),
        _ => None,
    };
    let input = [InputSet::A, InputSet::B, InputSet::C][pick(3) as usize];

    let mut m = MachineConfig {
        pipeline_depth: [5, 10, 30][pick(3) as usize],
        rob_size: [32, 64, 128, 512][pick(4) as usize],
        fetch_width: [4, 8][pick(2) as usize],
        ..MachineConfig::default()
    };
    m.max_cond_branches_per_cycle = [2, 3][pick(2) as usize];
    if pick(2) == 0 {
        m.pred_mechanism = PredMechanism::SelectUop;
    }
    if pick(4) == 0 {
        m.wish_enabled = false;
    }
    match pick(5) {
        0 => m.oracles.perfect_confidence = true,
        1 => m.oracles.perfect_branch_prediction = true,
        2 => m.oracles.no_pred_dependencies = true,
        3 => {
            m.oracles.no_pred_dependencies = true;
            m.oracles.no_false_predicate_fetch = true;
        }
        _ => {}
    }
    if pick(4) == 0 {
        m.dhp_enabled = true;
    }
    if pick(4) == 0 && !m.dhp_enabled {
        m.predicate_prediction = true;
    }
    if pick(3) == 0 {
        m.wish_loop_predictor = Some(Default::default());
    }
    if pick(3) == 0 {
        m.mem.max_outstanding_misses = 2;
    }
    (bench, variant, input, m)
}

/// Runs one randomized job through the full suite spine (profile →
/// compile → simulate → verify) and fingerprints the verified result.
fn run_random_job(case: u64) -> u64 {
    let (bench_idx, variant, input, machine) = random_job(case);
    let ec = ExperimentConfig::quick(RJ_SCALE);
    let benches = suite(RJ_SCALE);
    let bench = &benches[bench_idx];
    let bin = match variant {
        Some(v) => compile_variant(bench, v, &ec).expect("compile"),
        None => compile_adaptive_variant(bench, &[InputSet::A, InputSet::C], &ec)
            .expect("compile adaptive"),
    };
    let result = simulate(&bin.program, bench, input, &machine).expect("simulate + verify");
    fingerprint(&result)
}

/// Exhaustive check: every randomized job must reproduce its pre-overhaul
/// fingerprint exactly (stats, cycle accounting, hot sites, final state).
#[test]
fn randomized_jobs_are_bit_identical_to_pre_overhaul_goldens() {
    for case in 0..RJ_CASES {
        let got = run_random_job(case);
        assert_eq!(
            got, RJ_GOLDEN[case as usize],
            "case {case} ({:?}): SimResult diverged from the pre-overhaul simulator",
            random_job(case)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property flavor of the same check: a randomly sampled job from the
    /// golden matrix stays byte-identical to its pre-overhaul fingerprint
    /// (and, being run twice across the two tests, doubles as a
    /// determinism check).
    #[test]
    fn sampled_random_job_matches_pre_overhaul_golden(case in 0u64..RJ_CASES) {
        prop_assert_eq!(run_random_job(case), RJ_GOLDEN[case as usize]);
    }
}

/// Regeneration helper (ignored): prints the golden array for pasting.
#[test]
#[ignore = "golden generator, run manually with --nocapture"]
fn regenerate_random_job_goldens() {
    println!("const RJ_GOLDEN: [u64; RJ_CASES as usize] = [");
    for case in 0..RJ_CASES {
        println!("    {:#018x},", run_random_job(case));
    }
    println!("];");
}

// ---------------------------------------------------------------------------
// Third golden lane: verdicts captured from the scalar pipeline.
//
// The simulator once had two cores — a scalar pipeline and the lane
// engine — kept equal by batched-vs-scalar tests. Before the scalar
// pipeline was deleted, its verdicts on those tests' cases were captured
// here, so the one remaining core is held to them byte for byte. Each
// fingerprint is FNV-1a-64 over the `Debug` text of the whole run result
// (deterministic: every map in `SimResult` is a `BTreeMap`), followed by
// the `Debug` text of every retire record and the rendered pipeview trace
// where the case collects them.
//
// To regenerate after an *intended* architected change:
//   cargo test --release --test golden_figures regenerate_scalar_core_goldens -- --ignored --nocapture

/// Scale of the scalar-core golden jobs.
const SC_SCALE: i32 = 40;

/// The seeded `(seed, lanes)` matrix the batched-vs-scalar suite drew.
const SC_MATRIX: [(u64, usize); 5] = [(0, 1), (1, 2), (2, 3), (3, 5), (4, 8)];

/// Number of jobs in the seeded matrix (the sum of its lane counts).
const SC_MATRIX_JOBS: usize = 19;

/// The `wishbranch-repro trace` cases: benchmark index and variant, traced
/// on input B at [`SC_TRACE_SCALE`] on the paper machine.
const SC_TRACES: [(usize, BinaryVariant); 3] = [
    (0, BinaryVariant::WishJumpJoinLoop),
    (4, BinaryVariant::BaseMax),
    (7, BinaryVariant::WishAdaptive),
];

/// Scale of the traced cases (the CLI defaults to 200; traces get long).
const SC_TRACE_SCALE: i32 = 20;

/// Scalar-pipeline fingerprints, keyed by case label.
const SC_GOLDEN: [(&str, u64); 30] = [
    ("matrix s0 #0", 0xcabc_154c_d6d3_d164),
    ("matrix s1 #0", 0x139c_6366_0d1e_5ff3),
    ("matrix s1 #1", 0x9b05_355b_5905_6b75),
    ("matrix s2 #0", 0x9d23_8ae6_e788_933f),
    ("matrix s2 #1", 0xde82_8d46_61a3_d1f0),
    ("matrix s2 #2", 0xb84c_9ee5_75f4_196c),
    ("matrix s3 #0", 0x72aa_d509_40ea_27cb),
    ("matrix s3 #1", 0xc3c7_4436_e9b7_2998),
    ("matrix s3 #2", 0xcb2a_278e_1e26_a74a),
    ("matrix s3 #3", 0xae2c_b179_715b_22b6),
    ("matrix s3 #4", 0x9ac5_c741_0193_525d),
    ("matrix s4 #0", 0xe290_6c46_5132_abe1),
    ("matrix s4 #1", 0x06ae_afc0_32ad_3791),
    ("matrix s4 #2", 0x62b6_1dd0_122d_1a67),
    ("matrix s4 #3", 0xca00_071f_125f_9ab2),
    ("matrix s4 #4", 0x6d5a_d5c6_7f66_7fd3),
    ("matrix s4 #5", 0xfb51_f445_9eb8_0fb7),
    ("matrix s4 #6", 0x8d62_9d75_11ea_2a13),
    ("matrix s4 #7", 0x8291_eead_bc22_ee1f),
    ("imiss nonblocking", 0xe5f7_9b70_a83b_1883),
    ("imiss no-iprefetch", 0xd6e9_16a4_bc03_8063),
    ("imiss tight-imshr", 0x167e_b995_7dbe_06d1),
    ("imiss realistic-preset", 0xe5f7_9b70_a83b_1883),
    ("imiss flat", 0x0d9f_b8b1_8ea3_d9d4),
    ("straggler short", 0xbecc_ff6d_a3b5_7118),
    ("straggler long", 0xa990_6845_ea67_8f3b),
    ("retire-log", 0x1674_93d3_a75f_a4fc),
    ("trace b0 wish-jjl", 0xdabc_e2f4_bb4a_643b),
    ("trace b4 BASE-MAX", 0x83ea_1810_dc60_cf48),
    ("trace b7 wish-adaptive", 0x6b61_bb17_0719_d5dd),
];

/// The committed scalar-pipeline fingerprint of case `label`.
fn sc_golden(label: &str) -> u64 {
    SC_GOLDEN
        .iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("no scalar-core golden for {label:?}"))
        .1
}

/// One job of the seeded matrix drawn from the stream: bench index,
/// variant, input and a machine mixing every mechanism and all three
/// memory models.
fn sc_random_job(st: &mut u64) -> (usize, BinaryVariant, InputSet, MachineConfig) {
    let mut pick = |n: u64| splitmix64(st) % n;
    let bench = pick(9) as usize;
    let variant = [
        BinaryVariant::NormalBranch,
        BinaryVariant::BaseDef,
        BinaryVariant::BaseMax,
        BinaryVariant::WishJumpJoin,
        BinaryVariant::WishJumpJoinLoop,
    ][pick(5) as usize];
    let input = [InputSet::A, InputSet::B, InputSet::C][pick(3) as usize];
    let mut m = MachineConfig {
        pipeline_depth: [5, 10, 30][pick(3) as usize],
        rob_size: [32, 128, 512][pick(3) as usize],
        ..MachineConfig::default()
    };
    if pick(2) == 0 {
        m.pred_mechanism = PredMechanism::SelectUop;
    }
    match pick(5) {
        0 => m.oracles.perfect_confidence = true,
        1 => m.oracles.perfect_branch_prediction = true,
        2 => m.oracles.no_pred_dependencies = true,
        3 => {
            m.oracles.no_pred_dependencies = true;
            m.oracles.no_false_predicate_fetch = true;
        }
        _ => {}
    }
    if pick(4) == 0 {
        m.dhp_enabled = true;
    }
    if pick(4) == 0 && !m.dhp_enabled {
        m.predicate_prediction = true;
    }
    if pick(3) == 0 {
        m.wish_loop_predictor = Some(Default::default());
    }
    match pick(3) {
        0 => {}
        1 => m.mem.max_outstanding_misses = 2,
        _ => {
            m.mem.realistic = true;
            if pick(2) == 0 {
                m.mem.write_buffer_entries = [2, 4][pick(2) as usize];
            }
            if pick(2) == 0 {
                m.mem.data_ports = [1, 2][pick(2) as usize];
            }
            if pick(2) == 0 {
                m.mem.iprefetch = false;
            }
            if pick(3) == 0 {
                m.mem.i_mshrs = 1;
            }
        }
    }
    (bench, variant, input, m)
}

/// The seeded matrix, in stream order, with each job's label.
fn sc_matrix() -> Vec<(String, usize, BinaryVariant, InputSet, MachineConfig)> {
    let mut jobs = Vec::with_capacity(SC_MATRIX_JOBS);
    for (seed, lanes) in SC_MATRIX {
        let mut st = 0xba7c_4_u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for lane in 0..lanes {
            let (b, v, i, m) = sc_random_job(&mut st);
            jobs.push((format!("matrix s{seed} #{lane}"), b, v, i, m));
        }
    }
    assert_eq!(jobs.len(), SC_MATRIX_JOBS);
    jobs
}

/// Runs `program` on `cfg` and fingerprints the run result, plus the
/// retire log when `retire_log` is set.
fn sc_run(program: &Program, cfg: &MachineConfig, preload: &[(u64, i64)], retire_log: bool) -> u64 {
    let mut sim = Simulator::new(program, cfg.clone());
    for &(a, v) in preload {
        sim.preload_mem(a, v);
    }
    if retire_log {
        sim.enable_retire_log();
    }
    let mut text = format!("{:?}", sim.run());
    for record in sim.take_retire_log() {
        text.push_str(&format!("\n{record:?}"));
    }
    fnv1a64(text.as_bytes())
}

/// Fingerprint of matrix job `i`.
fn sc_matrix_job(i: usize) -> (String, u64) {
    let ec = ExperimentConfig::quick(SC_SCALE);
    let benches = suite(SC_SCALE);
    let (label, b, v, input, cfg) = sc_matrix().swap_remove(i);
    let bin = compile_variant(&benches[b], v, &ec).expect("compile");
    (label, sc_run(&bin.program, &cfg, &(benches[b].input_fn)(input), false))
}

/// A code footprint spanning many cold I-cache lines, run twice over (a
/// cold pass and a warm pass, with a mispredictable exit branch).
fn sc_imiss_program() -> Program {
    use wishbranch_isa::{AluOp, BranchKind, CmpOp, Gpr, Insn, Operand, PredReg, ProgramBuilder};
    let r = Gpr::new;
    let mut b = ProgramBuilder::new();
    let top = b.label("top");
    let done = b.label("done");
    b.push(Insn::mov_imm(r(1), 0));
    b.bind(top);
    for _ in 0..512 {
        b.push(Insn::alu(AluOp::Add, r(2), r(2), Operand::imm(1)));
    }
    b.push(Insn::alu(AluOp::Add, r(1), r(1), Operand::imm(1)));
    b.push(Insn::cmp(CmpOp::Eq, PredReg::new(1), r(1), Operand::imm(2)));
    b.push_cond_branch(PredReg::new(1), true, done, None);
    b.push_branch_to(Insn::branch(BranchKind::Uncond, 0), top);
    b.bind(done);
    b.push(Insn::halt());
    b.build()
}

/// The I-side configurations the footprint runs under.
fn sc_imiss_configs() -> Vec<(&'static str, MachineConfig)> {
    let realistic = |f: &dyn Fn(&mut MachineConfig)| {
        let mut m = MachineConfig::default();
        m.mem.realistic = true;
        f(&mut m);
        m
    };
    let mut preset = MachineConfig::default();
    preset.mem = wishbranch_mem::MemConfig::realistic_preset();
    vec![
        ("imiss nonblocking", realistic(&|_| {})),
        ("imiss no-iprefetch", realistic(&|m| m.mem.iprefetch = false)),
        ("imiss tight-imshr", realistic(&|m| m.mem.i_mshrs = 1)),
        ("imiss realistic-preset", preset),
        ("imiss flat", MachineConfig::default()),
    ]
}

/// The straggler pair: benchmark 0 as wish-jj on input A at the golden
/// scale and at 100× it.
fn sc_straggler_jobs() -> Vec<(&'static str, u64)> {
    [("straggler short", SC_SCALE), ("straggler long", SC_SCALE * 100)]
        .into_iter()
        .map(|(label, scale)| {
            let ec = ExperimentConfig::quick(scale);
            let bench = &suite(scale)[0];
            let bin = compile_variant(bench, BinaryVariant::WishJumpJoin, &ec).expect("compile");
            let preload = (bench.input_fn)(InputSet::A);
            (label, sc_run(&bin.program, &MachineConfig::default(), &preload, false))
        })
        .collect()
}

/// The retire-log case: benchmark 2 as wish-jjl on input C.
fn sc_retire_log_job() -> u64 {
    let ec = ExperimentConfig::quick(SC_SCALE);
    let bench = &suite(SC_SCALE)[2];
    let bin = compile_variant(bench, BinaryVariant::WishJumpJoinLoop, &ec).expect("compile");
    sc_run(&bin.program, &MachineConfig::default(), &(bench.input_fn)(InputSet::C), true)
}

/// Fingerprint of trace case `i`: what `wishbranch-repro trace` computes
/// (the verified result and its rendered event stream).
fn sc_trace_job(i: usize) -> (String, u64) {
    let (b, variant) = SC_TRACES[i];
    let ec = ExperimentConfig::paper(SC_TRACE_SCALE);
    let bench = &suite(SC_TRACE_SCALE)[b];
    let (result, events) = trace_binary(bench, variant, InputSet::B, &ec).expect("trace");
    let text = format!("{result:?}\n{}", render_trace(&events));
    (format!("trace b{b} {}", variant.label()), fnv1a64(text.as_bytes()))
}

/// Every job of the seeded matrix matches the scalar pipeline's verdict.
#[test]
fn seeded_lane_matrix_matches_scalar_goldens() {
    for i in 0..SC_MATRIX_JOBS {
        let (label, got) = sc_matrix_job(i);
        assert_eq!(got, sc_golden(&label), "{label}: diverged from the scalar pipeline");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property flavor: a randomly sampled matrix job.
    #[test]
    fn sampled_scalar_golden_case_matches(i in 0usize..SC_MATRIX_JOBS) {
        let (label, got) = sc_matrix_job(i);
        prop_assert_eq!(got, sc_golden(&label));
    }
}

/// The I-miss-heavy footprint matches the scalar pipeline under every
/// I-side configuration, and the hierarchy runs really stall on
/// non-blocking I-fills.
#[test]
fn imiss_heavy_jobs_match_scalar_goldens() {
    let program = sc_imiss_program();
    for (label, cfg) in sc_imiss_configs() {
        let mut sim = Simulator::new(&program, cfg.clone());
        let acc = sim.run().expect("halts").stats.cycle_accounting;
        if cfg.mem.realistic {
            assert!(acc.imiss_pending > 0, "{label}: no non-blocking I-fill stalls: {acc:?}");
        } else {
            assert_eq!(acc.imiss_pending, 0, "{label}");
        }
        let got = sc_run(&program, &cfg, &[], false);
        assert_eq!(got, sc_golden(label), "{label}: diverged from the scalar pipeline");
    }
}

/// A short run and one with 100× the work both match the scalar pipeline.
#[test]
fn straggler_jobs_match_scalar_goldens() {
    for (label, got) in sc_straggler_jobs() {
        assert_eq!(got, sc_golden(label), "{label}: diverged from the scalar pipeline");
    }
}

/// The retire log (the lockstep oracle's input) matches the scalar
/// pipeline's record for record.
#[test]
fn retire_log_matches_scalar_golden() {
    assert_eq!(sc_retire_log_job(), sc_golden("retire-log"));
}

/// `wishbranch-repro trace` output matches the scalar pipeline's.
#[test]
fn trace_streams_match_scalar_goldens() {
    for i in 0..SC_TRACES.len() {
        let (label, got) = sc_trace_job(i);
        assert_eq!(got, sc_golden(&label), "{label}: diverged from the scalar pipeline");
    }
}

/// Regeneration helper (ignored): prints the scalar-core golden table.
#[test]
#[ignore = "golden generator, run manually with --nocapture"]
fn regenerate_scalar_core_goldens() {
    let mut rows: Vec<(String, u64)> = (0..SC_MATRIX_JOBS).map(sc_matrix_job).collect();
    let program = sc_imiss_program();
    for (label, cfg) in sc_imiss_configs() {
        rows.push((label.to_string(), sc_run(&program, &cfg, &[], false)));
    }
    rows.extend(sc_straggler_jobs().into_iter().map(|(l, h)| (l.to_string(), h)));
    rows.push(("retire-log".to_string(), sc_retire_log_job()));
    rows.extend((0..SC_TRACES.len()).map(sc_trace_job));
    println!("const SC_GOLDEN: [(&str, u64); {}] = [", rows.len());
    for (label, h) in rows {
        let hex = format!("{h:016x}");
        let groups: Vec<&str> = (0..4).map(|i| &hex[i * 4..i * 4 + 4]).collect();
        println!("    ({label:?}, 0x{}),", groups.join("_"));
    }
    println!("];");
}
