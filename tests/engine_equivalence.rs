//! The sweep engine's determinism contract: results from the parallel
//! worker pool are bit-identical to the serial profile→compile→simulate
//! spine, in submission order, regardless of worker count or job order.

use proptest::prelude::*;
use wishbranch_compiler::BinaryVariant;
use wishbranch_core::{run_binary, Experiment, ExperimentConfig, ReportData, SweepJob, SweepRunner};
use wishbranch_workloads::{suite, InputSet};

/// The reduced sweep the equivalence tests run: two benchmarks (the first
/// and last of the suite — a loop-light and a loop-heavy workload) × every
/// Table 3 variant × all three input sets.
fn reduced_jobs(ec: &ExperimentConfig, nbench: usize) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for b in [0, nbench - 1] {
        for variant in BinaryVariant::ALL {
            for input in InputSet::ALL {
                jobs.push(SweepJob::standard(b, variant, input, ec));
            }
        }
    }
    jobs
}

#[test]
fn parallel_results_are_bit_identical_to_serial() {
    let ec = ExperimentConfig::quick(40);
    let benches = suite(ec.scale);
    let jobs = reduced_jobs(&ec, benches.len());

    let parallel = SweepRunner::with_workers(&ec, 4)
        .run(jobs.clone())
        .expect("fault-free parallel sweep");
    let serial = SweepRunner::with_workers(&ec, 1)
        .run(jobs.clone())
        .expect("fault-free serial sweep");
    assert_eq!(parallel.len(), serial.len());

    for (i, (p, job)) in parallel.iter().zip(&jobs).enumerate() {
        // Against the 1-worker engine: the whole SimResult, bit for bit.
        let s = &serial[i];
        assert_eq!(
            p.outcome.sim, s.outcome.sim,
            "job {i}: parallel and serial SimResult diverge"
        );
        assert_eq!(p.outcome.report, s.outcome.report, "job {i}: report diverges");

        // Against the original cache-free serial spine: stats and final
        // memory image.
        let reference =
            run_binary(&benches[job.bench], job.variant, job.input, &ec).expect("serial spine");
        assert_eq!(
            p.outcome.sim.stats, reference.sim.stats,
            "job {i}: engine stats diverge from the uncached serial spine"
        );
        assert_eq!(
            p.outcome.sim.final_mem, reference.sim.final_mem,
            "job {i}: engine final memory diverges from the uncached serial spine"
        );
    }
}

/// How much real concurrency this machine gives 4 spinning threads.
/// Containers often report `available_parallelism() == 1` while still
/// scheduling threads on several cores (or the inverse), so the speedup
/// assertion calibrates against actual behavior instead of the advertised
/// core count.
fn measured_parallelism() -> f64 {
    use std::time::Instant;
    fn spin(n: u64) -> u64 {
        let mut x = 1u64;
        for i in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        x
    }
    const N: u64 = 40_000_000;
    std::hint::black_box(spin(N)); // warmup
    let t0 = Instant::now();
    std::hint::black_box(spin(N));
    let serial = t0.elapsed();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| std::hint::black_box(spin(N)));
        }
    });
    let par = t0.elapsed();
    4.0 * serial.as_secs_f64() / par.as_secs_f64()
}

#[test]
fn quick_scale_figure_sweep_parallel_speedup_and_cache_hits() {
    let ec = ExperimentConfig::quick(60);
    let runner = SweepRunner::with_workers(&ec, 4);
    let fig = match Experiment::Fig12.run(&runner).data {
        ReportData::Figure(fig) => fig,
        other => panic!("Fig12 did not return a figure: {other:?}"),
    };
    assert!(fig.rows.iter().any(|r| r.name == "AVG"));

    let summary = runner.summary();
    assert!(
        summary.compile_hits > 0,
        "figure 12 reuses binaries across its perfect-confidence series: {summary:?}"
    );
    assert_eq!(summary.jobs, 9 * 6, "9 benchmarks × (1 baseline + 5 series)");

    let hardware = measured_parallelism();
    if hardware >= 2.5 {
        assert!(
            summary.parallel_speedup() >= 2.0,
            "4 workers on hardware with {hardware:.1}x measured parallelism \
             should give >= 2x speedup, got {:.2}x ({summary:?})",
            summary.parallel_speedup()
        );
    } else {
        eprintln!(
            "note: only {hardware:.1}x measured hardware parallelism; \
             skipping the >= 2x speedup assertion (got {:.2}x)",
            summary.parallel_speedup()
        );
    }
}

/// Key facts about a job, for comparing orderings.
fn job_key(j: &SweepJob) -> (usize, &'static str, &'static str) {
    (j.bench, j.variant.label(), j.input.label())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any permutation of the job list comes back in exactly the permuted
    /// submission order, with each result attached to its own job.
    #[test]
    fn randomized_job_order_returns_submission_order(seed in any::<u64>()) {
        let ec = ExperimentConfig::quick(25);
        let benches = suite(ec.scale);
        let mut jobs = reduced_jobs(&ec, benches.len());

        // Fisher-Yates with a splitmix64 stream seeded by the proptest case.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..jobs.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            jobs.swap(i, j);
        }

        let expect: Vec<_> = jobs.iter().map(job_key).collect();
        let results = SweepRunner::with_workers(&ec, 4).run(jobs).expect("fault-free sweep");
        let got: Vec<_> = results.iter().map(|r| job_key(&r.job)).collect();
        prop_assert_eq!(got, expect);
    }
}

/// Lockstep-oracle mode only adds checking: every job's `SimResult` is
/// the one a plain sweep computes, on the flat and the non-blocking
/// memory model alike.
#[test]
fn oracle_mode_sweep_matches_plain_sweep() {
    let ec = ExperimentConfig::quick(30);
    let mut realistic = ec.machine.clone();
    realistic.mem.realistic = true;
    let mut jobs = Vec::new();
    for input in InputSet::ALL {
        let job = SweepJob::standard(1, BinaryVariant::WishJumpJoinLoop, input, &ec);
        jobs.push(job.clone().with_machine(realistic.clone()));
        jobs.push(job);
    }

    let plain = SweepRunner::with_workers(&ec, 1)
        .run(jobs.clone())
        .expect("plain sweep");
    let mut oracle_runner = SweepRunner::with_workers(&ec, 1);
    oracle_runner.set_oracle(true);
    let checked = oracle_runner.run(jobs).expect("oracle sweep");

    for (i, (p, c)) in plain.iter().zip(&checked).enumerate() {
        assert_eq!(p.outcome.sim, c.outcome.sim, "job {i}: oracle mode changed the result");
    }
    assert_eq!(oracle_runner.summary().failed, 0);
}
