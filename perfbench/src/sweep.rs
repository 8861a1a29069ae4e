//! The two in-process sweep workloads, `sweep-flat` and `sweep-realistic`.
//!
//! One seeded job list is a *round*: every benchmark × run-time input
//! pair once (27 draws), each paired with a machine point from a balanced
//! seeded assignment, and each draw run as all five Table 3 variants. A
//! timed run repeats the round on a fresh `SweepRunner` (cold profile and
//! compile caches) until `--seconds` have passed and reports medians over
//! rounds. Balancing the draws keeps the mix — and so the host cost per
//! µop — nearly the same from seed to seed, while the seed still decides
//! which input meets which machine.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use wishbranch_compiler::BinaryVariant;
use wishbranch_core::journal::encode_entry;
use wishbranch_core::{
    verify_retired_state, ExperimentConfig, JobError, RunOutcome, SweepJob, SweepRunner, TrainSpec,
};
use wishbranch_isa::LockstepOracle;
use wishbranch_mem::MemConfig;
use wishbranch_uarch::{MachineConfig, SimError, Simulator};
use wishbranch_workloads::{suite, InputSet};

use crate::host::{self, median, percentile, Rng};
use crate::layers::{self, set};
use crate::trace::Recorder;
use crate::RunReport;

/// Machine points: the Fig. 14 window sizes at the default depth and the
/// Fig. 15 depths at a 256-entry window, as `(window, depth)`.
const MACHINE_POINTS: [(usize, u64); 5] = [(128, 30), (256, 30), (512, 30), (256, 10), (256, 20)];

/// Fig. 14-mem main-memory latencies (cycles).
const MEM_LATENCIES: [u64; 4] = [50, 100, 200, 400];

/// Times `workloads.suite_build_s` is sampled in a traced run.
const SUITE_BUILD_SAMPLES: usize = 25;

pub struct Flavor {
    /// `MemConfig::realistic_preset()` machines and the lockstep oracle.
    pub realistic: bool,
    /// Workload scale (outer iterations) of every benchmark.
    pub scale: i32,
}

struct Draw {
    bench: usize,
    input: InputSet,
    machine: MachineConfig,
}

/// The round's draws in benchmark-major order, as the figure sweeps run
/// them. The order is not seeded, so that it is one less seeded factor in
/// which freed memory stays resident (`peak_rss_mb`).
fn draws(flavor: &Flavor, seed: u64, nbench: usize) -> Vec<Draw> {
    let mut rng = Rng::new(seed, 1);
    let pairs: Vec<(usize, InputSet)> = (0..nbench)
        .flat_map(|b| InputSet::ALL.map(|i| (b, i)))
        .collect();
    let points = rng.balanced(pairs.len(), MACHINE_POINTS.len());
    // Host cost on `sweep-realistic` follows the latency a benchmark meets,
    // so every benchmark gets the same three latencies for every seed (all
    // but `MEM_LATENCIES[bench % 4]`); the seed decides which input meets
    // which.
    let latencies: Vec<usize> = (0..nbench)
        .flat_map(|b| {
            let mut l: Vec<usize> = (0..MEM_LATENCIES.len())
                .filter(|&i| i != b % MEM_LATENCIES.len())
                .collect();
            rng.shuffle(&mut l);
            l
        })
        .collect();
    pairs
        .iter()
        .zip(points.iter().zip(&latencies))
        .map(|(&(bench, input), (&p, &l))| {
            let (window, depth) = MACHINE_POINTS[p];
            let mut machine = MachineConfig::default()
                .with_window(window)
                .with_depth(depth);
            if flavor.realistic {
                machine.mem = MemConfig::realistic_preset();
                machine.mem.memory_latency = MEM_LATENCIES[l];
            }
            Draw {
                bench,
                input,
                machine,
            }
        })
        .collect()
}

/// Every draw as five jobs, one per Table 3 variant, in
/// `BinaryVariant::ALL` order (normal branches first, wish-jjl last).
fn job_list(ec: &ExperimentConfig, draws: &[Draw]) -> Vec<SweepJob> {
    draws
        .iter()
        .flat_map(|d| {
            BinaryVariant::ALL.map(|v| {
                SweepJob::standard(d.bench, v, d.input, ec).with_machine(d.machine.clone())
            })
        })
        .collect()
}

const VARIANTS: usize = BinaryVariant::ALL.len();
const WISH_JJL: usize = 4;

/// Mean over draws of wish-jjl cycles ÷ normal-branch cycles (the
/// Fig. 10/12 AVG column); `None` if any job of the round is missing.
fn norm_time(cycles: &[Option<u64>]) -> Option<f64> {
    let mut sum = 0.0;
    for draw in cycles.chunks_exact(VARIANTS) {
        sum += draw[WISH_JJL]? as f64 / draw[0]? as f64;
    }
    Some(sum / (cycles.len() / VARIANTS) as f64)
}

fn new_runner(ec: &ExperimentConfig, flavor: &Flavor) -> SweepRunner {
    let mut runner = SweepRunner::with_workers(ec, 1);
    runner.set_oracle(flavor.realistic);
    runner
}

/// What one round produced.
struct Round {
    wall: Duration,
    cpu_s: f64,
    /// Mean time of `host::reference_kernel`, timed before every draw.
    kernel_s: f64,
    jobs: usize,
    failed: usize,
    uops: u64,
    /// Per draw: seconds from its submission to its first job done and
    /// to its last job done.
    draw_times: Vec<(f64, f64)>,
    digest: u64,
    norm: Option<f64>,
    profile_hit_ratio: f64,
    compile_hit_ratio: f64,
    job_overhead_s: f64,
}

impl Round {
    /// Host seconds of this round to seconds of the reference host: the
    /// kernel's reference time over its time in this round.
    fn to_reference(&self) -> f64 {
        host::REFERENCE_KERNEL_S / self.kernel_s
    }
}

/// Runs one round, submitting the job list one draw (five jobs) at a
/// time: each `try_run` call is one request. Wall and CPU time cover the
/// `try_run` calls only, not the benchmark's own output bookkeeping or the
/// reference kernel timed before each of them.
fn untraced_round(ec: &ExperimentConfig, flavor: &Flavor, seed: u64) -> Round {
    let mut runner = new_runner(ec, flavor);
    let draws = draws(flavor, seed, runner.benches().len());
    let jobs = job_list(ec, &draws);
    let first_done: Arc<Mutex<Option<Instant>>> = Arc::default();
    let sink = Arc::clone(&first_done);
    runner.set_observer(Arc::new(move |_, _| {
        sink.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert_with(Instant::now);
    }));

    let mut entries = host::Entries::new();
    let mut cycles = Vec::with_capacity(jobs.len());
    let (mut failed, mut uops, mut overhead) = (0, 0, Duration::ZERO);
    let (mut wall, mut cpu_s, mut kernel) = (Duration::ZERO, 0.0, Duration::ZERO);
    let mut draw_times = Vec::with_capacity(draws.len());
    for draw in jobs.chunks(VARIANTS) {
        kernel += host::reference_kernel();
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let results = runner.try_run(draw.to_vec());
        let took = t0.elapsed();
        cpu_s += host::cpu_seconds() - cpu0;
        wall += took;
        let first = first_done
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let first = first.map_or(took, |f| f.duration_since(t0));
        draw_times.push((first.as_secs_f64(), took.as_secs_f64()));
        for (job, result) in draw.iter().zip(&results) {
            match result {
                Ok(r) => {
                    let key = runner.job_key(job);
                    entries.insert(key, encode_entry(key, &r.outcome));
                    cycles.push(Some(r.outcome.sim.stats.cycles));
                    uops += r.outcome.sim.stats.retired_uops;
                    let p = &r.phases;
                    overhead += r.wall.saturating_sub(p.acquire + p.simulate + p.verify);
                }
                Err(_) => {
                    failed += 1;
                    cycles.push(None);
                }
            }
        }
    }
    let s = runner.summary();
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    Round {
        wall,
        cpu_s,
        kernel_s: kernel.as_secs_f64() / draws.len() as f64,
        jobs: jobs.len(),
        failed,
        uops,
        draw_times,
        digest: host::digest(&entries),
        norm: norm_time(&cycles),
        profile_hit_ratio: ratio(s.profile_hits, s.profile_misses),
        compile_hit_ratio: ratio(s.compile_hits, s.compile_misses),
        job_overhead_s: overhead.as_secs_f64(),
    }
}

/// What a traced round measured.
struct Traced {
    wall: Duration,
    jobs: usize,
    failed: usize,
    digest: u64,
    outcomes: BTreeMap<u64, RunOutcome>,
    norm: Option<f64>,
    profile_s: f64,
    profile_runs: u64,
    compile_s: f64,
    compiles: u64,
    retire_records: u64,
}

/// Drives the same job list one job at a time through the layers'
/// public functions, recording a span around each call.
fn traced_round(ec: &ExperimentConfig, flavor: &Flavor, seed: u64, rec: &mut Recorder) -> Traced {
    let t0 = Instant::now();
    let round = rec.open("round", None, None);
    let runner = new_runner(ec, flavor);
    let draws = draws(flavor, seed, runner.benches().len());
    let jobs = job_list(ec, &draws);
    let mut out = Traced {
        wall: Duration::ZERO,
        jobs: jobs.len(),
        failed: 0,
        digest: 0,
        outcomes: BTreeMap::new(),
        norm: None,
        profile_s: 0.0,
        profile_runs: 0,
        compile_s: 0.0,
        compiles: 0,
        retire_records: 0,
    };
    let mut cycles = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let span = rec.open("job", Some(round), Some(i));
        let result = traced_job(&runner, job, flavor, rec, span, i, &mut out);
        rec.close(span);
        match result {
            Ok(outcome) => {
                cycles.push(Some(outcome.sim.stats.cycles));
                out.outcomes.insert(runner.job_key(job), outcome);
            }
            Err(_) => {
                out.failed += 1;
                cycles.push(None);
            }
        }
    }
    rec.close(round);
    out.wall = t0.elapsed();
    out.norm = norm_time(&cycles);
    let entries: host::Entries = out
        .outcomes
        .iter()
        .map(|(&key, outcome)| (key, encode_entry(key, outcome)))
        .collect();
    out.digest = host::digest(&entries);
    out
}

fn traced_job(
    runner: &SweepRunner,
    job: &SweepJob,
    flavor: &Flavor,
    rec: &mut Recorder,
    parent: usize,
    i: usize,
    out: &mut Traced,
) -> Result<RunOutcome, JobError> {
    let TrainSpec::Single(train) = job.train else {
        unreachable!("the sweep workloads train on one input");
    };
    let misses = runner.summary().profile_misses;
    let s = rec.open("ir.profile", Some(parent), Some(i));
    runner.profile(job.bench, train)?;
    rec.close(s);
    if runner.summary().profile_misses > misses {
        out.profile_runs += 1;
        out.profile_s += rec.duration_s(s);
    }

    let s = rec.open("compiler.compile", Some(parent), Some(i));
    let (bin, hit) = runner.binary(job)?;
    rec.close(s);
    if !hit {
        out.compiles += 1;
        out.compile_s += rec.duration_s(s);
    }

    let bench = &runner.benches()[job.bench];
    let inputs = (bench.input_fn)(job.input);
    let s = rec.open("uarch.build", Some(parent), Some(i));
    let mut sim = Simulator::new(&bin.program, job.machine.clone());
    for &(a, v) in &inputs {
        sim.preload_mem(a, v);
    }
    if flavor.realistic {
        sim.enable_retire_log();
    }
    rec.close(s);

    let s = rec.open("uarch.run", Some(parent), Some(i));
    let result = sim.run().map_err(|e| match e {
        SimError::CycleLimitExceeded { limit } => JobError::CycleBudgetExceeded { limit },
    });
    rec.close(s);
    let result = result?;

    if flavor.realistic {
        // `lockstep_check` is not exported by wishbranch-core; this is the
        // same replay through the isa layer's public oracle.
        let records = sim.take_retire_log();
        out.retire_records += records.len() as u64;
        let s = rec.open("isa.lockstep", Some(parent), Some(i));
        let mut oracle = LockstepOracle::new(&bin.program);
        for &(a, v) in &inputs {
            oracle.preload_mem(a, v);
        }
        let replay = records
            .iter()
            .try_for_each(|r| oracle.step(r))
            .and_then(|()| {
                oracle.finish(&result.final_regs, &result.final_preds, &result.final_mem)
            });
        rec.close(s);
        replay.map_err(|d| JobError::VerifyDivergence {
            detail: format!("{} {}: lockstep {d}", bench.name, job.input),
        })?;
    }

    let s = rec.open("isa.verify", Some(parent), Some(i));
    let verified = verify_retired_state(&bin.program, bench, job.input, &result);
    rec.close(s);
    verified?;

    Ok(RunOutcome {
        sim: result,
        report: bin.report,
        static_stats: bin.program.static_stats(),
    })
}

pub fn run(
    flavor: &Flavor,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: &Path,
    tag: &str,
) -> RunReport {
    let ec = ExperimentConfig::paper(flavor.scale);
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();

    let setup = host::setup_seconds(|| {
        let t = Instant::now();
        let runner = new_runner(&ec, flavor);
        let jobs = job_list(&ec, &draws(flavor, seed, runner.benches().len()));
        let elapsed = t.elapsed().as_secs_f64();
        std::hint::black_box((runner, jobs));
        Some(elapsed)
    })
    .expect("a sweep set-up cannot fail");

    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut rec = Recorder::new(started);
    loop {
        rounds.push(untraced_round(&ec, flavor, seed));
        if trace {
            let mut t = traced_round(&ec, flavor, seed, &mut rec);
            if !traced.is_empty() {
                // Simulated counts come from the first traced round; later
                // ones only add timings.
                t.outcomes.clear();
            }
            traced.push(t);
        }
        if started.elapsed() >= budget {
            break;
        }
    }

    let mut report = RunReport::default();
    let first = &rounds[0];
    for r in &rounds {
        report.attempted += r.jobs as u64;
        report.failed += r.failed as u64;
        if r.digest != first.digest || r.norm != first.norm {
            report
                .problems
                .push("rounds of one seed disagree on outputs".into());
        }
    }
    for t in &traced {
        report.attempted += t.jobs as u64;
        report.failed += t.failed as u64;
        if t.digest != first.digest || t.norm != first.norm {
            report
                .problems
                .push("traced outputs differ from untraced outputs".into());
        }
    }
    report.digest = first.digest;
    report.norm = first.norm.unwrap_or(f64::NAN);

    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let m = &mut report.metrics;
    if !trace {
        // Every round does the same work, so each timing is the median
        // over rounds of its value in reference-host seconds (see
        // `host::reference_kernel`). Request timings take each draw's
        // median over rounds.
        let wall = med(&|r| r.wall.as_secs_f64() * r.to_reference());
        let per_draw = |pick: fn(&(f64, f64)) -> f64| -> Vec<f64> {
            (0..first.draw_times.len())
                .map(|d| {
                    med(&|r| r.draw_times.get(d).map_or(f64::INFINITY, pick) * r.to_reference())
                })
                .collect()
        };
        eprintln!(
            "perfbench: reference kernel {:.1} us per call (reference {:.1} us); \
             unscaled uops_per_s {:.0}",
            med(&|r| r.kernel_s) * 1e6,
            host::REFERENCE_KERNEL_S * 1e6,
            first.uops as f64 / med(&|r| r.wall.as_secs_f64()),
        );
        let latency = per_draw(|t| t.1);
        set(m, "setup_s", setup);
        set(m, "uops_per_s", first.uops as f64 / wall);
        set(m, "jobs_per_s", first.jobs as f64 / wall);
        set(m, "req_p50_s", percentile(&latency, 50.0));
        set(m, "req_p90_s", percentile(&latency, 90.0));
        set(m, "ttfj_p50_s", percentile(&per_draw(|t| t.0), 50.0));
        set(m, "cpu_s", med(&|r| r.cpu_s * r.to_reference()));
        set(m, "peak_rss_mb", host::peak_rss_mib());
        set(m, "wishjjl_norm_time", report.norm);
        return report;
    }

    let suite_build: Vec<f64> = (0..SUITE_BUILD_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(suite(flavor.scale));
            t.elapsed().as_secs_f64()
        })
        .collect();
    set(m, "workloads.suite_build_s", median(&suite_build));
    let t = &traced[0];
    set(m, "ir.profile_s", t.profile_s);
    set(m, "ir.profile_runs", t.profile_runs as f64);
    set(m, "compiler.compile_s", t.compile_s);
    set(m, "compiler.compiles", t.compiles as f64);
    set(m, "engine.profile_hit_ratio", med(&|r| r.profile_hit_ratio));
    set(m, "engine.compile_hit_ratio", med(&|r| r.compile_hit_ratio));
    set(m, "engine.job_overhead_s", med(&|r| r.job_overhead_s));
    set(m, "host.ref_kernel_us", med(&|r| r.kernel_s) * 1e6);
    let totals = rec.totals();
    let per_round = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s) / traced.len() as f64;
    let stats: Vec<_> = t.outcomes.values().map(|o| &o.sim.stats).collect();
    layers::sim_counts(m, &stats);
    let run_s = per_round("uarch.run");
    set(m, "uarch.build_s", per_round("uarch.build"));
    set(m, "uarch.run_s", run_s);
    set(
        m,
        "uarch.ns_per_sim_cycle",
        run_s * 1e9 / m["uarch.sim_cycles"].max(1.0),
    );
    set(
        m,
        "uarch.ns_per_uop",
        run_s * 1e9 / m["uarch.retired_uops"].max(1.0),
    );
    set(m, "isa.verify_s", per_round("isa.verify"));
    set(m, "isa.lockstep_s", per_round("isa.lockstep"));
    set(m, "isa.retire_records", t.retire_records as f64);
    let scratch = out_dir.join(format!("{tag}-scratch-store"));
    let problems = layers::store_codec(m, &t.outcomes, None, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    report.problems.extend(problems);
    // No store is attached and no server runs on the sweeps.
    for name in [
        "store.hit_ratio",
        "store.misses",
        "serve.accept_s",
        "serve.job_gap_ms",
        "serve.done_tail_ms",
        "serve.respawns",
        "serve.rejected",
    ] {
        set(m, name, 0.0);
    }
    let untraced_wall = med(&|r| r.wall.as_secs_f64());
    let traced_wall = median(
        &traced
            .iter()
            .map(|t| t.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    set(m, "trace.overhead_s", traced_wall - untraced_wall);
    set(
        m,
        "trace.overhead_share",
        (traced_wall - untraced_wall) / untraced_wall,
    );
    if let Err(e) = rec.write(&out_dir.join(format!("{tag}-spans.jsonl"))) {
        report.problems.push(format!("cannot write span file: {e}"));
    }
    report
}
