//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//! perfbench --selfcheck [--runs N] [--seconds S] [--workloads W,W] [--seed-base N]
//! ```
//!
//! Workloads are `sweep-flat`, `sweep-realistic` and `serve-store` (see
//! `perfbench/NOTES.md`). A timed run (`--trace 0`) prints every
//! end-to-end metric; a traced run (`--trace 1`) prints every per-layer
//! metric and writes its spans to `.bench_out/`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Any failed job, request or output check makes the run incorrect and
//! the exit code 1.

mod host;
mod layers;
mod selfcheck;
mod serve;
mod sweep;
mod trace;

use std::path::Path;

use layers::Metrics;

pub const WORKLOADS: [&str; 3] = ["sweep-flat", "sweep-realistic", "serve-store"];

/// End-to-end metrics and their units, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("uops_per_s", "uops/s"),
    ("jobs_per_s", "jobs/s"),
    ("req_p50_s", "s"),
    ("req_p90_s", "s"),
    ("ttfj_p50_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("wishjjl_norm_time", "ratio"),
];

const CAUSES: [&str; 13] = [
    "useful_retire",
    "guard_false_retire",
    "select_uop_retire",
    "exec_wait",
    "rob_stall",
    "flush_recovery",
    "fetch_imiss",
    "fetch_redirect",
    "frontend_fill",
    "mshr_full",
    "miss_pending",
    "imiss_pending",
    "writebuf_full",
];

/// Per-layer metrics and their units, in output order; the
/// `uarch.cyc.<cause>` shares are appended after `uarch.retire_fetch_ratio`.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.suite_build_s", "s"),
    ("ir.profile_s", "s"),
    ("ir.profile_runs", "count"),
    ("compiler.compile_s", "s"),
    ("compiler.compiles", "count"),
    ("engine.profile_hit_ratio", "ratio"),
    ("engine.compile_hit_ratio", "ratio"),
    ("engine.job_overhead_s", "s"),
    ("uarch.build_s", "s"),
    ("uarch.run_s", "s"),
    ("uarch.ns_per_sim_cycle", "ns"),
    ("uarch.ns_per_uop", "ns"),
    ("uarch.sim_cycles", "count"),
    ("uarch.retired_uops", "count"),
    ("uarch.fetched_uops", "count"),
    ("uarch.squashed_uops", "count"),
    ("uarch.retire_fetch_ratio", "ratio"),
    ("bpred.cond_branches", "count"),
    ("bpred.mispredicts", "count"),
    ("bpred.accuracy", "ratio"),
    ("bpred.flushes", "count"),
    ("bpred.flushes_avoided", "count"),
    ("bpred.wish_high_conf_share", "ratio"),
    ("bpred.wish_low_conf_correct_share", "ratio"),
    ("mem.icache_misses", "count"),
    ("mem.l1d_accesses", "count"),
    ("mem.l1d_misses", "count"),
    ("mem.l2_misses", "count"),
    ("mem.mshr_full_stalls", "count"),
    ("mem.port_conflict_stalls", "count"),
    ("mem.writebuf_full_stalls", "count"),
    ("mem.store_forwards", "count"),
    ("mem.load_replays", "count"),
    ("mem.wrong_path_fills", "count"),
    ("isa.verify_s", "s"),
    ("isa.lockstep_s", "s"),
    ("isa.retire_records", "count"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.entry_bytes", "B"),
    ("store.hit_ratio", "ratio"),
    ("store.misses", "count"),
    ("journal.encode_us", "us"),
    ("journal.decode_us", "us"),
    ("serve.accept_s", "s"),
    ("serve.job_gap_ms", "ms"),
    ("serve.done_tail_ms", "ms"),
    ("serve.respawns", "count"),
    ("serve.rejected", "count"),
    ("host.ref_kernel_us", "us"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// Workload scale of the sweeps: a round of 135 jobs takes a few
/// seconds, so a run holds several rounds.
const SWEEP_SCALE: i32 = 120;

/// Committed outputs for the default and held-out seeds, one line each:
/// `<workload> <seed> <digest> <wishjjl_norm_time>`.
const EXPECTED: &str = include_str!("../expected.txt");

/// What a workload run measured and checked.
#[derive(Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// FNV-1a-64 over the run's journal entry lines sorted by job key.
    pub digest: u64,
    pub norm: f64,
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: match trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn expected(workload: &str, seed: u64) -> Option<(u64, f64)> {
    EXPECTED.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [w, s, d, n] if *w == workload && s.parse() == Ok(seed) => Some((
                u64::from_str_radix(d.trim_start_matches("0x"), 16).ok()?,
                n.parse().ok()?,
            )),
            _ => None,
        }
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--worker") => std::process::exit(wishbranch_core::worker_main()),
        Some("--serve-child") => std::process::exit(serve::child_main(&args[1..])),
        Some("--selfcheck") => std::process::exit(selfcheck::main(&args[1..])),
        _ => {}
    }
    let opts = parse(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\nusage: perfbench --workload W --seed N --seconds S --trace 0|1");
        std::process::exit(2);
    });
    let out_dir = Path::new(".bench_out");
    let tag = format!(
        "{}-seed{}-trace{}-{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        std::process::id()
    );
    let mut report = match opts.workload.as_str() {
        "sweep-flat" | "sweep-realistic" => {
            let flavor = sweep::Flavor {
                realistic: opts.workload == "sweep-realistic",
                scale: SWEEP_SCALE,
            };
            sweep::run(&flavor, opts.seed, opts.seconds, opts.trace, out_dir, &tag)
        }
        _ => serve::run(opts.seed, opts.seconds, opts.trace, out_dir, &tag),
    };

    eprintln!(
        "perfbench: {} seed {} digest {:#018x} wishjjl_norm_time {}",
        opts.workload, opts.seed, report.digest, report.norm
    );
    report.attempted += 1;
    if let Some((digest, norm)) = expected(&opts.workload, opts.seed) {
        if digest != report.digest || norm.to_bits() != report.norm.to_bits() {
            report.problems.push(format!(
                "outputs differ from expected.txt: digest {:#018x} (want {digest:#018x}), \
                 wishjjl_norm_time {} (want {norm})",
                report.digest, report.norm
            ));
        }
    }
    let names = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for &(name, unit) in names {
        metrics.push((
            name.to_string(),
            report.metrics.get(name).copied().unwrap_or(f64::NAN),
            unit,
        ));
        if name == "uarch.retire_fetch_ratio" {
            for cause in CAUSES {
                let name = format!("uarch.cyc.{cause}");
                let value = report.metrics.get(&name).copied().unwrap_or(f64::NAN);
                metrics.push((name, value, "ratio"));
            }
        }
    }
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            report
                .problems
                .push(format!("metric {name} was not measured"));
        }
    }
    report.failed += report.problems.len() as u64;
    for p in &report.problems {
        eprintln!("perfbench: FAILED CHECK: {p}");
    }
    for (name, value, unit) in &metrics {
        eprintln!("perfbench: {name:40} {value:>18} {unit}");
    }
    eprintln!(
        "perfbench: failed_share {} ({} of {} attempted)",
        report.failed as f64 / report.attempted as f64,
        report.failed,
        report.attempted
    );
    let correct = report.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        body.join(",")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
