//! The `perf-smoke` throughput gate: runs the Fig. 10 sweep at a fixed
//! scale on one worker, writes `BENCH_sim_throughput.json`
//! (`wishbranch.throughput/v1`), and fails if the simulator throughput
//! regressed more than [`MAX_REGRESSION`] against the committed baseline
//! (`crates/bench/perf_baseline.json`).
//!
//! Environment:
//! - `WISHBRANCH_THROUGHPUT_OUT` — where to write the artifact
//!   (default `BENCH_sim_throughput.json` in the working directory);
//! - `WISHBRANCH_PERF_WRITE_BASELINE=1` — overwrite the committed
//!   baseline with this run's numbers instead of gating (run on the
//!   reference machine after an intentional perf change).

use wishbranch_core::{throughput_json, Experiment, ExperimentConfig, SweepRunner};

/// Fixed workload scale: big enough that simulate-phase time dominates
/// process noise, small enough for a smoke job.
const SCALE: i32 = 1000;

/// Allowed throughput loss vs the committed baseline (the ISSUE's 25%).
const MAX_REGRESSION: f64 = 0.25;

/// The committed baseline, resolved relative to this crate so the gate
/// works from any working directory.
fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("perf_baseline.json")
}

/// Extracts a numeric field from one of our flat JSON documents. The
/// writer is ours ([`throughput_json`]), so a string scan is exact.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = &doc[at..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let ec = ExperimentConfig::paper(SCALE);
    let runner = SweepRunner::with_workers(&ec, 1);
    let report = Experiment::Fig10.run(&runner);
    println!("{}", report.render());
    let failures = runner.failures();
    assert!(failures.is_empty(), "perf-smoke jobs failed: {failures:?}");
    let summary = runner.summary();
    let uops = summary.uops_per_sec();
    let doc = throughput_json(&summary);

    let out = std::env::var("WISHBRANCH_THROUGHPUT_OUT")
        .unwrap_or_else(|_| "BENCH_sim_throughput.json".into());
    std::fs::write(&out, format!("{doc}\n")).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!(
        "perf-smoke: {} jobs, {uops:.0} uops/s (simulate {:.2}s) -> {out}",
        summary.jobs,
        summary.simulate_time.as_secs_f64(),
    );

    let baseline = baseline_path();
    if std::env::var("WISHBRANCH_PERF_WRITE_BASELINE").as_deref() == Ok("1") {
        std::fs::write(&baseline, format!("{doc}\n"))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", baseline.display()));
        println!("perf-smoke: baseline rewritten at {}", baseline.display());
        return;
    }
    let base_doc = std::fs::read_to_string(&baseline)
        .unwrap_or_else(|e| panic!("no committed baseline at {}: {e}", baseline.display()));

    let base_rate = json_number(&base_doc, "uops_per_sec")
        .unwrap_or_else(|| panic!("baseline {} has no uops_per_sec", baseline.display()));
    let floor = base_rate * (1.0 - MAX_REGRESSION);
    println!(
        "perf-smoke: baseline {base_rate:.0} uops/s, floor {floor:.0}, measured {uops:.0}"
    );
    assert!(
        uops >= floor,
        "perf-smoke: throughput regressed >{:.0}%: {uops:.0} uops/s vs baseline {base_rate:.0} \
         (floor {floor:.0})",
        MAX_REGRESSION * 100.0
    );
    println!("perf-smoke: PASS");
}
