//! Steadiness self-check: runs every workload repeatedly, each run with
//! its own seed, and reports each end-to-end metric's median and
//! quartiles. Fails when a metric's spread — (Q3 − Q1) ÷ median, with
//! quartiles as Python's `statistics.quantiles(values, n=4)` gives them —
//! exceeds the bound `BENCHMARK.json` fixes for it, or when any run is
//! incorrect.
//!
//! ```text
//! perfbench --selfcheck [--runs N] [--seconds S] [--workloads W,W] [--seed-base N]
//! ```
//!
//! Defaults: 10 runs of `run_seconds` each on every workload, seeds from 1.
//! Run it from the repository root, where `BENCHMARK.json` lives.

use std::collections::BTreeMap;
use std::process::Command;

use wishbranch_core::minijson::JsonValue;

use crate::host::{median, quartiles};
use crate::WORKLOADS;

/// `run_seconds` and the end-to-end bounds from `BENCHMARK.json`.
fn benchmark_json() -> Result<(u64, Vec<(String, f64)>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let seconds = doc
        .get("run_seconds")
        .and_then(JsonValue::as_u64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let bounds = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let bound = m.get("bound").and_then(JsonValue::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "end_to_end entry without name or bound".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok((seconds, bounds))
}

/// Runs one workload once; returns its metric values.
fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = JsonValue::parse(last)
        .map_err(|e| format!("{workload} seed {seed}: bad result line: {e}"))?;
    if !out.status.success() || doc.get("correct").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!(
            "{workload} seed {seed}: incorrect run ({})\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let JsonValue::Obj(metrics) = doc.get("metrics").ok_or("result has no metrics")? else {
        return Err("metrics is not an object".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

pub fn main(args: &[String]) -> i32 {
    let (mut runs, mut seconds, mut seed_base) = (10u64, None, 1u64);
    let mut workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("perfbench --selfcheck: {flag} needs a value");
            return 2;
        };
        let num = value.parse::<u64>();
        match (flag.as_str(), num) {
            ("--runs", Ok(n)) if n >= 2 => runs = n,
            ("--seconds", Ok(n)) if n >= 1 => seconds = Some(n),
            ("--seed-base", Ok(n)) => seed_base = n,
            ("--workloads", _) => workloads = value.split(',').map(str::to_string).collect(),
            _ => {
                eprintln!("perfbench --selfcheck: bad {flag} {value:?}");
                return 2;
            }
        }
    }
    let (run_seconds, bounds) = match benchmark_json() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench --selfcheck: {e}");
            return 2;
        }
    };
    let seconds = seconds.unwrap_or(run_seconds);
    let mut ok = true;
    for workload in &workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for k in 0..runs {
            match run_once(workload, seed_base + k, seconds) {
                Ok(metrics) => {
                    // One line per run, in run order, so a reader can see
                    // whether slow runs come in a block (a host episode).
                    let line: Vec<String> = metrics
                        .iter()
                        .map(|(n, v)| format!("{n}={v:.4e}"))
                        .collect();
                    eprintln!("{workload} seed {}: {}", seed_base + k, line.join(" "));
                    for (name, v) in metrics {
                        values.entry(name).or_default().push(v);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        println!(
            "{workload}: {runs} runs of {seconds} s, seeds {seed_base}..{}",
            seed_base + runs - 1
        );
        println!(
            "  {:<20} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for (name, bound) in &bounds {
            let Some(v) = values.get(name).filter(|v| v.len() >= 2) else {
                println!("  {name:<20} missing");
                ok = false;
                continue;
            };
            let [q1, q2, q3] = quartiles(v);
            let spread = (q3 - q1) / median(v).abs();
            let pass = spread <= *bound;
            ok &= pass;
            let verdict = if !pass {
                "TOO NOISY"
            } else if spread <= bound / 3.0 {
                "ok"
            } else {
                "ok (above a third of the bound)"
            };
            println!(
                "  {name:<20} {q1:>14.6e} {q2:>14.6e} {q3:>14.6e} {spread:>8.4} {bound:>6}  {verdict}"
            );
        }
    }
    i32::from(!ok)
}
