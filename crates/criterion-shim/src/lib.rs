//! # criterion-shim
//!
//! A dependency-free, offline stand-in for the subset of the `criterion`
//! API this workspace uses: [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`BatchSize`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurements are simple wall-clock means (warmup + fixed sample count)
//! printed in a `name ... time: [mean]` line. Good enough to spot
//! order-of-magnitude regressions; not a statistical harness. Sample
//! count can be reduced for CI smoke runs with `CRITERION_SHIM_SAMPLES`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// How batched inputs are grouped; accepted and ignored (every iteration
/// gets a fresh setup value, as with `PerIteration`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

fn samples(default: usize) -> usize {
    std::env::var("CRITERION_SHIM_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(default)
}

/// Runs closures and reports their mean wall-clock time.
pub struct Bencher {
    sample_count: usize,
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    /// Times `f`, called `sample_count` times after one warmup call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        std::hint::black_box(f());
        let t0 = Instant::now();
        for _ in 0..self.sample_count {
            std::hint::black_box(f());
        }
        self.elapsed = t0.elapsed();
        self.iters = self.sample_count as u64;
    }

    /// Times `routine` over fresh `setup()` inputs; setup time excluded.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        std::hint::black_box(routine(setup()));
        let mut total = Duration::ZERO;
        for _ in 0..self.sample_count {
            let input = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(input));
            total += t0.elapsed();
        }
        self.elapsed = total;
        self.iters = self.sample_count as u64;
    }
}

fn report(name: &str, b: &Bencher) {
    if b.iters == 0 {
        println!("{name:<40} time: [no measurement]");
        return;
    }
    let mean = b.elapsed.as_secs_f64() / b.iters as f64;
    let (value, unit) = if mean < 1e-6 {
        (mean * 1e9, "ns")
    } else if mean < 1e-3 {
        (mean * 1e6, "µs")
    } else if mean < 1.0 {
        (mean * 1e3, "ms")
    } else {
        (mean, "s")
    };
    println!("{name:<40} time: [{value:.2} {unit}/iter over {} iters]", b.iters);
}

/// The top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Runs one benchmark and prints its mean time.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            sample_count: samples(10),
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        report(name, &b);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            sample_size: samples(10),
        }
    }
}

/// A group of related benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-benchmark sample count.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = samples(n);
        self
    }

    /// Runs one benchmark in the group and prints its mean time.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            sample_count: self.sample_size,
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        report(&format!("{}/{name}", self.name), &b);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a function running the listed benchmark targets in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the listed [`criterion_group!`] functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default();
        let mut calls = 0u32;
        c.bench_function("noop", |b| b.iter(|| calls += 1));
        assert!(calls > 0, "closure actually ran");
    }

    #[test]
    fn groups_measure_iter_batched_benchmarks() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        let mut total = 0u64;
        g.sample_size(5).bench_function("sum", |b| {
            b.iter_batched(|| 7u64, |x| total += x, BatchSize::SmallInput)
        });
        g.finish();
        assert!(total >= 7 * 5, "5 measured + 1 warmup batches: {total}");
    }
}
