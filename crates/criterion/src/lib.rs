//! A vendored, dependency-free stand-in for the `criterion` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace ships this minimal implementation of the criterion API subset
//! its benches use: [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::sample_size`],
//! [`Bencher::iter`], [`black_box`] and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! Timing model: each benchmark is warmed up briefly, then timed over
//! `sample_size` samples of auto-scaled iteration batches; the median,
//! minimum and maximum per-iteration times are printed to stdout. There are
//! no plots, no statistics beyond the above, and no baseline comparisons —
//! enough to track hot-path regressions by eye or by diffing output.
//!
//! `cargo bench -- --test` mirrors real criterion's test mode: every
//! benchmark routine runs exactly once with no warmup or sampling, so CI can
//! smoke-check that benches still compile and execute without paying for a
//! measurement.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Default number of timed samples per benchmark.
const DEFAULT_SAMPLE_SIZE: usize = 40;

/// Target wall time for the whole sampling phase of one benchmark.
const TARGET_SAMPLING: Duration = Duration::from_millis(600);

/// Warmup budget before sampling starts.
const WARMUP: Duration = Duration::from_millis(150);

/// The benchmark driver handed to `criterion_group!` functions.
pub struct Criterion {
    filter: Option<String>,
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench -- <filter>` passes the filter as a free argument;
        // `-- --test` selects test mode; ignore other harness flags we do
        // not implement.
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && a != "--bench");
        let test_mode = std::env::args().skip(1).any(|a| a == "--test");
        Criterion { filter, test_mode }
    }
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.run(name, DEFAULT_SAMPLE_SIZE, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: DEFAULT_SAMPLE_SIZE,
        }
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, name: &str, sample_size: usize, mut f: F) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            sample_size,
            test_mode: self.test_mode,
            samples: Vec::new(),
        };
        f(&mut bencher);
        if self.test_mode {
            println!("{name:<44} ok (test mode)");
        } else {
            bencher.report(name);
        }
    }
}

/// A group of benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for subsequent benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<S: Into<String>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into());
        let sample_size = self.sample_size;
        self.criterion.run(&full, sample_size, f);
        self
    }

    /// Finishes the group (no-op; provided for API compatibility).
    pub fn finish(self) {}
}

/// Times closures passed to [`Bencher::iter`].
pub struct Bencher {
    sample_size: usize,
    test_mode: bool,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Measures `routine`, auto-scaling iterations per sample so short
    /// routines are timed above clock resolution.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        if self.test_mode {
            // Smoke-run the routine once; no warmup, no sampling.
            black_box(routine());
            return;
        }
        // Warm up and estimate a single-iteration cost.
        let warm_start = Instant::now();
        let mut iters_done: u32 = 0;
        while warm_start.elapsed() < WARMUP || iters_done == 0 {
            black_box(routine());
            iters_done += 1;
            if iters_done >= 1_000_000 {
                break;
            }
        }
        let per_iter = warm_start.elapsed() / iters_done.max(1);
        let per_sample = TARGET_SAMPLING / self.sample_size.max(1) as u32;
        let iters = if per_iter.is_zero() {
            1_000
        } else {
            (per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u32
        };
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.samples.push(start.elapsed() / iters);
        }
    }

    fn report(&self, name: &str) {
        if self.samples.is_empty() {
            println!("{name:<44} (no measurement)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        let min = sorted[0];
        let max = sorted[sorted.len() - 1];
        println!(
            "{name:<44} median {}  (min {}, max {}, {} samples)",
            fmt_duration(median),
            fmt_duration(min),
            fmt_duration(max),
            sorted.len()
        );
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench entry point, mirroring criterion's macro.
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
    fn bench_function_times_and_reports() {
        let mut c = Criterion {
            filter: None,
            test_mode: false,
        };
        let mut ran = false;
        c.bench_function("shim/self_test", |b| {
            b.iter(|| black_box(3u64).wrapping_mul(7));
            ran = true;
        });
        assert!(ran);
    }

    #[test]
    fn groups_respect_sample_size_and_filter() {
        let mut c = Criterion {
            filter: Some("matches".into()),
            test_mode: false,
        };
        let mut matched = false;
        let mut skipped = false;
        {
            let mut g = c.benchmark_group("shim");
            g.sample_size(5);
            g.bench_function("matches", |b| {
                b.iter(|| 1 + 1);
                matched = true;
            });
            g.bench_function("other", |_b| {
                skipped = true;
            });
            g.finish();
        }
        assert!(matched && !skipped);
    }

    #[test]
    fn test_mode_runs_each_routine_exactly_once() {
        let mut c = Criterion {
            filter: None,
            test_mode: true,
        };
        let mut calls = 0u32;
        c.bench_function("shim/test_mode", |b| {
            b.iter(|| calls += 1);
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert!(fmt_duration(Duration::from_micros(5)).ends_with("us"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(5)).ends_with("s"));
    }
}
