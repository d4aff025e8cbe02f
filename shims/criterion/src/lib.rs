//! Offline stand-in for `criterion`.
//!
//! Measures wall-clock time with warmup and multiple samples and prints a
//! `name: median ns/iter (n samples)` line per benchmark. No plotting, no
//! statistical regression — enough to compare implementations and read off
//! scaling curves.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// A parameterised benchmark label, rendered `function/parameter`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Creates an id combining a function name and a parameter value.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function.into(), parameter),
        }
    }

    /// Creates an id from a parameter value alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    samples: usize,
    /// Median nanoseconds per iteration, recorded by `iter`.
    last_ns: f64,
}

impl Bencher {
    /// Times `f`, recording the median over several samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warmup and batch-size calibration: grow the batch until one batch
        // takes ~1ms so per-iteration timing noise stays small.
        let mut batch = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= Duration::from_millis(1) || batch >= 1 << 20 {
                break;
            }
            batch *= 2;
        }
        let mut samples: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..batch {
                    std::hint::black_box(f());
                }
                t.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        self.last_ns = samples[samples.len() / 2];
    }

    /// Times `routine` over inputs built by `setup` outside the timed
    /// region (for routines that consume their input); outputs are dropped
    /// outside it too.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let mut batch_ns = |batch: u64| {
            let inputs: Vec<I> = (0..batch).map(|_| setup()).collect();
            let t = Instant::now();
            let outputs: Vec<O> = inputs.into_iter().map(&mut routine).collect();
            let elapsed = t.elapsed();
            std::hint::black_box(outputs);
            elapsed
        };
        let mut batch = 1u64;
        while batch_ns(batch) < Duration::from_millis(1) && batch < 1 << 20 {
            batch *= 2;
        }
        let mut samples: Vec<f64> = (0..self.samples)
            .map(|_| batch_ns(batch).as_nanos() as f64 / batch as f64)
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        self.last_ns = samples[samples.len() / 2];
    }
}

/// How many inputs `iter_batched` may hold at once (accepted for API
/// compatibility; the batch is sized by time).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Inputs are small.
    SmallInput,
}

fn run_one(group: Option<&str>, name: &str, samples: usize, f: impl FnOnce(&mut Bencher)) {
    let mut b = Bencher {
        samples,
        last_ns: 0.0,
    };
    f(&mut b);
    let full = match group {
        Some(g) => format!("{g}/{name}"),
        None => name.to_string(),
    };
    println!(
        "{full:<60} {:>14} ns/iter ({} samples)",
        format_ns(b.last_ns),
        samples
    );
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}e9", ns / 1e9)
    } else if ns >= 1e3 {
        let v = ns as u64;
        let s = v.to_string();
        let mut out = String::new();
        for (i, c) in s.chars().enumerate() {
            if i > 0 && (s.len() - i).is_multiple_of(3) {
                out.push('_');
            }
            out.push(c);
        }
        out
    } else {
        format!("{ns:.1}")
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(3);
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let id = id.into();
        run_one(Some(&self.name), &id.label, self.samples, f);
        self
    }

    /// Runs a benchmark with an explicit input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        f: F,
    ) -> &mut Self
    where
        F: FnOnce(&mut Bencher, &I),
    {
        let id = id.into();
        run_one(Some(&self.name), &id.label, self.samples, |b| f(b, input));
        self
    }

    /// Ends the group (no-op; accepted for API compatibility).
    pub fn finish(self) {}
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {
    samples: usize,
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let samples = self.effective_samples();
        BenchmarkGroup {
            name: name.into(),
            samples,
            _parent: self,
        }
    }

    /// Runs an ungrouped benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let samples = self.effective_samples();
        run_one(None, name, samples, f);
        self
    }

    /// Sets the default number of samples.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.samples = n;
        self
    }

    fn effective_samples(&self) -> usize {
        if self.samples == 0 {
            10
        } else {
            self.samples
        }
    }
}

/// Declares a group-runner function invoking each benchmark function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the given groups.
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
    fn bench_api_smoke() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        g.sample_size(3);
        g.bench_function("add", |b| b.iter(|| std::hint::black_box(1u64 + 1)));
        g.bench_with_input(BenchmarkId::new("sum", 10), &10u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();
        c.bench_function("free", |b| b.iter(|| 2 * 2));
    }
}
