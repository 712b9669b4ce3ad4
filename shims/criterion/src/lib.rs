//! Offline stand-in for the `criterion` crate.
//!
//! Implements the subset of criterion's API that `benches/primitives.rs`
//! uses: groups, `bench_function`, `bench_with_input`, `BenchmarkId`,
//! `iter`, and the `criterion_group!`/`criterion_main!` macros. Instead of
//! criterion's statistical machinery it warms up, runs timed batches for
//! roughly the configured measurement time, and prints the best observed
//! ns/iter — enough to compare the storage-manager primitives against each
//! other. Swap the workspace dependency back to the real crate when network
//! access is available.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a benchmarked computation.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        Self { name: name.into() }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        Self { name }
    }
}

#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 20,
            measurement_time: Duration::from_millis(500),
            warm_up_time: Duration::from_millis(100),
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    pub fn warm_up_time(mut self, t: Duration) -> Self {
        self.warm_up_time = t;
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group {name}");
        BenchmarkGroup {
            criterion: self,
            name,
        }
    }

    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        run_one(self, None, &id.name, &mut f);
        self
    }
}

pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        run_one(self.criterion, Some(&self.name), &id.name, &mut f);
        self
    }

    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let id = id.into();
        run_one(self.criterion, Some(&self.name), &id.name, &mut |b| {
            f(b, input)
        });
        self
    }

    pub fn finish(self) {}
}

fn run_one(config: &Criterion, group: Option<&str>, name: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut bencher = Bencher {
        mode: Mode::WarmUp {
            until: Instant::now() + config.warm_up_time,
        },
        best_ns_per_iter: f64::INFINITY,
        sample_time: config.measurement_time.div_f64(config.sample_size as f64),
    };
    f(&mut bencher);
    for _ in 0..config.sample_size {
        bencher.mode = Mode::Sample;
        f(&mut bencher);
    }
    let label = match group {
        Some(g) => format!("{g}/{name}"),
        None => name.to_string(),
    };
    println!("  {label:<50} {:>12.1} ns/iter", bencher.best_ns_per_iter);
}

enum Mode {
    WarmUp { until: Instant },
    Sample,
}

pub struct Bencher {
    mode: Mode,
    best_ns_per_iter: f64,
    sample_time: Duration,
}

impl Bencher {
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        match self.mode {
            Mode::WarmUp { until } => {
                while Instant::now() < until {
                    black_box(routine());
                }
            }
            Mode::Sample => {
                // Time batches of doubling size until one batch fills the
                // per-sample budget; score with the best batch.
                let mut iters: u64 = 1;
                let mut elapsed;
                loop {
                    let start = Instant::now();
                    for _ in 0..iters {
                        black_box(routine());
                    }
                    elapsed = start.elapsed();
                    if elapsed >= self.sample_time || iters >= u64::MAX / 2 {
                        break;
                    }
                    iters *= 2;
                }
                let ns = elapsed.as_nanos() as f64 / iters as f64;
                if ns < self.best_ns_per_iter {
                    self.best_ns_per_iter = ns;
                }
            }
        }
    }
}

/// Mirrors criterion's two `criterion_group!` forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
