//! Criterion benchmarks for the executor data path: a parallel full scan
//! at 1 and 8 workers.
//!
//! The relation is smaller than `bench_executor`'s (the Criterion loop runs
//! each configuration many times); run the `bench_executor` binary for the
//! recorded `BENCH_executor.json` numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use xprs_bench::exec_scan;

fn bench_scan(c: &mut Criterion) {
    let cat = exec_scan::catalog(8_192);
    for workers in [1u32, 8] {
        c.bench_function(&format!("executor_scan/{workers}_workers"), |b| {
            b.iter(|| black_box(exec_scan::run(&cat, workers, 8).emitted))
        });
    }
}

criterion_group!(benches, bench_scan);
criterion_main!(benches);
