//! Radix ablation (DESIGN.md §8.3): the radix-2^k production engine vs the
//! conventional layer-at-a-time radix-2 oracle, at the 64K design point and
//! below, then the engine on one thread vs all cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use he_field::Fp;
use he_ntt::{par, Radix2Plan, Radix2kPlan, N64K};

fn input(n: usize) -> Vec<Fp> {
    (0..n as u64)
        .map(|i| Fp::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect()
}

fn bench_radix(c: &mut Criterion) {
    let mut group = c.benchmark_group("ntt_radix");
    group.sample_size(10);

    for n in [4096usize, N64K] {
        let mut buf = input(n);
        let radix2 = Radix2Plan::new(n).expect("power of two");
        group.bench_function(BenchmarkId::new("radix2", n), |b| {
            b.iter(|| radix2.forward_in_place(&mut buf))
        });
        let radix2k = Radix2kPlan::new(n).expect("power of two");
        group.bench_function(BenchmarkId::new("radix2k", n), |b| {
            b.iter(|| radix2k.forward_in_place(&mut buf))
        });
    }
    group.finish();
}

/// The stage fan-out at the 64K design point: the engine pinned to one
/// thread vs the machine default.
fn bench_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("ntt64k_threads");
    group.sample_size(10);

    let mut buf = input(N64K);
    let plan = Radix2kPlan::new(N64K).expect("power of two");
    par::set_threads(1);
    group.bench_function(BenchmarkId::new("radix2k_1thread", N64K), |b| {
        b.iter(|| plan.forward_in_place(&mut buf))
    });
    par::set_threads(0); // machine default: all cores
    group.bench_function(
        BenchmarkId::new(format!("radix2k_{}threads", par::thread_count()), N64K),
        |b| b.iter(|| plan.forward_in_place(&mut buf)),
    );
    group.finish();
}

criterion_group!(benches, bench_radix, bench_threads);
criterion_main!(benches);
