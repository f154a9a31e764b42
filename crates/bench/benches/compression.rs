//! Criterion benchmarks of the BBS compression kernels: the costs an
//! end user pays at model-preparation time (the paper reports ~15 s for
//! all of ResNet-50 on a GPU; these are the single-group CPU numbers).

use bbs_core::averaging::{rounded_averaging, rounded_averaging_scalar};
use bbs_core::encoding::CompressedGroup;
use bbs_core::prune::BinaryPruner;
use bbs_core::shifting::{zero_point_shifting, zero_point_shifting_scalar};
use bbs_core::zero_col::{sign_magnitude_zero_column, sign_magnitude_zero_column_scalar};
use bbs_tensor::lanes::Backend;
use bbs_tensor::quant::{channel_scale_with, ScaleMethod};
use bbs_tensor::rng::SeededRng;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn group32(seed: u64) -> Vec<i8> {
    let mut rng = SeededRng::new(seed);
    (0..32).map(|_| rng.gaussian_i8(0.0, 30.0)).collect()
}

fn bench_kernels(c: &mut Criterion) {
    let g = group32(1);
    c.bench_function("rounded_averaging/32x2col", |b| {
        b.iter(|| rounded_averaging(black_box(&g), 2))
    });
    c.bench_function("zero_point_shifting/32x4col", |b| {
        b.iter(|| zero_point_shifting(black_box(&g), 4))
    });
    c.bench_function("zero_column/32x3col", |b| {
        b.iter(|| sign_magnitude_zero_column(black_box(&g), 3))
    });
    c.bench_function("lossless_encode_decode/32", |b| {
        b.iter(|| CompressedGroup::lossless(black_box(&g)).decode())
    });
    // PTQ's clip-scale search: one 32-weight channel, 32 candidate scales.
    let channel = channel32(&g);
    let active = Backend::active();
    c.bench_function("quant/mse_grid_32x32", |b| {
        b.iter(|| channel_scale_with(active, black_box(&channel), 4, ScaleMethod::MseGrid(32)))
    });
}

/// A 32-weight group as the f32 channel PTQ's scale search reads.
fn channel32(g: &[i8]) -> Vec<f32> {
    g.iter().map(|&w| w as f32).collect()
}

fn bench_scalar_oracles(c: &mut Criterion) {
    // The per-weight reference implementations the packed kernels are
    // property-tested against — benchmarked so the packed speedup stays
    // visible in every baseline file.
    let g = group32(1);
    c.bench_function("scalar_oracle/rounded_averaging/32x2col", |b| {
        b.iter(|| rounded_averaging_scalar(black_box(&g), 2))
    });
    c.bench_function("scalar_oracle/zero_point_shifting/32x4col", |b| {
        b.iter(|| zero_point_shifting_scalar(black_box(&g), 4))
    });
    c.bench_function("scalar_oracle/zero_column/32x3col", |b| {
        b.iter(|| sign_magnitude_zero_column_scalar(black_box(&g), 3))
    });
    let channel = channel32(&g);
    c.bench_function("scalar_oracle/quant/mse_grid_32x32", |b| {
        b.iter(|| {
            channel_scale_with(
                Backend::Scalar,
                black_box(&channel),
                4,
                ScaleMethod::MseGrid(32),
            )
        })
    });
}

fn bench_channel(c: &mut Criterion) {
    let mut rng = SeededRng::new(2);
    let channel: Vec<i8> = (0..4096).map(|_| rng.gaussian_i8(0.0, 30.0)).collect();
    c.bench_function("moderate_channel/4096", |b| {
        b.iter(|| BinaryPruner::moderate().compress_channel(black_box(&channel), 32))
    });
    c.bench_function("conservative_channel/4096", |b| {
        b.iter(|| BinaryPruner::conservative().compress_channel(black_box(&channel), 32))
    });
}

criterion_group!(benches, bench_kernels, bench_scalar_oracles, bench_channel);
criterion_main!(benches);
