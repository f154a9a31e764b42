//! The PTQ clip-scale search over the whole model zoo: every channel of
//! every zoo model, synthesized as the repro does, picks the same
//! `MseGrid(32)` scale, bit for bit, under every compiled lane backend.

use bbs_bench::SEED;
use bbs_models::synth::synthesize_weights_sampled;
use bbs_models::{zoo, LayerSpec, ModelSpec};
use bbs_tensor::lanes::Backend;
use bbs_tensor::quant::{channel_scale_with, ScaleMethod};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The repro's golden weight cap.
const CAP: usize = 256;

/// Checks one layer's channels; returns how many there were.
fn check_layer(model: &ModelSpec, i: usize, spec: &LayerSpec, wide: &[Backend]) -> usize {
    let method = ScaleMethod::MseGrid(32);
    let seed = SEED.wrapping_add(i as u64);
    let qt = synthesize_weights_sampled(spec, model.family, seed, CAP).weights;
    for c in 0..qt.channels() {
        let channel: Vec<f32> = qt.channel(c).iter().map(|&w| w as f32).collect();
        // The PTQ bit widths figs. 11 and 16 and Table III use.
        for bits in [4u8, 5, 6] {
            let want = channel_scale_with(Backend::Scalar, &channel, bits, method);
            for &backend in wide {
                let got = channel_scale_with(backend, &channel, bits, method);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} layer {i} channel {c} bits {bits} {backend:?}",
                    model.name
                );
            }
        }
    }
    qt.channels()
}

#[test]
fn every_zoo_channel_picks_the_same_scale_on_every_backend() {
    let wide: Vec<Backend> = Backend::available()
        .into_iter()
        .filter(|&b| b != Backend::Scalar)
        .collect();
    let models = zoo::all();
    let layers: Vec<(&ModelSpec, usize, &LayerSpec)> = models
        .iter()
        .flat_map(|m| m.layers.iter().enumerate().map(move |(i, l)| (m, i, l)))
        .collect();
    // Layers differ in size by orders of magnitude, so workers pull them
    // one at a time rather than taking fixed shares.
    let next = AtomicUsize::new(0);
    let checked = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                while let Some(&(model, i, spec)) = layers.get(next.fetch_add(1, Ordering::Relaxed))
                {
                    checked.fetch_add(check_layer(model, i, spec, &wide), Ordering::Relaxed);
                }
            });
        }
    });
    let checked = checked.into_inner();
    assert!(checked > 400_000, "only {checked} channels checked");
}
