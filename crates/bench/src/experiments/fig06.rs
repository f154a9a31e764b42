//! Figure 6: normalized KL divergence of the three bit-level pruning
//! techniques (zero-column, rounded averaging, zero-point shifting) on
//! ResNet-34 and ViT-Base at 2 and 4 pruned columns, group size 32.

use crate::{f, print_table, weight_cap, SEED};
use bbs_core::averaging::rounded_averaging;
use bbs_core::shifting::zero_point_shifting;
use bbs_core::zero_col::sign_magnitude_zero_column;
use bbs_models::synth::synthesize_weights_sampled;
use bbs_models::zoo;
use bbs_tensor::metrics::kl_divergence_i8_binned;
use bbs_tensor::quant::QuantTensor;

/// The pruning levels Fig. 6 compares.
const COLUMNS: [usize; 2] = [2, 4];

/// The three techniques' KLs at each pruning level in `columns`, over one
/// synthesis of the model.
pub fn technique_kls(model: &bbs_models::ModelSpec, columns: &[usize]) -> Vec<[f64; 3]> {
    let layers: Vec<QuantTensor> = model
        .layers
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let seed = SEED.wrapping_add(i as u64);
            synthesize_weights_sampled(spec, model.family, seed, weight_cap()).weights
        })
        .collect();
    // Groups never span channels, and a channel need not be a multiple of
    // 32 wide (ResNet-34's first conv), so chunk each channel on its own.
    let groups: Vec<&[i8]> = layers
        .iter()
        .flat_map(|qt| (0..qt.channels()).flat_map(move |c| qt.channel(c).chunks(32)))
        .collect();
    let orig = groups.concat();
    let kl = |kernel: &dyn Fn(&[i8]) -> Vec<i32>| {
        let recon: Vec<i32> = groups.iter().flat_map(|g| kernel(g)).collect();
        kl_divergence_i8_binned(&orig, &recon, 4)
    };
    columns
        .iter()
        .map(|&cols| {
            [
                kl(&|g| sign_magnitude_zero_column(g, cols).decode()),
                kl(&|g| rounded_averaging(g, cols).decode()),
                kl(&|g| zero_point_shifting(g, cols).decode()),
            ]
        })
        .collect()
}

/// Regenerates Fig. 6.
pub fn run() {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for model in [zoo::resnet34(), zoo::vit_base()] {
        let kls = technique_kls(&model, &COLUMNS);
        for (columns, [zc, avg, zps]) in COLUMNS.into_iter().zip(kls) {
            let max = zc.max(avg).max(zps).max(1e-12);
            rows.push(vec![
                model.name.to_string(),
                columns.to_string(),
                format!("{} ({})", f(zc / max, 3), f(zc, 5)),
                format!("{} ({})", f(avg / max, 3), f(avg, 5)),
                format!("{} ({})", f(zps / max, 3), f(zps, 5)),
            ]);
        }
    }
    print_table(
        "Fig. 6 — normalized KL divergence, lower is better (paper: averaging wins at 2 cols, shifting wins at 4, zero-column worst)",
        &["model", "cols", "zero-col norm (raw)", "rounded-avg norm (raw)", "zps norm (raw)"],
        &rows,
    );
}
