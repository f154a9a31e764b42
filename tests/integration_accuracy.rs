//! Cross-crate accuracy/fidelity invariants: the paper's compression-
//! quality claims measured end to end.

use bbs::core::prune::PruneStrategy;
use bbs::models::accuracy::{CompressionKind, CompressionMethod, SynthModel, TrainedMlp};
use bbs::models::lm::TrainedLm;
use bbs::models::zoo;

const CAP: usize = 8 * 1024;

#[test]
fn bbs_preserves_distribution_best_at_moderate_compression() {
    let model = SynthModel::new(&zoo::resnet34(), 3, CAP);
    let bbs = model.fidelity(&CompressionMethod::bbs_moderate());
    let bitwave = model.fidelity(&CompressionMethod::bitwave_moderate());
    let ptq = model.fidelity(&CompressionMethod::ptq_moderate());
    assert!(bbs.kl_divergence < bitwave.kl_divergence);
    assert!(bbs.kl_divergence < ptq.kl_divergence);
    assert!(bbs.est_accuracy_loss_pct < bitwave.est_accuracy_loss_pct);
    assert!(bbs.est_accuracy_loss_pct < ptq.est_accuracy_loss_pct);
}

#[test]
fn compression_ratios_near_paper_averages() {
    // Paper: 1.29x conservative, 1.66x moderate (model-size reduction).
    let model = SynthModel::new(&zoo::vit_base(), 3, CAP);
    let cons = model.fidelity(&CompressionMethod::bbs_conservative());
    let moderate = model.fidelity(&CompressionMethod::bbs_moderate());
    assert!(
        (1.1..=1.45).contains(&cons.compression_ratio),
        "cons {}",
        cons.compression_ratio
    );
    assert!(
        (1.4..=1.85).contains(&moderate.compression_ratio),
        "mod {}",
        moderate.compression_ratio
    );
}

#[test]
fn real_trained_model_loss_ordering() {
    // Averaged over seeds: BBS moderate hurts less than matched-footprint
    // PTQ, and conservative is near-lossless — measured, not modelled.
    let mlps = [31u64, 32, 33].map(TrainedMlp::new);
    let avg = |m: &CompressionMethod| -> f64 {
        mlps.iter()
            .map(|mlp| mlp.accuracy(m).loss_vs_int8_pct())
            .sum::<f64>()
            / mlps.len() as f64
    };
    let cons = avg(&CompressionMethod::bbs_conservative());
    let ptq3 = avg(&CompressionMethod::new(CompressionKind::Ptq(3), 0.20));
    let moderate = avg(&CompressionMethod::bbs_moderate());
    assert!(cons < 1.0, "conservative near-lossless: {cons}");
    assert!(moderate < ptq3, "moderate {moderate} vs 3-bit PTQ {ptq3}");
}

#[test]
fn llm_perplexity_ordering_matches_fig17() {
    let olive = CompressionMethod::new(CompressionKind::Olive, 0.0);
    let cons = CompressionMethod::new(
        CompressionKind::Bbs(PruneStrategy::RoundedAveraging, 2),
        0.0,
    );
    let lm = TrainedLm::new(51);
    let p_olive = lm.perplexity(&olive);
    let p_cons = lm.perplexity(&cons);
    assert!(
        p_cons.increase_vs_fp32() < 0.02,
        "conservative BBS ~ lossless: {}",
        p_cons.increase_vs_fp32()
    );
    assert!(
        p_cons.compressed < p_olive.compressed,
        "BBS cons {} vs Olive {}",
        p_cons.compressed,
        p_olive.compressed
    );
}

#[test]
fn fidelity_is_deterministic() {
    // Two independent syntheses, not one shared input.
    let model = zoo::vit_small();
    let a = SynthModel::new(&model, 9, CAP).fidelity(&CompressionMethod::bbs_moderate());
    let b = SynthModel::new(&model, 9, CAP).fidelity(&CompressionMethod::bbs_moderate());
    assert_eq!(a, b, "same seed must reproduce bit-identically");
}
