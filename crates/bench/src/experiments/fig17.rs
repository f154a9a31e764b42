//! Figure 17: LLM weight compression — BBS vs Olive on Llama-3-8B.
//!
//! Two legs: *real* perplexity on the trained micro language model (two
//! synthetic corpora standing in for Wikitext and C4), and weight-space
//! fidelity on Llama-3-8B-shaped tensors.

use crate::{f, print_table, weight_cap, SEED};
use bbs_core::prune::PruneStrategy;
use bbs_models::accuracy::{CompressionKind, CompressionMethod, SynthModel};
use bbs_models::lm::{llama_subset, TrainedLm};

/// The Fig. 17 method set (β = 0: all channels compressed, §V-H).
pub fn methods() -> Vec<(&'static str, CompressionMethod)> {
    vec![
        ("INT8", CompressionMethod::int8_baseline()),
        (
            "Olive-4b",
            CompressionMethod::new(CompressionKind::Olive, 0.0),
        ),
        (
            "BBS (cons, 6.25b)",
            CompressionMethod::new(
                CompressionKind::Bbs(PruneStrategy::RoundedAveraging, 2),
                0.0,
            ),
        ),
        (
            "BBS (mod, 4.25b)",
            CompressionMethod::new(
                CompressionKind::Bbs(PruneStrategy::ZeroPointShifting, 4),
                0.0,
            ),
        ),
    ]
}

/// Regenerates Fig. 17.
pub fn run() {
    // Leg 1: real perplexity on the micro LM, two corpora. Each seed's LM
    // is trained once and measured under every method; only one is alive
    // at a time.
    let corpora = [("wikitext-like", 41u64), ("c4-like", 71u64)];
    let methods = methods();
    let mut fp32 = [0.0f64; 2];
    let mut comp = vec![[0.0f64; 2]; methods.len()];
    for (ci, &(_, corpus_seed)) in corpora.iter().enumerate() {
        for s in 0..3u64 {
            let lm = TrainedLm::new(corpus_seed + s);
            fp32[ci] += lm.fp32();
            for (mi, (_, method)) in methods.iter().enumerate() {
                comp[mi][ci] += lm.perplexity(method).compressed;
            }
        }
    }
    let rows: Vec<Vec<String>> = methods
        .iter()
        .zip(&comp)
        .map(|((name, _), comp)| {
            let mut row = vec![name.to_string()];
            row.extend(
                comp.iter()
                    .zip(&fp32)
                    .map(|(c, p)| format!("{} (fp32 {})", f(c / 3.0, 3), f(p / 3.0, 3))),
            );
            row
        })
        .collect();
    print_table(
        "Fig. 17 (measured) — micro-LM perplexity after weight compression, 3-seed average (paper: BBS-mod beats Olive at similar footprint; BBS-cons ~ lossless)",
        &["method", "wikitext-like ppl", "c4-like ppl"],
        &rows,
    );

    // Leg 2: Llama-3-8B-shaped fidelity (first 4 decoder blocks sampled).
    let llama = SynthModel::new(&llama_subset(4), SEED, weight_cap());
    let rows: Vec<Vec<String>> = methods
        .iter()
        .skip(1) // INT8 baseline is exact by construction
        .map(|(name, method)| {
            let fit = llama.fidelity(method);
            vec![
                name.to_string(),
                f(fit.effective_bits, 2),
                format!("{:.2e}", fit.kl_divergence),
                f(fit.mse, 2),
                f(fit.output_sqnr_db, 1),
            ]
        })
        .collect();
    print_table(
        "Fig. 17 (fidelity) — Llama-3-8B-shaped weight fidelity (paper effective bits: Olive 4, BBS cons 6.25, BBS mod 4.25)",
        &["method", "eff bits", "KL", "MSE", "out SQNR dB"],
        &rows,
    );
}
