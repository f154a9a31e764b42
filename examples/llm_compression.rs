//! LLM weight compression (the paper's §V-H): BBS vs Olive on
//! Llama-3-8B-shaped tensors, plus *measured* perplexity on the trained
//! micro language model.
//!
//! ```sh
//! cargo run --release --example llm_compression
//! ```

use bbs::core::prune::PruneStrategy;
use bbs::models::accuracy::{CompressionKind, CompressionMethod, SynthModel};
use bbs::models::lm::{llama_subset, TrainedLm};

fn main() {
    let methods = [
        (
            "Olive-4b",
            CompressionMethod::new(CompressionKind::Olive, 0.0),
        ),
        (
            "BBS cons (6.25b)",
            CompressionMethod::new(
                CompressionKind::Bbs(PruneStrategy::RoundedAveraging, 2),
                0.0,
            ),
        ),
        (
            "BBS mod (4.25b)",
            CompressionMethod::new(
                CompressionKind::Bbs(PruneStrategy::ZeroPointShifting, 4),
                0.0,
            ),
        ),
    ];

    println!("micro-LM perplexity (measured, lower is better):");
    let lm = TrainedLm::new(41);
    for (name, method) in &methods {
        let p = lm.perplexity(method);
        println!(
            "  {:<17} ppl {:.3} (fp32 {:.3}, +{:.2}%)",
            name,
            p.compressed,
            p.fp32,
            100.0 * p.increase_vs_fp32()
        );
    }

    println!("\nLlama-3-8B-shaped weight fidelity (first 4 decoder blocks, sampled):");
    let llama = SynthModel::new(&llama_subset(4), 7, 64 * 1024);
    for (name, method) in &methods {
        let f = llama.fidelity(method);
        println!(
            "  {:<17} {:.2} bits/weight, KL {:.2e}, output SQNR {:.1} dB",
            name, f.effective_bits, f.kl_divergence, f.output_sqnr_db
        );
    }
}
