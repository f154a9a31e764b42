//! Table I: the evaluated models and the FP32 vs INT8 baseline fidelity.
//!
//! The paper reports ImageNet/GLUE accuracies; our substitution reports the
//! model-shape inventory plus the *measured* FP32 vs INT8 accuracy on the
//! trained substrate (which reproduces the paper's point: per-channel INT8
//! PTQ is accuracy-neutral).

use crate::{f, print_table};
use bbs_models::accuracy::TrainedMlp;
use bbs_models::lm::TrainedLm;
use bbs_models::zoo;

/// Regenerates Table I.
pub fn run() {
    let rows: Vec<Vec<String>> = zoo::paper_benchmarks()
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.family.to_string(),
                m.layers.len().to_string(),
                format!("{}M", f(m.params() as f64 / 1e6, 1)),
                format!("{}G", f(m.macs() as f64 / 1e9, 2)),
            ]
        })
        .collect();
    print_table(
        "Table I — evaluated models (shapes of the real architectures)",
        &["model", "family", "weight layers", "params", "MACs"],
        &rows,
    );

    // INT8 neutrality on the measured substrates.
    let mut fp32 = 0.0;
    let mut int8 = 0.0;
    let seeds = [21u64, 22, 23];
    for &s in &seeds {
        let mlp = TrainedMlp::new(s);
        fp32 += mlp.fp32();
        int8 += mlp.int8();
    }
    let lm = TrainedLm::new(41);
    print_table(
        "Table I (measured) — FP32 vs INT8 baselines (paper: INT8 loss negligible)",
        &["substrate", "FP32", "INT8"],
        &[
            vec![
                "classifier accuracy (3-seed avg)".to_string(),
                f(fp32 / 3.0, 3),
                f(int8 / 3.0, 3),
            ],
            vec![
                "micro-LM perplexity".to_string(),
                f(lm.fp32(), 3),
                f(lm.int8(), 3),
            ],
        ],
    );
}
