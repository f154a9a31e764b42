//! Figure 11: accuracy impact of PTQ vs BitWave vs BBS under conservative
//! and moderate compression.
//!
//! Two legs, per the substitution documented in DESIGN.md:
//! 1. estimated accuracy loss from weight/output fidelity on the paper's
//!    seven model shapes,
//! 2. *real measured* accuracy on the trained-MLP substrate (averaged over
//!    seeds).

use crate::{f, print_table, weight_cap, SEED};
use bbs_models::accuracy::{CompressionMethod, SynthModel, TrainedMlp};
use bbs_models::zoo;

/// The Fig. 11 method set at one compression level.
fn methods(moderate: bool) -> Vec<(&'static str, CompressionMethod)> {
    if moderate {
        vec![
            ("PTQ", CompressionMethod::ptq_moderate()),
            ("BitWave", CompressionMethod::bitwave_moderate()),
            ("BBS", CompressionMethod::bbs_moderate()),
        ]
    } else {
        vec![
            ("PTQ", CompressionMethod::ptq_conservative()),
            ("BitWave", CompressionMethod::bitwave_conservative()),
            ("BBS", CompressionMethod::bbs_conservative()),
        ]
    }
}

/// Regenerates Fig. 11.
pub fn run() {
    // Leg 1: estimated accuracy loss on the paper's model shapes. Each
    // model is synthesized once and measured under both levels' methods.
    let levels = [
        ("conservative", methods(false)),
        ("moderate", methods(true)),
    ];
    let models = zoo::paper_benchmarks();
    let mut rows = [Vec::new(), Vec::new()];
    let mut ratio_sum = [[0.0f64; 3]; 2];
    for model in &models {
        let synth = SynthModel::new(model, SEED, weight_cap());
        for (li, (_, level_methods)) in levels.iter().enumerate() {
            let mut row = vec![model.name.to_string()];
            for (i, (_, method)) in level_methods.iter().enumerate() {
                let fit = synth.fidelity(method);
                ratio_sum[li][i] += fit.compression_ratio;
                row.push(format!(
                    "{}% ({}x)",
                    f(fit.est_accuracy_loss_pct, 2),
                    f(fit.compression_ratio, 2)
                ));
            }
            rows[li].push(row);
        }
    }
    for (((level, _), mut rows), ratio_sum) in levels.iter().zip(rows).zip(ratio_sum) {
        rows.push(vec![
            "mean ratio".to_string(),
            format!("{}x", f(ratio_sum[0] / models.len() as f64, 2)),
            format!("{}x", f(ratio_sum[1] / models.len() as f64, 2)),
            format!("{}x", f(ratio_sum[2] / models.len() as f64, 2)),
        ]);
        print_table(
            &format!(
                "Fig. 11 ({level}) — estimated accuracy loss (paper: BBS lowest; avg 0.25% cons / 0.45% mod at 1.29x / 1.66x)"
            ),
            &["model", "PTQ", "BitWave", "BBS"],
            &rows,
        );
    }

    // Leg 2: real measured accuracy on the trained substrate. Each seed's
    // MLP is trained once and measured under every method.
    let seeds = [21u64, 22, 23, 24, 25];
    let methods = [
        ("PTQ (cons)", CompressionMethod::ptq_conservative()),
        ("BitWave (cons)", CompressionMethod::bitwave_conservative()),
        ("BBS (cons)", CompressionMethod::bbs_conservative()),
        ("PTQ (mod)", CompressionMethod::ptq_moderate()),
        ("BitWave (mod)", CompressionMethod::bitwave_moderate()),
        ("BBS (mod)", CompressionMethod::bbs_moderate()),
    ];
    let mut loss = [0.0f64; 6];
    let mut fp32 = 0.0;
    for &s in &seeds {
        let mlp = TrainedMlp::new(s);
        fp32 += mlp.fp32();
        for (i, (_, method)) in methods.iter().enumerate() {
            loss[i] += mlp.accuracy(method).loss_vs_int8_pct();
        }
    }
    let rows: Vec<Vec<String>> = methods
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            vec![
                name.to_string(),
                format!("{}%", f(loss[i] / seeds.len() as f64, 2)),
                f(fp32 / seeds.len() as f64, 3),
            ]
        })
        .collect();
    print_table(
        "Fig. 11 (measured) — real accuracy loss vs INT8 on the trained-MLP substrate, 5-seed average",
        &["method", "Δacc", "fp32 ref"],
        &rows,
    );
}
