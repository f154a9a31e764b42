//! Table III: BBS vs Microscaling vs NoisyQuant on vision transformers —
//! accuracy loss and effective weight bit width.

use crate::{f, print_table, weight_cap, SEED};
use bbs_models::accuracy::{CompressionKind, CompressionMethod, SynthModel};
use bbs_models::zoo;

/// Regenerates Table III.
pub fn run() {
    let methods: Vec<(&str, CompressionMethod)> = vec![
        (
            "Microscaling",
            CompressionMethod::new(CompressionKind::Microscaling(6), 0.0),
        ),
        (
            "NoisyQuant",
            CompressionMethod::new(CompressionKind::NoisyQuant(6), 0.0),
        ),
        ("BBS (cons)", CompressionMethod::bbs_conservative()),
        ("BBS (mod)", CompressionMethod::bbs_moderate()),
    ];
    let mut rows: Vec<Vec<String>> = methods
        .iter()
        .map(|(name, _)| vec![name.to_string()])
        .collect();
    // One model synthesized at a time, measured under every method.
    for model in [zoo::vit_small(), zoo::vit_base()] {
        let synth = SynthModel::new(&model, SEED, weight_cap());
        for (row, (_, method)) in rows.iter_mut().zip(&methods) {
            let fit = synth.fidelity(method);
            row.push(format!(
                "{}% ({} bits)",
                f(fit.est_accuracy_loss_pct, 2),
                f(fit.effective_bits, 2)
            ));
        }
    }
    rows.push(vec![
        "paper".to_string(),
        "MX 2.49/NQ 2.08/BBS 0.75-0.96%".to_string(),
        "MX 0.33/NQ 0.64/BBS 0.05-0.39%".to_string(),
    ]);
    print_table(
        "Table III — PTQ works vs BBS on vision transformers: estimated accuracy loss (effective bits)",
        &["method", "ViT-Small", "ViT-Base"],
        &rows,
    );
}
