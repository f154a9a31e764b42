//! JSON serialization of simulation inputs and outputs, plus the stable
//! request hash that keys the `bbs-serve` content-addressed result cache.
//!
//! Round-trip guarantees:
//!
//! * every integer field (cycle/traffic counters) is exact — counters stay
//!   far below 2^53 and `bbs_json` asserts that;
//! * every `f64` field (fractions, energies) is written in shortest
//!   round-trip form, so decode(encode(x)) reproduces `x` bit-for-bit and a
//!   decoded [`SimResult`] is `==` to the original.

use crate::accel::LayerPerf;
use crate::config::ArrayConfig;
use crate::engine::{LayerSim, SimResult};
use crate::sweep::SweepSpec;
use bbs_hw::json::{
    dram_from_json, dram_to_json, energy_breakdown_from_json, energy_breakdown_to_json,
    sram_from_json, sram_to_json, technology_from_json, technology_to_json,
};
use bbs_json::{field, field_arr, field_f64, field_str, field_u64, field_usize, Fnv1a, Json};
use bbs_models::json::{model_spec_canonical, model_spec_from_json, model_spec_to_json};
use bbs_models::{zoo, ModelSpec};

/// Encodes an [`ArrayConfig`].
pub fn array_config_to_json(c: &ArrayConfig) -> Json {
    Json::obj(vec![
        ("pe_rows", Json::from_usize(c.pe_rows)),
        ("pe_cols", Json::from_usize(c.pe_cols)),
        ("lanes_per_pe", Json::from_usize(c.lanes_per_pe)),
        ("tech", technology_to_json(&c.tech)),
        ("weight_buffer", sram_to_json(&c.weight_buffer)),
        ("act_buffer", sram_to_json(&c.act_buffer)),
        ("dram", dram_to_json(&c.dram)),
    ])
}

/// Decodes an [`ArrayConfig`], validating the geometry is non-degenerate.
pub fn array_config_from_json(v: &Json) -> Result<ArrayConfig, String> {
    let cfg = ArrayConfig {
        pe_rows: field_usize(v, "pe_rows")?,
        pe_cols: field_usize(v, "pe_cols")?,
        lanes_per_pe: field_usize(v, "lanes_per_pe")?,
        tech: technology_from_json(field(v, "tech")?)?,
        weight_buffer: sram_from_json(field(v, "weight_buffer")?)?,
        act_buffer: sram_from_json(field(v, "act_buffer")?)?,
        dram: dram_from_json(field(v, "dram")?)?,
    };
    const MAX_GEOM: usize = 1 << 20;
    for (what, dim) in [
        ("pe_rows", cfg.pe_rows),
        ("pe_cols", cfg.pe_cols),
        ("lanes_per_pe", cfg.lanes_per_pe),
    ] {
        if dim == 0 || dim > MAX_GEOM {
            return Err(format!("array config: {what} out of range"));
        }
    }
    if !cfg.tech.freq_mhz.is_finite() || cfg.tech.freq_mhz <= 0.0 {
        return Err("array config: freq_mhz must be positive".to_string());
    }
    Ok(cfg)
}

/// Encodes a [`LayerPerf`].
pub fn layer_perf_to_json(p: &LayerPerf) -> Json {
    Json::obj(vec![
        ("compute_cycles", Json::from_u64(p.compute_cycles)),
        ("useful_fraction", Json::Num(p.useful_fraction)),
        ("intra_fraction", Json::Num(p.intra_fraction)),
        ("inter_fraction", Json::Num(p.inter_fraction)),
        ("weight_dram_bits", Json::from_u64(p.weight_dram_bits)),
        ("act_dram_bits", Json::from_u64(p.act_dram_bits)),
        ("weight_sram_bits", Json::from_u64(p.weight_sram_bits)),
        ("act_sram_bits", Json::from_u64(p.act_sram_bits)),
    ])
}

/// Decodes a [`LayerPerf`].
pub fn layer_perf_from_json(v: &Json) -> Result<LayerPerf, String> {
    Ok(LayerPerf {
        compute_cycles: field_u64(v, "compute_cycles")?,
        useful_fraction: field_f64(v, "useful_fraction")?,
        intra_fraction: field_f64(v, "intra_fraction")?,
        inter_fraction: field_f64(v, "inter_fraction")?,
        weight_dram_bits: field_u64(v, "weight_dram_bits")?,
        act_dram_bits: field_u64(v, "act_dram_bits")?,
        weight_sram_bits: field_u64(v, "weight_sram_bits")?,
        act_sram_bits: field_u64(v, "act_sram_bits")?,
    })
}

/// Encodes a [`LayerSim`].
pub fn layer_sim_to_json(l: &LayerSim) -> Json {
    Json::obj(vec![
        ("name", Json::str(&l.name)),
        ("compute_cycles", Json::from_u64(l.compute_cycles)),
        ("memory_cycles", Json::from_u64(l.memory_cycles)),
        ("total_cycles", Json::from_u64(l.total_cycles)),
        ("perf", layer_perf_to_json(&l.perf)),
        ("energy", energy_breakdown_to_json(&l.energy)),
    ])
}

/// Decodes a [`LayerSim`].
pub fn layer_sim_from_json(v: &Json) -> Result<LayerSim, String> {
    Ok(LayerSim {
        name: field_str(v, "name")?.to_string(),
        compute_cycles: field_u64(v, "compute_cycles")?,
        memory_cycles: field_u64(v, "memory_cycles")?,
        total_cycles: field_u64(v, "total_cycles")?,
        perf: layer_perf_from_json(field(v, "perf")?)?,
        energy: energy_breakdown_from_json(field(v, "energy")?)?,
    })
}

/// Encodes a [`SimResult`] with all per-layer records.
pub fn sim_result_to_json(r: &SimResult) -> Json {
    Json::obj(vec![
        ("accelerator", Json::str(&r.accelerator)),
        ("model", Json::str(&r.model)),
        (
            "layers",
            Json::Arr(r.layers.iter().map(layer_sim_to_json).collect()),
        ),
    ])
}

/// Decodes a [`SimResult`].
pub fn sim_result_from_json(v: &Json) -> Result<SimResult, String> {
    Ok(SimResult {
        accelerator: field_str(v, "accelerator")?.to_string(),
        model: field_str(v, "model")?.to_string(),
        layers: field_arr(v, "layers")?
            .iter()
            .map(layer_sim_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

/// The content address of one simulation request: a stable 64-bit FNV-1a
/// hash over the canonical (key-sorted, compact) JSON of the *full* model
/// spec, accelerator name, array configuration and BBS sampling parameters.
///
/// Two requests hash equal iff every quantity the simulation depends on is
/// equal, so a cache hit may be served without re-running the engine.
///
/// The hashed bytes are exactly `Json::canonical` of the object with keys
/// `accelerator`, `config`, `max_weights_per_layer`, `model` and `seed`,
/// streamed in that (sorted) order: the small fields are canonicalized
/// here, while the model bytes come from [`model_spec_canonical`], which
/// memoizes them for zoo models. The cost is one pass of FNV over the
/// model bytes, not a re-encoding of its layer table.
pub fn sim_request_key(
    model: &ModelSpec,
    accelerator: &str,
    cfg: &ArrayConfig,
    seed: u64,
    max_weights_per_layer: usize,
) -> u64 {
    let head = Json::obj(vec![
        ("accelerator", Json::str(accelerator)),
        ("config", array_config_to_json(cfg)),
        (
            "max_weights_per_layer",
            Json::from_usize(max_weights_per_layer),
        ),
    ])
    .canonical();
    let mut h = Fnv1a::new();
    // The head's closing brace is replaced by the remaining two fields.
    h.write(&head.as_bytes()[..head.len() - 1]);
    h.write(b",\"model\":");
    h.write(model_spec_canonical(model).as_bytes());
    h.write(b",\"seed\":");
    h.write(Json::from_u64(seed).to_string().as_bytes());
    h.write(b"}");
    h.finish()
}

/// Encodes a [`SweepSpec`] as the `/sweep` wire grid: models carry their
/// full layer tables (so the encoding is self-contained and two grids
/// naming the same model with different layers serialize differently),
/// the other axes are plain arrays.
pub fn sweep_spec_to_json(s: &SweepSpec) -> Json {
    Json::obj(vec![
        (
            "models",
            Json::Arr(s.models.iter().map(model_spec_to_json).collect()),
        ),
        (
            "accelerators",
            Json::Arr(s.accelerators.iter().map(|a| Json::str(a)).collect()),
        ),
        (
            "configs",
            Json::Arr(s.configs.iter().map(array_config_to_json).collect()),
        ),
        (
            "seeds",
            Json::Arr(s.seeds.iter().map(|&v| Json::from_u64(v)).collect()),
        ),
        (
            "max_weights_per_layer",
            Json::Arr(s.caps.iter().map(|&v| Json::from_usize(v)).collect()),
        ),
    ])
}

/// Decodes a [`SweepSpec`]. Model entries may be zoo names or full
/// model-spec objects; `configs`, `seeds` and `max_weights_per_layer`
/// are optional (defaulting to the paper 16×32 array, seed 7 and cap
/// 4096). This is the *strict* decoder — any invalid axis entry fails
/// the whole spec. `bbs-serve` decodes the same schema leniently so an
/// unknown model mid-grid degrades to per-cell error records instead.
pub fn sweep_spec_from_json(v: &Json) -> Result<SweepSpec, String> {
    let models = field_arr(v, "models")?
        .iter()
        .map(|entry| match entry {
            Json::Str(name) => zoo::by_name(name).ok_or_else(|| format!("unknown model '{name}'")),
            spec @ Json::Obj(_) => model_spec_from_json(spec),
            _ => Err("model entries must be names or model-spec objects".to_string()),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let accelerators = field_arr(v, "accelerators")?
        .iter()
        .map(|a| {
            a.as_str()
                .map(str::to_string)
                .ok_or_else(|| "accelerator entries must be strings".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let configs = match v.get("configs") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(array_config_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err("'configs' must be an array".to_string()),
        None => vec![ArrayConfig::paper_16x32()],
    };
    let seeds = match v.get("seeds") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|s| {
                s.as_u64()
                    .ok_or_else(|| "seeds must be non-negative integers".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err("'seeds' must be an array".to_string()),
        None => vec![7],
    };
    let caps = match v.get("max_weights_per_layer") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|c| {
                c.as_usize()
                    .filter(|&c| c > 0)
                    .ok_or_else(|| "max_weights_per_layer must be positive integers".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err("'max_weights_per_layer' must be an array".to_string()),
        None => vec![4096],
    };
    let spec = SweepSpec {
        models,
        accelerators,
        configs,
        seeds,
        caps,
    };
    if spec.cell_count().is_none() {
        return Err("sweep grid is empty (every axis needs at least one entry)".to_string());
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::bitvert::BitVert;
    use crate::engine::simulate;

    #[test]
    fn sim_result_roundtrips_bit_identical() {
        let cfg = ArrayConfig::paper_16x32();
        let model = zoo::vit_small();
        let r = simulate(&BitVert::moderate(), &model, &cfg, 7, 512);
        let text = sim_result_to_json(&r).to_string();
        let back = sim_result_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        // And re-encoding is textually stable.
        assert_eq!(sim_result_to_json(&back).to_string(), text);
    }

    #[test]
    fn array_config_roundtrips() {
        let cfg = ArrayConfig::paper_16x32().with_pe_cols(8);
        let back = array_config_from_json(&array_config_to_json(&cfg)).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn non_finite_config_numbers_rejected() {
        // "1e999" parses to f64::INFINITY; it must not reach the engine
        // (inf energies would serialize as null and break round trips).
        let text = array_config_to_json(&ArrayConfig::paper_16x32())
            .to_string()
            .replace("\"ge_leakage_mw\":0.00006", "\"ge_leakage_mw\":1e999");
        assert!(text.contains("1e999"), "replacement must hit: {text}");
        let err = array_config_from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("finite"), "{err}");
    }

    #[test]
    fn degenerate_config_rejected() {
        let mut v = array_config_to_json(&ArrayConfig::paper_16x32());
        if let Json::Obj(pairs) = &mut v {
            pairs[0].1 = Json::from_u64(0);
        }
        assert!(array_config_from_json(&v).is_err());
    }

    #[test]
    fn sweep_spec_roundtrips_and_accepts_names() {
        let spec = SweepSpec::grid(
            vec![zoo::vit_small(), zoo::resnet34()],
            vec!["stripes".to_string(), "bitwave".to_string()],
            ArrayConfig::paper_16x32().with_pe_cols(8),
            11,
            512,
        );
        let text = sweep_spec_to_json(&spec).to_string();
        let back = sweep_spec_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);

        // Name entries resolve to the same grid as full spec objects, so
        // both forms produce identical cell keys.
        let by_name = sweep_spec_from_json(
            &Json::parse(
                "{\"models\":[\"ViT-Small\",\"ResNet-34\"],\
                 \"accelerators\":[\"stripes\",\"bitwave\"]}",
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(by_name.models, spec.models);
        assert_eq!(by_name.configs, vec![ArrayConfig::paper_16x32()]);
        assert_eq!(
            (by_name.seeds.as_slice(), by_name.caps.as_slice()),
            (&[7u64][..], &[4096usize][..],)
        );
    }

    #[test]
    fn bad_sweep_specs_rejected() {
        for (body, needle) in [
            ("{}", "models"),
            ("{\"models\":[\"ViT-Small\"]}", "accelerators"),
            (
                "{\"models\":[\"NoSuch\"],\"accelerators\":[\"ant\"]}",
                "unknown model",
            ),
            ("{\"models\":[],\"accelerators\":[\"ant\"]}", "empty"),
            (
                "{\"models\":[\"VGG-16\"],\"accelerators\":[\"ant\"],\"seeds\":[-1]}",
                "seeds",
            ),
            (
                "{\"models\":[\"VGG-16\"],\"accelerators\":[\"ant\"],\
                 \"max_weights_per_layer\":[0]}",
                "max_weights_per_layer",
            ),
        ] {
            let err = sweep_spec_from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn request_key_is_stable_and_discriminating() {
        let cfg = ArrayConfig::paper_16x32();
        let model = zoo::resnet34();
        let k = sim_request_key(&model, "bitvert-moderate", &cfg, 7, 4096);
        assert_eq!(
            k,
            sim_request_key(&model, "bitvert-moderate", &cfg, 7, 4096)
        );
        assert_ne!(k, sim_request_key(&model, "stripes", &cfg, 7, 4096));
        assert_ne!(
            k,
            sim_request_key(&model, "bitvert-moderate", &cfg, 8, 4096)
        );
        assert_ne!(
            k,
            sim_request_key(&model, "bitvert-moderate", &cfg, 7, 2048)
        );
        let narrow = cfg.clone().with_pe_cols(8);
        assert_ne!(
            k,
            sim_request_key(&model, "bitvert-moderate", &narrow, 7, 4096)
        );
        let other = zoo::resnet50();
        assert_ne!(
            k,
            sim_request_key(&other, "bitvert-moderate", &cfg, 7, 4096)
        );
    }

    /// Keys address disk-tier records, place cells on shards and name
    /// sweep cells, so their values must never move. These were recorded
    /// before keys were streamed over memoized model bytes.
    #[test]
    fn request_keys_match_recorded_vectors() {
        let cfg = ArrayConfig::paper_16x32();
        let model = |name| zoo::by_name(name).unwrap();
        let mut vit_head = model("ViT-Small");
        vit_head.layers.truncate(2);
        for (m, accelerator, cfg, seed, cap, want) in [
            (
                model("ResNet-34"),
                "bitvert-moderate",
                cfg.clone(),
                7,
                4096,
                0x7aa6_b788_9bea_32ac,
            ),
            (
                model("Llama-3-8B"),
                "stripes",
                cfg.clone(),
                3,
                256,
                0xf4f6_42ee_14ee_157f,
            ),
            (
                model("Bert-SST2"),
                "bitlet",
                cfg.clone().with_pe_cols(8),
                bbs_json::MAX_SAFE_INT - 1,
                65536,
                0xa718_7042_7ee1_6bc4,
            ),
            (
                vit_head,
                "stripes",
                cfg.clone(),
                7,
                128,
                0xf3b7_424c_7e24_fa93,
            ),
        ] {
            assert_eq!(
                sim_request_key(&m, accelerator, &cfg, seed, cap),
                want,
                "{} / {accelerator}",
                m.name
            );
        }
    }
}
