//! Property tests for the simulator: the functional BitVert datapath is
//! exact for every encodable group, the scheduling machinery respects its
//! invariants, the flat-profile scheduler is bit-identical to the retained
//! nested reference, store-cached lowering is bit-identical to fresh
//! lowering, request keys equal the tree-canonical oracle, and
//! `Json::validate` accepts exactly what `Json::parse` accepts.

use bbs_core::averaging::rounded_averaging;
use bbs_core::shifting::zero_point_shifting;
use bbs_json::{fnv1a_64, Json, MAX_SAFE_INT};
use bbs_models::json::model_spec_to_json;
use bbs_models::{zoo, ModelSpec};
use bbs_sim::accel::bitvert::BitVert;
use bbs_sim::accel::reference::{wave_schedule_nested, NestedProfile};
use bbs_sim::accel::stripes::Stripes;
use bbs_sim::accel::{wave_schedule_with, LatencyProfile, SyncGranularity};
use bbs_sim::bitvert_func::pe::group_dot;
use bbs_sim::bitvert_func::scheduler::subgroup_partial_sum;
use bbs_sim::json::{array_config_to_json, sim_request_key, sim_result_to_json};
use bbs_sim::store::WorkloadStore;
use bbs_sim::workload::lower_model;
use bbs_sim::{simulate, ArrayConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Request keys as first defined: the whole request built as one JSON
/// tree, every object re-sorted through a `BTreeMap` of cloned values,
/// serialized and hashed in one piece. The production key streams the
/// same bytes from parts and must equal this on every input.
fn oracle_request_key(
    model: &ModelSpec,
    accelerator: &str,
    cfg: &ArrayConfig,
    seed: u64,
    cap: usize,
) -> u64 {
    fn sort(v: &Json) -> Json {
        match v {
            Json::Obj(pairs) => {
                let sorted: BTreeMap<String, Json> =
                    pairs.iter().map(|(k, v)| (k.clone(), sort(v))).collect();
                Json::Obj(sorted.into_iter().collect())
            }
            Json::Arr(items) => Json::Arr(items.iter().map(sort).collect()),
            other => other.clone(),
        }
    }
    let tree = Json::obj(vec![
        ("model", model_spec_to_json(model)),
        ("accelerator", Json::str(accelerator)),
        ("config", array_config_to_json(cfg)),
        ("seed", Json::from_u64(seed)),
        ("max_weights_per_layer", Json::from_usize(cap)),
    ]);
    fnv1a_64(sort(&tree).to_string().as_bytes())
}

/// Accelerator names, including ones that need escaping.
const KEY_ACCELERATORS: [&str; 4] = ["stripes", "bitlet", "bitvert-moderate", "quo\"te\\é"];
/// Layer names a custom table may carry: quotes, backslashes, non-ASCII,
/// control characters and the empty string.
const KEY_LAYER_NAMES: [&str; 5] = ["q\"k\"v", "back\\slash", "café é", "tab\tnl\n\u{1}", ""];

proptest! {
    #[test]
    fn functional_pe_exact_for_any_group_and_target(
        w in vec(any::<i8>(), 32..=32),
        a in vec(-128i32..=127, 32..=32),
        target in 0usize..=6,
        use_shifting in any::<bool>(),
    ) {
        let enc = if use_shifting {
            zero_point_shifting(&w, target)
        } else {
            rounded_averaging(&w, target)
        };
        let decoded = enc.decode();
        let expect: i64 = decoded.iter().zip(&a).map(|(&x, &y)| x as i64 * y as i64).sum();
        prop_assert_eq!(group_dot(&enc, &a), expect);
    }

    #[test]
    fn scheduler_partial_sum_exact(bits in any::<u8>(), a in vec(-128i32..=127, 8..=8)) {
        let reference: i64 = (0..8)
            .filter(|&i| (bits >> i) & 1 == 1)
            .map(|i| a[i] as i64)
            .sum();
        prop_assert_eq!(subgroup_partial_sum(bits, &a), reference);
    }

    #[test]
    fn wave_schedule_invariants(
        lat in vec(vec(1u32..=8, 4..=4), 2..=16),
        cols in 1usize..=8,
    ) {
        let useful: Vec<Vec<u64>> = lat
            .iter()
            .map(|ch| ch.iter().map(|&l| l as u64).collect())
            .collect();
        let profile = LatencyProfile::from_nested(lat.clone(), useful);
        let tile = wave_schedule_with(&profile, cols, 8, SyncGranularity::PerTile);
        let group = wave_schedule_with(&profile, cols, 8, SyncGranularity::PerGroup);

        // Lock-step can never be faster than buffered per-tile sync.
        prop_assert!(group.cycles >= tile.cycles);

        // Cycles are bounded below by the slowest single channel and above
        // by the serial sum of all channels.
        let col_sums: Vec<u64> = lat
            .iter()
            .map(|ch| ch.iter().map(|&l| l as u64).sum())
            .collect();
        let slowest = *col_sums.iter().max().unwrap();
        let serial: u64 = col_sums.iter().sum();
        prop_assert!(tile.cycles >= slowest);
        prop_assert!(tile.cycles <= serial);

        // Stall fractions always partition the lane-time.
        for s in [tile, group] {
            let sum = s.useful_fraction + s.intra_fraction + s.inter_fraction;
            prop_assert!((sum - 1.0).abs() < 1e-6, "partition {}", sum);
            prop_assert!(s.useful_fraction >= 0.0);
            prop_assert!(s.intra_fraction >= -1e-12);
            prop_assert!(s.inter_fraction >= -1e-12);
        }

        // One column per tile: no inter-PE stall possible.
        let solo = wave_schedule_with(&profile, 1, 8, SyncGranularity::PerTile);
        prop_assert!(solo.inter_fraction.abs() < 1e-9);
    }

    #[test]
    fn narrower_arrays_never_reduce_tile_cycles(
        lat in vec(vec(1u32..=8, 2..=2), 4..=12),
    ) {
        let useful: Vec<Vec<u64>> = lat
            .iter()
            .map(|ch| ch.iter().map(|&l| l as u64).collect())
            .collect();
        let profile = LatencyProfile::from_nested(lat, useful);
        let narrow = wave_schedule_with(&profile, 2, 8, SyncGranularity::PerTile);
        let wide = wave_schedule_with(&profile, 8, 8, SyncGranularity::PerTile);
        // Fewer columns -> more serialization -> at least as many cycles.
        prop_assert!(narrow.cycles >= wide.cycles);
    }

    /// The flat scheduler is bit-identical to the retained nested
    /// reference: same cycles (`u64` equality) and the same fractions
    /// (`f64` bit equality — the arithmetic order is preserved), at both
    /// sync granularities, including partial tiles (channel counts not
    /// divisible by `cols`) and zero-latency groups.
    #[test]
    fn flat_schedule_matches_nested_reference(
        lat in vec(vec(0u32..=9, 1..=6), 1..=17),
        useful_scale in 1u64..=16,
        cols in 1usize..=8,
        lanes in 1usize..=16,
    ) {
        let groups = lat[0].len();
        let lat: Vec<Vec<u32>> = lat
            .into_iter()
            .map(|mut ch| { ch.resize(groups, 1); ch })
            .collect();
        let useful: Vec<Vec<u64>> = lat
            .iter()
            .map(|ch| ch.iter().map(|&l| l as u64 * useful_scale).collect())
            .collect();
        let nested = NestedProfile { latencies: lat.clone(), useful: useful.clone() };
        let flat = LatencyProfile::from_nested(lat, useful);
        for sync in [SyncGranularity::PerTile, SyncGranularity::PerGroup] {
            let expect = wave_schedule_nested(&nested, cols, lanes, sync);
            let got = wave_schedule_with(&flat, cols, lanes, sync);
            prop_assert_eq!(got.cycles, expect.cycles);
            prop_assert_eq!(got.useful_fraction.to_bits(), expect.useful_fraction.to_bits());
            prop_assert_eq!(got.intra_fraction.to_bits(), expect.intra_fraction.to_bits());
            prop_assert_eq!(got.inter_fraction.to_bits(), expect.inter_fraction.to_bits());
        }
    }

    /// Store-cached lowering is bit-identical to fresh `lower_model`
    /// across models, seeds and caps — and the store actually caches
    /// (one miss, then hits sharing the same allocation).
    #[test]
    fn store_cached_lowering_is_bit_identical(
        model_idx in 0usize..4,
        seed in 0u64..64,
        cap_idx in 0usize..4,
    ) {
        let cap = [64usize, 128, 300, 512][cap_idx];
        let model = match model_idx {
            0 => zoo::vit_small(),
            1 => zoo::resnet34(),
            2 => zoo::bert_sst2(),
            _ => zoo::vgg16(),
        };
        let store = WorkloadStore::default();
        let fresh = lower_model(&model, seed, cap);
        let cached = store.get_or_lower(&model, seed, cap);
        prop_assert_eq!(&cached[..], &fresh[..]);
        let again = store.get_or_lower(&model, seed, cap);
        prop_assert!(std::sync::Arc::ptr_eq(&cached, &again));
        prop_assert_eq!((store.misses(), store.hits()), (1, 1));
    }
}

proptest! {
    /// The streamed request key equals the tree-canonical oracle for every
    /// zoo model (whose bytes are memoized) and for custom layer tables
    /// derived from it by truncation, a changed dimension or a renamed
    /// layer (which are canonicalized per call).
    #[test]
    fn request_key_matches_tree_canonical_oracle(
        model_idx in 0..zoo::names().len(),
        (edit, at, delta, name) in (0usize..4, any::<usize>(), 1usize..=1000, 0..KEY_LAYER_NAMES.len()),
        accel in 0..KEY_ACCELERATORS.len(),
        pe_cols in 1usize..=64,
        seed in prop_oneof![0u64..=16, 0..=MAX_SAFE_INT - 1, Just(MAX_SAFE_INT - 1)],
        cap in 1usize..=65536,
    ) {
        let model = zoo::all().swap_remove(model_idx);
        let mut custom = model.clone();
        let at = at % custom.layers.len();
        match edit {
            0 => custom.layers.truncate(at + 1),
            1 => {
                let layer = &mut custom.layers[at];
                match delta % 4 {
                    0 => layer.channels += delta,
                    1 => layer.elems_per_channel += delta,
                    2 => layer.positions += delta,
                    _ => layer.unique_input_elems += delta,
                }
            }
            2 => custom.layers[at].name = KEY_LAYER_NAMES[name].to_string(),
            _ => custom.layers.rotate_left(at),
        }
        let accelerator = KEY_ACCELERATORS[accel];
        let cfg = ArrayConfig::paper_16x32().with_pe_cols(pe_cols);
        for m in [&model, &custom] {
            prop_assert_eq!(
                sim_request_key(m, accelerator, &cfg, seed, cap),
                oracle_request_key(m, accelerator, &cfg, seed, cap),
                "{} ({} layers) / {} / seed {} / cap {}",
                m.name,
                m.layers.len(),
                accelerator,
                seed,
                cap
            );
        }
    }
}

/// Real `/simulate` result documents, compact and pretty-printed.
fn real_results() -> &'static [String] {
    static DOCS: OnceLock<Vec<String>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let cfg = ArrayConfig::paper_16x32();
        let vit = simulate(&Stripes::new(), &zoo::vit_small(), &cfg, 7, 64);
        let resnet = simulate(&BitVert::moderate(), &zoo::resnet34(), &cfg, 8, 64);
        [vit, resnet]
            .iter()
            .map(sim_result_to_json)
            .flat_map(|v| [v.to_string(), v.pretty(2)])
            .collect()
    })
}

/// Characters that make or break JSON structure, numbers, escapes and
/// UTF-8 runs — what the mutations below insert or overwrite with.
const JSON_JUNK: [&str; 24] = [
    "\"", "\\", "{", "}", "[", "]", ",", ":", "-", "+", ".", "e", "0", "7", "u", "\\u", "\\ud83d",
    "\\udc00", "nul", " ", "\n", "\u{1}", "é", "😀",
];

/// A random document: nested arrays and objects of literals, numbers of
/// every shape `write_number` prints, and strings that need escaping.
fn random_json(rng: &mut TestRng, depth: usize) -> Json {
    let scalars = 6;
    let kinds = if depth == 0 { scalars } else { scalars + 2 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Num([-0.0, 0.0, 3.0, -1.5e-7, 1e300, 123456789.0][rng.below(6)]),
        3 => Json::Num((rng.unit_f64() - 0.5) * 1e6),
        4 | 5 => {
            let pieces = ["a", "é", "😀", "\"", "\\", "\n", "\u{1}", "/", "\u{7f}"];
            Json::Str(
                (0..rng.below(6))
                    .map(|_| pieces[rng.below(pieces.len())])
                    .collect(),
            )
        }
        6 => Json::Arr(
            (0..rng.below(4))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|i| (format!("k{i}é"), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    /// `Json::validate` accepts exactly the documents `Json::parse` does
    /// and fails at the same byte with the same message: on random and
    /// real documents, whole and after truncations, overwrites and
    /// insertions at char boundaries.
    #[test]
    fn json_validate_agrees_with_parse(
        (source, seed) in (0usize..3, any::<u64>()),
        edits in vec((0usize..3, any::<usize>(), 0..JSON_JUNK.len()), 0..=3),
    ) {
        let mut doc = if source == 0 {
            random_json(&mut TestRng::for_case("json", seed), 4).to_string()
        } else {
            let real = real_results();
            real[(seed as usize) % real.len()].clone()
        };
        for (op, at, junk) in edits {
            let bounds: Vec<usize> =
                (0..=doc.len()).filter(|&i| doc.is_char_boundary(i)).collect();
            let i = bounds[at % bounds.len()];
            match op {
                0 => doc.truncate(i),
                1 => doc.insert_str(i, JSON_JUNK[junk]),
                _ => {
                    let end = bounds.iter().find(|&&b| b > i).copied().unwrap_or(i);
                    doc.replace_range(i..end, JSON_JUNK[junk]);
                }
            }
        }
        let parsed = Json::parse(&doc).map(drop);
        prop_assert_eq!(Json::validate(&doc), parsed, "{:?}", doc);
    }
}

/// Ragged nested input still panics with the historical message (now at
/// profile construction rather than inside the scheduler).
#[test]
#[should_panic(expected = "group counts differ across channels")]
fn ragged_nested_profile_panics() {
    let _ = LatencyProfile::from_nested(
        vec![vec![1, 2, 3], vec![1, 2]],
        vec![vec![1, 2, 3], vec![1, 2]],
    );
}

/// The reference scheduler keeps its own panic for ragged profiles.
#[test]
#[should_panic(expected = "group counts differ across channels")]
fn ragged_nested_reference_panics() {
    let p = NestedProfile {
        latencies: vec![vec![1, 2], vec![1]],
        useful: vec![vec![1, 2], vec![1]],
    };
    let _ = wave_schedule_nested(&p, 2, 8, SyncGranularity::PerTile);
}

/// Empty profiles are rejected by both implementations.
#[test]
#[should_panic(expected = "is_empty")]
fn empty_flat_profile_panics() {
    let p = LatencyProfile::from_nested(Vec::new(), Vec::new());
    let _ = wave_schedule_with(&p, 2, 8, SyncGranularity::PerTile);
}
