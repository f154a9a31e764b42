//! Criterion benchmarks of the serving wire path's JSON decoding — the
//! work a coordinator does per forwarded cell (parse the shard's
//! `/simulate` response `meta` and validate its result span, next to a
//! full `Json::parse` and a bare `Json::validate` of the same body) and a
//! shard does per request (decode the body, by zoo name or with an inline
//! layer table). All must stay linear in the document size.
//!
//! Also the request's content key, computed once per request on both
//! ends: over a zoo model's memoized canonical bytes, and over a custom
//! layer table that is canonicalized per call.

use bbs_json::Json;
use bbs_models::json::model_spec_to_json;
use bbs_models::zoo;
use bbs_serve::client::parse_simulate_response;
use bbs_serve::registry::accelerator_by_name;
use bbs_serve::server::simulate_ok_body;
use bbs_serve::service::Served;
use bbs_serve::SimRequest;
use bbs_sim::engine::simulate;
use bbs_sim::json::sim_result_to_json;
use bbs_sim::ArrayConfig;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_wire(c: &mut Criterion) {
    let request = SimRequest {
        model: zoo::by_name("Bert-SST2").unwrap(),
        accelerator: "bitvert-moderate",
        config: ArrayConfig::paper_16x32(),
        seed: 7,
        max_weights_per_layer: 256,
    };
    let accel = accelerator_by_name(request.accelerator).unwrap();
    let result = simulate(
        accel.as_ref(),
        &request.model,
        &request.config,
        request.seed,
        request.max_weights_per_layer,
    );
    // A cache-hit response as a shard sends it: ~30 KB for Bert-SST2.
    let response = simulate_ok_body(
        request.key(),
        Served::Hit,
        &sim_result_to_json(&result).to_string(),
    );
    c.bench_function("wire/parse_simulate_response_bert", |b| {
        b.iter(|| black_box(parse_simulate_response(black_box(&response)).unwrap()))
    });
    c.bench_function("wire/json_parse_bert", |b| {
        b.iter(|| black_box(Json::parse(black_box(&response)).unwrap()))
    });
    c.bench_function("wire/json_validate_bert", |b| {
        b.iter(|| black_box(Json::validate(black_box(&response))).unwrap())
    });

    // The same request with its layer table inline, as a custom model
    // travels; `to_json` names zoo models.
    let mut inline = request.to_json();
    if let Json::Obj(pairs) = &mut inline {
        pairs[0].1 = model_spec_to_json(&request.model);
    }
    let inline = inline.to_string();
    c.bench_function("wire/decode_request_inline_spec", |b| {
        b.iter(|| {
            let v = Json::parse(black_box(&inline)).unwrap();
            black_box(SimRequest::from_json(&v, 65536).unwrap())
        })
    });

    let by_name = request.to_json().to_string();
    c.bench_function("wire/decode_request_by_name", |b| {
        b.iter(|| {
            let v = Json::parse(black_box(&by_name)).unwrap();
            black_box(SimRequest::from_json(&v, 65536).unwrap())
        })
    });

    c.bench_function("wire/key_zoo_bert", |b| {
        b.iter(|| black_box(black_box(&request).key()))
    });

    let mut custom = request.clone();
    custom.model.layers[0].channels += 1;
    c.bench_function("wire/key_custom_table", |b| {
        b.iter(|| black_box(black_box(&custom).key()))
    });
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
