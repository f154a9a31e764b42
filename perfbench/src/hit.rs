//! `simulate-hit`: two keep-alive connections replay a fixed, pre-warmed
//! set of `POST /simulate` bodies, so every response is a result-cache
//! hit and the cost is HTTP parse, body decode, key hashing, cache lookup
//! and framing — the hit path — with lowering and simulation idle.

use crate::fleet::{self, Bins, Server, Snapshot};
use crate::scrape::{parse_trace, Trace};
use crate::{procfs, seed_base, splitmix64, stats, Args, Metrics, Tally, ROUNDS};
use bbs_json::Json;
use bbs_models::json::model_spec_to_json;
use bbs_models::zoo;
use bbs_serve::client::Client;
use bbs_serve::http::{write_response_ext, RequestParser};
use bbs_serve::registry::accelerator_by_name;
use bbs_serve::service::Served;
use bbs_serve::{ShardedCache, SimRequest};
use bbs_sim::json::sim_result_to_json;
use bbs_sim::{simulate_with, WorkloadStore};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The light zoo models every serve workload draws from.
pub const MODELS: [&str; 4] = ["ViT-Small", "ResNet-34", "Bert-SST2", "VGG-16"];
pub const ACCELS: [&str; 4] = ["stripes", "bitwave", "bitvert-moderate", "bitlet"];
const CAP: usize = 256;
const SEEDS: u64 = 2;
/// `bbs serve`'s default `--max-cap`, which decoding clamps against.
pub const MAX_CAP: usize = 64 * 1024;
/// Load-generator connections: one per CPU of the 2-CPU reference host.
const CONNECTIONS: u64 = 2;
/// Width of the slices whose median answer count gives `items_per_s`.
const SLICE_S: f64 = 0.1;
/// Calls per replayed input when timing one layer in-process.
const REPS: u32 = 200;
const SAMPLE_TRACE: &str = "id=0123456789abcdef;served=cache;parse_us=1;queue_us=0;\
                            lower_us=0;sim_us=0;ser_us=0;park_us=0;total_us=270";

/// One request body with the responses it must produce.
struct Body {
    text: String,
    /// The model travels as an inline layer table, not a zoo name.
    spec: bool,
    key: u64,
    result: String,
    /// The exact response a cache hit must produce.
    hit: String,
}

/// The serialized result `bbs serve` must return for `req`, computed
/// in-process.
pub fn reference_result(store: &WorkloadStore, req: &SimRequest) -> String {
    let accel = accelerator_by_name(req.accelerator).expect("decoded ids resolve");
    let sim = simulate_with(
        store,
        accel.as_ref(),
        &req.model,
        &req.config,
        req.seed,
        req.max_weights_per_layer,
    );
    sim_result_to_json(&sim).to_string()
}

/// The `/simulate` 200 body, exactly as the server frames it.
fn envelope(key: u64, served: Served, result: &str) -> String {
    let meta = Json::obj(vec![
        ("cached", Json::Bool(served == Served::Hit)),
        (
            "served",
            Json::str(match served {
                Served::Hit => "cache",
                Served::Coalesced => "coalesced",
                Served::Fresh => "simulated",
            }),
        ),
        ("key", Json::str(&format!("{key:016x}"))),
    ]);
    format!("{{\"meta\":{meta},\"result\":{result}}}")
}

/// 4 models × 4 accelerators × 2 seeds at cap 256; one body in four (a
/// different model for each accelerator and seed) carries its model as
/// an inline layer table.
fn bodies(seed: u64) -> Vec<Body> {
    let base = seed_base(seed, 1);
    let store = WorkloadStore::default();
    let mut out = Vec::new();
    for s in 0..SEEDS {
        for (a, accel) in ACCELS.iter().enumerate() {
            for (m, model) in MODELS.iter().enumerate() {
                let spec = (m + a + s as usize).is_multiple_of(4);
                let model_json = if spec {
                    model_spec_to_json(&zoo::by_name(model).expect("zoo model"))
                } else {
                    Json::str(model)
                };
                let text = Json::obj(vec![
                    ("model", model_json),
                    ("accelerator", Json::str(accel)),
                    ("seed", Json::from_u64(base + s)),
                    ("max_weights_per_layer", Json::from_usize(CAP)),
                ])
                .to_string();
                let req = decode(&text);
                let result = reference_result(&store, &req);
                out.push(Body {
                    spec,
                    key: req.key(),
                    hit: envelope(req.key(), Served::Hit, &result),
                    result,
                    text,
                });
            }
        }
    }
    out
}

fn decode(text: &str) -> SimRequest {
    let v = Json::parse(text).expect("generated bodies are JSON");
    SimRequest::from_json(&v, MAX_CAP).expect("generated bodies decode")
}

/// Launch → `/readyz` → one fresh simulation per body.
fn setup(bins: &Bins, bodies: &[Body], tally: &mut Tally) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let server = Server::spawn(bins, &[])?;
    server.wait_ready()?;
    let mut client = Client::connect(server.addr).map_err(|e| e.to_string())?;
    for b in bodies {
        let want = envelope(b.key, Served::Fresh, &b.result);
        match client.simulate(&b.text) {
            Ok((200, got)) => tally.check(got == want, || "warm fill payload differs".into()),
            other => tally.check(false, || format!("warm fill: {other:?}")),
        }
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// One connection's share of a measured window.
#[derive(Default)]
struct ConnRun {
    lat_us: Vec<f64>,
    /// Seconds from the window's start to each answer.
    done_s: Vec<f64>,
    spec: Vec<bool>,
    traces: Vec<Trace>,
    tally: Tally,
}

fn drive(
    server: &Server,
    bodies: &[Body],
    order: &[usize],
    (started, deadline): (Instant, Instant),
    traced: bool,
) -> ConnRun {
    let mut run = ConnRun::default();
    let mut client: Option<Client> = None;
    let mut next = 0;
    while Instant::now() < deadline {
        let i = order[next % order.len()];
        next += 1;
        let conn = match client.as_mut() {
            Some(c) => c,
            None => match Client::connect(server.addr) {
                Ok(c) => client.insert(c),
                Err(e) => {
                    run.tally.check(false, || format!("connect: {e}"));
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let sent = Instant::now();
        let reply = conn.simulate(&bodies[i].text);
        let us = sent.elapsed().as_secs_f64() * 1e6;
        match reply {
            Ok((200, got)) if got == bodies[i].hit => {
                run.tally.check(true, String::new);
                run.lat_us.push(us);
                run.done_s.push(started.elapsed().as_secs_f64());
                run.spec.push(bodies[i].spec);
                if traced {
                    match conn.response_header("x-bbs-trace").and_then(parse_trace) {
                        Some(t) => run.traces.push(t),
                        None => run.tally.note("response without a stage trace".into()),
                    }
                }
            }
            Ok((status, _)) => run
                .tally
                .check(false, || format!("status {status} or payload differs")),
            Err(e) => {
                run.tally.check(false, || format!("request: {e}"));
                client = None;
            }
        }
    }
    run
}

/// A seed-derived visiting order of the bodies for connection `conn`.
fn order(seed: u64, conn: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = splitmix64(seed ^ (conn + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    for i in (1..n).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// A measured window: all connections' samples plus the server deltas.
struct Window {
    runs: Vec<ConnRun>,
    attempted: u64,
    elapsed_s: f64,
    cpu_s: f64,
    before: Snapshot,
    after: Snapshot,
}

impl Window {
    fn lat_us(&self) -> Vec<f64> {
        self.runs
            .iter()
            .flat_map(|r| r.lat_us.iter().copied())
            .collect()
    }

    /// Answers per second in the typical [`SLICE_S`] slice of the window:
    /// the median slice, so a stretch in which the host deschedules the
    /// guest does not set the rate.
    fn rate(&self) -> f64 {
        let slices = (self.elapsed_s / SLICE_S).floor() as usize;
        let mut counts = vec![0.0; slices.max(1)];
        for &t in self.runs.iter().flat_map(|r| &r.done_s) {
            if let Some(c) = counts.get_mut((t / SLICE_S) as usize) {
                *c += 1.0;
            }
        }
        stats::median(&counts).unwrap_or(0.0) / SLICE_S
    }

    fn lat_where(&self, spec: bool) -> Vec<f64> {
        self.runs
            .iter()
            .flat_map(|r| r.lat_us.iter().zip(&r.spec))
            .filter(|(_, &s)| s == spec)
            .map(|(&l, _)| l)
            .collect()
    }
}

fn window(
    server: &Server,
    bodies: &[Body],
    seed: u64,
    length: Duration,
    traced: bool,
    tally: &mut Tally,
) -> Result<Window, String> {
    let before = Snapshot::take(&[server])?;
    let cpu0 = procfs::cpu_seconds(server.pid()).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let deadline = started + length;
    let orders: Vec<Vec<usize>> = (0..CONNECTIONS)
        .map(|c| order(seed, c, bodies.len()))
        .collect();
    // The calling thread drives the first connection, so the load
    // generator runs exactly CONNECTIONS threads.
    let mut runs = std::thread::scope(|s| {
        let others: Vec<_> = orders[1..]
            .iter()
            .map(|o| s.spawn(move || drive(server, bodies, o, (started, deadline), traced)))
            .collect();
        let mut runs = vec![drive(
            server,
            bodies,
            &orders[0],
            (started, deadline),
            traced,
        )];
        runs.extend(others.into_iter().map(|h| h.join().expect("load thread")));
        runs
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds(server.pid()).map_err(|e| e.to_string())? - cpu0;
    let after = Snapshot::take(&[server])?;
    let attempted = runs.iter().map(|r| r.tally.attempted).sum();
    for r in &mut runs {
        tally.merge(std::mem::take(&mut r.tally));
    }
    let w = Window {
        runs,
        attempted,
        elapsed_s,
        cpu_s,
        before,
        after,
    };
    let d = |f: &str| w.after.delta(&w.before, f);
    tally.premise(d("sim_runs") == 0.0, || {
        format!("{} simulations ran", d("sim_runs"))
    });
    tally.premise(d("cache_misses") == 0.0 && d("cache_hits") > 0.0, || {
        format!(
            "cache hits {} misses {}",
            d("cache_hits"),
            d("cache_misses")
        )
    });
    Ok(w)
}

/// Mean µs per call of `f` over [`REPS`] calls.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..REPS {
        f();
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(REPS)
}

fn mean_over<'a>(bodies: impl Iterator<Item = &'a Body>, f: impl FnMut(&Body) -> f64) -> f64 {
    let v: Vec<f64> = bodies.map(f).collect();
    stats::mean(&v).unwrap_or(0.0)
}

/// Times the hit path's layers in-process on the workload's exact bytes.
fn replay(bodies: &[Body], out: &mut Metrics) {
    out.insert(
        "http.parse_us",
        mean_over(bodies.iter(), |b| {
            let raw = format!(
                "POST /simulate HTTP/1.1\r\nhost: bbs-serve\r\ncontent-length: {}\r\n\r\n{}",
                b.text.len(),
                b.text
            );
            per_call_us(|| {
                let mut p = RequestParser::new();
                p.feed(black_box(raw.as_bytes()));
                black_box(p.next_request().expect("valid request"));
            })
        }),
    );
    for (spec, suffix) in [(false, ""), (true, ".spec")] {
        let of_kind = || bodies.iter().filter(move |b| b.spec == spec);
        out.insert(
            &format!("request.decode_us{suffix}"),
            mean_over(of_kind(), |b| {
                per_call_us(|| drop(black_box(decode(black_box(&b.text)))))
            }),
        );
        out.insert(
            &format!("request.key_us{suffix}"),
            mean_over(of_kind(), |b| {
                let req = decode(&b.text);
                per_call_us(|| {
                    black_box(black_box(&req).key());
                })
            }),
        );
    }
    let cache = ShardedCache::new(16, 4096);
    for b in bodies {
        cache.insert(b.key, Arc::from(b.result.as_str()));
    }
    out.insert(
        "cache.get_us",
        mean_over(bodies.iter(), |b| {
            per_call_us(|| drop(black_box(cache.get(black_box(b.key)))))
        }),
    );
    let mut buf = Vec::new();
    out.insert(
        "http.frame_us",
        mean_over(bodies.iter(), |b| {
            let body = envelope(b.key, Served::Hit, &b.result);
            per_call_us(|| {
                buf.clear();
                write_response_ext(
                    &mut buf,
                    200,
                    &body,
                    false,
                    &[("x-bbs-trace", SAMPLE_TRACE)],
                )
                .expect("writing to a Vec");
                black_box(&buf);
            })
        }),
    );
}

/// The traced run: one set-up, an untraced window, then a traced window
/// whose stage traces and server deltas break the hit path down.
fn traced(
    bins: &Bins,
    args: &Args,
    bodies: &[Body],
    tally: &mut Tally,
) -> Result<(Metrics, String), String> {
    let mut m = Metrics::default();
    let (server, _) = setup(bins, bodies, tally)?;
    let backend = fleet::backend(&server)?;
    let plain = window(&server, bodies, args.seed, args.window, false, tally)?;
    let traced = window(&server, bodies, args.seed, args.window, true, tally)?;
    server.stop()?;
    let total: Vec<f64> = traced
        .runs
        .iter()
        .flat_map(|r| r.traces.iter().map(|t| t.total_us as f64))
        .collect();
    let mean_total = stats::mean(&total).unwrap_or(0.0);
    let mean_lat = stats::mean(&traced.lat_us()).unwrap_or(0.0);
    m.insert("event_loop.total_us", mean_total);
    m.insert("client.overhead_us", mean_lat - mean_total);
    m.insert(
        "client.name_p50_us",
        stats::median(&traced.lat_where(false)).unwrap_or(0.0),
    );
    m.insert(
        "client.spec_p50_us",
        stats::median(&traced.lat_where(true)).unwrap_or(0.0),
    );
    let plain_mean = stats::mean(&plain.lat_us()).unwrap_or(0.0);
    m.insert("trace.overhead_pct", (mean_lat / plain_mean - 1.0) * 100.0);
    fleet::service_layers(&traced.before, &traced.after, &mut m);
    replay(bodies, &mut m);
    // The server stamps total_us before framing the response, so framing
    // lands in client.overhead_us, not in this remainder.
    let spec_share = bodies.iter().filter(|b| b.spec).count() as f64 / bodies.len() as f64;
    let get = |n: &str| m.get(n).unwrap_or(0.0);
    let mix =
        |name: &str| get(name) * (1.0 - spec_share) + get(&format!("{name}.spec")) * spec_share;
    let explained = get("http.parse_us")
        + mix("request.decode_us")
        + mix("request.key_us")
        + get("cache.get_us");
    m.insert("event_loop.other_us", mean_total - explained);
    Ok((m, backend))
}

/// End-to-end run: [`ROUNDS`] rounds, each a fresh server, its set-up and
/// an equal share of the window; every metric is the median over rounds.
pub fn run(bins: &Bins, args: &Args) -> Result<(Tally, Metrics, String), String> {
    let bodies = bodies(args.seed);
    let mut tally = Tally::default();
    if args.trace {
        let (m, backend) = traced(bins, args, &bodies, &mut tally)?;
        return Ok((tally, m, backend));
    }
    let mut rounds = Vec::new();
    let mut backend = String::new();
    for _ in 0..ROUNDS {
        let (server, setup_s) = setup(bins, &bodies, &mut tally)?;
        backend = fleet::backend(&server)?;
        let w = window(
            &server,
            &bodies,
            args.seed,
            args.window / ROUNDS as u32,
            false,
            &mut tally,
        )?;
        let lat = w.lat_us();
        let mut m = Metrics::default();
        m.insert("setup_s", setup_s);
        m.insert("items_per_s", w.rate());
        m.insert("call_p50_ms", stats::median(&lat).unwrap_or(0.0) / 1e3);
        m.insert(
            "call_tail_ms",
            stats::quantile(&lat, stats::tail_quantile(lat.len())).unwrap_or(0.0) / 1e3,
        );
        m.insert("cpu_ms_per_item", w.cpu_s * 1e3 / w.attempted.max(1) as f64);
        m.insert(
            "peak_rss_mb",
            procfs::peak_rss_mb(server.pid()).map_err(|e| e.to_string())?,
        );
        server.stop()?;
        rounds.push(m);
    }
    let mut m = Metrics::median_of(&rounds);
    m.insert("ok_share", tally.ok_share());
    Ok((tally, m, backend))
}
