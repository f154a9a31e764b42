//! `sweep-cold`: one connection sends `POST /sweep` for 4 models × all 8
//! accelerators at cap 512, with a fresh seed per sweep, so every cell
//! misses the result cache and each model is lowered once and reused by
//! its 8 accelerators: lowering, simulation, the pruning kernels and
//! serialization dominate.

use crate::fleet::{self, Bins, Server, Snapshot};
use crate::hit::{reference_result, MAX_CAP, MODELS};
use crate::{procfs, seed_base, stats, Args, Metrics, Tally, ROUNDS};
use bbs_core::prune::{BinaryPruner, DEFAULT_GROUP_SIZE};
use bbs_json::Json;
use bbs_serve::client::Client;
use bbs_serve::registry::{accelerator_by_name, ACCELERATOR_IDS};
use bbs_serve::service::Served;
use bbs_serve::sweep::result_record;
use bbs_serve::SweepPlan;
use bbs_sim::json::sim_result_to_json;
use bbs_sim::store::DEFAULT_MAX_ENTRIES;
use bbs_sim::workload::lower_model;
use bbs_sim::{simulate_with, WorkloadStore};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CAP: usize = 512;
/// Calls per timing of `SweepPlan::from_json`.
const PLAN_REPS: u32 = 200;

fn quoted(names: &[&str]) -> Vec<Json> {
    names.iter().map(|n| Json::str(n)).collect()
}

/// The grid body for `seeds` over `accelerators`.
pub fn grid(accelerators: &[&str], seeds: &[u64], cap: usize) -> String {
    Json::obj(vec![
        ("models", Json::Arr(quoted(&MODELS))),
        ("accelerators", Json::Arr(quoted(accelerators))),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|&s| Json::from_u64(s)).collect()),
        ),
        (
            "max_weights_per_layer",
            Json::Arr(vec![Json::from_usize(cap)]),
        ),
    ])
    .to_string()
}

/// A finished `/sweep`: its latency and every streamed line.
pub struct SweepRun {
    pub body: String,
    pub wall_ms: f64,
    pub lines: Vec<String>,
}

/// Sends one sweep on a fresh connection and reads the whole stream.
pub fn send(addr: SocketAddr, body: String) -> Result<SweepRun, String> {
    let started = Instant::now();
    let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (status, lines) = client.sweep(&body).map_err(|e| format!("sweep: {e}"))?;
    let lines = lines
        .collect_lines()
        .map_err(|e| format!("sweep stream: {e}"))?;
    if status != 200 {
        return Err(format!("sweep status {status}: {lines:?}"));
    }
    Ok(SweepRun {
        body,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        lines,
    })
}

/// The cell index a record line starts with.
fn cell_index(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"cell\":")?;
    rest[..rest.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

/// Splits a stream into records sorted by cell index and the summary.
pub fn split_stream(lines: &[String]) -> (Vec<&str>, Option<Json>) {
    let mut records: Vec<&str> = lines
        .iter()
        .map(String::as_str)
        .filter(|l| l.starts_with("{\"cell\":"))
        .collect();
    records.sort_by_key(|l| cell_index(l));
    let summary = lines
        .last()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|v| v.get("summary").cloned());
    (records, summary)
}

/// Checks a stream has its summary and exactly `cells` records, and
/// returns the sorted records for a byte comparison.
pub fn check_shape<'a>(run: &'a SweepRun, cells: usize, tally: &mut Tally) -> Option<Vec<&'a str>> {
    let (records, summary) = split_stream(&run.lines);
    let summary_ok = summary.is_some_and(|s| {
        s.get("cells").and_then(Json::as_usize) == Some(cells)
            && s.get("errors").and_then(Json::as_usize) == Some(0)
    });
    if !summary_ok || records.len() != cells {
        tally.check(false, || {
            format!("sweep of {} records without a clean summary", records.len())
        });
        return None;
    }
    Some(records)
}

/// The records a single server streams for a cold sweep of `body`,
/// computed in-process.
fn expected_records(store: &WorkloadStore, body: &str) -> Vec<String> {
    let plan = SweepPlan::from_json(&Json::parse(body).expect("grid JSON"), MAX_CAP)
        .expect("generated grids decode");
    (0..plan.cell_count())
        .map(|i| {
            let cell = plan.cell(i);
            let req = cell.request.as_ref().expect("generated cells resolve");
            let text = reference_result(store, req);
            result_record(&cell.meta(), req.key(), Served::Fresh, &text)
                .trim_end()
                .to_string()
        })
        .collect()
}

/// Compares every cell of every sweep with in-process simulation, on
/// two threads (one per CPU), after the measured window.
fn verify(runs: &[SweepRun], cells: usize, tally: &mut Tally) {
    let results: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    for run in runs.iter().skip(t).step_by(2) {
                        let Some(records) = check_shape(run, cells, &mut tally) else {
                            continue;
                        };
                        let store = WorkloadStore::new(MODELS.len(), usize::MAX);
                        for (got, want) in records.iter().zip(expected_records(&store, &run.body)) {
                            tally.check(*got == want, || {
                                format!("cell {:?} differs from simulate_with", cell_index(got))
                            });
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier"))
            .collect()
    });
    for t in results {
        tally.merge(t);
    }
}

/// Launch → `/readyz` → fill the workload store to capacity with
/// lowerings no measured sweep reuses, so measured sweeps evict. The fill
/// uses the measured cap, so the store's size, and the server's memory,
/// do not depend on how many sweeps a window gets through.
fn setup(bins: &Bins, seed: u64, tally: &mut Tally) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let server = Server::spawn(bins, &[])?;
    server.wait_ready()?;
    let base = seed_base(seed, 3);
    let fill_seeds: Vec<u64> = (0..(DEFAULT_MAX_ENTRIES / MODELS.len()) as u64)
        .map(|i| base + i)
        .collect();
    let cells = fill_seeds.len() * MODELS.len();
    let fill = send(server.addr, grid(&["stripes"], &fill_seeds, CAP))?;
    if check_shape(&fill, cells, tally).is_some() {
        tally.check(true, String::new);
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// A measured stretch of back-to-back sweeps.
struct Window {
    runs: Vec<SweepRun>,
    elapsed_s: f64,
    cpu_s: f64,
    before: Snapshot,
    after: Snapshot,
}

impl Window {
    fn wall_ms(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.wall_ms).collect()
    }
}

/// Measured sweeps until the window closes, each with the next seed; the
/// server must simulate every cell and hit its result cache never.
fn window(
    server: &Server,
    bodies: &mut impl Iterator<Item = String>,
    length: Duration,
    cells: usize,
    tally: &mut Tally,
) -> Result<Window, String> {
    let before = Snapshot::take(&[server])?;
    let cpu0 = procfs::cpu_seconds(server.pid()).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut runs = Vec::new();
    while started.elapsed() < length {
        match send(server.addr, bodies.next().expect("endless seeds")) {
            Ok(run) => runs.push(run),
            Err(e) => tally.check(false, || e),
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds(server.pid()).map_err(|e| e.to_string())? - cpu0;
    let after = Snapshot::take(&[server])?;
    let d = |f: &str| after.delta(&before, f);
    let want = (runs.len() * cells) as f64;
    tally.premise(d("sim_runs") == want, || {
        format!("{} simulations for {want} cold cells", d("sim_runs"))
    });
    tally.premise(d("cache_hits") == 0.0, || {
        format!("{} cache hits", d("cache_hits"))
    });
    Ok(Window {
        runs,
        elapsed_s,
        cpu_s,
        before,
        after,
    })
}

fn mean_ms(samples: &[f64]) -> f64 {
    stats::mean(samples).unwrap_or(0.0)
}

/// Times the miss path's layers in-process on one measured grid: each
/// model is lowered, compressed by both pruning presets, and simulated
/// once per accelerator on a warmed store, as the server does per cell.
fn replay(body: &str, m: &mut Metrics) {
    let parsed = Json::parse(body).expect("grid JSON");
    let started = Instant::now();
    for _ in 0..PLAN_REPS {
        black_box(SweepPlan::from_json(black_box(&parsed), MAX_CAP).expect("plan"));
    }
    m.insert(
        "sweep.plan_us",
        started.elapsed().as_secs_f64() * 1e6 / f64::from(PLAN_REPS),
    );
    let plan = SweepPlan::from_json(&parsed, MAX_CAP).expect("plan");
    let mut lower = Vec::new();
    let mut compress = [Vec::new(), Vec::new()];
    let mut sim: Vec<Vec<f64>> = vec![Vec::new(); ACCELERATOR_IDS.len()];
    let (mut ser, mut record) = (Vec::new(), Vec::new());
    // Cells run model-major: each model's cells are its 8 accelerators.
    for first in (0..plan.cell_count()).step_by(ACCELERATOR_IDS.len()) {
        let cell = plan.cell(first);
        let req = cell.request.as_ref().expect("generated cells resolve");
        let t = Instant::now();
        let lowered = lower_model(&req.model, req.seed, req.max_weights_per_layer);
        lower.push(t.elapsed().as_secs_f64() * 1e3);
        for (k, pruner) in [BinaryPruner::moderate(), BinaryPruner::conservative()]
            .iter()
            .enumerate()
        {
            let t = Instant::now();
            for wl in &lowered {
                let row = wl.weights.data.shape().dim(1);
                for channel in wl.weights.data.as_slice().chunks(row) {
                    black_box(pruner.compress_channel(channel, DEFAULT_GROUP_SIZE));
                }
            }
            compress[k].push(t.elapsed().as_secs_f64() * 1e3);
        }
        let store = WorkloadStore::new(1, usize::MAX);
        store.get_or_lower(&req.model, req.seed, req.max_weights_per_layer);
        for (a, i) in (first..first + ACCELERATOR_IDS.len()).enumerate() {
            let cell = plan.cell(i);
            let req = cell.request.as_ref().expect("generated cells resolve");
            let accel = accelerator_by_name(req.accelerator).expect("canonical id");
            let t = Instant::now();
            let result = simulate_with(
                &store,
                accel.as_ref(),
                &req.model,
                &req.config,
                req.seed,
                req.max_weights_per_layer,
            );
            sim[a].push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let text = sim_result_to_json(&result).to_string();
            ser.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            black_box(result_record(&cell.meta(), req.key(), Served::Fresh, &text));
            record.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    m.insert("workload.lower_ms", mean_ms(&lower));
    m.insert("core.compress_ms.moderate", mean_ms(&compress[0]));
    m.insert("core.compress_ms.conservative", mean_ms(&compress[1]));
    for (id, samples) in ACCELERATOR_IDS.iter().zip(&sim) {
        m.insert(&format!("engine.sim_ms.{id}"), mean_ms(samples));
    }
    m.insert("json.ser_us", mean_ms(&ser));
    m.insert("sweep.record_us", mean_ms(&record));
}

/// The traced run: one set-up, an untraced window, then a traced window
/// whose server deltas and in-process replays break a cold cell down.
fn traced(
    bins: &Bins,
    args: &Args,
    bodies: &mut impl Iterator<Item = String>,
    cells: usize,
    tally: &mut Tally,
) -> Result<(Metrics, String, Vec<SweepRun>), String> {
    let mut m = Metrics::default();
    let (server, _) = setup(bins, args.seed, tally)?;
    let backend = fleet::backend(&server)?;
    let workers = fleet::stat_of(&server, "workers")?.max(1.0);
    let plain = window(&server, bodies, args.window, cells, tally)?;
    let w = window(&server, bodies, args.window, cells, tally)?;
    server.stop()?;
    fleet::service_layers(&w.before, &w.after, &mut m);
    let hist = |stage: &str| {
        w.after
            .hist(&w.before, &format!("bbs_stage_{stage}_seconds"))
    };
    m.insert("workload.lower_ms.server", hist("lower").mean(1e3));
    // Worker busy time spread over the pool; the rest of a sweep's wall
    // time is queueing, streaming and the event loop.
    let busy_ms: f64 = ["lower", "sim", "ser"]
        .iter()
        .map(|s| hist(s).sum * 1e3)
        .sum();
    let wall = mean_ms(&w.wall_ms());
    let sweeps = w.runs.len().max(1) as f64;
    m.insert("service.other_ms", wall - busy_ms / workers / sweeps);
    m.insert(
        "trace.overhead_pct",
        (wall / mean_ms(&plain.wall_ms()) - 1.0) * 100.0,
    );
    if let Some(first) = plain.runs.first() {
        replay(&first.body, &mut m);
    }
    let mut runs = plain.runs;
    runs.extend(w.runs);
    Ok((m, backend, runs))
}

/// End-to-end run: [`ROUNDS`] rounds, each a fresh server, its set-up and
/// an equal share of the window; every metric is the median over rounds.
/// All streamed cells are checked against in-process simulation after the
/// last round.
pub fn run(bins: &Bins, args: &Args) -> Result<(Tally, Metrics, String), String> {
    let cells = MODELS.len() * ACCELERATOR_IDS.len();
    let base = seed_base(args.seed, 2);
    let mut bodies = (0u64..).map(|i| grid(&ACCELERATOR_IDS, &[base + i], CAP));
    let mut tally = Tally::default();
    let (mut m, backend, runs) = if args.trace {
        traced(bins, args, &mut bodies, cells, &mut tally)?
    } else {
        let mut rounds = Vec::new();
        let mut runs = Vec::new();
        let mut backend = String::new();
        for _ in 0..ROUNDS {
            let (server, setup_s) = setup(bins, args.seed, &mut tally)?;
            backend = fleet::backend(&server)?;
            let w = window(
                &server,
                &mut bodies,
                args.window / ROUNDS as u32,
                cells,
                &mut tally,
            )?;
            let wall = w.wall_ms();
            let done = (wall.len() * cells) as f64;
            let mut r = Metrics::default();
            r.insert("setup_s", setup_s);
            r.insert("items_per_s", done / w.elapsed_s);
            r.insert("call_p50_ms", stats::median(&wall).unwrap_or(0.0));
            r.insert(
                "call_tail_ms",
                stats::quantile(&wall, stats::tail_quantile(wall.len())).unwrap_or(0.0),
            );
            r.insert("cpu_ms_per_item", w.cpu_s * 1e3 / done.max(1.0));
            r.insert(
                "peak_rss_mb",
                procfs::peak_rss_mb(server.pid()).map_err(|e| e.to_string())?,
            );
            server.stop()?;
            runs.extend(w.runs);
            rounds.push(r);
        }
        (Metrics::median_of(&rounds), backend, runs)
    };
    verify(&runs, cells, &mut tally);
    m.insert("ok_share", tally.ok_share());
    Ok((tally, m, backend))
}
