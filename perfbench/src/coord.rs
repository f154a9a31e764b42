//! `coord-sweep-warm`: a coordinator (`bbs serve --shard-of a,b`) in
//! front of two shard processes; one connection repeats `POST /sweep`
//! over grids pre-warmed during set-up, so every cell is a shard cache
//! hit and the cost is the coordinator's routing, forwarder queues,
//! pooled forwarding and stream merge.
//!
//! Three server processes share the host's CPUs (two on the reference
//! host), so these numbers measure coordinator overhead, not scaling.

use crate::fleet::{self, Bins, Server, Snapshot};
use crate::hit::{ACCELS, MODELS};
use crate::sweep::{check_shape, grid, send, split_stream};
use crate::{procfs, seed_base, stats, Args, Metrics, Tally, ROUNDS};
use bbs_serve::server::{start, ServeConfig};
use std::time::{Duration, Instant};

const CAP: usize = 256;
const GRIDS: u64 = 2;
const SHARDS: usize = 2;

/// The shards and their coordinator.
struct Fleet {
    shards: Vec<Server>,
    coordinator: Server,
}

impl Fleet {
    fn all(&self) -> Vec<&Server> {
        self.shards.iter().chain([&self.coordinator]).collect()
    }

    fn cpu_s(&self) -> Result<f64, String> {
        self.all()
            .iter()
            .map(|s| procfs::cpu_seconds(s.pid()).map_err(|e| e.to_string()))
            .sum()
    }

    fn stop(self) -> Result<(), String> {
        // Coordinator first, so it never sees its shards vanish.
        self.coordinator.stop()?;
        self.shards.into_iter().try_for_each(Server::stop)
    }
}

/// Each grid's records as a single in-process server streams them on a
/// warm re-sweep, sorted by cell index: the byte-exact reference.
fn reference(bodies: &[String], cells: usize) -> Result<Vec<Vec<String>>, String> {
    let server = start(ServeConfig {
        log_quiet: true,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("reference server: {e}"))?;
    let refs = bodies
        .iter()
        .map(|body| {
            send(server.addr(), body.clone())?;
            let warm = send(server.addr(), body.clone())?;
            let (records, _) = split_stream(&warm.lines);
            if records.len() != cells {
                return Err(format!("reference sweep gave {} records", records.len()));
            }
            Ok(records.into_iter().map(str::to_string).collect())
        })
        .collect();
    server.stop();
    refs
}

/// Launch the shards → coordinator → `/readyz` on all → one sweep of
/// every grid, which simulates each cell on its shard.
fn setup(
    bins: &Bins,
    bodies: &[String],
    cells: usize,
    tally: &mut Tally,
) -> Result<(Fleet, f64), String> {
    let started = Instant::now();
    let shards = (0..SHARDS)
        .map(|_| Server::spawn(bins, &[]))
        .collect::<Result<Vec<_>, _>>()?;
    let list = shards
        .iter()
        .map(|s| s.addr.to_string())
        .collect::<Vec<_>>()
        .join(",");
    for s in &shards {
        s.wait_ready()?;
    }
    let coordinator = Server::spawn(bins, &["--shard-of", &list])?;
    coordinator.wait_ready()?;
    let fleet = Fleet {
        shards,
        coordinator,
    };
    for body in bodies {
        match send(fleet.coordinator.addr, body.clone()) {
            Ok(run) => {
                if check_shape(&run, cells, tally).is_some() {
                    tally.check(true, String::new);
                }
            }
            Err(e) => tally.check(false, || e),
        }
    }
    Ok((fleet, started.elapsed().as_secs_f64()))
}

struct Window {
    wall_ms: Vec<f64>,
    elapsed_s: f64,
    cpu_s: f64,
    coord: (Snapshot, Snapshot),
    shards: (Snapshot, Snapshot),
}

fn window(
    fleet: &Fleet,
    bodies: &[String],
    refs: &[Vec<String>],
    cells: usize,
    length: Duration,
    tally: &mut Tally,
) -> Result<Window, String> {
    let shard_refs: Vec<&Server> = fleet.shards.iter().collect();
    let coord0 = Snapshot::take(&[&fleet.coordinator])?;
    let shards0 = Snapshot::take(&shard_refs)?;
    let cpu0 = fleet.cpu_s()?;
    let started = Instant::now();
    let mut wall_ms = Vec::new();
    for (body, want) in bodies.iter().zip(refs).cycle() {
        if started.elapsed() >= length {
            break;
        }
        match send(fleet.coordinator.addr, body.clone()) {
            Ok(run) => {
                if let Some(records) = check_shape(&run, cells, tally) {
                    tally.check(records == *want, || {
                        "merged records differ from a single-server sweep".into()
                    });
                    wall_ms.push(run.wall_ms);
                }
            }
            Err(e) => tally.check(false, || e),
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let cpu_s = fleet.cpu_s()? - cpu0;
    let w = Window {
        wall_ms,
        elapsed_s,
        cpu_s,
        coord: (coord0, Snapshot::take(&[&fleet.coordinator])?),
        shards: (shards0, Snapshot::take(&shard_refs)?),
    };
    let sims = w.shards.1.delta(&w.shards.0, "sim_runs");
    tally.premise(sims == 0.0, || format!("shards ran {sims} simulations"));
    let rerouted = per_shard(&w.coord, "rerouted").iter().sum::<f64>();
    tally.premise(rerouted == 0.0, || format!("{rerouted} cells rerouted"));
    Ok(w)
}

/// A coordinator `/stats` counter's change, per shard.
fn per_shard(coord: &(Snapshot, Snapshot), field: &str) -> Vec<f64> {
    (0..SHARDS)
        .map(|i| {
            coord
                .1
                .delta(&coord.0, &format!("coordinator.shards.{i}.{field}"))
        })
        .collect()
}

/// The traced run: one set-up, an untraced window, then a traced window
/// whose coordinator and shard deltas break a forwarded cell down.
fn traced(
    bins: &Bins,
    args: &Args,
    bodies: &[String],
    refs: &[Vec<String>],
    cells: usize,
    tally: &mut Tally,
) -> Result<(Metrics, String), String> {
    let mut m = Metrics::default();
    let (fleet, _) = setup(bins, bodies, cells, tally)?;
    let backend = fleet::backend(&fleet.shards[0])?;
    let plain = window(&fleet, bodies, refs, cells, args.window, tally)?;
    let w = window(&fleet, bodies, refs, cells, args.window, tally)?;
    let threads = procfs::thread_count(fleet.coordinator.pid()).map_err(|e| e.to_string())?;
    fleet.stop()?;
    let forward = w
        .coord
        .1
        .hist(&w.coord.0, "bbs_coord_request_seconds")
        .mean(1e6);
    let shard = w
        .shards
        .1
        .hist(&w.shards.0, "bbs_stage_total_seconds")
        .mean(1e6);
    m.insert("coordinator.forward_us", forward);
    m.insert("shard.total_us", shard);
    m.insert("coordinator.overhead_us", forward - shard);
    let dials: f64 = per_shard(&w.coord, "dials").iter().sum();
    let reuses: f64 = per_shard(&w.coord, "reuses").iter().sum();
    m.insert("coordinator.pool_reuse_ratio", fleet::ratio(reuses, dials));
    let routed = per_shard(&w.coord, "routed");
    let mean = stats::mean(&routed).unwrap_or(0.0);
    let max = routed.iter().copied().fold(0.0, f64::max);
    m.insert(
        "coordinator.route_imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
    m.insert(
        "coordinator.rerouted",
        per_shard(&w.coord, "rerouted").iter().sum(),
    );
    m.insert("coordinator.threads", threads as f64);
    fleet::service_layers(&w.shards.0, &w.shards.1, &mut m);
    let wall = stats::mean(&w.wall_ms).unwrap_or(0.0);
    let untraced = stats::mean(&plain.wall_ms).unwrap_or(0.0);
    m.insert("trace.overhead_pct", (wall / untraced - 1.0) * 100.0);
    Ok((m, backend))
}

/// End-to-end run: [`ROUNDS`] rounds, each a fresh fleet, its set-up and
/// an equal share of the window; every metric is the median over rounds.
pub fn run(bins: &Bins, args: &Args) -> Result<(Tally, Metrics, String), String> {
    let cells = MODELS.len() * ACCELS.len();
    let base = seed_base(args.seed, 4);
    let bodies: Vec<String> = (0..GRIDS)
        .map(|g| grid(&ACCELS, &[base + g], CAP))
        .collect();
    let refs = reference(&bodies, cells)?;
    let mut tally = Tally::default();
    if args.trace {
        let (m, backend) = traced(bins, args, &bodies, &refs, cells, &mut tally)?;
        return Ok((tally, m, backend));
    }
    let mut rounds = Vec::new();
    let mut backend = String::new();
    for _ in 0..ROUNDS {
        let (fleet, setup_s) = setup(bins, &bodies, cells, &mut tally)?;
        backend = fleet::backend(&fleet.shards[0])?;
        let length = args.window / ROUNDS as u32;
        let w = window(&fleet, &bodies, &refs, cells, length, &mut tally)?;
        let done = (w.wall_ms.len() * cells) as f64;
        let mut r = Metrics::default();
        r.insert("setup_s", setup_s);
        r.insert("items_per_s", done / w.elapsed_s);
        r.insert("call_p50_ms", stats::median(&w.wall_ms).unwrap_or(0.0));
        r.insert(
            "call_tail_ms",
            stats::quantile(&w.wall_ms, stats::tail_quantile(w.wall_ms.len())).unwrap_or(0.0),
        );
        r.insert("cpu_ms_per_item", w.cpu_s * 1e3 / done.max(1.0));
        let rss = fleet
            .all()
            .iter()
            .map(|s| procfs::peak_rss_mb(s.pid()).map_err(|e| e.to_string()))
            .sum::<Result<f64, String>>()?;
        r.insert("peak_rss_mb", rss);
        fleet.stop()?;
        rounds.push(r);
    }
    let mut m = Metrics::median_of(&rounds);
    m.insert("ok_share", tally.ok_share());
    Ok((tally, m, backend))
}
