//! The shard coordinator: a `bbs-serve` front end that owns no simulator
//! of its own and instead consistent-hashes every job — single
//! `/simulate` requests and expanded `/sweep` cells alike — across N
//! downstream `bbs-serve` instances.
//!
//! ## Routing
//!
//! Placement is rendezvous (highest-random-weight) hashing over the job's
//! stable content address (`SimRequest::key()`, the same FNV-1a key the
//! result caches use): every shard is scored with
//! `splitmix64(key ^ fnv1a(shard address))` and the job goes to the
//! highest score. Two properties follow:
//!
//! * **Cache affinity** — a given `(model, accelerator, config, seed,
//!   cap)` point always lands on the same shard, so each shard's
//!   WorkloadStore and disk tier hold only its slice of the model zoo and
//!   warm re-runs hit that slice every time.
//! * **Minimal disruption** — when a shard disappears, only *its* keys
//!   move (each to its second-choice shard, deterministically); every
//!   other key keeps its home, unlike modulo hashing where most of the
//!   keyspace reshuffles.
//!
//! ## Fan-out and failover
//!
//! Each shard gets a small pool of forwarder threads, each reusing
//! pooled keep-alive [`Client`] connections. A forwarder retries a
//! failing shard with the client's bounded backoff (honoring 503
//! `Retry-After` floors); once a shard looks gone — connect refused,
//! transport errors, persistent saturation — its unfinished jobs are
//! *rerouted* to the next shard in rendezvous order rather than erroring,
//! so one dying shard never stalls a merged sweep stream. A background
//! prober watches every shard's `/readyz` and stops routing new jobs to
//! instances that report draining/saturated, re-admitting them when they
//! recover.
//!
//! The coordinator plugs into the event loop through the same
//! [`Submitted`]/completion-callback seam the local worker pool uses
//! (see `Shared::submit_job`), so the front end keeps its nonblocking
//! single-thread loop, its parking/backpressure machinery, and its
//! byte-identical NDJSON record formatting.

use crate::client::{parse_simulate_response, splitmix64, Client, ClientPool, RetryPolicy};
use crate::request::SimRequest;
use crate::service::{Completion, ExecuteError, Served, Submitted, Timing};
use crate::telemetry::Telemetry;
use bbs_json::Json;
use bbs_telemetry::prom::PromText;
use bbs_telemetry::{Histogram, Value};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a job failed when no untried shard can take it.
const NO_SHARD: &str = "no shard available (all down or draining)";

/// Forwarder threads (each with pooled keep-alive connections) per shard.
pub const CONNECTIONS_PER_SHARD: usize = 4;
/// How often the prober re-checks every shard's `/readyz`.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(250);
/// Connect/read deadline for `/readyz` probes — a probe must never hang
/// for the full client timeout.
const PROBE_TIMEOUT: Duration = Duration::from_millis(1000);

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Downstream `bbs-serve` addresses (at most 64).
    pub shards: Vec<SocketAddr>,
    /// Forwarder threads per shard.
    pub connections_per_shard: usize,
    /// Per-shard retry schedule before a job reroutes.
    pub retry: RetryPolicy,
    /// `/readyz` probe cadence.
    pub probe_interval: Duration,
}

impl CoordinatorConfig {
    /// Defaults for a given shard list.
    pub fn new(shards: Vec<SocketAddr>) -> CoordinatorConfig {
        CoordinatorConfig {
            shards,
            connections_per_shard: CONNECTIONS_PER_SHARD,
            retry: RetryPolicy::default(),
            probe_interval: PROBE_INTERVAL,
        }
    }
}

/// One job on its way to a shard.
struct Job {
    /// The `/simulate` body (the request's wire form, encoded once at
    /// submit: zoo models by name, custom layer tables inline).
    body: String,
    /// The job's content address — also its routing key.
    key: u64,
    /// Fires exactly once with the outcome.
    done: Completion,
    /// Bitmask of shard indices already tried (reroute loop guard).
    tried: u64,
}

/// A shard's routing verdict. One atomic value, so routing, `/readyz`,
/// `/stats` and `/metrics` always read the same answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Health {
    /// Reachable and `/readyz`-ready: takes new keys.
    Up = 0,
    /// Alive but draining or saturated: only a last resort.
    Parked = 1,
    /// Unreachable (connect refused, transport errors): never routed to.
    Down = 2,
}

impl Health {
    fn from_u8(v: u8) -> Health {
        match v {
            0 => Health::Up,
            1 => Health::Parked,
            _ => Health::Down,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Health::Up => "up",
            Health::Parked => "parked",
            Health::Down => "down",
        }
    }
}

/// Per-shard routing state and counters.
struct ShardState {
    addr: SocketAddr,
    /// The address as a stats/metrics label.
    label: String,
    /// Rendezvous salt: FNV-1a of the address text.
    salt: u64,
    /// Jobs routed here (first placement and reroutes in).
    routed: AtomicU64,
    /// Jobs this shard failed to answer (before any reroute).
    errors: AtomicU64,
    /// Jobs rerouted *away* after this shard stopped answering.
    rerouted: AtomicU64,
    /// Jobs currently being forwarded.
    in_flight: AtomicU64,
    /// The [`Health`] verdict, as its `u8` discriminant.
    health: AtomicU8,
    /// Round-trip latency of successful forwards (µs).
    latency_us: Histogram,
}

impl ShardState {
    fn new(addr: SocketAddr) -> ShardState {
        let label = addr.to_string();
        ShardState {
            addr,
            salt: fnv1a(label.as_bytes()),
            label,
            routed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            health: AtomicU8::new(Health::Up as u8),
            latency_us: Histogram::new(),
        }
    }

    fn health(&self) -> Health {
        Health::from_u8(self.health.load(Ordering::SeqCst))
    }

    /// Stores a new verdict and returns the previous one.
    fn set_health(&self, health: Health) -> Health {
        Health::from_u8(self.health.swap(health as u8, Ordering::SeqCst))
    }
}

/// Why one shard could not answer a job.
enum ShardError {
    /// The shard is unreachable or persistently saturated — reroute.
    Unavailable(String),
    /// The shard answered definitively (4xx/5xx/malformed) — rerouting
    /// the same body elsewhere would fail the same way.
    Definitive(String),
}

struct Inner {
    shards: Vec<ShardState>,
    pools: Vec<ClientPool>,
    queues: Vec<JobQueue>,
    retry: RetryPolicy,
    stopping: AtomicBool,
    probe_interval: Duration,
    /// Aggregate forward latency across every shard (µs).
    latency_us: Histogram,
    telemetry: Arc<Telemetry>,
}

#[derive(Default)]
struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

/// A running coordinator; stop it with [`Coordinator::stop`].
pub struct Coordinator {
    inner: Arc<Inner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// FNV-1a over bytes — the shard salt, so the rendezvous permutation is
/// stable across restarts for a stable shard list.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Coordinator {
    /// Spawns the forwarder pools and the readiness prober.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is empty or holds more than 64 entries
    /// (the reroute guard is a `u64` bitmask).
    pub fn start(config: CoordinatorConfig, telemetry: Arc<Telemetry>) -> Coordinator {
        assert!(
            !config.shards.is_empty() && config.shards.len() <= 64,
            "coordinator needs 1..=64 shards"
        );
        let shards: Vec<ShardState> = config.shards.iter().map(|&a| ShardState::new(a)).collect();
        let per_shard = config.connections_per_shard.max(1);
        let pools = config
            .shards
            .iter()
            .map(|&addr| ClientPool::new(addr, per_shard))
            .collect();
        let queues = (0..shards.len()).map(|_| JobQueue::default()).collect();
        let inner = Arc::new(Inner {
            shards,
            pools,
            queues,
            retry: config.retry,
            stopping: AtomicBool::new(false),
            probe_interval: config.probe_interval,
            latency_us: Histogram::new(),
            telemetry,
        });

        let mut threads = Vec::new();
        for shard in 0..inner.shards.len() {
            for worker in 0..per_shard {
                let inner = Arc::clone(&inner);
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("bbs-coord-{shard}.{worker}"))
                        .spawn(move || forwarder_loop(&inner, shard))
                        .expect("spawn coordinator forwarder"),
                );
            }
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("bbs-coord-probe".to_string())
                    .spawn(move || probe_loop(&inner))
                    .expect("spawn coordinator prober"),
            );
        }
        Coordinator {
            inner,
            threads: Mutex::new(threads),
        }
    }

    /// Non-blocking submit, mirroring [`crate::service::SimService::submit`]:
    /// the job is queued for its rendezvous-choice shard and `done` fires
    /// from a forwarder thread when the downstream answer (or the final
    /// failure) arrives. The coordinator holds no result cache of its own
    /// — hits happen on the shard that owns the key — so this never
    /// returns [`Submitted::Hit`] or [`Submitted::Busy`].
    ///
    /// `key` must be `request.key()`; it picks the shard and is checked
    /// against the key the shard echoes.
    pub fn submit(&self, request: SimRequest, key: u64, done: Completion) -> Submitted {
        debug_assert_eq!(key, request.key(), "submit key must be request.key()");
        if self.inner.stopping.load(Ordering::SeqCst) {
            return Submitted::ShuttingDown;
        }
        let body = request.to_json().to_string();
        match self.inner.route(key, 0) {
            Some(idx) => {
                self.inner.shards[idx]
                    .routed
                    .fetch_add(1, Ordering::Relaxed);
                self.inner.push(
                    idx,
                    Job {
                        body,
                        key,
                        done,
                        tried: 0,
                    },
                );
                Submitted::Pending
            }
            None => {
                done(Err(ExecuteError::Failed(NO_SHARD.to_string())));
                Submitted::Pending
            }
        }
    }

    /// Whether at least one shard is currently reachable and ready —
    /// feeds the front end's own `/readyz`.
    pub fn any_serviceable(&self) -> bool {
        self.inner.shards.iter().any(|s| s.health() == Health::Up)
    }

    /// How many jobs the front end should keep in flight at once: the
    /// full fan-out width, with headroom so every forwarder stays busy.
    pub fn max_in_flight(&self) -> usize {
        2 * self.inner.pools.len().max(1) * CONNECTIONS_PER_SHARD
    }

    /// Number of configured shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The `/stats` `coordinator` block: per-shard routing counters,
    /// health, connection-pool stats and latency summaries.
    pub fn stats_json(&self) -> Json {
        let shards = self
            .inner
            .shards
            .iter()
            .zip(&self.inner.pools)
            .map(|(s, pool)| {
                let snap = s.latency_us.snapshot();
                Json::obj(vec![
                    ("addr", Json::str(&s.label)),
                    ("state", Json::str(s.health().label())),
                    ("routed", Json::from_u64(s.routed.load(Ordering::Relaxed))),
                    (
                        "rerouted",
                        Json::from_u64(s.rerouted.load(Ordering::Relaxed)),
                    ),
                    ("errors", Json::from_u64(s.errors.load(Ordering::Relaxed))),
                    (
                        "in_flight",
                        Json::from_u64(s.in_flight.load(Ordering::Relaxed)),
                    ),
                    ("dials", Json::from_u64(pool.dials())),
                    ("reuses", Json::from_u64(pool.reuses())),
                    (
                        "latency_us",
                        Json::obj(vec![
                            ("count", Json::from_u64(snap.count)),
                            ("p50", Json::from_u64(snap.percentile(0.50))),
                            ("p99", Json::from_u64(snap.percentile(0.99))),
                            ("max", Json::from_u64(snap.max)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("shards", Json::Arr(shards)),
            (
                "hash",
                Json::str("rendezvous(splitmix64(key ^ fnv1a(addr)))"),
            ),
        ])
    }

    /// Appends the coordinator metric family to a `/metrics` exposition:
    /// per-shard routed/error/reroute counters, health and in-flight
    /// gauges, per-shard p99 and the aggregate forward-latency histogram.
    pub fn append_prometheus(&self, p: &mut PromText) {
        let shards = &self.inner.shards;
        p.gauge(
            "bbs_coord_shards",
            "Downstream shards configured.",
            shards.len() as f64,
        );
        let count = |f: &dyn Fn(&ShardState) -> u64| -> Vec<(&str, u64)> {
            shards.iter().map(|s| (s.label.as_str(), f(s))).collect()
        };
        p.counter_vec(
            "bbs_coord_cells_routed_total",
            "Jobs routed to each shard (first placement and reroutes in).",
            "shard",
            &count(&|s| s.routed.load(Ordering::Relaxed)),
        );
        p.counter_vec(
            "bbs_coord_errors_total",
            "Jobs each shard failed to answer.",
            "shard",
            &count(&|s| s.errors.load(Ordering::Relaxed)),
        );
        p.counter_vec(
            "bbs_coord_rerouted_total",
            "Jobs rerouted away from each shard after it stopped answering.",
            "shard",
            &count(&|s| s.rerouted.load(Ordering::Relaxed)),
        );
        let gauge = |f: &dyn Fn(&ShardState) -> f64| -> Vec<(&str, f64)> {
            shards.iter().map(|s| (s.label.as_str(), f(s))).collect()
        };
        p.gauge_vec(
            "bbs_coord_in_flight",
            "Jobs currently being forwarded to each shard.",
            "shard",
            &gauge(&|s| s.in_flight.load(Ordering::Relaxed) as f64),
        );
        p.gauge_vec(
            "bbs_coord_shard_serviceable",
            "1 while the shard is reachable and /readyz-ready.",
            "shard",
            &gauge(&|s| f64::from(u8::from(s.health() == Health::Up))),
        );
        p.gauge_vec(
            "bbs_coord_shard_p99_seconds",
            "p99 forward latency per shard.",
            "shard",
            &gauge(&|s| s.latency_us.snapshot().percentile(0.99) as f64 * 1e-6),
        );
        p.histogram(
            "bbs_coord_request_seconds",
            "Forward round-trip latency across all shards.",
            &self.inner.latency_us.snapshot(),
            1e-6,
        );
    }

    /// Stops the prober and the forwarders; jobs still queued when the
    /// forwarders exit complete as shutdown errors.
    pub fn stop(&self) {
        self.inner.stopping.store(true, Ordering::SeqCst);
        for q in &self.inner.queues {
            q.cv.notify_all();
        }
        for t in self.threads.lock().unwrap().drain(..) {
            let _ = t.join();
        }
        for q in &self.inner.queues {
            let mut jobs = q.jobs.lock().unwrap();
            while let Some(job) = jobs.pop_front() {
                (job.done)(Err(ExecuteError::ShuttingDown));
            }
        }
    }
}

impl Inner {
    /// Shard indices in descending rendezvous score for `key`.
    fn rank(&self, key: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.shards.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(splitmix64(key ^ self.shards[i].salt)));
        order
    }

    /// The best untried shard for `key`: the highest-ranked `Up` one,
    /// else — the parked fallback, since a parked verdict may be stale —
    /// the highest-ranked `Parked` one; never a `Down` shard.
    fn route(&self, key: u64, tried: u64) -> Option<usize> {
        self.rank(key)
            .into_iter()
            .filter(|&i| tried & (1u64 << i) == 0)
            .map(|i| (self.shards[i].health(), i))
            .filter(|&(health, _)| health != Health::Down)
            .min_by_key(|&(health, _)| health)
            .map(|(_, i)| i)
    }

    /// Applies one `/readyz` probe outcome to shard `idx` in a single
    /// store; leaving `Down` logs a recovery, entering it drops the
    /// shard's pooled connections.
    fn observe_probe(&self, idx: usize, probe: std::io::Result<u16>) {
        let shard = &self.shards[idx];
        let next = match &probe {
            Ok(200) => Health::Up,
            // Alive but refusing traffic (draining or saturated).
            Ok(_) => Health::Parked,
            Err(_) => Health::Down,
        };
        match (probe, shard.set_health(next)) {
            (Ok(200), Health::Down) => self
                .telemetry
                .logger
                .info("shard recovered", &[("shard", Value::Str(&shard.label))]),
            (Err(e), Health::Up | Health::Parked) => {
                self.pools[idx].clear();
                self.telemetry.logger.warn(
                    "shard probe failed",
                    &[
                        ("shard", Value::Str(&shard.label)),
                        ("error", Value::Str(&e.to_string())),
                    ],
                );
            }
            _ => {}
        }
    }

    fn push(&self, idx: usize, job: Job) {
        self.queues[idx].jobs.lock().unwrap().push_back(job);
        self.queues[idx].cv.notify_one();
    }

    /// Blocks for the next job on shard `idx`; `None` once the
    /// coordinator is stopping and the queue has drained.
    fn pop(&self, idx: usize) -> Option<Job> {
        let q = &self.queues[idx];
        let mut jobs = q.jobs.lock().unwrap();
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if self.stopping.load(Ordering::SeqCst) {
                return None;
            }
            // Bounded wait: a lost notify (or a reroute racing shutdown)
            // degrades to a 100ms poll, never a hang.
            let (guard, _) = q.cv.wait_timeout(jobs, Duration::from_millis(100)).unwrap();
            jobs = guard;
        }
    }

    /// Runs one job against shard `idx` with the bounded per-shard retry
    /// schedule (503 `Retry-After` honored as the backoff floor, exactly
    /// like [`Client::request_with_retry`]).
    fn try_shard(&self, idx: usize, job: &Job) -> Result<(Served, Arc<str>), ShardError> {
        let shard = &self.shards[idx];
        let pool = &self.pools[idx];
        let attempts = self.retry.attempts.max(1);
        let mut server_floor: Option<Duration> = None;
        let mut last = String::from("no attempt made");
        for attempt in 0..attempts {
            if attempt > 0 {
                let mut wait = self.retry.backoff(attempt - 1);
                if let Some(floor) = server_floor.take() {
                    wait = wait.max(floor.min(self.retry.max));
                }
                std::thread::sleep(wait);
            }
            let mut client = match pool.get() {
                Ok(c) => c,
                Err(e) => {
                    last = format!("connect to {}: {e}", shard.label);
                    continue;
                }
            };
            match client.request("POST", "/simulate", &job.body) {
                Ok((200, resp)) => {
                    return match parse_simulate_response(&resp) {
                        // The echoed key proves the shard simulated the
                        // cell we asked for (its zoo matches ours).
                        Some((key, _, _)) if key != job.key => {
                            pool.put(client);
                            Err(ShardError::Definitive(format!(
                                "shard {} keyed the cell differently: \
                                 sent {:016x}, got {key:016x}",
                                shard.label, job.key
                            )))
                        }
                        Some((_, served, text)) => {
                            let text = Arc::from(text);
                            pool.put(client);
                            Ok((served, text))
                        }
                        None => Err(ShardError::Definitive(format!(
                            "malformed /simulate response from shard {}",
                            shard.label
                        ))),
                    };
                }
                Ok((503, resp)) => {
                    // Backpressure: retry this shard after its own
                    // Retry-After hint, keeping the key's cache affinity.
                    server_floor = client
                        .response_header("retry-after")
                        .and_then(|v| v.trim().parse::<u64>().ok())
                        .map(Duration::from_secs);
                    pool.put(client);
                    last = format!("shard {} saturated: {resp}", shard.label);
                }
                Ok((status, resp)) => {
                    pool.put(client);
                    let message = Json::parse(&resp)
                        .ok()
                        .and_then(|v| v.get("error").and_then(|e| e.as_str().map(String::from)))
                        .unwrap_or(resp);
                    return Err(ShardError::Definitive(format!(
                        "shard {} answered {status}: {message}",
                        shard.label
                    )));
                }
                Err(e) => {
                    // Transport failure mid-exchange: the connection is
                    // poisoned — drop it (never pooled) and retry fresh.
                    last = format!("shard {}: {e}", shard.label);
                }
            }
        }
        Err(ShardError::Unavailable(last))
    }

    /// Forwards one job, rerouting it down the rendezvous order if the
    /// shard is unavailable; the completion fires exactly once.
    fn forward(&self, idx: usize, job: Job) {
        let shard = &self.shards[idx];
        shard.in_flight.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let result = self.try_shard(idx, &job);
        shard.in_flight.fetch_sub(1, Ordering::Relaxed);
        match result {
            Ok((served, text)) => {
                let us = started.elapsed().as_micros() as u64;
                shard.latency_us.record(us);
                self.latency_us.record(us);
                (job.done)(Ok((text, served, Timing::default())));
            }
            Err(ShardError::Definitive(message)) => {
                shard.errors.fetch_add(1, Ordering::Relaxed);
                (job.done)(Err(ExecuteError::Failed(message)));
            }
            Err(ShardError::Unavailable(message)) => {
                shard.errors.fetch_add(1, Ordering::Relaxed);
                shard.set_health(Health::Down);
                self.pools[idx].clear();
                let tried = job.tried | (1u64 << idx);
                match self.route(job.key, tried) {
                    Some(next) => {
                        shard.rerouted.fetch_add(1, Ordering::Relaxed);
                        self.shards[next].routed.fetch_add(1, Ordering::Relaxed);
                        self.telemetry.logger.warn(
                            "shard unavailable, rerouting",
                            &[
                                ("shard", Value::Str(&shard.label)),
                                ("to", Value::Str(&self.shards[next].label)),
                                ("error", Value::Str(&message)),
                            ],
                        );
                        self.push(next, Job { tried, ..job });
                    }
                    None => (job.done)(Err(ExecuteError::Failed(format!(
                        "{NO_SHARD}; last: {message}"
                    )))),
                }
            }
        }
    }
}

fn forwarder_loop(inner: &Inner, idx: usize) {
    while let Some(job) = inner.pop(idx) {
        inner.forward(idx, job);
    }
}

/// Polls every shard's `/readyz` on a fixed cadence: a 200 re-admits a
/// shard (clearing a down verdict), a 503 parks it (alive but
/// draining/saturated — stop sending new keys), a transport error marks
/// it down.
fn probe_loop(inner: &Inner) {
    while !inner.stopping.load(Ordering::SeqCst) {
        for idx in 0..inner.shards.len() {
            let probe = Client::connect_with_timeout(inner.shards[idx].addr, PROBE_TIMEOUT)
                .and_then(|mut c| c.get("/readyz"));
            inner.observe_probe(idx, probe.map(|(status, _)| status));
        }
        let mut slept = Duration::ZERO;
        while slept < inner.probe_interval && !inner.stopping.load(Ordering::SeqCst) {
            let step = Duration::from_millis(50).min(inner.probe_interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_inner(addrs: &[&str]) -> Inner {
        let shards = addrs
            .iter()
            .map(|a| ShardState::new(a.parse().unwrap()))
            .collect::<Vec<_>>();
        let pools = shards.iter().map(|s| ClientPool::new(s.addr, 1)).collect();
        let queues = (0..shards.len()).map(|_| JobQueue::default()).collect();
        Inner {
            shards,
            pools,
            queues,
            retry: RetryPolicy::default(),
            stopping: AtomicBool::new(false),
            probe_interval: PROBE_INTERVAL,
            latency_us: Histogram::new(),
            telemetry: Arc::new(Telemetry::default()),
        }
    }

    #[test]
    fn rendezvous_is_stable_and_spreads_keys() {
        let inner = test_inner(&[
            "127.0.0.1:9001",
            "127.0.0.1:9002",
            "127.0.0.1:9003",
            "127.0.0.1:9004",
        ]);
        let mut per_shard = [0usize; 4];
        for key in 0..4096u64 {
            let a = inner.route(key, 0).unwrap();
            let b = inner.route(key, 0).unwrap();
            assert_eq!(a, b, "placement must be deterministic");
            per_shard[a] += 1;
        }
        for (i, &n) in per_shard.iter().enumerate() {
            // A uniform split is 1024 per shard; allow generous skew.
            assert!(
                (512..=1536).contains(&n),
                "shard {i} got {n}/4096 keys: {per_shard:?}"
            );
        }
    }

    #[test]
    fn losing_a_shard_only_moves_its_own_keys() {
        let inner = test_inner(&["127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"]);
        let before: Vec<usize> = (0..1024u64).map(|k| inner.route(k, 0).unwrap()).collect();
        inner.shards[1].set_health(Health::Down);
        for (k, &home) in before.iter().enumerate() {
            let now = inner.route(k as u64, 0).unwrap();
            if home != 1 {
                assert_eq!(now, home, "key {k} moved although its home shard is fine");
            } else {
                assert_ne!(now, 1, "key {k} still routed to the down shard");
            }
        }
    }

    #[test]
    fn route_skips_unready_shards_and_respects_the_tried_mask() {
        let inner = test_inner(&["127.0.0.1:9001", "127.0.0.1:9002"]);
        let key = 42;
        let first = inner.route(key, 0).unwrap();
        let second = inner.route(key, 1 << first).unwrap();
        assert_ne!(first, second);
        assert_eq!(inner.route(key, (1 << first) | (1 << second)), None);
        // A parked (draining) shard is skipped while any up one remains,
        // but still beats a down shard as a last resort.
        inner.shards[first].set_health(Health::Parked);
        assert_eq!(inner.route(key, 0), Some(second));
        inner.shards[second].set_health(Health::Down);
        assert_eq!(inner.route(key, 0), Some(first));
    }

    /// Drives every `(from, probe outcome)` transition directly and checks
    /// that routing, `/readyz`, `/stats` and `/metrics` agree on the
    /// result — they all read the one atomic verdict.
    #[test]
    fn every_probe_transition_is_read_the_same_everywhere() {
        let coordinator = Coordinator {
            inner: Arc::new(test_inner(&["127.0.0.1:9001"])),
            threads: Mutex::new(Vec::new()),
        };
        let inner = &coordinator.inner;
        // `None` stands for a probe that got no answer at all.
        let outcomes = [
            (Some(200), Health::Up),
            (Some(503), Health::Parked),
            (None, Health::Down),
        ];
        for from in [Health::Up, Health::Parked, Health::Down] {
            for (status, expected) in outcomes {
                inner.shards[0].set_health(from);
                let probe = status.ok_or_else(|| std::io::ErrorKind::ConnectionRefused.into());
                inner.observe_probe(0, probe);
                let health = inner.shards[0].health();
                assert_eq!(health, expected, "{from:?} -> {expected:?}");
                let up = health == Health::Up;
                assert_eq!(coordinator.any_serviceable(), up, "readyz for {health:?}");
                assert_eq!(
                    inner.route(7, 0).is_some(),
                    health != Health::Down,
                    "route for {health:?}"
                );
                let stats = coordinator.stats_json();
                let shard = &stats.get("shards").unwrap().as_arr().unwrap()[0];
                assert_eq!(shard.get("state").unwrap().as_str(), Some(health.label()));
                let mut p = PromText::new();
                coordinator.append_prometheus(&mut p);
                let gauge = format!(
                    "bbs_coord_shard_serviceable{{shard=\"127.0.0.1:9001\"}} {}",
                    u8::from(up)
                );
                assert!(p.finish().contains(&gauge), "metrics for {health:?}");
            }
        }
    }

    /// A job whose shard refuses connections marks it down in the same
    /// store the prober uses; with nothing left to reroute to it fails
    /// with the same "no shard available" reason as a submit would.
    #[test]
    fn unavailable_shard_goes_down_and_exhaustion_reports_no_shard() {
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap().to_string();
        drop(dead);
        let mut inner = test_inner(&[&addr]);
        inner.retry.attempts = 1;
        let (tx, rx) = std::sync::mpsc::channel();
        inner.forward(0, job(1, "{}", tx));
        assert_eq!(inner.shards[0].health(), Health::Down);
        let message = match rx.recv().unwrap() {
            Err(ExecuteError::Failed(m)) => m,
            other => panic!("expected a failure, got {:?}", other.map(|(t, ..)| t)),
        };
        assert!(message.starts_with(NO_SHARD), "{message}");
        assert_eq!(inner.route(1, 0), None);
    }

    type Outcome = Result<(Arc<str>, Served, Timing), ExecuteError>;

    fn job(key: u64, body: &str, tx: std::sync::mpsc::Sender<Outcome>) -> Job {
        Job {
            body: body.to_string(),
            key,
            done: Box::new(move |r| tx.send(r).unwrap()),
            tried: 0,
        }
    }

    /// A one-shot shard: reads one request, answers it with `body` as a
    /// 200 `/simulate` response, then closes.
    fn canned_shard(body: String) -> String {
        let response = format!(
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
             connection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        crate::client::tests::canned_server(response).to_string()
    }

    fn shard_answer(key: u64) -> String {
        crate::server::simulate_ok_body(key, Served::Hit, "{\"cycles\":1}")
    }

    #[test]
    fn echoed_key_mismatch_is_a_definitive_error() {
        let inner = test_inner(&[&canned_shard(shard_answer(0xbad))]);
        let (tx, rx) = std::sync::mpsc::channel();
        inner.forward(0, job(0x600d, "{}", tx));
        let message = match rx.recv().unwrap() {
            Err(ExecuteError::Failed(m)) => m,
            other => panic!(
                "mismatch must not succeed, got {:?}",
                other.map(|(t, ..)| t)
            ),
        };
        assert!(message.contains("keyed the cell differently"), "{message}");
        assert!(message.contains("0000000000000bad"), "{message}");
        // Definitive: counted as an error, but the shard stays routable.
        assert_eq!(inner.shards[0].errors.load(Ordering::Relaxed), 1);
        assert_eq!(inner.shards[0].health(), Health::Up);
    }

    #[test]
    fn echoed_key_match_completes_with_the_result_bytes() {
        let inner = test_inner(&[&canned_shard(shard_answer(0x600d))]);
        let (tx, rx) = std::sync::mpsc::channel();
        inner.forward(0, job(0x600d, "{}", tx));
        match rx.recv().unwrap() {
            Ok((text, served, _)) => {
                assert_eq!(&*text, "{\"cycles\":1}");
                assert_eq!(served, Served::Hit);
            }
            Err(e) => panic!("matching key must succeed: {e:?}"),
        }
    }
}
