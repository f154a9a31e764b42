//! Building the program under test and running `bbs serve` processes.

use crate::procfs;
use crate::scrape::Prom;
use bbs_json::Json;
use bbs_serve::client::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The binaries the benchmark drives, built from the checkout.
pub struct Bins {
    pub bbs: PathBuf,
    pub repro: PathBuf,
}

/// Builds `bbs` and `repro` in release mode from the workspace in the
/// current directory, into `$CARGO_TARGET_DIR` (or `target`).
pub fn build() -> Result<Bins, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--bin",
            "bbs",
            "--bin",
            "repro",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of bbs and repro failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bins = Bins {
        bbs: target.join("release/bbs"),
        repro: target.join("release/repro"),
    };
    for bin in [&bins.bbs, &bins.repro] {
        if !bin.is_file() {
            return Err(format!("built binary missing at {}", bin.display()));
        }
    }
    Ok(bins)
}

/// One `bbs serve` process on an ephemeral loopback port. Dropping it
/// without [`Server::stop`] kills the process and reaps it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Held open so the server's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    stopped: bool,
}

const READY_TIMEOUT: Duration = Duration::from_secs(30);
const STOP_TIMEOUT: Duration = Duration::from_secs(15);

impl Server {
    /// Starts `bbs serve --addr 127.0.0.1:0 <extra>` and reads the bound
    /// address from its startup line.
    pub fn spawn(bins: &Bins, extra: &[&str]) -> Result<Server, String> {
        let mut child = Command::new(&bins.bbs)
            .args(["serve", "--addr", "127.0.0.1:0", "--log-level", "error"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bins.bbs.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.split("http://").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let server = Server {
            child,
            addr: addr.unwrap_or_else(|| ([127, 0, 0, 1], 0).into()),
            _stdout: stdout,
            stopped: false,
        };
        match addr {
            Some(_) => Ok(server),
            None => Err(format!("bbs serve printed no address: {line:?}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Polls `GET /readyz` until it answers 200.
    pub fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Ok((200, _)) = self.request("GET", "/readyz", "") {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!("{} not ready after {READY_TIMEOUT:?}", self.addr));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// One request on a fresh connection.
    pub fn request(&self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        Client::connect_with_timeout(self.addr, Duration::from_secs(60))?
            .request(method, path, body)
    }

    fn get_ok(&self, path: &str) -> Result<String, String> {
        match self.request("GET", path, "") {
            Ok((200, body)) => Ok(body),
            Ok((status, body)) => Err(format!("GET {path}: {status} {body}")),
            Err(e) => Err(format!("GET {path}: {e}")),
        }
    }

    /// `GET /stats`.
    pub fn stats(&self) -> Result<Json, String> {
        Json::parse(&self.get_ok("/stats")?).map_err(|e| format!("/stats: {e}"))
    }

    /// `GET /metrics`.
    pub fn metrics(&self) -> Result<Prom, String> {
        Ok(Prom::parse(&self.get_ok("/metrics")?))
    }

    /// SIGTERM (graceful drain), then SIGKILL past the stop deadline.
    pub fn stop(mut self) -> Result<(), String> {
        self.stopped = true;
        procfs::signal(&self.child, procfs::SIGTERM);
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("bbs serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(format!("bbs serve ignored SIGTERM for {STOP_TIMEOUT:?}"));
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `/stats` and `/metrics` of a group of servers at one instant.
pub struct Snapshot {
    stats: Vec<Json>,
    prom: Vec<Prom>,
}

impl Snapshot {
    pub fn take(servers: &[&Server]) -> Result<Snapshot, String> {
        Ok(Snapshot {
            stats: servers
                .iter()
                .map(|s| s.stats())
                .collect::<Result<_, _>>()?,
            prom: servers
                .iter()
                .map(|s| s.metrics())
                .collect::<Result<_, _>>()?,
        })
    }

    /// Change of a `/stats` field since `before`, summed over the group.
    pub fn delta(&self, before: &Snapshot, path: &str) -> f64 {
        self.stats
            .iter()
            .zip(&before.stats)
            .map(|(a, b)| crate::scrape::stat(a, path) - crate::scrape::stat(b, path))
            .sum()
    }

    /// What histogram `name` recorded since `before`, over the group.
    pub fn hist(&self, before: &Snapshot, name: &str) -> crate::scrape::HistDelta {
        self.prom.iter().zip(&before.prom).fold(
            crate::scrape::HistDelta {
                sum: 0.0,
                count: 0.0,
            },
            |acc, (a, b)| {
                let d = crate::scrape::HistDelta::between(b, a, name);
                crate::scrape::HistDelta {
                    sum: acc.sum + d.sum,
                    count: acc.count + d.count,
                }
            },
        )
    }
}

/// `hits / (hits + misses)`, 0 when there were no lookups.
pub fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// The server-side per-layer metrics every serve workload reports from
/// the `/stats` and `/metrics` deltas of its simulating servers.
pub fn service_layers(before: &Snapshot, after: &Snapshot, out: &mut crate::Metrics) {
    out.insert(
        "cache.hit_ratio",
        ratio(
            after.delta(before, "cache_hits"),
            after.delta(before, "cache_misses"),
        ),
    );
    out.insert(
        "workload.hit_ratio",
        ratio(
            after.delta(before, "workload_hits"),
            after.delta(before, "workload_misses"),
        ),
    );
    out.insert("service.sim_runs", after.delta(before, "sim_runs"));
    out.insert("service.coalesced", after.delta(before, "coalesced"));
    out.insert(
        "service.queue_ms",
        after.hist(before, "bbs_stage_queue_seconds").mean(1e3),
    );
}

/// The kernel lane backend a server reports in `/stats`.
pub fn backend(server: &Server) -> Result<String, String> {
    Ok(server
        .stats()?
        .get("simd_backend")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string())
}

/// One numeric `/stats` field of a server.
pub fn stat_of(server: &Server, path: &str) -> Result<f64, String> {
    Ok(crate::scrape::stat(&server.stats()?, path))
}
