//! `perfbench` — the end-to-end and per-layer benchmark of this repository.
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload simulate-hit --seed 1 --seconds 8 --trace 0
//! ```
//!
//! It builds `bbs` and `repro` from the checkout, starts `bbs serve` as
//! separate processes, drives one workload as a closed loop, checks every
//! output, and prints the metrics by name with their units. The last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). See `perfbench/README.md` for what each workload and
//! metric means.

mod coord;
mod fleet;
mod hit;
mod procfs;
mod provenance;
mod repro;
mod scrape;
mod stats;
mod sweep;

use bbs_json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["simulate-hit", "sweep-cold", "coord-sweep-warm", "repro"];

/// Fresh set-ups per end-to-end run of a serve workload. Each round gets
/// an equal share of the window and every metric is the median over
/// rounds, which keeps one slow stretch of a shared host from moving a
/// run's figures.
pub const ROUNDS: usize = 4;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_tail_ms", "ms"),
    ("cpu_ms_per_item", "ms"),
];

/// Per-layer metrics, in report order. A workload whose path skips a
/// layer reports it as 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        names.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut all = fixed(&[
        ("http.parse_us", "us"),
        ("request.decode_us", "us"),
        ("request.decode_us.spec", "us"),
        ("request.key_us", "us"),
        ("request.key_us.spec", "us"),
        ("cache.get_us", "us"),
        ("http.frame_us", "us"),
        ("event_loop.total_us", "us"),
        ("event_loop.other_us", "us"),
        ("client.overhead_us", "us"),
        ("client.name_p50_us", "us"),
        ("client.spec_p50_us", "us"),
        ("cache.hit_ratio", "ratio"),
        ("workload.hit_ratio", "ratio"),
        ("service.sim_runs", "count"),
        ("service.coalesced", "count"),
        ("service.queue_ms", "ms"),
        ("sweep.plan_us", "us"),
        ("workload.lower_ms", "ms"),
        ("workload.lower_ms.server", "ms"),
    ]);
    all.extend(
        bbs_serve::registry::ACCELERATOR_IDS
            .iter()
            .map(|a| (format!("engine.sim_ms.{a}"), "ms")),
    );
    all.extend(fixed(&[
        ("core.compress_ms.moderate", "ms"),
        ("core.compress_ms.conservative", "ms"),
        ("json.ser_us", "us"),
        ("sweep.record_us", "us"),
        ("service.other_ms", "ms"),
        ("coordinator.forward_us", "us"),
        ("shard.total_us", "us"),
        ("coordinator.overhead_us", "us"),
        ("coordinator.pool_reuse_ratio", "ratio"),
        ("coordinator.route_imbalance", "ratio"),
        ("coordinator.rerouted", "count"),
        ("coordinator.threads", "count"),
    ]));
    all.extend(
        repro::EXPERIMENTS
            .iter()
            .map(|(id, _)| (format!("experiments.{id}_s"), "s")),
    );
    all.extend(fixed(&[
        ("experiments.other_s", "s"),
        ("trace.overhead_pct", "%"),
    ]));
    all
}

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn insert(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Each metric's median over `rounds`.
    pub fn median_of(rounds: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        for name in rounds.iter().flat_map(|r| r.0.keys()) {
            let values: Vec<f64> = rounds.iter().filter_map(|r| r.get(name)).collect();
            out.insert(name, stats::median(&values).unwrap_or(0.0));
        }
        out
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The workload's premise did not hold (a `/stats` validity check).
    pub premise_broken: bool,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(why());
        }
    }

    /// Records that the run broke its workload's premise.
    pub fn premise(&mut self, holds: bool, why: impl FnOnce() -> String) {
        if !holds {
            self.premise_broken = true;
            self.note(format!("premise broken: {}", why()));
        }
    }

    /// Keeps `why` for the report without counting a failure.
    pub fn note(&mut self, why: String) {
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.premise_broken |= other.premise_broken;
        for p in other.problems {
            self.note(p);
        }
    }

    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// The command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs(seconds.unwrap_or(10).max(1)),
        trace: trace.unwrap_or(false),
    })
}

/// SplitMix64: the workload seed's generator for request seeds and
/// orders.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A base for distinct per-run synthesis seeds: `base + i` never repeats
/// within a run.
pub fn seed_base(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ stream.rotate_left(32)) % 1_000_000_000
}

fn run(args: &Args) -> Result<(Tally, Metrics, Json), String> {
    if !std::path::Path::new("crates/serve").is_dir() {
        return Err("run perfbench from the repository root (crates/serve not found)".into());
    }
    let bins = fleet::build()?;
    let probe_before = provenance::host_probe_ms();
    let (tally, metrics, backend) = match args.workload.as_str() {
        "simulate-hit" => hit::run(&bins, args)?,
        "sweep-cold" => sweep::run(&bins, args)?,
        "coord-sweep-warm" => coord::run(&bins, args)?,
        _ => repro::run(&bins, args)?,
    };
    let probes = [probe_before, provenance::host_probe_ms()];
    Ok((tally, metrics, provenance::collect(args, &backend, probes)))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(repro::CHILD_FLAG) {
        repro::child();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut tally, metrics, provenance) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let catalog: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut out = Vec::new();
    for (name, unit) in &catalog {
        // End-to-end metrics are measured on every workload; a per-layer
        // metric is absent only when the workload skips that layer.
        let value = match metrics.get(name) {
            Some(v) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        println!("{name:<32} {value:>16.6} {unit}");
        out.push((
            name.as_str(),
            Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    for p in &tally.problems {
        println!("problem: {p}");
    }
    println!("provenance: {provenance}");
    if tally.premise_broken {
        // A run whose traffic did not exercise the workload's premise
        // measured something else: none of its operations count.
        tally.failed = tally.attempted;
    }
    let result = Json::obj(vec![
        (
            "correct",
            Json::Bool(tally.failed == 0 && !tally.premise_broken),
        ),
        ("attempted", Json::from_u64(tally.attempted.max(1))),
        ("failed", Json::from_u64(tally.failed)),
        ("metrics", Json::obj(out)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn args_require_a_known_workload_and_seed() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload repro --seed 3 --seconds 5 --trace 1")).unwrap();
        assert_eq!((a.seed, a.window.as_secs(), a.trace), (3, 5, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload repro")).is_err());
        assert!(parse_args(&argv("--workload repro --seed")).is_err());
    }

    #[test]
    fn tally_counts_failures_and_premise() {
        let mut t = Tally::default();
        t.check(true, String::new);
        t.check(false, || "mismatch".into());
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.ok_share(), 0.5);
        t.premise(false, || "sim_runs moved".into());
        assert!(t.premise_broken);
        assert_eq!(t.problems.len(), 2);
    }

    #[test]
    fn seed_bases_differ_per_stream() {
        assert_ne!(seed_base(1, 0), seed_base(1, 1));
        assert_ne!(seed_base(1, 0), seed_base(2, 0));
        assert_eq!(seed_base(5, 3), seed_base(5, 3));
    }
}
