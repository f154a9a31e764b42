//! `repro`: `BBS_CAP=256 repro`, with stdout compared byte for byte with
//! `tests/golden/repro_cap256.txt`. The paper-reproduction user; every
//! serve layer is bypassed.

use crate::fleet::Bins;
use crate::{procfs, stats, Args, Metrics, Tally};
use bbs_bench::experiments;
use bbs_json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The argument that makes `perfbench` run the experiments itself (the
/// traced repro), timing each one.
pub const CHILD_FLAG: &str = "--timed-experiments";
const GOLDEN: &str = "tests/golden/repro_cap256.txt";
const CAP: &str = "256";
/// Separates the repro output from the child's timings.
const MARKER: &str = "#perfbench-timings ";
/// Process launches timed per run for `setup_s`: a launch takes about a
/// millisecond, so one launch reads mostly scheduling noise.
const LAUNCHES: usize = 21;

/// Every experiment `repro` runs, in its order.
pub const EXPERIMENTS: [(&str, fn()); 16] = [
    ("tab01", experiments::tab01::run),
    ("fig03", experiments::fig03::run),
    ("fig06", experiments::fig06::run),
    ("fig11", experiments::fig11::run),
    ("tab02", experiments::tab02::run),
    ("tab03", experiments::tab03::run),
    ("fig12", experiments::fig12::run),
    ("fig13", experiments::fig13::run),
    ("fig14", experiments::fig14::run),
    ("fig15", experiments::fig15::run),
    ("tab04", experiments::tab04::run),
    ("tab05", experiments::tab05::run),
    ("fig16", experiments::fig16::run),
    ("fig17", experiments::fig17::run),
    ("tab06", experiments::tab06::run),
    ("ablations", experiments::ablations::run),
];

/// The traced repro, run in a child process: the same header and
/// experiments as `repro`, then one line of per-experiment seconds.
pub fn child() {
    println!(
        "# BBS / BitVert — full reproduction run (seed {}, cap {})",
        bbs_bench::SEED,
        bbs_bench::weight_cap()
    );
    let times: Vec<(&str, Json)> = EXPERIMENTS
        .iter()
        .map(|(id, run)| {
            let started = Instant::now();
            run();
            (*id, Json::Num(started.elapsed().as_secs_f64()))
        })
        .collect();
    println!("{MARKER}{}", Json::obj(times));
    std::io::stdout().flush().expect("flushing stdout");
}

fn command(program: &Path) -> Command {
    let mut cmd = Command::new(program);
    cmd.env("BBS_CAP", CAP)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    cmd
}

/// Seconds from launch to `repro`'s first output line; the process is
/// then killed.
fn launch_s(bins: &Bins) -> Result<f64, String> {
    let started = Instant::now();
    let mut child = command(&bins.repro)
        .spawn()
        .map_err(|e| format!("cannot start repro: {e}"))?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("piped")).read_line(&mut line);
    let secs = started.elapsed().as_secs_f64();
    procfs::signal(&child, procfs::SIGKILL);
    let _ = child.wait();
    match read {
        Ok(n) if n > 0 => Ok(secs),
        _ => Err("repro printed nothing".into()),
    }
}

/// One full run: wall seconds, resource use and stdout.
fn run_once(mut cmd: Command) -> Result<(f64, procfs::Reaped, String), String> {
    let started = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("cannot start: {e}"))?;
    let mut out = String::new();
    let read = child.stdout.take().expect("piped").read_to_string(&mut out);
    let reaped = procfs::wait_reaped(&child).map_err(|e| e.to_string())?;
    read.map_err(|e| format!("reading stdout: {e}"))?;
    Ok((started.elapsed().as_secs_f64(), reaped, out))
}

pub fn run(bins: &Bins, args: &Args) -> Result<(Tally, Metrics, String), String> {
    let golden = std::fs::read_to_string(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}"))?;
    let backend = bbs_tensor::lanes::Backend::active().label().to_string();
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let started = Instant::now();
    let mut walls = Vec::new();
    let (mut cpu_s, mut peak) = (0.0, 0.0f64);
    // The window holds whole runs: at least one, more while time is left.
    loop {
        let (wall, reaped, out) = run_once(command(&bins.repro))?;
        tally.check(reaped.success && out == golden, || {
            "repro stdout differs from the golden file".into()
        });
        walls.push(wall);
        cpu_s += reaped.cpu_s;
        peak = peak.max(reaped.peak_rss_mb);
        if args.trace || started.elapsed() >= args.window {
            break;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let items = (walls.len() * EXPERIMENTS.len()) as f64;
    if args.trace {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = command(&exe);
        cmd.arg(CHILD_FLAG);
        let (wall, reaped, out) = run_once(cmd)?;
        let (body, times) = out.rsplit_once(MARKER).unwrap_or((&out, ""));
        tally.check(reaped.success && body == golden, || {
            "timed experiments' stdout differs from the golden file".into()
        });
        let times = Json::parse(times.trim()).map_err(|e| format!("child timings: {e}"))?;
        let mut timed = 0.0;
        for (id, _) in EXPERIMENTS {
            let secs = times.get(id).and_then(Json::as_f64).unwrap_or(0.0);
            timed += secs;
            m.insert(&format!("experiments.{id}_s"), secs);
        }
        m.insert("experiments.other_s", wall - timed);
        m.insert("trace.overhead_pct", (wall / walls[0] - 1.0) * 100.0);
    } else {
        let launches = (0..LAUNCHES)
            .map(|_| launch_s(bins))
            .collect::<Result<Vec<_>, _>>()?;
        m.insert("setup_s", stats::median(&launches).unwrap_or(0.0));
        m.insert("items_per_s", items / elapsed);
        m.insert("call_p50_ms", stats::median(&walls).unwrap_or(0.0) * 1e3);
        m.insert(
            "call_tail_ms",
            stats::quantile(&walls, stats::tail_quantile(walls.len())).unwrap_or(0.0) * 1e3,
        );
        m.insert("cpu_ms_per_item", cpu_s * 1e3 / items);
        m.insert("peak_rss_mb", peak);
    }
    m.insert("ok_share", tally.ok_share());
    Ok((tally, m, backend))
}
