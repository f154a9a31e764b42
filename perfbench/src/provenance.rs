//! Where a result came from: host, toolchain, revision, command, seed,
//! and the code size it was measured on.

use crate::Args;
use bbs_json::Json;
use std::path::Path;
use std::process::Command;

/// CPU features the kernels dispatch on, as `/proc/cpuinfo` names them.
const FEATURES: [&str; 8] = [
    "sse4_2", "avx", "avx2", "fma", "bmi2", "avx512f", "asimd", "sve",
];

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_features() -> Vec<Json> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags") || l.starts_with("Features"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, f)| f.split_whitespace().collect())
        .unwrap_or_default();
    FEATURES
        .iter()
        .filter(|f| flags.contains(f))
        .map(|f| Json::str(f))
        .collect()
}

/// Lines of Rust before the first `#[cfg(test)]` of each file: the
/// non-test code, since unit tests sit in a trailing module.
fn non_test_lines(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| e.path())
        .map(|p| {
            if p.is_dir() {
                non_test_lines(&p)
            } else if p.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&p)
                    .unwrap_or_default()
                    .lines()
                    .take_while(|l| l.trim() != "#[cfg(test)]")
                    .count()
            } else {
                0
            }
        })
        .sum()
}

fn line_counts() -> Json {
    let mut crates: Vec<(String, Json)> = std::fs::read_dir("crates")
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let lines = non_test_lines(&e.path().join("src"));
            (name, Json::from_usize(lines))
        })
        .collect();
    crates.push((
        "bbs".to_string(),
        Json::from_usize(non_test_lines(Path::new("src"))),
    ));
    crates.sort_by(|a, b| a.0.cmp(&b.0));
    Json::obj(
        crates
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect(),
    )
}

/// Milliseconds a fixed integer loop takes: the host's speed at that
/// moment. On a shared host it drifts by tens of percent over minutes;
/// comparing probes tells host drift from a change in the program.
pub fn host_probe_ms() -> f64 {
    let started = std::time::Instant::now();
    let mut x = 0u64;
    for _ in 0..20_000_000u32 {
        x = crate::splitmix64(std::hint::black_box(x));
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// The provenance record printed with every result; `probes` are
/// [`host_probe_ms`] before and after the workload.
pub fn collect(args: &Args, simd_backend: &str, probes: [f64; 2]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let git = first_line_of("git", &["rev-parse", "HEAD"]);
    Json::obj(vec![
        ("nproc", Json::from_usize(nproc)),
        ("cpu_features", Json::Arr(cpu_features())),
        ("simd_backend", Json::str(simd_backend)),
        ("rustc", Json::str(&first_line_of("rustc", &["--version"]))),
        ("git_rev", Json::str(&git)),
        (
            "command",
            Json::str(&std::env::args().collect::<Vec<_>>().join(" ")),
        ),
        ("workload", Json::str(&args.workload)),
        ("seed", Json::from_u64(args.seed)),
        ("window_s", Json::from_u64(args.window.as_secs())),
        ("trace", Json::Bool(args.trace)),
        (
            "host_probe_ms",
            Json::Arr(probes.iter().map(|&p| Json::Num(p)).collect()),
        ),
        ("non_test_lines", line_counts()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_modules_are_not_counted() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("lines-test-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(
            dir.join("a.rs"),
            "fn a() {}\n\n#[cfg(test)]\nmod tests {}\n",
        )
        .unwrap();
        std::fs::write(dir.join("sub/b.rs"), "fn b() {}\nfn c() {}\n").unwrap();
        std::fs::write(dir.join("notes.md"), "not rust\n").unwrap();
        assert_eq!(non_test_lines(&dir), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
