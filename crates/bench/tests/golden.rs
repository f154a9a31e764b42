//! Golden-run regression harness: the full `repro` driver at a small
//! weight cap, diffed byte-for-byte against a committed transcript.
//!
//! Every number in `tests/golden/repro_cap256.txt` flows through the
//! compression kernels, the wave schedulers and the energy models, so a
//! kernel refactor that silently perturbs any of them — a changed
//! rounding tie, a reordered float accumulation, a different wave split —
//! fails this test instead of drifting the paper tables unnoticed. (The
//! parallel sweeps are order-preserving by construction, so thread count
//! does not affect the bytes; PRs 3/4 verified the pinned output across
//! kernel rewrites by hand, this test automates exactly that check.)
//!
//! To refresh after an *intentional* output change:
//!
//! ```sh
//! BBS_CAP=256 cargo run --release --bin repro > tests/golden/repro_cap256.txt
//! ```

use std::process::Command;
use std::time::Instant;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/repro_cap256.txt"
);

/// Points at the first differing line so a drift is debuggable from the
/// test log without re-running anything.
fn first_divergence(expected: &str, actual: &str) -> String {
    for (n, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!(
                "first diff at line {}:\n  golden: {e}\n  actual: {a}",
                n + 1
            );
        }
    }
    format!(
        "line counts differ: golden {} vs actual {}",
        expected.lines().count(),
        actual.lines().count()
    )
}

#[test]
fn repro_small_cap_stdout_is_byte_identical_to_golden() {
    let golden = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("missing golden transcript {GOLDEN}: {e}"));
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .env("BBS_CAP", "256")
        .env_remove("RAYON_NUM_THREADS") // bit-identical regardless, but pin the default
        .output()
        .expect("run repro binary");
    let wall = started.elapsed();
    assert!(
        out.status.success(),
        "repro exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("repro stdout is utf-8");
    assert!(
        actual == golden,
        "repro output drifted from tests/golden/repro_cap256.txt\n{}\n\
         If the change is intentional, regenerate with:\n  \
         BBS_CAP=256 cargo run --release --bin repro > tests/golden/repro_cap256.txt",
        first_divergence(&golden, &actual)
    );
    // Printed after the comparison, so a CI log run with `--nocapture`
    // records the repro wall-clock of every passing build.
    eprintln!(
        "repro (BBS_CAP=256) wall-clock: {:.2} s",
        wall.as_secs_f64()
    );
}
