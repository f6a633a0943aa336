//! The fuzz campaign's case set depends only on `(FUZZ_SEED, FUZZ_ITERS)`:
//! `BENCH_WORKERS` caps how many shards run at once, never how the cases
//! are split between them.

use std::path::Path;
use std::process::Command;

/// Run a 40-case campaign of the `fuzz` binary under
/// `BENCH_WORKERS=workers`. Returns its summary line.
fn campaign(workers: usize) -> String {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("fuzz-shards-w{workers}"));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_fuzz"))
        .env("FUZZ_ITERS", "40")
        .env("BENCH_WORKERS", workers.to_string())
        .env("FUZZ_OUT", &out)
        .env_remove("FUZZ_SEED")
        .env_remove("FUZZ_FAULT_EVERY")
        .env_remove("FUZZ_SELFCHECK")
        .output()
        .expect("run the fuzz binary");
    let stdout = String::from_utf8_lossy(&run.stdout).into_owned();
    assert!(
        run.status.success(),
        "BENCH_WORKERS={workers}: fuzz failed\n{stdout}{}",
        String::from_utf8_lossy(&run.stderr)
    );
    stdout
        .lines()
        .find(|l| l.starts_with("fuzz: 40 cases"))
        .unwrap_or_else(|| panic!("BENCH_WORKERS={workers}: no summary line in\n{stdout}"))
        .to_string()
}

#[test]
fn campaign_does_not_depend_on_the_worker_bound() {
    assert_eq!(campaign(1), campaign(3), "summary line");
}
