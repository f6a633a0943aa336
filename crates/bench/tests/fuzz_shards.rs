//! The fuzz campaign's case set depends only on `(FUZZ_SEED, FUZZ_ITERS)`:
//! `BENCH_WORKERS` caps how many shards run at once, never how the cases
//! are split between them.

use std::path::Path;
use std::process::Command;

/// Run a 40-case campaign of the `fuzz` binary under
/// `BENCH_WORKERS=workers`. Returns its summary line and the sorted
/// file names of the corpus it promoted.
fn campaign(workers: usize) -> (String, Vec<String>) {
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
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("fuzz: 40 cases"))
        .unwrap_or_else(|| panic!("BENCH_WORKERS={workers}: no summary line in\n{stdout}"))
        .to_string();
    let mut corpus: Vec<String> = std::fs::read_dir(out.join("corpus"))
        .expect("read the corpus directory")
        .map(|e| {
            e.expect("corpus entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    corpus.sort();
    (summary, corpus)
}

#[test]
fn campaign_does_not_depend_on_the_worker_bound() {
    let (one, one_corpus) = campaign(1);
    let (three, three_corpus) = campaign(3);
    assert_eq!(one, three, "summary line");
    assert_eq!(one_corpus, three_corpus, "promoted corpus");
}
