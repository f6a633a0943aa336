//! Differential fuzzing campaign driver.
//!
//! Generates seeded random `omp_ir` programs, runs each under all four
//! processor-usage modes with the trace oracle and the analyzer-backed
//! gate expectation, deduplicates failures by structural fingerprint,
//! auto-shrinks each unique failure to a 1-minimal repro, and writes
//! replayable artifacts.
//!
//! Environment:
//!
//! * `FUZZ_ITERS` — cases to run (default 500);
//! * `FUZZ_SEED` — master seed (default 1); the campaign is a pure
//!   function of `(FUZZ_SEED, FUZZ_ITERS)` regardless of host threads
//!   (`BENCH_WORKERS` only caps how many shards run at once);
//! * `FUZZ_OUT` — output directory (default `fuzz-out`): receives
//!   `repro-<fingerprint>.json` and `failures.json`;
//! * `FUZZ_SELFCHECK` — when `1`, instead of a campaign, verify that
//!   every seeded engine-mutation class is caught, minimized to ≤ 25 IR
//!   nodes, and reproducible from its serialized artifact alone;
//! * `FUZZ_FAULT_EVERY` — run every n-th case's slipstream modes under
//!   a seeded fault plan (default 5; 0 disables).
//!
//! Exit status is non-zero when any failure (or self-check problem) was
//! found.

use bench::{env, pool};
use omp_fuzz::{run_campaign, self_check_mutation, CampaignConfig, CampaignResult};
use slipstream::EngineMutation;
use std::path::Path;

/// Shards per campaign. Fixed, so the case set never depends on the
/// host: shard `k` of master seed `s` runs its own campaign from
/// `s + k`, and the worker pool only caps how many run at once.
const SHARDS: u64 = 4;

/// Split `total` cases over `shards` as evenly as possible, dropping
/// empty shards.
fn shard_iters(total: u64, shards: u64) -> Vec<u64> {
    (0..shards)
        .map(|k| total / shards + u64::from(k < total % shards))
        .filter(|&n| n > 0)
        .collect()
}

fn merge(shards: Vec<CampaignResult>) -> CampaignResult {
    let mut out = CampaignResult {
        cases: 0,
        class_counts: [0; 3],
        faulted_cases: 0,
        repros: Vec::new(),
        fingerprint_counts: Vec::new(),
    };
    for r in shards {
        out.cases += r.cases;
        for (i, c) in r.class_counts.iter().enumerate() {
            out.class_counts[i] += c;
        }
        out.faulted_cases += r.faulted_cases;
        for ((fp, n), repro) in r.fingerprint_counts.into_iter().zip(r.repros) {
            match out.fingerprint_counts.iter_mut().find(|(k, _)| *k == fp) {
                Some(entry) => entry.1 += n,
                None => {
                    out.fingerprint_counts.push((fp, n));
                    out.repros.push(repro);
                }
            }
        }
    }
    out
}

fn write(path: &Path, contents: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn self_check(seed: u64, out_dir: &Path) -> bool {
    let mut ok = true;
    for mutation in EngineMutation::ALL_BROKEN {
        match self_check_mutation(mutation, seed, 40) {
            Ok(repro) => {
                let nodes = repro.program.node_count();
                let small_enough = nodes <= 25;
                println!(
                    "fuzz self-check: {} caught as `{}`, minimized to {} nodes{}",
                    mutation.label(),
                    repro.failure.fingerprint_key(),
                    nodes,
                    if small_enough { "" } else { " (TOO LARGE)" }
                );
                write(
                    &out_dir.join(format!("selfcheck-{}.json", mutation.label())),
                    &repro.to_json(),
                );
                ok &= small_enough;
            }
            Err(e) => {
                eprintln!("fuzz self-check FAILURE for {}: {e}", mutation.label());
                ok = false;
            }
        }
    }
    ok
}

fn main() {
    let iters = env::get_or("FUZZ_ITERS", 500);
    let seed = env::get_or("FUZZ_SEED", 1);
    let fault_every = env::get_or("FUZZ_FAULT_EVERY", 5);
    let out_dir = env::string_or("FUZZ_OUT", "fuzz-out");
    let out_dir = Path::new(&out_dir);

    if env::get_or("FUZZ_SELFCHECK", 0) == 1 {
        if self_check(seed, out_dir) {
            println!("fuzz self-check: all mutation classes caught, minimized, and replayable");
            return;
        }
        std::process::exit(1);
    }

    let shards = shard_iters(iters, SHARDS);
    eprintln!(
        "fuzz: {iters} cases from seed {seed} across {} shards…",
        shards.len()
    );
    type Task = Box<dyn FnOnce() -> CampaignResult + Send>;
    let tasks: Vec<Task> = shards
        .iter()
        .enumerate()
        .map(|(k, &n)| {
            let mut cfg = CampaignConfig::new(n, seed + k as u64);
            cfg.fault_every = (fault_every > 0).then_some(fault_every);
            Box::new(move || run_campaign(&cfg)) as Task
        })
        .collect();
    let mut results = Vec::new();
    let mut harness_failures = 0;
    for (k, res) in pool::run_all_caught(tasks).into_iter().enumerate() {
        match res {
            Ok(r) => results.push(r),
            Err(e) => {
                eprintln!("fuzz: shard {k} panicked: {e}");
                harness_failures += 1;
            }
        }
    }
    let merged = merge(results);

    for repro in &merged.repros {
        write(&out_dir.join(repro.file_name()), &repro.to_json());
    }
    write(&out_dir.join("failures.json"), &merged.summary_json());

    println!(
        "fuzz: {} cases ({} exact / {} converge-only / {} deny, {} faulted), \
         {} unique failures",
        merged.cases,
        merged.class_counts[0],
        merged.class_counts[1],
        merged.class_counts[2],
        merged.faulted_cases,
        merged.repros.len(),
    );
    for ((fp, n), repro) in merged.fingerprint_counts.iter().zip(&merged.repros) {
        eprintln!(
            "fuzz FAILURE {fp} x{n}: {} (minimized to {} nodes, seed {})",
            repro.failure.fingerprint_key(),
            repro.program.node_count(),
            repro.seed.map_or("-".into(), |s| s.to_string()),
        );
    }
    if !merged.clean() || harness_failures > 0 {
        eprintln!(
            "fuzz: artifacts in {} (replay any repro with its embedded program alone)",
            out_dir.display()
        );
        std::process::exit(1);
    }
    println!("fuzz: campaign clean");
}
