//! Simulation-throughput tracker: simulated cycles per wall second.
//!
//! Runs the fixed fig2-style workload set (the five kernels under the
//! four static modes on the 4-CMP bench machine) and reports, for each
//! benchmark/mode pair, how many simulated cycles the engine retires
//! per second of host wall time. Writes `BENCH_throughput.json` at the
//! repo root so the perf trajectory is tracked across PRs.
//!
//! Each pair runs with memo off and on. The header carries the host's
//! core count, so trajectory scripts can tell a 1-core CI box from a
//! 32-core workstation. Memo-off rows hash to exactly the historical
//! configuration string and stay comparable across PRs; memo-on rows
//! extend the canonical string with `|memo=on` and form their own
//! trajectories. The tracker also cross-checks stats fingerprints
//! between the two and aborts on any divergence — a throughput number
//! from a wrong simulation is worse than none.
//!
//! Environment:
//! - `THROUGHPUT_PRESET`: `tiny` (default) or `paper` workload presets.
//! - `THROUGHPUT_ITERS`: wall-time repetitions per pair; the best
//!   (minimum) time is reported (default 3).
//! - `THROUGHPUT_OUT`: override the output path.

use bench::{
    config_hash, small_machine, summary_fingerprint, throughput_config_string, STATIC_MODES,
};
use npb_kernels::Benchmark;
use omp_rt::RuntimeEnv;
use slipstream::runner::{run_program, RunOptions};
use std::time::Instant;

struct Row {
    benchmark: &'static str,
    mode: &'static str,
    exec_cycles: u64,
    wall_ns: u128,
    /// FNV-1a hash of the run's canonical configuration string. Rows with
    /// different hashes were measured under different conditions and must
    /// not be compared by trajectory scripts.
    config_hash: u64,
    /// Whether event tracing was enabled during the timed runs (always
    /// false here; the field exists so traced one-off numbers can never
    /// masquerade as baseline throughput).
    trace: bool,
    /// Whether memoized phase replay was enabled. Memo-on rows measure
    /// the replay speedup; their stats fingerprints are cross-checked
    /// against the memo-off rows before any number is written.
    memo: bool,
}

impl Row {
    fn cycles_per_sec(&self) -> f64 {
        self.exec_cycles as f64 / (self.wall_ns as f64 / 1e9)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"benchmark\":\"{}\",\"mode\":\"{}\",\
             \"exec_cycles\":{},\"wall_ns\":{},\"cycles_per_sec\":{:.1},\
             \"config_hash\":\"{:016x}\",\"trace\":{},\"memo\":{}}}",
            self.benchmark,
            self.mode,
            self.exec_cycles,
            self.wall_ns,
            self.cycles_per_sec(),
            self.config_hash,
            self.trace,
            self.memo,
        )
    }
}

fn main() {
    let preset = bench::env::string_or("THROUGHPUT_PRESET", "tiny");
    let iters: u32 = bench::env::get_or("THROUGHPUT_ITERS", 3).max(1);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let machine = small_machine();

    let mut rows = Vec::new();
    for bm in Benchmark::ALL {
        let program = match preset.as_str() {
            "paper" => bm.build_paper(None),
            _ => bm.build_tiny(),
        };
        for (label, mode, sync) in STATIC_MODES {
            // One fingerprint per benchmark/mode pair: a memo-on row that
            // diverges from the memo-off baseline aborts the tracker
            // before any number is written.
            let mut fingerprint: Option<String> = None;
            for memo in [false, true] {
                let mut o = RunOptions::new(mode)
                    .with_machine(machine.clone())
                    .with_memo(memo);
                o.sync = sync;
                o.env = RuntimeEnv::default();
                let mut best = u128::MAX;
                let mut exec_cycles = 0u64;
                for _ in 0..iters {
                    let t0 = Instant::now();
                    let s = run_program(&program, &o).expect("simulation failed");
                    best = best.min(t0.elapsed().as_nanos().max(1));
                    exec_cycles = s.exec_cycles;
                    let fp = summary_fingerprint(&s);
                    match &fingerprint {
                        None => fingerprint = Some(fp),
                        Some(want) => assert_eq!(
                            want,
                            &fp,
                            "fingerprint divergence: {} {label} at memo={memo} does \
                             not match the memo-off baseline",
                            bm.name()
                        ),
                    }
                }
                // Memo-off rows hash to the historical canonical string
                // so old trajectories keep matching; memo-on rows extend
                // it.
                let mut canonical =
                    throughput_config_string(&machine, &preset, bm.name(), label, false);
                if memo {
                    canonical.push_str("|memo=on");
                }
                let row = Row {
                    benchmark: bm.name(),
                    mode: label,
                    exec_cycles,
                    wall_ns: best,
                    config_hash: config_hash(&canonical),
                    trace: false,
                    memo,
                };
                println!(
                    "{:<4} {:<8} memo={:<5} {:>12} cycles {:>12.3} ms {:>14.0} cyc/s",
                    row.benchmark,
                    row.mode,
                    row.memo,
                    row.exec_cycles,
                    row.wall_ns as f64 / 1e6,
                    row.cycles_per_sec()
                );
                rows.push(row);
            }
        }
    }

    let out_path = bench::env::string_or(
        "THROUGHPUT_OUT",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json"),
    );
    let items: Vec<String> = rows.iter().map(|r| r.to_json()).collect();
    let json = format!(
        "{{\"preset\":\"{}\",\"iters\":{},\"host_cores\":{},\"rows\":[\n{}\n]}}\n",
        preset,
        iters,
        host_cores,
        items.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write BENCH_throughput.json");
    println!("wrote {out_path}");
}
