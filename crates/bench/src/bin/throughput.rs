//! Simulation-throughput tracker: simulated cycles per wall second, split
//! by layer.
//!
//! Runs the fixed fig2-style workload set (the five kernels under the
//! four static modes on the 4-CMP bench machine). Each run goes through
//! the three layers `run_program` chains — the safety gate
//! (`gate_program`), the IR compile (`compile`) and the engine
//! (`run_compiled`) — timed one by one. The tracker makes
//! `THROUGHPUT_ITERS` rounds over all pairs, alternating pairs within a
//! round so host drift spreads over every row, and reports per pair the
//! median and interquartile range of the whole run plus the median of
//! each layer. It writes `BENCH_throughput.json` at the repo root so the
//! perf trajectory is tracked across PRs.
//!
//! The header carries the host's core count, so trajectory scripts can
//! tell a 1-core CI box from a 32-core workstation. Rows hash to the
//! historical configuration string and stay comparable across PRs. The
//! tracker cross-checks the stats fingerprints of a pair's repeated runs
//! and aborts on any divergence — a throughput number from a
//! nondeterministic simulation is worse than none.
//!
//! Environment:
//! - `THROUGHPUT_PRESET`: `tiny` (default) or `paper` workload presets.
//! - `THROUGHPUT_ITERS`: rounds over the workload set (default 5).
//! - `THROUGHPUT_OUT`: override the output path.

use bench::{
    config_hash, small_machine, summary_fingerprint, throughput_config_string, STATIC_MODES,
};
use dsm_sim::AddressMap;
use npb_kernels::Benchmark;
use omp_ir::Program;
use omp_rt::RuntimeEnv;
use slipstream::gate::{analyze_config, gate_program};
use slipstream::runner::{run_compiled, RunOptions};
use slipstream::{compile, RunSummary};
use std::time::Instant;

/// Host nanoseconds of one run, layer by layer.
#[derive(Clone, Copy)]
struct Sample {
    gate: u128,
    compile: u128,
    engine: u128,
}

impl Sample {
    fn total(&self) -> u128 {
        (self.gate + self.compile + self.engine).max(1)
    }
}

/// One run as `run_program` makes it, timing each layer.
fn timed_run(program: &Program, o: &RunOptions) -> (Sample, RunSummary) {
    let t0 = Instant::now();
    let acfg = analyze_config(&o.machine, &o.policy, o.sync);
    gate_program(program, o.gate, &acfg).expect("gate refused a paper kernel");
    let t1 = Instant::now();
    let cp = compile(program, &AddressMap::new(&o.machine)).expect("compile failed");
    let t2 = Instant::now();
    let s = run_compiled(&cp, program.name.clone(), o).expect("simulation failed");
    let t3 = Instant::now();
    let sample = Sample {
        gate: (t1 - t0).as_nanos(),
        compile: (t2 - t1).as_nanos(),
        engine: (t3 - t2).as_nanos(),
    };
    (sample, s)
}

/// The `q`-quantile of sorted samples, interpolating between ranks.
fn quantile(sorted: &[u128], q: f64) -> u128 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    (sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * frac).round() as u128
}

fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> u128) -> u128 {
    let mut v: Vec<u128> = samples.iter().map(f).collect();
    v.sort_unstable();
    quantile(&v, 0.5)
}

struct Row {
    benchmark: &'static str,
    mode: &'static str,
    exec_cycles: u64,
    samples: Vec<Sample>,
    fingerprint: String,
    /// FNV-1a hash of the run's canonical configuration string. Rows with
    /// different hashes were measured under different conditions and must
    /// not be compared by trajectory scripts.
    config_hash: u64,
    /// Whether event tracing was enabled during the timed runs (always
    /// false here; the field exists so traced one-off numbers can never
    /// masquerade as baseline throughput).
    trace: bool,
}

impl Row {
    fn wall_ns(&self) -> u128 {
        median_of(&self.samples, Sample::total)
    }

    fn wall_iqr_ns(&self) -> u128 {
        let mut v: Vec<u128> = self.samples.iter().map(Sample::total).collect();
        v.sort_unstable();
        quantile(&v, 0.75) - quantile(&v, 0.25)
    }

    fn cycles_per_sec(&self) -> f64 {
        self.exec_cycles as f64 / (self.wall_ns() as f64 / 1e9)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"benchmark\":\"{}\",\"mode\":\"{}\",\
             \"exec_cycles\":{},\"wall_ns\":{},\"wall_iqr_ns\":{},\
             \"gate_ns\":{},\"compile_ns\":{},\"engine_ns\":{},\"cycles_per_sec\":{:.1},\
             \"config_hash\":\"{:016x}\",\"trace\":{}}}",
            self.benchmark,
            self.mode,
            self.exec_cycles,
            self.wall_ns(),
            self.wall_iqr_ns(),
            median_of(&self.samples, |s| s.gate),
            median_of(&self.samples, |s| s.compile),
            median_of(&self.samples, |s| s.engine),
            self.cycles_per_sec(),
            self.config_hash,
            self.trace,
        )
    }
}

fn main() {
    let preset = bench::env::string_or("THROUGHPUT_PRESET", "tiny");
    let iters: u32 = bench::env::get_or("THROUGHPUT_ITERS", 5).max(1);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let machine = small_machine();

    let mut pairs = Vec::new();
    for bm in Benchmark::ALL {
        let program = match preset.as_str() {
            "paper" => bm.build_paper(None),
            _ => bm.build_tiny(),
        };
        for (label, mode, sync) in STATIC_MODES {
            let mut o = RunOptions::new(mode).with_machine(machine.clone());
            o.sync = sync;
            o.env = RuntimeEnv::default();
            let canonical = throughput_config_string(&machine, &preset, bm.name(), label, false);
            let row = Row {
                benchmark: bm.name(),
                mode: label,
                exec_cycles: 0,
                samples: Vec::new(),
                fingerprint: String::new(),
                config_hash: config_hash(&canonical),
                trace: false,
            };
            pairs.push((program.clone(), o, row));
        }
    }
    for _ in 0..iters {
        for (program, o, row) in &mut pairs {
            let (sample, s) = timed_run(program, o);
            let fp = summary_fingerprint(&s);
            if row.samples.is_empty() {
                row.fingerprint = fp;
                row.exec_cycles = s.exec_cycles;
            } else {
                assert_eq!(
                    row.fingerprint, fp,
                    "fingerprint divergence: repeated {} {} runs disagree",
                    row.benchmark, row.mode
                );
            }
            row.samples.push(sample);
        }
    }

    let rows: Vec<Row> = pairs.into_iter().map(|(_, _, row)| row).collect();
    for row in &rows {
        println!(
            "{:<4} {:<8} {:>12} cycles {:>10.3} ms (iqr {:.3}; gate {:.3}, compile {:.3}, engine {:.3}) {:>14.0} cyc/s",
            row.benchmark,
            row.mode,
            row.exec_cycles,
            row.wall_ns() as f64 / 1e6,
            row.wall_iqr_ns() as f64 / 1e6,
            median_of(&row.samples, |s| s.gate) as f64 / 1e6,
            median_of(&row.samples, |s| s.compile) as f64 / 1e6,
            median_of(&row.samples, |s| s.engine) as f64 / 1e6,
            row.cycles_per_sec()
        );
    }
    let out_path = bench::env::string_or(
        "THROUGHPUT_OUT",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json"),
    );
    let items: Vec<String> = rows.iter().map(|r| r.to_json()).collect();
    let json = format!(
        "{{\"preset\":\"{}\",\"iters\":{},\"stat\":\"median\",\"host_cores\":{},\"rows\":[\n{}\n]}}\n",
        preset,
        iters,
        host_cores,
        items.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write BENCH_throughput.json");
    println!("wrote {out_path}");
}
