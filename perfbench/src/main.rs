//! The repository benchmark.
//!
//! One workload per invocation, single-threaded, on the baseline the
//! roadmap fixes: serial engine (`workers = 1`), memo off, tracing off,
//! default gate (`Warn`). It reads no environment knob.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//! ```
//!
//! With `--trace 0` it times the workload's passes and prints the
//! end-to-end metrics; with `--trace 1` it alternates untraced passes
//! with traced ones, which time every layer call as a span, and prints
//! the per-layer metrics. Either way the last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Every
//! simulation's statistics are checked against pinned fingerprints
//! (`pins.rs`); a mismatch, error or panic counts as a failed attempt.
//! See `README.md` for the workloads and the metric → layer table.

mod fork;
mod fuzz;
mod ledger;
mod paper;
mod pins;
mod sim;
mod speed;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ledger::Ledger;
use slipstream::{GateMode, RunOptions, RunResult, RunSummary, TraceConfig};
use speed::Speed;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("build.ms", "ms"),
    ("analyze.ms", "ms"),
    ("analyze.calls", "count"),
    ("analyze.visits", "count"),
    ("analyze.ns_per_visit", "ns"),
    ("compile.ms", "ms"),
    ("compile.calls", "count"),
    ("engine.ms", "ms"),
    ("engine.ms.single", "ms"),
    ("engine.ms.double", "ms"),
    ("engine.ms.slip", "ms"),
    ("engine.ns_per_sim_cycle", "ns"),
    ("engine.ns_per_mem_op", "ns"),
    ("engine.mem_ops", "count"),
    ("engine.sim_mcycles_per_s", "Mcycles/s"),
    ("memsys.l1_hits", "count"),
    ("memsys.l2_hits", "count"),
    ("memsys.l2_misses", "count"),
    ("memsys.l1_hit_ratio", "ratio"),
    ("memsys.l2_hit_ratio", "ratio"),
    ("memsys.network_messages", "count"),
    ("memsys.three_hop_fetches", "count"),
    ("memsys.invalidations_sent", "count"),
    ("memsys.network_contention_cycles", "cycles"),
    ("memsys.memory_contention_cycles", "cycles"),
    ("memsys.bus_contention_cycles", "cycles"),
    ("slip.stores_converted", "count"),
    ("slip.read_a_timely_frac", "ratio"),
    ("slip.read_a_late_frac", "ratio"),
    ("slip.read_a_only_frac", "ratio"),
    ("slip.readex_coverage", "ratio"),
    ("slip.sched_grabs", "count"),
    ("slip.recoveries", "count"),
    ("time.busy_frac", "ratio"),
    ("time.memstall_frac", "ratio"),
    ("time.barrier_frac", "ratio"),
    ("time.sched_frac", "ratio"),
    ("oracle.ms", "ms"),
    ("fuzz.harness_ms", "ms"),
    ("fuzz.case_ms_p50", "ms"),
    ("fuzz.case_ms_p99", "ms"),
    ("snap.checkpoint_ms", "ms"),
    ("snap.resume_ms", "ms"),
    ("snap.bytes", "bytes"),
    ("snap.fork_ms", "ms"),
    ("run.self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("model.paper_gain_err_pp", "pp"),
];

/// One sample of the input build: at least `SETUP_REPS` builds and
/// `SETUP_SAMPLE_S` of building. Builds take 0.03-3 ms, so a single one
/// would be mostly timer and page-fault noise.
const SETUP_REPS: usize = 3;
const SETUP_SAMPLE_S: f64 = 0.02;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Attempts and failures of one run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Run one unit of work; an `Err` or a panic counts it as failed.
    pub fn unit<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(what, &e);
                None
            }
            Err(_) => {
                self.fail(what, "panicked");
                None
            }
        }
    }

    pub fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}: {why}");
    }
}

/// A workload's result: the tally, the metrics of the requested kind,
/// and in a traced run the first traced pass's spans.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: Option<Ledger>,
}

/// The run options every simulation of the benchmark starts from, with
/// the baseline asserted rather than assumed.
pub fn baseline(mode: slipstream::ExecMode, sync: Option<slipstream::SlipSync>) -> RunOptions {
    let mut o = RunOptions::new(mode).with_machine(slipstream::MachineConfig::paper());
    o.sync = sync;
    assert_eq!(o.workers, 1, "baseline is the serial engine");
    assert!(!o.memo, "baseline runs with memo off");
    assert_eq!(o.trace, TraceConfig::OFF, "baseline runs with tracing off");
    assert_eq!(o.gate, GateMode::Warn, "baseline runs the default gate");
    o
}

/// A `RunSummary` for an engine result obtained without the runner, so
/// it can be fingerprinted like one.
pub fn summarize(name: &str, label: &str, raw: RunResult) -> RunSummary {
    RunSummary {
        name: name.to_string(),
        label: label.to_string(),
        exec_cycles: raw.exec_cycles,
        r_breakdown: raw.r_breakdown,
        a_breakdown: raw.a_breakdown,
        fills: raw.fill_counts,
        raw,
        analysis: None,
    }
}

/// Times the build of a workload's inputs. `setup_s` is the median
/// build in scaled seconds (`speed`), sampled before the first pass and
/// again before every pass, so that it spans the whole run rather than
/// whichever phase the first 20 ms fell in.
pub struct Setup<F> {
    build: F,
    builds_s: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    /// Build the inputs once to warm up, take the first sample, and
    /// return the last build.
    pub fn new(mut build: F) -> (Self, T) {
        std::hint::black_box(build());
        let mut setup = Setup {
            build,
            builds_s: Vec::new(),
        };
        let inputs = setup.sample();
        (setup, inputs)
    }

    /// Build the inputs for one sample, recording every build's time.
    /// One speed measurement serves the whole sample: a build takes
    /// 0.03-3 ms, far less than the reference.
    pub fn sample(&mut self) -> T {
        let speed = Speed::measure();
        let (mut reps, mut spent) = (0, 0.0);
        loop {
            let t0 = Instant::now();
            let inputs = std::hint::black_box((self.build)());
            let s = t0.elapsed().as_secs_f64();
            self.builds_s.push(speed.scale(s));
            (reps, spent) = (reps + 1, spent + s);
            if reps >= SETUP_REPS && spent >= SETUP_SAMPLE_S {
                return inputs;
            }
        }
    }

    pub fn median_s(&self) -> f64 {
        median(&self.builds_s)
    }
}

/// Run passes until the pass boundary nearest `seconds`: another pass
/// starts only while the time so far plus half the last pass is under
/// `seconds`, and never before `min` passes have run.
pub fn run_passes(seconds: f64, min: usize, mut pass: impl FnMut(usize)) {
    let t0 = Instant::now();
    for i in 0.. {
        let p0 = Instant::now();
        pass(i);
        let last = p0.elapsed().as_secs_f64();
        if i + 1 >= min && t0.elapsed().as_secs_f64() + last / 2.0 >= seconds {
            break;
        }
    }
}

/// The traced run: alternate untraced passes (`pass(None)`) with traced
/// ones (`pass(Some(ledger))`), untraced first. Returns the median wall
/// seconds of each kind and the first traced pass's ledger.
pub fn run_traced_passes(
    seconds: f64,
    mut pass: impl FnMut(Option<&mut Ledger>),
) -> (f64, f64, Option<Ledger>) {
    let (mut plain, mut timed, mut first) = (Vec::new(), Vec::new(), None);
    run_passes(seconds, 2, |i| {
        let t0 = Instant::now();
        if i % 2 == 0 {
            pass(None);
            plain.push(t0.elapsed().as_secs_f64());
        } else {
            let mut l = Ledger::new();
            l.span("pass", format!("traced-{}", i / 2), |l| pass(Some(l)));
            timed.push(t0.elapsed().as_secs_f64());
            first.get_or_insert(l);
        }
    });
    (median(&plain), median(&timed), first)
}

/// The scaled seconds (`speed::timed`) of every repeat of each unit of a
/// pass. A run repeats each unit once a pass; `wall_s` is the sum over
/// the units of each one's median repeat.
pub struct Units(Vec<Vec<f64>>);

impl Units {
    pub fn new(units: usize) -> Self {
        Units(vec![Vec::new(); units])
    }

    pub fn record(&mut self, unit: usize, s: f64) {
        self.0[unit].push(s);
    }

    pub fn pass_s(&self) -> f64 {
        self.0.iter().map(|v| median(v)).sum()
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Per-metric median over the traced passes' metric maps.
pub fn median_metrics(per_pass: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    if let Some(first) = per_pass.first() {
        for name in first.keys() {
            let xs: Vec<f64> = per_pass.iter().map(|m| m[name]).collect();
            out.insert(*name, median(&xs));
        }
    }
    out
}

/// The layer-time metrics every traced pass shares: self time and call
/// counts of the gate, compile, engine, oracle and snapshot spans, and
/// the run spans' uncovered self time.
pub fn layer_times(l: &Ledger, sim_cycles: u64, mem_ops: u64) -> BTreeMap<&'static str, f64> {
    let by = l.by_name();
    let ms = |name: &str| by.get(name).map_or(0.0, |e| e.0 as f64 / 1e6);
    let calls = |name: &str| by.get(name).map_or(0.0, |e| e.1 as f64);
    let engine_ns = by.get("engine").map_or(0, |e| e.0) as f64;
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let mode_ms = |pick: fn(&str) -> bool| l.self_ns_where("engine", pick) as f64 / 1e6;
    let mut m = BTreeMap::new();
    m.insert("analyze.ms", ms("analyze"));
    m.insert("analyze.calls", calls("analyze"));
    m.insert("compile.ms", ms("compile"));
    m.insert("compile.calls", calls("compile"));
    m.insert("engine.ms", engine_ns / 1e6);
    m.insert("engine.ms.single", mode_ms(|t| t == "single"));
    m.insert("engine.ms.double", mode_ms(|t| t == "double"));
    m.insert("engine.ms.slip", mode_ms(|t| t.starts_with("slip")));
    m.insert("engine.ns_per_sim_cycle", per(engine_ns, sim_cycles));
    m.insert("engine.ns_per_mem_op", per(engine_ns, mem_ops));
    m.insert("oracle.ms", ms("oracle"));
    m.insert("snap.checkpoint_ms", ms("snap.checkpoint"));
    m.insert("snap.resume_ms", ms("snap.resume"));
    m.insert("run.self_ms", ms("run"));
    m
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args() -> Result<(String, Args, Option<String>), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("expected `--key value` pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok((
        workload,
        Args {
            seed,
            seconds,
            trace,
        },
        kv.get("spans-out").cloned(),
    ))
}

fn main() {
    let (workload, args, spans_out) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match workload.as_str() {
        "fig2-static" => paper::run(&args, paper::Suite::Fig2),
        "fig4-dynamic" => paper::run(&args, paper::Suite::Fig4),
        "fuzz-campaign" => fuzz::run(&args),
        "warm-fork" => fork::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    if let (Some(path), Some(spans)) = (spans_out, &out.spans) {
        if let Err(e) = std::fs::write(&path, spans.to_json()) {
            eprintln!("perfbench: writing {path}: {e}");
            std::process::exit(1);
        }
    }

    let mut metrics = out.metrics;
    let wanted: &[(&str, &str)] = if args.trace {
        &PER_LAYER
    } else {
        metrics.insert("peak_rss_mb", peak_rss_mb());
        &END_TO_END
    };
    let mut items = Vec::new();
    for (name, unit) in wanted {
        let v = match metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("workload `{workload}` did not measure `{name}`"),
        };
        // Only failed runs leave a metric without a value; they are
        // already counted, so the result still prints.
        let v = if v.is_finite() { v } else { 0.0 };
        items.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench-host {{\"available_parallelism\":{parallelism},\"engine_workers\":1,\"workload\":\"{workload}\",\"seed\":{}}}",
        args.seed
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.tally.failed == 0 && out.tally.attempted > 0,
        out.tally.attempted,
        out.tally.failed,
        items.join(",")
    );
}
