//! Trace exporter: run one kernel with event tracing on and write a
//! Chrome trace-event JSON file openable in <https://ui.perfetto.dev>.
//!
//! The emitted trace carries per-CPU timeline tracks (time-class slices
//! and miss-path instants), token-semaphore instants, and per-pair
//! counter tracks (A–R lead, token count). A summary of the slipstream
//! analytics (lead over time, token slack, timeliness streaks, recovery
//! episodes) is printed to stdout.
//!
//! Environment:
//! - `TRACE_BENCH`: kernel name (`cg` default, or any of the suite).
//! - `TRACE_MODE`: mode label from the static set (`slip-G0` default).
//! - `TRACE_PRESET`: `tiny` (default) or `paper` workload presets.
//! - `TRACE_OUT`: override the output path
//!   (default `<bench>-<mode>.trace.json` in the current directory).

use bench::{small_machine, STATIC_MODES};
use npb_kernels::Benchmark;
use omp_rt::RuntimeEnv;
use sim_trace::{analyze, TraceConfig};
use slipstream::runner::{run_program, RunOptions};
use slipstream::{chrome_trace_json, validate_chrome_trace};

fn main() {
    let bench = bench::env::string_or("TRACE_BENCH", "cg");
    let mode_label = bench::env::string_or("TRACE_MODE", "slip-G0");
    let preset = bench::env::string_or("TRACE_PRESET", "tiny");

    let bm = Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == bench)
        .unwrap_or_else(|| {
            let names: Vec<_> = Benchmark::ALL.iter().map(|b| b.name()).collect();
            panic!("unknown TRACE_BENCH {bench:?}; expected one of {names:?}")
        });
    let (label, mode, sync) = STATIC_MODES
        .into_iter()
        .find(|(l, _, _)| *l == mode_label)
        .unwrap_or_else(|| {
            let labels: Vec<_> = STATIC_MODES.iter().map(|(l, _, _)| *l).collect();
            panic!("unknown TRACE_MODE {mode_label:?}; expected one of {labels:?}")
        });

    let program = match preset.as_str() {
        "paper" => bm.build_paper(None),
        _ => bm.build_tiny(),
    };
    let mut o = RunOptions::new(mode)
        .with_machine(small_machine())
        .with_trace(TraceConfig::on());
    o.sync = sync;
    o.env = RuntimeEnv::default();

    let s = run_program(&program, &o).expect("simulation failed");
    let td = s
        .raw
        .trace
        .as_ref()
        .expect("tracing was enabled but no trace came back");

    let json = chrome_trace_json(td);
    let report = validate_chrome_trace(&json).expect("emitted trace failed self-validation");

    let out_path = bench::env::string_or("TRACE_OUT", &format!("{}-{label}.trace.json", bm.name()));
    std::fs::write(&out_path, &json).expect("write trace file");

    println!(
        "{} {label} ({preset}): {} cycles, {} events ({} dropped), {} spans",
        bm.name(),
        td.cycles,
        td.events.len(),
        td.dropped,
        td.spans.iter().map(|s| s.len()).sum::<usize>()
    );
    println!(
        "trace: {} slices, {} token instants, {} lead counter tracks, {} cpu threads",
        report.slice_events,
        report.token_events,
        report.lead_counter_tracks,
        report.cpu_threads_named
    );
    println!("{}", analyze(td).render());
    println!("wrote {out_path} — open it in https://ui.perfetto.dev");
}
