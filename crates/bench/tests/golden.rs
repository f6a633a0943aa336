//! Golden-determinism regression test.
//!
//! The simulator's contract across performance work is bit-identical
//! output: the same program, machine, and mode must produce the same
//! `exec_cycles` and the same statistics, cycle for cycle. This test
//! runs the tiny preset of every kernel under the four static modes and
//! compares a full stats fingerprint against a checked-in golden file
//! captured from the pre-optimization engine.
//!
//! Regenerate (only when an *intentional* semantic change lands) with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p bench --test golden
//! ```

use bench::{small_machine, STATIC_MODES};
use npb_kernels::Benchmark;
use omp_rt::RuntimeEnv;
use slipstream::runner::{run_program, RunOptions};
use slipstream::stats_fingerprint;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_tiny.txt");

fn current_fingerprints() -> String {
    let machine = small_machine();
    let mut lines = Vec::new();
    for bm in Benchmark::ALL {
        let program = bm.build_tiny();
        for (label, mode, sync) in STATIC_MODES {
            let mut o = RunOptions::new(mode).with_machine(machine.clone());
            o.sync = sync;
            o.env = RuntimeEnv::default();
            let s = run_program(&program, &o).expect("simulation failed");
            lines.push(format!("{} {} {}", bm.name(), label, stats_fingerprint(&s)));
        }
    }
    lines.join("\n") + "\n"
}

#[test]
fn golden_determinism_tiny_presets() {
    let actual = current_fingerprints();
    if bench::env::flag("GOLDEN_BLESS") {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; regenerate with GOLDEN_BLESS=1");
    for (a, e) in actual.lines().zip(expected.lines()) {
        let key: Vec<&str> = a.split_whitespace().take(2).collect();
        assert_eq!(
            a,
            e,
            "stats fingerprint for {} diverged from the pre-optimization golden capture",
            key.join(" ")
        );
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "golden file row count changed"
    );
}

#[test]
fn golden_trace_parity() {
    // Tracing is observation-only: a run with event tracing enabled must
    // produce a stats fingerprint bit-identical to the untraced run for
    // every benchmark and mode. This is the contract that lets trace
    // sessions be trusted as pictures of the untraced execution.
    let machine = small_machine();
    for bm in [Benchmark::Cg, Benchmark::Mg] {
        let program = bm.build_tiny();
        for (label, mode, sync) in STATIC_MODES {
            let mut o = RunOptions::new(mode).with_machine(machine.clone());
            o.sync = sync;
            o.env = RuntimeEnv::default();
            let plain = run_program(&program, &o).expect("untraced run");
            let o = o.with_trace(sim_trace::TraceConfig::on());
            let traced = run_program(&program, &o).expect("traced run");
            assert!(traced.raw.trace.is_some());
            assert_eq!(
                stats_fingerprint(&plain),
                stats_fingerprint(&traced),
                "tracing perturbed the {} {label} simulation",
                bm.name()
            );
        }
    }
}

#[test]
fn processed_event_count_ignores_tracing() {
    // `RunResult::events` is the denominator of ns per event and sits
    // outside the stats fingerprint: it must count the same engine work
    // whether or not the run is traced.
    let machine = small_machine();
    let program = Benchmark::Cg.build_tiny();
    for (label, mode, sync) in STATIC_MODES {
        let mut o = RunOptions::new(mode).with_machine(machine.clone());
        o.sync = sync;
        o.env = RuntimeEnv::default();
        let plain = run_program(&program, &o).expect("untraced run");
        assert!(plain.raw.events > 0, "{label}: no events counted");
        let o = o.with_trace(sim_trace::TraceConfig::on());
        let traced = run_program(&program, &o).expect("traced run");
        assert_eq!(traced.raw.events, plain.raw.events, "{label}: traced");
    }
}

#[test]
fn golden_runs_are_repeatable_in_process() {
    // Two in-process runs of the same configuration must agree exactly
    // (guards against any hidden global state in the fast paths).
    let machine = small_machine();
    let program = Benchmark::Cg.build_tiny();
    let (label, mode, sync) = STATIC_MODES[3];
    let mut o = RunOptions::new(mode).with_machine(machine);
    o.sync = sync;
    let a = run_program(&program, &o).expect("run 1");
    let b = run_program(&program, &o).expect("run 2");
    assert_eq!(
        stats_fingerprint(&a),
        stats_fingerprint(&b),
        "repeat {label} runs diverged"
    );
}
