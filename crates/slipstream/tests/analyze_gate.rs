//! The pre-run safety gate: Deny blocks hazardous programs, Warn
//! observes without perturbing the run, Allow skips analysis.

use omp_analyze::analyze;
use omp_ir::{Expr, ProgramBuilder};
use slipstream::gate::analyze_config;
use slipstream::runner::{run_program, RunOptions};
use slipstream::{ExecMode, GateMode, Hazard, MachineConfig, Program, SlipSync};

fn small_machine() -> MachineConfig {
    let mut m = MachineConfig::paper();
    m.num_cmps = 4;
    m
}

/// Disjoint per-iteration accesses: nothing to flag.
fn clean_program() -> Program {
    let mut b = ProgramBuilder::new("gate-clean");
    let a = b.shared_array("a", 256, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, i, 0, 256, move |body| {
            body.load(a, Expr::v(i));
            body.compute(2);
            body.store(a, Expr::v(i));
        });
    });
    b.build()
}

/// Every iteration of the worksharing loop stores element 0 unprotected —
/// a write-write race across threads.
fn racy_program() -> Program {
    let mut b = ProgramBuilder::new("gate-racy");
    let a = b.shared_array("a", 256, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, i, 0, 256, move |body| {
            body.store(a, Expr::c(0));
        });
    });
    b.build()
}

fn opts(gate: GateMode) -> RunOptions {
    RunOptions::new(ExecMode::Slipstream)
        .with_machine(small_machine())
        .with_sync(SlipSync::G0)
        .with_gate(gate)
}

#[test]
fn deny_gate_blocks_racy_program() {
    let err = run_program(&racy_program(), &opts(GateMode::Deny)).unwrap_err();
    assert!(err.contains("refusing to run"), "{err}");
    assert!(err.contains("race-ww"), "{err}");
}

#[test]
fn deny_gate_passes_clean_program() {
    let s = run_program(&clean_program(), &opts(GateMode::Deny)).unwrap();
    let report = s.analysis.expect("gate attaches the report");
    assert!(report.is_clean(), "{}", report.render_text());
    assert!(s.exec_cycles > 0);
}

#[test]
fn warn_gate_attaches_report_but_still_runs() {
    let s = run_program(&racy_program(), &opts(GateMode::Warn)).unwrap();
    let report = s.analysis.expect("warn gate attaches the report");
    assert!(report
        .findings
        .iter()
        .any(|f| f.hazard == Hazard::RaceWriteWrite));
    assert!(s.exec_cycles > 0, "warn mode must not block the run");
}

#[test]
fn allow_gate_skips_analysis() {
    let s = run_program(&racy_program(), &opts(GateMode::Allow)).unwrap();
    assert!(s.analysis.is_none());
}

#[test]
fn warn_gate_is_observation_only() {
    // The gate must not perturb the simulation: identical stats with the
    // gate on (default Warn) and fully off (Allow).
    let warn = run_program(&clean_program(), &opts(GateMode::Warn)).unwrap();
    let allow = run_program(&clean_program(), &opts(GateMode::Allow)).unwrap();
    assert_eq!(warn.exec_cycles, allow.exec_cycles);
    assert_eq!(warn.fills, allow.fills);
    assert_eq!(warn.raw.user_r.loads, allow.raw.user_r.loads);
}

/// A serial loop around one worksharing phase.
fn serial_loop() -> Program {
    let mut b = ProgramBuilder::new("gate-loop");
    let a = b.shared_array("a", 256, 8);
    let c = b.shared_array("c", 256, 8);
    let i = b.var();
    let t = b.var();
    b.parallel(move |r| {
        r.for_loop(t, 0, 8, move |it| {
            it.par_for(None, i, 0, 256, move |body| {
                body.load(a, Expr::v(i));
                body.compute(6);
                body.store(c, Expr::v(i));
            });
        });
    });
    b.build()
}

#[test]
fn gate_attaches_the_analysis_of_the_runs_config() {
    for p in [clean_program(), racy_program(), serial_loop()] {
        let o = opts(GateMode::Warn);
        let report = run_program(&p, &o)
            .unwrap()
            .analysis
            .expect("warn gate attaches the report");
        let want = analyze(&p, &analyze_config(&o.machine, &o.policy, o.sync));
        assert_eq!(report, want, "{}", p.name);
    }
}
