//! Snapshot warm-start bit-identity suite.
//!
//! `Engine::snapshot` serializes the complete simulator state at an
//! event boundary and `Engine::restore` rebuilds it under a fresh
//! engine. A run that checkpoints at cycle T and resumes from the
//! snapshot must produce output *bit-identical* to the uninterrupted
//! run — same `exec_cycles`, same stats fingerprint — across every
//! kernel, mode, and fault plan. Checkpoints are untraced; the traced
//! entry points' `Err` is pinned in the slipstream crate's `edge` tests.

use bench::{small_machine, summary_fingerprint, STATIC_MODES};
use npb_kernels::Benchmark;
use omp_rt::RuntimeEnv;
use slipstream::faults::FaultPlan;
use slipstream::runner::{checkpoint_program, resume_program, run_program, RunOptions};
use slipstream::{ExecMode, SlipSync};

fn straight(program: &omp_ir::Program, o: &RunOptions) -> (String, u64) {
    let s = run_program(program, o).expect("straight run failed");
    (summary_fingerprint(&s), s.exec_cycles)
}

/// Checkpoint at `at`, resume under `resume_opts`, fingerprint the
/// completed run.
fn sliced(
    program: &omp_ir::Program,
    warm_opts: &RunOptions,
    resume_opts: &RunOptions,
    at: u64,
) -> String {
    let cp = checkpoint_program(program, warm_opts, at).expect("checkpoint failed");
    let s = resume_program(program, resume_opts, &cp.bytes).expect("resume failed");
    summary_fingerprint(&s)
}

#[test]
fn every_kernel_and_mode_restores_identically() {
    let machine = small_machine();
    for bm in Benchmark::ALL {
        let program = bm.build_tiny();
        for (label, mode, sync) in STATIC_MODES {
            let mut o = RunOptions::new(mode).with_machine(machine.clone());
            o.sync = sync;
            o.env = RuntimeEnv::default();
            let (want, cycles) = straight(&program, &o);
            // Slice at several depths: early (warmup barely started),
            // midpoint, and just before the end.
            for at in [cycles / 10, cycles / 2, cycles - 1] {
                let got = sliced(&program, &o, &o, at.max(1));
                assert_eq!(
                    want,
                    got,
                    "{} {label} diverged after restore at cycle {at}",
                    bm.name()
                );
            }
        }
    }
}

#[test]
fn fault_plan_active_at_the_boundary_restores_identically() {
    // The sharpest slice: a seeded fault storm with recoveries in
    // flight on both sides of the checkpoint. The fired-flags vector
    // and every pair's recovery state must survive serialization.
    let machine = small_machine();
    let program = Benchmark::Mg.build_tiny();
    for seed in [1u64, 7, 23] {
        let plan = FaultPlan::random(seed, 4, 6);
        let mut o = RunOptions::new(ExecMode::Slipstream)
            .with_machine(machine.clone())
            .with_sync(SlipSync::G0)
            .with_faults(plan);
        o.env = RuntimeEnv::default();
        let (want, cycles) = straight(&program, &o);
        for at in [cycles / 4, cycles / 2, (3 * cycles) / 4] {
            let got = sliced(&program, &o, &o, at);
            assert_eq!(
                want, got,
                "faulted run (seed {seed}) diverged after restore at cycle {at}"
            );
        }
    }
}

#[test]
fn fault_free_warmup_forks_into_faulted_continuations() {
    // The warm-start pattern of a fault sweep: checkpoint once with no
    // fault plan, then fork each sweep member with its own plan.
    // Legal because no fault of the stored plan fired before the
    // checkpoint. Fault hooks match their sequence counters *exactly*,
    // so a fork only equals the straight faulted run when the plan's
    // hooks all sit past the checkpoint: use a barrier-epoch wander
    // (the latest epoch that still fires) against a checkpoint taken
    // in the first 2% of the run, before any construct barrier.
    let machine = small_machine();
    let program = Benchmark::Cg.build_tiny();
    let mut base = RunOptions::new(ExecMode::Slipstream)
        .with_machine(machine.clone())
        .with_sync(SlipSync::G0);
    base.env = RuntimeEnv::default();
    let (_, cycles) = straight(&program, &base);
    let at = (cycles / 50).max(1);
    let cp = checkpoint_program(&program, &base, at).expect("warmup checkpoint");
    // A shared warmup must be interchangeable with a per-job one: a
    // second checkpoint at the same cycle is the same bytes.
    let cp2 = checkpoint_program(&program, &base, at).expect("second warmup checkpoint");
    assert!(cp.bytes == cp2.bytes, "checkpoints at cycle {at} differ");

    let late_wander = (1..=6)
        .rev()
        .map(|epoch| FaultPlan::wander_at(0, epoch))
        .find(|plan| {
            let o = base.clone().with_faults(plan.clone());
            let s = run_program(&program, &o).expect("probe run");
            s.raw.recoveries > 0
        })
        .expect("some barrier epoch must fire a wander");
    let o = base.clone().with_faults(late_wander);
    let (want, _) = straight(&program, &o);
    let s = resume_program(&program, &o, &cp.bytes).expect("faulted fork");
    assert!(s.raw.recoveries > 0, "the wander must fire post-restore");
    assert_eq!(
        want,
        summary_fingerprint(&s),
        "fault-plan fork diverged from straight faulted run"
    );

    // Random plans may hook counters the warmup already passed, so the
    // straight run is not comparable — but forking must be legal and
    // the forks themselves bit-reproducible from either checkpoint.
    for seed in [3u64, 11] {
        let o = base.clone().with_faults(FaultPlan::random(seed, 4, 5));
        let a = resume_program(&program, &o, &cp.bytes).expect("fork a");
        let b = resume_program(&program, &o, &cp2.bytes).expect("fork b");
        assert_eq!(
            summary_fingerprint(&a),
            summary_fingerprint(&b),
            "forks (seed {seed}) from the two checkpoints must agree"
        );
    }
}

#[test]
fn swapping_a_fired_fault_plan_is_rejected() {
    // The other side of the swap rule: once a fault of the stored plan
    // has fired, the continuation is causally downstream of it —
    // resuming under a different plan must fail loudly, not silently
    // mix histories.
    let machine = small_machine();
    let program = Benchmark::Mg.build_tiny();
    let mut o = RunOptions::new(ExecMode::Slipstream)
        .with_machine(machine.clone())
        .with_sync(SlipSync::G0)
        .with_faults(FaultPlan::random(1, 4, 6));
    o.env = RuntimeEnv::default();
    let (_, cycles) = straight(&program, &o);
    // Late checkpoint: with 6 scheduled faults over the run, at 3/4
    // depth at least one has fired.
    let cp = checkpoint_program(&program, &o, (3 * cycles) / 4).expect("checkpoint");
    let swapped = o.clone().with_faults(FaultPlan::random(99, 4, 6));
    let err =
        resume_program(&program, &swapped, &cp.bytes).expect_err("swapping a fired plan must fail");
    assert!(
        err.contains("fault plan"),
        "unexpected error message: {err}"
    );
}

#[test]
fn restore_under_a_different_config_is_rejected() {
    let machine = small_machine();
    let program = Benchmark::Lu.build_tiny();
    let mut o = RunOptions::new(ExecMode::Slipstream).with_machine(machine.clone());
    o.sync = Some(SlipSync::G0);
    let (_, cycles) = straight(&program, &o);
    let cp = checkpoint_program(&program, &o, cycles / 2).expect("checkpoint");
    // Different mode: identity hash must mismatch.
    let other = RunOptions::new(ExecMode::Single).with_machine(machine.clone());
    let err = resume_program(&program, &other, &cp.bytes)
        .expect_err("restore under a different mode must fail");
    assert!(err.contains("identity"), "unexpected error message: {err}");
    // Corrupt payload: checksum must catch it.
    let mut bad = cp.bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    let err = resume_program(&program, &o, &bad).expect_err("corrupt snapshot must fail");
    assert!(
        err.contains("checksum") || err.contains("corrupt") || err.contains("truncated"),
        "unexpected error message: {err}"
    );
}

#[test]
fn checkpoint_past_the_end_captures_the_finished_run() {
    let machine = small_machine();
    let program = Benchmark::Sp.build_tiny();
    let mut o = RunOptions::new(ExecMode::Double).with_machine(machine);
    o.env = RuntimeEnv::default();
    let (want, cycles) = straight(&program, &o);
    let cp = checkpoint_program(&program, &o, cycles * 2).expect("checkpoint");
    assert!(cp.finished, "run must have completed before the boundary");
    let s = resume_program(&program, &o, &cp.bytes).expect("resume of finished run");
    assert_eq!(want, summary_fingerprint(&s));
}
