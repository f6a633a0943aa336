//! Execution-engine integration tests: semantics against the reference
//! tracer oracle, protocol correctness in every mode, and the core
//! slipstream behaviours.

use dsm_sim::{FillClass, MachineConfig, ReqKind, TimeClass};
use omp_ir::expr::Expr;
use omp_ir::node::{Program, ReductionOp, ScheduleSpec};
use omp_ir::trace::trace;
use omp_ir::ProgramBuilder;
use omp_rt::{ExecMode, RuntimeEnv, SlipSync};
use slipstream::faults::FaultPlan;
use slipstream::runner::{run_figure2_modes, run_program, RunOptions};

/// A memory-bound streaming kernel: two iterations over a shared grid
/// with a reduction, the shape the paper's intro motivates.
fn stream_kernel(n: i64, iters: i64, compute_per_elem: i64) -> Program {
    let mut b = ProgramBuilder::new("stream");
    let x = b.shared_array("x", n as u64, 8);
    let y = b.shared_array("y", n as u64, 8);
    let sum = b.shared_array("sum", 1, 8);
    let it = b.var();
    let i = b.var();
    b.serial(|s| s.io(true, 4096));
    b.parallel(move |r| {
        r.par_for(None, it, 0, iters, |_| {});
        r.barrier();
    });
    b.parallel(move |r| {
        r.push(omp_ir::node::Node::For {
            var: it,
            begin: Expr::c(0),
            end: Expr::c(iters),
            step: 1,
            body: Box::new(omp_ir::node::Node::Seq(vec![])),
        });
        let _ = it;
        r.par_for(None, i, 0, n, move |body| {
            body.load(x, Expr::v(i));
            body.compute(compute_per_elem);
            body.store(y, Expr::v(i));
        });
        r.par_for_reduce(None, i, 0, n, ReductionOp::Sum, sum, 0, move |body| {
            body.load(y, Expr::v(i));
            body.compute(1);
        });
    });
    b.build()
}

fn small_machine() -> MachineConfig {
    let mut m = MachineConfig::paper();
    m.num_cmps = 4;
    m
}

#[test]
fn single_mode_matches_trace_oracle() {
    let p = stream_kernel(512, 2, 4);
    let opts = RunOptions::new(ExecMode::Single).with_machine(small_machine());
    let r = run_program(&p, &opts).unwrap();
    let oracle = trace(&p, 4);
    assert_eq!(r.raw.user_r.loads, oracle.total.loads, "loads");
    assert_eq!(r.raw.user_r.stores, oracle.total.stores, "stores");
    assert_eq!(
        r.raw.user_r.compute_cycles, oracle.total.compute_cycles,
        "compute"
    );
    assert_eq!(r.raw.user_r.io_in, oracle.total.io_in);
    assert!(r.exec_cycles > 0);
}

#[test]
fn double_mode_matches_trace_oracle() {
    let p = stream_kernel(512, 1, 4);
    let opts = RunOptions::new(ExecMode::Double).with_machine(small_machine());
    let r = run_program(&p, &opts).unwrap();
    let oracle = trace(&p, 8); // 4 CMPs x 2 = 8 threads
    assert_eq!(r.raw.user_r.loads, oracle.total.loads);
    assert_eq!(r.raw.user_r.stores, oracle.total.stores);
}

#[test]
fn slipstream_r_side_matches_trace_oracle() {
    let p = stream_kernel(512, 1, 4);
    let opts = RunOptions::new(ExecMode::Slipstream)
        .with_machine(small_machine())
        .with_sync(SlipSync::G0);
    let r = run_program(&p, &opts).unwrap();
    let oracle = trace(&p, 4);
    assert_eq!(r.raw.user_r.loads, oracle.total.loads, "R loads");
    assert_eq!(r.raw.user_r.stores, oracle.total.stores, "R stores");
    // The A-streams execute the same loads (prefetching) but never more.
    assert_eq!(r.raw.user_a.loads, oracle.total.loads, "A loads mirror R");
    // All A shared stores were converted or skipped — none demand-stored.
    assert_eq!(
        r.raw.stores_converted + r.raw.stores_skipped,
        r.raw.user_a.stores,
        "A stores all converted or skipped"
    );
    // The A-stream never performs I/O.
    assert_eq!(r.raw.user_a.io_in, 0);
    assert_eq!(r.raw.user_a.io_out, 0);
}

#[test]
fn runs_are_deterministic() {
    let p = stream_kernel(256, 1, 4);
    let opts = RunOptions::new(ExecMode::Slipstream)
        .with_machine(small_machine())
        .with_sync(SlipSync::L1);
    let a = run_program(&p, &opts).unwrap();
    let b = run_program(&p, &opts).unwrap();
    assert_eq!(a.exec_cycles, b.exec_cycles);
    assert_eq!(a.raw.user_r.loads, b.raw.user_r.loads);
    assert_eq!(a.fills.total(ReqKind::Read), b.fills.total(ReqKind::Read));
}

#[test]
fn slipstream_prefetches_classify() {
    let p = stream_kernel(2048, 2, 2);
    let opts = RunOptions::new(ExecMode::Slipstream)
        .with_machine(small_machine())
        .with_sync(SlipSync::L1);
    let r = run_program(&p, &opts).unwrap();
    let reads = r.fills.total(ReqKind::Read);
    assert!(reads > 0, "shared read fills must be classified");
    let a_useful = r.fills.get(ReqKind::Read, FillClass::ATimely)
        + r.fills.get(ReqKind::Read, FillClass::ALate);
    assert!(
        a_useful > 0,
        "A-stream must prefetch something the R-stream uses: {:?}",
        r.fills
    );
    // Converted stores must appear as read-exclusive fills.
    assert!(r.raw.stores_converted > 0, "some stores should convert");
    assert!(r.fills.total(ReqKind::ReadEx) > 0);
}

#[test]
fn all_four_modes_complete_and_breakdowns_are_sane() {
    let p = stream_kernel(1024, 1, 4);
    let rows = run_figure2_modes(&p, &small_machine(), &RuntimeEnv::default()).unwrap();
    assert_eq!(rows.len(), 4);
    for r in &rows {
        assert!(r.exec_cycles > 0, "{} finished", r.label);
        let busy = r.r_breakdown.get(TimeClass::Busy);
        assert!(busy > 0, "{} has busy time", r.label);
        assert!(
            r.r_breakdown.total() > 0,
            "{} accounts time somewhere",
            r.label
        );
    }
    // Single and slipstream run the same 4-thread decomposition; double
    // splits 8 ways. All must execute the same user work in total.
    assert_eq!(rows[0].raw.user_r.loads, rows[1].raw.user_r.loads);
    assert_eq!(rows[0].raw.user_r.loads, rows[3].raw.user_r.loads);
}

#[test]
fn dynamic_schedule_completes_and_covers_space() {
    let n = 600i64;
    let mut b = ProgramBuilder::new("dyn");
    let x = b.shared_array("x", n as u64, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(Some(ScheduleSpec::dynamic(16)), i, 0, n, move |body| {
            body.load(x, Expr::v(i));
            body.compute(20);
            body.store(x, Expr::v(i));
        });
    });
    let p = b.build();
    for mode in [ExecMode::Single, ExecMode::Double] {
        let opts = RunOptions::new(mode).with_machine(small_machine());
        let r = run_program(&p, &opts).unwrap();
        assert_eq!(r.raw.user_r.loads, n as u64, "{mode:?} loads");
        assert_eq!(r.raw.user_r.stores, n as u64);
        assert!(r.raw.sched_grabs >= (n as u64) / 16, "grabs happened");
    }
    // Slipstream: the A-streams mirror their R-streams' chunks exactly.
    let opts = RunOptions::new(ExecMode::Slipstream)
        .with_machine(small_machine())
        .with_sync(SlipSync::G0);
    let r = run_program(&p, &opts).unwrap();
    assert_eq!(r.raw.user_r.loads, n as u64);
    assert_eq!(r.raw.user_a.loads, n as u64, "A mirrors all chunks");
    assert!(
        r.r_breakdown.get(TimeClass::Scheduling) > 0,
        "dynamic scheduling time is visible"
    );
}

#[test]
fn guided_schedule_completes() {
    let n = 500i64;
    let mut b = ProgramBuilder::new("guided");
    let x = b.shared_array("x", n as u64, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(
            Some(ScheduleSpec {
                kind: omp_ir::node::ScheduleKind::Guided,
                chunk: Some(4),
            }),
            i,
            0,
            n,
            move |body| {
                body.load(x, Expr::v(i));
                body.compute(10);
            },
        );
    });
    let p = b.build();
    let opts = RunOptions::new(ExecMode::Slipstream)
        .with_machine(small_machine())
        .with_sync(SlipSync::G0);
    let r = run_program(&p, &opts).unwrap();
    assert_eq!(r.raw.user_r.loads, n as u64);
    assert_eq!(r.raw.user_a.loads, n as u64);
}

#[test]
fn constructs_execute_correct_number_of_times() {
    let mut b = ProgramBuilder::new("constructs");
    let a = b.shared_array("a", 64, 8);
    b.parallel(|r| {
        r.master(|m| m.store(a, 0));
        r.single(|s| s.store(a, 1));
        r.critical("c", |c| c.store(a, 2));
        r.sections(3, |idx, sec| sec.store(a, 10 + idx as i64));
        r.atomic(a, 3);
        r.flush();
    });
    let p = b.build();
    let machine = small_machine();
    let team = 4u64;
    // master(1) + single(1) + critical(team) + sections(3) = 5 + team.
    for mode in [ExecMode::Single, ExecMode::Slipstream] {
        let mut opts = RunOptions::new(mode).with_machine(machine.clone());
        if mode == ExecMode::Slipstream {
            opts = opts.with_sync(SlipSync::G0);
        }
        let r = run_program(&p, &opts).unwrap();
        assert_eq!(
            r.raw.user_r.stores,
            5 + team,
            "{mode:?} R-side construct stores"
        );
        assert_eq!(r.raw.user_r.atomics, team, "{mode:?} atomics");
        if mode == ExecMode::Slipstream {
            // A-side: master body for tid 0 only (1 store); single skipped;
            // critical skipped; sections mirrored (each pair mirrors its
            // R's claims — 3 total across pairs).
            assert_eq!(r.raw.user_a.stores, 1 + 3, "A-side construct stores");
            assert_eq!(r.raw.user_a.atomics, team, "A executes atomics");
        }
    }
}

#[test]
fn divergence_recovery_completes_the_run() {
    let p = stream_kernel(512, 2, 4);
    // Inject divergence on pair 1 at its second construct barrier.
    let opts = RunOptions::new(ExecMode::Slipstream)
        .with_machine(small_machine())
        .with_sync(SlipSync::G0)
        .with_faults(FaultPlan::wander_at(1, 1));
    let r = run_program(&p, &opts).unwrap();
    assert!(r.raw.recoveries >= 1, "the diverged A-stream was recovered");
    // The run still produces correct R-side semantics.
    let oracle = trace(&p, 4);
    assert_eq!(r.raw.user_r.loads, oracle.total.loads);
}

#[test]
fn env_kill_switch_disables_slipstream() {
    let p = stream_kernel(256, 1, 4);
    let mut env = RuntimeEnv::default();
    env.set_var("OMP_SLIPSTREAM", "NONE").unwrap();
    let opts = RunOptions::new(ExecMode::Slipstream)
        .with_machine(small_machine())
        .with_env(env);
    let r = run_program(&p, &opts).unwrap();
    // A-streams idle through every region: no prefetching work.
    assert_eq!(r.raw.user_a.loads, 0, "A-streams skipped all regions");
    assert_eq!(r.raw.stores_converted, 0);
    let oracle = trace(&p, 4);
    assert_eq!(r.raw.user_r.loads, oracle.total.loads, "R unaffected");
}

#[test]
fn nowait_loops_skip_the_barrier() {
    let n = 128i64;
    let mut b = ProgramBuilder::new("nowait");
    let x = b.shared_array("x", n as u64, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for_nowait(None, i, 0, n, move |body| {
            body.load(x, Expr::v(i));
        });
        r.par_for(None, i, 0, n, move |body| {
            body.load(x, Expr::v(i));
        });
    });
    let p = b.build();
    let opts = RunOptions::new(ExecMode::Slipstream)
        .with_machine(small_machine())
        .with_sync(SlipSync::G0);
    let r = run_program(&p, &opts).unwrap();
    assert_eq!(r.raw.user_r.loads, 2 * n as u64);
    assert_eq!(r.raw.user_a.loads, 2 * n as u64);
}

#[test]
fn empty_parallel_region_works() {
    let mut b = ProgramBuilder::new("empty");
    b.parallel(|_r| {});
    let p = b.build();
    for mode in [ExecMode::Single, ExecMode::Double, ExecMode::Slipstream] {
        let mut opts = RunOptions::new(mode).with_machine(small_machine());
        if mode == ExecMode::Slipstream {
            opts = opts.with_sync(SlipSync::G0);
        }
        let r = run_program(&p, &opts).unwrap();
        assert!(r.exec_cycles > 0, "{mode:?}");
    }
}

#[test]
fn io_synchronizes_the_pair() {
    let mut b = ProgramBuilder::new("io");
    let a = b.shared_array("a", 16, 8);
    b.serial(|s| {
        s.io(true, 8192);
        s.io(false, 128);
        s.store(a, 0);
    });
    b.parallel(|r| r.load(a, 0));
    let p = b.build();
    let opts = RunOptions::new(ExecMode::Slipstream)
        .with_machine(small_machine())
        .with_sync(SlipSync::G0);
    let r = run_program(&p, &opts).unwrap();
    // R performed both I/Os; A performed none.
    assert_eq!(r.raw.user_r.io_in, 1);
    assert_eq!(r.raw.user_r.io_out, 1);
    assert_eq!(r.raw.user_a.io_in + r.raw.user_a.io_out, 0);
    // The A-master spent time waiting for the input.
    assert!(r.a_breakdown.get(TimeClass::AStreamWait) > 0);
}

#[test]
fn static_chunked_schedule_round_robins() {
    let n = 96i64;
    let mut b = ProgramBuilder::new("schunk");
    let x = b.shared_array("x", n as u64, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(
            Some(ScheduleSpec {
                kind: omp_ir::node::ScheduleKind::Static,
                chunk: Some(8),
            }),
            i,
            0,
            n,
            move |body| body.load(x, Expr::v(i)),
        );
    });
    let p = b.build();
    let opts = RunOptions::new(ExecMode::Single).with_machine(small_machine());
    let r = run_program(&p, &opts).unwrap();
    assert_eq!(r.raw.user_r.loads, n as u64);
}
