//! Engine edge cases: degenerate loops, construct nesting, tiny machines,
//! token extremes, divergence timing, and thread-count caps.

use dsm_sim::{AddressMap, MachineConfig};
use npb_kernels::Benchmark;
use omp_ir::directive::{parse_directive, Directive};
use omp_ir::expr::Expr;
use omp_ir::node::{Node, ScheduleSpec};
use omp_ir::{Program, ProgramBuilder};
use omp_rt::{ExecMode, RuntimeEnv, SlipSync};
use slipstream::compile;
use slipstream::faults::{FaultEvent, FaultKind, FaultPlan};
use slipstream::runner::{
    checkpoint_compiled, checkpoint_program, resume_compiled, resume_program, run_compiled,
    run_program, RunOptions,
};
use slipstream::{
    stats_fingerprint, Engine, EngineConfig, RecoveryPolicy, TraceConfig, TraceEvent,
};

fn machine(cmps: usize) -> MachineConfig {
    let mut m = MachineConfig::paper();
    m.num_cmps = cmps;
    m
}

/// An A-stream wander on pair `tid` at its `epoch`-th construct barrier.
fn wander(tid: u64, epoch: u64) -> FaultEvent {
    FaultEvent {
        kind: FaultKind::Wander,
        tid,
        seq: epoch,
        arg: 0,
    }
}

fn all_modes(p: &omp_ir::Program, m: &MachineConfig) -> Vec<slipstream::runner::RunSummary> {
    let mut out = Vec::new();
    for (mode, sync) in [
        (ExecMode::Single, None),
        (ExecMode::Double, None),
        (ExecMode::Slipstream, Some(SlipSync::G0)),
        (ExecMode::Slipstream, Some(SlipSync::L1)),
    ] {
        let mut o = RunOptions::new(mode).with_machine(m.clone());
        o.sync = sync;
        out.push(run_program(p, &o).unwrap());
    }
    out
}

#[test]
fn zero_trip_loops_complete() {
    // Constant zero-trip/reversed bounds are invalid IR (`validate`
    // rejects them), but empty iteration spaces still arise at runtime
    // from non-constant bounds; every schedule flavour must complete
    // them as a plain barrier.
    let mut b = ProgramBuilder::new("zt");
    let a = b.shared_array("a", 16, 8);
    let i = b.var();
    b.parallel(move |r| {
        // NumThreads..NumThreads: zero trips at any team size.
        r.par_for(None, i, Expr::NumThreads, Expr::NumThreads, move |body| {
            body.load(a, Expr::v(i))
        });
        // Reversed at runtime: normalizes to an empty space.
        r.par_for(
            Some(ScheduleSpec::dynamic(4)),
            i,
            Expr::NumThreads + Expr::c(3),
            Expr::NumThreads,
            move |body| body.load(a, Expr::v(i)),
        );
        r.par_for(None, i, 0, 4, move |body| body.load(a, Expr::v(i)));
    });
    let p = b.build();
    for r in all_modes(&p, &machine(4)) {
        assert_eq!(r.raw.user_r.loads, 4, "{}", r.label);
    }
}

#[test]
fn loops_smaller_than_the_team_complete() {
    // 3 iterations over 8/16 threads: most threads get no chunk.
    let mut b = ProgramBuilder::new("small");
    let a = b.shared_array("a", 8, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, i, 0, 3, move |body| {
            body.load(a, Expr::v(i));
            body.compute(50);
        });
        r.par_for(Some(ScheduleSpec::dynamic(1)), i, 0, 3, move |body| {
            body.load(a, Expr::v(i));
        });
    });
    let p = b.build();
    for r in all_modes(&p, &machine(8)) {
        assert_eq!(r.raw.user_r.loads, 6, "{}", r.label);
    }
}

#[test]
fn single_cmp_machine_runs_every_mode() {
    let mut b = ProgramBuilder::new("one");
    let a = b.shared_array("a", 64, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, i, 0, 64, move |body| {
            body.load(a, Expr::v(i));
            body.store(a, Expr::v(i));
        });
        r.barrier();
    });
    let p = b.build();
    for r in all_modes(&p, &machine(1)) {
        assert_eq!(r.raw.user_r.loads, 64, "{}", r.label);
    }
}

#[test]
fn zero_cmp_machine_is_an_error_not_a_panic() {
    let mut b = ProgramBuilder::new("none");
    let a = b.shared_array("a", 64, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, i, 0, 64, move |body| {
            body.load(a, Expr::v(i));
        });
    });
    let p = b.build();
    for mode in [ExecMode::Single, ExecMode::Double, ExecMode::Slipstream] {
        let o = RunOptions::new(mode).with_machine(machine(0));
        let err = run_program(&p, &o).expect_err("a 0-CMP machine must be rejected");
        assert!(err.contains("num_cmps"), "{mode:?}: {err}");
    }
}

#[test]
fn more_than_one_worker_is_an_error() {
    // The engine is serial: every runner entry point refuses
    // `workers != 1` before it builds anything.
    let mut b = ProgramBuilder::new("workers");
    let a = b.shared_array("a", 64, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, i, 0, 64, move |body| body.load(a, Expr::v(i)));
    });
    let p = b.build();
    let serial = RunOptions::new(ExecMode::Slipstream).with_machine(machine(4));
    let cp = compile(&p, &AddressMap::new(&serial.machine)).unwrap();
    let ck = checkpoint_compiled(&cp, &serial, 1).unwrap();
    let mut o = serial.clone();
    o.workers = 2;
    let name = || p.name.clone();
    for (entry, err) in [
        ("run_program", run_program(&p, &o).err()),
        ("run_compiled", run_compiled(&cp, name(), &o).err()),
        ("checkpoint_compiled", checkpoint_compiled(&cp, &o, 1).err()),
        (
            "resume_compiled",
            resume_compiled(&cp, name(), &o, &ck.bytes).err(),
        ),
    ] {
        let err = err.unwrap_or_else(|| panic!("{entry} accepted workers = 2"));
        assert!(err.contains("workers"), "{entry}: {err}");
    }
}

#[test]
fn memo_run_is_an_error() {
    // The engine has no memoized replay: every runner entry point
    // refuses `memo = true` before it builds anything.
    let mut b = ProgramBuilder::new("memo");
    let a = b.shared_array("a", 64, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, i, 0, 64, move |body| body.load(a, Expr::v(i)));
    });
    let p = b.build();
    let plain = RunOptions::new(ExecMode::Single).with_machine(machine(4));
    let cp = compile(&p, &AddressMap::new(&plain.machine)).unwrap();
    let ck = checkpoint_compiled(&cp, &plain, 1).unwrap();
    let mut o = plain.clone();
    o.memo = true;
    let name = || p.name.clone();
    for (entry, err) in [
        ("run_program", run_program(&p, &o).err()),
        ("run_compiled", run_compiled(&cp, name(), &o).err()),
        ("checkpoint_compiled", checkpoint_compiled(&cp, &o, 1).err()),
        ("checkpoint_program", checkpoint_program(&p, &o, 1).err()),
        (
            "resume_compiled",
            resume_compiled(&cp, name(), &o, &ck.bytes).err(),
        ),
        ("resume_program", resume_program(&p, &o, &ck.bytes).err()),
    ] {
        let err = err.unwrap_or_else(|| panic!("{entry} accepted memo = true"));
        assert!(err.contains("memo"), "{entry}: {err}");
    }
}

#[test]
fn traced_checkpoint_resume_or_restore_is_an_error() {
    // Checkpoints are untraced: every checkpoint, resume and restore
    // entry point refuses tracing with an `Err`, not a panic.
    let mut b = ProgramBuilder::new("traced");
    let a = b.shared_array("a", 64, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, i, 0, 64, move |body| body.load(a, Expr::v(i)));
    });
    let p = b.build();
    let plain = RunOptions::new(ExecMode::Slipstream).with_machine(machine(4));
    let cp = compile(&p, &AddressMap::new(&plain.machine)).unwrap();
    let ck = checkpoint_compiled(&cp, &plain, 1).unwrap();
    let o = plain.clone().with_trace(TraceConfig::on());
    let mut cfg = EngineConfig::new(o.machine.clone(), o.mode);
    cfg.trace = o.trace;
    let name = || p.name.clone();
    for (entry, err) in [
        ("checkpoint_compiled", checkpoint_compiled(&cp, &o, 1).err()),
        ("checkpoint_program", checkpoint_program(&p, &o, 1).err()),
        (
            "resume_compiled",
            resume_compiled(&cp, name(), &o, &ck.bytes).err(),
        ),
        ("resume_program", resume_program(&p, &o, &ck.bytes).err()),
        (
            "Engine::restore",
            Engine::restore(&cp, cfg, &ck.bytes).err(),
        ),
    ] {
        let err = err.unwrap_or_else(|| panic!("{entry} accepted tracing"));
        assert!(err.contains("untraced"), "{entry}: {err}");
    }
    // A traced straight run still works, and a zero-capacity trace
    // config is off, so it resumes.
    assert!(run_program(&p, &o).unwrap().raw.trace.is_some());
    let off = plain.with_trace(TraceConfig::with_capacity(0));
    let resumed = resume_compiled(&cp, name(), &off, &ck.bytes).unwrap();
    assert!(resumed.raw.trace.is_none());
}

#[test]
fn deep_sequential_nesting() {
    let mut b = ProgramBuilder::new("deep");
    let a = b.shared_array("a", 16, 8);
    let vars: Vec<_> = (0..5).map(|_| b.var()).collect();
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, i, 0, 4, move |l0| {
            l0.for_loop(vars[0], 0, 2, move |l1| {
                l1.for_loop(vars[1], 0, 2, move |l2| {
                    l2.for_loop(vars[2], 0, 2, move |l3| {
                        l3.for_loop(vars[3], 0, 2, move |l4| {
                            l4.for_loop(vars[4], 0, 2, move |body| {
                                body.load(a, Expr::v(vars[4]));
                            });
                        });
                    });
                });
            });
        });
    });
    let p = b.build();
    let r = run_program(
        &p,
        &RunOptions::new(ExecMode::Slipstream)
            .with_machine(machine(4))
            .with_sync(SlipSync::G0),
    )
    .unwrap();
    assert_eq!(r.raw.user_r.loads, 4 * 32);
    assert_eq!(r.raw.user_a.loads, 4 * 32);
}

#[test]
fn many_tokens_never_deadlock() {
    let mut b = ProgramBuilder::new("tokens");
    let a = b.shared_array("a", 128, 8);
    let i = b.var();
    b.parallel(move |r| {
        for _ in 0..6 {
            r.par_for(None, i, 0, 128, move |body| {
                body.load(a, Expr::v(i));
                body.store(a, Expr::v(i));
            });
        }
    });
    let p = b.build();
    for tokens in [0, 1, 3, 100] {
        for global in [true, false] {
            let mut o = RunOptions::new(ExecMode::Slipstream).with_machine(machine(4));
            o.sync = Some(SlipSync { global, tokens });
            let r = run_program(&p, &o)
                .unwrap_or_else(|e| panic!("tokens={tokens} global={global}: {e}"));
            assert_eq!(r.raw.user_r.loads, 6 * 128);
        }
    }
}

/// Run every tiny NPB kernel in slipstream mode, traced and untraced,
/// once with `u64::MAX` initial tokens and once with 1,000,000.
/// `configure` returns the program and options that set the count. The
/// huge count must neither overflow nor trip the divergence heuristic:
/// no recoveries, the same simulation as the million-token run, and no
/// negative semaphore count in the trace.
fn max_tokens_match_a_million(
    what: &str,
    configure: impl Fn(Program, u64) -> (Program, RunOptions),
) {
    for bm in Benchmark::ALL {
        for trace in [TraceConfig::OFF, TraceConfig::on()] {
            let run = |tokens: u64| {
                let (p, o) = configure(bm.build_tiny(), tokens);
                run_program(&p, &o.with_trace(trace))
                    .unwrap_or_else(|e| panic!("{what} {} tokens={tokens}: {e}", bm.name()))
            };
            let max = run(u64::MAX);
            let million = run(1_000_000);
            assert_eq!(max.raw.recoveries, 0, "{what} {} {trace:?}", bm.name());
            let events = max.raw.trace.iter().flat_map(|t| &t.events);
            for e in events {
                if let TraceEvent::TokenInsert { count, .. }
                | TraceEvent::TokenConsume { count, .. } = e.ev
                {
                    assert!(count >= 0, "{what} {}: traced count {count}", bm.name());
                }
            }
            assert_eq!(
                stats_fingerprint(&max),
                stats_fingerprint(&million),
                "{what} {} {trace:?}",
                bm.name()
            );
        }
    }
}

#[test]
fn max_tokens_through_omp_slipstream() {
    for sync in ["GLOBAL_SYNC", "LOCAL_SYNC"] {
        max_tokens_match_a_million(sync, |p, tokens| {
            let mut env = RuntimeEnv::default();
            env.set_var("OMP_SLIPSTREAM", &format!("{sync},{tokens}"))
                .unwrap();
            let o = RunOptions::new(ExecMode::Slipstream)
                .with_machine(machine(4))
                .with_env(env);
            (p, o)
        });
    }
}

#[test]
fn max_tokens_through_the_slipstream_directive() {
    for sync in ["GLOBAL_SYNC", "LOCAL_SYNC"] {
        max_tokens_match_a_million(sync, |mut p, tokens| {
            let text = format!("SLIPSTREAM({sync}, {tokens})");
            let Directive::Slipstream(clause) = parse_directive(&text).unwrap() else {
                panic!("{text} is not a slipstream directive");
            };
            // The directive heads the program; the options leave the
            // sync to it.
            p.body = Node::Seq(vec![Node::SlipstreamSet(clause), p.body]);
            let o = RunOptions::new(ExecMode::Slipstream).with_machine(machine(4));
            (p, o)
        });
    }
}

#[test]
fn max_watchdog_never_fires() {
    // The region-end watchdog's deadline saturates instead of wrapping:
    // a `u64::MAX` watchdog never fires, so the run is the default
    // policy's run.
    let p = Benchmark::Cg.build_tiny();
    let run = |recovery| {
        let o = RunOptions::new(ExecMode::Slipstream)
            .with_machine(machine(4))
            .with_sync(SlipSync::G0)
            .with_recovery(recovery);
        run_program(&p, &o).unwrap()
    };
    let max = run(RecoveryPolicy::paper().with_watchdog(u64::MAX));
    assert_eq!(max.raw.recoveries, 0);
    assert_eq!(
        stats_fingerprint(&max),
        stats_fingerprint(&run(RecoveryPolicy::paper()))
    );
}

#[test]
fn divergence_at_first_and_last_epoch() {
    let mut b = ProgramBuilder::new("div");
    let a = b.shared_array("a", 64, 8);
    let i = b.var();
    b.parallel(move |r| {
        for _ in 0..4 {
            r.par_for(None, i, 0, 64, move |body| body.load(a, Expr::v(i)));
        }
    });
    let p = b.build();
    for epoch in [0u64, 3] {
        let o = RunOptions::new(ExecMode::Slipstream)
            .with_machine(machine(4))
            .with_sync(SlipSync::G0)
            .with_faults(FaultPlan::wander_at(0, epoch).with(wander(2, epoch)));
        let r = run_program(&p, &o).unwrap_or_else(|e| panic!("epoch {epoch}: {e}"));
        assert!(r.raw.recoveries >= 2, "epoch {epoch}: both pairs recovered");
        assert_eq!(r.raw.user_r.loads, 4 * 64);
    }
}

#[test]
fn divergence_during_dynamic_loop_recovers() {
    let mut b = ProgramBuilder::new("divdyn");
    let a = b.shared_array("a", 64, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, i, 0, 64, move |body| body.load(a, Expr::v(i)));
        r.par_for(Some(ScheduleSpec::dynamic(4)), i, 0, 64, move |body| {
            body.load(a, Expr::v(i));
        });
        r.par_for(None, i, 0, 64, move |body| body.load(a, Expr::v(i)));
    });
    let p = b.build();
    let o = RunOptions::new(ExecMode::Slipstream)
        .with_machine(machine(4))
        .with_sync(SlipSync::G0)
        .with_faults(FaultPlan::wander_at(1, 1));
    let r = run_program(&p, &o).unwrap();
    assert!(r.raw.recoveries >= 1);
    assert_eq!(r.raw.user_r.loads, 3 * 64);
}

#[test]
fn omp_num_threads_caps_the_team() {
    let mut b = ProgramBuilder::new("cap");
    let a = b.shared_array("a", 64, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, i, 0, 64, move |body| body.load(a, Expr::v(i)));
    });
    let p = b.build();
    let mut env = RuntimeEnv::default();
    env.set_var("OMP_NUM_THREADS", "2").unwrap();
    for mode in [ExecMode::Single, ExecMode::Slipstream] {
        let mut o = RunOptions::new(mode)
            .with_machine(machine(4))
            .with_env(env.clone());
        if mode == ExecMode::Slipstream {
            o.sync = Some(SlipSync::G0);
        }
        let r = run_program(&p, &o).unwrap();
        assert_eq!(r.raw.user_r.loads, 64, "{mode:?}");
        // Only 2 workers were active: their per-cpu stats confirm it.
        let active = r
            .raw
            .cpu_stats
            .iter()
            .zip(&r.raw.roles)
            .filter(|(s, role)| s.loads > 0 && !role.is_a())
            .count();
        assert!(active <= 2, "{mode:?}: {active} workers for a cap of 2");
    }
}

#[test]
fn back_to_back_regions_and_serial_interludes() {
    let mut b = ProgramBuilder::new("regions");
    let a = b.shared_array("a", 64, 8);
    let i = b.var();
    for _ in 0..4 {
        b.parallel(move |r| {
            r.par_for(None, i, 0, 64, move |body| {
                body.load(a, Expr::v(i));
            });
        });
        b.serial(move |s| {
            s.compute(500);
            s.store(a, 0);
        });
    }
    let p = b.build();
    for r in all_modes(&p, &machine(4)) {
        assert_eq!(r.raw.user_r.loads, 4 * 64, "{}", r.label);
        assert_eq!(r.raw.user_r.stores, 4, "{}", r.label);
    }
}

#[test]
fn region_scoped_slipstream_off_disables_only_that_region() {
    use omp_ir::node::{SlipSyncType, SlipstreamClause};
    let mut b = ProgramBuilder::new("mixed");
    let a = b.shared_array("a", 64, 8);
    let i = b.var();
    // Region 1: slipstream as configured. Region 2: explicitly disabled.
    b.parallel(move |r| {
        r.par_for(None, i, 0, 64, move |body| body.load(a, Expr::v(i)));
    });
    b.parallel_with(
        Some(SlipstreamClause {
            sync: SlipSyncType::None,
            tokens: 0,
        }),
        move |r| {
            r.par_for(None, i, 0, 64, move |body| body.load(a, Expr::v(i)));
        },
    );
    let p = b.build();
    let r = run_program(
        &p,
        &RunOptions::new(ExecMode::Slipstream)
            .with_machine(machine(4))
            .with_sync(SlipSync::G0),
    )
    .unwrap();
    assert_eq!(r.raw.user_r.loads, 2 * 64);
    // The A-streams executed only the first region.
    assert_eq!(r.raw.user_a.loads, 64);
}

#[test]
fn barrier_dense_program_with_no_work() {
    let mut b = ProgramBuilder::new("bars");
    b.parallel(|r| {
        for _ in 0..20 {
            r.barrier();
        }
    });
    let p = b.build();
    for r in all_modes(&p, &machine(4)) {
        assert!(r.exec_cycles > 0, "{}", r.label);
    }
}

#[test]
fn sections_with_more_sections_than_threads() {
    let mut b = ProgramBuilder::new("secs");
    let a = b.shared_array("a", 64, 8);
    b.parallel(move |r| {
        r.sections(13, move |idx, sec| {
            sec.load(a, idx as i64 % 64);
            sec.compute(30);
        });
    });
    let p = b.build();
    for r in all_modes(&p, &machine(4)) {
        assert_eq!(r.raw.user_r.loads, 13, "{}", r.label);
    }
    // In slipstream mode the A-streams mirror all 13 sections.
    let mut o = RunOptions::new(ExecMode::Slipstream).with_machine(machine(4));
    o.sync = Some(SlipSync::G0);
    let r = run_program(&p, &o).unwrap();
    assert_eq!(r.raw.user_a.loads, 13);
}

#[test]
fn affinity_schedule_completes_and_mostly_stays_home() {
    // Balanced loop: no steals needed; every thread drains its own block.
    let n = 256i64;
    let mut b = ProgramBuilder::new("aff");
    let a = b.shared_array("a", n as u64, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(Some(ScheduleSpec::affinity(16)), i, 0, n, move |body| {
            body.load(a, Expr::v(i));
            body.compute(20);
        });
    });
    let p = b.build();
    for (mode, sync) in [
        (ExecMode::Single, None),
        (ExecMode::Slipstream, Some(SlipSync::G0)),
    ] {
        let mut o = RunOptions::new(mode).with_machine(machine(4));
        o.sync = sync;
        let r = run_program(&p, &o).unwrap();
        assert_eq!(r.raw.user_r.loads, n as u64, "{mode:?}");
        assert!(r.raw.sched_grabs > 0);
        if mode == ExecMode::Slipstream {
            // The A-streams mirror every affinity chunk.
            assert_eq!(r.raw.user_a.loads, n as u64);
        }
    }
}

#[test]
fn affinity_steals_rebalance_an_imbalanced_loop() {
    // Triangular work: early iterations are cheap, late ones expensive.
    // Affinity scheduling must finish (steals drain the loaded tail) and
    // cover the space exactly.
    let n = 128i64;
    let mut b = ProgramBuilder::new("aff-imb");
    let a = b.shared_array("a", n as u64, 8);
    let i = b.var();
    let j = b.var();
    b.parallel(move |r| {
        r.par_for(Some(ScheduleSpec::affinity(4)), i, 0, n, move |body| {
            body.for_loop(j, 0, Expr::v(i) * 4, move |inner| {
                inner.compute(10);
                inner.load(a, Expr::v(i));
            });
        });
    });
    let p = b.build();
    let oracle = omp_ir::trace(&p, 4);
    let mut o = RunOptions::new(ExecMode::Single).with_machine(machine(4));
    o.sync = None;
    let r = run_program(&p, &o).unwrap();
    assert_eq!(r.raw.user_r.loads, oracle.total.loads);
}

#[test]
fn recovery_resets_stale_handshake_tokens() {
    // Divergence while the R-stream is publishing dynamic-loop decisions,
    // followed by ANOTHER dynamic loop after recovery: the recovered
    // A-stream must not consume stale semaphore tokens whose decisions
    // were discarded.
    let mut b = ProgramBuilder::new("divdyn2");
    let a = b.shared_array("a", 64, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, i, 0, 64, move |body| body.load(a, Expr::v(i)));
        r.par_for(Some(ScheduleSpec::dynamic(4)), i, 0, 64, move |body| {
            body.load(a, Expr::v(i));
        });
        r.par_for(Some(ScheduleSpec::dynamic(4)), i, 0, 64, move |body| {
            body.load(a, Expr::v(i));
        });
        r.par_for(Some(ScheduleSpec::dynamic(4)), i, 0, 64, move |body| {
            body.load(a, Expr::v(i));
        });
    });
    let p = b.build();
    for epoch in [1u64, 2] {
        let o = RunOptions::new(ExecMode::Slipstream)
            .with_machine(machine(4))
            .with_sync(SlipSync::G0)
            .with_faults(FaultPlan::wander_at(0, epoch).with(wander(3, epoch)));
        let r = run_program(&p, &o).unwrap_or_else(|e| panic!("epoch {epoch}: {e}"));
        assert!(r.raw.recoveries >= 2, "epoch {epoch}");
        assert_eq!(r.raw.user_r.loads, 4 * 64);
    }
}

#[test]
fn os_noise_is_deterministic_and_accounted() {
    use slipstream::OsNoise;
    let mut b = ProgramBuilder::new("noise");
    let a = b.shared_array("a", 256, 8);
    let i = b.var();
    b.parallel(move |r| {
        for _ in 0..3 {
            r.par_for(None, i, 0, 256, move |body| {
                body.load(a, Expr::v(i));
                body.compute(40);
            });
        }
    });
    let p = b.build();
    let noise = OsNoise {
        quantum_cycles: 10_000,
        slice_cycles: 500,
        seed: 7,
    };
    let mut o = RunOptions::new(ExecMode::Slipstream)
        .with_machine(machine(4))
        .with_sync(SlipSync::G0)
        .with_os_noise(noise);
    let r1 = run_program(&p, &o).unwrap();
    let r2 = run_program(&p, &o).unwrap();
    assert_eq!(r1.exec_cycles, r2.exec_cycles, "noise is deterministic");
    assert!(
        r1.r_breakdown.get(dsm_sim::TimeClass::Os) > 0,
        "stolen cycles are accounted"
    );
    // A different seed gives a different (but still complete) run.
    o.os_noise = Some(OsNoise { seed: 8, ..noise });
    let r3 = run_program(&p, &o).unwrap();
    assert_eq!(r3.raw.user_r.loads, r1.raw.user_r.loads);
    assert_ne!(r3.exec_cycles, r1.exec_cycles);
    // Quiet runs are faster.
    o.os_noise = None;
    let quiet = run_program(&p, &o).unwrap();
    assert!(quiet.exec_cycles < r1.exec_cycles);
}

#[test]
fn explicit_node_api_parallel_region() {
    // Build a region via raw nodes (the lower-level API) and run it.
    let p = omp_ir::Program {
        name: "raw".into(),
        arrays: vec![omp_ir::node::ArrayDecl {
            name: "x".into(),
            shared: true,
            len: 32,
            elem_bytes: 8,
        }],
        tables: vec![],
        num_vars: 1,
        body: Node::Parallel {
            body: Box::new(Node::ParFor {
                sched: None,
                var: omp_ir::expr::VarId(0),
                begin: Expr::c(0),
                end: Expr::c(32),
                body: Box::new(Node::Store {
                    array: omp_ir::node::ArrayId(0),
                    index: Expr::v(omp_ir::expr::VarId(0)),
                }),
                reduction: None,
                nowait: false,
            }),
            slipstream: None,
        },
    };
    let r = run_program(
        &p,
        &RunOptions::new(ExecMode::Single).with_machine(machine(2)),
    )
    .unwrap();
    assert_eq!(r.raw.user_r.stores, 32);
}
