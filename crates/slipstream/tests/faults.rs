//! Fault-injection property suite: the A-stream is speculative
//! everywhere, so NO fault plan may deadlock the run or perturb R-stream
//! output, and a pair that exhausts its retry budget must degrade to
//! single-stream mode visibly.

use dsm_sim::MachineConfig;
use npb_kernels::Benchmark;
use omp_ir::expr::Expr;
use omp_ir::node::{Program, ReductionOp, ScheduleSpec};
use omp_ir::trace::trace;
use omp_rt::mode::PairMode;
use omp_rt::{ExecMode, SlipSync};
use sim_trace::{TraceConfig, TraceEvent};
use slipstream::faults::{FaultEvent, FaultKind, FaultPlan};
use slipstream::policy::RecoveryPolicy;
use slipstream::report::resilience_table;
use slipstream::runner::{run_program, RunOptions, RunSummary};

const TEAM: u64 = 4;

fn machine() -> MachineConfig {
    let mut m = MachineConfig::paper();
    m.num_cmps = TEAM as usize;
    m
}

/// A kernel that visits every fault hook point: static barriers (token
/// insert/consume), a dynamic loop and sections (publish handshake),
/// input I/O (publish handshake in serial code), a single, a reduction,
/// shared stores (conversion site), and two regions (region-go handshake
/// plus token re-allocation).
fn chaos_kernel(n: i64) -> Program {
    let mut b = omp_ir::ProgramBuilder::new("chaos");
    let x = b.shared_array("x", n as u64, 8);
    let y = b.shared_array("y", n as u64, 8);
    let sum = b.shared_array("sum", 1, 8);
    let i = b.var();
    b.serial(|s| s.io(true, 512));
    b.parallel(move |r| {
        r.par_for(None, i, 0, n, move |body| {
            body.load(x, Expr::v(i));
            body.compute(2);
            body.store(y, Expr::v(i));
        });
        r.par_for(Some(ScheduleSpec::dynamic(8)), i, 0, n, move |body| {
            body.load(y, Expr::v(i));
        });
        r.sections(3, move |s, body| {
            body.load(x, Expr::c(s as i64));
            body.compute(4);
        });
        r.single(move |body| body.store(y, Expr::c(0)));
        r.barrier();
    });
    b.serial(|s| s.io(true, 256));
    b.parallel(move |r| {
        r.par_for_reduce(None, i, 0, n, ReductionOp::Sum, sum, 0, move |body| {
            body.load(y, Expr::v(i));
            body.compute(1);
        });
        r.par_for(None, i, 0, n, move |body| {
            body.load(x, Expr::v(i));
            body.store(y, Expr::v(i));
        });
    });
    b.build()
}

fn run_with(
    p: &Program,
    sync: SlipSync,
    faults: FaultPlan,
    recovery: RecoveryPolicy,
) -> RunSummary {
    let opts = RunOptions::new(ExecMode::Slipstream)
        .with_machine(machine())
        .with_sync(sync)
        .with_faults(faults)
        .with_recovery(recovery);
    run_program(p, &opts).expect("faulted run must terminate without deadlock")
}

/// R-stream semantics must be byte-for-byte those of the fault-free
/// oracle: the A-stream is pure speculation.
fn assert_oracle(r: &RunSummary, oracle: &omp_ir::trace::TraceSummary, ctx: &str) {
    assert_eq!(r.raw.user_r.loads, oracle.total.loads, "R loads {ctx}");
    assert_eq!(r.raw.user_r.stores, oracle.total.stores, "R stores {ctx}");
    assert_eq!(
        r.raw.user_r.compute_cycles, oracle.total.compute_cycles,
        "R compute {ctx}"
    );
    assert_eq!(r.raw.user_r.io_in, oracle.total.io_in, "R io in {ctx}");
    assert_eq!(r.raw.user_r.io_out, oracle.total.io_out, "R io out {ctx}");
    assert_eq!(r.raw.user_a.io_in, 0, "A never does I/O {ctx}");
    assert_eq!(r.raw.user_a.io_out, 0, "A never does I/O {ctx}");
}

fn assert_ledger_sane(r: &RunSummary, plan_len: usize, ctx: &str) {
    let l = &r.raw.pair_ledgers;
    assert_eq!(l.len(), TEAM as usize, "one ledger per pair {ctx}");
    let fired: u64 = l.iter().map(|p| p.faults_injected).sum();
    assert!(
        fired <= plan_len as u64,
        "each event fires at most once {ctx}"
    );
    let rec: u64 = l.iter().map(|p| p.recoveries).sum();
    let wd: u64 = l.iter().map(|p| p.watchdog_recoveries).sum();
    let to: u64 = l.iter().map(|p| p.timeout_recoveries).sum();
    assert_eq!(rec, r.raw.recoveries, "ledger vs aggregate {ctx}");
    assert_eq!(wd, r.raw.watchdog_recoveries, "ledger vs aggregate {ctx}");
    assert_eq!(to, r.raw.timeout_recoveries, "ledger vs aggregate {ctx}");
    for p in l {
        assert!(
            p.watchdog_recoveries + p.timeout_recoveries <= p.recoveries,
            "watchdog and timeout recoveries are subsets {ctx}"
        );
        assert_eq!(p.demoted(), p.demoted_at.is_some(), "{ctx}");
        assert_eq!(p.demoted(), p.mode == PairMode::DegradedSingle, "{ctx}");
    }
    assert_eq!(
        r.raw.demotions,
        l.iter().filter(|p| p.demoted()).count() as u64,
        "{ctx}"
    );
}

/// The trace agrees with the ledger: nothing was dropped, each pair has
/// exactly one `Recovery` event per recovery, labelled watchdog and
/// timeout as often as its ledger counts them, and one `Demotion` event
/// if it was demoted, none otherwise (demotion is one-way).
fn assert_trace_consistent(r: &RunSummary, ctx: &str) {
    let data = r.raw.trace.as_ref().expect("traced run");
    assert_eq!(data.dropped, 0, "lossless trace {ctx}");
    let mut traced = vec![[0u64; 4]; r.raw.pair_ledgers.len()];
    for e in &data.events {
        match e.ev {
            TraceEvent::Recovery {
                pair,
                watchdog,
                timeout,
            } => {
                let t = &mut traced[pair as usize];
                t[0] += 1;
                t[1] += u64::from(watchdog);
                t[2] += u64::from(timeout);
            }
            TraceEvent::Demotion { pair } => traced[pair as usize][3] += 1,
            _ => {}
        }
    }
    for (p, (t, l)) in traced.iter().zip(&r.raw.pair_ledgers).enumerate() {
        let ledger = [
            l.recoveries,
            l.watchdog_recoveries,
            l.timeout_recoveries,
            u64::from(l.demoted()),
        ];
        assert_eq!(
            *t, ledger,
            "pair {p} [recoveries, watchdog, timeout, demotions]: trace vs ledger {ctx}"
        );
    }
}

/// The tentpole property: 200+ seeded random fault plans, every one
/// terminating with oracle-exact R-stream output and a sane ledger,
/// under both synchronization policies.
#[test]
fn random_fault_plans_never_corrupt_or_deadlock() {
    let p = chaos_kernel(96);
    let oracle = trace(&p, TEAM);
    // Short watchdog so stranded-A plans recover quickly in tests.
    let recovery = RecoveryPolicy::paper().with_watchdog(150_000);
    for seed in 0..220u64 {
        let plan = FaultPlan::random(seed, TEAM, 6);
        let n = plan.events.len();
        let sync = if seed % 2 == 0 {
            SlipSync::G0
        } else {
            SlipSync::L1
        };
        let r = run_with(&p, sync, plan, recovery);
        let ctx = format!("(seed {seed}, {:?})", sync);
        assert_oracle(&r, &oracle, &ctx);
        assert_ledger_sane(&r, n, &ctx);
    }
}

/// The chaos sweep over the NPB kernels: 200 seeded random fault plans
/// on the tiny presets, cycling through the five kernels, both
/// synchronization policies and four retry budgets, with every detection
/// tier armed and tracing on. Every run must end inside the cycle budget
/// with oracle-exact R-stream output, a coherent ledger and a trace that
/// agrees with it, and the sweep as a whole must fire the token-wait
/// timeout tier, not just survive it.
#[test]
fn npb_fault_sweep_keeps_ledger_and_trace_consistent() {
    let kernels: Vec<_> = Benchmark::ALL
        .iter()
        .map(|bm| {
            let p = bm.build_tiny();
            let oracle = trace(&p, TEAM);
            (bm.name(), p, oracle)
        })
        .collect();
    let recovery = RecoveryPolicy::hardened()
        .with_watchdog(150_000)
        .with_token_wait(120_000);
    let budgets = [8, 0, 2, 4];
    let mut timeouts = 0;
    for seed in 0..200u64 {
        let (name, p, oracle) = &kernels[seed as usize % kernels.len()];
        let sync = if (seed / 5) % 2 == 0 {
            SlipSync::G0
        } else {
            SlipSync::L1
        };
        let plan = FaultPlan::random(seed, TEAM, 6);
        let n = plan.events.len();
        let opts = RunOptions::new(ExecMode::Slipstream)
            .with_machine(machine())
            .with_sync(sync)
            .with_faults(plan)
            .with_recovery(recovery.with_max_recoveries(budgets[seed as usize % budgets.len()]))
            .with_cycle_budget(2_000_000_000)
            .with_trace(TraceConfig::on());
        let ctx = format!("(seed {seed}, {name}, {})", sync.label());
        let r = run_program(p, &opts).unwrap_or_else(|e| panic!("run failed {ctx}: {e}"));
        assert_oracle(&r, oracle, &ctx);
        assert_ledger_sane(&r, n, &ctx);
        assert_trace_consistent(&r, &ctx);
        timeouts += r.raw.timeout_recoveries;
    }
    assert!(timeouts > 0, "the sweep never fired the token-wait timeout");
}

/// Replaying the same seed must reproduce the run exactly — the whole
/// point of a deterministic fault plan.
#[test]
fn faulted_runs_are_deterministic() {
    let p = chaos_kernel(64);
    let recovery = RecoveryPolicy::paper().with_watchdog(150_000);
    for seed in [3u64, 17, 101] {
        let a = run_with(&p, SlipSync::G0, FaultPlan::random(seed, TEAM, 6), recovery);
        let b = run_with(&p, SlipSync::G0, FaultPlan::random(seed, TEAM, 6), recovery);
        assert_eq!(a.exec_cycles, b.exec_cycles, "seed {seed}");
        assert_eq!(a.raw.recoveries, b.raw.recoveries, "seed {seed}");
        assert_eq!(a.raw.pair_ledgers, b.raw.pair_ledgers, "seed {seed}");
    }
}

/// Satellite 1 regression: token-slack suspicion alone (diverged flag
/// never set) must trigger recovery. A long stall burst keeps the
/// A-stream from consuming while its R-stream keeps inserting; the old
/// `suspected && diverged` condition left the pair unrecovered forever.
#[test]
fn slack_suspicion_alone_recovers() {
    let p = chaos_kernel(96);
    let oracle = trace(&p, TEAM);
    let plan = FaultPlan::none().with(FaultEvent {
        kind: FaultKind::StallBurst,
        tid: 1,
        seq: 0,
        arg: 40_000_000, // sidelined well past every R barrier
    });
    let r = run_with(
        &p,
        SlipSync::G0,
        plan,
        RecoveryPolicy::paper().with_watchdog(150_000),
    );
    assert_oracle(&r, &oracle, "(stall burst)");
    assert!(
        r.raw.pair_ledgers[1].recoveries >= 1,
        "slack-based suspicion must recover the stalled pair: {:?}",
        r.raw.pair_ledgers[1]
    );
}

/// Satellite 2 regression: a lost `sched_sem` signal surfaces as
/// recoverable divergence (typed `None`/mismatch), never as a panic, and
/// the run still completes with oracle output.
#[test]
fn lost_scheduling_signal_is_recoverable() {
    let p = chaos_kernel(96);
    let oracle = trace(&p, TEAM);
    for seq in 0..4u64 {
        let plan = FaultPlan::none().with(FaultEvent {
            kind: FaultKind::SignalLoss,
            tid: 2,
            seq,
            arg: 0,
        });
        let r = run_with(
            &p,
            SlipSync::G0,
            plan,
            RecoveryPolicy::paper().with_watchdog(150_000),
        );
        assert_oracle(&r, &oracle, &format!("(signal loss seq {seq})"));
    }
}

/// A lost token strands the A-stream at a construct barrier where no
/// slack ever accumulates; only the region-end watchdog can save the
/// team from deadlock.
#[test]
fn token_loss_is_caught_by_the_watchdog() {
    let p = chaos_kernel(96);
    let oracle = trace(&p, TEAM);
    let plan = FaultPlan::none().with(FaultEvent {
        kind: FaultKind::TokenLoss,
        tid: 0,
        seq: 0,
        arg: 0,
    });
    let r = run_with(
        &p,
        SlipSync::G0,
        plan,
        RecoveryPolicy::paper().with_watchdog(120_000),
    );
    assert_oracle(&r, &oracle, "(token loss)");
    assert!(
        r.raw.watchdog_recoveries >= 1,
        "stranded A-stream must be watchdog-recovered: {:?}",
        r.raw.pair_ledgers
    );
}

/// Corrupted decisions are well-formed but wrong; the typed consumer
/// diverges instead of panicking and the pair recovers.
#[test]
fn corrupted_decisions_are_recoverable() {
    let p = chaos_kernel(96);
    let oracle = trace(&p, TEAM);
    for seq in 0..4u64 {
        let plan = FaultPlan::none().with(FaultEvent {
            kind: FaultKind::DecisionCorrupt,
            tid: 3,
            seq,
            arg: 0,
        });
        let r = run_with(
            &p,
            SlipSync::G0,
            plan,
            RecoveryPolicy::paper().with_watchdog(150_000),
        );
        assert_oracle(&r, &oracle, &format!("(corrupt seq {seq})"));
    }
}

/// Bounded retry with escalation: a pair battered past its retry budget
/// is demoted to single-stream mode, the demotion is recorded in the
/// ledger and aggregate counters, the resilience report shows it, and
/// the run still completes correctly.
#[test]
fn exhausted_retry_budget_demotes_the_pair() {
    let p = chaos_kernel(96);
    let oracle = trace(&p, TEAM);
    // Wander at every early epoch: each recovery re-diverges immediately.
    let mut plan = FaultPlan::none();
    for seq in 0..12 {
        plan = plan.with(FaultEvent {
            kind: FaultKind::Wander,
            tid: 1,
            seq,
            arg: 0,
        });
    }
    let r = run_with(
        &p,
        SlipSync::G0,
        plan,
        RecoveryPolicy::paper()
            .with_watchdog(120_000)
            .with_max_recoveries(2),
    );
    assert_oracle(&r, &oracle, "(demotion)");
    assert_eq!(r.raw.demotions, 1, "{:?}", r.raw.pair_ledgers);
    let l = &r.raw.pair_ledgers[1];
    assert!(l.demoted(), "{l:?}");
    assert_eq!(l.mode, PairMode::DegradedSingle);
    assert!(l.demoted_at.is_some());
    assert_eq!(l.recoveries, 3, "budget 2 + the demoting attempt: {l:?}");
    let table = resilience_table(&r.raw);
    assert!(table.contains("degraded-single"), "{table}");
    assert!(table.contains("1 demotions"), "{table}");
    // Healthy pairs stay in slipstream mode.
    assert_eq!(r.raw.pair_ledgers[0].mode, PairMode::Slipstream);
}

/// Demotion is one-way and per-pair: other pairs keep slipstreaming and
/// the empty plan never recovers or demotes anything.
#[test]
fn empty_plan_is_a_no_op() {
    let p = chaos_kernel(96);
    let oracle = trace(&p, TEAM);
    let r = run_with(&p, SlipSync::G0, FaultPlan::none(), RecoveryPolicy::paper());
    assert_oracle(&r, &oracle, "(no faults)");
    assert_eq!(r.raw.recoveries, 0);
    assert_eq!(r.raw.watchdog_recoveries, 0);
    assert_eq!(r.raw.demotions, 0);
    assert!(r.raw.pair_ledgers.iter().all(|l| !l.demoted()));
}

/// A program with `regions` identical parallel regions of `fors` static
/// loops each. The loops-per-region knob controls how many barrier
/// epochs (= wander-fault hook slots, which reset per region) one region
/// exposes.
fn multi_region(n: i64, regions: usize, fors: usize) -> Program {
    let mut b = omp_ir::ProgramBuilder::new("regions");
    let x = b.shared_array("x", n as u64, 8);
    let y = b.shared_array("y", n as u64, 8);
    let i = b.var();
    for _ in 0..regions {
        b.parallel(move |r| {
            for _ in 0..fors {
                r.par_for(None, i, 0, n, move |body| {
                    body.load(x, Expr::v(i));
                    body.compute(2);
                    body.store(y, Expr::v(i));
                });
            }
        });
    }
    b.build()
}

/// Wander faults at A-epochs `0..seqs` against `tid`. Epoch counters
/// reset at region start, so a blanket storm keeps re-firing on a pair
/// as it recovers and advances within (and across) regions, until the
/// unfired slots run out.
fn wander_storm(tid: u64, seqs: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for seq in 0..seqs {
        plan = plan.with(FaultEvent {
            kind: FaultKind::Wander,
            tid,
            seq,
            arg: 0,
        });
    }
    plan
}

fn run(p: &Program, team: u64, opts: RunOptions) -> RunSummary {
    let mut m = machine();
    m.num_cmps = team as usize;
    let opts = opts.with_machine(m).with_sync(SlipSync::G0);
    run_program(p, &opts).expect("run must terminate")
}

/// The token-wait timeout is a real anti-wedge tier of its own: with the
/// watchdog disabled, a lost token (which strands the A-stream where no
/// slack ever accumulates) is recovered by the timeout alone.
#[test]
fn token_wait_timeout_recovers_a_lost_token_without_the_watchdog() {
    const TEAM: u64 = 4;
    let p = multi_region(96, 4, 2);
    let oracle = trace(&p, TEAM);
    let plan = FaultPlan::none().with(FaultEvent {
        kind: FaultKind::TokenLoss,
        tid: 0,
        seq: 0,
        arg: 0,
    });
    let opts = RunOptions::new(ExecMode::Slipstream)
        .with_faults(plan)
        .with_recovery(RecoveryPolicy::hardened().with_watchdog(0));
    let r = run(&p, TEAM, opts);
    assert_oracle(&r, &oracle, "(token-wait timeout)");
    assert!(
        r.raw.timeout_recoveries >= 1,
        "timeout tier must have recovered the stranded A-stream: {:?}",
        r.raw.pair_ledgers
    );
    assert_eq!(r.raw.watchdog_recoveries, 0, "watchdog was disabled");
    let l = &r.raw.pair_ledgers[0];
    assert!(l.timeout_recoveries >= 1, "{l:?}");
    assert!(l.timeout_recoveries <= l.recoveries, "subset: {l:?}");
}

/// Timeout recoveries are labelled in the structured trace, distinct from
/// watchdog and slack recoveries.
#[test]
fn timeout_recoveries_are_labelled_in_the_trace() {
    const TEAM: u64 = 4;
    let p = multi_region(96, 4, 2);
    let plan = FaultPlan::none().with(FaultEvent {
        kind: FaultKind::TokenLoss,
        tid: 0,
        seq: 0,
        arg: 0,
    });
    let opts = RunOptions::new(ExecMode::Slipstream)
        .with_faults(plan)
        .with_recovery(RecoveryPolicy::hardened().with_watchdog(0))
        .with_trace(TraceConfig::on());
    let r = run(&p, TEAM, opts);
    let data = r.raw.trace.as_ref().expect("traced run");
    let timeout_recoveries = data
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.ev,
                TraceEvent::Recovery {
                    timeout: true,
                    watchdog: false,
                    ..
                }
            )
        })
        .count() as u64;
    assert_eq!(timeout_recoveries, r.raw.timeout_recoveries);
    assert!(timeout_recoveries >= 1);
}

/// Every seeded handshake fault shows in the trace where it struck: the
/// lost token insertion and the lost decision signal are flagged `lost`
/// at their pair and sequence number, the corrupted decision is
/// published under its corrupted kind, and each firing is one `Fault`
/// event counted in its pair's ledger.
#[test]
fn handshake_faults_are_labelled_in_the_trace() {
    let p = Benchmark::Cg.build_tiny_sched(ScheduleSpec::dynamic(4));
    let (token_loss, signal_loss, corrupt) = ((1, 2), (2, 3), (3, 1));
    let plan = [
        (FaultKind::TokenLoss, token_loss),
        (FaultKind::SignalLoss, signal_loss),
        (FaultKind::DecisionCorrupt, corrupt),
    ]
    .into_iter()
    .fold(FaultPlan::none(), |plan, (kind, (tid, seq))| {
        plan.with(FaultEvent {
            kind,
            tid,
            seq,
            arg: 0,
        })
    });
    let opts = RunOptions::new(ExecMode::Slipstream)
        .with_machine(machine())
        .with_sync(SlipSync::G0)
        .with_faults(plan)
        .with_recovery(RecoveryPolicy::hardened())
        .with_trace(TraceConfig::on());
    let r = run_program(&p, &opts).expect("faulted run");
    assert_oracle(&r, &trace(&p, TEAM), "(handshake faults)");
    let data = r.raw.trace.as_ref().expect("traced run");
    let (mut lost_tokens, mut lost_signals, mut corrupted) = (vec![], vec![], vec![]);
    let mut faults = vec![0u64; TEAM as usize];
    for e in &data.events {
        match e.ev {
            TraceEvent::TokenInsert {
                pair,
                seq,
                lost: true,
                ..
            } => lost_tokens.push((u64::from(pair), seq)),
            TraceEvent::DecisionPublish {
                pair,
                seq,
                kind,
                lost,
            } => {
                if lost {
                    lost_signals.push((u64::from(pair), seq));
                }
                if (u64::from(pair), seq) == corrupt {
                    corrupted.push(kind);
                }
            }
            TraceEvent::Fault { pair, .. } => faults[pair as usize] += 1,
            _ => {}
        }
    }
    assert_eq!(lost_tokens, [token_loss]);
    assert_eq!(lost_signals, [signal_loss]);
    // Pair 3 is no master, so it never publishes region-go: any decision
    // it publishes corrupts to one.
    assert_eq!(corrupted, ["region-go"]);
    let ledger: Vec<u64> = r
        .raw
        .pair_ledgers
        .iter()
        .map(|l| l.faults_injected)
        .collect();
    assert_eq!(faults, ledger);
    assert_eq!(ledger.iter().sum::<u64>(), 3, "every seeded fault fired");
}

/// The retry budget is exact. Calibrate how many recoveries a blanket
/// storm forces under an effectively unbounded budget, then pin the
/// boundary: a budget of exactly that many survives; one less turns the
/// final recovery into the demoting attempt.
#[test]
fn retry_budget_off_by_one_boundary() {
    const TEAM: u64 = 4;
    let p = multi_region(96, 8, 6);
    let oracle = trace(&p, TEAM);
    let storm = wander_storm(1, 16);
    let base = RecoveryPolicy::paper().with_watchdog(150_000);
    let probe = run(
        &p,
        TEAM,
        RunOptions::new(ExecMode::Slipstream)
            .with_faults(storm.clone())
            .with_recovery(base.with_max_recoveries(64)),
    );
    let forced = probe.raw.pair_ledgers[1].recoveries;
    assert!(
        forced >= 2,
        "storm must force repeated recoveries: {forced}"
    );
    assert!(!probe.raw.pair_ledgers[1].demoted());
    // Budget exactly equal to the forced recoveries: survives.
    let r = run(
        &p,
        TEAM,
        RunOptions::new(ExecMode::Slipstream)
            .with_faults(storm.clone())
            .with_recovery(base.with_max_recoveries(forced)),
    );
    assert_oracle(&r, &oracle, "(budget == forced)");
    let l = &r.raw.pair_ledgers[1];
    assert_eq!(l.recoveries, forced, "{l:?}");
    assert!(!l.demoted(), "exact budget must not demote: {l:?}");
    assert_eq!(r.raw.demotions, 0);
    // One less: the last recovery becomes the demoting attempt.
    let r = run(
        &p,
        TEAM,
        RunOptions::new(ExecMode::Slipstream)
            .with_faults(storm)
            .with_recovery(base.with_max_recoveries(forced - 1)),
    );
    assert_oracle(&r, &oracle, "(budget == forced - 1)");
    let l = &r.raw.pair_ledgers[1];
    assert_eq!(l.recoveries, forced, "budget + the demoting attempt: {l:?}");
    assert!(l.demoted(), "{l:?}");
    assert_eq!(r.raw.demotions, 1);
}
