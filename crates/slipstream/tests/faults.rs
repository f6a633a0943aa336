//! Fault-injection property suite: the A-stream is speculative
//! everywhere, so NO fault plan may deadlock the run or perturb R-stream
//! output, and a pair that exhausts its retry budget must degrade to
//! single-stream mode visibly.

use dsm_sim::MachineConfig;
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
    assert_eq!(r.raw.user_r.io_in, oracle.total.io_in, "R io {ctx}");
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
    assert_eq!(rec, r.raw.recoveries, "ledger vs aggregate {ctx}");
    assert_eq!(wd, r.raw.watchdog_recoveries, "ledger vs aggregate {ctx}");
    assert!(wd <= rec, "watchdog recoveries are a subset {ctx}");
    for p in l {
        assert!(p.watchdog_recoveries <= p.recoveries, "{ctx}");
        assert_eq!(p.demoted(), p.demoted_at.is_some(), "{ctx}");
        assert_eq!(p.demoted(), p.mode == PairMode::DegradedSingle, "{ctx}");
    }
    assert_eq!(
        r.raw.demotions,
        l.iter().filter(|p| p.demoted()).count() as u64,
        "{ctx}"
    );
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
