//! Integration tests for the structured event-tracing subsystem: a traced
//! run must produce a coherent `TraceData` (tokens, leads, barriers,
//! spans) while leaving every simulated statistic bit-identical to the
//! untraced run — tracing is observation-only.

use omp_ir::expr::Expr;
use omp_ir::node::{Program, ScheduleKind, ScheduleSpec};
use omp_ir::ProgramBuilder;
use omp_rt::ExecMode;
use omp_rt::SlipSync;
use sim_trace::{analyze, TraceConfig, TraceEvent};
use slipstream::faults::{FaultEvent, FaultKind, FaultPlan};
use slipstream::runner::{run_program, RunOptions};
use slipstream::{chrome_trace_json, validate_chrome_trace, MachineConfig};

fn small_machine() -> MachineConfig {
    let mut m = MachineConfig::paper();
    m.num_cmps = 4;
    m
}

fn kernel(iters: i64) -> Program {
    let n = 64i64;
    let mut b = ProgramBuilder::new("trace-kernel");
    let x = b.shared_array("x", n as u64, 8);
    let y = b.shared_array("y", n as u64, 8);
    let i = b.var();
    let t = b.var();
    b.parallel(move |r| {
        r.for_loop(t, 0, iters, move |it| {
            it.par_for(None, i, 0, n, move |body| {
                body.load(x, Expr::v(i));
                body.compute(8);
                body.store(y, Expr::v(i));
            });
        });
    });
    b.build()
}

fn opts(trace: TraceConfig) -> RunOptions {
    RunOptions::new(ExecMode::Slipstream)
        .with_machine(small_machine())
        .with_sync(SlipSync::G0)
        .with_trace(trace)
}

#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let p = kernel(4);
    let plain = run_program(&p, &opts(TraceConfig::OFF)).unwrap();
    let traced = run_program(&p, &opts(TraceConfig::on())).unwrap();
    assert!(plain.raw.trace.is_none());
    assert!(traced.raw.trace.is_some());
    assert_eq!(plain.exec_cycles, traced.exec_cycles);
    assert_eq!(plain.r_breakdown, traced.r_breakdown);
    assert_eq!(plain.a_breakdown, traced.a_breakdown);
    assert_eq!(plain.raw.fill_counts, traced.raw.fill_counts);
    assert_eq!(plain.raw.user_r, traced.raw.user_r);
    assert_eq!(plain.raw.user_a, traced.raw.user_a);
    assert_eq!(plain.raw.machine, traced.raw.machine);
    for (a, b) in plain.raw.cpu_stats.iter().zip(&traced.raw.cpu_stats) {
        assert_eq!(a.time, b.time);
        assert_eq!(
            (
                a.l1_hits,
                a.l2_hits,
                a.l2_misses,
                a.barriers,
                a.loads,
                a.stores
            ),
            (
                b.l1_hits,
                b.l2_hits,
                b.l2_misses,
                b.barriers,
                b.loads,
                b.stores
            )
        );
    }
}

#[test]
fn traced_slipstream_run_records_the_protocol() {
    let p = kernel(3);
    let r = run_program(&p, &opts(TraceConfig::on())).unwrap();
    let t = r.raw.trace.as_ref().unwrap();

    assert_eq!(t.cycles, r.exec_cycles);
    assert_eq!(t.cpu_names.len(), 8, "4 CMPs x 2 CPUs");
    assert!(t.cpu_names.iter().any(|n| n.contains("(R)")));
    assert!(t.cpu_names.iter().any(|n| n.contains("(A)")));
    assert_eq!(t.cmp_count, 4);
    assert_eq!(t.spans.len(), 8);
    assert!(t.spans.iter().any(|s| !s.is_empty()), "spans recorded");

    let mut inserts = 0u64;
    let mut consumes = 0u64;
    let mut leads = 0u64;
    let mut arrives = 0u64;
    let mut fills = 0u64;
    for e in &t.events {
        match e.ev {
            TraceEvent::TokenInsert { .. } => inserts += 1,
            TraceEvent::TokenConsume { .. } => consumes += 1,
            TraceEvent::Lead { .. } => leads += 1,
            TraceEvent::BarrierArrive { .. } => arrives += 1,
            TraceEvent::MemFill { .. } => fills += 1,
            _ => {}
        }
    }
    assert!(inserts > 0, "R-streams inserted tokens");
    assert!(consumes > 0, "A-streams consumed tokens");
    assert!(leads > 0, "lead samples recorded");
    assert!(arrives > 0, "barrier arrivals recorded");
    assert!(fills > 0, "L2 fills recorded");

    // Merge order is total and deterministic.
    let mut keys: Vec<_> = t.events.iter().map(|e| e.order_key()).collect();
    let sorted = {
        let mut k = keys.clone();
        k.sort();
        k
    };
    assert_eq!(keys, sorted);
    keys.dedup();
    assert_eq!(keys.len(), t.events.len(), "order keys are unique");
}

#[test]
fn fault_and_recovery_events_reach_the_trace() {
    let p = kernel(6);
    let plan = FaultPlan::none().with(FaultEvent {
        kind: FaultKind::Wander,
        tid: 1,
        seq: 2,
        arg: 0,
    });
    let o = opts(TraceConfig::on()).with_faults(plan);
    let r = run_program(&p, &o).unwrap();
    assert!(r.raw.recoveries > 0, "wander forces a recovery");
    let t = r.raw.trace.as_ref().unwrap();
    let faults = t
        .events
        .iter()
        .filter(|e| matches!(e.ev, TraceEvent::Fault { .. }))
        .count();
    let recoveries = t
        .events
        .iter()
        .filter(|e| matches!(e.ev, TraceEvent::Recovery { .. }))
        .count();
    assert_eq!(faults, 1, "one planned fault fired");
    assert_eq!(recoveries as u64, r.raw.recoveries);
    let episodes = &analyze(t).recoveries;
    assert_eq!(episodes.len(), 1);
    assert!(episodes[0].cleared_cycle.is_some(), "episode resolved");
}

#[test]
fn dynamic_schedule_handshakes_are_traced() {
    let n = 64i64;
    let mut b = ProgramBuilder::new("dyn-trace");
    let x = b.shared_array("x", n as u64, 8);
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(
            Some(ScheduleSpec {
                kind: ScheduleKind::Dynamic,
                chunk: Some(8),
            }),
            i,
            0,
            n,
            move |body| body.load(x, Expr::v(i)),
        );
    });
    let p = b.build();
    let r = run_program(&p, &opts(TraceConfig::on())).unwrap();
    let t = r.raw.trace.as_ref().unwrap();
    let publishes = t
        .events
        .iter()
        .filter(|e| matches!(e.ev, TraceEvent::DecisionPublish { .. }))
        .count();
    let consumes = t
        .events
        .iter()
        .filter(|e| matches!(e.ev, TraceEvent::DecisionConsume { .. }))
        .count();
    assert!(publishes > 0, "R published chunk decisions");
    assert!(consumes > 0, "A consumed chunk decisions");
}

#[test]
fn traced_run_exports_valid_chrome_trace() {
    let p = kernel(3);
    let r = run_program(&p, &opts(TraceConfig::on())).unwrap();
    let t = r.raw.trace.as_ref().unwrap();
    let json = chrome_trace_json(t);
    let report = validate_chrome_trace(&json).expect("valid chrome trace");
    assert!(report.slice_events > 0, "time-class slices");
    assert!(report.token_events > 0, "token semaphore instants");
    assert!(report.lead_counter_tracks >= 1, "per-pair lead counters");
    assert_eq!(report.cpu_threads_named, 8);
}

#[test]
fn capacity_zero_trace_config_stays_off() {
    let p = kernel(2);
    let o = opts(TraceConfig {
        enabled: true,
        capacity: 0,
    });
    let r = run_program(&p, &o).unwrap();
    assert!(r.raw.trace.is_none());
}
