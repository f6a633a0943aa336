//! PDES bit-identity suite.
//!
//! The contract of the parallel discrete-event scheduler is strict:
//! for every worker count, the simulation must produce output
//! *bit-identical* to the serial engine — same `exec_cycles`, same
//! stats fingerprint — across every mode, kernel, trace configuration,
//! fault plan, and OS-noise model. `workers == 1` is the
//! pre-PDES serial fast path; `workers > 1` switches to the per-CMP
//! domain queues, conservative window formation, the scout worker pool,
//! and closed-form replay of constant-compute loop runs. None of that
//! may move a single cycle.

use bench::{small_machine, summary_fingerprint, STATIC_MODES};
use npb_kernels::Benchmark;
use omp_ir::{Expr, ProgramBuilder};
use omp_rt::RuntimeEnv;
use slipstream::faults::FaultPlan;
use slipstream::runner::{run_program, RunOptions};
use slipstream::{ExecMode, OsNoise, SlipSync};

const WORKER_SWEEP: [usize; 2] = [2, 4];

fn fp(o: &RunOptions, program: &omp_ir::Program) -> (String, slipstream::RunResult) {
    let s = run_program(program, o).expect("simulation failed");
    (summary_fingerprint(&s), s.raw)
}

#[test]
fn every_kernel_and_mode_is_identical_across_worker_counts() {
    let machine = small_machine();
    for bm in Benchmark::ALL {
        let program = bm.build_tiny();
        for (label, mode, sync) in STATIC_MODES {
            let mut o = RunOptions::new(mode).with_machine(machine.clone());
            o.sync = sync;
            o.env = RuntimeEnv::default();
            let (serial, raw1) = fp(&o, &program);
            assert_eq!(raw1.pdes.windows, 0, "serial path must not form windows");
            for w in WORKER_SWEEP {
                let o = o.clone().with_workers(w);
                let (parallel, raw) = fp(&o, &program);
                assert_eq!(
                    serial,
                    parallel,
                    "{} {label} diverged at workers={w}",
                    bm.name()
                );
                assert_eq!(raw.pdes.workers, w);
                assert!(raw.pdes.windows > 0, "parallel path must form windows");
            }
        }
    }
}

#[test]
fn traced_runs_match_untraced_at_workers_4() {
    // Tracing is observation-only on the parallel path too: a traced
    // workers=4 run must fingerprint identically to the untraced
    // serial run.
    let machine = small_machine();
    for bm in [Benchmark::Cg, Benchmark::Mg] {
        let program = bm.build_tiny();
        for (label, mode, sync) in STATIC_MODES {
            let mut o = RunOptions::new(mode).with_machine(machine.clone());
            o.sync = sync;
            let (serial, _) = fp(&o, &program);
            let o = o.with_workers(4).with_trace(sim_trace::TraceConfig::on());
            let s = run_program(&program, &o).expect("traced parallel run");
            assert!(s.raw.trace.is_some());
            assert_eq!(
                serial,
                summary_fingerprint(&s),
                "traced workers=4 {} {label} diverged from untraced serial",
                bm.name()
            );
        }
    }
}

#[test]
fn processed_event_count_ignores_tracing_and_workers() {
    // `RunResult::events` is the denominator of ns per event: it must
    // count the same engine work whether or not the run is traced and
    // at any worker count.
    let machine = small_machine();
    let program = Benchmark::Cg.build_tiny();
    for (label, mode, sync) in STATIC_MODES {
        let mut o = RunOptions::new(mode).with_machine(machine.clone());
        o.sync = sync;
        o.env = RuntimeEnv::default();
        let (_, serial) = fp(&o, &program);
        assert!(serial.events > 0, "{label}: no events counted");
        let (_, traced) = fp(
            &o.clone().with_trace(sim_trace::TraceConfig::on()),
            &program,
        );
        assert_eq!(traced.events, serial.events, "{label}: traced");
        let (_, parallel) = fp(&o.clone().with_workers(2), &program);
        assert_eq!(parallel.events, serial.events, "{label}: workers=2");
    }
}

#[test]
fn faulted_runs_match_serial() {
    // Divergence recovery is the one path that mutates a running
    // A-stream from outside (reseed at the construct barrier) — the most
    // interleaving-sensitive machinery in the engine. Seeded fault
    // storms must replay identically at every worker count.
    let machine = small_machine();
    let program = Benchmark::Mg.build_tiny();
    for seed in [1, 7, 23] {
        let plan = FaultPlan::random(seed, 4, 6);
        let mut o = RunOptions::new(ExecMode::Slipstream)
            .with_machine(machine.clone())
            .with_sync(SlipSync::G0)
            .with_faults(plan);
        o.env = RuntimeEnv::default();
        let (serial, raw) = fp(&o, &program);
        for w in WORKER_SWEEP {
            let o = o.clone().with_workers(w);
            let (parallel, praw) = fp(&o, &program);
            assert_eq!(
                serial, parallel,
                "faulted run (seed {seed}) diverged at workers={w}"
            );
            assert_eq!(raw.recoveries, praw.recoveries, "seed {seed}");
            assert_eq!(raw.pair_ledgers, praw.pair_ledgers, "seed {seed}");
        }
    }
}

#[test]
fn os_noise_runs_match_serial() {
    // OS interruptions fire on `now >= next_interrupt` inside the
    // stepping loop — exactly the predicate the closed-form replay has
    // to respect mid-run. A noisy run is the sharpest test of the bail
    // arithmetic.
    let machine = small_machine();
    let program = Benchmark::Cg.build_tiny();
    let noise = OsNoise {
        quantum_cycles: 10_000,
        slice_cycles: 500,
        seed: 7,
    };
    for (label, mode, sync) in STATIC_MODES {
        let mut o = RunOptions::new(mode)
            .with_machine(machine.clone())
            .with_os_noise(noise);
        o.sync = sync;
        let (serial, _) = fp(&o, &program);
        for w in WORKER_SWEEP {
            let o = o.clone().with_workers(w);
            let (parallel, _) = fp(&o, &program);
            assert_eq!(serial, parallel, "noisy {label} diverged at workers={w}");
        }
    }
}

#[test]
fn closed_form_replay_engages_and_is_exact() {
    // A compute-heavy kernel where almost every cycle comes from
    // constant-compute loop runs: the parallel path must retire them in
    // closed form (ff counters move) without moving a cycle.
    // The replay covers the native-batching arm: a *sequential*
    // constant-compute `for` run (worksharing iterations go through the
    // chunk iterator instead), so each outer chunk spins a long inner
    // compute loop.
    let mut b = ProgramBuilder::new("compute-heavy");
    let a = b.shared_array("a", 1024, 8);
    let q = b.var();
    let i = b.var();
    b.parallel(move |r| {
        r.par_for(None, q, 0, 16, move |body| {
            body.for_loop(i, 0, 512, move |cell| {
                cell.compute(37);
            });
        });
        r.par_for(None, i, 0, 1024, move |body| {
            body.load(a, Expr::v(i));
            body.compute(11);
        });
    });
    let program = b.build();
    for (_, mode, sync) in STATIC_MODES {
        let mut o = RunOptions::new(mode).with_machine(small_machine());
        o.sync = sync;
        let (serial, sraw) = fp(&o, &program);
        assert_eq!(sraw.pdes.ff_pieces, 0, "serial path must step natively");
        let o = o.with_workers(4);
        let (parallel, praw) = fp(&o, &program);
        assert_eq!(serial, parallel, "closed-form replay moved a cycle");
        assert!(
            praw.pdes.ff_iters > 0,
            "replay never engaged on a compute-bound kernel"
        );
        assert!(praw.pdes.ff_iters >= praw.pdes.ff_pieces);
    }
}

#[test]
fn zero_lookahead_is_lockstep_but_still_completes() {
    // `lookahead = 0` degrades window admission to frontier-time-only.
    // The run must neither deadlock nor change results.
    let program = Benchmark::Bt.build_tiny();
    let mut o = RunOptions::new(ExecMode::Slipstream).with_machine(small_machine());
    o.sync = Some(SlipSync::G0);
    let (serial, _) = fp(&o, &program);
    let mut o = o.with_workers(2);
    o.lookahead = Some(0);
    let (lockstep, raw) = fp(&o, &program);
    assert_eq!(serial, lockstep, "zero lookahead changed the simulation");
    assert_eq!(raw.pdes.lookahead, 0);
    assert!(raw.pdes.windows > 0);
}

#[test]
fn sixteen_domain_paper_machine_matches_serial() {
    // The full paper machine has 16 CMPs = 16 time domains — enough
    // admitted fronts to cross the scout pool's thread fan-out
    // threshold, so this is the configuration where scouting actually
    // spawns helper threads (small machines classify inline).
    let machine = slipstream::MachineConfig::paper();
    let program = Benchmark::Cg.build_tiny();
    for (label, mode, sync) in STATIC_MODES {
        let mut o = RunOptions::new(mode).with_machine(machine.clone());
        o.sync = sync;
        o.env = RuntimeEnv::default();
        let (serial, _) = fp(&o, &program);
        let o = o.with_workers(4);
        let (parallel, raw) = fp(&o, &program);
        assert_eq!(
            serial, parallel,
            "paper machine {label} diverged at workers=4"
        );
        assert!(raw.pdes.windows > 0);
        assert!(raw.pdes.peak_window_domains >= 2, "{label}");
    }
}
