//! Memoized phase replay: bit-identity against memo-off runs, fixed-point
//! engagement on certified loops, and runtime-guard fallback on stale
//! certificates.

use dsm_sim::MachineConfig;
use npb_kernels::Benchmark;
use omp_ir::node::Program;
use omp_ir::{Expr, ProgramBuilder};
use omp_rt::{ExecMode, SlipSync};
use slipstream::runner::{run_program, RunOptions, RunSummary};
use slipstream::{stats_fingerprint, MemoDiag};

fn small_machine() -> MachineConfig {
    let mut m = MachineConfig::paper();
    m.num_cmps = 4;
    m
}

/// A certified replay loop: a serial iteration loop whose single barrier
/// phase touches disjoint per-thread elements (Pure/ReplaySafe accesses).
fn certified_loop(trip: i64) -> Program {
    let mut b = ProgramBuilder::new("memo-toy");
    let a = b.shared_array("a", 256, 8);
    let c = b.shared_array("c", 256, 8);
    let i = b.var();
    let t = b.var();
    b.parallel(move |r| {
        r.for_loop(t, 0, trip, move |it| {
            it.par_for(None, i, 0, 256, move |body| {
                body.load(a, Expr::v(i));
                body.compute(6);
                body.store(c, Expr::v(i));
            });
        });
    });
    b.build()
}

fn fingerprints(p: &Program, opts: &RunOptions) -> (String, RunSummary) {
    let s = run_program(p, opts).unwrap();
    (stats_fingerprint(&s), s)
}

#[test]
fn memo_engages_and_stays_bit_identical_on_certified_loop() {
    let p = certified_loop(8);
    let base = RunOptions::new(ExecMode::Single).with_machine(small_machine());
    let (off_fp, off) = fingerprints(&p, &base);
    let (on_fp, on) = fingerprints(&p, &base.clone().with_memo(true));
    assert_eq!(off_fp, on_fp, "memo-on run diverged from memo-off");
    assert_eq!(off.exec_cycles, on.exec_cycles);
    // The memo-off run never inspects boundaries.
    assert_eq!(off.raw.memo, MemoDiag::default());
    // The memo-on run reached the fixed point and bulk-jumped.
    assert!(on.raw.memo.engagements >= 1, "memo: {:?}", on.raw.memo);
    assert!(
        on.raw.memo.jumped_iterations >= 1,
        "memo: {:?}",
        on.raw.memo
    );
    assert_eq!(on.raw.memo.guard_fallbacks, 0);
    assert!(!on.raw.memo.disabled);
}

#[test]
fn memo_bit_identity_npb_kernels_all_modes() {
    let machine = small_machine();
    let modes: [(ExecMode, Option<SlipSync>); 4] = [
        (ExecMode::Single, None),
        (ExecMode::Double, None),
        (ExecMode::Slipstream, Some(SlipSync::L1)),
        (ExecMode::Slipstream, Some(SlipSync::G0)),
    ];
    for bm in Benchmark::ALL {
        let p = bm.build_tiny();
        for (mode, sync) in modes {
            let mut opts = RunOptions::new(mode).with_machine(machine.clone());
            if let Some(s) = sync {
                opts = opts.with_sync(s);
            }
            let (off_fp, _) = fingerprints(&p, &opts);
            let (on_fp, on) = fingerprints(&p, &opts.clone().with_memo(true));
            assert_eq!(
                off_fp,
                on_fp,
                "{} {:?} sync={:?} diverged under memo (diag {:?})",
                bm.name(),
                mode,
                sync,
                on.raw.memo,
            );
        }
    }
}

#[test]
fn memo_never_arms_in_slipstream_mode_or_under_tracing() {
    let p = certified_loop(8);
    let slip = RunOptions::new(ExecMode::Slipstream)
        .with_machine(small_machine())
        .with_sync(SlipSync::G0)
        .with_memo(true);
    let s = run_program(&p, &slip).unwrap();
    assert_eq!(s.raw.memo, MemoDiag::default(), "armed in slipstream mode");

    let traced = RunOptions::new(ExecMode::Single)
        .with_machine(small_machine())
        .with_trace(sim_trace::TraceConfig::on())
        .with_memo(true);
    let s = run_program(&p, &traced).unwrap();
    assert_eq!(s.raw.memo, MemoDiag::default(), "armed under tracing");
}

#[test]
fn stale_certificate_hits_runtime_guard_and_falls_back() {
    use dsm_sim::AddressMap;
    use slipstream::exec::{Engine, EngineConfig};
    use slipstream::gate::analyze_config;
    use slipstream::AStreamPolicy;

    // Certify the 5-trip program, then run the 9-trip compilation with
    // that plan: the license resolves structurally but its bounds are
    // stale, so the guard must disable memoization and the run must be
    // bit-identical to an unplanned one.
    let p5 = certified_loop(5);
    let p9 = certified_loop(9);
    let machine = small_machine();
    let acfg = analyze_config(&machine, &AStreamPolicy::paper(), None);
    let report5 = omp_analyze::analyze(&p5, &acfg);
    let map = AddressMap::new(&machine);
    let cp9 = slipstream::compile(&p9, &map).unwrap();
    let stale_plan = slipstream::build_plan(&report5, &cp9);
    assert!(
        !stale_plan.is_empty(),
        "license should resolve structurally"
    );

    let mut cfg = EngineConfig::new(machine.clone(), ExecMode::Single);
    cfg.memo = stale_plan;
    let guarded = Engine::new(&cp9, cfg).run().unwrap();
    let clean = Engine::new(&cp9, EngineConfig::new(machine, ExecMode::Single))
        .run()
        .unwrap();

    assert!(
        guarded.memo.guard_fallbacks >= 1,
        "memo: {:?}",
        guarded.memo
    );
    assert!(guarded.memo.disabled);
    assert_eq!(guarded.memo.engagements, 0);
    assert_eq!(guarded.exec_cycles, clean.exec_cycles);
    assert_eq!(guarded.user_r, clean.user_r);
    assert_eq!(guarded.machine, clean.machine);
}
