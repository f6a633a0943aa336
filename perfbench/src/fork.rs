//! `warm-fork`: BT slip-G0 on the paper machine, run once straight,
//! checkpointed at half its cycles, then resumed from the snapshot
//! `FORKS` times. Only this workload exercises the `snap` codec, and it
//! bypasses the gate. The forks are fault-free: fault hooks fire early,
//! so a fault plan forked at 50% would mostly never fire.
//!
//! An untraced pass calls `run_compiled`, `checkpoint_compiled` and
//! `resume_compiled`. A traced pass makes the engine calls those make,
//! each in its own span, so engine stepping and the codec (`snapshot`,
//! `restore`) are timed apart. Every continuation must reproduce the
//! straight run's pinned fingerprint.

use std::collections::BTreeMap;

use dsm_sim::{AddressMap, Cycle};
use npb_kernels::Benchmark;
use omp_ir::directive::EnvSlipstream;
use omp_ir::node::SlipSyncType;
use slipstream::runner::{checkpoint_compiled, resume_compiled, run_compiled};
use slipstream::{compile, Engine, EngineConfig, ExecMode, MachineConfig, SlipSync};

use crate::ledger::Ledger;
use crate::sim::SimTotals;
use crate::{
    baseline, layer_times, median, median_metrics, pins, speed, summarize, Args, Outcome, Setup,
    Tally, Units,
};

/// Resumes per pass.
const FORKS: usize = 4;
const TAG: &str = "bt/slip-G0";

/// Simulated cycles of one pass: the straight run, the prefix up to the
/// checkpoint at half its cycles, and each fork's continuation.
fn simulated(straight: Cycle) -> Cycle {
    let mid = straight / 2;
    straight + mid + FORKS as Cycle * (straight - mid)
}

pub fn run(args: &Args) -> Outcome {
    let opts = baseline(ExecMode::Slipstream, Some(SlipSync::G0));
    let (mut setup, (program, cp)) = Setup::new(|| {
        let program = Benchmark::Bt.build_paper(None);
        let cp = compile(&program, &AddressMap::new(&opts.machine)).expect("BT compiles");
        (program, cp)
    });
    let name = program.name.as_str();
    // The engine configuration `run_compiled` derives from `opts`: paper
    // defaults with G0 routed through OMP_SLIPSTREAM.
    let mut cfg = EngineConfig::new(MachineConfig::paper(), ExecMode::Slipstream);
    cfg.env.slipstream = Some(EnvSlipstream::Enabled {
        sync: SlipSyncType::GlobalSync,
        tokens: 0,
    });

    let mut tally = Tally::default();
    let mut fork_ms = Vec::new();
    // Units: the straight run, the checkpoint, and each fork.
    let mut units = Units::new(2 + FORKS);
    let mut per_pass = Vec::new();
    let mut sim_cycles = 0u64;
    let mut pass = |ledger: Option<&mut Ledger>| {
        setup.sample();
        let Some(l) = ledger else {
            let Some(straight) = tally.unit("straight", || {
                let (s, t) = speed::timed(|| run_compiled(&cp, name.to_string(), &opts));
                let s = s?;
                units.record(0, t.scaled_s);
                pins::check(&pins::FIG2, TAG, &s)?;
                Ok(s.exec_cycles)
            }) else {
                return;
            };
            let Some(ck) = tally.unit("checkpoint", || {
                let (ck, t) = speed::timed(|| checkpoint_compiled(&cp, &opts, straight / 2));
                let ck = ck?;
                units.record(1, t.scaled_s);
                if ck.finished {
                    return Err("finished before the checkpoint".into());
                }
                Ok(ck)
            }) else {
                return;
            };
            for i in 0..FORKS {
                tally.unit(&format!("fork {i}"), || {
                    let (s, t) =
                        speed::timed(|| resume_compiled(&cp, name.to_string(), &opts, &ck.bytes));
                    fork_ms.push(t.host_s * 1e3);
                    let s = s?;
                    units.record(2 + i, t.scaled_s);
                    pins::check(&pins::FIG2, TAG, &s)
                });
            }
            sim_cycles = simulated(straight);
            return;
        };
        let mut totals = SimTotals::default();
        let Some(straight) = l.span("run", "straight", |l| {
            tally.unit("straight", || {
                let raw = l.leaf("engine", "slip-G0/straight", || {
                    Engine::new(&cp, cfg.clone()).run()
                })?;
                totals.add(&raw);
                let s = summarize(name, "slip-G0", raw);
                pins::check(&pins::FIG2, TAG, &s)?;
                Ok(s.exec_cycles)
            })
        }) else {
            return;
        };
        let mid: Cycle = straight / 2;
        let Some(bytes) = l.span("run", "checkpoint", |l| {
            tally.unit("checkpoint", || {
                let mut e = Engine::new(&cp, cfg.clone());
                if l.leaf("engine", "slip-G0/prefix", || e.run_until(mid))? {
                    return Err("finished before the checkpoint".into());
                }
                Ok(l.leaf("snap.checkpoint", "", || e.snapshot()))
            })
        }) else {
            return;
        };
        for i in 0..FORKS {
            l.span("run", format!("fork-{i}"), |l| {
                tally.unit(&format!("fork {i}"), || {
                    let mut e = l.leaf("snap.resume", "", || {
                        Engine::restore(&cp, cfg.clone(), &bytes)
                    })?;
                    let raw = l.leaf("engine", "slip-G0/fork", || {
                        e.run_until(Cycle::MAX)?;
                        e.finish_run()
                    })?;
                    pins::check(&pins::FIG2, TAG, &summarize(name, "slip-G0", raw))
                })
            });
        }
        // Engine cost per simulated cycle and memory op is read off the
        // straight run, the one engine span whose work is fully counted.
        let mut pm = layer_times(l, straight, totals.mem_ops());
        let straight_ns = l.self_ns_where("engine", |t| t.ends_with("/straight")) as f64;
        pm.insert("engine.ns_per_sim_cycle", straight_ns / straight as f64);
        pm.insert(
            "engine.ns_per_mem_op",
            straight_ns / totals.mem_ops().max(1) as f64,
        );
        totals.metrics(&mut pm);
        pm.insert("snap.bytes", bytes.len() as f64);
        per_pass.push(pm);
    };

    let (mut metrics, mut spans) = (BTreeMap::new(), None);
    if args.trace {
        let (plain_s, traced_s, ledger) = crate::run_traced_passes(args.seconds, pass);
        spans = ledger;
        metrics = median_metrics(&per_pass);
        metrics.insert(
            "engine.sim_mcycles_per_s",
            sim_cycles as f64 / 1e6 / units.pass_s(),
        );
        metrics.insert("trace.overhead_ms", (traced_s - plain_s) * 1e3);
        metrics.insert("snap.fork_ms", median(&fork_ms));
        metrics.insert("build.ms", setup.median_s() * 1e3);
    } else {
        crate::run_passes(args.seconds, 1, |_| pass(None));
        metrics.insert("setup_s", setup.median_s());
        metrics.insert("wall_s", units.pass_s());
    }
    Outcome {
        tally,
        metrics,
        spans,
    }
}
