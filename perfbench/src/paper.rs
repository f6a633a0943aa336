//! `fig2-static` and `fig4-dynamic`: the paper's Figure 2/3 and Figure
//! 4/5 suites on the 16-CMP paper machine, one simulation per
//! (kernel, mode) pair.
//!
//! An untraced pass calls `run_program` per pair, as the figure binaries
//! do (minus their worker pool). A traced pass makes the same calls
//! `run_program` makes, one at a time and each in its own span: the gate
//! (`gate_program`), compile (`AddressMap::new` + `compile`) and the
//! engine (`run_compiled`). Both check every run against its pinned
//! fingerprint, so the traced calls are shown to do the same work.

use std::collections::BTreeMap;

use bench::{dynamic_program, DYNAMIC_MODES, STATIC_MODES};
use dsm_sim::rng::SplitMix64;
use dsm_sim::AddressMap;
use npb_kernels::Benchmark;
use omp_ir::node::Program;
use slipstream::gate::{analyze_config, gate_program};
use slipstream::runner::{run_compiled, run_program};
use slipstream::{compile, ExecMode, MachineConfig, RunOptions, SlipSync};

use crate::ledger::Ledger;
use crate::sim::SimTotals;
use crate::{
    baseline, layer_times, median_metrics, pins, speed, Args, Outcome, Setup, Tally, Units,
};

#[derive(Clone, Copy)]
pub enum Suite {
    Fig2,
    Fig4,
}

type Mode = (&'static str, ExecMode, Option<SlipSync>);

impl Suite {
    fn programs(self) -> Vec<(Benchmark, Program)> {
        let team = MachineConfig::paper().num_cmps as u64;
        Benchmark::ALL
            .iter()
            .filter(|bm| matches!(self, Suite::Fig2) || bm.in_dynamic_experiment())
            .map(|&bm| match self {
                Suite::Fig2 => (bm, bm.build_paper(None)),
                Suite::Fig4 => (bm, dynamic_program(bm, team)),
            })
            .collect()
    }

    fn modes(self) -> &'static [Mode] {
        match self {
            Suite::Fig2 => &STATIC_MODES,
            Suite::Fig4 => &DYNAMIC_MODES,
        }
    }

    fn pins(self) -> &'static [pins::Pin] {
        match self {
            Suite::Fig2 => &pins::FIG2,
            Suite::Fig4 => &pins::FIG4,
        }
    }

    /// The figure's headline: average best-slipstream gain over the best
    /// of single and double (Fig 2), or slip-G0 over single (Fig 4), in
    /// percent, from one pass's cycles per kernel in mode order.
    fn gain_pct(self, cycles: &[Vec<u64>]) -> f64 {
        let gains: Vec<f64> = cycles
            .iter()
            .map(|row| match self {
                Suite::Fig2 => {
                    let best = |slip: bool| {
                        STATIC_MODES
                            .iter()
                            .zip(row)
                            .filter(|(m, _)| (m.1 == ExecMode::Slipstream) == slip)
                            .map(|(_, c)| *c)
                            .min()
                            .expect("both kinds of mode present")
                    };
                    best(false) as f64 / best(true) as f64 - 1.0
                }
                Suite::Fig4 => row[0] as f64 / row[1] as f64 - 1.0,
            })
            .collect();
        100.0 * gains.iter().sum::<f64>() / gains.len() as f64
    }
}

fn tag(bm: Benchmark, mode: &Mode) -> String {
    format!("{}/{}", bm.name(), mode.0)
}

pub fn run(args: &Args, suite: Suite) -> Outcome {
    let (mut setup, programs) = Setup::new(|| suite.programs());
    let modes = suite.modes();
    let opts: Vec<RunOptions> = modes.iter().map(|m| baseline(m.1, m.2)).collect();
    let mut order: Vec<(usize, usize)> = (0..programs.len())
        .flat_map(|k| (0..modes.len()).map(move |m| (k, m)))
        .collect();
    let mut rng = SplitMix64::new(args.seed);
    let mut tally = Tally::default();
    let mut units = Units::new(order.len());
    let mut cycles = vec![vec![0u64; modes.len()]; programs.len()];
    let mut per_pass = Vec::new();

    // One pass: every pair once, in a seeded order that changes per pass.
    let mut pass = |ledger: Option<&mut Ledger>| {
        setup.sample();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let Some(l) = ledger else {
            for &(k, m) in &order {
                let (bm, program) = &programs[k];
                let tag = tag(*bm, &modes[m]);
                let run = tally.unit(&tag, || {
                    let (s, t) = speed::timed(|| run_program(program, &opts[m]));
                    let s = s?;
                    pins::check(suite.pins(), &tag, &s)?;
                    Ok((t.scaled_s, s.exec_cycles))
                });
                if let Some((secs, c)) = run {
                    units.record(k * modes.len() + m, secs);
                    cycles[k][m] = c;
                }
            }
            return;
        };
        let (mut totals, mut visits) = (SimTotals::default(), 0u64);
        for &(k, m) in &order {
            let (bm, program) = &programs[k];
            let tag = tag(*bm, &modes[m]);
            let o = &opts[m];
            let label = modes[m].0;
            l.span("run", tag.clone(), |l| {
                tally.unit(&tag, || {
                    let acfg = analyze_config(&o.machine, &o.policy, o.sync);
                    let report = l
                        .leaf("analyze", label, || gate_program(program, o.gate, &acfg))?
                        .ok_or("the gate skipped analysis")?;
                    visits += report.visits;
                    let cp = l
                        .leaf("compile", label, || {
                            compile(program, &AddressMap::new(&o.machine))
                        })
                        .map_err(|e| e.to_string())?;
                    let s = l.leaf("engine", label, || {
                        run_compiled(&cp, program.name.clone(), o)
                    })?;
                    pins::check(suite.pins(), &tag, &s)?;
                    totals.add(&s.raw);
                    Ok(())
                })
            });
        }
        let mut pm = layer_times(l, totals.exec_cycles, totals.mem_ops());
        totals.metrics(&mut pm);
        let analyze_ns = pm["analyze.ms"] * 1e6;
        pm.insert("analyze.visits", visits as f64);
        pm.insert("analyze.ns_per_visit", analyze_ns / visits.max(1) as f64);
        per_pass.push(pm);
    };

    let (mut metrics, mut spans) = (BTreeMap::new(), None);
    if args.trace {
        let (plain_s, traced_s, ledger) = crate::run_traced_passes(args.seconds, pass);
        spans = ledger;
        metrics = median_metrics(&per_pass);
        let sim_cycles: u64 = cycles.iter().flatten().sum();
        metrics.insert(
            "engine.sim_mcycles_per_s",
            sim_cycles as f64 / 1e6 / units.pass_s(),
        );
        metrics.insert("trace.overhead_ms", (traced_s - plain_s) * 1e3);
        metrics.insert("build.ms", setup.median_s() * 1e3);
    } else {
        crate::run_passes(args.seconds, 1, |_| pass(None));
        metrics.insert("setup_s", setup.median_s());
        metrics.insert("wall_s", units.pass_s());
    }
    let gain = suite.gain_pct(&cycles);
    let paper = match suite {
        Suite::Fig2 => pins::FIG2_PAPER_GAIN_PCT,
        Suite::Fig4 => pins::FIG4_PAPER_GAIN_PCT,
    };
    eprintln!("perfbench: average gain {gain:+.2}% vs paper {paper}%");
    if args.trace {
        metrics.insert("model.paper_gain_err_pp", (gain - paper).abs());
    }
    Outcome {
        tally,
        metrics,
        spans,
    }
}
