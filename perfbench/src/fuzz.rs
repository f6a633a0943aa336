//! `fuzz-campaign`: the default differential campaign
//! (`CampaignConfig::new(CASES, seed)`) on its 4-CMP machine. Thousands
//! of ~0.3 ms runs of distinct small programs, so per-run fixed costs
//! dominate: engine construction, the analyses of each case, the trace
//! oracle, and a fault pass every 5th case. The paper suites use the
//! same layers in the opposite regime.
//!
//! An untraced pass is one `run_campaign_with` call; each case's latency
//! is the interval between progress callbacks. A traced pass replays the
//! same cases through the layer calls `run_case` makes (generate, the
//! analyzer, the trace oracle, compile, the engine, and the memo-on
//! reruns of single and double), each in its own span, and applies the
//! same checks. Campaign time the replayed spans do not cover is the
//! harness's own (`fuzz.harness_ms`).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dsm_sim::rng::SplitMix64;
use dsm_sim::AddressMap;
use omp_analyze::{analyze, AnalysisReport, AnalyzeConfig, Equivalence};
use omp_fuzz::campaign::{run_campaign_with, CampaignConfig};
use omp_fuzz::diff::{fnv1a64, DiffOptions, MODES};
use omp_fuzz::gen::{generate, GenConfig};
use omp_ir::node::Program;
use slipstream::gate::analyze_config;
use slipstream::runner::run_compiled;
use slipstream::{
    build_plan, compile, stats_fingerprint, AStreamPolicy, Engine, EngineConfig, ExecMode,
    FaultPlan, GateMode, RecoveryPolicy, RunOptions, SlipSync,
};

use crate::ledger::Ledger;
use crate::sim::SimTotals;
use crate::{
    layer_times, median, median_metrics, pins, quantile, speed, summarize, Args, Outcome, Setup,
    Tally,
};

/// Cases per campaign: the `fuzz` binary's default.
pub const CASES: u64 = 1000;

/// The case seeds `run_campaign_with` derives from a campaign seed.
fn case_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0xCA_3B_A1_67);
    (0..CASES).map(|_| rng.next_u64()).collect()
}

fn class_index(c: Equivalence) -> usize {
    match c {
        Equivalence::Exact => 0,
        Equivalence::ConvergeOnly => 1,
        Equivalence::Deny => 2,
    }
}

#[derive(Default)]
struct Replay {
    totals: SimTotals,
    visits: u64,
    class_counts: [u64; 3],
}

impl Replay {
    fn analyze(
        &mut self,
        l: &mut Ledger,
        tag: &str,
        p: &Program,
        cfg: &AnalyzeConfig,
    ) -> AnalysisReport {
        let r = l.leaf("analyze", tag, || analyze(p, cfg));
        self.visits += r.visits;
        r
    }

    /// One case through the layers `run_case` calls, with its checks.
    fn case(&mut self, l: &mut Ledger, index: u64, case_seed: u64) -> Result<(), String> {
        let opts = DiffOptions::campaign();
        let machine = &opts.machine;
        let program = l.leaf("generate", "", || {
            generate(case_seed, &GenConfig::campaign())
        });
        omp_ir::validate(&program).map_err(|e| e.to_string())?;
        let classify = |me: &mut Self, l: &mut Ledger, sync| {
            let cfg = analyze_config(machine, &AStreamPolicy::paper(), Some(sync));
            me.analyze(l, "classify", &program, &cfg).equivalence()
        };
        let class_g0 = classify(self, l, SlipSync::G0);
        let class_l1 = classify(self, l, SlipSync::L1);
        let class = class_g0.max(class_l1);
        if classify(self, l, SlipSync::G0) != class_g0 {
            return Err("analyzer classified the same program differently".into());
        }
        self.class_counts[class_index(class)] += 1;
        let faulted = index % 5 == 4;

        for (label, mode, sync) in MODES {
            let team = opts.team_for(mode);
            let want = l.leaf("oracle", label, || omp_ir::trace(&program, team).total);
            let slip = mode == ExecMode::Slipstream;
            let mode_class = match sync {
                Some(s) if !s.global => class_l1,
                Some(_) => class_g0,
                None => class,
            };
            let mut ro = RunOptions::new(mode)
                .with_machine(machine.clone())
                .with_cycle_budget(opts.cycle_budget)
                .with_gate(if slip { GateMode::Deny } else { GateMode::Warn });
            ro.sync = sync;
            if slip && faulted {
                let seed = case_seed ^ 0xFA17 ^ fnv1a64(label.as_bytes());
                ro = ro
                    .with_faults(FaultPlan::random(seed, team, 3))
                    .with_recovery(RecoveryPolicy::hardened());
            }
            let acfg = analyze_config(&ro.machine, &ro.policy, ro.sync);
            let report = self.analyze(l, label, &program, &acfg);
            let refused = ro.gate == GateMode::Deny && report.deny_count() > 0;
            if refused != (slip && mode_class == Equivalence::Deny) {
                return Err(format!(
                    "{label}: gate decision contradicts class {mode_class}"
                ));
            }
            if refused {
                continue;
            }
            let map = AddressMap::new(&ro.machine);
            let cp = l
                .leaf("compile", label, || compile(&program, &map))
                .map_err(|e| e.to_string())?;
            let s = l.leaf("engine", label, || {
                run_compiled(&cp, program.name.clone(), &ro)
            })?;
            if s.raw.user_r != want {
                return Err(format!(
                    "{label}: engine op counts differ from the trace oracle"
                ));
            }
            if s.raw.user_a.io_in + s.raw.user_a.io_out > 0 {
                return Err(format!("{label}: an A-stream performed I/O"));
            }
            if mode_class == Equivalence::Exact && !(slip && faulted) && s.raw.recoveries > 0 {
                return Err(format!("{label}: recoveries on an exact-class program"));
            }
            self.totals.add(&s.raw);
            if !slip {
                // The harness's memo-on rerun: gate, compile, and an
                // engine armed with the certification pass's plan.
                let report = self.analyze(l, label, &program, &acfg);
                let cp = l
                    .leaf("compile", label, || compile(&program, &map))
                    .map_err(|e| e.to_string())?;
                let raw = l.leaf("engine", label, || {
                    let mut cfg = EngineConfig::new(ro.machine.clone(), mode);
                    cfg.max_cycles = opts.cycle_budget;
                    cfg.memo = build_plan(&report, &cp);
                    Engine::new(&cp, cfg).run()
                })?;
                self.totals.add(&raw);
                if stats_fingerprint(&summarize(&program.name, label, raw)) != stats_fingerprint(&s)
                {
                    return Err(format!("{label}: memo-on rerun diverged"));
                }
            }
        }
        Ok(())
    }
}

pub fn run(args: &Args) -> Outcome {
    let seed = args.seed;
    let seeds = case_seeds(seed);
    let (mut setup, _programs) = Setup::new(|| {
        seeds
            .iter()
            .map(|&s| generate(s, &GenConfig::campaign()))
            .collect::<Vec<Program>>()
    });
    let pin = pins::FUZZ.iter().find(|p| p.0 == seed);
    // Class counts of the last campaign; the replay must agree with them
    // whether or not this seed is pinned.
    let mut campaign_counts = pin.map(|p| p.1);

    let mut tally = Tally::default();
    let mut case_ms = Vec::new();
    // Host milliseconds of each campaign, and its scaled seconds.
    let mut campaign_ms = Vec::new();
    let mut campaign_s = Vec::new();
    let mut per_pass = Vec::new();
    let mut covered_ms = Vec::new();
    let mut pass = |ledger: Option<&mut Ledger>| {
        setup.sample();
        tally.attempted += CASES;
        let Some(l) = ledger else {
            let cfg = CampaignConfig::new(CASES, seed);
            let mut failed_cases = 0;
            let (run, t) = speed::timed(|| {
                let mut last = Instant::now();
                catch_unwind(AssertUnwindSafe(|| {
                    run_campaign_with(&cfg, |o| {
                        let now = Instant::now();
                        case_ms.push((now - last).as_secs_f64() * 1e3);
                        last = now;
                        failed_cases += (o.failures > 0) as u64;
                    })
                }))
            });
            campaign_ms.push(t.host_s * 1e3);
            campaign_s.push(t.scaled_s);
            let r = match run {
                Ok(r) => r,
                Err(_) => return tally.fail("campaign", "panicked"),
            };
            tally.failed += failed_cases;
            eprintln!(
                "perfbench: campaign {seed}: classes {:?}, {} faulted",
                r.class_counts, r.faulted_cases
            );
            campaign_counts = Some(r.class_counts);
            if !r.clean() || r.cases != CASES {
                tally.fail("campaign", &r.summary_json());
            } else if pin.is_some_and(|p| p.1 != r.class_counts || p.2 != r.faulted_cases) {
                tally.fail(
                    "campaign",
                    &format!(
                        "differs from the pin; this campaign is ({seed}, {:?}, {})",
                        r.class_counts, r.faulted_cases
                    ),
                );
            }
            return;
        };
        let mut replay = Replay::default();
        for (i, &case_seed) in seeds.iter().enumerate() {
            let i = i as u64;
            if let Err(e) = l.span("case", i.to_string(), |l| replay.case(l, i, case_seed)) {
                tally.fail(&format!("replayed case {i}"), &e);
            }
        }
        if campaign_counts != Some(replay.class_counts) {
            let why = format!(
                "class counts {:?} differ from the campaign's",
                replay.class_counts
            );
            tally.fail("replay", &why);
        }
        let by = l.by_name();
        let covered: u64 = ["generate", "analyze", "oracle", "compile", "engine"]
            .iter()
            .filter_map(|n| by.get(n).map(|e| e.0))
            .sum();
        covered_ms.push(covered as f64 / 1e6);
        let t = &replay.totals;
        let mut pm = layer_times(l, t.exec_cycles, t.mem_ops());
        t.metrics(&mut pm);
        pm.insert("analyze.visits", replay.visits as f64);
        pm.insert(
            "analyze.ns_per_visit",
            pm["analyze.ms"] * 1e6 / replay.visits.max(1) as f64,
        );
        pm.insert("engine.sim_cycles", t.exec_cycles as f64);
        per_pass.push(pm);
    };

    let (mut metrics, mut spans) = (BTreeMap::new(), None);
    if args.trace {
        let (plain_s, traced_s, ledger) = crate::run_traced_passes(args.seconds, pass);
        spans = ledger;
        metrics = median_metrics(&per_pass);
        let sim_cycles = metrics.remove("engine.sim_cycles").unwrap_or(0.0);
        metrics.insert(
            "engine.sim_mcycles_per_s",
            sim_cycles / 1e6 / median(&campaign_s),
        );
        let harness_ms = median(&campaign_ms) - median(&covered_ms);
        metrics.insert("fuzz.harness_ms", harness_ms);
        metrics.insert("trace.overhead_ms", (traced_s - plain_s) * 1e3);
        metrics.insert("fuzz.case_ms_p50", median(&case_ms));
        metrics.insert("fuzz.case_ms_p99", quantile(&case_ms, 0.99));
        metrics.insert("build.ms", setup.median_s() * 1e3);
    } else {
        crate::run_passes(args.seconds, 1, |_| pass(None));
        metrics.insert("setup_s", setup.median_s());
        metrics.insert("wall_s", median(&campaign_s));
    }
    Outcome {
        tally,
        metrics,
        spans,
    }
}
