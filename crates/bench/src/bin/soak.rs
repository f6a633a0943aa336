//! Chaos-soak harness: hundreds of seeded random fault scenarios across
//! the NPB kernels and synchronization modes, each checked against three
//! invariants:
//!
//! 1. **Termination** — every run completes within a generous cycle
//!    budget (no fault plan may deadlock or run away);
//! 2. **Oracle exactness** — the R-stream's architectural output (loads,
//!    stores, compute, I/O) is bit-identical to the fault-free reference
//!    executor, whatever the A-streams suffered;
//! 3. **Trace consistency** — on lossless traces, the traced recovery
//!    counts match the aggregate counters, and demotion is visibly
//!    one-way: each pair has at most one `Demotion` event, their total
//!    equals the run's demotion count, and the pairs with an event are
//!    exactly the ledger's demoted pairs.
//!
//! On top of the random sweep, one crafted scenario loses a token with
//! the watchdog off and must be rescued by the token-wait timeout alone.
//!
//! Every scenario is a pure function of its seed; any failure is appended
//! to `soak-failing-seeds.txt` (override with `SOAK_FAIL_FILE`) so it can
//! be replayed exactly. `SOAK_SCENARIOS` overrides the scenario count
//! (default 200); `SOAK_SEED` offsets the seed base.

use bench::{env, pool};
use npb_kernels::Benchmark;
use omp_ir::expr::Expr;
use omp_ir::node::Program;
use omp_ir::trace::{trace, TraceSummary};
use omp_rt::{ExecMode, SlipSync};
use sim_trace::{TraceConfig, TraceEvent};
use slipstream::faults::{FaultEvent, FaultKind, FaultPlan};
use slipstream::policy::RecoveryPolicy;
use slipstream::runner::{run_program, RunOptions, RunSummary};
use slipstream::MachineConfig;
use std::io::Write;

/// Hard upper bound on simulated cycles for any soak scenario. Tiny-class
/// runs finish in the low millions; hitting this means a runaway.
const CYCLE_BUDGET: u64 = 2_000_000_000;

/// Pairs in the random-sweep machine (4 CMPs).
const TEAM: u64 = 4;

fn machine(cmps: usize) -> MachineConfig {
    let mut m = MachineConfig::paper();
    m.num_cmps = cmps;
    m
}

/// The crafted-scenario program: identical parallel regions of static
/// loops.
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

/// One soak scenario: everything needed to run it and to replay it.
struct Scenario {
    label: String,
    program_idx: usize,
    team: u64,
    sync: SlipSync,
    plan: FaultPlan,
    recovery: RecoveryPolicy,
    /// Crafted-scenario expectation: the token-wait timeout must recover
    /// at least once.
    expect_timeout: bool,
}

/// Aggregate counters surviving a scenario, for the end-of-soak summary.
#[derive(Default)]
struct Tally {
    recoveries: u64,
    watchdog: u64,
    timeout: u64,
    demotions: u64,
    max_cycles: u64,
}

fn check_oracle(r: &RunSummary, oracle: &TraceSummary) -> Result<(), String> {
    let u = &r.raw.user_r;
    let o = &oracle.total;
    if u.loads != o.loads || u.stores != o.stores || u.compute_cycles != o.compute_cycles {
        return Err(format!(
            "R-stream output diverged from oracle: loads {}/{} stores {}/{} compute {}/{}",
            u.loads, o.loads, u.stores, o.stores, u.compute_cycles, o.compute_cycles
        ));
    }
    if u.io_in != o.io_in || u.io_out != o.io_out {
        return Err(format!(
            "R-stream I/O diverged: in {}/{} out {}/{}",
            u.io_in, o.io_in, u.io_out, o.io_out
        ));
    }
    if r.raw.user_a.io_in != 0 || r.raw.user_a.io_out != 0 {
        return Err("A-stream performed I/O".into());
    }
    Ok(())
}

/// Invariant 3: reconcile the structured trace with the counters. Only
/// lossless traces are checked (the per-track rings drop oldest on
/// overflow).
fn check_trace_consistency(r: &RunSummary) -> Result<(), String> {
    let data = match r.raw.trace.as_ref() {
        Some(d) => d,
        None => return Err("soak runs must be traced".into()),
    };
    if data.dropped > 0 {
        return Ok(());
    }
    let mut demotion_events = vec![0u64; r.raw.pair_ledgers.len()];
    let mut traced_recoveries = 0u64;
    let mut traced_timeout = 0u64;
    let mut traced_watchdog = 0u64;
    for e in &data.events {
        match &e.ev {
            TraceEvent::Demotion { pair } => {
                let slot = demotion_events
                    .get_mut(*pair as usize)
                    .ok_or_else(|| format!("demotion event for unknown pair {pair}"))?;
                *slot += 1;
            }
            TraceEvent::Recovery {
                watchdog, timeout, ..
            } => {
                traced_recoveries += 1;
                if *watchdog {
                    traced_watchdog += 1;
                }
                if *timeout {
                    traced_timeout += 1;
                }
            }
            _ => {}
        }
    }
    if traced_recoveries != r.raw.recoveries
        || traced_watchdog != r.raw.watchdog_recoveries
        || traced_timeout != r.raw.timeout_recoveries
    {
        return Err(format!(
            "traced recovery counts {traced_recoveries}/{traced_watchdog}/{traced_timeout} \
             disagree with aggregates {}/{}/{}",
            r.raw.recoveries, r.raw.watchdog_recoveries, r.raw.timeout_recoveries
        ));
    }
    for (p, (&n, l)) in demotion_events.iter().zip(&r.raw.pair_ledgers).enumerate() {
        if n > 1 {
            return Err(format!(
                "pair {p} was demoted {n} times; demotion is one-way"
            ));
        }
        if (n == 1) != l.demoted() {
            return Err(format!(
                "pair {p}: {n} traced demotion(s) but ledger says demoted={}",
                l.demoted()
            ));
        }
    }
    let traced_demotions: u64 = demotion_events.iter().sum();
    if traced_demotions != r.raw.demotions {
        return Err(format!(
            "traced demotions {traced_demotions} disagree with aggregate {}",
            r.raw.demotions
        ));
    }
    Ok(())
}

fn check_ledger(r: &RunSummary) -> Result<(), String> {
    let mut recoveries = 0;
    let mut watchdog = 0;
    let mut timeout = 0;
    for l in &r.raw.pair_ledgers {
        recoveries += l.recoveries;
        watchdog += l.watchdog_recoveries;
        timeout += l.timeout_recoveries;
        if l.watchdog_recoveries + l.timeout_recoveries > l.recoveries {
            return Err(format!("recovery subsets exceed total: {l:?}"));
        }
        if l.demoted() != l.demoted_at.is_some() {
            return Err(format!("demotion cycle disagrees with mode: {l:?}"));
        }
    }
    let raw = &r.raw;
    if recoveries != raw.recoveries
        || watchdog != raw.watchdog_recoveries
        || timeout != raw.timeout_recoveries
    {
        return Err("ledger totals disagree with aggregate counters".into());
    }
    let demoted_now = raw.pair_ledgers.iter().filter(|l| l.demoted()).count() as u64;
    if demoted_now != raw.demotions {
        return Err(format!(
            "demotions counter {} != pairs demoted at end {demoted_now}",
            raw.demotions
        ));
    }
    Ok(())
}

fn run_scenario(s: &Scenario, programs: &[(Program, TraceSummary)]) -> Result<Tally, String> {
    let (program, oracle) = &programs[s.program_idx];
    let opts = RunOptions::new(ExecMode::Slipstream)
        .with_machine(machine(s.team as usize))
        .with_sync(s.sync)
        .with_faults(s.plan.clone())
        .with_recovery(s.recovery)
        .with_trace(TraceConfig::on());
    let r = run_program(program, &opts).map_err(|e| format!("run failed: {e}"))?;
    if r.exec_cycles > CYCLE_BUDGET {
        return Err(format!(
            "cycle budget exceeded: {} > {CYCLE_BUDGET}",
            r.exec_cycles
        ));
    }
    check_oracle(&r, oracle)?;
    check_trace_consistency(&r)?;
    check_ledger(&r)?;
    if s.expect_timeout && r.raw.timeout_recoveries == 0 {
        return Err("crafted scenario expected a token-wait timeout recovery".into());
    }
    Ok(Tally {
        recoveries: r.raw.recoveries,
        watchdog: r.raw.watchdog_recoveries,
        timeout: r.raw.timeout_recoveries,
        demotions: r.raw.demotions,
        max_cycles: r.exec_cycles,
    })
}

fn main() {
    let scenarios = env::get_or("SOAK_SCENARIOS", 200);
    let seed_base = env::get_or("SOAK_SEED", 0);
    let fail_file = env::string_or("SOAK_FAIL_FILE", "soak-failing-seeds.txt");

    // Programs and their fault-free oracles, computed once. Index 0..5
    // are the NPB kernels (tiny class); 5 is the crafted-scenario
    // multi-region program.
    eprintln!("soak: preparing programs and oracles…");
    let mut programs: Vec<(Program, TraceSummary)> = Benchmark::ALL
        .iter()
        .map(|bm| {
            let p = bm.build_tiny();
            let o = trace(&p, TEAM);
            (p, o)
        })
        .collect();
    let crafted = multi_region(96, 8, 6);
    let crafted_oracle = trace(&crafted, TEAM);
    programs.push((crafted, crafted_oracle));

    // Fuzz-minimized corpus: every program JSON (raw or repro artifact)
    // in `SOAK_CORPUS` joins the soak as additional scenarios under the
    // same three invariants. Deny-class programs are skipped — the
    // differential fuzzer promotes only clean survivors, but the soak
    // must not silently trust a hand-edited directory.
    let mut corpus: Vec<(usize, String)> = Vec::new();
    if let Some(dir) = env::string("SOAK_CORPUS") {
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("SOAK_CORPUS {dir}: {e}"))
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort(); // deterministic scenario order
        for path in paths {
            let name = path
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("soak: skipping corpus file {name}: {e}");
                    continue;
                }
            };
            let program = omp_fuzz::Repro::from_json(&text)
                .map(|r| r.program)
                .or_else(|_| omp_ir::program_from_json(&text));
            let program = match program {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("soak: skipping corpus file {name}: not a repro or program: {e}");
                    continue;
                }
            };
            if let Err(e) = omp_ir::validate(&program) {
                eprintln!("soak: skipping corpus file {name}: invalid program: {e}");
                continue;
            }
            let report = omp_analyze::analyze_hazards(
                &program,
                &omp_analyze::AnalyzeConfig::paper().with_threads(TEAM),
            );
            if report.deny_count() > 0 {
                eprintln!(
                    "soak: skipping deny-class corpus program {name} ({} deny finding(s))",
                    report.deny_count()
                );
                continue;
            }
            let oracle = trace(&program, TEAM);
            corpus.push((programs.len(), name));
            programs.push((program, oracle));
        }
        eprintln!(
            "soak: loaded {} corpus scenario program(s) from {dir}",
            corpus.len()
        );
    }

    // The sweep: seeded random plans over kernels × sync modes × recovery
    // budgets, all under the hardened recovery policy (every detection
    // tier armed).
    let sweep_recovery = RecoveryPolicy::hardened()
        .with_watchdog(150_000)
        .with_token_wait(120_000);
    let budgets = [8u64, 0, 2, 4];
    let mut list: Vec<Scenario> = Vec::new();
    for k in 0..scenarios {
        let seed = seed_base + k;
        let bench = (k % Benchmark::ALL.len() as u64) as usize;
        let sync = if (k / 5) % 2 == 0 {
            SlipSync::G0
        } else {
            SlipSync::L1
        };
        let budget = budgets[(k % budgets.len() as u64) as usize];
        list.push(Scenario {
            label: format!(
                "seed={seed} bench={} sync={} budget={budget}",
                Benchmark::ALL[bench].name(),
                sync.label()
            ),
            program_idx: bench,
            team: TEAM,
            sync,
            plan: FaultPlan::random(seed, TEAM, 6),
            recovery: sweep_recovery.with_max_recoveries(budget),
            expect_timeout: false,
        });
    }
    // A lost token with the watchdog off: only the token-wait timeout
    // can rescue the stranded A-stream (timeouts, not deadlock).
    list.push(Scenario {
        label: "crafted-timeout-only".into(),
        program_idx: 5,
        team: TEAM,
        sync: SlipSync::G0,
        plan: FaultPlan::none().with(FaultEvent {
            kind: FaultKind::TokenLoss,
            tid: 0,
            seq: 0,
            arg: 0,
        }),
        recovery: RecoveryPolicy::hardened().with_watchdog(0),
        expect_timeout: true,
    });

    // Corpus programs: both synchronization modes, seeded fault plans,
    // hardened recovery — the same regime as the random sweep.
    for (k, (idx, name)) in corpus.iter().enumerate() {
        for sync in [SlipSync::G0, SlipSync::L1] {
            list.push(Scenario {
                label: format!("corpus={name} sync={}", sync.label()),
                program_idx: *idx,
                team: TEAM,
                sync,
                plan: FaultPlan::random(seed_base + 0xC0_u64 + k as u64, TEAM, 4),
                recovery: sweep_recovery.with_max_recoveries(8),
                expect_timeout: false,
            });
        }
    }

    eprintln!("soak: running {} scenarios…", list.len());
    type Task<'s> = Box<dyn FnOnce() -> Result<Tally, String> + Send + 's>;
    let tasks: Vec<Task> = list
        .iter()
        .map(|s| {
            let programs = &programs;
            Box::new(move || run_scenario(s, programs)) as Task
        })
        .collect();
    let results = pool::run_all(tasks);

    let mut total = Tally::default();
    let mut failures: Vec<(String, String)> = Vec::new();
    for (s, res) in list.iter().zip(results) {
        match res {
            Ok(t) => {
                total.recoveries += t.recoveries;
                total.watchdog += t.watchdog;
                total.timeout += t.timeout;
                total.demotions += t.demotions;
                total.max_cycles = total.max_cycles.max(t.max_cycles);
            }
            Err(e) => failures.push((s.label.clone(), e)),
        }
    }

    println!(
        "soak: {} scenarios, {} recoveries ({} watchdog, {} timeout), \
         {} demotions, max cycles {}",
        list.len(),
        total.recoveries,
        total.watchdog,
        total.timeout,
        total.demotions,
        total.max_cycles
    );

    // Soak-level expectation: the sweep as a whole must have exercised
    // the timeout tier, not just survived it.
    if total.timeout == 0 {
        failures.push((
            "soak-aggregate".into(),
            "token-wait timeout tier never fired".into(),
        ));
    }

    if !failures.is_empty() {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&fail_file)
            .expect("open failing-seed file");
        for (label, err) in &failures {
            eprintln!("soak FAILURE: {label}: {err}");
            writeln!(f, "{label}: {err}").expect("record failing seed");
        }
        eprintln!(
            "soak: {} failures recorded in {fail_file} (replay: SOAK_SEED=<seed> SOAK_SCENARIOS=1)",
            failures.len()
        );
        std::process::exit(1);
    }
    println!("soak: all invariants held");
}
