//! High-level entry point: compile once, run under any mode.
//!
//! A [`RunSummary`] contains everything the paper's figures plot: the
//! execution time, the per-bucket time breakdown (Figures 2 and 4), and
//! the shared-request classification (Figures 3 and 5).

use crate::compile::{compile, CompiledProgram};
use crate::exec::{Engine, EngineConfig, EngineMutation, RunResult, UNTRACED};
use crate::faults::FaultPlan;
use crate::gate::{analyze_config, gate_program};
use crate::policy::{AStreamPolicy, RecoveryPolicy};
use dsm_sim::{AddressMap, Cycle, FillCounts, MachineConfig, TimeBreakdown, TimeClass};
use omp_analyze::{AnalysisReport, GateMode};
use omp_ir::directive::EnvSlipstream;
use omp_ir::node::{Program, SlipSyncType};
use omp_rt::mode::{ExecMode, SlipSync};
use omp_rt::RuntimeEnv;
use sim_trace::TraceConfig;

/// Options for one run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The machine to simulate (defaults to Table 1).
    pub machine: MachineConfig,
    /// Processor usage mode.
    pub mode: ExecMode,
    /// A–R synchronization override. When `Some`, it is injected through
    /// the `OMP_SLIPSTREAM` environment variable — the same runtime path a
    /// user of the paper's system would use to switch synchronization
    /// without recompiling.
    pub sync: Option<SlipSync>,
    /// Base runtime environment (schedule default, thread cap, ...).
    pub env: RuntimeEnv,
    /// A-stream construct policy (ablations flip rows).
    pub policy: AStreamPolicy,
    /// Fault-injection plan (see [`crate::faults`]).
    pub faults: FaultPlan,
    /// Divergence detection / recovery knobs (watchdog, retry budget).
    pub recovery: RecoveryPolicy,
    /// Optional OS-interference model (timer ticks / daemons).
    pub os_noise: Option<crate::exec::OsNoise>,
    /// Structured event tracing (observation-only; off by default).
    pub trace: TraceConfig,
    /// Slipstream-safety gate. The default, [`GateMode::Warn`], runs the
    /// `omp-analyze` analyzer ([`omp_analyze::analyze`]) before the
    /// simulation and attaches the report to the summary without
    /// affecting the run (stats stay bit-identical to an ungated run).
    /// [`GateMode::Deny`] refuses to run programs with deny-severity
    /// findings; [`GateMode::Allow`] skips analysis entirely.
    pub gate: GateMode,
    /// Simulated-cycle budget override. `None` keeps the engine's default
    /// (effectively unbounded for kernels of sane size); `Some(n)` makes
    /// the run fail with a `max_cycles` error once `n` cycles pass —
    /// the hang watchdog budgeted differential runs rely on.
    pub max_cycles: Option<Cycle>,
    /// Seeded engine-mutation class (fuzzer self-check only). The
    /// default, [`EngineMutation::None`], is the production engine.
    pub mutation: EngineMutation,
    /// Held for perfbench until the benchmark change: the engine is
    /// serial, so this must be 1. Every runner entry point returns `Err`
    /// for any other value.
    pub workers: usize,
    /// Held for perfbench until the benchmark change: the engine has no
    /// memoized replay, so this must be false. Every runner entry point
    /// returns `Err` when it is true.
    pub memo: bool,
}

impl RunOptions {
    /// Paper-default options for a mode.
    pub fn new(mode: ExecMode) -> Self {
        RunOptions {
            machine: MachineConfig::paper(),
            mode,
            sync: None,
            env: RuntimeEnv::default(),
            policy: AStreamPolicy::paper(),
            faults: FaultPlan::none(),
            recovery: RecoveryPolicy::paper(),
            os_noise: None,
            trace: TraceConfig::OFF,
            gate: GateMode::Warn,
            max_cycles: None,
            mutation: EngineMutation::None,
            workers: 1,
            memo: false,
        }
    }

    /// Cap the run at `cycles` simulated cycles (hang watchdog for
    /// budgeted differential runs).
    pub fn with_cycle_budget(mut self, cycles: Cycle) -> Self {
        self.max_cycles = Some(cycles);
        self
    }

    /// Select a seeded engine mutation (fuzzer self-check).
    pub fn with_mutation(mut self, mutation: EngineMutation) -> Self {
        self.mutation = mutation;
        self
    }

    /// Set the safety-gate mode.
    pub fn with_gate(mut self, gate: GateMode) -> Self {
        self.gate = gate;
        self
    }

    /// Enable structured event tracing for the run.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Install a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replace the recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Set the A–R synchronization (slipstream mode).
    pub fn with_sync(mut self, sync: SlipSync) -> Self {
        self.sync = Some(sync);
        self
    }

    /// Replace the machine model.
    pub fn with_machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Replace the runtime environment.
    pub fn with_env(mut self, env: RuntimeEnv) -> Self {
        self.env = env;
        self
    }

    /// Replace the A-stream policy.
    pub fn with_policy(mut self, policy: AStreamPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enable the OS-interference model.
    pub fn with_os_noise(mut self, noise: crate::exec::OsNoise) -> Self {
        self.os_noise = Some(noise);
        self
    }
}

/// Everything a figure needs from one run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Program name.
    pub name: String,
    /// Mode label (`single`, `double`, `slip-G0`, ...).
    pub label: String,
    /// Execution time in cycles (master completion).
    pub exec_cycles: Cycle,
    /// Time breakdown over R/solo streams.
    pub r_breakdown: TimeBreakdown,
    /// Time breakdown over A-streams (empty outside slipstream mode).
    pub a_breakdown: TimeBreakdown,
    /// Shared-fill classification.
    pub fills: FillCounts,
    /// Raw result for deeper inspection.
    pub raw: RunResult,
    /// Static-analysis report from the pre-run safety gate (`None` when
    /// the gate is [`GateMode::Allow`] or the program was run through
    /// [`run_compiled`] directly).
    pub analysis: Option<AnalysisReport>,
}

impl RunSummary {
    /// Speedup of this run relative to a baseline execution time.
    pub fn speedup_vs(&self, baseline_cycles: Cycle) -> f64 {
        baseline_cycles as f64 / self.exec_cycles as f64
    }

    /// Fraction of R/solo time in a bucket.
    pub fn r_fraction(&self, class: TimeClass) -> f64 {
        self.r_breakdown.fraction(class)
    }
}

fn mode_label(mode: ExecMode, sync: Option<SlipSync>) -> String {
    match (mode, sync) {
        (ExecMode::Slipstream, Some(s)) => format!("slip-{}", s.label()),
        (ExecMode::Slipstream, None) => "slip-G0".to_string(),
        (m, _) => m.label().to_string(),
    }
}

/// Compile and run `program` under `opts`.
///
/// ```
/// use slipstream::runner::{run_program, RunOptions};
/// use slipstream::{ExecMode, MachineConfig, SlipSync};
/// use omp_ir::{Expr, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new("doc");
/// let a = b.shared_array("a", 256, 8);
/// let i = b.var();
/// b.parallel(move |r| {
///     r.par_for(None, i, 0, 256, move |body| {
///         body.load(a, Expr::v(i));
///     });
/// });
/// let program = b.build();
///
/// let mut machine = MachineConfig::paper();
/// machine.num_cmps = 4;
/// let opts = RunOptions::new(ExecMode::Slipstream)
///     .with_machine(machine)
///     .with_sync(SlipSync::L1);
/// let summary = run_program(&program, &opts).unwrap();
/// assert_eq!(summary.raw.user_r.loads, 256);
/// assert_eq!(summary.raw.user_a.loads, 256); // the A-streams prefetched it
/// ```
pub fn run_program(program: &Program, opts: &RunOptions) -> Result<RunSummary, String> {
    check_options(opts)?;
    let acfg = analyze_config(&opts.machine, &opts.policy, opts.sync);
    let report = gate_program(program, opts.gate, &acfg)?;
    let map = AddressMap::new(&opts.machine);
    let cp = compile(program, &map).map_err(|e| e.to_string())?;
    let label = mode_label(opts.mode, opts.sync);
    let raw = Engine::new(&cp, engine_config(opts)).run()?;
    let mut summary = summarize(program.name.clone(), label, raw);
    summary.analysis = report;
    Ok(summary)
}

/// Reject options the engine cannot run — a machine
/// [`MachineConfig::validate`] refuses, a worker count other than 1, or
/// memo on — before any analysis, compile or engine build can trip over
/// them.
fn check_options(opts: &RunOptions) -> Result<(), String> {
    if opts.workers != 1 {
        return Err(format!(
            "invalid workers: {} (the engine is serial; must be 1)",
            opts.workers
        ));
    }
    if opts.memo {
        return Err("invalid memo: true (the engine has no memoized replay; must be false)".into());
    }
    opts.machine
        .validate()
        .map_err(|e| format!("invalid machine: {e}"))
}

/// [`check_options`] for the checkpoint and resume entry points, which
/// also refuse tracing: snapshots carry no tracer state.
fn check_untraced(opts: &RunOptions) -> Result<(), String> {
    check_options(opts)?;
    if opts.trace.is_on() {
        return Err(format!("invalid trace: {UNTRACED}"));
    }
    Ok(())
}

/// Build the engine configuration `run_compiled` and the checkpoint
/// entry points share for a set of run options.
fn engine_config(opts: &RunOptions) -> EngineConfig {
    let mut cfg = EngineConfig::new(opts.machine.clone(), opts.mode);
    cfg.env = opts.env.clone();
    cfg.policy = opts.policy;
    cfg.faults = opts.faults.clone();
    cfg.recovery = opts.recovery;
    cfg.os_noise = opts.os_noise;
    cfg.trace = opts.trace;
    if let Some(mc) = opts.max_cycles {
        cfg.max_cycles = mc;
    }
    cfg.mutation = opts.mutation;
    if let Some(sync) = opts.sync {
        // Route the synchronization choice through OMP_SLIPSTREAM, as the
        // paper's runtime does ("we changed the synchronization method as
        // well as activating/deactivating slipstream at runtime while
        // using the same binary").
        cfg.env.slipstream = Some(EnvSlipstream::Enabled {
            sync: if sync.global {
                SlipSyncType::GlobalSync
            } else {
                SlipSyncType::LocalSync
            },
            tokens: sync.tokens,
        });
    }
    cfg
}

fn summarize(name: String, label: String, raw: RunResult) -> RunSummary {
    RunSummary {
        name,
        label,
        exec_cycles: raw.exec_cycles,
        r_breakdown: raw.r_breakdown,
        a_breakdown: raw.a_breakdown,
        fills: raw.fill_counts,
        raw,
        analysis: None,
    }
}

/// Run an already-compiled program (reuse across modes).
pub fn run_compiled(
    cp: &CompiledProgram,
    name: String,
    opts: &RunOptions,
) -> Result<RunSummary, String> {
    check_options(opts)?;
    let label = mode_label(opts.mode, opts.sync);
    let engine = Engine::new(cp, engine_config(opts));
    let raw = engine.run()?;
    Ok(summarize(name, label, raw))
}

/// A serialized engine checkpoint (see [`checkpoint_compiled`]).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The versioned, checksummed snapshot payload.
    pub bytes: Vec<u8>,
    /// True when the program finished before the checkpoint cycle — the
    /// snapshot then captures the completed run and resuming returns its
    /// results immediately.
    pub finished: bool,
}

/// Run `cp` until the next pending event would land at or after
/// `at_cycle`, then capture an engine snapshot at that boundary. A sweep
/// of configurations sharing a warmup prefix can fork each member from
/// the snapshot via [`resume_compiled`] instead of re-simulating the
/// prefix; the continuation is bit-identical to an uninterrupted run.
/// Checkpoints are untraced: `opts.trace` must be off.
pub fn checkpoint_compiled(
    cp: &CompiledProgram,
    opts: &RunOptions,
    at_cycle: Cycle,
) -> Result<Checkpoint, String> {
    check_untraced(opts)?;
    let mut engine = Engine::new(cp, engine_config(opts));
    let finished = engine.run_until(at_cycle)?;
    Ok(Checkpoint {
        bytes: engine.snapshot(),
        finished,
    })
}

/// Restore an engine from `snapshot` under `opts` and run it to
/// completion. The options must describe the same simulation the
/// snapshot was taken from, except for the cycle budget and the
/// fault plan — the latter only while no fault of the snapshotting plan
/// had fired before the checkpoint (so a fault-free warmup forks into
/// differently-faulted continuations). `opts.trace` must be off.
pub fn resume_compiled(
    cp: &CompiledProgram,
    name: String,
    opts: &RunOptions,
    snapshot: &[u8],
) -> Result<RunSummary, String> {
    check_untraced(opts)?;
    let label = mode_label(opts.mode, opts.sync);
    let mut engine = Engine::restore(cp, engine_config(opts), snapshot)?;
    engine.run_until(Cycle::MAX)?;
    let raw = engine.finish_run()?;
    Ok(summarize(name, label, raw))
}

/// [`checkpoint_compiled`] for an uncompiled program: gate, compile,
/// run to the checkpoint boundary, snapshot.
pub fn checkpoint_program(
    program: &Program,
    opts: &RunOptions,
    at_cycle: Cycle,
) -> Result<Checkpoint, String> {
    check_untraced(opts)?;
    let acfg = analyze_config(&opts.machine, &opts.policy, opts.sync);
    gate_program(program, opts.gate, &acfg)?;
    let map = AddressMap::new(&opts.machine);
    let cp = compile(program, &map).map_err(|e| e.to_string())?;
    checkpoint_compiled(&cp, opts, at_cycle)
}

/// [`resume_compiled`] for an uncompiled program. The program must be
/// the one the snapshot was taken from (the snapshot's identity check
/// enforces this).
pub fn resume_program(
    program: &Program,
    opts: &RunOptions,
    snapshot: &[u8],
) -> Result<RunSummary, String> {
    check_untraced(opts)?;
    let map = AddressMap::new(&opts.machine);
    let cp = compile(program, &map).map_err(|e| e.to_string())?;
    resume_compiled(&cp, program.name.clone(), opts, snapshot)
}

/// Run the three-way comparison of the paper's Figure 2 for one program:
/// single, double, slipstream-L1, slipstream-G0. Returns the summaries in
/// that order.
pub fn run_figure2_modes(
    program: &Program,
    machine: &MachineConfig,
    env: &RuntimeEnv,
) -> Result<Vec<RunSummary>, String> {
    let map = AddressMap::new(machine);
    let cp = compile(program, &map).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for (mode, sync) in [
        (ExecMode::Single, None),
        (ExecMode::Double, None),
        (ExecMode::Slipstream, Some(SlipSync::L1)),
        (ExecMode::Slipstream, Some(SlipSync::G0)),
    ] {
        let mut o = RunOptions::new(mode)
            .with_machine(machine.clone())
            .with_env(env.clone());
        o.sync = sync;
        out.push(run_compiled(&cp, program.name.clone(), &o)?);
    }
    Ok(out)
}
