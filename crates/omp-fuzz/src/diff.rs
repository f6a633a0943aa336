//! The differential oracle: run one program under every processor-usage
//! mode and reconcile each run against the reference trace.
//!
//! **Oracle.** [`omp_ir::trace()`] walks the IR at a given team size and
//! counts user operations; its totals are deterministic for every valid
//! program. The engine reports the same [`omp_ir::OpCounts`] in
//! [`slipstream::exec::RunResult::user_r`], so any field-level
//! disagreement is a bug in one of the two interpreters. Team size is
//! mode-dependent — single and slipstream modes run one thread per CMP
//! while double mode runs two — so the trace is evaluated **per mode**
//! at the team size that mode will actually use.
//!
//! **Classification.** The same `omp-analyze` pass that backs the
//! pre-run safety gate assigns each program an expected equivalence
//! class ([`Equivalence`]): exact-match, converge-only, or deny. The
//! harness then checks the *gate* agrees with the *class*: a deny-class
//! program must be refused in slipstream modes, everything else must
//! run. Exact-class programs additionally must finish without any
//! divergence recoveries when no faults are injected.
//!
//! **Failure taxonomy.** Every deviation becomes a [`Failure`] with a
//! structural fingerprint (kind, mode, class, field — never the raw
//! numbers) so campaigns can deduplicate and the shrinker can preserve
//! the failure's identity while mutating everything else.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dsm_sim::{Cycle, MachineConfig};
use omp_analyze::{analyze, Equivalence, GateMode};
use omp_ir::node::Program;
use omp_ir::OpCounts;
use slipstream::gate::analyze_config;
use slipstream::runner::{run_program, RunOptions};
use slipstream::{AStreamPolicy, EngineMutation, ExecMode, FaultPlan, RecoveryPolicy, SlipSync};

/// The four processor-usage modes of the paper's evaluation, with labels.
pub use slipstream::runner::STATIC_MODES as MODES;

/// Options for one differential case.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Machine to simulate. The default shrinks the paper machine to 4
    /// CMPs so a four-mode case stays fast.
    pub machine: MachineConfig,
    /// Simulated-cycle watchdog per run: a wedge becomes a reported
    /// hang instead of a stuck campaign.
    pub cycle_budget: Cycle,
    /// When set, slipstream modes additionally run under a seeded
    /// [`FaultPlan`] with the hardened recovery policy; recoveries are
    /// then legitimate but final R-stream counts must still match.
    pub fault_seed: Option<u64>,
    /// Seeded engine-mutation class (self-check campaigns only).
    pub mutation: EngineMutation,
}

impl DiffOptions {
    /// Campaign defaults (4-CMP paper machine, 80M-cycle watchdog).
    pub fn campaign() -> Self {
        let mut machine = MachineConfig::paper();
        machine.num_cmps = 4;
        DiffOptions {
            machine,
            cycle_budget: 80_000_000,
            fault_seed: None,
            mutation: EngineMutation::None,
        }
    }

    /// Team size a mode actually runs (the trace oracle must match it).
    pub fn team_for(&self, mode: ExecMode) -> u64 {
        match mode {
            ExecMode::Double => (self.machine.num_cmps * self.machine.cpus_per_cmp.min(2)) as u64,
            _ => self.machine.num_cmps as u64,
        }
    }
}

/// What went wrong, structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The generator (or a shrink step) produced an IR that failed
    /// validation — a harness bug, not an engine bug.
    InvalidProgram,
    /// Gate decision contradicts the analyzer's equivalence class
    /// (deny-class ran, or clean program was refused), or the analyzer
    /// classified the same program differently across calls.
    GateDisagreement,
    /// A run failed with an error that is not a gate refusal or a
    /// budget/deadlock report.
    RunError,
    /// A run exhausted the cycle budget or reported a deadlock/livelock.
    Hang,
    /// An engine op-count total differs from the trace oracle.
    OracleMismatch,
    /// An A-stream performed I/O (forbidden by the paper's policy).
    AStreamIo,
    /// An exact-class, fault-free, mutation-free run needed divergence
    /// recoveries.
    SpuriousRecovery,
    /// Two identical calls disagreed (the repeated slip-G0 classification).
    NonDeterminism,
    /// A component panicked.
    Panic,
}

impl FailKind {
    /// Stable label (artifact serialization and fingerprints).
    pub fn label(&self) -> &'static str {
        match self {
            FailKind::InvalidProgram => "invalid-program",
            FailKind::GateDisagreement => "gate-disagreement",
            FailKind::RunError => "run-error",
            FailKind::Hang => "hang",
            FailKind::OracleMismatch => "oracle-mismatch",
            FailKind::AStreamIo => "a-stream-io",
            FailKind::SpuriousRecovery => "spurious-recovery",
            FailKind::NonDeterminism => "non-determinism",
            FailKind::Panic => "panic",
        }
    }

    /// Inverse of [`Self::label`].
    pub fn from_label(s: &str) -> Option<FailKind> {
        [
            FailKind::InvalidProgram,
            FailKind::GateDisagreement,
            FailKind::RunError,
            FailKind::Hang,
            FailKind::OracleMismatch,
            FailKind::AStreamIo,
            FailKind::SpuriousRecovery,
            FailKind::NonDeterminism,
            FailKind::Panic,
        ]
        .into_iter()
        .find(|k| k.label() == s)
    }
}

/// One observed deviation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Structural kind.
    pub kind: FailKind,
    /// Mode label (`single`, `slip-G0`, ... or `analyze`/`trace`/`-`).
    pub mode: String,
    /// Equivalence-class label the program was assigned.
    pub class: String,
    /// Mismatching oracle field (`loads`, `stores`, ...) or `-`.
    pub field: String,
    /// Human-readable specifics (numbers, error text). Excluded from the
    /// fingerprint so shrinking preserves identity.
    pub detail: String,
}

impl Failure {
    /// The stable identity of this failure: everything except `detail`.
    pub fn fingerprint_key(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.kind.label(),
            self.mode,
            self.class,
            self.field
        )
    }

    /// FNV-1a hash of the fingerprint key, in hex.
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", fnv1a64(self.fingerprint_key().as_bytes()))
    }
}

/// FNV-1a over bytes (stable across platforms and runs).
pub use dsm_sim::fnv1a as fnv1a64;

/// Outcome of one differential case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Worst equivalence class across the sync configurations analyzed.
    pub class: Equivalence,
    /// Every deviation observed.
    pub failures: Vec<Failure>,
    /// Modes that produced a completed simulation.
    pub modes_completed: u64,
}

impl CaseResult {
    /// No deviations at all.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

fn classify(program: &Program, machine: &MachineConfig, sync: SlipSync) -> Option<Equivalence> {
    let cfg = analyze_config(machine, &AStreamPolicy::paper(), Some(sync));
    catch_unwind(AssertUnwindSafe(|| analyze(program, &cfg).equivalence())).ok()
}

fn oracle(program: &Program, team: u64) -> Option<OpCounts> {
    catch_unwind(AssertUnwindSafe(|| omp_ir::trace(program, team).total)).ok()
}

fn is_hang_error(msg: &str) -> bool {
    msg.contains("max_cycles")
        || msg.contains("deadlock")
        || msg.contains("livelock")
        || msg.contains("budget exhausted")
}

fn compare_counts(got: &OpCounts, want: &OpCounts) -> Vec<(&'static str, u64, u64)> {
    let mut out = Vec::new();
    for (name, g, w) in [
        ("loads", got.loads, want.loads),
        ("stores", got.stores, want.stores),
        ("atomics", got.atomics, want.atomics),
        ("compute_cycles", got.compute_cycles, want.compute_cycles),
        ("io_in", got.io_in, want.io_in),
        ("io_out", got.io_out, want.io_out),
    ] {
        if g != w {
            out.push((name, g, w));
        }
    }
    out
}

/// Run the full differential check for one program.
pub fn run_case(program: &Program, opts: &DiffOptions) -> CaseResult {
    let mut failures = Vec::new();
    let mut modes_completed = 0u64;

    if let Err(e) = omp_ir::validate(program) {
        failures.push(Failure {
            kind: FailKind::InvalidProgram,
            mode: "-".into(),
            class: "-".into(),
            field: "-".into(),
            detail: e.to_string(),
        });
        return CaseResult {
            class: Equivalence::Deny,
            failures,
            modes_completed,
        };
    }

    // Classify under both sync types the slip modes will use; the gate
    // expectation for each mode uses its own class, the reported class is
    // the worst of the two. A second classification of the identical
    // input guards against analyzer instability.
    let class_g0 = classify(program, &opts.machine, SlipSync::G0);
    let class_l1 = classify(program, &opts.machine, SlipSync::L1);
    let (class_g0, class_l1) = match (class_g0, class_l1) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            failures.push(Failure {
                kind: FailKind::Panic,
                mode: "analyze".into(),
                class: "-".into(),
                field: "-".into(),
                detail: "analyzer panicked".into(),
            });
            return CaseResult {
                class: Equivalence::Deny,
                failures,
                modes_completed,
            };
        }
    };
    let class = if class_g0 >= class_l1 {
        class_g0
    } else {
        class_l1
    };
    if classify(program, &opts.machine, SlipSync::G0) != Some(class_g0) {
        failures.push(Failure {
            kind: FailKind::NonDeterminism,
            mode: "analyze".into(),
            class: class.label().into(),
            detail: "analyzer classified the same program differently across calls".into(),
            field: "-".into(),
        });
    }

    for (label, mode, sync) in MODES {
        let team = opts.team_for(mode);
        let want = match oracle(program, team) {
            Some(w) => w,
            None => {
                failures.push(Failure {
                    kind: FailKind::Panic,
                    mode: "trace".into(),
                    class: class.label().into(),
                    field: "-".into(),
                    detail: format!("trace panicked at team {team}"),
                });
                continue;
            }
        };
        let mode_class = match sync {
            Some(s) if !s.global => class_l1,
            Some(_) => class_g0,
            None => class,
        };
        let slip = mode == ExecMode::Slipstream;
        let faulted = slip && opts.fault_seed.is_some();
        let mut ro = RunOptions::new(mode)
            .with_machine(opts.machine.clone())
            .with_cycle_budget(opts.cycle_budget)
            .with_mutation(opts.mutation)
            .with_gate(if slip { GateMode::Deny } else { GateMode::Warn });
        ro.sync = sync;
        if let Some(fs) = opts.fault_seed {
            if slip {
                ro = ro
                    .with_faults(FaultPlan::random(fs ^ fnv1a64(label.as_bytes()), team, 3))
                    .with_recovery(RecoveryPolicy::hardened());
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| run_program(program, &ro)));
        let fail = |kind: FailKind, field: &str, detail: String| Failure {
            kind,
            mode: label.into(),
            class: mode_class.label().into(),
            field: field.into(),
            detail,
        };
        match outcome {
            Err(_) => failures.push(fail(FailKind::Panic, "-", "engine panicked".into())),
            Ok(Err(msg)) => {
                if msg.starts_with("slipstream gate: refusing") {
                    if mode_class != Equivalence::Deny {
                        failures.push(fail(
                            FailKind::GateDisagreement,
                            "-",
                            format!("gate refused a {}-class program: {msg}", mode_class),
                        ));
                    }
                    // Expected refusal for deny-class programs: not a
                    // completed mode, not a failure.
                } else if is_hang_error(&msg) {
                    failures.push(fail(FailKind::Hang, "-", msg));
                } else {
                    failures.push(fail(FailKind::RunError, "-", msg));
                }
            }
            Ok(Ok(summary)) => {
                modes_completed += 1;
                if slip && mode_class == Equivalence::Deny {
                    failures.push(fail(
                        FailKind::GateDisagreement,
                        "-",
                        "deny-class program passed the slipstream gate".into(),
                    ));
                }
                for (field, got, want) in compare_counts(&summary.raw.user_r, &want) {
                    failures.push(fail(
                        FailKind::OracleMismatch,
                        field,
                        format!("engine {got} vs trace {want} at team {team}"),
                    ));
                }
                if summary.raw.user_a.io_in + summary.raw.user_a.io_out > 0 {
                    failures.push(fail(
                        FailKind::AStreamIo,
                        "-",
                        format!(
                            "A-streams performed {} input / {} output ops",
                            summary.raw.user_a.io_in, summary.raw.user_a.io_out
                        ),
                    ));
                }
                // Note: deliberately not conditioned on `opts.mutation` —
                // a seeded mutation that only manifests as unexpected
                // recoveries (e.g. broken token accounting rescued by the
                // watchdog) must still be caught by the self-check.
                if mode_class == Equivalence::Exact && !faulted && summary.raw.recoveries > 0 {
                    failures.push(fail(
                        FailKind::SpuriousRecovery,
                        "-",
                        format!(
                            "{} recoveries on an exact-class program",
                            summary.raw.recoveries
                        ),
                    ));
                }
            }
        }
    }

    CaseResult {
        class,
        failures,
        modes_completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{Expr, ProgramBuilder};

    fn clean_program() -> Program {
        let mut b = ProgramBuilder::new("clean");
        let a = b.shared_array("a", 64, 8);
        let c = b.shared_array("c", 64, 8);
        let i = b.var();
        b.parallel(|r| {
            r.par_for(None, i, 0, 33, |body| {
                body.load(a, Expr::v(i));
                body.compute(4);
                body.store(c, Expr::v(i));
            });
        });
        b.build()
    }

    fn racy_program() -> Program {
        let mut b = ProgramBuilder::new("racy");
        let a = b.shared_array("a", 64, 8);
        let i = b.var();
        b.parallel(|r| {
            r.par_for(None, i, 0, 16, |body| {
                body.store(a, Expr::c(7)); // every iteration, same element
            });
        });
        b.build()
    }

    #[test]
    fn clean_program_is_clean_in_all_modes() {
        let res = run_case(&clean_program(), &DiffOptions::campaign());
        assert_eq!(res.class, Equivalence::Exact);
        assert!(res.clean(), "unexpected failures: {:?}", res.failures);
        assert_eq!(res.modes_completed, 4);
    }

    #[test]
    fn deny_class_program_is_refused_only_in_slip_modes() {
        let res = run_case(&racy_program(), &DiffOptions::campaign());
        assert_eq!(res.class, Equivalence::Deny);
        assert!(res.clean(), "unexpected failures: {:?}", res.failures);
        // single + double complete; both slip modes are gate-refused.
        assert_eq!(res.modes_completed, 2);
    }

    #[test]
    fn per_mode_oracle_handles_team_scaled_bounds() {
        // Trip count = NumThreads * 3: double mode (team 8) does twice the
        // work of single/slip (team 4). A shared-team oracle would report
        // a false mismatch here.
        let mut b = ProgramBuilder::new("team-scaled");
        let a = b.shared_array("a", 64, 8);
        let i = b.var();
        b.parallel(|r| {
            r.par_for(None, i, 0, 1, |body| {
                body.load(a, Expr::v(i));
            });
        });
        let mut p = b.build();
        // Rebuild the body with a NumThreads-scaled bound (no builder
        // sugar for expression bounds).
        p.body = omp_ir::node::Node::Seq(vec![omp_ir::node::Node::Parallel {
            body: Box::new(omp_ir::node::Node::ParFor {
                sched: None,
                var: i,
                begin: Expr::c(0),
                end: Expr::NumThreads * Expr::c(3),
                body: Box::new(omp_ir::node::Node::Load {
                    array: a,
                    index: Expr::v(i),
                }),
                reduction: None,
                nowait: false,
            }),
            slipstream: None,
        }]);
        let res = run_case(&p, &DiffOptions::campaign());
        assert!(res.clean(), "unexpected failures: {:?}", res.failures);
        assert_eq!(res.modes_completed, 4);
    }

    #[test]
    fn mutation_is_caught_as_oracle_mismatch() {
        let mut opts = DiffOptions::campaign();
        opts.mutation = EngineMutation::ChunkOffByOne;
        let res = run_case(&clean_program(), &opts);
        assert!(
            res.failures
                .iter()
                .any(|f| f.kind == FailKind::OracleMismatch),
            "chunk mutation not caught: {:?}",
            res.failures
        );
    }

    #[test]
    fn invalid_program_is_reported_not_run() {
        let mut p = clean_program();
        p.num_vars = 0; // var 0 is referenced: validation must fail
        let res = run_case(&p, &DiffOptions::campaign());
        assert_eq!(res.failures.len(), 1);
        assert_eq!(res.failures[0].kind, FailKind::InvalidProgram);
    }

    #[test]
    fn fingerprints_are_structural() {
        let a = Failure {
            kind: FailKind::OracleMismatch,
            mode: "slip-G0".into(),
            class: "exact".into(),
            field: "loads".into(),
            detail: "engine 10 vs trace 12".into(),
        };
        let mut b = a.clone();
        b.detail = "engine 3 vs trace 99".into();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.field = "stores".into();
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(FailKind::from_label("hang"), Some(FailKind::Hang));
        assert_eq!(FailKind::from_label("nope"), None);
    }

    #[test]
    fn serial_loop_around_a_disjoint_phase_is_clean() {
        // A serial iteration loop around a disjoint worksharing phase:
        // every mode runs, matches the oracle, and needs no recovery.
        let mut b = ProgramBuilder::new("serial-loop");
        let a = b.shared_array("a", 64, 8);
        let c = b.shared_array("c", 64, 8);
        let i = b.var();
        let t = b.var();
        b.parallel(move |r| {
            r.for_loop(t, 0, 8, move |it| {
                it.par_for(None, i, 0, 33, move |body| {
                    body.load(a, Expr::v(i));
                    body.compute(4);
                    body.store(c, Expr::v(i));
                });
            });
        });
        let res = run_case(&b.build(), &DiffOptions::campaign());
        assert!(res.clean(), "unexpected failures: {:?}", res.failures);
        assert_eq!(res.modes_completed, 4);
    }
}
