//! # omp-analyze — a slipstream-safety static analyzer over the kernel IR
//!
//! The timing IR guarantees that addresses and trip counts depend only on
//! private state (see `omp_ir::expr`), which makes whole-program symbolic
//! evaluation cheap: every address every thread will touch is computable
//! without running the memory simulation. This crate exploits that to
//! check, *before* a program reaches the slipstream engine, that it
//! upholds the contracts slipstream execution depends on:
//!
//! 1. **Data-race freedom per barrier phase** — unordered same-element
//!    accesses from different executors (not covered by `atomic`, a
//!    shared `critical` lock, or a reduction) are `deny` findings: racy
//!    programs have undefined behaviour under any schedule, and under
//!    slipstream the A-stream's skipped stores amplify the divergence.
//! 2. **Balanced synchronization** — every thread must execute the same
//!    barrier sequence, or the team deadlocks and the A/R token protocol
//!    desynchronizes (`deny`).
//! 3. **A-stream accuracy** — stores the A-stream skips *without*
//!    converting to prefetches that feed later-phase loads leave the
//!    A-stream computing on stale data (`warn`); skipped construct
//!    bodies with shared side effects are surfaced (`info`).
//! 4. **Lead bound vs. cache capacity** — the paper's L1/G0 tradeoff:
//!    with `tokens` outstanding, the A-stream leads by up to
//!    `tokens + 1` phases (global sync; `tokens + 2` local). If the
//!    combined shared footprint of that phase window exceeds L2
//!    capacity, prefetched lines are evicted before the R-stream uses
//!    them (`warn`).
//!
//! Findings carry structured [`omp_ir::NodePath`] locations shared with
//! `omp_ir::validate` diagnostics, and reports render as human text or
//! machine JSON. [`analyze`] is the one entry point: the `slipstream`
//! crate gates compilation on it via its [`GateMode`], the differential
//! fuzzer classifies programs with it, and `bench --bin analyze` sweeps
//! every NPB kernel with it.

#![warn(missing_docs)]

pub mod finding;
pub mod report;
mod strided;
mod walk;

pub use finding::{Finding, Hazard, Severity};
pub use report::{AnalysisReport, Equivalence, RegionReport, SkipSet};

use omp_ir::node::{Program, SlipSyncType};

/// FNV-1a 64-bit hash — the repo-wide stable fingerprint function.
pub use dsm_sim::fnv1a as fnv1a64;

/// Which constructs the A-stream skips or executes — mirrors
/// `slipstream`'s per-construct A-stream policy so the analyzer models
/// the same execution the engine performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipModel {
    /// A-stream skips `single` bodies.
    pub skip_single: bool,
    /// A-stream skips `critical` bodies.
    pub skip_critical: bool,
    /// A-stream executes `master` bodies.
    pub execute_master: bool,
    /// A-stream executes `atomic` updates.
    pub execute_atomic: bool,
    /// A-stream converts shared stores to read-exclusive prefetches
    /// (rather than dropping them).
    pub convert_shared_stores: bool,
}

impl SkipModel {
    /// The paper's policy (Table 2): skip single/critical, execute
    /// master/atomic, convert shared stores.
    pub fn paper() -> Self {
        SkipModel {
            skip_single: true,
            skip_critical: true,
            execute_master: true,
            execute_atomic: true,
            convert_shared_stores: true,
        }
    }
}

impl Default for SkipModel {
    fn default() -> Self {
        SkipModel::paper()
    }
}

/// What a caller does with analyzer findings when gating a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GateMode {
    /// Do not run the analyzer at all.
    Allow,
    /// Run the hazard passes and attach the report, but never block.
    #[default]
    Warn,
    /// Refuse to run programs with `deny`-severity findings.
    Deny,
}

/// Analyzer configuration: machine shape, slipstream defaults, skip
/// model, and resource budgets.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Modeled team size (one thread pair per CMP in the paper machine).
    pub num_threads: u64,
    /// Cache line size for footprint accounting.
    pub line_bytes: u64,
    /// L2 capacity in lines for the lead-bound check.
    pub l2_lines: u64,
    /// Slipstream sync type assumed when no directive specifies one (or
    /// a directive defers with `RuntimeSync`).
    pub default_sync: SlipSyncType,
    /// Token count assumed alongside `default_sync`.
    pub default_tokens: u64,
    /// The A-stream construct policy to model.
    pub skip: SkipModel,
    /// Maximum IR node visits before the walk truncates (the analysis
    /// never *invents* findings when truncated, it only stops looking).
    pub visit_budget: u64,
    /// Maximum distinct (phase, array, element) records before conflict
    /// detection stops admitting new elements (memory bound).
    pub max_state_entries: usize,
    /// Per-hazard cap on reported findings; the rest are counted as
    /// suppressed.
    pub max_reported_per_hazard: usize,
}

impl AnalyzeConfig {
    /// Paper machine: 16 CMPs, 64-byte lines, 1 MB L2 (16384 lines),
    /// global sync with 0 tokens, paper skip model.
    pub fn paper() -> Self {
        AnalyzeConfig {
            num_threads: 16,
            line_bytes: 64,
            l2_lines: 16384,
            default_sync: SlipSyncType::GlobalSync,
            default_tokens: 0,
            skip: SkipModel::paper(),
            visit_budget: 20_000_000,
            max_state_entries: 1 << 22,
            max_reported_per_hazard: 5,
        }
    }

    /// Set the modeled team size.
    pub fn with_threads(mut self, n: u64) -> Self {
        self.num_threads = n.max(1);
        self
    }

    /// Set the default slipstream sync type and token count.
    pub fn with_sync(mut self, sync: SlipSyncType, tokens: u64) -> Self {
        self.default_sync = sync;
        self.default_tokens = tokens;
        self
    }

    /// Set the visit budget.
    pub fn with_budget(mut self, visits: u64) -> Self {
        self.visit_budget = visits;
        self
    }

    /// Set the L2 capacity (in lines) for the lead-bound check.
    pub fn with_l2_lines(mut self, lines: u64) -> Self {
        self.l2_lines = lines;
        self
    }
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig::paper()
    }
}

/// Run every analysis pass over `program`: validation plus the walk's
/// race, skip-set/divergence and lead-bound checks.
///
/// Invalid programs (per [`omp_ir::validate()`]) return a report whose
/// findings are the validator's diagnostics at `deny` severity; the walk
/// itself only runs on valid programs.
pub fn analyze(program: &Program, cfg: &AnalyzeConfig) -> AnalysisReport {
    if let Err(e) = omp_ir::validate(program) {
        let findings = e
            .problems
            .iter()
            .map(|d| Finding {
                hazard: Hazard::InvalidIr,
                severity: Severity::Deny,
                path: d.path.clone(),
                related: None,
                region: None,
                phase: None,
                message: d.message.clone(),
            })
            .collect();
        return AnalysisReport {
            program: program.name.clone(),
            num_threads: cfg.num_threads,
            l2_lines: cfg.l2_lines,
            findings,
            regions: Vec::new(),
            suppressed: 0,
            truncated: false,
            visits: 0,
        };
    }
    let out = walk::walk(program, cfg);
    AnalysisReport {
        program: program.name.clone(),
        num_threads: cfg.num_threads,
        l2_lines: cfg.l2_lines,
        findings: out.findings,
        regions: out.regions,
        suppressed: out.suppressed,
        truncated: out.truncated,
        visits: out.visits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::expr::{Expr, VarId};
    use omp_ir::node::{ArrayDecl, ArrayId, Node, Reduction, ReductionOp, ScheduleSpec};

    fn arr(name: &str, len: u64) -> ArrayDecl {
        ArrayDecl {
            name: name.into(),
            shared: true,
            len,
            elem_bytes: 8,
        }
    }

    fn prog(name: &str, arrays: Vec<ArrayDecl>, num_vars: u32, body: Node) -> Program {
        Program {
            name: name.into(),
            arrays,
            tables: vec![],
            num_vars,
            body,
        }
    }

    fn cfg4() -> AnalyzeConfig {
        AnalyzeConfig::paper().with_threads(4)
    }

    fn parfor(sched: Option<ScheduleSpec>, end: i64, body: Node) -> Node {
        Node::ParFor {
            sched,
            var: VarId(0),
            begin: Expr::c(0),
            end: Expr::c(end),
            body: Box::new(body),
            reduction: None,
            nowait: false,
        }
    }

    fn region(body: Node) -> Node {
        Node::Parallel {
            body: Box::new(body),
            slipstream: None,
        }
    }

    #[test]
    fn disjoint_static_parfor_is_clean() {
        let p = prog(
            "clean",
            vec![arr("a", 64)],
            1,
            region(parfor(
                None,
                64,
                Node::Store {
                    array: ArrayId(0),
                    index: Expr::v(VarId(0)),
                },
            )),
        );
        let r = analyze(&p, &cfg4());
        assert!(r.is_clean(), "unexpected findings: {}", r.render_text());
        assert_eq!(r.regions.len(), 1);
        assert_eq!(r.regions[0].phases, 2);
        assert_eq!(r.regions[0].skips.shared_stores_converted, 64);
    }

    #[test]
    fn racing_store_is_deny() {
        // Every iteration writes element 0: threads race.
        let p = prog(
            "race",
            vec![arr("a", 64)],
            1,
            region(parfor(
                None,
                64,
                Node::Store {
                    array: ArrayId(0),
                    index: Expr::c(0),
                },
            )),
        );
        let r = analyze(&p, &cfg4());
        assert_eq!(r.deny_count(), 1, "{}", r.render_text());
        assert_eq!(r.findings[0].hazard, Hazard::RaceWriteWrite);
        assert!(r.findings[0].path.to_string().contains("parfor[0]/store"));
    }

    #[test]
    fn read_write_race_is_deny() {
        // Thread i writes a[i] while every thread reads a[0].
        let body = Node::Seq(vec![
            Node::Store {
                array: ArrayId(0),
                index: Expr::v(VarId(0)),
            },
            Node::Load {
                array: ArrayId(0),
                index: Expr::c(0),
            },
        ]);
        let p = prog("rw", vec![arr("a", 64)], 1, region(parfor(None, 64, body)));
        let r = analyze(&p, &cfg4());
        assert!(
            r.findings.iter().any(|f| f.hazard == Hazard::RaceReadWrite),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn atomic_updates_are_covered() {
        let p = prog(
            "atomic",
            vec![arr("a", 8)],
            1,
            region(parfor(
                None,
                64,
                Node::Atomic {
                    array: ArrayId(0),
                    index: Expr::c(0),
                },
            )),
        );
        let r = analyze(&p, &cfg4());
        assert!(r.is_clean(), "{}", r.render_text());
        assert_eq!(r.regions[0].skips.atomics_executed, 64);
    }

    #[test]
    fn same_critical_lock_is_covered_but_skipped_store_warns_on_later_read() {
        // All threads update a[0] under one lock (ordered), then after a
        // barrier everyone reads it: the A-stream skipped the critical
        // stores, so the read is stale.
        let body = Node::Seq(vec![
            Node::Critical {
                name: "sum".into(),
                body: Box::new(Node::Seq(vec![
                    Node::Load {
                        array: ArrayId(0),
                        index: Expr::c(0),
                    },
                    Node::Store {
                        array: ArrayId(0),
                        index: Expr::c(0),
                    },
                ])),
            },
            Node::Barrier,
            Node::Load {
                array: ArrayId(0),
                index: Expr::c(0),
            },
        ]);
        let p = prog("crit", vec![arr("a", 8)], 0, region(body));
        let r = analyze(&p, &cfg4());
        assert_eq!(r.deny_count(), 0, "{}", r.render_text());
        assert!(
            r.findings
                .iter()
                .any(|f| f.hazard == Hazard::SkippedStoreStale),
            "{}",
            r.render_text()
        );
        assert!(
            r.findings
                .iter()
                .any(|f| f.hazard == Hazard::RStreamOnlySideEffect),
            "{}",
            r.render_text()
        );
        assert_eq!(r.regions[0].skips.criticals, 1);
    }

    #[test]
    fn reduction_combines_are_exempt() {
        let p = prog(
            "red",
            vec![arr("a", 64), arr("sum", 1)],
            1,
            region(Node::Seq(vec![
                Node::ParFor {
                    sched: None,
                    var: VarId(0),
                    begin: Expr::c(0),
                    end: Expr::c(64),
                    body: Box::new(Node::Load {
                        array: ArrayId(0),
                        index: Expr::v(VarId(0)),
                    }),
                    reduction: Some(Reduction {
                        op: ReductionOp::Sum,
                        target: ArrayId(1),
                        index: Expr::c(0),
                    }),
                    nowait: false,
                },
                // Reading the reduction result after the barrier is the
                // normal pattern and must stay clean.
                Node::Load {
                    array: ArrayId(1),
                    index: Expr::c(0),
                },
            ])),
        );
        let r = analyze(&p, &cfg4());
        assert!(r.is_clean(), "{}", r.render_text());
        assert_eq!(r.regions[0].skips.reduction_combines, 1);
    }

    #[test]
    fn skipped_single_store_read_later_warns() {
        let body = Node::Seq(vec![
            Node::Single(Box::new(Node::Store {
                array: ArrayId(0),
                index: Expr::c(0),
            })),
            Node::Load {
                array: ArrayId(0),
                index: Expr::c(0),
            },
        ]);
        let p = prog("single", vec![arr("a", 8)], 0, region(body));
        let r = analyze(&p, &cfg4());
        assert_eq!(r.deny_count(), 0, "{}", r.render_text());
        let stale: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.hazard == Hazard::SkippedStoreStale)
            .collect();
        assert_eq!(stale.len(), 1, "{}", r.render_text());
        assert!(stale[0].path.to_string().contains("single[0]/store[0]"));
        assert_eq!(r.regions[0].skips.singles, 1);
    }

    #[test]
    fn thread_dependent_loop_around_barrier_is_deny() {
        let body = Node::For {
            var: VarId(0),
            begin: Expr::c(0),
            end: Expr::ThreadId,
            step: 1,
            body: Box::new(Node::Barrier),
        };
        let p = prog("unbal", vec![], 1, region(body));
        let r = analyze(&p, &cfg4());
        assert_eq!(r.deny_count(), 1, "{}", r.render_text());
        assert_eq!(r.findings[0].hazard, Hazard::UnbalancedSync);
        assert!(r.findings[0].path.to_string().contains("for[0]"));
    }

    #[test]
    fn unbalanced_loops_report_in_program_order() {
        // Thread-dependent barrier loops in one region are reported in
        // program order, so the per-hazard cap keeps the first ones.
        let lp = || Node::For {
            var: VarId(0),
            begin: Expr::c(0),
            end: Expr::ThreadId,
            step: 1,
            body: Box::new(Node::Barrier),
        };
        let reported = |loops: usize, cap: usize| {
            let body = Node::Seq((0..loops).map(|_| lp()).collect());
            let mut cfg = cfg4();
            cfg.max_reported_per_hazard = cap;
            let r = analyze(&prog("unbal", vec![], 1, region(body)), &cfg);
            assert!(r
                .findings
                .iter()
                .all(|f| f.hazard == Hazard::UnbalancedSync));
            let paths: Vec<String> = r.findings.iter().map(|f| f.path.to_string()).collect();
            (paths, r.suppressed)
        };
        let first =
            |n: usize| -> Vec<String> { (0..n).map(|k| format!("parallel[0]/for[{k}]")).collect() };
        assert_eq!(reported(2, 5), (first(2), 0));
        assert_eq!(reported(2, 1), (first(1), 1));
        assert_eq!(reported(6, 5), (first(5), 1));
    }

    #[test]
    fn big_footprint_with_tokens_warns_stale_prefetch() {
        // Two phases each touching 32 lines; with 1 token the A-stream
        // window spans both, exceeding a 48-line "L2".
        let phase = |a| {
            parfor(
                None,
                256,
                Node::Store {
                    array: ArrayId(a),
                    index: Expr::v(VarId(0)),
                },
            )
        };
        let p = prog(
            "lead",
            vec![arr("a", 256), arr("b", 256)],
            1,
            Node::Parallel {
                body: Box::new(Node::Seq(vec![phase(0), phase(1)])),
                slipstream: Some(omp_ir::node::SlipstreamClause {
                    sync: SlipSyncType::GlobalSync,
                    tokens: 1,
                }),
            },
        );
        let r = analyze(&p, &cfg4().with_l2_lines(48));
        assert!(
            r.findings.iter().any(|f| f.hazard == Hazard::StalePrefetch),
            "{}",
            r.render_text()
        );
        assert_eq!(r.regions[0].lead_phases, 2);
        assert!(r.regions[0].max_window_lines > r.regions[0].max_phase_lines);
        // Same program analyzed with the paper L2 is clean.
        assert!(analyze(&p, &cfg4()).is_clean());
    }

    #[test]
    fn unbounded_token_window_spans_every_phase() {
        // 2,000 barrier phases of 64 fresh lines each under a token count
        // no region can exhaust: the window is the whole region.
        let body = Node::For {
            var: VarId(0),
            begin: Expr::c(0),
            end: Expr::c(2000),
            step: 1,
            body: Box::new(Node::Seq(vec![
                Node::For {
                    var: VarId(1),
                    begin: Expr::c(0),
                    end: Expr::c(64),
                    step: 1,
                    body: Box::new(Node::Load {
                        array: ArrayId(0),
                        index: Expr::v(VarId(0)) * Expr::c(512) + Expr::v(VarId(1)) * Expr::c(8),
                    }),
                },
                Node::Barrier,
            ])),
        };
        let p = prog(
            "lead",
            vec![arr("a", 2000 * 512)],
            2,
            Node::Parallel {
                body: Box::new(body),
                slipstream: Some(omp_ir::node::SlipstreamClause {
                    sync: SlipSyncType::GlobalSync,
                    tokens: u64::MAX,
                }),
            },
        );
        let r = analyze(&p, &AnalyzeConfig::paper().with_threads(1));
        assert_eq!(r.visits, 132_001);
        assert_eq!(r.regions[0].phases, 2001);
        assert_eq!(r.regions[0].max_phase_lines, 64);
        assert_eq!(r.regions[0].max_window_lines, 128_000);
        let stale: Vec<_> = r.findings.iter().map(|f| f.hazard).collect();
        assert_eq!(stale, [Hazard::StalePrefetch], "{}", r.render_text());
    }

    #[test]
    fn invalid_programs_report_validator_diagnostics() {
        let p = prog("bad", vec![], 0, parfor(None, 4, Node::nop()));
        let r = analyze(&p, &cfg4());
        assert!(r.deny_count() >= 1);
        assert_eq!(r.findings[0].hazard, Hazard::InvalidIr);
        assert!(r.findings[0].path.to_string().contains("parfor[0]"));
    }

    #[test]
    fn budget_truncation_is_flagged_without_spurious_findings() {
        let p = prog(
            "trunc",
            vec![arr("a", 64)],
            1,
            region(parfor(
                None,
                64,
                Node::Store {
                    array: ArrayId(0),
                    index: Expr::v(VarId(0)),
                },
            )),
        );
        let r = analyze(&p, &AnalyzeConfig::paper().with_threads(4).with_budget(10));
        assert!(r.truncated);
        assert!(!r.is_clean());
        assert_eq!(r.findings.len(), 0, "{}", r.render_text());
    }

    #[test]
    fn dynamic_schedule_chunks_are_distinct_work_items() {
        // dynamic(1): each iteration its own work item; element 0 written
        // by every iteration -> race.
        let p = prog(
            "dyn",
            vec![arr("a", 8)],
            1,
            region(parfor(
                Some(ScheduleSpec::dynamic(1)),
                16,
                Node::Store {
                    array: ArrayId(0),
                    index: Expr::c(0),
                },
            )),
        );
        let r = analyze(&p, &cfg4());
        assert_eq!(r.deny_count(), 1, "{}", r.render_text());
        // Disjoint writes under dynamic stay clean.
        let p2 = prog(
            "dyn2",
            vec![arr("a", 16)],
            1,
            region(parfor(
                Some(ScheduleSpec::dynamic(2)),
                16,
                Node::Store {
                    array: ArrayId(0),
                    index: Expr::v(VarId(0)),
                },
            )),
        );
        assert!(analyze(&p2, &cfg4()).is_clean());
    }
}
