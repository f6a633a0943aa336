//! Memoized phase replay: turn `omp-analyze` replay-loop licenses into an
//! engine-executable plan, and report what the engine did with it.
//!
//! The analyzer's certification pass ([`omp_analyze::ReplayLoop`]) licenses
//! serial top-level loops whose barrier phases are all `Pure`/`ReplaySafe`:
//! every iteration performs the same shared-memory communication pattern, so
//! once the simulated machine reaches a fixed point — two iteration starts
//! `p` iterations apart present the identical time-shift-normalized machine
//! state (`p > 1` happens physically: barrier-line ownership migrates to the
//! last arriver, rotating who arrives last next) — the remaining iterations
//! are a closed form. The engine then *replays* whole periods in bulk:
//! counters advance by `j·δ` and every live clock by `j·Δ`, where `(δ, Δ)`
//! are the per-period deltas measured between the two converged iteration
//! starts and `j` is the number of skipped periods (`j·p` iterations).
//!
//! The plan built here resolves each license's [`omp_ir::NodePath`] to the
//! compiled node ids the engine's frame stack actually carries. Resolution is
//! structural, so a plan applied to a *different* program (or the same
//! program recompiled with different bounds) is caught at run time by the
//! license's guard checksum and the engine falls back to full execution.
//!
//! Bit-identity contract: a memo-on run must produce exactly the statistics
//! of the memo-off run. Two observation-only quantities are exempt and
//! deliberately excluded from stats fingerprints: the engine's processed
//! event count and [`dsm_sim::Lock::acquisitions`] (skipped iterations
//! process no events and take no locks).

use crate::compile::{CompiledProgram, FNode, NodeId};
use omp_analyze::AnalysisReport;
use omp_ir::path::{NodePath, PathSeg};
use omp_ir::VarId;

/// One licensed replay loop, resolved to compiled-node coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoLoop {
    /// The loop's body node — the engine's `For` frame carries this id, so
    /// it is the plan's lookup key.
    pub body: NodeId,
    /// Induction variable.
    pub var: VarId,
    /// Certified first iteration value.
    pub begin: i64,
    /// Certified exclusive upper bound.
    pub end: i64,
    /// Certified step.
    pub step: u64,
    /// Certified trip count.
    pub trip_count: u64,
    /// [`omp_analyze::guard_checksum`] over the certified loop bounds; the
    /// engine recomputes it from the live frame before engaging.
    pub guard_checksum: u64,
}

/// Licensed loops keyed by their body [`NodeId`], ready for the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoPlan {
    /// Licensed loops, sorted by body id.
    pub loops: Vec<MemoLoop>,
}

impl MemoPlan {
    /// True when no loop is licensed (memo machinery fully inert).
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// The license whose loop body is `body`, if any.
    pub fn lookup(&self, body: NodeId) -> Option<&MemoLoop> {
        self.loops.iter().find(|l| l.body == body)
    }
}

/// What the memo runtime did during a run. Observation-only — excluded
/// from stats fingerprints, like traces — and all zeros when no plan was
/// installed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoDiag {
    /// Non-internal barrier releases inspected while a plan was armed.
    pub boundaries: u64,
    /// Iteration-start machine-state digests computed.
    pub samples: u64,
    /// Fixed points reached: bulk jumps performed.
    pub engagements: u64,
    /// Loop iterations replayed in closed form instead of executed.
    pub jumped_iterations: u64,
    /// Times the runtime guard found the live loop contradicting its
    /// certificate (stale plan); each permanently disables the memo.
    pub guard_fallbacks: u64,
    /// The memo runtime gave up for the rest of the run (guard fallback
    /// or too many non-converging samples).
    pub disabled: bool,
}

/// Stable node-kind labels for the compiled tree, matching
/// [`omp_ir::path::node_kind`] so resolved paths compare byte-for-byte
/// with analyzer evidence paths.
fn fnode_kind(n: &FNode) -> &'static str {
    match n {
        FNode::Seq(_) => "seq",
        FNode::Compute(_) => "compute",
        FNode::Load { .. } => "load",
        FNode::Store { .. } => "store",
        FNode::For { .. } => "for",
        FNode::Parallel { .. } => "parallel",
        FNode::SlipstreamSet(_) => "slipstream_set",
        FNode::ParFor { .. } => "parfor",
        FNode::Barrier => "barrier",
        FNode::Single(_) => "single",
        FNode::Master(_) => "master",
        FNode::Critical { .. } => "critical",
        FNode::Atomic { .. } => "atomic",
        FNode::Sections(_) => "sections",
        FNode::Flush => "flush",
        FNode::Io { .. } => "io",
    }
}

/// Walk the compiled tree with the analyzer's path convention — `Seq` is
/// transparent, every other node contributes a `kind[index]` segment with
/// its statement position in the enclosing block — collecting the path of
/// every serial `For`.
fn collect_for_paths(cp: &CompiledProgram) -> Vec<(String, NodeId)> {
    let mut out = Vec::new();
    let mut segs: Vec<PathSeg> = Vec::new();
    walk(cp, cp.root, 0, &mut segs, &mut out);
    out
}

fn walk(
    cp: &CompiledProgram,
    id: NodeId,
    idx: u32,
    segs: &mut Vec<PathSeg>,
    out: &mut Vec<(String, NodeId)>,
) {
    let n = cp.node(id);
    if let FNode::Seq(kids) = n {
        for (k, c) in kids.iter().enumerate() {
            walk(cp, *c, k as u32, segs, out);
        }
        return;
    }
    segs.push(PathSeg {
        kind: fnode_kind(n),
        index: idx,
    });
    if matches!(n, FNode::For { .. }) {
        out.push((NodePath::from_segs(segs).to_string(), id));
    }
    match n {
        FNode::For { body, .. }
        | FNode::Parallel { body, .. }
        | FNode::ParFor { body, .. }
        | FNode::Critical { body, .. } => walk(cp, *body, 0, segs, out),
        FNode::Single(b) | FNode::Master(b) => walk(cp, *b, 0, segs, out),
        FNode::Sections(kids) => {
            for (k, c) in kids.iter().enumerate() {
                walk(cp, *c, k as u32, segs, out);
            }
        }
        _ => {}
    }
    segs.pop();
}

/// Resolve every replay-loop license in `report` against the compiled
/// program. Licenses whose path does not resolve to a serial `For` with
/// the certified induction variable and step are dropped (the program
/// differs from the analyzed one); the runtime guard re-verifies bounds
/// before any jump, so a resolved-but-stale license still cannot engage.
pub fn build_plan(report: &AnalysisReport, cp: &CompiledProgram) -> MemoPlan {
    if report.replay_loops.is_empty() {
        return MemoPlan::default();
    }
    let paths = collect_for_paths(cp);
    let mut loops: Vec<MemoLoop> = Vec::new();
    for rl in &report.replay_loops {
        let want = rl.path.to_string();
        let Some((_, id)) = paths.iter().find(|(p, _)| *p == want) else {
            continue;
        };
        let FNode::For {
            var, step, body, ..
        } = cp.node(*id)
        else {
            continue;
        };
        if var.0 != rl.var || *step != rl.step {
            continue;
        }
        loops.push(MemoLoop {
            body: *body,
            var: *var,
            begin: rl.begin,
            end: rl.end,
            step: rl.step,
            trip_count: rl.trip_count,
            guard_checksum: rl.guard_checksum,
        });
    }
    loops.sort_by_key(|l| l.body.0);
    loops.dedup_by_key(|l| l.body.0);
    MemoPlan { loops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::analyze_config;
    use crate::policy::AStreamPolicy;
    use dsm_sim::{AddressMap, MachineConfig};
    use omp_analyze::analyze;
    use omp_ir::{Expr, ProgramBuilder};

    fn machine() -> MachineConfig {
        let mut m = MachineConfig::paper();
        m.num_cmps = 4;
        m
    }

    fn licensed_program(trip: i64) -> omp_ir::node::Program {
        let mut b = ProgramBuilder::new("memo-plan");
        let a = b.shared_array("a", 64, 8);
        let c = b.shared_array("c", 64, 8);
        let i = b.var();
        let t = b.var();
        b.parallel(move |r| {
            r.for_loop(t, 0, trip, move |it| {
                it.par_for(None, i, 0, 33, move |body| {
                    body.load(a, Expr::v(i));
                    body.compute(4);
                    body.store(c, Expr::v(i));
                });
            });
        });
        b.build()
    }

    fn plan_for(program: &omp_ir::node::Program) -> MemoPlan {
        let m = machine();
        let cfg = analyze_config(&m, &AStreamPolicy::paper(), None);
        let report = analyze(program, &cfg);
        let map = AddressMap::new(&m);
        let cp = crate::compile::compile(program, &map).unwrap();
        build_plan(&report, &cp)
    }

    #[test]
    fn licensed_loop_resolves_to_one_plan_entry() {
        let program = licensed_program(5);
        let plan = plan_for(&program);
        assert_eq!(plan.loops.len(), 1, "expected one license: {plan:?}");
        let l = &plan.loops[0];
        assert_eq!((l.begin, l.end, l.step, l.trip_count), (0, 5, 1, 5));
        assert_eq!(
            l.guard_checksum,
            omp_analyze::guard_checksum(l.var.0, 0, 5, 1)
        );
        assert!(plan.lookup(l.body).is_some());
    }

    #[test]
    fn unlicensed_program_yields_empty_plan() {
        // Store to a racy fixed element: phases are Opaque, nothing is
        // licensed, the plan is inert.
        let mut b = ProgramBuilder::new("racy");
        let a = b.shared_array("a", 64, 8);
        let i = b.var();
        let t = b.var();
        b.parallel(move |r| {
            r.for_loop(t, 0, 4, move |it| {
                it.par_for(None, i, 0, 16, move |body| {
                    body.store(a, Expr::c(7));
                });
            });
        });
        let plan = plan_for(&b.build());
        assert!(plan.is_empty());
    }

    #[test]
    fn stale_license_against_other_program_does_not_resolve_blindly() {
        // A license from the 5-trip program resolved against the 9-trip
        // compilation still resolves structurally (same tree shape), but
        // keeps the *certified* bounds — the runtime guard is what catches
        // the mismatch. The plan must carry the certified trip count.
        let p5 = licensed_program(5);
        let p9 = licensed_program(9);
        let m = machine();
        let cfg = analyze_config(&m, &AStreamPolicy::paper(), None);
        let report5 = analyze(&p5, &cfg);
        let map = AddressMap::new(&m);
        let cp9 = crate::compile::compile(&p9, &map).unwrap();
        let plan = build_plan(&report5, &cp9);
        assert_eq!(plan.loops.len(), 1);
        assert_eq!(plan.loops[0].trip_count, 5, "certified bounds preserved");
    }
}
