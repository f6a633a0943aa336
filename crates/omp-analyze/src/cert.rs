//! Phase-purity certification: licensing memoized phase replay.
//!
//! The slipstream engine's `memo` mode skips converged iterations of a
//! serial loop by replaying recorded stats/machine-state deltas (see
//! `slipstream::memo`). Replay is *sound* only when the engine can prove
//! at run time that two consecutive iterations reached identical
//! time-normalized machine states — but attempting it everywhere would
//! waste digest work and, worse, a buggy attempt window could jump over
//! genuinely irregular code. This pass decides *where the engine is
//! allowed to try*:
//!
//! 1. Every barrier phase of every parallel region is summarized per
//!    (array, executor) with [`crate::deps`] index sets and classified:
//!    * [`PhaseClass::Pure`] — no shared writes at all;
//!    * [`PhaseClass::ReplaySafe`] — writes exist but every cross-thread
//!      pair is disjoint (GCD/Banerjee/CRT tests) or protected (atomic,
//!      reduction, same critical lock without stores... see below);
//!    * [`PhaseClass::Opaque`] — conflicts, I/O, dynamic-family
//!      schedules (runtime-allocated scheduler state), critical-section
//!      stores (arrival-order-dependent writers), or truncation.
//! 2. Serial `for` loops directly in a region body become
//!    [`ReplayLoop`] licenses when their bounds are compile-time
//!    constants (no thread-id dependence), the body never reads the
//!    induction variable, each iteration passes at least one barrier
//!    boundary, and every phase inside is `Pure`/`ReplaySafe`.
//!
//! Certificates carry stable FNV-1a fingerprints and `NodePath` evidence
//! anchors; `ReplayLoop::guard_checksum` digests the loop constants the
//! engine re-verifies against the live stack frame before every jump.

use std::collections::HashMap;

use omp_ir::expr::{SimpleCtx, VarId};
use omp_ir::node::{ArrayId, Node, Program, ScheduleKind, ScheduleSpec};
use omp_ir::path::{node_kind, NodePath, PathSeg};
use omp_ir::wsloop;

use crate::deps::{linear_in, lists_intersect, IndexSet, SetBuilder};
use crate::{fnv1a64, AnalyzeConfig};

/// Replay classification of one barrier phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseClass {
    /// No shared-memory writes: trivially replayable.
    Pure,
    /// Shared writes exist but are provably conflict-free or protected.
    ReplaySafe,
    /// The phase resists static summarization; replay must not engage.
    Opaque,
}

impl PhaseClass {
    /// Stable lowercase label (JSON, CLI).
    pub fn label(self) -> &'static str {
        match self {
            PhaseClass::Pure => "pure",
            PhaseClass::ReplaySafe => "replay-safe",
            PhaseClass::Opaque => "opaque",
        }
    }

    /// Parse a [`label`](Self::label) back.
    pub fn from_label(s: &str) -> Option<PhaseClass> {
        match s {
            "pure" => Some(PhaseClass::Pure),
            "replay-safe" => Some(PhaseClass::ReplaySafe),
            "opaque" => Some(PhaseClass::Opaque),
            _ => None,
        }
    }
}

impl std::fmt::Display for PhaseClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One certified barrier phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseCertificate {
    /// Parallel region ordinal (program order).
    pub region: u32,
    /// Barrier phase ordinal within the region.
    pub phase: u32,
    /// Replay classification.
    pub class: PhaseClass,
    /// The construct whose barrier ends this phase (the region itself
    /// for the trailing phase).
    pub path: NodePath,
    /// All access summaries in the phase are exact (no interval
    /// over-approximation, no enumeration-budget degradation).
    pub exact: bool,
    /// Distinct shared arrays accessed.
    pub arrays: u32,
    /// Total write-set size across executors (saturating; intervals
    /// count their full range).
    pub writes: u64,
    /// Demotion evidence, empty for `Pure`.
    pub reasons: Vec<String>,
    /// Stable FNV-1a fingerprint of the certificate content.
    pub fingerprint: u64,
}

/// A licensed replay loop: the engine may attempt fixed-point memoized
/// replay at construct-barrier boundaries inside this serial loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayLoop {
    /// Parallel region ordinal.
    pub region: u32,
    /// Path of the serial `for` node.
    pub path: NodePath,
    /// Induction variable slot.
    pub var: u32,
    /// Constant-folded inclusive start.
    pub begin: i64,
    /// Constant-folded exclusive end.
    pub end: i64,
    /// Loop step.
    pub step: u64,
    /// Iterations the loop executes.
    pub trip_count: u64,
    /// First barrier phase of the loop body.
    pub phase_start: u32,
    /// Barrier phases each iteration passes (≥ 1).
    pub phases_per_iteration: u32,
    /// FNV-1a over `(var, begin, end, step)` — the constants the engine
    /// re-verifies against the live `For` frame before every jump.
    pub guard_checksum: u64,
    /// Stable FNV-1a fingerprint of the license content.
    pub fingerprint: u64,
}

/// Compute the guard checksum the runtime re-derives from a live frame.
pub fn guard_checksum(var: u32, begin: i64, end: i64, step: u64) -> u64 {
    fnv1a64(format!("replay-guard|var={var}|begin={begin}|end={end}|step={step}").as_bytes())
}

#[derive(Default)]
pub(crate) struct CertOutput {
    pub certificates: Vec<PhaseCertificate>,
    pub replay_loops: Vec<ReplayLoop>,
}

// Executor identity: a fixed thread, or a one-shot work item (single
// bodies, sections) whose thread assignment is runtime-dependent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CExec {
    Thread(u32),
    Once(u32),
}

fn exec_label(e: CExec) -> String {
    match e {
        CExec::Thread(t) => format!("thread {t}"),
        CExec::Once(i) => format!("work item {i}"),
    }
}

const NO_LOCK: u32 = u32::MAX;
const MAX_PHASES: usize = 4096;
const POINT_CAP: usize = 1 << 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CProt {
    atomic: bool,
    reduce: bool,
    lock: u32,
}

fn covered(a: CProt, b: CProt) -> bool {
    (a.atomic && b.atomic) || (a.reduce && b.reduce) || (a.lock != NO_LOCK && a.lock == b.lock)
}

#[derive(Clone, Copy)]
struct Scope {
    exec: CExec,
    lock: u32,
    reduce: bool,
    in_critical: bool,
    ws: bool,
}

struct TState {
    tid: u64,
    ctx: SimpleCtx,
    phase: u32,
    dirty: bool,
}

#[derive(Default)]
struct PhaseMeta {
    end_path: Option<NodePath>,
    io: bool,
    dynamic: bool,
    critical_store: bool,
}

struct Candidate {
    path: NodePath,
    var: u32,
    begin: i64,
    end: i64,
    step: u64,
    trip: u64,
    phase_start: u32,
    phase_end: u32,
    ppi: u32,
    aligned: bool,
}

struct Stop;

type AccKey = (u32, u32, CExec, CProt, bool);

struct Certifier<'p> {
    program: &'p Program,
    cfg: &'p AnalyzeConfig,
    segs: Vec<PathSeg>,
    budget: u64,
    locks: HashMap<String, u32>,
    once_ctr: u32,
    region_idx: u32,
    // Per-region scratch.
    acc: HashMap<AccKey, SetBuilder>,
    meta: Vec<PhaseMeta>,
    candidates: Vec<Candidate>,
    truncated: bool,
    // Output.
    certificates: Vec<PhaseCertificate>,
    replay_loops: Vec<ReplayLoop>,
}

pub(crate) fn certify(program: &Program, cfg: &AnalyzeConfig) -> CertOutput {
    let mut c = Certifier {
        program,
        cfg,
        segs: Vec::new(),
        budget: cfg.visit_budget,
        locks: HashMap::new(),
        once_ctr: 0,
        region_idx: 0,
        acc: HashMap::new(),
        meta: Vec::new(),
        candidates: Vec::new(),
        truncated: false,
        certificates: Vec::new(),
        replay_loops: Vec::new(),
    };
    c.top(&program.body, 0);
    CertOutput {
        certificates: c.certificates,
        replay_loops: c.replay_loops,
    }
}

impl<'p> Certifier<'p> {
    fn path(&self) -> NodePath {
        NodePath::from_segs(&self.segs)
    }

    fn spend(&mut self) -> Result<(), Stop> {
        if self.budget == 0 {
            self.truncated = true;
            return Err(Stop);
        }
        self.budget -= 1;
        Ok(())
    }

    fn lock_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.locks.get(name) {
            return id;
        }
        let id = self.locks.len() as u32;
        self.locks.insert(name.to_string(), id);
        id
    }

    fn fresh_once(&mut self) -> CExec {
        let e = CExec::Once(self.once_ctr);
        self.once_ctr += 1;
        e
    }

    fn fresh_ctx(&self, tid: u64) -> SimpleCtx {
        let mut c = SimpleCtx::new(
            self.program.num_vars as usize,
            tid as i64,
            self.cfg.num_threads as i64,
        );
        c.tables = self.program.tables.clone();
        c
    }

    fn ensure_meta(&mut self, phase: u32) {
        while self.meta.len() <= phase as usize {
            self.meta.push(PhaseMeta::default());
        }
    }

    fn meta_mut(&mut self, phase: u32) -> &mut PhaseMeta {
        self.ensure_meta(phase);
        &mut self.meta[phase as usize]
    }

    // ---- serial walk ----------------------------------------------------

    fn top(&mut self, n: &Node, idx: u32) {
        match n {
            Node::Seq(v) => {
                for (k, c) in v.iter().enumerate() {
                    self.top(c, k as u32);
                }
            }
            Node::For { body, .. } => {
                self.segs.push(PathSeg {
                    kind: "for",
                    index: idx,
                });
                self.top(body, 0);
                self.segs.pop();
            }
            Node::Parallel { body, .. } => {
                self.segs.push(PathSeg {
                    kind: "parallel",
                    index: idx,
                });
                self.region(body);
                self.segs.pop();
                self.region_idx += 1;
            }
            _ => {}
        }
    }

    // ---- region walk ----------------------------------------------------

    fn region(&mut self, body: &Node) {
        self.acc.clear();
        self.meta.clear();
        self.meta.push(PhaseMeta::default());
        self.candidates.clear();
        self.truncated = false;
        let region_path = self.path();

        for tid in 0..self.cfg.num_threads {
            let mut t = TState {
                tid,
                ctx: self.fresh_ctx(tid),
                phase: 0,
                dirty: false,
            };
            let sc = Scope {
                exec: CExec::Thread(tid as u32),
                lock: NO_LOCK,
                reduce: false,
                in_critical: false,
                ws: false,
            };
            let depth = self.segs.len();
            if self.walk_node(body, &mut t, sc, 0, 0).is_err() {
                self.segs.truncate(depth);
                break;
            }
        }
        self.emit_region(&region_path);
    }

    fn walk_node(
        &mut self,
        n: &Node,
        t: &mut TState,
        sc: Scope,
        idx: u32,
        loop_depth: u32,
    ) -> Result<(), Stop> {
        if let Node::Seq(v) = n {
            for (k, c) in v.iter().enumerate() {
                self.walk_node(c, t, sc, k as u32, loop_depth)?;
            }
            return Ok(());
        }
        self.spend()?;
        self.segs.push(PathSeg {
            kind: node_kind(n),
            index: idx,
        });
        let r = self.walk_inner(n, t, sc, loop_depth);
        self.segs.pop();
        r
    }

    fn walk_inner(
        &mut self,
        n: &Node,
        t: &mut TState,
        sc: Scope,
        loop_depth: u32,
    ) -> Result<(), Stop> {
        match n {
            Node::Seq(_) => unreachable!("Seq handled in walk_node"),
            Node::Compute(_) | Node::Flush | Node::Parallel { .. } | Node::SlipstreamSet(_) => {}
            Node::Load { array, index } => self.record_eval(t, sc, *array, index, false, false),
            Node::Store { array, index } => self.record_eval(t, sc, *array, index, true, false),
            Node::Atomic { array, index } => self.record_eval(t, sc, *array, index, true, true),
            Node::Io { .. } => {
                self.meta_mut(t.phase).io = true;
                t.dirty = true;
            }
            Node::For {
                var,
                begin,
                end,
                step,
                body,
            } => {
                let lo = begin.eval(&t.ctx);
                let hi = end.eval(&t.ctx);
                let step = (*step).max(1);
                // License-candidate bookkeeping: top-level serial loops
                // with thread-independent constant bounds whose body never
                // reads the induction variable.
                let nt = self.cfg.num_threads as i64;
                let cand = t.tid == 0
                    && !sc.ws
                    && loop_depth == 0
                    && begin.const_fold(Some(nt)).is_some()
                    && end.const_fold(Some(nt)).is_some()
                    && !body.reads_var(*var);
                let trip = wsloop::trip_count(lo, hi, step);
                let phase_start = t.phase;
                let mut aligned = !t.dirty;
                let mut ppi = 0u32;
                let mut v = lo;
                let mut first = true;
                while v < hi {
                    t.ctx.vars[var.0 as usize] = v;
                    self.walk_node(body, t, sc, 0, loop_depth + 1)?;
                    if first {
                        first = false;
                        if cand {
                            aligned &= !t.dirty;
                            ppi = t.phase - phase_start;
                        }
                    }
                    v += step as i64;
                }
                if cand && trip >= 1 {
                    self.candidates.push(Candidate {
                        path: self.path(),
                        var: var.0,
                        begin: lo,
                        end: hi,
                        step,
                        trip,
                        phase_start,
                        phase_end: t.phase,
                        ppi,
                        aligned,
                    });
                }
            }
            Node::ParFor {
                sched,
                var,
                begin,
                end,
                body,
                reduction,
                nowait,
            } => {
                let lo = begin.eval(&t.ctx);
                let hi = end.eval(&t.ctx);
                let spec = sched.unwrap_or_else(ScheduleSpec::static_default);
                let nt = self.cfg.num_threads;
                match spec.kind {
                    ScheduleKind::Static => {
                        let wsc = Scope {
                            exec: CExec::Thread(t.tid as u32),
                            ws: true,
                            ..sc
                        };
                        match spec.chunk {
                            None => {
                                let c = wsloop::static_block(lo, hi, 1, nt, t.tid);
                                self.static_chunk(c.lo, c.hi, *var, body, t, wsc, loop_depth)?;
                            }
                            Some(ch) => {
                                for c in wsloop::static_chunked(lo, hi, 1, nt, t.tid, ch.max(1)) {
                                    self.static_chunk(c.lo, c.hi, *var, body, t, wsc, loop_depth)?;
                                }
                            }
                        }
                    }
                    ScheduleKind::Dynamic
                    | ScheduleKind::Guided
                    | ScheduleKind::Affinity
                    | ScheduleKind::Runtime => {
                        // Chunk-to-thread assignment is runtime state: the
                        // phase is Opaque regardless, so summarize with
                        // whole-range interval over-approximations under a
                        // single work-item executor.
                        if t.tid == 0 {
                            self.meta_mut(t.phase).dynamic = true;
                            let exec = self.fresh_once();
                            let mut touched = Vec::new();
                            scan_accesses(body, &mut touched);
                            for (array, write) in touched {
                                let decl = &self.program.arrays[array.0 as usize];
                                if !decl.shared || decl.len == 0 {
                                    continue;
                                }
                                let prot = CProt {
                                    atomic: false,
                                    reduce: false,
                                    lock: NO_LOCK,
                                };
                                self.record_set(
                                    t,
                                    array,
                                    exec,
                                    prot,
                                    write,
                                    IndexSet::Interval {
                                        lo: 0,
                                        hi: decl.len as i64 - 1,
                                    },
                                );
                            }
                        }
                    }
                }
                if let Some(r) = reduction {
                    let rsc = Scope {
                        exec: CExec::Thread(t.tid as u32),
                        reduce: true,
                        ws: true,
                        ..sc
                    };
                    self.record_eval(t, rsc, r.target, &r.index, true, false);
                }
                if !*nowait {
                    self.end_phase(t)?;
                }
            }
            Node::Barrier => self.end_phase(t)?,
            Node::Single(body) => {
                if t.tid == 0 {
                    let wsc = Scope {
                        exec: self.fresh_once(),
                        ws: true,
                        ..sc
                    };
                    self.walk_node(body, t, wsc, 0, loop_depth)?;
                }
                self.end_phase(t)?;
            }
            Node::Master(body) => {
                if t.tid == 0 {
                    let wsc = Scope { ws: true, ..sc };
                    self.walk_node(body, t, wsc, 0, loop_depth)?;
                }
            }
            Node::Critical { name, body } => {
                let lock = self.lock_id(name);
                let wsc = Scope {
                    lock,
                    in_critical: true,
                    ws: true,
                    ..sc
                };
                self.walk_node(body, t, wsc, 0, loop_depth)?;
            }
            Node::Sections(secs) => {
                if t.tid == 0 {
                    for (k, s) in secs.iter().enumerate() {
                        let wsc = Scope {
                            exec: self.fresh_once(),
                            ws: true,
                            ..sc
                        };
                        self.walk_node(s, t, wsc, k as u32, loop_depth)?;
                    }
                }
                self.end_phase(t)?;
            }
        }
        Ok(())
    }

    /// One static chunk of a worksharing loop. Simple affine bodies are
    /// summarized in closed form straight from the chunk bounds (the
    /// engine's own `wsloop` arithmetic already produced `[lo, hi)`);
    /// anything else — nested loops, table lookups — is enumerated
    /// concretely, degrading to an interval past the point budget.
    #[allow(clippy::too_many_arguments)]
    fn static_chunk(
        &mut self,
        lo: i64,
        hi: i64,
        var: VarId,
        body: &Node,
        t: &mut TState,
        sc: Scope,
        loop_depth: u32,
    ) -> Result<(), Stop> {
        if lo >= hi {
            return Ok(());
        }
        if let Some(accs) = simple_affine_body(body, var, &t.ctx) {
            let count = (hi - lo) as u64;
            for (array, write, atomic, a, b) in accs {
                self.spend()?;
                let decl = &self.program.arrays[array.0 as usize];
                if !decl.shared || decl.len == 0 {
                    continue;
                }
                let prot = CProt {
                    atomic,
                    reduce: sc.reduce,
                    lock: sc.lock,
                };
                if write && sc.in_critical {
                    self.meta_mut(t.phase).critical_store = true;
                }
                let len = decl.len as i64;
                let first = (a as i128) * (lo as i128) + b as i128;
                let last = (a as i128) * (hi as i128 - 1) + b as i128;
                let (min, max) = (first.min(last), first.max(last));
                if min >= 0 && max < len as i128 {
                    self.record_set(
                        t,
                        array,
                        sc.exec,
                        prot,
                        write,
                        IndexSet::affine(first as i64, a, if a == 0 { 1 } else { count }),
                    );
                } else {
                    // Clamping (or i64 wrap) breaks the progression shape:
                    // enumerate with the runtime's clamp semantics.
                    for v in lo..hi {
                        let raw = a.wrapping_mul(v).wrapping_add(b);
                        self.record_point(t, array, sc.exec, prot, write, raw.clamp(0, len - 1));
                    }
                }
            }
            return Ok(());
        }
        let mut v = lo;
        while v < hi {
            t.ctx.vars[var.0 as usize] = v;
            self.walk_node(body, t, sc, 0, loop_depth + 1)?;
            v += 1;
        }
        Ok(())
    }

    // ---- access recording ------------------------------------------------

    fn record_eval(
        &mut self,
        t: &mut TState,
        sc: Scope,
        array: ArrayId,
        index: &omp_ir::expr::Expr,
        write: bool,
        atomic: bool,
    ) {
        let decl = &self.program.arrays[array.0 as usize];
        if !decl.shared || decl.len == 0 {
            return;
        }
        let raw = index.eval(&t.ctx);
        let elem = raw.clamp(0, decl.len as i64 - 1);
        let prot = CProt {
            atomic,
            reduce: sc.reduce,
            lock: sc.lock,
        };
        if write && sc.in_critical {
            self.meta_mut(t.phase).critical_store = true;
        }
        self.record_point(t, array, sc.exec, prot, write, elem);
    }

    fn record_point(
        &mut self,
        t: &mut TState,
        array: ArrayId,
        exec: CExec,
        prot: CProt,
        write: bool,
        elem: i64,
    ) {
        t.dirty = true;
        let key = (t.phase, array.0, exec, prot, write);
        self.acc
            .entry(key)
            .or_insert_with(|| SetBuilder::new(POINT_CAP))
            .add_point(elem);
    }

    fn record_set(
        &mut self,
        t: &mut TState,
        array: ArrayId,
        exec: CExec,
        prot: CProt,
        write: bool,
        set: IndexSet,
    ) {
        if set.is_empty() {
            return;
        }
        t.dirty = true;
        let key = (t.phase, array.0, exec, prot, write);
        self.acc
            .entry(key)
            .or_insert_with(|| SetBuilder::new(POINT_CAP))
            .add_set(set);
    }

    fn end_phase(&mut self, t: &mut TState) -> Result<(), Stop> {
        if t.tid == 0 {
            let p = self.path();
            self.meta_mut(t.phase).end_path = Some(p);
        }
        t.phase += 1;
        t.dirty = false;
        if t.phase as usize >= MAX_PHASES {
            self.truncated = true;
            return Err(Stop);
        }
        self.ensure_meta(t.phase);
        Ok(())
    }

    // ---- classification --------------------------------------------------

    fn emit_region(&mut self, region_path: &NodePath) {
        struct Entry {
            array: u32,
            exec: CExec,
            prot: CProt,
            write: bool,
            sets: Vec<IndexSet>,
            exact: bool,
        }
        // Group finished builders per phase, deterministically ordered.
        let mut keys: Vec<AccKey> = self.acc.keys().copied().collect();
        keys.sort_by_key(|&(p, a, e, pr, w)| {
            let ek = match e {
                CExec::Thread(i) => (0u8, i),
                CExec::Once(i) => (1u8, i),
            };
            (p, a, ek, pr.lock, pr.atomic, pr.reduce, w)
        });
        let mut per_phase: Vec<Vec<Entry>> = (0..self.meta.len()).map(|_| Vec::new()).collect();
        for key in keys {
            let (phase, array, exec, prot, write) = key;
            let b = self.acc.remove(&key).expect("keyed");
            let (sets, exact) = b.finish();
            if (phase as usize) < per_phase.len() {
                per_phase[phase as usize].push(Entry {
                    array,
                    exec,
                    prot,
                    write,
                    sets,
                    exact,
                });
            }
        }

        let region = self.region_idx;
        let mut classes: Vec<PhaseClass> = Vec::with_capacity(self.meta.len());
        for (phase, entries) in per_phase.iter().enumerate() {
            let m = &self.meta[phase];
            let mut reasons: Vec<String> = Vec::new();
            let mut exact = entries.iter().all(|e| e.exact);
            let arrays = {
                let mut a: Vec<u32> = entries.iter().map(|e| e.array).collect();
                a.sort_unstable();
                a.dedup();
                a.len() as u32
            };
            let writes: u64 = entries
                .iter()
                .filter(|e| e.write)
                .flat_map(|e| e.sets.iter())
                .fold(0u64, |s, x| s.saturating_add(x.len()));

            if self.truncated {
                reasons.push("analysis truncated before certification completed".into());
                exact = false;
            }
            if m.io {
                reasons.push("phase performs I/O".into());
            }
            if m.dynamic {
                reasons.push(
                    "dynamic-family worksharing schedule: chunk-to-thread assignment and \
                     per-encounter scheduler state are runtime-dependent"
                        .into(),
                );
            }
            if m.critical_store {
                reasons
                    .push("critical-section store: writer order is arrival-time-dependent".into());
            }
            // Dependence tests: every cross-executor (write × access)
            // pair must be protected or provably disjoint.
            let mut conflicts = 0usize;
            'outer: for (i, w) in entries.iter().enumerate() {
                if !w.write {
                    continue;
                }
                for (j, o) in entries.iter().enumerate() {
                    if i == j || w.array != o.array || w.exec == o.exec || covered(w.prot, o.prot) {
                        continue;
                    }
                    if lists_intersect(&w.sets, &o.sets) {
                        conflicts += 1;
                        if reasons.len() < 8 {
                            let name = &self.program.arrays[w.array as usize].name;
                            reasons.push(format!(
                                "unprotected overlapping {} of {name} by {} and {}",
                                if o.write { "writes" } else { "write/read" },
                                exec_label(w.exec),
                                exec_label(o.exec),
                            ));
                        }
                        if conflicts >= 64 {
                            break 'outer;
                        }
                    }
                }
            }

            let class = if self.truncated || m.io || m.dynamic || m.critical_store || conflicts > 0
            {
                PhaseClass::Opaque
            } else if writes == 0 {
                PhaseClass::Pure
            } else {
                PhaseClass::ReplaySafe
            };
            classes.push(class);

            let path = self.meta[phase]
                .end_path
                .clone()
                .unwrap_or_else(|| region_path.clone());
            let mut cert = PhaseCertificate {
                region,
                phase: phase as u32,
                class,
                path,
                exact,
                arrays,
                writes,
                reasons,
                fingerprint: 0,
            };
            cert.fingerprint = fnv1a64(
                format!(
                    "phase-cert|{}|r{}|p{}|{}|{}|exact={}|arrays={}|writes={}|{}",
                    self.program.name,
                    cert.region,
                    cert.phase,
                    cert.class.label(),
                    cert.path,
                    cert.exact,
                    cert.arrays,
                    cert.writes,
                    cert.reasons.join(";"),
                )
                .as_bytes(),
            );
            self.certificates.push(cert);
        }

        // Licenses: candidates whose body is phase-aligned, passes at
        // least one barrier per iteration, and contains only
        // Pure/ReplaySafe phases.
        if !self.truncated {
            for c in std::mem::take(&mut self.candidates) {
                let span = c.phase_end - c.phase_start;
                let whole = c.ppi >= 1 && span as u64 == c.ppi as u64 * c.trip;
                let all_safe = (c.phase_start..c.phase_end).all(|p| {
                    classes.get(p as usize).copied() == Some(PhaseClass::ReplaySafe)
                        || classes.get(p as usize).copied() == Some(PhaseClass::Pure)
                });
                if c.aligned && whole && all_safe {
                    let guard = guard_checksum(c.var, c.begin, c.end, c.step);
                    let mut rl = ReplayLoop {
                        region,
                        path: c.path,
                        var: c.var,
                        begin: c.begin,
                        end: c.end,
                        step: c.step,
                        trip_count: c.trip,
                        phase_start: c.phase_start,
                        phases_per_iteration: c.ppi,
                        guard_checksum: guard,
                        fingerprint: 0,
                    };
                    rl.fingerprint = fnv1a64(
                        format!(
                            "replay-loop|{}|r{}|{}|var={}|{}..{}|step={}|trip={}|ppi={}",
                            self.program.name,
                            rl.region,
                            rl.path,
                            rl.var,
                            rl.begin,
                            rl.end,
                            rl.step,
                            rl.trip_count,
                            rl.phases_per_iteration,
                        )
                        .as_bytes(),
                    );
                    self.replay_loops.push(rl);
                }
            }
        }
        self.candidates.clear();
    }
}

/// One straight-line access with an index affine in the loop variable:
/// `(array, write, atomic, a, b)` with `index = a·var + b`.
type AffineAccess = (ArrayId, bool, bool, i64, i64);

/// A worksharing body consisting only of straight-line accesses whose
/// indices are affine in the loop variable.
fn simple_affine_body(body: &Node, var: VarId, ctx: &SimpleCtx) -> Option<Vec<AffineAccess>> {
    fn go(n: &Node, var: VarId, ctx: &SimpleCtx, out: &mut Vec<AffineAccess>) -> bool {
        match n {
            Node::Seq(v) => v.iter().all(|c| go(c, var, ctx, out)),
            Node::Compute(_) | Node::Flush => true,
            Node::Load { array, index } => match linear_in(index, var, ctx) {
                Some((a, b)) => {
                    out.push((*array, false, false, a, b));
                    true
                }
                None => false,
            },
            Node::Store { array, index } => match linear_in(index, var, ctx) {
                Some((a, b)) => {
                    out.push((*array, true, false, a, b));
                    true
                }
                None => false,
            },
            Node::Atomic { array, index } => match linear_in(index, var, ctx) {
                Some((a, b)) => {
                    out.push((*array, true, true, a, b));
                    true
                }
                None => false,
            },
            _ => false,
        }
    }
    let mut out = Vec::new();
    if go(body, var, ctx, &mut out) {
        Some(out)
    } else {
        None
    }
}

/// Static scan: every (array, is_write) access under a node.
fn scan_accesses(n: &Node, out: &mut Vec<(ArrayId, bool)>) {
    match n {
        Node::Load { array, .. } => push_unique(out, (*array, false)),
        Node::Store { array, .. } | Node::Atomic { array, .. } => push_unique(out, (*array, true)),
        Node::Seq(v) | Node::Sections(v) => {
            for c in v {
                scan_accesses(c, out);
            }
        }
        Node::For { body, .. }
        | Node::Parallel { body, .. }
        | Node::ParFor { body, .. }
        | Node::Single(body)
        | Node::Master(body)
        | Node::Critical { body, .. } => scan_accesses(body, out),
        _ => {}
    }
    if let Node::ParFor {
        reduction: Some(r), ..
    } = n
    {
        push_unique(out, (r.target, true));
    }
}

fn push_unique(v: &mut Vec<(ArrayId, bool)>, x: (ArrayId, bool)) {
    if !v.contains(&x) {
        v.push(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use omp_ir::expr::Expr;
    use omp_ir::node::{ArrayDecl, Node};

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

    fn store(a: u32, idx: Expr) -> Node {
        Node::Store {
            array: ArrayId(a),
            index: idx,
        }
    }

    #[test]
    fn class_labels_round_trip() {
        for c in [PhaseClass::Pure, PhaseClass::ReplaySafe, PhaseClass::Opaque] {
            assert_eq!(PhaseClass::from_label(c.label()), Some(c));
            assert_eq!(c.to_string(), c.label());
        }
        assert_eq!(PhaseClass::from_label("nope"), None);
    }

    #[test]
    fn disjoint_static_writes_are_replay_safe_and_exact() {
        let p = prog(
            "rs",
            vec![arr("a", 64)],
            1,
            region(parfor(None, 64, store(0, Expr::v(VarId(0))))),
        );
        let r = analyze(&p, &cfg4());
        // Phase 0: the parfor (writes, disjoint); phase 1: trailing (empty).
        assert_eq!(r.certificates.len(), 2, "{}", r.render_text());
        let c0 = &r.certificates[0];
        assert_eq!(c0.class, PhaseClass::ReplaySafe);
        assert!(c0.exact);
        assert_eq!(c0.writes, 64);
        assert!(c0.reasons.is_empty());
        assert!(c0.path.to_string().contains("parfor[0]"));
        assert_eq!(r.certificates[1].class, PhaseClass::Pure);
        assert_ne!(c0.fingerprint, r.certificates[1].fingerprint);
    }

    #[test]
    fn read_only_phase_is_pure() {
        let p = prog(
            "pure",
            vec![arr("a", 64)],
            1,
            region(parfor(
                None,
                64,
                Node::Load {
                    array: ArrayId(0),
                    index: Expr::v(VarId(0)),
                },
            )),
        );
        let r = analyze(&p, &cfg4());
        assert!(r.certificates.iter().all(|c| c.class == PhaseClass::Pure));
    }

    #[test]
    fn racing_writes_are_opaque_with_evidence() {
        let p = prog(
            "race",
            vec![arr("a", 64)],
            1,
            region(parfor(None, 64, store(0, Expr::c(0)))),
        );
        let r = analyze(&p, &cfg4());
        let c0 = &r.certificates[0];
        assert_eq!(c0.class, PhaseClass::Opaque);
        assert!(
            c0.reasons.iter().any(|m| m.contains("overlapping")),
            "{c0:?}"
        );
    }

    #[test]
    fn dynamic_schedule_is_opaque_interval_summary() {
        let p = prog(
            "dyn",
            vec![arr("a", 64)],
            1,
            region(parfor(
                Some(ScheduleSpec::dynamic(2)),
                64,
                store(0, Expr::v(VarId(0))),
            )),
        );
        let r = analyze(&p, &cfg4());
        let c0 = &r.certificates[0];
        assert_eq!(c0.class, PhaseClass::Opaque);
        assert!(!c0.exact);
        assert!(c0.reasons.iter().any(|m| m.contains("dynamic-family")));
    }

    #[test]
    fn io_phase_is_opaque() {
        let p = prog(
            "io",
            vec![],
            0,
            region(Node::Seq(vec![
                Node::Master(Box::new(Node::Io {
                    input: false,
                    bytes: 4096,
                })),
                Node::Barrier,
            ])),
        );
        let r = analyze(&p, &cfg4());
        assert_eq!(r.certificates[0].class, PhaseClass::Opaque);
        assert!(r.certificates[0].reasons.iter().any(|m| m.contains("I/O")));
    }

    #[test]
    fn critical_store_is_opaque_even_though_race_free() {
        let p = prog(
            "crit",
            vec![arr("a", 8)],
            0,
            region(Node::Seq(vec![
                Node::Critical {
                    name: "sum".into(),
                    body: Box::new(store(0, Expr::c(0))),
                },
                Node::Barrier,
            ])),
        );
        let r = analyze(&p, &cfg4());
        // The race checker accepts it (same lock)...
        assert_eq!(r.deny_count(), 0, "{}", r.render_text());
        // ...but replay must not: writer order is arrival-time-dependent.
        assert_eq!(r.certificates[0].class, PhaseClass::Opaque);
        assert!(r.certificates[0]
            .reasons
            .iter()
            .any(|m| m.contains("critical-section store")));
    }

    #[test]
    fn atomic_and_reduction_writes_stay_replay_safe() {
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
        assert_eq!(r.certificates[0].class, PhaseClass::ReplaySafe);
    }

    #[test]
    fn constant_bound_phase_aligned_loop_is_licensed() {
        // for it in 0..6 { parfor static disjoint } — the NPB shape.
        let body = Node::For {
            var: VarId(1),
            begin: Expr::c(0),
            end: Expr::c(6),
            step: 1,
            body: Box::new(parfor(None, 64, store(0, Expr::v(VarId(0))))),
        };
        let p = prog("lic", vec![arr("a", 64)], 2, region(body));
        let r = analyze(&p, &cfg4());
        assert_eq!(r.replay_loops.len(), 1, "{}", r.render_text());
        let l = &r.replay_loops[0];
        assert_eq!((l.begin, l.end, l.step, l.trip_count), (0, 6, 1, 6));
        assert_eq!(l.var, 1);
        assert_eq!(l.phase_start, 0);
        assert_eq!(l.phases_per_iteration, 1);
        assert!(l.path.to_string().contains("for[0]"));
        assert_eq!(
            l.guard_checksum,
            guard_checksum(l.var, l.begin, l.end, l.step)
        );
        // 6 parfor phases + trailing phase, all certified.
        assert_eq!(r.certificates.len(), 7);
    }

    #[test]
    fn thread_dependent_bound_revokes_license() {
        let body = Node::For {
            var: VarId(1),
            begin: Expr::c(0),
            end: Expr::Bin(
                omp_ir::expr::BinOp::Add,
                Box::new(Expr::ThreadId),
                Box::new(Expr::c(4)),
            ),
            step: 1,
            body: Box::new(Node::Seq(vec![Node::Barrier])),
        };
        // Unbalanced per-thread trips: also a deny finding, but the point
        // here is the certifier independently refuses the license.
        let p = prog("tid", vec![], 2, region(body));
        let r = analyze(&p, &cfg4());
        assert!(r.replay_loops.is_empty());
    }

    #[test]
    fn body_reading_loop_var_revokes_license() {
        let body = Node::For {
            var: VarId(1),
            begin: Expr::c(0),
            end: Expr::c(4),
            step: 1,
            body: Box::new(parfor(
                None,
                64,
                store(
                    0,
                    Expr::Bin(
                        omp_ir::expr::BinOp::Add,
                        Box::new(Expr::v(VarId(0))),
                        Box::new(Expr::v(VarId(1))),
                    ),
                ),
            )),
        };
        let p = prog("rdvar", vec![arr("a", 128)], 2, region(body));
        let r = analyze(&p, &cfg4());
        assert!(r.replay_loops.is_empty(), "{}", r.render_text());
    }

    #[test]
    fn opaque_phase_inside_loop_revokes_license() {
        let body = Node::For {
            var: VarId(1),
            begin: Expr::c(0),
            end: Expr::c(4),
            step: 1,
            body: Box::new(Node::Seq(vec![
                parfor(None, 64, store(0, Expr::v(VarId(0)))),
                Node::Critical {
                    name: "c".into(),
                    body: Box::new(store(0, Expr::c(0))),
                },
                Node::Barrier,
            ])),
        };
        let p = prog("opq", vec![arr("a", 64)], 2, region(body));
        let r = analyze(&p, &cfg4());
        assert!(r.replay_loops.is_empty(), "{}", r.render_text());
        assert!(r.certificates.iter().any(|c| c.class == PhaseClass::Opaque));
    }

    #[test]
    fn misaligned_loop_body_revokes_license() {
        // Store before the parfor: accesses bleed across the iteration
        // boundary (not phase-aligned at entry of each iteration).
        let body = Node::For {
            var: VarId(1),
            begin: Expr::c(0),
            end: Expr::c(4),
            step: 1,
            body: Box::new(Node::Seq(vec![
                parfor(None, 64, store(0, Expr::v(VarId(0)))),
                Node::Master(Box::new(store(0, Expr::c(0)))),
            ])),
        };
        let p = prog("dirty", vec![arr("a", 64)], 2, region(body));
        let r = analyze(&p, &cfg4());
        assert!(r.replay_loops.is_empty(), "{}", r.render_text());
    }

    #[test]
    fn chunked_static_schedule_certifies_exactly() {
        let p = prog(
            "chunked",
            vec![arr("a", 64)],
            1,
            region(parfor(
                Some(ScheduleSpec {
                    kind: ScheduleKind::Static,
                    chunk: Some(3),
                }),
                64,
                store(0, Expr::v(VarId(0))),
            )),
        );
        let r = analyze(&p, &cfg4());
        assert_eq!(r.certificates[0].class, PhaseClass::ReplaySafe);
        assert!(r.certificates[0].exact);
        assert_eq!(r.certificates[0].writes, 64);
    }

    #[test]
    fn fingerprints_are_stable_across_reanalysis() {
        let p = prog(
            "stable",
            vec![arr("a", 64)],
            1,
            region(parfor(None, 64, store(0, Expr::v(VarId(0))))),
        );
        let a = analyze(&p, &cfg4());
        let b = analyze(&p, &cfg4());
        let fa: Vec<u64> = a.certificates.iter().map(|c| c.fingerprint).collect();
        let fb: Vec<u64> = b.certificates.iter().map(|c| c.fingerprint).collect();
        assert_eq!(fa, fb);
    }
}
