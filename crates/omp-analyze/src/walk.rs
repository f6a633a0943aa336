//! The symbolic per-thread walker.
//!
//! The analyzer evaluates the program the same way the reference tracer
//! (`omp_ir::trace`) does — index expressions read only private state, so
//! every address and trip count is computable without running the memory
//! simulation. Each parallel region is walked once per modeled thread:
//! static schedules with that thread's own chunks, dynamic-family
//! schedules once (on the thread-0 pass) with chunk-grained "work item"
//! executor labels, since chunk *boundaries* are deterministic but the
//! chunk-to-thread assignment is not.
//!
//! Three passes share the walk:
//!
//! 1. **Conflict detection.** Accesses to the same shared element within
//!    one barrier phase by different executors race unless both are
//!    atomic, both hold the same critical lock, or both are reduction
//!    combines.
//! 2. **Skip-set / divergence hazards.** Stores the A-stream skips
//!    without conversion are recorded; a later-phase load of the element
//!    means the A-stream runs on stale data. Skipped construct bodies
//!    with shared side effects, and thread-dependent loops around
//!    synchronization, are flagged.
//! 3. **Lead bound.** Per-phase shared-line footprints are accumulated;
//!    the largest union over the window of phases the A-stream may lead
//!    (tokens + 1 for global sync, tokens + 2 for local) is compared
//!    against L2 capacity.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use dsm_sim::{layout_spans, ArraySpan, FastMap, FastSet};
use omp_ir::expr::{Expr, SimpleCtx, VarId};
use omp_ir::node::{
    ArrayId, Node, Program, ScheduleKind, ScheduleSpec, SlipSyncType, SlipstreamClause,
};
use omp_ir::path::{node_kind, NodePath, PathSeg};
use omp_ir::wsloop;

use crate::finding::{Finding, Hazard};
use crate::report::{RegionReport, SkipSet};
use crate::AnalyzeConfig;

/// Who executes an access: a fixed thread (static schedules, region
/// code), or a one-shot work item whose thread assignment is
/// non-deterministic (dynamic-family chunks, `single`, sections).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exec {
    Thread(u32),
    Once(u32),
}

fn exec_label(e: Exec) -> String {
    match e {
        Exec::Thread(t) => format!("thread {t}"),
        Exec::Once(i) => format!("work item {i}"),
    }
}

const NO_LOCK: u32 = u32::MAX;

/// Ordering protection an access carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Prot {
    atomic: bool,
    reduce: bool,
    lock: u32,
}

fn covered(a: Prot, b: Prot) -> bool {
    (a.atomic && b.atomic) || (a.reduce && b.reduce) || (a.lock != NO_LOCK && a.lock == b.lock)
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    exec: Exec,
    prot: Prot,
    path: u32,
}

/// Compact per-(phase, element) access record: up to two distinct
/// (executor, protection) representatives per side. A third distinct
/// writer/reader sets the overflow flag; conflicts against the stored
/// representatives are still detected, conflicts purely among overflowed
/// slots are not (a deliberate memory bound).
#[derive(Debug, Clone, Copy, Default)]
struct ElemState {
    w: [Option<Slot>; 2],
    r: [Option<Slot>; 2],
}

/// Elements per ledger block, as a power of two (one `u64` bitmap).
const BLOCK_BITS: u32 = 6;

/// The records of one array's 64 consecutive elements in one phase.
/// Only touched elements have a record: bit `i` of `used` marks element
/// `i` of the block, and `recs` holds the marked records in element
/// order.
#[derive(Default)]
struct Block {
    used: u64,
    recs: Vec<ElemState>,
}

/// The conflict-detection ledger of one region: one record per distinct
/// (phase, array, element) accessed, grouped into 64-element blocks so
/// that neighbouring elements share one hash lookup. A block is created
/// with its first record and stores only its touched elements, growing
/// by doubling from one slot. Memory therefore follows the records (at
/// most one block and two record slots each), never an array's length.
#[derive(Default)]
struct Ledger {
    /// Blocks by (phase, array, element >> BLOCK_BITS).
    blocks: FastMap<(u32, u32, u64), Block>,
    /// Distinct (phase, array, element) records admitted.
    records: usize,
}

impl Ledger {
    fn clear(&mut self) {
        self.blocks.clear();
        self.records = 0;
    }

    /// The record of `array[elem]` in `phase`. A new record is admitted
    /// only while fewer than `cap` exist; `None` means the cap refused it.
    fn entry(&mut self, phase: u32, array: u32, elem: u64, cap: usize) -> Option<&mut ElemState> {
        let full = self.records >= cap;
        let block = match self.blocks.entry((phase, array, elem >> BLOCK_BITS)) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(_) if full => return None,
            Entry::Vacant(v) => v.insert(Block::default()),
        };
        let bit = 1u64 << (elem & ((1 << BLOCK_BITS) - 1));
        let i = (block.used & (bit - 1)).count_ones() as usize;
        if block.used & bit == 0 {
            if full {
                return None;
            }
            let recs = &mut block.recs;
            if recs.len() == recs.capacity() {
                recs.reserve_exact(recs.len().max(1));
            }
            recs.insert(i, ElemState::default());
            block.used |= bit;
            self.records += 1;
        }
        Some(&mut block.recs[i])
    }

    /// Record slots allocated across all blocks.
    #[cfg(test)]
    fn slots(&self) -> usize {
        self.blocks.values().map(|b| b.recs.capacity()).sum()
    }
}

fn insert_slot(slots: &mut [Option<Slot>; 2], s: Slot) {
    for o in slots.iter_mut() {
        match o {
            Some(e) if e.exec == s.exec && e.prot == s.prot => return,
            None => {
                *o = Some(s);
                return;
            }
            _ => {}
        }
    }
}

#[derive(Clone, Copy)]
struct Scope {
    exec: Exec,
    lock: u32,
    reduce: bool,
    /// The A-stream does not execute this code at all (skipped construct
    /// body under the configured skip model).
    skipped: bool,
    /// Inside a worksharing/construct body: no barriers possible here.
    ws: bool,
}

struct TState {
    tid: u64,
    ctx: SimpleCtx,
    phase: u32,
    barriers: u64,
}

enum AccessOp {
    Load,
    Store,
    Atomic,
}

/// Walk aborted: visit budget exhausted.
struct Stop;

pub(crate) struct WalkOutput {
    pub findings: Vec<Finding>,
    pub regions: Vec<RegionReport>,
    pub suppressed: u64,
    pub truncated: bool,
    pub visits: u64,
}

struct Walker<'p> {
    program: &'p Program,
    cfg: &'p AnalyzeConfig,
    spans: Vec<ArraySpan>,
    // Structural path interning: each id names one (parent, segment)
    // pair. `kids[0]` lists the root's children and `kids[id + 1]` those
    // of path `id`, each with its segment, in discovery order.
    paths: Vec<(Option<u32>, PathSeg)>,
    kids: Vec<Vec<(PathSeg, u32)>>,
    id_stack: Vec<u32>,
    // Findings.
    findings: Vec<Finding>,
    reported: FastSet<(Hazard, u32, u32)>,
    per_hazard: FastMap<Hazard, usize>,
    suppressed: u64,
    // Program-wide state.
    locks: HashMap<String, u32>,
    regions: Vec<RegionReport>,
    prevailing: Option<SlipstreamClause>,
    region_idx: u32,
    budget: u64,
    truncated: bool,
    once_ctr: u32,
    side_effects: u64,
    has_sync_memo: FastMap<u32, bool>,
    // Per-region scratch.
    ledger: Ledger,
    skipped_stores: FastMap<(u32, u64), (u32, u32)>,
    phase_lines: Vec<FastSet<u64>>,
    barrier_counts: Vec<u64>,
    for_trips: BTreeMap<u32, Vec<u64>>,
    skip: SkipSet,
}

pub(crate) fn walk(program: &Program, cfg: &AnalyzeConfig) -> WalkOutput {
    let mut w = Walker::new(program, cfg);
    w.top(&program.body, 0);
    WalkOutput {
        findings: w.findings,
        regions: w.regions,
        suppressed: w.suppressed,
        truncated: w.truncated,
        visits: cfg.visit_budget - w.budget,
    }
}

impl<'p> Walker<'p> {
    fn new(program: &'p Program, cfg: &'p AnalyzeConfig) -> Self {
        let (spans, _) = layout_spans(
            program
                .arrays
                .iter()
                .map(|d| (d.shared, d.len, d.elem_bytes)),
            0,
            cfg.line_bytes,
        );
        Walker {
            program,
            cfg,
            spans,
            paths: Vec::new(),
            kids: vec![Vec::new()],
            id_stack: Vec::new(),
            findings: Vec::new(),
            reported: FastSet::default(),
            per_hazard: FastMap::default(),
            suppressed: 0,
            locks: HashMap::new(),
            regions: Vec::new(),
            prevailing: None,
            region_idx: 0,
            budget: cfg.visit_budget,
            truncated: false,
            once_ctr: 0,
            side_effects: 0,
            has_sync_memo: FastMap::default(),
            ledger: Ledger::default(),
            skipped_stores: FastMap::default(),
            phase_lines: Vec::new(),
            barrier_counts: Vec::new(),
            for_trips: BTreeMap::new(),
            skip: SkipSet::default(),
        }
    }

    // ---- path interning -------------------------------------------------

    fn push_seg(&mut self, kind: &'static str, index: u32) {
        let parent = self.id_stack.last().copied();
        let seg = PathSeg { kind, index };
        let kids = &mut self.kids[parent.map_or(0, |p| p as usize + 1)];
        // Block statements are discovered in position order, so the child
        // at position `index` is usually the one sought.
        let known = match kids.get(index as usize) {
            Some(&(s, id)) if s == seg => Some(id),
            _ => kids.iter().find(|(s, _)| *s == seg).map(|&(_, id)| id),
        };
        let id = match known {
            Some(id) => id,
            None => {
                let id = self.paths.len() as u32;
                kids.push((seg, id));
                self.paths.push((parent, seg));
                self.kids.push(Vec::new());
                id
            }
        };
        self.id_stack.push(id);
    }

    fn pop_seg(&mut self) {
        self.id_stack.pop();
    }

    fn cur_path(&self) -> u32 {
        *self
            .id_stack
            .last()
            .expect("path stack is non-empty inside a region")
    }

    fn node_path(&self, mut id: u32) -> NodePath {
        let mut segs = Vec::new();
        loop {
            let (parent, seg) = self.paths[id as usize];
            segs.push(seg);
            match parent {
                Some(p) => id = p,
                None => break,
            }
        }
        segs.reverse();
        NodePath::from_segs(&segs)
    }

    // ---- findings -------------------------------------------------------

    /// Record a finding. `message` runs only for a finding that is kept,
    /// not for a duplicate or one over the per-hazard cap.
    fn report(
        &mut self,
        hazard: Hazard,
        path: u32,
        related: Option<u32>,
        phase: Option<u32>,
        message: impl FnOnce() -> String,
    ) {
        // Dedup structurally: one finding per (hazard, unordered path
        // pair), regardless of phase or element, so loops don't flood the
        // report.
        let (ka, kb) = match related {
            Some(r) => (path.min(r), path.max(r)),
            None => (path, u32::MAX),
        };
        if !self.reported.insert((hazard, ka, kb)) {
            return;
        }
        let cnt = self.per_hazard.entry(hazard).or_insert(0);
        if *cnt >= self.cfg.max_reported_per_hazard {
            self.suppressed += 1;
            return;
        }
        *cnt += 1;
        let f = Finding {
            hazard,
            severity: hazard.default_severity(),
            path: self.node_path(path),
            related: related.map(|r| self.node_path(r)),
            region: Some(self.region_idx),
            phase,
            message: message(),
        };
        self.findings.push(f);
    }

    // ---- bookkeeping ----------------------------------------------------

    fn spend(&mut self) -> Result<(), Stop> {
        if self.budget == 0 {
            self.truncated = true;
            return Err(Stop);
        }
        self.budget -= 1;
        Ok(())
    }

    fn fresh_once(&mut self) -> Exec {
        let e = Exec::Once(self.once_ctr);
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

    fn lock_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.locks.get(name) {
            return id;
        }
        let id = self.locks.len() as u32;
        self.locks.insert(name.to_string(), id);
        id
    }

    fn ensure_phase(&mut self, phase: u32) {
        while self.phase_lines.len() <= phase as usize {
            self.phase_lines.push(FastSet::default());
        }
    }

    fn for_has_sync(&mut self, fid: u32, body: &Node) -> bool {
        if let Some(&b) = self.has_sync_memo.get(&fid) {
            return b;
        }
        let b = contains_sync(body);
        self.has_sync_memo.insert(fid, b);
        b
    }

    // ---- serial (top-level) walk ----------------------------------------

    fn top(&mut self, n: &Node, idx: u32) {
        match n {
            Node::Seq(v) => {
                for (k, c) in v.iter().enumerate() {
                    self.top(c, k as u32);
                }
            }
            Node::SlipstreamSet(c) => self.prevailing = Some(*c),
            Node::For { body, .. } => {
                // Region bodies start from fresh per-thread contexts, so
                // serial loop variables cannot reach them; scanning the
                // body once finds every syntactic region / directive.
                self.push_seg("for", idx);
                self.top(body, 0);
                self.pop_seg();
            }
            Node::Parallel { body, slipstream } => {
                self.push_seg("parallel", idx);
                let clause = slipstream.or(self.prevailing).unwrap_or(SlipstreamClause {
                    sync: self.cfg.default_sync,
                    tokens: self.cfg.default_tokens,
                });
                self.region(body, clause);
                self.pop_seg();
                self.region_idx += 1;
            }
            // Serial code runs on the master only; no cross-thread hazards.
            _ => {}
        }
    }

    // ---- region walk ----------------------------------------------------

    fn region(&mut self, body: &Node, clause: SlipstreamClause) {
        self.ledger.clear();
        self.skipped_stores.clear();
        self.phase_lines.clear();
        self.phase_lines.push(FastSet::default());
        self.barrier_counts.clear();
        self.for_trips.clear();
        self.skip = SkipSet::default();
        let region_path = self.cur_path();

        let mut stopped = false;
        for tid in 0..self.cfg.num_threads {
            let mut t = TState {
                tid,
                ctx: self.fresh_ctx(tid),
                phase: 0,
                barriers: 0,
            };
            let sc = Scope {
                exec: Exec::Thread(tid as u32),
                lock: NO_LOCK,
                reduce: false,
                skipped: false,
                ws: false,
            };
            let depth = self.id_stack.len();
            if self.walk_node(body, &mut t, sc, 0).is_err() {
                self.id_stack.truncate(depth);
                stopped = true;
                break;
            }
            self.barrier_counts.push(t.barriers);
        }
        if !stopped {
            self.check_balance(region_path);
        }
        let rr = self.lead_pass(region_path, clause, stopped);
        self.regions.push(rr);
    }

    fn walk_node(&mut self, n: &Node, t: &mut TState, sc: Scope, idx: u32) -> Result<(), Stop> {
        if let Node::Seq(v) = n {
            for (k, c) in v.iter().enumerate() {
                self.walk_node(c, t, sc, k as u32)?;
            }
            return Ok(());
        }
        self.spend()?;
        self.push_seg(node_kind(n), idx);
        let r = self.walk_inner(n, t, sc);
        self.pop_seg();
        r
    }

    fn walk_inner(&mut self, n: &Node, t: &mut TState, sc: Scope) -> Result<(), Stop> {
        match n {
            Node::Seq(_) => unreachable!("Seq handled in walk_node"),
            Node::Compute(_) => {}
            Node::Load { array, index } => self.access(t, sc, *array, index, AccessOp::Load),
            Node::Store { array, index } => self.access(t, sc, *array, index, AccessOp::Store),
            Node::Atomic { array, index } => self.access(t, sc, *array, index, AccessOp::Atomic),
            Node::Flush => {
                if t.tid == 0 {
                    self.skip.flushes_dropped += 1;
                }
            }
            Node::Io { .. } => {
                if t.tid == 0 {
                    self.skip.io_skipped += 1;
                }
                if sc.skipped {
                    self.side_effects += 1;
                }
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
                if !sc.ws {
                    let fid = self.cur_path();
                    if self.for_has_sync(fid, body) {
                        let trips = wsloop::trip_count(lo, hi, *step);
                        let nt = self.cfg.num_threads as usize;
                        let e = self.for_trips.entry(fid).or_insert_with(|| vec![0; nt]);
                        e[t.tid as usize] += trips;
                    }
                }
                let mut v = lo;
                while v < hi {
                    t.ctx.vars[var.0 as usize] = v;
                    self.walk_node(body, t, sc, 0)?;
                    v += *step as i64;
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
                            exec: Exec::Thread(t.tid as u32),
                            ws: true,
                            ..sc
                        };
                        match spec.chunk {
                            None => {
                                let c = wsloop::static_block(lo, hi, 1, nt, t.tid);
                                self.run_iters(c.lo, c.hi, *var, body, t, wsc)?;
                            }
                            Some(ch) => {
                                for c in wsloop::static_chunked(lo, hi, 1, nt, t.tid, ch.max(1)) {
                                    self.run_iters(c.lo, c.hi, *var, body, t, wsc)?;
                                }
                            }
                        }
                    }
                    // Dynamic and guided chunk *boundaries* are
                    // deterministic functions of the remaining count, only
                    // the chunk-to-thread assignment varies: label each
                    // chunk as its own work item and walk on the thread-0
                    // pass.
                    ScheduleKind::Dynamic => {
                        if t.tid == 0 {
                            let ch = spec.chunk.unwrap_or(1).max(1);
                            let mut rem = 0u64;
                            while let Some((c, next)) = wsloop::dynamic_next(lo, hi, 1, rem, ch) {
                                rem = next;
                                let wsc = Scope {
                                    exec: self.fresh_once(),
                                    ws: true,
                                    ..sc
                                };
                                self.run_iters(c.lo, c.hi, *var, body, t, wsc)?;
                            }
                        }
                    }
                    ScheduleKind::Guided => {
                        if t.tid == 0 {
                            let min = spec.chunk.unwrap_or(1).max(1);
                            let mut rem = 0u64;
                            while let Some((c, next)) = wsloop::guided_next(lo, hi, 1, rem, nt, min)
                            {
                                rem = next;
                                let wsc = Scope {
                                    exec: self.fresh_once(),
                                    ws: true,
                                    ..sc
                                };
                                self.run_iters(c.lo, c.hi, *var, body, t, wsc)?;
                            }
                        }
                    }
                    // Affinity steals chunks at unpredictable boundaries
                    // and Runtime defers the choice entirely; assume
                    // nothing and give every iteration its own work item.
                    ScheduleKind::Affinity | ScheduleKind::Runtime => {
                        if t.tid == 0 {
                            let mut v = lo;
                            while v < hi {
                                let wsc = Scope {
                                    exec: self.fresh_once(),
                                    ws: true,
                                    ..sc
                                };
                                self.run_iters(v, v + 1, *var, body, t, wsc)?;
                                v += 1;
                            }
                        }
                    }
                }
                if let Some(r) = reduction {
                    if t.tid == 0 {
                        self.skip.reduction_combines += 1;
                    }
                    // Each team member combines its private partial into
                    // the shared cell; the combines order via the
                    // reduction lock, and the A-stream skips them by
                    // design (its private partial stands in), so they are
                    // exempt from stale-store tracking.
                    let rsc = Scope {
                        exec: Exec::Thread(t.tid as u32),
                        reduce: true,
                        ws: true,
                        ..sc
                    };
                    self.access(t, rsc, r.target, &r.index, AccessOp::Store);
                }
                if !*nowait {
                    t.phase += 1;
                    t.barriers += 1;
                    self.ensure_phase(t.phase);
                }
            }
            Node::Barrier => {
                t.phase += 1;
                t.barriers += 1;
                self.ensure_phase(t.phase);
            }
            Node::Single(body) => {
                if t.tid == 0 {
                    self.skip.singles += 1;
                    let skipping = self.cfg.skip.skip_single;
                    let wsc = Scope {
                        exec: self.fresh_once(),
                        skipped: sc.skipped || skipping,
                        ws: true,
                        ..sc
                    };
                    let before = self.side_effects;
                    self.walk_node(body, t, wsc, 0)?;
                    if skipping && self.side_effects > before {
                        let p = self.cur_path();
                        let d = self.side_effects - before;
                        self.report(
                            Hazard::RStreamOnlySideEffect,
                            p,
                            None,
                            Some(t.phase),
                            || format!(
                                "the A-stream skips this `single` body, which performs {d} shared update(s)/IO; those effects appear only once the R-stream executes it"
                            ),
                        );
                    }
                }
                t.phase += 1;
                t.barriers += 1;
                self.ensure_phase(t.phase);
            }
            Node::Master(body) => {
                if t.tid == 0 {
                    self.skip.masters += 1;
                    let executes = self.cfg.skip.execute_master;
                    let wsc = Scope {
                        skipped: sc.skipped || !executes,
                        ws: true,
                        ..sc
                    };
                    let before = self.side_effects;
                    self.walk_node(body, t, wsc, 0)?;
                    if !executes && self.side_effects > before {
                        let p = self.cur_path();
                        let d = self.side_effects - before;
                        self.report(
                            Hazard::RStreamOnlySideEffect,
                            p,
                            None,
                            Some(t.phase),
                            || format!(
                                "the A-stream skips this `master` body, which performs {d} shared update(s)/IO; those effects appear only once the R-stream executes it"
                            ),
                        );
                    }
                }
            }
            Node::Critical { name, body } => {
                let lock = self.lock_id(name);
                if t.tid == 0 && !sc.ws {
                    self.skip.criticals += 1;
                }
                let skipping = self.cfg.skip.skip_critical;
                let wsc = Scope {
                    lock,
                    skipped: sc.skipped || skipping,
                    ws: true,
                    ..sc
                };
                let before = self.side_effects;
                self.walk_node(body, t, wsc, 0)?;
                if skipping && self.side_effects > before {
                    let p = self.cur_path();
                    let d = self.side_effects - before;
                    self.report(
                        Hazard::RStreamOnlySideEffect,
                        p,
                        None,
                        Some(t.phase),
                        || format!(
                            "the A-stream skips this `critical` body, which performs {d} shared update(s)/IO; those effects appear only once the R-stream executes it"
                        ),
                    );
                }
            }
            Node::Sections(secs) => {
                if t.tid == 0 {
                    for (k, s) in secs.iter().enumerate() {
                        self.skip.sections += 1;
                        let wsc = Scope {
                            exec: self.fresh_once(),
                            ws: true,
                            ..sc
                        };
                        self.walk_node(s, t, wsc, k as u32)?;
                    }
                }
                t.phase += 1;
                t.barriers += 1;
                self.ensure_phase(t.phase);
            }
            // validate() rejects these in region context; analyze() only
            // walks validated programs.
            Node::Parallel { .. } | Node::SlipstreamSet(_) => {}
        }
        Ok(())
    }

    fn run_iters(
        &mut self,
        lo: i64,
        hi: i64,
        var: VarId,
        body: &Node,
        t: &mut TState,
        sc: Scope,
    ) -> Result<(), Stop> {
        let mut v = lo;
        while v < hi {
            t.ctx.vars[var.0 as usize] = v;
            self.walk_node(body, t, sc, 0)?;
            v += 1;
        }
        Ok(())
    }

    // ---- access recording ------------------------------------------------

    fn access(&mut self, t: &mut TState, sc: Scope, array: ArrayId, index: &Expr, op: AccessOp) {
        let span = self.spans[array.0 as usize];
        if !span.shared || span.len == 0 {
            return;
        }
        let raw = index.eval(&t.ctx);
        let elem = raw.clamp(0, span.len as i64 - 1) as u64;
        self.ensure_phase(t.phase);
        self.phase_lines[t.phase as usize].insert(span.element_line(self.cfg.line_bytes, raw));
        let path = self.cur_path();
        let atomic = matches!(op, AccessOp::Atomic);
        let write = !matches!(op, AccessOp::Load);
        let prot = Prot {
            atomic,
            reduce: sc.reduce,
            lock: sc.lock,
        };

        // Skip-set census + stale-store tracking.
        if write && !sc.reduce {
            let a_skips = sc.skipped
                || (!atomic && !self.cfg.skip.convert_shared_stores)
                || (atomic && !self.cfg.skip.execute_atomic);
            if a_skips {
                self.skip.shared_stores_skipped += 1;
                self.skipped_stores
                    .entry((array.0, elem))
                    .or_insert((t.phase, path));
            } else if atomic {
                self.skip.atomics_executed += 1;
            } else {
                self.skip.shared_stores_converted += 1;
            }
            if sc.skipped {
                self.side_effects += 1;
            }
        }
        let program = self.program;
        let name = &program.arrays[array.0 as usize].name;
        let phase = t.phase;
        if !write {
            if let Some(&(sp, spath)) = self.skipped_stores.get(&(array.0, elem)) {
                if sp < phase {
                    self.report(
                        Hazard::SkippedStoreStale,
                        spath,
                        Some(path),
                        Some(phase),
                        || format!(
                            "the A-stream skips the store to {name}[{elem}] (phase {sp}) but the element is read here in phase {phase}; the A-stream computes with stale data until recovery"
                        ),
                    );
                }
            }
        }

        // Conflict detection.
        let cap = self.cfg.max_state_entries;
        let Some(entry) = self.ledger.entry(phase, array.0, elem, cap) else {
            self.truncated = true;
            return;
        };
        let slot = Slot {
            exec: sc.exec,
            prot,
            path,
        };
        let mut conflicts: Vec<(u32, Exec, Hazard)> = Vec::new();
        if write {
            for s in entry.w.iter().flatten() {
                if s.exec != sc.exec && !covered(s.prot, prot) {
                    conflicts.push((s.path, s.exec, Hazard::RaceWriteWrite));
                }
            }
            for s in entry.r.iter().flatten() {
                if s.exec != sc.exec && !covered(s.prot, prot) {
                    conflicts.push((s.path, s.exec, Hazard::RaceReadWrite));
                }
            }
            insert_slot(&mut entry.w, slot);
        } else {
            for s in entry.w.iter().flatten() {
                if s.exec != sc.exec && !covered(s.prot, prot) {
                    conflicts.push((s.path, s.exec, Hazard::RaceReadWrite));
                }
            }
            insert_slot(&mut entry.r, slot);
        }
        for (opath, oexec, hz) in conflicts {
            self.report(hz, path, Some(opath), Some(phase), || match hz {
                Hazard::RaceWriteWrite => format!(
                    "{} and {} both store to {name}[{elem}] in barrier phase {phase} with no ordering (not atomic, not in the same critical section, not a reduction)",
                    exec_label(sc.exec),
                    exec_label(oexec)
                ),
                _ => format!(
                    "unordered read/write of {name}[{elem}] by {} and {} in barrier phase {phase}",
                    exec_label(sc.exec),
                    exec_label(oexec)
                ),
            });
        }
    }

    // ---- post-region passes ----------------------------------------------

    fn check_balance(&mut self, region_path: u32) {
        let mut flagged = false;
        // Path-id order, so which findings the per-hazard cap keeps does
        // not depend on a hasher.
        for (fid, v) in std::mem::take(&mut self.for_trips) {
            let mn = v.iter().copied().min().unwrap_or(0);
            let mx = v.iter().copied().max().unwrap_or(0);
            if mn != mx {
                flagged = true;
                self.report(
                    Hazard::UnbalancedSync,
                    fid,
                    None,
                    None,
                    || format!(
                        "loop trip count varies across threads (min {mn}, max {mx}) and the body contains synchronization; threads would execute different barrier sequences, deadlocking the team and desynchronizing the slipstream token protocol"
                    ),
                );
            }
        }
        if !flagged && !self.barrier_counts.is_empty() {
            let mn = *self.barrier_counts.iter().min().expect("non-empty");
            let mx = *self.barrier_counts.iter().max().expect("non-empty");
            if mn != mx {
                self.report(
                    Hazard::UnbalancedSync,
                    region_path,
                    None,
                    None,
                    || format!(
                        "threads pass different numbers of barriers in this region (min {mn}, max {mx})"
                    ),
                );
            }
        }
    }

    fn lead_pass(
        &mut self,
        region_path: u32,
        clause: SlipstreamClause,
        stopped: bool,
    ) -> RegionReport {
        let resolved = match clause.sync {
            SlipSyncType::RuntimeSync => SlipstreamClause {
                sync: self.cfg.default_sync,
                tokens: self.cfg.default_tokens,
            },
            _ => clause,
        };
        // Token counts past `u32::MAX` saturate: the window already spans
        // every phase of any region long before that.
        let tokens = u32::try_from(resolved.tokens).unwrap_or(u32::MAX);
        let (label, window): (&'static str, u32) = match resolved.sync {
            SlipSyncType::GlobalSync => ("global", tokens.saturating_add(1)),
            SlipSyncType::LocalSync => ("local", tokens.saturating_add(2)),
            SlipSyncType::None => ("off", 0),
            SlipSyncType::RuntimeSync => ("global", tokens.saturating_add(1)),
        };
        let max_phase_lines = self
            .phase_lines
            .iter()
            .map(|s| s.len() as u64)
            .max()
            .unwrap_or(0);
        let mut max_window_lines = max_phase_lines;
        if window > 1 && !stopped {
            for i in 0..self.phase_lines.len() {
                let hi = (i + window as usize).min(self.phase_lines.len());
                let mut u = self.phase_lines[i].clone();
                for s in &self.phase_lines[i + 1..hi] {
                    u.extend(s.iter().copied());
                }
                max_window_lines = max_window_lines.max(u.len() as u64);
            }
        }
        if window > 0 && !stopped && max_window_lines > self.cfg.l2_lines {
            self.report(
                Hazard::StalePrefetch,
                region_path,
                None,
                None,
                || format!(
                    "the A-stream may run up to {window} barrier phase(s) ahead (sync={label}, tokens={}); the worst {window}-phase shared footprint is {max_window_lines} lines but the L2 holds {} — prefetched lines risk eviction before the R-stream uses them (consider fewer tokens or global sync)",
                    resolved.tokens, self.cfg.l2_lines
                ),
            );
        }
        RegionReport {
            path: self.node_path(region_path),
            phases: self.phase_lines.len() as u32,
            sync: label,
            tokens: resolved.tokens,
            lead_phases: window,
            max_phase_lines,
            max_window_lines,
            skips: std::mem::take(&mut self.skip),
        }
    }
}

fn contains_sync(n: &Node) -> bool {
    match n {
        Node::Barrier | Node::ParFor { .. } | Node::Single(_) | Node::Sections(_) => true,
        Node::Seq(v) => v.iter().any(contains_sync),
        Node::For { body, .. } => contains_sync(body),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::expr::{Expr, VarId};
    use omp_ir::node::ArrayDecl;

    /// Walk `p`; the returned walker's ledger still holds the records of
    /// the last region.
    fn walked<'p>(p: &'p Program, cfg: &'p AnalyzeConfig) -> Walker<'p> {
        let mut w = Walker::new(p, cfg);
        w.top(&p.body, 0);
        w
    }

    /// A program whose one region is `body` over a shared array `a` of
    /// `len` elements.
    fn region_over(len: u64, body: Node) -> Program {
        Program {
            name: "ledger".into(),
            arrays: vec![ArrayDecl {
                name: "a".into(),
                shared: true,
                len,
                elem_bytes: 8,
            }],
            tables: vec![],
            num_vars: 1,
            body: Node::Parallel {
                body: Box::new(body),
                slipstream: None,
            },
        }
    }

    fn store_at(index: Expr) -> Node {
        Node::Store {
            array: ArrayId(0),
            index,
        }
    }

    fn parfor(end: i64, body: Node) -> Node {
        Node::ParFor {
            sched: None,
            var: VarId(0),
            begin: Expr::c(0),
            end: Expr::c(end),
            body: Box::new(body),
            reduction: None,
            nowait: false,
        }
    }

    #[test]
    fn ledger_memory_ignores_array_length() {
        // Two threads store to the two ends of a 2^60-element array.
        let n = 1i64 << 60;
        let p = region_over(
            n as u64,
            parfor(2, store_at(Expr::v(VarId(0)) * Expr::c(n - 1))),
        );
        let cfg = AnalyzeConfig::paper().with_threads(4);
        let w = walked(&p, &cfg);
        assert!(w.findings.is_empty() && !w.truncated);
        assert_eq!(w.ledger.records, 2);
        assert_eq!(w.ledger.blocks.len(), 2);
        assert_eq!(w.ledger.slots(), 2);
    }

    #[test]
    fn ledger_memory_follows_records_across_phases() {
        // Every iteration reads a[0] and passes a barrier: one record in
        // each of 10,000 phases, each in a block of its own.
        let trips = 10_000;
        let body = Node::For {
            var: VarId(0),
            begin: Expr::c(0),
            end: Expr::c(trips),
            step: 1,
            body: Box::new(Node::Seq(vec![
                Node::Load {
                    array: ArrayId(0),
                    index: Expr::c(0),
                },
                Node::Barrier,
            ])),
        };
        let p = region_over(1 << 40, body);
        let cfg = AnalyzeConfig::paper().with_threads(4);
        let w = walked(&p, &cfg);
        assert!(w.findings.is_empty() && !w.truncated);
        assert_eq!(w.ledger.records, trips as usize);
        assert_eq!(w.ledger.blocks.len(), trips as usize);
        assert_eq!(w.ledger.slots(), trips as usize);
    }

    #[test]
    fn dense_records_share_blocks() {
        // 1000 consecutive elements fill 16 blocks; no block holds more
        // than twice its records.
        let p = region_over(1000, parfor(1000, store_at(Expr::v(VarId(0)))));
        let cfg = AnalyzeConfig::paper().with_threads(4);
        let w = walked(&p, &cfg);
        assert_eq!(w.ledger.records, 1000);
        assert_eq!(w.ledger.blocks.len(), 16);
        assert!(w.ledger.slots() <= 2 * w.ledger.records);
    }

    #[test]
    fn ledger_cap_refuses_new_records_only() {
        let mut l = Ledger::default();
        assert!(l.entry(0, 0, 5, 2).is_some());
        assert!(l.entry(0, 0, 1 << 50, 2).is_some());
        // Full: a new element, in a known or a new block, is refused and
        // allocates nothing; a known element is still found.
        assert!(l.entry(0, 0, 6, 2).is_none());
        assert!(l.entry(1, 0, 5, 2).is_none());
        assert!(l.entry(0, 0, 5, 2).is_some());
        assert_eq!((l.records, l.blocks.len(), l.slots()), (2, 2, 2));
    }
}
