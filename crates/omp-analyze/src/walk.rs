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
//!
//! A region is walked in **enumerating mode** — every (thread,
//! iteration, access) recorded in the element ledger, the exact
//! reference — until it has taken `PROBE_VISITS` visits. A region still
//! walking then is large, and is walked again from the start in
//! **summary mode**: a loop whose body holds only accesses, compute, I/O
//! and flushes is charged all its visits at once, each of its accesses
//! becomes a few strided element runs (closed form for a clamped linear
//! index, coalesced per-iteration values otherwise), every other access
//! is a one-element run, and footprints become line ranges. At region end
//! a screen looks for two runs that could race. If none can, and the runs
//! could not have filled the ledger's cap, the summaries are the report:
//! the enumerating walk would have found no race either. Otherwise — a
//! possible race, a cap, or a visit budget that runs out inside the
//! region — the walker restores its state from before the region and
//! enumerates the whole region.

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
use crate::strided::{closed_form, gcd, max_window_union, Lines, Prog};
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

/// How a region walk records accesses for conflict detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Strided runs, screened for possible races at region end.
    Summary,
    /// One ledger record per (phase, array, element): the reference.
    Enumerate,
}

/// A summary-mode record: elements of one array that one executor
/// accesses under one protection in one phase.
#[derive(Debug, Clone, Copy)]
struct Run {
    phase: u32,
    array: u32,
    exec: Exec,
    prot: Prot,
    write: bool,
    elems: Prog,
}

/// Could two runs of one (phase, array) race? The ledger's conflict rule
/// applied to whole element sets.
fn may_race(a: &Run, b: &Run) -> bool {
    a.exec != b.exec && (a.write || b.write) && !covered(a.prot, b.prot) && a.elems.meets(&b.elems)
}

/// The walker state a region walk may change, saved so that the region
/// can be walked again from the same start.
#[derive(Clone, Copy)]
struct Checkpoint {
    findings: usize,
    suppressed: u64,
    budget: u64,
    truncated: bool,
    once_ctr: u32,
    side_effects: u64,
    paths: usize,
    locks: usize,
}

/// Collect the leaves of a flat loop body — accesses, compute, I/O and
/// flushes, possibly nested in `Seq`s, but no loop, construct or
/// synchronization — in walk order, each with its position in the
/// enclosing `Seq`. False when the body holds anything else.
fn flat_leaves<'p>(n: &'p Node, idx: u32, out: &mut Vec<(&'p Node, u32)>) -> bool {
    match n {
        Node::Seq(v) => v
            .iter()
            .enumerate()
            .all(|(k, c)| flat_leaves(c, k as u32, out)),
        Node::Load { .. }
        | Node::Store { .. }
        | Node::Atomic { .. }
        | Node::Compute(_)
        | Node::Io { .. }
        | Node::Flush => {
            out.push((n, idx));
            true
        }
        _ => false,
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

/// Why a region walk stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// The visit budget ran out (or, in summary mode, the summaries
    /// cannot describe the region exactly).
    Budget,
    /// An enumerating walk passed the region's probe: the region is large
    /// enough for summaries.
    Probe,
}

/// Visits after which an enumerating region walk gives up and the region
/// is walked in summary mode instead. Below it, summaries cannot pay for
/// their screen: a fuzz-campaign program takes at most ~1.5k visits, while
/// each paper kernel's region takes at least 78k.
const PROBE_VISITS: u64 = 4096;

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
    /// Dedup keys `reported` gained in the current region walk.
    reported_log: Vec<(Hazard, u32, u32)>,
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
    mode: Mode,
    ledger: Ledger,
    runs: Vec<Run>,
    /// Scratch for the screen's sweep.
    active: Vec<Run>,
    skipped_stores: FastMap<(u32, u64), (u32, u32)>,
    /// Per array, the earliest phase of a `skipped_stores` entry
    /// (`u32::MAX`, or an empty list: none), so summary mode knows which
    /// loads cannot read a stale element.
    stale_from: Vec<u32>,
    phase_lines: Vec<Lines>,
    barrier_counts: Vec<u64>,
    for_trips: BTreeMap<u32, Vec<u64>>,
    skip: SkipSet,
    /// Scratch for one flat loop's leaves.
    leaves: Vec<(&'p Node, u32)>,
    /// Visits an enumerating region walk may take before the region
    /// switches to summary mode (`PROBE_VISITS`).
    probe: u64,
    /// The budget at which the current walk passes its probe.
    probe_until: Option<u64>,
    /// Regions reported from summaries, and regions whose summary walk
    /// fell back to enumeration.
    #[cfg_attr(not(test), allow(dead_code))]
    summaries: u32,
    #[cfg_attr(not(test), allow(dead_code))]
    fallbacks: u32,
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
            reported_log: Vec::new(),
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
            mode: Mode::Summary,
            ledger: Ledger::default(),
            runs: Vec::new(),
            active: Vec::new(),
            skipped_stores: FastMap::default(),
            stale_from: Vec::new(),
            phase_lines: Vec::new(),
            barrier_counts: Vec::new(),
            for_trips: BTreeMap::new(),
            skip: SkipSet::default(),
            leaves: Vec::new(),
            probe: PROBE_VISITS,
            probe_until: None,
            summaries: 0,
            fallbacks: 0,
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
        self.reported_log.push((hazard, ka, kb));
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
            return Err(Stop::Budget);
        }
        if Some(self.budget) == self.probe_until {
            return Err(Stop::Probe);
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
            self.phase_lines.push(Lines::default());
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

    fn top(&mut self, n: &'p Node, idx: u32) {
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

    /// Walk one region: in enumerating mode while it is small, else in
    /// summary mode, falling back to a full enumerating walk when the
    /// summaries cannot stand in for it.
    fn region(&mut self, body: &'p Node, clause: SlipstreamClause) {
        let region_path = self.cur_path();
        let start = self.checkpoint();
        self.probe_until = start.budget.checked_sub(self.probe);
        let mut stop = self.walk_region(body, Mode::Enumerate).err();
        self.probe_until = None;
        if stop == Some(Stop::Probe) {
            self.restore(start);
            let summarized = self.walk_region(body, Mode::Summary).is_ok() && {
                let visits = start.budget - self.budget;
                self.screen(visits.saturating_mul(16).saturating_add(4096))
            };
            if summarized {
                self.summaries += 1;
                stop = None;
            } else {
                self.fallbacks += 1;
                self.restore(start);
                stop = self.walk_region(body, Mode::Enumerate).err();
            }
        }
        let stopped = stop.is_some();
        if !stopped {
            self.check_balance(region_path);
        }
        let rr = self.lead_pass(region_path, clause, stopped);
        self.regions.push(rr);
    }

    /// One walk of a region by every thread in `mode`. `Err` means the
    /// walk stopped: on the visit budget or the probe in enumerating mode,
    /// on anything the summaries cannot express exactly in summary mode.
    fn walk_region(&mut self, body: &'p Node, mode: Mode) -> Result<(), Stop> {
        self.mode = mode;
        self.ledger.clear();
        self.runs.clear();
        self.skipped_stores.clear();
        self.stale_from.clear();
        self.phase_lines.clear();
        self.phase_lines.push(Lines::default());
        self.barrier_counts.clear();
        self.for_trips.clear();
        self.skip = SkipSet::default();
        self.reported_log.clear();
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
            if let Err(stop) = self.walk_node(body, &mut t, sc, 0) {
                self.id_stack.truncate(depth);
                return Err(stop);
            }
            self.barrier_counts.push(t.barriers);
        }
        Ok(())
    }

    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            findings: self.findings.len(),
            suppressed: self.suppressed,
            budget: self.budget,
            truncated: self.truncated,
            once_ctr: self.once_ctr,
            side_effects: self.side_effects,
            paths: self.paths.len(),
            locks: self.locks.len(),
        }
    }

    /// Undo everything a region walk did to program-wide state: findings
    /// and their dedup keys and per-hazard counts, counters, the budget,
    /// and the paths and locks it interned.
    fn restore(&mut self, c: Checkpoint) {
        for f in self.findings.drain(c.findings..) {
            *self
                .per_hazard
                .get_mut(&f.hazard)
                .expect("counted when kept") -= 1;
        }
        for key in self.reported_log.drain(..) {
            self.reported.remove(&key);
        }
        self.suppressed = c.suppressed;
        self.budget = c.budget;
        self.truncated = c.truncated;
        self.once_ctr = c.once_ctr;
        self.side_effects = c.side_effects;
        // Each new path was appended to its parent's child list, after
        // every older child: pop them newest first.
        for id in (c.paths..self.paths.len()).rev() {
            let parent = self.paths[id].0;
            let popped = self.kids[parent.map_or(0, |p| p as usize + 1)].pop();
            debug_assert_eq!(popped.map(|(_, k)| k as usize), Some(id));
        }
        self.paths.truncate(c.paths);
        self.kids.truncate(c.paths + 1);
        self.has_sync_memo
            .retain(|&fid, _| (fid as usize) < c.paths);
        self.locks.retain(|_, id| (*id as usize) < c.locks);
    }

    /// May the summary walk's report stand? True when no two runs could
    /// race, so the enumerating walk would report no race, and the runs
    /// hold no more elements than the ledger would have admitted. The
    /// sweep compares at most `pairs` run pairs (a pair costs a small
    /// fraction of a visit), so a pathological overlap falls back rather
    /// than costing more than the enumerating walk.
    fn screen(&mut self, mut pairs: u64) -> bool {
        let records: u64 = self.runs.iter().map(|r| r.elems.count).sum();
        if records > self.cfg.max_state_entries as u64 {
            return false;
        }
        let key = |r: &Run| (r.phase as u64) << 32 | r.array as u64;
        self.runs.sort_unstable_by_key(key);
        let active = &mut self.active;
        for group in self.runs.chunk_by_mut(|a, b| key(a) == key(b)) {
            // Only a (phase, array) with a write can race.
            if !group.iter().any(|r| r.write) {
                continue;
            }
            // Each run lies in one residue class modulo the gcd of the
            // group's strides, and runs of different classes never meet.
            // Sweep each class in element order, comparing a run with the
            // earlier runs whose range it overlaps.
            let g = group
                .iter()
                .filter(|r| r.elems.count > 1)
                .fold(0, |g, r| gcd(g, r.elems.stride));
            let class = |r: &Run| if g == 0 { r.elems.lo } else { r.elems.lo % g };
            group.sort_unstable_by_key(|r| (class(r), r.elems.lo));
            for members in group.chunk_by(|a, b| class(a) == class(b)) {
                active.clear();
                for r in members {
                    active.retain(|a| a.elems.hi() >= r.elems.lo);
                    let Some(left) = pairs.checked_sub(active.len() as u64) else {
                        return false;
                    };
                    pairs = left;
                    if active.iter().any(|a| may_race(a, r)) {
                        return false;
                    }
                    active.push(*r);
                }
            }
        }
        true
    }

    fn walk_node(&mut self, n: &'p Node, t: &mut TState, sc: Scope, idx: u32) -> Result<(), Stop> {
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

    fn walk_inner(&mut self, n: &'p Node, t: &mut TState, sc: Scope) -> Result<(), Stop> {
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
                let summarized = self.mode == Mode::Summary
                    && self.flat_loop(lo, hi, *step, *var, body, t, sc)?;
                if !summarized {
                    let mut v = lo;
                    while v < hi {
                        t.ctx.vars[var.0 as usize] = v;
                        self.walk_node(body, t, sc, 0)?;
                        v += *step as i64;
                    }
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
        body: &'p Node,
        t: &mut TState,
        sc: Scope,
    ) -> Result<(), Stop> {
        if self.mode == Mode::Summary && self.flat_loop(lo, hi, 1, var, body, t, sc)? {
            return Ok(());
        }
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
        let line = span.element_line(self.cfg.line_bytes, raw);
        self.phase_lines[t.phase as usize].insert(line);
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
                if self.stale_from.is_empty() {
                    self.stale_from.resize(self.spans.len(), u32::MAX);
                }
                let from = &mut self.stale_from[array.0 as usize];
                *from = (*from).min(t.phase);
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
        if self.mode == Mode::Summary {
            self.runs.push(Run {
                phase,
                array: array.0,
                exec: sc.exec,
                prot,
                write,
                elems: Prog::point(elem),
            });
            return;
        }
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

    // ---- summary mode: flat loops ----------------------------------------

    /// In summary mode, summarize the loop `var = lo, lo + step, .. < hi`
    /// when its body is flat: charge its visits at once, intern its leaf
    /// paths in first-iteration order, and record each access as strided
    /// runs. `Ok(false)` leaves the loop to be walked node by node: a body
    /// that is not flat, a store the A-stream skips
    /// or a load that may read a skipped store (both need the per-element
    /// stale-store map), or a loop counter that would wrap. `Err` when the
    /// budget runs out inside the loop.
    #[allow(clippy::too_many_arguments)]
    fn flat_loop(
        &mut self,
        lo: i64,
        hi: i64,
        step: u64,
        var: VarId,
        body: &'p Node,
        t: &mut TState,
        sc: Scope,
    ) -> Result<bool, Stop> {
        let trips = wsloop::trip_count(lo, hi, step);
        if lo as i128 + trips as i128 * step as i128 > i64::MAX as i128 {
            return Ok(false);
        }
        let mut leaves = std::mem::take(&mut self.leaves);
        leaves.clear();
        let flat = flat_leaves(body, 0, &mut leaves) && self.summarizable(&leaves, t.phase, sc);
        let r = if !flat {
            Ok(false)
        } else {
            match trips.checked_mul(leaves.len() as u64) {
                Some(visits) if visits <= self.budget => {
                    self.budget -= visits;
                    if trips > 0 {
                        self.summarize(&leaves, lo, step, trips, var, t, sc);
                    }
                    Ok(true)
                }
                _ => Err(Stop::Budget),
            }
        };
        self.leaves = leaves;
        r
    }

    fn summarizable(&self, leaves: &[(&Node, u32)], phase: u32, sc: Scope) -> bool {
        let skip = &self.cfg.skip;
        leaves.iter().all(|(leaf, _)| match leaf {
            // The stores and atomics the A-stream skips feed the
            // stale-store map; reduction combines are exempt.
            Node::Store { .. } => sc.reduce || (!sc.skipped && skip.convert_shared_stores),
            Node::Atomic { .. } => sc.reduce || (!sc.skipped && skip.execute_atomic),
            Node::Load { array, .. } => self
                .stale_from
                .get(array.0 as usize)
                .is_none_or(|&from| from >= phase),
            _ => true,
        })
    }

    /// Record a flat loop's accesses (trips >= 1) as runs and line ranges,
    /// leaving `var` at its last value as the enumerating loop does.
    #[allow(clippy::too_many_arguments)]
    fn summarize(
        &mut self,
        leaves: &[(&Node, u32)],
        lo: i64,
        step: u64,
        trips: u64,
        var: VarId,
        t: &mut TState,
        sc: Scope,
    ) {
        for &(leaf, idx) in leaves {
            self.push_seg(node_kind(leaf), idx);
            self.pop_seg();
            let (array, index, op) = match leaf {
                Node::Load { array, index } => (*array, index, AccessOp::Load),
                Node::Store { array, index } => (*array, index, AccessOp::Store),
                Node::Atomic { array, index } => (*array, index, AccessOp::Atomic),
                Node::Io { .. } => {
                    if t.tid == 0 {
                        self.skip.io_skipped += trips;
                    }
                    if sc.skipped {
                        self.side_effects += trips;
                    }
                    continue;
                }
                Node::Flush => {
                    if t.tid == 0 {
                        self.skip.flushes_dropped += trips;
                    }
                    continue;
                }
                _ => continue,
            };
            let span = self.spans[array.0 as usize];
            if !span.shared || span.len == 0 {
                continue;
            }
            let atomic = matches!(op, AccessOp::Atomic);
            let write = !matches!(op, AccessOp::Load);
            if write && !sc.reduce {
                if atomic {
                    self.skip.atomics_executed += trips;
                } else {
                    self.skip.shared_stores_converted += trips;
                }
            }
            let run = |elems| Run {
                phase: t.phase,
                array: array.0,
                exec: sc.exec,
                prot: Prot {
                    atomic,
                    reduce: sc.reduce,
                    lock: sc.lock,
                },
                write,
                elems,
            };
            match closed_form(index, var, &t.ctx, lo, step, trips, span.len) {
                Some(parts) => {
                    for elems in parts.into_iter().flatten() {
                        self.runs.push(run(elems));
                        self.prog_lines(t.phase, span, elems);
                    }
                }
                None => {
                    // Coalesce consecutive elements with one stride into
                    // a run, and adjacent lines into a range.
                    let top = span.len as i64 - 1;
                    let lines = &mut self.phase_lines[t.phase as usize];
                    let mut cur: Option<(u64, i64, u64)> = None;
                    let mut range: Option<(u64, u64)> = None;
                    for k in 0..trips {
                        t.ctx.vars[var.0 as usize] = lo.wrapping_add((k * step) as i64);
                        let raw = index.eval(&t.ctx);
                        let e = raw.clamp(0, top) as u64;
                        cur = match cur {
                            None => Some((e, 0, 1)),
                            Some((f, d, c)) => {
                                let last = f as i64 + d * (c - 1) as i64;
                                if e as i64 == last {
                                    cur
                                } else if c == 1 {
                                    Some((f, e as i64 - f as i64, 2))
                                } else if e as i64 == last + d {
                                    Some((f, d, c + 1))
                                } else {
                                    self.runs.push(run(Prog::from_signed(f, d, c)));
                                    Some((e, 0, 1))
                                }
                            }
                        };
                        let line = span.element_line(self.cfg.line_bytes, raw);
                        range = match range {
                            Some((a, b)) if line + 1 >= a && line <= b + 1 => {
                                Some((a.min(line), b.max(line)))
                            }
                            Some((a, b)) => {
                                lines.add(a, b);
                                Some((line, line))
                            }
                            None => Some((line, line)),
                        };
                    }
                    if let Some((f, d, c)) = cur {
                        self.runs.push(run(Prog::from_signed(f, d, c)));
                    }
                    if let Some((a, b)) = range {
                        lines.add(a, b);
                    }
                }
            }
        }
        t.ctx.vars[var.0 as usize] = lo.wrapping_add(((trips - 1) * step) as i64);
    }

    /// Add the lines of `elems` of the array at `span` to `phase`'s
    /// footprint.
    fn prog_lines(&mut self, phase: u32, span: ArraySpan, elems: Prog) {
        let lb = self.cfg.line_bytes;
        let lines = &mut self.phase_lines[phase as usize];
        let at = |e: u64| span.base as u128 + e as u128 * span.elem_bytes as u128;
        if at(elems.hi()) < 1 << 64 {
            let stride = elems.stride * span.elem_bytes;
            lines.add_bytes(at(elems.lo) as u64, stride, elems.count, lb);
        } else {
            // Only a layout the address space rejects gets here; follow
            // the element-by-element address arithmetic exactly.
            for k in 0..elems.count {
                lines.insert(span.element_line(lb, (elems.lo + k * elems.stride) as i64));
            }
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
        let windowed = window > 1 && !stopped;
        for lines in &mut self.phase_lines {
            lines.finish(self.cfg.line_bytes, windowed);
        }
        let max_phase_lines = self.phase_lines.iter().map(Lines::count).max().unwrap_or(0);
        let mut max_window_lines = max_phase_lines;
        if windowed {
            let w = usize::try_from(window).unwrap_or(usize::MAX);
            max_window_lines = max_window_lines.max(max_window_union(&self.phase_lines, w));
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

    /// Walk `p` as `analyze` does; the returned walker still holds the
    /// records of the last region.
    fn walked<'p>(p: &'p Program, cfg: &'p AnalyzeConfig) -> Walker<'p> {
        walked_with_probe(p, cfg, PROBE_VISITS)
    }

    /// Walk `p` with every region trying summary mode first, however
    /// small.
    fn summarized<'p>(p: &'p Program, cfg: &'p AnalyzeConfig) -> Walker<'p> {
        walked_with_probe(p, cfg, 0)
    }

    fn walked_with_probe<'p>(p: &'p Program, cfg: &'p AnalyzeConfig, probe: u64) -> Walker<'p> {
        let mut w = Walker::new(p, cfg);
        w.probe = probe;
        w.top(&p.body, 0);
        w
    }

    /// Walk the one region of `p` in enumerating mode only, so the
    /// element ledger holds its records.
    fn enumerated<'p>(p: &'p Program, cfg: &'p AnalyzeConfig) -> Walker<'p> {
        let Node::Parallel { body, .. } = &p.body else {
            panic!("one region expected");
        };
        let mut w = Walker::new(p, cfg);
        w.push_seg("parallel", 0);
        assert!(w.walk_region(body, Mode::Enumerate).is_ok());
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
        let w = enumerated(&p, &cfg);
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
        let w = enumerated(&p, &cfg);
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
        let w = enumerated(&p, &cfg);
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

    /// Line ranges held across the region's phases.
    fn line_ranges(w: &Walker) -> usize {
        w.phase_lines.iter().map(Lines::len).sum()
    }

    #[test]
    fn paper_kernels_take_the_summary_path() {
        let cfg = AnalyzeConfig::paper();
        for bm in npb_kernels::Benchmark::ALL {
            let p = bm.build_paper(None);
            let w = walked(&p, &cfg);
            assert_eq!((w.summaries, w.fallbacks), (1, 0), "{}", bm.name());
            assert!(w.findings.is_empty() && !w.truncated, "{}", bm.name());
            assert_eq!(w.ledger.records, 0);
        }
    }

    #[test]
    fn small_regions_are_enumerated_outright() {
        let cfg = AnalyzeConfig::paper().with_threads(4);
        let p = region_over(1000, parfor(1000, store_at(Expr::v(VarId(0)))));
        let w = walked(&p, &cfg);
        assert_eq!((w.summaries, w.fallbacks), (0, 0));
        assert_eq!(w.ledger.records, 1000);
        // Past the probe, the same loop is summarized.
        let p = region_over(10_000, parfor(10_000, store_at(Expr::v(VarId(0)))));
        let w = walked(&p, &cfg);
        assert_eq!((w.summaries, w.fallbacks), (1, 0));
        assert_eq!(w.runs.len(), 4);
    }

    #[test]
    fn racy_capped_and_budget_stopped_regions_fall_back() {
        let cfg = AnalyzeConfig::paper().with_threads(4);
        let clean = region_over(1000, parfor(1000, store_at(Expr::v(VarId(0)))));
        assert_eq!(summarized(&clean, &cfg).fallbacks, 0);

        let racy = region_over(1000, parfor(1000, store_at(Expr::c(0))));
        let w = summarized(&racy, &cfg);
        assert_eq!(w.fallbacks, 1);
        assert_eq!(w.findings[0].hazard, Hazard::RaceWriteWrite);

        let mut capped = cfg.clone();
        capped.max_state_entries = 999;
        let w = summarized(&clean, &capped);
        assert_eq!(w.fallbacks, 1);
        assert!(w.truncated && w.findings.is_empty());

        let stopped = cfg.clone().with_budget(500);
        let w = summarized(&clean, &stopped);
        assert_eq!(w.fallbacks, 1);
        assert!(w.truncated && w.findings.is_empty());
        assert_eq!(w.budget, 0);
    }

    /// Everything a walk reports.
    fn output(w: Walker) -> (Vec<Finding>, Vec<RegionReport>, u64, bool, u64) {
        let visits = w.cfg.visit_budget - w.budget;
        (w.findings, w.regions, w.suppressed, w.truncated, visits)
    }

    #[test]
    fn summaries_report_what_enumeration_reports() {
        // Small programs walked summary-first must report exactly what
        // the enumerating walk reports, fallback or not.
        let v = || Expr::v(VarId(0));
        let indices = [
            v(),
            v() * Expr::c(i64::MAX),
            Expr::c(63) - v(),
            v() * Expr::c(3) - Expr::c(10),
            (v() * Expr::c(2) + Expr::c(5))
                .max(Expr::c(3))
                .min(Expr::c(40)),
            v().rem(Expr::c(7)) * Expr::c(9),
            v() * Expr::NumThreads + Expr::ThreadId,
            v() * Expr::c(5) + Expr::ThreadId * Expr::c(7),
            Expr::c(5),
        ];
        let access = |index: &Expr, write: bool| {
            let index = index.clone();
            let array = ArrayId(0);
            if write {
                Node::Store { array, index }
            } else {
                Node::Load { array, index }
            }
        };
        let serial = |body: Node| Node::For {
            var: VarId(0),
            begin: Expr::c(-3),
            end: Expr::c(50),
            step: 2,
            body: Box::new(body),
        };
        let ws = |sched: Option<ScheduleSpec>, body: Node| Node::ParFor {
            sched,
            var: VarId(0),
            begin: Expr::c(0),
            end: Expr::c(50),
            body: Box::new(body),
            reduction: None,
            nowait: false,
        };
        let scheds = [
            None,
            Some(ScheduleSpec {
                kind: ScheduleKind::Static,
                chunk: Some(3),
            }),
            Some(ScheduleSpec::dynamic(4)),
            Some(ScheduleSpec::guided()),
        ];
        let mut programs = Vec::new();
        for index in &indices {
            for write in [false, true] {
                let flat = || Node::Seq(vec![access(index, write), Node::Compute(Expr::c(1))]);
                programs.push(region_over(64, serial(flat())));
                for sched in scheds {
                    programs.push(region_over(64, ws(sched, flat())));
                    programs.push(region_over(
                        64,
                        Node::Seq(vec![
                            ws(sched, flat()),
                            Node::Single(Box::new(access(index, true))),
                            ws(sched, access(index, false)),
                            Node::Critical {
                                name: "c".into(),
                                body: Box::new(serial(access(index, !write))),
                            },
                        ]),
                    ));
                }
            }
        }
        for bm in npb_kernels::Benchmark::ALL {
            programs.push(bm.build_tiny());
            programs.push(bm.build_tiny_sched(ScheduleSpec::dynamic(2)));
        }
        let mut configs = Vec::new();
        for threads in [1, 4, 16] {
            let cfg = AnalyzeConfig::paper()
                .with_threads(threads)
                .with_sync(SlipSyncType::LocalSync, 2)
                .with_l2_lines(8);
            configs.push(cfg.clone());
            let mut off = cfg.clone();
            off.skip.convert_shared_stores = false;
            off.skip.skip_critical = false;
            configs.push(off);
        }
        let (mut summaries, mut fallbacks) = (0, 0);
        for p in &programs {
            for cfg in &configs {
                let w = summarized(p, cfg);
                summaries += w.summaries;
                fallbacks += w.fallbacks;
                let want = output(walked_with_probe(p, cfg, u64::MAX));
                assert_eq!(output(w), want, "{p:?}");
            }
        }
        assert!(summaries > 0 && fallbacks > 0, "{summaries} {fallbacks}");
    }

    #[test]
    fn summary_memory_ignores_array_length() {
        // Two threads store to the two ends of a 2^60-element array: two
        // one-element runs and two one-line ranges.
        let n = 1i64 << 60;
        let p = region_over(
            n as u64,
            parfor(2, store_at(Expr::v(VarId(0)) * Expr::c(n - 1))),
        );
        let cfg = AnalyzeConfig::paper().with_threads(4);
        let w = summarized(&p, &cfg);
        assert!(w.findings.is_empty() && !w.truncated && w.fallbacks == 0);
        assert_eq!(w.runs.len(), 2);
        assert_eq!(line_ranges(&w), 2);
        assert_eq!(w.ledger.records, 0);
    }

    #[test]
    fn summary_memory_follows_accesses_across_phases() {
        // A read of a[0] and a barrier per iteration of a 10,000-phase
        // loop: the loop is not flat, so each of the 4 threads' reads is a
        // one-element run, and each phase holds one line range.
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
        let w = summarized(&p, &cfg);
        assert!(w.findings.is_empty() && !w.truncated && w.fallbacks == 0);
        assert_eq!(w.runs.len(), 4 * trips as usize);
        assert_eq!(line_ranges(&w), trips as usize);
        assert_eq!(w.ledger.records, 0);
    }

    #[test]
    fn strided_lines_stay_single_points() {
        // Every 16th element is every other line: one run per thread, and
        // one range per distinct line, never per element of the array.
        let p = region_over(
            160_000,
            parfor(
                10_000,
                Node::Load {
                    array: ArrayId(0),
                    index: Expr::v(VarId(0)) * Expr::c(16),
                },
            ),
        );
        let cfg = AnalyzeConfig::paper().with_threads(4);
        let w = summarized(&p, &cfg);
        assert!(w.findings.is_empty() && !w.truncated && w.fallbacks == 0);
        assert_eq!(w.runs.len(), 4);
        assert_eq!(line_ranges(&w), 10_000);
        assert_eq!(w.phase_lines[0].count(), 10_000);
    }
}
