//! The interpreter: op-table dispatch, construct entry, the step loop and
//! compute batching.

use super::{DynLoop, Engine, EngineMutation, Frame, Status, MASTER};
use crate::compile::{FNode, NodeId, Op};
use crate::faults::{FaultKind, FaultSite};
use crate::policy::AAction;
use dsm_sim::{AccessKind, Addr, CpuId, Cycle, SplitMix64, TimeClass};
use omp_rt::schedule::{resolve_schedule, static_chunks, ResolvedSchedule};

/// Busy cycles to compute a static chunk assignment.
const STATIC_SCHED_CYCLES: u64 = 15;

impl Engine<'_> {
    /// Begin executing `node` on `ci`: leaves act immediately; containers
    /// push frames. Dispatches on the compile-time flat op table; only
    /// control constructs fall through to the `FNode` walk.
    pub(super) fn enter(&mut self, ci: usize, node: NodeId) {
        let cp = self.cp;
        let op = cp.ops[node.0 as usize];
        match op {
            Op::Seq { .. } => self.cpus[ci].frames.push(Frame::Seq { node, idx: 0 }),
            Op::ComputeConst(_) | Op::ComputeDyn(_) => {
                self.compute(ci, op, 0);
            }
            Op::LoadShared(addr) => {
                self.cpus[ci].user.loads += 1;
                self.mem(ci, addr, AccessKind::Load, TimeClass::MemStall);
            }
            Op::LoadPrivate(off) => {
                let addr = self.map.private_base(CpuId(ci)) + off;
                self.cpus[ci].user.loads += 1;
                self.mem(ci, addr, AccessKind::Load, TimeClass::MemStall);
            }
            Op::LoadDyn { array, index } => {
                let idx = self.eval(ci, &cp.exprs[index as usize]);
                let addr = self.element_addr(ci, array, idx);
                self.cpus[ci].user.loads += 1;
                self.mem(ci, addr, AccessKind::Load, TimeClass::MemStall);
            }
            Op::StoreShared(addr) => {
                self.cpus[ci].user.stores += 1;
                if self.is_a(ci) {
                    self.a_shared_store(ci, addr);
                } else {
                    self.mem(ci, addr, AccessKind::Store, TimeClass::MemStall);
                }
            }
            Op::StorePrivate(off) => {
                let addr = self.map.private_base(CpuId(ci)) + off;
                self.cpus[ci].user.stores += 1;
                self.mem(ci, addr, AccessKind::Store, TimeClass::MemStall);
            }
            Op::StoreDyn { array, index } => {
                let idx = self.eval(ci, &cp.exprs[index as usize]);
                let addr = self.element_addr(ci, array, idx);
                self.cpus[ci].user.stores += 1;
                let shared = cp.arrays[array.0 as usize].shared;
                if self.is_a(ci) && shared {
                    self.a_shared_store(ci, addr);
                } else {
                    self.mem(ci, addr, AccessKind::Store, TimeClass::MemStall);
                }
            }
            Op::Slow => self.enter_slow(ci, node),
        }
    }

    /// Retire `op` on `ci` if it is a compute op: its cycles count as user
    /// compute, and they plus `overhead` are charged busy. Returns false,
    /// doing nothing, for any other op. Inlined: it is the per-iteration
    /// body of the batched loops.
    #[inline(always)]
    fn compute(&mut self, ci: usize, op: Op, overhead: u64) -> bool {
        let cyc = match op {
            Op::ComputeConst(cyc) => cyc,
            Op::ComputeDyn(x) => self.eval(ci, &self.cp.exprs[x as usize]).max(0) as u64,
            _ => return false,
        };
        self.cpus[ci].user.compute_cycles += cyc;
        self.busy(ci, overhead + cyc, TimeClass::Busy);
        true
    }

    /// Cold entry path: control constructs and rare leaves, dispatched by
    /// borrowing the `FNode` (no clone).
    fn enter_slow(&mut self, ci: usize, node: NodeId) {
        let cp = self.cp;
        let role_a = self.is_a(ci);
        match cp.node(node) {
            // Leaves covered by the op table never reach here, but the
            // arms stay for exhaustiveness (`enter` handles them).
            FNode::Seq(_) | FNode::Compute(_) | FNode::Load { .. } | FNode::Store { .. } => {
                self.enter(ci, node)
            }
            FNode::Atomic { array, index } => {
                let idx = self.eval(ci, index);
                let addr = self.element_addr(ci, *array, idx);
                self.cpus[ci].user.atomics += 1;
                if role_a {
                    if self.cfg.policy.atomic == AAction::Execute {
                        self.a_shared_store(ci, addr);
                    }
                    // Skip otherwise.
                } else {
                    // Read-modify-write under hardware atomicity.
                    self.busy(ci, 2, TimeClass::Busy);
                    self.mem(ci, addr, AccessKind::Store, TimeClass::MemStall);
                }
            }
            FNode::For {
                var,
                begin,
                end,
                step,
                body,
            } => {
                let lo = self.eval(ci, begin);
                let hi = self.eval(ci, end);
                self.cpus[ci].frames.push(Frame::For {
                    var: *var,
                    cur: lo,
                    end: hi,
                    step: *step,
                    body: *body,
                });
            }
            FNode::Parallel { .. } => {
                // Only master streams reach Parallel nodes (slaves get the
                // region through dispatch).
                self.cpus[ci].frames.push(Frame::RegionP { node, stage: 0 });
            }
            FNode::SlipstreamSet(clause) => {
                if !role_a {
                    self.global_slip = Some(*clause);
                }
                self.busy(ci, 1, TimeClass::Busy);
            }
            FNode::ParFor {
                sched,
                var,
                begin,
                end,
                body,
                nowait: _,
                reduction: _,
            } => {
                let lo = self.eval(ci, begin);
                let hi = self.eval(ci, end);
                let resolved = resolve_schedule(*sched, self.cfg.env.schedule);
                self.cpus[ci].frames.push(Frame::LoopEnd { node, stage: 0 });
                match resolved {
                    ResolvedSchedule::StaticBlock | ResolvedSchedule::StaticChunked(_) => {
                        // Each thread computes its chunks independently.
                        self.busy(ci, STATIC_SCHED_CYCLES, TimeClass::Scheduling);
                        let tid = self.cpus[ci].tid;
                        let mut chunks =
                            static_chunks(resolved, lo, hi, 1, self.layout.team_size(), tid);
                        if self.cfg.mutation == EngineMutation::ChunkOffByOne
                            && tid + 1 == self.layout.team_size()
                        {
                            // Injected bug class: the last thread's final
                            // chunk silently loses its last iteration.
                            if let Some(last) = chunks.last_mut() {
                                if last.hi > last.lo {
                                    last.hi -= 1;
                                }
                            }
                        }
                        self.cpus[ci].frames.push(Frame::ChunkIter {
                            var: *var,
                            chunks,
                            ci: 0,
                            cur: i64::MIN,
                            body: *body,
                        });
                    }
                    ResolvedSchedule::Dynamic(_)
                    | ResolvedSchedule::Guided(_)
                    | ResolvedSchedule::Affinity(_) => {
                        let enc = self.cpus[ci].dynloops_seen;
                        self.cpus[ci].dynloops_seen += 1;
                        self.get_sched_lock(enc);
                        if resolved.is_affinity() {
                            self.get_affinity_locks(enc);
                        }
                        let lp = DynLoop {
                            node,
                            enc,
                            sched: resolved,
                            lo,
                            hi,
                        };
                        self.cpus[ci].frames.push(Frame::DynP { lp, stage: 0 });
                    }
                }
            }
            FNode::Barrier => self.push_barrier(ci),
            FNode::Single(_) => {
                let enc = self.cpus[ci].singles_seen;
                self.cpus[ci].singles_seen += 1;
                self.cpus[ci].frames.push(Frame::SingleP {
                    node,
                    enc,
                    stage: 0,
                });
            }
            FNode::Master(body) => {
                let is_master_tid = self.cpus[ci].tid as usize == MASTER;
                let execute = if role_a {
                    is_master_tid && self.cfg.policy.master == AAction::Execute
                } else {
                    is_master_tid
                };
                if execute {
                    self.enter(ci, *body);
                }
            }
            FNode::Critical { lock, body } => {
                if role_a {
                    // Execute only under the ablation policy; the paper's
                    // A-stream skips critical sections to avoid migrating
                    // protected data.
                    if self.cfg.policy.critical == AAction::Execute {
                        self.enter(ci, *body);
                    }
                } else {
                    self.cpus[ci].frames.push(Frame::CritP {
                        lock: *lock,
                        body: *body,
                        stage: 0,
                    });
                }
            }
            FNode::Sections(_) => {
                let enc = self.cpus[ci].sections_seen;
                self.cpus[ci].sections_seen += 1;
                self.cpus[ci].frames.push(Frame::SectionsP {
                    node,
                    enc,
                    stage: 0,
                });
            }
            FNode::Flush => {
                // Hardware-coherent machine: flush maps to void; the
                // A-stream skips it entirely.
                if !role_a {
                    self.busy(ci, 1, TimeClass::Busy);
                }
            }
            FNode::Io { input, bytes } => {
                self.cpus[ci].frames.push(Frame::IoP {
                    input: *input,
                    bytes: *bytes,
                    stage: 0,
                });
            }
        }
    }

    /// True when the stepper must return control to `run_cpu` between
    /// batched micro-steps: the exact disjunction of `run_cpu`'s loop
    /// checks (max-cycles trip, time-order yield, pending OS interrupt),
    /// so batching never moves a scheduling decision.
    fn must_bail(&self, ci: usize) -> bool {
        let now = self.cpus[ci].timeline.now();
        if now > self.cfg.max_cycles {
            return true;
        }
        if let Some(h) = self.q.peek_time() {
            if now > h {
                return true;
            }
        }
        if self.cfg.os_noise.is_some() && now >= self.cpus[ci].next_interrupt {
            return true;
        }
        false
    }

    /// A-stream shared store: convert to a read-exclusive prefetch when in
    /// the same barrier session as the R-stream and an MSHR is free;
    /// otherwise skip (paper Section 5.1).
    fn a_shared_store(&mut self, ci: usize, addr: Addr) {
        let store_seq = self.cpus[ci].stores_converted + self.cpus[ci].stores_skipped;
        let convert = self.cfg.policy.convert_shared_stores
            && self
                .pair_of(ci)
                .map(|p| self.pairs[p].same_session())
                .unwrap_or(false)
            && {
                let cmp = CpuId(ci).cmp(&self.cfg.machine);
                let now = self.cpus[ci].timeline.now();
                self.ms.mshr_free(cmp, now)
            };
        if convert {
            self.cpus[ci].stores_converted += 1;
            let mut target = addr;
            if let Some(p) = self.pair_of(ci) {
                let tid = self.pairs[p].ledger.tid;
                if let Some(ev) = self.fault_at(ci, FaultSite::AStore, tid, store_seq) {
                    if ev.kind == FaultKind::StalePrefetch {
                        // Failed self-invalidation: the prefetch lands on
                        // the pair's decision line instead of the intended
                        // one, polluting the cache with a stale line. R's
                        // correctness is unaffected; the pair just loses
                        // the prefetch benefit.
                        target = self.pairs[p].decision_addr;
                    }
                }
            }
            self.mem(ci, target, AccessKind::PrefetchEx, TimeClass::Busy);
        } else {
            self.cpus[ci].stores_skipped += 1;
            self.busy(ci, 1, TimeClass::Busy);
        }
    }

    // --------------------------------------------------------- stepping --

    /// Execute protocol steps for `ci` until it parks, finishes, or runs
    /// past the next pending event. A CPU that runs past it yields: it
    /// returns its wake time for `pump` to queue, which is always later
    /// than the earliest pending event. Returns `Err` on watchdog trip.
    pub(super) fn run_cpu(&mut self, ci: usize) -> Result<Option<Cycle>, String> {
        // Account the time spent parked.
        let t = self.cpus[ci].next_wake;
        if let Some(class) = self.cpus[ci].pending_class.take() {
            self.cpus[ci].timeline.advance_to(t, class);
        }
        let mut steps: u64 = 0;
        loop {
            steps += 1;
            if steps > 50_000_000 {
                return Err(format!("cpu {ci} made no blocking progress (livelock?)"));
            }
            if self.cpus[ci].status != Status::Ready {
                return Ok(None); // parked by the step
            }
            if self.cpus[ci].frames.is_empty() {
                self.cpus[ci].status = Status::Done;
                if self.cpus[ci].tid as usize == MASTER && !self.is_a(ci) {
                    self.master_done = true;
                }
                return Ok(None);
            }
            if self.cpus[ci].timeline.now() > self.cfg.max_cycles {
                return Err(format!(
                    "cpu {ci} exceeded max_cycles={} (deadlock or runaway kernel)",
                    self.cfg.max_cycles
                ));
            }
            // Yield once we have advanced past the next pending event so
            // other processors observe memory in time order.
            if let Some(h) = self.q.peek_time() {
                let now = self.cpus[ci].timeline.now();
                if now > h {
                    self.cpus[ci].next_wake = now;
                    return Ok(Some(now));
                }
            }
            // OS interference: steal a slice when the quantum expires.
            if let Some(noise) = self.cfg.os_noise {
                let now = self.cpus[ci].timeline.now();
                if now >= self.cpus[ci].next_interrupt {
                    self.cpus[ci]
                        .timeline
                        .busy(noise.slice_cycles, TimeClass::Os);
                    let jitter = SplitMix64::new(noise.seed ^ now ^ ((ci as u64) << 32)).next_u64()
                        % (noise.quantum_cycles / 4).max(1);
                    self.cpus[ci].next_interrupt =
                        now + noise.slice_cycles + noise.quantum_cycles + jitter
                            - noise.quantum_cycles / 8;
                }
            }
            self.step_once(ci);
        }
    }

    /// Run one step of `ci`'s top frame. `Seq`, `For` and `ChunkIter`
    /// frames step in place: the cursor advances before a child is
    /// entered, so the stack is what popping the frame and pushing the
    /// advanced copy would leave, and the frame is popped by the step
    /// that finds its loop finished. Every other frame is popped and run.
    fn step_once(&mut self, ci: usize) {
        match *self.cpus[ci].frames.last().expect("step with no frames") {
            Frame::Seq { node, idx } => {
                let cp = self.cp;
                let (first, len) = match cp.ops[node.0 as usize] {
                    Op::Seq { first, len } => (first as usize, len as usize),
                    _ => {
                        // Normalized singleton (non-Seq root).
                        if idx == 0 {
                            *self.top_frame(ci) = Frame::Seq { node, idx: 1 };
                            self.enter(ci, node);
                        } else {
                            self.cpus[ci].frames.pop();
                        }
                        return;
                    }
                };
                // Runs of consecutive compute children retire in one
                // step, re-checking the scheduler's bail conditions
                // between each so every yield point of the unbatched
                // stepper is preserved exactly.
                let mut i = idx;
                while i < len {
                    let kid = cp.kids[first + i];
                    if !self.compute(ci, cp.ops[kid.0 as usize], 0) {
                        *self.top_frame(ci) = Frame::Seq { node, idx: i + 1 };
                        self.enter(ci, kid);
                        return;
                    }
                    i += 1;
                    if i < len && self.must_bail(ci) {
                        *self.top_frame(ci) = Frame::Seq { node, idx: i };
                        return;
                    }
                }
                self.cpus[ci].frames.pop();
            }
            Frame::For {
                var,
                cur,
                end,
                step,
                body,
            } => {
                if cur >= end {
                    self.cpus[ci].frames.pop();
                    return;
                }
                let overhead = self.cfg.machine.loop_overhead_cycles;
                self.cpus[ci].vars[var.0 as usize] = cur;
                if step > 0 {
                    // A compute-only body iterates natively: the same per-
                    // iteration busy cycles and induction-variable updates,
                    // with the scheduler's bail conditions checked between
                    // iterations (a zero step falls through so the livelock
                    // guard still sees it).
                    let op = self.cp.ops[body.0 as usize];
                    // Injected bug class: the batched loop's exit check is
                    // off by one, retiring one extra iteration whenever the
                    // induction variable lands exactly on the bound.
                    let stop_at = if self.cfg.mutation == EngineMutation::BatchBailOffByOne {
                        end.saturating_add(1)
                    } else {
                        end
                    };
                    let mut cur = cur;
                    while self.compute(ci, op, overhead) {
                        cur += step as i64;
                        if cur >= stop_at {
                            self.cpus[ci].frames.pop();
                            return;
                        }
                        if self.must_bail(ci) {
                            *self.top_frame(ci) = Frame::For {
                                var,
                                cur,
                                end,
                                step,
                                body,
                            };
                            return;
                        }
                        self.cpus[ci].vars[var.0 as usize] = cur;
                    }
                }
                *self.top_frame(ci) = Frame::For {
                    var,
                    cur: cur + step as i64,
                    end,
                    step,
                    body,
                };
                self.busy(ci, overhead, TimeClass::Busy);
                self.enter(ci, body);
            }
            Frame::ChunkIter { .. } => self.step_chunks(ci),
            _ => self.step_protocol(ci),
        }
    }

    /// The frame `ci` is stepping in place.
    fn top_frame(&mut self, ci: usize) -> &mut Frame {
        self.cpus[ci]
            .frames
            .last_mut()
            .expect("step with no frames")
    }

    /// Step the `ChunkIter` frame on top of `ci`'s stack in place: enter
    /// the body at the next iteration, moving across chunks, or pop the
    /// frame once every chunk is done.
    fn step_chunks(&mut self, ci: usize) {
        let Frame::ChunkIter {
            var,
            chunks,
            ci: cidx,
            cur,
            body,
        } = self.top_frame(ci)
        else {
            unreachable!("step_chunks on a non-ChunkIter frame");
        };
        // `cur` starts at i64::MIN so the first iteration is chunk.lo.
        while let Some(ch) = chunks.get(*cidx) {
            let v = (*cur).max(ch.lo);
            if v < ch.hi {
                *cur = v + 1;
                let (var, body) = (*var, *body);
                self.cpus[ci].vars[var.0 as usize] = v;
                self.busy(ci, self.cfg.machine.loop_overhead_cycles, TimeClass::Busy);
                self.enter(ci, body);
                return;
            }
            *cidx += 1;
            *cur = i64::MIN;
        }
        self.cpus[ci].frames.pop();
    }

    /// Pop a protocol frame off `ci`'s stack and run its step.
    fn step_protocol(&mut self, ci: usize) {
        match self.cpus[ci].frames.pop().expect("step with no frames") {
            Frame::Seq { .. } | Frame::For { .. } | Frame::ChunkIter { .. } => {
                unreachable!("loop frames step in place")
            }
            Frame::LoopEnd { node, stage } => self.loop_end(ci, node, stage),
            Frame::Bar { internal, stage } => self.barrier_step(ci, internal, stage),
            Frame::SingleP { node, enc, stage } => self.single_step(ci, node, enc, stage),
            Frame::SectionsP { node, enc, stage } => self.sections_step(ci, node, enc, stage),
            Frame::DynP { lp, stage } => self.dyn_step(ci, lp, stage),
            Frame::CritP { lock, body, stage } => self.critical_step(ci, lock, body, stage),
            Frame::RedP { node, stage } => self.reduction_step(ci, node, stage),
            Frame::RegionP { node, stage } => self.region_step(ci, node, stage),
            Frame::RegionEndP { stage } => self.region_end_step(ci, stage),
            Frame::PoolWait => self.pool_step(ci),
            Frame::IoP {
                input,
                bytes,
                stage,
            } => self.io_step(ci, input, bytes, stage),
        }
    }
}
