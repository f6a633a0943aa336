//! Construct protocols: barriers, worksharing-loop ends, reduction,
//! critical, single, sections, dynamic/guided/affinity loops, region
//! dispatch, the slave pool and I/O. Each runs as numbered stages of one
//! protocol frame; the A-stream side of each follows the per-construct
//! policy of Section 3.1.

use super::{DynLoop, Engine, Frame, Status, MASTER};
use crate::compile::{FNode, NodeId};
use crate::pairing::Decision;
use crate::policy::AAction;
use dsm_sim::{AccessKind, Barrier, CpuId, Lock, TimeClass};
use omp_ir::wsloop::Chunk;
use omp_rt::constructs::ConstructArena;
use omp_rt::mode::{resolve_region, ExecMode, RegionSlip};
use omp_rt::schedule::{AffinityState, ResolvedSchedule};
use sim_trace::TraceEvent;

/// Busy cycles of scheduler arithmetic per dynamic grab (on top of the
/// lock and counter traffic).
const DYNAMIC_SCHED_CYCLES: u64 = 6;
/// Fixed busy cycles per I/O operation.
const IO_FIXED_CYCLES: u64 = 2000;
/// Additional busy cycles per 8 bytes of I/O.
const IO_CYCLES_PER_8_BYTES: u64 = 1;

impl Engine<'_> {
    /// The region-end barrier if `internal`, else the construct barrier.
    fn barrier(&self, internal: bool) -> &Barrier {
        if internal {
            &self.region_barrier
        } else {
            &self.construct_barrier
        }
    }

    /// Mutable [`Engine::barrier`].
    fn barrier_mut(&mut self, internal: bool) -> &mut Barrier {
        if internal {
            &mut self.region_barrier
        } else {
            &mut self.construct_barrier
        }
    }

    /// Push a construct's implicit (or an explicit) construct barrier.
    pub(super) fn push_barrier(&mut self, ci: usize) {
        self.cpus[ci].frames.push(Frame::Bar {
            internal: false,
            stage: 0,
        });
    }

    /// Barrier protocol. Stages: 0 = entry (A: token consume; R: local
    /// token insert + arrive), 1 = A woken with a granted token,
    /// 2 = R woken by release (post-wait flag load + global token insert).
    pub(super) fn barrier_step(&mut self, ci: usize, internal: bool, stage: u8) {
        let role_a = self.is_a(ci);
        if role_a && !internal {
            // With slipstream off for the region (or the pair demoted) the
            // A-stream skips construct barriers without tokens.
            if self.slip_on(ci).is_some() {
                self.a_barrier(ci, stage);
            }
            return;
        }

        // R-stream or solo (or any stream at an internal barrier).
        match stage {
            0 => {
                if !internal {
                    // The check can demote the pair, which then inserts no
                    // token.
                    self.check_divergence(ci);
                    self.insert_token(ci, false);
                }
                // Arrive: fetch-and-increment of the barrier counter — a
                // read-modify-write that migrates the line to this node.
                let bar_addr = self.barrier(internal).addr;
                self.mem(ci, bar_addr, AccessKind::Load, TimeClass::Barrier);
                self.mem(ci, bar_addr, AccessKind::Store, TimeClass::Barrier);
                self.cpus[ci].timeline.stats.barriers += 1;
                self.trace(ci, |e| {
                    let bar = e.barrier(internal);
                    TraceEvent::BarrierArrive {
                        addr: bar_addr,
                        generation: bar.generation(),
                        arrived: bar.arrived() as u32 + 1,
                        total: bar.total() as u32,
                    }
                });
                match self.barrier_mut(internal).arrive(CpuId(ci)) {
                    Some(waiters) => {
                        let t = self.cpus[ci].timeline.now();
                        self.trace(ci, |e| TraceEvent::BarrierRelease {
                            addr: bar_addr,
                            generation: e.barrier(internal).generation(),
                            woken: waiters.len() as u32,
                        });
                        for w in waiters {
                            self.wake(w, t);
                        }
                        // The releasing arriver proceeds directly.
                        self.barrier_exit(ci, internal, false);
                    }
                    None => {
                        self.cpus[ci].frames.push(Frame::Bar { internal, stage: 2 });
                        self.park(ci, TimeClass::Barrier);
                        if internal && !role_a {
                            // R-streams waiting at the region-end barrier
                            // arm the divergence watchdog: a stranded
                            // A-stream would otherwise deadlock the team.
                            let now = self.cpus[ci].timeline.now();
                            self.arm_watchdog(ci, now);
                        }
                    }
                }
            }
            2 => {
                // Woken by the release: re-read the flag line (it was
                // invalidated by the releasing store).
                self.barrier_exit(ci, internal, true);
            }
            _ => unreachable!("barrier stage"),
        }
    }

    fn barrier_exit(&mut self, ci: usize, internal: bool, reload_flag: bool) {
        // Global sync: the token is inserted "before exiting the barrier"
        // (paper Section 2.2) — at release detection, ahead of the
        // R-stream's own exit path (flag re-read, pipeline resumption), so
        // the A-stream gets a head start of the R-stream's exit overhead.
        if !internal {
            self.insert_token(ci, true);
        }
        if reload_flag {
            let addr = self.barrier(internal).addr;
            self.mem(ci, addr, AccessKind::Load, TimeClass::Barrier);
        }
    }

    /// Worksharing loop end: reduction combine, then the implicit barrier
    /// unless `nowait`.
    pub(super) fn loop_end(&mut self, ci: usize, node: NodeId, stage: u8) {
        let (has_reduction, nowait) = match self.cp.node(node) {
            FNode::ParFor {
                reduction, nowait, ..
            } => (reduction.is_some(), *nowait),
            _ => unreachable!("LoopEnd on non-ParFor"),
        };
        match stage {
            0 => {
                self.cpus[ci].frames.push(Frame::LoopEnd { node, stage: 1 });
                // Policy: the A-stream runs reduction bodies as user code
                // but skips the shared combine.
                if has_reduction
                    && (!self.is_a(ci) || self.cfg.policy.reduction_combine == AAction::Execute)
                {
                    self.cpus[ci].frames.push(Frame::RedP { node, stage: 0 });
                }
            }
            1 => {
                if !nowait {
                    self.push_barrier(ci);
                }
            }
            _ => unreachable!("loop_end stage"),
        }
    }

    /// Reduction combine of the `ParFor` at `node`: serialize through the
    /// reduction lock and update the shared target cell.
    pub(super) fn reduction_step(&mut self, ci: usize, node: NodeId, stage: u8) {
        let lock = self.reduction_lock.addr;
        match stage {
            0 => {
                // Acquire the reduction lock.
                self.mem(ci, lock, AccessKind::Store, TimeClass::Lock);
                let granted = self.reduction_lock.acquire(CpuId(ci));
                self.cpus[ci].frames.push(Frame::RedP { node, stage: 1 });
                if !granted {
                    self.park(ci, TimeClass::Lock);
                }
            }
            1 => {
                // Combine: load target, apply op, store target, release.
                let cp = self.cp;
                let FNode::ParFor {
                    reduction: Some(red),
                    ..
                } = cp.node(node)
                else {
                    unreachable!("RedP on a ParFor without a reduction")
                };
                let idx = self.eval(ci, &red.index);
                let addr = self.element_addr(ci, red.target, idx);
                self.mem(ci, addr, AccessKind::Load, TimeClass::MemStall);
                self.busy(ci, 3, TimeClass::Busy);
                self.mem(ci, addr, AccessKind::Store, TimeClass::MemStall);
                self.mem(ci, lock, AccessKind::Store, TimeClass::Lock);
                let next = self.reduction_lock.release(CpuId(ci));
                let t = self.cpus[ci].timeline.now();
                if let Some(w) = next {
                    self.wake(w, t);
                }
            }
            _ => unreachable!("reduction stage"),
        }
    }

    /// Critical section: 0 = acquire (entering the body, or parking),
    /// 2 = woken as the new holder, 1 = body done, release.
    pub(super) fn critical_step(&mut self, ci: usize, lock: usize, body: NodeId, stage: u8) {
        let addr = self.critical_locks[lock].addr;
        match stage {
            0 => {
                self.mem(ci, addr, AccessKind::Store, TimeClass::Lock);
                let granted = self.critical_locks[lock].acquire(CpuId(ci));
                // On wake the lock is already ours; stage 2 re-reads the
                // lock line then runs the body.
                self.cpus[ci].frames.push(Frame::CritP {
                    lock,
                    body,
                    stage: if granted { 1 } else { 2 },
                });
                if granted {
                    self.enter(ci, body);
                } else {
                    self.park(ci, TimeClass::Lock);
                }
            }
            2 => {
                self.mem(ci, addr, AccessKind::Load, TimeClass::Lock);
                self.cpus[ci].frames.push(Frame::CritP {
                    lock,
                    body,
                    stage: 1,
                });
                self.enter(ci, body);
            }
            1 => {
                self.mem(ci, addr, AccessKind::Store, TimeClass::Lock);
                let next = self.critical_locks[lock].release(CpuId(ci));
                let t = self.cpus[ci].timeline.now();
                if let Some(w) = next {
                    self.wake(w, t);
                }
            }
            _ => unreachable!("critical stage"),
        }
    }

    pub(super) fn single_step(&mut self, ci: usize, node: NodeId, enc: usize, stage: u8) {
        let body = match self.cp.node(node) {
            FNode::Single(b) => *b,
            _ => unreachable!("SingleP on non-Single"),
        };
        if self.is_a(ci) && self.slip_on(ci).is_some() {
            // Skip the body; the implicit end barrier is a construct
            // barrier (token consume).
            self.push_barrier(ci);
            return;
        }
        match stage {
            0 => {
                // Claim via an atomic on the single's flag line.
                let line = self.get_single_line(enc);
                self.mem(ci, line, AccessKind::Store, TimeClass::Scheduling);
                let won = self.arena.single(enc).claim();
                self.cpus[ci].frames.push(Frame::SingleP {
                    node,
                    enc,
                    stage: 1,
                });
                if won {
                    self.enter(ci, body);
                }
            }
            // Implicit end barrier.
            1 => self.push_barrier(ci),
            _ => unreachable!("single stage"),
        }
    }

    pub(super) fn sections_step(&mut self, ci: usize, node: NodeId, enc: usize, stage: u8) {
        let cp = self.cp;
        let FNode::Sections(secs) = cp.node(node) else {
            unreachable!("SectionsP on non-Sections")
        };
        if self.is_a(ci) && self.slip_on(ci).is_some() {
            // A-stream mirrors its R-stream's claimed sections through the
            // pair semaphore (dynamic assignment ⇒ SyncWithR).
            if self.cfg.policy.sections != AAction::SyncWithR {
                // Ablation: skip sections entirely.
                self.push_barrier(ci);
                return;
            }
            match stage {
                0 => self.a_await_decision(
                    ci,
                    Frame::SectionsP {
                        node,
                        enc,
                        stage: 1,
                    },
                ),
                1 => match self.a_take_decision(ci) {
                    (p, Some(Decision::Section(s))) if s < secs.len() => {
                        let daddr = self.pairs[p].decision_addr;
                        self.mem(ci, daddr, AccessKind::Load, TimeClass::Busy);
                        self.cpus[ci].frames.push(Frame::SectionsP {
                            node,
                            enc,
                            stage: 0,
                        });
                        self.enter(ci, secs[s]);
                    }
                    (_, Some(Decision::End)) => self.push_barrier(ci),
                    // Empty queue (lost signal) or a decision that makes
                    // no sense here (corruption): the A-stream can no
                    // longer follow its R-stream. Diverge; the R-stream
                    // recovers it at its next barrier check.
                    (p, _) => self.a_diverge(ci, p),
                },
                _ => unreachable!("A sections stage"),
            }
            return;
        }
        debug_assert_eq!(stage, 0, "sections stage");
        // Grab the next section index.
        let line = self.get_sections_line(enc);
        self.mem(ci, line, AccessKind::Store, TimeClass::Scheduling);
        match self.arena.sections(enc).claim(secs.len()) {
            Some(s) => {
                self.publish_decision(ci, Decision::Section(s));
                self.cpus[ci].frames.push(Frame::SectionsP {
                    node,
                    enc,
                    stage: 0,
                });
                self.enter(ci, secs[s]);
            }
            None => {
                self.publish_decision(ci, Decision::End);
                self.push_barrier(ci);
            }
        }
    }

    /// The scheduler lock `ci` grabs `lp`'s chunks under: its own queue's
    /// lock for affinity (node-local in the common case), the loop's
    /// shared counter lock otherwise.
    fn sched_lock(&mut self, ci: usize, lp: &DynLoop) -> &mut Lock {
        if lp.sched.is_affinity() {
            &mut self.affinity_locks[lp.enc][self.cpus[ci].tid as usize]
        } else {
            &mut self.sched_locks[lp.enc]
        }
    }

    /// Push `lp`'s frame at `stage` beneath one pass over chunk `c`.
    fn push_chunk(&mut self, ci: usize, lp: DynLoop, stage: u8, c: Chunk) {
        let FNode::ParFor { var, body, .. } = self.cp.node(lp.node) else {
            unreachable!("DynP on non-ParFor")
        };
        let frames = &mut self.cpus[ci].frames;
        frames.push(Frame::DynP { lp, stage });
        frames.push(Frame::ChunkIter {
            var: *var,
            chunks: vec![c],
            ci: 0,
            cur: i64::MIN,
            body: *body,
        });
    }

    /// Dynamic/guided/affinity loop protocol.
    ///
    /// R/solo stages: 0 = acquire the scheduler lock (or park), 2 = woken
    /// as lock holder, 1 = grab a chunk under the lock, release, and run
    /// the chunk before returning to 0.
    /// A-stream stages: 10 = wait on the pair semaphore, 11 = consume the
    /// decision.
    pub(super) fn dyn_step(&mut self, ci: usize, lp: DynLoop, stage: u8) {
        if self.is_a(ci) && self.slip_on(ci).is_some() {
            match stage {
                // Wait for the R-stream's scheduling decision (the syscall
                // hardware semaphore of Section 3.2.2).
                0 | 10 => self.a_await_decision(ci, Frame::DynP { lp, stage: 11 }),
                11 => match self.a_take_decision(ci) {
                    (p, Some(Decision::Chunk(c))) => {
                        let daddr = self.pairs[p].decision_addr;
                        self.mem(ci, daddr, AccessKind::Load, TimeClass::Busy);
                        self.push_chunk(ci, lp, 10, c);
                    }
                    (_, Some(Decision::End)) => {} // fall through to LoopEnd
                    // Lost signal or corrupted decision: diverge and wait
                    // for the R-stream to recover this pair.
                    (p, _) => self.a_diverge(ci, p),
                },
                _ => unreachable!("A dyn stage"),
            }
            return;
        }

        match stage {
            0 => {
                let addr = self.sched_lock(ci, &lp).addr;
                self.mem(ci, addr, AccessKind::Store, TimeClass::Scheduling);
                let granted = self.sched_lock(ci, &lp).acquire(CpuId(ci));
                self.cpus[ci].frames.push(Frame::DynP {
                    lp,
                    stage: if granted { 1 } else { 2 },
                });
                if !granted {
                    self.park(ci, TimeClass::Scheduling);
                }
            }
            2 => {
                // Woken as lock holder: re-read the lock line.
                let addr = self.sched_lock(ci, &lp).addr;
                self.mem(ci, addr, AccessKind::Load, TimeClass::Scheduling);
                self.cpus[ci].frames.push(Frame::DynP { lp, stage: 1 });
            }
            1 => {
                // Holding the lock: read and update the scheduler state.
                // The lock word and counter share a cache line (one
                // migration per grab brings both), so the counter accesses
                // hit in the L1 after the acquire.
                let addr = self.sched_lock(ci, &lp).addr;
                self.mem(ci, addr, AccessKind::Load, TimeClass::Scheduling);
                self.busy(ci, DYNAMIC_SCHED_CYCLES, TimeClass::Scheduling);
                let team = self.layout.team_size();
                let next = if let ResolvedSchedule::Affinity(chunk) = lp.sched {
                    // Lazy init of the per-thread queues.
                    let queues = self.arena.affinity_loop(lp.enc);
                    if !queues.is_initialized() {
                        let n = omp_ir::wsloop::trip_count(lp.lo, lp.hi, 1);
                        *queues = AffinityState::init(n, team);
                    }
                    let grab = queues.next_chunk(self.cpus[ci].tid, chunk, lp.lo, 1);
                    if let Some(g) = grab.filter(|g| g.stolen) {
                        // Touch the victim's queue line (remote): the cost
                        // of the steal.
                        let vaddr = self.affinity_locks[lp.enc][g.victim as usize].addr;
                        self.mem(ci, vaddr, AccessKind::Load, TimeClass::Scheduling);
                        self.mem(ci, vaddr, AccessKind::Store, TimeClass::Scheduling);
                    }
                    grab.map(|g| g.chunk)
                } else {
                    self.arena
                        .dyn_loop(lp.enc)
                        .next_chunk(lp.sched, lp.lo, lp.hi, 1, team)
                };
                self.mem(ci, addr, AccessKind::Store, TimeClass::Scheduling);
                if !lp.sched.is_affinity() {
                    // The shared lock's release is a store of its own.
                    self.mem(ci, addr, AccessKind::Store, TimeClass::Scheduling);
                }
                let woken = self.sched_lock(ci, &lp).release(CpuId(ci));
                let t = self.cpus[ci].timeline.now();
                if let Some(w) = woken {
                    self.wake(w, t);
                }
                match next {
                    Some(c) => {
                        self.publish_decision(ci, Decision::Chunk(c));
                        self.push_chunk(ci, lp, 0, c);
                    }
                    // Fall through to LoopEnd (reduction + barrier).
                    None => self.publish_decision(ci, Decision::End),
                }
            }
            _ => unreachable!("dyn stage"),
        }
    }

    /// Start the region `body` on `ci` (R-master, A-master or pool
    /// slave): take the job, reset the per-region encounter counters,
    /// and push the region-end protocol beneath the body. An A-stream
    /// skips the body when slipstream is off for the region or its pair
    /// is demoted.
    fn enter_region(&mut self, ci: usize, body: NodeId) {
        self.cpus[ci].jobs_taken += 1;
        self.cpus[ci].reset_encounters();
        self.cpus[ci].frames.push(Frame::RegionEndP { stage: 0 });
        let skip_body =
            self.is_a(ci) && (self.region_slip == RegionSlip::Off || self.pair_demoted(ci));
        if !skip_body {
            self.enter(ci, body);
        }
    }

    /// Master's path through a `Parallel` node.
    ///
    /// R-master (stage 0): resolve slipstream, configure region state,
    /// dispatch the job to the pool, publish RegionGo to its A-stream, and
    /// enter the body. A-master: wait for RegionGo (stages 0/1), then
    /// enter. The matching region-end barrier is pushed beneath the body.
    pub(super) fn region_step(&mut self, ci: usize, node: NodeId, stage: u8) {
        let (body, clause) = match self.cp.node(node) {
            FNode::Parallel { body, slipstream } => (*body, *slipstream),
            _ => unreachable!("RegionP on non-Parallel"),
        };

        if self.is_a(ci) {
            // The A-master may run ahead of its R-master in serial code;
            // it must not enter the region before the R-master configures
            // it. Synchronize through the pair semaphore.
            match stage {
                0 => self.a_await_decision(ci, Frame::RegionP { node, stage: 1 }),
                1 => match self.a_take_decision(ci) {
                    (_, Some(Decision::RegionGo)) => self.enter_region(ci, body),
                    // Lost or corrupted region-go handshake: the A-master
                    // cannot enter the region. Diverge; the watchdog
                    // reseeds it at the region end.
                    (p, _) => self.a_diverge(ci, p),
                },
                _ => unreachable!("A-master region stage"),
            }
            return;
        }

        debug_assert_eq!(stage, 0);
        let resolved = if self.cfg.mode != ExecMode::Slipstream {
            RegionSlip::Off
        } else {
            resolve_region(clause, self.global_slip, self.cfg.env.slipstream)
        };

        // R-master configures shared region state exactly once.
        self.region_slip = resolved;
        self.current_region = Some(body);
        self.sched_grabs_total += self.arena.total_grabs();
        self.sched_steals_total += self.arena.total_steals();
        self.arena = ConstructArena::new();
        self.sched_locks.clear();
        self.affinity_locks.clear();
        self.single_lines.clear();
        self.sections_lines.clear();
        if let RegionSlip::On(sync) = resolved {
            for p in &mut self.pairs {
                // A fresh region restarts token allocation (Fig. 1).
                p.start_region(sync);
            }
        }
        // Dispatch: one store to the job flag; every pool slave wakes and
        // re-reads the flag line.
        self.job_gen += 1;
        self.mem(ci, self.job_flag, AccessKind::Store, TimeClass::Scheduling);
        let t = self.cpus[ci].timeline.now();
        let pool: Vec<CpuId> = (0..self.cpus.len())
            .filter(|i| self.cpus[*i].status == Status::PoolIdle)
            .map(CpuId)
            .collect();
        for w in pool {
            self.wake(w, t);
        }
        // Release the A-master into the region.
        if self.cfg.mode == ExecMode::Slipstream {
            if let Some(p) = self.pair_of(ci) {
                self.publish_pair(ci, p, Decision::RegionGo);
            }
        }
        self.enter_region(ci, body);
    }

    /// Region-end internal barrier; slaves then return to the pool.
    pub(super) fn region_end_step(&mut self, ci: usize, stage: u8) {
        match stage {
            0 => {
                // Recover a diverged A-stream before it deadlocks the
                // internal barrier. The clone must include this region-end
                // step itself, so the recovered A-stream arrives at the
                // barrier like everyone else.
                if !self.is_a(ci) {
                    if let Some(p) = self.pair_of(ci) {
                        if self.pairs[p].diverged {
                            self.cpus[ci].frames.push(Frame::RegionEndP { stage: 0 });
                            self.recover_astream(ci, p);
                            self.cpus[ci].frames.pop();
                        }
                    }
                }
                self.cpus[ci].frames.push(Frame::RegionEndP { stage: 1 });
                self.cpus[ci].frames.push(Frame::Bar {
                    internal: true,
                    stage: 0,
                });
            }
            1 => {
                // Past the barrier. Slaves go back to the pool; masters
                // continue with serial code.
                if self.cpus[ci].tid as usize != MASTER {
                    self.cpus[ci].frames.clear();
                    self.cpus[ci].frames.push(Frame::PoolWait);
                }
            }
            _ => unreachable!("region end stage"),
        }
    }

    /// Slave pool loop: wait for a job generation, then run the region.
    pub(super) fn pool_step(&mut self, ci: usize) {
        if self.cpus[ci].jobs_taken < self.job_gen {
            // A job is (or became) available. Spin-exit: read the job flag
            // (invalidated by the master's dispatch store).
            self.mem(ci, self.job_flag, AccessKind::Load, TimeClass::JobWait);
            let body = self.current_region.expect("dispatch without a region");
            self.enter_region(ci, body);
        } else {
            let c = &mut self.cpus[ci];
            c.frames.push(Frame::PoolWait);
            c.status = Status::PoolIdle;
            c.park_class = TimeClass::JobWait;
        }
    }

    /// I/O protocol: never executed by the A-stream; inputs synchronize
    /// the pair through the scheduling semaphore.
    pub(super) fn io_step(&mut self, ci: usize, input: bool, bytes: u64, stage: u8) {
        if self.is_a(ci) {
            if !input || self.cfg.mode != ExecMode::Slipstream {
                return; // outputs (and non-slipstream) are simply skipped
            }
            // Wait for the R-stream's IoDone. Unlike the other handshakes,
            // a granted wait consumes the decision in the same step.
            if stage == 0 {
                let p = self.pair_of(ci).expect("A-stream without pair");
                self.busy(ci, self.cfg.machine.pair_register_cycles, TimeClass::Busy);
                if !self.pairs[p].sched_sem.wait(CpuId(ci)) {
                    self.cpus[ci].frames.push(Frame::IoP {
                        input,
                        bytes,
                        stage: 1,
                    });
                    self.park(ci, TimeClass::AStreamWait);
                    self.arm_token_wait(ci, p);
                    return;
                }
            }
            let (p, d) = self.a_take_decision(ci);
            if d != Some(Decision::IoDone) {
                self.a_diverge(ci, p);
            }
            return;
        }
        // R/solo: charge the I/O latency, then release the A-stream for
        // inputs.
        if input {
            self.cpus[ci].user.io_in += 1;
        } else {
            self.cpus[ci].user.io_out += 1;
        }
        let cost = IO_FIXED_CYCLES + (bytes / 8) * IO_CYCLES_PER_8_BYTES;
        self.busy(ci, cost, TimeClass::Busy);
        if input && self.cfg.mode == ExecMode::Slipstream {
            if let Some(p) = self.pair_of(ci) {
                self.publish_pair(ci, p, Decision::IoDone);
            }
        }
    }
}
