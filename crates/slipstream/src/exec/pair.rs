//! The slipstream pair protocol: token insertion and consumption (Figure
//! 1), the R→A scheduling-decision handshake (Section 3.2.2), and the
//! recovery ladder for a diverged A-stream — the slack check, re-seeding,
//! demotion after the retry budget, the region-end watchdog and the
//! token-wait timeout.

use super::{Engine, EngineMutation, Frame, Status};
use crate::faults::{FaultKind, FaultSite};
use crate::pairing::Decision;
use crate::policy::RecoveryPolicy;
use dsm_sim::{AccessKind, CpuId, Cycle, TimeClass};
use omp_rt::mode::PairMode;
use sim_trace::TraceEvent;

impl Engine<'_> {
    /// Trace an A–R lead-distance sample for pair `p` on `ci`'s track
    /// (recorded at every epoch boundary so the exporter can draw a
    /// per-pair lead counter track).
    fn trace_lead(&mut self, ci: usize, p: usize) {
        self.trace(ci, |e| TraceEvent::Lead {
            pair: p as u32,
            lead: e.pairs[p].lead(),
        });
    }

    /// Pair `p`'s semaphore count as a trace event carries it: a count
    /// past `i64::MAX` (a huge initial allocation) saturates.
    fn traced_token_count(&self, p: usize) -> i64 {
        i64::try_from(self.pairs[p].tokens.count()).unwrap_or(i64::MAX)
    }

    // ----------------------------------------------------------- tokens --

    /// R-stream side of a construct barrier: with slipstream on, insert
    /// the pair's token at barrier entry (local sync, `at_exit` false) or
    /// exit (global sync, `at_exit` true), wake the A-stream if it was
    /// waiting, and advance the R epoch. Fault hook: `TokenLoss` drops the
    /// signal, `TokenDup` doubles it.
    pub(super) fn insert_token(&mut self, ci: usize, at_exit: bool) {
        let Some(p) = self.pair_of(ci) else { return };
        if self.slip_on(ci).is_none_or(|sync| sync.global != at_exit) {
            return;
        }
        self.busy(ci, self.cfg.machine.pair_register_cycles, TimeClass::Busy);
        let tid = self.pairs[p].ledger.tid;
        let seq = self.pairs[p].token_seq;
        self.pairs[p].token_seq = seq.wrapping_add(1);
        let mut fault = self
            .fault_at(ci, FaultSite::TokenInsert, tid, seq)
            .map(|e| e.kind);
        if self.cfg.mutation == EngineMutation::TokenAccounting && seq % 2 == 1 {
            // Injected bug class: every second pair-register write is
            // dropped, exactly like a deterministic TokenLoss.
            fault = Some(FaultKind::TokenLoss);
        }
        let woken = match fault {
            // The pair-register write is lost: the semaphore never sees
            // the insertion, so the A-stream may strand on an empty
            // semaphore. The barrier watchdog is the backstop.
            Some(FaultKind::TokenLoss) => None,
            // Replayed write: a second token lets the A-stream run one
            // session further ahead than the policy allows. The slack
            // heuristic at the next R barrier spots it.
            Some(FaultKind::TokenDup) => {
                let woken = self.pairs[p].tokens.signal();
                woken.or(self.pairs[p].tokens.signal())
            }
            _ => self.pairs[p].tokens.signal(),
        };
        self.trace(ci, |e| TraceEvent::TokenInsert {
            pair: p as u32,
            seq,
            count: e.traced_token_count(p),
            lost: fault == Some(FaultKind::TokenLoss),
        });
        if let Some(a_cpu) = woken {
            let t = self.cpus[ci].timeline.now();
            self.wake(a_cpu, t);
        }
        self.pairs[p].bump_r_epoch();
        self.trace_lead(ci, p);
    }

    /// A-stream side of a construct barrier: consume a token instead of
    /// arriving. Stage 0 runs the `ABarrier` fault hooks and waits on the
    /// token semaphore, parking when it is empty; stage 1 is the wake
    /// with a granted token.
    pub(super) fn a_barrier(&mut self, ci: usize, stage: u8) {
        let p = self.pair_of(ci).expect("A-stream without pair");
        if stage == 0 {
            let tid = self.cpus[ci].tid;
            let epoch = self.pairs[p].a_epoch;
            match self.fault_at(ci, FaultSite::ABarrier, tid, epoch) {
                Some(ev) if ev.kind == FaultKind::Wander => {
                    // Wander off the control path: diverge and park until
                    // recovered.
                    self.a_diverge(ci, p);
                    return;
                }
                Some(ev) if ev.kind == FaultKind::StallBurst => {
                    // OS preemption burst on the A processor: lose the
                    // cycles, then proceed normally.
                    self.busy(ci, ev.arg, TimeClass::Os);
                }
                _ => {}
            }
            self.busy(ci, self.cfg.machine.pair_register_cycles, TimeClass::Busy);
            if !self.pairs[p].tokens.wait(CpuId(ci)) {
                self.cpus[ci].frames.push(Frame::Bar {
                    internal: false,
                    stage: 1,
                });
                self.trace(ci, |_| TraceEvent::TokenWait { pair: p as u32 });
                self.park(ci, TimeClass::AStreamWait);
                self.arm_token_wait(ci, p);
                return;
            }
        } else {
            debug_assert_eq!(stage, 1, "A-stream barrier stage");
        }
        self.pairs[p].bump_a_epoch();
        self.cpus[ci].timeline.stats.barriers += 1;
        self.trace(ci, |e| TraceEvent::TokenConsume {
            pair: p as u32,
            count: e.traced_token_count(p),
        });
        self.trace_lead(ci, p);
    }

    // -------------------------------------------------------- handshake --

    /// R-stream: publish a scheduling decision for the A-stream (store to
    /// the pair decision line + pair-register signal).
    pub(super) fn publish_decision(&mut self, ci: usize, d: Decision) {
        if self.is_a(ci) || self.slip_on(ci).is_none() {
            return;
        }
        if let Some(p) = self.pair_of(ci) {
            self.publish_pair(ci, p, d);
        }
    }

    /// Publish `d` on pair `p`'s handshake, with the `Publish`-site fault
    /// hooks: `SignalLoss` enqueues the decision but drops the semaphore
    /// signal (the A-stream is never woken for it); `DecisionCorrupt`
    /// delivers a well-formed but wrong decision.
    pub(super) fn publish_pair(&mut self, ci: usize, p: usize, d: Decision) {
        let daddr = self.pairs[p].decision_addr;
        self.mem(ci, daddr, AccessKind::Store, TimeClass::Busy);
        self.busy(ci, self.cfg.machine.pair_register_cycles, TimeClass::Busy);
        let tid = self.pairs[p].ledger.tid;
        let seq = self.pairs[p].publish_seq;
        self.pairs[p].publish_seq = seq.wrapping_add(1);
        let fault = self
            .fault_at(ci, FaultSite::Publish, tid, seq)
            .map(|e| e.kind);
        let d = match (fault, d) {
            (Some(FaultKind::DecisionCorrupt), Decision::RegionGo) => Decision::End,
            (Some(FaultKind::DecisionCorrupt), _) => Decision::RegionGo,
            _ => d,
        };
        let lost = fault == Some(FaultKind::SignalLoss);
        self.trace(ci, |_| TraceEvent::DecisionPublish {
            pair: p as u32,
            seq,
            kind: d.label(),
            lost,
        });
        if lost {
            // The decision reaches the queue but the sched_sem signal is
            // lost: an A-stream parked on the semaphore strands until the
            // watchdog or a slack check recovers it.
            self.pairs[p].decisions.push_back(d);
            return;
        }
        if let Some(a) = self.pairs[p].publish(d) {
            let t = self.cpus[ci].timeline.now();
            self.wake(a, t);
        }
    }

    /// A-stream side of the handshake: wait on the pair's scheduling
    /// semaphore with `next` (the stage that consumes the decision) pushed,
    /// parking with the token-wait timeout armed while nothing is
    /// published.
    pub(super) fn a_await_decision(&mut self, ci: usize, next: Frame) {
        let p = self.pair_of(ci).expect("A-stream without pair");
        self.busy(ci, self.cfg.machine.pair_register_cycles, TimeClass::Busy);
        let granted = self.pairs[p].sched_sem.wait(CpuId(ci));
        self.cpus[ci].frames.push(next);
        if !granted {
            self.park(ci, TimeClass::AStreamWait);
            self.arm_token_wait(ci, p);
        }
    }

    /// A-stream: take the next published decision of `ci`'s pair (after a
    /// granted wait) and trace it. Returns the pair with the decision;
    /// `None` is a lost handshake the caller answers with
    /// [`Engine::a_diverge`].
    pub(super) fn a_take_decision(&mut self, ci: usize) -> (usize, Option<Decision>) {
        let p = self.pair_of(ci).expect("A-stream without pair");
        let d = self.pairs[p].take_decision();
        if let Some(d) = d {
            self.trace(ci, |_| TraceEvent::DecisionConsume {
                pair: p as u32,
                kind: d.label(),
            });
        }
        (p, d)
    }

    /// A-stream handshake failure (lost signal, corrupted or missing
    /// decision): mark the pair diverged and park until the R-stream
    /// re-seeds us. The A-stream is speculative, so giving up on the
    /// handshake is always safe.
    pub(super) fn a_diverge(&mut self, ci: usize, p: usize) {
        self.pairs[p].diverged = true;
        self.park(ci, TimeClass::AStreamWait);
    }

    // --------------------------------------------------------- recovery --

    /// R-stream divergence check at a barrier; recovers the A-stream if
    /// it is known-diverged or tokens have accumulated unconsumed.
    pub(super) fn check_divergence(&mut self, ci: usize) {
        let Some(p) = self.pair_of(ci) else { return };
        if self.slip_on(ci).is_none() {
            return;
        }
        self.busy(ci, 2, TimeClass::Busy); // compare token count
        let suspected = self.pairs[p].diverged
            || self.pairs[p].divergence_suspected(RecoveryPolicy::DIVERGENCE_SLACK);
        if suspected {
            self.recover_astream(ci, p);
        }
    }

    /// Recover pair `p`'s A-stream from R-stream `ci`'s current state, if
    /// the A-stream is actually lost. An A-stream that is ahead and
    /// healthy — parked at the region-end barrier, waiting on a lock, or
    /// already done — must not be re-seeded: yanking it would corrupt
    /// barrier arrival counts or orphan a held lock.
    pub(super) fn recover_astream(&mut self, ci: usize, p: usize) {
        let a_cpu = self.pairs[p].a_cpu;
        let a = &self.cpus[a_cpu.0];
        let lost = match a.status {
            Status::Done | Status::PoolIdle => false,
            // Parked at a barrier or on a lock: it is ahead of R, not lost.
            Status::Parked => matches!(a.park_class, TimeClass::AStreamWait | TimeClass::Recovery),
            Status::Ready => true,
        };
        if !lost || self.a_holds_lock(a_cpu) {
            // Clear the (false) suspicion and move on.
            self.pairs[p].diverged = false;
            return;
        }
        let frames = self.cpus[ci].frames.clone();
        let now = self.cpus[ci].timeline.now();
        self.reseed_astream(ci, p, frames, false, now);
    }

    /// Re-seed pair `p`'s A-stream with the continuation `frames` (cloned
    /// from R-stream `ci`, possibly transformed by the caller), charging
    /// the recovery cost and enforcing the bounded-retry budget. The
    /// recovery ledger distinguishes watchdog-forced recoveries.
    fn reseed_astream(
        &mut self,
        ci: usize,
        p: usize,
        frames: Vec<Frame>,
        watchdog: bool,
        now: Cycle,
    ) {
        let ai = self.pairs[p].a_cpu.0;
        let pair = &mut self.pairs[p];
        // Discard published-but-unconsumed scheduling decisions together
        // with their semaphore tokens, and evict the A-stream from any
        // semaphore queue it is stranded in (a stale waiter entry would
        // hand the re-seeded stream a phantom grant later).
        pair.decisions.clear();
        let _ = pair.sched_sem.force_reset(0);
        let _ = pair.tokens.force_reset(pair.sync.tokens);
        pair.diverged = false;
        pair.ledger.recoveries += 1;
        if watchdog {
            pair.ledger.watchdog_recoveries += 1;
        }
        // Attribute a pending token-wait timeout to this recovery.
        let timeout = std::mem::take(&mut pair.timeout_pending);
        if timeout {
            pair.ledger.timeout_recoveries += 1;
        }
        pair.a_epoch = pair.r_epoch;
        let exhausted =
            !pair.demoted() && pair.ledger.recoveries > self.cfg.recovery.max_recoveries_per_pair;
        self.trace_at(now, ai, |_| TraceEvent::Recovery {
            pair: p as u32,
            watchdog,
            timeout,
        });
        if exhausted {
            // Retrying is judged futile: degrade gracefully instead.
            self.demote_pair(ci, p, now);
            return;
        }
        self.cpus[ai].singles_seen = self.cpus[ci].singles_seen;
        self.cpus[ai].sections_seen = self.cpus[ci].sections_seen;
        self.cpus[ai].dynloops_seen = self.cpus[ci].dynloops_seen;
        self.cpus[ai].jobs_taken = self.cpus[ci].jobs_taken;
        self.restart_astream(ci, p, frames, now);
    }

    /// Demote pair `p` to single-stream mode: the A-stream abandons the
    /// region body and proceeds straight to the region-end barrier (the
    /// team layout counts it there), and the R-stream stops inserting
    /// tokens and publishing decisions for it (`Engine::slip_on`).
    fn demote_pair(&mut self, ci: usize, p: usize, now: Cycle) {
        let ai = self.pairs[p].a_cpu.0;
        self.pairs[p].ledger.mode = PairMode::DegradedSingle;
        self.pairs[p].ledger.demoted_at = Some(now);
        self.trace_at(now, ai, |_| TraceEvent::Demotion { pair: p as u32 });
        // The A-stream's remaining obligation is the region-end barrier.
        // Rebuild its continuation as R's enclosing region-end protocol
        // with the body dropped; a worker A outside any region frame just
        // waits for the end.
        let r_frames = &self.cpus[ci].frames;
        let frames = match r_frames
            .iter()
            .rposition(|f| matches!(f, Frame::RegionEndP { .. }))
        {
            Some(idx) => {
                let mut f = r_frames[..=idx].to_vec();
                f[idx] = Frame::RegionEndP { stage: 0 };
                f
            }
            None => vec![Frame::RegionEndP { stage: 0 }],
        };
        self.restart_astream(ci, p, frames, now);
    }

    /// Restart pair `p`'s A-stream on `frames` with R-stream `ci`'s
    /// variables, after the recovery cost: a parked A-stream wakes once
    /// it is paid; a ready one (e.g. mid-stall-burst with a queued event)
    /// pays it as busy time and runs the new frames at its next dispatch.
    fn restart_astream(&mut self, ci: usize, p: usize, frames: Vec<Frame>, now: Cycle) {
        let a_cpu = self.pairs[p].a_cpu;
        let vars = self.cpus[ci].vars.clone();
        let a = &mut self.cpus[a_cpu.0];
        a.vars = vars;
        a.frames = frames;
        if a.status == Status::Parked {
            a.park_class = TimeClass::Recovery;
            self.wake(a_cpu, now.saturating_add(RecoveryPolicy::RECOVERY_CYCLES));
        } else {
            a.timeline
                .busy(RecoveryPolicy::RECOVERY_CYCLES, TimeClass::Recovery);
        }
    }

    /// R-stream `ri`'s continuation with its top frame rewound to the
    /// region-end barrier's entry, if it is inside that barrier's
    /// protocol: a stuck A-stream re-seeded with it arrives at the
    /// barrier itself.
    fn at_region_end(&self, ri: usize) -> Option<Vec<Frame>> {
        let mut frames = self.cpus[ri].frames.clone();
        match frames.last_mut() {
            Some(top @ Frame::Bar { internal: true, .. }) => {
                *top = Frame::Bar {
                    internal: true,
                    stage: 0,
                };
                Some(frames)
            }
            _ => None,
        }
    }

    /// Arm the barrier watchdog for R-stream `ci`, parked at the
    /// region-end barrier. If the deadline passes while it is still
    /// parked in the same barrier generation, stuck A-streams are forced
    /// through recovery instead of deadlocking the run.
    pub(super) fn arm_watchdog(&mut self, ci: usize, now: Cycle) {
        if self.cfg.recovery.watchdog_cycles == 0 || self.slip_active().is_none() {
            return;
        }
        let deadline = now.saturating_add(self.cfg.recovery.watchdog_cycles);
        self.cpus[ci].watchdog_deadline = Some(deadline);
        self.cpus[ci].watchdog_gen = self.region_barrier.generation();
        self.q.schedule(deadline, CpuId(ci));
    }

    /// Watchdog deadline reached for `ci`. Validate it is still stuck at
    /// the same region-end barrier, then force-recover every stranded
    /// A-stream (token loss / lost signals leave the A parked where no
    /// slack heuristic ever fires).
    pub(super) fn watchdog_fire(&mut self, ci: usize, t: Cycle) {
        self.cpus[ci].watchdog_deadline = None;
        if self.cpus[ci].status != Status::Parked
            || self.cpus[ci].park_class != TimeClass::Barrier
            || self.region_barrier.generation() != self.cpus[ci].watchdog_gen
            || !matches!(
                self.cpus[ci].frames.last(),
                Some(Frame::Bar { internal: true, .. })
            )
        {
            return; // stale: the barrier released in the meantime
        }
        let mut recovered = false;
        for p in 0..self.pairs.len() {
            let a_cpu = self.pairs[p].a_cpu;
            let a = &self.cpus[a_cpu.0];
            // Stuck means: parked somewhere other than this barrier.
            let stuck = a.status == Status::Parked && a.park_class != TimeClass::Barrier;
            if !stuck || self.a_holds_lock(a_cpu) {
                continue;
            }
            // Re-seed only from an R-stream that is itself parked inside
            // the region-end barrier protocol. An R still working through
            // the region makes progress on its own and recovers its A at
            // its next divergence check instead.
            let ri = self.pairs[p].r_cpu.0;
            let Some(frames) = self.at_region_end(ri) else {
                continue;
            };
            self.pairs[p].diverged = true;
            self.reseed_astream(ri, p, frames, true, t);
            recovered = true;
        }
        if !recovered {
            // Nothing was recoverable right now (e.g. A-streams merely
            // slow and still Ready, or their R-streams still mid-region).
            // Re-arm; if the machine is truly wedged the event-queue
            // drain reports the deadlock.
            let progressing = self.cpus.iter().any(|c| c.status == Status::Ready);
            if progressing {
                self.arm_watchdog(ci, t);
            }
        }
    }

    /// Arm the token-wait timeout for A-stream `ci`, just parked on pair
    /// `p`'s token or scheduling semaphore. The deadline backs off
    /// exponentially with the region's consecutive timeout count. One
    /// deadline per park: a normal wake disarms it (`Engine::wake`).
    pub(super) fn arm_token_wait(&mut self, ci: usize, p: usize) {
        if self.pairs[p].demoted() {
            return;
        }
        let Some(len) = self
            .cfg
            .recovery
            .token_wait_deadline(self.pairs[p].wait_timeouts)
        else {
            return;
        };
        let now = self.cpus[ci].timeline.now();
        let deadline = now.saturating_add(len);
        self.cpus[ci].token_wait_deadline = Some(deadline);
        self.q.schedule(deadline, CpuId(ci));
    }

    /// Token-wait deadline reached for A-stream `ci`. Validate it is
    /// still stranded on the pair-semaphore path, then declare divergence
    /// instead of hanging: if its R-stream is already parked at the
    /// region-end barrier (and will never run another divergence check)
    /// re-seed immediately, otherwise the R-stream's next check recovers
    /// it.
    pub(super) fn token_wait_fire(&mut self, ci: usize, t: Cycle) {
        self.cpus[ci].token_wait_deadline = None;
        let Some(p) = self.pair_of(ci) else { return };
        if self.cpus[ci].status != Status::Parked
            || self.cpus[ci].park_class != TimeClass::AStreamWait
            || self.pairs[p].demoted()
        {
            return; // stale: woken, recovered, or demoted in the meantime
        }
        self.pairs[p].wait_timeouts += 1;
        self.pairs[p].timeout_pending = true;
        self.pairs[p].diverged = true;
        let a_cpu = self.pairs[p].a_cpu;
        let ri = self.pairs[p].r_cpu.0;
        if self.cpus[ri].status != Status::Parked || self.a_holds_lock(a_cpu) {
            return;
        }
        if let Some(frames) = self.at_region_end(ri) {
            self.reseed_astream(ri, p, frames, false, t);
        }
    }
}
