//! A–R pair state: token semaphores, scheduling handshake, epochs.
//!
//! Each CMP node in slipstream mode hosts one pair. The pair owns:
//!
//! * the **token semaphore** of Figure 1 — the R-stream inserts a token
//!   per construct barrier (at entry for local sync, at exit for global
//!   sync); the A-stream consumes one to skip the barrier and blocks when
//!   none are available;
//! * the **scheduling/syscall semaphore** — initialized to zero; used for
//!   the dynamic-scheduling handshake (the R-stream publishes its chunk
//!   decision and signals; the A-stream waits and mirrors it) and for
//!   input-operation synchronization;
//! * **epoch counters** — barrier sessions passed by each stream, used to
//!   gate store→prefetch conversion ("the A-stream is in the same session
//!   with its R-stream") and to detect divergence;
//! * the pair's **operating mode** and recovery ledger — a pair that
//!   exhausts its recovery budget is demoted to single-stream mode
//!   ([`PairMode::DegradedSingle`]) for the rest of the run.

use dsm_sim::{Addr, CpuId, Semaphore};
use omp_ir::wsloop::Chunk;
use omp_rt::mode::{PairMode, SlipSync};
use std::collections::VecDeque;

/// A scheduling decision the R-stream publishes for its A-stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// A dynamic/guided loop chunk.
    Chunk(Chunk),
    /// A claimed section index.
    Section(usize),
    /// An input operation completed; the A-stream may proceed past it
    /// ("the A-stream should see the same image of the data that the
    /// R-stream sees").
    IoDone,
    /// The R-master finished configuring a parallel region; the A-master
    /// may enter it (region state is shared runtime data the A-stream
    /// must observe consistently).
    RegionGo,
    /// The R-stream exhausted the construct; the A-stream moves on.
    End,
}

impl Decision {
    /// Short label for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Decision::Chunk(_) => "chunk",
            Decision::Section(_) => "section",
            Decision::IoDone => "io-done",
            Decision::RegionGo => "region-go",
            Decision::End => "end",
        }
    }

    /// Serialize one decision.
    pub fn snapshot(&self, w: &mut snap::Writer) {
        match self {
            Decision::Chunk(c) => {
                w.u8(0);
                w.i64(c.lo);
                w.i64(c.hi);
            }
            Decision::Section(s) => {
                w.u8(1);
                w.usize(*s);
            }
            Decision::IoDone => w.u8(2),
            Decision::RegionGo => w.u8(3),
            Decision::End => w.u8(4),
        }
    }

    /// Restore a decision written by [`Decision::snapshot`].
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        Ok(match r.u8()? {
            0 => Decision::Chunk(Chunk {
                lo: r.i64()?,
                hi: r.i64()?,
            }),
            1 => Decision::Section(r.usize()?),
            2 => Decision::IoDone,
            3 => Decision::RegionGo,
            4 => Decision::End,
            _ => return Err(snap::SnapError::Corrupt { what: "Decision" }),
        })
    }
}

/// State of one A–R pair.
#[derive(Debug)]
pub struct PairState {
    /// The shared OpenMP thread id of the pair.
    pub tid: u64,
    /// The R-stream's processor.
    pub r_cpu: CpuId,
    /// The A-stream's processor.
    pub a_cpu: CpuId,
    /// Synchronization method for the current region.
    pub sync: SlipSync,
    /// The token semaphore (pair-shared hardware register).
    pub tokens: Semaphore,
    /// The scheduling/syscall semaphore (initialized to zero; paper
    /// Section 2.2).
    pub sched_sem: Semaphore,
    /// Published scheduling decisions, consumed in FIFO order.
    pub decisions: VecDeque<Decision>,
    /// Shared line the R-stream writes decisions to (the A-stream reads it
    /// after each signal).
    pub decision_addr: Addr,
    /// Barrier sessions completed by the R-stream in the current region.
    pub r_epoch: u64,
    /// Barrier sessions completed (skipped) by the A-stream.
    pub a_epoch: u64,
    /// The A-stream has diverged and stopped making useful progress.
    pub diverged: bool,
    /// Number of recoveries performed on this pair, over the whole run;
    /// the retry budget bounds it.
    pub recoveries: u64,
    /// Subset of `recoveries` forced by the barrier watchdog.
    pub watchdog_recoveries: u64,
    /// Subset of `recoveries` triggered by the token-wait timeout.
    pub timeout_recoveries: u64,
    /// Consecutive token-wait timeouts in the current region (drives the
    /// exponential backoff; reset at region start).
    pub wait_timeouts: u32,
    /// A token-wait timeout fired and its recovery has not yet been
    /// attributed (consumed by the next reseed).
    pub timeout_pending: bool,
    /// Faults the injection framework fired against this pair.
    pub faults_injected: u64,
    /// Operating mode; demotion to [`PairMode::DegradedSingle`] is
    /// one-way.
    pub mode: PairMode,
    /// Simulated cycle of the pair's demotion, if any.
    pub demoted_at: Option<u64>,
    /// Running count of token insertions by the R-stream, across the whole
    /// run (fault-hook sequence key; wraps).
    pub token_seq: u64,
    /// Running count of decision publications by the R-stream, across the
    /// whole run (fault-hook sequence key; wraps).
    pub publish_seq: u64,
}

impl PairState {
    /// Build the pair for thread `tid`.
    pub fn new(
        tid: u64,
        r_cpu: CpuId,
        a_cpu: CpuId,
        sync: SlipSync,
        token_addr: Addr,
        sched_addr: Addr,
        decision_addr: Addr,
    ) -> Self {
        PairState {
            tid,
            r_cpu,
            a_cpu,
            sync,
            tokens: Semaphore::new(sync.tokens, token_addr),
            sched_sem: Semaphore::new(0, sched_addr),
            decisions: VecDeque::new(),
            decision_addr,
            r_epoch: 0,
            a_epoch: 0,
            diverged: false,
            recoveries: 0,
            watchdog_recoveries: 0,
            timeout_recoveries: 0,
            wait_timeouts: 0,
            timeout_pending: false,
            faults_injected: 0,
            mode: PairMode::Slipstream,
            demoted_at: None,
            token_seq: 0,
            publish_seq: 0,
        }
    }

    /// Reconfigure at the start of a parallel region: reset tokens to the
    /// region's initial count and align epochs. ("At the beginning of a
    /// parallel region, a number of tokens is allocated...") Serial-part
    /// handshake decisions (I/O, region-go) may still be in flight and are
    /// preserved.
    pub fn start_region(&mut self, sync: SlipSync) {
        self.sync = sync;
        self.tokens.reset(sync.tokens);
        self.r_epoch = 0;
        self.a_epoch = 0;
        self.wait_timeouts = 0;
    }

    /// True once the pair has been demoted to single-stream mode.
    pub fn demoted(&self) -> bool {
        self.mode.is_demoted()
    }

    /// True when both streams are in the same barrier session — the
    /// store-conversion gate.
    pub fn same_session(&self) -> bool {
        self.r_epoch == self.a_epoch
    }

    /// Advance the R-stream's barrier-session counter. Epochs are session
    /// sequence numbers, not magnitudes: they wrap rather than saturate,
    /// and [`PairState::same_session`] only ever compares them for
    /// equality, so wraparound between sessions is harmless.
    pub fn bump_r_epoch(&mut self) {
        self.r_epoch = self.r_epoch.wrapping_add(1);
    }

    /// Advance the A-stream's barrier-session counter (wrapping; see
    /// [`PairState::bump_r_epoch`]).
    pub fn bump_a_epoch(&mut self) {
        self.a_epoch = self.a_epoch.wrapping_add(1);
    }

    /// Signed A–R lead distance in barrier sessions: how many sessions the
    /// A-stream is ahead of (positive) or behind (negative) its R-stream.
    /// Epochs wrap, so the difference is taken in wrapping arithmetic and
    /// reinterpreted as signed — correct as long as the true lead stays
    /// within ±2^63 sessions, which any real run does by many orders of
    /// magnitude.
    pub fn lead(&self) -> i64 {
        self.a_epoch.wrapping_sub(self.r_epoch) as i64
    }

    /// Divergence heuristic evaluated by the R-stream at a barrier: tokens
    /// accumulating unconsumed beyond the initial allocation plus slack
    /// mean the A-stream is no longer visiting barriers. The bound
    /// saturates, so a huge initial allocation never trips it.
    pub fn divergence_suspected(&self, slack: u64) -> bool {
        self.tokens.count() > self.sync.tokens.saturating_add(slack)
    }

    /// Publish a scheduling decision (R-stream side). Returns the parked
    /// A-stream processor to wake, if it was waiting on the semaphore.
    pub fn publish(&mut self, d: Decision) -> Option<CpuId> {
        self.decisions.push_back(d);
        self.sched_sem.signal()
    }

    /// Consume the next published decision (A-stream side, after a
    /// successful semaphore wait). `None` means the semaphore was granted
    /// but the queue is empty — a lost or corrupted handshake. The caller
    /// must treat that as recoverable divergence, not a fatal error: the
    /// A-stream is speculative, so a broken handshake only means it can no
    /// longer follow its R-stream.
    pub fn take_decision(&mut self) -> Option<Decision> {
        self.decisions.pop_front()
    }

    /// Serialize the pair's mutable state. Identity fields (tid, cpus,
    /// addresses) are layout-derived and rebuilt by engine construction,
    /// so they are not written.
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.bool(self.sync.global);
        w.u64(self.sync.tokens);
        self.tokens.snapshot(w);
        self.sched_sem.snapshot(w);
        w.deque(&self.decisions, |w, d| d.snapshot(w));
        w.u64(self.r_epoch);
        w.u64(self.a_epoch);
        w.bool(self.diverged);
        w.u64(self.recoveries);
        w.u64(self.watchdog_recoveries);
        w.u64(self.timeout_recoveries);
        w.u32(self.wait_timeouts);
        w.bool(self.timeout_pending);
        w.u64(self.faults_injected);
        w.bool(self.mode.is_demoted());
        w.opt(&self.demoted_at, |w, &c| w.u64(c));
        w.u64(self.token_seq);
        w.u64(self.publish_seq);
    }

    /// Overwrite this pair's mutable state from a snapshot written by
    /// [`PairState::snapshot`] (keeping identity fields).
    pub fn restore_into(&mut self, r: &mut snap::Reader) -> Result<(), snap::SnapError> {
        self.sync = SlipSync {
            global: r.bool()?,
            tokens: r.u64()?,
        };
        self.tokens = dsm_sim::Semaphore::restore(r)?;
        self.sched_sem = dsm_sim::Semaphore::restore(r)?;
        self.decisions = r.deque(Decision::restore)?;
        self.r_epoch = r.u64()?;
        self.a_epoch = r.u64()?;
        self.diverged = r.bool()?;
        self.recoveries = r.u64()?;
        self.watchdog_recoveries = r.u64()?;
        self.timeout_recoveries = r.u64()?;
        self.wait_timeouts = r.u32()?;
        self.timeout_pending = r.bool()?;
        self.faults_injected = r.u64()?;
        self.mode = if r.bool()? {
            PairMode::DegradedSingle
        } else {
            PairMode::Slipstream
        };
        self.demoted_at = r.opt(|r| r.u64())?;
        self.token_seq = r.u64()?;
        self.publish_seq = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(sync: SlipSync) -> PairState {
        PairState::new(0, CpuId(0), CpuId(1), sync, 0x100, 0x140, 0x180)
    }

    #[test]
    fn region_start_resets_tokens() {
        let mut p = pair(SlipSync::L1);
        assert_eq!(p.tokens.count(), 1);
        p.tokens.wait(CpuId(1));
        p.start_region(SlipSync::G0);
        assert_eq!(p.tokens.count(), 0);
        assert!(p.sync.global);
        assert!(p.same_session());
    }

    #[test]
    fn session_tracking() {
        let mut p = pair(SlipSync::G0);
        assert!(p.same_session());
        p.bump_a_epoch();
        assert!(!p.same_session());
        p.bump_r_epoch();
        assert!(p.same_session());
    }

    #[test]
    fn epoch_counters_wrap_between_sessions() {
        // A long run can take the session counters through u64 wraparound;
        // same_session only compares for equality, so the pair must sail
        // through 2^64 without panicking or desynchronizing.
        let mut p = pair(SlipSync::G0);
        p.r_epoch = u64::MAX;
        p.a_epoch = u64::MAX;
        assert!(p.same_session());
        p.bump_r_epoch();
        assert_eq!(p.r_epoch, 0);
        assert!(!p.same_session(), "R one session ahead across the wrap");
        p.bump_a_epoch();
        assert!(p.same_session(), "A catches up across the wrap");
    }

    #[test]
    fn divergence_heuristic() {
        let mut p = pair(SlipSync::G0);
        assert!(!p.divergence_suspected(1));
        // R inserts tokens that A never consumes.
        p.tokens.signal();
        assert!(!p.divergence_suspected(1), "one unconsumed token is slack");
        p.tokens.signal();
        assert!(p.divergence_suspected(1));
    }

    #[test]
    fn divergence_slack_zero_fires_on_first_leftover_token() {
        let mut p = pair(SlipSync::G0);
        assert!(!p.divergence_suspected(0), "no tokens yet");
        p.tokens.signal();
        assert!(p.divergence_suspected(0), "slack 0: one leftover suffices");
        assert!(!p.divergence_suspected(1), "slack 1 tolerates it");
    }

    #[test]
    fn suspicion_threshold_tracks_initial_allocation() {
        // L1 starts with one token; the heuristic measures *accumulation
        // beyond* the initial allocation, so the threshold shifts with it.
        let mut l1 = pair(SlipSync::L1);
        assert!(
            !l1.divergence_suspected(0),
            "initial L1 token is not evidence"
        );
        l1.tokens.signal();
        assert!(!l1.divergence_suspected(1));
        l1.tokens.signal();
        assert!(
            l1.divergence_suspected(1),
            "two beyond initial exceeds slack 1"
        );

        // G0 starts empty: the same two insertions already exceed slack 1.
        let mut g0 = pair(SlipSync::G0);
        g0.tokens.signal();
        g0.tokens.signal();
        assert!(g0.divergence_suspected(1));
    }

    #[test]
    fn suspicion_matrix_slack_0_and_1_for_l1_and_g0() {
        // The full boundary matrix: for each token configuration, the
        // heuristic must fire exactly when accumulation beyond the
        // initial allocation exceeds the slack — at slack 0 the first
        // leftover token is evidence, at slack 1 the second is.
        for sync in [SlipSync::L1, SlipSync::G0] {
            for slack in [0u64, 1] {
                let mut p = pair(sync);
                assert!(
                    !p.divergence_suspected(slack),
                    "{sync:?} slack {slack}: initial allocation is never evidence"
                );
                for extra in 1..=3u64 {
                    p.tokens.signal();
                    let expect = extra > slack;
                    assert_eq!(
                        p.divergence_suspected(slack),
                        expect,
                        "{sync:?} slack {slack}: {extra} tokens beyond initial"
                    );
                }
            }
        }
    }

    #[test]
    fn consumed_tokens_clear_suspicion() {
        // Insertion site (entry for L1, exit for G0) does not matter to the
        // heuristic as long as the A-stream keeps consuming: a healthy pair
        // never accumulates.
        for sync in [SlipSync::L1, SlipSync::G0] {
            let mut p = pair(sync);
            for _ in 0..8 {
                p.tokens.signal();
                assert!(p.tokens.wait(CpuId(1)), "healthy A consumes promptly");
                assert!(!p.divergence_suspected(0), "{:?}", sync);
            }
        }
    }

    #[test]
    fn handshake_fifo() {
        let mut p = pair(SlipSync::G0);
        // A arrives first: parks on the semaphore.
        assert!(!p.sched_sem.wait(CpuId(1)));
        // R publishes: wakes A.
        let woken = p.publish(Decision::Chunk(Chunk { lo: 0, hi: 8 }));
        assert_eq!(woken, Some(CpuId(1)));
        assert_eq!(
            p.take_decision(),
            Some(Decision::Chunk(Chunk { lo: 0, hi: 8 }))
        );
        // R publishes ahead; A consumes without parking.
        assert_eq!(p.publish(Decision::End), None);
        assert!(p.sched_sem.wait(CpuId(1)));
        assert_eq!(p.take_decision(), Some(Decision::End));
    }

    #[test]
    fn empty_decision_queue_is_observable_not_fatal() {
        // A lost-signal fault can grant the semaphore with nothing
        // published; the consumer sees None and treats it as divergence.
        let mut p = pair(SlipSync::G0);
        assert_eq!(p.take_decision(), None);
    }

    #[test]
    fn lead_is_signed_and_wrap_safe() {
        let mut p = pair(SlipSync::G0);
        assert_eq!(p.lead(), 0);
        p.bump_a_epoch();
        p.bump_a_epoch();
        assert_eq!(p.lead(), 2);
        p.bump_r_epoch();
        p.bump_r_epoch();
        p.bump_r_epoch();
        assert_eq!(p.lead(), -1);
        // Across the u64 wrap: A at 1, R at MAX means A is 2 ahead.
        p.r_epoch = u64::MAX;
        p.a_epoch = 1;
        assert_eq!(p.lead(), 2);
    }

    #[test]
    fn pairs_start_healthy() {
        let p = pair(SlipSync::G0);
        assert_eq!(p.mode, PairMode::Slipstream);
        assert!(!p.demoted());
        assert_eq!(p.demoted_at, None);
        assert_eq!(
            (p.recoveries, p.watchdog_recoveries, p.faults_injected),
            (0, 0, 0)
        );
    }
}
