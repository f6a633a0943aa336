//! Deterministic fault injection and the per-pair resilience ledger.
//!
//! The paper argues (Section 4.4) that the A-stream is *speculative
//! everywhere*: any A-stream misbehaviour — wandering off the control
//! path, losing or duplicating synchronization tokens, missed scheduling
//! handshakes, stalls — is tolerable because the R-stream carries the
//! architectural state and the runtime can always re-seed the A-stream
//! from it. This module makes that claim testable. A [`FaultPlan`] is a
//! seeded, reproducible set of [`FaultEvent`]s the execution engine fires
//! at well-defined hook points; the engine's recovery machinery
//! (token-slack suspicion, barrier watchdog, bounded retry with demotion
//! to single-stream mode) must absorb every plan without deadlocking or
//! corrupting R-stream output. The outcome of each run is summarized per
//! pair in a [`PairLedger`].
//!
//! Determinism: a plan is a pure function of its seed (via
//! [`SplitMix64`]), and the engine consumes it deterministically, so any
//! failing seed replays exactly.

use dsm_sim::SplitMix64;
use omp_rt::mode::PairMode;

/// The kinds of fault the engine knows how to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The A-stream wanders off the program's control path at a barrier:
    /// it is marked diverged and parks instead of consuming a token
    /// (models a mispredicted reduced program).
    Wander,
    /// The A-stream is descheduled for `arg` cycles at a barrier entry
    /// (models an OS preemption burst hitting only the A processor).
    StallBurst,
    /// The R-stream's token insertion is dropped: the semaphore never
    /// sees the signal (models a lost pair-register write).
    TokenLoss,
    /// The R-stream's token insertion is duplicated: the semaphore is
    /// signalled twice (models a replayed pair-register write; the
    /// A-stream runs further ahead than the sync policy allows).
    TokenDup,
    /// A scheduling decision is enqueued but the `sched_sem` signal is
    /// lost: the A-stream is never woken for it.
    SignalLoss,
    /// A scheduling decision is corrupted in the queue: the A-stream
    /// receives a well-formed but wrong [`crate::pairing::Decision`].
    DecisionCorrupt,
    /// An A-stream store-to-prefetch conversion self-invalidates the
    /// wrong line, leaving a stale prefetched line in its cache instead
    /// of the intended one.
    StalePrefetch,
}

/// The engine hook point at which a [`FaultKind`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// A-stream barrier entry (keyed by the pair's A-side epoch).
    ABarrier,
    /// R-stream token insertion (keyed by a per-pair insertion sequence).
    TokenInsert,
    /// R-stream decision publication (keyed by a per-pair publication
    /// sequence; covers worksharing decisions and the region/IO
    /// handshakes).
    Publish,
    /// A-stream shared-store conversion (keyed by the A-stream's running
    /// count of shared stores).
    AStore,
}

impl FaultSite {
    /// Short label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::ABarrier => "a-barrier",
            FaultSite::TokenInsert => "token-insert",
            FaultSite::Publish => "publish",
            FaultSite::AStore => "a-store",
        }
    }
}

impl FaultKind {
    /// The hook point where this fault fires.
    pub fn site(self) -> FaultSite {
        match self {
            FaultKind::Wander | FaultKind::StallBurst => FaultSite::ABarrier,
            FaultKind::TokenLoss | FaultKind::TokenDup => FaultSite::TokenInsert,
            FaultKind::SignalLoss | FaultKind::DecisionCorrupt => FaultSite::Publish,
            FaultKind::StalePrefetch => FaultSite::AStore,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Wander => "wander",
            FaultKind::StallBurst => "stall-burst",
            FaultKind::TokenLoss => "token-loss",
            FaultKind::TokenDup => "token-dup",
            FaultKind::SignalLoss => "signal-loss",
            FaultKind::DecisionCorrupt => "decision-corrupt",
            FaultKind::StalePrefetch => "stale-prefetch",
        }
    }

    /// All kinds, in display order.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::Wander,
        FaultKind::StallBurst,
        FaultKind::TokenLoss,
        FaultKind::TokenDup,
        FaultKind::SignalLoss,
        FaultKind::DecisionCorrupt,
        FaultKind::StalePrefetch,
    ];
}

/// One scheduled fault: fire `kind` against pair `tid` the `seq`-th time
/// its hook point is reached. Each event fires at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What to inject.
    pub kind: FaultKind,
    /// Victim pair (team thread id == CMP index in slipstream mode).
    pub tid: u64,
    /// Sequence number at the hook point (epoch for barrier faults,
    /// running operation count for the others).
    pub seq: u64,
    /// Kind-specific magnitude (stall cycles for
    /// [`FaultKind::StallBurst`]; ignored otherwise).
    pub arg: u64,
}

/// A reproducible set of faults for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults. Order is irrelevant except as a tie-break
    /// when two events name the same (site, tid, seq): the earlier entry
    /// fires first.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True if the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Builder: append one event.
    pub fn with(mut self, ev: FaultEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// A single A-stream wander: pair `tid`'s A-stream diverges instead
    /// of skipping its `epoch`-th construct barrier.
    pub fn wander_at(tid: u64, epoch: u64) -> Self {
        FaultPlan::none().with(FaultEvent {
            kind: FaultKind::Wander,
            tid,
            seq: epoch,
            arg: 0,
        })
    }

    /// A seeded random plan against a team of `team` pairs: between 1 and
    /// `max_events` faults with uniformly random kinds, victims, and
    /// small sequence numbers. Identical `(seed, team, max_events)`
    /// always produce the identical plan.
    ///
    /// No two events ever share a `(site, tid, seq)` hook slot: the
    /// engine fires the first unfired match at a hook, so duplicates
    /// would make which *kind* fires order-dependent and the oracle
    /// labels ambiguous. Each draw rejection-samples (bounded, and
    /// deterministic because the generator stream is) until it lands on a
    /// free slot; a draw that cannot find one after 16 attempts is
    /// dropped rather than duplicated.
    pub fn random(seed: u64, team: u64, max_events: usize) -> Self {
        assert!(team > 0 && max_events > 0);
        let mut g = SplitMix64::new(seed ^ 0xFA_17B0A7);
        let n = 1 + g.below(max_events as u64) as usize;
        let mut events: Vec<FaultEvent> = Vec::with_capacity(n);
        let mut seen: Vec<(FaultSite, u64, u64)> = Vec::with_capacity(n);
        for _ in 0..n {
            for _attempt in 0..16 {
                let kind = FaultKind::ALL[g.below(FaultKind::ALL.len() as u64) as usize];
                let tid = g.below(team);
                let seq = g.below(6);
                let slot = (kind.site(), tid, seq);
                if seen.contains(&slot) {
                    continue;
                }
                seen.push(slot);
                events.push(FaultEvent {
                    kind,
                    tid,
                    seq,
                    arg: if kind == FaultKind::StallBurst {
                        1_000 + g.below(200_000)
                    } else {
                        0
                    },
                });
                break;
            }
        }
        FaultPlan { events }
    }
}

/// Per-pair resilience record, assembled into
/// [`crate::exec::RunResult::pair_ledgers`] after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairLedger {
    /// Team thread id of the pair.
    pub tid: u64,
    /// Final operating mode (demoted pairs end in
    /// [`PairMode::DegradedSingle`]).
    pub mode: PairMode,
    /// Faults the plan actually fired against this pair.
    pub faults_injected: u64,
    /// Divergence recoveries performed (all causes).
    pub recoveries: u64,
    /// Subset of `recoveries` forced by the barrier watchdog.
    pub watchdog_recoveries: u64,
    /// Subset of `recoveries` triggered by the token-wait timeout.
    pub timeout_recoveries: u64,
    /// Simulated cycle of the pair's demotion, if any. Demotion is
    /// one-way, so this is `Some` exactly when [`PairLedger::demoted`]
    /// holds.
    pub demoted_at: Option<u64>,
}

impl PairLedger {
    /// True when the pair was demoted to single-stream mode.
    pub fn demoted(&self) -> bool {
        self.mode.is_demoted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let a = FaultPlan::random(42, 4, 6);
        let b = FaultPlan::random(42, 4, 6);
        let c = FaultPlan::random(43, 4, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
        assert!(a.events.len() <= 6);
    }

    #[test]
    fn random_events_respect_bounds() {
        for seed in 0..64 {
            let p = FaultPlan::random(seed, 4, 6);
            for e in &p.events {
                assert!(e.tid < 4);
                assert!(e.seq < 6);
                if e.kind == FaultKind::StallBurst {
                    assert!(e.arg >= 1_000);
                } else {
                    assert_eq!(e.arg, 0);
                }
            }
        }
    }

    #[test]
    fn every_kind_eventually_generated() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..256 {
            for e in FaultPlan::random(seed, 4, 6).events {
                seen.insert(e.kind);
            }
        }
        assert_eq!(seen.len(), FaultKind::ALL.len());
    }

    #[test]
    fn sites_partition_kinds() {
        assert_eq!(FaultKind::Wander.site(), FaultSite::ABarrier);
        assert_eq!(FaultKind::TokenLoss.site(), FaultSite::TokenInsert);
        assert_eq!(FaultKind::SignalLoss.site(), FaultSite::Publish);
        assert_eq!(FaultKind::StalePrefetch.site(), FaultSite::AStore);
    }

    #[test]
    fn random_plans_never_share_a_hook_slot() {
        // Regression: duplicate (site, tid, seq) triples made which kind
        // fires at a hook order-dependent; plans must occupy each slot at
        // most once. Small team + seq space maximizes collision pressure.
        for seed in 0..512 {
            for (team, max_events) in [(1, 6), (2, 6), (4, 6), (4, 12)] {
                let p = FaultPlan::random(seed, team, max_events);
                let mut slots: Vec<_> = p
                    .events
                    .iter()
                    .map(|e| (e.kind.site(), e.tid, e.seq))
                    .collect();
                slots.sort();
                let before = slots.len();
                slots.dedup();
                assert_eq!(slots.len(), before, "seed {seed} has duplicate slots");
                assert!(!p.is_empty(), "dedup must not empty a plan");
                assert!(p.events.len() <= max_events);
            }
        }
    }

    #[test]
    fn wander_at_matches_legacy_injection() {
        let p = FaultPlan::wander_at(2, 5);
        assert_eq!(p.events.len(), 1);
        assert_eq!(p.events[0].kind, FaultKind::Wander);
        assert_eq!((p.events[0].tid, p.events[0].seq), (2, 5));
    }
}
