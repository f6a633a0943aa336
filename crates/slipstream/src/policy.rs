//! The A-stream policy table (paper Section 3.1).
//!
//! The paper specifies, construct by construct, what the advanced stream
//! does: skip synchronization and shared stores, skip `single` and
//! `critical`, execute `master` and `atomic`, treat `flush` as void, run
//! reduction bodies but not the shared combine, never perform I/O, and
//! synchronize with the R-stream at dynamic scheduling points. The table
//! is explicit data so ablation benches can flip individual rows.

/// What the A-stream does when it reaches a construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AAction {
    /// Execute the construct like the R-stream.
    Execute,
    /// Skip the construct entirely.
    Skip,
    /// Wait for the R-stream's decision (dynamic scheduling handshake).
    SyncWithR,
}

/// Per-construct A-stream policy. [`AStreamPolicy::paper`] encodes the
/// paper's table; individual rows can be overridden for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AStreamPolicy {
    /// `single` sections: skipped — "there is no clear way an A-stream can
    /// tell that its R-stream will execute this section".
    pub single: AAction,
    /// `master` sections: executed — "the R-stream to execute this section
    /// is predetermined a priori".
    pub master: AAction,
    /// `critical` sections: skipped — "they may cause unnecessary
    /// migration of data".
    pub critical: AAction,
    /// `atomic` updates: executed (as read-exclusive prefetches) — "the
    /// data prefetched by the A-stream are highly likely not to be
    /// migrated".
    pub atomic: AAction,
    /// Reduction loop bodies execute as user code; this row governs the
    /// shared combine step (inside a critical section → skipped).
    pub reduction_combine: AAction,
    /// Convert shared stores into read-exclusive prefetches when the
    /// A-stream is in the same barrier session as its R-stream and an MSHR
    /// is free; otherwise the store is skipped.
    pub convert_shared_stores: bool,
    /// `sections` under dynamic assignment synchronize with the R-stream.
    pub sections: AAction,
}

impl AStreamPolicy {
    /// The exact policy of paper Section 3.1.
    pub fn paper() -> Self {
        AStreamPolicy {
            single: AAction::Skip,
            master: AAction::Execute,
            critical: AAction::Skip,
            atomic: AAction::Execute,
            reduction_combine: AAction::Skip,
            convert_shared_stores: true,
            sections: AAction::SyncWithR,
        }
    }

    /// Ablation: no store conversion (A-stream skips shared stores
    /// outright).
    pub fn without_store_conversion(mut self) -> Self {
        self.convert_shared_stores = false;
        self
    }

    /// Ablation: A-stream executes critical sections too.
    pub fn with_critical_execution(mut self) -> Self {
        self.critical = AAction::Execute;
        self
    }
}

impl Default for AStreamPolicy {
    fn default() -> Self {
        Self::paper()
    }
}

/// Divergence detection and recovery knobs (paper Section 4.4, hardened).
///
/// Detection has three tiers. The cheap tier is the paper's token-slack
/// heuristic: tokens accumulating beyond `sync.tokens + DIVERGENCE_SLACK`
/// at an R-stream barrier suggest the A-stream has stopped consuming.
/// The middle tier is the **token-wait timeout**: an A-stream parked on a
/// token or scheduling-decision semaphore for more than
/// `token_wait_cycles` is declared diverged and recovered, with the
/// deadline backing off exponentially (each consecutive timeout within a
/// region doubles the next wait, up to `TOKEN_WAIT_SHIFT_CAP` doublings)
/// so a genuinely slow R-stream is not thrashed by repeated recoveries.
/// The backstop tier is the barrier **watchdog**: an R-stream parked at
/// the region-end barrier for more than `watchdog_cycles` forces recovery
/// of any stuck A-stream rather than deadlocking (lost tokens or lost
/// scheduling signals can strand an A-stream where no slack ever
/// accumulates). Recovery is **bounded**: once a pair has recovered more
/// than `max_recoveries_per_pair` times, retrying is judged futile and the
/// pair is demoted to single-stream mode
/// ([`omp_rt::mode::PairMode::DegradedSingle`]) for the rest of the run.
/// Each recovery costs [`RecoveryPolicy::RECOVERY_CYCLES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Cycles an R-stream may wait at the region-end barrier before the
    /// watchdog forces recovery of stuck A-streams. 0 disables the
    /// watchdog.
    pub watchdog_cycles: u64,
    /// Recoveries after which a pair is demoted to single-stream mode.
    pub max_recoveries_per_pair: u64,
    /// Base cycles an A-stream may park on the token/decision semaphore
    /// path before the timeout declares it diverged. 0 disables the
    /// timeout (the paper's configuration).
    pub token_wait_cycles: u64,
}

impl RecoveryPolicy {
    /// Cycles charged to re-seed an A-stream from its R-stream
    /// (architectural-state copy + pipeline refill).
    pub const RECOVERY_CYCLES: u64 = 400;
    /// Extra tokens beyond the sync policy's count tolerated before an
    /// R-stream barrier check suspects divergence.
    pub const DIVERGENCE_SLACK: u64 = 1;
    /// Cap on the exponential backoff of the token-wait deadline: the
    /// n-th consecutive timeout in a region waits
    /// `token_wait_cycles << min(n, TOKEN_WAIT_SHIFT_CAP)`.
    pub const TOKEN_WAIT_SHIFT_CAP: u32 = 3;

    /// The default configuration used by the evaluation: a watchdog
    /// comfortably above any legitimate barrier wait on the simulated
    /// machine, a small retry budget, and no token-wait timeout (the
    /// watchdog alone is the paper's anti-wedge backstop).
    pub fn paper() -> Self {
        RecoveryPolicy {
            watchdog_cycles: 2_000_000,
            max_recoveries_per_pair: 8,
            token_wait_cycles: 0,
        }
    }

    /// The hardened configuration used by the chaos sweep and the
    /// fuzzer's fault passes: the paper settings plus a token-wait timeout
    /// at half the watchdog horizon, so a lost token or lost signal
    /// recovers an A-stream even in configurations where the watchdog
    /// never gets the chance.
    pub fn hardened() -> Self {
        RecoveryPolicy {
            token_wait_cycles: 1_000_000,
            ..Self::paper()
        }
    }

    /// Builder: override the watchdog deadline.
    ///
    /// `cycles == 0` means **disabled** — the watchdog never arms and
    /// never fires — not "fire every cycle". Disable it only when another
    /// anti-wedge tier (the token-wait timeout) is active, or when a
    /// deadlock is the desired observable outcome of a fault.
    pub fn with_watchdog(mut self, cycles: u64) -> Self {
        self.watchdog_cycles = cycles;
        self
    }

    /// Builder: override the per-pair retry budget.
    pub fn with_max_recoveries(mut self, n: u64) -> Self {
        self.max_recoveries_per_pair = n;
        self
    }

    /// Builder: override the token-wait timeout base. `cycles == 0`
    /// disables the timeout tier entirely.
    pub fn with_token_wait(mut self, cycles: u64) -> Self {
        self.token_wait_cycles = cycles;
        self
    }

    /// Effective token-wait deadline length after `timeouts` consecutive
    /// timeouts in the current region (exponential backoff, capped).
    /// Returns `None` when the timeout tier is disabled.
    pub fn token_wait_deadline(&self, timeouts: u32) -> Option<u64> {
        if self.token_wait_cycles == 0 {
            return None;
        }
        let shift = timeouts.min(Self::TOKEN_WAIT_SHIFT_CAP);
        Some(self.token_wait_cycles.saturating_shl(shift))
    }
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if shift >= self.leading_zeros() {
            u64::MAX
        } else {
            self << shift
        }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_policy_matches_section_3_1() {
        let p = AStreamPolicy::paper();
        assert_eq!(p.single, AAction::Skip);
        assert_eq!(p.master, AAction::Execute);
        assert_eq!(p.critical, AAction::Skip);
        assert_eq!(p.atomic, AAction::Execute);
        assert_eq!(p.reduction_combine, AAction::Skip);
        assert_eq!(p.sections, AAction::SyncWithR);
        assert!(p.convert_shared_stores);
    }

    #[test]
    fn ablations_flip_rows() {
        let p = AStreamPolicy::paper().without_store_conversion();
        assert!(!p.convert_shared_stores);
        let p = AStreamPolicy::paper().with_critical_execution();
        assert_eq!(p.critical, AAction::Execute);
    }

    #[test]
    fn recovery_policy_builders() {
        let r = RecoveryPolicy::paper()
            .with_watchdog(12_345)
            .with_max_recoveries(2);
        assert_eq!(r.watchdog_cycles, 12_345);
        assert_eq!(r.max_recoveries_per_pair, 2);
        assert_eq!(
            r.token_wait_cycles,
            RecoveryPolicy::paper().token_wait_cycles
        );
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::paper());
    }

    #[test]
    fn watchdog_zero_means_disabled() {
        let r = RecoveryPolicy::paper().with_watchdog(0);
        assert_eq!(r.watchdog_cycles, 0, "zero is the documented off switch");
        // The paper preset keeps the watchdog armed.
        assert!(RecoveryPolicy::paper().watchdog_cycles > 0);
    }

    #[test]
    fn token_wait_backoff_doubles_up_to_the_cap() {
        let r = RecoveryPolicy::paper().with_token_wait(1_000);
        assert_eq!(RecoveryPolicy::TOKEN_WAIT_SHIFT_CAP, 3);
        assert_eq!(r.token_wait_deadline(0), Some(1_000));
        assert_eq!(r.token_wait_deadline(1), Some(2_000));
        assert_eq!(r.token_wait_deadline(2), Some(4_000));
        assert_eq!(r.token_wait_deadline(3), Some(8_000));
        assert_eq!(r.token_wait_deadline(4), Some(8_000), "capped");
        assert_eq!(r.token_wait_deadline(100), Some(8_000));
    }

    #[test]
    fn token_wait_zero_means_disabled() {
        let r = RecoveryPolicy::paper();
        assert_eq!(r.token_wait_cycles, 0, "paper config has no timeout tier");
        assert_eq!(r.token_wait_deadline(0), None);
        assert_eq!(r.token_wait_deadline(7), None);
        let h = RecoveryPolicy::hardened();
        assert_eq!(h.token_wait_cycles, 1_000_000);
        assert!(h.token_wait_deadline(0).is_some());
    }

    #[test]
    fn token_wait_backoff_saturates_instead_of_overflowing() {
        let r = RecoveryPolicy::paper().with_token_wait(u64::MAX / 2);
        assert_eq!(r.token_wait_deadline(0), Some(u64::MAX / 2));
        assert_eq!(r.token_wait_deadline(1), Some(u64::MAX));
        assert_eq!(r.token_wait_deadline(3), Some(u64::MAX));
    }
}
