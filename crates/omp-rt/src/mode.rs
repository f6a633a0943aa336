//! Execution modes and per-region slipstream resolution.
//!
//! The paper's evaluation compares three ways to use a machine of N
//! dual-processor CMPs on a fixed problem:
//!
//! * **single** — one task per CMP, the second processor idles (N tasks);
//! * **double** — two tasks per CMP (2N tasks);
//! * **slipstream** — one task per CMP executed redundantly by an
//!   R-stream/A-stream pair.
//!
//! Within slipstream mode, each parallel region resolves its A–R
//! synchronization from (a) the region's own `SLIPSTREAM` clause, which
//! takes precedence, (b) the prevailing program-global setting, and (c)
//! the `OMP_SLIPSTREAM` environment variable when the clause says
//! `RUNTIME_SYNC` (paper Section 3.3).

use omp_ir::directive::EnvSlipstream;
use omp_ir::node::{SlipSyncType, SlipstreamClause};

/// How the machine's processors are used for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// One task per CMP; the sibling processor idles.
    Single,
    /// Two independent tasks per CMP.
    Double,
    /// One task per CMP, run redundantly as an A–R pair.
    Slipstream,
}

impl ExecMode {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Single => "single",
            ExecMode::Double => "double",
            ExecMode::Slipstream => "slipstream",
        }
    }
}

/// Fully resolved A–R synchronization for one parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlipSync {
    /// True: tokens inserted when the R-stream *exits* the barrier
    /// (global). False: inserted at barrier *entry* (local).
    pub global: bool,
    /// Initial token count.
    pub tokens: u64,
}

impl SlipSync {
    /// The paper's "zero-token global" (G0) synchronization.
    pub const G0: SlipSync = SlipSync {
        global: true,
        tokens: 0,
    };
    /// The paper's "one-token local" (L1) synchronization.
    pub const L1: SlipSync = SlipSync {
        global: false,
        tokens: 1,
    };

    /// Short label: `G<k>` or `L<k>`.
    pub fn label(self) -> String {
        format!("{}{}", if self.global { "G" } else { "L" }, self.tokens)
    }
}

/// Runtime operating mode of one A–R pair.
///
/// A run starts every pair in [`PairMode::Slipstream`]. When a pair
/// exhausts its divergence-recovery budget (see the execution layer's
/// `RecoveryPolicy`), the runtime demotes it to
/// [`PairMode::DegradedSingle`]: the R-stream keeps executing the program
/// normally, while the A-stream stays in lockstep through region dispatch
/// and the region-end barrier but skips region bodies — exactly the
/// behaviour of a region with slipstream resolved [`RegionSlip::Off`],
/// applied to one pair instead of the whole team. Demotion is one-way:
/// a demoted pair stays [`PairMode::DegradedSingle`] for the rest of the
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairMode {
    /// Healthy: the A-stream runs ahead and the pair cooperates.
    Slipstream,
    /// Demoted after exceeding the recovery budget: the pair runs its task
    /// single-stream; the A processor idles through region bodies.
    DegradedSingle,
}

impl PairMode {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PairMode::Slipstream => "slipstream",
            PairMode::DegradedSingle => "degraded-single",
        }
    }

    /// True once the pair has been demoted.
    pub fn is_demoted(self) -> bool {
        matches!(self, PairMode::DegradedSingle)
    }
}

/// Outcome of resolving a region's slipstream behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionSlip {
    /// Slipstream disabled for this region: A-streams idle through it.
    Off,
    /// Slipstream active with the given synchronization.
    On(SlipSync),
}

/// Resolve the slipstream behaviour of one region.
///
/// * `region` — the clause on the region's own directive, if any;
/// * `global` — the prevailing serial-part `SLIPSTREAM` setting, if any;
/// * `env` — parsed `OMP_SLIPSTREAM`, if set.
///
/// Precedence: region clause > global setting > implementation default
/// (global sync, zero tokens). A clause of `RUNTIME_SYNC` defers to the
/// environment; if the environment is unset, the implementation default
/// applies. The environment value `NONE` disables slipstream regardless of
/// clauses (it is the run-time kill switch).
///
/// ```
/// use omp_rt::mode::{resolve_region, RegionSlip, SlipSync};
///
/// // No directives anywhere: the implementation default is G0.
/// assert_eq!(resolve_region(None, None, None), RegionSlip::On(SlipSync::G0));
///
/// // OMP_SLIPSTREAM=NONE kills slipstream for every region.
/// use omp_ir::directive::EnvSlipstream;
/// assert_eq!(
///     resolve_region(None, None, Some(EnvSlipstream::Disabled)),
///     RegionSlip::Off
/// );
/// ```
pub fn resolve_region(
    region: Option<SlipstreamClause>,
    global: Option<SlipstreamClause>,
    env: Option<EnvSlipstream>,
) -> RegionSlip {
    if env == Some(EnvSlipstream::Disabled) {
        return RegionSlip::Off;
    }
    // With no directive anywhere, the environment variable alone controls
    // slipstream behaviour (that is its purpose: runtime selection without
    // recompiling); programs with directives defer to the environment only
    // through RUNTIME_SYNC.
    let clause = match region.or(global) {
        Some(c) => c,
        None => match env {
            Some(EnvSlipstream::Enabled { sync, tokens }) => SlipstreamClause { sync, tokens },
            _ => SlipstreamClause::default(),
        },
    };
    match clause.sync {
        SlipSyncType::None => RegionSlip::Off,
        SlipSyncType::GlobalSync => RegionSlip::On(SlipSync {
            global: true,
            tokens: clause.tokens,
        }),
        SlipSyncType::LocalSync => RegionSlip::On(SlipSync {
            global: false,
            tokens: clause.tokens,
        }),
        SlipSyncType::RuntimeSync => match env {
            Some(EnvSlipstream::Enabled { sync, tokens }) => match sync {
                SlipSyncType::LocalSync => RegionSlip::On(SlipSync {
                    global: false,
                    tokens,
                }),
                // GlobalSync and anything else concrete resolve to global.
                _ => RegionSlip::On(SlipSync {
                    global: true,
                    tokens,
                }),
            },
            Some(EnvSlipstream::Disabled) => RegionSlip::Off,
            // Unset environment: implementation default (the paper's
            // implementation assumes global synchronization).
            None => RegionSlip::On(SlipSync {
                global: true,
                tokens: clause.tokens,
            }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clause(sync: SlipSyncType, tokens: u64) -> SlipstreamClause {
        SlipstreamClause { sync, tokens }
    }

    #[test]
    fn default_is_global_zero() {
        assert_eq!(
            resolve_region(None, None, None),
            RegionSlip::On(SlipSync::G0)
        );
    }

    #[test]
    fn region_clause_beats_global_setting() {
        let r = resolve_region(
            Some(clause(SlipSyncType::LocalSync, 1)),
            Some(clause(SlipSyncType::GlobalSync, 5)),
            None,
        );
        assert_eq!(r, RegionSlip::On(SlipSync::L1));
    }

    #[test]
    fn global_setting_applies_when_region_is_silent() {
        let r = resolve_region(None, Some(clause(SlipSyncType::LocalSync, 2)), None);
        assert_eq!(
            r,
            RegionSlip::On(SlipSync {
                global: false,
                tokens: 2
            })
        );
    }

    #[test]
    fn runtime_sync_defers_to_environment() {
        let r = resolve_region(
            Some(clause(SlipSyncType::RuntimeSync, 9)),
            None,
            Some(EnvSlipstream::Enabled {
                sync: SlipSyncType::LocalSync,
                tokens: 1,
            }),
        );
        assert_eq!(r, RegionSlip::On(SlipSync::L1));
        // Environment tokens win over the clause's when deferring.
        let r = resolve_region(
            Some(clause(SlipSyncType::RuntimeSync, 9)),
            None,
            Some(EnvSlipstream::Enabled {
                sync: SlipSyncType::GlobalSync,
                tokens: 3,
            }),
        );
        assert_eq!(
            r,
            RegionSlip::On(SlipSync {
                global: true,
                tokens: 3
            })
        );
    }

    #[test]
    fn runtime_sync_with_unset_env_uses_default() {
        let r = resolve_region(Some(clause(SlipSyncType::RuntimeSync, 2)), None, None);
        assert_eq!(
            r,
            RegionSlip::On(SlipSync {
                global: true,
                tokens: 2
            })
        );
    }

    #[test]
    fn env_none_is_a_kill_switch() {
        let r = resolve_region(
            Some(clause(SlipSyncType::GlobalSync, 1)),
            Some(clause(SlipSyncType::LocalSync, 1)),
            Some(EnvSlipstream::Disabled),
        );
        assert_eq!(r, RegionSlip::Off);
    }

    #[test]
    fn bare_environment_controls_when_no_directives() {
        let r = resolve_region(
            None,
            None,
            Some(EnvSlipstream::Enabled {
                sync: SlipSyncType::LocalSync,
                tokens: 1,
            }),
        );
        assert_eq!(r, RegionSlip::On(SlipSync::L1));
        let r = resolve_region(None, None, Some(EnvSlipstream::Disabled));
        assert_eq!(r, RegionSlip::Off);
    }

    #[test]
    fn directives_override_bare_environment() {
        // A concrete directive wins over the environment (only
        // RUNTIME_SYNC defers).
        let r = resolve_region(
            Some(clause(SlipSyncType::GlobalSync, 0)),
            None,
            Some(EnvSlipstream::Enabled {
                sync: SlipSyncType::LocalSync,
                tokens: 1,
            }),
        );
        assert_eq!(r, RegionSlip::On(SlipSync::G0));
    }

    #[test]
    fn labels() {
        assert_eq!(SlipSync::G0.label(), "G0");
        assert_eq!(SlipSync::L1.label(), "L1");
        assert_eq!(ExecMode::Slipstream.label(), "slipstream");
    }

    #[test]
    fn pair_mode_demotion_classifies() {
        assert!(!PairMode::Slipstream.is_demoted());
        assert!(PairMode::DegradedSingle.is_demoted());
        assert_eq!(PairMode::DegradedSingle.label(), "degraded-single");
    }
}
