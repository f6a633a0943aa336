//! Conservative parallel discrete-event simulation (PDES) support.
//!
//! The machine the engine models is sixteen independent CMP nodes joined
//! by a network, but the discrete-event core is serial. This module holds
//! the machine-independent pieces of the conservative parallelization
//! layered over it:
//!
//! * **time domains** — each CMP (its cores, their L1s, the node's L2
//!   bank) is one domain whose events live in a per-domain queue (see
//!   [`crate::engine::DomainQueues`]) and whose clock may run ahead of
//!   the global frontier;
//! * **lookahead** — the Chandy–Misra-style bound on how far ahead of the
//!   frontier a domain may be admitted into a parallel window, derived
//!   from the minimum remote-hop latency of the network ([`
//!   lookahead_cycles`]): no *timed* cross-domain interaction can land
//!   sooner than one remote hop;
//! * **worker configuration** — how many host threads step domains
//!   concurrently ([`PdesConfig`]), with an oversubscription clamp
//!   ([`clamp_workers`]) for engines running inside an already-parallel
//!   harness.
//!
//! The determinism contract is strict: a parallel run must be
//! *bit-identical* to the serial engine — same stats, same fingerprints,
//! for every mode, trace configuration, and fault plan.
//! Because this simulator applies cross-domain *state* effects (directory
//! transactions, invalidations) synchronously at the moment the crossing
//! event executes, the effective lookahead for shared-state mutation is
//! zero; only work that is provably confined to a single processor's
//! private state may run concurrently. The execution layer therefore
//! parallelizes the pure per-CPU prefix of each domain's work inside a
//! window and commits every boundary-crossing event serially in global
//! `(time, seq, cpu)` order. See `DESIGN.md` §13 for the full argument.

use crate::config::MachineConfig;
use crate::engine::Cycle;

/// Worker configuration for the PDES execution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdesConfig {
    /// Host threads stepping domains concurrently. `1` (the default)
    /// selects the serial engine fast path, bit-for-bit the pre-PDES
    /// event loop.
    pub workers: usize,
    /// Override the lookahead horizon (cycles). `None` derives it from
    /// the machine's minimum remote-hop latency. `Some(0)` degrades the
    /// window to lockstep admission (events at exactly the frontier
    /// time), which must still make progress — it may never deadlock.
    pub lookahead: Option<Cycle>,
}

impl Default for PdesConfig {
    fn default() -> Self {
        PdesConfig {
            workers: 1,
            lookahead: None,
        }
    }
}

impl PdesConfig {
    /// Serial configuration (the default).
    pub fn serial() -> Self {
        Self::default()
    }

    /// A parallel configuration with `workers` host threads.
    pub fn with_workers(workers: usize) -> Self {
        PdesConfig {
            workers: workers.max(1),
            lookahead: None,
        }
    }

    /// The lookahead horizon in effect for `machine`.
    pub fn lookahead_for(&self, machine: &MachineConfig) -> Cycle {
        self.lookahead.unwrap_or_else(|| lookahead_cycles(machine))
    }
}

/// The conservative lookahead horizon derived from the network: the
/// minimum latency of one remote hop (processor interface + send-side NI
/// occupancy + wire time), i.e. the soonest any *timed* interaction
/// issued by one CMP can complete at another. Domains whose next event
/// lies within this bound of the global frontier are admitted to the
/// same parallel window.
pub fn lookahead_cycles(machine: &MachineConfig) -> Cycle {
    let m = &machine.mem_ns;
    machine.ns_to_cycles(m.pi_local_dc_time + m.ni_remote_dc_time + m.net_time)
}

/// Clamp an engine's worker count so the product of harness workers and
/// engine workers never oversubscribes the host: with `pool_workers`
/// simulations already running concurrently, each engine gets
/// `available / pool_workers` threads (at least one), further capped by
/// the request. `available` should respect `BENCH_WORKERS` when set.
pub fn clamp_workers(requested: usize, pool_workers: usize, available: usize) -> usize {
    let requested = requested.max(1);
    let per_engine = (available.max(1) / pool_workers.max(1)).max(1);
    requested.min(per_engine)
}

/// Resolve a `SIM_WORKERS`-style request: `0` means "use all available
/// parallelism", anything else is taken literally (then clamped by the
/// caller via [`clamp_workers`] when running inside a pool).
pub fn resolve_workers(requested: usize, available: usize) -> usize {
    if requested == 0 {
        available.max(1)
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookahead_is_one_remote_hop() {
        let m = MachineConfig::paper();
        // 10 + 10 + 50 = 70 ns at 1.2 GHz -> ceil(84.0) = 84 cycles.
        assert_eq!(lookahead_cycles(&m), m.ns_to_cycles(70));
        assert!(lookahead_cycles(&m) > 0);
        assert!(lookahead_cycles(&m) < m.remote_miss_cycles());
    }

    #[test]
    fn config_defaults_to_serial() {
        let c = PdesConfig::default();
        assert_eq!(c.workers, 1);
        let m = MachineConfig::paper();
        assert_eq!(c.lookahead_for(&m), lookahead_cycles(&m));
    }

    #[test]
    fn lookahead_override_wins() {
        let mut c = PdesConfig::with_workers(4);
        c.lookahead = Some(0);
        assert_eq!(c.lookahead_for(&MachineConfig::paper()), 0);
    }

    #[test]
    fn workers_floor_is_one() {
        assert_eq!(PdesConfig::with_workers(0).workers, 1);
    }

    #[test]
    fn clamp_prevents_cores_squared() {
        // 8 cores, pool of 8: each engine gets 1 worker no matter what
        // it asked for.
        assert_eq!(clamp_workers(4, 8, 8), 1);
        // Pool of 2 on 8 cores: up to 4 engine workers.
        assert_eq!(clamp_workers(4, 2, 8), 4);
        assert_eq!(clamp_workers(2, 2, 8), 2);
        // Degenerate inputs never return zero.
        assert_eq!(clamp_workers(0, 0, 0), 1);
        assert_eq!(clamp_workers(16, 1, 1), 1);
    }

    #[test]
    fn resolve_zero_means_available() {
        assert_eq!(resolve_workers(0, 6), 6);
        assert_eq!(resolve_workers(3, 6), 3);
        assert_eq!(resolve_workers(0, 0), 1);
    }
}
