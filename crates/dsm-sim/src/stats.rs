//! Execution-time accounting.
//!
//! Figures 2 and 4 of the paper break execution time into busy cycles,
//! memory stalls, lock and barrier synchronization, scheduling time, and
//! job-wait time. Every cycle a simulated CPU spends is attributed to
//! exactly one of these buckets; the attribution class is chosen by the
//! code the CPU is conceptually executing (runtime scheduler code stalls
//! count as scheduling, user code stalls as memory, ...).

/// Which redundant stream a processor is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamRole {
    /// Normal execution (single or double mode): not paired.
    Solo,
    /// The real task of a slipstream pair.
    R,
    /// The advanced (speculative, reduced) task of a slipstream pair.
    A,
}

impl StreamRole {
    /// True for the speculative A-stream.
    pub fn is_a(self) -> bool {
        matches!(self, StreamRole::A)
    }
}

/// Buckets of the execution-time breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeClass {
    /// Instruction execution (compute + cache-hit accesses).
    Busy,
    /// Stalls waiting for the memory system in user code.
    MemStall,
    /// Waiting to acquire locks / critical sections.
    Lock,
    /// Waiting at barriers.
    Barrier,
    /// Runtime scheduling work (chunk grabbing, its serialization, and its
    /// memory stalls).
    Scheduling,
    /// Idle in the slave pool waiting for a parallel region to be
    /// dispatched.
    JobWait,
    /// A-stream waiting for slipstream tokens or scheduling handshakes
    /// (the R-stream's symmetric wait is folded into Barrier, where the
    /// paper reports it is negligible).
    AStreamWait,
    /// Cycles spent in divergence recovery.
    Recovery,
    /// Cycles stolen by the operating system (timer ticks, daemons) when
    /// the OS-noise model is enabled.
    Os,
}

/// All classes, in display order.
pub const TIME_CLASSES: [TimeClass; 9] = [
    TimeClass::Busy,
    TimeClass::MemStall,
    TimeClass::Lock,
    TimeClass::Barrier,
    TimeClass::Scheduling,
    TimeClass::JobWait,
    TimeClass::AStreamWait,
    TimeClass::Recovery,
    TimeClass::Os,
];

impl TimeClass {
    /// Stable index into [`TimeBreakdown`].
    pub fn index(self) -> usize {
        match self {
            TimeClass::Busy => 0,
            TimeClass::MemStall => 1,
            TimeClass::Lock => 2,
            TimeClass::Barrier => 3,
            TimeClass::Scheduling => 4,
            TimeClass::JobWait => 5,
            TimeClass::AStreamWait => 6,
            TimeClass::Recovery => 7,
            TimeClass::Os => 8,
        }
    }

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            TimeClass::Busy => "busy",
            TimeClass::MemStall => "memory",
            TimeClass::Lock => "lock",
            TimeClass::Barrier => "barrier",
            TimeClass::Scheduling => "scheduling",
            TimeClass::JobWait => "job-wait",
            TimeClass::AStreamWait => "astream-wait",
            TimeClass::Recovery => "recovery",
            TimeClass::Os => "os",
        }
    }
}

/// Cycles attributed to each [`TimeClass`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    cycles: [u64; TIME_CLASSES.len()],
}

impl TimeBreakdown {
    /// All-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `cycles` to `class`.
    pub fn add(&mut self, class: TimeClass, cycles: u64) {
        self.cycles[class.index()] += cycles;
    }

    /// Cycles in `class`.
    pub fn get(&self, class: TimeClass) -> u64 {
        self.cycles[class.index()]
    }

    /// Sum over all classes.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Fraction of the total in `class` (0 if empty).
    pub fn fraction(&self, class: TimeClass) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.get(class) as f64 / t as f64
        }
    }

    /// Element-wise accumulate another breakdown.
    pub fn merge(&mut self, other: &TimeBreakdown) {
        for (a, b) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *a += *b;
        }
    }

    /// Serialize the per-class cycle array.
    pub fn snapshot(&self, w: &mut snap::Writer) {
        for c in self.cycles {
            w.u64(c);
        }
    }

    /// Restore a breakdown written by [`TimeBreakdown::snapshot`].
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        let mut cycles = [0u64; TIME_CLASSES.len()];
        for c in &mut cycles {
            *c = r.u64()?;
        }
        Ok(TimeBreakdown { cycles })
    }
}

/// Per-CPU counters.
#[derive(Debug, Clone, Default)]
pub struct CpuStats {
    /// Time attribution for this CPU.
    pub time: TimeBreakdown,
    /// Demand loads executed.
    pub loads: u64,
    /// Demand stores executed (including converted prefetches on A-streams).
    pub stores: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (after L1 miss).
    pub l2_hits: u64,
    /// L2 misses (fills from local or remote memory).
    pub l2_misses: u64,
    /// Barriers passed (for R/Solo) or token-skipped (for A).
    pub barriers: u64,
}

impl CpuStats {
    /// Serialize all counters in declaration order.
    pub fn snapshot(&self, w: &mut snap::Writer) {
        self.time.snapshot(w);
        for v in [
            self.loads,
            self.stores,
            self.l1_hits,
            self.l2_hits,
            self.l2_misses,
            self.barriers,
        ] {
            w.u64(v);
        }
    }

    /// Restore counters written by [`CpuStats::snapshot`].
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        Ok(CpuStats {
            time: TimeBreakdown::restore(r)?,
            loads: r.u64()?,
            stores: r.u64()?,
            l1_hits: r.u64()?,
            l2_hits: r.u64()?,
            l2_misses: r.u64()?,
            barriers: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates_and_totals() {
        let mut b = TimeBreakdown::new();
        b.add(TimeClass::Busy, 100);
        b.add(TimeClass::MemStall, 50);
        b.add(TimeClass::Busy, 10);
        assert_eq!(b.get(TimeClass::Busy), 110);
        assert_eq!(b.total(), 160);
        assert!((b.fraction(TimeClass::MemStall) - 50.0 / 160.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_has_zero_fractions() {
        let b = TimeBreakdown::new();
        assert_eq!(b.total(), 0);
        assert_eq!(b.fraction(TimeClass::Busy), 0.0);
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = TimeBreakdown::new();
        a.add(TimeClass::Lock, 5);
        let mut b = TimeBreakdown::new();
        b.add(TimeClass::Lock, 7);
        b.add(TimeClass::Barrier, 3);
        a.merge(&b);
        assert_eq!(a.get(TimeClass::Lock), 12);
        assert_eq!(a.get(TimeClass::Barrier), 3);
    }

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; TIME_CLASSES.len()];
        for c in TIME_CLASSES {
            assert!(!seen[c.index()], "duplicate index");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn roles_classify() {
        assert!(StreamRole::A.is_a());
        assert!(!StreamRole::Solo.is_a());
    }
}
