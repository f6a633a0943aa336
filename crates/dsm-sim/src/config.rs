//! Simulated machine parameters (Table 1 of the paper).
//!
//! The paper simulates a DSM multiprocessor built from dual-processor CMP
//! nodes with SimOS. Each node holds a slice of globally shared memory;
//! system-wide coherence is maintained by an invalidate-based fully-mapped
//! directory protocol over a fixed-delay network. The latency parameters
//! below are the SimOS memory-system parameters the paper lists verbatim
//! (in nanoseconds); we convert them to CPU cycles at the configured clock.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Set associativity (ways).
    pub associativity: u32,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Hit latency in CPU cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.associativity as u64)
    }
}

/// Memory-system latency parameters from Table 1, in nanoseconds.
///
/// These are the SimOS parameter names; the derivation of end-to-end miss
/// latencies is documented on [`MachineConfig::local_miss_ns`] and
/// [`MachineConfig::remote_miss_ns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryTimingNs {
    /// Time on a node's processor/memory bus per transfer.
    pub bus_time: u64,
    /// Processor-interface directory-controller time for a local access.
    pub pi_local_dc_time: u64,
    /// Network-interface directory-controller time on the local node.
    pub ni_local_dc_time: u64,
    /// Network-interface directory-controller time on a remote node.
    pub ni_remote_dc_time: u64,
    /// One-way network traversal time.
    pub net_time: u64,
    /// DRAM access time at the home memory controller.
    pub mem_time: u64,
}

/// Full machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of CMP nodes in the system (the paper simulates 16).
    pub num_cmps: usize,
    /// Processors per CMP (the paper's CMPs are dual-processor).
    pub cpus_per_cmp: usize,
    /// CPU clock in GHz (used to convert the ns memory timings to cycles).
    pub clock_ghz: f64,
    /// Private per-processor L1 (data) cache.
    pub l1: CacheConfig,
    /// Shared per-CMP unified L2 cache.
    pub l2: CacheConfig,
    /// Memory-system latencies in nanoseconds (Table 1).
    pub mem_ns: MemoryTimingNs,
    /// Outstanding-miss registers (MSHRs) per L2 cache. Gates how many misses
    /// a node may have in flight; also gates the A-stream's store-to-prefetch
    /// conversion ("no resource contention exists").
    pub l2_mshrs: usize,
    /// Cycles of busy work charged per interpreted loop iteration to model
    /// induction-variable/branch bookkeeping.
    pub loop_overhead_cycles: u64,
    /// Cost in cycles for a CPU to read/write the on-chip pair-shared
    /// semaphore register used for A-R synchronization (paper Section 2.2:
    /// "a shared register (or memory location) between the two processors").
    pub pair_register_cycles: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl MachineConfig {
    /// The exact configuration of Table 1: 16 dual-processor CMPs, 1.2 GHz,
    /// 16 KB 2-way L1 (1-cycle hit), 1 MB 4-way shared L2 (10-cycle hit),
    /// and the listed SimOS memory timing parameters.
    pub fn paper() -> Self {
        MachineConfig {
            num_cmps: 16,
            cpus_per_cmp: 2,
            clock_ghz: 1.2,
            l1: CacheConfig {
                size_bytes: 16 * 1024,
                associativity: 2,
                line_bytes: 64,
                hit_latency: 1,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                associativity: 4,
                line_bytes: 64,
                hit_latency: 10,
            },
            mem_ns: MemoryTimingNs {
                bus_time: 30,
                pi_local_dc_time: 10,
                ni_local_dc_time: 60,
                ni_remote_dc_time: 10,
                net_time: 50,
                mem_time: 50,
            },
            l2_mshrs: 8,
            loop_overhead_cycles: 2,
            pair_register_cycles: 3,
        }
    }

    /// A scaled-down configuration for fast unit tests: 4 CMPs and small
    /// caches, same latency structure.
    pub fn small_test() -> Self {
        let mut c = Self::paper();
        c.num_cmps = 4;
        c.l1.size_bytes = 2 * 1024;
        c.l2.size_bytes = 16 * 1024;
        c
    }

    /// Total number of processors in the machine.
    pub fn num_cpus(&self) -> usize {
        self.num_cmps * self.cpus_per_cmp
    }

    /// Convert nanoseconds to CPU cycles (rounding up).
    pub fn ns_to_cycles(&self, ns: u64) -> u64 {
        ((ns as f64) * self.clock_ghz).ceil() as u64
    }

    /// End-to-end latency of an L2 miss satisfied by the *local* home node,
    /// in ns, with no contention.
    ///
    /// Derivation (matches the paper's stated 170 ns):
    /// bus to the node controller (30) + local NI/directory lookup (60) +
    /// DRAM access (50) + bus back to the L2 (30) = 170 ns.
    pub fn local_miss_ns(&self) -> u64 {
        let m = &self.mem_ns;
        m.bus_time + m.ni_local_dc_time + m.mem_time + m.bus_time
    }

    /// End-to-end latency of an L2 miss satisfied by a *remote* home node,
    /// in ns, with no contention.
    ///
    /// Derivation (matches the paper's stated minimum of 290 ns):
    /// bus (30) + processor-interface DC (10) + local NI/directory (60) +
    /// network (50) + remote NI DC (10) + DRAM (50) + network back (50) +
    /// bus (30) = 290 ns.
    pub fn remote_miss_ns(&self) -> u64 {
        let m = &self.mem_ns;
        m.bus_time
            + m.pi_local_dc_time
            + m.ni_local_dc_time
            + m.net_time
            + m.ni_remote_dc_time
            + m.mem_time
            + m.net_time
            + m.bus_time
    }

    /// Local miss latency in CPU cycles.
    pub fn local_miss_cycles(&self) -> u64 {
        self.ns_to_cycles(self.local_miss_ns())
    }

    /// Remote miss latency in CPU cycles.
    pub fn remote_miss_cycles(&self) -> u64 {
        self.ns_to_cycles(self.remote_miss_ns())
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cmps == 0 {
            return Err("num_cmps must be > 0".into());
        }
        if self.cpus_per_cmp == 0 {
            return Err("cpus_per_cmp must be > 0".into());
        }
        if self.clock_ghz <= 0.0 {
            return Err("clock_ghz must be positive".into());
        }
        for (name, c) in [("l1", &self.l1), ("l2", &self.l2)] {
            if !c.line_bytes.is_power_of_two() {
                return Err(format!("{name} line size must be a power of two"));
            }
            if c.associativity == 0 || c.associativity > u8::MAX as u32 {
                return Err(format!("{name} associativity must be in 1..=255"));
            }
            if c.size_bytes % (c.line_bytes * c.associativity as u64) != 0 {
                return Err(format!("{name} size must be a multiple of line*ways"));
            }
            if c.num_sets() == 0 || !c.num_sets().is_power_of_two() {
                return Err(format!("{name} set count must be a nonzero power of two"));
            }
        }
        if self.l1.line_bytes != self.l2.line_bytes {
            return Err("L1 and L2 must share a line size".into());
        }
        if self.l2_mshrs == 0 {
            return Err("l2_mshrs must be > 0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        MachineConfig::paper().validate().unwrap();
    }

    #[test]
    fn paper_miss_latencies_match_table1() {
        let c = MachineConfig::paper();
        assert_eq!(
            c.local_miss_ns(),
            170,
            "Table 1: local miss requires 170 ns"
        );
        assert_eq!(
            c.remote_miss_ns(),
            290,
            "Table 1: minimum remote miss latency is 290 ns"
        );
    }

    #[test]
    fn cycle_conversion_uses_clock() {
        let c = MachineConfig::paper();
        // 1.2 GHz: 290 ns = 348 cycles, 170 ns = 204 cycles.
        assert_eq!(c.remote_miss_cycles(), 348);
        assert_eq!(c.local_miss_cycles(), 204);
        assert_eq!(c.ns_to_cycles(0), 0);
        assert_eq!(c.ns_to_cycles(1), 2); // 1.2 cycles rounds up
    }

    #[test]
    fn geometry_matches_table1() {
        let c = MachineConfig::paper();
        assert_eq!(c.l1.num_sets(), 128); // 16KB / (64B * 2 ways)
        assert_eq!(c.l2.num_sets(), 4096); // 1MB / (64B * 4 ways)
        assert_eq!(c.num_cpus(), 32);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = MachineConfig::paper();
        c.num_cmps = 0;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper();
        c.l1.line_bytes = 48;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper();
        c.l2.line_bytes = 128;
        assert!(c.validate().is_err(), "L1/L2 line size mismatch");

        let mut c = MachineConfig::paper();
        c.l2_mshrs = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn small_test_config_is_valid() {
        MachineConfig::small_test().validate().unwrap();
    }
}
