//! Per-node memory controllers and node buses.
//!
//! Each CMP node owns a slice of the globally shared memory behind one
//! memory controller (occupancy `MemTime`) and connects its L2 to the node
//! controller over a bus (occupancy `BusTime`). Both are contention points,
//! per the paper's simulation methodology.

use crate::address::CmpId;
use crate::config::MachineConfig;
use crate::engine::{Cycle, Resource};

/// Memory controllers and buses for all nodes.
#[derive(Debug)]
pub struct MemoryControllers {
    mem: Vec<Resource>,
    bus: Vec<Resource>,
    /// DRAM access latency/occupancy in cycles (MemTime).
    pub mem_cycles: Cycle,
    /// Bus transfer latency/occupancy in cycles (BusTime).
    pub bus_cycles: Cycle,
}

impl MemoryControllers {
    /// Build controllers for a machine.
    pub fn new(cfg: &MachineConfig) -> Self {
        MemoryControllers {
            mem: (0..cfg.num_cmps).map(|_| Resource::new()).collect(),
            bus: (0..cfg.num_cmps).map(|_| Resource::new()).collect(),
            mem_cycles: cfg.ns_to_cycles(cfg.mem_ns.mem_time),
            bus_cycles: cfg.ns_to_cycles(cfg.mem_ns.bus_time),
        }
    }

    /// Perform a DRAM access at `node` starting at `t`; returns completion.
    /// `floor` is the controller's [`Resource::acquire`] floor.
    pub fn dram_access(&mut self, node: CmpId, t: Cycle, floor: Cycle) -> Cycle {
        self.mem[node.0].acquire(t, self.mem_cycles, floor)
    }

    /// Transfer one line over `node`'s bus starting at `t`; returns
    /// completion. `floor` is the bus's [`Resource::acquire`] floor.
    pub fn bus_transfer(&mut self, node: CmpId, t: Cycle, floor: Cycle) -> Cycle {
        self.bus[node.0].acquire(t, self.bus_cycles, floor)
    }

    /// Total cycles requests spent queueing at memory controllers.
    pub fn memory_contention(&self) -> u64 {
        self.mem.iter().map(|r| r.contention_cycles).sum()
    }

    /// Total cycles requests spent queueing on node buses.
    pub fn bus_contention(&self) -> u64 {
        self.bus.iter().map(|r| r.contention_cycles).sum()
    }

    /// Serialize the mutable controller/bus state. Derived latencies are
    /// rebuilt from config on restore, so only the resources are written.
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.seq(&self.mem, |w, r| r.snapshot(w));
        w.seq(&self.bus, |w, r| r.snapshot(w));
    }

    /// Overwrite this instance's controller/bus state from a snapshot.
    pub fn restore_into(&mut self, r: &mut snap::Reader) -> Result<(), snap::SnapError> {
        self.mem = r.seq(Resource::restore)?;
        self.bus = r.seq(Resource::restore)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_follow_table1() {
        let mut m = MemoryControllers::new(&MachineConfig::paper());
        // MemTime 50ns -> 60cy, BusTime 30ns -> 36cy at 1.2 GHz.
        assert_eq!(m.dram_access(CmpId(0), 100, 0), 160);
        assert_eq!(m.bus_transfer(CmpId(0), 100, 0), 136);
    }

    #[test]
    fn controller_contention_queues_requests() {
        let mut m = MemoryControllers::new(&MachineConfig::paper());
        let a = m.dram_access(CmpId(2), 0, 0);
        let b = m.dram_access(CmpId(2), 10, 0);
        assert_eq!(a, 60);
        assert_eq!(b, 120, "second DRAM access waits for the controller");
        assert_eq!(m.memory_contention(), 50);
    }

    #[test]
    fn nodes_are_independent() {
        let mut m = MemoryControllers::new(&MachineConfig::paper());
        let a = m.dram_access(CmpId(0), 0, 0);
        let b = m.dram_access(CmpId(1), 0, 0);
        assert_eq!(a, b);
        assert_eq!(m.memory_contention(), 0);
    }
}
