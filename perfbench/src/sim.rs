//! Simulated counters summed over the runs of a pass, and the per-layer
//! metrics derived from them. Every value here is simulated, not host
//! time, so it repeats exactly between runs of the same code.

use std::collections::BTreeMap;

use dsm_sim::{FillClass, FillCounts, ReqKind, TimeBreakdown, TimeClass};
use slipstream::RunResult;

#[derive(Default)]
pub struct SimTotals {
    pub exec_cycles: u64,
    mem_ops: u64,
    l1_hits: u64,
    l2_hits: u64,
    l2_misses: u64,
    network_messages: u64,
    three_hop_fetches: u64,
    invalidations_sent: u64,
    network_contention: u64,
    memory_contention: u64,
    bus_contention: u64,
    stores_converted: u64,
    sched_grabs: u64,
    recoveries: u64,
    fills: FillCounts,
    r_time: TimeBreakdown,
}

impl SimTotals {
    pub fn add(&mut self, r: &RunResult) {
        self.exec_cycles += r.exec_cycles;
        for c in &r.cpu_stats {
            self.mem_ops += c.loads + c.stores;
            self.l1_hits += c.l1_hits;
            self.l2_hits += c.l2_hits;
            self.l2_misses += c.l2_misses;
        }
        let m = &r.machine;
        self.network_messages += m.network_messages;
        self.three_hop_fetches += m.three_hop_fetches;
        self.invalidations_sent += m.invalidations_sent;
        self.network_contention += m.network_contention;
        self.memory_contention += m.memory_contention;
        self.bus_contention += m.bus_contention;
        self.stores_converted += r.stores_converted;
        self.sched_grabs += r.sched_grabs;
        self.recoveries += r.recoveries;
        self.fills.merge(&r.fill_counts);
        self.r_time.merge(&r.r_breakdown);
    }

    pub fn mem_ops(&self) -> u64 {
        self.mem_ops
    }

    /// The memory-system, slipstream-protocol and time-breakdown metrics.
    pub fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let l2_accesses = self.l2_hits + self.l2_misses;
        let fills = |class| self.fills.fraction(ReqKind::Read, class);
        for (name, v) in [
            ("engine.mem_ops", self.mem_ops as f64),
            ("memsys.l1_hits", self.l1_hits as f64),
            ("memsys.l2_hits", self.l2_hits as f64),
            ("memsys.l2_misses", self.l2_misses as f64),
            (
                "memsys.l1_hit_ratio",
                ratio(self.l1_hits, self.l1_hits + l2_accesses),
            ),
            ("memsys.l2_hit_ratio", ratio(self.l2_hits, l2_accesses)),
            ("memsys.network_messages", self.network_messages as f64),
            ("memsys.three_hop_fetches", self.three_hop_fetches as f64),
            ("memsys.invalidations_sent", self.invalidations_sent as f64),
            (
                "memsys.network_contention_cycles",
                self.network_contention as f64,
            ),
            (
                "memsys.memory_contention_cycles",
                self.memory_contention as f64,
            ),
            ("memsys.bus_contention_cycles", self.bus_contention as f64),
            ("slip.stores_converted", self.stores_converted as f64),
            ("slip.read_a_timely_frac", fills(FillClass::ATimely)),
            ("slip.read_a_late_frac", fills(FillClass::ALate)),
            ("slip.read_a_only_frac", fills(FillClass::AOnly)),
            (
                "slip.readex_coverage",
                self.fills.a_coverage(ReqKind::ReadEx),
            ),
            ("slip.sched_grabs", self.sched_grabs as f64),
            ("slip.recoveries", self.recoveries as f64),
            ("time.busy_frac", self.r_time.fraction(TimeClass::Busy)),
            (
                "time.memstall_frac",
                self.r_time.fraction(TimeClass::MemStall),
            ),
            (
                "time.barrier_frac",
                self.r_time.fraction(TimeClass::Barrier),
            ),
            (
                "time.sched_frac",
                self.r_time.fraction(TimeClass::Scheduling),
            ),
        ] {
            out.insert(name, v);
        }
    }
}
