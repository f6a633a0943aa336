//! Fixed-delay interconnect with port contention.
//!
//! The paper: "The processor interconnect is modeled as a fixed-delay
//! network. Contention is modeled at the network inputs and outputs, and at
//! the memory controller." Each node has one network-input and one
//! network-output port, each a serially reusable [`Resource`]; a message
//! occupies the sender's output port, travels `NetTime`, then occupies the
//! receiver's input port.

use crate::address::CmpId;
use crate::config::MachineConfig;
use crate::engine::{Cycle, Resource};

/// The interconnect between CMP nodes.
#[derive(Debug)]
pub struct Network {
    ni_out: Vec<Resource>,
    ni_in: Vec<Resource>,
    /// One-way wire/switch traversal latency in cycles (NetTime).
    pub net_delay: Cycle,
    /// Port occupancy per message in cycles.
    pub port_occupancy: Cycle,
}

impl Network {
    /// Build the interconnect for a machine.
    pub fn new(cfg: &MachineConfig) -> Self {
        Network {
            ni_out: (0..cfg.num_cmps).map(|_| Resource::new()).collect(),
            ni_in: (0..cfg.num_cmps).map(|_| Resource::new()).collect(),
            net_delay: cfg.ns_to_cycles(cfg.mem_ns.net_time),
            // A port is tied up for roughly the NI directory-controller
            // service time per message.
            port_occupancy: cfg.ns_to_cycles(cfg.mem_ns.ni_remote_dc_time),
        }
    }

    /// Send one message from `from` to `to`, with the first byte ready at
    /// `t`. Returns the cycle at which the message has fully arrived at the
    /// destination (including any port queueing on both ends).
    ///
    /// A message between co-located endpoints (`from == to`) does not touch
    /// the network and arrives immediately.
    pub fn traverse(&mut self, from: CmpId, to: CmpId, t: Cycle) -> Cycle {
        if from == to {
            return t;
        }
        let departed = self.ni_out[from.0].acquire(t, self.port_occupancy);
        let arrived_wire = departed + self.net_delay;
        self.ni_in[to.0].acquire(arrived_wire, self.port_occupancy)
    }

    /// Occupy `node`'s network-output port (which doubles as the node's
    /// directory-controller service point) for `occ` cycles starting no
    /// earlier than `t`. Returns service completion.
    pub fn out_port(&mut self, node: CmpId, t: Cycle, occ: Cycle) -> Cycle {
        self.ni_out[node.0].acquire(t, occ)
    }

    /// Occupy `node`'s network-input port for `occ` cycles starting no
    /// earlier than `t`. Returns service completion.
    pub fn in_port(&mut self, node: CmpId, t: Cycle, occ: Cycle) -> Cycle {
        self.ni_in[node.0].acquire(t, occ)
    }

    /// Total cycles messages spent queueing for ports (diagnostic).
    pub fn total_contention(&self) -> u64 {
        self.ni_out
            .iter()
            .chain(self.ni_in.iter())
            .map(|r| r.contention_cycles)
            .sum()
    }

    /// Total messages sent (diagnostic).
    pub fn total_messages(&self) -> u64 {
        self.ni_out.iter().map(|r| r.transactions).sum()
    }

    /// Serialize the mutable port state. Derived latencies are rebuilt
    /// from config on restore, so only the resources are written.
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.seq(&self.ni_out, |w, r| r.snapshot(w));
        w.seq(&self.ni_in, |w, r| r.snapshot(w));
    }

    /// Overwrite this network's port state from a snapshot.
    pub fn restore_into(&mut self, r: &mut snap::Reader) -> Result<(), snap::SnapError> {
        self.ni_out = r.seq(Resource::restore)?;
        self.ni_in = r.seq(Resource::restore)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(&MachineConfig::paper())
    }

    #[test]
    fn uncontended_traverse_is_fixed_delay() {
        let mut n = net();
        // port(12) + wire(60) + port(12) at 1.2GHz: NetTime 50ns -> 60cy,
        // NIRemoteDCTime 10ns -> 12cy.
        let arrive = n.traverse(CmpId(0), CmpId(1), 1000);
        assert_eq!(arrive, 1000 + 12 + 60 + 12);
    }

    #[test]
    fn local_messages_bypass_network() {
        let mut n = net();
        assert_eq!(n.traverse(CmpId(3), CmpId(3), 500), 500);
        assert_eq!(n.total_messages(), 0);
    }

    #[test]
    fn output_port_serializes_senders() {
        let mut n = net();
        let a = n.traverse(CmpId(0), CmpId(1), 0);
        let b = n.traverse(CmpId(0), CmpId(2), 0);
        // Second message waits for the shared output port.
        assert!(b > a - 60, "second departure delayed by port occupancy");
        assert_eq!(b - a, 12, "exactly one port occupancy apart");
        assert!(n.total_contention() > 0);
    }

    #[test]
    fn input_port_serializes_receivers() {
        let mut n = net();
        let a = n.traverse(CmpId(0), CmpId(5), 0);
        let b = n.traverse(CmpId(1), CmpId(5), 0);
        assert_eq!(a, 84);
        assert_eq!(b, 96, "second arrival queues at the input port");
    }

    #[test]
    fn distinct_ports_do_not_interfere() {
        let mut n = net();
        let a = n.traverse(CmpId(0), CmpId(1), 0);
        let b = n.traverse(CmpId(2), CmpId(3), 0);
        assert_eq!(a, b);
        assert_eq!(n.total_contention(), 0);
    }
}
