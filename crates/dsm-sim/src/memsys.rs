//! The coherent memory hierarchy: L1 → shared L2 → directory/network/memory.
//!
//! This module glues the piece models together into the miss path a request
//! actually takes on the simulated machine:
//!
//! * **L1 hit** — 1 cycle, private per processor.
//! * **L2 hit** — 10 cycles, shared by the two processors of a CMP. This is
//!   where slipstream lives: lines fetched by the A-stream are L2 hits for
//!   its R-stream.
//! * **L2 miss, local home** — bus → node directory controller → DRAM → bus;
//!   170 ns uncontended (Table 1).
//! * **L2 miss, remote home** — bus → processor interface → local NI/DC →
//!   network → remote NI → DRAM → network → bus; 290 ns uncontended.
//! * **Dirty-owner forward** — one extra network hop through the owner's L2.
//!
//! Contention is modelled at node buses, NI ports (which double as the
//! directory-controller service points), and memory controllers. Reply
//! messages ride an unconstrained reply path (cut-through), matching the
//! paper's stated *minimum* latencies exactly.
//!
//! In-flight fills are tracked in per-CMP MSHR tables; a second request to
//! an in-flight line merges with it ("the shared L2 ... merges their
//! requests when appropriate"), which is also how A-Late prefetches are
//! detected.

use crate::address::{Addr, AddressMap, CmpId, CpuId, LineAddr, Space};
use crate::cache::{LineState, SetAssocCache};
use crate::classify::{Classifier, ReqKind};
use crate::config::MachineConfig;
use crate::directory::{DataSource, Directory};
use crate::engine::Cycle;
use crate::memory::MemoryControllers;
use crate::network::Network;
use crate::stats::{CpuStats, StreamRole};
use crate::util::FastMap;
use sim_trace::{TimedEvent, TraceConfig, TraceEvent, Tracer, TrackDomain};

/// The kind of access a processor issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand read; blocks the issuing processor until data arrives.
    Load,
    /// Demand write; blocks until ownership (and data) arrive.
    Store,
    /// Non-blocking read-exclusive prefetch: an A-stream shared store
    /// converted per the paper. The processor continues after issue.
    PrefetchEx,
}

/// Machine-wide counter snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineCounters {
    /// Network messages sent.
    pub network_messages: u64,
    /// Cycles messages queued at NI ports.
    pub network_contention: u64,
    /// Cycles requests queued at memory controllers.
    pub memory_contention: u64,
    /// Cycles requests queued on node buses.
    pub bus_contention: u64,
    /// L2 lines evicted.
    pub l2_evictions: u64,
    /// External invalidations applied to L2s.
    pub l2_invalidations: u64,
    /// Dirty-owner (3-hop) fetches.
    pub three_hop_fetches: u64,
    /// Invalidation messages sent by directories.
    pub invalidations_sent: u64,
}

/// Result of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the issuing processor may proceed.
    pub complete: Cycle,
    /// The access hit in the L1.
    pub l1_hit: bool,
    /// The access hit in the shared L2 (resident or merged with an
    /// in-flight fill).
    pub l2_hit: bool,
    /// A fill crossed the network to a remote home or owner.
    pub remote: bool,
}

/// The full memory system of the machine.
pub struct MemSystem {
    cfg: MachineConfig,
    map: AddressMap,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    dirs: Vec<Directory>,
    net: Network,
    mem: MemoryControllers,
    /// Per-CMP in-flight fills: line → data-arrival cycle.
    mshr: Vec<FastMap<LineAddr, Cycle>>,
    /// Stream role of each processor (set by the execution layer).
    roles: Vec<StreamRole>,
    /// Slipstream self-invalidation hints: an A-stream read of a dirty
    /// remote line makes the owner write back and drop its copy (the
    /// producer "self-invalidates" on the consumer's future-reference
    /// hint), so the producer's next write re-acquires the line from
    /// memory without a 3-hop transfer.
    self_invalidation: bool,
    /// Shared-fill classifier for Figures 3 and 5.
    pub classifier: Classifier,
    /// Trace sink for L2 fill events, one track per CMP (disabled by
    /// default; the hot access path pays one bool check when off).
    tracer: Tracer,
    // Pre-converted latencies (cycles).
    l1_lat: Cycle,
    l2_lat: Cycle,
    pi_local: Cycle,
    ni_local_occ: Cycle,
    ni_remote_occ: Cycle,
    net_delay: Cycle,
    /// Total L2 evictions (diagnostic).
    pub l2_evictions: u64,
    /// Total external invalidations applied to L2s (diagnostic).
    pub l2_invalidations: u64,
}

impl MemSystem {
    /// Build the memory system for a machine.
    pub fn new(cfg: &MachineConfig) -> Self {
        cfg.validate().expect("invalid machine configuration");
        let map = AddressMap::new(cfg);
        MemSystem {
            map,
            l1: (0..cfg.num_cpus())
                .map(|_| SetAssocCache::new(&cfg.l1))
                .collect(),
            l2: (0..cfg.num_cmps)
                .map(|_| SetAssocCache::new(&cfg.l2))
                .collect(),
            dirs: (0..cfg.num_cmps).map(|_| Directory::new()).collect(),
            net: Network::new(cfg),
            mem: MemoryControllers::new(cfg),
            mshr: (0..cfg.num_cmps).map(|_| FastMap::default()).collect(),
            roles: vec![StreamRole::Solo; cfg.num_cpus()],
            self_invalidation: false,
            classifier: Classifier::new(),
            tracer: Tracer::disabled(TrackDomain::Cmp),
            l1_lat: cfg.l1.hit_latency,
            l2_lat: cfg.l2.hit_latency,
            pi_local: cfg.ns_to_cycles(cfg.mem_ns.pi_local_dc_time),
            ni_local_occ: cfg.ns_to_cycles(cfg.mem_ns.ni_local_dc_time),
            ni_remote_occ: cfg.ns_to_cycles(cfg.mem_ns.ni_remote_dc_time),
            net_delay: cfg.ns_to_cycles(cfg.mem_ns.net_time),
            l2_evictions: 0,
            l2_invalidations: 0,
            cfg: cfg.clone(),
        }
    }

    /// The machine configuration this system was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The address map of the machine.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Set the stream role of a processor (classification and conversion
    /// gating depend on it).
    pub fn set_role(&mut self, cpu: CpuId, role: StreamRole) {
        self.roles[cpu.0] = role;
    }

    /// Stream role of a processor.
    pub fn role(&self, cpu: CpuId) -> StreamRole {
        self.roles[cpu.0]
    }

    /// Enable or disable slipstream self-invalidation hints.
    pub fn set_self_invalidation(&mut self, on: bool) {
        self.self_invalidation = on;
    }

    /// True when `cmp` has a free MSHR at `now` — the resource-contention
    /// gate on A-stream store conversion.
    pub fn mshr_free(&mut self, cmp: CmpId, now: Cycle) -> bool {
        let table = &mut self.mshr[cmp.0];
        if table.is_empty() {
            return self.cfg.l2_mshrs > 0;
        }
        table.retain(|_, arrival| *arrival > now);
        table.len() < self.cfg.l2_mshrs
    }

    /// Finish classification (call once, at end of simulation).
    pub fn finish(&mut self) {
        self.classifier.finish();
    }

    /// Route memory-system events (L2 fills and their final prefetch
    /// classifications) to trace sinks on per-CMP tracks.
    pub fn set_trace(&mut self, cfg: &TraceConfig) {
        self.tracer = Tracer::new(cfg, TrackDomain::Cmp);
        self.classifier.set_trace(cfg);
    }

    /// Drain all recorded memory-system trace events (one batch per
    /// internal tracer); tracing reverts to off.
    pub fn take_trace(&mut self) -> Vec<(Vec<TimedEvent>, u64)> {
        let fills = std::mem::replace(&mut self.tracer, Tracer::disabled(TrackDomain::Cmp));
        vec![fills.drain(), self.classifier.take_trace()]
    }

    /// Perform one access by `cpu` at `now`.
    ///
    /// All machine state (caches, directory, resource schedules) is updated
    /// synchronously; the returned [`AccessResult::complete`] tells the
    /// caller when the processor unblocks. For [`AccessKind::PrefetchEx`]
    /// the processor unblocks after issue, while the fill completes in the
    /// background (tracked by the MSHR).
    pub fn access(
        &mut self,
        cpu: CpuId,
        addr: Addr,
        kind: AccessKind,
        now: Cycle,
        stats: &mut CpuStats,
    ) -> AccessResult {
        let line = self.map.line_of(addr);
        let cmp = cpu.cmp(&self.cfg);
        let shared = self.map.space_of(addr) == Space::Shared;
        let role = self.roles[cpu.0];

        match kind {
            AccessKind::Load => stats.loads += 1,
            AccessKind::Store | AccessKind::PrefetchEx => stats.stores += 1,
        }

        // Record the reference for prefetch classification before any state
        // changes, so an R-store upgrading an A-fetched line credits the A
        // fill first.
        if shared && role != StreamRole::Solo && kind != AccessKind::PrefetchEx {
            self.classifier.on_reference(cmp, line, role, now);
        }

        let needs_m = kind != AccessKind::Load;

        // ---- L1 ----
        let l1_state = self.l1[cpu.0].access(line);
        if let Some(_state) = l1_state {
            // L1 hit. Loads complete immediately; stores additionally need
            // the shared L2 to hold the line in Modified state.
            if !needs_m {
                stats.l1_hits += 1;
                return AccessResult {
                    complete: now + self.l1_lat,
                    l1_hit: true,
                    l2_hit: false,
                    remote: false,
                };
            }
            match self.l2[cmp.0].peek(line) {
                Some(LineState::Modified) => {
                    stats.l1_hits += 1;
                    // In-flight check: ownership may still be arriving. A
                    // demand store waits for it; a prefetch never blocks
                    // (the conversion is already outstanding). Demand
                    // stores also pay the L2 write: the L1s are
                    // write-through under the shared L2 (which is what
                    // makes shared stores "long-latency events" the
                    // A-stream profitably skips).
                    let complete = if kind == AccessKind::PrefetchEx {
                        now + self.l1_lat
                    } else {
                        let arrival = self.inflight_arrival(cmp, line, now);
                        arrival.unwrap_or(now).max(now) + self.l1_lat + self.l2_lat
                    };
                    return AccessResult {
                        complete,
                        l1_hit: true,
                        l2_hit: false,
                        remote: false,
                    };
                }
                _ => {
                    // Upgrade required; fall through to the L2/directory
                    // path. Drop the stale L1 copy (it will be refilled).
                    self.l1[cpu.0].invalidate(line);
                }
            }
        }

        // ---- L2 (shared within the CMP) ----
        let t_lookup = now + self.l1_lat + self.l2_lat;

        // Merge with an in-flight fill for the same line, if any.
        if let Some(arrival) = self.inflight_arrival(cmp, line, now) {
            let resident = self.l2[cmp.0].peek(line);
            let state_ok = match resident {
                Some(LineState::Modified) => true,
                Some(LineState::Shared) => !needs_m,
                None => false,
            };
            if state_ok {
                stats.l2_hits += 1;
                self.l2[cmp.0].access(line);
                if kind != AccessKind::PrefetchEx {
                    self.fill_l1(cpu, line);
                }
                let complete = arrival.max(t_lookup);
                return AccessResult {
                    complete: if kind == AccessKind::PrefetchEx {
                        t_lookup
                    } else {
                        complete
                    },
                    l1_hit: false,
                    l2_hit: true,
                    remote: false,
                };
            }
        }

        match self.l2[cmp.0].access(line) {
            Some(LineState::Modified) => {
                // Fast path: line is already writable (or readable) here.
                stats.l2_hits += 1;
                self.fill_l1(cpu, line);
                return AccessResult {
                    complete: t_lookup,
                    l1_hit: false,
                    l2_hit: true,
                    remote: false,
                };
            }
            Some(LineState::Shared) if !needs_m => {
                stats.l2_hits += 1;
                self.fill_l1(cpu, line);
                return AccessResult {
                    complete: t_lookup,
                    l1_hit: false,
                    l2_hit: true,
                    remote: false,
                };
            }
            Some(LineState::Shared) => {
                // Upgrade: S→M through the directory, no data transfer from
                // DRAM needed.
                stats.l2_misses += 1;
                let (complete, remote) = self.fetch_line(cmp, line, true, true, false, t_lookup);
                self.l2[cmp.0].set_state(line, LineState::Modified);
                self.note_fill(
                    cmp,
                    line,
                    role,
                    shared,
                    ReqKind::ReadEx,
                    remote,
                    complete,
                    now,
                );
                self.mshr[cmp.0].insert(line, complete);
                if kind != AccessKind::PrefetchEx {
                    self.fill_l1(cpu, line);
                }
                return AccessResult {
                    complete: if kind == AccessKind::PrefetchEx {
                        t_lookup
                    } else {
                        complete
                    },
                    l1_hit: false,
                    l2_hit: false,
                    remote,
                };
            }
            _ => {}
        }

        // ---- Full miss: fetch through home directory ----
        stats.l2_misses += 1;
        let hint = self.self_invalidation
            && !needs_m
            && shared
            && role == StreamRole::A
            && kind == AccessKind::Load;
        let (complete, remote) = self.fetch_line(cmp, line, needs_m, false, hint, t_lookup);
        let new_state = if needs_m {
            LineState::Modified
        } else {
            LineState::Shared
        };
        if let Some(victim) = self.l2[cmp.0].insert(line, new_state) {
            self.handle_l2_eviction(cmp, victim.line, victim.state, now);
        }
        let req_kind = if needs_m {
            ReqKind::ReadEx
        } else {
            ReqKind::Read
        };
        self.note_fill(cmp, line, role, shared, req_kind, remote, complete, now);
        self.mshr[cmp.0].insert(line, complete);
        if kind != AccessKind::PrefetchEx {
            self.fill_l1(cpu, line);
        }

        AccessResult {
            complete: if kind == AccessKind::PrefetchEx {
                t_lookup
            } else {
                complete
            },
            l1_hit: false,
            l2_hit: false,
            remote,
        }
    }

    /// Data-arrival time of an in-flight fill for `line` at `cmp`, if later
    /// than `now`.
    fn inflight_arrival(&mut self, cmp: CmpId, line: LineAddr, now: Cycle) -> Option<Cycle> {
        if self.mshr[cmp.0].is_empty() {
            return None;
        }
        match self.mshr[cmp.0].get(&line) {
            Some(&arrival) if arrival > now => Some(arrival),
            Some(_) => {
                self.mshr[cmp.0].remove(&line);
                None
            }
            None => None,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn note_fill(
        &mut self,
        cmp: CmpId,
        line: LineAddr,
        role: StreamRole,
        shared: bool,
        kind: ReqKind,
        remote: bool,
        complete: Cycle,
        now: Cycle,
    ) {
        if self.tracer.is_on() {
            self.tracer.record(
                complete,
                cmp.0 as u32,
                TraceEvent::MemFill {
                    line: line.0,
                    read_ex: kind == ReqKind::ReadEx,
                    remote,
                    issue: now,
                    complete,
                },
            );
        }
        if shared && role != StreamRole::Solo {
            self.classifier.on_fill(cmp, line, role, kind, complete);
            // The issuer's own demand reference follows the fill so that a
            // later same-line fill replacement still sees issuer use.
            self.classifier.on_reference(cmp, line, role, now);
        }
    }

    /// Install a line in `cpu`'s L1 (evictions are silent: L1s are managed
    /// inclusively under the shared L2 and never dirty).
    fn fill_l1(&mut self, cpu: CpuId, line: LineAddr) {
        self.l1[cpu.0].insert(line, LineState::Shared);
    }

    /// Walk the directory protocol for one fetch. `exclusive` selects
    /// GetX/GetS; `upgrade_only` skips the DRAM data access;
    /// `hint_self_invalidation` (A-stream reads when the feature is on)
    /// makes a dirty owner write back and drop the line instead of
    /// keeping a Shared copy. Returns (completion cycle, whether the
    /// network was crossed).
    #[allow(clippy::too_many_arguments)]
    fn fetch_line(
        &mut self,
        cmp: CmpId,
        line: LineAddr,
        exclusive: bool,
        upgrade_only: bool,
        hint_self_invalidation: bool,
        t0: Cycle,
    ) -> (Cycle, bool) {
        let home = self.map.home_of(line);
        let remote_home = home != cmp;

        // Request path: L2 → node bus → (processor interface) →
        // directory controller. The directory-controller service time
        // (NILocalDCTime) is charged where the lookup happens: at the
        // home node — the requester's NI only forwards (NIRemoteDCTime).
        let mut t = self.mem.bus_transfer(cmp, t0);
        if remote_home {
            t += self.pi_local;
            t = self.net.out_port(cmp, t, self.ni_remote_occ);
            t += self.net_delay;
            t = self.net.in_port(home, t, self.ni_local_occ);
        } else {
            t = self.net.out_port(cmp, t, self.ni_local_occ);
        }

        // Directory transaction at the home node.
        let outcome = if exclusive {
            self.dirs[home.0].get_x(line, cmp)
        } else {
            self.dirs[home.0].get_s(line, cmp)
        };

        // Invalidations fan out from the home directory controller; the
        // requester waits for the slowest acknowledgement.
        let mut inval_done = t;
        for victim_cmp in &outcome.invalidate {
            let send = self.net.out_port(home, t, self.ni_remote_occ);
            let arrive = if *victim_cmp == home {
                send
            } else {
                send + self.net_delay
            };
            // Ack returns over the reply path.
            let ack = if *victim_cmp == cmp {
                arrive
            } else {
                arrive + self.net_delay
            };
            inval_done = inval_done.max(ack);
        }
        // Apply invalidations to the victims' caches (`outcome` is an
        // owned local, so no clone of the victim list is needed).
        for &victim_cmp in &outcome.invalidate {
            self.apply_invalidation(victim_cmp, line);
        }

        let mut crossed = remote_home;
        let data_ready = match outcome.source {
            DataSource::Memory => {
                if upgrade_only {
                    t
                } else {
                    self.mem.dram_access(home, t)
                }
            }
            DataSource::Owner(owner) => {
                crossed = crossed || owner != cmp;
                // Forward to the dirty owner, read its L2, send to requester.
                let mut tf = self.net.out_port(home, t, self.ni_remote_occ);
                if owner != home {
                    tf += self.net_delay;
                    tf = self.net.in_port(owner, tf, self.ni_remote_occ);
                }
                tf += self.l2_lat;
                // GetS normally leaves the owner with a Shared copy; GetX
                // invalidated it above (owner is in the invalidate list).
                // With a self-invalidation hint, the owner writes back and
                // drops the line entirely.
                if !exclusive {
                    if hint_self_invalidation && owner != cmp {
                        if self.l2[owner.0].invalidate(line).is_some() {
                            self.l2_invalidations += 1;
                            self.classifier.on_drop(owner, line);
                        }
                        self.invalidate_l1s(owner, line);
                        self.mshr[owner.0].remove(&line);
                        let home2 = self.map.home_of(line);
                        self.dirs[home2.0].evict_shared(line, owner);
                    } else {
                        self.l2[owner.0].set_state(line, LineState::Shared);
                    }
                }
                if owner != cmp {
                    tf += self.net_delay;
                }
                tf
            }
        };

        // Reply path back to the requester: network (already counted for
        // owner forwards) plus the requester's node bus.
        let reply_at = match outcome.source {
            DataSource::Memory if remote_home => data_ready + self.net_delay,
            _ => data_ready,
        };
        let done = self.mem.bus_transfer(cmp, reply_at.max(inval_done));
        (done, crossed)
    }

    /// Remove a line from a CMP's L2 and all its L1s due to an external
    /// invalidation.
    fn apply_invalidation(&mut self, cmp: CmpId, line: LineAddr) {
        if self.l2[cmp.0].invalidate(line).is_some() {
            self.l2_invalidations += 1;
            self.classifier.on_drop(cmp, line);
        }
        self.invalidate_l1s(cmp, line);
        self.mshr[cmp.0].remove(&line);
    }

    fn invalidate_l1s(&mut self, cmp: CmpId, line: LineAddr) {
        for i in 0..self.cfg.cpus_per_cmp {
            let cpu = cmp.cpu(&self.cfg, i);
            self.l1[cpu.0].invalidate(line);
        }
    }

    /// Handle the inclusion consequences of an L2 eviction.
    fn handle_l2_eviction(&mut self, cmp: CmpId, line: LineAddr, state: LineState, now: Cycle) {
        self.l2_evictions += 1;
        self.invalidate_l1s(cmp, line);
        self.classifier.on_drop(cmp, line);
        self.mshr[cmp.0].remove(&line);
        let home = self.map.home_of(line);
        match state {
            LineState::Shared => {
                // Replacement hint keeps the sharer set exact; costless.
                self.dirs[home.0].evict_shared(line, cmp);
            }
            LineState::Modified => {
                // Dirty writeback occupies the bus, network, and home
                // memory in the background (the evicting request does not
                // wait for it).
                self.dirs[home.0].writeback(line, cmp);
                let t = self.mem.bus_transfer(cmp, now);
                let t = if home == cmp {
                    t
                } else {
                    self.net.traverse(cmp, home, t)
                };
                self.mem.dram_access(home, t);
            }
        }
    }

    /// Diagnostic access to the per-CPU L1 (tests).
    pub fn l1_of(&self, cpu: CpuId) -> &SetAssocCache {
        &self.l1[cpu.0]
    }

    /// Diagnostic access to the per-CMP L2 (tests).
    pub fn l2_of(&self, cmp: CmpId) -> &SetAssocCache {
        &self.l2[cmp.0]
    }

    /// Diagnostic access to a home directory (tests).
    pub fn dir_of(&self, cmp: CmpId) -> &Directory {
        &self.dirs[cmp.0]
    }

    /// Total network messages sent (diagnostic).
    pub fn network_messages(&self) -> u64 {
        self.net.total_messages()
    }

    /// Serialize the mutable memory-system state. Config-derived fields
    /// (address map, latencies) are rebuilt by [`MemSystem::new`] on
    /// restore, so only caches, directories, resources, MSHRs, roles, the
    /// classifier, and tracers are written. MSHR maps are written sorted
    /// by line address for determinism.
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.seq(&self.l1, |w, c| c.snapshot(w));
        w.seq(&self.l2, |w, c| c.snapshot(w));
        w.seq(&self.dirs, |w, d| d.snapshot(w));
        self.net.snapshot(w);
        self.mem.snapshot(w);
        w.usize(self.mshr.len());
        for table in &self.mshr {
            let mut entries: Vec<(u64, Cycle)> = table.iter().map(|(l, t)| (l.0, *t)).collect();
            entries.sort_unstable();
            w.seq(&entries, |w, &(l, t)| {
                w.u64(l);
                w.u64(t);
            });
        }
        w.seq(&self.roles, |w, role| {
            w.u8(match role {
                StreamRole::Solo => 0,
                StreamRole::R => 1,
                StreamRole::A => 2,
            });
        });
        w.bool(self.self_invalidation);
        self.classifier.snapshot(w);
        self.tracer.snapshot(w);
        w.u64(self.l2_evictions);
        w.u64(self.l2_invalidations);
    }

    /// Overwrite this (freshly built) memory system's mutable state from a
    /// snapshot written by [`MemSystem::snapshot`] of a system with the
    /// same machine configuration.
    ///
    /// Every per-CPU and per-CMP count in the payload must match this
    /// system's configuration, and each cache its geometry; anything else
    /// is [`snap::SnapError::Corrupt`].
    pub fn restore_into(&mut self, r: &mut snap::Reader) -> Result<(), snap::SnapError> {
        let (cpus, cmps) = (self.cfg.num_cpus(), self.cfg.num_cmps);
        expect_count(r, cpus, "L1 count")?;
        for c in &mut self.l1 {
            c.restore_into(r)?;
        }
        expect_count(r, cmps, "L2 count")?;
        for c in &mut self.l2 {
            c.restore_into(r)?;
        }
        expect_count(r, cmps, "directory count")?;
        for d in &mut self.dirs {
            *d = Directory::restore(r)?;
        }
        self.net.restore_into(r)?;
        self.mem.restore_into(r)?;
        expect_count(r, cmps, "MSHR table count")?;
        for table in &mut self.mshr {
            let entries = r.seq(|r| Ok((LineAddr(r.u64()?), r.u64()?)))?;
            *table = entries.into_iter().collect();
        }
        expect_count(r, cpus, "role count")?;
        for role in &mut self.roles {
            *role = match r.u8()? {
                0 => StreamRole::Solo,
                1 => StreamRole::R,
                2 => StreamRole::A,
                _ => return Err(snap::SnapError::Corrupt { what: "StreamRole" }),
            };
        }
        self.self_invalidation = r.bool()?;
        self.classifier = Classifier::restore(r)?;
        self.tracer = Tracer::restore(r)?;
        self.l2_evictions = r.u64()?;
        self.l2_invalidations = r.u64()?;
        Ok(())
    }

    /// Snapshot of machine-wide counters (diagnostics / reports).
    pub fn machine_counters(&self) -> MachineCounters {
        MachineCounters {
            network_messages: self.net.total_messages(),
            network_contention: self.net.total_contention(),
            memory_contention: self.mem.memory_contention(),
            bus_contention: self.mem.bus_contention(),
            l2_evictions: self.l2_evictions,
            l2_invalidations: self.l2_invalidations,
            three_hop_fetches: self.dirs.iter().map(|d| d.three_hop_fetches).sum(),
            invalidations_sent: self.dirs.iter().map(|d| d.invalidations_sent).sum(),
        }
    }
}

/// Read a sequence length that the machine configuration fixes at `n`.
fn expect_count(r: &mut snap::Reader, n: usize, what: &'static str) -> Result<(), snap::SnapError> {
    if r.usize()? == n {
        Ok(())
    } else {
        Err(snap::SnapError::Corrupt { what })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemSystem {
        MemSystem::new(&MachineConfig::paper())
    }

    fn shared_addr(ms: &MemSystem, off: u64) -> Addr {
        ms.map().shared_base() + off
    }

    #[test]
    fn cold_remote_load_takes_minimum_remote_latency() {
        let mut ms = sys();
        let mut st = CpuStats::default();
        // Line 1 is homed on CMP 1; request from CPU 0 (CMP 0).
        let addr = shared_addr(&ms, 64);
        let r = ms.access(CpuId(0), addr, AccessKind::Load, 0, &mut st);
        assert!(!r.l1_hit && !r.l2_hit && r.remote);
        // 290 ns = 348 cycles plus L1+L2 lookup (1+10).
        assert_eq!(r.complete, 348 + 11);
        assert_eq!(st.l2_misses, 1);
    }

    #[test]
    fn cold_local_load_takes_minimum_local_latency() {
        let mut ms = sys();
        let mut st = CpuStats::default();
        // Line 0 is homed on CMP 0.
        let addr = shared_addr(&ms, 0);
        let r = ms.access(CpuId(0), addr, AccessKind::Load, 0, &mut st);
        assert!(!r.remote);
        assert_eq!(r.complete, 204 + 11); // 170 ns + lookups
    }

    #[test]
    fn second_load_hits_l1() {
        let mut ms = sys();
        let mut st = CpuStats::default();
        let addr = shared_addr(&ms, 0);
        let r1 = ms.access(CpuId(0), addr, AccessKind::Load, 0, &mut st);
        let r2 = ms.access(CpuId(0), addr, AccessKind::Load, r1.complete, &mut st);
        assert!(r2.l1_hit);
        assert_eq!(r2.complete, r1.complete + 1);
    }

    #[test]
    fn sibling_cpu_hits_shared_l2() {
        let mut ms = sys();
        let mut st = CpuStats::default();
        let addr = shared_addr(&ms, 0);
        let r1 = ms.access(CpuId(0), addr, AccessKind::Load, 0, &mut st);
        // CPU 1 is on the same CMP: the line is an L2 hit for it.
        let r2 = ms.access(CpuId(1), addr, AccessKind::Load, r1.complete, &mut st);
        assert!(!r2.l1_hit && r2.l2_hit);
        assert_eq!(r2.complete, r1.complete + 11);
    }

    #[test]
    fn store_after_load_upgrades_and_invalidates_sharers() {
        let mut ms = sys();
        let mut st = CpuStats::default();
        let addr = shared_addr(&ms, 0);
        // Two different CMPs read the line.
        let r1 = ms.access(CpuId(0), addr, AccessKind::Load, 0, &mut st);
        let r2 = ms.access(CpuId(2), addr, AccessKind::Load, 0, &mut st);
        let t = r1.complete.max(r2.complete);
        // CMP 0 writes: upgrade + invalidate CMP 1's copy.
        let r3 = ms.access(CpuId(0), addr, AccessKind::Store, t, &mut st);
        assert!(!r3.l2_hit, "upgrade goes through the directory");
        let line = ms.map().line_of(addr);
        assert_eq!(ms.l2_of(CmpId(1)).peek(line), None, "sharer invalidated");
        assert_eq!(ms.l2_of(CmpId(0)).peek(line), Some(LineState::Modified));
        assert_eq!(ms.l2_invalidations, 1);
        // A load from the invalidated CMP now needs a 3-hop fetch.
        let r4 = ms.access(CpuId(2), addr, AccessKind::Load, r3.complete, &mut st);
        assert!(r4.remote);
        assert_eq!(ms.dir_of(CmpId(0)).three_hop_fetches, 1);
    }

    #[test]
    fn store_hit_writes_through_to_l2() {
        let mut ms = sys();
        let mut st = CpuStats::default();
        let addr = shared_addr(&ms, 0);
        let r1 = ms.access(CpuId(0), addr, AccessKind::Store, 0, &mut st);
        let r2 = ms.access(CpuId(0), addr, AccessKind::Store, r1.complete, &mut st);
        assert!(r2.l1_hit);
        // Write-through L1 under the shared L2: a store hit still pays the
        // L2 write (1 + 10 cycles).
        assert_eq!(r2.complete, r1.complete + 11);
    }

    #[test]
    fn prefetch_ex_does_not_block_and_accelerates_partner_store() {
        let mut ms = sys();
        ms.set_role(CpuId(0), StreamRole::R);
        ms.set_role(CpuId(1), StreamRole::A);
        let mut st_a = CpuStats::default();
        let mut st_r = CpuStats::default();
        let addr = shared_addr(&ms, 64); // remote home
                                         // A-stream converts a shared store into a read-ex prefetch at t=0.
        let ra = ms.access(CpuId(1), addr, AccessKind::PrefetchEx, 0, &mut st_a);
        assert_eq!(ra.complete, 11, "prefetch returns after issue");
        // R-stream stores long after the prefetch landed: fast ownership hit.
        let rr = ms.access(CpuId(0), addr, AccessKind::Store, 2000, &mut st_r);
        assert!(rr.l2_hit);
        assert_eq!(rr.complete, 2000 + 11);
        ms.finish();
        use crate::classify::FillClass;
        assert_eq!(
            ms.classifier
                .counts
                .get(ReqKind::ReadEx, FillClass::ATimely),
            1
        );
    }

    #[test]
    fn partner_touch_of_inflight_fill_is_late() {
        let mut ms = sys();
        ms.set_role(CpuId(0), StreamRole::R);
        ms.set_role(CpuId(1), StreamRole::A);
        let mut st = CpuStats::default();
        let addr = shared_addr(&ms, 64);
        // A-stream demand load at t=0 (remote: completes at 359).
        let ra = ms.access(CpuId(1), addr, AccessKind::Load, 0, &mut st);
        assert!(ra.complete > 300);
        // R-stream loads the same line while the fill is in flight.
        let rr = ms.access(CpuId(0), addr, AccessKind::Load, 100, &mut st);
        assert!(rr.l2_hit, "merged with the in-flight fill");
        assert_eq!(rr.complete, ra.complete, "waits only for the remainder");
        ms.finish();
        use crate::classify::FillClass;
        assert_eq!(ms.classifier.counts.get(ReqKind::Read, FillClass::ALate), 1);
    }

    #[test]
    fn eviction_of_unused_a_prefetch_is_a_only() {
        let mut ms = sys();
        ms.set_role(CpuId(0), StreamRole::R);
        ms.set_role(CpuId(1), StreamRole::A);
        let mut st = CpuStats::default();
        let addr = shared_addr(&ms, 0);
        ms.access(CpuId(1), addr, AccessKind::Load, 0, &mut st);
        // Evict by filling the set: L2 is 4-way with 4096 sets; lines that
        // map to the same set are 4096 lines (256 KiB) apart.
        for i in 1..=4 {
            let conflict = shared_addr(&ms, i * 4096 * 64);
            ms.access(CpuId(1), conflict, AccessKind::Load, 10_000 * i, &mut st);
        }
        // The victim is classified at eviction; the conflicting fills are
        // classified as A-Only at finish() since R never touched them
        // either.
        assert!(ms.l2_evictions >= 1);
        use crate::classify::FillClass;
        let before_finish = ms.classifier.counts.get(ReqKind::Read, FillClass::AOnly);
        assert!(
            before_finish >= 1,
            "evicted unused prefetch already counted"
        );
        ms.finish();
        assert_eq!(ms.classifier.counts.get(ReqKind::Read, FillClass::AOnly), 5);
    }

    #[test]
    fn private_addresses_do_not_classify() {
        let mut ms = sys();
        ms.set_role(CpuId(0), StreamRole::R);
        let mut st = CpuStats::default();
        let addr = ms.map().private_base(CpuId(0));
        let r = ms.access(CpuId(0), addr, AccessKind::Load, 0, &mut st);
        assert!(!r.remote, "private data is homed locally");
        ms.finish();
        assert_eq!(ms.classifier.counts.total(ReqKind::Read), 0);
    }

    #[test]
    fn mshr_gate_reflects_inflight_fills() {
        let mut ms = sys();
        let mut st = CpuStats::default();
        assert!(ms.mshr_free(CmpId(0), 0));
        // Fill all 8 MSHRs with in-flight prefetches.
        for i in 0..8u64 {
            let addr = shared_addr(&ms, 64 + i * 64 * 16); // all remote? varies
            ms.access(CpuId(0), addr, AccessKind::PrefetchEx, 0, &mut st);
        }
        assert!(!ms.mshr_free(CmpId(0), 0));
        // Long after everything lands, MSHRs are free again.
        assert!(ms.mshr_free(CmpId(0), 1_000_000));
    }

    #[test]
    fn self_invalidation_hint_drops_the_owner_copy() {
        let mut ms = sys();
        ms.set_self_invalidation(true);
        ms.set_role(CpuId(0), StreamRole::R);
        ms.set_role(CpuId(1), StreamRole::A);
        ms.set_role(CpuId(2), StreamRole::R);
        ms.set_role(CpuId(3), StreamRole::A);
        let mut st = CpuStats::default();
        let addr = shared_addr(&ms, 0);
        let line = ms.map().line_of(addr);
        // Producer (CMP 1) writes the line.
        let w = ms.access(CpuId(2), addr, AccessKind::Store, 0, &mut st);
        assert_eq!(ms.l2_of(CmpId(1)).peek(line), Some(LineState::Modified));
        // Consumer's A-stream (CPU 1, CMP 0) reads it: 3-hop fetch, and
        // the hint makes the producer drop its copy.
        ms.access(CpuId(1), addr, AccessKind::Load, w.complete, &mut st);
        assert_eq!(
            ms.l2_of(CmpId(1)).peek(line),
            None,
            "owner self-invalidated"
        );
        assert_eq!(ms.l2_of(CmpId(0)).peek(line), Some(LineState::Shared));
        // The producer's next write needs only the consumer invalidated —
        // no dirty-owner forward.
        let hops_before = ms.dir_of(CmpId(0)).three_hop_fetches;
        ms.access(
            CpuId(2),
            addr,
            AccessKind::Store,
            w.complete + 5000,
            &mut st,
        );
        assert_eq!(
            ms.dir_of(CmpId(0)).three_hop_fetches,
            hops_before,
            "rewrite is a 2-hop memory fetch"
        );
        // Without the hint, an R-stream read keeps the owner Shared.
        let addr2 = shared_addr(&ms, 64);
        let line2 = ms.map().line_of(addr2);
        let w2 = ms.access(CpuId(2), addr2, AccessKind::Store, 50_000, &mut st);
        ms.access(CpuId(0), addr2, AccessKind::Load, w2.complete, &mut st);
        assert_eq!(ms.l2_of(CmpId(1)).peek(line2), Some(LineState::Shared));
    }

    #[test]
    fn contention_queues_misses_from_many_nodes() {
        let mut ms = sys();
        let mut st = CpuStats::default();
        // 8 different CMPs all miss to the same home at t=0.
        let addr = shared_addr(&ms, 0); // homed on CMP 0
        let mut completes: Vec<Cycle> = Vec::new();
        for c in 1..9usize {
            let cpu = CmpId(c).cpu(&MachineConfig::paper(), 0);
            let r = ms.access(cpu, addr, AccessKind::Load, 0, &mut st);
            completes.push(r.complete);
        }
        // Later requesters queue at the home NI port and memory controller.
        for w in completes.windows(2) {
            assert!(w[1] > w[0], "each subsequent miss completes later");
        }
    }

    fn snapshot_bytes(ms: &MemSystem) -> Vec<u8> {
        let mut w = snap::Writer::new();
        ms.snapshot(&mut w);
        w.into_bytes()
    }

    #[test]
    fn restore_checks_counts_against_the_machine() {
        let used = || {
            let mut ms = sys();
            let mut st = CpuStats::default();
            let addr = shared_addr(&ms, 0);
            ms.access(CpuId(0), addr, AccessKind::Store, 0, &mut st);
            ms
        };
        let good = snapshot_bytes(&used());
        let mut fresh = sys();
        fresh
            .restore_into(&mut snap::Reader::new(&good))
            .expect("round trip");
        assert_eq!(snapshot_bytes(&fresh), good);
        let damaged: [fn(&mut MemSystem); 5] = [
            |ms| ms.l1.truncate(ms.l1.len() - 1),
            |ms| ms.l2.truncate(ms.l2.len() - 1),
            |ms| ms.dirs.push(Directory::new()),
            |ms| ms.mshr.push(FastMap::default()),
            |ms| ms.roles.truncate(ms.roles.len() - 1),
        ];
        for (i, damage) in damaged.iter().enumerate() {
            let mut ms = used();
            damage(&mut ms);
            let bad = snapshot_bytes(&ms);
            assert!(
                matches!(
                    sys().restore_into(&mut snap::Reader::new(&bad)),
                    Err(snap::SnapError::Corrupt { .. })
                ),
                "damage {i} was accepted"
            );
        }
    }
}
