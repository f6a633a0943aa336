//! Engine checkpoint/restore.
//!
//! A snapshot captures the complete mutable simulation state mid-run so a
//! sweep sharing a warmup prefix can fork from it instead of re-simulating.
//! Everything config-derived (compiled program, machine layout, address
//! map, latencies) is rebuilt by `Engine::new` on restore and validated
//! against an identity hash stored in the snapshot; the cycle budget is
//! deliberately excluded from that hash because it only bounds a run,
//! never shapes it. Checkpoints are untraced: no tracer state is written.

use super::{CpuState, DynLoop, Engine, EngineConfig, Frame, Status};
use crate::compile::{CompiledProgram, NodeId};
use dsm_sim::{Barrier, CpuId, EventQueue, Lock, TimeClass};
use omp_ir::expr::VarId;
use omp_ir::node::{SlipSyncType, SlipstreamClause};
use omp_ir::trace::OpCounts;
use omp_ir::wsloop::Chunk;
use omp_rt::constructs::ConstructArena;
use omp_rt::mode::{RegionSlip, SlipSync};
use omp_rt::schedule::ResolvedSchedule;

/// Version of the engine snapshot payload format. Bumped on any change
/// to the serialized layout; [`Engine::restore`] rejects other versions.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Why a traced checkpoint, resume or restore is refused.
pub(crate) const UNTRACED: &str = "checkpoints are untraced (tracing must be off)";

fn snap_sched(w: &mut snap::Writer, s: ResolvedSchedule) {
    match s {
        ResolvedSchedule::StaticBlock => w.u8(0),
        ResolvedSchedule::StaticChunked(c) => {
            w.u8(1);
            w.u64(c);
        }
        ResolvedSchedule::Dynamic(c) => {
            w.u8(2);
            w.u64(c);
        }
        ResolvedSchedule::Guided(c) => {
            w.u8(3);
            w.u64(c);
        }
        ResolvedSchedule::Affinity(c) => {
            w.u8(4);
            w.u64(c);
        }
    }
}

fn restore_sched(r: &mut snap::Reader) -> Result<ResolvedSchedule, snap::SnapError> {
    Ok(match r.u8()? {
        0 => ResolvedSchedule::StaticBlock,
        1 => ResolvedSchedule::StaticChunked(r.u64()?),
        2 => ResolvedSchedule::Dynamic(r.u64()?),
        3 => ResolvedSchedule::Guided(r.u64()?),
        4 => ResolvedSchedule::Affinity(r.u64()?),
        _ => {
            return Err(snap::SnapError::Corrupt {
                what: "ResolvedSchedule",
            })
        }
    })
}

fn snap_chunk(w: &mut snap::Writer, c: &Chunk) {
    w.i64(c.lo);
    w.i64(c.hi);
}

fn restore_chunk(r: &mut snap::Reader) -> Result<Chunk, snap::SnapError> {
    Ok(Chunk {
        lo: r.i64()?,
        hi: r.i64()?,
    })
}

fn snap_time_class(w: &mut snap::Writer, tc: TimeClass) {
    w.u8(tc.index() as u8);
}

fn restore_time_class(r: &mut snap::Reader) -> Result<TimeClass, snap::SnapError> {
    dsm_sim::TIME_CLASSES
        .get(r.u8()? as usize)
        .copied()
        .ok_or(snap::SnapError::Corrupt { what: "TimeClass" })
}

impl Frame {
    fn snapshot(&self, w: &mut snap::Writer) {
        match self {
            Frame::Seq { node, idx } => {
                w.u8(0);
                w.u32(node.0);
                w.usize(*idx);
            }
            Frame::For {
                var,
                cur,
                end,
                step,
                body,
            } => {
                w.u8(1);
                w.u32(var.0);
                w.i64(*cur);
                w.i64(*end);
                w.u64(*step);
                w.u32(body.0);
            }
            Frame::ChunkIter {
                var,
                chunks,
                ci,
                cur,
                body,
            } => {
                w.u8(2);
                w.u32(var.0);
                w.seq(chunks, snap_chunk);
                w.usize(*ci);
                w.i64(*cur);
                w.u32(body.0);
            }
            Frame::LoopEnd { node, stage } => {
                w.u8(3);
                w.u32(node.0);
                w.u8(*stage);
            }
            Frame::Bar { internal, stage } => {
                w.u8(4);
                w.bool(*internal);
                w.u8(*stage);
            }
            Frame::SingleP { node, enc, stage } => {
                w.u8(5);
                w.u32(node.0);
                w.usize(*enc);
                w.u8(*stage);
            }
            Frame::SectionsP { node, enc, stage } => {
                w.u8(6);
                w.u32(node.0);
                w.usize(*enc);
                w.u8(*stage);
            }
            Frame::DynP { lp, stage } => {
                w.u8(7);
                w.u32(lp.node.0);
                w.usize(lp.enc);
                snap_sched(w, lp.sched);
                w.i64(lp.lo);
                w.i64(lp.hi);
                w.u8(*stage);
            }
            Frame::CritP { lock, body, stage } => {
                w.u8(8);
                w.usize(*lock);
                w.u32(body.0);
                w.u8(*stage);
            }
            Frame::RedP { node, stage } => {
                w.u8(9);
                w.u32(node.0);
                w.u8(*stage);
            }
            Frame::RegionP { node, stage } => {
                w.u8(10);
                w.u32(node.0);
                w.u8(*stage);
            }
            Frame::RegionEndP { stage } => {
                w.u8(11);
                w.u8(*stage);
            }
            Frame::PoolWait => w.u8(12),
            Frame::IoP {
                input,
                bytes,
                stage,
            } => {
                w.u8(13);
                w.bool(*input);
                w.u64(*bytes);
                w.u8(*stage);
            }
        }
    }

    fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        Ok(match r.u8()? {
            0 => Frame::Seq {
                node: NodeId(r.u32()?),
                idx: r.usize()?,
            },
            1 => Frame::For {
                var: VarId(r.u32()?),
                cur: r.i64()?,
                end: r.i64()?,
                step: r.u64()?,
                body: NodeId(r.u32()?),
            },
            2 => Frame::ChunkIter {
                var: VarId(r.u32()?),
                chunks: r.seq(restore_chunk)?,
                ci: r.usize()?,
                cur: r.i64()?,
                body: NodeId(r.u32()?),
            },
            3 => Frame::LoopEnd {
                node: NodeId(r.u32()?),
                stage: r.u8()?,
            },
            4 => Frame::Bar {
                internal: r.bool()?,
                stage: r.u8()?,
            },
            5 => Frame::SingleP {
                node: NodeId(r.u32()?),
                enc: r.usize()?,
                stage: r.u8()?,
            },
            6 => Frame::SectionsP {
                node: NodeId(r.u32()?),
                enc: r.usize()?,
                stage: r.u8()?,
            },
            7 => Frame::DynP {
                lp: DynLoop {
                    node: NodeId(r.u32()?),
                    enc: r.usize()?,
                    sched: restore_sched(r)?,
                    lo: r.i64()?,
                    hi: r.i64()?,
                },
                stage: r.u8()?,
            },
            8 => Frame::CritP {
                lock: r.usize()?,
                body: NodeId(r.u32()?),
                stage: r.u8()?,
            },
            9 => Frame::RedP {
                node: NodeId(r.u32()?),
                stage: r.u8()?,
            },
            10 => Frame::RegionP {
                node: NodeId(r.u32()?),
                stage: r.u8()?,
            },
            11 => Frame::RegionEndP { stage: r.u8()? },
            12 => Frame::PoolWait,
            13 => Frame::IoP {
                input: r.bool()?,
                bytes: r.u64()?,
                stage: r.u8()?,
            },
            _ => return Err(snap::SnapError::Corrupt { what: "Frame" }),
        })
    }
}

impl CpuState {
    /// Serialize the mutable per-processor state. Identity fields
    /// (assignment, role, tid) are layout-derived and kept from the
    /// freshly built engine on restore.
    fn snapshot(&self, w: &mut snap::Writer) {
        self.timeline.snapshot(w);
        w.seq(&self.frames, |w, f| f.snapshot(w));
        w.seq(&self.vars, |w, v| w.i64(*v));
        w.u8(match self.status {
            Status::Ready => 0,
            Status::Parked => 1,
            Status::PoolIdle => 2,
            Status::Done => 3,
        });
        w.u64(self.next_wake);
        snap_time_class(w, self.park_class);
        w.opt(&self.pending_class, |w, &tc| snap_time_class(w, tc));
        w.usize(self.singles_seen);
        w.usize(self.sections_seen);
        w.usize(self.dynloops_seen);
        w.u64(self.jobs_taken);
        w.u64(self.next_interrupt);
        for v in [
            self.user.loads,
            self.user.stores,
            self.user.atomics,
            self.user.compute_cycles,
            self.user.io_in,
            self.user.io_out,
        ] {
            w.u64(v);
        }
        w.u64(self.stores_converted);
        w.u64(self.stores_skipped);
        w.opt(&self.watchdog_deadline, |w, &c| w.u64(c));
        w.u64(self.watchdog_gen);
        w.opt(&self.token_wait_deadline, |w, &c| w.u64(c));
    }

    fn restore_into(&mut self, r: &mut snap::Reader) -> Result<(), snap::SnapError> {
        self.timeline.restore_into(r)?;
        self.frames = r.seq(Frame::restore)?;
        self.vars = r.seq(|r| r.i64())?;
        self.status = match r.u8()? {
            0 => Status::Ready,
            1 => Status::Parked,
            2 => Status::PoolIdle,
            3 => Status::Done,
            _ => return Err(snap::SnapError::Corrupt { what: "Status" }),
        };
        self.next_wake = r.u64()?;
        self.park_class = restore_time_class(r)?;
        self.pending_class = r.opt(restore_time_class)?;
        self.singles_seen = r.usize()?;
        self.sections_seen = r.usize()?;
        self.dynloops_seen = r.usize()?;
        self.jobs_taken = r.u64()?;
        self.next_interrupt = r.u64()?;
        self.user = OpCounts {
            loads: r.u64()?,
            stores: r.u64()?,
            atomics: r.u64()?,
            compute_cycles: r.u64()?,
            io_in: r.u64()?,
            io_out: r.u64()?,
        };
        self.stores_converted = r.u64()?;
        self.stores_skipped = r.u64()?;
        self.watchdog_deadline = r.opt(|r| r.u64())?;
        self.watchdog_gen = r.u64()?;
        self.token_wait_deadline = r.opt(|r| r.u64())?;
        Ok(())
    }
}

fn snap_slip_clause(w: &mut snap::Writer, cl: &SlipstreamClause) {
    w.u8(match cl.sync {
        SlipSyncType::GlobalSync => 0,
        SlipSyncType::LocalSync => 1,
        SlipSyncType::RuntimeSync => 2,
        SlipSyncType::None => 3,
    });
    w.u64(cl.tokens);
}

fn restore_slip_clause(r: &mut snap::Reader) -> Result<SlipstreamClause, snap::SnapError> {
    let sync = match r.u8()? {
        0 => SlipSyncType::GlobalSync,
        1 => SlipSyncType::LocalSync,
        2 => SlipSyncType::RuntimeSync,
        3 => SlipSyncType::None,
        _ => {
            return Err(snap::SnapError::Corrupt {
                what: "SlipSyncType",
            })
        }
    };
    Ok(SlipstreamClause {
        sync,
        tokens: r.u64()?,
    })
}

impl<'p> Engine<'p> {
    /// Hash of everything that must match between the snapshotting engine
    /// and a restoring one: the compiled program and every configuration
    /// field that shapes simulation state. The cycle budget is excluded —
    /// it only bounds a run — and so is the trace config, which never
    /// shapes it. The fault plan is excluded too (it has its own swap
    /// rule; see [`Engine::restore`]).
    fn identity_hash(&self) -> u64 {
        use std::fmt::Write as _;
        let c = &self.cfg;
        let mut s = String::new();
        let _ = write!(
            s,
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.cp, c.machine, c.mode, c.env, c.policy, c.recovery, c.os_noise, c.mutation,
        );
        snap::fnv1a(s.as_bytes())
    }

    /// Hash of the fault plan, for the swap rule.
    fn fault_plan_hash(&self) -> u64 {
        snap::fnv1a(format!("{:?}", self.cfg.faults).as_bytes())
    }

    /// Serialize the complete mutable engine state into a versioned,
    /// checksummed snapshot. Call at a [`Engine::run_until`] boundary;
    /// a restored engine continued to completion produces results
    /// bit-identical to the uninterrupted run. Checkpoints are untraced:
    /// tracer state is not written, and [`Engine::restore`] refuses a
    /// traced configuration.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = snap::Writer::new();
        w.u64(self.identity_hash());
        w.u64(self.fault_plan_hash());
        w.seq(&self.fault_fired, |w, b| w.bool(*b));
        let (events, next_seq) = self.q.export();
        w.seq(&events, |w, &(t, s, c)| {
            w.u64(t);
            w.u64(s);
            w.usize(c.0);
        });
        w.u64(next_seq);
        self.ms.snapshot(&mut w);
        w.seq(&self.cpus, |w, c| c.snapshot(w));
        w.seq(&self.pairs, |w, p| p.snapshot(w));
        self.construct_barrier.snapshot(&mut w);
        self.region_barrier.snapshot(&mut w);
        w.seq(&self.critical_locks, |w, l| l.snapshot(w));
        self.reduction_lock.snapshot(&mut w);
        w.seq(&self.sched_locks, |w, l| l.snapshot(w));
        w.seq(&self.affinity_locks, |w, ls| {
            w.seq(ls, |w, l| l.snapshot(w))
        });
        w.u64s(&self.single_lines);
        w.u64s(&self.sections_lines);
        self.arena.snapshot(&mut w);
        w.opt(&self.global_slip, snap_slip_clause);
        match self.region_slip {
            RegionSlip::Off => w.u8(0),
            RegionSlip::On(s) => {
                w.u8(1);
                w.bool(s.global);
                w.u64(s.tokens);
            }
        }
        w.opt(&self.current_region, |w, n| w.u32(n.0));
        w.u64(self.job_gen);
        w.u64(self.job_flag);
        w.u64s(&self.alloc_next);
        w.u64(self.alloc_base_line);
        w.bool(self.master_done);
        w.u64(self.events);
        w.u64(self.sched_grabs_total);
        w.u64(self.sched_steals_total);
        snap::seal(SNAPSHOT_VERSION, &w.into_bytes())
    }

    /// Rebuild an engine from a snapshot taken by [`Engine::snapshot`].
    ///
    /// `cp` and `cfg` must describe the same simulation the snapshot was
    /// taken from (validated by the stored identity hash), with two
    /// allowed differences: the cycle budget, and the fault plan —
    /// which may be *swapped* for a different one only while no fault of
    /// the stored plan has fired yet (so a fault-free warmup can fork
    /// into many differently-faulted continuations). `cfg` must have
    /// tracing off.
    pub fn restore(
        cp: &'p CompiledProgram,
        cfg: EngineConfig,
        bytes: &[u8],
    ) -> Result<Self, String> {
        if cfg.trace.is_on() {
            return Err(format!("snapshot: {UNTRACED}"));
        }
        let payload = snap::open(bytes, SNAPSHOT_VERSION).map_err(|e| format!("snapshot: {e}"))?;
        let mut eng = Engine::new(cp, cfg);
        let mut r = snap::Reader::new(payload);
        eng.restore_fields(&mut r)
            .map_err(|e| format!("snapshot: {e}"))?;
        r.expect_end().map_err(|e| format!("snapshot: {e}"))?;
        Ok(eng)
    }

    fn restore_fields(&mut self, r: &mut snap::Reader) -> Result<(), String> {
        let stored_identity = r.u64()?;
        if stored_identity != self.identity_hash() {
            return Err(
                "identity mismatch: snapshot was taken under a different program or \
                 configuration"
                    .into(),
            );
        }
        let stored_plan = r.u64()?;
        let fired = r.seq(|r| r.bool())?;
        if stored_plan == self.fault_plan_hash() {
            if fired.len() != self.fault_fired.len() {
                return Err("fault-fired ledger length mismatch".into());
            }
            self.fault_fired = fired;
        } else if fired.iter().any(|&f| f) {
            return Err(
                "cannot swap the fault plan: a fault of the stored plan already fired \
                 before the checkpoint"
                    .into(),
            );
        }
        let events = r.seq(|r| Ok((r.u64()?, r.u64()?, CpuId(r.usize()?))))?;
        let next_seq = r.u64()?;
        self.q = EventQueue::import(&events, next_seq);
        self.ms.restore_into(r)?;
        let ncpus = r.usize()?;
        if ncpus != self.cpus.len() {
            return Err("processor count mismatch".into());
        }
        for c in self.cpus.iter_mut() {
            c.restore_into(r)?;
        }
        let npairs = r.usize()?;
        if npairs != self.pairs.len() {
            return Err("pair count mismatch".into());
        }
        for p in self.pairs.iter_mut() {
            p.restore_into(r)?;
        }
        self.construct_barrier = Barrier::restore(r)?;
        self.region_barrier = Barrier::restore(r)?;
        self.critical_locks = r.seq(Lock::restore)?;
        self.reduction_lock = Lock::restore(r)?;
        self.sched_locks = r.seq(Lock::restore)?;
        self.affinity_locks = r.seq(|r| r.seq(Lock::restore))?;
        self.single_lines = r.u64s()?;
        self.sections_lines = r.u64s()?;
        self.arena = ConstructArena::restore(r)?;
        self.global_slip = r.opt(restore_slip_clause)?;
        self.region_slip = match r.u8()? {
            0 => RegionSlip::Off,
            1 => RegionSlip::On(SlipSync {
                global: r.bool()?,
                tokens: r.u64()?,
            }),
            _ => return Err("corrupt RegionSlip".into()),
        };
        self.current_region = r.opt(|r| Ok(NodeId(r.u32()?)))?;
        self.job_gen = r.u64()?;
        self.job_flag = r.u64()?;
        self.alloc_next = r.u64s()?;
        self.alloc_base_line = r.u64()?;
        self.master_done = r.bool()?;
        self.events = r.u64()?;
        self.sched_grabs_total = r.u64()?;
        self.sched_steals_total = r.u64()?;
        Ok(())
    }
}
