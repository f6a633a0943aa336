//! Typed trace events.
//!
//! Events carry `&'static str` labels (time classes, fill classes, fault
//! kinds, decision kinds) rather than the enums of the crates that emit
//! them, so `sim-trace` sits below `dsm-sim` and `slipstream` in the
//! dependency graph and never needs to know their types.

/// Which kind of track an event was recorded on. CPU tracks are indexed by
/// global CPU id; CMP tracks (shared-L2 / memory-system events) by node id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrackDomain {
    /// One track per simulated CPU.
    Cpu,
    /// One track per CMP node (shared L2 + directory).
    Cmp,
}

/// A structured trace event. Instants unless noted otherwise.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// An L2 fill completing on a CMP: the line, whether the requesting
    /// access was an exclusive (write) miss, whether the fill came from a
    /// remote home node, and the issue/complete cycles of the miss path.
    MemFill {
        line: u64,
        read_ex: bool,
        remote: bool,
        issue: u64,
        complete: u64,
    },
    /// Final prefetch-timeliness classification of a fill
    /// (`"A-Timely"`, `"A-Late"`, `"A-Only"`, `"R-Timely"`, ...), emitted
    /// when the fill record is retired (replacement, invalidation, or end
    /// of run).
    FillClass {
        line: u64,
        class: &'static str,
        complete: u64,
    },
    /// A CPU arrived at a barrier (`internal` = runtime-internal barrier
    /// such as the construct barrier, vs. a program barrier address).
    BarrierArrive {
        addr: u64,
        generation: u64,
        arrived: u32,
        total: u32,
    },
    /// Last arrival released the barrier, waking `woken` waiters.
    BarrierRelease {
        addr: u64,
        generation: u64,
        woken: u32,
    },
    /// R-stream inserted a token into pair `pair`'s semaphore (`lost` =
    /// swallowed by an injected TokenLoss fault). `count` is the semaphore
    /// count after the insert.
    TokenInsert {
        pair: u32,
        seq: u64,
        count: i64,
        lost: bool,
    },
    /// A-stream consumed a token to skip a barrier. `count` is the
    /// semaphore count after the consume.
    TokenConsume { pair: u32, count: i64 },
    /// A-stream blocked on an empty token semaphore.
    TokenWait { pair: u32 },
    /// A-stream published a dynamic-scheduling decision (`kind` is the
    /// decision label; `lost` = swallowed by an injected SignalLoss fault).
    DecisionPublish {
        pair: u32,
        seq: u64,
        kind: &'static str,
        lost: bool,
    },
    /// R-stream consumed a published decision.
    DecisionConsume { pair: u32, kind: &'static str },
    /// A fault-plan event fired.
    Fault {
        kind: &'static str,
        site: &'static str,
        pair: u32,
        seq: u64,
    },
    /// A recovery episode (A-stream reseed) ran on `pair`; `watchdog` is
    /// true when the region-end watchdog tripped it and `timeout` when the
    /// token-wait timeout did (plain slack suspicion otherwise).
    Recovery {
        pair: u32,
        watchdog: bool,
        timeout: bool,
    },
    /// `pair` was demoted to single-stream mode after exhausting retries.
    Demotion { pair: u32 },
    /// A–R lead distance sample for `pair` (A epoch minus R epoch),
    /// recorded whenever either side crosses an epoch boundary.
    Lead { pair: u32, lead: i64 },
}

impl TraceEvent {
    /// Short name used for the Perfetto event title.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::MemFill { .. } => "fill",
            TraceEvent::FillClass { class, .. } => class,
            TraceEvent::BarrierArrive { .. } => "barrier-arrive",
            TraceEvent::BarrierRelease { .. } => "barrier-release",
            TraceEvent::TokenInsert { lost: true, .. } => "token-insert-lost",
            TraceEvent::TokenInsert { .. } => "token-insert",
            TraceEvent::TokenConsume { .. } => "token-consume",
            TraceEvent::TokenWait { .. } => "token-wait",
            TraceEvent::DecisionPublish { lost: true, .. } => "decision-publish-lost",
            TraceEvent::DecisionPublish { .. } => "decision-publish",
            TraceEvent::DecisionConsume { .. } => "decision-consume",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::Demotion { .. } => "demotion",
            TraceEvent::Lead { .. } => "lead",
        }
    }
}

/// An event stamped with its cycle, track, and a per-tracer sequence number
/// that makes the merge order across tracks total and deterministic.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    pub cycle: u64,
    pub domain: TrackDomain,
    pub track: u32,
    pub seq: u64,
    pub ev: TraceEvent,
}

impl TimedEvent {
    /// Deterministic total-order key for merged timelines.
    pub fn order_key(&self) -> (u64, u8, u32, u64) {
        let d = match self.domain {
            TrackDomain::Cpu => 0u8,
            TrackDomain::Cmp => 1u8,
        };
        (self.cycle, d, self.track, self.seq)
    }
}

/// A coalesced time-class segment on a CPU track (rendered as a Perfetto
/// "X" complete slice).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub class: &'static str,
    pub start: u64,
    pub end: u64,
}

// ---------------------------------------------------------------------------
// Snapshot codecs. Labels are stored as strings and re-interned on restore
// (`snap::intern`), so a restored event's `&'static str` compares equal to
// the original label even though the pointer may differ.

impl TrackDomain {
    /// Snapshot discriminant.
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.u8(match self {
            TrackDomain::Cpu => 0,
            TrackDomain::Cmp => 1,
        });
    }

    /// Restore from a snapshot discriminant.
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        match r.u8()? {
            0 => Ok(TrackDomain::Cpu),
            1 => Ok(TrackDomain::Cmp),
            _ => Err(snap::SnapError::Corrupt {
                what: "TrackDomain",
            }),
        }
    }
}

impl TraceEvent {
    /// Serialize the event (tag byte + fields in declaration order).
    pub fn snapshot(&self, w: &mut snap::Writer) {
        match self {
            TraceEvent::MemFill {
                line,
                read_ex,
                remote,
                issue,
                complete,
            } => {
                w.u8(0);
                w.u64(*line);
                w.bool(*read_ex);
                w.bool(*remote);
                w.u64(*issue);
                w.u64(*complete);
            }
            TraceEvent::FillClass {
                line,
                class,
                complete,
            } => {
                w.u8(1);
                w.u64(*line);
                w.str(class);
                w.u64(*complete);
            }
            TraceEvent::BarrierArrive {
                addr,
                generation,
                arrived,
                total,
            } => {
                w.u8(2);
                w.u64(*addr);
                w.u64(*generation);
                w.u32(*arrived);
                w.u32(*total);
            }
            TraceEvent::BarrierRelease {
                addr,
                generation,
                woken,
            } => {
                w.u8(3);
                w.u64(*addr);
                w.u64(*generation);
                w.u32(*woken);
            }
            TraceEvent::TokenInsert {
                pair,
                seq,
                count,
                lost,
            } => {
                w.u8(4);
                w.u32(*pair);
                w.u64(*seq);
                w.i64(*count);
                w.bool(*lost);
            }
            TraceEvent::TokenConsume { pair, count } => {
                w.u8(5);
                w.u32(*pair);
                w.i64(*count);
            }
            TraceEvent::TokenWait { pair } => {
                w.u8(6);
                w.u32(*pair);
            }
            TraceEvent::DecisionPublish {
                pair,
                seq,
                kind,
                lost,
            } => {
                w.u8(7);
                w.u32(*pair);
                w.u64(*seq);
                w.str(kind);
                w.bool(*lost);
            }
            TraceEvent::DecisionConsume { pair, kind } => {
                w.u8(8);
                w.u32(*pair);
                w.str(kind);
            }
            TraceEvent::Fault {
                kind,
                site,
                pair,
                seq,
            } => {
                w.u8(9);
                w.str(kind);
                w.str(site);
                w.u32(*pair);
                w.u64(*seq);
            }
            TraceEvent::Recovery {
                pair,
                watchdog,
                timeout,
            } => {
                w.u8(10);
                w.u32(*pair);
                w.bool(*watchdog);
                w.bool(*timeout);
            }
            TraceEvent::Demotion { pair } => {
                w.u8(11);
                w.u32(*pair);
            }
            TraceEvent::Lead { pair, lead } => {
                w.u8(12);
                w.u32(*pair);
                w.i64(*lead);
            }
        }
    }

    /// Restore an event written by [`TraceEvent::snapshot`].
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        let label = |r: &mut snap::Reader| -> Result<&'static str, snap::SnapError> {
            Ok(snap::intern(&r.string()?))
        };
        Ok(match r.u8()? {
            0 => TraceEvent::MemFill {
                line: r.u64()?,
                read_ex: r.bool()?,
                remote: r.bool()?,
                issue: r.u64()?,
                complete: r.u64()?,
            },
            1 => TraceEvent::FillClass {
                line: r.u64()?,
                class: label(r)?,
                complete: r.u64()?,
            },
            2 => TraceEvent::BarrierArrive {
                addr: r.u64()?,
                generation: r.u64()?,
                arrived: r.u32()?,
                total: r.u32()?,
            },
            3 => TraceEvent::BarrierRelease {
                addr: r.u64()?,
                generation: r.u64()?,
                woken: r.u32()?,
            },
            4 => TraceEvent::TokenInsert {
                pair: r.u32()?,
                seq: r.u64()?,
                count: r.i64()?,
                lost: r.bool()?,
            },
            5 => TraceEvent::TokenConsume {
                pair: r.u32()?,
                count: r.i64()?,
            },
            6 => TraceEvent::TokenWait { pair: r.u32()? },
            7 => TraceEvent::DecisionPublish {
                pair: r.u32()?,
                seq: r.u64()?,
                kind: label(r)?,
                lost: r.bool()?,
            },
            8 => TraceEvent::DecisionConsume {
                pair: r.u32()?,
                kind: label(r)?,
            },
            9 => TraceEvent::Fault {
                kind: label(r)?,
                site: label(r)?,
                pair: r.u32()?,
                seq: r.u64()?,
            },
            10 => TraceEvent::Recovery {
                pair: r.u32()?,
                watchdog: r.bool()?,
                timeout: r.bool()?,
            },
            11 => TraceEvent::Demotion { pair: r.u32()? },
            12 => TraceEvent::Lead {
                pair: r.u32()?,
                lead: r.i64()?,
            },
            _ => {
                return Err(snap::SnapError::Corrupt {
                    what: "TraceEvent tag",
                })
            }
        })
    }
}

impl TimedEvent {
    /// Serialize the stamped event.
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.u64(self.cycle);
        self.domain.snapshot(w);
        w.u32(self.track);
        w.u64(self.seq);
        self.ev.snapshot(w);
    }

    /// Restore a stamped event.
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        Ok(TimedEvent {
            cycle: r.u64()?,
            domain: TrackDomain::restore(r)?,
            track: r.u32()?,
            seq: r.u64()?,
            ev: TraceEvent::restore(r)?,
        })
    }
}

impl Span {
    /// Serialize the span (class label stored as a string).
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.str(self.class);
        w.u64(self.start);
        w.u64(self.end);
    }

    /// Restore a span, re-interning the class label.
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        Ok(Span {
            class: snap::intern(&r.string()?),
            start: r.u64()?,
            end: r.u64()?,
        })
    }
}
