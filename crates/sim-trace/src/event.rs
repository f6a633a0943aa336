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
