//! Per-processor execution timeline.
//!
//! A [`CpuTimeline`] tracks where a simulated in-order processor is in time
//! and attributes every elapsed cycle to a [`TimeClass`] bucket. The MIPSY
//! model of the paper is approximated as one operation per cycle plus
//! blocking memory stalls; instruction fetch is folded into busy cycles.

use crate::engine::Cycle;
use crate::stats::{CpuStats, TimeClass};
use sim_trace::{Span, SpanLog};

/// Execution state of one simulated processor.
#[derive(Debug, Default)]
pub struct CpuTimeline {
    now: Cycle,
    /// Counters for this processor.
    pub stats: CpuStats,
    /// Coalesced time-class span log, present only when tracing is on.
    /// Boxed so the untraced timeline stays one pointer wider, and the
    /// hot attribution paths pay a single `Option` check.
    spans: Option<Box<SpanLog>>,
}

impl CpuTimeline {
    /// A processor at cycle 0 with empty counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The processor's current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Execute `cycles` of work attributed to `class`.
    pub fn busy(&mut self, cycles: Cycle, class: TimeClass) {
        let start = self.now;
        self.now += cycles;
        self.stats.time.add(class, cycles);
        if let Some(log) = &mut self.spans {
            log.note(class.label(), start, self.now);
        }
    }

    /// Advance to absolute cycle `to`, attributing the gap to `class`.
    /// `to` values in the past are ignored (no negative time).
    pub fn advance_to(&mut self, to: Cycle, class: TimeClass) {
        if to > self.now {
            self.stats.time.add(class, to - self.now);
            if let Some(log) = &mut self.spans {
                log.note(class.label(), self.now, to);
            }
            self.now = to;
        }
    }

    /// Account a completed memory access: the access busy-executes for
    /// `issue_cycles` (pipeline occupancy) and then stalls until `complete`.
    /// The stall lands in `stall_class` (MemStall in user code, Scheduling
    /// inside the runtime scheduler, ...).
    pub fn mem_access(&mut self, issue_cycles: Cycle, complete: Cycle, stall_class: TimeClass) {
        self.busy(issue_cycles, TimeClass::Busy);
        self.advance_to(complete, stall_class);
    }

    /// Jump the clock without attribution — only for initial placement
    /// before a processor has started executing.
    pub fn place_at(&mut self, t: Cycle) {
        debug_assert_eq!(self.stats.time.total(), 0, "placement after execution");
        self.now = t;
    }

    /// Start recording coalesced time-class spans into a log of at most
    /// `capacity` slices. `capacity == 0` leaves tracing off.
    pub fn enable_trace(&mut self, capacity: usize) {
        if capacity > 0 {
            self.spans = Some(Box::new(SpanLog::new(capacity)));
        }
    }

    /// Take the recorded spans (plus the overflow-drop count), if tracing
    /// was enabled. The timeline reverts to untraced.
    pub fn take_spans(&mut self) -> Option<(Vec<Span>, u64)> {
        self.spans.take().map(|log| log.finish())
    }

    /// Serialize the timeline state (clock and counters; the span log is
    /// not written, as checkpoints are untraced).
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.u64(self.now);
        self.stats.snapshot(w);
    }

    /// Overwrite this timeline with snapshot state. Unlike [`place_at`],
    /// this restores mid-run state, so non-zero counters are expected.
    ///
    /// [`place_at`]: CpuTimeline::place_at
    pub fn restore_into(&mut self, r: &mut snap::Reader) -> Result<(), snap::SnapError> {
        self.now = r.u64()?;
        self.stats = CpuStats::restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_advances_and_attributes() {
        let mut c = CpuTimeline::new();
        c.busy(100, TimeClass::Busy);
        c.busy(20, TimeClass::Scheduling);
        assert_eq!(c.now(), 120);
        assert_eq!(c.stats.time.get(TimeClass::Busy), 100);
        assert_eq!(c.stats.time.get(TimeClass::Scheduling), 20);
    }

    #[test]
    fn advance_to_ignores_past_targets() {
        let mut c = CpuTimeline::new();
        c.busy(50, TimeClass::Busy);
        c.advance_to(40, TimeClass::MemStall);
        assert_eq!(c.now(), 50);
        assert_eq!(c.stats.time.get(TimeClass::MemStall), 0);
        c.advance_to(80, TimeClass::MemStall);
        assert_eq!(c.now(), 80);
        assert_eq!(c.stats.time.get(TimeClass::MemStall), 30);
    }

    #[test]
    fn mem_access_splits_issue_and_stall() {
        let mut c = CpuTimeline::new();
        // Issue takes 1 cycle; data arrives at cycle 349.
        c.mem_access(1, 349, TimeClass::MemStall);
        assert_eq!(c.now(), 349);
        assert_eq!(c.stats.time.get(TimeClass::Busy), 1);
        assert_eq!(c.stats.time.get(TimeClass::MemStall), 348);
        assert_eq!(c.stats.time.total(), 349);
    }

    #[test]
    fn fast_access_has_no_stall() {
        let mut c = CpuTimeline::new();
        c.busy(10, TimeClass::Busy);
        // L1 hit completing within the issue cycle.
        c.mem_access(1, 11, TimeClass::MemStall);
        assert_eq!(c.stats.time.get(TimeClass::MemStall), 0);
        assert_eq!(c.now(), 11);
    }

    #[test]
    fn placement_sets_start_time() {
        let mut c = CpuTimeline::new();
        c.place_at(500);
        assert_eq!(c.now(), 500);
        assert_eq!(c.stats.time.total(), 0);
    }

    #[test]
    fn traced_timeline_coalesces_spans_without_changing_stats() {
        let mut traced = CpuTimeline::new();
        traced.enable_trace(64);
        let mut plain = CpuTimeline::new();
        for c in [&mut traced, &mut plain] {
            c.busy(10, TimeClass::Busy);
            c.busy(5, TimeClass::Busy);
            c.mem_access(1, 100, TimeClass::MemStall);
            c.advance_to(150, TimeClass::Barrier);
        }
        assert_eq!(traced.now(), plain.now());
        assert_eq!(traced.stats.time, plain.stats.time);
        let (spans, dropped) = traced.take_spans().unwrap();
        assert_eq!(dropped, 0);
        let view: Vec<_> = spans.iter().map(|s| (s.class, s.start, s.end)).collect();
        assert_eq!(
            view,
            [("busy", 0, 16), ("memory", 16, 100), ("barrier", 100, 150)]
        );
        assert!(plain.take_spans().is_none());
    }

    #[test]
    fn enable_trace_with_zero_capacity_stays_off() {
        let mut c = CpuTimeline::new();
        c.enable_trace(0);
        c.busy(10, TimeClass::Busy);
        assert!(c.take_spans().is_none());
    }
}
