//! The recording side: `TraceConfig`, per-domain `Tracer`s, coalescing
//! `SpanLog`s for CPU time-class timelines, and the merged `TraceData`
//! that a finished run hands to sinks.

use crate::event::{Span, TimedEvent, TraceEvent, TrackDomain};
use crate::ring::EventRing;

/// Per-track default ring capacity when tracing is switched on without an
/// explicit size: 64Ki events per track (~4 MiB/track worst case).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Single knob that turns the subsystem on. The default is off, and off
/// means *structurally* off: tracers hold no buffers, span logs are
/// `None`, and every record hook reduces to one predictable branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    pub enabled: bool,
    /// Per-track ring capacity in events. 0 behaves exactly like
    /// `enabled = false`.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::OFF
    }
}

impl TraceConfig {
    pub const OFF: TraceConfig = TraceConfig {
        enabled: false,
        capacity: 0,
    };

    /// Tracing on with the default per-track capacity.
    pub fn on() -> Self {
        TraceConfig {
            enabled: true,
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// Tracing on with an explicit per-track capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceConfig {
            enabled: true,
            capacity,
        }
    }

    /// Effective switch: enabled with a non-zero buffer.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.enabled && self.capacity > 0
    }
}

/// Records typed events onto per-track rings for one `TrackDomain`.
///
/// A disabled tracer is a zero-byte shell: `is_on()` is a single bool
/// load, and callers are expected to guard event *construction* behind it
/// so the off path never materialises a `TraceEvent`.
#[derive(Clone, Debug)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    domain: TrackDomain,
    seq: u64,
    tracks: Vec<EventRing>,
}

impl Tracer {
    pub fn new(cfg: &TraceConfig, domain: TrackDomain) -> Self {
        Tracer {
            enabled: cfg.is_on(),
            capacity: cfg.capacity,
            domain,
            seq: 0,
            tracks: Vec::new(),
        }
    }

    /// A tracer that records nothing (the default for every subsystem).
    pub fn disabled(domain: TrackDomain) -> Self {
        Tracer::new(&TraceConfig::OFF, domain)
    }

    #[inline]
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    pub fn domain(&self) -> TrackDomain {
        self.domain
    }

    /// Record `ev` on `track` at `cycle`. No-op when disabled, but prefer
    /// guarding with `is_on()` at the call site so the event payload is
    /// never built on the off path.
    pub fn record(&mut self, cycle: u64, track: u32, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        let t = track as usize;
        if self.tracks.len() <= t {
            let cap = self.capacity;
            self.tracks.resize_with(t + 1, || EventRing::new(cap));
        }
        let seq = self.seq;
        self.seq += 1;
        self.tracks[t].push(TimedEvent {
            cycle,
            domain: self.domain,
            track,
            seq,
            ev,
        });
    }

    /// Consume the tracer: all surviving events (unsorted across tracks,
    /// in-order within each) plus the total overwritten-event count.
    pub fn drain(self) -> (Vec<TimedEvent>, u64) {
        let mut all = Vec::new();
        let mut dropped = 0;
        for ring in self.tracks {
            let (evs, d) = ring.drain();
            all.extend(evs);
            dropped += d;
        }
        (all, dropped)
    }
}

/// Coalescing log of (time-class, start, end) segments for one CPU.
///
/// `CpuTimeline` attributes every cycle to a `TimeClass` as it advances;
/// the span log glues adjacent same-class segments into single slices so a
/// tight compute loop costs one comparison per attribution, not one event.
#[derive(Clone, Debug)]
pub struct SpanLog {
    capacity: usize,
    spans: Vec<Span>,
    cur: Option<Span>,
    dropped: u64,
}

impl SpanLog {
    pub fn new(capacity: usize) -> Self {
        SpanLog {
            capacity,
            spans: Vec::new(),
            cur: None,
            dropped: 0,
        }
    }

    /// Attribute `[start, end)` to `class`, merging with the open span
    /// when contiguous and same-class. Zero-length segments are ignored.
    pub fn note(&mut self, class: &'static str, start: u64, end: u64) {
        if end <= start || self.capacity == 0 {
            return;
        }
        match &mut self.cur {
            Some(c) if c.class == class && c.end == start => {
                c.end = end;
            }
            Some(c) => {
                let done = *c;
                self.cur = Some(Span { class, start, end });
                self.push_span(done);
            }
            None => {
                self.cur = Some(Span { class, start, end });
            }
        }
    }

    fn push_span(&mut self, s: Span) {
        if self.spans.len() < self.capacity {
            self.spans.push(s);
        } else {
            self.dropped += 1;
        }
    }

    /// Close the open span and return all slices plus the dropped count.
    pub fn finish(mut self) -> (Vec<Span>, u64) {
        if let Some(c) = self.cur.take() {
            self.push_span(c);
        }
        (self.spans, self.dropped)
    }
}

/// Everything a traced run produced, merged and deterministically ordered.
/// Carried on `RunResult` as `Option<TraceData>`; explicitly *excluded*
/// from stats fingerprints — tracing is observation-only.
#[derive(Clone, Debug, Default)]
pub struct TraceData {
    /// Total simulated cycles of the run.
    pub cycles: u64,
    /// Display name per CPU track, e.g. `"cpu3 (A)"`.
    pub cpu_names: Vec<String>,
    /// Number of CMP-domain tracks (shared-L2 events).
    pub cmp_count: usize,
    /// Coalesced time-class slices, one vec per CPU.
    pub spans: Vec<Vec<Span>>,
    /// All instant events, sorted by `(cycle, domain, track, seq)`.
    pub events: Vec<TimedEvent>,
    /// Events lost to ring wraparound or span-log overflow.
    pub dropped: u64,
}

impl TraceData {
    /// Merge any number of drained tracers into sorted `events`.
    pub fn merge_events(&mut self, batches: Vec<(Vec<TimedEvent>, u64)>) {
        for (evs, dropped) in batches {
            self.events.extend(evs);
            self.dropped += dropped;
        }
        self.events.sort_by_key(|e| e.order_key());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled(TrackDomain::Cpu);
        assert!(!t.is_on());
        for c in 0..100 {
            t.record(c, 0, TraceEvent::TokenWait { pair: 0 });
        }
        let (evs, dropped) = t.drain();
        assert!(evs.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn config_capacity_zero_is_off() {
        let cfg = TraceConfig {
            enabled: true,
            capacity: 0,
        };
        assert!(!cfg.is_on());
        let t = Tracer::new(&cfg, TrackDomain::Cpu);
        assert!(!t.is_on());
    }

    #[test]
    fn merge_orders_across_tracks_by_cycle_then_track() {
        let cfg = TraceConfig::with_capacity(16);
        let mut cpu = Tracer::new(&cfg, TrackDomain::Cpu);
        let mut cmp = Tracer::new(&cfg, TrackDomain::Cmp);
        // Interleave out of track order.
        cpu.record(5, 1, TraceEvent::TokenWait { pair: 0 });
        cpu.record(5, 0, TraceEvent::TokenWait { pair: 0 });
        cmp.record(
            5,
            0,
            TraceEvent::FillClass {
                line: 1,
                class: "A-Timely",
                complete: 5,
            },
        );
        cpu.record(2, 3, TraceEvent::TokenWait { pair: 1 });

        let mut td = TraceData::default();
        td.merge_events(vec![cpu.drain(), cmp.drain()]);
        let keys: Vec<_> = td.events.iter().map(|e| (e.cycle, e.track)).collect();
        assert_eq!(keys, [(2, 3), (5, 0), (5, 1), (5, 0)]);
        // Same cycle: all CPU-domain events precede CMP-domain events.
        assert_eq!(td.events[1].domain, TrackDomain::Cpu);
        assert_eq!(td.events[3].domain, TrackDomain::Cmp);
    }

    #[test]
    fn span_log_coalesces_contiguous_same_class() {
        let mut log = SpanLog::new(16);
        log.note("Busy", 0, 10);
        log.note("Busy", 10, 20);
        log.note("MemStall", 20, 30);
        log.note("Busy", 35, 40); // gap: no merge
        let (spans, dropped) = log.finish();
        assert_eq!(dropped, 0);
        assert_eq!(
            spans,
            vec![
                Span {
                    class: "Busy",
                    start: 0,
                    end: 20
                },
                Span {
                    class: "MemStall",
                    start: 20,
                    end: 30
                },
                Span {
                    class: "Busy",
                    start: 35,
                    end: 40
                },
            ]
        );
    }

    #[test]
    fn span_log_capacity_zero_records_nothing() {
        let mut log = SpanLog::new(0);
        log.note("Busy", 0, 10);
        let (spans, dropped) = log.finish();
        assert!(spans.is_empty());
        assert_eq!(dropped, 0);
    }
}
