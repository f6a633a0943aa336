//! `sim-trace`: structured event tracing for the slipstream simulator.
//!
//! The paper's figures (2–5) are time-attribution stories — who stalls
//! where, how far the A-stream leads, whether prefetches land Timely or
//! Late. This crate gives the reproduction a per-cycle window into that
//! machinery: typed events recorded into fixed-capacity per-track ring
//! buffers, merged deterministically, and distilled into timeline
//! analytics. The Chrome trace-event/Perfetto exporter lives in
//! `slipstream::perfetto`, next to the workspace's one JSON parser.
//!
//! Design constraints, in order:
//!
//! 1. **Observation-only.** Recording never charges simulated cycles or
//!    mutates engine state; a traced run must produce bit-identical stats
//!    to an untraced run (the golden parity test in `bench` enforces it).
//! 2. **Zero overhead when off.** A disabled [`Tracer`] holds no buffers;
//!    every hook is guarded by a single `is_on()` bool load, and event
//!    payloads are only constructed on the enabled path.
//! 3. **Bounded memory.** Per-track rings drop-oldest on overflow and
//!    count what they dropped; nothing grows with run length except up to
//!    the configured capacity.
//! 4. **Not simulation state.** Nothing here is serialized: engine
//!    checkpoints are untraced (a traced checkpoint, resume or restore is
//!    an error), so the crate has no codec and no code dependency.
//!
//! Layering: this crate sits *below* `dsm-sim` and `slipstream`. Events
//! carry `&'static str` labels instead of simulator enums so the
//! dependency arrow points one way only.

pub mod analytics;
pub mod event;
pub mod ring;
pub mod tracer;

pub use analytics::{
    analyze, PairLead, RecoveryEpisode, SlackHistogram, TimelinessStreak, TraceAnalytics,
};
pub use event::{Span, TimedEvent, TraceEvent, TrackDomain};
pub use ring::EventRing;
pub use tracer::{SpanLog, TraceConfig, TraceData, Tracer, DEFAULT_CAPACITY};
