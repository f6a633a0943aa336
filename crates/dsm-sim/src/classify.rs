//! Shared-data request classification (Figures 3 and 5 of the paper).
//!
//! Every fill of a shared line into a CMP's L2 is attributed to the stream
//! that requested it (A or R) and later judged by what the *other* stream
//! of the pair did with it before the line left the cache:
//!
//! * **A-Timely** — the A-stream brought the line in and the R-stream
//!   referenced it after the fill completed: a successful prefetch.
//! * **A-Late** — the R-stream referenced the line while the A-stream's
//!   fill was still in flight: partially hidden latency.
//! * **A-Only** — the line was evicted or invalidated before the R-stream
//!   ever touched it: harmful traffic (premature prefetch).
//! * **R-Timely / R-Late / R-Only** — the mirror categories for lines the
//!   R-stream fetched (R-Only is the ordinary demand-miss case; R-Timely
//!   and R-Late mean the R-stream effectively prefetched for its A-stream).
//!
//! Read fills and read-exclusive fills are tallied separately, because the
//! paper reports read-exclusive *coverage* (A-stream store-to-prefetch
//! conversions) as its own series.

use crate::address::{CmpId, LineAddr};
use crate::engine::Cycle;
use crate::stats::StreamRole;
use crate::util::FastMap;
use sim_trace::{TraceConfig, TraceEvent, Tracer, TrackDomain};

/// What kind of ownership a fill acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// GetS: a read (shared) copy.
    Read,
    /// GetX: an exclusive (writable) copy — demand store miss, upgrade, or
    /// A-stream store-conversion prefetch.
    ReadEx,
}

/// Final category of one fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FillClass {
    /// A-stream fill, R-stream used it after completion.
    ATimely,
    /// A-stream fill, R-stream used it while still in flight.
    ALate,
    /// A-stream fill never used by the R-stream (premature/harmful).
    AOnly,
    /// R-stream fill, A-stream used it after completion.
    RTimely,
    /// R-stream fill, A-stream used it while still in flight.
    RLate,
    /// R-stream fill used only by the R-stream (ordinary demand miss).
    ROnly,
}

/// All classes in display order.
pub const FILL_CLASSES: [FillClass; 6] = [
    FillClass::ATimely,
    FillClass::ALate,
    FillClass::AOnly,
    FillClass::RTimely,
    FillClass::RLate,
    FillClass::ROnly,
];

impl FillClass {
    fn index(self) -> usize {
        match self {
            FillClass::ATimely => 0,
            FillClass::ALate => 1,
            FillClass::AOnly => 2,
            FillClass::RTimely => 3,
            FillClass::RLate => 4,
            FillClass::ROnly => 5,
        }
    }

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FillClass::ATimely => "A-Timely",
            FillClass::ALate => "A-Late",
            FillClass::AOnly => "A-Only",
            FillClass::RTimely => "R-Timely",
            FillClass::RLate => "R-Late",
            FillClass::ROnly => "R-Only",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct FillRecord {
    issuer: StreamRole,
    kind: ReqKind,
    complete: Cycle,
    /// Earliest reference by the stream that did NOT issue the fill.
    other_first_use: Option<Cycle>,
}

/// Counts of fills per (kind, class).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillCounts {
    counts: [[u64; FILL_CLASSES.len()]; 2],
}

fn kind_index(kind: ReqKind) -> usize {
    match kind {
        ReqKind::Read => 0,
        ReqKind::ReadEx => 1,
    }
}

impl FillCounts {
    /// Count for a (kind, class) cell.
    pub fn get(&self, kind: ReqKind, class: FillClass) -> u64 {
        self.counts[kind_index(kind)][class.index()]
    }

    fn bump(&mut self, kind: ReqKind, class: FillClass) {
        self.counts[kind_index(kind)][class.index()] += 1;
    }

    /// Total fills of a kind.
    pub fn total(&self, kind: ReqKind) -> u64 {
        self.counts[kind_index(kind)].iter().sum()
    }

    /// Fraction of `kind` fills in `class` (0 when no fills).
    pub fn fraction(&self, kind: ReqKind, class: FillClass) -> f64 {
        let t = self.total(kind);
        if t == 0 {
            0.0
        } else {
            self.get(kind, class) as f64 / t as f64
        }
    }

    /// Fraction of `kind` fills issued by the A-stream that the R-stream
    /// consumed (timely or late): the paper's "coverage".
    pub fn a_coverage(&self, kind: ReqKind) -> f64 {
        self.fraction(kind, FillClass::ATimely) + self.fraction(kind, FillClass::ALate)
    }

    /// Fraction of `kind` fills referenced by both streams.
    pub fn both_streams_fraction(&self, kind: ReqKind) -> f64 {
        self.fraction(kind, FillClass::ATimely)
            + self.fraction(kind, FillClass::ALate)
            + self.fraction(kind, FillClass::RTimely)
            + self.fraction(kind, FillClass::RLate)
    }

    /// Element-wise accumulate.
    pub fn merge(&mut self, other: &FillCounts) {
        for (row_a, row_b) in self.counts.iter_mut().zip(other.counts.iter()) {
            for (a, b) in row_a.iter_mut().zip(row_b.iter()) {
                *a += *b;
            }
        }
    }
}

/// Tracks live fills per (CMP, line) and classifies them when the line
/// leaves the cache (eviction/invalidation) or the simulation ends.
#[derive(Debug)]
pub struct Classifier {
    live: FastMap<u64, FillRecord>,
    /// Classified fill tallies.
    pub counts: FillCounts,
    /// Trace sink for final classifications (disabled by default).
    tracer: Tracer,
}

impl Default for Classifier {
    fn default() -> Self {
        Classifier {
            live: FastMap::default(),
            counts: FillCounts::default(),
            tracer: Tracer::disabled(TrackDomain::Cmp),
        }
    }
}

fn key(cmp: CmpId, line: LineAddr) -> u64 {
    // Line addresses fit comfortably below 2^56.
    ((cmp.0 as u64) << 56) | line.0
}

const KEY_LINE_MASK: u64 = (1 << 56) - 1;

impl Classifier {
    /// Empty classifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared-line fill was issued into `cmp`'s L2 by a paired stream.
    /// `complete` is when the data arrives. Any previous live record for the
    /// same line is finalized first (it is being replaced).
    pub fn on_fill(
        &mut self,
        cmp: CmpId,
        line: LineAddr,
        issuer: StreamRole,
        kind: ReqKind,
        complete: Cycle,
    ) {
        debug_assert!(issuer != StreamRole::Solo, "only paired streams classify");
        let k = key(cmp, line);
        if let Some(old) = self.live.insert(
            k,
            FillRecord {
                issuer,
                kind,
                complete,
                other_first_use: None,
            },
        ) {
            self.finalize(k, old);
        }
    }

    /// A stream referenced a shared line resident (or in flight) in `cmp`'s
    /// L2 at time `now`.
    pub fn on_reference(&mut self, cmp: CmpId, line: LineAddr, who: StreamRole, now: Cycle) {
        if who == StreamRole::Solo {
            return;
        }
        if let Some(rec) = self.live.get_mut(&key(cmp, line)) {
            if rec.issuer != who && rec.other_first_use.is_none() {
                rec.other_first_use = Some(now);
            }
        }
    }

    /// The line left `cmp`'s L2 (eviction or invalidation): classify it.
    pub fn on_drop(&mut self, cmp: CmpId, line: LineAddr) {
        let k = key(cmp, line);
        if let Some(rec) = self.live.remove(&k) {
            self.finalize(k, rec);
        }
    }

    /// Classify every still-live fill (call at end of simulation).
    pub fn finish(&mut self) {
        let live = std::mem::take(&mut self.live);
        for (k, rec) in live {
            self.finalize(k, rec);
        }
    }

    fn finalize(&mut self, k: u64, rec: FillRecord) {
        let class = match (rec.issuer, rec.other_first_use) {
            (StreamRole::A, Some(t)) if t >= rec.complete => FillClass::ATimely,
            (StreamRole::A, Some(_)) => FillClass::ALate,
            (StreamRole::A, None) => FillClass::AOnly,
            (StreamRole::R, Some(t)) if t >= rec.complete => FillClass::RTimely,
            (StreamRole::R, Some(_)) => FillClass::RLate,
            (StreamRole::R, None) => FillClass::ROnly,
            (StreamRole::Solo, _) => unreachable!("solo fills are not recorded"),
        };
        self.counts.bump(rec.kind, class);
        if self.tracer.is_on() {
            self.tracer.record(
                rec.complete,
                (k >> 56) as u32,
                TraceEvent::FillClass {
                    line: k & KEY_LINE_MASK,
                    class: class.label(),
                    complete: rec.complete,
                },
            );
        }
    }

    /// Route final fill classifications to a trace sink (per-CMP tracks).
    pub fn set_trace(&mut self, cfg: &TraceConfig) {
        self.tracer = Tracer::new(cfg, TrackDomain::Cmp);
    }

    /// Drain recorded classification events; tracing reverts to off.
    pub fn take_trace(&mut self) -> (Vec<sim_trace::TimedEvent>, u64) {
        std::mem::replace(&mut self.tracer, Tracer::disabled(TrackDomain::Cmp)).drain()
    }

    /// Number of still-live (unclassified) records.
    pub fn live_records(&self) -> usize {
        self.live.len()
    }

    /// Serialize the full classifier state. Live records are written
    /// sorted by key — `FastMap` iteration order is not deterministic,
    /// the snapshot must be.
    pub fn snapshot(&self, w: &mut snap::Writer) {
        let mut live: Vec<(u64, FillRecord)> = self.live.iter().map(|(k, v)| (*k, *v)).collect();
        live.sort_unstable_by_key(|(k, _)| *k);
        w.seq(&live, |w, (k, rec)| {
            w.u64(*k);
            w.u8(match rec.issuer {
                StreamRole::Solo => 0,
                StreamRole::R => 1,
                StreamRole::A => 2,
            });
            w.bool(matches!(rec.kind, ReqKind::ReadEx));
            w.u64(rec.complete);
            w.opt(&rec.other_first_use, |w, t| w.u64(*t));
        });
        for row in self.counts.counts {
            for c in row {
                w.u64(c);
            }
        }
        self.tracer.snapshot(w);
    }

    /// Restore a classifier written by [`Classifier::snapshot`].
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        let live_entries = r.seq(|r| {
            let k = r.u64()?;
            let issuer = match r.u8()? {
                0 => StreamRole::Solo,
                1 => StreamRole::R,
                2 => StreamRole::A,
                _ => return Err(snap::SnapError::Corrupt { what: "StreamRole" }),
            };
            Ok((
                k,
                FillRecord {
                    issuer,
                    kind: if r.bool()? {
                        ReqKind::ReadEx
                    } else {
                        ReqKind::Read
                    },
                    complete: r.u64()?,
                    other_first_use: r.opt(|r| r.u64())?,
                },
            ))
        })?;
        let mut counts = FillCounts::default();
        for row in &mut counts.counts {
            for c in row.iter_mut() {
                *c = r.u64()?;
            }
        }
        Ok(Classifier {
            live: live_entries.into_iter().collect(),
            counts,
            tracer: Tracer::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: CmpId = CmpId(0);
    const L: LineAddr = LineAddr(100);

    #[test]
    fn a_fill_used_by_r_after_completion_is_timely() {
        let mut cl = Classifier::new();
        cl.on_fill(C, L, StreamRole::A, ReqKind::Read, 500);
        cl.on_reference(C, L, StreamRole::R, 600);
        cl.finish();
        assert_eq!(cl.counts.get(ReqKind::Read, FillClass::ATimely), 1);
        assert_eq!(cl.counts.total(ReqKind::Read), 1);
    }

    #[test]
    fn a_fill_used_by_r_in_flight_is_late() {
        let mut cl = Classifier::new();
        cl.on_fill(C, L, StreamRole::A, ReqKind::Read, 500);
        cl.on_reference(C, L, StreamRole::R, 450);
        cl.finish();
        assert_eq!(cl.counts.get(ReqKind::Read, FillClass::ALate), 1);
    }

    #[test]
    fn a_fill_never_used_by_r_is_a_only() {
        let mut cl = Classifier::new();
        cl.on_fill(C, L, StreamRole::A, ReqKind::Read, 500);
        cl.on_reference(C, L, StreamRole::A, 700); // own use doesn't count
        cl.on_drop(C, L);
        assert_eq!(cl.counts.get(ReqKind::Read, FillClass::AOnly), 1);
        assert_eq!(cl.live_records(), 0);
    }

    #[test]
    fn r_fill_classifies_symmetrically() {
        let mut cl = Classifier::new();
        cl.on_fill(C, L, StreamRole::R, ReqKind::Read, 500);
        cl.on_reference(C, L, StreamRole::A, 800);
        cl.on_fill(C, LineAddr(101), StreamRole::R, ReqKind::Read, 500);
        cl.finish();
        assert_eq!(cl.counts.get(ReqKind::Read, FillClass::RTimely), 1);
        assert_eq!(cl.counts.get(ReqKind::Read, FillClass::ROnly), 1);
    }

    #[test]
    fn only_first_other_reference_matters() {
        let mut cl = Classifier::new();
        cl.on_fill(C, L, StreamRole::A, ReqKind::Read, 500);
        cl.on_reference(C, L, StreamRole::R, 450); // late...
        cl.on_reference(C, L, StreamRole::R, 900); // ...later timely use ignored
        cl.finish();
        assert_eq!(cl.counts.get(ReqKind::Read, FillClass::ALate), 1);
    }

    #[test]
    fn refill_finalizes_previous_record() {
        let mut cl = Classifier::new();
        cl.on_fill(C, L, StreamRole::A, ReqKind::Read, 500);
        // Replaced without ever being used by R: A-Only.
        cl.on_fill(C, L, StreamRole::R, ReqKind::Read, 900);
        cl.on_reference(C, L, StreamRole::A, 1000);
        cl.finish();
        assert_eq!(cl.counts.get(ReqKind::Read, FillClass::AOnly), 1);
        assert_eq!(cl.counts.get(ReqKind::Read, FillClass::RTimely), 1);
    }

    #[test]
    fn read_and_readex_tally_separately() {
        let mut cl = Classifier::new();
        cl.on_fill(C, L, StreamRole::A, ReqKind::ReadEx, 100);
        cl.on_reference(C, L, StreamRole::R, 200);
        cl.on_fill(C, LineAddr(200), StreamRole::A, ReqKind::Read, 100);
        cl.finish();
        assert_eq!(cl.counts.get(ReqKind::ReadEx, FillClass::ATimely), 1);
        assert_eq!(cl.counts.get(ReqKind::Read, FillClass::AOnly), 1);
        assert!((cl.counts.a_coverage(ReqKind::ReadEx) - 1.0).abs() < 1e-12);
        assert_eq!(cl.counts.a_coverage(ReqKind::Read), 0.0);
    }

    #[test]
    fn distinct_cmps_do_not_collide() {
        let mut cl = Classifier::new();
        cl.on_fill(CmpId(0), L, StreamRole::A, ReqKind::Read, 100);
        cl.on_fill(CmpId(1), L, StreamRole::A, ReqKind::Read, 100);
        cl.on_reference(CmpId(0), L, StreamRole::R, 200);
        cl.finish();
        assert_eq!(cl.counts.get(ReqKind::Read, FillClass::ATimely), 1);
        assert_eq!(cl.counts.get(ReqKind::Read, FillClass::AOnly), 1);
    }

    #[test]
    fn fractions_and_merge() {
        let mut a = FillCounts::default();
        a.bump(ReqKind::Read, FillClass::ATimely);
        a.bump(ReqKind::Read, FillClass::ROnly);
        let mut b = FillCounts::default();
        b.bump(ReqKind::Read, FillClass::ATimely);
        a.merge(&b);
        assert_eq!(a.get(ReqKind::Read, FillClass::ATimely), 2);
        assert!((a.fraction(ReqKind::Read, FillClass::ATimely) - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.both_streams_fraction(ReqKind::Read) - 2.0 / 3.0).abs() < 1e-12);
    }
}
