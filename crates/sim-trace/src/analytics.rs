//! Timeline analytics derived from a merged trace.
//!
//! These are the per-cycle views the paper could only show as end-of-run
//! bar charts: how far ahead the A-stream actually ran, how full the token
//! semaphore sat, how long A-Timely fill streaks lasted, and how many
//! cycles each injected fault cost before recovery.

use crate::event::TraceEvent;
use crate::tracer::TraceData;

/// A–R lead-distance summary for one pair.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PairLead {
    pub pair: u32,
    pub samples: usize,
    pub min: i64,
    pub max: i64,
    pub last: i64,
    /// Cycle-weighted mean lead ×1000 (fixed point to stay float-free).
    pub mean_milli: i64,
}

/// Token-semaphore occupancy histogram for one pair: `buckets[k]` counts
/// inserts observed with post-insert count `k` (last bucket clamps).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlackHistogram {
    pub pair: u32,
    pub buckets: Vec<u64>,
    pub waits: u64,
}

/// Prefetch-timeliness streaks per CMP: longest run of consecutive
/// A-Timely fill classifications, plus totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimelinessStreak {
    pub cmp: u32,
    pub longest_timely: u64,
    pub timely: u64,
    pub classified: u64,
}

/// One fault matched to the recovery (or demotion) that cleared it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryEpisode {
    pub pair: u32,
    pub fault: &'static str,
    pub fault_cycle: u64,
    /// Cycle of the recovery/demotion that followed, if any did.
    pub cleared_cycle: Option<u64>,
    pub demoted: bool,
}

#[derive(Clone, Debug, Default)]
pub struct TraceAnalytics {
    pub leads: Vec<PairLead>,
    pub slack: Vec<SlackHistogram>,
    pub timeliness: Vec<TimelinessStreak>,
    pub recoveries: Vec<RecoveryEpisode>,
}

const SLACK_BUCKETS: usize = 9; // counts 0..=7, last bucket = 8+

/// Single pass over the merged event stream.
pub fn analyze(td: &TraceData) -> TraceAnalytics {
    let mut leads: Vec<PairLead> = Vec::new();
    // (last_lead, last_cycle, weighted_sum) per pair for the mean.
    let mut lead_accum: Vec<(i64, u64, i128)> = Vec::new();
    let mut slack: Vec<SlackHistogram> = Vec::new();
    let mut timeliness: Vec<TimelinessStreak> = Vec::new();
    let mut streak_run: Vec<u64> = Vec::new();
    let mut recoveries: Vec<RecoveryEpisode> = Vec::new();

    fn at<T: Default + Clone>(v: &mut Vec<T>, idx: usize) -> &mut T {
        if v.len() <= idx {
            v.resize(idx + 1, T::default());
        }
        &mut v[idx]
    }

    for e in &td.events {
        match &e.ev {
            TraceEvent::Lead { pair, lead } => {
                let p = *pair as usize;
                let acc = at(&mut lead_accum, p);
                let entry = at(&mut leads, p);
                if entry.samples == 0 {
                    entry.pair = *pair;
                    entry.min = *lead;
                    entry.max = *lead;
                    *acc = (*lead, e.cycle, 0);
                } else {
                    entry.min = entry.min.min(*lead);
                    entry.max = entry.max.max(*lead);
                    acc.2 += acc.0 as i128 * (e.cycle - acc.1) as i128;
                    acc.0 = *lead;
                    acc.1 = e.cycle;
                }
                entry.last = *lead;
                entry.samples += 1;
            }
            TraceEvent::TokenInsert {
                pair,
                count,
                lost: false,
                ..
            } => {
                let h = at(&mut slack, *pair as usize);
                h.pair = *pair;
                if h.buckets.is_empty() {
                    h.buckets = vec![0; SLACK_BUCKETS];
                }
                let b = (*count).max(0) as usize;
                h.buckets[b.min(SLACK_BUCKETS - 1)] += 1;
            }
            TraceEvent::TokenWait { pair } => {
                let h = at(&mut slack, *pair as usize);
                h.pair = *pair;
                if h.buckets.is_empty() {
                    h.buckets = vec![0; SLACK_BUCKETS];
                }
                h.waits += 1;
            }
            TraceEvent::FillClass { class, .. } => {
                let cmp = e.track as usize;
                let t = at(&mut timeliness, cmp);
                t.cmp = e.track;
                t.classified += 1;
                let run = at(&mut streak_run, cmp);
                if *class == "A-Timely" {
                    t.timely += 1;
                    *run += 1;
                    t.longest_timely = t.longest_timely.max(*run);
                } else {
                    *run = 0;
                }
            }
            TraceEvent::Fault { kind, pair, .. } => {
                recoveries.push(RecoveryEpisode {
                    pair: *pair,
                    fault: kind,
                    fault_cycle: e.cycle,
                    cleared_cycle: None,
                    demoted: false,
                });
            }
            TraceEvent::Recovery { pair, .. } | TraceEvent::Demotion { pair } => {
                let demoted = matches!(e.ev, TraceEvent::Demotion { .. });
                for r in recoveries.iter_mut() {
                    if r.pair == *pair && r.cleared_cycle.is_none() {
                        r.cleared_cycle = Some(e.cycle);
                        r.demoted = demoted;
                    }
                }
            }
            _ => {}
        }
    }

    // Close out the cycle-weighted lead means at end-of-run.
    for (p, entry) in leads.iter_mut().enumerate() {
        if entry.samples == 0 {
            continue;
        }
        let (last_lead, last_cycle, mut weighted) = lead_accum[p];
        let end = td.cycles.max(last_cycle);
        weighted += last_lead as i128 * (end - last_cycle) as i128;
        let first_cycle = td
            .events
            .iter()
            .find_map(|e| match &e.ev {
                TraceEvent::Lead { pair, .. } if *pair as usize == p => Some(e.cycle),
                _ => None,
            })
            .unwrap_or(0);
        let window = (end - first_cycle).max(1) as i128;
        entry.mean_milli = (weighted * 1000 / window) as i64;
    }

    leads.retain(|l| l.samples > 0);
    slack.retain(|h| !h.buckets.is_empty() || h.waits > 0);
    timeliness.retain(|t| t.classified > 0);

    TraceAnalytics {
        leads,
        slack,
        timeliness,
        recoveries,
    }
}

impl TraceAnalytics {
    /// Compact text rendering for terminals and reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("trace analytics\n");
        if self.leads.is_empty() {
            out.push_str("  lead: no pair epochs recorded\n");
        } else {
            out.push_str("  A-stream lead (epochs): pair  min  max  last  mean\n");
            for l in &self.leads {
                out.push_str(&format!(
                    "    pair{:<2} {:>5} {:>5} {:>5} {:>8.3}  ({} samples)\n",
                    l.pair,
                    l.min,
                    l.max,
                    l.last,
                    l.mean_milli as f64 / 1000.0,
                    l.samples
                ));
            }
        }
        for h in &self.slack {
            let total: u64 = h.buckets.iter().sum();
            out.push_str(&format!(
                "  token slack pair{}: inserts={} waits={} hist[0..8+]={:?}\n",
                h.pair, total, h.waits, h.buckets
            ));
        }
        for t in &self.timeliness {
            out.push_str(&format!(
                "  timeliness cmp{}: {}/{} A-Timely, longest streak {}\n",
                t.cmp, t.timely, t.classified, t.longest_timely
            ));
        }
        if !self.recoveries.is_empty() {
            out.push_str("  recovery latency: pair  fault  injected@  cleared@  cycles\n");
            for r in &self.recoveries {
                match r.cleared_cycle {
                    Some(c) => out.push_str(&format!(
                        "    pair{:<2} {:<14} {:>10} {:>9} {:>7}{}\n",
                        r.pair,
                        r.fault,
                        r.fault_cycle,
                        c,
                        c.saturating_sub(r.fault_cycle),
                        if r.demoted { "  (demoted)" } else { "" }
                    )),
                    None => out.push_str(&format!(
                        "    pair{:<2} {:<14} {:>10}  (absorbed without recovery)\n",
                        r.pair, r.fault, r.fault_cycle
                    )),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TimedEvent, TrackDomain};

    fn mk(cycle: u64, track: u32, seq: u64, domain: TrackDomain, ev: TraceEvent) -> TimedEvent {
        TimedEvent {
            cycle,
            domain,
            track,
            seq,
            ev,
        }
    }

    #[test]
    fn lead_minmax_and_weighted_mean() {
        let mut td = TraceData {
            cycles: 100,
            ..Default::default()
        };
        td.merge_events(vec![(
            vec![
                mk(
                    0,
                    1,
                    0,
                    TrackDomain::Cpu,
                    TraceEvent::Lead { pair: 0, lead: 0 },
                ),
                mk(
                    10,
                    1,
                    1,
                    TrackDomain::Cpu,
                    TraceEvent::Lead { pair: 0, lead: 2 },
                ),
                mk(
                    60,
                    1,
                    2,
                    TrackDomain::Cpu,
                    TraceEvent::Lead { pair: 0, lead: 1 },
                ),
            ],
            0,
        )]);
        let a = analyze(&td);
        assert_eq!(a.leads.len(), 1);
        let l = &a.leads[0];
        assert_eq!((l.min, l.max, l.last, l.samples), (0, 2, 1, 3));
        // 0 for 10 cycles, 2 for 50 cycles, 1 for 40 cycles over a
        // 100-cycle window: mean = 140/100 = 1.4.
        assert_eq!(l.mean_milli, 1400);
    }

    #[test]
    fn slack_histogram_counts_inserts_and_waits() {
        let mut td = TraceData::default();
        td.merge_events(vec![(
            vec![
                mk(
                    1,
                    0,
                    0,
                    TrackDomain::Cpu,
                    TraceEvent::TokenInsert {
                        pair: 0,
                        seq: 0,
                        count: 1,
                        lost: false,
                    },
                ),
                mk(
                    2,
                    0,
                    1,
                    TrackDomain::Cpu,
                    TraceEvent::TokenInsert {
                        pair: 0,
                        seq: 1,
                        count: 2,
                        lost: false,
                    },
                ),
                mk(
                    3,
                    0,
                    2,
                    TrackDomain::Cpu,
                    TraceEvent::TokenInsert {
                        pair: 0,
                        seq: 2,
                        count: 1,
                        lost: true, // lost: not counted
                    },
                ),
                mk(4, 1, 3, TrackDomain::Cpu, TraceEvent::TokenWait { pair: 0 }),
            ],
            0,
        )]);
        let a = analyze(&td);
        let h = &a.slack[0];
        assert_eq!(h.waits, 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn timely_streaks_per_cmp() {
        let mut td = TraceData::default();
        let fc = |class| TraceEvent::FillClass {
            line: 0,
            class,
            complete: 0,
        };
        td.merge_events(vec![(
            vec![
                mk(1, 0, 0, TrackDomain::Cmp, fc("A-Timely")),
                mk(2, 0, 1, TrackDomain::Cmp, fc("A-Timely")),
                mk(3, 0, 2, TrackDomain::Cmp, fc("A-Late")),
                mk(4, 0, 3, TrackDomain::Cmp, fc("A-Timely")),
            ],
            0,
        )]);
        let a = analyze(&td);
        let t = &a.timeliness[0];
        assert_eq!((t.timely, t.classified, t.longest_timely), (3, 4, 2));
    }

    #[test]
    fn fault_matched_to_next_recovery() {
        let mut td = TraceData::default();
        td.merge_events(vec![(
            vec![
                mk(
                    100,
                    0,
                    0,
                    TrackDomain::Cpu,
                    TraceEvent::Fault {
                        kind: "token-loss",
                        site: "token-insert",
                        pair: 0,
                        seq: 0,
                    },
                ),
                mk(
                    250,
                    0,
                    1,
                    TrackDomain::Cpu,
                    TraceEvent::Recovery {
                        pair: 0,
                        watchdog: true,
                        timeout: false,
                    },
                ),
            ],
            0,
        )]);
        let a = analyze(&td);
        assert_eq!(a.recoveries.len(), 1);
        assert_eq!(a.recoveries[0].cleared_cycle, Some(250));
        assert!(!a.recoveries[0].demoted);
        assert!(a.render().contains("150"));
    }
}
