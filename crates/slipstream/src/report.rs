//! Text tables for the experiment harness (the "figures" of the repro).

use crate::exec::RunResult;
use crate::runner::RunSummary;
use dsm_sim::{FillClass, ReqKind, TimeClass, FILL_CLASSES};

/// Render the Figure 2/4-style table: speedups over the first (baseline)
/// summary plus the per-bucket execution-time breakdown.
pub fn breakdown_table(rows: &[RunSummary]) -> String {
    let mut s = String::new();
    let baseline = match rows.first() {
        Some(r) => r.exec_cycles,
        None => return s,
    };
    let classes = [
        TimeClass::Busy,
        TimeClass::MemStall,
        TimeClass::Lock,
        TimeClass::Barrier,
        TimeClass::Scheduling,
        TimeClass::JobWait,
    ];
    s.push_str(&format!("{:<12} {:>12} {:>8}", "mode", "cycles", "speedup"));
    for c in classes {
        s.push_str(&format!(" {:>10}", c.label()));
    }
    s.push('\n');
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:>12} {:>8.3}",
            r.label,
            r.exec_cycles,
            r.speedup_vs(baseline)
        ));
        for c in classes {
            s.push_str(&format!(" {:>9.1}%", 100.0 * r.r_fraction(c)));
        }
        s.push('\n');
    }
    s
}

/// Render the Figure 3/5-style table: shared-request classification for
/// read and read-exclusive fills.
pub fn fills_table(rows: &[RunSummary]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{:<12} {:<8}", "mode", "kind"));
    for c in FILL_CLASSES {
        s.push_str(&format!(" {:>9}", c.label()));
    }
    s.push_str(&format!(" {:>9}\n", "total"));
    for r in rows {
        for (kind, kname) in [(ReqKind::Read, "read"), (ReqKind::ReadEx, "read-ex")] {
            s.push_str(&format!("{:<12} {:<8}", r.label, kname));
            for c in FILL_CLASSES {
                s.push_str(&format!(" {:>8.1}%", 100.0 * r.fills.fraction(kind, c)));
            }
            s.push_str(&format!(" {:>9}\n", r.fills.total(kind)));
        }
    }
    s
}

/// One-line summary of the A-stream usefulness metrics the paper quotes
/// in Section 5.1 (timely/late coverage, premature prefetches).
pub fn coverage_line(r: &RunSummary) -> String {
    format!(
        "{}: read A-timely {:.0}%, A-late {:.0}%, A-only {:.0}%; rd-ex coverage {:.0}%; both-streams(read) {:.0}%",
        r.label,
        100.0 * r.fills.fraction(ReqKind::Read, FillClass::ATimely),
        100.0 * r.fills.fraction(ReqKind::Read, FillClass::ALate),
        100.0 * r.fills.fraction(ReqKind::Read, FillClass::AOnly),
        100.0 * r.fills.a_coverage(ReqKind::ReadEx),
        100.0 * r.fills.both_streams_fraction(ReqKind::Read),
    )
}

/// Render the per-pair resilience ledger of a run: faults fired,
/// recoveries performed (watchdog- and timeout-forced subsets), and the
/// pair's final operating mode. Pairs demoted to single-stream mode show
/// the cycle of their demotion.
pub fn resilience_table(r: &RunResult) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<6} {:>8} {:>12} {:>10} {:>9} {:<16} {:>12}\n",
        "pair", "faults", "recoveries", "watchdog", "timeout", "mode", "demoted@"
    ));
    for l in &r.pair_ledgers {
        s.push_str(&format!(
            "{:<6} {:>8} {:>12} {:>10} {:>9} {:<16} {:>12}\n",
            l.tid,
            l.faults_injected,
            l.recoveries,
            l.watchdog_recoveries,
            l.timeout_recoveries,
            l.mode.label(),
            l.demoted_at
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".into()),
        ));
    }
    s.push_str(&format!(
        "total: {} faults, {} recoveries ({} watchdog, {} timeout), {} demotions\n",
        r.pair_ledgers
            .iter()
            .map(|l| l.faults_injected)
            .sum::<u64>(),
        r.recoveries,
        r.watchdog_recoveries,
        r.timeout_recoveries,
        r.demotions,
    ));
    s
}

/// Canonical fingerprint of everything a run reports, used by the
/// golden-determinism regression tests, the snapshot parity tests, and
/// the throughput harness. Two runs are
/// bit-identical iff their fingerprints are equal: the string covers the
/// execution time, both time breakdowns, per-CPU cache/sync counters,
/// user-level op totals for both streams, the fill classification,
/// scheduler and resilience counters, and the machine-wide traffic
/// counters. Observation-only diagnostics (traces, processed-event and
/// lock-acquisition counts) are deliberately outside the contract.
pub fn stats_fingerprint(s: &RunSummary) -> String {
    use dsm_sim::{ReqKind, FILL_CLASSES, TIME_CLASSES};
    let mut v: Vec<u64> = vec![s.exec_cycles];
    for c in TIME_CLASSES {
        v.push(s.r_breakdown.get(c));
    }
    for c in TIME_CLASSES {
        v.push(s.a_breakdown.get(c));
    }
    for kind in [ReqKind::Read, ReqKind::ReadEx] {
        for c in FILL_CLASSES {
            v.push(s.fills.get(kind, c));
        }
    }
    let r = &s.raw;
    for u in [&r.user_r, &r.user_a] {
        v.extend([
            u.loads,
            u.stores,
            u.atomics,
            u.compute_cycles,
            u.io_in,
            u.io_out,
        ]);
    }
    let (mut l1, mut l2h, mut l2m, mut bars, mut lds, mut sts) = (0, 0, 0, 0, 0, 0);
    for c in &r.cpu_stats {
        l1 += c.l1_hits;
        l2h += c.l2_hits;
        l2m += c.l2_misses;
        bars += c.barriers;
        lds += c.loads;
        sts += c.stores;
    }
    v.extend([l1, l2h, l2m, bars, lds, sts]);
    v.extend([
        r.sched_grabs,
        r.sched_steals,
        r.recoveries,
        r.watchdog_recoveries,
        r.demotions,
        r.stores_converted,
        r.stores_skipped,
    ]);
    let m = &r.machine;
    v.extend([
        m.network_messages,
        m.network_contention,
        m.memory_contention,
        m.bus_contention,
        m.l2_evictions,
        m.l2_invalidations,
        m.three_hop_fetches,
        m.invalidations_sent,
    ]);
    let parts: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_sim::{FillCounts, TimeBreakdown};
    use omp_ir::trace::OpCounts;

    fn dummy(label: &str, cycles: u64) -> RunSummary {
        RunSummary {
            name: "t".into(),
            label: label.into(),
            exec_cycles: cycles,
            r_breakdown: TimeBreakdown::new(),
            a_breakdown: TimeBreakdown::new(),
            fills: FillCounts::default(),
            analysis: None,
            raw: RunResult {
                exec_cycles: cycles,
                cpu_stats: vec![],
                roles: vec![],
                fill_counts: FillCounts::default(),
                r_breakdown: TimeBreakdown::new(),
                a_breakdown: TimeBreakdown::new(),
                user_r: OpCounts::default(),
                user_a: OpCounts::default(),
                sched_grabs: 0,
                sched_steals: 0,
                recoveries: 0,
                watchdog_recoveries: 0,
                timeout_recoveries: 0,
                demotions: 0,
                pair_ledgers: vec![],
                stores_converted: 0,
                stores_skipped: 0,
                machine: dsm_sim::MachineCounters::default(),
                events: 0,
                trace: None,
            },
        }
    }

    #[test]
    fn processed_event_count_is_outside_the_fingerprint() {
        let a = dummy("single", 1000);
        let mut b = dummy("single", 1000);
        b.raw.events = 12_345;
        assert_eq!(stats_fingerprint(&a), stats_fingerprint(&b));
    }

    #[test]
    fn tables_render_and_normalize_to_first_row() {
        let rows = vec![dummy("single", 1000), dummy("slip-G0", 800)];
        let t = breakdown_table(&rows);
        assert!(t.contains("single"));
        assert!(t.contains("slip-G0"));
        assert!(t.contains("1.250"), "800 vs 1000 baseline: 1.25x\n{t}");
        let f = fills_table(&rows);
        assert!(f.contains("read-ex"));
        assert!(f.contains("A-Timely"));
        let c = coverage_line(&rows[1]);
        assert!(c.starts_with("slip-G0"));
    }

    #[test]
    fn empty_rows_render_empty() {
        assert!(breakdown_table(&[]).is_empty());
    }

    #[test]
    fn resilience_table_shows_modes_and_totals() {
        use crate::faults::PairLedger;
        use omp_rt::mode::PairMode;
        let mut r = dummy("slip-G0", 100).raw;
        r.recoveries = 11;
        r.watchdog_recoveries = 2;
        r.timeout_recoveries = 3;
        r.demotions = 1;
        r.pair_ledgers = vec![
            PairLedger {
                tid: 0,
                mode: PairMode::Slipstream,
                faults_injected: 1,
                recoveries: 2,
                watchdog_recoveries: 0,
                timeout_recoveries: 1,
                demoted_at: None,
            },
            PairLedger {
                tid: 1,
                mode: PairMode::DegradedSingle,
                faults_injected: 4,
                recoveries: 9,
                watchdog_recoveries: 2,
                timeout_recoveries: 2,
                demoted_at: Some(12_345),
            },
        ];
        let t = resilience_table(&r);
        assert!(t.contains("degraded-single"), "{t}");
        assert!(t.contains("slipstream"), "{t}");
        assert!(t.contains("12345"), "{t}");
        assert!(
            t.contains("total: 5 faults, 11 recoveries (2 watchdog, 3 timeout), 1 demotions"),
            "{t}"
        );
    }
}
