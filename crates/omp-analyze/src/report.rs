//! Analysis reports: per-region summaries plus the full finding list,
//! rendered as human text or machine JSON (hand-rolled; the workspace is
//! dependency-free).

use crate::finding::{Finding, Severity};
use omp_ir::escape_json;
use omp_ir::NodePath;
use std::fmt::Write as _;

/// Census of what the A-stream skips/executes in a region under the
/// configured [`SkipModel`](crate::SkipModel). Counts are dynamic events
/// over the analyzed walk (worksharing bodies are walked once per chunk,
/// constructs once per encountering thread-0 visit), so they are a
/// census of the modeled execution, not an exact runtime count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SkipSet {
    /// `single` constructs encountered (A-stream skips them under the
    /// paper policy).
    pub singles: u64,
    /// `master` constructs encountered (A-stream executes them under the
    /// paper policy).
    pub masters: u64,
    /// `critical` sections encountered (A-stream skips them under the
    /// paper policy).
    pub criticals: u64,
    /// `sections` children encountered (A-stream executes them in sync
    /// with the R-stream).
    pub sections: u64,
    /// Reduction combines at worksharing-loop ends (A-stream skips the
    /// shared combine).
    pub reduction_combines: u64,
    /// Shared stores the A-stream converts to read-exclusive prefetches.
    pub shared_stores_converted: u64,
    /// Shared stores the A-stream skips outright (inside skipped
    /// constructs, or all of them when conversion is disabled).
    pub shared_stores_skipped: u64,
    /// Atomic updates the A-stream executes.
    pub atomics_executed: u64,
    /// `flush` directives dropped by the A-stream.
    pub flushes_dropped: u64,
    /// I/O operations never performed by the A-stream.
    pub io_skipped: u64,
}

/// Per-parallel-region analysis summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionReport {
    /// Path of the `parallel` node.
    pub path: NodePath,
    /// Barrier phases the region body spans (implicit and explicit).
    pub phases: u32,
    /// Resolved slipstream sync type label: `"global"`, `"local"`, or
    /// `"off"`.
    pub sync: &'static str,
    /// Resolved initial token count.
    pub tokens: u64,
    /// Static bound on the A-stream lead, in barrier phases: the number
    /// of phases whose working sets can be co-resident (0 when slipstream
    /// is off).
    pub lead_phases: u32,
    /// Largest single-phase shared footprint, in cache lines.
    pub max_phase_lines: u64,
    /// Largest footprint of any `lead_phases`-wide phase window, in cache
    /// lines — what must fit in L2 for prefetches to survive.
    pub max_window_lines: u64,
    /// A-stream skip-set census for the region.
    pub skips: SkipSet,
}

/// Expected slipstream-vs-single equivalence class of a program, decided
/// from its analysis report. This is the contract the differential
/// fuzzer checks the engine against:
///
/// * [`Exact`](Equivalence::Exact) — the analysis completed clean. The
///   R-stream must match the single-mode oracle's op totals *and* the
///   run must need no divergence recoveries or pair demotions: slipstream
///   is pure speedup here.
/// * [`ConvergeOnly`](Equivalence::ConvergeOnly) — warn/info findings
///   (stale-prefetch risk, lead-bound pressure, skipped side effects) or
///   a truncated walk. The A-stream may wander and recover, but the
///   architecturally-exact R-stream must still match the oracle.
/// * [`Deny`](Equivalence::Deny) — deny findings (data races, unbalanced
///   synchronization, invalid IR). The program has no defined semantics;
///   a [`GateMode::Deny`](crate::GateMode) gate must refuse to run it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Equivalence {
    /// Bit-equivalent stats and a recovery-free run are required.
    Exact,
    /// Only final R-stream totals are required to match the oracle.
    ConvergeOnly,
    /// The gate must refuse to run the program.
    Deny,
}

impl Equivalence {
    /// Stable lowercase label (artifact JSON, CLI output).
    pub fn label(self) -> &'static str {
        match self {
            Equivalence::Exact => "exact",
            Equivalence::ConvergeOnly => "converge-only",
            Equivalence::Deny => "deny",
        }
    }

    /// Parse a [`label`](Self::label) back.
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "exact" => Some(Equivalence::Exact),
            "converge-only" => Some(Equivalence::ConvergeOnly),
            "deny" => Some(Equivalence::Deny),
            _ => None,
        }
    }
}

impl std::fmt::Display for Equivalence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The full result of [`analyze`](crate::analyze) on one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Program name.
    pub program: String,
    /// Team size the analysis modeled.
    pub num_threads: u64,
    /// L2 capacity (lines) used for the lead-bound check.
    pub l2_lines: u64,
    /// All findings, in discovery order.
    pub findings: Vec<Finding>,
    /// One entry per parallel region, in program order.
    pub regions: Vec<RegionReport>,
    /// Findings dropped by the per-hazard report cap.
    pub suppressed: u64,
    /// True when the walk hit its visit or state budget; the analysis is
    /// then incomplete (but never reports spurious findings).
    pub truncated: bool,
    /// IR node visits the walk performed.
    pub visits: u64,
}

impl AnalysisReport {
    /// Number of findings at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == sev).count()
    }

    /// Deny-severity finding count.
    pub fn deny_count(&self) -> usize {
        self.count(Severity::Deny)
    }

    /// Warn-severity finding count.
    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Info-severity finding count.
    pub fn info_count(&self) -> usize {
        self.count(Severity::Info)
    }

    /// True when the analysis completed with no findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && !self.truncated
    }

    /// The expected equivalence class this report implies (see
    /// [`Equivalence`]). Deny findings dominate; any other finding or a
    /// truncated walk demotes the program to converge-only; a clean
    /// report promises exact equivalence.
    pub fn equivalence(&self) -> Equivalence {
        if self.deny_count() > 0 {
            Equivalence::Deny
        } else if self.is_clean() {
            Equivalence::Exact
        } else {
            Equivalence::ConvergeOnly
        }
    }

    /// Multi-line human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "analyze {}: {} finding(s) ({} deny, {} warn, {} info), {} region(s), {} visits{}{}",
            self.program,
            self.findings.len(),
            self.deny_count(),
            self.warn_count(),
            self.info_count(),
            self.regions.len(),
            self.visits,
            if self.suppressed > 0 {
                format!(", {} suppressed", self.suppressed)
            } else {
                String::new()
            },
            if self.truncated {
                " [TRUNCATED: budget exhausted, analysis incomplete]"
            } else {
                ""
            },
        );
        for f in &self.findings {
            let _ = writeln!(s, "  {f}");
        }
        for r in &self.regions {
            let _ = writeln!(
                s,
                "  region {}: {} phase(s), sync={} tokens={} lead<={} phase(s), footprint max {} lines/phase, {} lines/window (l2 {} lines)",
                r.path,
                r.phases,
                r.sync,
                r.tokens,
                r.lead_phases,
                r.max_phase_lines,
                r.max_window_lines,
                self.l2_lines,
            );
            let k = &r.skips;
            let _ = writeln!(
                s,
                "    a-stream skip set: {} store(s) converted, {} skipped, {} reduction combine(s), {} single(s), {} critical(s), {} master(s), {} section(s), {} atomic(s) executed, {} flush(es), {} io",
                k.shared_stores_converted,
                k.shared_stores_skipped,
                k.reduction_combines,
                k.singles,
                k.criticals,
                k.masters,
                k.sections,
                k.atomics_executed,
                k.flushes_dropped,
                k.io_skipped,
            );
        }
        s
    }

    /// Machine-readable JSON object (single line).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push('{');
        let _ = write!(
            s,
            "\"program\":\"{}\",\"num_threads\":{},\"l2_lines\":{},\"clean\":{},\"deny\":{},\"warn\":{},\"info\":{},\"suppressed\":{},\"truncated\":{},\"visits\":{}",
            escape_json(&self.program),
            self.num_threads,
            self.l2_lines,
            self.is_clean(),
            self.deny_count(),
            self.warn_count(),
            self.info_count(),
            self.suppressed,
            self.truncated,
            self.visits,
        );
        s.push_str(",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"hazard\":\"{}\",\"severity\":\"{}\",\"fingerprint\":\"{:016x}\",\"path\":\"{}\"",
                f.hazard.key(),
                f.severity.as_str(),
                f.fingerprint(),
                escape_json(&f.path.to_string()),
            );
            if let Some(r) = &f.related {
                let _ = write!(s, ",\"related\":\"{}\"", escape_json(&r.to_string()));
            }
            if let Some(reg) = f.region {
                let _ = write!(s, ",\"region\":{reg}");
            }
            if let Some(p) = f.phase {
                let _ = write!(s, ",\"phase\":{p}");
            }
            let _ = write!(s, ",\"message\":\"{}\"}}", escape_json(&f.message));
        }
        s.push_str("],\"regions\":[");
        for (i, r) in self.regions.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let k = &r.skips;
            let _ = write!(
                s,
                "{{\"path\":\"{}\",\"phases\":{},\"sync\":\"{}\",\"tokens\":{},\"lead_phases\":{},\"max_phase_lines\":{},\"max_window_lines\":{},\"skips\":{{\"singles\":{},\"masters\":{},\"criticals\":{},\"sections\":{},\"reduction_combines\":{},\"shared_stores_converted\":{},\"shared_stores_skipped\":{},\"atomics_executed\":{},\"flushes_dropped\":{},\"io_skipped\":{}}}}}",
                escape_json(&r.path.to_string()),
                r.phases,
                r.sync,
                r.tokens,
                r.lead_phases,
                r.max_phase_lines,
                r.max_window_lines,
                k.singles,
                k.masters,
                k.criticals,
                k.sections,
                k.reduction_combines,
                k.shared_stores_converted,
                k.shared_stores_skipped,
                k.atomics_executed,
                k.flushes_dropped,
                k.io_skipped,
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::Hazard;

    fn sample() -> AnalysisReport {
        AnalysisReport {
            program: "t".into(),
            num_threads: 4,
            l2_lines: 100,
            findings: vec![Finding {
                hazard: Hazard::RaceWriteWrite,
                severity: Severity::Deny,
                path: NodePath::root(),
                related: None,
                region: Some(0),
                phase: Some(1),
                message: "x \"quoted\"".into(),
            }],
            regions: vec![RegionReport {
                path: NodePath::root(),
                phases: 3,
                sync: "global",
                tokens: 0,
                lead_phases: 1,
                max_phase_lines: 7,
                max_window_lines: 7,
                skips: SkipSet::default(),
            }],
            suppressed: 0,
            truncated: false,
            visits: 42,
        }
    }

    #[test]
    fn counts_and_cleanliness() {
        let r = sample();
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.warn_count(), 0);
        assert!(!r.is_clean());
        let mut clean = sample();
        clean.findings.clear();
        assert!(clean.is_clean());
        clean.truncated = true;
        assert!(!clean.is_clean());
    }

    #[test]
    fn equivalence_classification() {
        let deny = sample();
        assert_eq!(deny.equivalence(), Equivalence::Deny);

        let mut warn = sample();
        warn.findings[0].severity = Severity::Warn;
        assert_eq!(warn.equivalence(), Equivalence::ConvergeOnly);

        let mut clean = sample();
        clean.findings.clear();
        assert_eq!(clean.equivalence(), Equivalence::Exact);
        clean.truncated = true;
        assert_eq!(clean.equivalence(), Equivalence::ConvergeOnly);
    }

    #[test]
    fn equivalence_labels_round_trip() {
        for e in [
            Equivalence::Exact,
            Equivalence::ConvergeOnly,
            Equivalence::Deny,
        ] {
            assert_eq!(Equivalence::from_label(e.label()), Some(e));
            assert_eq!(e.to_string(), e.label());
        }
        assert_eq!(Equivalence::from_label("nope"), None);
    }

    #[test]
    fn json_escapes_and_shapes() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"hazard\":\"race-ww\""));
        assert!(j.contains("x \\\"quoted\\\""));
        assert!(j.contains("\"regions\":[{"));
        assert_eq!(escape_json("a\nb"), "a\\nb");
    }

    #[test]
    fn text_mentions_findings_and_regions() {
        let t = sample().render_text();
        assert!(t.contains("1 finding(s) (1 deny"));
        assert!(t.contains("race-ww"));
        assert!(t.contains("sync=global"));
    }
}
