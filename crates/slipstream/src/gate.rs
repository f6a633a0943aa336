//! Pre-run safety gating: bridge the engine's configuration to the
//! `omp-analyze` static analyzer and decide whether a program may run.
//!
//! The analyzer models the same machine and A-stream policy the engine
//! will use: the team size comes from the CMP count, the L2 capacity
//! from the cache configuration, and the skip model from the
//! [`AStreamPolicy`] rows. Gating is observation-only by default
//! ([`GateMode::Warn`]): the report is attached to the run summary but
//! the simulation proceeds exactly as before, bit-identical to an
//! ungated run. [`GateMode::Deny`] refuses to run programs with
//! deny-severity findings (data races, unbalanced synchronization).

use crate::policy::{AAction, AStreamPolicy};
use dsm_sim::MachineConfig;
use omp_analyze::{analyze, AnalysisReport, AnalyzeConfig, GateMode, SkipModel};
use omp_ir::node::Program;
use omp_rt::mode::SlipSync;

/// Derive the analyzer's construct skip model from the engine's
/// [`AStreamPolicy`] so both tools agree on what the A-stream executes.
pub fn skip_model(policy: &AStreamPolicy) -> SkipModel {
    SkipModel {
        skip_single: policy.single == AAction::Skip,
        skip_critical: policy.critical == AAction::Skip,
        execute_master: policy.master == AAction::Execute,
        execute_atomic: policy.atomic == AAction::Execute,
        convert_shared_stores: policy.convert_shared_stores,
    }
}

/// Build an [`AnalyzeConfig`] matching a machine + policy + optional
/// synchronization override (the same precedence
/// [`run_program`](crate::runner::run_program) applies).
pub fn analyze_config(
    machine: &MachineConfig,
    policy: &AStreamPolicy,
    sync: Option<SlipSync>,
) -> AnalyzeConfig {
    let mut cfg = AnalyzeConfig::paper()
        .with_threads(machine.num_cmps as u64)
        .with_l2_lines(machine.l2.size_bytes / machine.l2.line_bytes);
    cfg.line_bytes = machine.l2.line_bytes;
    cfg.skip = skip_model(policy);
    if let Some(s) = sync {
        cfg.default_sync = if s.global {
            omp_ir::node::SlipSyncType::GlobalSync
        } else {
            omp_ir::node::SlipSyncType::LocalSync
        };
        cfg.default_tokens = s.tokens;
    }
    cfg
}

/// Run the analyzer according to `gate`.
///
/// Returns `Ok(None)` for [`GateMode::Allow`] (analysis skipped),
/// `Ok(Some(report))` when analysis ran and the program may proceed, and
/// `Err` with the rendered report when [`GateMode::Deny`] blocks the
/// run.
pub fn gate_program(
    program: &Program,
    gate: GateMode,
    cfg: &AnalyzeConfig,
) -> Result<Option<AnalysisReport>, String> {
    if gate == GateMode::Allow {
        return Ok(None);
    }
    let report = analyze(program, cfg);
    if gate == GateMode::Deny && report.deny_count() > 0 {
        return Err(format!(
            "slipstream gate: refusing to run `{}` with {} deny-severity finding(s)\n{}",
            program.name,
            report.deny_count(),
            report.render_text()
        ));
    }
    Ok(Some(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_policy_maps_to_paper_skip_model() {
        assert_eq!(skip_model(&AStreamPolicy::paper()), SkipModel::paper());
        let ablated = skip_model(&AStreamPolicy::paper().without_store_conversion());
        assert!(!ablated.convert_shared_stores);
        let crit = skip_model(&AStreamPolicy::paper().with_critical_execution());
        assert!(!crit.skip_critical);
    }

    #[test]
    fn config_tracks_machine_shape() {
        let m = MachineConfig::paper();
        let cfg = analyze_config(&m, &AStreamPolicy::paper(), None);
        assert_eq!(cfg.num_threads, m.num_cmps as u64);
        assert_eq!(cfg.l2_lines, m.l2.size_bytes / m.l2.line_bytes);
        let cfg = analyze_config(&m, &AStreamPolicy::paper(), Some(SlipSync::L1));
        assert_eq!(cfg.default_sync, omp_ir::node::SlipSyncType::LocalSync);
        assert_eq!(cfg.default_tokens, 1);
    }
}
