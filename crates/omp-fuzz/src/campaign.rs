//! Campaign driving: seeded batches of differential cases with
//! fingerprint deduplication, auto-shrinking, and the engine-mutation
//! self-check.
//!
//! A campaign is a pure function of its configuration: the same
//! `(seed, iters, GenConfig, DiffOptions)` always generates the same
//! programs, observes the same failures, and minimizes them to the same
//! repros.

use dsm_sim::rng::SplitMix64;
use omp_analyze::Equivalence;
use slipstream::EngineMutation;

use crate::artifact::Repro;
use crate::diff::{run_case, DiffOptions};
use crate::gen::{generate, GenConfig};
use crate::shrink::shrink;

/// Campaign knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Cases to run.
    pub iters: u64,
    /// Master seed; per-case seeds derive from it deterministically.
    pub seed: u64,
    /// Program-generator shape.
    pub gen: GenConfig,
    /// Differential-harness options (machine, budget, mutation, ...).
    pub diff: DiffOptions,
    /// Every `n`-th case additionally runs the slipstream modes under a
    /// seeded fault plan (`None` disables fault passes).
    pub fault_every: Option<u64>,
    /// Minimize each newly-fingerprinted failure before archiving it.
    pub shrink_failures: bool,
}

impl CampaignConfig {
    /// Production defaults for `iters` cases from `seed`.
    pub fn new(iters: u64, seed: u64) -> Self {
        CampaignConfig {
            iters,
            seed,
            gen: GenConfig::campaign(),
            diff: DiffOptions::campaign(),
            fault_every: Some(5),
            shrink_failures: true,
        }
    }
}

/// Per-case outcome, streamed to the progress callback.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Case index within the campaign.
    pub index: u64,
    /// Generator seed of this case.
    pub case_seed: u64,
    /// Analyzer class the program was assigned.
    pub class: Equivalence,
    /// Whether the case ran under a fault plan.
    pub faulted: bool,
    /// Failures observed (before deduplication).
    pub failures: usize,
    /// Failures with a fingerprint not seen earlier in the campaign.
    pub new_fingerprints: usize,
}

/// Aggregated campaign result.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Cases executed.
    pub cases: u64,
    /// Programs per class: `[exact, converge-only, deny]`.
    pub class_counts: [u64; 3],
    /// Cases that ran a fault pass.
    pub faulted_cases: u64,
    /// One minimized repro per unique fingerprint, in discovery order.
    pub repros: Vec<Repro>,
    /// `(fingerprint, occurrences)` in discovery order.
    pub fingerprint_counts: Vec<(String, u64)>,
}

impl CampaignResult {
    /// No failures across the whole campaign.
    pub fn clean(&self) -> bool {
        self.repros.is_empty()
    }

    /// Summary document (`failures.json`) for CI artifact upload.
    pub fn summary_json(&self) -> String {
        let fps: Vec<String> = self
            .fingerprint_counts
            .iter()
            .zip(&self.repros)
            .map(|((fp, n), r)| {
                format!(
                    "{{\"fingerprint\":\"{fp}\",\"count\":{n},\"key\":\"{}\",\"nodes\":{}}}",
                    r.failure.fingerprint_key(),
                    r.program.node_count()
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"cases\":{},\"exact\":{},\"converge_only\":{},\"deny\":{},",
                "\"faulted_cases\":{},\"unique_failures\":{},",
                "\"failures\":[{}]}}"
            ),
            self.cases,
            self.class_counts[0],
            self.class_counts[1],
            self.class_counts[2],
            self.faulted_cases,
            self.repros.len(),
            fps.join(",")
        )
    }
}

fn class_index(c: Equivalence) -> usize {
    match c {
        Equivalence::Exact => 0,
        Equivalence::ConvergeOnly => 1,
        Equivalence::Deny => 2,
    }
}

/// Run a campaign, streaming per-case outcomes to `progress`.
pub fn run_campaign_with<F: FnMut(&CaseOutcome)>(
    cfg: &CampaignConfig,
    mut progress: F,
) -> CampaignResult {
    let mut seeds = SplitMix64::new(cfg.seed ^ 0xCA_3B_A1_67);
    let mut result = CampaignResult {
        cases: 0,
        class_counts: [0; 3],
        faulted_cases: 0,
        repros: Vec::new(),
        fingerprint_counts: Vec::new(),
    };
    for index in 0..cfg.iters {
        let case_seed = seeds.next_u64();
        let program = generate(case_seed, &cfg.gen);
        let mut diff = cfg.diff.clone();
        let faulted = cfg
            .fault_every
            .map(|n| n > 0 && index % n == n - 1)
            .unwrap_or(false);
        if faulted {
            diff.fault_seed = Some(case_seed ^ 0xFA17);
            result.faulted_cases += 1;
        }
        let res = run_case(&program, &diff);
        result.cases += 1;
        result.class_counts[class_index(res.class)] += 1;
        let mut new_fingerprints = 0;
        for f in &res.failures {
            let fp = f.fingerprint();
            if let Some(entry) = result.fingerprint_counts.iter_mut().find(|(k, _)| *k == fp) {
                entry.1 += 1;
                continue;
            }
            new_fingerprints += 1;
            result.fingerprint_counts.push((fp, 1));
            let minimized = if cfg.shrink_failures {
                shrink(&program, &diff, &f.fingerprint_key()).program
            } else {
                program.clone()
            };
            result
                .repros
                .push(Repro::new(Some(case_seed), f.clone(), &diff, minimized));
        }
        progress(&CaseOutcome {
            index,
            case_seed,
            class: res.class,
            faulted,
            failures: res.failures.len(),
            new_fingerprints,
        });
    }
    result
}

/// [`run_campaign_with`] without a progress callback.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    run_campaign_with(cfg, |_| {})
}

/// Prove the whole loop catches a seeded engine bug: run a campaign with
/// `mutation` enabled until a failure appears, minimize it, serialize
/// it, and verify the minimized case reproduces **from the serialized
/// artifact alone**. Returns the artifact.
pub fn self_check_mutation(
    mutation: EngineMutation,
    seed: u64,
    max_cases: u64,
) -> Result<Repro, String> {
    let gen_cfg = GenConfig::campaign();
    let mut diff = DiffOptions::campaign();
    diff.mutation = mutation;
    let mut seeds = SplitMix64::new(seed ^ 0x5E1F);
    for _ in 0..max_cases {
        let case_seed = seeds.next_u64();
        let program = generate(case_seed, &gen_cfg);
        let res = run_case(&program, &diff);
        let Some(f) = res.failures.first() else {
            continue;
        };
        let key = f.fingerprint_key();
        let minimized = shrink(&program, &diff, &key).program;
        let repro = Repro::new(Some(case_seed), f.clone(), &diff, minimized);
        let text = repro.to_json();
        let back = Repro::from_json(&text)
            .map_err(|e| format!("self-check: artifact failed to parse back: {e}"))?;
        if back.replay(&DiffOptions::campaign()).is_empty() {
            return Err(format!(
                "self-check: minimized artifact for `{}` did not reproduce on replay",
                mutation.label()
            ));
        }
        return Ok(back);
    }
    Err(format!(
        "self-check: mutation `{}` produced no failure in {max_cases} cases",
        mutation.label()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_are_deterministic() {
        let mut cfg = CampaignConfig::new(12, 7);
        cfg.gen = GenConfig::small();
        cfg.shrink_failures = false;
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.class_counts, b.class_counts);
        assert_eq!(a.fingerprint_counts, b.fingerprint_counts);
    }

    #[test]
    fn clean_campaign_produces_summary() {
        let mut cfg = CampaignConfig::new(20, 3);
        cfg.gen = GenConfig::small();
        let res = run_campaign(&cfg);
        assert_eq!(res.cases, 20);
        assert!(
            res.clean(),
            "unexpected failures: {:?}",
            res.fingerprint_counts
        );
        assert!(res.faulted_cases > 0);
        let summary = res.summary_json();
        let v = omp_ir::parse_json(&summary).expect("summary is valid JSON");
        assert_eq!(v.get("cases").and_then(|x| x.as_u64()), Some(20));
        assert_eq!(v.get("unique_failures").and_then(|x| x.as_u64()), Some(0));
    }
}
