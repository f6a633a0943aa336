//! Analyzer parity: pinned reports for the paper kernels, the analysis
//! corpus and a fixed set of fuzz programs.
//!
//! `omp_analyze::analyze` is what the slipstream gate, the fuzzer's
//! classifier and `bench --bin analyze` run. The pinned FNV-1a digests of
//! its JSON reports catch any change to the walk's ledger that alters
//! findings, region summaries or visit counts.

use bench::analysis_corpus;
use npb_kernels::Benchmark;
use omp_analyze::{analyze, fnv1a64, AnalysisReport, AnalyzeConfig};
use omp_fuzz::diff::DiffOptions;
use omp_fuzz::gen::{generate, GenConfig};
use slipstream::gate::analyze_config;
use slipstream::{AStreamPolicy, MachineConfig, SlipSync};

fn config(machine: &MachineConfig, sync: SlipSync) -> AnalyzeConfig {
    analyze_config(machine, &AStreamPolicy::paper(), Some(sync))
}

fn digest(r: &AnalysisReport) -> u64 {
    fnv1a64(r.to_json().as_bytes())
}

/// (kernel, sync, report digest) on the paper machine.
const PAPER_DIGESTS: [(&str, &str, u64); 10] = [
    ("bt", "G0", 0xf36f_51ac_503a_96ce),
    ("bt", "L1", 0x258f_0581_3bb6_b5e5),
    ("cg", "G0", 0x31f7_d088_b52c_e2df),
    ("cg", "L1", 0xd0f1_5cba_3932_8ace),
    ("lu", "G0", 0xf91d_8cd1_3fe3_af5c),
    ("lu", "L1", 0xf64c_9203_cd25_b6af),
    ("mg", "G0", 0x75bc_1bd9_ead6_70c4),
    ("mg", "L1", 0x53c8_3c35_bb97_419b),
    ("sp", "G0", 0xd27b_00f4_d2eb_ab19),
    ("sp", "L1", 0x0066_f714_4388_e49e),
];

#[test]
fn paper_kernels_match_pinned_reports_under_both_syncs() {
    let machine = MachineConfig::paper();
    for bm in Benchmark::ALL {
        let p = bm.build_paper(None);
        for sync in [SlipSync::G0, SlipSync::L1] {
            let label = format!("{}-{}", bm.name(), sync.label());
            let r = analyze(&p, &config(&machine, sync));
            let &(_, _, want) = PAPER_DIGESTS
                .iter()
                .find(|(k, s, _)| *k == bm.name() && *s == sync.label())
                .expect("every kernel and sync is pinned");
            assert_eq!(
                digest(&r),
                want,
                "{label}: report changed\n{}",
                r.render_text()
            );
        }
    }
}

#[test]
fn corpus_and_fuzz_reports_match_their_pinned_digest() {
    // One digest over the JSON reports, joined by newlines, of the
    // non-paper corpus programs (the paper presets are pinned above) and
    // of 200 campaign plus 200 racy programs under both syncs.
    const ALL_REPORTS_DIGEST: u64 = 0x75eb_c81e_3858_e542;
    let mut reports = Vec::new();
    for (label, p) in analysis_corpus() {
        if !label.ends_with("-paper") {
            reports.push(analyze(&p, &AnalyzeConfig::paper()));
        }
    }
    let machine = DiffOptions::campaign().machine;
    let mut racy = GenConfig::campaign();
    racy.race_permille = 400;
    for seed in 0..200 {
        for gen in [GenConfig::campaign(), racy] {
            let p = generate(seed, &gen);
            for sync in [SlipSync::G0, SlipSync::L1] {
                reports.push(analyze(&p, &config(&machine, sync)));
            }
        }
    }
    let denied = reports.iter().filter(|r| r.deny_count() > 0).count();
    assert!(denied > 0, "no fuzz program exercised the deny path");
    let joined: Vec<String> = reports.iter().map(AnalysisReport::to_json).collect();
    assert_eq!(
        fnv1a64(joined.join("\n").as_bytes()),
        ALL_REPORTS_DIGEST,
        "a corpus or fuzz report changed"
    );
}

#[test]
fn state_cap_truncates_without_spurious_findings() {
    // LU on the paper machine admits exactly 26440 distinct
    // (phase, array, element) records.
    const LU_RECORDS: usize = 26440;
    const LU_CAPPED_DIGEST: u64 = 0x6a88_4b3e_b936_328a;
    let p = Benchmark::Lu.build_paper(None);
    let base = config(&MachineConfig::paper(), SlipSync::G0);
    let full = analyze(&p, &base);
    assert!(!full.truncated);
    let with_cap = |cap| {
        let mut cfg = base.clone();
        cfg.max_state_entries = cap;
        analyze(&p, &cfg)
    };
    for cap in [1, 1000, LU_RECORDS - 1] {
        let r = with_cap(cap);
        assert!(r.truncated, "cap {cap} must truncate");
        assert!(
            r.findings.iter().all(|f| full.findings.contains(f)),
            "cap {cap} invented findings:\n{}",
            r.render_text()
        );
        assert_eq!(r.visits, full.visits, "the state cap never stops the walk");
        assert_eq!(r.regions, full.regions);
        assert_eq!(digest(&r), LU_CAPPED_DIGEST, "cap {cap}");
    }
    assert_eq!(
        with_cap(LU_RECORDS),
        full,
        "a cap of exactly the record count"
    );
}
