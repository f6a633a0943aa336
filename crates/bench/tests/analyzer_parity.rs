//! Analyzer parity: the gate's hazard-only analysis against the full one,
//! and pinned reports for the paper kernels.
//!
//! `omp_analyze::analyze_hazards` is what the slipstream gate and the
//! fuzzer's classifier run; `omp_analyze::analyze` adds phase-purity
//! certification for memoized replay. The two must agree on everything
//! but `certificates`/`replay_loops`. The pinned FNV-1a digests of the
//! paper kernels' JSON reports catch any change to the walk's ledger that
//! alters findings, region summaries, visit counts or certificates.

use bench::analysis_corpus;
use npb_kernels::Benchmark;
use omp_analyze::{analyze, analyze_hazards, fnv1a64, AnalysisReport, AnalyzeConfig};
use omp_fuzz::diff::DiffOptions;
use omp_fuzz::gen::{generate, GenConfig};
use omp_ir::node::Program;
use slipstream::gate::analyze_config;
use slipstream::{AStreamPolicy, MachineConfig, SlipSync};

fn config(machine: &MachineConfig, sync: SlipSync) -> AnalyzeConfig {
    analyze_config(machine, &AStreamPolicy::paper(), Some(sync))
}

fn digest(r: &AnalysisReport) -> u64 {
    fnv1a64(r.to_json().as_bytes())
}

/// Assert the hazard-only report equals the full one minus certification,
/// and return both.
fn check_parity(label: &str, p: &Program, cfg: &AnalyzeConfig) -> (AnalysisReport, AnalysisReport) {
    let hazards = analyze_hazards(p, cfg);
    let full = analyze(p, cfg);
    assert!(hazards.certificates.is_empty() && hazards.replay_loops.is_empty());
    let mut stripped = full.clone();
    stripped.certificates.clear();
    stripped.replay_loops.clear();
    assert_eq!(
        hazards, stripped,
        "{label}: hazard passes diverge from analyze"
    );
    (hazards, full)
}

/// (kernel, sync, hazard-report digest, full-report digest) on the paper
/// machine.
const PAPER_DIGESTS: [(&str, &str, u64, u64); 10] = [
    ("bt", "G0", 0x5621_9310_7aae_92ab, 0xd494_62f6_8b28_6674),
    ("bt", "L1", 0x46ec_0247_9df1_7d7c, 0xe004_ffb9_cb9c_fa31),
    ("cg", "G0", 0xa076_134a_f81f_65b6, 0xd10a_ec12_a533_7ee5),
    ("cg", "L1", 0xbc20_ba55_1fe9_c6ab, 0x0839_9353_02ca_0a86),
    ("lu", "G0", 0x3e97_f549_afbb_7f39, 0x97a7_6a05_f288_4b24),
    ("lu", "L1", 0x6eaf_e371_1b03_4f86, 0xbef6_88b0_9980_8447),
    ("mg", "G0", 0x8b63_0424_8ab1_85e1, 0x703f_7eca_b9b1_592d),
    ("mg", "L1", 0x0b4e_c3fa_6764_fa1a, 0x7b0b_5899_0d57_ad0a),
    ("sp", "G0", 0x1ba5_8fc5_8a4a_2ab8, 0x64bd_02f6_071e_ee31),
    ("sp", "L1", 0x3b86_5933_f765_bcbb, 0xb7b6_197f_efc2_259c),
];

#[test]
fn paper_kernels_match_pinned_reports_under_both_syncs() {
    let machine = MachineConfig::paper();
    for bm in Benchmark::ALL {
        let p = bm.build_paper(None);
        for sync in [SlipSync::G0, SlipSync::L1] {
            let label = format!("{}-{}", bm.name(), sync.label());
            let (hazards, full) = check_parity(&label, &p, &config(&machine, sync));
            let &(_, _, want_hazards, want_full) = PAPER_DIGESTS
                .iter()
                .find(|(k, s, ..)| *k == bm.name() && *s == sync.label())
                .expect("every kernel and sync is pinned");
            assert_eq!(
                (digest(&hazards), digest(&full)),
                (want_hazards, want_full),
                "{label}: report changed\n{}",
                full.render_text()
            );
        }
    }
}

#[test]
fn corpus_and_fuzz_programs_agree_with_the_full_analysis() {
    // The paper presets are covered, under both syncs, above.
    for (label, p) in analysis_corpus() {
        if !label.ends_with("-paper") {
            check_parity(&label, &p, &AnalyzeConfig::paper());
        }
    }
    let machine = DiffOptions::campaign().machine;
    let mut racy = GenConfig::campaign();
    racy.race_permille = 400;
    let mut denied = 0;
    for seed in 0..200 {
        for (kind, gen) in [("campaign", GenConfig::campaign()), ("racy", racy)] {
            let p = generate(seed, &gen);
            for sync in [SlipSync::G0, SlipSync::L1] {
                let label = format!("{kind} seed {seed} {}", sync.label());
                let (hazards, _) = check_parity(&label, &p, &config(&machine, sync));
                denied += usize::from(hazards.deny_count() > 0);
            }
        }
    }
    assert!(denied > 0, "no fuzz program exercised the deny path");
}

#[test]
fn state_cap_truncates_without_spurious_findings() {
    // LU on the paper machine admits exactly 26440 distinct
    // (phase, array, element) records.
    const LU_RECORDS: usize = 26440;
    const LU_CAPPED_DIGEST: u64 = 0x9638_d435_78ff_aaef;
    let p = Benchmark::Lu.build_paper(None);
    let base = config(&MachineConfig::paper(), SlipSync::G0);
    let full = analyze_hazards(&p, &base);
    assert!(!full.truncated);
    let with_cap = |cap| {
        let mut cfg = base.clone();
        cfg.max_state_entries = cap;
        analyze_hazards(&p, &cfg)
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
