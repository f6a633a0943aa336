//! Analyzer parity: pinned reports for the paper kernels, the analysis
//! corpus and a fixed set of fuzz programs.
//!
//! `omp_analyze::analyze` is what the slipstream gate, the fuzzer's
//! classifier and `bench --bin analyze` run. The pinned FNV-1a digests of
//! its JSON reports catch any change to the walk's ledger that alters
//! findings, region summaries or visit counts.

use bench::{analysis_corpus, dynamic_program};
use npb_kernels::Benchmark;
use omp_analyze::{analyze, fnv1a64, AnalysisReport, AnalyzeConfig};
use omp_fuzz::diff::DiffOptions;
use omp_fuzz::gen::{generate, GenConfig};
use omp_ir::expr::{Expr, VarId};
use omp_ir::node::{ArrayDecl, ArrayId, Node, Program, ScheduleKind, ScheduleSpec};
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

// ---- Reports pinned before the summary walk ---------------------------
//
// Each digest below is the FNV-1a hash of newline-joined JSON reports as
// the enumerating walk produced them, before flat loops were summarized.
// They cover the cases where the summary walk must fall back (budget
// stops inside flat loops, state caps, races, skipped stores) and the
// shapes its closed forms must get right (schedules, token windows,
// indices that wrap, run backwards or leave the array).

fn joined_digest(reports: &[AnalysisReport]) -> u64 {
    let joined: Vec<String> = reports.iter().map(AnalysisReport::to_json).collect();
    fnv1a64(joined.join("\n").as_bytes())
}

fn paper_g0() -> AnalyzeConfig {
    config(&MachineConfig::paper(), SlipSync::G0)
}

/// Visits of each paper kernel's full G0 report on the paper machine.
const PAPER_VISITS: [(&str, u64); 5] = [
    ("bt", 431_264),
    ("cg", 288_440),
    ("lu", 78_208),
    ("mg", 1_961_154),
    ("sp", 572_272),
];

fn paper_visits(bm: Benchmark) -> u64 {
    PAPER_VISITS
        .iter()
        .find(|(k, _)| *k == bm.name())
        .expect("every kernel is pinned")
        .1
}

#[test]
fn paper_kernels_match_pinned_reports_at_visit_budgets() {
    // Budgets that stop the walk inside a flat loop, down to one visit
    // short of the whole walk.
    const DIGEST: u64 = 0x299c_2f4f_b0db_ff6f;
    let mut reports = Vec::new();
    for bm in Benchmark::ALL {
        let p = bm.build_paper(None);
        let visits = paper_visits(bm);
        for budget in [1, 10, 1_000, 100_000, visits - 1, visits] {
            let r = analyze(&p, &paper_g0().with_budget(budget));
            assert_eq!(
                r.truncated,
                budget < visits,
                "{} budget {budget}",
                bm.name()
            );
            reports.push(r);
        }
    }
    assert_eq!(
        joined_digest(&reports),
        DIGEST,
        "a budget-stopped report changed"
    );
}

#[test]
fn paper_kernels_match_pinned_reports_at_their_state_thresholds() {
    // Each kernel's distinct (phase, array, element) record count on the
    // paper machine: a cap of exactly that admits every record, one less
    // truncates.
    const THRESHOLDS: [(&str, usize); 5] = [
        ("bt", 126_976),
        ("cg", 110_644),
        ("lu", 26_440),
        ("mg", 612_866),
        ("sp", 167_936),
    ];
    const DIGEST: u64 = 0xc20c_cf90_9881_a181;
    let mut reports = Vec::new();
    for (bm, (name, records)) in Benchmark::ALL.into_iter().zip(THRESHOLDS) {
        assert_eq!(bm.name(), name);
        let p = bm.build_paper(None);
        for cap in [records, records - 1] {
            let mut cfg = paper_g0();
            cfg.max_state_entries = cap;
            let r = analyze(&p, &cfg);
            assert_eq!(r.truncated, cap < records, "{name} cap {cap}");
            reports.push(r);
        }
    }
    assert_eq!(joined_digest(&reports), DIGEST, "a capped report changed");
}

/// The analysis corpus without its paper presets, plus `n` campaign and
/// `n` racy fuzz programs.
fn small_programs(n: u64) -> Vec<Program> {
    let mut out: Vec<Program> = analysis_corpus()
        .into_iter()
        .filter(|(label, _)| !label.ends_with("-paper"))
        .map(|(_, p)| p)
        .collect();
    let mut racy = GenConfig::campaign();
    racy.race_permille = 400;
    for seed in 0..n {
        out.push(generate(seed, &GenConfig::campaign()));
        out.push(generate(seed, &racy));
    }
    out
}

#[test]
fn skip_policies_match_pinned_reports() {
    // Without store conversion every shared store is a skipped store;
    // with critical execution critical bodies are no longer skipped.
    const DIGEST: u64 = 0x2881_553e_0c1c_e326;
    let machine = DiffOptions::campaign().machine;
    let policies = [
        AStreamPolicy::paper().without_store_conversion(),
        AStreamPolicy::paper().with_critical_execution(),
    ];
    let mut reports = Vec::new();
    for policy in &policies {
        for p in small_programs(100) {
            reports.push(analyze(
                &p,
                &analyze_config(&machine, policy, Some(SlipSync::G0)),
            ));
        }
        let cfg = analyze_config(&MachineConfig::paper(), policy, Some(SlipSync::G0));
        reports.push(analyze(&Benchmark::Bt.build_paper(None), &cfg));
    }
    assert_eq!(joined_digest(&reports), DIGEST, "a policy report changed");
}

#[test]
fn token_windows_match_pinned_reports() {
    // Tokens 0-3 under both syncs: lead windows of 1 to 5 phases.
    const DIGEST: u64 = 0x1a13_1895_80e0_c1eb;
    let machine = DiffOptions::campaign().machine;
    let mut reports = Vec::new();
    for p in small_programs(20) {
        for global in [true, false] {
            for tokens in 0..4 {
                let sync = SlipSync { global, tokens };
                reports.push(analyze(&p, &config(&machine, sync)));
            }
        }
    }
    assert_eq!(
        joined_digest(&reports),
        DIGEST,
        "a token-window report changed"
    );
}

#[test]
fn schedules_match_pinned_reports() {
    // The tiny kernels under every chunked schedule family, and the
    // paper kernels as the dynamic experiment builds them.
    const DIGEST: u64 = 0x4b54_38e8_e1b1_2c2d;
    let scheds = [
        ScheduleSpec::dynamic(1),
        ScheduleSpec::dynamic(3),
        ScheduleSpec::guided(),
        ScheduleSpec {
            kind: ScheduleKind::Static,
            chunk: Some(2),
        },
        ScheduleSpec {
            kind: ScheduleKind::Static,
            chunk: Some(5),
        },
    ];
    let machine = DiffOptions::campaign().machine;
    let mut reports = Vec::new();
    for bm in Benchmark::ALL {
        for sched in scheds {
            let p = bm.build_tiny_sched(sched);
            for sync in [SlipSync::G0, SlipSync::L1] {
                reports.push(analyze(&p, &config(&machine, sync)));
            }
        }
    }
    for bm in Benchmark::ALL {
        if bm.in_dynamic_experiment() {
            reports.push(analyze(&dynamic_program(bm, 16), &paper_g0()));
        }
    }
    assert_eq!(joined_digest(&reports), DIGEST, "a schedule report changed");
}

/// One region over shared arrays `a` (64 elements) and `b` (10,000
/// elements) whose body is `body`; variable 0 is the loop variable.
fn hand_built(name: &str, body: Node) -> Program {
    let arr = |name: &str, len| ArrayDecl {
        name: name.into(),
        shared: true,
        len,
        elem_bytes: 8,
    };
    Program {
        name: name.into(),
        arrays: vec![arr("a", 64), arr("b", 10_000)],
        tables: vec![vec![3, 1, 4, 1, 5, 9, 2, 6]],
        num_vars: 2,
        body: Node::Parallel {
            body: Box::new(body),
            slipstream: None,
        },
    }
}

#[test]
fn hand_built_loops_match_pinned_reports() {
    // Indices that wrap, run backwards, leave the array at either end, sit
    // inside min/max clamps, read a table, or stride so that two threads'
    // sets interleave; each as a flat serial loop, a static and a chunked
    // worksharing loop, alone and next to a racing store. Every region
    // takes more than 4,096 visits, so it is walked from summaries.
    const DIGEST: u64 = 0x9b29_45d3_5b96_6b2d;
    let v = || Expr::v(VarId(0));
    let indices: Vec<(&str, Expr)> = vec![
        ("wrap", v() * Expr::c(i64::MAX)),
        (
            "wrap-sum",
            v() * Expr::c(i64::MAX / 3) + Expr::c(i64::MAX - 7),
        ),
        ("back", Expr::c(63) - v()),
        ("leave", v() * Expr::c(3) - Expr::c(10)),
        (
            "clamp",
            (v() * Expr::c(2) + Expr::c(5))
                .max(Expr::c(3))
                .min(Expr::c(40)),
        ),
        (
            "clamp-back",
            (Expr::c(70) - v() * Expr::c(5))
                .min(Expr::c(50))
                .max(Expr::c(-4)),
        ),
        ("table", v().index_into(omp_ir::expr::TableId(0))),
        ("mod", v().rem(Expr::c(7)) * Expr::c(9)),
        ("tid", v() * Expr::NumThreads + Expr::ThreadId),
        ("stride3", v() * Expr::c(3) + Expr::ThreadId * Expr::c(2)),
        ("stride5", v() * Expr::c(5) + Expr::ThreadId * Expr::c(7)),
    ];
    let flat = |array: u32, index: &Expr, write: bool| {
        let acc = if write {
            Node::Store {
                array: ArrayId(array),
                index: index.clone(),
            }
        } else {
            Node::Load {
                array: ArrayId(array),
                index: index.clone(),
            }
        };
        Node::Seq(vec![acc, Node::Compute(Expr::c(1))])
    };
    let serial = |body: Node, step: u64| Node::For {
        var: VarId(0),
        begin: Expr::c(-5),
        end: Expr::c(1600),
        step,
        body: Box::new(body),
    };
    let ws = |body: Node, chunk: Option<u64>| Node::ParFor {
        sched: chunk.map(|c| ScheduleSpec {
            kind: ScheduleKind::Static,
            chunk: Some(c),
        }),
        var: VarId(0),
        begin: Expr::c(0),
        end: Expr::c(2500),
        body: Box::new(body),
        reduction: None,
        nowait: false,
    };
    let mut programs = Vec::new();
    for (label, index) in &indices {
        for array in [0, 1] {
            for write in [false, true] {
                let body = || flat(array, index, write);
                let shapes = [
                    serial(body(), 1),
                    serial(body(), 3),
                    ws(body(), None),
                    ws(body(), Some(4)),
                    Node::Seq(vec![
                        ws(body(), None),
                        ws(flat(array, &Expr::c(0), true), Some(1)),
                        serial(flat(array, index, !write), 2),
                    ]),
                ];
                for (k, shape) in shapes.into_iter().enumerate() {
                    programs.push(hand_built(&format!("{label}-{array}-{write}-{k}"), shape));
                }
            }
        }
    }
    let mut reports = Vec::new();
    for p in &programs {
        let r = analyze(p, &AnalyzeConfig::paper().with_threads(4));
        assert!(r.visits > 4096, "{}", p.name);
        reports.push(r);
    }
    assert!(reports.iter().any(|r| r.deny_count() > 0));
    assert!(reports.iter().any(|r| r.is_clean()));
    assert_eq!(
        joined_digest(&reports),
        DIGEST,
        "a hand-built report changed"
    );
}

#[test]
#[ignore = "release-mode sweep: cargo test --release -p bench --test analyzer_parity -- --ignored"]
fn large_fuzz_sweep_matches_its_pinned_digest() {
    // 5,000 campaign and 5,000 racy programs under both syncs.
    const DIGEST: u64 = 0x1125_7979_b2b3_37ca;
    let machine = DiffOptions::campaign().machine;
    let mut racy = GenConfig::campaign();
    racy.race_permille = 400;
    let mut reports = Vec::new();
    for seed in 0..5_000 {
        for gen in [GenConfig::campaign(), racy] {
            let p = generate(seed, &gen);
            for sync in [SlipSync::G0, SlipSync::L1] {
                reports.push(analyze(&p, &config(&machine, sync)));
            }
        }
    }
    assert!(reports.iter().all(|r| !r.truncated));
    assert_eq!(joined_digest(&reports), DIGEST, "a fuzz report changed");
}
