//! Seeded-mutation suite: every NPB kernel must analyze clean, and each
//! of three hazard classes injected into each kernel must be flagged at
//! the right severity.
//!
//! Mutations are appended to the first parallel region's body behind a
//! barrier, so they occupy their own barrier phases and cannot interact
//! with the kernel's own accesses.

use npb_kernels::Benchmark;
use omp_analyze::{analyze, AnalyzeConfig, Hazard, Severity};
use omp_ir::expr::{Expr, VarId};
use omp_ir::node::{ArrayId, Node, Program, ScheduleSpec};

fn cfg() -> AnalyzeConfig {
    AnalyzeConfig::paper()
}

fn first_shared(p: &Program) -> ArrayId {
    ArrayId(
        p.arrays
            .iter()
            .position(|a| a.shared && a.len > 0)
            .expect("every kernel declares a shared array") as u32,
    )
}

/// Append `inj` (plus a leading barrier) to the first parallel region's
/// body, allocating a fresh private variable for the mutation to use.
fn mutate(p: &Program, build: impl FnOnce(ArrayId, VarId) -> Node) -> Program {
    let mut m = p.clone();
    let var = VarId(m.num_vars);
    m.num_vars += 1;
    let inj = build(first_shared(p), var);
    assert!(inject(&mut m.body, &inj), "kernel has a parallel region");
    omp_ir::validate(&m).expect("mutant stays structurally valid");
    m
}

fn inject(n: &mut Node, inj: &Node) -> bool {
    match n {
        Node::Seq(v) => v.iter_mut().any(|c| inject(c, inj)),
        Node::For { body, .. } => inject(body, inj),
        Node::Parallel { body, .. } => {
            let orig = std::mem::replace(body.as_mut(), Node::nop());
            **body = Node::Seq(vec![orig, Node::Barrier, inj.clone()]);
            true
        }
        _ => false,
    }
}

fn racing_store(arr: ArrayId, var: VarId) -> Node {
    // Every iteration of a worksharing loop stores the same element.
    Node::ParFor {
        sched: None,
        var,
        begin: Expr::c(0),
        end: Expr::c(64),
        body: Box::new(Node::Store {
            array: arr,
            index: Expr::c(0),
        }),
        reduction: None,
        nowait: false,
    }
}

fn unbalanced_barrier(_arr: ArrayId, var: VarId) -> Node {
    // Thread-dependent trip count around a barrier.
    Node::For {
        var,
        begin: Expr::c(0),
        end: Expr::ThreadId,
        step: 1,
        body: Box::new(Node::Barrier),
    }
}

fn skipped_store_then_read(arr: ArrayId, _var: VarId) -> Node {
    // The A-stream skips the single's store; the next phase reads it.
    Node::Seq(vec![
        Node::Single(Box::new(Node::Store {
            array: arr,
            index: Expr::c(0),
        })),
        Node::Load {
            array: arr,
            index: Expr::c(0),
        },
    ])
}

fn assert_flags(p: &Program, hazard: Hazard, severity: Severity, label: &str) {
    let r = analyze(p, &cfg());
    let hit = r
        .findings
        .iter()
        .find(|f| f.hazard == hazard)
        .unwrap_or_else(|| panic!("{label}: expected {hazard:?}, got:\n{}", r.render_text()));
    assert_eq!(hit.severity, severity, "{label}:\n{}", r.render_text());
    assert!(!r.truncated, "{label}: analysis truncated");
}

#[test]
fn clean_kernels_have_zero_findings() {
    for bm in Benchmark::ALL {
        for (label, p) in [("tiny", bm.build_tiny()), ("paper", bm.build_paper(None))] {
            let r = analyze(&p, &cfg());
            assert!(
                r.is_clean(),
                "{} {label} should analyze clean:\n{}",
                bm.name(),
                r.render_text()
            );
            assert!(!r.regions.is_empty(), "{} {label} has regions", bm.name());
        }
    }
}

#[test]
fn clean_dynamic_variants_have_zero_findings() {
    for bm in Benchmark::ALL {
        if !bm.in_dynamic_experiment() {
            continue;
        }
        for spec in [ScheduleSpec::dynamic(2), ScheduleSpec::guided()] {
            let p = bm.build_tiny_sched(spec);
            let r = analyze(&p, &cfg());
            assert!(
                r.is_clean(),
                "{} {spec:?} should analyze clean:\n{}",
                bm.name(),
                r.render_text()
            );
        }
    }
}

#[test]
fn racing_store_mutation_is_denied_in_every_kernel() {
    for bm in Benchmark::ALL {
        let p = mutate(&bm.build_tiny(), racing_store);
        assert_flags(
            &p,
            Hazard::RaceWriteWrite,
            Severity::Deny,
            &format!("{} racing-store", bm.name()),
        );
    }
}

#[test]
fn unbalanced_barrier_mutation_is_denied_in_every_kernel() {
    for bm in Benchmark::ALL {
        let p = mutate(&bm.build_tiny(), unbalanced_barrier);
        assert_flags(
            &p,
            Hazard::UnbalancedSync,
            Severity::Deny,
            &format!("{} unbalanced-barrier", bm.name()),
        );
    }
}

#[test]
fn skipped_store_mutation_warns_in_every_kernel() {
    for bm in Benchmark::ALL {
        let p = mutate(&bm.build_tiny(), skipped_store_then_read);
        let r = analyze(&p, &cfg());
        assert!(
            r.findings
                .iter()
                .any(|f| f.hazard == Hazard::SkippedStoreStale && f.severity == Severity::Warn),
            "{} skipped-store:\n{}",
            bm.name(),
            r.render_text()
        );
        assert_eq!(
            r.deny_count(),
            0,
            "{} skipped-store must not deny:\n{}",
            bm.name(),
            r.render_text()
        );
    }
}

#[test]
fn mutations_are_flagged_at_paper_scale_too() {
    // Spot-check one kernel at paper scale so the suite isn't tied to
    // tiny presets only.
    let p = mutate(&Benchmark::Cg.build_paper(None), racing_store);
    assert_flags(
        &p,
        Hazard::RaceWriteWrite,
        Severity::Deny,
        "cg paper racing-store",
    );
}

// ---------------------------------------------------------------------------
// Mutations inside each kernel's serial iteration loop.

/// Append `inj` to the body of the first serial `for` inside the first
/// parallel region — every kernel's iteration loop.
fn mutate_loop(p: &Program, build: impl FnOnce(ArrayId, VarId) -> Node) -> Program {
    let mut m = p.clone();
    let var = VarId(m.num_vars);
    m.num_vars += 1;
    let inj = build(first_shared(p), var);
    assert!(
        inject_into_loop(&mut m.body, &inj),
        "kernel has a serial loop inside a parallel region"
    );
    omp_ir::validate(&m).expect("mutant stays structurally valid");
    m
}

fn inject_into_loop(n: &mut Node, inj: &Node) -> bool {
    fn into_for(n: &mut Node, inj: &Node) -> bool {
        match n {
            Node::Seq(v) => v.iter_mut().any(|c| into_for(c, inj)),
            Node::For { body, .. } => {
                let orig = std::mem::replace(body.as_mut(), Node::nop());
                **body = Node::Seq(vec![orig, inj.clone()]);
                true
            }
            _ => false,
        }
    }
    match n {
        Node::Seq(v) => v.iter_mut().any(|c| inject_into_loop(c, inj)),
        Node::For { body, .. } => inject_into_loop(body, inj),
        Node::Parallel { body, .. } => into_for(body, inj),
        _ => false,
    }
}

/// Make the first serial loop's trip count ThreadId-dependent.
fn poison_trip_count(p: &Program) -> Program {
    fn poison(n: &mut Node) -> bool {
        fn in_region(n: &mut Node) -> bool {
            match n {
                Node::Seq(v) => v.iter_mut().any(in_region),
                Node::For { end, .. } => {
                    let orig = std::mem::replace(end, Expr::c(0));
                    *end = Expr::Bin(
                        omp_ir::expr::BinOp::Add,
                        Box::new(Expr::ThreadId),
                        Box::new(orig),
                    );
                    true
                }
                _ => false,
            }
        }
        match n {
            Node::Seq(v) => v.iter_mut().any(poison),
            Node::For { body, .. } => poison(body),
            Node::Parallel { body, .. } => in_region(body),
            _ => false,
        }
    }
    let mut m = p.clone();
    assert!(poison(&mut m.body), "kernel has a serial loop to poison");
    omp_ir::validate(&m).expect("mutant stays structurally valid");
    m
}

#[test]
fn thread_dependent_trip_count_is_unbalanced_sync() {
    // A ThreadId-dependent serial-loop bound desynchronizes the team.
    for bm in Benchmark::ALL {
        let p = poison_trip_count(&bm.build_tiny());
        let r = analyze(&p, &cfg());
        assert!(
            r.findings
                .iter()
                .any(|f| f.hazard == Hazard::UnbalancedSync),
            "{}: unbalanced sync expected:\n{}",
            bm.name(),
            r.render_text()
        );
    }
}

#[test]
fn critical_section_store_in_the_loop_is_not_denied() {
    // A critical-protected store is race-free: no deny finding.
    for bm in Benchmark::ALL {
        let p = mutate_loop(&bm.build_tiny(), |arr, var| Node::ParFor {
            sched: None,
            var,
            begin: Expr::c(0),
            end: Expr::c(64),
            body: Box::new(Node::Critical {
                name: "mutant".into(),
                body: Box::new(Node::Store {
                    array: arr,
                    index: Expr::c(0),
                }),
            }),
            reduction: None,
            nowait: false,
        });
        let r = analyze(&p, &cfg());
        assert_eq!(
            r.deny_count(),
            0,
            "{}: critical store must not deny:\n{}",
            bm.name(),
            r.render_text()
        );
    }
}
