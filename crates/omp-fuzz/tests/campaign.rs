//! End-to-end campaign tests: the acceptance criteria of the
//! differential fuzzer in miniature.
//!
//! * A fixed-seed campaign over generated programs must be failure-free
//!   (the release `bench --bin fuzz` runs the full-size version).
//! * Every seeded engine-mutation class must be caught, minimized to a
//!   small program, and reproducible from the serialized artifact alone.

use omp_fuzz::{run_campaign, self_check_mutation, CampaignConfig, DiffOptions, Repro};
use slipstream::EngineMutation;

#[test]
fn fixed_seed_campaign_is_clean() {
    let cfg = CampaignConfig::new(60, 1);
    let res = run_campaign(&cfg);
    assert_eq!(res.cases, 60);
    assert!(
        res.clean(),
        "unexplained divergences: {}",
        res.summary_json()
    );
    assert_eq!(res.class_counts.iter().sum::<u64>(), 60);
    assert!(res.class_counts[0] > 0, "no exact-class programs generated");
    assert!(res.faulted_cases > 0, "no fault passes ran");
}

#[test]
fn pinned_200_case_campaign_is_clean() {
    // A second fixed seed at a larger size: every case's four modes
    // reconcile with the trace oracle and the gate expectation.
    let cfg = CampaignConfig::new(200, 0x51_1F_57_3A);
    let res = run_campaign(&cfg);
    assert_eq!(res.cases, 200);
    assert!(
        res.clean(),
        "unexplained divergences: {}",
        res.summary_json()
    );
}

#[test]
fn every_mutation_class_is_caught_minimized_and_replayable() {
    for mutation in EngineMutation::ALL_BROKEN {
        let repro = self_check_mutation(mutation, 42, 40)
            .unwrap_or_else(|e| panic!("{}: {e}", mutation.label()));
        assert!(
            repro.program.node_count() <= 25,
            "{}: minimized repro still has {} nodes",
            mutation.label(),
            repro.program.node_count()
        );
        // Reproduce strictly from the serialized artifact: parse the JSON
        // back and replay against fresh campaign options.
        let text = repro.to_json();
        let back = Repro::from_json(&text).expect("artifact parses");
        assert_eq!(back.mutation, mutation);
        let hits = back.replay(&DiffOptions::campaign());
        assert!(
            !hits.is_empty(),
            "{}: artifact did not reproduce from serialized form",
            mutation.label()
        );
    }
}
