//! IR array shapes the address space cannot hold: a program read from JSON
//! that declares one must come back from `run_program` as an `Err` that
//! names the array, never as a panic.
//!
//! Each case edits one field of the token toy's serialized program (one
//! shared array `a` of 8192 8-byte elements). The edited program still
//! parses.

use bench::example_programs;
use omp_analyze::{analyze, AnalyzeConfig, Hazard};
use omp_ir::node::Program;
use omp_ir::serialize::{program_from_json, program_to_json};
use omp_ir::{Expr, ProgramBuilder};
use slipstream::runner::{run_program, RunOptions};
use slipstream::{ExecMode, MachineConfig};

fn token_toy_json() -> String {
    let toy = example_programs()
        .into_iter()
        .find(|p| p.name == "token-toy")
        .expect("the example corpus has the token toy");
    program_to_json(&toy)
}

/// The token toy with `"field":value` of its array replaced.
fn edited(field: &str, value: u64) -> Program {
    let json = token_toy_json();
    let old = match field {
        "len" => "\"len\":8192",
        "elem_bytes" => "\"elem_bytes\":8",
        _ => unreachable!("no such array field"),
    };
    assert_eq!(json.matches(old).count(), 1, "{json}");
    program_from_json(&json.replace(old, &format!("\"{field}\":{value}")))
        .expect("the edited program parses")
}

fn run_with(field: &str, value: u64) -> Result<slipstream::RunSummary, String> {
    let program = edited(field, value);
    let mut machine = MachineConfig::paper();
    machine.num_cmps = 4;
    run_program(
        &program,
        &RunOptions::new(ExecMode::Single).with_machine(machine),
    )
}

fn assert_refused(field: &str, value: u64, why: &str) {
    let err = run_with(field, value)
        .err()
        .unwrap_or_else(|| panic!("{field} = {value} ran"));
    assert!(err.contains("array `a` (a0)"), "{err}");
    assert!(err.contains(why), "{err}");
}

/// The shape checks are machine-independent, so the analyzer denies the
/// program with the validator's diagnostic.
fn assert_denied(field: &str, value: u64, why: &str) {
    let r = analyze(&edited(field, value), &AnalyzeConfig::paper());
    assert_eq!(r.deny_count(), 1, "{}", r.render_text());
    assert_eq!(r.findings[0].hazard, Hazard::InvalidIr);
    assert!(r.findings[0].message.contains(why), "{}", r.render_text());
}

#[test]
fn zero_length_array_is_an_error() {
    assert_refused("len", 0, "has no elements");
    assert_denied("len", 0, "has no elements");
}

#[test]
fn array_whose_byte_size_overflows_is_an_error() {
    assert_refused("len", 1 << 62, "overflows u64");
    assert_denied("len", 1 << 62, "overflows u64");
}

#[test]
fn array_past_the_shared_segment_is_an_error() {
    // 2^38 elements of 8 bytes: 2 TiB, past the 2^40-byte segment.
    assert_refused("len", 1 << 38, "past the shared segment");
}

#[test]
fn huge_elements_past_the_shared_segment_are_an_error() {
    // 8192 elements of 2^32 bytes: 32 TiB.
    assert_refused("elem_bytes", 1 << 32, "past the shared segment");
}

#[test]
fn layout_past_u64_is_an_error() {
    // Two 2^63-byte arrays are each valid, but together they overflow the
    // address arithmetic; the gate's analysis still walks `a` behind them.
    let mut b = ProgramBuilder::new("huge");
    b.shared_array("h0", 1 << 60, 8);
    b.shared_array("h1", 1 << 60, 8);
    let a = b.shared_array("a", 64, 8);
    let i = b.var();
    b.parallel(move |r| r.par_for(None, i, 0, 64, move |body| body.load(a, Expr::v(i))));
    let mut machine = MachineConfig::paper();
    machine.num_cmps = 4;
    let opts = RunOptions::new(ExecMode::Single).with_machine(machine);
    let err = run_program(&b.build(), &opts).expect_err("the layout cannot be placed");
    assert!(err.contains("array `h0` (a0)"), "{err}");
    assert!(err.contains("past the shared segment"), "{err}");
}

#[test]
fn zero_byte_elements_still_run() {
    let s = run_with("elem_bytes", 0).expect("zero-byte elements run");
    assert!(s.exec_cycles > 0);
}
