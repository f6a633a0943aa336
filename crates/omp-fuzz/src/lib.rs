//! # omp-fuzz — differential fuzzing for the slipstream engine
//!
//! The paper's central claim is behavioural: slipstream execution is an
//! *optimization*, so a program must compute the same thing under
//! single, double, and slipstream modes. This crate turns that claim
//! into a continuously checkable property:
//!
//! 1. [`gen`] draws valid, in-bounds [`omp_ir::Program`]s from a seeded
//!    weighted grammar (no external randomness, no `rand` dependency);
//! 2. [`diff`] classifies each program with the `omp-analyze` gate
//!    analyzer, runs it under all four processor-usage modes, and
//!    reconciles every run against the reference trace oracle — any
//!    mismatch, hang, panic, gate/class disagreement, A-stream I/O, or
//!    spurious recovery becomes a fingerprinted [`diff::Failure`];
//! 3. [`shrink()`] minimizes a failing program by deterministic
//!    delta-debugging over the IR until no single edit preserves the
//!    failure;
//! 4. [`artifact`] serializes the minimized case as a self-contained
//!    replayable JSON repro;
//! 5. [`campaign`] drives seeded batches, deduplicates failures by
//!    fingerprint, and self-checks the whole loop against seeded engine
//!    mutations ([`slipstream::EngineMutation`]).

#![warn(missing_docs)]

pub mod artifact;
pub mod campaign;
pub mod diff;
pub mod gen;
pub mod shrink;

pub use artifact::Repro;
pub use campaign::{run_campaign, self_check_mutation, CampaignConfig, CampaignResult};
pub use diff::{run_case, CaseResult, DiffOptions, FailKind, Failure};
pub use gen::{generate, GenConfig};
pub use shrink::shrink;
