//! # omp-rt — the OpenMP runtime library layer
//!
//! Modelled on the Omni OpenMP runtime the paper extends: a process pool
//! created at program start, parallel regions dispatched as functions to
//! spinning slaves, worksharing schedules (static computed independently
//! per thread; dynamic/guided serialized through a scheduler lock), and
//! construct bookkeeping. This crate holds the runtime's *logical* state
//! and policy — pure and unit-testable; the cycle-accurate protocol
//! execution on the simulated machine lives in the `slipstream` crate.
//!
//! Slipstream-specific runtime policy also resolves here:
//! [`mode::resolve_region`] implements the directive/environment
//! precedence of paper Section 3.3, and [`team::TeamLayout`] implements
//! the single/double/slipstream processor mappings of Section 5.

#![warn(missing_docs)]

pub mod constructs;
pub mod env;
pub mod mode;
pub mod schedule;
pub mod team;

pub use constructs::{ConstructArena, SectionsState, SingleState};
pub use env::RuntimeEnv;
pub use mode::{resolve_region, ExecMode, PairMode, RegionSlip, SlipSync};
pub use schedule::{
    resolve_schedule, static_chunks, AffinityGrab, AffinityState, DynLoopState, ResolvedSchedule,
};
pub use team::{CpuAssignment, TeamLayout};
