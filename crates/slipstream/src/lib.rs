//! # slipstream — slipstream execution mode for OpenMP-style programs
//!
//! The primary contribution of *Extending OpenMP to Support Slipstream
//! Execution Mode* (Ibrahim & Byrd, IPPS 2003), rebuilt in Rust on a
//! simulated CMP-based DSM multiprocessor:
//!
//! * each CMP node runs one OpenMP task redundantly as an **R-stream**
//!   (real) and an **A-stream** (advanced, reduced) sharing the node's L2;
//! * the A-stream skips synchronization and shared-memory stores
//!   (converting eligible stores into read-exclusive prefetches), runs
//!   ahead, and warms the shared L2 for its R-stream;
//! * a **token semaphore** bounds the A-stream's lead (local vs global
//!   insertion, configurable initial tokens — Figure 1 of the paper) and
//!   doubles as the divergence detector;
//! * **dynamic scheduling** adds a pair handshake: the R-stream publishes
//!   each chunk grab, the A-stream mirrors it (Section 3.2.2);
//! * the `SLIPSTREAM` directive and `OMP_SLIPSTREAM` environment variable
//!   select behaviour per region at run time, with one binary serving
//!   single, double, and slipstream modes.
//!
//! The [`runner`] module is the public entry point: compile a program once
//! and run it under any mode/synchronization combination.

#![warn(missing_docs)]

pub mod compile;
pub mod exec;
pub mod faults;
pub mod gate;
pub mod pairing;
pub mod policy;
pub mod report;
pub mod runner;

pub use compile::{compile, CompiledProgram};
pub use exec::{
    build_plan, Engine, EngineConfig, EngineMutation, MemoPlan, OsNoise, RunResult,
    SNAPSHOT_VERSION,
};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultSite, PairLedger};
pub use pairing::{Decision, PairState};
pub use policy::{AAction, AStreamPolicy, RecoveryPolicy};
pub use report::stats_fingerprint;
pub use runner::{
    checkpoint_compiled, checkpoint_program, resume_compiled, resume_program, run_program,
    Checkpoint, RunOptions, RunSummary,
};

// Safety-gate vocabulary (the analyzer entry point itself stays at
// `omp_analyze::analyze` to avoid clashing with the trace analytics
// `analyze` re-exported below).
pub use omp_analyze::{AnalysisReport, Finding, GateMode, Hazard, Severity};

// Re-export the pieces users need to drive a simulation end-to-end.
pub use dsm_sim::{FillClass, FillCounts, MachineConfig, ReqKind, StreamRole, TimeClass};
pub use omp_ir::{Program, ProgramBuilder};
pub use omp_rt::{ExecMode, PairMode, RuntimeEnv, SlipSync};
pub use sim_trace::{
    analyze, chrome_trace_json, validate_chrome_trace, TraceAnalytics, TraceConfig, TraceData,
    TraceEvent,
};
