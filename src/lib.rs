//! # slipstream-openmp
//!
//! A Rust reproduction of *Extending OpenMP to Support Slipstream
//! Execution Mode* (Khaled Z. Ibrahim and Gregory T. Byrd, IPPS 2003):
//! an OpenMP-style runtime with slipstream execution on a simulated
//! CMP-based distributed-shared-memory multiprocessor.
//!
//! The workspace splits along the paper's own structure:
//!
//! * [`dsm_sim`] — the machine: dual-processor CMP nodes with private L1s
//!   and a shared L2, an invalidate-based fully-mapped directory, and a
//!   fixed-delay interconnect with port/controller contention (Table 1
//!   parameters by default).
//! * [`omp_ir`] — the compiler front half: an IR with every OpenMP
//!   construct the paper discusses, a directive parser including the new
//!   `SLIPSTREAM([type][, tokens])` extension and `OMP_SLIPSTREAM`
//!   environment variable, validation, and a reference tracer.
//! * [`omp_rt`] — the Omni-style runtime layer: team layouts for single,
//!   double, and slipstream modes; static/dynamic/guided worksharing;
//!   construct bookkeeping; per-region slipstream resolution.
//! * [`slipstream`] — the paper's contribution: A/R stream pairing, the
//!   token-semaphore synchronization of Figure 1, the per-construct
//!   A-stream policy of Section 3.1, the dynamic-scheduling handshake of
//!   Section 3.2.2, divergence recovery, and the execution engine.
//! * [`npb_kernels`] — scaled, structurally faithful analogues of the
//!   NAS Parallel Benchmarks the paper evaluates (BT, CG, LU, MG, SP).
//!
//! ## Quickstart
//!
//! ```
//! use slipstream_openmp::prelude::*;
//!
//! // A toy kernel: stream through a shared array under OpenMP-style
//! // worksharing.
//! let mut b = ProgramBuilder::new("demo");
//! let data = b.shared_array("data", 4096, 8);
//! let i = b.var();
//! b.parallel(move |r| {
//!     r.par_for(None, i, 0, 4096, move |body| {
//!         body.load(data, Expr::v(i));
//!         body.compute(8);
//!         body.store(data, Expr::v(i));
//!     });
//! });
//! let program = b.build();
//!
//! // Run it in single mode and in slipstream mode on the paper machine.
//! let machine = MachineConfig::paper();
//! let single = run_program(
//!     &program,
//!     &RunOptions::new(ExecMode::Single).with_machine(machine.clone()),
//! )
//! .unwrap();
//! let slip = run_program(
//!     &program,
//!     &RunOptions::new(ExecMode::Slipstream)
//!         .with_machine(machine)
//!         .with_sync(SlipSync::G0),
//! )
//! .unwrap();
//! assert!(single.exec_cycles > 0 && slip.exec_cycles > 0);
//! ```

#![warn(missing_docs)]

pub use dsm_sim;
pub use npb_kernels;
pub use omp_ir;
pub use omp_rt;
pub use slipstream;

/// Everything needed to define and run a program, in one import.
pub mod prelude {
    pub use dsm_sim::{FillClass, MachineConfig, ReqKind, StreamRole, TimeClass};
    pub use npb_kernels::Benchmark;
    pub use omp_ir::expr::Expr;
    pub use omp_ir::node::{ReductionOp, ScheduleSpec, SlipSyncType, SlipstreamClause};
    pub use omp_ir::{parse_directive, parse_omp_slipstream_env, ProgramBuilder};
    pub use omp_rt::{ExecMode, RuntimeEnv, SlipSync};
    pub use slipstream::faults::{FaultEvent, FaultKind, FaultPlan};
    pub use slipstream::policy::{AStreamPolicy, RecoveryPolicy};
    pub use slipstream::report::{breakdown_table, coverage_line, fills_table, resilience_table};
    pub use slipstream::runner::{run_figure2_modes, run_program, RunOptions, RunSummary};
    pub use slipstream::{
        analyze, chrome_trace_json, validate_chrome_trace, TraceAnalytics, TraceConfig, TraceData,
        TraceEvent,
    };
}
