//! # omp-ir — OpenMP-flavoured kernel IR
//!
//! The "compiler front half" of the slipstream-OpenMP reproduction: an IR
//! with a node for every OpenMP construct the paper's Section 3 discusses
//! (parallel, for with static/dynamic/guided schedules, barrier, single,
//! master, critical, atomic, sections, flush, reductions, I/O), a builder
//! API, a parser for textual directives including the paper's new
//! `SLIPSTREAM([type][, tokens])` extension and the `OMP_SLIPSTREAM`
//! environment variable, a validator, and a reference tracer used as a
//! semantic oracle by the execution-engine tests.
//!
//! Programs in this IR are *timing kernels*: loads and stores carry
//! array+index address expressions over private state only, which is
//! exactly the property slipstream execution relies on (paper Section 2.1).

#![warn(missing_docs)]

pub mod builder;
pub mod directive;
pub mod expr;
pub mod json;
pub mod node;
pub mod path;
pub mod serialize;
pub mod trace;
pub mod validate;
pub mod wsloop;

pub use builder::{BlockBuilder, ProgramBuilder};
pub use directive::{
    parse_directive, parse_omp_slipstream_env, Directive, DirectiveError, EnvSlipstream,
};
pub use expr::{BinOp, Expr, SimpleCtx, TableId, VarId};
pub use json::{escape_json, parse_json, JsonValue, SerializeError};
pub use node::{
    ArrayDecl, ArrayId, Node, Program, Reduction, ReductionOp, ScheduleKind, ScheduleSpec,
    SlipSyncType, SlipstreamClause,
};
pub use path::{node_kind, NodePath, PathSeg};
pub use serialize::{program_from_json, program_to_json};
pub use trace::{trace, OpCounts, TraceSummary};
pub use validate::{validate, Diagnostic, ValidationError};
pub use wsloop::Chunk;
