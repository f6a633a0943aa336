//! The kernel IR tree.
//!
//! A [`Program`] is what the "compiler" produces from directive-annotated
//! source: serial code executed by the master thread, containing
//! [`Node::Parallel`] regions that the runtime dispatches to the team.
//! Every OpenMP construct the paper discusses in Section 3.1 has a node;
//! the slipstream execution engine applies the per-construct A-stream
//! policy when interpreting them.
//!
//! The IR is a *timing* representation: loads and stores carry addresses
//! (array + index expression), compute nodes carry cycle counts, and no
//! data values flow — consistent with simulating on a timing model where
//! only the reference stream and control flow matter.

use crate::expr::{Expr, TableId, VarId};

/// A declared array (a contiguous region of simulated memory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Diagnostic name.
    pub name: String,
    /// Shared arrays live in the global segment; private arrays are
    /// replicated per thread in each CPU's private segment.
    pub shared: bool,
    /// Number of elements.
    pub len: u64,
    /// Bytes per element.
    pub elem_bytes: u64,
}

/// Handle to a declared array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayId(pub u32);

/// OpenMP worksharing schedule kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Blocked static assignment computed independently by each thread.
    Static,
    /// First-come-first-served chunks grabbed under a lock.
    Dynamic,
    /// Dynamic with geometrically decreasing chunk sizes.
    Guided,
    /// Affinity scheduling (the extension the paper cites as \[16\]):
    /// each thread first drains its own static block in chunks, then
    /// steals from the most-loaded thread. Recovers dynamic scheduling's
    /// load balancing without losing cache affinity on reused data.
    Affinity,
    /// Defer to the runtime (OMP_SCHEDULE-style environment control).
    Runtime,
}

/// A schedule clause: kind plus optional chunk size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleSpec {
    /// The schedule kind.
    pub kind: ScheduleKind,
    /// Chunk size; `None` uses the runtime default for the kind.
    pub chunk: Option<u64>,
}

impl ScheduleSpec {
    /// `schedule(static)`.
    pub fn static_default() -> Self {
        ScheduleSpec {
            kind: ScheduleKind::Static,
            chunk: None,
        }
    }

    /// `schedule(dynamic, chunk)`.
    pub fn dynamic(chunk: u64) -> Self {
        ScheduleSpec {
            kind: ScheduleKind::Dynamic,
            chunk: Some(chunk),
        }
    }

    /// `schedule(guided)`.
    pub fn guided() -> Self {
        ScheduleSpec {
            kind: ScheduleKind::Guided,
            chunk: None,
        }
    }

    /// `schedule(affinity, chunk)` — the extension of paper Section 3.2.2.
    pub fn affinity(chunk: u64) -> Self {
        ScheduleSpec {
            kind: ScheduleKind::Affinity,
            chunk: Some(chunk),
        }
    }
}

/// Reduction operators (only the access pattern matters to the simulator,
/// but the operator is kept for fidelity and reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionOp {
    /// `reduction(+: x)`
    Sum,
    /// `reduction(max: x)`
    Max,
    /// `reduction(min: x)`
    Min,
}

/// A reduction clause on a worksharing loop: each thread accumulates
/// privately during the loop, then combines into the shared target cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    /// The operator.
    pub op: ReductionOp,
    /// Shared array holding the reduction result.
    pub target: ArrayId,
    /// Element index of the result cell.
    pub index: Expr,
}

/// Synchronization type of the `SLIPSTREAM` directive (paper Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlipSyncType {
    /// Token inserted when the R-stream *exits* a barrier (globally
    /// synchronized A-stream).
    GlobalSync,
    /// Token inserted when the R-stream *enters* a barrier (locally
    /// synchronized A-stream).
    LocalSync,
    /// Defer the choice to the OMP_SLIPSTREAM environment variable.
    RuntimeSync,
    /// Disable slipstream execution (environment-variable only).
    None,
}

/// A `!$OMP SLIPSTREAM([type][, tokens])` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlipstreamClause {
    /// Synchronization type; the paper's implementation defaults to global.
    pub sync: SlipSyncType,
    /// Initial token count (default 0).
    pub tokens: u64,
}

impl Default for SlipstreamClause {
    fn default() -> Self {
        SlipstreamClause {
            sync: SlipSyncType::GlobalSync,
            tokens: 0,
        }
    }
}

/// One node of the kernel IR.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Execute children in order.
    Seq(Vec<Node>),
    /// Busy-execute for the expression's value in cycles (clamped at 0).
    Compute(Expr),
    /// Demand load of `array[index]`.
    Load {
        /// Source array.
        array: ArrayId,
        /// Element index expression.
        index: Expr,
    },
    /// Demand store to `array[index]`.
    Store {
        /// Destination array.
        array: ArrayId,
        /// Element index expression.
        index: Expr,
    },
    /// Sequential counted loop: `for var in (begin..end).step_by(step)`.
    For {
        /// Induction variable.
        var: VarId,
        /// Inclusive start.
        begin: Expr,
        /// Exclusive end.
        end: Expr,
        /// Positive step.
        step: u64,
        /// Loop body.
        body: Box<Node>,
    },
    /// A parallel region dispatched to the team (serial context only).
    Parallel {
        /// Region body, executed by every team member.
        body: Box<Node>,
        /// Region-scoped `SLIPSTREAM` directive, overriding the global
        /// setting for this region only.
        slipstream: Option<SlipstreamClause>,
    },
    /// `SLIPSTREAM` directive in the serial part: sets the program-global
    /// default until overridden (paper Section 3.3).
    SlipstreamSet(SlipstreamClause),
    /// OpenMP `for` worksharing loop (parallel context only).
    ParFor {
        /// Schedule clause; `None` means the compiler default (static).
        sched: Option<ScheduleSpec>,
        /// Induction variable.
        var: VarId,
        /// Inclusive start.
        begin: Expr,
        /// Exclusive end.
        end: Expr,
        /// Loop body.
        body: Box<Node>,
        /// Reduction clause.
        reduction: Option<Reduction>,
        /// `nowait`: suppress the implicit barrier at loop end.
        nowait: bool,
    },
    /// Explicit barrier.
    Barrier,
    /// `single` construct: executed by the first thread to arrive.
    Single(Box<Node>),
    /// `master` construct: executed by thread 0 only.
    Master(Box<Node>),
    /// Named critical section.
    Critical {
        /// Lock name (sections with the same name share a lock).
        name: String,
        /// Protected body.
        body: Box<Node>,
    },
    /// `atomic` update of `array[index]`.
    Atomic {
        /// Target array.
        array: ArrayId,
        /// Element index expression.
        index: Expr,
    },
    /// `sections` construct: each child section runs once, assigned to
    /// threads.
    Sections(Vec<Node>),
    /// `flush` directive (void on hardware-coherent machines; the A-stream
    /// skips it).
    Flush,
    /// I/O operation; never executed by the A-stream. Inputs synchronize
    /// the pair through the syscall semaphore.
    Io {
        /// True for input (read) operations.
        input: bool,
        /// Transfer size in bytes (scales the charged latency).
        bytes: u64,
    },
}

impl Node {
    /// An empty sequence (no-op).
    pub fn nop() -> Node {
        Node::Seq(Vec::new())
    }
}

/// A complete program: declarations plus the serial body.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Diagnostic name (benchmark name).
    pub name: String,
    /// Array declarations; `ArrayId(i)` indexes this list.
    pub arrays: Vec<ArrayDecl>,
    /// Host-side index tables; `TableId(i)` indexes this list.
    pub tables: Vec<Vec<i64>>,
    /// Number of private variable slots per thread.
    pub num_vars: u32,
    /// Serial body executed by the master, containing `Parallel` regions.
    pub body: Node,
}

impl Program {
    /// Look up an array declaration.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0 as usize]
    }

    /// Host table contents.
    pub fn table(&self, id: TableId) -> &[i64] {
        &self.tables[id.0 as usize]
    }

    /// Count nodes of the whole program (diagnostic).
    pub fn node_count(&self) -> usize {
        fn walk(n: &Node) -> usize {
            1 + match n {
                Node::Seq(v) | Node::Sections(v) => v.iter().map(walk).sum(),
                Node::For { body, .. }
                | Node::Parallel { body, .. }
                | Node::ParFor { body, .. }
                | Node::Single(body)
                | Node::Master(body)
                | Node::Critical { body, .. } => walk(body),
                _ => 0,
            }
        }
        walk(&self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_constructors() {
        assert_eq!(
            ScheduleSpec::dynamic(4),
            ScheduleSpec {
                kind: ScheduleKind::Dynamic,
                chunk: Some(4)
            }
        );
        assert_eq!(ScheduleSpec::static_default().kind, ScheduleKind::Static);
        assert_eq!(ScheduleSpec::guided().chunk, None);
    }

    #[test]
    fn slipstream_clause_default_is_global_zero() {
        let c = SlipstreamClause::default();
        assert_eq!(c.sync, SlipSyncType::GlobalSync);
        assert_eq!(c.tokens, 0);
    }

    #[test]
    fn node_count_walks_nesting() {
        let p = Program {
            name: "t".into(),
            arrays: vec![],
            tables: vec![],
            num_vars: 1,
            body: Node::Seq(vec![
                Node::Compute(Expr::c(1)),
                Node::Parallel {
                    body: Box::new(Node::ParFor {
                        sched: None,
                        var: VarId(0),
                        begin: Expr::c(0),
                        end: Expr::c(10),
                        body: Box::new(Node::Compute(Expr::c(1))),
                        reduction: None,
                        nowait: false,
                    }),
                    slipstream: None,
                },
            ]),
        };
        // Seq + Compute + Parallel + ParFor + Compute = 5
        assert_eq!(p.node_count(), 5);
    }
}
