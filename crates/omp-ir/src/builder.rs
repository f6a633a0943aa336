//! Ergonomic construction of kernel IR programs.
//!
//! [`ProgramBuilder`] plays the role of the OpenMP compiler front half:
//! kernels declare arrays/tables/variables and emit statements; parallel
//! regions and worksharing constructs are expressed as nested closures.
//!
//! ```
//! use omp_ir::builder::ProgramBuilder;
//! use omp_ir::expr::Expr;
//! use omp_ir::node::ScheduleSpec;
//!
//! let mut b = ProgramBuilder::new("saxpy");
//! let x = b.shared_array("x", 1024, 8);
//! let y = b.shared_array("y", 1024, 8);
//! let i = b.var();
//! b.parallel(|r| {
//!     r.par_for(None, i, 0, 1024, |body| {
//!         body.load(x, Expr::v(i));
//!         body.load(y, Expr::v(i));
//!         body.compute(2);
//!         body.store(y, Expr::v(i));
//!     });
//! });
//! let program = b.build();
//! assert_eq!(program.arrays.len(), 2);
//! ```

use crate::expr::{Expr, TableId, VarId};
use crate::node::{
    ArrayDecl, ArrayId, Node, Program, Reduction, ReductionOp, ScheduleSpec, SlipstreamClause,
};

/// Builds statement lists for one lexical block.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    nodes: Vec<Node>,
}

impl BlockBuilder {
    fn new() -> Self {
        Self::default()
    }

    fn finish(self) -> Node {
        match self.nodes.len() {
            1 => self.nodes.into_iter().next().expect("len checked"),
            _ => Node::Seq(self.nodes),
        }
    }

    fn block(f: impl FnOnce(&mut BlockBuilder)) -> Node {
        let mut b = BlockBuilder::new();
        f(&mut b);
        b.finish()
    }

    /// Append an already-built node.
    pub fn push(&mut self, node: Node) {
        self.nodes.push(node);
    }

    /// Finish this block into a node (kernels that assemble loop bodies
    /// out-of-line use this to hand the block to `Node::For` etc.).
    pub fn into_node(self) -> Node {
        self.finish()
    }

    /// Busy-execute for `cycles`.
    pub fn compute(&mut self, cycles: impl Into<Expr>) {
        self.nodes.push(Node::Compute(cycles.into()));
    }

    /// Load `array[index]`.
    pub fn load(&mut self, array: ArrayId, index: impl Into<Expr>) {
        self.nodes.push(Node::Load {
            array,
            index: index.into(),
        });
    }

    /// Store to `array[index]`.
    pub fn store(&mut self, array: ArrayId, index: impl Into<Expr>) {
        self.nodes.push(Node::Store {
            array,
            index: index.into(),
        });
    }

    /// Atomic update of `array[index]`.
    pub fn atomic(&mut self, array: ArrayId, index: impl Into<Expr>) {
        self.nodes.push(Node::Atomic {
            array,
            index: index.into(),
        });
    }

    /// Explicit barrier.
    pub fn barrier(&mut self) {
        self.nodes.push(Node::Barrier);
    }

    /// Flush directive.
    pub fn flush(&mut self) {
        self.nodes.push(Node::Flush);
    }

    /// I/O operation.
    pub fn io(&mut self, input: bool, bytes: u64) {
        self.nodes.push(Node::Io { input, bytes });
    }

    /// Sequential loop `for var in begin..end`.
    pub fn for_loop(
        &mut self,
        var: VarId,
        begin: impl Into<Expr>,
        end: impl Into<Expr>,
        f: impl FnOnce(&mut BlockBuilder),
    ) {
        self.for_loop_step(var, begin, end, 1, f);
    }

    /// Sequential loop with an explicit step.
    pub fn for_loop_step(
        &mut self,
        var: VarId,
        begin: impl Into<Expr>,
        end: impl Into<Expr>,
        step: u64,
        f: impl FnOnce(&mut BlockBuilder),
    ) {
        assert!(step > 0, "loop step must be positive");
        self.nodes.push(Node::For {
            var,
            begin: begin.into(),
            end: end.into(),
            step,
            body: Box::new(Self::block(f)),
        });
    }

    /// Worksharing `for` loop with an implicit end barrier.
    pub fn par_for(
        &mut self,
        sched: Option<ScheduleSpec>,
        var: VarId,
        begin: impl Into<Expr>,
        end: impl Into<Expr>,
        f: impl FnOnce(&mut BlockBuilder),
    ) {
        self.nodes.push(Node::ParFor {
            sched,
            var,
            begin: begin.into(),
            end: end.into(),
            body: Box::new(Self::block(f)),
            reduction: None,
            nowait: false,
        });
    }

    /// Worksharing loop without the implicit end barrier (`nowait`).
    pub fn par_for_nowait(
        &mut self,
        sched: Option<ScheduleSpec>,
        var: VarId,
        begin: impl Into<Expr>,
        end: impl Into<Expr>,
        f: impl FnOnce(&mut BlockBuilder),
    ) {
        self.nodes.push(Node::ParFor {
            sched,
            var,
            begin: begin.into(),
            end: end.into(),
            body: Box::new(Self::block(f)),
            reduction: None,
            nowait: true,
        });
    }

    /// Worksharing loop with a reduction clause.
    #[allow(clippy::too_many_arguments)]
    pub fn par_for_reduce(
        &mut self,
        sched: Option<ScheduleSpec>,
        var: VarId,
        begin: impl Into<Expr>,
        end: impl Into<Expr>,
        op: ReductionOp,
        target: ArrayId,
        target_index: impl Into<Expr>,
        f: impl FnOnce(&mut BlockBuilder),
    ) {
        self.nodes.push(Node::ParFor {
            sched,
            var,
            begin: begin.into(),
            end: end.into(),
            body: Box::new(Self::block(f)),
            reduction: Some(Reduction {
                op,
                target,
                index: target_index.into(),
            }),
            nowait: false,
        });
    }

    /// `single` construct.
    pub fn single(&mut self, f: impl FnOnce(&mut BlockBuilder)) {
        self.nodes.push(Node::Single(Box::new(Self::block(f))));
    }

    /// `master` construct.
    pub fn master(&mut self, f: impl FnOnce(&mut BlockBuilder)) {
        self.nodes.push(Node::Master(Box::new(Self::block(f))));
    }

    /// Named critical section.
    pub fn critical(&mut self, name: &str, f: impl FnOnce(&mut BlockBuilder)) {
        self.nodes.push(Node::Critical {
            name: name.to_string(),
            body: Box::new(Self::block(f)),
        });
    }

    /// `sections` construct with `n` sections built by `f(section_index)`.
    pub fn sections(&mut self, n: usize, mut f: impl FnMut(usize, &mut BlockBuilder)) {
        let secs = (0..n).map(|i| Self::block(|b| f(i, b))).collect();
        self.nodes.push(Node::Sections(secs));
    }
}

/// Top-level program builder (the serial part).
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    arrays: Vec<ArrayDecl>,
    tables: Vec<Vec<i64>>,
    next_var: u32,
    body: BlockBuilder,
}

impl ProgramBuilder {
    /// Start a program named `name`.
    pub fn new(name: &str) -> Self {
        ProgramBuilder {
            name: name.to_string(),
            arrays: Vec::new(),
            tables: Vec::new(),
            next_var: 0,
            body: BlockBuilder::new(),
        }
    }

    /// Declare a shared array.
    pub fn shared_array(&mut self, name: &str, len: u64, elem_bytes: u64) -> ArrayId {
        self.declare(name, true, len, elem_bytes)
    }

    /// Declare a per-thread private array.
    pub fn private_array(&mut self, name: &str, len: u64, elem_bytes: u64) -> ArrayId {
        self.declare(name, false, len, elem_bytes)
    }

    fn declare(&mut self, name: &str, shared: bool, len: u64, elem_bytes: u64) -> ArrayId {
        assert!(len > 0 && elem_bytes > 0, "empty array declaration");
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(ArrayDecl {
            name: name.to_string(),
            shared,
            len,
            elem_bytes,
        });
        id
    }

    /// Register a host-side index table.
    pub fn table(&mut self, data: Vec<i64>) -> TableId {
        let id = TableId(self.tables.len() as u32);
        self.tables.push(data);
        id
    }

    /// Allocate a fresh private variable slot.
    pub fn var(&mut self) -> VarId {
        let id = VarId(self.next_var);
        self.next_var += 1;
        id
    }

    /// Serial-part statements (executed by the master between regions).
    pub fn serial(&mut self, f: impl FnOnce(&mut BlockBuilder)) {
        f(&mut self.body);
    }

    /// Set the program-global slipstream directive from this point on.
    pub fn slipstream(&mut self, clause: SlipstreamClause) {
        self.body.push(Node::SlipstreamSet(clause));
    }

    /// A parallel region using the prevailing slipstream setting.
    pub fn parallel(&mut self, f: impl FnOnce(&mut BlockBuilder)) {
        self.parallel_with(None, f);
    }

    /// A parallel region with a region-scoped slipstream clause.
    pub fn parallel_with(
        &mut self,
        slipstream: Option<SlipstreamClause>,
        f: impl FnOnce(&mut BlockBuilder),
    ) {
        let body = BlockBuilder::block(f);
        self.body.push(Node::Parallel {
            body: Box::new(body),
            slipstream,
        });
    }

    /// Finalize into a [`Program`].
    pub fn build(self) -> Program {
        Program {
            name: self.name,
            arrays: self.arrays,
            tables: self.tables,
            num_vars: self.next_var,
            body: self.body.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_minimal_parallel_program() {
        let mut b = ProgramBuilder::new("min");
        let a = b.shared_array("a", 100, 8);
        let i = b.var();
        b.parallel(|r| {
            r.par_for(None, i, 0, 100, |body| {
                body.load(a, Expr::v(i));
                body.compute(5);
                body.store(a, Expr::v(i));
            });
        });
        let p = b.build();
        assert_eq!(p.name, "min");
        assert_eq!(p.num_vars, 1);
        match &p.body {
            Node::Parallel { body, slipstream } => {
                assert!(slipstream.is_none());
                assert!(matches!(**body, Node::ParFor { .. }));
            }
            other => panic!("expected Parallel, got {other:?}"),
        }
    }

    #[test]
    fn single_statement_blocks_unwrap_seq() {
        let n = BlockBuilder::block(|b| b.compute(1));
        assert!(matches!(n, Node::Compute(_)));
        let n2 = BlockBuilder::block(|b| {
            b.compute(1);
            b.compute(2);
        });
        assert!(matches!(n2, Node::Seq(ref v) if v.len() == 2));
    }

    #[test]
    fn declarations_assign_dense_ids() {
        let mut b = ProgramBuilder::new("d");
        let a0 = b.shared_array("a", 1, 8);
        let a1 = b.private_array("b", 2, 4);
        let t0 = b.table(vec![1, 2]);
        assert_eq!(a0, ArrayId(0));
        assert_eq!(a1, ArrayId(1));
        assert_eq!(t0, TableId(0));
        let p = b.build();
        assert!(p.array(a0).shared);
        assert!(!p.array(a1).shared);
        assert_eq!(p.table(t0), &[1, 2]);
    }

    #[test]
    fn nested_constructs_compose() {
        let mut b = ProgramBuilder::new("n");
        let a = b.shared_array("a", 10, 8);
        let i = b.var();
        let j = b.var();
        b.parallel(|r| {
            r.master(|m| m.io(false, 64));
            r.par_for(Some(ScheduleSpec::dynamic(2)), i, 0, 10, |body| {
                body.for_loop(j, 0, Expr::v(i), |inner| {
                    inner.load(a, Expr::v(j));
                });
            });
            r.critical("upd", |c| c.store(a, 0));
            r.sections(3, |s, sec| sec.compute(s as i64 + 1));
        });
        let p = b.build();
        assert!(p.node_count() > 8);
    }

    #[test]
    #[should_panic(expected = "loop step must be positive")]
    fn zero_step_loops_are_rejected() {
        BlockBuilder::block(|b| b.for_loop_step(VarId(0), 0, 10, 0, |_| {}));
    }

    #[test]
    #[should_panic(expected = "empty array declaration")]
    fn empty_arrays_are_rejected() {
        let mut b = ProgramBuilder::new("e");
        b.shared_array("a", 0, 8);
    }
}
