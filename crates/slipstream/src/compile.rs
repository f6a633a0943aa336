//! "Back half" of the compiler: lower a validated [`omp_ir::Program`] into
//! the flat, address-resolved form the execution engine interprets.
//!
//! Lowering performs what the paper's modified Omni compiler does before
//! emitting runtime calls:
//!
//! * lay out **shared arrays** in the contiguous shared segment and
//!   **private arrays** at per-thread offsets in each processor's private
//!   segment (Section 3.1's "shared space is not interleaved with private
//!   space" requirement);
//! * resolve `critical` names to runtime lock ids;
//! * flatten the node tree into an arena so interpreter frames are plain
//!   indices.

use dsm_sim::{Addr, AddressMap, ArraySpan};
use omp_ir::expr::{Expr, VarId};
use omp_ir::node::{ArrayId, Node, Program, Reduction, ScheduleSpec, SlipstreamClause};
use omp_ir::validate::{validate, Diagnostic, ValidationError};
use omp_ir::NodePath;
use std::collections::HashMap;

/// Index of a flattened node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

/// Resolved placement of an array: its diagnostic name plus the
/// [`ArraySpan`] placement shared with the static analyzer (`Deref`
/// exposes the span fields directly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayLayout {
    /// Diagnostic name.
    pub name: String,
    /// Placement in the simulated address space.
    pub span: ArraySpan,
}

impl std::ops::Deref for ArrayLayout {
    type Target = ArraySpan;

    fn deref(&self) -> &ArraySpan {
        &self.span
    }
}

/// Flattened IR node (children are [`NodeId`]s).
#[derive(Debug, Clone, PartialEq)]
pub enum FNode {
    /// Ordered children.
    Seq(Vec<NodeId>),
    /// Busy cycles.
    Compute(Expr),
    /// Demand load.
    Load {
        /// Source array.
        array: ArrayId,
        /// Index expression.
        index: Expr,
    },
    /// Demand store.
    Store {
        /// Target array.
        array: ArrayId,
        /// Index expression.
        index: Expr,
    },
    /// Sequential loop.
    For {
        /// Induction variable.
        var: VarId,
        /// Start expression.
        begin: Expr,
        /// End expression.
        end: Expr,
        /// Positive step.
        step: u64,
        /// Body node.
        body: NodeId,
    },
    /// Parallel region.
    Parallel {
        /// Body node.
        body: NodeId,
        /// Region-scoped slipstream clause.
        slipstream: Option<SlipstreamClause>,
    },
    /// Serial-part global slipstream setting.
    SlipstreamSet(SlipstreamClause),
    /// Worksharing loop.
    ParFor {
        /// Schedule clause.
        sched: Option<ScheduleSpec>,
        /// Induction variable.
        var: VarId,
        /// Start expression.
        begin: Expr,
        /// End expression.
        end: Expr,
        /// Body node.
        body: NodeId,
        /// Reduction clause.
        reduction: Option<Reduction>,
        /// Suppress the implicit end barrier.
        nowait: bool,
    },
    /// Explicit barrier.
    Barrier,
    /// `single` construct.
    Single(NodeId),
    /// `master` construct.
    Master(NodeId),
    /// Critical section with its resolved lock id.
    Critical {
        /// Runtime lock index.
        lock: usize,
        /// Protected body.
        body: NodeId,
    },
    /// Atomic update.
    Atomic {
        /// Target array.
        array: ArrayId,
        /// Index expression.
        index: Expr,
    },
    /// `sections` construct.
    Sections(Vec<NodeId>),
    /// `flush` directive.
    Flush,
    /// I/O operation.
    Io {
        /// Input (true) or output.
        input: bool,
        /// Transfer size in bytes.
        bytes: u64,
    },
}

/// Dense per-node interpreter dispatch data — the flat instruction form
/// of the program. One entry per [`FNode`] (same index space), with leaf
/// operands resolved at compile time: constant expressions are folded
/// (including host-table lookups with constant indices) and constant
/// array indices become fixed byte addresses, so the interpreter's hot
/// loop never walks an `FNode` or an expression tree for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Ordered children are `CompiledProgram::kids[first..first + len]`.
    Seq {
        /// First child index into `kids`.
        first: u32,
        /// Child count.
        len: u32,
    },
    /// Busy cycles, folded and already clamped to be non-negative.
    ComputeConst(u64),
    /// Busy cycles from `CompiledProgram::exprs[idx]`.
    ComputeDyn(u32),
    /// Load from a shared array at a fixed absolute address.
    LoadShared(Addr),
    /// Load from a private array at a fixed offset from the accessing
    /// CPU's private base.
    LoadPrivate(Addr),
    /// Load with a runtime index expression.
    LoadDyn {
        /// Source array.
        array: ArrayId,
        /// Index into `CompiledProgram::exprs`.
        index: u32,
    },
    /// Store to a shared array at a fixed absolute address.
    StoreShared(Addr),
    /// Store to a private array at a fixed offset from the accessing
    /// CPU's private base.
    StorePrivate(Addr),
    /// Store with a runtime index expression.
    StoreDyn {
        /// Target array.
        array: ArrayId,
        /// Index into `CompiledProgram::exprs`.
        index: u32,
    },
    /// Control constructs and rare leaves: dispatch on the `FNode`.
    Slow,
}

/// A lowered, address-resolved program.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Program name.
    pub name: String,
    /// Node arena.
    pub nodes: Vec<FNode>,
    /// Entry node (the serial body).
    pub root: NodeId,
    /// Array placements, indexed by [`ArrayId`].
    pub arrays: Vec<ArrayLayout>,
    /// Host-side index tables.
    pub tables: Vec<Vec<i64>>,
    /// Private variable slots per thread.
    pub num_vars: u32,
    /// Number of distinct critical locks.
    pub num_critical_locks: usize,
    /// First shared address free for runtime objects (after user arrays).
    pub runtime_base: Addr,
    /// Flat dispatch table parallel to `nodes`.
    pub ops: Vec<Op>,
    /// Flattened `Seq` child lists referenced by [`Op::Seq`].
    pub kids: Vec<NodeId>,
    /// Interned runtime expressions referenced by the `*Dyn` ops.
    pub exprs: Vec<Expr>,
}

impl CompiledProgram {
    /// The flattened node at `id`.
    pub fn node(&self, id: NodeId) -> &FNode {
        &self.nodes[id.0 as usize]
    }

    /// Byte address of `array[index]` for the thread on `cpu` (private
    /// arrays replicate per processor).
    pub fn element_addr(
        &self,
        map: &AddressMap,
        cpu: dsm_sim::CpuId,
        array: ArrayId,
        index: i64,
    ) -> Addr {
        self.arrays[array.0 as usize]
            .span
            .element_addr(map, cpu, index)
    }
}

/// Fold an expression to a constant when it references no runtime state
/// (variables, thread id, team size). Mirrors `Expr::eval`'s total
/// semantics exactly: wrapping arithmetic, division/mod by zero yield 0,
/// table lookups clamp and empty tables yield 0.
fn fold_expr(e: &Expr, tables: &[Vec<i64>]) -> Option<i64> {
    use omp_ir::expr::BinOp;
    match e {
        Expr::Const(v) => Some(*v),
        Expr::Var(_) | Expr::ThreadId | Expr::NumThreads => None,
        Expr::Bin(op, a, b) => {
            let x = fold_expr(a, tables)?;
            let y = fold_expr(b, tables)?;
            Some(match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_div(y)
                    }
                }
                BinOp::Mod => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_rem(y)
                    }
                }
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
            })
        }
        Expr::Table(t, idx) => {
            let i = fold_expr(idx, tables)?;
            let tab = tables.get(t.0 as usize)?;
            if tab.is_empty() {
                return Some(0);
            }
            Some(tab[i.clamp(0, tab.len() as i64 - 1) as usize])
        }
    }
}

/// Byte offset of `array[index]` with the engine's clamping semantics
/// (absolute for shared arrays, private-base-relative otherwise).
fn const_element_offset(arrays: &[ArrayLayout], array: ArrayId, index: i64) -> Addr {
    arrays[array.0 as usize].span.element_offset(index)
}

/// Build the flat dispatch table: one [`Op`] per node, with constant
/// operands folded and interned dynamic expressions for the rest.
fn build_ops(
    nodes: &[FNode],
    arrays: &[ArrayLayout],
    tables: &[Vec<i64>],
) -> (Vec<Op>, Vec<NodeId>, Vec<Expr>) {
    let mut ops = Vec::with_capacity(nodes.len());
    let mut kids: Vec<NodeId> = Vec::new();
    let mut exprs: Vec<Expr> = Vec::new();
    let intern = |e: &Expr, exprs: &mut Vec<Expr>| -> u32 {
        exprs.push(e.clone());
        (exprs.len() - 1) as u32
    };
    for n in nodes {
        let op = match n {
            FNode::Seq(v) => {
                let first = kids.len() as u32;
                kids.extend_from_slice(v);
                Op::Seq {
                    first,
                    len: v.len() as u32,
                }
            }
            FNode::Compute(e) => match fold_expr(e, tables) {
                Some(c) => Op::ComputeConst(c.max(0) as u64),
                None => Op::ComputeDyn(intern(e, &mut exprs)),
            },
            FNode::Load { array, index } => match fold_expr(index, tables) {
                // Zero-length arrays cannot be clamped at compile time;
                // leave them on the runtime path (which panics the same
                // way it always did if such a node ever executes).
                Some(i) if arrays[array.0 as usize].len > 0 => {
                    let off = const_element_offset(arrays, *array, i);
                    if arrays[array.0 as usize].shared {
                        Op::LoadShared(off)
                    } else {
                        Op::LoadPrivate(off)
                    }
                }
                _ => Op::LoadDyn {
                    array: *array,
                    index: intern(index, &mut exprs),
                },
            },
            FNode::Store { array, index } => match fold_expr(index, tables) {
                Some(i) if arrays[array.0 as usize].len > 0 => {
                    let off = const_element_offset(arrays, *array, i);
                    if arrays[array.0 as usize].shared {
                        Op::StoreShared(off)
                    } else {
                        Op::StorePrivate(off)
                    }
                }
                _ => Op::StoreDyn {
                    array: *array,
                    index: intern(index, &mut exprs),
                },
            },
            _ => Op::Slow,
        };
        ops.push(op);
    }
    (ops, kids, exprs)
}

struct Lowerer {
    nodes: Vec<FNode>,
    locks: HashMap<String, usize>,
}

impl Lowerer {
    fn push(&mut self, n: FNode) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(n);
        id
    }

    fn lower(&mut self, n: &Node) -> NodeId {
        match n {
            Node::Seq(v) => {
                let kids: Vec<NodeId> = v.iter().map(|c| self.lower(c)).collect();
                self.push(FNode::Seq(kids))
            }
            Node::Compute(e) => self.push(FNode::Compute(e.clone())),
            Node::Load { array, index } => self.push(FNode::Load {
                array: *array,
                index: index.clone(),
            }),
            Node::Store { array, index } => self.push(FNode::Store {
                array: *array,
                index: index.clone(),
            }),
            Node::For {
                var,
                begin,
                end,
                step,
                body,
            } => {
                let b = self.lower(body);
                self.push(FNode::For {
                    var: *var,
                    begin: begin.clone(),
                    end: end.clone(),
                    step: *step,
                    body: b,
                })
            }
            Node::Parallel { body, slipstream } => {
                let b = self.lower(body);
                self.push(FNode::Parallel {
                    body: b,
                    slipstream: *slipstream,
                })
            }
            Node::SlipstreamSet(c) => self.push(FNode::SlipstreamSet(*c)),
            Node::ParFor {
                sched,
                var,
                begin,
                end,
                body,
                reduction,
                nowait,
            } => {
                let b = self.lower(body);
                self.push(FNode::ParFor {
                    sched: *sched,
                    var: *var,
                    begin: begin.clone(),
                    end: end.clone(),
                    body: b,
                    reduction: reduction.clone(),
                    nowait: *nowait,
                })
            }
            Node::Barrier => self.push(FNode::Barrier),
            Node::Single(body) => {
                let b = self.lower(body);
                self.push(FNode::Single(b))
            }
            Node::Master(body) => {
                let b = self.lower(body);
                self.push(FNode::Master(b))
            }
            Node::Critical { name, body } => {
                let next = self.locks.len();
                let lock = *self.locks.entry(name.clone()).or_insert(next);
                let b = self.lower(body);
                self.push(FNode::Critical { lock, body: b })
            }
            Node::Atomic { array, index } => self.push(FNode::Atomic {
                array: *array,
                index: index.clone(),
            }),
            Node::Sections(secs) => {
                let kids: Vec<NodeId> = secs.iter().map(|c| self.lower(c)).collect();
                self.push(FNode::Sections(kids))
            }
            Node::Flush => self.push(FNode::Flush),
            Node::Io { input, bytes } => self.push(FNode::Io {
                input: *input,
                bytes: *bytes,
            }),
        }
    }
}

/// Lower a program for a machine. Fails if the program is invalid or its
/// arrays do not fit the machine's address space
/// ([`AddressMap::check_layout`]).
pub fn compile(program: &Program, map: &AddressMap) -> Result<CompiledProgram, ValidationError> {
    validate(program)?;

    // Shared arrays after a small guard page; private arrays at per-thread
    // offsets starting past a guard page of each private segment. The
    // placement policy lives in `dsm_sim::address::layout_spans` so the
    // static analyzer computes identical line footprints.
    let (spans, runtime_base) = map.layout_spans(
        program
            .arrays
            .iter()
            .map(|d| (d.shared, d.len, d.elem_bytes)),
    );
    map.check_layout(&spans)
        .map_err(|(k, why)| ValidationError {
            problems: vec![Diagnostic {
                path: NodePath::root(),
                message: format!("array `{}` (a{k}) {why}", program.arrays[k].name),
            }],
        })?;
    let arrays: Vec<ArrayLayout> = program
        .arrays
        .iter()
        .zip(spans)
        .map(|(d, span)| ArrayLayout {
            name: d.name.clone(),
            span,
        })
        .collect();

    let mut lw = Lowerer {
        nodes: Vec::with_capacity(program.node_count()),
        locks: HashMap::new(),
    };
    let root = lw.lower(&program.body);
    let (ops, kids, exprs) = build_ops(&lw.nodes, &arrays, &program.tables);
    Ok(CompiledProgram {
        name: program.name.clone(),
        nodes: lw.nodes,
        root,
        arrays,
        tables: program.tables.clone(),
        num_vars: program.num_vars,
        num_critical_locks: lw.locks.len(),
        runtime_base,
        ops,
        kids,
        exprs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_sim::{CpuId, MachineConfig};
    use omp_ir::builder::ProgramBuilder;
    use omp_ir::expr::Expr;

    fn map() -> AddressMap {
        AddressMap::new(&MachineConfig::paper())
    }

    #[test]
    fn arrays_are_line_aligned_and_disjoint() {
        let mut b = ProgramBuilder::new("layout");
        let a = b.shared_array("a", 100, 8); // 800B -> 832 aligned
        let c = b.shared_array("c", 7, 4);
        let p = b.private_array("p", 33, 8);
        let i = b.var();
        b.parallel(|r| {
            r.par_for(None, i, 0, 10, |body| {
                body.load(a, Expr::v(i));
                body.load(c, Expr::v(i));
                body.store(p, Expr::v(i));
            });
        });
        let cp = compile(&b.build(), &map()).unwrap();
        let la = &cp.arrays[0];
        let lc = &cp.arrays[1];
        assert_eq!(la.base % 64, 0);
        assert!(
            lc.base >= la.base + 100 * 8 + 64,
            "guard line between arrays"
        );
        assert!(cp.runtime_base > lc.base + 7 * 4);
        assert!(!cp.arrays[2].shared);
    }

    #[test]
    fn private_arrays_replicate_per_cpu() {
        let mut b = ProgramBuilder::new("priv");
        let p = b.private_array("p", 16, 8);
        b.parallel(|r| r.store(p, 3));
        let cp = compile(&b.build(), &map()).unwrap();
        let m = map();
        let a0 = cp.element_addr(&m, CpuId(0), omp_ir::node::ArrayId(0), 3);
        let a1 = cp.element_addr(&m, CpuId(1), omp_ir::node::ArrayId(0), 3);
        assert_ne!(a0, a1);
        assert_eq!(m.space_of(a0), dsm_sim::Space::Private);
        assert_eq!(m.private_owner(a0), CpuId(0));
        assert_eq!(m.private_owner(a1), CpuId(1));
    }

    #[test]
    fn shared_element_addresses_are_common() {
        let mut b = ProgramBuilder::new("shared");
        let s = b.shared_array("s", 16, 8);
        b.parallel(|r| r.store(s, 5));
        let cp = compile(&b.build(), &map()).unwrap();
        let m = map();
        let a0 = cp.element_addr(&m, CpuId(0), omp_ir::node::ArrayId(0), 5);
        let a9 = cp.element_addr(&m, CpuId(9), omp_ir::node::ArrayId(0), 5);
        assert_eq!(a0, a9);
        assert_eq!(m.space_of(a0), dsm_sim::Space::Shared);
    }

    #[test]
    fn out_of_range_indices_clamp() {
        let mut b = ProgramBuilder::new("clamp");
        let s = b.shared_array("s", 4, 8);
        b.parallel(|r| r.load(s, 0));
        let cp = compile(&b.build(), &map()).unwrap();
        let m = map();
        let hi = cp.element_addr(&m, CpuId(0), omp_ir::node::ArrayId(0), 99);
        let last = cp.element_addr(&m, CpuId(0), omp_ir::node::ArrayId(0), 3);
        assert_eq!(hi, last);
        let lo = cp.element_addr(&m, CpuId(0), omp_ir::node::ArrayId(0), -5);
        let first = cp.element_addr(&m, CpuId(0), omp_ir::node::ArrayId(0), 0);
        assert_eq!(lo, first);
    }

    #[test]
    fn critical_names_share_locks() {
        let mut b = ProgramBuilder::new("locks");
        let s = b.shared_array("s", 1, 8);
        b.parallel(|r| {
            r.critical("a", |c| c.store(s, 0));
            r.critical("b", |c| c.store(s, 0));
            r.critical("a", |c| c.store(s, 0));
        });
        let cp = compile(&b.build(), &map()).unwrap();
        assert_eq!(cp.num_critical_locks, 2);
        let locks: Vec<usize> = cp
            .nodes
            .iter()
            .filter_map(|n| match n {
                FNode::Critical { lock, .. } => Some(*lock),
                _ => None,
            })
            .collect();
        assert_eq!(locks.len(), 3);
        assert_eq!(locks[0], locks[2]);
        assert_ne!(locks[0], locks[1]);
    }

    #[test]
    fn invalid_programs_fail_compilation() {
        let mut b = ProgramBuilder::new("bad");
        let i = b.var();
        b.serial(|s| s.par_for(None, i, 0, 10, |body| body.compute(1)));
        assert!(compile(&b.build(), &map()).is_err());
    }

    #[test]
    fn op_table_folds_constant_leaves() {
        let mut b = ProgramBuilder::new("fold");
        let s = b.shared_array("s", 8, 8);
        let p = b.private_array("p", 8, 8);
        let t = b.table(vec![5, 7, 9]);
        b.parallel(|r| {
            r.compute(Expr::c(3) * 4);
            r.compute(Expr::c(-5)); // negative cycles clamp to zero
            r.compute(Expr::c(1).index_into(t));
            r.load(s, 2);
            r.store(p, 1);
        });
        let cp = compile(&b.build(), &map()).unwrap();
        let sb = cp.arrays[0].base;
        let pb = cp.arrays[1].base;
        assert!(cp.ops.contains(&Op::ComputeConst(12)));
        assert!(cp.ops.contains(&Op::ComputeConst(0)));
        assert!(cp.ops.contains(&Op::ComputeConst(7)), "table lookup folded");
        assert!(cp.ops.contains(&Op::LoadShared(sb + 2 * 8)));
        assert!(cp.ops.contains(&Op::StorePrivate(pb + 8)));
        assert!(cp.exprs.is_empty(), "everything folded, nothing interned");
    }

    #[test]
    fn op_table_fold_is_total_like_eval() {
        use omp_ir::expr::BinOp;
        let mut b = ProgramBuilder::new("total");
        let s = b.shared_array("s", 8, 8);
        b.parallel(|r| {
            // Division by zero folds to 0, exactly as Expr::eval does.
            r.compute(Expr::Bin(
                BinOp::Div,
                Box::new(Expr::c(5)),
                Box::new(Expr::c(0)),
            ));
            // Out-of-range const table index clamps, like eval.
            r.load(s, 99);
        });
        let cp = compile(&b.build(), &map()).unwrap();
        let sb = cp.arrays[0].base;
        assert!(cp.ops.contains(&Op::ComputeConst(0)));
        assert!(
            cp.ops.contains(&Op::LoadShared(sb + 7 * 8)),
            "index clamps to last element"
        );
    }

    #[test]
    fn op_table_keeps_runtime_operands_dynamic() {
        let mut b = ProgramBuilder::new("dyn");
        let s = b.shared_array("s", 8, 8);
        let i = b.var();
        b.parallel(|r| {
            r.compute(Expr::ThreadId);
            r.par_for(None, i, 0, 8, |body| {
                body.load(s, Expr::v(i));
            });
        });
        let cp = compile(&b.build(), &map()).unwrap();
        let dyn_loads: Vec<&Op> = cp
            .ops
            .iter()
            .filter(|o| matches!(o, Op::LoadDyn { .. }))
            .collect();
        assert_eq!(dyn_loads.len(), 1);
        if let Op::LoadDyn { array, index } = dyn_loads[0] {
            assert_eq!(array.0, 0);
            assert_eq!(cp.exprs[*index as usize], Expr::v(i));
        }
        assert!(
            cp.ops.iter().any(|o| matches!(o, Op::ComputeDyn(_))),
            "thread-id compute stays dynamic"
        );
        // Control constructs dispatch through the slow path.
        assert!(cp.ops.iter().any(|o| matches!(o, Op::Slow)));
    }

    #[test]
    fn seq_ops_reference_flattened_children() {
        let mut b = ProgramBuilder::new("seq");
        b.serial(|s| {
            s.compute(1);
            s.compute(2);
            s.compute(3);
        });
        let cp = compile(&b.build(), &map()).unwrap();
        // The serial block lowers to a Seq node; its op must span the
        // same children the FNode lists, in order.
        let (node_kids, op) = cp
            .nodes
            .iter()
            .zip(&cp.ops)
            .find_map(|(n, o)| match (n, o) {
                (FNode::Seq(v), Op::Seq { .. }) if v.len() == 3 => Some((v.clone(), *o)),
                _ => None,
            })
            .expect("three-child Seq present");
        if let Op::Seq { first, len } = op {
            assert_eq!(len, 3);
            let span = &cp.kids[first as usize..(first + len) as usize];
            assert_eq!(span, &node_kids[..]);
            for (kid, cycles) in span.iter().zip([1u64, 2, 3]) {
                assert_eq!(cp.ops[kid.0 as usize], Op::ComputeConst(cycles));
            }
        }
    }

    #[test]
    fn zero_length_arrays_stay_on_the_runtime_path() {
        // ProgramBuilder rejects empty arrays outright, but build_ops
        // guards anyway: clamping into a zero-length array has no
        // compile-time answer, so such a load must stay dynamic.
        let arrays = vec![ArrayLayout {
            name: "e".into(),
            span: ArraySpan {
                shared: true,
                base: 64,
                elem_bytes: 8,
                len: 0,
            },
        }];
        let nodes = vec![FNode::Load {
            array: omp_ir::node::ArrayId(0),
            index: Expr::c(0),
        }];
        let (ops, _, exprs) = build_ops(&nodes, &arrays, &[]);
        assert!(matches!(ops[0], Op::LoadDyn { .. }));
        assert_eq!(exprs, vec![Expr::c(0)]);
    }
}
