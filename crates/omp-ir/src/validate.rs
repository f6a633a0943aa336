//! Static validation of kernel IR programs.
//!
//! The checks mirror what the Omni-based compiler of the paper guarantees
//! before emitting runtime calls: shared/private discipline is explicit,
//! worksharing constructs appear only inside parallel regions, barriers
//! are not nested inside worksharing bodies, and every id is in range.
//! Array shapes are checked too: every array has 1 to `i64::MAX`
//! elements (indices are `i64`) and a byte size that fits a `u64`.
//! Whether the arrays fit a machine's address space depends on the
//! machine, so `slipstream::compile` checks that.
//!
//! Each problem is a [`Diagnostic`] carrying a structured [`NodePath`] to
//! the offending construct — the same path currency the `omp-analyze`
//! crate uses for its findings.

use crate::expr::Expr;
use crate::node::{Node, Program};
use crate::path::{node_kind, NodePath, PathSeg};

/// One validation problem, located by a structured node path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path to the offending construct.
    pub path: NodePath,
    /// What is wrong there.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

/// A validation failure with every problem found (never empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// All problems found (never empty).
    pub problems: Vec<Diagnostic>,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rendered: Vec<String> = self.problems.iter().map(|p| p.to_string()).collect();
        write!(f, "invalid program: {}", rendered.join("; "))
    }
}

impl std::error::Error for ValidationError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctx {
    /// Serial part: only the master executes.
    Serial,
    /// Directly inside a parallel region.
    Parallel,
    /// Inside a worksharing/synchronization body within a region.
    Worksharing,
}

struct Validator<'p> {
    program: &'p Program,
    path: Vec<PathSeg>,
    problems: Vec<Diagnostic>,
}

impl<'p> Validator<'p> {
    fn diag(&mut self, message: impl Into<String>) {
        self.problems.push(Diagnostic {
            path: NodePath::from_segs(&self.path),
            message: message.into(),
        });
    }

    fn expr(&mut self, e: &Expr, what: &str) {
        if let Some(v) = e.max_var() {
            if v >= self.program.num_vars {
                self.diag(format!(
                    "{what}: variable v{v} out of range (num_vars={})",
                    self.program.num_vars
                ));
            }
        }
        if let Some(t) = e.max_table() {
            if t as usize >= self.program.tables.len() {
                self.diag(format!("{what}: table t{t} out of range"));
            }
        }
    }

    fn array(
        &mut self,
        id: crate::node::ArrayId,
        what: &str,
    ) -> Option<&'p crate::node::ArrayDecl> {
        if id.0 as usize >= self.program.arrays.len() {
            self.diag(format!("{what}: array a{} undeclared", id.0));
            None
        } else {
            Some(&self.program.arrays[id.0 as usize])
        }
    }

    /// Visit `n` as statement `idx` of the enclosing block. `Seq` nodes
    /// are transparent: their children take positions in the parent block.
    fn node(&mut self, n: &Node, ctx: Ctx, idx: u32) {
        if let Node::Seq(v) = n {
            for (k, c) in v.iter().enumerate() {
                self.node(c, ctx, k as u32);
            }
            return;
        }
        self.path.push(PathSeg {
            kind: node_kind(n),
            index: idx,
        });
        match n {
            Node::Seq(_) => unreachable!("handled above"),
            Node::Compute(e) => self.expr(e, "compute"),
            Node::Load { array, index } => {
                self.array(*array, "load");
                self.expr(index, "load index");
            }
            Node::Store { array, index } => {
                self.array(*array, "store");
                self.expr(index, "store index");
            }
            Node::For {
                var,
                begin,
                end,
                step,
                body,
            } => {
                if var.0 >= self.program.num_vars {
                    self.diag(format!("for: variable v{} out of range", var.0));
                }
                if *step == 0 {
                    self.diag("for: step must be positive (step 0 never advances)");
                }
                self.expr(begin, "for begin");
                self.expr(end, "for end");
                self.node(body, ctx, 0);
            }
            Node::Parallel { body, .. } => {
                if ctx != Ctx::Serial {
                    self.diag("nested parallel regions are not supported");
                }
                self.node(body, Ctx::Parallel, 0);
            }
            Node::SlipstreamSet(_) => {
                if ctx != Ctx::Serial {
                    self.diag("SLIPSTREAM global setting is only valid in the serial part");
                }
            }
            Node::ParFor {
                var,
                begin,
                end,
                body,
                reduction,
                ..
            } => {
                if ctx != Ctx::Parallel {
                    self.diag(match ctx {
                        Ctx::Serial => "worksharing 'for' outside a parallel region",
                        _ => "worksharing 'for' may not nest inside another construct",
                    });
                }
                if var.0 >= self.program.num_vars {
                    self.diag(format!("parfor: variable v{} out of range", var.0));
                }
                self.expr(begin, "parfor begin");
                self.expr(end, "parfor end");
                // Worksharing loops have no explicit stride in the IR (the
                // runtime always steps by +1), so a statically reversed
                // bound pair is the footprint a negative-stride source loop
                // leaves behind — and a zero-trip loop is a barrier with
                // extra steps. Neither has a defined scheduling contract in
                // the engine, so both are rejected here with a structured
                // path rather than silently doing nothing (or worse,
                // disagreeing between modes).
                if let (Expr::Const(b0), Expr::Const(e0)) = (begin, end) {
                    if e0 < b0 {
                        self.diag(format!(
                            "parfor: reversed constant bounds {b0}..{e0} \
                             (negative-stride loops must be normalized to \
                             ascending form before IR construction)"
                        ));
                    } else if e0 == b0 {
                        self.diag(format!(
                            "parfor: zero-trip constant bounds {b0}..{e0} \
                             (drop the loop or widen the bounds; the engine \
                             has no contract for empty worksharing)"
                        ));
                    }
                }
                if let Some(r) = reduction {
                    if let Some(decl) = self.array(r.target, "reduction target") {
                        if !decl.shared {
                            let name = decl.name.clone();
                            self.diag(format!("reduction target '{name}' must be shared"));
                        }
                    }
                    let ridx = r.index.clone();
                    self.expr(&ridx, "reduction index");
                }
                self.node(body, Ctx::Worksharing, 0);
            }
            Node::Barrier => {
                if ctx != Ctx::Parallel {
                    self.diag(match ctx {
                        Ctx::Serial => "barrier outside a parallel region",
                        _ => "barrier inside a worksharing/synchronization body",
                    });
                }
            }
            Node::Single(body) | Node::Master(body) => {
                if ctx != Ctx::Parallel {
                    self.diag("single/master must appear directly inside a parallel region");
                }
                self.node(body, Ctx::Worksharing, 0);
            }
            Node::Critical { body, .. } => {
                if ctx == Ctx::Serial {
                    self.diag("critical outside a parallel region");
                }
                self.node(body, Ctx::Worksharing, 0);
            }
            Node::Atomic { array, index } => {
                if ctx == Ctx::Serial {
                    self.diag("atomic outside a parallel region");
                }
                if let Some(decl) = self.array(*array, "atomic") {
                    if !decl.shared {
                        let name = decl.name.clone();
                        self.diag(format!("atomic target '{name}' must be shared"));
                    }
                }
                self.expr(index, "atomic index");
            }
            Node::Sections(secs) => {
                if ctx != Ctx::Parallel {
                    self.diag("sections must appear directly inside a parallel region");
                }
                if secs.is_empty() {
                    self.diag("sections construct with no sections");
                }
                for (k, s) in secs.iter().enumerate() {
                    self.node(s, Ctx::Worksharing, k as u32);
                }
            }
            Node::Flush => {
                if ctx == Ctx::Serial {
                    self.diag("flush outside a parallel region");
                }
            }
            Node::Io { bytes, .. } => {
                if *bytes == 0 {
                    self.diag("zero-byte I/O operation");
                }
            }
        }
        self.path.pop();
    }
}

/// Validate a program. Returns every problem found.
pub fn validate(program: &Program) -> Result<(), ValidationError> {
    let mut v = Validator {
        program,
        path: Vec::new(),
        problems: Vec::new(),
    };
    for (k, a) in program.arrays.iter().enumerate() {
        let shape = if a.len == 0 {
            "has no elements"
        } else if a.len > i64::MAX as u64 {
            "has more than i64::MAX elements"
        } else if a.len.checked_mul(a.elem_bytes).is_none() {
            "has a byte size that overflows u64"
        } else {
            continue;
        };
        v.diag(format!("array `{}` (a{k}) {shape}", a.name));
    }
    v.node(&program.body, Ctx::Serial, 0);
    if v.problems.is_empty() {
        Ok(())
    } else {
        Err(ValidationError {
            problems: v.problems,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::Expr;
    use crate::node::{ReductionOp, SlipstreamClause};

    #[test]
    fn valid_program_passes() {
        let mut b = ProgramBuilder::new("ok");
        let a = b.shared_array("a", 10, 8);
        let r = b.shared_array("r", 1, 8);
        let i = b.var();
        b.slipstream(SlipstreamClause::default());
        b.parallel(|reg| {
            reg.par_for_reduce(None, i, 0, 10, ReductionOp::Sum, r, 0, |body| {
                body.load(a, Expr::v(i));
            });
            reg.barrier();
            reg.single(|s| s.compute(1));
            reg.critical("c", |c| c.store(a, 0));
            reg.atomic(a, 0);
        });
        validate(&b.build()).unwrap();
    }

    #[test]
    fn worksharing_outside_region_fails() {
        let mut b = ProgramBuilder::new("bad");
        let i = b.var();
        b.serial(|s| {
            s.par_for(None, i, 0, 10, |body| body.compute(1));
        });
        let e = validate(&b.build()).unwrap_err();
        assert!(e.problems[0].message.contains("outside a parallel region"));
        assert_eq!(e.problems[0].path.to_string(), "parfor[0]");
    }

    #[test]
    fn nested_parallel_fails() {
        let mut b = ProgramBuilder::new("bad");
        b.parallel(|r| {
            r.push(Node::Parallel {
                body: Box::new(Node::nop()),
                slipstream: None,
            });
        });
        let e = validate(&b.build()).unwrap_err();
        let p = e
            .problems
            .iter()
            .find(|p| p.message.contains("nested parallel"))
            .unwrap();
        assert_eq!(p.path.to_string(), "parallel[0]/parallel[0]");
    }

    #[test]
    fn barrier_inside_worksharing_fails() {
        let mut b = ProgramBuilder::new("bad");
        let i = b.var();
        b.parallel(|r| {
            r.par_for(None, i, 0, 4, |body| body.barrier());
        });
        let e = validate(&b.build()).unwrap_err();
        let p = e
            .problems
            .iter()
            .find(|p| p.message.contains("barrier inside a worksharing"))
            .unwrap();
        assert_eq!(p.path.to_string(), "parallel[0]/parfor[0]/barrier[0]");
    }

    #[test]
    fn out_of_range_ids_fail() {
        use crate::expr::VarId;
        use crate::node::{ArrayId, Node};
        let p = Program {
            name: "bad".into(),
            arrays: vec![],
            tables: vec![],
            num_vars: 0,
            body: Node::Parallel {
                body: Box::new(Node::Seq(vec![
                    Node::Load {
                        array: ArrayId(3),
                        index: Expr::v(VarId(9)),
                    },
                    Node::Compute(Expr::c(7).index_into(crate::expr::TableId(1))),
                ])),
                slipstream: None,
            },
        };
        let e = validate(&p).unwrap_err();
        assert!(e.problems.iter().any(|p| p.message.contains("array a3")));
        assert!(e.problems.iter().any(|p| p.message.contains("variable v9")));
        assert!(e.problems.iter().any(|p| p.message.contains("table t1")));
        // Statement positions survive Seq flattening: the bad compute is
        // statement 1 of the region body.
        let c = e
            .problems
            .iter()
            .find(|p| p.message.contains("table t1"))
            .unwrap();
        assert_eq!(c.path.to_string(), "parallel[0]/compute[1]");
    }

    #[test]
    fn reduction_target_must_be_shared() {
        let mut b = ProgramBuilder::new("bad");
        let p = b.private_array("priv", 1, 8);
        let i = b.var();
        b.parallel(|r| {
            r.par_for_reduce(None, i, 0, 4, ReductionOp::Sum, p, 0, |body| {
                body.compute(1)
            });
        });
        let e = validate(&b.build()).unwrap_err();
        assert!(e
            .problems
            .iter()
            .any(|p| p.message.contains("must be shared")));
    }

    #[test]
    fn slipstream_set_inside_region_fails() {
        let mut b = ProgramBuilder::new("bad");
        b.parallel(|r| {
            r.push(Node::SlipstreamSet(SlipstreamClause::default()));
        });
        let e = validate(&b.build()).unwrap_err();
        assert!(e.problems.iter().any(|p| p.message.contains("serial part")));
    }

    #[test]
    fn empty_sections_fail() {
        let mut b = ProgramBuilder::new("bad");
        b.parallel(|r| r.sections(0, |_, _| {}));
        let e = validate(&b.build()).unwrap_err();
        assert!(e.problems.iter().any(|p| p.message.contains("no sections")));
    }

    #[test]
    fn zero_trip_parfor_is_rejected_with_path() {
        let mut b = ProgramBuilder::new("bad");
        let i = b.var();
        b.parallel(|r| {
            r.compute(1);
            r.par_for(None, i, 5, 5, |body| body.compute(1));
        });
        let e = validate(&b.build()).unwrap_err();
        let p = e
            .problems
            .iter()
            .find(|p| p.message.contains("zero-trip"))
            .unwrap();
        assert_eq!(p.path.to_string(), "parallel[0]/parfor[1]");
    }

    #[test]
    fn reversed_bounds_parfor_is_rejected() {
        let mut b = ProgramBuilder::new("bad");
        let i = b.var();
        b.parallel(|r| {
            r.par_for(None, i, 10, 0, |body| body.compute(1));
        });
        let e = validate(&b.build()).unwrap_err();
        assert!(e
            .problems
            .iter()
            .any(|p| p.message.contains("reversed constant bounds 10..0")));
    }

    #[test]
    fn dynamic_bounds_are_not_rejected_statically() {
        // Non-constant bounds can legitimately evaluate to zero trips at
        // runtime (triangular inner work); only constant emptiness is a
        // static error.
        let mut b = ProgramBuilder::new("ok");
        let i = b.var();
        b.parallel(|r| {
            r.par_for(None, i, 0, Expr::NumThreads * Expr::c(2), |body| {
                body.compute(1)
            });
        });
        validate(&b.build()).unwrap();
    }

    #[test]
    fn zero_step_for_is_rejected() {
        use crate::expr::VarId;
        let p = Program {
            name: "bad".into(),
            arrays: vec![],
            tables: vec![],
            num_vars: 1,
            body: Node::For {
                var: VarId(0),
                begin: Expr::c(0),
                end: Expr::c(4),
                step: 0,
                body: Box::new(Node::Compute(Expr::c(1))),
            },
        };
        let e = validate(&p).unwrap_err();
        let d = e
            .problems
            .iter()
            .find(|p| p.message.contains("step must be positive"))
            .unwrap();
        assert_eq!(d.path.to_string(), "for[0]");
    }

    #[test]
    fn unaddressable_array_shapes_are_rejected() {
        let mut b = ProgramBuilder::new("shapes");
        b.shared_array("ok", 4, 8);
        let mut p = b.build();
        let decl = |name: &str, len, elem_bytes| crate::node::ArrayDecl {
            name: name.into(),
            shared: true,
            len,
            elem_bytes,
        };
        p.arrays.push(decl("empty", 0, 8));
        p.arrays.push(decl("long", 1 << 63, 1));
        p.arrays.push(decl("huge", 1 << 62, 8));
        p.arrays.push(decl("weightless", 1 << 62, 0));
        let e = validate(&p).unwrap_err();
        let messages: Vec<&str> = e.problems.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(
            messages,
            [
                "array `empty` (a1) has no elements",
                "array `long` (a2) has more than i64::MAX elements",
                "array `huge` (a3) has a byte size that overflows u64",
            ]
        );
        assert!(e.problems.iter().all(|d| d.path == NodePath::root()));
    }

    #[test]
    fn error_display_includes_paths() {
        let mut b = ProgramBuilder::new("bad");
        let i = b.var();
        b.serial(|s| s.par_for(None, i, 0, 10, |body| body.compute(1)));
        let e = validate(&b.build()).unwrap_err();
        let s = e.to_string();
        assert!(s.starts_with("invalid program: "));
        assert!(s.contains("parfor[0]: "));
    }
}
