//! Integer expressions over private thread state.
//!
//! Slipstream relies on the property that "control flow and address
//! generation rely mostly on private variables" (paper Section 2.1). The
//! IR enforces it: every expression is a function of loop variables, the
//! thread id/count, constants, and read-only host-side index tables (used
//! to model irregular accesses such as CG's sparse gathers). Expressions
//! never read simulated shared memory, so the A-stream computes the same
//! addresses and trip counts as its R-stream by construction.

use std::ops;

/// A private integer variable slot (loop counters, temporaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub u32);

/// A read-only host-side integer table (e.g., sparse row pointers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub u32);

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (divide-by-zero evaluates to 0, keeping kernels total).
    Div,
    /// Remainder (mod-by-zero evaluates to 0).
    Mod,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// An integer expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Literal constant.
    Const(i64),
    /// Read a private variable.
    Var(VarId),
    /// The OpenMP thread id within the current team.
    ThreadId,
    /// The OpenMP team size.
    NumThreads,
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Host-table lookup: `table[index]` (out-of-range indices clamp).
    Table(TableId, Box<Expr>),
}

impl Expr {
    /// Literal constant shorthand.
    pub fn c(v: i64) -> Expr {
        Expr::Const(v)
    }

    /// Variable shorthand.
    pub fn v(var: VarId) -> Expr {
        Expr::Var(var)
    }

    /// `min(self, other)`.
    pub fn min(self, other: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::Min, Box::new(self), Box::new(other.into()))
    }

    /// `max(self, other)`.
    pub fn max(self, other: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::Max, Box::new(self), Box::new(other.into()))
    }

    /// Remainder (named like the operator; total: mod-by-zero yields 0,
    /// unlike `std::ops::Rem`, which is why the trait is not implemented).
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, other: impl Into<Expr>) -> Expr {
        Expr::Bin(BinOp::Mod, Box::new(self), Box::new(other.into()))
    }

    /// Table lookup `table[self]`.
    pub fn index_into(self, table: TableId) -> Expr {
        Expr::Table(table, Box::new(self))
    }

    /// Largest `VarId` referenced, if any (for validation).
    pub fn max_var(&self) -> Option<u32> {
        match self {
            Expr::Const(_) | Expr::ThreadId | Expr::NumThreads => None,
            Expr::Var(v) => Some(v.0),
            Expr::Bin(_, a, b) => match (a.max_var(), b.max_var()) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            },
            Expr::Table(_, e) => e.max_var(),
        }
    }

    /// Largest `TableId` referenced, if any (for validation).
    pub fn max_table(&self) -> Option<u32> {
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::ThreadId | Expr::NumThreads => None,
            Expr::Bin(_, a, b) => match (a.max_table(), b.max_table()) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            },
            Expr::Table(t, e) => Some(e.max_table().map_or(t.0, |m| m.max(t.0))),
        }
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Expr {
        Expr::Const(v)
    }
}

impl From<VarId> for Expr {
    fn from(v: VarId) -> Expr {
        Expr::Var(v)
    }
}

macro_rules! impl_bin_op {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<T: Into<Expr>> ops::$trait<T> for Expr {
            type Output = Expr;
            fn $method(self, rhs: T) -> Expr {
                Expr::Bin($op, Box::new(self), Box::new(rhs.into()))
            }
        }
    };
}

impl_bin_op!(Add, add, BinOp::Add);
impl_bin_op!(Sub, sub, BinOp::Sub);
impl_bin_op!(Mul, mul, BinOp::Mul);
impl_bin_op!(Div, div, BinOp::Div);

/// Evaluation context: supplies variable values, team info, and tables.
pub trait EvalCtx {
    /// Value of a private variable.
    fn var(&self, v: VarId) -> i64;
    /// OpenMP thread id.
    fn thread_id(&self) -> i64;
    /// OpenMP team size.
    fn num_threads(&self) -> i64;
    /// Table cell `table[idx]`, with out-of-range clamping.
    fn table(&self, t: TableId, idx: i64) -> i64;
}

impl Expr {
    /// Evaluate in a context. Total: division by zero yields 0, table
    /// indices clamp.
    pub fn eval<C: EvalCtx>(&self, ctx: &C) -> i64 {
        match self {
            Expr::Const(v) => *v,
            Expr::Var(v) => ctx.var(*v),
            Expr::ThreadId => ctx.thread_id(),
            Expr::NumThreads => ctx.num_threads(),
            Expr::Bin(op, a, b) => {
                let x = a.eval(ctx);
                let y = b.eval(ctx);
                match op {
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
                }
            }
            Expr::Table(t, e) => ctx.table(*t, e.eval(ctx)),
        }
    }
}

/// Simple evaluation context for tests and the reference tracer.
#[derive(Debug, Clone)]
pub struct SimpleCtx {
    /// Private variable slots.
    pub vars: Vec<i64>,
    /// Thread id.
    pub tid: i64,
    /// Team size.
    pub nthreads: i64,
    /// Host tables.
    pub tables: Vec<Vec<i64>>,
}

impl SimpleCtx {
    /// A context with `nvars` zeroed variables.
    pub fn new(nvars: usize, tid: i64, nthreads: i64) -> Self {
        SimpleCtx {
            vars: vec![0; nvars],
            tid,
            nthreads,
            tables: Vec::new(),
        }
    }
}

impl EvalCtx for SimpleCtx {
    fn var(&self, v: VarId) -> i64 {
        self.vars[v.0 as usize]
    }
    fn thread_id(&self) -> i64 {
        self.tid
    }
    fn num_threads(&self) -> i64 {
        self.nthreads
    }
    fn table(&self, t: TableId, idx: i64) -> i64 {
        let tab = &self.tables[t.0 as usize];
        if tab.is_empty() {
            return 0;
        }
        let i = idx.clamp(0, tab.len() as i64 - 1) as usize;
        tab[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_evaluates() {
        let ctx = SimpleCtx::new(2, 3, 8);
        let e = (Expr::c(10) + Expr::c(5)) * Expr::c(2) - Expr::c(6) / Expr::c(3);
        assert_eq!(e.eval(&ctx), 28);
    }

    #[test]
    fn vars_thread_id_and_count() {
        let mut ctx = SimpleCtx::new(2, 3, 8);
        ctx.vars[1] = 42;
        assert_eq!(Expr::v(VarId(1)).eval(&ctx), 42);
        assert_eq!(Expr::ThreadId.eval(&ctx), 3);
        assert_eq!(Expr::NumThreads.eval(&ctx), 8);
        let e = Expr::ThreadId * Expr::v(VarId(1)) + Expr::NumThreads;
        assert_eq!(e.eval(&ctx), 3 * 42 + 8);
    }

    #[test]
    fn division_and_mod_by_zero_are_total() {
        let ctx = SimpleCtx::new(0, 0, 1);
        assert_eq!((Expr::c(5) / Expr::c(0)).eval(&ctx), 0);
        assert_eq!(Expr::c(5).rem(Expr::c(0)).eval(&ctx), 0);
    }

    #[test]
    fn min_max() {
        let ctx = SimpleCtx::new(0, 0, 1);
        assert_eq!(Expr::c(3).min(Expr::c(7)).eval(&ctx), 3);
        assert_eq!(Expr::c(3).max(Expr::c(7)).eval(&ctx), 7);
    }

    #[test]
    fn table_lookup_clamps() {
        let mut ctx = SimpleCtx::new(0, 0, 1);
        ctx.tables.push(vec![10, 20, 30]);
        let t = TableId(0);
        assert_eq!(Expr::c(1).index_into(t).eval(&ctx), 20);
        assert_eq!(Expr::c(-5).index_into(t).eval(&ctx), 10);
        assert_eq!(Expr::c(99).index_into(t).eval(&ctx), 30);
    }

    #[test]
    fn max_var_and_table_walk_the_tree() {
        let e = Expr::v(VarId(2)) + Expr::v(VarId(7)).index_into(TableId(3));
        assert_eq!(e.max_var(), Some(7));
        assert_eq!(e.max_table(), Some(3));
        assert_eq!(Expr::c(1).max_var(), None);
        assert_eq!(Expr::ThreadId.max_table(), None);
    }

    #[test]
    fn wrapping_semantics() {
        let ctx = SimpleCtx::new(0, 0, 1);
        let e = Expr::c(i64::MAX) + Expr::c(1);
        assert_eq!(e.eval(&ctx), i64::MIN);
    }
}
