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

impl BinOp {
    /// Every operator, in declaration order.
    pub const ALL: [BinOp; 7] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Min,
        BinOp::Max,
    ];

    /// The operator's name in the program encoding.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Mod => "mod",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }

    /// `x op y` with the operators' total semantics: wrapping add, sub,
    /// mul, div and rem; division and remainder by zero yield 0. The one
    /// definition [`Expr::eval`] and the [`Affine`] closed forms use.
    #[inline]
    pub fn apply(self, x: i64, y: i64) -> i64 {
        match self {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div if y == 0 => 0,
            BinOp::Div => x.wrapping_div(y),
            BinOp::Mod if y == 0 => 0,
            BinOp::Mod => x.wrapping_rem(y),
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
        }
    }
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
    /// The host tables, indexed by [`TableId`].
    fn tables(&self) -> &[Vec<i64>];
}

/// Cell `idx` of a host table, the IR's one table rule: the index clamps
/// into the table, and an empty table reads 0.
#[inline]
pub fn table_cell(table: &[i64], idx: i64) -> i64 {
    match table.len() {
        0 => 0,
        n => table[idx.clamp(0, n as i64 - 1) as usize],
    }
}

impl Expr {
    /// Evaluate in a context. Total: division by zero yields 0, table
    /// reads follow [`table_cell`].
    pub fn eval<C: EvalCtx>(&self, ctx: &C) -> i64 {
        match self {
            Expr::Const(v) => *v,
            Expr::Var(v) => ctx.var(*v),
            Expr::ThreadId => ctx.thread_id(),
            Expr::NumThreads => ctx.num_threads(),
            Expr::Bin(op, a, b) => op.apply(a.eval(ctx), b.eval(ctx)),
            Expr::Table(t, e) => table_cell(&ctx.tables()[t.0 as usize], e.eval(ctx)),
        }
    }
}

/// Variables a closed form holds as terms: enough for ADI's three-index
/// line cells.
const AFFINE_VARS: usize = 3;

/// The closed form of an index expression,
/// `min(max(c + Σ kᵢ·varᵢ, lo), hi)` with wrapping arithmetic: the one
/// index algebra. The compiler lowers engine operands to it
/// ([`Affine::of_vars`]), and the analyzer reads strided element runs off
/// it ([`Affine::in_loop`]); the two differ only in how they bind the
/// leaves.
///
/// Wrapping add, sub and mul are the ring of integers mod 2^64, so
/// collecting like terms of a sum of scaled variables gives the same
/// value [`Expr::eval`] computes by walking the tree. Min/max by constants
/// compose into the one `(lo, hi)` pair only while they are the outermost
/// operators: `max(min(y, hi), k) = min(max(y, k), max(hi, k))`. `lo >
/// hi` is allowed; the form is then the constant `hi`, as the tree is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affine {
    /// Constant term.
    c: i64,
    /// Variables of the first `len` terms; the unused slots stay 0, so
    /// equal forms compare equal.
    vars: [u32; AFFINE_VARS],
    /// Their non-zero coefficients.
    coefs: [i64; AFFINE_VARS],
    len: u8,
    /// Lower clamp (`i64::MIN` when unclamped).
    lo: i64,
    /// Upper clamp (`i64::MAX` when unclamped).
    hi: i64,
}

impl Affine {
    /// The constant `c`.
    pub fn constant(c: i64) -> Affine {
        Affine {
            c,
            vars: [0; AFFINE_VARS],
            coefs: [0; AFFINE_VARS],
            len: 0,
            lo: i64::MIN,
            hi: i64::MAX,
        }
    }

    /// The variable `v`, as a term.
    fn var(v: VarId) -> Affine {
        let mut a = Affine::constant(0);
        a.vars[0] = v.0;
        a.coefs[0] = 1;
        a.len = 1;
        a
    }

    /// The compiler's binding: the closed form of `e` with every variable
    /// a term, or `None` when it has none. The thread id and team size
    /// have no form (no paper kernel indexes by them), so `e` has none
    /// when it reads them outside a constant table index.
    pub fn of_vars(e: &Expr, tables: &[Vec<i64>]) -> Option<Affine> {
        Affine::of(e, tables, &|e: &Expr| match e {
            Expr::Var(v) => Some(Affine::var(*v)),
            _ => None,
        })
    }

    /// The analyzer's binding: the closed form of `e` in the loop
    /// variable `var`, the one term, with every other leaf the constant
    /// `ctx` gives it; `None` when it has none.
    pub fn in_loop(e: &Expr, var: VarId, ctx: &SimpleCtx) -> Option<Affine> {
        Affine::of(e, &ctx.tables, &|e: &Expr| match e {
            Expr::Var(w) if *w == var => Some(Affine::var(var)),
            _ => Some(Affine::constant(e.eval(ctx))),
        })
    }

    /// The closed form of `e`, or `None` when it has none. `leaf` binds
    /// each variable, thread-id and team-size leaf: to a term, to a
    /// constant, or to `None`, which leaves `e` without a form. Constants
    /// fold through [`BinOp::apply`], and a table read with a constant
    /// index through [`table_cell`].
    fn of<L>(e: &Expr, tables: &[Vec<i64>], leaf: &L) -> Option<Affine>
    where
        L: Fn(&Expr) -> Option<Affine>,
    {
        match e {
            Expr::Const(v) => Some(Affine::constant(*v)),
            Expr::Var(_) | Expr::ThreadId | Expr::NumThreads => leaf(e),
            Expr::Table(t, idx) => {
                let i = Affine::of(idx, tables, leaf)?.as_const()?;
                Some(Affine::constant(table_cell(tables.get(t.0 as usize)?, i)))
            }
            Expr::Bin(op, x, y) => {
                let (x, y) = (Affine::of(x, tables, leaf)?, Affine::of(y, tables, leaf)?);
                let zero = Affine::constant(0);
                match (op, x.as_const(), y.as_const()) {
                    (_, Some(p), Some(q)) => Some(Affine::constant(op.apply(p, q))),
                    (BinOp::Add, ..) => x.add_scaled(&y, 1),
                    (BinOp::Sub, ..) => x.add_scaled(&y, -1),
                    (BinOp::Mul, Some(k), _) => zero.add_scaled(&y, k),
                    (BinOp::Mul, _, Some(k)) => zero.add_scaled(&x, k),
                    (BinOp::Min | BinOp::Max, Some(k), _) => Some(y.clamp(*op, k)),
                    (BinOp::Min | BinOp::Max, _, Some(k)) => Some(x.clamp(*op, k)),
                    _ => None,
                }
            }
        }
    }

    /// The `(variable, coefficient)` terms, each variable once.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, i64)> + '_ {
        let n = self.len as usize;
        self.vars[..n]
            .iter()
            .zip(&self.coefs[..n])
            .map(|(&v, &k)| (VarId(v), k))
    }

    /// The coefficient of `v` (0 without a term).
    pub fn coef(&self, v: VarId) -> i64 {
        self.terms().find(|&(w, _)| w == v).map_or(0, |(_, k)| k)
    }

    /// The constant term `c`.
    pub fn offset(&self) -> i64 {
        self.c
    }

    /// The clamps `(lo, hi)`, `(i64::MIN, i64::MAX)` when unclamped.
    pub fn clamps(&self) -> (i64, i64) {
        (self.lo, self.hi)
    }

    /// The value when the form has no terms. A form without terms is
    /// never clamped: min/max of two constants folds.
    pub fn as_const(&self) -> Option<i64> {
        (self.len == 0).then_some(self.c)
    }

    fn clamped(&self) -> bool {
        self.clamps() != (i64::MIN, i64::MAX)
    }

    /// `self + k·other` for unclamped forms, or `None` when the sum
    /// would need more than [`AFFINE_VARS`] variables.
    fn add_scaled(mut self, other: &Affine, k: i64) -> Option<Affine> {
        if self.clamped() || other.clamped() {
            return None;
        }
        self.c = self.c.wrapping_add(k.wrapping_mul(other.c));
        for (v, kv) in other.terms() {
            self.add_term(v.0, k.wrapping_mul(kv))?;
        }
        Some(self)
    }

    /// Add `k·var`, dropping a term whose coefficient cancels to zero.
    fn add_term(&mut self, var: u32, k: i64) -> Option<()> {
        let n = self.len as usize;
        match self.vars[..n].iter().position(|&v| v == var) {
            Some(i) => {
                self.coefs[i] = self.coefs[i].wrapping_add(k);
                if self.coefs[i] == 0 {
                    self.vars.copy_within(i + 1..n, i);
                    self.coefs.copy_within(i + 1..n, i);
                    (self.vars[n - 1], self.coefs[n - 1]) = (0, 0);
                    self.len -= 1;
                }
            }
            None if k == 0 => {}
            None if n == AFFINE_VARS => return None,
            None => {
                self.vars[n] = var;
                self.coefs[n] = k;
                self.len += 1;
            }
        }
        Some(())
    }

    /// `op(self, k)` for `op` min or max: compose the clamp.
    fn clamp(mut self, op: BinOp, k: i64) -> Affine {
        if op == BinOp::Max {
            self.lo = self.lo.max(k);
        }
        self.hi = op.apply(self.hi, k);
        self
    }

    /// Evaluate with the given variable slots.
    #[inline]
    pub fn eval(&self, vars: &[i64]) -> i64 {
        let mut x = self.c;
        for (&v, &k) in self.vars.iter().zip(&self.coefs).take(self.len as usize) {
            x = x.wrapping_add(k.wrapping_mul(vars[v as usize]));
        }
        x.max(self.lo).min(self.hi)
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
    fn tables(&self) -> &[Vec<i64>] {
        &self.tables
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
        // The one quotient that overflows wraps, and its remainder is 0.
        assert_eq!((Expr::c(i64::MIN) / Expr::c(-1)).eval(&ctx), i64::MIN);
        assert_eq!(Expr::c(i64::MIN).rem(Expr::c(-1)).eval(&ctx), 0);
    }
}
