//! Property-style tests of the IR layer: worksharing partition
//! exactness, expression totality, the closed index form under both of
//! its bindings, directive-parser robustness, and tracer consistency.
//! Inputs come from a local seeded splitmix64 stream (omp-ir carries no
//! dependencies, so the generator is inlined here rather than borrowed
//! from dsm-sim).

use omp_ir::expr::{Affine, BinOp, Expr, SimpleCtx, TableId, VarId};
use omp_ir::node::{ScheduleKind, ScheduleSpec};
use omp_ir::wsloop;

/// Minimal splitmix64 for seeded test inputs.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }
}

/// Random expression tree over one variable and one table, depth-bounded.
fn arb_expr(g: &mut Rng, depth: u32) -> Expr {
    let leafy = depth == 0 || g.below(3) == 0;
    if leafy {
        match g.below(4) {
            0 => Expr::Const(g.range(-100, 100)),
            1 => Expr::Var(VarId(0)),
            2 => Expr::ThreadId,
            _ => Expr::NumThreads,
        }
    } else if g.below(8) == 0 {
        Expr::Table(TableId(0), Box::new(arb_expr(g, depth - 1)))
    } else {
        let op = BinOp::ALL[g.below(7) as usize];
        Expr::Bin(
            op,
            Box::new(arb_expr(g, depth - 1)),
            Box::new(arb_expr(g, depth - 1)),
        )
    }
}

#[test]
fn static_block_partitions_exactly() {
    for seed in 0..60u64 {
        let mut g = Rng(0x57A71C ^ seed);
        let begin = g.range(-50, 50);
        let len = g.range(0, 500);
        let step = 1 + g.below(6);
        let nthreads = 1 + g.below(32);
        let end = begin + len;
        let mut seen = std::collections::HashSet::new();
        for tid in 0..nthreads {
            let c = wsloop::static_block(begin, end, step, nthreads, tid);
            let mut i = c.lo.max(begin);
            while i < c.hi {
                assert!(seen.insert(i), "iteration {i} assigned twice (seed {seed})");
                i += step as i64;
            }
        }
        let mut expected = 0u64;
        let mut i = begin;
        while i < end {
            assert!(seen.contains(&i), "iteration {i} unassigned (seed {seed})");
            expected += 1;
            i += step as i64;
        }
        assert_eq!(seen.len() as u64, expected);
    }
}

#[test]
fn static_chunked_partitions_exactly() {
    for seed in 0..60u64 {
        let mut g = Rng(0xC4C4 ^ seed);
        let len = g.range(0, 400);
        let step = 1 + g.below(4);
        let nthreads = 1 + g.below(16);
        let chunk = 1 + g.below(8);
        let mut seen = std::collections::HashSet::new();
        for tid in 0..nthreads {
            for c in wsloop::static_chunked(0, len, step, nthreads, tid, chunk) {
                let mut i = c.lo;
                while i < c.hi {
                    assert!(seen.insert(i), "iteration {i} assigned twice (seed {seed})");
                    i += step as i64;
                }
            }
        }
        assert_eq!(seen.len() as u64, wsloop::trip_count(0, len, step));
    }
}

#[test]
fn dynamic_and_guided_exhaust_the_space() {
    for seed in 0..60u64 {
        let mut g = Rng(0xD1_6D ^ seed);
        let len = g.range(0, 400);
        let chunk = 1 + g.below(8);
        let nthreads = 1 + g.below(8);
        let guided = g.below(2) == 1;
        let mut start = 0u64;
        let mut covered = 0i64;
        let mut last_size = u64::MAX;
        loop {
            let r = if guided {
                wsloop::guided_next(0, len, 1, start, nthreads, chunk)
            } else {
                wsloop::dynamic_next(0, len, 1, start, chunk)
            };
            match r {
                Some((c, next)) => {
                    assert!(c.hi > c.lo, "empty chunk handed out");
                    assert_eq!(c.lo, covered, "chunks must be contiguous");
                    covered = c.hi;
                    if guided {
                        let size = c.trip_count(1);
                        assert!(size <= last_size, "guided sizes grow");
                        last_size = size;
                    }
                    start = next;
                }
                None => break,
            }
        }
        assert_eq!(covered, len.max(0));
    }
}

#[test]
fn expressions_are_total() {
    for seed in 0..200u64 {
        let mut g = Rng(0x707A1 ^ seed);
        let e = arb_expr(&mut g, 4);
        let v = g.range(-1000, 1000);
        let mut ctx = SimpleCtx::new(1, 3, 8);
        ctx.vars[0] = v;
        ctx.tables.push(vec![5, -3, 99]);
        // Must never panic (division by zero, overflow, table range).
        let _ = e.eval(&ctx);
        // And be deterministic.
        assert_eq!(e.eval(&ctx), e.eval(&ctx));
    }
}

#[test]
fn expr_bounds_metadata_is_sound() {
    for seed in 0..200u64 {
        let mut g = Rng(0xB0BD ^ seed);
        let e = arb_expr(&mut g, 4);
        // max_var/max_table never under-report: evaluating with exactly
        // that many slots must not panic.
        let nvars = e.max_var().map_or(0, |v| v + 1) as usize;
        let mut ctx = SimpleCtx::new(nvars.max(1), 0, 4);
        if e.max_table().is_some() {
            ctx.tables.push(vec![1, 2, 3]);
        }
        let _ = e.eval(&ctx);
    }
}

/// A random index expression over four variables, the thread id, the
/// team size, extreme and small constants, and two tables (one empty),
/// biased toward the sums, scalings and clamps that have a closed form;
/// clamp bounds are constants or variables.
fn index_expr(g: &mut Rng, depth: u32) -> Expr {
    const EDGES: [i64; 6] = [i64::MIN, i64::MAX, -1, 0, 1, i64::MIN + 1];
    if depth == 0 || g.below(4) == 0 {
        return match g.below(8) {
            0 | 1 => Expr::v(VarId(g.below(4) as u32)),
            2 => Expr::ThreadId,
            3 => Expr::NumThreads,
            4 => Expr::c(EDGES[g.below(6) as usize]),
            5 => Expr::c(g.next_u64() as i64),
            _ => Expr::c(g.range(-20, 21)),
        };
    }
    let mut sub = || index_expr(g, depth - 1);
    let (x, y) = (sub(), sub());
    match g.below(15) {
        0..=2 => x + y,
        3 | 4 => x - y,
        // Mostly a scaling by a constant; sometimes var·var.
        5 | 6 => x * Expr::c(g.range(-4, 5)),
        7 => x * y,
        8 => x.max(Expr::c(g.range(-10, 11))),
        9 => Expr::c(g.range(0, 200)).min(x),
        10 => x.min(y),
        11 => x.max(Expr::v(VarId(g.below(4) as u32))),
        12 => x / y,
        13 => x.rem(y),
        _ => x.index_into(TableId(g.below(2) as u32)),
    }
}

/// A variable value: often an extreme, sometimes any 64-bit value,
/// otherwise small.
fn value(g: &mut Rng) -> i64 {
    match g.below(4) {
        0 => [i64::MIN, i64::MAX, -1, 0][g.below(4) as usize],
        1 => g.next_u64() as i64,
        _ => g.range(-1000, 1001),
    }
}

/// The clamps of a form without any.
const UNCLAMPED: (i64, i64) = (i64::MIN, i64::MAX);

#[test]
fn closed_form_matches_eval_under_both_bindings() {
    let mut g = Rng(0xAFF1);
    let tables = vec![vec![7, -3, i64::MAX, 12], vec![]];
    let (mut consts, mut closed, mut clamped, mut trees) = (0, 0, 0, 0);
    let (mut loop_closed, mut loop_clamped) = (0, 0);
    let randomize = |g: &mut Rng, ctx: &mut SimpleCtx| {
        for v in ctx.vars.iter_mut() {
            *v = value(g);
        }
        (ctx.tid, ctx.nthreads) = (value(g), value(g));
    };
    for case in 0..4000 {
        let depth = 1 + g.below(5) as u32;
        let e = index_expr(&mut g, depth);
        let mut ctx = SimpleCtx::new(4, 0, 1);
        ctx.tables = tables.clone();
        // The compiler's form holds at every point.
        let form = Affine::of_vars(&e, &tables);
        match form {
            Some(a) if a.as_const().is_some() => consts += 1,
            Some(a) => {
                closed += 1;
                clamped += usize::from(a.clamps() != UNCLAMPED);
            }
            None => trees += 1,
        }
        for _ in 0..8 {
            let Some(a) = form else { break };
            randomize(&mut g, &mut ctx);
            let want = e.eval(&ctx);
            assert_eq!(a.eval(&ctx.vars), want, "case {case}: {e:?} as {a:?}");
            assert!(a.as_const().is_none_or(|c| c == want), "case {case}");
        }
        // The analyzer's form, taken at one point, holds along the loop
        // variable, and it closes every tree the compiler's closes.
        randomize(&mut g, &mut ctx);
        let v = VarId(0);
        let Some(a) = Affine::in_loop(&e, v, &ctx) else {
            assert!(form.is_none(), "case {case}: {e:?}");
            continue;
        };
        assert!(a.terms().all(|(w, _)| w == v), "case {case}: {a:?}");
        loop_closed += usize::from(a.coef(v) != 0);
        loop_clamped += usize::from(a.coef(v) != 0 && a.clamps() != UNCLAMPED);
        for _ in 0..8 {
            ctx.vars[0] = value(&mut g);
            assert_eq!(
                a.eval(&ctx.vars),
                e.eval(&ctx),
                "case {case}: {e:?} as {a:?}"
            );
        }
    }
    // Every form is reached, clamps included.
    assert!(consts > 100, "{consts} constants");
    assert!(closed > 400, "{closed} closed forms");
    assert!(clamped > 100, "{clamped} clamped closed forms");
    assert!(trees > 400, "{trees} trees");
    assert!(
        loop_closed > 200,
        "{loop_closed} forms in the loop variable"
    );
    assert!(
        loop_clamped > 50,
        "{loop_clamped} clamped in the loop variable"
    );
}

#[test]
fn closed_form_composes_clamps_and_cancels_terms() {
    let (v, w) = (Expr::v(VarId(0)), Expr::v(VarId(1)));
    let of = |e: &Expr| Affine::of_vars(e, &[]);
    let form = |e: &Expr| of(e).unwrap_or_else(|| panic!("{e:?} has no form"));
    // The stencil neighbour clamp min(max(v + 3, 0), 99).
    let a = form(&(v.clone() + 3).max(Expr::c(0)).min(Expr::c(99)));
    assert_eq!((a.offset(), a.clamps()), (3, (0, 99)));
    // max over a min moves the bound into both sides.
    let a = form(&v.clone().min(Expr::c(5)).max(Expr::c(9)));
    assert_eq!(a.clamps(), (9, 9));
    // Like terms collect; a cancelled variable leaves no term, and the
    // form equals the one written without it.
    let a = form(&(v.clone() * 3 + w.clone() - v.clone() * 3 + 2));
    assert_eq!(a.terms().collect::<Vec<_>>(), [(VarId(1), 1)]);
    assert_eq!(a, form(&(w.clone() + 2)));
    assert_eq!(form(&(v.clone() - v.clone())).as_const(), Some(0));
    // A sum of four variables, or a clamp inside a sum, has no form.
    let four = v.clone() + w.clone() + Expr::v(VarId(2)) + Expr::v(VarId(3));
    assert_eq!(of(&four), None);
    let inner = v.clone().max(Expr::c(0)) + 1;
    assert_eq!(of(&inner), None);
    // Nor does an index that reads the thread id or team size.
    for t in [Expr::ThreadId, Expr::NumThreads] {
        assert_eq!(of(&(w.clone() + t)), None);
    }
    // Under the analyzer's binding every other leaf is a constant: the
    // four-variable sum has one term, and a bound read from another
    // variable clamps.
    let mut ctx = SimpleCtx::new(4, 2, 8);
    ctx.vars = vec![0, 7, -2, 5];
    let at = |e: &Expr| Affine::in_loop(e, VarId(0), &ctx).unwrap();
    let a = at(&(four + Expr::ThreadId));
    assert_eq!(
        (a.terms().collect::<Vec<_>>(), a.offset()),
        (vec![(VarId(0), 1)], 12)
    );
    let a = at(&(v.clone() * w.clone())
        .min(w.clone())
        .max(Expr::NumThreads * -1));
    assert_eq!((a.coef(VarId(0)), a.clamps()), (7, (-8, 7)));
    // A clamp of another variable inside a sum folds to a constant.
    let a = at(&(w.clone().max(Expr::c(9)) + v.clone()));
    assert_eq!(
        (a.coef(VarId(0)), a.offset(), a.clamps()),
        (1, 9, UNCLAMPED)
    );
}

#[test]
fn directive_parser_never_panics() {
    for seed in 0..400u64 {
        let mut g = Rng(0xFA25E ^ seed);
        let len = g.below(61) as usize;
        let s: String = (0..len)
            .map(|_| (b' ' + g.below(95) as u8) as char)
            .collect();
        let _ = omp_ir::parse_directive(&s);
        let _ = omp_ir::parse_omp_slipstream_env(&s);
    }
}

#[test]
fn schedule_directives_roundtrip() {
    for kind in 0usize..3 {
        for chunk in [None, Some(1u64), Some(7), Some(99)] {
            let kname = ["static", "dynamic", "guided"][kind];
            let txt = match chunk {
                Some(c) => format!("#pragma omp for schedule({kname}, {c})"),
                None => format!("#pragma omp for schedule({kname})"),
            };
            let d = omp_ir::parse_directive(&txt).unwrap();
            let expected = ScheduleSpec {
                kind: [
                    ScheduleKind::Static,
                    ScheduleKind::Dynamic,
                    ScheduleKind::Guided,
                ][kind],
                chunk,
            };
            assert_eq!(
                d,
                omp_ir::Directive::For {
                    schedule: Some(expected),
                    reduction: None,
                    nowait: false
                }
            );
        }
    }
}

#[test]
fn slipstream_directive_roundtrips() {
    use omp_ir::node::{SlipSyncType, SlipstreamClause};
    for sync in 0usize..3 {
        for tokens in [0u64, 1, 5, 99] {
            let sname = ["GLOBAL_SYNC", "LOCAL_SYNC", "RUNTIME_SYNC"][sync];
            let txt = format!("!$OMP SLIPSTREAM({sname}, {tokens})");
            let d = omp_ir::parse_directive(&txt).unwrap();
            let expected = SlipstreamClause {
                sync: [
                    SlipSyncType::GlobalSync,
                    SlipSyncType::LocalSync,
                    SlipSyncType::RuntimeSync,
                ][sync],
                tokens,
            };
            assert_eq!(d, omp_ir::Directive::Slipstream(expected));
        }
    }
}

#[test]
fn tracer_totals_scale_with_iterations() {
    for reps in 1i64..6 {
        use omp_ir::ProgramBuilder;
        let mut b = ProgramBuilder::new("scale");
        let a = b.shared_array("a", 64, 8);
        let r_var = b.var();
        let i = b.var();
        b.parallel(move |reg| {
            reg.push(omp_ir::node::Node::For {
                var: r_var,
                begin: Expr::c(0),
                end: Expr::c(reps),
                step: 1,
                body: Box::new(omp_ir::node::Node::ParFor {
                    sched: None,
                    var: i,
                    begin: Expr::c(0),
                    end: Expr::c(64),
                    body: Box::new(omp_ir::node::Node::Load {
                        array: a,
                        index: Expr::v(i),
                    }),
                    reduction: None,
                    nowait: false,
                }),
            });
        });
        let t = omp_ir::trace(&b.build(), 4);
        assert_eq!(t.total.loads, 64 * reps as u64);
        assert_eq!(t.barrier_episodes, reps as u64 + 1);
    }
}
