//! Arithmetic on strided element runs and line ranges.
//!
//! The walker's summary mode (see `walk`) describes the accesses of one
//! flat loop as arithmetic progressions of elements instead of listing
//! them. This module holds the pure arithmetic that needs: the element
//! runs of an index whose closed form ([`omp_ir::expr::Affine`]) is
//! `a·v + b` inside optional `min`/`max` clamps, the exact intersection
//! test for two progressions, and per-phase sets of cache lines kept as
//! merged ranges, with the largest union over a sliding window of phases.

use dsm_sim::FastSet;
use omp_ir::expr::{Affine, Expr, SimpleCtx, VarId};

/// Elements `lo + k·stride` for `k < count` (`stride >= 1`; a single
/// element has `count == 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Prog {
    pub lo: u64,
    pub stride: u64,
    pub count: u64,
}

impl Prog {
    pub fn point(e: u64) -> Prog {
        Prog {
            lo: e,
            stride: 1,
            count: 1,
        }
    }

    /// The progression through `first`, stepping by `step` (either sign)
    /// `count` times, in increasing order.
    pub fn from_signed(first: u64, step: i64, count: u64) -> Prog {
        if count <= 1 || step == 0 {
            return Prog::point(first);
        }
        let span = step.unsigned_abs() * (count - 1);
        Prog {
            lo: if step < 0 { first - span } else { first },
            stride: step.unsigned_abs(),
            count,
        }
    }

    /// The largest element.
    pub fn hi(&self) -> u64 {
        self.lo + self.stride * (self.count - 1)
    }

    fn contains(&self, x: u64) -> bool {
        x >= self.lo && x <= self.hi() && (x - self.lo).is_multiple_of(self.stride)
    }

    /// Do the two progressions share an element? Exact.
    pub fn meets(&self, o: &Prog) -> bool {
        if self.lo.max(o.lo) > self.hi().min(o.hi()) {
            false
        } else if self.count == 1 {
            o.contains(self.lo)
        } else if o.count == 1 {
            self.contains(o.lo)
        } else if self.stride == o.stride {
            // Overlapping ranges of one residue class always share the
            // larger start.
            self.lo.abs_diff(o.lo).is_multiple_of(self.stride)
        } else {
            affine_affine(self, o)
        }
    }
}

pub(crate) fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Extended Euclid: `(g, x, y)` with `a·x + b·y = g = gcd(a, b)`.
fn egcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = egcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

/// Exact intersection test for two progressions with positive strides:
/// solves `b1 + i·s1 = b2 + j·s2` with the GCD test, then the CRT, then
/// checks the smallest solution against both ranges.
fn affine_affine(p: &Prog, q: &Prog) -> bool {
    let (b1, s1) = (p.lo as i128, p.stride as i128);
    let (b2, s2) = (q.lo as i128, q.stride as i128);
    let lo = b1.max(b2);
    let hi = (p.hi() as i128).min(q.hi() as i128);
    let g = gcd(p.stride, q.stride) as i128;
    if (b2 - b1) % g != 0 {
        return false;
    }
    // x ≡ b1 (mod s1), x ≡ b2 (mod s2) has the solutions x ≡ x0 (mod l),
    // l = lcm(s1, s2); find the smallest x >= lo.
    let m = s2 / g;
    let (_, inv, _) = egcd(s1 / g, m);
    let t = ((b2 - b1) / g % m * (inv % m)) % m;
    let x0 = b1 + s1 * ((t + m) % m);
    let l = s1 / g * s2;
    let x = if x0 >= lo {
        x0 - (x0 - lo) / l * l
    } else {
        x0 + (lo - x0 + l - 1) / l * l
    };
    x <= hi
}

/// The elements `index` names over the loop `var = first + k·step`,
/// `k < trips` (`trips >= 1`), clamped into an array of `len` elements as
/// the walker clamps them: at most three progressions (the elements
/// clamped to the low end, the unclamped middle, those clamped to the
/// high end). The index's form in `var` ([`Affine::in_loop`]) is
/// `clamp(a·var + b, lo, hi)` with loop-invariant clamps. `None` when the
/// index has no such form or its linear part leaves `i64` somewhere in
/// the loop (the evaluation would wrap); the caller then evaluates each
/// iteration.
pub(crate) fn closed_form(
    index: &Expr,
    var: VarId,
    ctx: &SimpleCtx,
    first: i64,
    step: u64,
    trips: u64,
    len: u64,
) -> Option<[Option<Prog>; 3]> {
    let form = Affine::in_loop(index, var, ctx)?;
    let (a, b) = (form.coef(var), form.offset());
    // `lo <= hi` once `lo` is `min(lo, hi)`; the walker's element clamp
    // is one more max/min pair.
    let (lo, hi) = form.clamps();
    let top = len as i64 - 1;
    let (lo, hi) = (lo.min(hi).max(0).min(top), hi.max(0).min(top));
    let x0 = a as i128 * first as i128 + b as i128;
    let d = a as i128 * step as i128;
    let xn = x0 + d * (trips as i128 - 1);
    let fits = |x: i128| i64::try_from(x).is_ok();
    if !fits(x0) || !fits(xn) {
        return None;
    }
    // The set is symmetric in direction: walk it upwards.
    let (x0, xn, d) = if d < 0 { (xn, x0, -d) } else { (x0, xn, d) };
    let (lo, hi) = (lo as i128, hi as i128);
    if d == 0 || lo == hi {
        return Some([Some(Prog::point(x0.clamp(lo, hi) as u64)), None, None]);
    }
    // Iterations inside [lo, hi] keep their element; the rest clamp to
    // an end.
    let k1 = if x0 >= lo { 0 } else { (lo - x0 + d - 1) / d };
    let k2 = if xn <= hi {
        trips as i128 - 1
    } else if hi < x0 {
        -1
    } else {
        (hi - x0) / d
    };
    let middle = (k1 <= k2).then(|| Prog {
        lo: (x0 + k1 * d) as u64,
        stride: d as u64,
        count: (k2 - k1 + 1) as u64,
    });
    let starts_at = |e: i128| middle.is_some_and(|m| m.lo as i128 == e);
    let ends_at = |e: i128| middle.is_some_and(|m| m.hi() as i128 == e);
    let below = (x0 < lo && !starts_at(lo)).then(|| Prog::point(lo as u64));
    let above = (xn > hi && !ends_at(hi)).then(|| Prog::point(hi as u64));
    Some([below, middle, above])
}

/// One phase's shared cache lines. Single lines (one access at a time)
/// go into a hash set, as many loops revisit them; ranges (a summarized
/// loop's contiguous lines) are appended as they come and sorted and
/// merged whenever the list doubles past its last merged size, so memory
/// stays within about twice the distinct ranges. Byte progressions whose
/// stride exceeds a line stay progressions until [`Lines::finish`]
/// expands the distinct ones, because loops often repeat them (a load and
/// a store of one element, a forward and a backward sweep).
#[derive(Default)]
pub(crate) struct Lines {
    set: FastSet<u64>,
    ranges: Vec<(u64, u64)>,
    tidy_len: usize,
    /// (first byte, byte stride, count) progressions.
    strided: Vec<(u64, u64, u64)>,
}

impl Lines {
    pub fn insert(&mut self, line: u64) {
        self.set.insert(line);
    }

    /// Add the lines of the bytes `start + k·stride`, `k < count`, for
    /// `line_bytes`-byte lines (no address may pass `u64::MAX`).
    pub fn add_bytes(&mut self, start: u64, stride: u64, count: u64, line_bytes: u64) {
        if count == 1 || stride <= line_bytes {
            let end = start + stride * (count - 1);
            self.add(start / line_bytes, end / line_bytes);
        } else {
            self.strided.push((start, stride, count));
        }
    }

    /// Add the lines `lo..=hi`.
    pub fn add(&mut self, lo: u64, hi: u64) {
        if let Some(last) = self.ranges.last_mut() {
            if lo <= last.1.saturating_add(1) && hi.saturating_add(1) >= last.0 {
                *last = (last.0.min(lo), last.1.max(hi));
                return;
            }
        }
        self.ranges.push((lo, hi));
        if self.ranges.len() > 2 * self.tidy_len + 64 {
            self.tidy();
        }
    }

    /// Settle the phase before [`Lines::count`]: expand the pending
    /// progressions and merge everything into sorted ranges, unless the
    /// phase holds single lines only and `as_ranges` is false (its count
    /// is then the set's size).
    pub fn finish(&mut self, line_bytes: u64, as_ranges: bool) {
        if self.ranges.is_empty() && self.strided.is_empty() && !as_ranges {
            return;
        }
        let mut strided = std::mem::take(&mut self.strided);
        strided.sort_unstable();
        strided.dedup();
        for &(start, stride, count) in &strided {
            for k in 0..count {
                let line = (start + k * stride) / line_bytes;
                self.add(line, line);
            }
        }
        self.ranges.extend(self.set.drain().map(|l| (l, l)));
        self.tidy();
    }

    /// Sort and merge overlapping or adjacent ranges.
    fn tidy(&mut self) {
        merge_ranges(&mut self.ranges);
        self.tidy_len = self.ranges.len();
    }

    /// Distinct lines, once finished.
    pub fn count(&self) -> u64 {
        let ranged: u64 = self.ranges.iter().map(|&(lo, hi)| hi - lo + 1).sum();
        self.set.len() as u64 + ranged
    }

    /// Single lines and ranges stored.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.set.len() + self.ranges.len()
    }
}

fn merge_ranges(v: &mut Vec<(u64, u64)>) {
    v.sort_unstable();
    let mut out = 0;
    for i in 0..v.len() {
        let (lo, hi) = v[i];
        if out > 0 && lo <= v[out - 1].1.saturating_add(1) {
            v[out - 1].1 = v[out - 1].1.max(hi);
        } else {
            v[out] = (lo, hi);
            out += 1;
        }
    }
    v.truncate(out);
}

/// The most distinct lines any `window` consecutive phases touch
/// together (`window >= 2`; every phase finished as ranges), in one
/// sliding pass. A
/// window as wide as the region is one union.
pub(crate) fn max_window_union(phases: &[Lines], window: usize) -> u64 {
    if window >= phases.len() {
        let mut all: Vec<(u64, u64)> = phases
            .iter()
            .flat_map(|p| p.ranges.iter().copied())
            .collect();
        merge_ranges(&mut all);
        return all.iter().map(|&(lo, hi)| hi - lo + 1).sum();
    }
    let mut xs: Vec<u64> = phases
        .iter()
        .flat_map(|p| p.ranges.iter().flat_map(|&(lo, hi)| [lo, hi + 1]))
        .collect();
    xs.sort_unstable();
    xs.dedup();
    if xs.is_empty() {
        return 0;
    }
    let mut cover = Coverage::new(xs);
    let mut best = 0;
    for (i, p) in phases.iter().enumerate() {
        cover.apply(&p.ranges, 1);
        if i >= window {
            cover.apply(&phases[i - window].ranges, -1);
        }
        best = best.max(cover.covered());
    }
    best
}

/// Measure of a multiset of ranges under insertion and removal: a
/// segment tree over the compressed range endpoints, each node holding
/// how many ranges cover it whole and how much of it is covered.
struct Coverage {
    xs: Vec<u64>,
    count: Vec<i32>,
    len: Vec<u64>,
}

impl Coverage {
    fn new(xs: Vec<u64>) -> Coverage {
        let n = 4 * xs.len().max(1);
        Coverage {
            xs,
            count: vec![0; n],
            len: vec![0; n],
        }
    }

    fn apply(&mut self, ranges: &[(u64, u64)], delta: i32) {
        let segs = self.xs.len() - 1;
        for &(lo, hi) in ranges {
            let l = self.xs.partition_point(|&x| x < lo);
            let r = self.xs.partition_point(|&x| x < hi + 1);
            self.update(1, 0, segs, l, r, delta);
        }
    }

    /// Add `delta` over the elementary segments `[l, r)` of node `node`,
    /// which spans segments `[nl, nr)`.
    fn update(&mut self, node: usize, nl: usize, nr: usize, l: usize, r: usize, delta: i32) {
        if r <= nl || nr <= l {
            return;
        }
        if l <= nl && nr <= r {
            self.count[node] += delta;
        } else {
            let mid = (nl + nr) / 2;
            self.update(2 * node, nl, mid, l, r, delta);
            self.update(2 * node + 1, mid, nr, l, r, delta);
        }
        self.len[node] = if self.count[node] > 0 {
            self.xs[nr] - self.xs[nl]
        } else if nr - nl == 1 {
            0
        } else {
            self.len[2 * node] + self.len[2 * node + 1]
        };
    }

    fn covered(&self) -> u64 {
        self.len[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elems(p: &Prog) -> Vec<u64> {
        (0..p.count).map(|k| p.lo + k * p.stride).collect()
    }

    #[test]
    fn meets_is_exact_on_small_progressions() {
        let mut progs = Vec::new();
        for lo in 0..12 {
            for stride in 1..7 {
                for count in 1..6 {
                    progs.push(Prog { lo, stride, count });
                }
            }
        }
        for p in &progs {
            for q in &progs {
                let brute = elems(p).iter().any(|x| elems(q).contains(x));
                assert_eq!(p.meets(q), brute, "{p:?} {q:?}");
            }
        }
    }

    /// A random index over the loop variable `v0`, a loop-invariant
    /// `v1`, the thread id, a table and small or extreme constants, built
    /// from the shapes the walker meets: sums, scalings, clamps by
    /// constants or `v1`, and some div/mod, var·var and table reads.
    fn random_index(g: &mut dsm_sim::SplitMix64, depth: u32) -> Expr {
        if depth == 0 || g.chance(0.3) {
            return match g.below(7) {
                0..=2 => Expr::v(VarId(0)),
                3 => Expr::v(VarId(1)),
                4 => Expr::ThreadId,
                5 => Expr::c([i64::MIN, i64::MAX, i64::MAX / 3][g.below(3) as usize]),
                _ => Expr::c(g.range_i64(-12, 12)),
            };
        }
        let mut sub = || random_index(g, depth - 1);
        let (x, y) = (sub(), sub());
        match g.below(12) {
            0..=2 => x + y,
            3 => x - y,
            4 | 5 => x * Expr::c(g.range_i64(-4, 4)),
            6 => x.max(Expr::c(g.range_i64(-5, 9))),
            7 => Expr::c(g.range_i64(0, 39)).min(x),
            8 => x.min(Expr::v(VarId(1))),
            9 => x * y,
            10 => x / y,
            _ => x.index_into(omp_ir::expr::TableId(0)),
        }
    }

    #[test]
    fn closed_form_matches_evaluation() {
        let v = || Expr::v(VarId(0));
        // Hand-written shapes first: each has a form, and it closes on
        // every loop whose linear part stays inside i64.
        let mut indices = vec![
            v() * Expr::c(3) - Expr::c(10),
            Expr::c(40) - v() * Expr::c(2),
            (v() + Expr::c(5)).max(Expr::c(0)).min(Expr::c(30)),
            Expr::c(30).min(Expr::c(-3).max(v() * Expr::c(4) - Expr::c(7))),
            (v() * Expr::c(2)).max(Expr::c(50)).min(Expr::c(10)),
            v() * Expr::c(0) + Expr::c(7),
        ];
        let hand_written = indices.len();
        let mut g = dsm_sim::SplitMix64::new(0x57D1);
        for _ in 0..400 {
            let depth = 1 + g.below(4) as u32;
            indices.push(random_index(&mut g, depth));
        }
        let mut ctx = SimpleCtx::new(2, 3, 8);
        ctx.vars[1] = 6;
        ctx.tables = vec![vec![4, -9, 30, 2]];
        let loops = [
            (-5, 1, 40),
            (0, 3, 13),
            (7, 2, 1),
            (-20, 5, 9),
            (i64::MIN + 10, 7, 12),
            (i64::MAX - 100, 1, 50),
        ];
        // The last two loops run near the ends of i64.
        let ordinary = 4;
        let (mut closed, mut wraps) = (0, 0);
        for (i, index) in indices.iter().enumerate() {
            for (j, &(first, step, trips)) in loops.iter().enumerate() {
                let mut want: Vec<u64> = (0..trips)
                    .map(|k| {
                        ctx.vars[0] = first.wrapping_add((k * step) as i64);
                        index.eval(&ctx).clamp(0, 31) as u64
                    })
                    .collect();
                want.sort_unstable();
                want.dedup();
                let what = format!("{index:?} from {first} step {step} x{trips}");
                let Some(parts) = closed_form(index, VarId(0), &ctx, first, step, trips, 32) else {
                    // Refused: no form, or a linear part that leaves i64.
                    assert!(i >= hand_written || j >= ordinary, "{what}: refused");
                    let form = Affine::in_loop(index, VarId(0), &ctx);
                    if let Some(f) = form {
                        let x = |k: u64| {
                            let var = first as i128 + (k * step) as i128;
                            f.coef(VarId(0)) as i128 * var + f.offset() as i128
                        };
                        let fits = |k| i64::try_from(x(k)).is_ok();
                        assert!(!fits(0) || !fits(trips - 1), "{what}: refused");
                        wraps += 1;
                    }
                    assert!(i >= hand_written || form.is_some(), "{what}: no form");
                    continue;
                };
                let mut got: Vec<u64> = parts.iter().flatten().flat_map(elems).collect();
                got.sort_unstable();
                got.dedup();
                assert_eq!(got, want, "{what}");
                closed += 1;
            }
        }
        assert!(closed > 1000, "{closed} closed forms");
        assert!(wraps > 50, "{wraps} refused for leaving i64");
    }

    #[test]
    fn closed_form_refuses_wrapping_and_nonlinear_indices() {
        let ctx = SimpleCtx::new(1, 0, 1);
        let v = || Expr::v(VarId(0));
        let wraps = v() * Expr::c(i64::MAX);
        assert!(closed_form(&wraps, VarId(0), &ctx, 0, 1, 3, 8).is_none());
        assert!(closed_form(&wraps, VarId(0), &ctx, 1, 1, 1, 8).is_some());
        let square = v() * v();
        assert!(closed_form(&square, VarId(0), &ctx, 0, 1, 3, 8).is_none());
        let modulo = v().rem(Expr::c(3));
        assert!(closed_form(&modulo, VarId(0), &ctx, 0, 1, 3, 8).is_none());
    }

    fn lines(ranges: &[(u64, u64)]) -> Lines {
        let mut l = Lines::default();
        for &(lo, hi) in ranges {
            l.add(lo, hi);
        }
        l.finish(64, true);
        l
    }

    #[test]
    fn lines_merge_overlapping_and_adjacent_ranges() {
        let l = lines(&[(10, 12), (0, 3), (4, 4), (11, 20), (30, 30)]);
        assert_eq!(l.ranges, [(0, 4), (10, 20), (30, 30)]);
        assert_eq!(l.count(), 5 + 11 + 1);
    }

    #[test]
    fn strided_bytes_expand_once_into_lines() {
        let mut l = Lines::default();
        // Every other 64-byte line from line 10, twice, and a contiguous
        // stretch of 40-byte elements over lines 0 to 3.
        l.add_bytes(640, 128, 5, 64);
        l.add_bytes(640, 128, 5, 64);
        l.add_bytes(0, 40, 6, 64);
        assert_eq!(l.strided.len(), 2);
        // Two single lines, one of them already covered.
        l.insert(11);
        l.insert(12);
        l.finish(64, false);
        assert_eq!(l.ranges, [(0, 3), (10, 12), (14, 14), (16, 16), (18, 18)]);
        assert_eq!(l.count(), 10);
    }

    #[test]
    fn window_union_matches_brute_force() {
        let phases: Vec<Vec<(u64, u64)>> = vec![
            vec![(0, 9)],
            vec![(5, 14), (40, 40)],
            vec![],
            vec![(100, 199), (3, 3)],
            vec![(0, 0), (150, 160)],
            vec![(20, 29)],
        ];
        let tidied: Vec<Lines> = phases.iter().map(|p| lines(p)).collect();
        for window in 2..8 {
            let mut want = 0;
            for i in 0..phases.len() {
                let mut set = std::collections::BTreeSet::new();
                for p in &phases[i..(i + window).min(phases.len())] {
                    for &(lo, hi) in p {
                        set.extend(lo..=hi);
                    }
                }
                want = want.max(set.len() as u64);
            }
            assert_eq!(max_window_union(&tidied, window), want, "window {window}");
        }
    }
}
