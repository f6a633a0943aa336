//! Reference tracer: machine-independent operation counts.
//!
//! Walks a program the way an idealized OpenMP runtime would and counts
//! user-level operations (loads, stores, atomics, compute cycles, I/O) and
//! synchronization episodes. The machine interpreter in the `slipstream`
//! crate must produce exactly these user-operation totals when running in
//! single mode — the integration tests use this as a semantic oracle.
//!
//! Totals are deterministic even for dynamic/guided schedules (every
//! iteration executes exactly once, somewhere); *per-thread* counts are
//! only meaningful for fully static programs, and
//! [`TraceSummary::per_thread_deterministic`] says whether they are.

use crate::expr::{SimpleCtx, VarId};
use crate::node::{Node, Program, ScheduleKind, ScheduleSpec};
use crate::wsloop;

/// Operation counts for one thread (or totals across the team).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// User loads.
    pub loads: u64,
    /// User stores.
    pub stores: u64,
    /// Atomic updates.
    pub atomics: u64,
    /// Busy cycles requested by `Compute` nodes.
    pub compute_cycles: u64,
    /// Input operations.
    pub io_in: u64,
    /// Output operations.
    pub io_out: u64,
}

impl OpCounts {
    /// Add `o`'s counts into these.
    pub fn merge(&mut self, o: &OpCounts) {
        self.loads += o.loads;
        self.stores += o.stores;
        self.atomics += o.atomics;
        self.compute_cycles += o.compute_cycles;
        self.io_in += o.io_in;
        self.io_out += o.io_out;
    }
}

/// Result of tracing a program at a given team size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Team size used.
    pub num_threads: u64,
    /// Per-thread user-operation counts (see
    /// [`Self::per_thread_deterministic`]).
    pub per_thread: Vec<OpCounts>,
    /// Team-wide totals (always deterministic).
    pub total: OpCounts,
    /// Barrier episodes (explicit + implicit), counted once per episode.
    pub barrier_episodes: u64,
    /// Critical-section entries across the team.
    pub critical_entries: u64,
    /// Reduction combines across the team.
    pub reduction_combines: u64,
    /// Parallel regions entered.
    pub parallel_regions: u64,
    /// False when the program uses dynamic/guided schedules, `single`, or
    /// `sections`, whose thread assignment is timing-dependent; totals
    /// remain exact but per-thread counts attribute such work to thread 0.
    pub per_thread_deterministic: bool,
}

struct Tracer<'p> {
    program: &'p Program,
    nthreads: u64,
    per_thread: Vec<OpCounts>,
    barrier_episodes: u64,
    critical_entries: u64,
    reduction_combines: u64,
    parallel_regions: u64,
    deterministic: bool,
}

impl<'p> Tracer<'p> {
    fn ctx(&self, tid: u64) -> SimpleCtx {
        let mut c = SimpleCtx::new(
            self.program.num_vars as usize,
            tid as i64,
            self.nthreads as i64,
        );
        c.tables = self.program.tables.clone();
        c
    }

    /// Execute the body for iteration range [lo, hi) of var `var`.
    #[allow(clippy::too_many_arguments)]
    fn run_chunk(
        &mut self,
        tid: u64,
        ctx: &mut SimpleCtx,
        var: VarId,
        lo: i64,
        hi: i64,
        step: u64,
        body: &Node,
    ) {
        let mut i = lo;
        while i < hi {
            ctx.vars[var.0 as usize] = i;
            self.serial_node(tid, ctx, body);
            i += step as i64;
        }
    }

    /// Statements legal inside a worksharing body or serial code (no team
    /// constructs).
    fn serial_node(&mut self, tid: u64, ctx: &mut SimpleCtx, n: &Node) {
        match n {
            Node::Seq(v) => {
                for c in v {
                    self.serial_node(tid, ctx, c);
                }
            }
            Node::Compute(e) => {
                self.per_thread[tid as usize].compute_cycles += e.eval(ctx).max(0) as u64;
            }
            Node::Load { index, .. } => {
                index.eval(ctx);
                self.per_thread[tid as usize].loads += 1;
            }
            Node::Store { index, .. } => {
                index.eval(ctx);
                self.per_thread[tid as usize].stores += 1;
            }
            Node::Atomic { index, .. } => {
                index.eval(ctx);
                self.per_thread[tid as usize].atomics += 1;
            }
            Node::For {
                var,
                begin,
                end,
                step,
                body,
            } => {
                let lo = begin.eval(ctx);
                let hi = end.eval(ctx);
                self.run_chunk(tid, ctx, *var, lo, hi, *step, body);
            }
            Node::Io { input, .. } => {
                if *input {
                    self.per_thread[tid as usize].io_in += 1;
                } else {
                    self.per_thread[tid as usize].io_out += 1;
                }
            }
            Node::Critical { body, .. } => {
                self.critical_entries += 1;
                self.serial_node(tid, ctx, body);
            }
            Node::Flush => {}
            other => panic!("construct not valid here in trace: {other:?}"),
        }
    }

    /// One thread's walk of a parallel-region body. Constructs whose
    /// executor is timing-dependent run on tid 0 and mark the trace
    /// non-deterministic per-thread.
    fn region_node(&mut self, tid: u64, ctx: &mut SimpleCtx, n: &Node) {
        match n {
            Node::Seq(v) => {
                for c in v {
                    self.region_node(tid, ctx, c);
                }
            }
            Node::ParFor {
                sched,
                var,
                begin,
                end,
                body,
                reduction,
                nowait,
            } => {
                let lo = begin.eval(ctx);
                let hi = end.eval(ctx);
                let spec = sched.unwrap_or(ScheduleSpec {
                    kind: ScheduleKind::Static,
                    chunk: None,
                });
                match spec.kind {
                    ScheduleKind::Static => match spec.chunk {
                        None => {
                            let c = wsloop::static_block(lo, hi, 1, self.nthreads, tid);
                            self.run_chunk(tid, ctx, *var, c.lo, c.hi, 1, body);
                        }
                        Some(ch) => {
                            for c in wsloop::static_chunked(lo, hi, 1, self.nthreads, tid, ch) {
                                self.run_chunk(tid, ctx, *var, c.lo, c.hi, 1, body);
                            }
                        }
                    },
                    ScheduleKind::Dynamic
                    | ScheduleKind::Guided
                    | ScheduleKind::Affinity
                    | ScheduleKind::Runtime => {
                        self.deterministic = false;
                        if tid == 0 {
                            self.run_chunk(tid, ctx, *var, lo, hi, 1, body);
                        }
                    }
                }
                if reduction.is_some() {
                    // One combine per team member (each thread walks this
                    // node once).
                    self.reduction_combines += 1;
                }
                if !nowait && tid == 0 {
                    self.barrier_episodes += 1;
                }
            }
            Node::Barrier => {
                if tid == 0 {
                    self.barrier_episodes += 1;
                }
            }
            Node::Single(body) => {
                self.deterministic = false;
                if tid == 0 {
                    self.serial_node(tid, ctx, body);
                    self.barrier_episodes += 1; // implicit end barrier
                }
            }
            Node::Master(body) => {
                if tid == 0 {
                    self.serial_node(tid, ctx, body);
                }
            }
            Node::Sections(secs) => {
                self.deterministic = false;
                if tid == 0 {
                    for s in secs {
                        self.serial_node(tid, ctx, s);
                    }
                    self.barrier_episodes += 1; // implicit end barrier
                }
            }
            Node::For {
                var,
                begin,
                end,
                step,
                body,
            } => {
                // A sequential loop in region context may contain
                // worksharing constructs (the common "iteration loop
                // inside one parallel region" idiom); walk its body at
                // region level.
                let lo = begin.eval(ctx);
                let hi = end.eval(ctx);
                let mut i = lo;
                while i < hi {
                    ctx.vars[var.0 as usize] = i;
                    self.region_node(tid, ctx, body);
                    i += *step as i64;
                }
            }
            other => self.serial_node(tid, ctx, other),
        }
    }

    fn top(&mut self, n: &Node) {
        match n {
            Node::Seq(v) => {
                for c in v {
                    self.top(c);
                }
            }
            Node::Parallel { body, .. } => {
                self.parallel_regions += 1;
                for tid in 0..self.nthreads {
                    let mut ctx = self.ctx(tid);
                    self.region_node(tid, &mut ctx, body);
                }
                self.barrier_episodes += 1; // implicit region-end barrier
            }
            Node::SlipstreamSet(_) => {}
            other => {
                // Serial code runs on the master (thread 0).
                let mut ctx = self.ctx(0);
                self.serial_node(0, &mut ctx, other);
            }
        }
    }
}

/// Trace `program` with a team of `num_threads`.
pub fn trace(program: &Program, num_threads: u64) -> TraceSummary {
    assert!(num_threads > 0);
    let mut t = Tracer {
        program,
        nthreads: num_threads,
        per_thread: vec![OpCounts::default(); num_threads as usize],
        barrier_episodes: 0,
        critical_entries: 0,
        reduction_combines: 0,
        parallel_regions: 0,
        deterministic: true,
    };
    t.top(&program.body);
    let mut total = OpCounts::default();
    for pt in &t.per_thread {
        total.merge(pt);
    }
    TraceSummary {
        num_threads,
        per_thread: t.per_thread,
        total,
        barrier_episodes: t.barrier_episodes,
        critical_entries: t.critical_entries,
        reduction_combines: t.reduction_combines,
        parallel_regions: t.parallel_regions,
        per_thread_deterministic: t.deterministic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::Expr;
    use crate::node::ReductionOp;

    fn saxpy(n: i64) -> Program {
        let mut b = ProgramBuilder::new("saxpy");
        let x = b.shared_array("x", n as u64, 8);
        let y = b.shared_array("y", n as u64, 8);
        let i = b.var();
        b.parallel(|r| {
            r.par_for(None, i, 0, n, |body| {
                body.load(x, Expr::v(i));
                body.load(y, Expr::v(i));
                body.compute(2);
                body.store(y, Expr::v(i));
            });
        });
        b.build()
    }

    #[test]
    fn static_loop_totals_are_exact() {
        let p = saxpy(100);
        let t = trace(&p, 4);
        assert_eq!(t.total.loads, 200);
        assert_eq!(t.total.stores, 100);
        assert_eq!(t.total.compute_cycles, 200);
        assert!(t.per_thread_deterministic);
        // Blocked static: each thread gets 25 iterations.
        for pt in &t.per_thread {
            assert_eq!(pt.loads, 50);
            assert_eq!(pt.stores, 25);
        }
        // Implicit loop barrier + region-end barrier.
        assert_eq!(t.barrier_episodes, 2);
        assert_eq!(t.parallel_regions, 1);
    }

    #[test]
    fn totals_independent_of_team_size() {
        let p = saxpy(97);
        let t2 = trace(&p, 2);
        let t8 = trace(&p, 8);
        assert_eq!(t2.total, t8.total);
    }

    #[test]
    fn dynamic_totals_match_static_totals() {
        let n = 60i64;
        let build = |sched| {
            let mut b = ProgramBuilder::new("d");
            let a = b.shared_array("a", n as u64, 8);
            let i = b.var();
            b.parallel(move |r| {
                r.par_for(sched, i, 0, n, |body| {
                    body.load(a, Expr::v(i));
                });
            });
            b.build()
        };
        let st = trace(&build(None), 4);
        let dy = trace(&build(Some(crate::node::ScheduleSpec::dynamic(4))), 4);
        assert_eq!(st.total, dy.total);
        assert!(st.per_thread_deterministic);
        assert!(!dy.per_thread_deterministic);
    }

    #[test]
    fn nested_sequential_loops_multiply() {
        let mut b = ProgramBuilder::new("n2");
        let a = b.shared_array("a", 64, 8);
        let i = b.var();
        let j = b.var();
        b.parallel(|r| {
            r.par_for(None, i, 0, 8, |body| {
                body.for_loop(j, 0, 8, |inner| {
                    inner.load(a, Expr::v(i) * 8 + Expr::v(j));
                });
            });
        });
        let t = trace(&b.build(), 2);
        assert_eq!(t.total.loads, 64);
    }

    #[test]
    fn loop_bound_depending_on_induction_var() {
        // Triangular loop: sum_{i=0}^{9} i = 45 loads.
        let mut b = ProgramBuilder::new("tri");
        let a = b.shared_array("a", 10, 8);
        let i = b.var();
        let j = b.var();
        b.parallel(|r| {
            r.par_for(None, i, 0, 10, |body| {
                body.for_loop(j, 0, Expr::v(i), |inner| {
                    inner.load(a, Expr::v(j));
                });
            });
        });
        let t = trace(&b.build(), 3);
        assert_eq!(t.total.loads, 45);
    }

    #[test]
    fn master_single_sections_counts() {
        let mut b = ProgramBuilder::new("ms");
        let a = b.shared_array("a", 8, 8);
        b.parallel(|r| {
            r.master(|m| m.store(a, 0));
            r.single(|s| s.store(a, 1));
            r.sections(3, |idx, sec| sec.store(a, idx as i64));
            r.critical("c", |c| c.load(a, 0));
        });
        let t = trace(&b.build(), 4);
        // master once + single once + 3 sections = 5 stores total.
        assert_eq!(t.total.stores, 5);
        // critical entered by all 4 threads.
        assert_eq!(t.total.loads, 4);
        assert_eq!(t.critical_entries, 4);
        // single end + sections end + region end = 3 episodes.
        assert_eq!(t.barrier_episodes, 3);
        assert!(!t.per_thread_deterministic);
    }

    #[test]
    fn reduction_combines_counted_per_thread() {
        let mut b = ProgramBuilder::new("red");
        let a = b.shared_array("a", 100, 8);
        let r0 = b.shared_array("sum", 1, 8);
        let i = b.var();
        b.parallel(|r| {
            r.par_for_reduce(None, i, 0, 100, ReductionOp::Sum, r0, 0, |body| {
                body.load(a, Expr::v(i));
            });
        });
        let t = trace(&b.build(), 8);
        assert_eq!(t.reduction_combines, 8);
    }

    #[test]
    fn serial_code_runs_once_on_master() {
        let mut b = ProgramBuilder::new("s");
        let a = b.shared_array("a", 4, 8);
        b.serial(|s| {
            s.io(true, 1024);
            s.store(a, 0);
        });
        b.parallel(|r| r.flush());
        let t = trace(&b.build(), 4);
        assert_eq!(t.total.io_in, 1);
        assert_eq!(t.total.stores, 1);
        assert_eq!(t.per_thread[0].stores, 1);
        assert_eq!(t.per_thread[1].stores, 0);
    }
}
