//! Worksharing schedule resolution and dynamic-loop state.
//!
//! Static schedules are pure arithmetic (each thread computes its chunks
//! independently — "scheduling under this model does not involve any
//! additional synchronization", paper Section 3.2.1) and reuse
//! [`omp_ir::wsloop`]. Dynamic and guided schedules serialize through a
//! shared counter protected by the scheduler lock; [`DynLoopState`] is
//! that counter's logical state.

use omp_ir::node::{ScheduleKind, ScheduleSpec};
use omp_ir::wsloop::{self, Chunk};

/// A schedule with all runtime defaults applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedSchedule {
    /// One contiguous block per thread.
    StaticBlock,
    /// Fixed-size chunks dealt round-robin.
    StaticChunked(u64),
    /// First-come chunks of the given size from a shared counter.
    Dynamic(u64),
    /// Decreasing chunks, bounded below by the given minimum.
    Guided(u64),
    /// Affinity scheduling: own static block first (in chunks of the
    /// given size), then steal from the most-loaded thread.
    Affinity(u64),
}

impl ResolvedSchedule {
    /// True for the affinity extension (per-thread queues + stealing).
    pub fn is_affinity(self) -> bool {
        matches!(self, ResolvedSchedule::Affinity(_))
    }
}

/// Resolve a loop's schedule clause against the environment default.
///
/// * no clause → the compiler default (static block, as in Omni);
/// * `schedule(runtime)` → the `OMP_SCHEDULE` environment value;
/// * missing chunk sizes get the OpenMP defaults (dynamic: 1, guided
///   minimum: 1, static: block).
pub fn resolve_schedule(spec: Option<ScheduleSpec>, env_default: ScheduleSpec) -> ResolvedSchedule {
    let spec = match spec {
        None => ScheduleSpec {
            kind: ScheduleKind::Static,
            chunk: None,
        },
        Some(s) if s.kind == ScheduleKind::Runtime => env_default,
        Some(s) => s,
    };
    match spec.kind {
        ScheduleKind::Static => match spec.chunk {
            None => ResolvedSchedule::StaticBlock,
            Some(c) => ResolvedSchedule::StaticChunked(c),
        },
        ScheduleKind::Dynamic => ResolvedSchedule::Dynamic(spec.chunk.unwrap_or(1)),
        ScheduleKind::Guided => ResolvedSchedule::Guided(spec.chunk.unwrap_or(1)),
        ScheduleKind::Affinity => ResolvedSchedule::Affinity(spec.chunk.unwrap_or(1)),
        // A runtime default of `runtime` is nonsensical; fall back to
        // static.
        ScheduleKind::Runtime => ResolvedSchedule::StaticBlock,
    }
}

/// Shared state of one dynamic/guided loop instance: the index of the
/// first unassigned iteration. Lives behind the scheduler lock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DynLoopState {
    next_iter: u64,
    /// Chunks handed out so far (diagnostic; drives the Fig. 4 scheduling
    /// counters).
    pub grabs: u64,
}

impl DynLoopState {
    /// Fresh loop state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grab the next chunk under `sched` for a loop over
    /// `begin..end` (step `step`) with `nthreads` workers. `None` when the
    /// space is exhausted.
    pub fn next_chunk(
        &mut self,
        sched: ResolvedSchedule,
        begin: i64,
        end: i64,
        step: u64,
        nthreads: u64,
    ) -> Option<Chunk> {
        let r = match sched {
            ResolvedSchedule::Dynamic(c) => {
                wsloop::dynamic_next(begin, end, step, self.next_iter, c)
            }
            ResolvedSchedule::Guided(c) => {
                wsloop::guided_next(begin, end, step, self.next_iter, nthreads, c)
            }
            _ => panic!("next_chunk on a static schedule"),
        };
        if let Some((chunk, next)) = r {
            self.next_iter = next;
            self.grabs += 1;
            Some(chunk)
        } else {
            None
        }
    }

    /// First unassigned iteration index.
    pub fn position(&self) -> u64 {
        self.next_iter
    }

    /// Serialize this loop counter.
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.u64(self.next_iter);
        w.u64(self.grabs);
    }

    /// Restore a loop counter written by [`DynLoopState::snapshot`].
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        Ok(DynLoopState {
            next_iter: r.u64()?,
            grabs: r.u64()?,
        })
    }
}

/// Shared state of one affinity-scheduled loop (the extension the paper
/// cites as \[16\]): every thread owns the iteration range of its static
/// block and drains it from the front in chunks; a thread whose range is
/// empty steals a chunk from the *tail* of the most-loaded thread's
/// range, preserving the victim's front-of-queue affinity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AffinityState {
    /// Per-thread remaining iteration-index ranges `(next, end)`.
    per_thread: Vec<(u64, u64)>,
    /// Chunks handed out.
    pub grabs: u64,
    /// Chunks that were steals.
    pub steals: u64,
}

/// Outcome of one affinity grab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffinityGrab {
    /// The iteration-value chunk to execute.
    pub chunk: Chunk,
    /// Which thread's queue supplied it.
    pub victim: u64,
    /// True when `victim != self` (a steal).
    pub stolen: bool,
}

impl AffinityState {
    /// Initialize per-thread ranges for a loop of `n` iterations split
    /// over `nthreads` static blocks.
    pub fn init(n: u64, nthreads: u64) -> Self {
        let per = n.div_ceil(nthreads);
        let per_thread = (0..nthreads)
            .map(|t| ((t * per).min(n), ((t + 1) * per).min(n)))
            .collect();
        AffinityState {
            per_thread,
            grabs: 0,
            steals: 0,
        }
    }

    /// True once `init` ran (the engine initializes lazily on first grab).
    pub fn is_initialized(&self) -> bool {
        !self.per_thread.is_empty()
    }

    /// Iterations remaining in `tid`'s own queue.
    pub fn remaining(&self, tid: u64) -> u64 {
        let (next, end) = self.per_thread[tid as usize];
        end - next
    }

    /// Grab the next chunk for `tid`: own queue first, else steal from
    /// the most-loaded thread. Returns `None` when the whole space is
    /// drained. `begin`/`step` map iteration indices to values.
    pub fn next_chunk(
        &mut self,
        tid: u64,
        chunk: u64,
        begin: i64,
        step: u64,
    ) -> Option<AffinityGrab> {
        debug_assert!(self.is_initialized() && chunk > 0);
        let t = tid as usize;
        let to_values = |lo: u64, hi: u64| Chunk {
            lo: begin + lo as i64 * step as i64,
            hi: begin + hi as i64 * step as i64,
        };
        // Own queue: take from the front.
        let (next, end) = self.per_thread[t];
        if next < end {
            let hi = (next + chunk).min(end);
            self.per_thread[t].0 = hi;
            self.grabs += 1;
            return Some(AffinityGrab {
                chunk: to_values(next, hi),
                victim: tid,
                stolen: false,
            });
        }
        // Steal: from the tail of the most-loaded queue.
        let victim = (0..self.per_thread.len())
            .max_by_key(|&v| self.per_thread[v].1 - self.per_thread[v].0)?;
        let (vnext, vend) = self.per_thread[victim];
        if vnext >= vend {
            return None; // everything drained
        }
        let lo = vend.saturating_sub(chunk).max(vnext);
        self.per_thread[victim].1 = lo;
        self.grabs += 1;
        self.steals += 1;
        Some(AffinityGrab {
            chunk: to_values(lo, vend),
            victim: victim as u64,
            stolen: true,
        })
    }

    /// Serialize the per-thread ranges and counters.
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.seq(&self.per_thread, |w, &(next, end)| {
            w.u64(next);
            w.u64(end);
        });
        w.u64(self.grabs);
        w.u64(self.steals);
    }

    /// Restore state written by [`AffinityState::snapshot`].
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        Ok(AffinityState {
            per_thread: r.seq(|r| Ok((r.u64()?, r.u64()?)))?,
            grabs: r.u64()?,
            steals: r.u64()?,
        })
    }
}

/// Static chunks for one thread (no shared state needed).
pub fn static_chunks(
    sched: ResolvedSchedule,
    begin: i64,
    end: i64,
    step: u64,
    nthreads: u64,
    tid: u64,
) -> Vec<Chunk> {
    match sched {
        ResolvedSchedule::StaticBlock => {
            vec![wsloop::static_block(begin, end, step, nthreads, tid)]
        }
        ResolvedSchedule::StaticChunked(c) => {
            wsloop::static_chunked(begin, end, step, nthreads, tid, c).collect()
        }
        _ => panic!("static_chunks on a dynamic schedule"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_static() -> ScheduleSpec {
        ScheduleSpec {
            kind: ScheduleKind::Static,
            chunk: None,
        }
    }

    #[test]
    fn resolution_defaults() {
        assert_eq!(
            resolve_schedule(None, env_static()),
            ResolvedSchedule::StaticBlock
        );
        assert_eq!(
            resolve_schedule(Some(ScheduleSpec::dynamic(4)), env_static()),
            ResolvedSchedule::Dynamic(4)
        );
        assert_eq!(
            resolve_schedule(
                Some(ScheduleSpec {
                    kind: ScheduleKind::Dynamic,
                    chunk: None
                }),
                env_static()
            ),
            ResolvedSchedule::Dynamic(1),
            "OpenMP default dynamic chunk is 1"
        );
        assert_eq!(
            resolve_schedule(
                Some(ScheduleSpec {
                    kind: ScheduleKind::Guided,
                    chunk: None
                }),
                env_static()
            ),
            ResolvedSchedule::Guided(1)
        );
    }

    #[test]
    fn runtime_kind_uses_environment() {
        let spec = Some(ScheduleSpec {
            kind: ScheduleKind::Runtime,
            chunk: None,
        });
        assert_eq!(
            resolve_schedule(spec, ScheduleSpec::dynamic(8)),
            ResolvedSchedule::Dynamic(8)
        );
    }

    #[test]
    fn dynamic_state_hands_out_disjoint_chunks() {
        let mut st = DynLoopState::new();
        let mut seen = [false; 10];
        while let Some(c) = st.next_chunk(ResolvedSchedule::Dynamic(3), 0, 10, 1, 4) {
            for i in c.lo..c.hi {
                assert!(!seen[i as usize]);
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(st.grabs, 4); // 3+3+3+1
        assert_eq!(st.position(), 10);
    }

    #[test]
    fn guided_state_decreases() {
        let mut st = DynLoopState::new();
        let mut last = u64::MAX;
        while let Some(c) = st.next_chunk(ResolvedSchedule::Guided(2), 0, 64, 1, 4) {
            let sz = c.trip_count(1);
            assert!(sz <= last);
            last = sz;
        }
        assert!(st.grabs > 4);
    }

    #[test]
    fn affinity_drains_own_block_then_steals() {
        let mut st = AffinityState::init(40, 4);
        assert!(st.is_initialized());
        assert_eq!(st.remaining(0), 10);
        // Thread 0 drains its own 10 iterations in chunks of 4.
        let g1 = st.next_chunk(0, 4, 0, 1).unwrap();
        assert!(!g1.stolen);
        assert_eq!((g1.chunk.lo, g1.chunk.hi), (0, 4));
        let g2 = st.next_chunk(0, 4, 0, 1).unwrap();
        assert_eq!((g2.chunk.lo, g2.chunk.hi), (4, 8));
        let g3 = st.next_chunk(0, 4, 0, 1).unwrap();
        assert_eq!((g3.chunk.lo, g3.chunk.hi), (8, 10));
        // Own block empty: the next grab steals from a full queue's tail.
        let g4 = st.next_chunk(0, 4, 0, 1).unwrap();
        assert!(g4.stolen);
        assert_ne!(g4.victim, 0);
        assert_eq!(g4.chunk.hi - g4.chunk.lo, 4);
        assert_eq!(st.steals, 1);
    }

    #[test]
    fn affinity_covers_the_space_exactly_under_any_interleaving() {
        // Threads grab in a rotating order; every iteration must execute
        // exactly once.
        let n = 57u64;
        let t = 5u64;
        let mut st = AffinityState::init(n, t);
        let mut seen = vec![0u32; n as usize];
        let mut active = true;
        let mut turn = 0u64;
        while active {
            active = false;
            for k in 0..t {
                let tid = (turn + k) % t;
                if let Some(g) = st.next_chunk(tid, 3, 0, 1) {
                    for i in g.chunk.lo..g.chunk.hi {
                        seen[i as usize] += 1;
                    }
                    active = true;
                }
            }
            turn += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
        assert_eq!(st.grabs, st.steals + st.grabs - st.steals);
    }

    #[test]
    fn affinity_maps_iteration_space_with_begin_offset() {
        let mut st = AffinityState::init(8, 2);
        let g = st.next_chunk(1, 8, 100, 1).unwrap();
        // Thread 1's block is iterations 4..8 -> values 104..108.
        assert_eq!((g.chunk.lo, g.chunk.hi), (104, 108));
    }

    #[test]
    fn affinity_resolution() {
        assert_eq!(
            resolve_schedule(Some(ScheduleSpec::affinity(6)), env_static()),
            ResolvedSchedule::Affinity(6)
        );
        assert!(ResolvedSchedule::Affinity(1).is_affinity());
        assert!(!ResolvedSchedule::Dynamic(1).is_affinity());
    }

    #[test]
    fn static_chunks_cover_space() {
        let mut seen = [0u32; 37];
        for tid in 0..5 {
            for c in static_chunks(ResolvedSchedule::StaticChunked(3), 0, 37, 1, 5, tid) {
                for i in c.lo..c.hi {
                    seen[i as usize] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
    }
}
