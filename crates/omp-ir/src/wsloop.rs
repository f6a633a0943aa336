//! Pure worksharing iteration-space math.
//!
//! Splitting a loop's iteration space among threads is arithmetic shared
//! by the runtime's scheduler and by the reference tracer, so it lives
//! here with no machine state attached. Iteration spaces are normalized to
//! `begin..end` with a positive step.

/// A contiguous chunk of the iteration space: `lo..hi` stepping by `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First iteration value (inclusive).
    pub lo: i64,
    /// End of the chunk (exclusive).
    pub hi: i64,
}

impl Chunk {
    /// Number of iterations in the chunk for a given step.
    pub fn trip_count(&self, step: u64) -> u64 {
        if self.hi <= self.lo {
            0
        } else {
            ((self.hi - self.lo) as u64).div_ceil(step)
        }
    }
}

/// Total trip count of `begin..end` with `step`.
pub fn trip_count(begin: i64, end: i64, step: u64) -> u64 {
    if end <= begin {
        0
    } else {
        ((end - begin) as u64).div_ceil(step)
    }
}

/// Static schedule without a chunk clause: one contiguous block per
/// thread, sized `ceil(n / nthreads)` (the Omni/most-compilers default).
/// Returns the single chunk for `tid`, possibly empty.
pub fn static_block(begin: i64, end: i64, step: u64, nthreads: u64, tid: u64) -> Chunk {
    debug_assert!(tid < nthreads);
    let n = trip_count(begin, end, step);
    if n == 0 {
        return Chunk {
            lo: begin,
            hi: begin,
        };
    }
    let per = n.div_ceil(nthreads);
    let first_iter = (tid * per).min(n);
    let last_iter = ((tid + 1) * per).min(n);
    Chunk {
        lo: begin + (first_iter as i64) * step as i64,
        hi: begin + (last_iter as i64) * step as i64,
    }
}

/// Static schedule with a chunk clause: chunks of `chunk` iterations dealt
/// round-robin. Yields the chunks owned by `tid`, in iteration order,
/// lazily: a thread may own more chunks than fit in memory.
pub fn static_chunked(
    begin: i64,
    end: i64,
    step: u64,
    nthreads: u64,
    tid: u64,
    chunk: u64,
) -> impl Iterator<Item = Chunk> {
    debug_assert!(tid < nthreads && chunk > 0);
    let n = trip_count(begin, end, step);
    let at = move |it: u64| begin + it as i64 * step as i64;
    (tid * chunk..n)
        .step_by((nthreads * chunk) as usize)
        .map(move |c| Chunk {
            lo: at(c),
            hi: at((c + chunk).min(n)),
        })
}

/// The next chunk a dynamic scheduler hands out, given `remaining_start`
/// (the first unassigned iteration index) and the chunk size. Pure helper
/// used by the runtime's shared counter protocol.
pub fn dynamic_next(
    begin: i64,
    end: i64,
    step: u64,
    remaining_start: u64,
    chunk: u64,
) -> Option<(Chunk, u64)> {
    let n = trip_count(begin, end, step);
    if remaining_start >= n {
        return None;
    }
    let hi_it = (remaining_start + chunk).min(n);
    Some((
        Chunk {
            lo: begin + remaining_start as i64 * step as i64,
            hi: begin + hi_it as i64 * step as i64,
        },
        hi_it,
    ))
}

/// The next chunk a guided scheduler hands out: chunk size is
/// `max(remaining / nthreads, min_chunk)`, geometrically decreasing.
pub fn guided_next(
    begin: i64,
    end: i64,
    step: u64,
    remaining_start: u64,
    nthreads: u64,
    min_chunk: u64,
) -> Option<(Chunk, u64)> {
    let n = trip_count(begin, end, step);
    if remaining_start >= n {
        return None;
    }
    let remaining = n - remaining_start;
    let size = (remaining / nthreads).max(min_chunk).max(1);
    dynamic_next(begin, end, step, remaining_start, size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trip_counts() {
        assert_eq!(trip_count(0, 10, 1), 10);
        assert_eq!(trip_count(0, 10, 3), 4);
        assert_eq!(trip_count(5, 5, 1), 0);
        assert_eq!(trip_count(10, 5, 1), 0);
        assert_eq!(trip_count(-4, 4, 2), 4);
    }

    #[test]
    fn static_block_covers_space_exactly_once() {
        for (n, t) in [(100i64, 8u64), (7, 8), (64, 4), (1, 3), (0, 2)] {
            let mut seen = vec![0u32; n.max(0) as usize];
            for tid in 0..t {
                let c = static_block(0, n, 1, t, tid);
                for i in c.lo..c.hi {
                    seen[i as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&s| s == 1), "n={n} t={t}: {seen:?}");
        }
    }

    #[test]
    fn static_block_respects_step() {
        // 0..10 step 3 -> iterations {0,3,6,9}, 2 threads -> 2 each.
        let c0 = static_block(0, 10, 3, 2, 0);
        let c1 = static_block(0, 10, 3, 2, 1);
        assert_eq!(c0, Chunk { lo: 0, hi: 6 });
        assert_eq!(c1, Chunk { lo: 6, hi: 12 });
        assert_eq!(c0.trip_count(3), 2);
        assert_eq!(c1.trip_count(3), 2);
    }

    #[test]
    fn static_chunked_is_round_robin_and_complete() {
        let n = 23i64;
        let t = 3u64;
        let mut seen = vec![0u32; n as usize];
        for tid in 0..t {
            for c in static_chunked(0, n, 1, t, tid, 4) {
                for i in c.lo..c.hi {
                    seen[i as usize] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
        // Thread 0 owns chunks starting at iterations 0 and 12.
        let t0: Vec<Chunk> = static_chunked(0, n, 1, t, 0, 4).collect();
        assert_eq!(t0, vec![Chunk { lo: 0, hi: 4 }, Chunk { lo: 12, hi: 16 }]);
    }

    #[test]
    fn dynamic_next_walks_the_space() {
        let mut start = 0;
        let mut chunks = Vec::new();
        while let Some((c, next)) = dynamic_next(0, 10, 1, start, 4) {
            chunks.push(c);
            start = next;
        }
        assert_eq!(
            chunks,
            vec![
                Chunk { lo: 0, hi: 4 },
                Chunk { lo: 4, hi: 8 },
                Chunk { lo: 8, hi: 10 }
            ]
        );
    }

    #[test]
    fn guided_chunks_decrease() {
        let mut start = 0;
        let mut sizes = Vec::new();
        while let Some((c, next)) = guided_next(0, 100, 1, start, 4, 1) {
            sizes.push(c.trip_count(1));
            start = next;
        }
        assert_eq!(sizes.iter().sum::<u64>(), 100);
        for w in sizes.windows(2) {
            assert!(w[1] <= w[0], "guided sizes must not grow: {sizes:?}");
        }
        assert_eq!(sizes[0], 25);
    }

    #[test]
    fn empty_spaces_yield_nothing() {
        assert_eq!(dynamic_next(0, 0, 1, 0, 4), None);
        assert_eq!(guided_next(5, 5, 1, 0, 2, 1), None);
        let c = static_block(3, 3, 1, 4, 2);
        assert_eq!(c.trip_count(1), 0);
    }
}
