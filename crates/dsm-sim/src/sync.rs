//! Logical synchronization objects of the simulated machine.
//!
//! These structures carry the *bookkeeping* of barriers, locks, and
//! semaphores — who has arrived, who holds, who waits. The *timing* of each
//! operation is charged by the execution layer, which issues the underlying
//! shared-memory or pair-register accesses through [`crate::memsys`] so
//! serialization and data migration emerge from the coherence protocol.
//!
//! The token semaphore of the paper's Figure 1 (A–R synchronization) is a
//! [`Semaphore`]: the R-stream inserts tokens (at barrier entry for local
//! sync, at barrier exit for global sync), the A-stream consumes one per
//! skipped barrier, and blocks when the count is exhausted.

use crate::address::{Addr, CpuId};
use std::collections::VecDeque;

/// A centralized sense-reversing barrier.
#[derive(Debug)]
pub struct Barrier {
    total: usize,
    arrived: usize,
    generation: u64,
    waiters: Vec<CpuId>,
    /// Shared-memory address of the barrier's counter/flag line; arrivals
    /// are atomic updates to this line.
    pub addr: Addr,
}

impl Barrier {
    /// A barrier for `total` participants, backed by the shared line at
    /// `addr`.
    pub fn new(total: usize, addr: Addr) -> Self {
        assert!(total > 0);
        Barrier {
            total,
            arrived: 0,
            generation: 0,
            waiters: Vec::new(),
            addr,
        }
    }

    /// Current participant count.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Completed barrier episodes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Register an arrival. Returns `Some(waiters)` — the processors to
    /// wake — when this arrival releases the barrier (the arriving
    /// processor is *not* in the list); `None` if the arriver must wait.
    pub fn arrive(&mut self, cpu: CpuId) -> Option<Vec<CpuId>> {
        debug_assert!(!self.waiters.contains(&cpu), "double arrival");
        self.arrived += 1;
        if self.arrived == self.total {
            self.arrived = 0;
            self.generation += 1;
            Some(std::mem::take(&mut self.waiters))
        } else {
            self.waiters.push(cpu);
            None
        }
    }

    /// Number of processors currently parked at the barrier.
    pub fn waiting(&self) -> usize {
        self.waiters.len()
    }

    /// Arrivals registered in the current episode (0 right after a
    /// release). Trace hooks read this to annotate arrive events.
    pub fn arrived(&self) -> usize {
        self.arrived
    }

    /// Serialize the full barrier state (participants, arrivals, waiters).
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.usize(self.total);
        w.usize(self.arrived);
        w.u64(self.generation);
        w.seq(&self.waiters, |w, c| w.usize(c.0));
        w.u64(self.addr);
    }

    /// Restore a barrier written by [`Barrier::snapshot`].
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        Ok(Barrier {
            total: r.usize()?,
            arrived: r.usize()?,
            generation: r.u64()?,
            waiters: r.seq(|r| Ok(CpuId(r.usize()?)))?,
            addr: r.u64()?,
        })
    }
}

/// A FIFO queueing lock.
#[derive(Debug)]
pub struct Lock {
    holder: Option<CpuId>,
    queue: VecDeque<CpuId>,
    /// Shared-memory address of the lock word.
    pub addr: Addr,
    /// Total acquisitions (diagnostic).
    pub acquisitions: u64,
}

impl Lock {
    /// A free lock backed by the shared line at `addr`.
    pub fn new(addr: Addr) -> Self {
        Lock {
            holder: None,
            queue: VecDeque::new(),
            addr,
            acquisitions: 0,
        }
    }

    /// Try to take the lock. Returns true if granted immediately; false if
    /// the caller is enqueued.
    pub fn acquire(&mut self, cpu: CpuId) -> bool {
        if self.holder.is_none() {
            self.holder = Some(cpu);
            self.acquisitions += 1;
            true
        } else {
            debug_assert!(self.holder != Some(cpu), "recursive acquire");
            self.queue.push_back(cpu);
            false
        }
    }

    /// Release the lock. Returns the next holder to wake, if any.
    pub fn release(&mut self, cpu: CpuId) -> Option<CpuId> {
        assert_eq!(self.holder, Some(cpu), "release by non-holder");
        self.holder = self.queue.pop_front();
        if self.holder.is_some() {
            self.acquisitions += 1;
        }
        self.holder
    }

    /// Current holder.
    pub fn holder(&self) -> Option<CpuId> {
        self.holder
    }

    /// Processors queued behind the holder.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Serialize the full lock state (holder, FIFO queue, counters).
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.opt(&self.holder, |w, c| w.usize(c.0));
        w.deque(&self.queue, |w, c| w.usize(c.0));
        w.u64(self.addr);
        w.u64(self.acquisitions);
    }

    /// Restore a lock written by [`Lock::snapshot`].
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        Ok(Lock {
            holder: r.opt(|r| Ok(CpuId(r.usize()?)))?,
            queue: r.deque(|r| Ok(CpuId(r.usize()?)))?,
            addr: r.u64()?,
            acquisitions: r.u64()?,
        })
    }
}

/// A counting semaphore (the slipstream token semaphore and the syscall /
/// scheduling-handshake semaphores of the paper).
#[derive(Debug)]
pub struct Semaphore {
    count: u64,
    queue: VecDeque<CpuId>,
    /// Address of the backing register/line. For A–R pair semaphores this
    /// is a pair-shared hardware register (cheap access); the execution
    /// layer decides the charge.
    pub addr: Addr,
    /// Total tokens ever inserted (diagnostic; used by divergence checks).
    pub inserted: u64,
    /// Total tokens ever consumed (diagnostic).
    pub consumed: u64,
}

impl Semaphore {
    /// A semaphore with `initial` tokens, backed by `addr`.
    pub fn new(initial: u64, addr: Addr) -> Self {
        Semaphore {
            count: initial,
            queue: VecDeque::new(),
            addr,
            inserted: 0,
            consumed: 0,
        }
    }

    /// Current token count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Consume a token. Returns true if one was available; false if the
    /// caller is parked until a signal.
    pub fn wait(&mut self, cpu: CpuId) -> bool {
        if self.count > 0 {
            self.count -= 1;
            self.consumed += 1;
            true
        } else {
            self.queue.push_back(cpu);
            false
        }
    }

    /// Insert a token. If a processor is parked, it is granted the token
    /// directly and returned for waking. The count saturates at
    /// `u64::MAX`, a bound no run can consume down from.
    pub fn signal(&mut self) -> Option<CpuId> {
        self.inserted += 1;
        if let Some(cpu) = self.queue.pop_front() {
            self.consumed += 1;
            Some(cpu)
        } else {
            self.count = self.count.saturating_add(1);
            None
        }
    }

    /// Reset to `tokens` with no waiters (start of a parallel region).
    pub fn reset(&mut self, tokens: u64) {
        assert!(self.queue.is_empty(), "reset with parked waiters");
        self.count = tokens;
        self.inserted = 0;
        self.consumed = 0;
    }

    /// Reset to `tokens`, evicting any parked waiters. Returns the
    /// evicted processors so the caller can re-dispatch them; none of
    /// them is granted a token. Recovery paths use this when a fault has
    /// left a processor parked in the queue (plain [`Semaphore::reset`]
    /// insists the queue is empty).
    pub fn force_reset(&mut self, tokens: u64) -> Vec<CpuId> {
        let evicted: Vec<CpuId> = self.queue.drain(..).collect();
        self.count = tokens;
        self.inserted = 0;
        self.consumed = 0;
        evicted
    }

    /// Parked processors.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Serialize the full semaphore state (count, parked queue, counters).
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.u64(self.count);
        w.deque(&self.queue, |w, c| w.usize(c.0));
        w.u64(self.addr);
        w.u64(self.inserted);
        w.u64(self.consumed);
    }

    /// Restore a semaphore written by [`Semaphore::snapshot`].
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        Ok(Semaphore {
            count: r.u64()?,
            queue: r.deque(|r| Ok(CpuId(r.usize()?)))?,
            addr: r.u64()?,
            inserted: r.u64()?,
            consumed: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_releases_on_last_arrival() {
        let mut b = Barrier::new(3, 0x1000);
        assert_eq!(b.arrive(CpuId(0)), None);
        assert_eq!(b.arrive(CpuId(1)), None);
        assert_eq!(b.waiting(), 2);
        let woken = b.arrive(CpuId(2)).unwrap();
        assert_eq!(woken, vec![CpuId(0), CpuId(1)]);
        assert_eq!(b.generation(), 1);
        assert_eq!(b.waiting(), 0);
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let mut b = Barrier::new(2, 0);
        assert!(b.arrive(CpuId(0)).is_none());
        assert!(b.arrive(CpuId(1)).is_some());
        assert!(b.arrive(CpuId(1)).is_none());
        assert!(b.arrive(CpuId(0)).is_some());
        assert_eq!(b.generation(), 2);
    }

    #[test]
    fn single_participant_barrier_never_blocks() {
        let mut b = Barrier::new(1, 0);
        assert_eq!(b.arrive(CpuId(5)), Some(vec![]));
        assert_eq!(b.arrive(CpuId(5)), Some(vec![]));
    }

    #[test]
    fn lock_grants_fifo() {
        let mut l = Lock::new(0x2000);
        assert!(l.acquire(CpuId(0)));
        assert!(!l.acquire(CpuId(1)));
        assert!(!l.acquire(CpuId(2)));
        assert_eq!(l.queue_len(), 2);
        assert_eq!(l.release(CpuId(0)), Some(CpuId(1)));
        assert_eq!(l.release(CpuId(1)), Some(CpuId(2)));
        assert_eq!(l.release(CpuId(2)), None);
        assert_eq!(l.holder(), None);
        assert_eq!(l.acquisitions, 3);
    }

    #[test]
    #[should_panic(expected = "release by non-holder")]
    fn lock_release_by_non_holder_panics() {
        let mut l = Lock::new(0);
        l.acquire(CpuId(0));
        l.release(CpuId(1));
    }

    #[test]
    fn semaphore_counts_tokens() {
        let mut s = Semaphore::new(2, 0x3000);
        assert!(s.wait(CpuId(0)));
        assert!(s.wait(CpuId(0)));
        assert!(!s.wait(CpuId(0)), "third wait parks");
        assert_eq!(s.queue_len(), 1);
        assert_eq!(s.signal(), Some(CpuId(0)), "signal hands token to waiter");
        assert_eq!(s.signal(), None, "no waiter: count grows");
        assert_eq!(s.count(), 1);
        assert_eq!(s.inserted, 2);
        assert_eq!(s.consumed, 3);
    }

    #[test]
    fn semaphore_reset_restores_initial_tokens() {
        let mut s = Semaphore::new(0, 0);
        s.signal();
        s.reset(5);
        assert_eq!(s.count(), 5);
        assert_eq!(s.inserted, 0);
    }

    #[test]
    fn semaphore_force_reset_evicts_waiters() {
        let mut s = Semaphore::new(0, 0);
        assert!(!s.wait(CpuId(4)));
        assert!(!s.wait(CpuId(7)));
        let evicted = s.force_reset(3);
        assert_eq!(evicted, vec![CpuId(4), CpuId(7)]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.inserted, 0);
        // The evicted processors were not granted tokens.
        assert_eq!(s.consumed, 0);
    }

    #[test]
    fn zero_token_semaphore_blocks_immediately() {
        let mut s = Semaphore::new(0, 0);
        assert!(!s.wait(CpuId(3)));
        assert_eq!(s.signal(), Some(CpuId(3)));
    }
}
