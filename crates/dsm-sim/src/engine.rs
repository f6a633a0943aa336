//! Deterministic discrete-event core.
//!
//! The simulator advances a single global clock measured in CPU cycles. The
//! only event kind is "wake processor P at cycle T": all memory-system state
//! changes happen synchronously while a processor executes, and contention
//! is modelled with per-resource occupancy windows ([`Resource`]). Events at
//! equal times are ordered by insertion sequence, making every simulation
//! bit-reproducible.

use crate::address::CpuId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Simulation time in CPU cycles.
pub type Cycle = u64;

/// A pending wake, ordered by the packed key `(time << 64) | seq` alone.
/// Sequence stamps are unique per queue, so the key orders events exactly
/// as `(time, seq)` does (the CPU never breaks a tie) with one `u128`
/// compare per heap step.
#[derive(Debug, Clone, Copy)]
struct Ev {
    key: u128,
    cpu: CpuId,
}

impl Ev {
    fn new(time: Cycle, seq: u64, cpu: CpuId) -> Self {
        Ev {
            key: (time as u128) << 64 | seq as u128,
            cpu,
        }
    }

    fn time(&self) -> Cycle {
        (self.key >> 64) as Cycle
    }

    fn seq(&self) -> u64 {
        self.key as u64
    }
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Ev {}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// Min-heap of processor wake events.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Ev>>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `cpu` to wake at `time`.
    pub fn schedule(&mut self, time: Cycle, cpu: CpuId) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Ev::new(time, seq, cpu)));
    }

    /// Remove and return the earliest event as `(time, cpu)`.
    pub fn pop(&mut self) -> Option<(Cycle, CpuId)> {
        self.heap.pop().map(|Reverse(e)| (e.time(), e.cpu))
    }

    /// `schedule(time, cpu)` followed by `pop()`, fused: when the new
    /// event is not the earliest it replaces the heap top, which costs
    /// one sift-down instead of a sift-up plus a pop. The engine's
    /// self-yields always take that path (a CPU yields only once it is
    /// past the earliest pending event).
    pub fn push_pop(&mut self, time: Cycle, cpu: CpuId) -> (Cycle, CpuId) {
        let seq = self.seq;
        self.seq += 1;
        let ev = Ev::new(time, seq, cpu);
        match self.heap.peek_mut() {
            Some(mut top) if top.0 < ev => {
                let old = std::mem::replace(&mut top.0, ev);
                (old.time(), old.cpu)
            }
            _ => (time, cpu),
        }
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse(e)| e.time())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Export the pending events as `(time, seq, cpu)` sorted by
    /// `(time, seq)` plus the next sequence stamp — the form an engine
    /// snapshot stores.
    pub fn export(&self) -> (Vec<(Cycle, u64, CpuId)>, u64) {
        let mut evs: Vec<_> = self
            .heap
            .iter()
            .map(|Reverse(e)| (e.time(), e.seq(), e.cpu))
            .collect();
        evs.sort_unstable();
        (evs, self.seq)
    }

    /// Rebuild a queue from an exported event list. Sequence stamps are
    /// preserved, so pop order is exactly the exporter's.
    pub fn import(events: &[(Cycle, u64, CpuId)], next_seq: u64) -> Self {
        EventQueue {
            heap: events
                .iter()
                .map(|&(time, seq, cpu)| Reverse(Ev::new(time, seq, cpu)))
                .collect(),
            seq: next_seq,
        }
    }
}

/// A serially reusable hardware resource (bus, NI port, memory controller).
///
/// Transactions acquire the resource for an *occupancy* window; a
/// transaction arriving while the resource is busy queues until a gap is
/// free. Occupied windows are kept as an interval list rather than a single
/// `busy_until` watermark because the event loop allows a bounded amount of
/// time skew between processors (a processor may execute slightly past the
/// next pending event): a request issued at an *earlier* simulated time
/// must be able to slot into a gap before windows already reserved at later
/// times, or skew would masquerade as contention.
#[derive(Debug, Clone, Default)]
pub struct Resource {
    /// Reserved service windows `(start, end)`, sorted by start.
    windows: std::collections::VecDeque<(Cycle, Cycle)>,
    /// Total cycles transactions spent waiting for this resource.
    pub contention_cycles: u64,
    /// Number of transactions served.
    pub transactions: u64,
}

/// Windows ending this far before the newest reservation can no longer
/// receive out-of-order requests (the engine's time skew is far smaller)
/// and are pruned.
const WINDOW_HORIZON: Cycle = 1 << 20;

impl Resource {
    /// A free resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Occupy the resource for `occupancy` cycles starting no earlier than
    /// `now`. Returns the cycle at which service *completes*.
    pub fn acquire(&mut self, now: Cycle, occupancy: Cycle) -> Cycle {
        self.transactions += 1;
        if occupancy == 0 {
            return now;
        }
        // Watermark fast path: a request landing at or after the newest
        // window's start can only be served at max(now, free_at) -- every
        // earlier window ends by the newest start, so no gap at or after
        // `now` precedes it. Back-to-back service extends the newest
        // window in place, so steady contention keeps the list at one
        // entry instead of one per transaction.
        let fast = match self.windows.back() {
            None => {
                self.windows.push_back((now, now + occupancy));
                return now + occupancy;
            }
            Some(&(s, e)) if now >= s => {
                let start = now.max(e);
                self.contention_cycles += start - now;
                if start == e {
                    self.windows.back_mut().expect("nonempty").1 = start + occupancy;
                } else {
                    self.windows.push_back((start, start + occupancy));
                }
                Some(start + occupancy)
            }
            _ => None,
        };
        if let Some(done) = fast {
            self.prune();
            return done;
        }
        // Gap-list slow path: a time-skewed request earlier than the
        // newest window takes the earliest gap that fits. Disjoint windows
        // sorted by start are sorted by end too, so the windows ending by
        // `now` are a prefix that cannot delay the request: binary-search
        // past it. Every window after it ends after the candidate start,
        // so a window that leaves no room moves the start to its end.
        let mut at = self.windows.partition_point(|&(_, e)| e <= now);
        let mut start = now;
        while let Some(&(s, e)) = self.windows.get(at) {
            if s >= start + occupancy {
                break; // fits in the gap before this window
            }
            start = e;
            at += 1;
        }
        self.contention_cycles += start - now;
        self.windows.insert(at, (start, start + occupancy));
        self.prune();
        start + occupancy
    }

    /// Drop windows too old to receive an out-of-order request (the
    /// engine's time skew is far below [`WINDOW_HORIZON`]).
    fn prune(&mut self) {
        if let Some(&(_, newest_end)) = self.windows.back() {
            while let Some(&(_, e)) = self.windows.front() {
                if e + WINDOW_HORIZON < newest_end {
                    self.windows.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    /// When the resource next becomes free (end of the last reserved
    /// window).
    pub fn free_at(&self) -> Cycle {
        self.windows.back().map_or(0, |&(_, e)| e)
    }

    /// Serialize the reserved windows and counters.
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.deque(&self.windows, |w, &(s, e)| {
            w.u64(s);
            w.u64(e);
        });
        w.u64(self.contention_cycles);
        w.u64(self.transactions);
    }

    /// Restore a resource written by [`Resource::snapshot`].
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        Ok(Resource {
            windows: r.deque(|r| Ok((r.u64()?, r.u64()?)))?,
            contention_cycles: r.u64()?,
            transactions: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::VecDeque;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, CpuId(2));
        q.schedule(10, CpuId(0));
        q.schedule(20, CpuId(1));
        assert_eq!(q.pop(), Some((10, CpuId(0))));
        assert_eq!(q.pop(), Some((20, CpuId(1))));
        assert_eq!(q.pop(), Some((30, CpuId(2))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, CpuId(9));
        q.schedule(5, CpuId(3));
        q.schedule(5, CpuId(7));
        assert_eq!(q.pop(), Some((5, CpuId(9))));
        assert_eq!(q.pop(), Some((5, CpuId(3))));
        assert_eq!(q.pop(), Some((5, CpuId(7))));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(42, CpuId(0));
        assert_eq!(q.peek_time(), Some(42));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn resource_serializes_overlapping_transactions() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(100, 10), 110);
        // Second transaction arrives while busy: waits until 110.
        assert_eq!(r.acquire(105, 10), 120);
        assert_eq!(r.contention_cycles, 5);
        // Third arrives after the resource freed: no waiting.
        assert_eq!(r.acquire(300, 10), 310);
        assert_eq!(r.contention_cycles, 5);
        assert_eq!(r.transactions, 3);
    }

    #[test]
    fn resource_idle_gap_does_not_backdate() {
        let mut r = Resource::new();
        r.acquire(0, 50);
        assert_eq!(r.free_at(), 50);
        assert_eq!(r.acquire(200, 1), 201);
    }

    #[test]
    fn earlier_request_slots_into_past_gap() {
        let mut r = Resource::new();
        // A time-skewed processor reserves far in the future...
        assert_eq!(r.acquire(1000, 10), 1010);
        // ...an earlier-time request must not queue behind it.
        assert_eq!(r.acquire(100, 10), 110);
        assert_eq!(r.contention_cycles, 0);
        // A request overlapping the future window queues after it.
        assert_eq!(r.acquire(1005, 10), 1020);
        assert_eq!(r.contention_cycles, 5);
    }

    #[test]
    fn gap_between_windows_is_used() {
        let mut r = Resource::new();
        r.acquire(0, 10); // [0,10)
        r.acquire(100, 10); // [100,110)
                            // Fits exactly between the two.
        assert_eq!(r.acquire(20, 30), 50);
        // Does not fit before [100,110): 60..160 overlaps -> after.
        assert_eq!(r.acquire(60, 60), 170);
    }

    #[test]
    fn zero_occupancy_is_free() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(5, 0), 5);
        assert_eq!(r.free_at(), 0);
    }

    #[test]
    fn zero_occupancy_while_busy_does_not_queue() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(0, 100), 100);
        // A zero-cycle transaction completes immediately even while the
        // resource is mid-window, records no window, but is counted.
        assert_eq!(r.acquire(50, 0), 50);
        assert_eq!(r.transactions, 2);
        assert_eq!(r.contention_cycles, 0);
        assert_eq!(r.free_at(), 100);
    }

    #[test]
    fn out_of_order_requests_slot_into_gaps() {
        let mut r = Resource::new();
        r.acquire(100, 10); // [100,110)
        r.acquire(200, 10); // [200,210)
                            // A skewed request earlier than everything sits in front.
        assert_eq!(r.acquire(50, 10), 60);
        assert_eq!(r.contention_cycles, 0);
        // One that cannot fit in [60,100) takes the next gap that can
        // hold it: after [100,110).
        assert_eq!(r.acquire(55, 50), 160);
        assert_eq!(r.contention_cycles, 55);
        assert_eq!(r.free_at(), 210);
    }

    #[test]
    fn coalesced_contention_chain_matches_scan_semantics() {
        let mut r = Resource::new();
        // Overlapping arrivals serialize back-to-back exactly as the
        // original gap scan would have placed them.
        assert_eq!(r.acquire(0, 10), 10);
        assert_eq!(r.acquire(3, 10), 20);
        assert_eq!(r.acquire(7, 10), 30);
        assert_eq!(r.contention_cycles, 7 + 13);
        assert_eq!(r.free_at(), 30);
        // The chain occupies [0,30): an earlier-time request overlapping
        // it queues at the end, not inside.
        assert_eq!(r.acquire(1, 5), 35);
    }

    #[test]
    fn window_at_horizon_boundary_is_kept() {
        let mut r = Resource::new();
        r.acquire(0, 10); // [0,10)
                          // Newest end = WINDOW_HORIZON + 10: 10 + HORIZON < HORIZON + 10
                          // is false, so the old window survives exactly at the boundary.
        r.acquire(WINDOW_HORIZON + 9, 1);
        // A request at time 0 still sees [0,10) occupied: a 5-cycle job
        // must wait for the gap after it.
        assert_eq!(r.acquire(0, 5), 15);
    }

    #[test]
    fn window_past_horizon_boundary_is_pruned() {
        let mut r = Resource::new();
        r.acquire(0, 10); // [0,10)
                          // Newest end = WINDOW_HORIZON + 30 > 10 + HORIZON: pruned.
        r.acquire(WINDOW_HORIZON + 20, 10);
        // The ancient window is gone, so an ancient request starts
        // immediately where [0,10) used to be.
        assert_eq!(r.acquire(0, 5), 5);
    }

    #[test]
    fn packed_key_keeps_insertion_order_near_max_time() {
        let top = u64::MAX;
        let schedule = [
            (top, 4),
            (top - 1, 9),
            (top, 1),
            (top - 1, 2),
            (0, 3),
            (top, 7),
        ];
        let mut q = EventQueue::new();
        for &(t, c) in &schedule {
            q.schedule(t, CpuId(c));
        }
        let (events, next_seq) = q.export();
        let mut copy = EventQueue::import(&events, next_seq);
        // A wake scheduled after the import ties with the imported ones
        // at `top` and must pop after them.
        copy.schedule(top, CpuId(0));
        let want = [
            (0, 3),
            (top - 1, 9),
            (top - 1, 2),
            (top, 4),
            (top, 1),
            (top, 7),
        ];
        for &(t, c) in &want {
            assert_eq!(q.pop(), Some((t, CpuId(c))));
            assert_eq!(copy.pop(), Some((t, CpuId(c))));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(copy.pop(), Some((top, CpuId(0))));
    }

    /// Which paths of `push_pop` one [`drive_push_pop`] stream reached.
    #[derive(Default)]
    struct Fused {
        empty: usize,
        new_earliest: usize,
        tied_front: usize,
        replaced_top: usize,
    }

    /// Feed one seeded stream to `push_pop` on one queue and to
    /// `schedule` + `pop` on another, comparing the returned event and
    /// `export()` after every call. Other schedules and pops are mixed
    /// in, and every 100 calls both queues are drained, so the queue
    /// grows, shrinks and empties. `time` draws each event's time from
    /// the current front (`None` when empty). Halfway through, the fused
    /// queue is replaced by an `export`/`import` round trip.
    fn drive_push_pop(
        seed: u64,
        calls: usize,
        mut time: impl FnMut(&mut SplitMix64, Option<Cycle>) -> Cycle,
    ) -> Fused {
        let mut g = SplitMix64::new(seed);
        let mut fused = EventQueue::new();
        let mut plain = EventQueue::new();
        let mut f = Fused::default();
        for i in 0..calls {
            if i == calls / 2 {
                let (events, next_seq) = fused.export();
                fused = EventQueue::import(&events, next_seq);
            }
            if i % 100 == 0 {
                while let Some(e) = plain.pop() {
                    assert_eq!(fused.pop(), Some(e));
                }
            }
            match g.below(4) {
                0 | 1 => {
                    let (t, cpu) = (time(&mut g, plain.peek_time()), CpuId(g.below(8) as usize));
                    fused.schedule(t, cpu);
                    plain.schedule(t, cpu);
                }
                2 => assert_eq!(fused.pop(), plain.pop()),
                _ => {}
            }
            let front = plain.peek_time();
            let (t, cpu) = (time(&mut g, front), CpuId(g.below(8) as usize));
            match front {
                None => f.empty += 1,
                Some(h) if t < h => f.new_earliest += 1,
                Some(h) if t == h => f.tied_front += 1,
                Some(_) => f.replaced_top += 1,
            }
            plain.schedule(t, cpu);
            let want = plain.pop().expect("just scheduled");
            let ctx = format!("seed {seed:#x} call {i}: push_pop({t}, {cpu:?})");
            assert_eq!(fused.push_pop(t, cpu), want, "{ctx}");
            assert_eq!(fused.export(), plain.export(), "{ctx}");
        }
        f
    }

    #[test]
    fn push_pop_matches_schedule_then_pop() {
        for seed in 0..8 {
            let f = drive_push_pop(0xF05E ^ seed, 3000, |g, front| {
                front.map_or(g.below(50), |h| (h + g.below(7)).saturating_sub(3))
            });
            assert!(f.empty > 0 && f.new_earliest > 0 && f.tied_front > 0 && f.replaced_top > 0);
        }
    }

    #[test]
    fn push_pop_matches_schedule_then_pop_near_max_time() {
        for seed in 0..4 {
            let f = drive_push_pop(0x3A7 ^ seed, 2000, |g, _| u64::MAX - g.below(4));
            assert!(f.empty > 0 && f.new_earliest > 0 && f.tied_front > 0 && f.replaced_top > 0);
        }
    }

    /// The gap scan before the binary search: a linear walk from the
    /// oldest window. `Resource::acquire` must match it call for call.
    #[derive(Default)]
    struct LinearResource {
        windows: VecDeque<(Cycle, Cycle)>,
        contention_cycles: u64,
        transactions: u64,
    }

    impl LinearResource {
        fn acquire(&mut self, now: Cycle, occupancy: Cycle) -> Cycle {
            self.transactions += 1;
            if occupancy == 0 {
                return now;
            }
            let fast = match self.windows.back() {
                None => {
                    self.windows.push_back((now, now + occupancy));
                    return now + occupancy;
                }
                Some(&(s, e)) if now >= s => {
                    let start = now.max(e);
                    self.contention_cycles += start - now;
                    if start == e {
                        self.windows.back_mut().expect("nonempty").1 = start + occupancy;
                    } else {
                        self.windows.push_back((start, start + occupancy));
                    }
                    Some(start + occupancy)
                }
                _ => None,
            };
            if let Some(done) = fast {
                self.prune();
                return done;
            }
            let mut start = now;
            let mut insert_at = 0;
            for (idx, &(s, e)) in self.windows.iter().enumerate() {
                if e <= start {
                    insert_at = idx + 1;
                    continue;
                }
                if s >= start + occupancy {
                    insert_at = idx;
                    break;
                }
                start = start.max(e);
                insert_at = idx + 1;
            }
            self.contention_cycles += start - now;
            self.windows.insert(insert_at, (start, start + occupancy));
            self.prune();
            start + occupancy
        }

        fn prune(&mut self) {
            if let Some(&(_, newest_end)) = self.windows.back() {
                while let Some(&(_, e)) = self.windows.front() {
                    if e + WINDOW_HORIZON < newest_end {
                        self.windows.pop_front();
                    } else {
                        break;
                    }
                }
            }
        }
    }

    /// Counts from one [`drive`] run, so each stream can show it reached
    /// the path it was built for.
    #[derive(Default)]
    struct Drove {
        skewed: usize,
        max_windows: usize,
        pruned: bool,
    }

    /// Feed `calls` requests from `next` (which sees the reference's
    /// windows) to a [`Resource`] and to the linear reference, comparing
    /// every observable after each call. With `snap_at`, the resource is
    /// replaced by its own snapshot/restore round trip after that many
    /// calls.
    fn drive(
        seed: u64,
        calls: usize,
        snap_at: Option<usize>,
        mut next: impl FnMut(&mut SplitMix64, &VecDeque<(Cycle, Cycle)>) -> (Cycle, Cycle),
    ) -> Drove {
        let mut g = SplitMix64::new(seed);
        let mut r = Resource::new();
        let mut lin = LinearResource::default();
        let mut d = Drove::default();
        for i in 0..calls {
            if snap_at == Some(i) {
                let mut w = snap::Writer::new();
                r.snapshot(&mut w);
                let bytes = w.into_bytes();
                let mut rd = snap::Reader::new(&bytes);
                r = Resource::restore(&mut rd).expect("restore");
                rd.expect_end().expect("whole snapshot read");
            }
            let (now, occ) = next(&mut g, &lin.windows);
            if lin.windows.back().is_some_and(|&(s, _)| now < s) {
                d.skewed += 1;
            }
            let oldest = lin.windows.front().copied();
            let want = lin.acquire(now, occ);
            d.pruned |= oldest.is_some() && lin.windows.front().copied() != oldest;
            d.max_windows = d.max_windows.max(lin.windows.len());
            let ctx = format!("seed {seed:#x} call {i}: acquire({now}, {occ})");
            assert_eq!(r.acquire(now, occ), want, "{ctx}");
            assert_eq!(r.contention_cycles, lin.contention_cycles, "{ctx}");
            assert_eq!(r.transactions, lin.transactions, "{ctx}");
            assert_eq!(
                r.free_at(),
                lin.windows.back().map_or(0, |&(_, e)| e),
                "{ctx}"
            );
            assert_eq!(r.windows, lin.windows, "{ctx}");
        }
        d
    }

    /// Run a fresh stream from `make` straight through, then another
    /// across a mid-stream snapshot/restore.
    fn drive_both<F>(seed: u64, calls: usize, make: impl Fn() -> F) -> Drove
    where
        F: FnMut(&mut SplitMix64, &VecDeque<(Cycle, Cycle)>) -> (Cycle, Cycle),
    {
        drive(seed, calls, Some(calls / 2), make());
        drive(seed, calls, None, make())
    }

    #[test]
    fn acquire_matches_linear_scan_in_order() {
        for seed in 0..8 {
            let d = drive_both(0xA11 ^ seed, 4000, || {
                let mut now = 0;
                move |g: &mut SplitMix64, _: &VecDeque<_>| {
                    now += g.below(20);
                    (now, 1 + g.below(30))
                }
            });
            assert_eq!(d.skewed, 0);
        }
    }

    #[test]
    fn acquire_matches_linear_scan_on_skewed_requests() {
        // 2,500 spaced windows, then requests earlier than the newest one
        // that fit some gaps and overrun others, with an in-order request
        // now and then.
        const SPACED: u64 = 2500;
        for seed in 0..4 {
            let d = drive_both(0x5CE ^ seed, 8000, || {
                let mut i = 0;
                move |g: &mut SplitMix64, w: &VecDeque<(Cycle, Cycle)>| {
                    i += 1;
                    if i <= SPACED {
                        (i * 100 + g.below(40), 1 + g.below(40))
                    } else if g.chance(0.1) {
                        (
                            w.back().map_or(0, |&(_, e)| e) + g.below(50),
                            1 + g.below(40),
                        )
                    } else {
                        (g.below(SPACED * 100), 1 + g.below(120))
                    }
                }
            });
            assert!(d.max_windows >= 2000, "{} windows", d.max_windows);
            assert!(d.skewed > 4000, "{} skewed calls", d.skewed);
        }
    }

    #[test]
    fn acquire_matches_linear_scan_with_zero_occupancy() {
        for seed in 0..4 {
            let d = drive_both(0x2E0 ^ seed, 6000, || {
                let mut now = 0;
                move |g: &mut SplitMix64, _: &VecDeque<_>| {
                    now += g.below(30);
                    let at = if g.chance(0.4) {
                        now.saturating_sub(g.below(2000))
                    } else {
                        now
                    };
                    let occ = if g.chance(0.3) { 0 } else { 1 + g.below(25) };
                    (at, occ)
                }
            });
            assert!(d.skewed > 1000, "{} skewed calls", d.skewed);
        }
    }

    #[test]
    fn acquire_matches_linear_scan_into_abutting_windows() {
        // Requests that exactly fill a gap, start exactly at a window's
        // end, or end exactly at a window's start.
        for seed in 0..4 {
            let d = drive_both(0xAB7 ^ seed, 6000, || {
                let mut i = 0;
                move |g: &mut SplitMix64, w: &VecDeque<(Cycle, Cycle)>| {
                    i += 1;
                    if i <= 1000 {
                        return (i * 60 + g.below(20), 1 + g.below(20));
                    }
                    let k = g.below(w.len() as u64 - 1) as usize;
                    let (s0, e0) = w[k];
                    let (s1, _) = w[k + 1];
                    match g.below(3) {
                        0 if s1 > e0 => (e0, s1 - e0),
                        1 => (e0, 1 + g.below(30)),
                        _ => {
                            let occ = 1 + g.below(10);
                            (s0.saturating_sub(occ), occ)
                        }
                    }
                }
            });
            assert!(d.skewed > 3000, "{} skewed calls", d.skewed);
        }
    }

    #[test]
    fn acquire_matches_linear_scan_across_pruning() {
        // Idle gaps longer than the horizon prune old windows, and later
        // requests still aim at the pruned stretch.
        for seed in 0..4 {
            let d = drive_both(0x9A9 ^ seed, 6000, || {
                let mut now = 0;
                move |g: &mut SplitMix64, _: &VecDeque<_>| {
                    if g.chance(0.01) {
                        now += WINDOW_HORIZON + g.below(1000);
                    } else {
                        now += g.below(400);
                    }
                    let at = if g.chance(0.3) {
                        now.saturating_sub(g.below(2 * WINDOW_HORIZON))
                    } else {
                        now
                    };
                    (at, 1 + g.below(60))
                }
            });
            assert!(d.pruned, "no window was pruned");
            assert!(d.skewed > 1000, "{} skewed calls", d.skewed);
        }
    }
}
