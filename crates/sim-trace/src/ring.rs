//! Fixed-capacity event ring buffers.
//!
//! Each track owns one `EventRing`. Capacity is fixed at construction;
//! when full, the oldest event is overwritten (drop-oldest) and a drop
//! counter is bumped so exports can report truncation honestly. Capacity 0
//! allocates nothing and makes `push` a pure no-op — this is the disabled
//! path, and it must stay branch-cheap because it sits inside the
//! simulator's hot loops.

use crate::event::TimedEvent;

#[derive(Clone, Debug, Default)]
pub struct EventRing {
    buf: Vec<TimedEvent>,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
    dropped: u64,
    capacity: usize,
}

impl EventRing {
    /// A ring holding at most `capacity` events. `capacity == 0` performs
    /// no allocation and records nothing.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            buf: Vec::new(), // grown lazily up to `capacity`
            head: 0,
            dropped: 0,
            capacity,
        }
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full (0 unless it wrapped).
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Bytes of heap backing the ring right now (tests use this to prove
    /// the capacity-0 path never allocates).
    pub fn heap_events(&self) -> usize {
        self.buf.capacity()
    }

    #[inline]
    pub fn push(&mut self, ev: TimedEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Consume the ring, returning surviving events oldest-first plus the
    /// overwritten-event count.
    pub fn drain(mut self) -> (Vec<TimedEvent>, u64) {
        self.buf.rotate_left(self.head);
        (self.buf, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, TrackDomain};

    fn ev(cycle: u64) -> TimedEvent {
        TimedEvent {
            cycle,
            domain: TrackDomain::Cpu,
            track: 0,
            seq: cycle,
            ev: TraceEvent::TokenWait { pair: 0 },
        }
    }

    #[test]
    fn fills_in_order_below_capacity() {
        let mut r = EventRing::new(4);
        for c in 0..3 {
            r.push(ev(c));
        }
        assert_eq!(r.len(), 3);
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 0);
        assert_eq!(evs.iter().map(|e| e.cycle).collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn wraparound_drops_oldest_and_counts() {
        let mut r = EventRing::new(4);
        for c in 0..10 {
            r.push(ev(c));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 6);
        // Oldest-first survivors are the last 4 pushed.
        assert_eq!(
            evs.iter().map(|e| e.cycle).collect::<Vec<_>>(),
            [6, 7, 8, 9]
        );
    }

    #[test]
    fn wraparound_exactly_once() {
        let mut r = EventRing::new(3);
        for c in 0..4 {
            r.push(ev(c));
        }
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 1);
        assert_eq!(evs.iter().map(|e| e.cycle).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn capacity_zero_is_a_no_op_and_never_allocates() {
        let mut r = EventRing::new(0);
        for c in 0..1000 {
            r.push(ev(c));
        }
        assert_eq!(r.len(), 0);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.heap_events(), 0);
        let (evs, dropped) = r.drain();
        assert!(evs.is_empty());
        assert_eq!(dropped, 0);
    }
}
