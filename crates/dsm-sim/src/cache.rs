//! Set-associative cache with LRU replacement.
//!
//! One structure serves both levels: per-processor L1 data caches (which
//! track only line presence — the shared L2 manages coherence between its
//! L1s, as in the paper's CMP model) and the per-CMP shared unified L2
//! (which carries MSI-style coherence state with respect to the directory).

use crate::address::LineAddr;
use crate::config::CacheConfig;

/// Coherence state of a cached line (MSI without the I — absent means
/// invalid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Read-only copy; other caches may also hold it.
    Shared,
    /// Writable, exclusive, possibly dirty copy.
    Modified,
}

/// A line evicted to make room for an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The displaced line.
    pub line: LineAddr,
    /// Its coherence state at eviction (Modified victims need writeback).
    pub state: LineState,
}

/// The low bit of a way's first word: the line is Modified.
const MODIFIED: u64 = 1;

fn state_of(word: u64) -> LineState {
    if word & MODIFIED != 0 {
        LineState::Modified
    } else {
        LineState::Shared
    }
}

fn word_of(line: LineAddr, state: LineState) -> u64 {
    debug_assert!(line.0 >> 63 == 0, "line {line:?} does not fit a way word");
    line.0 << 1 | matches!(state, LineState::Modified) as u64
}

/// Position of `line` among a set's resident ways.
fn find(set: &[[u64; 2]], line: LineAddr) -> Option<usize> {
    set.iter().position(|w| w[0] >> 1 == line.0)
}

/// LRU set-associative cache.
///
/// Every way lives in one flat store with `ways` slots per set: set `s`
/// is `store[s * ways..][..lens[s]]`, and a slot past its set's length is
/// never read. A way is `[line << 1 | modified, last_use]`, 16 bytes, so a
/// 4-way set fills one 64-byte host line. The store starts empty and
/// grows, zero-filled, to the end of the highest set a line is written
/// into: a run that touches a few dozen lines never zeroes a 1 MB L2's
/// 256 KiB of ways.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    store: Vec<[u64; 2]>,
    lens: Vec<u8>,
    ways: usize,
    set_mask: u64,
    lru_clock: u64,
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
}

impl SetAssocCache {
    /// Build an empty cache with the given geometry.
    pub fn new(cfg: &CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        let ways = cfg.associativity as usize;
        assert!(num_sets.is_power_of_two() && num_sets > 0);
        assert!(
            (1..=u8::MAX as usize).contains(&ways),
            "associativity {ways} outside 1..=255"
        );
        SetAssocCache {
            store: Vec::new(),
            lens: vec![0; num_sets as usize],
            ways,
            set_mask: num_sets - 1,
            lru_clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize
    }

    /// The resident ways of set `s`, in storage order. An empty set may
    /// lie past the end of the store.
    fn set(&self, s: usize) -> &[[u64; 2]] {
        match self.lens[s] {
            0 => &[],
            n => &self.store[s * self.ways..][..n as usize],
        }
    }

    fn set_mut(&mut self, s: usize) -> &mut [[u64; 2]] {
        match self.lens[s] {
            0 => &mut [],
            n => &mut self.store[s * self.ways..][..n as usize],
        }
    }

    /// All `ways` slots of set `s`, growing the store to cover them first.
    fn slots_mut(&mut self, s: usize) -> &mut [[u64; 2]] {
        let end = (s + 1) * self.ways;
        if self.store.len() < end {
            self.grow(end);
        }
        &mut self.store[s * self.ways..end]
    }

    /// Zero-fill the store to `end` slots. The first growth allocates all
    /// `num_sets * ways` slots, untouched, so growing set by set never
    /// copies the store: a run that fills every set pays one allocation
    /// and the zeroing, as when the store was allocated up front.
    #[cold]
    fn grow(&mut self, end: usize) {
        let total = self.lens.len() * self.ways;
        self.store.reserve_exact(total - self.store.len());
        self.store.resize(end, [0; 2]);
    }

    fn tick(&mut self) -> u64 {
        self.lru_clock += 1;
        self.lru_clock
    }

    /// Look up a line without touching LRU or hit counters.
    pub fn peek(&self, line: LineAddr) -> Option<LineState> {
        let set = self.set(self.set_index(line));
        find(set, line).map(|pos| state_of(set[pos][0]))
    }

    /// Demand lookup: returns the state on hit and refreshes LRU.
    ///
    /// Hits rotate the way to slot 0 so that the common repeated-access
    /// pattern ends the scan at the first probe. Way order within a set
    /// carries no semantics (ways are identified by line, and the LRU
    /// victim is chosen by the strictly increasing `last_use` stamp), so
    /// the rotation cannot change hit/miss outcomes or victim choice.
    pub fn access(&mut self, line: LineAddr) -> Option<LineState> {
        let t = self.tick();
        let s = self.set_index(line);
        let set = self.set_mut(s);
        if let Some(pos) = find(set, line) {
            set.swap(0, pos);
            set[0][1] = t;
            let state = state_of(set[0][0]);
            self.hits += 1;
            Some(state)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Install (or update) a line, evicting the LRU way if the set is full.
    /// Returns the victim, if one was displaced.
    ///
    /// Storage order follows a `Vec` per set: an update rotates to slot 0,
    /// a new line is appended, and the victim's slot is filled by the last
    /// way (`swap_remove`) before the append.
    pub fn insert(&mut self, line: LineAddr, state: LineState) -> Option<Victim> {
        let t = self.tick();
        let s = self.set_index(line);
        let ways = self.ways;
        let len = self.lens[s] as usize;
        let set = self.slots_mut(s);
        let way = [word_of(line, state), t];
        if let Some(pos) = find(&set[..len], line) {
            set.swap(0, pos);
            set[0] = way;
            return None;
        }
        if len < ways {
            set[len] = way;
            self.lens[s] += 1;
            return None;
        }
        let (vi, _) = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w[1])
            .expect("full set is non-empty");
        let v = set[vi];
        set[vi] = set[ways - 1];
        set[ways - 1] = way;
        Some(Victim {
            line: LineAddr(v[0] >> 1),
            state: state_of(v[0]),
        })
    }

    /// Change the state of a resident line (e.g., S→M upgrade, M→S
    /// downgrade). Returns false if the line is not resident.
    pub fn set_state(&mut self, line: LineAddr, state: LineState) -> bool {
        let s = self.set_index(line);
        let set = self.set_mut(s);
        if let Some(pos) = find(set, line) {
            set[pos][0] = word_of(line, state);
            true
        } else {
            false
        }
    }

    /// Remove a line (external invalidation or inclusion victim). Returns its
    /// state if it was resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineState> {
        let s = self.set_index(line);
        let set = self.set_mut(s);
        let pos = find(set, line)?;
        let word = set[pos][0];
        let last = set.len() - 1;
        set[pos] = set[last];
        self.lens[s] -= 1;
        Some(state_of(word))
    }

    /// Number of resident lines (test/diagnostic helper).
    pub fn occupancy(&self) -> usize {
        self.lens.iter().map(|&n| n as usize).sum()
    }

    /// Way slots the store has allocated (tests).
    #[cfg(test)]
    pub(crate) fn slot_capacity(&self) -> usize {
        self.store.capacity()
    }

    /// Serialize the full cache state (geometry, LRU clock, every way in
    /// storage order, hit/miss counters).
    pub fn snapshot(&self, w: &mut snap::Writer) {
        w.usize(self.ways);
        w.u64(self.set_mask);
        w.u64(self.lru_clock);
        w.usize(self.lens.len());
        for s in 0..self.lens.len() {
            w.seq(self.set(s), |w, way| {
                w.u64(way[0] >> 1);
                w.bool(way[0] & MODIFIED != 0);
                w.u64(way[1]);
            });
        }
        w.u64(self.hits);
        w.u64(self.misses);
    }

    /// Overwrite this cache's state from a snapshot written by
    /// [`SetAssocCache::snapshot`] of a cache with the same geometry,
    /// decoding straight into the flat store. A payload with other
    /// geometry, a set fuller than its ways, or a line stored in another
    /// set is [`snap::SnapError::Corrupt`].
    pub fn restore_into(&mut self, r: &mut snap::Reader) -> Result<(), snap::SnapError> {
        let corrupt = |what| snap::SnapError::Corrupt { what };
        if r.usize()? != self.ways {
            return Err(corrupt("cache ways"));
        }
        if r.u64()? != self.set_mask {
            return Err(corrupt("cache set mask"));
        }
        self.lru_clock = r.u64()?;
        if r.usize()? != self.lens.len() {
            return Err(corrupt("cache set count"));
        }
        for s in 0..self.lens.len() {
            let len = r.usize()?;
            if len > self.ways {
                return Err(corrupt("cache set length"));
            }
            if len > 0 {
                let set_mask = self.set_mask;
                for slot in &mut self.slots_mut(s)[..len] {
                    let line = r.u64()?;
                    if line >> 63 != 0 || (line & set_mask) as usize != s {
                        return Err(corrupt("cache line"));
                    }
                    let modified = r.bool()?;
                    *slot = [line << 1 | modified as u64, r.u64()?];
                }
            }
            self.lens[s] = len as u8;
        }
        self.hits = r.u64()?;
        self.misses = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways, 64B lines.
        SetAssocCache::new(&CacheConfig {
            size_bytes: 256,
            associativity: 2,
            line_bytes: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(LineAddr(4)), None);
        c.insert(LineAddr(4), LineState::Shared);
        assert_eq!(c.access(LineAddr(4)), Some(LineState::Shared));
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        c.insert(LineAddr(0), LineState::Shared);
        c.insert(LineAddr(2), LineState::Shared);
        // Touch 0 so 2 becomes LRU.
        assert!(c.access(LineAddr(0)).is_some());
        let v = c.insert(LineAddr(4), LineState::Shared).unwrap();
        assert_eq!(v.line, LineAddr(2));
        assert!(c.peek(LineAddr(0)).is_some());
        assert!(c.peek(LineAddr(2)).is_none());
        assert!(c.peek(LineAddr(4)).is_some());
    }

    #[test]
    fn insert_existing_updates_state_without_eviction() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineState::Shared);
        c.insert(LineAddr(2), LineState::Shared);
        assert_eq!(c.insert(LineAddr(0), LineState::Modified), None);
        assert_eq!(c.peek(LineAddr(0)), Some(LineState::Modified));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn modified_victim_reported_for_writeback() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineState::Modified);
        c.insert(LineAddr(2), LineState::Shared);
        let v = c.insert(LineAddr(4), LineState::Shared).unwrap();
        assert_eq!(v.line, LineAddr(0));
        assert_eq!(v.state, LineState::Modified);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(LineAddr(1), LineState::Modified);
        assert_eq!(c.invalidate(LineAddr(1)), Some(LineState::Modified));
        assert_eq!(c.invalidate(LineAddr(1)), None);
        assert_eq!(c.peek(LineAddr(1)), None);
    }

    #[test]
    fn set_state_on_missing_line_is_false() {
        let mut c = tiny();
        assert!(!c.set_state(LineAddr(3), LineState::Shared));
        c.insert(LineAddr(3), LineState::Shared);
        assert!(c.set_state(LineAddr(3), LineState::Modified));
        assert_eq!(c.peek(LineAddr(3)), Some(LineState::Modified));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        // Odd lines map to set 1; fill both sets past capacity of one set.
        c.insert(LineAddr(0), LineState::Shared);
        c.insert(LineAddr(2), LineState::Shared);
        c.insert(LineAddr(1), LineState::Shared);
        c.insert(LineAddr(3), LineState::Shared);
        assert_eq!(c.occupancy(), 4);
        // No cross-set eviction happened.
        for l in [0u64, 1, 2, 3] {
            assert!(c.peek(LineAddr(l)).is_some());
        }
    }

    /// The storage before the flat layout: one `Vec` of ways per set.
    /// `SetAssocCache` must match it call for call, down to the snapshot
    /// bytes.
    #[derive(Clone, Copy)]
    struct Way {
        line: LineAddr,
        state: LineState,
        last_use: u64,
    }

    struct NestedCache {
        sets: Vec<Vec<Way>>,
        ways: usize,
        set_mask: u64,
        lru_clock: u64,
        hits: u64,
        misses: u64,
    }

    impl NestedCache {
        fn new(cfg: &CacheConfig) -> Self {
            let num_sets = cfg.num_sets();
            NestedCache {
                sets: vec![Vec::new(); num_sets as usize],
                ways: cfg.associativity as usize,
                set_mask: num_sets - 1,
                lru_clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn set(&mut self, line: LineAddr) -> &mut Vec<Way> {
            &mut self.sets[(line.0 & self.set_mask) as usize]
        }

        fn tick(&mut self) -> u64 {
            self.lru_clock += 1;
            self.lru_clock
        }

        fn peek(&self, line: LineAddr) -> Option<LineState> {
            let set = &self.sets[(line.0 & self.set_mask) as usize];
            set.iter().find(|w| w.line == line).map(|w| w.state)
        }

        fn access(&mut self, line: LineAddr) -> Option<LineState> {
            let t = self.tick();
            let set = self.set(line);
            if let Some(pos) = set.iter().position(|w| w.line == line) {
                set.swap(0, pos);
                set[0].last_use = t;
                let state = set[0].state;
                self.hits += 1;
                Some(state)
            } else {
                self.misses += 1;
                None
            }
        }

        fn insert(&mut self, line: LineAddr, state: LineState) -> Option<Victim> {
            let t = self.tick();
            let ways = self.ways;
            let set = self.set(line);
            if let Some(pos) = set.iter().position(|w| w.line == line) {
                set.swap(0, pos);
                set[0].state = state;
                set[0].last_use = t;
                return None;
            }
            let victim = if set.len() == ways {
                let (vi, _) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.last_use)
                    .unwrap();
                let v = set.swap_remove(vi);
                Some(Victim {
                    line: v.line,
                    state: v.state,
                })
            } else {
                None
            };
            set.push(Way {
                line,
                state,
                last_use: t,
            });
            victim
        }

        fn set_state(&mut self, line: LineAddr, state: LineState) -> bool {
            match self.set(line).iter_mut().find(|w| w.line == line) {
                Some(w) => {
                    w.state = state;
                    true
                }
                None => false,
            }
        }

        fn invalidate(&mut self, line: LineAddr) -> Option<LineState> {
            let set = self.set(line);
            let pos = set.iter().position(|w| w.line == line)?;
            Some(set.swap_remove(pos).state)
        }

        fn occupancy(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }

        fn snapshot(&self, w: &mut snap::Writer) {
            w.usize(self.ways);
            w.u64(self.set_mask);
            w.u64(self.lru_clock);
            w.usize(self.sets.len());
            for set in &self.sets {
                w.seq(set, |w, way| {
                    w.u64(way.line.0);
                    w.bool(matches!(way.state, LineState::Modified));
                    w.u64(way.last_use);
                });
            }
            w.u64(self.hits);
            w.u64(self.misses);
        }
    }

    fn geometry(num_sets: u64, ways: u32) -> CacheConfig {
        CacheConfig {
            size_bytes: num_sets * ways as u64 * 64,
            associativity: ways,
            line_bytes: 64,
            hit_latency: 1,
        }
    }

    fn bytes(f: impl FnOnce(&mut snap::Writer)) -> Vec<u8> {
        let mut w = snap::Writer::new();
        f(&mut w);
        w.into_bytes()
    }

    fn restored(cfg: &CacheConfig, payload: &[u8]) -> Result<SetAssocCache, snap::SnapError> {
        let mut c = SetAssocCache::new(cfg);
        let mut r = snap::Reader::new(payload);
        c.restore_into(&mut r)?;
        r.expect_end()?;
        Ok(c)
    }

    /// Drive the flat cache and the nested reference with one seeded call
    /// stream and compare every observable after each call. Lines come
    /// mostly from `hot` sets, with more tags per set than ways, so sets
    /// overflow and evict. Halfway through, the flat cache is replaced by
    /// a restore of the reference's snapshot. Returns the victim count.
    fn drive(cfg: &CacheConfig, seed: u64, calls: usize, hot: u64) -> usize {
        let mut g = SplitMix64::new(seed);
        let mut flat = SetAssocCache::new(cfg);
        let mut nested = NestedCache::new(cfg);
        let num_sets = cfg.num_sets();
        let tags = 2 * cfg.associativity as u64 + 1;
        let mut victims = 0;
        for i in 0..calls {
            if i == calls / 2 {
                flat = restored(cfg, &bytes(|w| nested.snapshot(w))).expect("restore");
            }
            let set = if g.chance(0.9) {
                g.below(hot)
            } else {
                g.below(num_sets)
            };
            let line = LineAddr(set + num_sets * g.below(tags));
            let state = if g.chance(0.5) {
                LineState::Modified
            } else {
                LineState::Shared
            };
            let ctx = format!("seed {seed:#x} call {i} line {}", line.0);
            match g.below(10) {
                0..=2 => assert_eq!(flat.access(line), nested.access(line), "{ctx}"),
                3..=5 => {
                    let v = flat.insert(line, state);
                    assert_eq!(v, nested.insert(line, state), "{ctx}");
                    victims += v.is_some() as usize;
                }
                6 => assert_eq!(
                    flat.set_state(line, state),
                    nested.set_state(line, state),
                    "{ctx}"
                ),
                7 => assert_eq!(flat.invalidate(line), nested.invalidate(line), "{ctx}"),
                _ => assert_eq!(flat.peek(line), nested.peek(line), "{ctx}"),
            }
            assert_eq!(
                (flat.hits, flat.misses),
                (nested.hits, nested.misses),
                "{ctx}"
            );
            assert_eq!(flat.occupancy(), nested.occupancy(), "{ctx}");
            assert!(
                bytes(|w| flat.snapshot(w)) == bytes(|w| nested.snapshot(w)),
                "snapshot bytes differ: {ctx}"
            );
        }
        victims
    }

    #[test]
    fn flat_store_matches_nested_sets_on_a_tiny_cache() {
        for seed in 0..16 {
            assert!(drive(&geometry(2, 2), 0xF1A7 ^ seed, 600, 2) > 50);
        }
    }

    #[test]
    fn flat_store_matches_nested_sets_on_the_paper_l1() {
        let l1 = crate::MachineConfig::paper().l1;
        assert_eq!((l1.num_sets(), l1.associativity), (128, 2));
        for seed in 0..4 {
            assert!(drive(&l1, 0x11 ^ seed, 1500, 4) > 50);
        }
    }

    #[test]
    fn flat_store_matches_nested_sets_on_the_paper_l2() {
        let l2 = crate::MachineConfig::paper().l2;
        assert_eq!((l2.num_sets(), l2.associativity), (4096, 4));
        for seed in 0..2 {
            assert!(drive(&l2, 0x12 ^ seed, 600, 3) > 20);
        }
    }

    fn paper_geometries() -> [CacheConfig; 2] {
        let m = crate::MachineConfig::paper();
        [m.l1, m.l2]
    }

    #[test]
    fn fresh_caches_hold_no_way_slots() {
        for cfg in paper_geometries() {
            let mut c = SetAssocCache::new(&cfg);
            let mut nested = NestedCache::new(&cfg);
            assert_eq!((c.store.len(), c.slot_capacity()), (0, 0));
            // Probes of untouched sets, the last one included, read
            // nothing and grow nothing.
            let last = LineAddr(cfg.num_sets() - 1);
            assert_eq!(c.peek(last), None);
            assert_eq!(c.access(last), nested.access(last));
            assert!(!c.set_state(last, LineState::Modified));
            assert_eq!(c.invalidate(last), None);
            assert!(bytes(|w| c.snapshot(w)) == bytes(|w| nested.snapshot(w)));
            assert_eq!(c.slot_capacity(), 0);
        }
    }

    #[test]
    fn store_grows_to_the_highest_written_set() {
        for cfg in paper_geometries() {
            let num_sets = cfg.num_sets();
            let ways = cfg.associativity as usize;
            let mut c = SetAssocCache::new(&cfg);
            let mut g = SplitMix64::new(0x5E75 ^ num_sets);
            // Sets below a rising bound, then the last set.
            let order: Vec<u64> = (0..num_sets - 1)
                .map(|i| g.below(i + 1))
                .chain([num_sets - 1])
                .collect();
            let mut highest = 0;
            let mut base = None;
            for s in order {
                assert_eq!(c.peek(LineAddr(num_sets - 1)), None);
                highest = highest.max(s as usize);
                c.insert(LineAddr(s + num_sets * g.below(3)), LineState::Shared);
                assert_eq!(c.store.len(), (highest + 1) * ways, "set {s}");
                // One allocation of the whole cache: growth never moves it.
                assert_eq!(c.slot_capacity(), num_sets as usize * ways);
                assert_eq!(*base.get_or_insert(c.store.as_ptr()), c.store.as_ptr());
            }
        }
    }

    #[test]
    fn restore_of_a_last_set_line_round_trips_into_a_fresh_cache() {
        for cfg in paper_geometries() {
            let num_sets = cfg.num_sets();
            let last = num_sets - 1;
            let mut a = SetAssocCache::new(&cfg);
            // Empty sets restore without growing the store.
            let empty = restored(&cfg, &bytes(|w| a.snapshot(w))).expect("restore");
            assert_eq!(empty.slot_capacity(), 0);
            a.insert(LineAddr(last + num_sets), LineState::Modified);
            let snap = bytes(|w| a.snapshot(w));
            let mut b = restored(&cfg, &snap).expect("restore");
            assert_eq!(
                b.store.len(),
                num_sets as usize * cfg.associativity as usize
            );
            assert!(bytes(|w| b.snapshot(w)) == snap);
            // Overfill the last set by two: every peek and victim agrees.
            let mut victims = 0;
            for k in 0..=cfg.associativity as u64 {
                let line = LineAddr(last + num_sets * (k + 2));
                let v = a.insert(line, LineState::Shared);
                assert_eq!(v, b.insert(line, LineState::Shared));
                victims += v.is_some() as usize;
                for l in (1..k + 3).map(|t| LineAddr(last + num_sets * t)) {
                    assert_eq!(a.peek(l), b.peek(l), "line {}", l.0);
                }
            }
            assert_eq!(victims, 2);
            assert!(bytes(|w| a.snapshot(w)) == bytes(|w| b.snapshot(w)));
        }
    }

    /// A cache payload with the given header and sets of
    /// `(line, modified, last_use)` ways.
    fn payload(
        ways: usize,
        set_mask: u64,
        num_sets: usize,
        sets: &[&[(u64, bool, u64)]],
    ) -> Vec<u8> {
        bytes(|w| {
            w.usize(ways);
            w.u64(set_mask);
            w.u64(100);
            w.usize(num_sets);
            for set in sets {
                w.seq(set, |w, &(line, m, t)| {
                    w.u64(line);
                    w.bool(m);
                    w.u64(t);
                });
            }
            w.u64(0);
            w.u64(0);
        })
    }

    fn assert_corrupt(cfg: &CacheConfig, bytes: &[u8]) {
        assert!(matches!(
            restored(cfg, bytes),
            Err(snap::SnapError::Corrupt { .. })
        ));
    }

    #[test]
    fn restore_accepts_a_well_formed_payload() {
        let cfg = geometry(2, 2);
        let c = restored(
            &cfg,
            &payload(2, 1, 2, &[&[(0, true, 7), (2, false, 9)], &[(1, false, 8)]]),
        )
        .expect("restore");
        assert_eq!(c.occupancy(), 3);
        assert_eq!(c.peek(LineAddr(0)), Some(LineState::Modified));
    }

    #[test]
    fn restore_rejects_a_set_mask_wider_than_the_sets() {
        assert_corrupt(&geometry(2, 2), &payload(2, 7, 2, &[&[(7, false, 1)], &[]]));
    }

    #[test]
    fn restore_rejects_a_huge_set_count() {
        assert_corrupt(&geometry(2, 2), &payload(2, 1, 1 << 60, &[]));
    }

    #[test]
    fn restore_rejects_a_set_fuller_than_its_ways() {
        let five: Vec<_> = (0..5).map(|k| (2 * k, false, k + 1)).collect();
        assert_corrupt(&geometry(2, 2), &payload(2, 1, 2, &[&five, &[]]));
    }

    #[test]
    fn restore_rejects_other_geometry_and_misplaced_lines() {
        let cfg = geometry(2, 2);
        // Another associativity, and a line stored in the wrong set.
        assert_corrupt(&cfg, &payload(4, 1, 2, &[&[], &[]]));
        assert_corrupt(&cfg, &payload(2, 1, 2, &[&[(1, false, 1)], &[]]));
    }
}
