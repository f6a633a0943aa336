//! Property-style tests of the machine substrate: the cache against a
//! naive reference model, directory state-machine invariants, resource
//! window consistency, classifier conservation, and whole-memory-system
//! coherence. Inputs are generated from seeded [`SplitMix64`] streams so
//! every run is deterministic and reproducible by seed.

use dsm_sim::{
    AccessKind, Addr, CacheConfig, CmpId, CpuId, CpuStats, DirState, Directory, LineAddr,
    LineState, MachineConfig, MemSystem, Resource, SetAssocCache, SplitMix64,
};

// ------------------------------------------------------------- cache ---

/// Naive LRU reference: per set, a vector ordered by recency.
struct RefCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
    mask: u64,
}

impl RefCache {
    fn new(num_sets: u64, ways: usize) -> Self {
        RefCache {
            sets: vec![Vec::new(); num_sets as usize],
            ways,
            mask: num_sets - 1,
        }
    }

    /// Returns hit?, evicted line.
    fn access_fill(&mut self, line: u64) -> (bool, Option<u64>) {
        let set = &mut self.sets[(line & self.mask) as usize];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            set.push(line);
            (true, None)
        } else {
            let victim = if set.len() == self.ways {
                Some(set.remove(0))
            } else {
                None
            };
            set.push(line);
            (false, victim)
        }
    }
}

#[test]
fn cache_matches_reference_lru() {
    for seed in 0..40u64 {
        let mut g = SplitMix64::new(0xCAC4E ^ seed);
        let n = 1 + g.below(300) as usize;
        // 4 sets x 2 ways.
        let cfg = CacheConfig {
            size_bytes: 512,
            associativity: 2,
            line_bytes: 64,
            hit_latency: 1,
        };
        let mut dut = SetAssocCache::new(&cfg);
        let mut reference = RefCache::new(cfg.num_sets(), 2);
        for _ in 0..n {
            let l = g.below(64);
            let line = LineAddr(l);
            let dut_hit = dut.access(line).is_some();
            let (ref_hit, ref_victim) = reference.access_fill(l);
            assert_eq!(dut_hit, ref_hit, "hit/miss divergence on {l} (seed {seed})");
            if !dut_hit {
                let victim = dut.insert(line, LineState::Shared);
                assert_eq!(
                    victim.map(|v| v.line.0),
                    ref_victim,
                    "victim divergence on {l} (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn directory_invariants_hold() {
    for seed in 0..40u64 {
        let mut g = SplitMix64::new(0xD14 ^ seed);
        let n = 1 + g.below(200) as usize;
        let mut d = Directory::new();
        // Shadow: which cmps believe they hold each line, and in what state.
        let mut holders: std::collections::HashMap<u64, Vec<(usize, bool)>> =
            std::collections::HashMap::new();
        for _ in 0..n {
            let op = g.below(4) as u8;
            let line_raw = g.below(8);
            let cmp = g.below(4) as usize;
            let line = LineAddr(line_raw);
            let h = holders.entry(line_raw).or_default();
            match op {
                0 => {
                    let o = d.get_s(line, CmpId(cmp));
                    assert!(o.invalidate.is_empty(), "GetS never invalidates");
                    // An owner re-reading its own Modified line keeps
                    // ownership (silent); otherwise any dirty owner is
                    // downgraded to a sharer alongside the requester.
                    if *h != vec![(cmp, true)] {
                        for e in h.iter_mut() {
                            e.1 = false;
                        }
                        if !h.iter().any(|(c, _)| *c == cmp) {
                            h.push((cmp, false));
                        }
                    }
                }
                1 => {
                    let o = d.get_x(line, CmpId(cmp));
                    for v in &o.invalidate {
                        assert_ne!(v.0, cmp, "requester never invalidates itself");
                    }
                    h.clear();
                    h.push((cmp, true));
                }
                2 => {
                    d.evict_shared(line, CmpId(cmp));
                    h.retain(|(c, m)| *m || *c != cmp);
                }
                _ => {
                    d.writeback(line, CmpId(cmp));
                    h.retain(|(c, m)| !(*m && *c == cmp));
                }
            }
            // Invariants against the shadow.
            match d.state_of(line) {
                DirState::Uncached => assert!(h.is_empty()),
                DirState::Shared(mask) => {
                    assert!(mask != 0, "Shared with empty sharer set");
                    for (c, m) in h.iter() {
                        assert!(!m, "Modified holder under Shared state");
                        assert!(mask & (1 << c) != 0, "holder missing from mask");
                    }
                }
                DirState::Modified(owner) => {
                    assert_eq!(h.len(), 1);
                    assert_eq!(h[0], (owner.0, true));
                }
            }
        }
    }
}

#[test]
fn resource_windows_never_overlap() {
    for seed in 0..40u64 {
        let mut g = SplitMix64::new(0x4E50 ^ seed);
        let n = 1 + g.below(100) as usize;
        let mut r = Resource::new();
        let mut windows: Vec<(u64, u64)> = Vec::new();
        for _ in 0..n {
            let now = g.below(10_000);
            let occ = 1 + g.below(199);
            let done = r.acquire(now, occ, 0);
            let start = done - occ;
            assert!(start >= now, "service cannot start before the request");
            for &(s, e) in &windows {
                assert!(
                    done <= s || start >= e,
                    "window [{start},{done}) overlaps [{s},{e})"
                );
            }
            windows.push((start, done));
        }
    }
}

#[test]
fn memory_system_coherence_invariant() {
    for seed in 0..24u64 {
        let mut g = SplitMix64::new(0xC0445 ^ seed);
        let n = 1 + g.below(250) as usize;
        let mut cfg = MachineConfig::paper();
        cfg.num_cmps = 4;
        let mut ms = MemSystem::new(&cfg);
        let mut st = CpuStats::default();
        let base = ms.map().shared_base();
        let mut t = 0u64;
        for _ in 0..n {
            let cpu = g.below(8) as usize;
            let line = g.below(32);
            let is_store = g.chance(0.5);
            let addr: Addr = base + line * 64;
            let kind = if is_store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let res = ms.access(CpuId(cpu), addr, kind, t, &mut st);
            t = res.complete + 1;
            // Single-writer invariant: at most one L2 holds any line
            // Modified, and if one does, no other L2 holds it at all.
            let la = ms.map().line_of(addr);
            let states: Vec<Option<LineState>> =
                (0..4).map(|c| ms.l2_of(CmpId(c)).peek(la)).collect();
            let modified = states
                .iter()
                .filter(|s| **s == Some(LineState::Modified))
                .count();
            assert!(modified <= 1, "two Modified copies: {states:?}");
            if modified == 1 {
                let holders = states.iter().filter(|s| s.is_some()).count();
                assert_eq!(holders, 1, "Modified alongside Shared: {states:?}");
            }
        }
    }
}

#[test]
fn classifier_conserves_fills() {
    use dsm_sim::{Classifier, ReqKind, StreamRole, FILL_CLASSES};
    for seed in 0..40u64 {
        let mut g = SplitMix64::new(0xF111 ^ seed);
        let n = 1 + g.below(200) as usize;
        let mut cl = Classifier::new();
        let mut fills = 0u64;
        let mut t = 0u64;
        for _ in 0..n {
            let op = g.below(3) as u8;
            let line = g.below(16);
            let is_a = g.chance(0.5);
            t += 10;
            let who = if is_a { StreamRole::A } else { StreamRole::R };
            match op {
                0 => {
                    cl.on_fill(CmpId(0), LineAddr(line), who, ReqKind::Read, t + 100);
                    fills += 1;
                }
                1 => cl.on_reference(CmpId(0), LineAddr(line), who, t),
                _ => cl.on_drop(CmpId(0), LineAddr(line)),
            }
        }
        cl.finish();
        let classified: u64 = FILL_CLASSES
            .iter()
            .map(|c| cl.counts.get(ReqKind::Read, *c))
            .sum();
        assert_eq!(classified, fills, "every fill classified exactly once");
        assert_eq!(cl.live_records(), 0);
    }
}
