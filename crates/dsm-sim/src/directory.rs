//! Fully-mapped, invalidate-based directory coherence protocol.
//!
//! One directory per home node tracks, for every line of the memory slice it
//! homes, which CMPs' L2 caches hold the line and in what state (MSI at CMP
//! granularity — within a CMP the shared L2 keeps its two L1s coherent).
//! "Fully-mapped" means an exact sharer set (a bitmask over CMPs) rather
//! than a limited-pointer approximation.

use crate::address::{CmpId, LineAddr};
use crate::util::FastMap;

/// Sharer set: one bit per CMP. 64 CMPs is ample for the paper's 16.
pub type SharerMask = u64;

/// Directory state for one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the line; memory is the only copy.
    Uncached,
    /// One or more L2s hold read-only copies.
    Shared(SharerMask),
    /// Exactly one L2 holds a writable (possibly dirty) copy.
    Modified(CmpId),
}

/// Where the data for a fetch comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// Home memory supplies the data (2-hop for remote requesters).
    Memory,
    /// A dirty owner must forward/writeback (adds a third hop).
    Owner(CmpId),
}

/// Outcome of a directory request: where data comes from and which CMPs
/// must invalidate their copies before the requester may proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirOutcome {
    /// Supplier of the data.
    pub source: DataSource,
    /// CMPs whose copies must be invalidated (GetX only; excludes requester).
    pub invalidate: Vec<CmpId>,
}

/// The directory of a single home node.
#[derive(Debug, Default)]
pub struct Directory {
    entries: FastMap<LineAddr, DirState>,
    /// Count of invalidation messages this directory has issued.
    pub invalidations_sent: u64,
    /// Count of 3-hop (dirty-owner forward) transactions.
    pub three_hop_fetches: u64,
}

fn mask_to_cmps(mask: SharerMask, exclude: CmpId) -> Vec<CmpId> {
    let mut v = Vec::new();
    let mut m = mask;
    while m != 0 {
        let bit = m.trailing_zeros() as usize;
        if bit != exclude.0 {
            v.push(CmpId(bit));
        }
        m &= m - 1;
    }
    v
}

impl Directory {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current state of a line (Uncached if never referenced).
    pub fn state_of(&self, line: LineAddr) -> DirState {
        self.entries
            .get(&line)
            .copied()
            .unwrap_or(DirState::Uncached)
    }

    /// Read request (GetS) from `req`. Adds `req` to the sharer set; a dirty
    /// owner is downgraded to Shared and supplies the data (3 hops).
    pub fn get_s(&mut self, line: LineAddr, req: CmpId) -> DirOutcome {
        let bit = 1u64 << req.0;
        let state = self.state_of(line);
        match state {
            DirState::Uncached => {
                self.entries.insert(line, DirState::Shared(bit));
                DirOutcome {
                    source: DataSource::Memory,
                    invalidate: Vec::new(),
                }
            }
            DirState::Shared(mask) => {
                self.entries.insert(line, DirState::Shared(mask | bit));
                DirOutcome {
                    source: DataSource::Memory,
                    invalidate: Vec::new(),
                }
            }
            DirState::Modified(owner) if owner == req => {
                // Requester already owns it (e.g., L2 lost and re-requested
                // after an L1-only event); treat as silent ownership keep.
                DirOutcome {
                    source: DataSource::Memory,
                    invalidate: Vec::new(),
                }
            }
            DirState::Modified(owner) => {
                // Owner writes back and downgrades; both end up sharers.
                self.three_hop_fetches += 1;
                self.entries
                    .insert(line, DirState::Shared(bit | (1u64 << owner.0)));
                DirOutcome {
                    source: DataSource::Owner(owner),
                    invalidate: Vec::new(),
                }
            }
        }
    }

    /// Write/ownership request (GetX) from `req`. All other copies are
    /// invalidated and `req` becomes the Modified owner.
    pub fn get_x(&mut self, line: LineAddr, req: CmpId) -> DirOutcome {
        let state = self.state_of(line);
        let outcome = match state {
            DirState::Uncached => DirOutcome {
                source: DataSource::Memory,
                invalidate: Vec::new(),
            },
            DirState::Shared(mask) => {
                let inv = mask_to_cmps(mask, req);
                self.invalidations_sent += inv.len() as u64;
                DirOutcome {
                    source: DataSource::Memory,
                    invalidate: inv,
                }
            }
            DirState::Modified(owner) if owner == req => DirOutcome {
                source: DataSource::Memory,
                invalidate: Vec::new(),
            },
            DirState::Modified(owner) => {
                self.three_hop_fetches += 1;
                self.invalidations_sent += 1;
                DirOutcome {
                    source: DataSource::Owner(owner),
                    invalidate: vec![owner],
                }
            }
        };
        self.entries.insert(line, DirState::Modified(req));
        outcome
    }

    /// A clean sharer silently dropped its copy (L2 eviction of a Shared
    /// line). Keeps the sharer set exact, as a fully-mapped directory with
    /// replacement hints would.
    pub fn evict_shared(&mut self, line: LineAddr, cmp: CmpId) {
        if let Some(DirState::Shared(mask)) = self.entries.get(&line).copied() {
            let new = mask & !(1u64 << cmp.0);
            if new == 0 {
                self.entries.insert(line, DirState::Uncached);
            } else {
                self.entries.insert(line, DirState::Shared(new));
            }
        }
    }

    /// The owner wrote a dirty line back to memory (L2 eviction of a
    /// Modified line).
    pub fn writeback(&mut self, line: LineAddr, cmp: CmpId) {
        if let Some(DirState::Modified(owner)) = self.entries.get(&line).copied() {
            if owner == cmp {
                self.entries.insert(line, DirState::Uncached);
            }
        }
    }

    /// Serialize the directory. Entries are written sorted by line address
    /// — `FastMap` iteration order is not deterministic, the snapshot must
    /// be.
    pub fn snapshot(&self, w: &mut snap::Writer) {
        let mut entries: Vec<(LineAddr, DirState)> =
            self.entries.iter().map(|(l, s)| (*l, *s)).collect();
        entries.sort_unstable_by_key(|(l, _)| l.0);
        w.seq(&entries, |w, (line, state)| {
            w.u64(line.0);
            match state {
                DirState::Uncached => w.u8(0),
                DirState::Shared(mask) => {
                    w.u8(1);
                    w.u64(*mask);
                }
                DirState::Modified(owner) => {
                    w.u8(2);
                    w.usize(owner.0);
                }
            }
        });
        w.u64(self.invalidations_sent);
        w.u64(self.three_hop_fetches);
    }

    /// Restore a directory written by [`Directory::snapshot`].
    pub fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        let entries = r.seq(|r| {
            let line = LineAddr(r.u64()?);
            let state = match r.u8()? {
                0 => DirState::Uncached,
                1 => DirState::Shared(r.u64()?),
                2 => DirState::Modified(CmpId(r.usize()?)),
                _ => return Err(snap::SnapError::Corrupt { what: "DirState" }),
            };
            Ok((line, state))
        })?;
        Ok(Directory {
            entries: entries.into_iter().collect(),
            invalidations_sent: r.u64()?,
            three_hop_fetches: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LineAddr = LineAddr(42);

    #[test]
    fn cold_read_comes_from_memory() {
        let mut d = Directory::new();
        let o = d.get_s(L, CmpId(0));
        assert_eq!(o.source, DataSource::Memory);
        assert!(o.invalidate.is_empty());
        assert_eq!(d.state_of(L), DirState::Shared(1));
    }

    #[test]
    fn multiple_readers_accumulate_sharers() {
        let mut d = Directory::new();
        d.get_s(L, CmpId(0));
        d.get_s(L, CmpId(3));
        d.get_s(L, CmpId(5));
        assert_eq!(d.state_of(L), DirState::Shared(0b101001));
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut d = Directory::new();
        d.get_s(L, CmpId(0));
        d.get_s(L, CmpId(1));
        d.get_s(L, CmpId(2));
        let o = d.get_x(L, CmpId(1));
        assert_eq!(o.source, DataSource::Memory);
        let mut inv = o.invalidate.clone();
        inv.sort();
        assert_eq!(inv, vec![CmpId(0), CmpId(2)]);
        assert_eq!(d.state_of(L), DirState::Modified(CmpId(1)));
        assert_eq!(d.invalidations_sent, 2);
    }

    #[test]
    fn read_of_dirty_line_is_three_hop_and_downgrades() {
        let mut d = Directory::new();
        d.get_x(L, CmpId(7));
        let o = d.get_s(L, CmpId(2));
        assert_eq!(o.source, DataSource::Owner(CmpId(7)));
        assert!(o.invalidate.is_empty());
        assert_eq!(d.state_of(L), DirState::Shared((1 << 7) | (1 << 2)));
        assert_eq!(d.three_hop_fetches, 1);
    }

    #[test]
    fn write_of_dirty_line_transfers_ownership() {
        let mut d = Directory::new();
        d.get_x(L, CmpId(4));
        let o = d.get_x(L, CmpId(9));
        assert_eq!(o.source, DataSource::Owner(CmpId(4)));
        assert_eq!(o.invalidate, vec![CmpId(4)]);
        assert_eq!(d.state_of(L), DirState::Modified(CmpId(9)));
    }

    #[test]
    fn rewrite_by_owner_is_silent() {
        let mut d = Directory::new();
        d.get_x(L, CmpId(4));
        let o = d.get_x(L, CmpId(4));
        assert!(o.invalidate.is_empty());
        assert_eq!(o.source, DataSource::Memory);
        assert_eq!(d.state_of(L), DirState::Modified(CmpId(4)));
    }

    #[test]
    fn shared_eviction_prunes_sharer_set() {
        let mut d = Directory::new();
        d.get_s(L, CmpId(0));
        d.get_s(L, CmpId(1));
        d.evict_shared(L, CmpId(0));
        assert_eq!(d.state_of(L), DirState::Shared(0b10));
        d.evict_shared(L, CmpId(1));
        assert_eq!(d.state_of(L), DirState::Uncached);
        // A subsequent write needs no invalidations.
        let o = d.get_x(L, CmpId(2));
        assert!(o.invalidate.is_empty());
    }

    #[test]
    fn writeback_clears_ownership() {
        let mut d = Directory::new();
        d.get_x(L, CmpId(3));
        d.writeback(L, CmpId(3));
        assert_eq!(d.state_of(L), DirState::Uncached);
        // Writeback from a non-owner is ignored.
        d.get_x(L, CmpId(5));
        d.writeback(L, CmpId(3));
        assert_eq!(d.state_of(L), DirState::Modified(CmpId(5)));
    }
}
