//! Physical address layout of the simulated machine.
//!
//! The paper requires that "the virtual shared space must be either
//! contiguous or non-contiguous but not interleaved with private space, to
//! ease delineation of what is shared and what is not shared" (Section 3.1).
//! We adopt the UNIX-process model the paper's implementation chose: one
//! contiguous shared segment, plus one contiguous private segment per CPU.
//!
//! Shared lines are distributed round-robin (by line) across node memories,
//! which determines each line's *home* directory. Private lines are homed on
//! the owning CPU's node.

use crate::config::MachineConfig;

/// Identifies a processor in the machine (dense, `0..num_cpus`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CpuId(pub usize);

/// Identifies a CMP node (dense, `0..num_cmps`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CmpId(pub usize);

impl CpuId {
    /// The CMP node this processor belongs to. (Named for the chip
    /// multiprocessor, not comparison; `CpuId` also derives `Ord`.)
    #[allow(clippy::should_implement_trait)]
    pub fn cmp(self, cfg: &MachineConfig) -> CmpId {
        CmpId(self.0 / cfg.cpus_per_cmp)
    }

    /// Index of this processor within its CMP (0 or 1 for dual-core nodes).
    pub fn local_index(self, cfg: &MachineConfig) -> usize {
        self.0 % cfg.cpus_per_cmp
    }
}

impl CmpId {
    /// The `i`-th processor of this CMP.
    pub fn cpu(self, cfg: &MachineConfig, i: usize) -> CpuId {
        debug_assert!(i < cfg.cpus_per_cmp);
        CpuId(self.0 * cfg.cpus_per_cmp + i)
    }
}

/// Which segment an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Globally shared data (application arrays, runtime control state).
    Shared,
    /// Per-CPU private data (loop state, stack, private arrays).
    Private,
}

/// A physical byte address in the simulated machine.
pub type Addr = u64;

/// A cache-line-granular address (byte address >> line shift).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineAddr(pub u64);

/// Size of each segment. Generous virtual sizes; only touched lines incur
/// simulator state.
const SHARED_BASE: Addr = 0x0000_0000_0000_0000;
const SHARED_SIZE: Addr = 1 << 40;
const PRIVATE_BASE: Addr = 1 << 44;
const PRIVATE_STRIDE: Addr = 1 << 36;

/// Bytes at the end of the shared segment that no array may occupy. The
/// engine allocates its runtime lines (barrier, lock, flag and
/// per-encounter construct lines) upward from a program's
/// `runtime_base`, a few guard lines past its last shared array, one
/// node-homed line at a time with a stride of the node count. So the
/// reserve holds `2^32 / (line bytes x nodes)` runtime lines per home
/// node: 4,194,304 on the 16-node, 64-byte-line paper machine.
const RUNTIME_RESERVE: Addr = 1 << 32;

/// Resolved placement of one application array in the simulated address
/// space — the single source of truth for shared/private classification
/// and element addressing, shared by the compiler backend
/// (`slipstream::compile`) and the static analyzer (`omp-analyze`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArraySpan {
    /// Shared (one copy in the global segment) or private (one copy per
    /// thread at this offset within each private segment).
    pub shared: bool,
    /// Absolute base address for shared arrays; offset from each CPU's
    /// private base for private arrays.
    pub base: Addr,
    /// Bytes per element.
    pub elem_bytes: u64,
    /// Element count.
    pub len: u64,
}

impl ArraySpan {
    /// Byte offset of element `index` within the array's segment
    /// (absolute for shared arrays, private-base-relative otherwise).
    /// Out-of-range indices clamp into the array rather than wandering
    /// into a neighbouring array's lines: timing kernels may probe edges.
    /// Panics on zero-length arrays, which `omp_ir::validate` rejects.
    /// The sum wraps only for layouts that [`AddressMap::check_layout`]
    /// rejects, which the static analyzer may still walk.
    pub fn element_offset(&self, index: i64) -> Addr {
        let idx = index.clamp(0, self.len as i64 - 1) as u64;
        self.base.wrapping_add(idx * self.elem_bytes)
    }

    /// One past the array's last byte, in the same coordinates as
    /// [`ArraySpan::base`] (saturating).
    fn end(&self) -> Addr {
        self.base
            .saturating_add(self.len.saturating_mul(self.elem_bytes))
    }

    /// Absolute byte address of `self[index]` for the thread on `cpu`
    /// (private arrays replicate per processor).
    pub fn element_addr(&self, map: &AddressMap, cpu: CpuId, index: i64) -> Addr {
        let off = self.element_offset(index);
        if self.shared {
            off
        } else {
            map.private_base(cpu) + off
        }
    }

    /// Cache-line index of element `index` within the array's segment
    /// (meaningful across threads only for shared arrays).
    pub fn element_line(&self, line_bytes: u64, index: i64) -> u64 {
        self.element_offset(index) / line_bytes
    }
}

/// Lay out arrays in declaration order with the compiler's placement
/// policy: each segment starts after one guard line, every array is
/// line-aligned, and one guard line separates consecutive arrays. Each
/// declaration is `(shared, len, elem_bytes)`. Returns the spans plus the
/// first shared address free for runtime objects (after the user arrays).
/// The arithmetic saturates, so a layout too large for the address space
/// comes back whole for [`AddressMap::check_layout`] to reject.
pub fn layout_spans(
    decls: impl IntoIterator<Item = (bool, u64, u64)>,
    shared_base: Addr,
    line: u64,
) -> (Vec<ArraySpan>, Addr) {
    let align = |a: Addr| a.div_ceil(line).saturating_mul(line);
    let mut shared_cursor: Addr = shared_base + line;
    let mut private_cursor: Addr = line;
    let mut spans = Vec::new();
    for (shared, len, elem_bytes) in decls {
        let bytes = align(len.saturating_mul(elem_bytes));
        let cursor = if shared {
            &mut shared_cursor
        } else {
            &mut private_cursor
        };
        let base = *cursor;
        // One guard line between arrays.
        *cursor = cursor.saturating_add(bytes).saturating_add(line);
        spans.push(ArraySpan {
            shared,
            base,
            elem_bytes,
            len,
        });
    }
    (spans, align(shared_cursor.saturating_add(line)))
}

/// Address-space map for a configured machine.
#[derive(Debug, Clone)]
pub struct AddressMap {
    line_shift: u32,
    num_cmps: usize,
    cpus_per_cmp: usize,
}

impl AddressMap {
    /// Build the map for a machine configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        debug_assert!(cfg.l1.line_bytes.is_power_of_two());
        AddressMap {
            line_shift: cfg.l1.line_bytes.trailing_zeros(),
            num_cmps: cfg.num_cmps,
            cpus_per_cmp: cfg.cpus_per_cmp,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// First byte address of the shared segment.
    pub fn shared_base(&self) -> Addr {
        SHARED_BASE
    }

    /// First byte address of `cpu`'s private segment.
    pub fn private_base(&self, cpu: CpuId) -> Addr {
        PRIVATE_BASE + cpu.0 as u64 * PRIVATE_STRIDE
    }

    /// Classify a byte address.
    pub fn space_of(&self, addr: Addr) -> Space {
        if addr < SHARED_BASE + SHARED_SIZE {
            Space::Shared
        } else {
            Space::Private
        }
    }

    /// Which CPU owns a private address. Panics on shared addresses.
    pub fn private_owner(&self, addr: Addr) -> CpuId {
        assert_eq!(self.space_of(addr), Space::Private, "not a private address");
        CpuId(((addr - PRIVATE_BASE) / PRIVATE_STRIDE) as usize)
    }

    /// The cache line containing a byte address.
    pub fn line_of(&self, addr: Addr) -> LineAddr {
        LineAddr(addr >> self.line_shift)
    }

    /// First byte address of a line.
    pub fn line_base(&self, line: LineAddr) -> Addr {
        line.0 << self.line_shift
    }

    /// Lay out `decls` (`(shared, len, elem_bytes)` per array) in this
    /// machine's address space; see [`layout_spans`].
    pub fn layout_spans(
        &self,
        decls: impl IntoIterator<Item = (bool, u64, u64)>,
    ) -> (Vec<ArraySpan>, Addr) {
        layout_spans(decls, self.shared_base(), self.line_bytes())
    }

    /// Check that spans from [`AddressMap::layout_spans`] fit the address
    /// space: shared arrays must end 2^32 bytes before the shared segment
    /// does, leaving room for the engine's runtime lines, and private
    /// arrays within one private segment. Returns the index of the first
    /// array that does not fit and why.
    pub fn check_layout(&self, spans: &[ArraySpan]) -> Result<(), (usize, String)> {
        for (k, span) in spans.iter().enumerate() {
            let (limit, what) = if span.shared {
                (
                    SHARED_BASE + SHARED_SIZE - RUNTIME_RESERVE,
                    "the shared segment (2^40 bytes, less 2^32 kept for runtime lines)",
                )
            } else {
                (PRIVATE_STRIDE, "a private segment (2^36 bytes)")
            };
            if span.end() > limit {
                return Err((k, format!("ends at byte {:#x}, past {what}", span.end())));
            }
        }
        Ok(())
    }

    /// Home node of a line: shared lines interleave round-robin across node
    /// memories; private lines are homed on the owner's node.
    pub fn home_of(&self, line: LineAddr) -> CmpId {
        let base = self.line_base(line);
        match self.space_of(base) {
            Space::Shared => CmpId((line.0 as usize) % self.num_cmps),
            Space::Private => {
                let cpu = self.private_owner(base);
                CmpId(cpu.0 / self.cpus_per_cmp)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMap {
        AddressMap::new(&MachineConfig::paper())
    }

    #[test]
    fn cpu_cmp_mapping_roundtrips() {
        let cfg = MachineConfig::paper();
        for i in 0..cfg.num_cpus() {
            let cpu = CpuId(i);
            let cmp = cpu.cmp(&cfg);
            assert_eq!(cmp.cpu(&cfg, cpu.local_index(&cfg)), cpu);
        }
        assert_eq!(CpuId(0).cmp(&cfg), CmpId(0));
        assert_eq!(CpuId(1).cmp(&cfg), CmpId(0));
        assert_eq!(CpuId(2).cmp(&cfg), CmpId(1));
        assert_eq!(CpuId(31).cmp(&cfg), CmpId(15));
    }

    #[test]
    fn shared_and_private_spaces_do_not_interleave() {
        let m = map();
        assert_eq!(m.space_of(m.shared_base()), Space::Shared);
        assert_eq!(m.space_of(m.shared_base() + 123_456_789), Space::Shared);
        for cpu in [CpuId(0), CpuId(7), CpuId(31)] {
            let b = m.private_base(cpu);
            assert_eq!(m.space_of(b), Space::Private);
            assert_eq!(m.private_owner(b), cpu);
            assert_eq!(m.private_owner(b + 4096), cpu);
        }
    }

    #[test]
    fn shared_lines_interleave_across_homes() {
        let m = map();
        let lb = m.line_bytes();
        let h0 = m.home_of(m.line_of(0));
        let h1 = m.home_of(m.line_of(lb));
        let h16 = m.home_of(m.line_of(16 * lb));
        assert_ne!(h0, h1);
        assert_eq!(h0, h16, "16 CMPs: every 16th line shares a home");
    }

    #[test]
    fn private_lines_are_homed_locally() {
        let m = map();
        let cfg = MachineConfig::paper();
        for i in 0..cfg.num_cpus() {
            let cpu = CpuId(i);
            let line = m.line_of(m.private_base(cpu) + 64 * 10);
            assert_eq!(m.home_of(line), cpu.cmp(&cfg));
        }
    }

    #[test]
    fn layout_spans_align_and_guard() {
        let m = map();
        let (spans, runtime_base) = m.layout_spans([
            (true, 100, 8), // 800B -> 832 aligned
            (true, 7, 4),   // second shared array
            (false, 33, 8), // private
            (false, 5, 8),  // private
        ]);
        let line = m.line_bytes();
        for s in &spans {
            assert_eq!(s.base % line, 0, "line-aligned");
        }
        assert_eq!(spans[0].base, m.shared_base() + line, "guard page first");
        assert!(
            spans[1].base >= spans[0].base + 100 * 8 + line,
            "guard line between shared arrays"
        );
        assert!(!spans[2].shared);
        assert!(
            spans[3].base >= spans[2].base + 33 * 8 + line,
            "guard line between private arrays"
        );
        assert!(runtime_base > spans[1].base + 7 * 4);
        assert_eq!(runtime_base % line, 0);
    }

    #[test]
    fn check_layout_keeps_the_runtime_reserve_and_private_segments() {
        let m = map();
        let line = m.line_bytes();
        // The largest shared array that fits: guard line, then up to the
        // reserve.
        let fit = SHARED_SIZE - RUNTIME_RESERVE - line;
        let (spans, _) = m.layout_spans([(true, fit, 1), (false, PRIVATE_STRIDE - line, 1)]);
        assert_eq!(m.check_layout(&spans), Ok(()));
        let (spans, _) = m.layout_spans([(true, fit + 1, 1)]);
        assert_eq!(m.check_layout(&spans).unwrap_err().0, 0);
        let (spans, _) = m.layout_spans([(true, 4, 8), (false, PRIVATE_STRIDE, 1)]);
        assert_eq!(m.check_layout(&spans).unwrap_err().0, 1);
        // Layouts beyond u64 saturate instead of overflowing.
        let (spans, runtime_base) = m.layout_spans([(true, u64::MAX, 1), (true, 1, 1)]);
        assert_eq!((spans[1].base, runtime_base), (u64::MAX, u64::MAX));
        assert_eq!(m.check_layout(&spans).unwrap_err().0, 0);
    }

    #[test]
    fn span_element_addressing_clamps_and_replicates() {
        let m = map();
        let (spans, _) = m.layout_spans([(true, 4, 8), (false, 4, 8)]);
        let s = spans[0];
        assert_eq!(
            s.element_addr(&m, CpuId(0), 2),
            s.element_addr(&m, CpuId(9), 2),
            "shared elements have one address"
        );
        assert_eq!(s.element_offset(99), s.element_offset(3), "clamps high");
        assert_eq!(s.element_offset(-5), s.element_offset(0), "clamps low");
        let p = spans[1];
        let a0 = p.element_addr(&m, CpuId(0), 1);
        let a1 = p.element_addr(&m, CpuId(1), 1);
        assert_ne!(a0, a1, "private arrays replicate per CPU");
        assert_eq!(m.private_owner(a0), CpuId(0));
        // Line arithmetic agrees with the map.
        assert_eq!(s.element_line(m.line_bytes(), 0), m.line_of(s.base).0);
    }

    #[test]
    fn line_geometry() {
        let m = map();
        assert_eq!(m.line_bytes(), 64);
        assert_eq!(m.line_of(0), m.line_of(63));
        assert_ne!(m.line_of(63), m.line_of(64));
        assert_eq!(m.line_base(m.line_of(130)), 128);
    }
}
