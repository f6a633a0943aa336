//! # dsm-sim — a CMP-based DSM multiprocessor simulator
//!
//! Deterministic discrete-event simulation of the machine evaluated in
//! *Extending OpenMP to Support Slipstream Execution Mode* (Ibrahim & Byrd,
//! IPPS 2003): dual-processor CMP nodes with private L1 caches and a shared
//! unified L2, a slice of globally shared memory per node, an
//! invalidate-based fully-mapped directory protocol, and a fixed-delay
//! interconnect with contention at the network ports and memory
//! controllers. Latency parameters default to the paper's Table 1.
//!
//! The crate provides the *machine*; the OpenMP-style runtime and the
//! slipstream execution engine that drive it live in the `omp-rt` and
//! `slipstream` crates.
//!
//! ```
//! use dsm_sim::{MachineConfig, MemSystem, AccessKind, CpuId, CpuStats};
//!
//! let cfg = MachineConfig::paper();
//! assert_eq!(cfg.remote_miss_ns(), 290);
//! let mut ms = MemSystem::new(&cfg);
//! let mut stats = CpuStats::default();
//! let addr = ms.map().shared_base();
//! let r = ms.access(CpuId(0), addr, AccessKind::Load, 0, &mut stats);
//! assert!(!r.l1_hit); // cold miss
//! ```

#![warn(missing_docs)]

pub mod address;
pub mod cache;
pub mod classify;
pub mod config;
pub mod cpu;
pub mod directory;
pub mod engine;
pub mod memory;
pub mod memsys;
pub mod network;
pub mod rng;
pub mod stats;
pub mod sync;
mod util;

pub use address::{layout_spans, Addr, AddressMap, ArraySpan, CmpId, CpuId, LineAddr, Space};
pub use cache::{LineState, SetAssocCache};
pub use classify::{Classifier, FillClass, FillCounts, ReqKind, FILL_CLASSES};
pub use config::{CacheConfig, MachineConfig, MemoryTimingNs};
pub use cpu::CpuTimeline;
pub use directory::{DataSource, DirState, Directory};
pub use engine::{Cycle, EventQueue, Resource};
pub use memory::MemoryControllers;
pub use memsys::{AccessKind, AccessResult, MachineCounters, MemSystem};
pub use network::Network;
pub use rng::SplitMix64;
pub use snap::fnv1a;
pub use stats::{CpuStats, StreamRole, TimeBreakdown, TimeClass, TIME_CLASSES};
pub use sync::{Barrier, Lock, Semaphore};
pub use util::{FastMap, FastSet, U64Hasher};
