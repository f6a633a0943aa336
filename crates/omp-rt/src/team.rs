//! Team layout: mapping OpenMP threads onto simulated processors.
//!
//! The Omni-style runtime creates its process pool once at program start
//! ("process creation happens at the start of the program, and processes
//! are kept in an idle pool"). How pool members map onto the machine
//! depends on the execution mode:
//!
//! * **single** — thread *t* runs on processor 0 of CMP *t*; processor 1
//!   of every CMP idles;
//! * **double** — thread *t* runs on processor *t mod 2* of CMP *t/2*;
//! * **slipstream** — thread *t*'s R-stream runs on processor 0 of CMP
//!   *t*, and a shadow A-stream with the *same thread id* runs on
//!   processor 1 (the paper: "the same ID should be returned to processes
//!   sharing a CMP. The thread count used by internal library should be
//!   half of the total available").

use crate::mode::ExecMode;
use dsm_sim::{CmpId, CpuId, MachineConfig};

/// Role of a processor in a laid-out team.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuAssignment {
    /// Runs OpenMP thread `tid` (solo or R-stream).
    Worker {
        /// The OpenMP thread id.
        tid: u64,
    },
    /// Runs the A-stream shadowing OpenMP thread `tid`.
    AStream {
        /// The shadowed thread id.
        tid: u64,
    },
    /// Not used in this mode.
    Idle,
}

/// The static thread↔processor mapping for a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TeamLayout {
    /// Execution mode.
    pub mode: ExecMode,
    /// Number of CMP nodes.
    pub num_cmps: usize,
    /// Processors per CMP (2 for the paper's machine).
    pub cpus_per_cmp: usize,
    /// Optional cap on team size (`OMP_NUM_THREADS`).
    pub max_threads: Option<u64>,
}

impl TeamLayout {
    /// Lay out a team on `cfg` in `mode`.
    pub fn new(cfg: &MachineConfig, mode: ExecMode) -> Self {
        assert!(
            mode != ExecMode::Slipstream || cfg.cpus_per_cmp >= 2,
            "slipstream mode needs dual-processor CMPs"
        );
        TeamLayout {
            mode,
            num_cmps: cfg.num_cmps,
            cpus_per_cmp: cfg.cpus_per_cmp,
            max_threads: None,
        }
    }

    /// Apply an `OMP_NUM_THREADS`-style cap.
    pub fn with_max_threads(mut self, max: Option<u64>) -> Self {
        self.max_threads = max;
        self
    }

    /// The team size visible to `omp_get_num_threads()`.
    pub fn team_size(&self) -> u64 {
        let natural = match self.mode {
            ExecMode::Single | ExecMode::Slipstream => self.num_cmps as u64,
            ExecMode::Double => (self.num_cmps * self.cpus_per_cmp.min(2)) as u64,
        };
        match self.max_threads {
            Some(m) => natural.min(m).max(1),
            None => natural,
        }
    }

    /// Processor running OpenMP thread `tid` (the R-stream in slipstream
    /// mode).
    ///
    /// Double mode *scatters* consecutive thread ids across nodes (thread
    /// t → CMP t mod N), modelling OS process placement that makes no
    /// adjacency promises — consecutive-slab threads do not share an L2,
    /// which matches the double-mode behaviour the paper measured under
    /// IRIX.
    pub fn worker_cpu(&self, tid: u64) -> CpuId {
        debug_assert!(tid < self.team_size());
        match self.mode {
            ExecMode::Single | ExecMode::Slipstream => CmpId(tid as usize).cpu_index(self, 0),
            ExecMode::Double => {
                let cmp = tid as usize % self.num_cmps;
                let local = tid as usize / self.num_cmps;
                CmpId(cmp).cpu_index(self, local)
            }
        }
    }

    /// Processor running the A-stream shadow of thread `tid`
    /// (slipstream mode only).
    pub fn astream_cpu(&self, tid: u64) -> Option<CpuId> {
        match self.mode {
            ExecMode::Slipstream => Some(CmpId(tid as usize).cpu_index(self, 1)),
            _ => None,
        }
    }

    /// What a given processor does in this layout.
    pub fn assignment_of(&self, cpu: CpuId) -> CpuAssignment {
        let cmp = cpu.0 / self.cpus_per_cmp;
        let local = cpu.0 % self.cpus_per_cmp;
        let ts = self.team_size();
        match self.mode {
            ExecMode::Single => {
                if local == 0 && (cmp as u64) < ts {
                    CpuAssignment::Worker { tid: cmp as u64 }
                } else {
                    CpuAssignment::Idle
                }
            }
            ExecMode::Double => {
                let tid = (local * self.num_cmps + cmp) as u64;
                if local < 2 && tid < ts {
                    CpuAssignment::Worker { tid }
                } else {
                    CpuAssignment::Idle
                }
            }
            ExecMode::Slipstream => {
                if (cmp as u64) >= ts || local > 1 {
                    CpuAssignment::Idle
                } else if local == 0 {
                    CpuAssignment::Worker { tid: cmp as u64 }
                } else {
                    CpuAssignment::AStream { tid: cmp as u64 }
                }
            }
        }
    }

    /// The master's processor (thread 0).
    pub fn master_cpu(&self) -> CpuId {
        self.worker_cpu(0)
    }

    /// All processors that execute something in this layout.
    pub fn active_cpus(&self) -> Vec<CpuId> {
        let total = self.num_cmps * self.cpus_per_cmp;
        (0..total)
            .map(CpuId)
            .filter(|c| self.assignment_of(*c) != CpuAssignment::Idle)
            .collect()
    }
}

/// Helper: processor `local` of a CMP under a layout (avoids needing the
/// full MachineConfig).
trait CmpExt {
    fn cpu_index(self, layout: &TeamLayout, local: usize) -> CpuId;
}

impl CmpExt for CmpId {
    fn cpu_index(self, layout: &TeamLayout, local: usize) -> CpuId {
        CpuId(self.0 * layout.cpus_per_cmp + local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::paper()
    }

    #[test]
    fn single_mode_uses_one_cpu_per_cmp() {
        let l = TeamLayout::new(&cfg(), ExecMode::Single);
        assert_eq!(l.team_size(), 16);
        assert_eq!(l.worker_cpu(0), CpuId(0));
        assert_eq!(l.worker_cpu(5), CpuId(10));
        assert_eq!(l.assignment_of(CpuId(10)), CpuAssignment::Worker { tid: 5 });
        assert_eq!(l.assignment_of(CpuId(11)), CpuAssignment::Idle);
        assert_eq!(l.active_cpus().len(), 16);
        assert_eq!(l.astream_cpu(3), None);
    }

    #[test]
    fn double_mode_scatters_threads_across_nodes() {
        let l = TeamLayout::new(&cfg(), ExecMode::Double);
        assert_eq!(l.team_size(), 32);
        // Consecutive thread ids land on different CMPs (OS-style
        // placement with no adjacency promises).
        assert_eq!(l.worker_cpu(0), CpuId(0));
        assert_eq!(l.worker_cpu(1), CpuId(2));
        assert_eq!(l.worker_cpu(16), CpuId(1));
        assert_eq!(l.worker_cpu(17), CpuId(3));
        assert_eq!(l.assignment_of(CpuId(0)), CpuAssignment::Worker { tid: 0 });
        assert_eq!(l.assignment_of(CpuId(1)), CpuAssignment::Worker { tid: 16 });
        assert_eq!(
            l.assignment_of(CpuId(31)),
            CpuAssignment::Worker { tid: 31 }
        );
        // Round-trip: every thread's cpu maps back to it.
        for tid in 0..32 {
            assert_eq!(
                l.assignment_of(l.worker_cpu(tid)),
                CpuAssignment::Worker { tid }
            );
        }
        assert_eq!(l.active_cpus().len(), 32);
    }

    #[test]
    fn slipstream_pairs_share_a_cmp_and_tid() {
        let l = TeamLayout::new(&cfg(), ExecMode::Slipstream);
        assert_eq!(l.team_size(), 16, "thread count is half the processors");
        for tid in 0..16 {
            let r = l.worker_cpu(tid);
            let a = l.astream_cpu(tid).unwrap();
            assert_eq!(r.0 / 2, a.0 / 2, "pair shares a CMP");
            assert_eq!(l.assignment_of(r), CpuAssignment::Worker { tid });
            assert_eq!(l.assignment_of(a), CpuAssignment::AStream { tid });
        }
        assert_eq!(l.active_cpus().len(), 32);
    }

    #[test]
    fn max_threads_caps_team() {
        let l = TeamLayout::new(&cfg(), ExecMode::Single).with_max_threads(Some(4));
        assert_eq!(l.team_size(), 4);
        assert_eq!(l.assignment_of(CpuId(8)), CpuAssignment::Idle);
        assert_eq!(l.active_cpus().len(), 4);
    }

    #[test]
    fn master_is_thread_zero() {
        for mode in [ExecMode::Single, ExecMode::Double, ExecMode::Slipstream] {
            let l = TeamLayout::new(&cfg(), mode);
            assert_eq!(l.master_cpu(), CpuId(0));
        }
    }

    #[test]
    #[should_panic(expected = "dual-processor")]
    fn slipstream_needs_two_cpus_per_cmp() {
        let mut c = cfg();
        c.cpus_per_cmp = 1;
        TeamLayout::new(&c, ExecMode::Slipstream);
    }
}
