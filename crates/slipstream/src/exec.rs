//! The execution engine: interprets compiled programs on the simulated
//! machine in single, double, or slipstream mode.
//!
//! Every simulated processor runs an interpreter over the flattened IR.
//! Leaf operations (compute, loads, stores) charge the processor's
//! timeline directly through the memory system; constructs push protocol
//! frames whose stages issue the same shared-memory and pair-register
//! operations the paper's modified Omni runtime performs:
//!
//! * **job dispatch** — the master stores to a job flag line; pool slaves
//!   wake and load it (job-wait time);
//! * **construct barriers** — arrivals are stores to the barrier line;
//!   in slipstream mode the R-stream inserts a token at entry (local
//!   sync) or exit (global sync) while the A-stream consumes one instead
//!   of arriving (Figure 1);
//! * **dynamic/guided scheduling** — chunk grabs serialize through a
//!   scheduler lock and counter line; the R-stream publishes each grab to
//!   its A-stream over the pair semaphore (Section 3.2.2);
//! * **critical/atomic/reduction** — lock-protected updates, with the
//!   per-construct A-stream policy of Section 3.1 applied;
//! * **divergence detection and recovery** — the R-stream checks token
//!   accumulation at barriers and re-seeds a diverged A-stream from its
//!   own state.

use crate::compile::{CompiledProgram, FNode, NodeId, Op};
use crate::faults::{FaultEvent, FaultKind, FaultPlan, FaultSite, PairLedger};
use crate::pairing::{Decision, PairState};
use crate::policy::{AAction, AStreamPolicy, RecoveryPolicy};
use dsm_sim::{
    AccessKind, Addr, AddressMap, Barrier, CmpId, CpuId, CpuTimeline, Cycle, EventQueue, Lock,
    MachineConfig, MemSystem, StreamRole, TimeClass,
};
use omp_ir::expr::{BinOp, EvalCtx, Expr, TableId, VarId};
use omp_ir::node::{ArrayId, Reduction, ReductionOp, SlipSyncType, SlipstreamClause};
use omp_ir::trace::OpCounts;
use omp_ir::wsloop::Chunk;
use omp_rt::constructs::ConstructArena;
use omp_rt::mode::{resolve_region, ExecMode, PairMode, RegionSlip, SlipSync};
use omp_rt::schedule::{resolve_schedule, static_chunks, ResolvedSchedule};
use omp_rt::team::{CpuAssignment, TeamLayout};
use omp_rt::RuntimeEnv;
use sim_trace::{TraceConfig, TraceData, TraceEvent, Tracer, TrackDomain};

/// Deterministic OS-interference model: every processor loses a slice of
/// `slice_cycles` roughly every `quantum_cycles` (timer ticks, daemons),
/// with per-processor stagger derived from `seed`. The paper notes that
/// IRIX "does not recognize slipstream mode where A-stream and R-stream
/// are scheduled and serviced independently"; this knob lets experiments
/// include that interference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsNoise {
    /// Mean cycles between interruptions per processor.
    pub quantum_cycles: Cycle,
    /// Cycles stolen per interruption.
    pub slice_cycles: Cycle,
    /// Stagger seed (runs are deterministic for a fixed seed).
    pub seed: u64,
}

fn mix64(mut x: u64) -> u64 {
    // splitmix64 finalizer.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deliberately-broken engine variants, each a realistic bug class in the
/// slipstream runtime, selectable at run time. These exist for one
/// purpose: the differential fuzzer's self-check, which must prove the
/// whole detect-shrink-replay loop catches real engine bugs. Under
/// [`EngineMutation::None`] (the default) every branch below is dead and
/// the engine is bit-identical to an unmutated build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMutation {
    /// No mutation: the production engine.
    #[default]
    None,
    /// Broken token accounting: every second token insertion loses its
    /// semaphore signal (as if the pair-register write were dropped).
    /// A-streams strand behind barriers; the run either hangs into the
    /// cycle budget or survives only through divergence recoveries.
    TokenAccounting,
    /// Off-by-one static chunking: the last thread's final static chunk
    /// is shortened by one iteration, silently dropping work. Every mode
    /// undercounts ops relative to the trace oracle.
    ChunkOffByOne,
    /// Off-by-one exit check in the batched native `for` loop: the
    /// fast-path compute loop retires one extra iteration before
    /// noticing the bound. Compute cycles overcount in every mode.
    BatchBailOffByOne,
}

impl EngineMutation {
    /// Stable lowercase label (CLI flags, artifact JSON).
    pub fn label(self) -> &'static str {
        match self {
            EngineMutation::None => "none",
            EngineMutation::TokenAccounting => "token-accounting",
            EngineMutation::ChunkOffByOne => "chunk-off-by-one",
            EngineMutation::BatchBailOffByOne => "batch-bail-off-by-one",
        }
    }

    /// Parse a [`label`](Self::label) back.
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "none" => Some(EngineMutation::None),
            "token-accounting" => Some(EngineMutation::TokenAccounting),
            "chunk-off-by-one" => Some(EngineMutation::ChunkOffByOne),
            "batch-bail-off-by-one" => Some(EngineMutation::BatchBailOffByOne),
            _ => None,
        }
    }

    /// All non-`None` mutation classes (the self-check sweeps these).
    pub const ALL_BROKEN: [EngineMutation; 3] = [
        EngineMutation::TokenAccounting,
        EngineMutation::ChunkOffByOne,
        EngineMutation::BatchBailOffByOne,
    ];
}

/// Tunable engine parameters beyond the machine model.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Processor usage mode.
    pub mode: ExecMode,
    /// Runtime environment (`OMP_*` variables).
    pub env: RuntimeEnv,
    /// A-stream construct policy.
    pub policy: AStreamPolicy,
    /// Busy cycles to compute a static chunk assignment.
    pub static_sched_cycles: u64,
    /// Busy cycles of scheduler arithmetic per dynamic grab (on top of the
    /// lock and counter traffic).
    pub dynamic_sched_cycles: u64,
    /// Fixed busy cycles per I/O operation.
    pub io_fixed_cycles: u64,
    /// Additional busy cycles per 8 bytes of I/O.
    pub io_cycles_per_8_bytes: u64,
    /// Divergence detection and recovery knobs (watchdog, retry budget,
    /// restart cost, token slack).
    pub recovery: RecoveryPolicy,
    /// Fault-injection plan fired at the engine's hook points.
    pub faults: FaultPlan,
    /// Optional OS-interference model.
    pub os_noise: Option<OsNoise>,
    /// Structured event tracing (observation-only; off by default). When
    /// on, the run's [`RunResult::trace`] carries the merged
    /// [`TraceData`] for Perfetto export and analytics.
    pub trace: TraceConfig,
    /// Hard cap on simulated cycles (deadlock/livelock watchdog).
    pub max_cycles: Cycle,
    /// Hard cap on scheduler events processed.
    pub max_events: u64,
    /// Seeded engine-mutation class (fuzzer self-check only);
    /// [`EngineMutation::None`] keeps the engine bit-identical.
    pub mutation: EngineMutation,
    /// Held for perfbench until the benchmark change: the engine never
    /// reads it, and [`MemoPlan`] has a single value.
    pub memo: MemoPlan,
}

impl EngineConfig {
    /// Defaults for a machine and mode.
    pub fn new(machine: MachineConfig, mode: ExecMode) -> Self {
        EngineConfig {
            machine,
            mode,
            env: RuntimeEnv::default(),
            policy: AStreamPolicy::paper(),
            static_sched_cycles: 15,
            dynamic_sched_cycles: 6,
            io_fixed_cycles: 2000,
            io_cycles_per_8_bytes: 1,
            recovery: RecoveryPolicy::paper(),
            faults: FaultPlan::none(),
            os_noise: None,
            trace: TraceConfig::OFF,
            max_cycles: 50_000_000_000,
            max_events: 2_000_000_000,
            mutation: EngineMutation::None,
            memo: MemoPlan,
        }
    }
}

/// Held for perfbench until the benchmark change: the type of
/// [`EngineConfig::memo`], with a single value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoPlan;

/// Held for perfbench until the benchmark change: always returns
/// [`MemoPlan`].
pub fn build_plan(_report: &omp_analyze::AnalysisReport, _cp: &CompiledProgram) -> MemoPlan {
    MemoPlan
}

/// Aggregated outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Wall-clock of the run: the master's completion cycle.
    pub exec_cycles: Cycle,
    /// Per-processor statistics (indexed by CPU id; idle CPUs are empty).
    pub cpu_stats: Vec<dsm_sim::CpuStats>,
    /// Role of each processor during the run.
    pub roles: Vec<StreamRole>,
    /// Shared-fill classification (Figures 3 and 5).
    pub fill_counts: dsm_sim::FillCounts,
    /// Execution-time breakdown aggregated over R/solo streams.
    pub r_breakdown: dsm_sim::TimeBreakdown,
    /// Execution-time breakdown aggregated over A-streams.
    pub a_breakdown: dsm_sim::TimeBreakdown,
    /// User-level operation totals for R/solo streams (oracle checks).
    pub user_r: OpCounts,
    /// User-level operation totals for A-streams.
    pub user_a: OpCounts,
    /// Dynamic-scheduler chunk grabs.
    pub sched_grabs: u64,
    /// Affinity-scheduler steals (subset of the grabs).
    pub sched_steals: u64,
    /// Divergence recoveries performed.
    pub recoveries: u64,
    /// Recoveries forced by the barrier watchdog (subset of `recoveries`).
    pub watchdog_recoveries: u64,
    /// Recoveries triggered by the token-wait timeout (subset of
    /// `recoveries`).
    pub timeout_recoveries: u64,
    /// Pairs demoted to single-stream mode after exhausting the recovery
    /// budget.
    pub demotions: u64,
    /// Per-pair resilience ledger (empty outside slipstream mode).
    pub pair_ledgers: Vec<PairLedger>,
    /// A-stream shared stores converted to read-exclusive prefetches.
    pub stores_converted: u64,
    /// A-stream shared stores skipped outright.
    pub stores_skipped: u64,
    /// Machine-wide counters (traffic, contention, invalidations).
    pub machine: dsm_sim::MachineCounters,
    /// Scheduler events the engine processed, stale pops included — the
    /// denominator that turns host time into ns per event. Independent of
    /// tracing. Observation-only: excluded from stats fingerprints by
    /// design.
    pub events: u64,
    /// Merged trace of the run when [`EngineConfig::trace`] was on.
    /// Observation-only: excluded from stats fingerprints by design.
    pub trace: Option<TraceData>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Parked,
    PoolIdle,
    Done,
}

#[derive(Debug, Clone)]
enum Frame {
    Seq {
        node: NodeId,
        idx: usize,
    },
    For {
        var: VarId,
        cur: i64,
        end: i64,
        step: u64,
        body: NodeId,
    },
    /// Iterate a list of contiguous chunks of a worksharing loop.
    ChunkIter {
        var: VarId,
        chunks: Vec<Chunk>,
        ci: usize,
        cur: i64,
        body: NodeId,
    },
    /// Reduction combine + implicit barrier after a worksharing loop.
    LoopEnd {
        node: NodeId,
        stage: u8,
    },
    /// Barrier protocol. `internal` region-end barriers are never token-
    /// skipped by A-streams.
    Bar {
        internal: bool,
        stage: u8,
    },
    SingleP {
        node: NodeId,
        enc: usize,
        stage: u8,
    },
    SectionsP {
        node: NodeId,
        enc: usize,
        stage: u8,
        claimed: usize,
    },
    /// Dynamic/guided worksharing protocol.
    DynP {
        node: NodeId,
        enc: usize,
        sched: ResolvedSchedule,
        lo: i64,
        hi: i64,
        stage: u8,
        chunk: Chunk,
    },
    CritP {
        lock: usize,
        body: NodeId,
        stage: u8,
    },
    /// Reduction combine: lock, load, op, store, unlock.
    RedP {
        red: Reduction,
        stage: u8,
    },
    /// Master's path through a `Parallel` node.
    RegionP {
        node: NodeId,
        stage: u8,
    },
    /// Region-end (internal) barrier then return-to-pool for slaves.
    RegionEndP {
        stage: u8,
    },
    /// Slave pool loop.
    PoolWait,
    IoP {
        input: bool,
        bytes: u64,
        stage: u8,
    },
}

struct CpuState {
    timeline: CpuTimeline,
    assign: CpuAssignment,
    role: StreamRole,
    tid: u64,
    frames: Vec<Frame>,
    vars: Vec<i64>,
    status: Status,
    next_wake: Cycle,
    park_class: TimeClass,
    pending_class: Option<TimeClass>,
    /// Per-region construct encounter counters.
    singles_seen: usize,
    sections_seen: usize,
    dynloops_seen: usize,
    /// Job generations consumed from the pool.
    jobs_taken: u64,
    /// Next OS interruption (when the noise model is on).
    next_interrupt: Cycle,
    /// Count of interruptions suffered (diagnostic).
    interrupts: u64,
    user: OpCounts,
    stores_converted: u64,
    stores_skipped: u64,
    /// Armed watchdog deadline while parked at the region-end barrier.
    watchdog_deadline: Option<Cycle>,
    /// Barrier generation the watchdog was armed for (disarms the stale
    /// deadline once the barrier makes progress).
    watchdog_gen: u64,
    /// Armed token-wait deadline while an A-stream is parked on the pair
    /// semaphore path (cleared on wake; a stale queue event then misses).
    token_wait_deadline: Option<Cycle>,
}

impl CpuState {
    fn reset_encounters(&mut self) {
        self.singles_seen = 0;
        self.sections_seen = 0;
        self.dynloops_seen = 0;
    }
}

struct ExprView<'a> {
    vars: &'a [i64],
    tid: i64,
    nthreads: i64,
    tables: &'a [Vec<i64>],
}

impl EvalCtx for ExprView<'_> {
    fn var(&self, v: VarId) -> i64 {
        self.vars[v.0 as usize]
    }
    fn thread_id(&self) -> i64 {
        self.tid
    }
    fn num_threads(&self) -> i64 {
        self.nthreads
    }
    fn table(&self, t: TableId, idx: i64) -> i64 {
        let tab = &self.tables[t.0 as usize];
        if tab.is_empty() {
            return 0;
        }
        tab[idx.clamp(0, tab.len() as i64 - 1) as usize]
    }
}

/// The execution engine for one run.
pub struct Engine<'p> {
    cp: &'p CompiledProgram,
    cfg: EngineConfig,
    layout: TeamLayout,
    map: AddressMap,
    ms: MemSystem,
    q: EventQueue,
    cpus: Vec<CpuState>,
    pairs: Vec<PairState>,
    construct_barrier: Barrier,
    region_barrier: Barrier,
    critical_locks: Vec<Lock>,
    reduction_lock: Lock,
    sched_locks: Vec<Lock>,
    sched_counter_lines: Vec<Addr>,
    /// Per-(loop encounter, thread) scheduler locks for the affinity
    /// extension; each thread's lock line is homed on its own node so
    /// own-queue grabs stay node-local.
    affinity_locks: Vec<Vec<Lock>>,
    single_lines: Vec<Addr>,
    sections_lines: Vec<Addr>,
    arena: ConstructArena,
    global_slip: Option<SlipstreamClause>,
    region_slip: RegionSlip,
    current_region: Option<NodeId>,
    job_gen: u64,
    job_flag: Addr,
    // Homed-line bump allocator state.
    alloc_next: Vec<u64>,
    alloc_base_line: u64,
    master_done: bool,
    events: u64,
    sched_grabs_total: u64,
    sched_steals_total: u64,
    /// One flag per `cfg.faults` event: fired yet?
    fault_fired: Vec<bool>,
    /// CPU-domain event tracer (disabled unless `cfg.trace` is on).
    tracer: Tracer,
}

const MASTER: usize = 0; // the master's OpenMP thread id

impl<'p> Engine<'p> {
    /// Build an engine for a compiled program.
    pub fn new(cp: &'p CompiledProgram, cfg: EngineConfig) -> Self {
        let fault_fired = vec![false; cfg.faults.events.len()];
        let layout = TeamLayout::new(&cfg.machine, cfg.mode).with_max_threads(cfg.env.num_threads);
        let mut ms = MemSystem::new(&cfg.machine);
        ms.set_self_invalidation(cfg.mode == ExecMode::Slipstream && cfg.policy.self_invalidation);
        ms.set_trace(&cfg.trace);
        let map = AddressMap::new(&cfg.machine);
        let base_line = cp.runtime_base / map.line_bytes();
        let mut eng = Engine {
            cp,
            layout,
            map,
            ms,
            q: EventQueue::new(),
            cpus: Vec::new(),
            pairs: Vec::new(),
            construct_barrier: Barrier::new(1, 0),
            region_barrier: Barrier::new(1, 0),
            critical_locks: Vec::new(),
            reduction_lock: Lock::new(0),
            sched_locks: Vec::new(),
            sched_counter_lines: Vec::new(),
            affinity_locks: Vec::new(),
            single_lines: Vec::new(),
            sections_lines: Vec::new(),
            arena: ConstructArena::new(),
            global_slip: None,
            region_slip: RegionSlip::Off,
            current_region: None,
            job_gen: 0,
            job_flag: 0,
            alloc_next: vec![0; cfg.machine.num_cmps],
            alloc_base_line: base_line,
            master_done: false,
            events: 0,
            sched_grabs_total: 0,
            sched_steals_total: 0,
            fault_fired,
            tracer: Tracer::new(&cfg.trace, TrackDomain::Cpu),
            cfg,
        };
        eng.init();
        eng
    }

    fn init(&mut self) {
        let ncpus = self.cfg.machine.num_cpus();
        let team = self.layout.team_size();

        // Runtime shared lines.
        let bar_line = self.alloc_line(CmpId(0));
        let region_bar_line = self.alloc_line(CmpId(0));
        self.job_flag = self.alloc_line(CmpId(0));
        self.reduction_lock = Lock::new(self.alloc_line(CmpId(0)));
        for _ in 0..self.cp.num_critical_locks {
            let addr = self.alloc_line(CmpId(0));
            self.critical_locks.push(Lock::new(addr));
        }

        let active_streams = self.layout.active_cpus().len();
        self.construct_barrier = Barrier::new(team as usize, bar_line);
        self.region_barrier = Barrier::new(active_streams, region_bar_line);

        // Pairs (slipstream only).
        if self.cfg.mode == ExecMode::Slipstream {
            for tid in 0..team {
                let r = self.layout.worker_cpu(tid);
                let a = self.layout.astream_cpu(tid).expect("slipstream layout");
                let cmp = CmpId(tid as usize);
                let decision = self.alloc_line(cmp);
                self.pairs.push(PairState::new(
                    tid,
                    r,
                    a,
                    SlipSync::G0,
                    0, // token semaphore is a pair register, not memory
                    0, // scheduling semaphore likewise
                    decision,
                ));
            }
        }

        // Processor states.
        for i in 0..ncpus {
            let assign = self.layout.assignment_of(CpuId(i));
            let (role, tid) = match assign {
                CpuAssignment::Worker { tid } => (
                    if self.cfg.mode == ExecMode::Slipstream {
                        StreamRole::R
                    } else {
                        StreamRole::Solo
                    },
                    tid,
                ),
                CpuAssignment::AStream { tid } => (StreamRole::A, tid),
                CpuAssignment::Idle => (StreamRole::Solo, 0),
            };
            self.ms.set_role(CpuId(i), role);
            let frames = match assign {
                CpuAssignment::Idle => Vec::new(),
                _ if tid as usize == MASTER => vec![Frame::Seq {
                    node: self.cp.root,
                    idx: 0,
                }],
                _ => vec![Frame::PoolWait],
            };
            // A Seq frame over a non-Seq root still works because we
            // normalize below.
            self.cpus.push(CpuState {
                timeline: CpuTimeline::new(),
                assign,
                role,
                tid,
                frames,
                vars: vec![0; self.cp.num_vars as usize],
                status: if assign == CpuAssignment::Idle {
                    Status::Done
                } else {
                    Status::Ready
                },
                next_wake: 0,
                park_class: TimeClass::JobWait,
                pending_class: None,
                singles_seen: 0,
                sections_seen: 0,
                dynloops_seen: 0,
                jobs_taken: 0,
                next_interrupt: 0,
                interrupts: 0,
                user: OpCounts::default(),
                stores_converted: 0,
                stores_skipped: 0,
                watchdog_deadline: None,
                watchdog_gen: 0,
                token_wait_deadline: None,
            });
        }

        // Active timelines record coalesced time-class spans when tracing.
        if self.cfg.trace.is_on() {
            let cap = self.cfg.trace.capacity;
            for c in self.cpus.iter_mut() {
                if c.assign != CpuAssignment::Idle {
                    c.timeline.enable_trace(cap);
                }
            }
        }

        // Stagger the first OS interruption per processor.
        if let Some(noise) = self.cfg.os_noise {
            for (i, c) in self.cpus.iter_mut().enumerate() {
                c.next_interrupt = mix64(noise.seed ^ (i as u64).wrapping_mul(0x9E37))
                    % noise.quantum_cycles.max(1);
            }
        }

        // Schedule all non-idle processors at cycle 0.
        for i in 0..ncpus {
            if self.cpus[i].status == Status::Ready {
                self.q.schedule(0, CpuId(i));
            }
        }
    }

    /// Allocate a fresh shared runtime line homed on `home`.
    fn alloc_line(&mut self, home: CmpId) -> Addr {
        let n = self.cfg.machine.num_cmps as u64;
        let k = self.alloc_next[home.0];
        self.alloc_next[home.0] += 1;
        let first = self.alloc_base_line;
        let offset = (home.0 as u64 + n - (first % n)) % n;
        let line = first + offset + k * n;
        debug_assert_eq!(line % n, home.0 as u64);
        line * self.map.line_bytes()
    }

    fn get_sched_lock(&mut self, enc: usize) -> usize {
        while self.sched_locks.len() <= enc {
            let addr = self.alloc_line(CmpId(self.sched_locks.len() % self.cfg.machine.num_cmps));
            self.sched_locks.push(Lock::new(addr));
            let caddr = self.alloc_line(CmpId(
                self.sched_counter_lines.len() % self.cfg.machine.num_cmps,
            ));
            self.sched_counter_lines.push(caddr);
        }
        enc
    }

    fn get_affinity_locks(&mut self, enc: usize) {
        let team = self.layout.team_size() as usize;
        while self.affinity_locks.len() <= enc {
            let mut row = Vec::with_capacity(team);
            for t in 0..team {
                let home = CmpId(t % self.cfg.machine.num_cmps);
                let addr = self.alloc_line(home);
                row.push(Lock::new(addr));
            }
            self.affinity_locks.push(row);
        }
    }

    fn get_single_line(&mut self, enc: usize) -> Addr {
        while self.single_lines.len() <= enc {
            let a = self.alloc_line(CmpId(self.single_lines.len() % self.cfg.machine.num_cmps));
            self.single_lines.push(a);
        }
        self.single_lines[enc]
    }

    fn get_sections_line(&mut self, enc: usize) -> Addr {
        while self.sections_lines.len() <= enc {
            let a = self.alloc_line(CmpId(self.sections_lines.len() % self.cfg.machine.num_cmps));
            self.sections_lines.push(a);
        }
        self.sections_lines[enc]
    }

    // ------------------------------------------------------- primitives --

    fn eval(&self, ci: usize, e: &Expr) -> i64 {
        let c = &self.cpus[ci];
        e.eval(&ExprView {
            vars: &c.vars,
            tid: c.tid as i64,
            nthreads: self.layout.team_size() as i64,
            tables: &self.cp.tables,
        })
    }

    fn busy(&mut self, ci: usize, cycles: u64, class: TimeClass) {
        self.cpus[ci].timeline.busy(cycles, class);
    }

    fn mem(&mut self, ci: usize, addr: Addr, kind: AccessKind, class: TimeClass) {
        let now = self.cpus[ci].timeline.now();
        let r = self.ms.access(
            CpuId(ci),
            addr,
            kind,
            now,
            &mut self.cpus[ci].timeline.stats,
        );
        self.cpus[ci].timeline.mem_access(1, r.complete, class);
    }

    fn element_addr(&self, ci: usize, array: ArrayId, index: i64) -> Addr {
        self.cp.element_addr(&self.map, CpuId(ci), array, index)
    }

    fn park(&mut self, ci: usize, class: TimeClass) {
        debug_assert_eq!(self.cpus[ci].status, Status::Ready);
        self.cpus[ci].status = Status::Parked;
        self.cpus[ci].park_class = class;
    }

    fn park_pool(&mut self, ci: usize) {
        self.cpus[ci].status = Status::PoolIdle;
        self.cpus[ci].park_class = TimeClass::JobWait;
    }

    fn wake(&mut self, cpu: CpuId, t: Cycle) {
        let c = &mut self.cpus[cpu.0];
        debug_assert!(
            matches!(c.status, Status::Parked | Status::PoolIdle),
            "waking a non-parked cpu {cpu:?}"
        );
        c.pending_class = Some(c.park_class);
        c.status = Status::Ready;
        // A normal wake disarms any pending token-wait timeout; the queued
        // deadline event then fails the armed-deadline match and is
        // discarded as stale.
        c.token_wait_deadline = None;
        let t = t.max(c.timeline.now());
        c.next_wake = t;
        self.q.schedule(t, cpu);
    }

    fn is_a(&self, ci: usize) -> bool {
        self.cpus[ci].role == StreamRole::A
    }

    fn pair_of(&self, ci: usize) -> Option<usize> {
        if self.cfg.mode == ExecMode::Slipstream {
            let tid = self.cpus[ci].tid as usize;
            if tid < self.pairs.len() {
                return Some(tid);
            }
        }
        None
    }

    fn slip_active(&self) -> Option<SlipSync> {
        match self.region_slip {
            RegionSlip::On(s) => Some(s),
            RegionSlip::Off => None,
        }
    }

    /// Slipstream synchronization in effect for `ci`'s pair: the region's
    /// setting, masked off for pairs demoted to single-stream mode.
    fn slip_on(&self, ci: usize) -> Option<SlipSync> {
        let s = self.slip_active()?;
        match self.pair_of(ci) {
            Some(p) if self.pairs[p].demoted() => None,
            _ => Some(s),
        }
    }

    fn pair_demoted(&self, ci: usize) -> bool {
        self.pair_of(ci)
            .map(|p| self.pairs[p].demoted())
            .unwrap_or(false)
    }

    /// Fire the first unfired fault scheduled for `(site, tid, seq)`, if
    /// any, at the hook point reached by `ci`. Each event fires at most
    /// once; firings are recorded in the victim pair's ledger (and in the
    /// trace, on the hook processor's track).
    fn fault_at(&mut self, ci: usize, site: FaultSite, tid: u64, seq: u64) -> Option<FaultEvent> {
        for i in 0..self.cfg.faults.events.len() {
            let e = self.cfg.faults.events[i];
            if !self.fault_fired[i] && e.kind.site() == site && e.tid == tid && e.seq == seq {
                self.fault_fired[i] = true;
                if (tid as usize) < self.pairs.len() {
                    self.pairs[tid as usize].faults_injected += 1;
                    let ai = self.pairs[tid as usize].a_cpu.0;
                    self.cpus[ai].timeline.stats.faults_injected += 1;
                }
                if self.tracer.is_on() {
                    let now = self.cpus[ci].timeline.now();
                    self.tracer.record(
                        now,
                        ci as u32,
                        TraceEvent::Fault {
                            kind: e.kind.label(),
                            site: site.label(),
                            pair: tid as u32,
                            seq,
                        },
                    );
                }
                return Some(e);
            }
        }
        None
    }

    /// True if the A-stream currently holds a construct lock (possible
    /// only under ablation policies that execute critical sections);
    /// re-seeding it then would orphan the lock.
    fn a_holds_lock(&self, a: CpuId) -> bool {
        self.reduction_lock.holder() == Some(a)
            || self.critical_locks.iter().any(|l| l.holder() == Some(a))
    }

    /// A-stream handshake failure (lost signal, corrupted or missing
    /// decision): mark the pair diverged and park until the R-stream
    /// re-seeds us. The A-stream is speculative, so giving up on the
    /// handshake is always safe.
    fn a_diverge(&mut self, ci: usize, p: usize) {
        self.pairs[p].diverged = true;
        self.park(ci, TimeClass::AStreamWait);
    }

    /// Trace an A–R lead-distance sample for pair `p` on `ci`'s track
    /// (recorded at every epoch boundary so the exporter can draw a
    /// per-pair lead counter track).
    fn trace_lead(&mut self, ci: usize, p: usize) {
        if !self.tracer.is_on() {
            return;
        }
        let t = self.cpus[ci].timeline.now();
        let lead = self.pairs[p].lead();
        self.tracer.record(
            t,
            ci as u32,
            TraceEvent::Lead {
                pair: p as u32,
                lead,
            },
        );
    }

    /// Pair `p`'s semaphore count as a trace event carries it: a count
    /// past `i64::MAX` (a huge initial allocation) saturates.
    fn traced_token_count(&self, p: usize) -> i64 {
        i64::try_from(self.pairs[p].tokens.count()).unwrap_or(i64::MAX)
    }

    /// Trace an A-stream token consume (with the post-consume semaphore
    /// count) plus the resulting lead sample.
    fn trace_token_consume(&mut self, ci: usize, p: usize) {
        if !self.tracer.is_on() {
            return;
        }
        let t = self.cpus[ci].timeline.now();
        let count = self.traced_token_count(p);
        self.tracer.record(
            t,
            ci as u32,
            TraceEvent::TokenConsume {
                pair: p as u32,
                count,
            },
        );
        self.trace_lead(ci, p);
    }

    /// Trace a consumed scheduling decision on `ci`'s track.
    fn trace_decision_consume(&mut self, ci: usize, p: usize, d: Option<Decision>) {
        if !self.tracer.is_on() {
            return;
        }
        if let Some(d) = d {
            let t = self.cpus[ci].timeline.now();
            self.tracer.record(
                t,
                ci as u32,
                TraceEvent::DecisionConsume {
                    pair: p as u32,
                    kind: d.label(),
                },
            );
        }
    }

    // ------------------------------------------------------ entry logic --

    /// Begin executing `node` on `ci`: leaves act immediately; containers
    /// push frames. Dispatches on the compile-time flat op table; only
    /// control constructs fall through to the `FNode` walk.
    fn enter(&mut self, ci: usize, node: NodeId) {
        let cp = self.cp;
        match cp.ops[node.0 as usize] {
            Op::Seq { .. } => self.cpus[ci].frames.push(Frame::Seq { node, idx: 0 }),
            Op::ComputeConst(cyc) => {
                self.cpus[ci].user.compute_cycles += cyc;
                self.busy(ci, cyc, TimeClass::Busy);
            }
            Op::ComputeDyn(x) => {
                let cyc = self.eval(ci, &cp.exprs[x as usize]).max(0) as u64;
                self.cpus[ci].user.compute_cycles += cyc;
                self.busy(ci, cyc, TimeClass::Busy);
            }
            Op::LoadShared(addr) => {
                self.cpus[ci].user.loads += 1;
                self.mem(ci, addr, AccessKind::Load, TimeClass::MemStall);
            }
            Op::LoadPrivate(off) => {
                let addr = self.map.private_base(CpuId(ci)) + off;
                self.cpus[ci].user.loads += 1;
                self.mem(ci, addr, AccessKind::Load, TimeClass::MemStall);
            }
            Op::LoadDyn { array, index } => {
                let idx = self.eval(ci, &cp.exprs[index as usize]);
                let addr = self.element_addr(ci, array, idx);
                self.cpus[ci].user.loads += 1;
                self.mem(ci, addr, AccessKind::Load, TimeClass::MemStall);
            }
            Op::StoreShared(addr) => {
                self.cpus[ci].user.stores += 1;
                if self.is_a(ci) {
                    self.a_shared_store(ci, addr);
                } else {
                    self.mem(ci, addr, AccessKind::Store, TimeClass::MemStall);
                }
            }
            Op::StorePrivate(off) => {
                let addr = self.map.private_base(CpuId(ci)) + off;
                self.cpus[ci].user.stores += 1;
                self.mem(ci, addr, AccessKind::Store, TimeClass::MemStall);
            }
            Op::StoreDyn { array, index } => {
                let idx = self.eval(ci, &cp.exprs[index as usize]);
                let addr = self.element_addr(ci, array, idx);
                self.cpus[ci].user.stores += 1;
                let shared = cp.arrays[array.0 as usize].shared;
                if self.is_a(ci) && shared {
                    self.a_shared_store(ci, addr);
                } else {
                    self.mem(ci, addr, AccessKind::Store, TimeClass::MemStall);
                }
            }
            Op::Slow => self.enter_slow(ci, node),
        }
    }

    /// Cold entry path: control constructs and rare leaves, dispatched by
    /// borrowing the `FNode` (no clone).
    fn enter_slow(&mut self, ci: usize, node: NodeId) {
        let cp = self.cp;
        let role_a = self.is_a(ci);
        match cp.node(node) {
            // Leaves covered by the op table never reach here, but the
            // arms stay for exhaustiveness (`enter` handles them).
            FNode::Seq(_) | FNode::Compute(_) | FNode::Load { .. } | FNode::Store { .. } => {
                self.enter(ci, node)
            }
            FNode::Atomic { array, index } => {
                let idx = self.eval(ci, index);
                let addr = self.element_addr(ci, *array, idx);
                self.cpus[ci].user.atomics += 1;
                if role_a {
                    if self.cfg.policy.atomic == AAction::Execute {
                        self.a_shared_store(ci, addr);
                    }
                    // Skip otherwise.
                } else {
                    // Read-modify-write under hardware atomicity.
                    self.busy(ci, 2, TimeClass::Busy);
                    self.mem(ci, addr, AccessKind::Store, TimeClass::MemStall);
                }
            }
            FNode::For {
                var,
                begin,
                end,
                step,
                body,
            } => {
                let lo = self.eval(ci, begin);
                let hi = self.eval(ci, end);
                self.cpus[ci].frames.push(Frame::For {
                    var: *var,
                    cur: lo,
                    end: hi,
                    step: *step,
                    body: *body,
                });
            }
            FNode::Parallel { .. } => {
                // Only master streams reach Parallel nodes (slaves get the
                // region through dispatch).
                self.cpus[ci].frames.push(Frame::RegionP { node, stage: 0 });
            }
            FNode::SlipstreamSet(clause) => {
                if !role_a {
                    self.global_slip = Some(*clause);
                }
                self.busy(ci, 1, TimeClass::Busy);
            }
            FNode::ParFor {
                sched,
                var,
                begin,
                end,
                body,
                nowait: _,
                reduction: _,
            } => {
                let var = *var;
                let body = *body;
                let lo = self.eval(ci, begin);
                let hi = self.eval(ci, end);
                let resolved = resolve_schedule(*sched, self.cfg.env.schedule);
                match resolved {
                    ResolvedSchedule::StaticBlock | ResolvedSchedule::StaticChunked(_) => {
                        // Each thread computes its chunks independently.
                        self.busy(ci, self.cfg.static_sched_cycles, TimeClass::Scheduling);
                        let tid = self.cpus[ci].tid;
                        let mut chunks =
                            static_chunks(resolved, lo, hi, 1, self.layout.team_size(), tid);
                        if self.cfg.mutation == EngineMutation::ChunkOffByOne
                            && tid + 1 == self.layout.team_size()
                        {
                            // Injected bug class: the last thread's final
                            // chunk silently loses its last iteration.
                            if let Some(last) = chunks.last_mut() {
                                if last.hi > last.lo {
                                    last.hi -= 1;
                                }
                            }
                        }
                        self.cpus[ci].frames.push(Frame::LoopEnd { node, stage: 0 });
                        self.cpus[ci].frames.push(Frame::ChunkIter {
                            var,
                            chunks,
                            ci: 0,
                            cur: i64::MIN,
                            body,
                        });
                    }
                    ResolvedSchedule::Dynamic(_)
                    | ResolvedSchedule::Guided(_)
                    | ResolvedSchedule::Affinity(_) => {
                        let enc = self.cpus[ci].dynloops_seen;
                        self.cpus[ci].dynloops_seen += 1;
                        self.get_sched_lock(enc);
                        if resolved.is_affinity() {
                            self.get_affinity_locks(enc);
                        }
                        self.cpus[ci].frames.push(Frame::LoopEnd { node, stage: 0 });
                        self.cpus[ci].frames.push(Frame::DynP {
                            node,
                            enc,
                            sched: resolved,
                            lo,
                            hi,
                            stage: 0,
                            chunk: Chunk { lo: 0, hi: 0 },
                        });
                    }
                }
            }
            FNode::Barrier => {
                self.cpus[ci].frames.push(Frame::Bar {
                    internal: false,
                    stage: 0,
                });
            }
            FNode::Single(_) => {
                let enc = self.cpus[ci].singles_seen;
                self.cpus[ci].singles_seen += 1;
                self.cpus[ci].frames.push(Frame::SingleP {
                    node,
                    enc,
                    stage: 0,
                });
            }
            FNode::Master(body) => {
                let is_master_tid = self.cpus[ci].tid as usize == MASTER;
                let execute = if role_a {
                    is_master_tid && self.cfg.policy.master == AAction::Execute
                } else {
                    is_master_tid
                };
                if execute {
                    self.enter(ci, *body);
                }
            }
            FNode::Critical { lock, body } => {
                if role_a {
                    // Execute only under the ablation policy; the paper's
                    // A-stream skips critical sections to avoid migrating
                    // protected data.
                    if self.cfg.policy.critical == AAction::Execute {
                        self.enter(ci, *body);
                    }
                } else {
                    self.cpus[ci].frames.push(Frame::CritP {
                        lock: *lock,
                        body: *body,
                        stage: 0,
                    });
                }
            }
            FNode::Sections(_) => {
                let enc = self.cpus[ci].sections_seen;
                self.cpus[ci].sections_seen += 1;
                self.cpus[ci].frames.push(Frame::SectionsP {
                    node,
                    enc,
                    stage: 0,
                    claimed: 0,
                });
            }
            FNode::Flush => {
                // Hardware-coherent machine: flush maps to void; the
                // A-stream skips it entirely.
                if !role_a {
                    self.busy(ci, 1, TimeClass::Busy);
                }
            }
            FNode::Io { input, bytes } => {
                self.cpus[ci].frames.push(Frame::IoP {
                    input: *input,
                    bytes: *bytes,
                    stage: 0,
                });
            }
        }
    }

    /// True when the stepper must return control to `run_cpu` between
    /// batched micro-steps: the exact disjunction of `run_cpu`'s loop
    /// checks (max-cycles trip, time-order yield, pending OS interrupt),
    /// so batching never moves a scheduling decision.
    fn must_bail(&self, ci: usize) -> bool {
        let now = self.cpus[ci].timeline.now();
        if now > self.cfg.max_cycles {
            return true;
        }
        if let Some(h) = self.q.peek_time() {
            if now > h {
                return true;
            }
        }
        if self.cfg.os_noise.is_some() && now >= self.cpus[ci].next_interrupt {
            return true;
        }
        false
    }

    /// A-stream shared store: convert to a read-exclusive prefetch when in
    /// the same barrier session as the R-stream and an MSHR is free;
    /// otherwise skip (paper Section 5.1).
    fn a_shared_store(&mut self, ci: usize, addr: Addr) {
        let store_seq = self.cpus[ci].stores_converted + self.cpus[ci].stores_skipped;
        let convert = self.cfg.policy.convert_shared_stores
            && self
                .pair_of(ci)
                .map(|p| self.pairs[p].same_session())
                .unwrap_or(false)
            && {
                let cmp = CpuId(ci).cmp(&self.cfg.machine);
                let now = self.cpus[ci].timeline.now();
                self.ms.mshr_free(cmp, now)
            };
        if convert {
            self.cpus[ci].stores_converted += 1;
            self.cpus[ci].timeline.stats.stores_converted += 1;
            let mut target = addr;
            if let Some(p) = self.pair_of(ci) {
                let tid = self.pairs[p].tid;
                if let Some(ev) = self.fault_at(ci, FaultSite::AStore, tid, store_seq) {
                    if ev.kind == FaultKind::StalePrefetch {
                        // Failed self-invalidation: the prefetch lands on
                        // the pair's decision line instead of the intended
                        // one, polluting the cache with a stale line. R's
                        // correctness is unaffected; the pair just loses
                        // the prefetch benefit.
                        target = self.pairs[p].decision_addr;
                    }
                }
            }
            self.mem(ci, target, AccessKind::PrefetchEx, TimeClass::Busy);
        } else {
            self.cpus[ci].stores_skipped += 1;
            self.cpus[ci].timeline.stats.stores_skipped += 1;
            self.busy(ci, 1, TimeClass::Busy);
        }
    }

    // --------------------------------------------------------- stepping --

    /// Execute protocol steps for `ci` until it parks, finishes, or runs
    /// past the next pending event. A CPU that runs past it yields: it
    /// returns its wake time for [`Engine::pump`] to queue, which is
    /// always later than the earliest pending event. Returns `Err` on
    /// watchdog trip.
    fn run_cpu(&mut self, ci: usize) -> Result<Option<Cycle>, String> {
        // Account the time spent parked.
        let t = self.cpus[ci].next_wake;
        if let Some(class) = self.cpus[ci].pending_class.take() {
            self.cpus[ci].timeline.advance_to(t, class);
        }
        let mut steps: u64 = 0;
        loop {
            steps += 1;
            if steps > 50_000_000 {
                return Err(format!("cpu {ci} made no blocking progress (livelock?)"));
            }
            if self.cpus[ci].status != Status::Ready {
                return Ok(None); // parked by the step
            }
            if self.cpus[ci].frames.is_empty() {
                self.cpus[ci].status = Status::Done;
                if self.cpus[ci].tid as usize == MASTER && !self.is_a(ci) {
                    self.master_done = true;
                }
                return Ok(None);
            }
            if self.cpus[ci].timeline.now() > self.cfg.max_cycles {
                return Err(format!(
                    "cpu {ci} exceeded max_cycles={} (deadlock or runaway kernel)",
                    self.cfg.max_cycles
                ));
            }
            // Yield once we have advanced past the next pending event so
            // other processors observe memory in time order.
            if let Some(h) = self.q.peek_time() {
                let now = self.cpus[ci].timeline.now();
                if now > h {
                    self.cpus[ci].next_wake = now;
                    return Ok(Some(now));
                }
            }
            // OS interference: steal a slice when the quantum expires.
            if let Some(noise) = self.cfg.os_noise {
                let now = self.cpus[ci].timeline.now();
                if now >= self.cpus[ci].next_interrupt {
                    self.cpus[ci]
                        .timeline
                        .busy(noise.slice_cycles, TimeClass::Os);
                    self.cpus[ci].interrupts += 1;
                    let jitter = mix64(noise.seed ^ now ^ ((ci as u64) << 32))
                        % (noise.quantum_cycles / 4).max(1);
                    self.cpus[ci].next_interrupt =
                        now + noise.slice_cycles + noise.quantum_cycles + jitter
                            - noise.quantum_cycles / 8;
                }
            }
            self.step_once(ci);
        }
    }

    /// Run one step of `ci`'s top frame. `Seq`, `For` and `ChunkIter`
    /// frames step in place: the cursor advances before a child is
    /// entered, so the stack is what popping the frame and pushing the
    /// advanced copy would leave, and the frame is popped by the step
    /// that finds its loop finished. Every other frame is popped and run.
    fn step_once(&mut self, ci: usize) {
        match *self.cpus[ci].frames.last().expect("step with no frames") {
            Frame::Seq { node, idx } => {
                let cp = self.cp;
                let (first, len) = match cp.ops[node.0 as usize] {
                    Op::Seq { first, len } => (first as usize, len as usize),
                    _ => {
                        // Normalized singleton (non-Seq root).
                        if idx == 0 {
                            *self.top_frame(ci) = Frame::Seq { node, idx: 1 };
                            self.enter(ci, node);
                        } else {
                            self.cpus[ci].frames.pop();
                        }
                        return;
                    }
                };
                // Runs of consecutive compute children retire in one
                // step, re-checking the scheduler's bail conditions
                // between each so every yield point of the unbatched
                // stepper is preserved exactly.
                let mut i = idx;
                while i < len {
                    let kid = cp.kids[first + i];
                    match cp.ops[kid.0 as usize] {
                        Op::ComputeConst(cyc) => {
                            self.cpus[ci].user.compute_cycles += cyc;
                            self.busy(ci, cyc, TimeClass::Busy);
                        }
                        Op::ComputeDyn(x) => {
                            let cyc = self.eval(ci, &cp.exprs[x as usize]).max(0) as u64;
                            self.cpus[ci].user.compute_cycles += cyc;
                            self.busy(ci, cyc, TimeClass::Busy);
                        }
                        _ => {
                            *self.top_frame(ci) = Frame::Seq { node, idx: i + 1 };
                            self.enter(ci, kid);
                            return;
                        }
                    }
                    i += 1;
                    if i < len && self.must_bail(ci) {
                        *self.top_frame(ci) = Frame::Seq { node, idx: i };
                        return;
                    }
                }
                self.cpus[ci].frames.pop();
            }
            Frame::For {
                var,
                cur,
                end,
                step,
                body,
            } => {
                if cur < end {
                    // Compute-only bodies iterate natively: same per-
                    // iteration busy cycles and induction-variable
                    // updates, with the scheduler's bail conditions
                    // checked between iterations (a zero step falls
                    // through so the livelock guard still sees it).
                    let overhead = self.cfg.machine.loop_overhead_cycles;
                    let cp = self.cp;
                    // Injected bug class: the batched loop's exit check is
                    // off by one, retiring one extra iteration whenever the
                    // induction variable lands exactly on the bound.
                    let stop_at = if self.cfg.mutation == EngineMutation::BatchBailOffByOne {
                        end.saturating_add(1)
                    } else {
                        end
                    };
                    if step > 0 {
                        match cp.ops[body.0 as usize] {
                            Op::ComputeConst(cyc) => {
                                let mut cur = cur;
                                loop {
                                    self.cpus[ci].vars[var.0 as usize] = cur;
                                    self.cpus[ci].user.compute_cycles += cyc;
                                    self.busy(ci, overhead + cyc, TimeClass::Busy);
                                    cur += step as i64;
                                    if cur >= stop_at {
                                        self.cpus[ci].frames.pop();
                                        return;
                                    }
                                    if self.must_bail(ci) {
                                        *self.top_frame(ci) = Frame::For {
                                            var,
                                            cur,
                                            end,
                                            step,
                                            body,
                                        };
                                        return;
                                    }
                                }
                            }
                            Op::ComputeDyn(x) => {
                                let mut cur = cur;
                                loop {
                                    self.cpus[ci].vars[var.0 as usize] = cur;
                                    let cyc = self.eval(ci, &cp.exprs[x as usize]).max(0) as u64;
                                    self.cpus[ci].user.compute_cycles += cyc;
                                    self.busy(ci, overhead + cyc, TimeClass::Busy);
                                    cur += step as i64;
                                    if cur >= stop_at {
                                        self.cpus[ci].frames.pop();
                                        return;
                                    }
                                    if self.must_bail(ci) {
                                        *self.top_frame(ci) = Frame::For {
                                            var,
                                            cur,
                                            end,
                                            step,
                                            body,
                                        };
                                        return;
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                    self.cpus[ci].vars[var.0 as usize] = cur;
                    *self.top_frame(ci) = Frame::For {
                        var,
                        cur: cur + step as i64,
                        end,
                        step,
                        body,
                    };
                    self.busy(ci, overhead, TimeClass::Busy);
                    self.enter(ci, body);
                } else {
                    self.cpus[ci].frames.pop();
                }
            }
            Frame::ChunkIter { .. } => self.step_chunks(ci),
            _ => self.step_protocol(ci),
        }
    }

    /// The frame `ci` is stepping in place.
    fn top_frame(&mut self, ci: usize) -> &mut Frame {
        self.cpus[ci]
            .frames
            .last_mut()
            .expect("step with no frames")
    }

    /// Step the `ChunkIter` frame on top of `ci`'s stack in place: enter
    /// the body at the next iteration, moving across chunks, or pop the
    /// frame once every chunk is done.
    fn step_chunks(&mut self, ci: usize) {
        let Frame::ChunkIter {
            var,
            chunks,
            ci: cidx,
            cur,
            body,
        } = self.top_frame(ci)
        else {
            unreachable!("step_chunks on a non-ChunkIter frame");
        };
        // `cur` starts at i64::MIN so the first iteration is chunk.lo.
        while let Some(ch) = chunks.get(*cidx) {
            let v = (*cur).max(ch.lo);
            if v < ch.hi {
                *cur = v + 1;
                let (var, body) = (*var, *body);
                self.cpus[ci].vars[var.0 as usize] = v;
                self.busy(ci, self.cfg.machine.loop_overhead_cycles, TimeClass::Busy);
                self.enter(ci, body);
                return;
            }
            *cidx += 1;
            *cur = i64::MIN;
        }
        self.cpus[ci].frames.pop();
    }

    /// Pop a protocol frame off `ci`'s stack and run its step.
    fn step_protocol(&mut self, ci: usize) {
        match self.cpus[ci].frames.pop().expect("step with no frames") {
            Frame::Seq { .. } | Frame::For { .. } | Frame::ChunkIter { .. } => {
                unreachable!("loop frames step in place")
            }
            Frame::LoopEnd { node, stage } => self.loop_end(ci, node, stage),
            Frame::Bar { internal, stage } => self.barrier_step(ci, internal, stage),
            Frame::SingleP { node, enc, stage } => self.single_step(ci, node, enc, stage),
            Frame::SectionsP {
                node,
                enc,
                stage,
                claimed,
            } => self.sections_step(ci, node, enc, stage, claimed),
            Frame::DynP {
                node,
                enc,
                sched,
                lo,
                hi,
                stage,
                chunk,
            } => self.dyn_step(ci, node, enc, sched, lo, hi, stage, chunk),
            Frame::CritP { lock, body, stage } => self.critical_step(ci, lock, body, stage),
            Frame::RedP { red, stage } => self.reduction_step(ci, red, stage),
            Frame::RegionP { node, stage } => self.region_step(ci, node, stage),
            Frame::RegionEndP { stage } => self.region_end_step(ci, stage),
            Frame::PoolWait => self.pool_step(ci),
            Frame::IoP {
                input,
                bytes,
                stage,
            } => self.io_step(ci, input, bytes, stage),
        }
    }

    // -------------------------------------------------------- protocols --

    /// R-stream: insert a token and wake the A-stream if it was waiting.
    /// Fault hook: `TokenLoss` drops the signal, `TokenDup` doubles it.
    fn insert_token(&mut self, ci: usize) {
        if let Some(p) = self.pair_of(ci) {
            if self.slip_on(ci).is_some() {
                self.busy(ci, self.cfg.machine.pair_register_cycles, TimeClass::Busy);
                let tid = self.pairs[p].tid;
                let seq = self.pairs[p].token_seq;
                self.pairs[p].token_seq = seq.wrapping_add(1);
                let mut fault = self
                    .fault_at(ci, FaultSite::TokenInsert, tid, seq)
                    .map(|e| e.kind);
                if self.cfg.mutation == EngineMutation::TokenAccounting && seq % 2 == 1 {
                    // Injected bug class: every second pair-register write
                    // is dropped, exactly like a deterministic TokenLoss.
                    fault = Some(FaultKind::TokenLoss);
                }
                if fault == Some(FaultKind::TokenLoss) {
                    // The pair-register write is lost: the semaphore never
                    // sees the insertion, so the A-stream may strand on an
                    // empty semaphore. The barrier watchdog is the backstop.
                    if self.tracer.is_on() {
                        let t = self.cpus[ci].timeline.now();
                        let count = self.traced_token_count(p);
                        self.tracer.record(
                            t,
                            ci as u32,
                            TraceEvent::TokenInsert {
                                pair: p as u32,
                                seq,
                                count,
                                lost: true,
                            },
                        );
                    }
                    return;
                }
                let woken = self.pairs[p].tokens.signal();
                let woken = if fault == Some(FaultKind::TokenDup) {
                    // Replayed write: a second token lets the A-stream run
                    // one session further ahead than the policy allows. The
                    // slack heuristic at the next R barrier spots it.
                    woken.or(self.pairs[p].tokens.signal())
                } else {
                    woken
                };
                let t = self.cpus[ci].timeline.now();
                if self.tracer.is_on() {
                    let count = self.traced_token_count(p);
                    self.tracer.record(
                        t,
                        ci as u32,
                        TraceEvent::TokenInsert {
                            pair: p as u32,
                            seq,
                            count,
                            lost: false,
                        },
                    );
                }
                if let Some(a_cpu) = woken {
                    self.wake(a_cpu, t);
                }
            }
        }
    }

    /// R-stream divergence check at a barrier; recovers the A-stream if
    /// it is known-diverged or tokens have accumulated unconsumed.
    fn check_divergence(&mut self, ci: usize) {
        let Some(p) = self.pair_of(ci) else { return };
        if self.slip_on(ci).is_none() {
            return;
        }
        self.busy(ci, 2, TimeClass::Busy); // compare token count
        let suspected = self.pairs[p].diverged
            || self.pairs[p].divergence_suspected(self.cfg.recovery.divergence_slack);
        if suspected {
            self.recover_astream(ci, p);
        }
    }

    /// Recover pair `p`'s A-stream from R-stream `ci`'s current state, if
    /// the A-stream is actually lost. An A-stream that is ahead and
    /// healthy — parked at the region-end barrier, waiting on a lock, or
    /// already done — must not be re-seeded: yanking it would corrupt
    /// barrier arrival counts or orphan a held lock.
    fn recover_astream(&mut self, ci: usize, p: usize) {
        let a_cpu = self.pairs[p].a_cpu;
        let ai = a_cpu.0;
        match self.cpus[ai].status {
            Status::Done | Status::PoolIdle => {
                self.pairs[p].diverged = false;
                return;
            }
            Status::Parked
                if !matches!(
                    self.cpus[ai].park_class,
                    TimeClass::AStreamWait | TimeClass::Recovery
                ) =>
            {
                // Parked at a barrier or on a lock: it is ahead of R, not
                // lost. Clear the (false) suspicion and move on.
                self.pairs[p].diverged = false;
                return;
            }
            _ => {}
        }
        if self.a_holds_lock(a_cpu) {
            self.pairs[p].diverged = false;
            return;
        }
        let frames = self.cpus[ci].frames.clone();
        let now = self.cpus[ci].timeline.now();
        self.reseed_astream(ci, p, frames, false, now);
    }

    /// Re-seed pair `p`'s A-stream with the continuation `frames` (cloned
    /// from R-stream `ci`, possibly transformed by the caller), charging
    /// the recovery cost and enforcing the bounded-retry budget. The
    /// recovery ledger distinguishes watchdog-forced recoveries.
    fn reseed_astream(
        &mut self,
        ci: usize,
        p: usize,
        frames: Vec<Frame>,
        watchdog: bool,
        now: Cycle,
    ) {
        let a_cpu = self.pairs[p].a_cpu;
        let ai = a_cpu.0;
        let sync = self.pairs[p].sync;
        // Discard published-but-unconsumed scheduling decisions together
        // with their semaphore tokens, and evict the A-stream from any
        // semaphore queue it is stranded in (a stale waiter entry would
        // hand the re-seeded stream a phantom grant later).
        self.pairs[p].decisions.clear();
        let _ = self.pairs[p].sched_sem.force_reset(0);
        let _ = self.pairs[p].tokens.force_reset(sync.tokens);
        self.pairs[p].diverged = false;
        self.pairs[p].recoveries += 1;
        if watchdog {
            self.pairs[p].watchdog_recoveries += 1;
            self.cpus[ai].timeline.stats.watchdog_recoveries += 1;
        }
        // Attribute a pending token-wait timeout to this recovery.
        let timeout = std::mem::take(&mut self.pairs[p].timeout_pending);
        if timeout {
            self.pairs[p].timeout_recoveries += 1;
        }
        let r_epoch = self.pairs[p].r_epoch;
        self.pairs[p].a_epoch = r_epoch;
        self.cpus[ai].timeline.stats.recoveries += 1;
        if self.tracer.is_on() {
            self.tracer.record(
                now,
                ai as u32,
                TraceEvent::Recovery {
                    pair: p as u32,
                    watchdog,
                    timeout,
                },
            );
        }
        if !self.pairs[p].demoted()
            && self.pairs[p].recoveries > self.cfg.recovery.max_recoveries_per_pair
        {
            // Retrying is judged futile: degrade gracefully instead.
            self.demote_pair(ci, p, now);
            return;
        }
        self.cpus[ai].vars = self.cpus[ci].vars.clone();
        self.cpus[ai].frames = frames;
        self.cpus[ai].singles_seen = self.cpus[ci].singles_seen;
        self.cpus[ai].sections_seen = self.cpus[ci].sections_seen;
        self.cpus[ai].dynloops_seen = self.cpus[ci].dynloops_seen;
        self.cpus[ai].jobs_taken = self.cpus[ci].jobs_taken;
        let t = now + self.cfg.recovery.recovery_cycles;
        match self.cpus[ai].status {
            Status::Parked => {
                self.cpus[ai].park_class = TimeClass::Recovery;
                self.wake(a_cpu, t);
            }
            _ => {
                // Ready (e.g. mid-stall-burst with a queued event): the new
                // frames take effect at its next dispatch; just charge the
                // re-seed cost.
                self.cpus[ai]
                    .timeline
                    .busy(self.cfg.recovery.recovery_cycles, TimeClass::Recovery);
            }
        }
    }

    /// Demote pair `p` to single-stream mode: the A-stream abandons the
    /// region body and proceeds straight to the region-end barrier (the
    /// team layout counts it there), and the R-stream stops inserting
    /// tokens and publishing decisions for it ([`Engine::slip_on`]).
    fn demote_pair(&mut self, ci: usize, p: usize, now: Cycle) {
        let a_cpu = self.pairs[p].a_cpu;
        let ai = a_cpu.0;
        self.pairs[p].mode = PairMode::DegradedSingle;
        self.pairs[p].demoted_at = Some(now);
        self.cpus[ai].timeline.stats.demotions = 1;
        if self.tracer.is_on() {
            self.tracer
                .record(now, ai as u32, TraceEvent::Demotion { pair: p as u32 });
        }
        // The A-stream's remaining obligation is the region-end barrier.
        // Rebuild its continuation as R's enclosing region-end protocol
        // with the body dropped; a worker A outside any region frame just
        // waits for the end.
        let frames = match self.cpus[ci]
            .frames
            .iter()
            .rposition(|f| matches!(f, Frame::RegionEndP { .. }))
        {
            Some(idx) => {
                let mut f = self.cpus[ci].frames[..=idx].to_vec();
                f[idx] = Frame::RegionEndP { stage: 0 };
                f
            }
            None => vec![Frame::RegionEndP { stage: 0 }],
        };
        self.cpus[ai].vars = self.cpus[ci].vars.clone();
        self.cpus[ai].frames = frames;
        let t = now + self.cfg.recovery.recovery_cycles;
        match self.cpus[ai].status {
            Status::Parked => {
                self.cpus[ai].park_class = TimeClass::Recovery;
                self.wake(a_cpu, t);
            }
            _ => {
                self.cpus[ai]
                    .timeline
                    .busy(self.cfg.recovery.recovery_cycles, TimeClass::Recovery);
            }
        }
    }

    /// Arm the barrier watchdog for R-stream `ci`, parked at the
    /// region-end barrier. If the deadline passes while it is still
    /// parked in the same barrier generation, stuck A-streams are forced
    /// through recovery instead of deadlocking the run.
    fn arm_watchdog(&mut self, ci: usize, now: Cycle) {
        if self.cfg.recovery.watchdog_cycles == 0 || self.slip_active().is_none() {
            return;
        }
        let deadline = now + self.cfg.recovery.watchdog_cycles;
        self.cpus[ci].watchdog_deadline = Some(deadline);
        self.cpus[ci].watchdog_gen = self.region_barrier.generation();
        self.q.schedule(deadline, CpuId(ci));
    }

    /// Watchdog deadline reached for `ci`. Validate it is still stuck at
    /// the same region-end barrier, then force-recover every stranded
    /// A-stream (token loss / lost signals leave the A parked where no
    /// slack heuristic ever fires).
    fn watchdog_fire(&mut self, ci: usize, t: Cycle) {
        self.cpus[ci].watchdog_deadline = None;
        if self.cpus[ci].status != Status::Parked
            || self.cpus[ci].park_class != TimeClass::Barrier
            || self.region_barrier.generation() != self.cpus[ci].watchdog_gen
            || !matches!(
                self.cpus[ci].frames.last(),
                Some(Frame::Bar { internal: true, .. })
            )
        {
            return; // stale: the barrier released in the meantime
        }
        let mut recovered = false;
        for p in 0..self.pairs.len() {
            let a_cpu = self.pairs[p].a_cpu;
            let ai = a_cpu.0;
            // Stuck means: parked somewhere other than this barrier.
            let stuck = match self.cpus[ai].status {
                Status::Parked => self.cpus[ai].park_class != TimeClass::Barrier,
                _ => false,
            };
            if !stuck || self.a_holds_lock(a_cpu) {
                continue;
            }
            // Re-seed only from an R-stream that is itself parked inside
            // the region-end barrier protocol: rebuild its continuation so
            // the A-stream arrives at that barrier itself. An R still
            // working through the region makes progress on its own and
            // recovers its A at its next divergence check instead.
            let ri = self.pairs[p].r_cpu.0;
            let mut frames = self.cpus[ri].frames.clone();
            match frames.last() {
                Some(Frame::Bar { internal: true, .. }) => {
                    let top = frames.len() - 1;
                    frames[top] = Frame::Bar {
                        internal: true,
                        stage: 0,
                    };
                }
                _ => continue,
            }
            self.pairs[p].diverged = true;
            self.reseed_astream(ri, p, frames, true, t);
            recovered = true;
        }
        if !recovered {
            // Nothing was recoverable right now (e.g. A-streams merely
            // slow and still Ready, or their R-streams still mid-region).
            // Re-arm; if the machine is truly wedged the event-queue
            // drain reports the deadlock.
            let progressing = self.cpus.iter().any(|c| c.status == Status::Ready);
            if progressing {
                self.arm_watchdog(ci, t);
            }
        }
    }

    /// Arm the token-wait timeout for A-stream `ci`, just parked on pair
    /// `p`'s token or scheduling semaphore. The deadline backs off
    /// exponentially with the region's consecutive timeout count. One
    /// deadline per park: a normal wake disarms it ([`Engine::wake`]).
    fn arm_token_wait(&mut self, ci: usize, p: usize) {
        if self.pairs[p].demoted() {
            return;
        }
        let Some(len) = self
            .cfg
            .recovery
            .token_wait_deadline(self.pairs[p].wait_timeouts)
        else {
            return;
        };
        let now = self.cpus[ci].timeline.now();
        let deadline = now.saturating_add(len);
        self.cpus[ci].token_wait_deadline = Some(deadline);
        self.q.schedule(deadline, CpuId(ci));
    }

    /// Token-wait deadline reached for A-stream `ci`. Validate it is
    /// still stranded on the pair-semaphore path, then declare divergence
    /// instead of hanging: if its R-stream is already parked at the
    /// region-end barrier (and will never run another divergence check)
    /// re-seed immediately, otherwise the R-stream's next check recovers
    /// it.
    fn token_wait_fire(&mut self, ci: usize, t: Cycle) {
        self.cpus[ci].token_wait_deadline = None;
        let Some(p) = self.pair_of(ci) else { return };
        if self.cpus[ci].status != Status::Parked
            || self.cpus[ci].park_class != TimeClass::AStreamWait
            || self.pairs[p].demoted()
        {
            return; // stale: woken, recovered, or demoted in the meantime
        }
        self.pairs[p].wait_timeouts += 1;
        self.pairs[p].timeout_pending = true;
        self.pairs[p].diverged = true;
        let a_cpu = self.pairs[p].a_cpu;
        let ri = self.pairs[p].r_cpu.0;
        let r_at_region_end = self.cpus[ri].status == Status::Parked
            && matches!(
                self.cpus[ri].frames.last(),
                Some(Frame::Bar { internal: true, .. })
            );
        if r_at_region_end && !self.a_holds_lock(a_cpu) {
            let mut frames = self.cpus[ri].frames.clone();
            let top = frames.len() - 1;
            frames[top] = Frame::Bar {
                internal: true,
                stage: 0,
            };
            self.reseed_astream(ri, p, frames, false, t);
        }
    }

    /// Barrier protocol. Stages: 0 = entry (A: token consume; R: local
    /// token insert + arrive), 1 = A woken with a granted token,
    /// 2 = R woken by release (post-wait flag load + global token insert).
    fn barrier_step(&mut self, ci: usize, internal: bool, stage: u8) {
        let role_a = self.is_a(ci);
        if role_a && !internal {
            if let Some(sync) = self.slip_on(ci) {
                let _ = sync;
                match stage {
                    0 => {
                        let p = self.pair_of(ci).expect("A-stream without pair");
                        let tid = self.cpus[ci].tid;
                        let epoch = self.pairs[p].a_epoch;
                        match self.fault_at(ci, FaultSite::ABarrier, tid, epoch) {
                            Some(ev) if ev.kind == FaultKind::Wander => {
                                // Wander off the control path: diverge and
                                // park until recovered.
                                self.a_diverge(ci, p);
                                return;
                            }
                            Some(ev) if ev.kind == FaultKind::StallBurst => {
                                // OS preemption burst on the A processor:
                                // lose the cycles, then proceed normally.
                                self.busy(ci, ev.arg, TimeClass::Os);
                            }
                            _ => {}
                        }
                        self.busy(ci, self.cfg.machine.pair_register_cycles, TimeClass::Busy);
                        let granted = self.pairs[p].tokens.wait(CpuId(ci));
                        if granted {
                            self.pairs[p].bump_a_epoch();
                            self.cpus[ci].timeline.stats.barriers += 1;
                            self.trace_token_consume(ci, p);
                        } else {
                            self.cpus[ci].frames.push(Frame::Bar { internal, stage: 1 });
                            if self.tracer.is_on() {
                                let t = self.cpus[ci].timeline.now();
                                self.tracer.record(
                                    t,
                                    ci as u32,
                                    TraceEvent::TokenWait { pair: p as u32 },
                                );
                            }
                            self.park(ci, TimeClass::AStreamWait);
                            self.arm_token_wait(ci, p);
                        }
                    }
                    1 => {
                        let p = self.pair_of(ci).expect("A-stream without pair");
                        self.pairs[p].bump_a_epoch();
                        self.cpus[ci].timeline.stats.barriers += 1;
                        self.trace_token_consume(ci, p);
                    }
                    _ => unreachable!("A-stream barrier stage"),
                }
                return;
            }
            // Slipstream off for this region (or the pair is demoted): A
            // skips construct barriers without tokens.
            return;
        }

        // R-stream or solo (or any stream at an internal barrier).
        match stage {
            0 => {
                if !internal && !role_a {
                    self.check_divergence(ci);
                    if let Some(sync) = self.slip_on(ci) {
                        if !sync.global {
                            // Local sync: token inserted at barrier entry.
                            self.insert_token(ci);
                            if let Some(p) = self.pair_of(ci) {
                                self.pairs[p].bump_r_epoch();
                                self.trace_lead(ci, p);
                            }
                        }
                    }
                }
                // Arrive: fetch-and-increment of the barrier counter — a
                // read-modify-write that migrates the line to this node.
                let bar_addr = if internal {
                    self.region_barrier.addr
                } else {
                    self.construct_barrier.addr
                };
                self.mem(ci, bar_addr, AccessKind::Load, TimeClass::Barrier);
                self.mem(ci, bar_addr, AccessKind::Store, TimeClass::Barrier);
                self.cpus[ci].timeline.stats.barriers += 1;
                if self.tracer.is_on() {
                    let t = self.cpus[ci].timeline.now();
                    let bar = if internal {
                        &self.region_barrier
                    } else {
                        &self.construct_barrier
                    };
                    let ev = TraceEvent::BarrierArrive {
                        addr: bar_addr,
                        generation: bar.generation(),
                        arrived: bar.arrived() as u32 + 1,
                        total: bar.total() as u32,
                    };
                    self.tracer.record(t, ci as u32, ev);
                }
                let released = {
                    let bar = if internal {
                        &mut self.region_barrier
                    } else {
                        &mut self.construct_barrier
                    };
                    bar.arrive(CpuId(ci))
                };
                match released {
                    Some(waiters) => {
                        let t = self.cpus[ci].timeline.now();
                        if self.tracer.is_on() {
                            let generation = if internal {
                                self.region_barrier.generation()
                            } else {
                                self.construct_barrier.generation()
                            };
                            self.tracer.record(
                                t,
                                ci as u32,
                                TraceEvent::BarrierRelease {
                                    addr: bar_addr,
                                    generation,
                                    woken: waiters.len() as u32,
                                },
                            );
                        }
                        for w in waiters {
                            self.wake(w, t);
                        }
                        // The releasing arriver proceeds directly.
                        self.barrier_exit(ci, internal, false);
                    }
                    None => {
                        self.cpus[ci].frames.push(Frame::Bar { internal, stage: 2 });
                        self.park(ci, TimeClass::Barrier);
                        if internal && !role_a {
                            // R-streams waiting at the region-end barrier
                            // arm the divergence watchdog: a stranded
                            // A-stream would otherwise deadlock the team.
                            let now = self.cpus[ci].timeline.now();
                            self.arm_watchdog(ci, now);
                        }
                    }
                }
            }
            2 => {
                // Woken by the release: re-read the flag line (it was
                // invalidated by the releasing store).
                self.barrier_exit(ci, internal, true);
            }
            _ => unreachable!("barrier stage"),
        }
    }

    fn barrier_exit(&mut self, ci: usize, internal: bool, reload_flag: bool) {
        // Global sync: the token is inserted "before exiting the barrier"
        // (paper Section 2.2) — at release detection, ahead of the
        // R-stream's own exit path (flag re-read, pipeline resumption), so
        // the A-stream gets a head start of the R-stream's exit overhead.
        if !internal && !self.is_a(ci) {
            if let Some(sync) = self.slip_on(ci) {
                if sync.global {
                    self.insert_token(ci);
                    if let Some(p) = self.pair_of(ci) {
                        self.pairs[p].bump_r_epoch();
                        self.trace_lead(ci, p);
                    }
                }
            }
        }
        if reload_flag {
            let addr = if internal {
                self.region_barrier.addr
            } else {
                self.construct_barrier.addr
            };
            self.mem(ci, addr, AccessKind::Load, TimeClass::Barrier);
        }
    }

    /// Worksharing loop end: reduction combine, then the implicit barrier
    /// unless `nowait`.
    fn loop_end(&mut self, ci: usize, node: NodeId, stage: u8) {
        let (reduction, nowait) = match self.cp.node(node) {
            FNode::ParFor {
                reduction, nowait, ..
            } => (reduction.clone(), *nowait),
            _ => unreachable!("LoopEnd on non-ParFor"),
        };
        match stage {
            0 => {
                self.cpus[ci].frames.push(Frame::LoopEnd { node, stage: 1 });
                if let Some(red) = reduction {
                    if self.is_a(ci) {
                        // Policy: the A-stream runs reduction bodies as
                        // user code but skips the shared combine.
                        if self.cfg.policy.reduction_combine == AAction::Execute {
                            self.cpus[ci].frames.push(Frame::RedP { red, stage: 0 });
                        }
                    } else {
                        self.cpus[ci].frames.push(Frame::RedP { red, stage: 0 });
                    }
                }
            }
            1 => {
                if !nowait {
                    self.cpus[ci].frames.push(Frame::Bar {
                        internal: false,
                        stage: 0,
                    });
                }
            }
            _ => unreachable!("loop_end stage"),
        }
    }

    /// Reduction combine: serialize through the reduction lock and update
    /// the shared target cell.
    fn reduction_step(&mut self, ci: usize, red: Reduction, stage: u8) {
        match stage {
            0 => {
                // Acquire the reduction lock.
                self.mem(
                    ci,
                    self.reduction_lock.addr,
                    AccessKind::Store,
                    TimeClass::Lock,
                );
                if self.reduction_lock.acquire(CpuId(ci)) {
                    self.cpus[ci].frames.push(Frame::RedP { red, stage: 1 });
                } else {
                    self.cpus[ci].frames.push(Frame::RedP { red, stage: 1 });
                    self.park(ci, TimeClass::Lock);
                }
            }
            1 => {
                // Combine: load target, apply op, store target, release.
                let idx = self.eval(ci, &red.index);
                let addr = self.element_addr(ci, red.target, idx);
                self.mem(ci, addr, AccessKind::Load, TimeClass::MemStall);
                self.busy(ci, 3, TimeClass::Busy);
                self.mem(ci, addr, AccessKind::Store, TimeClass::MemStall);
                self.mem(
                    ci,
                    self.reduction_lock.addr,
                    AccessKind::Store,
                    TimeClass::Lock,
                );
                let next = self.reduction_lock.release(CpuId(ci));
                let t = self.cpus[ci].timeline.now();
                if let Some(w) = next {
                    self.wake(w, t);
                }
            }
            _ => unreachable!("reduction stage"),
        }
    }

    fn critical_step(&mut self, ci: usize, lock: usize, body: NodeId, stage: u8) {
        match stage {
            0 => {
                self.mem(
                    ci,
                    self.critical_locks[lock].addr,
                    AccessKind::Store,
                    TimeClass::Lock,
                );
                let granted = self.critical_locks[lock].acquire(CpuId(ci));
                self.cpus[ci].frames.push(Frame::CritP {
                    lock,
                    body,
                    stage: 1,
                });
                if granted {
                    self.enter(ci, body);
                } else {
                    // On wake the lock is already ours; re-read the lock
                    // line then run the body.
                    self.cpus[ci].frames.pop();
                    self.cpus[ci].frames.push(Frame::CritP {
                        lock,
                        body,
                        stage: 2,
                    });
                    self.park(ci, TimeClass::Lock);
                }
            }
            2 => {
                // Woken as the new holder.
                self.mem(
                    ci,
                    self.critical_locks[lock].addr,
                    AccessKind::Load,
                    TimeClass::Lock,
                );
                self.cpus[ci].frames.push(Frame::CritP {
                    lock,
                    body,
                    stage: 1,
                });
                self.enter(ci, body);
            }
            1 => {
                // Body finished: release.
                self.mem(
                    ci,
                    self.critical_locks[lock].addr,
                    AccessKind::Store,
                    TimeClass::Lock,
                );
                let next = self.critical_locks[lock].release(CpuId(ci));
                let t = self.cpus[ci].timeline.now();
                if let Some(w) = next {
                    self.wake(w, t);
                }
            }
            _ => unreachable!("critical stage"),
        }
    }

    fn single_step(&mut self, ci: usize, node: NodeId, enc: usize, stage: u8) {
        let body = match self.cp.node(node) {
            FNode::Single(b) => *b,
            _ => unreachable!("SingleP on non-Single"),
        };
        if self.is_a(ci) && self.slip_on(ci).is_some() {
            // Skip the body; the implicit end barrier is a construct
            // barrier (token consume).
            self.cpus[ci].frames.push(Frame::Bar {
                internal: false,
                stage: 0,
            });
            return;
        }
        match stage {
            0 => {
                // Claim via an atomic on the single's flag line.
                let line = self.get_single_line(enc);
                self.mem(ci, line, AccessKind::Store, TimeClass::Scheduling);
                let won = self.arena.single(enc).claim();
                self.cpus[ci].frames.push(Frame::SingleP {
                    node,
                    enc,
                    stage: 1,
                });
                if won {
                    self.enter(ci, body);
                }
            }
            1 => {
                // Implicit end barrier.
                self.cpus[ci].frames.push(Frame::Bar {
                    internal: false,
                    stage: 0,
                });
            }
            _ => unreachable!("single stage"),
        }
    }

    fn sections_step(&mut self, ci: usize, node: NodeId, enc: usize, stage: u8, claimed: usize) {
        let secs = match self.cp.node(node) {
            FNode::Sections(v) => v.clone(),
            _ => unreachable!("SectionsP on non-Sections"),
        };
        let role_a = self.is_a(ci) && self.slip_on(ci).is_some();
        if role_a {
            // A-stream mirrors its R-stream's claimed sections through the
            // pair semaphore (dynamic assignment ⇒ SyncWithR).
            if self.cfg.policy.sections != AAction::SyncWithR {
                // Ablation: skip sections entirely.
                self.cpus[ci].frames.push(Frame::Bar {
                    internal: false,
                    stage: 0,
                });
                return;
            }
            match stage {
                0 => {
                    let p = self.pair_of(ci).expect("A without pair");
                    self.busy(ci, self.cfg.machine.pair_register_cycles, TimeClass::Busy);
                    let granted = self.pairs[p].sched_sem.wait(CpuId(ci));
                    self.cpus[ci].frames.push(Frame::SectionsP {
                        node,
                        enc,
                        stage: 1,
                        claimed,
                    });
                    if !granted {
                        self.park(ci, TimeClass::AStreamWait);
                        self.arm_token_wait(ci, p);
                    }
                }
                1 => {
                    let p = self.pair_of(ci).expect("A without pair");
                    let d = self.pairs[p].take_decision();
                    self.trace_decision_consume(ci, p, d);
                    match d {
                        Some(Decision::Section(s)) if s < secs.len() => {
                            let daddr = self.pairs[p].decision_addr;
                            self.mem(ci, daddr, AccessKind::Load, TimeClass::Busy);
                            self.cpus[ci].frames.push(Frame::SectionsP {
                                node,
                                enc,
                                stage: 0,
                                claimed,
                            });
                            self.enter(ci, secs[s]);
                        }
                        Some(Decision::End) => {
                            self.cpus[ci].frames.push(Frame::Bar {
                                internal: false,
                                stage: 0,
                            });
                        }
                        // Empty queue (lost signal) or a decision that
                        // makes no sense here (corruption): the A-stream
                        // can no longer follow its R-stream. Diverge; the
                        // R-stream recovers it at its next barrier check.
                        _ => self.a_diverge(ci, p),
                    }
                }
                _ => unreachable!("A sections stage"),
            }
            return;
        }
        match stage {
            0 => {
                // Grab the next section index.
                let line = self.get_sections_line(enc);
                self.mem(ci, line, AccessKind::Store, TimeClass::Scheduling);
                match self.arena.sections(enc).claim(secs.len()) {
                    Some(s) => {
                        self.publish_decision(ci, Decision::Section(s));
                        self.cpus[ci].frames.push(Frame::SectionsP {
                            node,
                            enc,
                            stage: 0,
                            claimed: claimed + 1,
                        });
                        self.enter(ci, secs[s]);
                    }
                    None => {
                        self.publish_decision(ci, Decision::End);
                        self.cpus[ci].frames.push(Frame::Bar {
                            internal: false,
                            stage: 0,
                        });
                    }
                }
            }
            _ => unreachable!("sections stage"),
        }
    }

    /// R-stream: publish a scheduling decision for the A-stream (store to
    /// the pair decision line + pair-register signal).
    fn publish_decision(&mut self, ci: usize, d: Decision) {
        if self.is_a(ci) || self.slip_on(ci).is_none() {
            return;
        }
        if let Some(p) = self.pair_of(ci) {
            self.publish_pair(ci, p, d);
        }
    }

    /// Publish `d` on pair `p`'s handshake, with the `Publish`-site fault
    /// hooks: `SignalLoss` enqueues the decision but drops the semaphore
    /// signal (the A-stream is never woken for it); `DecisionCorrupt`
    /// delivers a well-formed but wrong decision.
    fn publish_pair(&mut self, ci: usize, p: usize, d: Decision) {
        let daddr = self.pairs[p].decision_addr;
        self.mem(ci, daddr, AccessKind::Store, TimeClass::Busy);
        self.busy(ci, self.cfg.machine.pair_register_cycles, TimeClass::Busy);
        let tid = self.pairs[p].tid;
        let seq = self.pairs[p].publish_seq;
        self.pairs[p].publish_seq = seq.wrapping_add(1);
        let d = match self
            .fault_at(ci, FaultSite::Publish, tid, seq)
            .map(|e| e.kind)
        {
            Some(FaultKind::SignalLoss) => {
                // The decision reaches the queue but the sched_sem signal
                // is lost: an A-stream parked on the semaphore strands
                // until the watchdog or a slack check recovers it.
                if self.tracer.is_on() {
                    let t = self.cpus[ci].timeline.now();
                    self.tracer.record(
                        t,
                        ci as u32,
                        TraceEvent::DecisionPublish {
                            pair: p as u32,
                            seq,
                            kind: d.label(),
                            lost: true,
                        },
                    );
                }
                self.pairs[p].decisions.push_back(d);
                return;
            }
            Some(FaultKind::DecisionCorrupt) => match d {
                Decision::RegionGo => Decision::End,
                _ => Decision::RegionGo,
            },
            _ => d,
        };
        if self.tracer.is_on() {
            let t = self.cpus[ci].timeline.now();
            self.tracer.record(
                t,
                ci as u32,
                TraceEvent::DecisionPublish {
                    pair: p as u32,
                    seq,
                    kind: d.label(),
                    lost: false,
                },
            );
        }
        let woken = self.pairs[p].publish(d);
        let t = self.cpus[ci].timeline.now();
        if let Some(a) = woken {
            self.wake(a, t);
        }
    }

    /// Dynamic/guided loop protocol.
    ///
    /// R/solo stages: 0 = acquire scheduler lock (or park), 2 = woken as
    /// lock holder, 1 = grab chunk under the lock and release, 3 = chunk
    /// body done, grab again.
    /// A-stream stages: 10 = wait on pair semaphore, 11 = consume
    /// decision.
    #[allow(clippy::too_many_arguments)]
    fn dyn_step(
        &mut self,
        ci: usize,
        node: NodeId,
        enc: usize,
        sched: ResolvedSchedule,
        lo: i64,
        hi: i64,
        stage: u8,
        chunk: Chunk,
    ) {
        let body = match self.cp.node(node) {
            FNode::ParFor { body, .. } => *body,
            _ => unreachable!("DynP on non-ParFor"),
        };
        let role_a = self.is_a(ci) && self.slip_on(ci).is_some();
        if role_a {
            match stage {
                0 | 10 => {
                    // Wait for the R-stream's scheduling decision (the
                    // syscall hardware semaphore of Section 3.2.2).
                    let p = self.pair_of(ci).expect("A without pair");
                    self.busy(ci, self.cfg.machine.pair_register_cycles, TimeClass::Busy);
                    let granted = self.pairs[p].sched_sem.wait(CpuId(ci));
                    self.cpus[ci].frames.push(Frame::DynP {
                        node,
                        enc,
                        sched,
                        lo,
                        hi,
                        stage: 11,
                        chunk,
                    });
                    if !granted {
                        self.park(ci, TimeClass::AStreamWait);
                        self.arm_token_wait(ci, p);
                    }
                }
                11 => {
                    let p = self.pair_of(ci).expect("A without pair");
                    let d = self.pairs[p].take_decision();
                    self.trace_decision_consume(ci, p, d);
                    match d {
                        Some(Decision::Chunk(c)) => {
                            let daddr = self.pairs[p].decision_addr;
                            self.mem(ci, daddr, AccessKind::Load, TimeClass::Busy);
                            self.cpus[ci].frames.push(Frame::DynP {
                                node,
                                enc,
                                sched,
                                lo,
                                hi,
                                stage: 10,
                                chunk: c,
                            });
                            let var = self.parfor_var(node);
                            self.cpus[ci].frames.push(Frame::ChunkIter {
                                var,
                                chunks: vec![c],
                                ci: 0,
                                cur: i64::MIN,
                                body,
                            });
                        }
                        Some(Decision::End) => {} // fall through to LoopEnd
                        // Lost signal or corrupted decision: diverge and
                        // wait for the R-stream to recover this pair.
                        _ => self.a_diverge(ci, p),
                    }
                }
                _ => unreachable!("A dyn stage"),
            }
            return;
        }

        let lock_id = enc;
        let tid = self.cpus[ci].tid as usize;
        let affinity = sched.is_affinity();
        match stage {
            0 => {
                // Serialize through the scheduler lock: the shared counter
                // lock for dynamic/guided, the thread's own queue lock for
                // affinity (node-local in the common case).
                let laddr = if affinity {
                    self.affinity_locks[lock_id][tid].addr
                } else {
                    self.sched_locks[lock_id].addr
                };
                self.mem(ci, laddr, AccessKind::Store, TimeClass::Scheduling);
                let granted = if affinity {
                    self.affinity_locks[lock_id][tid].acquire(CpuId(ci))
                } else {
                    self.sched_locks[lock_id].acquire(CpuId(ci))
                };
                self.cpus[ci].frames.push(Frame::DynP {
                    node,
                    enc,
                    sched,
                    lo,
                    hi,
                    stage: if granted { 1 } else { 2 },
                    chunk,
                });
                if !granted {
                    self.park(ci, TimeClass::Scheduling);
                }
            }
            2 => {
                // Woken as lock holder: re-read the lock line.
                let laddr = if affinity {
                    self.affinity_locks[lock_id][tid].addr
                } else {
                    self.sched_locks[lock_id].addr
                };
                self.mem(ci, laddr, AccessKind::Load, TimeClass::Scheduling);
                self.cpus[ci].frames.push(Frame::DynP {
                    node,
                    enc,
                    sched,
                    lo,
                    hi,
                    stage: 1,
                    chunk,
                });
            }
            1 => {
                // Holding the lock: read and update the scheduler state.
                // The lock word and counter share a cache line (one
                // migration per grab brings both), so the counter accesses
                // hit in the L1 after the acquire.
                let caddr = if affinity {
                    self.affinity_locks[lock_id][tid].addr
                } else {
                    self.sched_locks[lock_id].addr
                };
                self.mem(ci, caddr, AccessKind::Load, TimeClass::Scheduling);
                self.busy(ci, self.cfg.dynamic_sched_cycles, TimeClass::Scheduling);
                let next = if let ResolvedSchedule::Affinity(chunk) = sched {
                    // Lazy init of the per-thread queues.
                    let team = self.layout.team_size();
                    let n = omp_ir::wsloop::trip_count(lo, hi, 1);
                    if !self.arena.affinity_loop(enc).is_initialized() {
                        *self.arena.affinity_loop(enc) =
                            omp_rt::schedule::AffinityState::init(n, team);
                    }
                    let grab = self
                        .arena
                        .affinity_loop(enc)
                        .next_chunk(tid as u64, chunk, lo, 1);
                    if let Some(g) = grab {
                        if g.stolen {
                            // Touch the victim's queue line (remote): the
                            // cost of the steal.
                            let vaddr = self.affinity_locks[lock_id][g.victim as usize].addr;
                            self.mem(ci, vaddr, AccessKind::Load, TimeClass::Scheduling);
                            self.mem(ci, vaddr, AccessKind::Store, TimeClass::Scheduling);
                        }
                    }
                    grab.map(|g| g.chunk)
                } else {
                    self.arena
                        .dyn_loop(enc)
                        .next_chunk(sched, lo, hi, 1, self.layout.team_size())
                };
                self.mem(ci, caddr, AccessKind::Store, TimeClass::Scheduling);
                let (woken, t) = if affinity {
                    let w = self.affinity_locks[lock_id][tid].release(CpuId(ci));
                    (w, self.cpus[ci].timeline.now())
                } else {
                    let laddr = self.sched_locks[lock_id].addr;
                    self.mem(ci, laddr, AccessKind::Store, TimeClass::Scheduling);
                    let w = self.sched_locks[lock_id].release(CpuId(ci));
                    (w, self.cpus[ci].timeline.now())
                };
                if let Some(w) = woken {
                    self.wake(w, t);
                }
                match next {
                    Some(c) => {
                        self.publish_decision(ci, Decision::Chunk(c));
                        self.cpus[ci].frames.push(Frame::DynP {
                            node,
                            enc,
                            sched,
                            lo,
                            hi,
                            stage: 0,
                            chunk: c,
                        });
                        let var = self.parfor_var(node);
                        self.cpus[ci].frames.push(Frame::ChunkIter {
                            var,
                            chunks: vec![c],
                            ci: 0,
                            cur: i64::MIN,
                            body,
                        });
                    }
                    None => {
                        self.publish_decision(ci, Decision::End);
                        // Fall through to LoopEnd (reduction + barrier).
                    }
                }
            }
            _ => unreachable!("dyn stage"),
        }
    }

    fn parfor_var(&self, node: NodeId) -> VarId {
        match self.cp.node(node) {
            FNode::ParFor { var, .. } => *var,
            _ => unreachable!("parfor_var on non-ParFor"),
        }
    }

    /// Master's path through a `Parallel` node.
    ///
    /// R-master (stage 0): resolve slipstream, configure region state,
    /// dispatch the job to the pool, publish RegionGo to its A-stream, and
    /// enter the body. A-master: wait for RegionGo (stages 0/1/2), then
    /// enter. The matching region-end barrier is pushed beneath the body.
    fn region_step(&mut self, ci: usize, node: NodeId, stage: u8) {
        let (body, clause) = match self.cp.node(node) {
            FNode::Parallel { body, slipstream } => (*body, *slipstream),
            _ => unreachable!("RegionP on non-Parallel"),
        };
        let role_a = self.is_a(ci);

        if role_a {
            // The A-master may run ahead of its R-master in serial code;
            // it must not enter the region before the R-master configures
            // it. Synchronize through the pair semaphore.
            match stage {
                0 => {
                    let p = self.pair_of(ci).expect("A-master without pair");
                    self.busy(ci, self.cfg.machine.pair_register_cycles, TimeClass::Busy);
                    let granted = self.pairs[p].sched_sem.wait(CpuId(ci));
                    self.cpus[ci].frames.push(Frame::RegionP { node, stage: 1 });
                    if !granted {
                        self.park(ci, TimeClass::AStreamWait);
                        self.arm_token_wait(ci, p);
                    }
                }
                1 => {
                    let p = self.pair_of(ci).expect("A-master without pair");
                    let d = self.pairs[p].take_decision();
                    self.trace_decision_consume(ci, p, d);
                    match d {
                        Some(Decision::RegionGo) => {
                            self.cpus[ci].jobs_taken += 1;
                            self.cpus[ci].reset_encounters();
                            self.cpus[ci].frames.push(Frame::RegionEndP { stage: 0 });
                            if self.region_slip != RegionSlip::Off && !self.pairs[p].demoted() {
                                self.enter(ci, body);
                            }
                        }
                        // Lost or corrupted region-go handshake: the
                        // A-master cannot enter the region. Diverge; the
                        // watchdog reseeds it at the region end.
                        _ => self.a_diverge(ci, p),
                    }
                }
                _ => unreachable!("A-master region stage"),
            }
            return;
        }

        debug_assert_eq!(stage, 0);
        let resolved = if self.cfg.mode != ExecMode::Slipstream {
            RegionSlip::Off
        } else {
            resolve_region(clause, self.global_slip, self.cfg.env.slipstream)
        };

        // R-master configures shared region state exactly once.
        self.region_slip = resolved;
        self.current_region = Some(body);
        self.sched_grabs_total += self.arena.total_grabs();
        self.sched_steals_total += self.arena.total_steals();
        self.arena = ConstructArena::new();
        self.sched_locks.clear();
        self.sched_counter_lines.clear();
        self.affinity_locks.clear();
        self.single_lines.clear();
        self.sections_lines.clear();
        if let RegionSlip::On(sync) = resolved {
            for p in &mut self.pairs {
                // A fresh region restarts token allocation (Fig. 1).
                p.start_region(sync);
            }
        }
        // Dispatch: one store to the job flag; every pool slave wakes and
        // re-reads the flag line.
        self.job_gen += 1;
        self.mem(ci, self.job_flag, AccessKind::Store, TimeClass::Scheduling);
        let t = self.cpus[ci].timeline.now();
        let pool: Vec<CpuId> = (0..self.cpus.len())
            .filter(|i| self.cpus[*i].status == Status::PoolIdle)
            .map(CpuId)
            .collect();
        for w in pool {
            self.wake(w, t);
        }
        // Release the A-master into the region.
        if self.cfg.mode == ExecMode::Slipstream {
            if let Some(p) = self.pair_of(ci) {
                self.publish_pair(ci, p, Decision::RegionGo);
            }
        }

        self.cpus[ci].jobs_taken += 1;
        self.cpus[ci].reset_encounters();
        self.cpus[ci].frames.push(Frame::RegionEndP { stage: 0 });
        self.enter(ci, body);
    }

    /// Region-end internal barrier; slaves then return to the pool.
    fn region_end_step(&mut self, ci: usize, stage: u8) {
        match stage {
            0 => {
                // Recover a diverged A-stream before it deadlocks the
                // internal barrier. The clone must include this region-end
                // step itself, so the recovered A-stream arrives at the
                // barrier like everyone else.
                if !self.is_a(ci) {
                    if let Some(p) = self.pair_of(ci) {
                        if self.pairs[p].diverged {
                            self.cpus[ci].frames.push(Frame::RegionEndP { stage: 0 });
                            self.recover_astream(ci, p);
                            self.cpus[ci].frames.pop();
                        }
                    }
                }
                self.cpus[ci].frames.push(Frame::RegionEndP { stage: 1 });
                self.cpus[ci].frames.push(Frame::Bar {
                    internal: true,
                    stage: 0,
                });
            }
            1 => {
                // Past the barrier. Slaves go back to the pool; masters
                // continue with serial code.
                if self.cpus[ci].tid as usize != MASTER {
                    self.cpus[ci].frames.clear();
                    self.cpus[ci].frames.push(Frame::PoolWait);
                }
            }
            _ => unreachable!("region end stage"),
        }
    }

    /// Slave pool loop: wait for a job generation, then run the region.
    fn pool_step(&mut self, ci: usize) {
        if self.cpus[ci].jobs_taken < self.job_gen {
            // A job is (or became) available.
            self.cpus[ci].jobs_taken += 1;
            self.cpus[ci].reset_encounters();
            // Spin-exit: read the job flag (invalidated by the master's
            // dispatch store).
            self.mem(ci, self.job_flag, AccessKind::Load, TimeClass::JobWait);
            let body = self.current_region.expect("dispatch without a region");
            self.cpus[ci].frames.push(Frame::RegionEndP { stage: 0 });
            let skip_body =
                self.is_a(ci) && (self.region_slip == RegionSlip::Off || self.pair_demoted(ci));
            if !skip_body {
                self.enter(ci, body);
            }
        } else {
            self.cpus[ci].frames.push(Frame::PoolWait);
            self.park_pool(ci);
        }
    }

    /// I/O protocol: never executed by the A-stream; inputs synchronize
    /// the pair through the scheduling semaphore.
    fn io_step(&mut self, ci: usize, input: bool, bytes: u64, stage: u8) {
        let role_a = self.is_a(ci);
        if role_a {
            if !input || self.cfg.mode != ExecMode::Slipstream {
                return; // outputs (and non-slipstream) are simply skipped
            }
            match stage {
                0 => {
                    let p = self.pair_of(ci).expect("A without pair");
                    self.busy(ci, self.cfg.machine.pair_register_cycles, TimeClass::Busy);
                    let granted = self.pairs[p].sched_sem.wait(CpuId(ci));
                    if granted {
                        let d = self.pairs[p].take_decision();
                        self.trace_decision_consume(ci, p, d);
                        match d {
                            Some(Decision::IoDone) => {}
                            _ => self.a_diverge(ci, p),
                        }
                    } else {
                        self.cpus[ci].frames.push(Frame::IoP {
                            input,
                            bytes,
                            stage: 1,
                        });
                        self.park(ci, TimeClass::AStreamWait);
                        self.arm_token_wait(ci, p);
                    }
                }
                1 => {
                    let p = self.pair_of(ci).expect("A without pair");
                    let d = self.pairs[p].take_decision();
                    self.trace_decision_consume(ci, p, d);
                    match d {
                        Some(Decision::IoDone) => {}
                        _ => self.a_diverge(ci, p),
                    }
                }
                _ => unreachable!("A io stage"),
            }
            return;
        }
        // R/solo: charge the I/O latency, then release the A-stream for
        // inputs.
        if input {
            self.cpus[ci].user.io_in += 1;
        } else {
            self.cpus[ci].user.io_out += 1;
        }
        let cost = self.cfg.io_fixed_cycles + (bytes / 8) * self.cfg.io_cycles_per_8_bytes;
        self.busy(ci, cost, TimeClass::Busy);
        if input && self.cfg.mode == ExecMode::Slipstream {
            if let Some(p) = self.pair_of(ci) {
                self.publish_pair(ci, p, Decision::IoDone);
            }
        }
    }

    // -------------------------------------------------------- main loop --

    /// The event loop: commit scheduler events in global `(time, seq,
    /// cpu)` order until the queue drains, the master finishes, or —
    /// when `limit` is set — the next event's time reaches `limit`.
    ///
    /// The limit check runs *before* the pop, so stopping at a boundary
    /// leaves every piece of engine state exactly as an uninterrupted run
    /// has it when its frontier first reaches that time: a
    /// `pump(Some(t))` followed by `pump(None)` is state-for-state
    /// identical to a single `pump(None)`.
    ///
    /// A self-yield is carried to the next iteration and queued by the
    /// fused [`EventQueue::push_pop`]. It is later than the heap top, so
    /// the limit check above it sees the same frontier, and it takes the
    /// same sequence stamp `schedule` would have given it (nothing is
    /// scheduled in between). Any exit with a yield still carried queues
    /// it, so callers never see the difference.
    fn pump(&mut self, limit: Option<Cycle>) -> Result<(), String> {
        let mut carried: Option<(Cycle, CpuId)> = None;
        loop {
            if let Some(lim) = limit {
                match self.q.peek_time() {
                    Some(t) if t < lim => {}
                    _ => break,
                }
            }
            let next = match carried.take() {
                Some((t, cpu)) => {
                    debug_assert!(
                        self.q.peek_time().is_some_and(|h| t > h),
                        "a carried yield must be later than the heap top"
                    );
                    Some(self.q.push_pop(t, cpu))
                }
                None => self.q.pop(),
            };
            let Some((t, cpu)) = next else { break };
            if self.master_done {
                break;
            }
            self.events += 1;
            if self.events > self.cfg.max_events {
                return Err("event budget exhausted (runaway simulation)".into());
            }
            let c = &self.cpus[cpu.0];
            if c.status == Status::Parked && c.watchdog_deadline == Some(t) {
                // Watchdog deadline for an R-stream parked at the
                // region-end barrier.
                self.watchdog_fire(cpu.0, t);
                continue;
            }
            if c.status == Status::Parked && c.token_wait_deadline == Some(t) {
                // Token-wait deadline for an A-stream parked on the pair
                // semaphore path.
                self.token_wait_fire(cpu.0, t);
                continue;
            }
            if c.status != Status::Ready || c.next_wake != t {
                continue; // stale event
            }
            if let Some(wake) = self.run_cpu(cpu.0)? {
                carried = Some((wake, cpu));
            }
        }
        if let Some((t, cpu)) = carried {
            self.q.schedule(t, cpu);
        }
        Ok(())
    }

    /// Run to completion. Returns the aggregated results.
    pub fn run(mut self) -> Result<RunResult, String> {
        self.pump(None)?;
        self.finish_run()
    }

    /// Advance the simulation until the next pending event would run at
    /// or after `limit` cycles (or the program finishes first). Returns
    /// true once the master has finished. Pair with
    /// [`Engine::finish_run`] to collect results, or
    /// [`Engine::snapshot`] to checkpoint at the boundary.
    pub fn run_until(&mut self, limit: Cycle) -> Result<bool, String> {
        self.pump(Some(limit))?;
        Ok(self.master_done)
    }

    /// Collect the run's results after the event loop has completed
    /// (via [`Engine::run_until`] returning true, or a full
    /// [`Engine::pump`]). Errors if the program has not finished —
    /// either the caller stopped early or the queue drained in deadlock.
    pub fn finish_run(self) -> Result<RunResult, String> {
        if !self.master_done {
            // Queue drained without the master finishing: deadlock.
            let stuck: Vec<String> = self
                .cpus
                .iter()
                .enumerate()
                .filter(|(_, c)| !matches!(c.status, Status::Done))
                .map(|(i, c)| format!("cpu{i}:{:?}@{}", c.status, c.timeline.now()))
                .collect();
            return Err(format!("deadlock: master never finished; stuck: {stuck:?}"));
        }
        Ok(self.finish())
    }

    fn finish(mut self) -> RunResult {
        let master_ci = self.layout.master_cpu().0;
        let end = self.cpus[master_ci].timeline.now();
        // Attribute the tail of every stream's timeline up to program end.
        for c in self.cpus.iter_mut() {
            if c.assign == CpuAssignment::Idle {
                continue;
            }
            let class = match c.status {
                Status::Parked | Status::PoolIdle => c.park_class,
                _ => TimeClass::JobWait,
            };
            c.timeline.advance_to(end, class);
        }
        self.ms.finish();

        // Assemble the trace after the memory system retires its live fill
        // records (end-of-run classifications land in the classifier's
        // tracer during `ms.finish()`).
        let trace = if self.cfg.trace.is_on() {
            let mut data = TraceData {
                cycles: end,
                cpu_names: self
                    .cpus
                    .iter()
                    .enumerate()
                    .map(|(i, c)| format!("cpu{i} ({:?})", c.role))
                    .collect(),
                cmp_count: self.cfg.machine.num_cmps,
                spans: Vec::with_capacity(self.cpus.len()),
                events: Vec::new(),
                dropped: 0,
            };
            for c in self.cpus.iter_mut() {
                match c.timeline.take_spans() {
                    Some((spans, dropped)) => {
                        data.spans.push(spans);
                        data.dropped += dropped;
                    }
                    None => data.spans.push(Vec::new()),
                }
            }
            let mut batches = self.ms.take_trace();
            let engine_tracer =
                std::mem::replace(&mut self.tracer, Tracer::disabled(TrackDomain::Cpu));
            batches.push(engine_tracer.drain());
            data.merge_events(batches);
            Some(data)
        } else {
            None
        };

        let mut r_breakdown = dsm_sim::TimeBreakdown::new();
        let mut a_breakdown = dsm_sim::TimeBreakdown::new();
        let mut user_r = OpCounts::default();
        let mut user_a = OpCounts::default();
        let mut stores_converted = 0;
        let mut stores_skipped = 0;
        for c in &self.cpus {
            match c.role {
                StreamRole::A if c.assign != CpuAssignment::Idle => {
                    a_breakdown.merge(&c.timeline.stats.time);
                    merge_ops(&mut user_a, &c.user);
                    stores_converted += c.stores_converted;
                    stores_skipped += c.stores_skipped;
                }
                _ if c.assign != CpuAssignment::Idle => {
                    r_breakdown.merge(&c.timeline.stats.time);
                    merge_ops(&mut user_r, &c.user);
                }
                _ => {}
            }
        }
        let recoveries = self.pairs.iter().map(|p| p.recoveries).sum();
        let watchdog_recoveries = self.pairs.iter().map(|p| p.watchdog_recoveries).sum();
        let timeout_recoveries = self.pairs.iter().map(|p| p.timeout_recoveries).sum();
        let pair_ledgers: Vec<PairLedger> = self
            .pairs
            .iter()
            .map(|p| PairLedger {
                tid: p.tid,
                mode: p.mode,
                faults_injected: p.faults_injected,
                recoveries: p.recoveries,
                watchdog_recoveries: p.watchdog_recoveries,
                timeout_recoveries: p.timeout_recoveries,
                demoted_at: p.demoted_at,
            })
            .collect();
        let demotions = pair_ledgers.iter().filter(|l| l.demoted()).count() as u64;
        let machine = self.ms.machine_counters();
        RunResult {
            exec_cycles: end,
            roles: self.cpus.iter().map(|c| c.role).collect(),
            cpu_stats: self.cpus.iter().map(|c| c.timeline.stats.clone()).collect(),
            fill_counts: self.ms.classifier.counts,
            r_breakdown,
            a_breakdown,
            user_r,
            user_a,
            sched_grabs: self.sched_grabs_total + self.arena.total_grabs(),
            sched_steals: self.sched_steals_total + self.arena.total_steals(),
            recoveries,
            watchdog_recoveries,
            timeout_recoveries,
            demotions,
            pair_ledgers,
            stores_converted,
            stores_skipped,
            machine,
            events: self.events,
            trace,
        }
    }
}

// ---------------------------------------------------------------------------
// Engine checkpoint/restore.
//
// A snapshot captures the complete mutable simulation state mid-run so a
// sweep sharing a warmup prefix can fork from it instead of re-simulating.
// Everything config-derived (compiled program, machine layout, address
// map, latencies) is rebuilt by `Engine::new` on restore and validated
// against an identity hash stored in the snapshot; the cycle/event
// budgets are deliberately excluded from that hash because they only
// bound a run, never shape it.

/// Version of the engine snapshot payload format. Bumped on any change
/// to the serialized layout; [`Engine::restore`] rejects other versions.
pub const SNAPSHOT_VERSION: u32 = 4;

fn snap_expr(w: &mut snap::Writer, e: &Expr) {
    match e {
        Expr::Const(v) => {
            w.u8(0);
            w.i64(*v);
        }
        Expr::Var(v) => {
            w.u8(1);
            w.u32(v.0);
        }
        Expr::ThreadId => w.u8(2),
        Expr::NumThreads => w.u8(3),
        Expr::Bin(op, a, b) => {
            w.u8(4);
            w.u8(match op {
                BinOp::Add => 0,
                BinOp::Sub => 1,
                BinOp::Mul => 2,
                BinOp::Div => 3,
                BinOp::Mod => 4,
                BinOp::Min => 5,
                BinOp::Max => 6,
            });
            snap_expr(w, a);
            snap_expr(w, b);
        }
        Expr::Table(t, idx) => {
            w.u8(5);
            w.u32(t.0);
            snap_expr(w, idx);
        }
    }
}

fn restore_expr(r: &mut snap::Reader) -> Result<Expr, snap::SnapError> {
    Ok(match r.u8()? {
        0 => Expr::Const(r.i64()?),
        1 => Expr::Var(VarId(r.u32()?)),
        2 => Expr::ThreadId,
        3 => Expr::NumThreads,
        4 => {
            let op = match r.u8()? {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                2 => BinOp::Mul,
                3 => BinOp::Div,
                4 => BinOp::Mod,
                5 => BinOp::Min,
                6 => BinOp::Max,
                _ => return Err(snap::SnapError::Corrupt { what: "BinOp" }),
            };
            let a = restore_expr(r)?;
            let b = restore_expr(r)?;
            Expr::Bin(op, Box::new(a), Box::new(b))
        }
        5 => {
            let t = TableId(r.u32()?);
            Expr::Table(t, Box::new(restore_expr(r)?))
        }
        _ => return Err(snap::SnapError::Corrupt { what: "Expr" }),
    })
}

fn snap_reduction(w: &mut snap::Writer, red: &Reduction) {
    w.u8(match red.op {
        ReductionOp::Sum => 0,
        ReductionOp::Max => 1,
        ReductionOp::Min => 2,
    });
    w.u32(red.target.0);
    snap_expr(w, &red.index);
}

fn restore_reduction(r: &mut snap::Reader) -> Result<Reduction, snap::SnapError> {
    let op = match r.u8()? {
        0 => ReductionOp::Sum,
        1 => ReductionOp::Max,
        2 => ReductionOp::Min,
        _ => {
            return Err(snap::SnapError::Corrupt {
                what: "ReductionOp",
            })
        }
    };
    Ok(Reduction {
        op,
        target: ArrayId(r.u32()?),
        index: restore_expr(r)?,
    })
}

fn snap_sched(w: &mut snap::Writer, s: ResolvedSchedule) {
    match s {
        ResolvedSchedule::StaticBlock => w.u8(0),
        ResolvedSchedule::StaticChunked(c) => {
            w.u8(1);
            w.u64(c);
        }
        ResolvedSchedule::Dynamic(c) => {
            w.u8(2);
            w.u64(c);
        }
        ResolvedSchedule::Guided(c) => {
            w.u8(3);
            w.u64(c);
        }
        ResolvedSchedule::Affinity(c) => {
            w.u8(4);
            w.u64(c);
        }
    }
}

fn restore_sched(r: &mut snap::Reader) -> Result<ResolvedSchedule, snap::SnapError> {
    Ok(match r.u8()? {
        0 => ResolvedSchedule::StaticBlock,
        1 => ResolvedSchedule::StaticChunked(r.u64()?),
        2 => ResolvedSchedule::Dynamic(r.u64()?),
        3 => ResolvedSchedule::Guided(r.u64()?),
        4 => ResolvedSchedule::Affinity(r.u64()?),
        _ => {
            return Err(snap::SnapError::Corrupt {
                what: "ResolvedSchedule",
            })
        }
    })
}

fn snap_chunk(w: &mut snap::Writer, c: &Chunk) {
    w.i64(c.lo);
    w.i64(c.hi);
}

fn restore_chunk(r: &mut snap::Reader) -> Result<Chunk, snap::SnapError> {
    Ok(Chunk {
        lo: r.i64()?,
        hi: r.i64()?,
    })
}

fn snap_time_class(w: &mut snap::Writer, tc: TimeClass) {
    w.u8(tc.index() as u8);
}

fn restore_time_class(r: &mut snap::Reader) -> Result<TimeClass, snap::SnapError> {
    dsm_sim::TIME_CLASSES
        .get(r.u8()? as usize)
        .copied()
        .ok_or(snap::SnapError::Corrupt { what: "TimeClass" })
}

impl Frame {
    fn snapshot(&self, w: &mut snap::Writer) {
        match self {
            Frame::Seq { node, idx } => {
                w.u8(0);
                w.u32(node.0);
                w.usize(*idx);
            }
            Frame::For {
                var,
                cur,
                end,
                step,
                body,
            } => {
                w.u8(1);
                w.u32(var.0);
                w.i64(*cur);
                w.i64(*end);
                w.u64(*step);
                w.u32(body.0);
            }
            Frame::ChunkIter {
                var,
                chunks,
                ci,
                cur,
                body,
            } => {
                w.u8(2);
                w.u32(var.0);
                w.seq(chunks, snap_chunk);
                w.usize(*ci);
                w.i64(*cur);
                w.u32(body.0);
            }
            Frame::LoopEnd { node, stage } => {
                w.u8(3);
                w.u32(node.0);
                w.u8(*stage);
            }
            Frame::Bar { internal, stage } => {
                w.u8(4);
                w.bool(*internal);
                w.u8(*stage);
            }
            Frame::SingleP { node, enc, stage } => {
                w.u8(5);
                w.u32(node.0);
                w.usize(*enc);
                w.u8(*stage);
            }
            Frame::SectionsP {
                node,
                enc,
                stage,
                claimed,
            } => {
                w.u8(6);
                w.u32(node.0);
                w.usize(*enc);
                w.u8(*stage);
                w.usize(*claimed);
            }
            Frame::DynP {
                node,
                enc,
                sched,
                lo,
                hi,
                stage,
                chunk,
            } => {
                w.u8(7);
                w.u32(node.0);
                w.usize(*enc);
                snap_sched(w, *sched);
                w.i64(*lo);
                w.i64(*hi);
                w.u8(*stage);
                snap_chunk(w, chunk);
            }
            Frame::CritP { lock, body, stage } => {
                w.u8(8);
                w.usize(*lock);
                w.u32(body.0);
                w.u8(*stage);
            }
            Frame::RedP { red, stage } => {
                w.u8(9);
                snap_reduction(w, red);
                w.u8(*stage);
            }
            Frame::RegionP { node, stage } => {
                w.u8(10);
                w.u32(node.0);
                w.u8(*stage);
            }
            Frame::RegionEndP { stage } => {
                w.u8(11);
                w.u8(*stage);
            }
            Frame::PoolWait => w.u8(12),
            Frame::IoP {
                input,
                bytes,
                stage,
            } => {
                w.u8(13);
                w.bool(*input);
                w.u64(*bytes);
                w.u8(*stage);
            }
        }
    }

    fn restore(r: &mut snap::Reader) -> Result<Self, snap::SnapError> {
        Ok(match r.u8()? {
            0 => Frame::Seq {
                node: NodeId(r.u32()?),
                idx: r.usize()?,
            },
            1 => Frame::For {
                var: VarId(r.u32()?),
                cur: r.i64()?,
                end: r.i64()?,
                step: r.u64()?,
                body: NodeId(r.u32()?),
            },
            2 => Frame::ChunkIter {
                var: VarId(r.u32()?),
                chunks: r.seq(restore_chunk)?,
                ci: r.usize()?,
                cur: r.i64()?,
                body: NodeId(r.u32()?),
            },
            3 => Frame::LoopEnd {
                node: NodeId(r.u32()?),
                stage: r.u8()?,
            },
            4 => Frame::Bar {
                internal: r.bool()?,
                stage: r.u8()?,
            },
            5 => Frame::SingleP {
                node: NodeId(r.u32()?),
                enc: r.usize()?,
                stage: r.u8()?,
            },
            6 => Frame::SectionsP {
                node: NodeId(r.u32()?),
                enc: r.usize()?,
                stage: r.u8()?,
                claimed: r.usize()?,
            },
            7 => Frame::DynP {
                node: NodeId(r.u32()?),
                enc: r.usize()?,
                sched: restore_sched(r)?,
                lo: r.i64()?,
                hi: r.i64()?,
                stage: r.u8()?,
                chunk: restore_chunk(r)?,
            },
            8 => Frame::CritP {
                lock: r.usize()?,
                body: NodeId(r.u32()?),
                stage: r.u8()?,
            },
            9 => Frame::RedP {
                red: restore_reduction(r)?,
                stage: r.u8()?,
            },
            10 => Frame::RegionP {
                node: NodeId(r.u32()?),
                stage: r.u8()?,
            },
            11 => Frame::RegionEndP { stage: r.u8()? },
            12 => Frame::PoolWait,
            13 => Frame::IoP {
                input: r.bool()?,
                bytes: r.u64()?,
                stage: r.u8()?,
            },
            _ => return Err(snap::SnapError::Corrupt { what: "Frame" }),
        })
    }
}

impl CpuState {
    /// Serialize the mutable per-processor state. Identity fields
    /// (assignment, role, tid) are layout-derived and kept from the
    /// freshly built engine on restore.
    fn snapshot(&self, w: &mut snap::Writer) {
        self.timeline.snapshot(w);
        w.seq(&self.frames, |w, f| f.snapshot(w));
        w.seq(&self.vars, |w, v| w.i64(*v));
        w.u8(match self.status {
            Status::Ready => 0,
            Status::Parked => 1,
            Status::PoolIdle => 2,
            Status::Done => 3,
        });
        w.u64(self.next_wake);
        snap_time_class(w, self.park_class);
        w.opt(&self.pending_class, |w, &tc| snap_time_class(w, tc));
        w.usize(self.singles_seen);
        w.usize(self.sections_seen);
        w.usize(self.dynloops_seen);
        w.u64(self.jobs_taken);
        w.u64(self.next_interrupt);
        w.u64(self.interrupts);
        for v in [
            self.user.loads,
            self.user.stores,
            self.user.atomics,
            self.user.compute_cycles,
            self.user.io_in,
            self.user.io_out,
        ] {
            w.u64(v);
        }
        w.u64(self.stores_converted);
        w.u64(self.stores_skipped);
        w.opt(&self.watchdog_deadline, |w, &c| w.u64(c));
        w.u64(self.watchdog_gen);
        w.opt(&self.token_wait_deadline, |w, &c| w.u64(c));
    }

    fn restore_into(&mut self, r: &mut snap::Reader) -> Result<(), snap::SnapError> {
        self.timeline.restore_into(r)?;
        self.frames = r.seq(Frame::restore)?;
        self.vars = r.seq(|r| r.i64())?;
        self.status = match r.u8()? {
            0 => Status::Ready,
            1 => Status::Parked,
            2 => Status::PoolIdle,
            3 => Status::Done,
            _ => return Err(snap::SnapError::Corrupt { what: "Status" }),
        };
        self.next_wake = r.u64()?;
        self.park_class = restore_time_class(r)?;
        self.pending_class = r.opt(restore_time_class)?;
        self.singles_seen = r.usize()?;
        self.sections_seen = r.usize()?;
        self.dynloops_seen = r.usize()?;
        self.jobs_taken = r.u64()?;
        self.next_interrupt = r.u64()?;
        self.interrupts = r.u64()?;
        self.user = OpCounts {
            loads: r.u64()?,
            stores: r.u64()?,
            atomics: r.u64()?,
            compute_cycles: r.u64()?,
            io_in: r.u64()?,
            io_out: r.u64()?,
        };
        self.stores_converted = r.u64()?;
        self.stores_skipped = r.u64()?;
        self.watchdog_deadline = r.opt(|r| r.u64())?;
        self.watchdog_gen = r.u64()?;
        self.token_wait_deadline = r.opt(|r| r.u64())?;
        Ok(())
    }
}

fn snap_slip_clause(w: &mut snap::Writer, cl: &SlipstreamClause) {
    w.u8(match cl.sync {
        SlipSyncType::GlobalSync => 0,
        SlipSyncType::LocalSync => 1,
        SlipSyncType::RuntimeSync => 2,
        SlipSyncType::None => 3,
    });
    w.u64(cl.tokens);
}

fn restore_slip_clause(r: &mut snap::Reader) -> Result<SlipstreamClause, snap::SnapError> {
    let sync = match r.u8()? {
        0 => SlipSyncType::GlobalSync,
        1 => SlipSyncType::LocalSync,
        2 => SlipSyncType::RuntimeSync,
        3 => SlipSyncType::None,
        _ => {
            return Err(snap::SnapError::Corrupt {
                what: "SlipSyncType",
            })
        }
    };
    Ok(SlipstreamClause {
        sync,
        tokens: r.u64()?,
    })
}

impl<'p> Engine<'p> {
    /// Hash of everything that must match between the snapshotting engine
    /// and a restoring one: the compiled program and every configuration
    /// field that shapes simulation state. The cycle/event budgets are
    /// excluded — they only bound a run. The fault plan is excluded too
    /// (it has its own swap rule; see [`Engine::restore`]).
    fn identity_hash(&self) -> u64 {
        use std::fmt::Write as _;
        let c = &self.cfg;
        let mut s = String::new();
        let _ = write!(
            s,
            "{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{:?}",
            self.cp,
            c.machine,
            c.mode,
            c.env,
            c.policy,
            c.static_sched_cycles,
            c.dynamic_sched_cycles,
            c.io_fixed_cycles,
            c.io_cycles_per_8_bytes,
            c.recovery,
            c.os_noise,
            c.trace,
            c.mutation,
        );
        snap::fnv1a(s.as_bytes())
    }

    /// Hash of the fault plan, for the swap rule.
    fn fault_plan_hash(&self) -> u64 {
        snap::fnv1a(format!("{:?}", self.cfg.faults).as_bytes())
    }

    /// Serialize the complete mutable engine state into a versioned,
    /// checksummed snapshot. Call at a [`Engine::run_until`] boundary;
    /// a restored engine continued to completion produces results
    /// bit-identical to the uninterrupted run.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = snap::Writer::new();
        w.u64(self.identity_hash());
        w.u64(self.fault_plan_hash());
        w.seq(&self.fault_fired, |w, b| w.bool(*b));
        let (events, next_seq) = self.q.export();
        w.seq(&events, |w, &(t, s, c)| {
            w.u64(t);
            w.u64(s);
            w.usize(c.0);
        });
        w.u64(next_seq);
        self.ms.snapshot(&mut w);
        w.seq(&self.cpus, |w, c| c.snapshot(w));
        w.seq(&self.pairs, |w, p| p.snapshot(w));
        self.construct_barrier.snapshot(&mut w);
        self.region_barrier.snapshot(&mut w);
        w.seq(&self.critical_locks, |w, l| l.snapshot(w));
        self.reduction_lock.snapshot(&mut w);
        w.seq(&self.sched_locks, |w, l| l.snapshot(w));
        w.u64s(&self.sched_counter_lines);
        w.seq(&self.affinity_locks, |w, ls| {
            w.seq(ls, |w, l| l.snapshot(w))
        });
        w.u64s(&self.single_lines);
        w.u64s(&self.sections_lines);
        self.arena.snapshot(&mut w);
        w.opt(&self.global_slip, snap_slip_clause);
        match self.region_slip {
            RegionSlip::Off => w.u8(0),
            RegionSlip::On(s) => {
                w.u8(1);
                w.bool(s.global);
                w.u64(s.tokens);
            }
        }
        w.opt(&self.current_region, |w, n| w.u32(n.0));
        w.u64(self.job_gen);
        w.u64(self.job_flag);
        w.u64s(&self.alloc_next);
        w.u64(self.alloc_base_line);
        w.bool(self.master_done);
        w.u64(self.events);
        w.u64(self.sched_grabs_total);
        w.u64(self.sched_steals_total);
        self.tracer.snapshot(&mut w);
        snap::seal(SNAPSHOT_VERSION, &w.into_bytes())
    }

    /// Rebuild an engine from a snapshot taken by [`Engine::snapshot`].
    ///
    /// `cp` and `cfg` must describe the same simulation the snapshot was
    /// taken from (validated by the stored identity hash), with two
    /// allowed differences: the cycle/event budgets, and the fault plan —
    /// which may be *swapped* for a different one only while no fault of
    /// the stored plan has fired yet (so a fault-free warmup can fork
    /// into many differently-faulted continuations).
    pub fn restore(
        cp: &'p CompiledProgram,
        cfg: EngineConfig,
        bytes: &[u8],
    ) -> Result<Self, String> {
        let payload = snap::open(bytes, SNAPSHOT_VERSION).map_err(|e| format!("snapshot: {e}"))?;
        let mut eng = Engine::new(cp, cfg);
        let mut r = snap::Reader::new(payload);
        eng.restore_fields(&mut r)
            .map_err(|e| format!("snapshot: {e}"))?;
        r.expect_end().map_err(|e| format!("snapshot: {e}"))?;
        Ok(eng)
    }

    fn restore_fields(&mut self, r: &mut snap::Reader) -> Result<(), String> {
        let stored_identity = r.u64()?;
        if stored_identity != self.identity_hash() {
            return Err(
                "identity mismatch: snapshot was taken under a different program or \
                 configuration"
                    .into(),
            );
        }
        let stored_plan = r.u64()?;
        let fired = r.seq(|r| r.bool())?;
        if stored_plan == self.fault_plan_hash() {
            if fired.len() != self.fault_fired.len() {
                return Err("fault-fired ledger length mismatch".into());
            }
            self.fault_fired = fired;
        } else if fired.iter().any(|&f| f) {
            return Err(
                "cannot swap the fault plan: a fault of the stored plan already fired \
                 before the checkpoint"
                    .into(),
            );
        }
        let events = r.seq(|r| Ok((r.u64()?, r.u64()?, CpuId(r.usize()?))))?;
        let next_seq = r.u64()?;
        self.q = EventQueue::import(&events, next_seq);
        self.ms.restore_into(r)?;
        let ncpus = r.usize()?;
        if ncpus != self.cpus.len() {
            return Err("processor count mismatch".into());
        }
        for c in self.cpus.iter_mut() {
            c.restore_into(r)?;
        }
        let npairs = r.usize()?;
        if npairs != self.pairs.len() {
            return Err("pair count mismatch".into());
        }
        for p in self.pairs.iter_mut() {
            p.restore_into(r)?;
        }
        self.construct_barrier = Barrier::restore(r)?;
        self.region_barrier = Barrier::restore(r)?;
        self.critical_locks = r.seq(Lock::restore)?;
        self.reduction_lock = Lock::restore(r)?;
        self.sched_locks = r.seq(Lock::restore)?;
        self.sched_counter_lines = r.u64s()?;
        self.affinity_locks = r.seq(|r| r.seq(Lock::restore))?;
        self.single_lines = r.u64s()?;
        self.sections_lines = r.u64s()?;
        self.arena = ConstructArena::restore(r)?;
        self.global_slip = r.opt(restore_slip_clause)?;
        self.region_slip = match r.u8()? {
            0 => RegionSlip::Off,
            1 => RegionSlip::On(SlipSync {
                global: r.bool()?,
                tokens: r.u64()?,
            }),
            _ => return Err("corrupt RegionSlip".into()),
        };
        self.current_region = r.opt(|r| Ok(NodeId(r.u32()?)))?;
        self.job_gen = r.u64()?;
        self.job_flag = r.u64()?;
        self.alloc_next = r.u64s()?;
        self.alloc_base_line = r.u64()?;
        self.master_done = r.bool()?;
        self.events = r.u64()?;
        self.sched_grabs_total = r.u64()?;
        self.sched_steals_total = r.u64()?;
        self.tracer = Tracer::restore(r)?;
        Ok(())
    }
}

fn merge_ops(into: &mut OpCounts, from: &OpCounts) {
    into.loads += from.loads;
    into.stores += from.stores;
    into.atomics += from.atomics;
    into.compute_cycles += from.compute_cycles;
    into.io_in += from.io_in;
    into.io_out += from.io_out;
}
