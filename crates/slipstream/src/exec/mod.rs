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
//!
//! One [`Engine`] runs a whole simulation; its `impl` is split along the
//! runtime's seams. This module holds the engine's types, construction,
//! the machine primitives, the trace helpers, the event loop
//! (`Engine::pump`) and result assembly. `interp` holds op-table
//! dispatch, construct entry, the step loop (`Engine::step_once`) and
//! compute batching; `constructs` the per-construct protocols; `pair` the
//! slipstream pair protocol (token insertion, the R→A decision handshake
//! and divergence recovery); `snapshot` the checkpoint codec.

mod constructs;
mod interp;
mod pair;
mod snapshot;

pub use snapshot::SNAPSHOT_VERSION;
pub(crate) use snapshot::UNTRACED;

use crate::compile::{CompiledProgram, DynExpr, NodeId};
use crate::faults::{FaultEvent, FaultPlan, FaultSite, PairLedger};
use crate::pairing::PairState;
use crate::policy::{AStreamPolicy, RecoveryPolicy};
use dsm_sim::{
    AccessKind, Addr, AddressMap, Barrier, CmpId, CpuId, CpuTimeline, Cycle, EventQueue, Lock,
    MachineConfig, MemSystem, SplitMix64, StreamRole, TimeClass,
};
use omp_ir::expr::{EvalCtx, Expr, VarId};
use omp_ir::node::{ArrayId, SlipstreamClause};
use omp_ir::trace::OpCounts;
use omp_ir::wsloop::Chunk;
use omp_rt::constructs::ConstructArena;
use omp_rt::mode::{ExecMode, RegionSlip, SlipSync};
use omp_rt::schedule::ResolvedSchedule;
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

/// Hard cap on scheduler events processed (runaway-simulation guard).
const MAX_EVENTS: u64 = 2_000_000_000;

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
    /// Divergence detection and recovery knobs (watchdog, retry budget,
    /// token-wait timeout).
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
            recovery: RecoveryPolicy::paper(),
            faults: FaultPlan::none(),
            os_noise: None,
            trace: TraceConfig::OFF,
            max_cycles: 50_000_000_000,
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

/// One encounter of a dynamic, guided or affinity loop: what every stage
/// of its protocol reads.
#[derive(Debug, Clone, Copy)]
struct DynLoop {
    /// The `ParFor` node.
    node: NodeId,
    /// Encounter index in the region (keys the scheduler state and locks).
    enc: usize,
    sched: ResolvedSchedule,
    /// Iteration space `[lo, hi)`.
    lo: i64,
    hi: i64,
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
    },
    /// Dynamic/guided/affinity worksharing protocol.
    DynP {
        lp: DynLoop,
        stage: u8,
    },
    CritP {
        lock: usize,
        body: NodeId,
        stage: u8,
    },
    /// Reduction combine of the `ParFor` at `node`: lock, load, op,
    /// store, unlock.
    RedP {
        node: NodeId,
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
    fn tables(&self) -> &[Vec<i64>] {
        self.tables
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
                c.next_interrupt = SplitMix64::new(noise.seed ^ (i as u64).wrapping_mul(0x9E37))
                    .next_u64()
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

    fn get_sched_lock(&mut self, enc: usize) {
        while self.sched_locks.len() <= enc {
            let home = CmpId(self.sched_locks.len() % self.cfg.machine.num_cmps);
            let addr = self.alloc_line(home);
            self.sched_locks.push(Lock::new(addr));
            // The scheduler counter shares the lock's line (`dyn_step`),
            // but a counter line is still allocated beside it: every later
            // runtime line's address depends on it.
            self.alloc_line(home);
        }
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

    /// Evaluate `CompiledProgram::exprs[x]`, the operand of a `*Dyn` op:
    /// a closed form inline, a tree by walking it.
    #[inline]
    fn eval_dyn(&self, ci: usize, x: u32) -> i64 {
        match &self.cp.exprs[x as usize] {
            DynExpr::Affine(a) => a.eval(&self.cpus[ci].vars),
            DynExpr::Tree(e) => self.eval(ci, e),
        }
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
                if let Some(pair) = self.pairs.get_mut(tid as usize) {
                    pair.ledger.faults_injected += 1;
                }
                self.trace(ci, |_| TraceEvent::Fault {
                    kind: e.kind.label(),
                    site: site.label(),
                    pair: tid as u32,
                    seq,
                });
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

    // ---------------------------------------------------------- tracing --

    /// Record the event `ev` builds on `ci`'s track at `ci`'s current
    /// time. `ev` runs only when tracing is on.
    fn trace(&mut self, ci: usize, ev: impl FnOnce(&Self) -> TraceEvent) {
        if self.tracer.is_on() {
            let t = self.cpus[ci].timeline.now();
            self.trace_at(t, ci, ev);
        }
    }

    /// Record the event `ev` builds on processor `track`'s track at cycle
    /// `t`. `ev` runs only when tracing is on.
    fn trace_at(&mut self, t: Cycle, track: usize, ev: impl FnOnce(&Self) -> TraceEvent) {
        if self.tracer.is_on() {
            let ev = ev(self);
            self.tracer.record(t, track as u32, ev);
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
            // Pops come out in time order (`set_floor` asserts it) and a
            // CPU runs from its wake time on, so no later access starts
            // before `t`.
            self.ms.set_floor(t);
            self.events += 1;
            if self.events > MAX_EVENTS {
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
    /// (via [`Engine::run_until`] returning true). Errors if the program
    /// has not finished — either the caller stopped early or the queue
    /// drained in deadlock.
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
                    user_a.merge(&c.user);
                    stores_converted += c.stores_converted;
                    stores_skipped += c.stores_skipped;
                }
                _ if c.assign != CpuAssignment::Idle => {
                    r_breakdown.merge(&c.timeline.stats.time);
                    user_r.merge(&c.user);
                }
                _ => {}
            }
        }
        let pair_ledgers: Vec<PairLedger> = self.pairs.iter().map(|p| p.ledger.clone()).collect();
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
            recoveries: pair_ledgers.iter().map(|l| l.recoveries).sum(),
            watchdog_recoveries: pair_ledgers.iter().map(|l| l.watchdog_recoveries).sum(),
            timeout_recoveries: pair_ledgers.iter().map(|l| l.timeout_recoveries).sum(),
            demotions: pair_ledgers.iter().filter(|l| l.demoted()).count() as u64,
            pair_ledgers,
            stores_converted,
            stores_skipped,
            machine,
            events: self.events,
            trace,
        }
    }
}
