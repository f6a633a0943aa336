//! Experiment harness shared by the figure/table binaries and the
//! timing benches.
//!
//! Each function regenerates the data behind one piece of the paper's
//! evaluation (Section 5). Runs for different modes are independent
//! simulations, so the suite executes them on host threads in parallel;
//! each simulation itself is deterministic and single-threaded.

#![warn(missing_docs)]

pub mod env;
pub mod pool;

use npb_kernels::{Benchmark, CgParams, Grid3};
use omp_ir::expr::Expr;
use omp_ir::node::{Node, Program, ScheduleSpec, SlipSyncType, SlipstreamClause};
use omp_ir::{escape_json, BlockBuilder, ProgramBuilder};
use omp_rt::mode::{ExecMode, SlipSync};
use omp_rt::RuntimeEnv;
use slipstream::runner::{run_program, RunOptions, RunSummary};
use slipstream::MachineConfig;

/// The modes of the static-scheduling comparison (Figure 2), in the
/// paper's order.
pub const STATIC_MODES: [(&str, ExecMode, Option<SlipSync>); 4] = [
    ("single", ExecMode::Single, None),
    ("double", ExecMode::Double, None),
    ("slip-L1", ExecMode::Slipstream, Some(SlipSync::L1)),
    ("slip-G0", ExecMode::Slipstream, Some(SlipSync::G0)),
];

/// The modes of the dynamic-scheduling comparison (Figure 4): the paper
/// compares against one task per CMP only, with zero-token global
/// synchronization for slipstream.
pub const DYNAMIC_MODES: [(&str, ExecMode, Option<SlipSync>); 2] = [
    ("single", ExecMode::Single, None),
    ("slip-G0", ExecMode::Slipstream, Some(SlipSync::G0)),
];

/// A record of one run (what the figures plot), serializable to JSON.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Benchmark name.
    pub benchmark: String,
    /// Mode label.
    pub mode: String,
    /// Execution cycles.
    pub cycles: u64,
    /// Speedup vs the suite's single-mode run of the same benchmark.
    pub speedup_vs_single: f64,
    /// Time-breakdown fractions over R/solo streams, by class label.
    pub breakdown: Vec<(String, f64)>,
    /// Shared-read fill fractions by class label.
    pub read_fills: Vec<(String, f64)>,
    /// Shared read-exclusive fill fractions by class label.
    pub readex_fills: Vec<(String, f64)>,
    /// A-stream store conversions.
    pub stores_converted: u64,
    /// Dynamic-scheduler chunk grabs.
    pub sched_grabs: u64,
}

fn json_pairs(pairs: &[(String, f64)]) -> String {
    let items: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("[\"{}\",{}]", escape_json(k), v))
        .collect();
    format!("[{}]", items.join(","))
}

impl RunRecord {
    /// Serialize to a JSON object (the workspace carries no serde
    /// dependency; records are flat enough to emit by hand).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"benchmark\":\"{}\",\"mode\":\"{}\",\"cycles\":{},\
             \"speedup_vs_single\":{},\"breakdown\":{},\"read_fills\":{},\
             \"readex_fills\":{},\"stores_converted\":{},\"sched_grabs\":{}}}",
            escape_json(&self.benchmark),
            escape_json(&self.mode),
            self.cycles,
            self.speedup_vs_single,
            json_pairs(&self.breakdown),
            json_pairs(&self.read_fills),
            json_pairs(&self.readex_fills),
            self.stores_converted,
            self.sched_grabs,
        )
    }

    /// Serialize a list of records to a JSON array.
    pub fn to_json_array(records: &[RunRecord]) -> String {
        let items: Vec<String> = records.iter().map(|r| r.to_json()).collect();
        format!("[{}]", items.join(",\n"))
    }

    /// Build a record from a summary (speedup filled in by the caller).
    pub fn from_summary(s: &RunSummary, speedup: f64) -> Self {
        use dsm_sim::{ReqKind, TimeClass, FILL_CLASSES};
        let classes = [
            TimeClass::Busy,
            TimeClass::MemStall,
            TimeClass::Lock,
            TimeClass::Barrier,
            TimeClass::Scheduling,
            TimeClass::JobWait,
        ];
        RunRecord {
            benchmark: s.name.clone(),
            mode: s.label.clone(),
            cycles: s.exec_cycles,
            speedup_vs_single: speedup,
            breakdown: classes
                .iter()
                .map(|c| (c.label().to_string(), s.r_breakdown.fraction(*c)))
                .collect(),
            read_fills: FILL_CLASSES
                .iter()
                .map(|c| (c.label().to_string(), s.fills.fraction(ReqKind::Read, *c)))
                .collect(),
            readex_fills: FILL_CLASSES
                .iter()
                .map(|c| (c.label().to_string(), s.fills.fraction(ReqKind::ReadEx, *c)))
                .collect(),
            stores_converted: s.raw.stores_converted,
            sched_grabs: s.raw.sched_grabs,
        }
    }
}

/// Build the program a benchmark uses in the dynamic experiment: CG with
/// a chunk of half its static block (as the paper specifies), everything
/// else with the compiler-default dynamic chunk.
pub fn dynamic_program(bm: Benchmark, team: u64) -> Program {
    let sched = if bm == Benchmark::Cg {
        Some(ScheduleSpec::dynamic(
            CgParams::paper().paper_dynamic_chunk(team),
        ))
    } else {
        Some(ScheduleSpec::dynamic(1))
    };
    bm.build_paper(sched)
}

fn run_one(
    program: &Program,
    machine: MachineConfig,
    mode: ExecMode,
    sync: Option<SlipSync>,
) -> RunSummary {
    let mut o = RunOptions::new(mode).with_machine(machine);
    o.sync = sync;
    o.env = RuntimeEnv::default();
    run_program(program, &o).expect("simulation failed")
}

/// Run one benchmark under a list of modes on the bounded worker pool.
/// Returns the summaries in mode order.
pub fn run_modes(
    program: &Program,
    machine: &MachineConfig,
    modes: &[(&str, ExecMode, Option<SlipSync>)],
) -> Vec<RunSummary> {
    type Task<'s> = Box<dyn FnOnce() -> RunSummary + Send + 's>;
    let tasks: Vec<Task> = modes
        .iter()
        .map(|&(_, mode, sync)| {
            let machine = machine.clone();
            Box::new(move || run_one(program, machine, mode, sync)) as Task
        })
        .collect();
    pool::run_all(tasks)
}

/// Run every (benchmark, mode) pair as one flat task list on the
/// bounded worker pool, regrouping the results per benchmark. Flat
/// scheduling load-balances across the whole suite instead of nesting a
/// per-mode scope inside a per-benchmark scope (which spawned
/// benchmarks × modes threads at once).
fn run_suite(
    machine: &MachineConfig,
    programs: &[(Benchmark, Program)],
    modes: &[(&str, ExecMode, Option<SlipSync>)],
) -> Vec<(Benchmark, Vec<RunSummary>)> {
    type Task<'s> = Box<dyn FnOnce() -> RunSummary + Send + 's>;
    let mut tasks: Vec<Task> = Vec::with_capacity(programs.len() * modes.len());
    for (_, program) in programs {
        for &(_, mode, sync) in modes {
            let machine = machine.clone();
            tasks.push(Box::new(move || run_one(program, machine, mode, sync)));
        }
    }
    let mut flat = pool::run_all(tasks).into_iter();
    programs
        .iter()
        .map(|(bm, _)| (*bm, flat.by_ref().take(modes.len()).collect()))
        .collect()
}

/// Run the full static-scheduling suite (Figures 2 and 3): every
/// benchmark under the four static modes.
pub fn static_suite(machine: &MachineConfig) -> Vec<(Benchmark, Vec<RunSummary>)> {
    let programs: Vec<(Benchmark, Program)> = Benchmark::ALL
        .iter()
        .map(|bm| (*bm, bm.build_paper(None)))
        .collect();
    run_suite(machine, &programs, &STATIC_MODES)
}

/// Run the dynamic-scheduling suite (Figures 4 and 5): BT, CG, MG, SP
/// (LU is excluded, as in the paper) under single and slip-G0.
pub fn dynamic_suite(machine: &MachineConfig) -> Vec<(Benchmark, Vec<RunSummary>)> {
    let programs: Vec<(Benchmark, Program)> = Benchmark::ALL
        .iter()
        .filter(|bm| bm.in_dynamic_experiment())
        .map(|bm| (*bm, dynamic_program(*bm, machine.num_cmps as u64)))
        .collect();
    run_suite(machine, &programs, &DYNAMIC_MODES)
}

/// Records for a suite, with speedups normalized to each benchmark's
/// single-mode run (the paper's normalization).
pub fn to_records(suite: &[(Benchmark, Vec<RunSummary>)]) -> Vec<RunRecord> {
    let mut out = Vec::new();
    for (_, rows) in suite {
        let base = rows[0].exec_cycles;
        for r in rows {
            out.push(RunRecord::from_summary(
                r,
                base as f64 / r.exec_cycles as f64,
            ));
        }
    }
    out
}

/// The "best slipstream vs best(single, double)" headline number of the
/// paper's Section 5.1, per benchmark.
pub fn best_slip_gain(rows: &[RunSummary]) -> f64 {
    let best_base = rows
        .iter()
        .filter(|r| !r.label.starts_with("slip"))
        .map(|r| r.exec_cycles)
        .min()
        .expect("baseline modes present");
    let best_slip = rows
        .iter()
        .filter(|r| r.label.starts_with("slip"))
        .map(|r| r.exec_cycles)
        .min()
        .expect("slipstream modes present");
    best_base as f64 / best_slip as f64 - 1.0
}

/// Canonical fingerprint of everything a run reports — the workspace-wide
/// bit-identity contract now lives in [`slipstream::stats_fingerprint`]
/// (the fuzzer needs it without depending on this crate); this re-export
/// keeps the historical bench-side name working.
pub fn summary_fingerprint(s: &RunSummary) -> String {
    slipstream::stats_fingerprint(s)
}

/// FNV-1a hash of a canonical configuration string, used to stamp
/// benchmark output rows so perf-trajectory scripts can detect when two
/// rows were produced under different configurations (machine, preset,
/// mode, tracing) and refuse to compare them.
pub fn config_hash(canonical: &str) -> u64 {
    dsm_sim::fnv1a(canonical.as_bytes())
}

/// The canonical configuration string hashed into throughput rows: every
/// knob that changes what a row measures.
pub fn throughput_config_string(
    machine: &MachineConfig,
    preset: &str,
    benchmark: &str,
    mode: &str,
    trace: bool,
) -> String {
    format!(
        "v1|cmps={}|cpus={}|l2b={}|preset={preset}|bm={benchmark}|mode={mode}|trace={trace}",
        machine.num_cmps, machine.cpus_per_cmp, machine.l2.size_bytes,
    )
}

/// The static-analyzer sweep corpus: every NPB kernel (tiny + paper
/// presets, plus dynamic/guided scheduling variants for the kernels in
/// the dynamic experiment) and every example-analogue program, swept by
/// the `analyze` binary and pinned by the `analyzer_parity` test.
pub fn analysis_corpus() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for bm in Benchmark::ALL {
        out.push((format!("{}-tiny", bm.name()), bm.build_tiny()));
        out.push((format!("{}-paper", bm.name()), bm.build_paper(None)));
        if bm.in_dynamic_experiment() {
            out.push((
                format!("{}-dyn2", bm.name()),
                bm.build_tiny_sched(ScheduleSpec::dynamic(2)),
            ));
            out.push((
                format!("{}-guided", bm.name()),
                bm.build_tiny_sched(ScheduleSpec::guided()),
            ));
        }
    }
    for p in example_programs() {
        out.push((format!("example-{}", p.name), p));
    }
    out
}

/// A fast machine/workload pair for timing runs and smoke tests: the
/// paper machine shrunk to 4 CMPs with the tiny workload presets.
pub fn small_machine() -> MachineConfig {
    let mut m = MachineConfig::paper();
    m.num_cmps = 4;
    m
}

/// A plane-parallel ping-pong stencil sweep between two fields — the
/// program `examples/quickstart.rs` and `examples/heat_diffusion.rs`
/// build (ghost-plane exchange between slab neighbours every phase).
fn ping_pong_stencil(name: &str, n: i64, steps: i64, clause: Option<SlipstreamClause>) -> Program {
    let g = Grid3::cube(n);
    let mut pb = ProgramBuilder::new(name);
    let t0 = pb.shared_array("t0", g.len() as u64, 8);
    let t1 = pb.shared_array("t1", g.len() as u64, 8);
    let s = pb.var();
    let q = pb.var();
    let i = pb.var();
    if let Some(c) = clause {
        pb.slipstream(c);
    }
    pb.parallel(move |region| {
        region.push(Node::For {
            var: s,
            begin: Expr::c(0),
            end: Expr::c(steps),
            step: 1,
            body: Box::new({
                let mut blk = BlockBuilder::default();
                for (src, dst) in [(t0, t1), (t1, t0)] {
                    blk.par_for(None, q, 0, g.nz, move |plane| {
                        plane.for_loop(
                            i,
                            Expr::v(q) * g.dz(),
                            (Expr::v(q) + 1) * g.dz(),
                            move |cell| {
                                cell.load(src, Expr::v(i));
                                for off in g.stencil7_offsets() {
                                    cell.load(src, g.nbr(Expr::v(i), off));
                                }
                                cell.compute(16);
                                cell.store(dst, Expr::v(i));
                            },
                        );
                    });
                }
                blk.into_node()
            }),
        });
    });
    pb.build()
}

/// The programs the repository's `examples/` binaries build, mirrored
/// here so the analyze CLI (and its clean-corpus test) can sweep them:
/// the quickstart Jacobi sweep, the heat-diffusion variant with a
/// `RUNTIME_SYNC` slipstream directive, the sparse solver's
/// dynamically-scheduled CG, and the token-trace phase toy.
pub fn example_programs() -> Vec<Program> {
    let heat_clause = SlipstreamClause {
        sync: SlipSyncType::RuntimeSync,
        tokens: 0,
    };
    let sparse = CgParams {
        n: 640,
        min_nnz: 4,
        max_nnz: 40,
        iters: 2,
        compute_per_nnz: 6,
        seed: 0xD1CE,
        sched: Some(ScheduleSpec::dynamic(
            CgParams::paper().paper_dynamic_chunk(16),
        )),
    }
    .build();
    let toy = {
        let n: i64 = 16 * 512;
        let mut pb = ProgramBuilder::new("token-toy");
        let a = pb.shared_array("a", n as u64, 8);
        let ph = pb.var();
        let i = pb.var();
        pb.parallel(move |region| {
            region.push(Node::For {
                var: ph,
                begin: Expr::c(0),
                end: Expr::c(8),
                step: 1,
                body: Box::new({
                    let mut blk = BlockBuilder::default();
                    blk.par_for(None, i, 0, n, move |body| {
                        body.load(a, Expr::v(i));
                        body.compute(12);
                        body.store(a, Expr::v(i));
                    });
                    blk.into_node()
                }),
            });
        });
        pb.build()
    };
    vec![
        ping_pong_stencil("quickstart", 20, 4, None),
        ping_pong_stencil("heat3d", 24, 4, Some(heat_clause)),
        sparse,
        toy,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_modes_produces_all_rows() {
        let p = Benchmark::Cg.build_tiny();
        let rows = run_modes(&p, &small_machine(), &STATIC_MODES);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].label, "single");
        assert_eq!(rows[3].label, "slip-G0");
        let gain = best_slip_gain(&rows);
        assert!(gain.is_finite());
    }

    #[test]
    fn records_normalize_to_single() {
        let p = Benchmark::Mg.build_tiny();
        let rows = run_modes(&p, &small_machine(), &DYNAMIC_MODES);
        let suite = vec![(Benchmark::Mg, rows)];
        let recs = to_records(&suite);
        assert_eq!(recs.len(), 2);
        assert!((recs[0].speedup_vs_single - 1.0).abs() < 1e-12);
        assert!(recs[1].speedup_vs_single > 0.0);
        // Serializes cleanly.
        let js = RunRecord::to_json_array(&recs);
        assert!(js.contains("slip-G0"));
    }

    #[test]
    fn config_hash_is_stable_and_discriminating() {
        // FNV-1a reference vector.
        assert_eq!(config_hash(""), 0xcbf2_9ce4_8422_2325);
        let m = small_machine();
        let a = throughput_config_string(&m, "tiny", "cg", "single", false);
        let b = throughput_config_string(&m, "tiny", "cg", "single", true);
        let c = throughput_config_string(&m, "paper", "cg", "single", false);
        assert_eq!(config_hash(&a), config_hash(&a));
        assert_ne!(config_hash(&a), config_hash(&b), "trace flag changes hash");
        assert_ne!(config_hash(&a), config_hash(&c), "preset changes hash");
    }

    #[test]
    fn example_programs_analyze_clean() {
        let cfg = omp_analyze::AnalyzeConfig::paper();
        let programs = example_programs();
        assert_eq!(programs.len(), 4);
        for p in programs {
            let r = omp_analyze::analyze(&p, &cfg);
            assert!(
                r.is_clean(),
                "{} should analyze clean:\n{}",
                p.name,
                r.render_text()
            );
        }
    }

    #[test]
    fn npb_kernels_round_trip_through_program_json() {
        for bm in Benchmark::ALL {
            for p in [
                bm.build_tiny(),
                bm.build_paper(None),
                dynamic_program(bm, 16),
            ] {
                let json = omp_ir::program_to_json(&p);
                let back = omp_ir::program_from_json(&json)
                    .unwrap_or_else(|e| panic!("{} ({}): {e}", bm.name(), p.name));
                assert_eq!(back, p, "{} ({}) changed in transit", bm.name(), p.name);
                assert_eq!(omp_ir::program_to_json(&back), json);
            }
        }
    }

    #[test]
    fn dynamic_program_uses_cg_half_block_chunk() {
        let p = dynamic_program(Benchmark::Cg, 16);
        let txt = format!("{:?}", p.body);
        assert!(txt.contains("Dynamic"));
        assert!(txt.contains("chunk: Some(16)"));
        let p2 = dynamic_program(Benchmark::Sp, 16);
        let txt2 = format!("{:?}", p2.body);
        assert!(txt2.contains("chunk: Some(1)"));
    }
}
