//! Extension — affinity scheduling (the paper's Section 3.2.2 cites it
//! as the remedy for dynamic scheduling's lost cache affinity:
//! "A proposed affinity scheduling extension \[16\] attempts to achieve
//! the same result for dynamic scheduling").
//!
//! Compares static / dynamic / affinity schedules under single and
//! slipstream modes. Affinity keeps each thread on its own block across
//! iterations (data stays in its L2) and steals only to rebalance, so it
//! should recover most of static's locality while keeping dynamic's
//! balancing.

use npb_kernels::{Benchmark, CgParams};
use omp_ir::node::ScheduleSpec;
use omp_rt::mode::{ExecMode, SlipSync};
use slipstream::runner::{run_program, RunOptions};
use slipstream::{MachineConfig, TimeClass};

fn main() {
    let machine = MachineConfig::paper();
    let team = machine.num_cmps as u64;
    println!("Scheduling comparison: static vs dynamic vs affinity\n");
    for bm in [Benchmark::Cg, Benchmark::Sp] {
        let chunk = if bm == Benchmark::Cg {
            CgParams::paper().paper_dynamic_chunk(team)
        } else {
            1
        };
        println!("--- {} (chunk {}) ---", bm.name(), chunk);
        println!(
            "{:<10} {:<8} {:>12} {:>9} {:>8} {:>8}",
            "schedule", "mode", "cycles", "sched%", "grabs", "steals"
        );
        for (sname, sched) in [
            ("static", None),
            ("dynamic", Some(ScheduleSpec::dynamic(chunk))),
            ("affinity", Some(ScheduleSpec::affinity(chunk))),
        ] {
            let p = bm.build_paper(sched);
            for (mlabel, mode, sync) in [
                ("single", ExecMode::Single, None),
                ("slip-G0", ExecMode::Slipstream, Some(SlipSync::G0)),
            ] {
                let mut o = RunOptions::new(mode).with_machine(machine.clone());
                o.sync = sync;
                let r = run_program(&p, &o).expect("simulation failed");
                println!(
                    "{:<10} {:<8} {:>12} {:>8.1}% {:>8} {:>8}",
                    sname,
                    mlabel,
                    r.exec_cycles,
                    100.0 * r.r_breakdown.fraction(TimeClass::Scheduling),
                    r.raw.sched_grabs,
                    r.raw.sched_steals,
                );
            }
        }
        println!();
    }
    println!("Expected: affinity lands between static and dynamic — its own-");
    println!("block grabs are node-local (cheap) and data reuse across");
    println!("iterations survives, unlike dynamic's arbitrary reassignment.");
}
