//! Run the complete evaluation (Figures 2–5) and write machine-readable
//! results to `target/experiments.json`, plus a Markdown summary to
//! stdout (the source for EXPERIMENTS.md's measured columns).

use bench::{best_slip_gain, dynamic_suite, static_suite, to_records, RunRecord};
use dsm_sim::{FillClass, ReqKind, TimeClass};
use slipstream::MachineConfig;

fn main() {
    let t0 = std::time::Instant::now();
    let machine = MachineConfig::paper();
    let stat = static_suite(&machine);
    let dynm = dynamic_suite(&machine);

    // JSON dump.
    let mut records = to_records(&stat);
    records.extend(to_records(&dynm));
    let json = RunRecord::to_json_array(&records);
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/experiments.json", &json).expect("write json");

    // Markdown summary.
    println!("## Figure 2 — static scheduling (speedup over single mode)\n");
    println!("| bench | single | double | slip-L1 | slip-G0 | best-slip gain |");
    println!("|---|---|---|---|---|---|");
    for (bm, rows) in &stat {
        let base = rows[0].exec_cycles as f64;
        print!("| {} ", bm.name());
        for r in rows {
            print!("| {:.3} ", base / r.exec_cycles as f64);
        }
        println!("| {:+.1}% |", 100.0 * best_slip_gain(rows));
    }
    let avg: f64 = stat.iter().map(|(_, r)| best_slip_gain(r)).sum::<f64>() / stat.len() as f64;
    println!(
        "\naverage best-slipstream gain: **{:+.1}%** (paper: ~13.5%)\n",
        100.0 * avg
    );

    println!("## Figure 3 — A-stream read classification, static (L1 / G0)\n");
    println!("| bench | sync | A-timely | A-late | A-only | rd-ex coverage |");
    println!("|---|---|---|---|---|---|");
    for (bm, rows) in &stat {
        for r in &rows[2..4] {
            println!(
                "| {} | {} | {:.0}% | {:.0}% | {:.0}% | {:.0}% |",
                bm.name(),
                r.label.trim_start_matches("slip-"),
                100.0 * r.fills.fraction(ReqKind::Read, FillClass::ATimely),
                100.0 * r.fills.fraction(ReqKind::Read, FillClass::ALate),
                100.0 * r.fills.fraction(ReqKind::Read, FillClass::AOnly),
                100.0 * r.fills.a_coverage(ReqKind::ReadEx),
            );
        }
    }

    println!("\n## Figure 4 — dynamic scheduling (base vs slip-G0)\n");
    println!("| bench | base sched% | slip gain |");
    println!("|---|---|---|");
    let mut dgain = 0.0;
    for (bm, rows) in &dynm {
        let g = rows[0].exec_cycles as f64 / rows[1].exec_cycles as f64 - 1.0;
        dgain += g;
        println!(
            "| {} | {:.1}% | {:+.1}% |",
            bm.name(),
            100.0 * rows[0].r_breakdown.fraction(TimeClass::Scheduling),
            100.0 * g
        );
    }
    println!(
        "\naverage dynamic gain: **{:+.1}%** (paper: ~12%)\n",
        100.0 * dgain / dynm.len() as f64
    );

    println!("## Figure 5 — A-stream classification, dynamic (G0)\n");
    println!("| bench | read A-timely | read A-late | rd-ex A-timely | rd-ex A-late |");
    println!("|---|---|---|---|---|");
    for (bm, rows) in &dynm {
        let f = &rows[1].fills;
        println!(
            "| {} | {:.0}% | {:.0}% | {:.0}% | {:.0}% |",
            bm.name(),
            100.0 * f.fraction(ReqKind::Read, FillClass::ATimely),
            100.0 * f.fraction(ReqKind::Read, FillClass::ALate),
            100.0 * f.fraction(ReqKind::ReadEx, FillClass::ATimely),
            100.0 * f.fraction(ReqKind::ReadEx, FillClass::ALate),
        );
    }
    eprintln!(
        "\nwrote target/experiments.json ({} records) in {:?}",
        records.len(),
        t0.elapsed()
    );
}
