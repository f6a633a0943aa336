//! Figure 2 — static scheduling: speedup of slipstream (L1, G0) and
//! double mode over single mode, with the execution-time breakdown.
//!
//! Run with `--machine-cmps N` to change the machine size (default 16).

use bench::{best_slip_gain, static_suite};
use slipstream::report::breakdown_table;
use slipstream::MachineConfig;

fn main() {
    let mut machine = MachineConfig::paper();
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--machine-cmps") {
        match args.get(i + 1).map(|v| v.parse::<usize>()) {
            Some(Ok(n)) if n > 0 => machine.num_cmps = n,
            _ => {
                eprintln!("fig2: --machine-cmps needs a positive integer");
                std::process::exit(2);
            }
        }
    }
    println!(
        "Figure 2: static scheduling on {} CMPs — speedup over single mode\n",
        machine.num_cmps
    );
    let t0 = std::time::Instant::now();
    let suite = static_suite(&machine);
    let mut gains = Vec::new();
    for (bm, rows) in &suite {
        println!("--- {} ---", bm.name());
        println!("{}", breakdown_table(rows));
        let g = best_slip_gain(rows);
        gains.push(g);
        println!(
            "best slipstream vs best(single, double): {:+.1}%\n",
            100.0 * g
        );
    }
    let avg = gains.iter().sum::<f64>() / gains.len() as f64;
    println!("==========================================================");
    if machine.num_cmps == 16 {
        println!(
            "average best-slipstream gain: {:+.1}%  (paper: ~13.5% avg, 5%..20%)",
            100.0 * avg
        );
    } else {
        println!(
            "average best-slipstream gain: {:+.1}%  (paper comparison applies at 16 CMPs)",
            100.0 * avg
        );
    }
    println!("(simulated {} runs in {:?})", suite.len() * 4, t0.elapsed());
}
