//! `omp-analyze` sweep: run the slipstream-safety static analyzer over
//! every NPB kernel (tiny + paper presets, plus the dynamic/guided
//! scheduling variants) and every example-analogue program.
//!
//! Prints a per-program table, writes the machine-readable JSON reports
//! to `$ANALYZE_OUT` when set, and exits non-zero if any program has a
//! deny-severity finding — the contract the CI `analyze` job enforces.
//!
//! Environment:
//! * `ANALYZE_OUT` — path for the JSON report array.
//! * `ANALYZE_THREADS` — override the modelled team size (default 16).
//! * `ANALYZE_BUDGET` — override the node-visit budget.

use bench::analysis_corpus;
use omp_analyze::AnalyzeConfig;

fn main() {
    let mut cfg = AnalyzeConfig::paper();
    if let Some(t) = bench::env::get::<u64>("ANALYZE_THREADS") {
        cfg = cfg.with_threads(t);
    }
    if let Some(b) = bench::env::get::<u64>("ANALYZE_BUDGET") {
        cfg = cfg.with_budget(b);
    }
    println!(
        "slipstream-safety analysis: {} threads, {} L2 lines/node\n",
        cfg.num_threads, cfg.l2_lines
    );
    println!(
        "{:<18} {:>7} {:>5} {:>5} {:>5} {:>6} {:>9}  status",
        "program", "regions", "deny", "warn", "info", "lead", "visits"
    );

    let mut json_items = Vec::new();
    let mut total_denies = 0u64;
    for (label, program) in analysis_corpus() {
        let r = omp_analyze::analyze(&program, &cfg);
        let lead = r.regions.iter().map(|g| g.lead_phases).max().unwrap_or(0);
        let status = if r.truncated {
            "TRUNCATED"
        } else if r.deny_count() > 0 {
            "DENY"
        } else if !r.findings.is_empty() {
            "warn"
        } else {
            "clean"
        };
        println!(
            "{:<18} {:>7} {:>5} {:>5} {:>5} {:>6} {:>9}  {}",
            label,
            r.regions.len(),
            r.deny_count(),
            r.warn_count(),
            r.info_count(),
            lead,
            r.visits,
            status
        );
        for f in &r.findings {
            println!("    {f}");
        }
        total_denies += r.deny_count() as u64;
        json_items.push(format!(
            "{{\"program\":\"{label}\",\"report\":{}}}",
            r.to_json()
        ));
    }

    if let Some(path) = bench::env::string("ANALYZE_OUT") {
        std::fs::write(&path, format!("[{}]\n", json_items.join(",\n")))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote JSON reports to {path}");
    }

    if total_denies > 0 {
        eprintln!("\n{total_denies} deny-severity finding(s)");
        std::process::exit(1);
    }
    println!("\nall programs clean of deny-severity findings");
}
