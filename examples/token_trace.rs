//! Figure 1 illustration: the token-based A–R synchronization protocol,
//! including divergence detection and recovery.
//!
//! Runs a barrier-dense toy kernel under several synchronizations and
//! reports token traffic and the A-stream wait profile, then injects a
//! divergence fault and shows the recovery path. The faulted run executes
//! with the structured event tracer on and writes `token_trace.trace.json`
//! — a Chrome trace-event file with per-CPU timeline tracks and per-pair
//! token/lead counter tracks, openable in <https://ui.perfetto.dev>.
//!
//! ```sh
//! cargo run --release --example token_trace
//! ```

use slipstream_openmp::prelude::*;

fn toy(phases: i64, work: i64) -> omp_ir::Program {
    let n: i64 = 16 * 512;
    let mut pb = ProgramBuilder::new("token-toy");
    let a = pb.shared_array("a", n as u64, 8);
    let ph = pb.var();
    let i = pb.var();
    pb.parallel(move |region| {
        region.push(omp_ir::node::Node::For {
            var: ph,
            begin: Expr::c(0),
            end: Expr::c(phases),
            step: 1,
            body: Box::new({
                let mut blk = omp_ir::BlockBuilder::default();
                blk.par_for(None, i, 0, n, move |body| {
                    body.load(a, Expr::v(i));
                    body.compute(work);
                    body.store(a, Expr::v(i));
                });
                blk.into_node()
            }),
        });
    });
    pb.build()
}

fn main() {
    let program = toy(8, 12);
    let machine = MachineConfig::paper();

    println!("token protocol sweep (8 barrier phases):\n");
    println!(
        "{:<8} {:>12} {:>14} {:>12}",
        "sync", "cycles", "A-wait cycles", "A busy+mem"
    );
    for (global, tokens) in [(true, 0), (true, 1), (false, 0), (false, 1), (false, 2)] {
        let sync = SlipSync { global, tokens };
        let mut o = RunOptions::new(ExecMode::Slipstream).with_machine(machine.clone());
        o.sync = Some(sync);
        let r = run_program(&program, &o).unwrap();
        println!(
            "{:<8} {:>12} {:>14} {:>12}",
            sync.label(),
            r.exec_cycles,
            r.a_breakdown.get(TimeClass::AStreamWait),
            r.a_breakdown.get(TimeClass::Busy) + r.a_breakdown.get(TimeClass::MemStall),
        );
    }
    println!();
    println!("Local insertion / more tokens => the A-stream waits less and");
    println!("runs further ahead; zero-token global keeps it tightly coupled.");

    // Divergence: the A-stream of pair 3 wanders off at its 4th barrier.
    // Run it with the event tracer on: the recovery episode, every token
    // insert/consume, and the per-pair lead all land in the trace.
    let mut o = RunOptions::new(ExecMode::Slipstream)
        .with_machine(machine)
        .with_trace(TraceConfig::on())
        .with_faults(FaultPlan::wander_at(3, 3));
    o.sync = Some(SlipSync::G0);
    let r = run_program(&program, &o).unwrap();
    println!(
        "\nwith an injected divergence on pair 3 at epoch 3:\n  recoveries performed: {}\n  recovery cycles charged: {}\n  run still completes with correct R-side work: {} loads",
        r.raw.recoveries,
        r.a_breakdown.get(TimeClass::Recovery),
        r.raw.user_r.loads,
    );

    let td = r.raw.trace.as_ref().expect("tracing was on");
    println!("\n{}", analyze(td).render());
    let json = chrome_trace_json(td);
    validate_chrome_trace(&json).expect("emitted trace is valid");
    std::fs::write("token_trace.trace.json", &json).expect("write trace");
    println!(
        "wrote token_trace.trace.json ({} events, {} spans) — open it in https://ui.perfetto.dev",
        td.events.len(),
        td.spans.iter().map(|s| s.len()).sum::<usize>()
    );
}
