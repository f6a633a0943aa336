//! Chrome trace-event / Perfetto JSON sink.
//!
//! Emits the "JSON Array Format" object (`{"traceEvents": [...]}`) that
//! ui.perfetto.dev and chrome://tracing both load. Layout:
//!
//! * pid 0 — "cpus": one thread per simulated CPU. Time-class spans render
//!   as "X" complete slices; engine events (tokens, barriers, decisions,
//!   faults, recoveries) as "i" instants on the owning CPU's track.
//! * pid 1 — "memory (shared L2)": one thread per CMP node; fill and
//!   fill-classification instants.
//! * pid 2 — "slipstream pairs": "C" counter tracks, one `pair<N> lead`
//!   counter per A–R pair plus `pair<N> tokens` semaphore occupancy.
//!
//! Timestamps are simulated cycles reported in the `ts` microsecond field
//! (1 cycle == 1 "µs"); wall time has no meaning inside the simulator, so
//! the scale is purely presentational.
//!
//! Every value the exporter writes is a string, a bool or an integer, so
//! [`validate_chrome_trace`] reads the document back with the workspace's
//! one JSON parser, [`omp_ir::parse_json`], which accepts integers only.

use omp_ir::{escape_json, parse_json, JsonValue};
use sim_trace::{TraceData, TraceEvent, TrackDomain};

const PID_CPUS: u32 = 0;
const PID_MEM: u32 = 1;
const PID_PAIRS: u32 = 2;

/// Render the full Chrome trace-event JSON document.
pub fn chrome_trace_json(td: &TraceData) -> String {
    let mut out = String::with_capacity(1 << 16);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;

    // -- metadata: process and thread names ------------------------------
    meta_process(&mut out, &mut first, PID_CPUS, "cpus");
    for (cpu, name) in td.cpu_names.iter().enumerate() {
        meta_thread(&mut out, &mut first, PID_CPUS, cpu as u32, name);
    }
    if td.cmp_count > 0 {
        meta_process(&mut out, &mut first, PID_MEM, "memory (shared L2)");
        for cmp in 0..td.cmp_count {
            meta_thread(
                &mut out,
                &mut first,
                PID_MEM,
                cmp as u32,
                &format!("cmp{cmp} L2"),
            );
        }
    }
    meta_process(&mut out, &mut first, PID_PAIRS, "slipstream pairs");

    // -- time-class spans per CPU ----------------------------------------
    for (cpu, spans) in td.spans.iter().enumerate() {
        for s in spans {
            sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{}}}",
                escape_json(s.class),
                PID_CPUS,
                cpu,
                s.start,
                s.end - s.start
            ));
        }
    }

    // -- instant + counter events ----------------------------------------
    for e in &td.events {
        let (pid, tid) = match e.domain {
            TrackDomain::Cpu => (PID_CPUS, e.track),
            TrackDomain::Cmp => (PID_MEM, e.track),
        };
        match &e.ev {
            TraceEvent::Lead { pair, lead } => {
                sep(&mut out, &mut first);
                out.push_str(&format!(
                    "{{\"name\":\"pair{pair} lead\",\"ph\":\"C\",\"pid\":{PID_PAIRS},\"tid\":0,\"ts\":{},\"args\":{{\"lead\":{lead}}}}}",
                    e.cycle
                ));
            }
            TraceEvent::TokenInsert { pair, count, .. }
            | TraceEvent::TokenConsume { pair, count } => {
                // The instant on the CPU track...
                sep(&mut out, &mut first);
                instant(&mut out, e.ev.name(), pid, tid, e.cycle, &args_for(&e.ev));
                // ...plus a semaphore-occupancy counter sample.
                sep(&mut out, &mut first);
                out.push_str(&format!(
                    "{{\"name\":\"pair{pair} tokens\",\"ph\":\"C\",\"pid\":{PID_PAIRS},\"tid\":0,\"ts\":{},\"args\":{{\"tokens\":{count}}}}}",
                    e.cycle
                ));
            }
            ev => {
                sep(&mut out, &mut first);
                instant(&mut out, ev.name(), pid, tid, e.cycle, &args_for(ev));
            }
        }
    }

    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
    out.push_str(&format!(
        "\"cycles\":{},\"dropped_events\":{},\"generator\":\"sim-trace\"",
        td.cycles, td.dropped
    ));
    out.push_str("}}");
    out
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

fn meta_process(out: &mut String, first: &mut bool, pid: u32, name: &str) {
    sep(out, first);
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
        escape_json(name)
    ));
}

fn meta_thread(out: &mut String, first: &mut bool, pid: u32, tid: u32, name: &str) {
    sep(out, first);
    out.push_str(&format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
        escape_json(name)
    ));
}

fn instant(out: &mut String, name: &str, pid: u32, tid: u32, ts: u64, args: &str) {
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"args\":{{{args}}}}}",
        escape_json(name)
    ));
}

/// Structured `args` payload (comma-joined `"k":v` pairs) per event kind.
fn args_for(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::MemFill {
            line,
            read_ex,
            remote,
            issue,
            complete,
        } => format!(
            "\"line\":{line},\"read_ex\":{read_ex},\"remote\":{remote},\"issue\":{issue},\"complete\":{complete}"
        ),
        TraceEvent::FillClass { line, class, complete } => {
            format!("\"line\":{line},\"class\":\"{}\",\"complete\":{complete}", escape_json(class))
        }
        TraceEvent::BarrierArrive {
            addr,
            generation,
            arrived,
            total,
        } => format!(
            "\"addr\":{addr},\"generation\":{generation},\"arrived\":{arrived},\"total\":{total}"
        ),
        TraceEvent::BarrierRelease {
            addr,
            generation,
            woken,
        } => format!("\"addr\":{addr},\"generation\":{generation},\"woken\":{woken}"),
        TraceEvent::TokenInsert {
            pair,
            seq,
            count,
            lost,
        } => format!("\"pair\":{pair},\"seq\":{seq},\"count\":{count},\"lost\":{lost}"),
        TraceEvent::TokenConsume { pair, count } => {
            format!("\"pair\":{pair},\"count\":{count}")
        }
        TraceEvent::TokenWait { pair } => format!("\"pair\":{pair}"),
        TraceEvent::DecisionPublish {
            pair,
            seq,
            kind,
            lost,
        } => format!(
            "\"pair\":{pair},\"seq\":{seq},\"kind\":\"{}\",\"lost\":{lost}",
            escape_json(kind)
        ),
        TraceEvent::DecisionConsume { pair, kind } => {
            format!("\"pair\":{pair},\"kind\":\"{}\"", escape_json(kind))
        }
        TraceEvent::Fault {
            kind,
            site,
            pair,
            seq,
        } => format!(
            "\"kind\":\"{}\",\"site\":\"{}\",\"pair\":{pair},\"seq\":{seq}",
            escape_json(kind),
            escape_json(site)
        ),
        TraceEvent::Recovery {
            pair,
            watchdog,
            timeout,
        } => {
            format!("\"pair\":{pair},\"watchdog\":{watchdog},\"timeout\":{timeout}")
        }
        TraceEvent::Demotion { pair } => format!("\"pair\":{pair}"),
        TraceEvent::Lead { pair, lead } => format!("\"pair\":{pair},\"lead\":{lead}"),
    }
}

/// What a schema check found inside an exported trace document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Entries in `traceEvents`.
    pub total_events: usize,
    /// `"X"` time-class slices.
    pub slice_events: usize,
    /// `"i"` instants.
    pub instant_events: usize,
    /// `"C"` counter samples.
    pub counter_events: usize,
    /// `thread_name` metadata on the CPU process.
    pub cpu_threads_named: usize,
    /// Instants whose name starts with `token-`.
    pub token_events: usize,
    /// Distinct `pair<N> lead` counter tracks.
    pub lead_counter_tracks: usize,
}

/// Parse `src` and verify it is well-formed Chrome trace-event JSON with
/// the track layout this exporter promises. Returns counts the callers
/// (tests, `bench --bin trace`, CI) assert against.
pub fn validate_chrome_trace(src: &str) -> Result<ValidationReport, String> {
    let doc = parse_json(src).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    let mut rep = ValidationReport {
        total_events: events.len(),
        ..Default::default()
    };
    let mut lead_tracks: Vec<String> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ctx = |f: &str| format!("event {i}: {f}");
        let name = e
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing name"))?;
        let ph = e
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing ph"))?;
        e.get("pid")
            .and_then(JsonValue::as_i64)
            .ok_or_else(|| ctx("missing pid"))?;
        e.get("tid")
            .and_then(JsonValue::as_i64)
            .ok_or_else(|| ctx("missing tid"))?;
        match ph {
            "M" => {
                if name == "thread_name"
                    && e.get("pid").and_then(JsonValue::as_i64) == Some(PID_CPUS as i64)
                {
                    rep.cpu_threads_named += 1;
                }
            }
            "X" => {
                e.get("ts")
                    .and_then(JsonValue::as_i64)
                    .ok_or_else(|| ctx("slice missing ts"))?;
                e.get("dur")
                    .and_then(JsonValue::as_i64)
                    .ok_or_else(|| ctx("slice missing dur"))?;
                rep.slice_events += 1;
            }
            "i" => {
                e.get("ts")
                    .and_then(JsonValue::as_i64)
                    .ok_or_else(|| ctx("instant missing ts"))?;
                rep.instant_events += 1;
                if name.starts_with("token-") {
                    rep.token_events += 1;
                }
            }
            "C" => {
                e.get("ts")
                    .and_then(JsonValue::as_i64)
                    .ok_or_else(|| ctx("counter missing ts"))?;
                e.get("args").ok_or_else(|| ctx("counter missing args"))?;
                rep.counter_events += 1;
                if name.ends_with(" lead") && !lead_tracks.iter().any(|n| n == name) {
                    lead_tracks.push(name.to_string());
                }
            }
            other => return Err(ctx(&format!("unknown ph {other:?}"))),
        }
    }
    rep.lead_counter_tracks = lead_tracks.len();
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_trace::{Span, TimedEvent};

    fn sample_trace() -> TraceData {
        let mut td = TraceData {
            cycles: 100,
            cpu_names: vec!["cpu0 (R)".into(), "cpu1 (A)".into()],
            cmp_count: 1,
            spans: vec![
                vec![
                    Span {
                        class: "Busy",
                        start: 0,
                        end: 40,
                    },
                    Span {
                        class: "Barrier",
                        start: 40,
                        end: 100,
                    },
                ],
                vec![Span {
                    class: "Busy",
                    start: 0,
                    end: 100,
                }],
            ],
            events: Vec::new(),
            dropped: 0,
        };
        let mk = |cycle, domain, track, seq, ev| TimedEvent {
            cycle,
            domain,
            track,
            seq,
            ev,
        };
        td.merge_events(vec![(
            vec![
                mk(
                    10,
                    TrackDomain::Cpu,
                    0,
                    0,
                    TraceEvent::TokenInsert {
                        pair: 0,
                        seq: 1,
                        count: 2,
                        lost: false,
                    },
                ),
                mk(
                    20,
                    TrackDomain::Cpu,
                    1,
                    1,
                    TraceEvent::TokenConsume { pair: 0, count: 1 },
                ),
                mk(
                    20,
                    TrackDomain::Cpu,
                    1,
                    2,
                    TraceEvent::Lead { pair: 0, lead: 1 },
                ),
                mk(
                    30,
                    TrackDomain::Cmp,
                    0,
                    3,
                    TraceEvent::FillClass {
                        line: 0x40,
                        class: "A-Timely",
                        complete: 25,
                    },
                ),
            ],
            0,
        )]);
        td
    }

    #[test]
    fn export_is_valid_and_counts_tracks() {
        let td = sample_trace();
        let out = chrome_trace_json(&td);
        let rep = validate_chrome_trace(&out).expect("valid trace");
        assert_eq!(rep.cpu_threads_named, 2);
        assert_eq!(rep.slice_events, 3);
        // 1 lead counter + 2 token counters.
        assert_eq!(rep.counter_events, 3);
        assert_eq!(rep.lead_counter_tracks, 1);
        assert_eq!(rep.token_events, 2);
        // instants: token-insert, token-consume, fill-class.
        assert_eq!(rep.instant_events, 3);
    }

    #[test]
    fn export_orders_events_by_cycle() {
        let td = sample_trace();
        let out = chrome_trace_json(&td);
        let doc = parse_json(&out).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let mut last_instant_ts = -1;
        for e in evs {
            if e.get("ph").and_then(JsonValue::as_str) == Some("i") {
                let ts = e.get("ts").and_then(JsonValue::as_i64).unwrap();
                assert!(ts >= last_instant_ts, "instants out of order");
                last_instant_ts = ts;
            }
        }
    }

    #[test]
    fn quoting_escapes_specials() {
        let name = "a\"b\\c\nd\u{1}";
        let td = TraceData {
            cpu_names: vec![name.into()],
            ..TraceData::default()
        };
        let out = chrome_trace_json(&td);
        assert!(
            out.contains(r#""args":{"name":"a\"b\\c\nd\u0001"}"#),
            "{out}"
        );
        // The escaped name reads back unchanged.
        let doc = parse_json(&out).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let thread = evs
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("thread_name"))
            .unwrap();
        let args = thread.get("args").unwrap();
        assert_eq!(args.get("name").and_then(JsonValue::as_str), Some(name));
        assert_eq!(validate_chrome_trace(&out).unwrap().cpu_threads_named, 1);
    }

    #[test]
    fn validator_rejects_floats_truncation_and_garbage() {
        let out = chrome_trace_json(&sample_trace());
        assert!(validate_chrome_trace(&out).is_ok());
        // The export is integer-only; a float anywhere is an error.
        for float in ["\"ts\":0.5", "\"ts\":1e3", "\"ts\":-0.0"] {
            let doc = out.replacen("\"ts\":0", float, 1);
            assert_ne!(doc, out);
            assert!(validate_chrome_trace(&doc).is_err(), "{float}");
        }
        for cut in [1, out.len() / 2, out.len() - 1] {
            assert!(validate_chrome_trace(&out[..cut]).is_err(), "cut at {cut}");
        }
        for garbage in [
            "",
            "null",
            "not json",
            "{}",
            "{\"traceEvents\":{}}",
            "{\"traceEvents\":[]} x",
            "{\"traceEvents\":[{\"name\":\"x\"}]}",
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"Q\",\"pid\":0,\"tid\":0}]}",
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"pid\":0,\"tid\":0}]}",
        ] {
            assert!(validate_chrome_trace(garbage).is_err(), "{garbage:?}");
        }
    }
}
