//! Program serialization: a stable JSON encoding of [`Program`] trees.
//!
//! The fuzzing harness needs to persist minimized failure repros as
//! artifacts that replay from disk alone, so the IR gets a first-class
//! round-trippable encoding here, written by hand and read back through
//! [`crate::json`]; downstream crates (the fuzz artifact format) wrap
//! program documents in their own envelopes with the same parser.
//!
//! The encoding is versioned (`"v": 1`) and intentionally explicit: every
//! node and expression is a tagged object (`{"k": "parfor", ...}`), and
//! decode errors carry a human-readable description of what was expected.

use crate::expr::{BinOp, Expr, TableId, VarId};
use crate::json::{escape_json, parse_json, JsonValue, SerializeError};
use crate::node::{
    ArrayDecl, ArrayId, Node, Program, Reduction, ReductionOp, ScheduleKind, ScheduleSpec,
    SlipSyncType, SlipstreamClause,
};

/// Version tag written into every serialized program document.
pub const FORMAT_VERSION: i64 = 1;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn emit_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Const(v) => out.push_str(&format!("{{\"k\":\"const\",\"v\":{v}}}")),
        Expr::Var(v) => out.push_str(&format!("{{\"k\":\"var\",\"v\":{}}}", v.0)),
        Expr::ThreadId => out.push_str("{\"k\":\"tid\"}"),
        Expr::NumThreads => out.push_str("{\"k\":\"nth\"}"),
        Expr::Bin(op, l, r) => {
            let name = op.name();
            out.push_str(&format!("{{\"k\":\"bin\",\"op\":\"{name}\",\"l\":"));
            emit_expr(l, out);
            out.push_str(",\"r\":");
            emit_expr(r, out);
            out.push('}');
        }
        Expr::Table(t, idx) => {
            out.push_str(&format!("{{\"k\":\"table\",\"t\":{},\"i\":", t.0));
            emit_expr(idx, out);
            out.push('}');
        }
    }
}

fn sync_name(s: SlipSyncType) -> &'static str {
    match s {
        SlipSyncType::GlobalSync => "global",
        SlipSyncType::LocalSync => "local",
        SlipSyncType::RuntimeSync => "runtime",
        SlipSyncType::None => "none",
    }
}

fn emit_clause(c: &SlipstreamClause, out: &mut String) {
    out.push_str(&format!(
        "{{\"sync\":\"{}\",\"tokens\":{}}}",
        sync_name(c.sync),
        c.tokens
    ));
}

fn emit_node(n: &Node, out: &mut String) {
    match n {
        Node::Seq(v) => {
            out.push_str("{\"k\":\"seq\",\"body\":[");
            for (i, c) in v.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_node(c, out);
            }
            out.push_str("]}");
        }
        Node::Compute(e) => {
            out.push_str("{\"k\":\"compute\",\"e\":");
            emit_expr(e, out);
            out.push('}');
        }
        Node::Load { array, index } | Node::Store { array, index } => {
            let k = if matches!(n, Node::Load { .. }) {
                "load"
            } else {
                "store"
            };
            out.push_str(&format!("{{\"k\":\"{k}\",\"a\":{},\"i\":", array.0));
            emit_expr(index, out);
            out.push('}');
        }
        Node::For {
            var,
            begin,
            end,
            step,
            body,
        } => {
            out.push_str(&format!("{{\"k\":\"for\",\"var\":{},\"begin\":", var.0));
            emit_expr(begin, out);
            out.push_str(",\"end\":");
            emit_expr(end, out);
            out.push_str(&format!(",\"step\":{step},\"body\":"));
            emit_node(body, out);
            out.push('}');
        }
        Node::Parallel { body, slipstream } => {
            out.push_str("{\"k\":\"parallel\",\"slip\":");
            match slipstream {
                Some(c) => emit_clause(c, out),
                None => out.push_str("null"),
            }
            out.push_str(",\"body\":");
            emit_node(body, out);
            out.push('}');
        }
        Node::SlipstreamSet(c) => {
            out.push_str("{\"k\":\"slipset\",\"slip\":");
            emit_clause(c, out);
            out.push('}');
        }
        Node::ParFor {
            sched,
            var,
            begin,
            end,
            body,
            reduction,
            nowait,
        } => {
            out.push_str("{\"k\":\"parfor\",\"sched\":");
            match sched {
                Some(s) => {
                    let kind = match s.kind {
                        ScheduleKind::Static => "static",
                        ScheduleKind::Dynamic => "dynamic",
                        ScheduleKind::Guided => "guided",
                        ScheduleKind::Affinity => "affinity",
                        ScheduleKind::Runtime => "runtime",
                    };
                    out.push_str(&format!("{{\"kind\":\"{kind}\",\"chunk\":"));
                    match s.chunk {
                        Some(c) => out.push_str(&c.to_string()),
                        None => out.push_str("null"),
                    }
                    out.push('}');
                }
                None => out.push_str("null"),
            }
            out.push_str(&format!(",\"var\":{},\"begin\":", var.0));
            emit_expr(begin, out);
            out.push_str(",\"end\":");
            emit_expr(end, out);
            out.push_str(",\"reduction\":");
            match reduction {
                Some(r) => {
                    let op = match r.op {
                        ReductionOp::Sum => "sum",
                        ReductionOp::Max => "max",
                        ReductionOp::Min => "min",
                    };
                    out.push_str(&format!(
                        "{{\"op\":\"{op}\",\"target\":{},\"index\":",
                        r.target.0
                    ));
                    emit_expr(&r.index, out);
                    out.push('}');
                }
                None => out.push_str("null"),
            }
            out.push_str(&format!(",\"nowait\":{nowait},\"body\":"));
            emit_node(body, out);
            out.push('}');
        }
        Node::Barrier => out.push_str("{\"k\":\"barrier\"}"),
        Node::Single(body) | Node::Master(body) => {
            let k = if matches!(n, Node::Single(_)) {
                "single"
            } else {
                "master"
            };
            out.push_str(&format!("{{\"k\":\"{k}\",\"body\":"));
            emit_node(body, out);
            out.push('}');
        }
        Node::Critical { name, body } => {
            out.push_str(&format!(
                "{{\"k\":\"critical\",\"name\":\"{}\",\"body\":",
                escape_json(name)
            ));
            emit_node(body, out);
            out.push('}');
        }
        Node::Atomic { array, index } => {
            out.push_str(&format!("{{\"k\":\"atomic\",\"a\":{},\"i\":", array.0));
            emit_expr(index, out);
            out.push('}');
        }
        Node::Sections(secs) => {
            out.push_str("{\"k\":\"sections\",\"secs\":[");
            for (i, s) in secs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_node(s, out);
            }
            out.push_str("]}");
        }
        Node::Flush => out.push_str("{\"k\":\"flush\"}"),
        Node::Io { input, bytes } => {
            out.push_str(&format!(
                "{{\"k\":\"io\",\"input\":{input},\"bytes\":{bytes}}}"
            ));
        }
    }
}

/// Serialize a program to its canonical JSON document.
pub fn program_to_json(p: &Program) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "{{\"v\":{FORMAT_VERSION},\"name\":\"{}\",\"arrays\":[",
        escape_json(&p.name)
    ));
    for (i, a) in p.arrays.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"shared\":{},\"len\":{},\"elem_bytes\":{}}}",
            escape_json(&a.name),
            a.shared,
            a.len,
            a.elem_bytes
        ));
    }
    out.push_str("],\"tables\":[");
    for (i, t) in p.tables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in t.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push(']');
    }
    out.push_str(&format!("],\"num_vars\":{},\"body\":", p.num_vars));
    emit_node(&p.body, &mut out);
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn derr<T>(message: impl Into<String>) -> Result<T, SerializeError> {
    Err(SerializeError {
        message: message.into(),
        offset: 0,
    })
}

fn field<'v>(v: &'v JsonValue, key: &str, what: &str) -> Result<&'v JsonValue, SerializeError> {
    match v.get(key) {
        Some(f) => Ok(f),
        None => derr(format!("{what}: missing field '{key}'")),
    }
}

fn decode_expr(v: &JsonValue) -> Result<Expr, SerializeError> {
    let kind = field(v, "k", "expr")?
        .as_str()
        .ok_or_else(|| SerializeError {
            message: "expr: 'k' must be a string".into(),
            offset: 0,
        })?;
    match kind {
        "const" => {
            let val = field(v, "v", "const")?
                .as_i64()
                .ok_or_else(|| SerializeError {
                    message: "const: 'v' must be an integer".into(),
                    offset: 0,
                })?;
            Ok(Expr::Const(val))
        }
        "var" => {
            let id = field(v, "v", "var")?
                .as_u64()
                .ok_or_else(|| SerializeError {
                    message: "var: 'v' must be a non-negative integer".into(),
                    offset: 0,
                })?;
            Ok(Expr::Var(VarId(id as u32)))
        }
        "tid" => Ok(Expr::ThreadId),
        "nth" => Ok(Expr::NumThreads),
        "bin" => {
            let name = field(v, "op", "bin")?.as_str();
            let Some(op) = BinOp::ALL.into_iter().find(|op| Some(op.name()) == name) else {
                return derr(format!("bin: unknown op {name:?}"));
            };
            let l = decode_expr(field(v, "l", "bin")?)?;
            let r = decode_expr(field(v, "r", "bin")?)?;
            Ok(Expr::Bin(op, Box::new(l), Box::new(r)))
        }
        "table" => {
            let t = field(v, "t", "table")?
                .as_u64()
                .ok_or_else(|| SerializeError {
                    message: "table: 't' must be a non-negative integer".into(),
                    offset: 0,
                })?;
            let idx = decode_expr(field(v, "i", "table")?)?;
            Ok(Expr::Table(TableId(t as u32), Box::new(idx)))
        }
        other => derr(format!("expr: unknown kind '{other}'")),
    }
}

fn decode_clause(v: &JsonValue) -> Result<SlipstreamClause, SerializeError> {
    let sync = match field(v, "sync", "slipstream clause")?.as_str() {
        Some("global") => SlipSyncType::GlobalSync,
        Some("local") => SlipSyncType::LocalSync,
        Some("runtime") => SlipSyncType::RuntimeSync,
        Some("none") => SlipSyncType::None,
        other => return derr(format!("slipstream clause: unknown sync {other:?}")),
    };
    let tokens = field(v, "tokens", "slipstream clause")?
        .as_u64()
        .ok_or_else(|| SerializeError {
            message: "slipstream clause: 'tokens' must be a non-negative integer".into(),
            offset: 0,
        })?;
    Ok(SlipstreamClause { sync, tokens })
}

fn req_u32(v: &JsonValue, key: &str, what: &str) -> Result<u32, SerializeError> {
    field(v, key, what)?
        .as_u64()
        .filter(|n| *n <= u32::MAX as u64)
        .map(|n| n as u32)
        .ok_or_else(|| SerializeError {
            message: format!("{what}: '{key}' must be a u32"),
            offset: 0,
        })
}

fn req_u64(v: &JsonValue, key: &str, what: &str) -> Result<u64, SerializeError> {
    field(v, key, what)?.as_u64().ok_or_else(|| SerializeError {
        message: format!("{what}: '{key}' must be a non-negative integer"),
        offset: 0,
    })
}

fn decode_node(v: &JsonValue) -> Result<Node, SerializeError> {
    let kind = field(v, "k", "node")?
        .as_str()
        .ok_or_else(|| SerializeError {
            message: "node: 'k' must be a string".into(),
            offset: 0,
        })?;
    match kind {
        "seq" => {
            let body = field(v, "body", "seq")?
                .as_arr()
                .ok_or_else(|| SerializeError {
                    message: "seq: 'body' must be an array".into(),
                    offset: 0,
                })?;
            Ok(Node::Seq(
                body.iter().map(decode_node).collect::<Result<_, _>>()?,
            ))
        }
        "compute" => Ok(Node::Compute(decode_expr(field(v, "e", "compute")?)?)),
        "load" | "store" => {
            let array = ArrayId(req_u32(v, "a", kind)?);
            let index = decode_expr(field(v, "i", kind)?)?;
            if kind == "load" {
                Ok(Node::Load { array, index })
            } else {
                Ok(Node::Store { array, index })
            }
        }
        "for" => Ok(Node::For {
            var: VarId(req_u32(v, "var", "for")?),
            begin: decode_expr(field(v, "begin", "for")?)?,
            end: decode_expr(field(v, "end", "for")?)?,
            step: req_u64(v, "step", "for")?,
            body: Box::new(decode_node(field(v, "body", "for")?)?),
        }),
        "parallel" => {
            let slip = match field(v, "slip", "parallel")? {
                JsonValue::Null => None,
                c => Some(decode_clause(c)?),
            };
            Ok(Node::Parallel {
                body: Box::new(decode_node(field(v, "body", "parallel")?)?),
                slipstream: slip,
            })
        }
        "slipset" => Ok(Node::SlipstreamSet(decode_clause(field(
            v, "slip", "slipset",
        )?)?)),
        "parfor" => {
            let sched = match field(v, "sched", "parfor")? {
                JsonValue::Null => None,
                s => {
                    let k = match field(s, "kind", "schedule")?.as_str() {
                        Some("static") => ScheduleKind::Static,
                        Some("dynamic") => ScheduleKind::Dynamic,
                        Some("guided") => ScheduleKind::Guided,
                        Some("affinity") => ScheduleKind::Affinity,
                        Some("runtime") => ScheduleKind::Runtime,
                        other => return derr(format!("schedule: unknown kind {other:?}")),
                    };
                    let chunk = match field(s, "chunk", "schedule")? {
                        JsonValue::Null => None,
                        c => Some(c.as_u64().ok_or_else(|| SerializeError {
                            message: "schedule: 'chunk' must be a non-negative integer".into(),
                            offset: 0,
                        })?),
                    };
                    Some(ScheduleSpec { kind: k, chunk })
                }
            };
            let reduction = match field(v, "reduction", "parfor")? {
                JsonValue::Null => None,
                r => {
                    let op = match field(r, "op", "reduction")?.as_str() {
                        Some("sum") => ReductionOp::Sum,
                        Some("max") => ReductionOp::Max,
                        Some("min") => ReductionOp::Min,
                        other => return derr(format!("reduction: unknown op {other:?}")),
                    };
                    Some(Reduction {
                        op,
                        target: ArrayId(req_u32(r, "target", "reduction")?),
                        index: decode_expr(field(r, "index", "reduction")?)?,
                    })
                }
            };
            Ok(Node::ParFor {
                sched,
                var: VarId(req_u32(v, "var", "parfor")?),
                begin: decode_expr(field(v, "begin", "parfor")?)?,
                end: decode_expr(field(v, "end", "parfor")?)?,
                body: Box::new(decode_node(field(v, "body", "parfor")?)?),
                reduction,
                nowait: field(v, "nowait", "parfor")?
                    .as_bool()
                    .ok_or_else(|| SerializeError {
                        message: "parfor: 'nowait' must be a bool".into(),
                        offset: 0,
                    })?,
            })
        }
        "barrier" => Ok(Node::Barrier),
        "single" => Ok(Node::Single(Box::new(decode_node(field(
            v, "body", "single",
        )?)?))),
        "master" => Ok(Node::Master(Box::new(decode_node(field(
            v, "body", "master",
        )?)?))),
        "critical" => Ok(Node::Critical {
            name: field(v, "name", "critical")?
                .as_str()
                .ok_or_else(|| SerializeError {
                    message: "critical: 'name' must be a string".into(),
                    offset: 0,
                })?
                .to_string(),
            body: Box::new(decode_node(field(v, "body", "critical")?)?),
        }),
        "atomic" => Ok(Node::Atomic {
            array: ArrayId(req_u32(v, "a", "atomic")?),
            index: decode_expr(field(v, "i", "atomic")?)?,
        }),
        "sections" => {
            let secs = field(v, "secs", "sections")?
                .as_arr()
                .ok_or_else(|| SerializeError {
                    message: "sections: 'secs' must be an array".into(),
                    offset: 0,
                })?;
            Ok(Node::Sections(
                secs.iter().map(decode_node).collect::<Result<_, _>>()?,
            ))
        }
        "flush" => Ok(Node::Flush),
        "io" => Ok(Node::Io {
            input: field(v, "input", "io")?
                .as_bool()
                .ok_or_else(|| SerializeError {
                    message: "io: 'input' must be a bool".into(),
                    offset: 0,
                })?,
            bytes: req_u64(v, "bytes", "io")?,
        }),
        other => derr(format!("node: unknown kind '{other}'")),
    }
}

/// Decode a program from an already-parsed JSON document (useful when the
/// program is embedded inside a larger envelope, as fuzz repro artifacts
/// do).
pub fn program_from_value(v: &JsonValue) -> Result<Program, SerializeError> {
    let version = req_u64(v, "v", "program")? as i64;
    if version != FORMAT_VERSION {
        return derr(format!(
            "program: unsupported format version {version} (expected {FORMAT_VERSION})"
        ));
    }
    let name = field(v, "name", "program")?
        .as_str()
        .ok_or_else(|| SerializeError {
            message: "program: 'name' must be a string".into(),
            offset: 0,
        })?
        .to_string();
    let mut arrays = Vec::new();
    for a in field(v, "arrays", "program")?
        .as_arr()
        .ok_or_else(|| SerializeError {
            message: "program: 'arrays' must be an array".into(),
            offset: 0,
        })?
    {
        arrays.push(ArrayDecl {
            name: field(a, "name", "array")?
                .as_str()
                .ok_or_else(|| SerializeError {
                    message: "array: 'name' must be a string".into(),
                    offset: 0,
                })?
                .to_string(),
            shared: field(a, "shared", "array")?
                .as_bool()
                .ok_or_else(|| SerializeError {
                    message: "array: 'shared' must be a bool".into(),
                    offset: 0,
                })?,
            len: req_u64(a, "len", "array")?,
            elem_bytes: req_u64(a, "elem_bytes", "array")?,
        });
    }
    let mut tables = Vec::new();
    for t in field(v, "tables", "program")?
        .as_arr()
        .ok_or_else(|| SerializeError {
            message: "program: 'tables' must be an array".into(),
            offset: 0,
        })?
    {
        let cells = t.as_arr().ok_or_else(|| SerializeError {
            message: "table: must be an array of integers".into(),
            offset: 0,
        })?;
        let mut row = Vec::with_capacity(cells.len());
        for c in cells {
            row.push(c.as_i64().ok_or_else(|| SerializeError {
                message: "table: cells must be integers".into(),
                offset: 0,
            })?);
        }
        tables.push(row);
    }
    Ok(Program {
        name,
        arrays,
        tables,
        num_vars: req_u32(v, "num_vars", "program")?,
        body: decode_node(field(v, "body", "program")?)?,
    })
}

/// Parse and decode a serialized program document.
pub fn program_from_json(text: &str) -> Result<Program, SerializeError> {
    let v = parse_json(text)?;
    program_from_value(&v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::node::ReductionOp;

    fn rich_program() -> Program {
        let mut b = ProgramBuilder::new("round\"trip");
        let a = b.shared_array("a", 64, 8);
        let p = b.private_array("p", 16, 4);
        let r = b.shared_array("r", 1, 8);
        let t = b.table(vec![3, 1, 4, 1, 5]);
        let i = b.var();
        let j = b.var();
        b.slipstream(SlipstreamClause {
            sync: SlipSyncType::LocalSync,
            tokens: 2,
        });
        b.serial(|s| {
            s.io(true, 4096);
            s.compute(10);
        });
        b.parallel_with(
            Some(SlipstreamClause {
                sync: SlipSyncType::RuntimeSync,
                tokens: 1,
            }),
            |reg| {
                reg.par_for_reduce(
                    Some(ScheduleSpec::dynamic(3)),
                    i,
                    0,
                    64,
                    ReductionOp::Max,
                    r,
                    0,
                    |body| {
                        body.load(a, Expr::v(i).index_into(t).rem(Expr::c(64)));
                        body.for_loop(j, 0, 4, |inner| {
                            inner.store(p, Expr::v(j));
                        });
                    },
                );
                reg.barrier();
                reg.single(|s| s.io(false, 128));
                reg.master(|m| m.compute(5));
                reg.critical("lock", |c| c.atomic(a, Expr::ThreadId));
                reg.sections(3, |k, s| s.compute(k as i64 + 1));
                reg.flush();
            },
        );
        b.build()
    }

    #[test]
    fn round_trip_preserves_program() {
        let p = rich_program();
        let json = program_to_json(&p);
        let q = program_from_json(&json).unwrap();
        assert_eq!(p, q);
        // And the re-serialization is byte-identical (canonical form).
        assert_eq!(json, program_to_json(&q));
    }

    #[test]
    fn round_trip_all_schedule_kinds_and_ops() {
        for (sched, op) in [
            (Some(ScheduleSpec::static_default()), ReductionOp::Sum),
            (
                Some(ScheduleSpec {
                    kind: ScheduleKind::Static,
                    chunk: Some(5),
                }),
                ReductionOp::Min,
            ),
            (Some(ScheduleSpec::guided()), ReductionOp::Max),
            (Some(ScheduleSpec::affinity(2)), ReductionOp::Sum),
            (
                Some(ScheduleSpec {
                    kind: ScheduleKind::Runtime,
                    chunk: None,
                }),
                ReductionOp::Sum,
            ),
            (None, ReductionOp::Sum),
        ] {
            let mut b = ProgramBuilder::new("k");
            let r = b.shared_array("r", 1, 8);
            let i = b.var();
            b.parallel(|reg| {
                reg.par_for_reduce(sched, i, 0, 10, op, r, 0, |body| body.compute(1));
            });
            let p = b.build();
            assert_eq!(p, program_from_json(&program_to_json(&p)).unwrap());
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("1.5").is_err());
        assert!(parse_json("{}x").is_err());
        assert!(program_from_json("{\"v\":99}").is_err());
        assert!(program_from_json("{\"v\":1,\"name\":\"x\"}").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse_json("\"a\\n\\\"b\\\\c\\u0041\"").unwrap();
        assert_eq!(v.as_str(), Some("a\n\"b\\cA"));
        assert_eq!(escape_json("a\n\"b\\c"), "a\\n\\\"b\\\\c");
    }

    #[test]
    fn expr_shapes_round_trip() {
        let exprs = [
            Expr::c(-7),
            Expr::ThreadId + Expr::NumThreads,
            (Expr::v(VarId(1)) * Expr::c(3)).rem(Expr::c(5)),
            Expr::v(VarId(0)).min(Expr::c(9)).max(Expr::c(0)),
            Expr::c(2).index_into(TableId(0)) / Expr::c(2) - Expr::c(1),
        ];
        for e in exprs {
            let mut s = String::new();
            emit_expr(&e, &mut s);
            let v = parse_json(&s).unwrap();
            assert_eq!(decode_expr(&v).unwrap(), e);
        }
    }
}
