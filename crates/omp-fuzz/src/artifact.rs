//! Replayable failure artifacts.
//!
//! A [`Repro`] is self-contained: it embeds the (minimized) program as a
//! versioned `omp_ir` JSON document next to the failure's structural
//! identity and the harness knobs (engine mutation, fault seed) needed
//! to reproduce it. Replaying requires nothing but the artifact — not
//! the generator seed, not the campaign state.

use omp_ir::node::Program;
use omp_ir::serialize::program_from_value;
use omp_ir::{escape_json, parse_json, program_to_json};
use slipstream::EngineMutation;

use crate::diff::{run_case, DiffOptions, FailKind, Failure};

/// Artifact format version (bumped on breaking layout changes).
pub const REPRO_FORMAT: i64 = 1;

/// A serialized, replayable failure case.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Generator seed the case came from (`None` for foreign programs).
    pub seed: Option<u64>,
    /// The failure's structural identity.
    pub failure: Failure,
    /// Engine mutation active when the failure was observed.
    pub mutation: EngineMutation,
    /// Fault-plan seed active when the failure was observed.
    pub fault_seed: Option<u64>,
    /// The (minimized) program.
    pub program: Program,
}

impl Repro {
    /// Build an artifact from a failure and the case's harness knobs.
    pub fn new(seed: Option<u64>, failure: Failure, opts: &DiffOptions, program: Program) -> Repro {
        Repro {
            seed,
            failure,
            mutation: opts.mutation,
            fault_seed: opts.fault_seed,
            program,
        }
    }

    /// The failure's fingerprint (hex).
    pub fn fingerprint(&self) -> String {
        self.failure.fingerprint()
    }

    /// Canonical artifact file name.
    pub fn file_name(&self) -> String {
        format!("repro-{}.json", self.fingerprint())
    }

    /// Serialize to a single-line JSON document.
    pub fn to_json(&self) -> String {
        // Seeds are full u64 values; the embedded JSON dialect only has
        // i64 integers, so they travel as decimal strings.
        let opt = |v: Option<u64>| match v {
            Some(x) => format!("\"{x}\""),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"format\":{},\"seed\":{},\"fingerprint\":\"{}\",",
                "\"kind\":\"{}\",\"mode\":\"{}\",\"class\":\"{}\",\"field\":\"{}\",",
                "\"detail\":\"{}\",\"mutation\":\"{}\",\"fault_seed\":{},",
                "\"node_count\":{},\"program\":{}}}"
            ),
            REPRO_FORMAT,
            opt(self.seed),
            self.fingerprint(),
            escape_json(self.failure.kind.label()),
            escape_json(&self.failure.mode),
            escape_json(&self.failure.class),
            escape_json(&self.failure.field),
            escape_json(&self.failure.detail),
            self.mutation.label(),
            opt(self.fault_seed),
            self.program.node_count(),
            program_to_json(&self.program),
        )
    }

    /// Parse an artifact produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Repro, String> {
        let v = parse_json(text).map_err(|e| e.to_string())?;
        let fmt = v.get("format").and_then(|f| f.as_i64()).unwrap_or(-1);
        if fmt != REPRO_FORMAT {
            return Err(format!("unsupported repro format {fmt}"));
        }
        let s = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("repro: missing string field `{key}`"))
        };
        let kind_label = s("kind")?;
        let kind = FailKind::from_label(&kind_label)
            .ok_or_else(|| format!("repro: unknown failure kind `{kind_label}`"))?;
        let mutation_label = s("mutation")?;
        let mutation = EngineMutation::from_label(&mutation_label)
            .ok_or_else(|| format!("repro: unknown mutation `{mutation_label}`"))?;
        let program = v
            .get("program")
            .ok_or_else(|| "repro: missing program".to_string())
            .and_then(|p| program_from_value(p).map_err(|e| e.to_string()))?;
        let seed_of = |key: &str| {
            v.get(key)
                .and_then(|x| x.as_str())
                .and_then(|x| x.parse::<u64>().ok())
        };
        let claimed_fp = s("fingerprint")?;
        let repro = Repro {
            seed: seed_of("seed"),
            failure: Failure {
                kind,
                mode: s("mode")?,
                class: s("class")?,
                field: s("field")?,
                detail: s("detail")?,
            },
            mutation,
            fault_seed: seed_of("fault_seed"),
            program,
        };
        if repro.fingerprint() != claimed_fp {
            return Err(format!(
                "repro: fingerprint mismatch (claimed {claimed_fp}, computed {})",
                repro.fingerprint()
            ));
        }
        Ok(repro)
    }

    /// Options that reproduce this artifact's conditions on top of
    /// `base` (machine and budget come from `base`; mutation and fault
    /// seed from the artifact).
    pub fn replay_options(&self, base: &DiffOptions) -> DiffOptions {
        let mut opts = base.clone();
        opts.mutation = self.mutation;
        opts.fault_seed = self.fault_seed;
        opts
    }

    /// Re-run the embedded program and return the failures matching this
    /// artifact's fingerprint key. Empty means the failure no longer
    /// reproduces (e.g. the bug was fixed).
    pub fn replay(&self, base: &DiffOptions) -> Vec<Failure> {
        let key = self.failure.fingerprint_key();
        run_case(&self.program, &self.replay_options(base))
            .failures
            .into_iter()
            .filter(|f| f.fingerprint_key() == key)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{Expr, ProgramBuilder};

    fn program() -> Program {
        let mut b = ProgramBuilder::new("artifact-test");
        let a = b.shared_array("a", 64, 8);
        let i = b.var();
        b.parallel(|r| {
            r.par_for(None, i, 0, 21, |body| {
                body.load(a, Expr::v(i));
            });
        });
        b.build()
    }

    fn failure() -> Failure {
        Failure {
            kind: FailKind::OracleMismatch,
            mode: "slip-G0".into(),
            class: "exact".into(),
            field: "loads".into(),
            detail: "engine 20 vs trace 21 at team 4".into(),
        }
    }

    #[test]
    fn round_trips_through_json() {
        let opts = {
            let mut o = DiffOptions::campaign();
            o.mutation = EngineMutation::ChunkOffByOne;
            o.fault_seed = Some(99);
            o
        };
        let r = Repro::new(Some(7), failure(), &opts, program());
        let text = r.to_json();
        let back = Repro::from_json(&text).expect("parse");
        assert_eq!(back, r);
        assert_eq!(back.file_name(), r.file_name());
    }

    #[test]
    fn tampered_fingerprint_is_rejected() {
        let r = Repro::new(None, failure(), &DiffOptions::campaign(), program());
        let text = r.to_json().replace(&r.fingerprint(), "0000000000000000");
        let err = Repro::from_json(&text).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn nesting_at_the_json_limit_replays_and_past_it_is_refused() {
        use omp_ir::json::MAX_DEPTH;
        use omp_ir::node::Node;
        // `loops` nested one-trip loops around a load: the nesting that
        // costs the analyzer the most stack per level.
        let repro = |loops: usize| {
            let mut b = ProgramBuilder::new("deep");
            let a = b.shared_array("a", 64, 8);
            let mut body = Node::Load {
                array: a,
                index: Expr::c(1),
            };
            for _ in 0..loops {
                body = Node::For {
                    var: b.var(),
                    begin: Expr::c(0),
                    end: Expr::c(1),
                    step: 1,
                    body: Box::new(body),
                };
            }
            b.parallel(|r| r.push(body));
            Repro::new(None, failure(), &DiffOptions::campaign(), b.build())
        };
        // No string in these documents holds a bracket.
        let depth = |text: &str| {
            let (mut open, mut deepest) = (0, 0);
            for b in text.bytes() {
                match b {
                    b'[' | b'{' => {
                        open += 1;
                        deepest = deepest.max(open);
                    }
                    b']' | b'}' => open -= 1,
                    _ => {}
                }
            }
            deepest
        };
        let envelope = depth(&repro(0).to_json());
        for below in [1, 0] {
            let r = repro(MAX_DEPTH - envelope - below);
            assert_eq!(depth(&r.to_json()), MAX_DEPTH - below);
            assert_eq!(Repro::from_json(&r.to_json()).as_ref(), Ok(&r));
        }
        // One level past the limit, the artifact is refused, and its
        // program, as a document of its own exactly at the limit, still
        // decodes, validates, compiles and analyzes on this thread.
        let over = repro(MAX_DEPTH - envelope + 1);
        let err = Repro::from_json(&over.to_json()).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let text = program_to_json(&over.program);
        assert_eq!(depth(&text), MAX_DEPTH);
        let p = omp_ir::program_from_json(&text).unwrap();
        let map = dsm_sim::AddressMap::new(&dsm_sim::MachineConfig::paper());
        slipstream::compile(&p, &map).unwrap();
        let report = omp_analyze::analyze(&p, &omp_analyze::AnalyzeConfig::paper());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn replay_of_mutated_case_reproduces_from_artifact_alone() {
        let base = DiffOptions::campaign();
        let mut mutated = base.clone();
        mutated.mutation = EngineMutation::ChunkOffByOne;
        let p = program();
        let res = run_case(&p, &mutated);
        let f = res
            .failures
            .iter()
            .find(|f| f.kind == FailKind::OracleMismatch)
            .expect("mutation caught")
            .clone();
        let r = Repro::new(Some(1), f, &mutated, p);
        let text = r.to_json();
        // From the serialized artifact alone:
        let back = Repro::from_json(&text).unwrap();
        let hits = back.replay(&base);
        assert!(!hits.is_empty(), "artifact did not reproduce");
    }
}
