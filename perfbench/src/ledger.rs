//! In-memory span ledger for traced passes.
//!
//! A span is one timed call: a name, a tag, its start and end in
//! nanoseconds since the ledger opened, and the span that was open when
//! it began. Spans are kept in memory and written out as one JSON file
//! when the run ends, so the act of recording stays a push onto a `Vec`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub tag: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span; spans `f` opens on the ledger become its
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        tag: impl Into<String>,
        f: impl FnOnce(&mut Ledger) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag: tag.into(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Time a call that opens no spans of its own.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        tag: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.span(name, tag, |_| f())
    }

    /// Self time per span: duration minus the time its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Total self time and span count per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Self time of spans named `name` whose tag satisfies `pick`.
    pub fn self_ns_where(&self, name: &str, pick: impl Fn(&str) -> bool) -> u64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name && pick(&s.tag))
            .map(|(_, own)| own)
            .sum()
    }

    /// The ledger as a JSON array of `{name, tag, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    s.name,
                    s.tag,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[{}]\n", items.join(",\n"))
    }
}
