//! Structured node paths into a [`Program`](crate::node::Program) tree.
//!
//! A [`NodePath`] names one syntactic occurrence of a construct, e.g.
//! `parallel[0]/for[2]/store[1]`: the parallel region that is statement 0
//! of the serial part, the sequential loop that is statement 2 of the
//! region body, the store that is statement 1 of the loop body. `Seq`
//! nodes are transparent — a segment's index is the statement position
//! within the enclosing block (or section list), so paths are stable
//! under the builder's block flattening and contain no iteration indices.
//!
//! Paths are shared currency between [`validate`](mod@crate::validate)
//! diagnostics and the `omp-analyze` crate's findings, so a finding can
//! point at the exact construct that produced it.

use crate::node::Node;
use std::fmt;

/// One step of a [`NodePath`]: the construct kind plus its statement
/// position within the enclosing block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathSeg {
    /// Construct kind (`"parallel"`, `"parfor"`, `"store"`, ...).
    pub kind: &'static str,
    /// Statement position within the enclosing block/section list.
    pub index: u32,
}

impl fmt::Display for PathSeg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.kind, self.index)
    }
}

/// A path from the program root to one node occurrence.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct NodePath(pub Vec<PathSeg>);

impl NodePath {
    /// The empty path (the program itself).
    pub fn root() -> Self {
        NodePath(Vec::new())
    }

    /// Build from a segment stack snapshot.
    pub fn from_segs(segs: &[PathSeg]) -> Self {
        NodePath(segs.to_vec())
    }
}

impl fmt::Display for NodePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "<program>");
        }
        for (i, seg) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            write!(f, "{seg}")?;
        }
        Ok(())
    }
}

/// The path-segment kind of a node. `Seq` nodes are transparent to paths
/// but still have a name for completeness.
pub fn node_kind(n: &Node) -> &'static str {
    match n {
        Node::Seq(_) => "seq",
        Node::Compute(_) => "compute",
        Node::Load { .. } => "load",
        Node::Store { .. } => "store",
        Node::For { .. } => "for",
        Node::Parallel { .. } => "parallel",
        Node::SlipstreamSet(_) => "slipstream_set",
        Node::ParFor { .. } => "parfor",
        Node::Barrier => "barrier",
        Node::Single(_) => "single",
        Node::Master(_) => "master",
        Node::Critical { .. } => "critical",
        Node::Atomic { .. } => "atomic",
        Node::Sections(_) => "sections",
        Node::Flush => "flush",
        Node::Io { .. } => "io",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_segments() {
        let p = NodePath(vec![
            PathSeg {
                kind: "parallel",
                index: 0,
            },
            PathSeg {
                kind: "for",
                index: 2,
            },
            PathSeg {
                kind: "store",
                index: 1,
            },
        ]);
        assert_eq!(p.to_string(), "parallel[0]/for[2]/store[1]");
        assert_eq!(NodePath::root().to_string(), "<program>");
    }

    #[test]
    fn node_kinds_cover_leaves() {
        assert_eq!(node_kind(&Node::Barrier), "barrier");
        assert_eq!(node_kind(&Node::Flush), "flush");
        assert_eq!(node_kind(&Node::nop()), "seq");
    }
}
