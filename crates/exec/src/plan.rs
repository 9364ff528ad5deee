//! Join-plan trees produced by the optimizer.

use fj_query::{Query, SubplanMask};

/// A binary join tree over the query's aliases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanNode {
    /// Filtered scan of one alias.
    Scan {
        /// Alias index into [`Query::tables`].
        alias: usize,
    },
    /// Hash join of two sub-plans (build = left, probe = right by
    /// convention; the cost model is symmetric so the distinction is
    /// presentational).
    Join {
        /// Build side.
        left: Box<PlanNode>,
        /// Probe side.
        right: Box<PlanNode>,
    },
}

impl PlanNode {
    /// Bitmask of aliases covered by this subtree.
    pub fn mask(&self) -> SubplanMask {
        match self {
            PlanNode::Scan { alias } => 1u64 << alias,
            PlanNode::Join { left, right } => left.mask() | right.mask(),
        }
    }

    /// Number of scan leaves.
    pub fn num_leaves(&self) -> usize {
        match self {
            PlanNode::Scan { .. } => 1,
            PlanNode::Join { left, right } => left.num_leaves() + right.num_leaves(),
        }
    }

    /// True when the tree is left-deep (every right child is a scan).
    pub fn is_left_deep(&self) -> bool {
        match self {
            PlanNode::Scan { .. } => true,
            PlanNode::Join { left, right } => {
                matches!(**right, PlanNode::Scan { .. }) && left.is_left_deep()
            }
        }
    }

    /// Renders the tree with alias names, e.g. `((a ⋈ b) ⋈ c)`.
    pub fn display(&self, query: &Query) -> String {
        match self {
            PlanNode::Scan { alias } => query.tables()[*alias].alias.clone(),
            PlanNode::Join { left, right } => {
                format!("({} ⋈ {})", left.display(query), right.display(query))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(i: usize) -> PlanNode {
        PlanNode::Scan { alias: i }
    }

    fn join(l: PlanNode, r: PlanNode) -> PlanNode {
        PlanNode::Join {
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn masks_union_children() {
        let p = join(join(scan(0), scan(2)), scan(1));
        assert_eq!(p.mask(), 0b111);
        assert_eq!(p.num_leaves(), 3);
    }

    #[test]
    fn left_deep_detection() {
        let ld = join(join(scan(0), scan(1)), scan(2));
        assert!(ld.is_left_deep());
        let bushy = join(join(scan(0), scan(1)), join(scan(2), scan(3)));
        assert!(!bushy.is_left_deep());
        assert_eq!(bushy.num_leaves(), 4);
    }
}
