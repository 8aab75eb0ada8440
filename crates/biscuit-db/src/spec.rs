//! Declarative query specifications (select-project-join-aggregate).
//!
//! The mini engine executes flat SPJA specs: per-table local predicates,
//! equi-join edges, an optional cross-table residual predicate, grouping and
//! aggregation, ordering, and a limit. TPC-H queries with subqueries run as
//! multiple phases composed in host code (as MariaDB materializes them).
//!
//! Expressions over the *joined* row address a global flat column space:
//! the concatenation of every scan's schema in declaration order, regardless
//! of the join order the planner picks.

use crate::expr::Expr;

/// One base-table access with its local filter.
#[derive(Debug, Clone)]
pub struct TableScanSpec {
    /// Table name in the catalog.
    pub table: String,
    /// Predicate over the table's own columns (local indices).
    pub predicate: Option<Expr>,
}

/// An equi-join edge between two scans.
#[derive(Debug, Clone, Copy)]
pub struct JoinEdge {
    /// Index into [`SelectSpec::scans`].
    pub left: usize,
    /// Column within the left scan's schema.
    pub left_col: usize,
    /// Index into [`SelectSpec::scans`].
    pub right: usize,
    /// Column within the right scan's schema.
    pub right_col: usize,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFun {
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `COUNT(*)` (expression ignored) or `COUNT(expr)`.
    Count,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

/// Sort key over the output row.
#[derive(Debug, Clone, Copy)]
pub struct OrderKey {
    /// Output column index.
    pub col: usize,
    /// Descending order if true.
    pub desc: bool,
}

/// A full select specification.
#[derive(Debug, Clone, Default)]
pub struct SelectSpec {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Base table accesses.
    pub scans: Vec<TableScanSpec>,
    /// Equi-join edges (must connect the scans into one component for a
    /// cross-product-free plan).
    pub edges: Vec<JoinEdge>,
    /// Cross-table predicate over the global flat row, applied after joins.
    pub residual: Option<Expr>,
    /// Group-by expressions over the global flat row (empty = one group if
    /// aggregates are present, plain projection otherwise).
    pub group_by: Vec<Expr>,
    /// Aggregates over the global flat row.
    pub aggregates: Vec<(AggFun, Expr)>,
    /// Post-aggregation filter over the output row.
    pub having: Option<Expr>,
    /// Projection for non-aggregate queries (global flat row expressions).
    pub projection: Vec<Expr>,
    /// Sort order over the output row.
    pub order_by: Vec<OrderKey>,
    /// Row limit.
    pub limit: Option<usize>,
}

impl SelectSpec {
    /// Starts a spec with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SelectSpec {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a scan; returns its index.
    pub fn scan(&mut self, table: &str, predicate: Option<Expr>) -> usize {
        self.scans.push(TableScanSpec {
            table: table.to_owned(),
            predicate,
        });
        self.scans.len() - 1
    }

    /// Adds an equi-join edge between `(left, left_col)` and
    /// `(right, right_col)`.
    pub fn join(&mut self, left: usize, left_col: usize, right: usize, right_col: usize) {
        self.edges.push(JoinEdge {
            left,
            left_col,
            right,
            right_col,
        });
    }
}

/// Execution mode: the two systems the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Conventional host processing (default SSD).
    Conv,
    /// Biscuit NDP offload where the planner allows it.
    Biscuit,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_indices() {
        let mut spec = SelectSpec::new("t");
        let a = spec.scan("lineitem", None);
        let b = spec.scan("part", None);
        assert_eq!((a, b), (0, 1));
        spec.join(a, 1, b, 0);
        assert_eq!(spec.edges.len(), 1);
    }
}
