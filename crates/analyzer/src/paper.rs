//! The paper's evaluation workload (§8): the twelve XPath expressions of
//! Fig 21 and the decision problems of Table 2.

use std::sync::Arc;

use treetypes::Dtd;
use xpath::Expr;

use crate::Problem;

/// The XPath expressions e1–e12 of Fig 21 (1-indexed source strings).
pub const QUERIES: [&str; 12] = [
    "/a[.//b[c/*//d]/b[c//d]/b[c/d]]",
    "/a[.//b[c/*//d]/b[c/d]]",
    "a/b//c/foll-sibling::d/e",
    "a/b//d[prec-sibling::c]/e",
    "a/c/following::d/e",
    "a/b[//c]/following::d/e ∩ a/d[preceding::c]/e",
    "*//switch[ancestor::head]//seq//audio[prec-sibling::video]",
    "descendant::a[ancestor::a]",
    "/descendant::*",
    "html/(head | body)",
    "html/head/descendant::*",
    "html/body/descendant::*",
];

/// Parses query `eᵢ` of Fig 21 (`i` in `1..=12`).
///
/// # Panics
///
/// Panics if `i` is out of range (the queries themselves always parse).
pub fn query(i: usize) -> Expr {
    assert!((1..=12).contains(&i), "queries are e1..e12");
    xpath::parse(QUERIES[i - 1]).expect("paper query parses")
}

/// Which DTD a Table 2 row uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeUsed {
    /// No type constraint.
    None,
    /// SMIL 1.0.
    Smil,
    /// XHTML 1.0 Strict.
    Xhtml,
}

impl TypeUsed {
    /// Loads the DTD, if any.
    pub fn dtd(self) -> Option<Dtd> {
        match self {
            TypeUsed::None => None,
            TypeUsed::Smil => Some(treetypes::smil_1_0()),
            TypeUsed::Xhtml => Some(treetypes::xhtml_1_0_strict()),
        }
    }
}

/// One row of the paper's Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Human-readable description, as printed in the paper.
    pub description: &'static str,
    /// The type constraint column.
    pub type_used: TypeUsed,
    /// Milliseconds reported by the paper (JAVA, Pentium 4 3 GHz, 2007).
    pub paper_ms: u64,
    /// The decision problem.
    pub problem: Table2Problem,
}

/// The decision problem of a Table 2 row.
#[derive(Debug, Clone)]
pub enum Table2Problem {
    /// `e_i ⊆ e_j` and `e_j ⊄ e_i` (indices into Fig 21).
    ContainmentAsymmetric {
        /// Index of the contained query.
        lhs: usize,
        /// Index of the containing query.
        rhs: usize,
    },
    /// `e_i ⊆ e_j` (one direction checked both ways by the paper's row 2).
    ContainmentBoth {
        /// Index of the contained query.
        lhs: usize,
        /// Index of the containing query.
        rhs: usize,
    },
    /// `e_i` is satisfiable under the type.
    Satisfiable {
        /// Query index.
        query: usize,
    },
    /// `e ⊆ e_a ∪ e_b ∪ e_c` (coverage).
    Coverage {
        /// Covered query index.
        covered: usize,
        /// Covering query indices.
        covering: [usize; 3],
    },
}

/// The six rows of Table 2.
pub fn table2() -> Vec<Table2Row> {
    vec![
        Table2Row {
            description: "e1 ⊆ e2 and e2 ⊄ e1",
            type_used: TypeUsed::None,
            paper_ms: 353,
            problem: Table2Problem::ContainmentAsymmetric { lhs: 1, rhs: 2 },
        },
        Table2Row {
            description: "e4 ⊆ e3 and e3 ⊆ e4",
            type_used: TypeUsed::None,
            paper_ms: 45,
            problem: Table2Problem::ContainmentBoth { lhs: 4, rhs: 3 },
        },
        Table2Row {
            description: "e6 ⊆ e5 and e5 ⊄ e6",
            type_used: TypeUsed::None,
            paper_ms: 41,
            problem: Table2Problem::ContainmentAsymmetric { lhs: 6, rhs: 5 },
        },
        Table2Row {
            description: "e7 is satisfiable",
            type_used: TypeUsed::Smil,
            paper_ms: 157,
            problem: Table2Problem::Satisfiable { query: 7 },
        },
        Table2Row {
            description: "e8 is satisfiable",
            type_used: TypeUsed::Xhtml,
            paper_ms: 2630,
            problem: Table2Problem::Satisfiable { query: 8 },
        },
        Table2Row {
            description: "e9 ⊆ (e10 ∪ e11 ∪ e12)",
            type_used: TypeUsed::Xhtml,
            paper_ms: 2872,
            problem: Table2Problem::Coverage {
                covered: 9,
                covering: [10, 11, 12],
            },
        },
    ]
}

/// One decided direction of a Table 2 row, by Fig 21 query indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `e_lhs ⊆ e_rhs`.
    Contains(usize, usize),
    /// `e_q` is satisfiable.
    Sat(usize),
    /// `e_q ⊆ e_a ∪ e_b ∪ e_c`.
    Covers(usize, [usize; 3]),
}

impl Direction {
    /// The property in the paper's notation, e.g. `e6 ⊆ e5`.
    pub fn label(self) -> String {
        match self {
            Direction::Contains(l, r) => format!("e{l} ⊆ e{r}"),
            Direction::Sat(q) => format!("e{q} is satisfiable"),
            Direction::Covers(q, [a, b, c]) => format!("e{q} ⊆ e{a} ∪ e{b} ∪ e{c}"),
        }
    }

    /// The decision problem, every query typed with `dtd`.
    pub fn problem(self, dtd: Option<&Arc<Dtd>>) -> Problem {
        let q = |i: usize| Arc::new(query(i));
        match self {
            Direction::Contains(l, r) => Problem::contains(q(l), dtd.cloned(), q(r), dtd.cloned()),
            Direction::Sat(i) => Problem::sat(q(i), dtd.cloned()),
            Direction::Covers(i, by) => Problem::covers(q(i), dtd.cloned(), by.map(q)),
        }
    }
}

/// A direction of a Table 2 row with the paper's verdict and ours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    /// The property decided.
    pub direction: Direction,
    /// Whether the paper reports that it holds.
    pub paper: bool,
    /// Whether it holds under standard XPath semantics, as this crate
    /// decides it. Differs from `paper` only on the [`DIVERGENT`]
    /// directions.
    pub ours: bool,
}

/// The directions where our verdict differs from the paper's, each
/// settled by a verified counterexample (README, "Where we differ from
/// the paper"): row 3's `e6 ⊆ e5` and row 6's coverage.
pub const DIVERGENT: [Direction; 2] = [
    Direction::Contains(6, 5),
    Direction::Covers(9, [10, 11, 12]),
];

impl Table2Row {
    /// Every direction the row decides, in the order of its description:
    /// both directions of a containment row, the one property otherwise.
    pub fn claims(&self) -> Vec<Claim> {
        let claim = |direction, paper| Claim {
            direction,
            paper,
            ours: paper != DIVERGENT.contains(&direction),
        };
        match self.problem {
            Table2Problem::ContainmentAsymmetric { lhs, rhs } => vec![
                claim(Direction::Contains(lhs, rhs), true),
                claim(Direction::Contains(rhs, lhs), false),
            ],
            Table2Problem::ContainmentBoth { lhs, rhs } => vec![
                claim(Direction::Contains(lhs, rhs), true),
                claim(Direction::Contains(rhs, lhs), true),
            ],
            Table2Problem::Satisfiable { query } => vec![claim(Direction::Sat(query), true)],
            Table2Problem::Coverage { covered, covering } => {
                vec![claim(Direction::Covers(covered, covering), true)]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_queries_parse_and_roundtrip() {
        for i in 1..=12 {
            let e = query(i);
            let canon = e.to_string();
            let e2 = xpath::parse(&canon).unwrap();
            assert_eq!(e2.to_string(), canon, "e{i}");
        }
    }

    #[test]
    fn table_has_six_rows() {
        let rows = table2();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[3].type_used, TypeUsed::Smil);
        assert!(rows[3].type_used.dtd().is_some());
        assert!(rows[0].type_used.dtd().is_none());
    }

    #[test]
    fn claims_cover_both_directions_and_name_every_divergence() {
        let claims: Vec<Vec<Claim>> = table2().iter().map(Table2Row::claims).collect();
        let counts: Vec<usize> = claims.iter().map(Vec::len).collect();
        assert_eq!(counts, [2, 2, 2, 1, 1, 1]);
        let divergent: Vec<Direction> = claims
            .iter()
            .flatten()
            .filter(|c| c.ours != c.paper)
            .map(|c| c.direction)
            .collect();
        assert_eq!(divergent, DIVERGENT);
        assert_eq!(claims[2][0].direction.label(), "e6 ⊆ e5");
        assert_eq!(claims[5][0].direction.label(), "e9 ⊆ e10 ∪ e11 ∪ e12");
    }
}
