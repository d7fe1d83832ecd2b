//! End-to-end reproduction tests for the paper's evaluation (§8, Table 2,
//! rows without the heavy XHTML instances — those are `#[ignore]`d in
//! `xhtml_slow.rs`).
//!
//! Each row's verdicts, in both directions, must equal the ones pinned in
//! `paper::Table2Row::claims`, which the `experiments` binary checks too.
//! Each verdict is cross-checked: counter-examples / witnesses are
//! re-evaluated with the denotational XPath interpreter and, where a DTD is
//! involved, with the derivative-based validator.

use std::sync::Arc;

use xsat::analyzer::{paper, Analyzer, BackendChoice, Limits, Problem};
use xsat::ftree::Tree;
use xsat::treetypes::smil_1_0;
use xsat::xpath::eval_on_tree;

/// The verdicts pinned for Table 2 row `r` (1-based), one per direction.
fn pinned(r: usize) -> Vec<bool> {
    paper::table2()[r - 1]
        .claims()
        .iter()
        .map(|c| c.ours)
        .collect()
}

/// Table 2 row 1: `e1 ⊆ e2` holds, `e2 ⊆ e1` does not. This is the pair
/// from Miklau & Suciu on which the tree-pattern homomorphism technique is
/// incomplete.
#[test]
fn row1_e1_contained_in_e2() {
    let e1 = paper::query(1);
    let e2 = paper::query(2);
    let mut az = Analyzer::new();
    let fwd = az.contains(&e1, None, &e2, None).unwrap();
    assert!(fwd.holds, "paper: e1 ⊆ e2");
    let bwd = az.contains(&e2, None, &e1, None).unwrap();
    assert!(!bwd.holds, "paper: e2 ⊄ e1");
    assert_eq!(pinned(1), [fwd.holds, bwd.holds]);
    // The counter-example tree really separates the queries.
    let m = bwd.counter_example.expect("separating tree");
    let tree = m.tree();
    let s1 = eval_on_tree(&e1, &tree);
    let s2 = eval_on_tree(&e2, &tree);
    assert!(s2.iter().any(|f| !s1.contains(f)), "{}", m.xml());
}

/// Table 2 row 2: e4 and e3 are equivalent.
#[test]
fn row2_e4_equivalent_e3() {
    let e3 = paper::query(3);
    let e4 = paper::query(4);
    let mut az = Analyzer::new();
    let (fwd, bwd) = az.equivalent(&e4, None, &e3, None).unwrap();
    assert!(fwd.holds && bwd.holds);
    assert_eq!(pinned(2), [fwd.holds, bwd.holds]);
}

/// Table 2 row 2 under a node budget below the store size of an
/// unbudgeted solve (about 6.1k nodes, garbage included): the store
/// collects by half the budget, so the budget caps live nodes and both
/// directions still decide instead of coming back `unknown` on garbage.
#[test]
fn row2_decides_under_a_node_budget_below_its_garbage() {
    let (e3, e4) = (Arc::new(paper::query(3)), Arc::new(paper::query(4)));
    let limits = Limits {
        max_bdd_nodes: Some(4000),
        ..Limits::default()
    };
    let mut az = Analyzer::new();
    for (lhs, rhs) in [(&e4, &e3), (&e3, &e4)] {
        let problem = Problem::contains(lhs.clone(), None, rhs.clone(), None);
        let v = az
            .solve(&problem, &limits)
            .unwrap_or_else(|e| panic!("{lhs} ⊆ {rhs}: {e}"));
        assert!(v.holds, "{lhs} ⊆ {rhs}");
        let peak = v.stats.telemetry.bdd_counters().unwrap().peak_nodes;
        assert!(peak <= 4000, "{lhs} ⊆ {rhs}: peak {peak}");
    }
}

/// Table 2 row 3: the paper reports `e6 ⊆ e5`; under the standard XPath
/// reading of e5/e6 the containment does *not* hold, and the counter-example
/// is confirmed by the (independent) denotational interpreter. `e5 ⊄ e6`
/// agrees with the paper. README ("Where we differ from the paper") cites
/// the pinned counterexample checked here.
#[test]
fn row3_e6_e5_divergence_is_real() {
    let e5 = paper::query(5);
    let e6 = paper::query(6);
    let mut az = Analyzer::new();
    let fwd = az.contains(&e6, None, &e5, None).unwrap();
    assert!(!fwd.holds, "we measure e6 ⊄ e5 (paper reports ⊆)");
    let m = fwd.counter_example.expect("counter-example");
    let tree = m.tree();
    let s5 = eval_on_tree(&e5, &tree);
    let s6 = eval_on_tree(&e6, &tree);
    assert!(
        s6.iter().any(|f| !s5.contains(f)),
        "interpreter must confirm the separation on {}",
        m.xml()
    );
    let bwd = az.contains(&e5, None, &e6, None).unwrap();
    assert!(!bwd.holds, "paper: e5 ⊄ e6");
    assert_eq!(pinned(3), [fwd.holds, bwd.holds]);
    // The smaller counterexample README quotes separates the queries too:
    // e6 selects the `e` under `d`, e5 selects nothing.
    let readme =
        Tree::parse_xml(r#"<_other s="1"><a><b><c/></b><d><e/></d><c/></a></_other>"#).unwrap();
    let (s5, s6) = (eval_on_tree(&e5, &readme), eval_on_tree(&e6, &readme));
    assert!(s5.is_empty() && !s6.is_empty(), "{s5:?} vs {s6:?}");
}

/// Table 2 row 4: e7 is satisfiable under SMIL 1.0 and the witness is a
/// valid SMIL document on which e7 selects a node.
#[test]
fn row4_e7_satisfiable_under_smil() {
    let dtd = smil_1_0();
    let e7 = paper::query(7);
    let mut az = Analyzer::new();
    let v = az.is_satisfiable(&e7, Some(&dtd)).unwrap();
    assert!(v.holds);
    assert_eq!(pinned(4), [v.holds]);
    let m = v.counter_example.expect("witness");
    let tree = m.tree();
    assert!(
        dtd.validates(&tree.clear_marks()),
        "witness must be SMIL-valid: {}",
        m.xml()
    );
    let selected = eval_on_tree(&e7, &tree);
    assert!(!selected.is_empty(), "e7 must select a node in {}", m.xml());
}

/// Fig 18: the worked containment example, counter-example shape included.
#[test]
fn fig18_counter_example() {
    let e1 = xsat::xpath::parse("child::c/preceding-sibling::a[child::b]").unwrap();
    let e2 = xsat::xpath::parse("child::c[child::b]").unwrap();
    let mut az = Analyzer::new();
    let v = az.contains(&e1, None, &e2, None).unwrap();
    assert!(!v.holds);
    let m = v.counter_example.unwrap();
    let tree = m.tree();
    // Exactly the paper's shape: the context has an a (with b child)
    // followed by a c.
    let s1 = eval_on_tree(&e1, &tree);
    let s2 = eval_on_tree(&e2, &tree);
    assert!(!s1.is_empty() && s2.is_empty());
    // Minimal: four nodes (context, a, b, c).
    assert!(m.size() <= 4, "expected the minimal model, got {}", m.xml());
}

/// The Fig 18 containment family, from a trivial member up to the
/// figure's own pair: every backend reaches the same verdict.
#[test]
fn fig18_family_verdicts_on_every_backend() {
    let family = [
        ("child::a", "child::a", true),
        ("child::a", "child::a[child::b]", false),
        ("child::c/preceding-sibling::a", "child::a", true),
        (
            "child::c/preceding-sibling::a[child::b]",
            "child::c[child::b]",
            false,
        ),
    ];
    for backend in BackendChoice::ALL {
        for (lhs, rhs, holds) in family {
            let e1 = xsat::xpath::parse(lhs).unwrap();
            let e2 = xsat::xpath::parse(rhs).unwrap();
            let mut az = Analyzer::new();
            az.set_backend(backend);
            let v = az.contains(&e1, None, &e2, None).unwrap();
            assert_eq!(v.holds, holds, "{backend}: {lhs} ⊆ {rhs}");
        }
    }
}
