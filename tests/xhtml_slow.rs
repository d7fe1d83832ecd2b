//! The two XHTML rows of Table 2 — slow (seconds in release, much more in
//! debug), so `#[ignore]`d by default. Run with
//! `cargo test --release -- --ignored`. Their verdicts must equal the ones
//! pinned in `paper::Table2Row::claims`.

use xsat::analyzer::{paper, Analyzer};
use xsat::treetypes::xhtml_1_0_strict;
use xsat::xpath::eval_on_tree;

/// The verdicts pinned for Table 2 row `r` (1-based), one per direction.
fn pinned(r: usize) -> Vec<bool> {
    paper::table2()[r - 1]
        .claims()
        .iter()
        .map(|c| c.ours)
        .collect()
}

/// Table 2 row 5: e8 = `descendant::a[ancestor::a]` is satisfiable under
/// XHTML 1.0 Strict — the DTD does not prohibit nested anchors.
#[test]
#[ignore = "XHTML-scale instance: ~15 s in release mode"]
fn row5_e8_satisfiable_under_xhtml() {
    let dtd = xhtml_1_0_strict();
    let e8 = paper::query(8);
    let mut az = Analyzer::new();
    let v = az.is_satisfiable(&e8, Some(&dtd)).unwrap();
    assert!(v.holds, "paper: satisfiable");
    assert_eq!(pinned(5), [v.holds]);
    let m = v.counter_example.expect("witness");
    let tree = m.tree();
    assert!(
        dtd.validates(&tree.clear_marks()),
        "witness must be XHTML-valid: {}",
        m.xml()
    );
    let picked = eval_on_tree(&e8, &tree);
    assert!(!picked.is_empty(), "e8 must select a node in {}", m.xml());
}

/// Table 2 row 6: coverage `e9 ⊆ e10 ∪ e11 ∪ e12` under XHTML. Over
/// element-only trees (no XPath document node above `html`) the coverage
/// does not hold — `/descendant::*` selects `head` while
/// `html/(head|body)` from the html root selects nothing. The interpreter
/// confirms the counter-example; README ("Where we differ from the paper")
/// discusses it.
#[test]
#[ignore = "XHTML-scale instance: ~5 s in release mode"]
fn row6_coverage_counter_example_is_real() {
    let dtd = xhtml_1_0_strict();
    let e9 = paper::query(9);
    let e10 = paper::query(10);
    let e11 = paper::query(11);
    let e12 = paper::query(12);
    let mut az = Analyzer::new();
    let v = az
        .covers(
            &e9,
            Some(&dtd),
            &[(&e10, Some(&dtd)), (&e11, Some(&dtd)), (&e12, Some(&dtd))],
        )
        .unwrap();
    assert!(!v.holds);
    assert_eq!(pinned(6), [v.holds]);
    let m = v.counter_example.expect("counter-example");
    let tree = m.tree();
    assert!(dtd.validates(&tree.clear_marks()), "{}", m.xml());
    let s9 = eval_on_tree(&e9, &tree);
    let mut covered = Vec::new();
    for e in [&e10, &e11, &e12] {
        covered.extend(eval_on_tree(e, &tree));
    }
    assert!(
        s9.iter().any(|f| !covered.contains(f)),
        "interpreter must confirm the gap on {}",
        m.xml()
    );
}
