//! Randomized differential testing of the three solver backends.
//!
//! Every generated decision problem — random small DTDs, random XPath
//! queries, every operation of the [`Problem`] algebra — is posed to the
//! `symbolic`, `explicit` and `witnessed` backends, and their
//! verdicts must agree wherever they decide (an enumerating backend may
//! answer `unknown` on an oversized lean; that is a budget, not a
//! disagreement).
//!
//! Every produced witness is additionally replayed through *independent*
//! oracles that share no code with the satisfiability pipeline:
//!
//! * the XPath set semantics of Fig 5/6 ([`xpath::eval_on_tree`]) — the
//!   marked context node must actually select/refute what the verdict
//!   claims;
//! * [`Dtd::validates`] — typed witnesses must inhabit their DTD.
//!
//! (The analyzer itself already re-checks every witness through the
//! [`mulogic::model_check`] oracle before returning it — a rejection
//! surfaces as `SolveError::WitnessInvalid`, which this test treats as an
//! immediate failure.)
//!
//! The generators are seeded deterministically by test name (see
//! `vendor/proptest`), so CI runs a fixed, reproducible corpus; the case
//! count is pinned at 256 and overridable via `PROPTEST_CASES`.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use analyzer::{Analyzer, BackendChoice, Limits, Problem, SolveError};
use ftree::FocusedTree;
use proptest::prelude::*;
use solver::Model;
use treetypes::Dtd;
use xpath::Expr;

const AXES: [&str; 5] = [
    "child",
    "descendant",
    "self",
    "foll-sibling",
    "prec-sibling",
];
const TESTS: [&str; 4] = ["a", "b", "c", "*"];

fn axis() -> impl Strategy<Value = &'static str> {
    prop::sample::select(&AXES[..])
}

fn node_test() -> impl Strategy<Value = &'static str> {
    prop::sample::select(&TESTS[..])
}

fn predicate() -> BoxedStrategy<String> {
    prop_oneof![
        3 => Just(String::new()),
        1 => (axis(), node_test()).prop_map(|(ax, nt)| format!("[{ax}::{nt}]")),
        1 => (axis(), node_test()).prop_map(|(ax, nt)| format!("[not({ax}::{nt})]")),
    ]
    .boxed()
}

fn step() -> impl Strategy<Value = String> {
    (axis(), node_test(), predicate()).prop_map(|(ax, nt, pred)| format!("{ax}::{nt}{pred}"))
}

fn query() -> impl Strategy<Value = Arc<Expr>> {
    prop::collection::vec(step(), 1..=3).prop_map(|steps| {
        let src = steps.join("/");
        Arc::new(xpath::parse(&src).expect("generated query parses"))
    })
}

// Content models form a DAG (r → a → b → c, c always EMPTY), so every
// generated DTD terminates and parses.
const R_MODELS: [&str; 5] = ["(a*, b*)", "(a | b)", "(a, b?)", "(a+, c?)", "(b*)"];
const A_MODELS: [&str; 5] = ["(b*)", "(b | c)", "EMPTY", "(b?, c?)", "(c+)"];
const B_MODELS: [&str; 3] = ["(c*)", "EMPTY", "(c?)"];

fn dtd() -> impl Strategy<Value = Arc<Dtd>> {
    (
        prop::sample::select(&R_MODELS[..]),
        prop::sample::select(&A_MODELS[..]),
        prop::sample::select(&B_MODELS[..]),
    )
        .prop_map(|(r, a, b)| {
            let src =
                format!("<!ELEMENT r {r}> <!ELEMENT a {a}> <!ELEMENT b {b}> <!ELEMENT c EMPTY>");
            Arc::new(Dtd::parse(&src).expect("generated dtd parses"))
        })
}

fn maybe_dtd() -> BoxedStrategy<Option<Arc<Dtd>>> {
    prop_oneof![
        1 => Just(None),
        1 => dtd().prop_map(Some),
    ]
    .boxed()
}

fn problem() -> impl Strategy<Value = Problem> {
    (0..7u32, query(), query(), maybe_dtd(), dtd(), dtd()).prop_map(
        |(op, q1, q2, ty, din, dout)| match op {
            0 => Problem::sat(q1, ty),
            1 => Problem::empty(q1, ty),
            2 => Problem::contains(q1, ty.clone(), q2, ty),
            3 => Problem::overlap(q1, ty.clone(), q2, ty),
            4 => Problem::equiv(q1, ty.clone(), q2, ty),
            5 => Problem::covers(q1, ty, [q2]),
            _ => Problem::type_check(q1, din, dout),
        },
    )
}

/// A tight-but-honest budget: the panel must stay fast across hundreds of
/// cases, and an exhausted budget is a skip, not a failure — agreement is
/// only required among the backends that decide.
fn limits() -> Limits {
    Limits {
        deadline: Some(Duration::from_millis(250)),
        ..Limits::default()
    }
}

fn foci_set(found: Vec<FocusedTree>) -> HashSet<FocusedTree> {
    found.into_iter().collect()
}

/// The XPath-semantics oracle for one witness model: checks the claim the
/// verdict makes about the witness using the Fig 5/6 interpreter, which
/// shares no code with the satisfiability solvers. Returns an error
/// message when the oracle disagrees. Multi-rooted or multi-marked models
/// fall outside the interpreter's domain and are skipped (`Ok`).
fn xpath_oracle(p: &Problem, holds: bool, m: &Model) -> Result<(), String> {
    let [root] = m.roots() else { return Ok(()) };
    if root.mark_count() != 1 {
        return Ok(());
    }
    let sel = |e: &Expr| foci_set(xpath::eval_on_tree(e, root));
    match p {
        Problem::Sat { query, .. } if holds && sel(query).is_empty() => {
            return Err("sat witness selects nothing".into());
        }
        Problem::Empty { query, .. } if !holds && sel(query).is_empty() => {
            return Err("emptiness counter-example selects nothing".into());
        }
        Problem::Overlap { lhs, rhs, .. }
            if holds && sel(lhs).intersection(&sel(rhs)).next().is_none() =>
        {
            return Err("overlap witness has no common selected node".into());
        }
        Problem::Contains { lhs, rhs, .. }
            if !holds && sel(lhs).difference(&sel(rhs)).next().is_none() =>
        {
            return Err("containment counter-example refutes nothing".into());
        }
        Problem::Equiv { lhs, rhs, .. } if !holds => {
            let (sl, sr) = (sel(lhs), sel(rhs));
            if sl == sr {
                return Err("equivalence counter-example separates nothing".into());
            }
        }
        Problem::Covers { query, by, .. } if !holds => {
            let mut uncovered = sel(query);
            for (e, _) in by {
                uncovered = uncovered.difference(&sel(e)).cloned().collect();
            }
            if uncovered.is_empty() {
                return Err("coverage counter-example is fully covered".into());
            }
        }
        _ => {}
    }
    Ok(())
}

/// The DTDs a witness of `p` must inhabit (the positively-occurring type
/// slots — mirrors the analyzer's own choice, but checked independently
/// here via `Dtd::validates`).
fn governing_dtds(p: &Problem, holds: bool) -> Vec<Arc<Dtd>> {
    match p {
        Problem::Sat { ty, .. } | Problem::Empty { ty, .. } | Problem::Covers { ty, .. } => {
            ty.iter().cloned().collect()
        }
        Problem::Contains { ltype, rtype, .. } | Problem::Equiv { ltype, rtype, .. } => {
            // A containment witness inhabits the failing direction's left
            // type; for `equiv` either direction may have failed, and the
            // generator uses one type for both sides, so this stays exact.
            ltype.iter().chain(rtype.iter()).take(1).cloned().collect()
        }
        Problem::Overlap { ltype, rtype, .. } if holds => {
            ltype.iter().chain(rtype.iter()).cloned().collect()
        }
        Problem::TypeCheck { input, .. } => vec![input.clone()],
        Problem::Overlap { .. } => Vec::new(),
    }
}

/// Pose `p` to one backend and run the witness oracles on the outcome.
/// `Ok(None)` means the backend ran out of budget (a skip); `Err` carries
/// a human-readable bug report.
fn run_backend(p: &Problem, backend: BackendChoice) -> Result<Option<bool>, String> {
    let mut az = Analyzer::new();
    az.set_backend(backend);
    match az.solve(p, &limits()) {
        Ok(a) => {
            // A refuted property always ships its counterexample. `sat`
            // and `overlap` are the exceptions: their `fails` means the
            // goal is unsatisfiable, so no witness document exists.
            let refutable = !matches!(p, Problem::Sat { .. } | Problem::Overlap { .. });
            if refutable && !a.holds && a.counter_example.is_none() {
                return Err(format!(
                    "{backend}: refuted without a counterexample\n  problem: {p:?}"
                ));
            }
            if let Some(m) = &a.counter_example {
                if let Err(msg) = xpath_oracle(p, a.holds, m) {
                    return Err(format!(
                        "{backend}: {msg}\n  problem: {p:?}\n  witness: {}",
                        m.xml()
                    ));
                }
                if let [root] = m.roots() {
                    for dtd in governing_dtds(p, a.holds) {
                        if !dtd.validates(root) {
                            return Err(format!(
                                "{backend}: witness violates its DTD\n  problem: {p:?}\n  witness: {}",
                                m.xml()
                            ));
                        }
                    }
                }
            }
            Ok(Some(a.holds))
        }
        // An exhausted budget is a skip for this backend only.
        Err(SolveError::ResourceExhausted { .. }) => Ok(None),
        // Oracle-rejected witnesses are bugs.
        Err(e) => Err(format!("{backend}: solver error {e}\n  problem: {p:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The panel: all three backends agree on every decided verdict, and
    /// every witness passes the independent XPath and DTD oracles. The
    /// backends run concurrently — each on its own [`Analyzer`] — so a
    /// case costs the slowest backend, not the sum of all three.
    #[test]
    fn backends_agree_and_witnesses_check_out(p in problem()) {
        let outcomes: Vec<(BackendChoice, Result<Option<bool>, String>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = BackendChoice::ALL
                    .into_iter()
                    .map(|backend| {
                        let p = &p;
                        (backend, scope.spawn(move || run_backend(p, backend)))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|(backend, h)| (backend, h.join().expect("backend panicked")))
                    .collect()
            });

        let mut verdicts: Vec<(BackendChoice, bool)> = Vec::new();
        for (backend, outcome) in outcomes {
            match outcome {
                Ok(Some(holds)) => verdicts.push((backend, holds)),
                Ok(None) => {}
                Err(msg) => return Err(proptest::test_runner::TestCaseError::Fail(msg)),
            }
        }
        prop_assert!(!verdicts.is_empty(), "no backend decided {:?}", &p);
        let (b0, h0) = verdicts[0];
        for &(b, h) in &verdicts[1..] {
            prop_assert_eq!(
                h0, h,
                "verdict disagreement on {:?}: {} says {}, {} says {}",
                &p, b0, h0, b, h
            );
        }
    }
}
