//! Cross-validation of the solver backends behind the shared kernel.
//!
//! The explicit solver enumerates ψ-types directly from the paper's §6.2
//! algorithm; the symbolic solver is the BDD implementation of §7; the
//! witnessed solver is the literal Fig 16 triples. All three are
//! [`solver::Backend`] impls driven by the same `run_fixpoint` loop. On
//! every random cycle-free formula they must agree — whether called
//! through their direct wrappers or dispatched via
//! [`solver::solve_with`] — and any
//! satisfiable verdict must come with a model accepted by the independent
//! model checker of Fig 2.

use std::time::Duration;

use ftree::Label;
use mulogic::{cycle_free, Formula, Logic, ModelChecker, Program};
use proptest::prelude::*;
use solver::{
    solve_explicit, solve_symbolic, solve_with, solve_witnessed, BackendChoice, Limits,
    SymbolicOptions,
};

/// A recipe for building random cycle-free formulas without reference to a
/// particular `Logic` arena.
#[derive(Debug, Clone)]
enum Shape {
    Prop(&'static str),
    NotProp(&'static str),
    Start,
    NotStart,
    NoChild(u8),
    Diam(u8, Box<Shape>),
    And(Box<Shape>, Box<Shape>),
    Or(Box<Shape>, Box<Shape>),
    /// µX. base ∨ ⟨p⟩X — a guarded single-direction recursion.
    Rec(u8, Box<Shape>),
    Not(Box<Shape>),
}

fn prog(code: u8) -> Program {
    match code % 4 {
        0 => Program::Down1,
        1 => Program::Down2,
        2 => Program::Up1,
        _ => Program::Up2,
    }
}

fn build(lg: &mut Logic, s: &Shape) -> Formula {
    match s {
        Shape::Prop(n) => lg.prop(Label::new(n)),
        Shape::NotProp(n) => lg.not_prop(Label::new(n)),
        Shape::Start => lg.start(),
        Shape::NotStart => lg.not_start(),
        Shape::NoChild(p) => lg.not_diam_true(prog(*p)),
        Shape::Diam(p, inner) => {
            let f = build(lg, inner);
            lg.diam(prog(*p), f)
        }
        Shape::And(a, b) => {
            let (fa, fb) = (build(lg, a), build(lg, b));
            lg.and(fa, fb)
        }
        Shape::Or(a, b) => {
            let (fa, fb) = (build(lg, a), build(lg, b));
            lg.or(fa, fb)
        }
        Shape::Rec(p, base) => {
            let fb = build(lg, base);
            let x = lg.fresh_var("R");
            let xv = lg.var(x);
            let step = lg.diam(prog(*p), xv);
            let body = lg.or(fb, step);
            lg.mu1(x, body)
        }
        Shape::Not(inner) => {
            let f = build(lg, inner);
            lg.not(f)
        }
    }
}

fn arb_shape(depth: u32) -> BoxedStrategy<Shape> {
    let leaf = prop_oneof![
        prop::sample::select(&["a", "b", "c"][..]).prop_map(Shape::Prop),
        prop::sample::select(&["a", "b"][..]).prop_map(Shape::NotProp),
        Just(Shape::Start),
        Just(Shape::NotStart),
        (0u8..4).prop_map(Shape::NoChild),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    prop_oneof![
        3 => leaf,
        2 => (0u8..4, arb_shape(depth - 1)).prop_map(|(p, s)| Shape::Diam(p, Box::new(s))),
        2 => (arb_shape(depth - 1), arb_shape(depth - 1))
            .prop_map(|(a, b)| Shape::And(Box::new(a), Box::new(b))),
        2 => (arb_shape(depth - 1), arb_shape(depth - 1))
            .prop_map(|(a, b)| Shape::Or(Box::new(a), Box::new(b))),
        1 => (0u8..4, arb_shape(0)).prop_map(|(p, s)| Shape::Rec(p, Box::new(s))),
        1 => arb_shape(depth - 1).prop_map(|s| Shape::Not(Box::new(s))),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Explicit and symbolic backends return the same verdict, and models
    /// pass the model checker.
    #[test]
    fn backends_agree(shape in arb_shape(2)) {
        let mut lg = Logic::new();
        let goal = build(&mut lg, &shape);
        prop_assume!(cycle_free(&lg, goal));
        // Keep the explicit enumeration tractable.
        let prep = solver::Prepared::new(&mut lg, goal);
        prop_assume!(prep.lean.diam_entries().count() <= 10);

        let exp = solve_explicit(&mut lg, goal);
        let sym = solve_symbolic(&mut lg, goal);
        let wit = solve_witnessed(&mut lg, goal);
        prop_assert_eq!(
            exp.outcome.is_satisfiable(),
            sym.outcome.is_satisfiable(),
            "explicit/symbolic disagree on {}",
            lg.display(goal)
        );
        prop_assert_eq!(
            wit.outcome.is_satisfiable(),
            sym.outcome.is_satisfiable(),
            "witnessed/symbolic disagree on {}",
            lg.display(goal)
        );
        for solved in [&exp, &sym, &wit] {
            if let Some(m) = solved.outcome.model() {
                // Marked iff the goal mentions s.
                if lg.mentions_start(goal) {
                    let marks: usize = m.roots().iter().map(ftree::Tree::mark_count).sum();
                    prop_assert_eq!(marks, 1, "bad mark count in {}", m);
                }
                let mc = ModelChecker::new_row(m.roots());
                prop_assert!(
                    !mc.eval(&lg, goal).is_empty(),
                    "model {} fails check for {}",
                    m,
                    lg.display(goal)
                );
            }
        }
    }

    /// Dispatch through `solve_with` agrees across every `BackendChoice`,
    /// models pass the model checker, and each run's telemetry
    /// names the backend that produced it.
    #[test]
    fn backend_dispatch_agrees(shape in arb_shape(2)) {
        let mut lg = Logic::new();
        let goal = build(&mut lg, &shape);
        prop_assume!(cycle_free(&lg, goal));
        // Keep the explicit enumerations tractable.
        let prep = solver::Prepared::new(&mut lg, goal);
        prop_assume!(prep.lean.diam_entries().count() <= 10);

        let reference = solve_symbolic(&mut lg, goal).outcome.is_satisfiable();
        for choice in BackendChoice::ALL {
            let solved = solve_with(
                &mut lg,
                goal,
                choice,
                &SymbolicOptions::default(),
                &Limits::default(),
            )
            .unwrap_or_else(|e| panic!("{choice} failed on {}: {e}", lg.display(goal)));
            prop_assert_eq!(
                solved.outcome.is_satisfiable(),
                reference,
                "{} disagrees with symbolic on {}",
                choice,
                lg.display(goal)
            );
            prop_assert_eq!(solved.stats.telemetry.backend_name(), choice.as_str());
            if let Some(m) = solved.outcome.model() {
                let mc = ModelChecker::new_row(m.roots());
                prop_assert!(
                    !mc.eval(&lg, goal).is_empty(),
                    "{}: model {} fails check for {}",
                    choice,
                    m,
                    lg.display(goal)
                );
            }
        }
    }

    /// Negation flips satisfiability of valid formulas (one of ϕ, ¬ϕ is
    /// always satisfiable; both are iff ϕ is contingent). We check the
    /// weaker, always-true direction: ϕ unsat ⇒ ¬ϕ sat.
    #[test]
    fn negation_soundness(shape in arb_shape(2)) {
        let mut lg = Logic::new();
        let goal = build(&mut lg, &shape);
        prop_assume!(cycle_free(&lg, goal));
        let neg = lg.not(goal);
        prop_assume!(cycle_free(&lg, neg));
        let prep = solver::Prepared::new(&mut lg, goal);
        let prep_n = solver::Prepared::new(&mut lg, neg);
        prop_assume!(prep.lean.diam_entries().count() <= 8);
        prop_assume!(prep_n.lean.diam_entries().count() <= 8);

        let s_goal = solve_symbolic(&mut lg, goal);
        let s_neg = solve_symbolic(&mut lg, neg);
        prop_assert!(
            s_goal.outcome.is_satisfiable() || s_neg.outcome.is_satisfiable(),
            "both {} and its negation unsat",
            lg.display(goal)
        );
    }

    /// One long-lived BDD manager reused (via generational reset) across
    /// two unrelated problems yields verdicts — and models — identical to
    /// fresh-manager runs, with per-run telemetry counters that restart
    /// at each reset.
    #[test]
    fn reused_manager_matches_fresh_runs(s1 in arb_shape(2), s2 in arb_shape(2)) {
        let mut shared = bdd::Bdd::new();
        let opts = SymbolicOptions::default();
        let mut verdicts_shared = Vec::new();
        let mut verdicts_fresh = Vec::new();
        for shape in [&s1, &s2] {
            let mut lg = Logic::new();
            let goal = build(&mut lg, shape);
            prop_assume!(cycle_free(&lg, goal));
            let reused = solver::solve_symbolic_in(&mut lg, goal, &opts, &mut shared, &Limits::none())
                .expect("unbounded run cannot exhaust");
            if let Some(m) = reused.outcome.model() {
                let mc = ModelChecker::new_row(m.roots());
                prop_assert!(
                    !mc.eval(&lg, goal).is_empty(),
                    "reused-manager model {} fails check for {}",
                    m,
                    lg.display(goal)
                );
            }
            // Per-run counters restart at reset: the live count never
            // exceeds this run's own peak.
            let counters = reused.stats.telemetry.bdd_counters().expect("symbolic");
            prop_assert!(reused.stats.telemetry.bdd_nodes().unwrap() <= counters.peak_nodes);
            verdicts_shared.push(reused.outcome.is_satisfiable());

            let mut lg = Logic::new();
            let goal = build(&mut lg, shape);
            let fresh = solve_symbolic(&mut lg, goal);
            verdicts_fresh.push(fresh.outcome.is_satisfiable());
        }
        prop_assert_eq!(verdicts_shared, verdicts_fresh);
    }

    /// Resource governance must be invisible when the budgets are
    /// generous: a solve under roomy limits agrees verdict-for-verdict
    /// with the unlimited solve, on every backend.
    #[test]
    fn generous_limits_agree_with_unlimited(shape in arb_shape(2)) {
        let mut lg = Logic::new();
        let goal = build(&mut lg, &shape);
        prop_assume!(cycle_free(&lg, goal));
        // Keep the explicit enumerations tractable.
        let prep = solver::Prepared::new(&mut lg, goal);
        prop_assume!(prep.lean.diam_entries().count() <= 10);

        let unlimited = solve_symbolic(&mut lg, goal).outcome.is_satisfiable();
        let generous = Limits {
            deadline: Some(Duration::from_secs(300)),
            max_bdd_nodes: Some(100_000_000),
            max_iterations: Some(1_000_000),
            max_lean_diamonds: 16,
            ..Limits::none()
        };
        for choice in BackendChoice::ALL {
            let bounded = solve_with(
                &mut lg,
                goal,
                choice,
                &SymbolicOptions::default(),
                &generous,
            )
            .unwrap_or_else(|e| panic!("{choice} exhausted generous limits on {}: {e}", lg.display(goal)));
            prop_assert_eq!(
                bounded.outcome.is_satisfiable(),
                unlimited,
                "{} under generous limits disagrees with unlimited on {}",
                choice,
                lg.display(goal)
            );
            if let Some(m) = bounded.outcome.model() {
                let mc = ModelChecker::new_row(m.roots());
                prop_assert!(
                    !mc.eval(&lg, goal).is_empty(),
                    "{}: bounded model {} fails check for {}",
                    choice,
                    m,
                    lg.display(goal)
                );
            }
        }
    }
}
