//! The `paper-untyped` and `paper-typed` workloads: Table 2 of the paper,
//! checked against a hand-written table of verdicts.
//!
//! The untraced pass times each sub-problem through [`Analyzer::solve`]
//! under [`Limits::default`] with a fresh [`Analyzer`], as `xsat check` and
//! `experiments` do. The traced pass drives the same sub-problem layer by
//! layer through public functions (goal compilation, the traced solve
//! with its `lean`/`build`/`fixpoint` phase events and per-`step` events,
//! then witness verification) and splits its wall time by layer.

use std::sync::Arc;
use std::time::Instant;

use analyzer::paper::{self, TypeUsed};
use analyzer::{witness, Analyzer, Limits, Problem};
use obs::{FieldValue, MemorySink, Recorder};
use solver::{Model, Outcome};
use treetypes::Dtd;
use xpath::Expr;

use crate::reference::Reference;
use crate::report::{EndToEnd, LayerSplit, Run};
use crate::stats::{median, summary};

/// The decision problem of one hand-table entry, by Fig 21 query index.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// `e_lhs ⊆ e_rhs`.
    Contains(usize, usize),
    /// `e_q` is satisfiable.
    Sat(usize),
    /// `e_q ⊆ e_a ∪ e_b ∪ e_c`.
    Covers(usize, [usize; 3]),
}

/// One sub-problem of Table 2 with the verdict we expect, written by hand
/// from the paper and from the counterexamples that settle where we
/// disagree with it.
struct Expected {
    row: usize,
    label: &'static str,
    ty: TypeUsed,
    kind: Kind,
    holds: bool,
    /// A document that refutes the property, checked to separate the
    /// queries every time the table is built.
    pinned: Option<&'static str>,
}

/// The nine solves behind Table 2's six rows. Row 3's `e6 ⊆ e5` is
/// reported as holding by the paper; under standard XPath semantics the
/// pinned document refutes it. Row 6's coverage fails over element-only
/// trees (`/descendant::*` selects `head`, which `html/(head | body)`
/// evaluated from the `html` root does not).
const TABLE: [Expected; 9] = [
    Expected {
        row: 1,
        label: "e1 ⊆ e2",
        ty: TypeUsed::None,
        kind: Kind::Contains(1, 2),
        holds: true,
        pinned: None,
    },
    Expected {
        row: 1,
        label: "e2 ⊆ e1",
        ty: TypeUsed::None,
        kind: Kind::Contains(2, 1),
        holds: false,
        pinned: None,
    },
    Expected {
        row: 2,
        label: "e4 ⊆ e3",
        ty: TypeUsed::None,
        kind: Kind::Contains(4, 3),
        holds: true,
        pinned: None,
    },
    Expected {
        row: 2,
        label: "e3 ⊆ e4",
        ty: TypeUsed::None,
        kind: Kind::Contains(3, 4),
        holds: true,
        pinned: None,
    },
    Expected {
        row: 3,
        label: "e6 ⊆ e5",
        ty: TypeUsed::None,
        kind: Kind::Contains(6, 5),
        holds: false,
        pinned: Some(r#"<_other s="1"><a><b><c/></b><d><e/></d><c/></a></_other>"#),
    },
    Expected {
        row: 3,
        label: "e5 ⊆ e6",
        ty: TypeUsed::None,
        kind: Kind::Contains(5, 6),
        holds: false,
        pinned: None,
    },
    Expected {
        row: 4,
        label: "e7 sat (SMIL 1.0)",
        ty: TypeUsed::Smil,
        kind: Kind::Sat(7),
        holds: true,
        pinned: None,
    },
    Expected {
        row: 5,
        label: "e8 sat (XHTML 1.0 Strict)",
        ty: TypeUsed::Xhtml,
        kind: Kind::Sat(8),
        holds: true,
        pinned: None,
    },
    Expected {
        row: 6,
        label: "e9 ⊆ e10 ∪ e11 ∪ e12 (XHTML 1.0 Strict)",
        ty: TypeUsed::Xhtml,
        kind: Kind::Covers(9, [10, 11, 12]),
        holds: false,
        pinned: None,
    },
];

/// A hand-table entry made concrete: parsed queries and DTDs.
struct Sub {
    row: usize,
    label: &'static str,
    holds: bool,
    problem: Problem,
    /// The queries by Fig 21 index, for the independent witness check.
    queries: Vec<(usize, Arc<Expr>)>,
    kind: Kind,
    /// The DTD the problem is typed with, which `Analyzer::solve` also
    /// verifies witnesses against.
    dtd: Option<Arc<Dtd>>,
}

/// Parses the queries and DTDs of the given rows: the paper workloads'
/// set-up. Also checks every pinned counterexample.
fn build(rows: &[usize]) -> Result<Vec<Sub>, String> {
    let smil = Arc::new(treetypes::smil_1_0());
    let xhtml = Arc::new(treetypes::xhtml_1_0_strict());
    let mut subs = Vec::new();
    for e in TABLE.iter().filter(|e| rows.contains(&e.row)) {
        let dtd = match e.ty {
            TypeUsed::None => None,
            TypeUsed::Smil => Some(smil.clone()),
            TypeUsed::Xhtml => Some(xhtml.clone()),
        };
        let q = |i: usize| (i, Arc::new(paper::query(i)));
        let (problem, queries) = match e.kind {
            Kind::Contains(l, r) => {
                let (ql, qr) = (q(l), q(r));
                let p = Problem::contains(ql.1.clone(), dtd.clone(), qr.1.clone(), dtd.clone());
                (p, vec![ql, qr])
            }
            Kind::Sat(i) => {
                let qi = q(i);
                (Problem::sat(qi.1.clone(), dtd.clone()), vec![qi])
            }
            Kind::Covers(i, by) => {
                let all: Vec<_> = std::iter::once(i).chain(by).map(q).collect();
                let by = all[1..].iter().map(|(_, e)| e.clone());
                let p = Problem::covers(all[0].1.clone(), dtd.clone(), by);
                (p, all)
            }
        };
        let sub = Sub {
            row: e.row,
            label: e.label,
            holds: e.holds,
            problem,
            queries,
            kind: e.kind,
            dtd,
        };
        if let Some(xml) = e.pinned {
            let tree = ftree::Tree::parse_xml(xml).map_err(|err| format!("{xml}: {err}"))?;
            check_witness(&sub, &Model::from_trees(vec![tree]))
                .map_err(|err| format!("pinned counterexample of {}: {err}", e.label))?;
        }
        subs.push(sub);
    }
    Ok(subs)
}

/// Independent check of a solver's document, outside the solver: the
/// XPath set semantics of Fig 5/6 and the DTD validator. For a refuted
/// containment or coverage the document must select a node on the left
/// that no right-hand query selects; for a satisfiable query it must
/// select a node. Typed documents must validate.
fn check_witness(sub: &Sub, m: &Model) -> Result<(), String> {
    let tree = m.tree();
    if let Some(dtd) = &sub.dtd {
        if !dtd.validates(&tree.clear_marks()) {
            return Err(format!("document is not valid: {}", m.xml()));
        }
    }
    let picked = |i: usize| {
        let (_, e) = sub.queries.iter().find(|(j, _)| *j == i).expect("query");
        xpath::eval_on_tree(e, &tree)
    };
    let ok = match sub.kind {
        Kind::Sat(i) => !picked(i).is_empty(),
        Kind::Contains(l, r) => {
            let right = picked(r);
            picked(l).iter().any(|f| !right.contains(f))
        }
        Kind::Covers(i, by) => {
            let covered: Vec<_> = by.iter().flat_map(|&j| picked(j)).collect();
            picked(i).iter().any(|f| !covered.contains(f))
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("the XPath semantics do not confirm {}", m.xml()))
    }
}

/// Checks one verdict against the hand table. A failing refutable
/// property and a satisfiable query must come with a document that passes
/// [`check_witness`].
fn check_verdict(sub: &Sub, holds: bool, model: Option<&Model>) -> Result<(), String> {
    if holds != sub.holds {
        return Err(format!(
            "{}: expected holds={}, got holds={holds}",
            sub.label, sub.holds
        ));
    }
    let needs_document = matches!(sub.kind, Kind::Sat(_)) == holds;
    if needs_document {
        let m = model.ok_or_else(|| format!("{}: verdict carries no document", sub.label))?;
        check_witness(sub, m).map_err(|e| format!("{}: {e}", sub.label))?;
    }
    Ok(())
}

/// Per-row sums of one traced pass.
#[derive(Debug, Default, Clone)]
struct Layers {
    wall_ms: f64,
    compile_ms: f64,
    lean_ms: f64,
    lean_size: f64,
    build_ms: f64,
    fixpoint_ms: f64,
    iterations: f64,
    step_ms_max: f64,
    /// The largest BDD store a `step` event reported.
    step_nodes_max: f64,
    peak_nodes: f64,
    created_nodes: f64,
    cache_hits: f64,
    cache_lookups: f64,
    reconstruct_ms: f64,
    verify_ms: f64,
}

impl Layers {
    fn covered_ms(&self) -> f64 {
        self.compile_ms
            + self.lean_ms
            + self.build_ms
            + self.fixpoint_ms
            + self.reconstruct_ms
            + self.verify_ms
    }

    fn add(&mut self, o: &Layers) {
        self.wall_ms += o.wall_ms;
        self.compile_ms += o.compile_ms;
        self.lean_ms += o.lean_ms;
        self.lean_size += o.lean_size;
        self.build_ms += o.build_ms;
        self.fixpoint_ms += o.fixpoint_ms;
        self.iterations += o.iterations;
        self.step_ms_max = self.step_ms_max.max(o.step_ms_max);
        self.step_nodes_max = self.step_nodes_max.max(o.step_nodes_max);
        self.peak_nodes += o.peak_nodes;
        self.created_nodes += o.created_nodes;
        self.cache_hits += o.cache_hits;
        self.cache_lookups += o.cache_lookups;
        self.reconstruct_ms += o.reconstruct_ms;
        self.verify_ms += o.verify_ms;
    }

    /// The row's share of the workload's layer split.
    fn split(&self) -> LayerSplit {
        LayerSplit {
            compile_ms: self.compile_ms,
            lean_ms: self.lean_ms,
            build_ms: self.build_ms,
            fixpoint_ms: self.fixpoint_ms,
            reconstruct_verify_ms: self.reconstruct_ms + self.verify_ms,
            iterations: self.iterations,
            step_ms_max: self.step_ms_max,
            peak_nodes: self.step_nodes_max,
            ..LayerSplit::default()
        }
    }
}

/// Builds `E→⟦·⟧` goal of a sub-problem exactly as `Analyzer::solve`
/// does, through `Analyzer::query_formula`. Returns the goal and whether
/// the property holds when the goal is satisfiable.
fn goal_of(az: &mut Analyzer, p: &Problem) -> (mulogic::Formula, bool) {
    match p {
        Problem::Sat { query, ty } => (az.query_formula(query, ty.as_deref()), true),
        Problem::Contains {
            lhs,
            ltype,
            rhs,
            rtype,
        } => {
            let f1 = az.query_formula(lhs, ltype.as_deref());
            let f2 = az.query_formula(rhs, rtype.as_deref());
            let lg = az.logic_mut();
            let nf2 = lg.not(f2);
            (lg.and(f1, nf2), false)
        }
        Problem::Covers { query, ty, by } => {
            let mut goal = az.query_formula(query, ty.as_deref());
            for (e, t) in by {
                let f = az.query_formula(e, t.as_deref());
                let lg = az.logic_mut();
                let nf = lg.not(f);
                goal = lg.and(goal, nf);
            }
            (goal, false)
        }
        other => unreachable!("Table 2 poses no {} problem", other.op_name()),
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Untraced: time to a verified verdict through `Analyzer::solve` with a
/// fresh analyzer. Returns the milliseconds and the check's outcome.
fn solve_untraced(sub: &Sub) -> (f64, Result<(), String>) {
    let started = Instant::now();
    let mut az = Analyzer::new();
    let result = az.solve(&sub.problem, &Limits::default());
    let elapsed = ms(started.elapsed());
    let checked = match result {
        Ok(a) => check_verdict(sub, a.holds, a.counter_example.as_ref()),
        Err(e) => Err(format!("{}: {e}", sub.label)),
    };
    (elapsed, checked)
}

/// Traced: the same solve, layer by layer.
fn solve_traced(sub: &Sub) -> (Layers, Result<(), String>) {
    let started = Instant::now();
    let mut az = Analyzer::new();
    let t = Instant::now();
    let (goal, sat_means_holds) = goal_of(&mut az, &sub.problem);
    let compile_ms = ms(t.elapsed());
    let sink = Arc::new(MemorySink::new());
    let rec = Recorder::new(sink.clone());
    let solved = match az.solve_formula_traced(goal, &Limits::default(), &rec) {
        Ok(s) => s,
        Err(e) => return (Layers::default(), Err(format!("{}: {e}", sub.label))),
    };
    let t = Instant::now();
    let dtds: Vec<&Dtd> = sub.dtd.as_deref().into_iter().collect();
    let verified = match &solved.outcome {
        Outcome::Satisfiable(m) => witness::verify_model(az.logic_mut(), goal, m, &dtds)
            .map_err(|e| format!("{}: {e}", sub.label)),
        Outcome::Unsatisfiable => Ok(()),
    };
    let verify_ms = ms(t.elapsed());
    let wall_ms = ms(started.elapsed());

    let mut layers = Layers {
        wall_ms,
        compile_ms,
        verify_ms,
        lean_size: solved.stats.lean_size as f64,
        iterations: solved.stats.iterations as f64,
        ..Layers::default()
    };
    for ev in sink.drain() {
        let field = |name: &str| ev.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        let us = |name: &str| match field(name) {
            Some(FieldValue::U64(v)) => v as f64 / 1000.0,
            _ => 0.0,
        };
        match (ev.kind, field("phase")) {
            ("phase", Some(FieldValue::Str("lean"))) => layers.lean_ms += us("dur_us"),
            ("phase", Some(FieldValue::Str("build"))) => layers.build_ms += us("dur_us"),
            ("phase", Some(FieldValue::Str("fixpoint"))) => layers.fixpoint_ms += us("dur_us"),
            ("step", _) => {
                layers.step_ms_max = layers.step_ms_max.max(us("dt_us"));
                if let Some(FieldValue::U64(n)) = field("nodes") {
                    layers.step_nodes_max = layers.step_nodes_max.max(n as f64);
                }
            }
            _ => {}
        }
    }
    // `Stats::duration` runs over the fixpoint loop and the §7.2
    // reconstruction; the fixpoint span covers only the loop.
    layers.reconstruct_ms = (ms(solved.stats.duration) - layers.fixpoint_ms).max(0.0);
    if let Some(c) = solved.stats.telemetry.bdd_counters() {
        layers.peak_nodes = c.peak_nodes as f64;
        layers.created_nodes = c.created_nodes as f64;
        layers.cache_hits = c.cache_hits as f64;
        layers.cache_lookups = c.cache_lookups as f64;
    }
    let holds = solved.outcome.is_satisfiable() == sat_means_holds;
    let checked = verified.and_then(|()| check_verdict(sub, holds, solved.outcome.model()));
    (layers, checked)
}

/// Consecutive set-ups before each round.
const SETUPS: usize = 20;
/// Fewest untraced passes per run: row 5's two samples in a run differ
/// by up to 15%, so its median rests on three.
const MIN_PASSES: usize = 3;
/// Samples of each row (index 1..=6) per pass: row 2, which takes a few
/// milliseconds, is solved several times a pass so that its median rests
/// on more samples.
const REPS: [usize; 7] = [0, 1, 5, 1, 1, 1, 1];

/// Runs the paper workload over `rows` for `seconds`.
pub fn run(rows: &[usize], seed: u64, seconds: f64, trace: bool, out: &mut Run) {
    // Set-up: parse the queries and DTDs and check the pinned documents.
    // It takes well under a millisecond, so it is repeated SETUPS times
    // before every round of every pass and the run reports the median: a
    // single sample would measure the caches the previous solve left
    // behind more than the set-up.
    let mut setups = Vec::new();
    let mut set_up = |out: &mut Run| {
        let mut built = Err(String::new());
        for _ in 0..SETUPS {
            let t = Instant::now();
            built = build(rows);
            setups.push(t.elapsed().as_secs_f64());
        }
        built.map_err(|e| out.fail(e)).ok()
    };
    let Some(mut subs) = set_up(out) else {
        return;
    };
    // The seed orders the sub-problems within each pass; the problems
    // themselves are the paper's.
    let mut rng = crate::gen::Rng::new(seed);
    rng.shuffle(&mut subs);

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); 7];
    let mut traced: Vec<Vec<Layers>> = vec![Vec::new(); 7];
    let mut passes = 0;
    let mut peak_rss_mb = 0.0;
    let mut reference = Reference::default();
    loop {
        let pass_started = Instant::now();
        // Round k solves every sub-problem whose row takes more than k
        // samples a pass; a row's k-th sample sums its sub-problems'
        // round-k times.
        for k in 0..rows.iter().map(|&r| REPS[r]).max().unwrap_or(1) {
            if set_up(out).is_none() {
                return;
            }
            let mut sample = [0.0; 7];
            for sub in subs.iter().filter(|s| k < REPS[s.row]) {
                let (t, checked) = solve_untraced(sub);
                out.attempt(checked);
                sample[sub.row] += t;
            }
            for &r in rows.iter().filter(|&&r| k < REPS[r]) {
                untraced[r].push(sample[r]);
            }
            if passes > 0 {
                reference.maybe_sample();
            }
        }
        if trace {
            let mut per_row = vec![Layers::default(); 7];
            for sub in &subs {
                let (l, checked) = solve_traced(sub);
                out.attempt(checked);
                per_row[sub.row].add(&l);
            }
            for &r in rows {
                traced[r].push(per_row[r].clone());
            }
        }
        passes += 1;
        if passes == 1 {
            // Every sub-problem has been solved once, so the peak is
            // reached; the reference kernel runs only from here on.
            peak_rss_mb = crate::report::peak_rss_mb();
        }
        // Untraced runs make at least MIN_PASSES passes, so that the
        // costliest row never rests on fewer samples; then stop when
        // another pass would overrun the budget.
        let pass = pass_started.elapsed();
        if passes >= if trace { 1 } else { MIN_PASSES } && Instant::now() + pass > deadline {
            break;
        }
    }

    reference.top_up();
    let factor = reference.factor();
    let table = paper::table2();
    out.note(format!(
        "passes={passes} (fresh Analyzer per solve; samples per pass: {})",
        rows.iter()
            .map(|&r| format!("row{r}={}", REPS[r]))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.note(reference.note());
    let mut pass_ms = 0.0;
    let mut split = LayerSplit::default();
    let (mut traced_wall_ms, mut untraced_row_ms) = (0.0, 0.0);
    for &r in rows {
        let row_ms = median(&untraced[r]).expect("at least one pass");
        pass_ms += row_ms;
        let paper_ms = table[r - 1].paper_ms as f64;
        out.note(format!(
            "row{r}: {row_ms:.1} ms, {:.1} ms at the reference speed (median of {}), \
             paper {paper_ms} ms, ours/paper {:.2} — {}",
            row_ms * factor,
            untraced[r].len(),
            row_ms / paper_ms,
            table[r - 1].description
        ));
        out.note(format!("row{r} samples (ms): {}", summary(&untraced[r])));
        if trace {
            // The traced pass with the median wall time stands for the row.
            let mut passes = traced[r].clone();
            passes.sort_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms));
            let mid = &passes[(passes.len() - 1) / 2];
            let covered = mid.covered_ms() / mid.wall_ms;
            let hit_rate = mid.cache_hits / mid.cache_lookups.max(1.0);
            out.note(format!(
                "row{r} traced {:.1} ms: compile {:.1} lean {:.1} build {:.1} fixpoint {:.1} \
                 reconstruct {:.1} verify {:.1} untraced {:.1} ms — split covers {:.1}%{}; \
                 lean size {:.0}, {:.0} iterations, slowest step {:.1} ms, BDD peak {:.0} \
                 created {:.0} cache hit rate {hit_rate:.3}; tracing costs {:.1} ms",
                mid.wall_ms,
                mid.compile_ms,
                mid.lean_ms,
                mid.build_ms,
                mid.fixpoint_ms,
                mid.reconstruct_ms,
                mid.verify_ms,
                mid.wall_ms - mid.covered_ms(),
                covered * 100.0,
                if covered < 0.95 {
                    " [FLAG: below 95%]"
                } else {
                    ""
                },
                mid.lean_size,
                mid.iterations,
                mid.step_ms_max,
                mid.peak_nodes,
                mid.created_nodes,
                mid.wall_ms - row_ms
            ));
            split.add(&mid.split());
            traced_wall_ms += mid.wall_ms;
            untraced_row_ms += row_ms;
        }
    }
    out.note(format!(
        "pass: {pass_ms:.1} ms, {:.1} ms at the reference speed (sum of the rows' medians)",
        pass_ms * factor
    ));
    if trace {
        // One traced pass solves every sub-problem once; the paper path
        // has no memo.
        split.solves = subs.len() as f64;
        split.outside_solve_share = 1.0 - split.covered_ms() / traced_wall_ms;
        split.trace_overhead_ms = traced_wall_ms - untraced_row_ms;
        out.note(format!("traced pass: {}", split.describe()));
        out.metrics = split.metrics();
    } else {
        out.metrics = EndToEnd {
            setup_s: median(&setups).expect("set-ups ran") * factor,
            pass_ms: pass_ms * factor,
            peak_rss_mb,
        }
        .metrics();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_table_matches_the_papers_rows() {
        let table = paper::table2();
        for e in &TABLE {
            assert_eq!(table[e.row - 1].type_used, e.ty, "{}", e.label);
        }
        // Every row of Table 2 has at least one sub-problem.
        for r in 1..=6 {
            assert!(TABLE.iter().any(|e| e.row == r), "row {r}");
        }
    }

    #[test]
    fn pinned_documents_separate_the_queries() {
        assert!(build(&[3]).is_ok());
        // A document that does not separate e6 from e5 is rejected.
        let sub = build(&[3]).unwrap().remove(0);
        let bad =
            ftree::Tree::parse_xml(r#"<_other s="1"><a><c/><d><e/></d></a></_other>"#).unwrap();
        assert!(check_witness(&sub, &Model::from_trees(vec![bad])).is_err());
    }

    /// The traced path builds its goal apart from `Analyzer::solve`
    /// (`goal_of`), so it must pose the same problem: the same verdict,
    /// lean and iteration count on one problem of every kind Table 2 has
    /// (both containments of row 2, row 4's sat, row 6's coverage).
    #[test]
    fn traced_goals_match_analyzer_solve() {
        for sub in build(&[2, 4, 6]).unwrap() {
            let a = Analyzer::new()
                .solve(&sub.problem, &Limits::default())
                .unwrap();
            assert_eq!(a.holds, sub.holds, "{}", sub.label);
            assert_eq!(solve_untraced(&sub).1, Ok(()), "{}", sub.label);
            let (layers, checked) = solve_traced(&sub);
            assert_eq!(checked, Ok(()), "{}", sub.label);
            assert_eq!(layers.lean_size, a.stats.lean_size as f64, "{}", sub.label);
            assert_eq!(
                layers.iterations, a.stats.iterations as f64,
                "{}",
                sub.label
            );
            assert!(layers.wall_ms >= layers.covered_ms(), "{}", sub.label);
        }
    }
}
