//! Workspace lint engine: solver-backed diagnostics over registered XPath
//! queries and DTDs.
//!
//! The paper's satisfiability solver decides *decision problems* — this
//! crate turns it into a *linter*: each rule reduces a query-hygiene
//! question to [`Problem`]s the [`Analyzer`] already knows how to solve,
//! and every finding carries replayable [`Evidence`] — the decided
//! problem, plus the oracle-verified witness document when one exists.
//!
//! The rules (authoritative table: [`RuleId::TABLE`], catalog:
//! `docs/LINT.md`):
//!
//! * **`dead-step`** — per-prefix satisfiability under the governing DTD,
//!   localizing the first axis/test no document can match;
//! * **`contradictory-predicate`** — a predicate that empties its step
//!   (satisfiable without it, unsatisfiable with it) or that provably
//!   never filters anything (removal leaves the query equivalent);
//! * **`redundant-union-branch`** — a `|` branch contained in a sibling;
//! * **`query-shadowing`** — pairwise containment / equivalence between
//!   registered workspace queries;
//! * **`unreachable-element`** — DTD elements unreachable from the root
//!   content graph (a pure graph pass, no solver);
//! * **`wildcard-explosion`** — queries whose lean-diamond count exceeds
//!   the enumeration cap, forcing symbolic-only solving (reads the same
//!   [`solver::lean_diamonds`] accounting the enumerating reference
//!   backends' lean cap gates on).
//!
//! # Architecture
//!
//! Linting is a [`plan`] / solve / [`judge`] pipeline so the host controls
//! how probes are solved. The engine crate fans the probe batch out
//! through its parallel executor and memo cache; the [`LintEngine`] here
//! is the self-contained sequential driver:
//!
//! ```
//! use lint::{LintConfig, LintEngine};
//! use std::sync::Arc;
//! use treetypes::Dtd;
//!
//! let dtd = Arc::new(Dtd::parse(
//!     "<!ELEMENT lib (book*)> <!ELEMENT book (title)> <!ELEMENT title EMPTY>",
//! )?);
//! // Queries run from the document root (the `lib` element): `book/book`
//! // asks for a book nested inside a book, which the DTD forbids.
//! let q = Arc::new(xpath::parse_normalized("book/book")?);
//! let mut engine = LintEngine::new();
//! let report = engine.run(
//!     &[("nested".to_owned(), q)],
//!     &[("lib.dtd".to_owned(), dtd)],
//!     &LintConfig::default(),
//!     &analyzer::Limits::default(),
//! )?;
//! let dead: Vec<_> = report
//!     .diagnostics
//!     .iter()
//!     .filter(|d| d.rule == lint::RuleId::DeadStep)
//!     .collect();
//! assert_eq!(dead.len(), 1);
//! assert_eq!(dead[0].step, Some(1)); // `book` has no `book` child
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagnostic;
pub mod rules;

use analyzer::{Analyzer, Limits, Problem, SolveError};
use std::sync::Arc;
use treetypes::Dtd;
use xpath::Expr;

pub use diagnostic::{sort_diagnostics, Diagnostic, Evidence, RuleId, Severity};
pub use rules::{
    judge, plan, LintConfig, LintPlan, Probe, ProbeCase, ProbeOutcome, QueryArtifact, RuleSetting,
};

/// Solves one planned probe, mapping the analyzer's three-valued outcome
/// onto [`ProbeOutcome`]. This is the single translation both the
/// sequential [`LintEngine`] and the engine crate's batched executor must
/// agree on: `Ok` verdicts keep their (already oracle-verified) witness
/// document, resource exhaustion becomes [`ProbeOutcome::Unknown`] — which
/// [`judge`] degrades to info-level `unverified` findings — and every
/// other solver error becomes [`ProbeOutcome::Error`].
pub fn solve_probe(az: &mut Analyzer, problem: &Problem, limits: &Limits) -> ProbeOutcome {
    match az.solve(problem, limits) {
        Ok(a) => {
            let witness = a.counter_example.as_ref().map(solver::Model::xml);
            if a.holds {
                ProbeOutcome::Holds { witness }
            } else {
                ProbeOutcome::Fails { witness }
            }
        }
        Err(e @ SolveError::ResourceExhausted { .. }) => ProbeOutcome::Unknown {
            reason: e.to_string(),
        },
        Err(e) => ProbeOutcome::Error {
            reason: e.to_string(),
        },
    }
}

/// The result of one lint run.
#[derive(Debug)]
pub struct LintReport {
    /// Findings, in the protocol's deterministic order.
    pub diagnostics: Vec<Diagnostic>,
    /// How many probes the plan required.
    pub probes: usize,
}

impl LintReport {
    /// The highest severity among the findings, `None` when clean.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// How many findings carry the given severity.
    pub fn count_at(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }
}

/// The self-contained sequential lint driver: owns an [`Analyzer`] and
/// runs [`plan`] → [`solve_probe`] (one by one, sharing the analyzer's
/// arena and BDD manager) → [`judge`].
#[derive(Debug, Default)]
pub struct LintEngine {
    az: Analyzer,
}

impl LintEngine {
    /// An engine with a fresh default analyzer.
    pub fn new() -> LintEngine {
        LintEngine::default()
    }

    /// Lints the workspace: every probe is solved under `limits`.
    ///
    /// Fails only on configuration errors (an unknown
    /// [`LintConfig::type_name`]); solver-level failures degrade into
    /// diagnostics instead.
    pub fn run(
        &mut self,
        queries: &[(String, Arc<Expr>)],
        dtds: &[(String, Arc<Dtd>)],
        config: &LintConfig,
        limits: &Limits,
    ) -> Result<LintReport, String> {
        let plan = plan(&mut self.az, queries, dtds, config)?;
        let outcomes: Vec<ProbeOutcome> = plan
            .probes
            .iter()
            .map(|p| solve_probe(&mut self.az, &p.problem, limits))
            .collect();
        let diagnostics = judge(&plan, &outcomes);
        Ok(LintReport {
            diagnostics,
            probes: plan.probes.len(),
        })
    }
}
