//! The shared solver kernel: one fixpoint driver, pluggable backends,
//! resource-governed runs.
//!
//! The paper presents the explicit (§6.2) and symbolic (§7) satisfiability
//! algorithms as two implementations of *one* bottom-up fixpoint over
//! ψ-types. This module captures that shape as the [`Backend`] trait — the
//! type-set representation, one `Upd` step, the root check, and the
//! per-iteration snapshots driving minimal-model reconstruction — and the
//! generic [`run_fixpoint`] driver that owns the iteration loop, the
//! termination test, the statistics, and the budget checks: every `Upd`
//! step is gated on the caller's [`Limits`] (wall-clock deadline, fixpoint
//! iteration cap), and a backend can abort a step from the inside (the
//! symbolic backend polls its BDD node budget between relational-product
//! clauses). `solve_explicit`, `solve_symbolic` and `solve_witnessed` are
//! thin wrappers that build a backend and hand it to the driver; future
//! backends (relevance-filtered, sharded, …) plug into the same seam.
//!
//! [`BackendChoice`] selects the backend through the analyzer down to
//! [`solve_with`]. The engine and the CLI always run symbolic; tests
//! select the two reference backends as oracles.

use std::fmt;
use std::str::FromStr;
use std::time::Instant;

use mulogic::{Formula, Logic};
use obs::{FieldValue, Recorder};

use crate::limits::{Exhausted, Limits, Resource};
use crate::outcome::{Model, Outcome, Solved, Stats, Telemetry};
use crate::prepare::Prepared;
use crate::symbolic::SymbolicOptions;

/// One backend of the satisfiability fixpoint.
///
/// A backend owns its representation of the proved type sets (bit-vector
/// enumerations, BDDs, witness maps, …) plus whatever per-iteration
/// snapshots its model reconstruction needs. The generic [`run_fixpoint`]
/// driver supplies the loop: step, check, repeat until a root hit or a
/// fixed point — aborting when a budget runs out.
pub trait Backend {
    /// Evidence of a root hit, carrying whatever the backend needs to
    /// reconstruct a model (a type index, a satisfying set BDD, a witness
    /// path, …).
    type Hit;

    /// Performs one `Upd` iteration (Fig 16), recording a snapshot for the
    /// later reconstruction. Returns whether the proved sets grew, or the
    /// budget hit that aborted the step (backends with mid-step poll
    /// points — the symbolic relational-product fold — report node-budget
    /// and deadline exhaustion from here; the driver's own per-step checks
    /// cover backends that never err).
    fn step(&mut self) -> Result<bool, Exhausted>;

    /// The root check on the current sets: for the plunging backends the
    /// `ψ`-filter on types with no pending backward modality (§7.1); for
    /// the witnessed backend the literal `FinalCheck`/`dsat` search.
    fn check(&mut self) -> Option<Self::Hit>;

    /// Rebuilds a minimal satisfying model from the recorded snapshots
    /// (§7.2).
    fn reconstruct(&mut self, hit: Self::Hit) -> Model;

    /// Backend-specific measurements (BDD node counts, enumerated types,
    /// …), snapshotted when the run finishes.
    fn telemetry(&self) -> Telemetry;

    /// A cheap point-in-time measurement of the backend's state, taken by
    /// the traced driver after every `step` to build the per-iteration
    /// `step` trace events. Only called when a trace [`Recorder`] is
    /// enabled, so backends may do modest work (a set-size walk) here.
    /// The default reports nothing — a backend without instrumentation
    /// still works under tracing.
    fn observe(&self) -> StepObservation {
        StepObservation::default()
    }
}

/// What one fixpoint iteration looked like from the outside — the raw
/// material of the `step` trace events. The driver turns consecutive
/// observations into deltas (node growth, frontier size, incremental cache
/// hit rate).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepObservation {
    /// Live size of the backend's representation: arena nodes for the
    /// symbolic backend, enumerated type count for the explicit ones.
    pub store_nodes: u64,
    /// Cumulative size of the proved sets (`T° ∪ T•` cardinality / proved
    /// triples). Monotone over a run; the driver derives the per-iteration
    /// frontier from its deltas.
    pub proved: u64,
    /// Operation-cache hits so far (symbolic backend only).
    pub cache_hits: u64,
    /// Operation-cache lookups so far (symbolic backend only).
    pub cache_lookups: u64,
}

/// Emits a `limit` trace event for a budget hit.
pub(crate) fn limit_event(rec: &Recorder, e: &Exhausted) {
    rec.event(
        "limit",
        &[
            ("resource", FieldValue::Str(e.resource.as_str())),
            ("spent", FieldValue::U64(e.spent)),
            ("limit", FieldValue::U64(e.limit)),
        ],
    );
}

/// Runs a backend to its fixpoint and packages the verdict.
///
/// The loop is the paper's: iterate `Upd` from the empty sets, checking
/// after every step whether a root type (marked when the goal mentions the
/// start proposition) passes the final check; stop on the first hit or as
/// soon as an iteration adds nothing. Before every step the driver checks
/// the caller's [`Limits`] — the wall-clock deadline and the iteration
/// cap — and a budget hit aborts the run with
/// [`SolveError::ResourceExhausted`] instead of a verdict. `lean_size` and
/// `closure_size` are carried into [`Stats`] verbatim.
///
/// # Example
///
/// A miniature backend: "is `n` reachable by doubling from 1?", with the
/// proved set standing in for the paper's ψ-type sets.
///
/// ```
/// use solver::{run_fixpoint, Backend, Exhausted, Limits, Model, Telemetry};
///
/// struct Doubling { proved: Vec<u64>, target: u64 }
///
/// impl Backend for Doubling {
///     type Hit = u64;
///     fn step(&mut self) -> Result<bool, Exhausted> {
///         let next = self.proved.last().copied().unwrap_or(1).wrapping_mul(2);
///         if self.proved.contains(&next) || next > self.target {
///             return Ok(false); // fixpoint reached
///         }
///         self.proved.push(next);
///         Ok(true)
///     }
///     fn check(&mut self) -> Option<u64> {
///         self.proved.contains(&self.target).then_some(self.target)
///     }
///     fn reconstruct(&mut self, _hit: u64) -> Model {
///         unreachable!("example never reconstructs")
///     }
///     fn telemetry(&self) -> Telemetry {
///         Telemetry::Explicit { types: self.proved.len() }
///     }
/// }
///
/// let backend = Doubling { proved: vec![1], target: 9 };
/// let solved = run_fixpoint(backend, 0, 0, &Limits::none()).unwrap();
/// assert!(!solved.outcome.is_satisfiable()); // 9 is not a power of two
/// assert!(solved.stats.iterations >= 3);
///
/// // The same run under a one-iteration cap exhausts instead.
/// let backend = Doubling { proved: vec![1], target: 9 };
/// let capped = Limits { max_iterations: Some(1), ..Limits::none() };
/// assert!(run_fixpoint(backend, 0, 0, &capped).is_err());
/// ```
pub fn run_fixpoint<B: Backend>(
    backend: B,
    lean_size: usize,
    closure_size: usize,
    limits: &Limits,
) -> Result<Solved, SolveError> {
    run_fixpoint_traced(backend, lean_size, closure_size, limits, &Recorder::noop())
}

/// [`run_fixpoint`] with trace recording: when `rec` is enabled, every
/// iteration emits a `step` event (iteration number, representation growth,
/// frontier size, operation-cache hit rate from [`Backend::observe`]) and
/// every budget hit emits a `limit` event before the error propagates. The
/// whole loop runs under a `fixpoint` phase span. With the noop recorder
/// this is exactly `run_fixpoint` — the observation calls are skipped.
pub fn run_fixpoint_traced<B: Backend>(
    mut backend: B,
    lean_size: usize,
    closure_size: usize,
    limits: &Limits,
    rec: &Recorder,
) -> Result<Solved, SolveError> {
    let t0 = Instant::now();
    let span = rec.span("fixpoint");
    let mut iterations = 0usize;
    let mut prev = StepObservation::default();
    let hit = loop {
        if let Some(cap) = limits.max_iterations {
            if iterations >= cap {
                let e = Exhausted {
                    resource: Resource::Iterations,
                    spent: iterations as u64,
                    limit: cap as u64,
                };
                limit_event(rec, &e);
                return Err(e.into());
            }
        }
        if let Some(deadline) = limits.deadline {
            let elapsed = t0.elapsed();
            if elapsed >= deadline {
                let e = Exhausted::wall_clock(elapsed, deadline);
                limit_event(rec, &e);
                return Err(e.into());
            }
        }
        // Cooperative cancellation, polled alongside the deadline: when the
        // caller gave up on the answer (a draining server), abort before
        // the next `Upd` step instead of computing sets nobody will read.
        if limits.cancel.is_cancelled() {
            let e = Exhausted::cancelled(t0.elapsed());
            limit_event(rec, &e);
            return Err(e.into());
        }
        iterations += 1;
        let step_started = rec.enabled().then(Instant::now);
        let changed = match backend.step() {
            Ok(changed) => changed,
            Err(e) => {
                limit_event(rec, &e);
                return Err(e.into());
            }
        };
        if let Some(started) = step_started {
            let o = backend.observe();
            let hits = o.cache_hits.saturating_sub(prev.cache_hits);
            let lookups = o.cache_lookups.saturating_sub(prev.cache_lookups);
            let rate = if lookups > 0 {
                hits as f64 / lookups as f64
            } else {
                0.0
            };
            rec.event(
                "step",
                &[
                    ("iter", FieldValue::U64(iterations as u64)),
                    ("changed", FieldValue::Bool(changed)),
                    ("nodes", FieldValue::U64(o.store_nodes)),
                    (
                        "nodes_delta",
                        FieldValue::I64(o.store_nodes as i64 - prev.store_nodes as i64),
                    ),
                    ("proved", FieldValue::U64(o.proved)),
                    (
                        "frontier",
                        FieldValue::U64(o.proved.saturating_sub(prev.proved)),
                    ),
                    ("cache_hit_rate", FieldValue::F64(rate)),
                    (
                        "dt_us",
                        FieldValue::U64(started.elapsed().as_micros() as u64),
                    ),
                ],
            );
            prev = o;
        }
        if let Some(hit) = backend.check() {
            break Some(hit);
        }
        if !changed {
            break None;
        }
    };
    drop(span);
    let outcome = match hit {
        None => Outcome::Unsatisfiable,
        Some(hit) => Outcome::Satisfiable(backend.reconstruct(hit)),
    };
    Ok(Solved {
        outcome,
        stats: Stats {
            lean_size,
            closure_size,
            iterations,
            duration: t0.elapsed(),
            telemetry: backend.telemetry(),
        },
    })
}

/// Backend selection: which solver answers a satisfiability query.
/// Threaded from the analyzer options down to [`solve_with`]; only tests
/// pick the reference backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendChoice {
    /// The BDD-based production algorithm of §7 (the default).
    #[default]
    Symbolic,
    /// The enumerated reference algorithm of §6.2.
    Explicit,
    /// The literal Fig 16 algorithm with explicit witness sets.
    Witnessed,
}

impl BackendChoice {
    /// Every choice, in protocol order.
    pub const ALL: [BackendChoice; 3] = [
        BackendChoice::Symbolic,
        BackendChoice::Explicit,
        BackendChoice::Witnessed,
    ];

    /// The protocol/CLI name of the choice.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendChoice::Symbolic => "symbolic",
            BackendChoice::Explicit => "explicit",
            BackendChoice::Witnessed => "witnessed",
        }
    }
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for BackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<BackendChoice, String> {
        BackendChoice::ALL
            .into_iter()
            .find(|b| b.as_str() == s)
            .ok_or_else(|| {
                format!("unknown backend `{s}` (expected symbolic, explicit or witnessed)")
            })
    }
}

/// Why a solve could not produce a verdict.
///
/// Two very different situations share this type, and callers are
/// expected to treat them differently:
///
/// * [`WitnessInvalid`](SolveError::WitnessInvalid) is a solver bug:
///   a reconstructed model failed the semantic oracle
///   (`mulogic::model_check`) or DTD re-validation. A wrong witness must
///   never be served as a silent `fails` verdict.
/// * [`ResourceExhausted`](SolveError::ResourceExhausted) is the *third
///   verdict*: a budget of the caller's [`Limits`] ran out before the
///   fixpoint finished. The property is neither proved nor refuted; the
///   engine protocol reports it as `"status":"unknown"` and never caches
///   it, so a retry with bigger limits re-solves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// A reconstructed witness failed its independent re-check: the
    /// model-checking oracle rejected it against the goal formula, or the
    /// document is invalid against its governing DTD. This is a solver bug
    /// surfaced loudly instead of an unsound verdict.
    WitnessInvalid {
        /// Display form of the goal formula the witness was checked
        /// against.
        formula: String,
        /// What the oracle rejected (`model_check refuted the witness`,
        /// `witness invalid against the DTD`, ...).
        reason: String,
        /// Compact XML of the rejected witness document.
        witness: String,
    },
    /// A resource budget ran out before the run could decide. Subsumes the
    /// old bespoke "explicit enumeration infeasible" error: a lean beyond
    /// [`Limits::max_lean_diamonds`] is reported as an exhaustion of
    /// [`Resource::LeanDiamonds`].
    ResourceExhausted {
        /// The resource that ran out.
        resource: Resource,
        /// How much was spent when the check fired (the resource's natural
        /// unit: milliseconds for wall clock, counts otherwise).
        spent: u64,
        /// The configured budget.
        limit: u64,
    },
}

impl SolveError {
    /// The exhaustion report, when this is a budget hit.
    pub fn exhausted(&self) -> Option<Exhausted> {
        match *self {
            SolveError::ResourceExhausted {
                resource,
                spent,
                limit,
            } => Some(Exhausted {
                resource,
                spent,
                limit,
            }),
            SolveError::WitnessInvalid { .. } => None,
        }
    }
}

impl From<Exhausted> for SolveError {
    fn from(e: Exhausted) -> SolveError {
        SolveError::ResourceExhausted {
            resource: e.resource,
            spent: e.spent,
            limit: e.limit,
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::WitnessInvalid {
                formula,
                reason,
                witness,
            } => write!(
                f,
                "invalid witness for `{formula}`: {reason} (witness: {witness})"
            ),
            SolveError::ResourceExhausted { .. } => {
                write!(f, "{}", self.exhausted().expect("exhausted variant"))
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Decides satisfiability on the chosen backend under the given limits.
///
/// The symbolic backend exhausts only when a deadline, node budget or
/// iteration cap is set. The enumerating backends (explicit, witnessed)
/// additionally return a [`Resource::LeanDiamonds`] exhaustion — instead
/// of panicking like their direct `solve_*` wrappers — when the lean
/// exceeds [`Limits::max_lean_diamonds`], so a service front end can turn
/// an oversized request into an `unknown` verdict.
pub fn solve_with(
    lg: &mut Logic,
    goal: Formula,
    backend: BackendChoice,
    opts: &SymbolicOptions,
    limits: &Limits,
) -> Result<Solved, SolveError> {
    let mut bdd = bdd::Bdd::new();
    solve_with_in(lg, goal, backend, opts, &mut bdd, limits)
}

/// [`solve_with`] inside a caller-owned BDD manager.
///
/// The symbolic backend runs in
/// `mgr`, which is reset — not reallocated — per problem (see
/// [`solve_symbolic_in`](crate::solve_symbolic_in)); the enumerating
/// backends ignore it. Long-lived workers hold one manager and thread it
/// through every call.
pub fn solve_with_in(
    lg: &mut Logic,
    goal: Formula,
    backend: BackendChoice,
    opts: &SymbolicOptions,
    mgr: &mut bdd::Bdd,
    limits: &Limits,
) -> Result<Solved, SolveError> {
    solve_with_traced(lg, goal, backend, opts, mgr, limits, &Recorder::noop())
}

/// [`solve_with_in`] with trace recording: phase spans (lean construction,
/// backend build, fixpoint), per-iteration `step` events and `limit`
/// events flow into `rec`. The noop recorder makes this identical to
/// `solve_with_in`.
pub fn solve_with_traced(
    lg: &mut Logic,
    goal: Formula,
    backend: BackendChoice,
    opts: &SymbolicOptions,
    mgr: &mut bdd::Bdd,
    limits: &Limits,
    rec: &Recorder,
) -> Result<Solved, SolveError> {
    match backend {
        BackendChoice::Symbolic => crate::solve_symbolic_traced(lg, goal, opts, mgr, limits, rec),
        BackendChoice::Explicit => {
            let prep = {
                let _span = rec.span("lean");
                Prepared::new(lg, goal)
            };
            enumeration_feasible(prep.lean.diam_entries().count(), limits, rec)?;
            crate::explicit::solve_prepared(lg, prep, limits, rec)
        }
        BackendChoice::Witnessed => {
            enumeration_feasible(crate::witnessed::lean_diamonds(lg, goal), limits, rec)?;
            crate::witnessed::solve_witnessed_bounded(lg, goal, limits, rec)
        }
    }
}

/// Errs, with a `limit` trace event, when a lean is too large for the
/// caller's enumeration cap. The cap is clamped to the enumerator's
/// representation limit, so a caller raising the cap arbitrarily high can
/// never push an oversized lean into the enumerator's panic path.
fn enumeration_feasible(
    diamonds: usize,
    limits: &Limits,
    rec: &Recorder,
) -> Result<(), SolveError> {
    let cap = limits
        .max_lean_diamonds
        .min(crate::bits::ENUMERATION_HARD_CAP);
    if diamonds > cap {
        let e = Exhausted {
            resource: Resource::LeanDiamonds,
            spent: diamonds as u64,
            limit: cap as u64,
        };
        limit_event(rec, &e);
        return Err(e.into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn choice_round_trips_through_names() {
        for b in BackendChoice::ALL {
            assert_eq!(b.as_str().parse::<BackendChoice>().unwrap(), b);
        }
        let err = "frobnicate".parse::<BackendChoice>().unwrap_err();
        assert!(err.contains("unknown backend `frobnicate`"), "{err}");
        assert_eq!(BackendChoice::default(), BackendChoice::Symbolic);
    }

    #[test]
    fn solve_with_dispatches_every_backend() {
        for b in BackendChoice::ALL {
            let mut lg = Logic::new();
            let sat = lg.parse("a & <1>b").unwrap();
            let s = solve_with(
                &mut lg,
                sat,
                b,
                &SymbolicOptions::default(),
                &Limits::default(),
            )
            .unwrap();
            assert!(s.outcome.is_satisfiable(), "{b}");
            let mut lg = Logic::new();
            let unsat = lg.parse("a & ~a").unwrap();
            let s = solve_with(
                &mut lg,
                unsat,
                b,
                &SymbolicOptions::default(),
                &Limits::default(),
            )
            .unwrap();
            assert!(!s.outcome.is_satisfiable(), "{b}");
        }
    }

    #[test]
    fn enumerating_backends_reject_oversized_leans() {
        // A disjunction of many distinct diamonds blows past the default
        // lean-diamond cap; every enumerating backend must report the
        // budget as exhausted — not panic (which would kill a serving
        // engine) and not hang.
        for backend in [BackendChoice::Explicit, BackendChoice::Witnessed] {
            let mut lg = Logic::new();
            let src: Vec<String> = (0..18).map(|i| format!("<1><2>l{i}")).collect();
            let goal = lg.parse(&src.join(" | ")).unwrap();
            let err = solve_with(
                &mut lg,
                goal,
                backend,
                &SymbolicOptions::default(),
                &Limits::default(),
            )
            .unwrap_err();
            match err {
                SolveError::ResourceExhausted {
                    resource: Resource::LeanDiamonds,
                    spent,
                    limit,
                } => {
                    assert!(spent > limit, "{backend}: {spent} vs {limit}");
                }
                other => panic!("{backend}: expected lean exhaustion, got {other}"),
            }
        }
    }

    #[test]
    fn raised_lean_cap_is_clamped_to_the_representation_limit() {
        // A caller may set the lean cap far past the enumerator's u32
        // mask limit; the feasibility check must clamp — returning a
        // typed exhaustion against the clamped cap — instead of letting
        // the oversized lean reach the enumerator's panic path.
        for backend in [BackendChoice::Explicit, BackendChoice::Witnessed] {
            let mut lg = Logic::new();
            let src: Vec<String> = (0..18).map(|i| format!("<1><2>l{i}")).collect();
            let goal = lg.parse(&src.join(" | ")).unwrap();
            let limits = Limits {
                max_lean_diamonds: 1_000_000,
                ..Limits::default()
            };
            let err = solve_with(&mut lg, goal, backend, &SymbolicOptions::default(), &limits)
                .unwrap_err();
            match err {
                SolveError::ResourceExhausted {
                    resource: Resource::LeanDiamonds,
                    spent,
                    limit,
                } => {
                    assert_eq!(limit, 26, "{backend}");
                    assert!(spent > limit, "{backend}: {spent} vs {limit}");
                }
                other => panic!("{backend}: expected lean exhaustion, got {other}"),
            }
        }
    }

    #[test]
    fn iteration_cap_reports_exhaustion_on_every_backend() {
        // A deep chain needs several Upd iterations; a one-iteration cap
        // must surface as a typed exhaustion, never a wrong verdict.
        for backend in BackendChoice::ALL {
            let mut lg = Logic::new();
            let goal = lg.parse("a & <1>(b & <1>(c & <1>d))").unwrap();
            let limits = Limits {
                max_iterations: Some(1),
                ..Limits::default()
            };
            let err = solve_with(&mut lg, goal, backend, &SymbolicOptions::default(), &limits)
                .unwrap_err();
            match err {
                SolveError::ResourceExhausted {
                    resource: Resource::Iterations,
                    spent,
                    limit,
                } => {
                    assert_eq!((spent, limit), (1, 1), "{backend}");
                }
                other => panic!("{backend}: expected iteration exhaustion, got {other}"),
            }
        }
    }

    #[test]
    fn zero_deadline_and_cancelled_token_exhaust_immediately() {
        let cancelled = crate::CancelToken::armed();
        cancelled.cancel();
        let cases = [
            (
                Limits {
                    deadline: Some(Duration::ZERO),
                    ..Limits::default()
                },
                Resource::WallClock,
            ),
            (
                Limits {
                    cancel: cancelled,
                    ..Limits::default()
                },
                Resource::Cancelled,
            ),
        ];
        for (limits, resource) in cases {
            for backend in BackendChoice::ALL {
                let mut lg = Logic::new();
                let goal = lg.parse("a & <1>b").unwrap();
                let err = solve_with(&mut lg, goal, backend, &SymbolicOptions::default(), &limits)
                    .unwrap_err();
                assert_eq!(
                    err.exhausted().map(|e| e.resource),
                    Some(resource),
                    "{backend}: {err}"
                );
            }
        }
    }

    #[test]
    fn node_budget_exhausts_the_symbolic_backend() {
        let mut lg = Logic::new();
        let goal = lg.parse("a & <1>(b & <2>(c & <1>d))").unwrap();
        let limits = Limits {
            max_bdd_nodes: Some(8),
            ..Limits::default()
        };
        let err = solve_with(
            &mut lg,
            goal,
            BackendChoice::Symbolic,
            &SymbolicOptions::default(),
            &limits,
        )
        .unwrap_err();
        match err {
            SolveError::ResourceExhausted {
                resource: Resource::BddNodes,
                spent,
                limit,
            } => {
                assert!(spent > limit, "{spent} vs {limit}");
                assert_eq!(limit, 8);
            }
            other => panic!("expected node exhaustion, got {other}"),
        }
        // The budget does not bother the enumerating backends.
        let s = solve_with(
            &mut lg,
            goal,
            BackendChoice::Explicit,
            &SymbolicOptions::default(),
            &limits,
        )
        .unwrap();
        assert!(s.outcome.is_satisfiable());
    }

    #[test]
    fn traced_solves_emit_phase_and_step_events() {
        use std::sync::Arc;
        for backend in BackendChoice::ALL {
            let mem = Arc::new(obs::MemorySink::new());
            let rec = Recorder::new(mem.clone());
            let mut lg = Logic::new();
            let goal = lg.parse("a & <1>(b & <2>c)").unwrap();
            let mut mgr = bdd::Bdd::new();
            let s = solve_with_traced(
                &mut lg,
                goal,
                backend,
                &SymbolicOptions::default(),
                &mut mgr,
                &Limits::default(),
                &rec,
            )
            .unwrap();
            assert!(s.outcome.is_satisfiable(), "{backend}");
            let events = mem.drain();
            let steps: Vec<_> = events.iter().filter(|e| e.kind == "step").collect();
            let phases: Vec<&'static str> = events
                .iter()
                .filter(|e| e.kind == "phase")
                .filter_map(|e| {
                    e.fields.iter().find_map(|(n, v)| match v {
                        FieldValue::Str(s) if *n == "phase" => Some(*s),
                        _ => None,
                    })
                })
                .collect();
            assert!(phases.contains(&"fixpoint"), "{backend}: phases {phases:?}");
            // One step event per driver iteration.
            let min_steps = s.stats.iterations;
            assert!(
                steps.len() >= min_steps.min(2),
                "{backend}: {} steps for {} iterations",
                steps.len(),
                min_steps
            );
            // Every step carries the envelope the schema documents.
            for e in &steps {
                for field in ["iter", "nodes", "proved", "frontier", "dt_us"] {
                    assert!(
                        e.fields.iter().any(|(n, _)| *n == field),
                        "{backend}: step missing {field}"
                    );
                }
            }
            // The proved measure grows monotonically within one solve.
            let proved: Vec<u64> = steps
                .iter()
                .filter_map(|e| {
                    e.fields.iter().find_map(|(n, v)| match v {
                        FieldValue::U64(u) if *n == "proved" => Some(*u),
                        _ => None,
                    })
                })
                .collect();
            assert!(
                proved.windows(2).all(|w| w[0] <= w[1]),
                "{backend}: proved not monotone: {proved:?}"
            );
        }
    }

    #[test]
    fn traced_budget_hits_emit_limit_events() {
        use std::sync::Arc;
        let mem = Arc::new(obs::MemorySink::new());
        let rec = Recorder::new(mem.clone());
        let mut lg = Logic::new();
        let goal = lg.parse("a & <1>(b & <1>(c & <1>d))").unwrap();
        let mut mgr = bdd::Bdd::new();
        let limits = Limits {
            max_iterations: Some(1),
            ..Limits::default()
        };
        let err = solve_with_traced(
            &mut lg,
            goal,
            BackendChoice::Symbolic,
            &SymbolicOptions::default(),
            &mut mgr,
            &limits,
            &rec,
        )
        .unwrap_err();
        assert!(matches!(err, SolveError::ResourceExhausted { .. }));
        let events = mem.drain();
        let limit = events
            .iter()
            .find(|e| e.kind == "limit")
            .expect("limit event recorded");
        assert!(
            limit
                .fields
                .iter()
                .any(|(n, v)| *n == "resource"
                    && *v == FieldValue::Str(Resource::Iterations.as_str()))
        );
    }

    #[test]
    fn generous_limits_do_not_change_verdicts() {
        let generous = Limits {
            deadline: Some(Duration::from_secs(120)),
            max_bdd_nodes: Some(100_000_000),
            max_iterations: Some(1_000_000),
            max_lean_diamonds: 16,
            ..Limits::none()
        };
        for (src, expect) in [("a & <1>b", true), ("a & ~a", false)] {
            for backend in BackendChoice::ALL {
                let mut lg = Logic::new();
                let goal = lg.parse(src).unwrap();
                let s = solve_with(
                    &mut lg,
                    goal,
                    backend,
                    &SymbolicOptions::default(),
                    &generous,
                )
                .unwrap();
                assert_eq!(s.outcome.is_satisfiable(), expect, "{backend}: {src}");
            }
        }
    }
}
