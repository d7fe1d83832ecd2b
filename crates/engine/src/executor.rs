//! The batch executor.
//!
//! A batch is an ordered list of requests. Registrations take effect in
//! request order during a sequential resolution pass (each decision problem
//! snapshots `Arc` handles to the artifacts it references, so later
//! rebindings cannot affect earlier problems). The resolved problems are
//! then deduplicated on their canonical structural key — the problem, its
//! effective limits and its trace flag — and solved on the engine's
//! [`Pool`]. Duplicate occurrences and problems already solved earlier
//! are served from the pool's memo and reported with `"cached":true`.
//! `unknown` verdicts (exhausted budgets) and solver-level failures
//! (rejected witnesses) become per-request responses and are **never**
//! cached — a retry with bigger limits must re-solve. Lint probes take
//! the same dedup-and-solve path.

use std::collections::HashMap;
use std::time::Instant;

use analyzer::Limits;

use crate::json::{obj, Value};
use crate::pool::{Pool, WorkItem};
use crate::problem::{duration_ms, RunOutcome};
use crate::protocol::{
    effective_limits, error_response, outcome_response, registration_response, Op, Request,
    RequestKind,
};
use crate::workspace::Workspace;

/// Aggregate measurements of one batch run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// Requests in the batch (registrations + problems + errors).
    pub requests: usize,
    /// Decision problems among them.
    pub problems: usize,
    /// Distinct problems after canonical deduplication.
    pub unique_problems: usize,
    /// Problems answered from the memo cache (duplicates within the batch
    /// plus hits from earlier work).
    pub cache_hits: usize,
    /// Problems that actually ran a solve (including runs that came back
    /// `unknown` or failed a cross-check): the complement of `cache_hits`
    /// over the decision problems that reached the executor.
    pub cache_misses: usize,
    /// Problems that came back `"status":"unknown"`: a resource budget ran
    /// out before the solve could decide. Never cached.
    pub unknown: usize,
    /// Requests that failed: parse or resolution errors, plus solver-level
    /// failures (witnesses the verification oracles rejected).
    pub errors: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall clock for the batch, in milliseconds.
    pub wall_ms: f64,
}

impl BatchStats {
    /// Solved problems per second of batch wall-clock.
    pub fn problems_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.problems as f64 / (self.wall_ms / 1000.0)
    }

    /// The stats as a JSON object (the batch summary line).
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("requests", Value::from(self.requests)),
            ("problems", Value::from(self.problems)),
            ("unique_problems", Value::from(self.unique_problems)),
            ("cache_hits", Value::from(self.cache_hits)),
            ("cache_misses", Value::from(self.cache_misses)),
            (
                "metrics",
                obj(vec![(
                    "memo",
                    obj(vec![
                        ("hits", Value::from(self.cache_hits)),
                        ("misses", Value::from(self.cache_misses)),
                    ]),
                )]),
            ),
            ("unknown", Value::from(self.unknown)),
            ("errors", Value::from(self.errors)),
            ("threads", Value::from(self.threads)),
            (
                "wall_ms",
                Value::Num((self.wall_ms * 1000.0).round() / 1000.0),
            ),
            (
                "problems_per_sec",
                Value::Num((self.problems_per_sec() * 10.0).round() / 10.0),
            ),
        ])
    }
}

/// The responses of a batch, in request order, plus aggregate stats.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One response per request, in the order the requests were given.
    pub responses: Vec<Value>,
    /// Aggregate measurements.
    pub stats: BatchStats,
}

/// One resolved decision problem awaiting execution.
struct PendingProblem {
    /// Index into the batch's response vector.
    slot: usize,
    /// Echoed client id.
    id: Option<Value>,
    /// The operation, echoed canonically on the response.
    op: Op,
    /// Index into the deduplicated work list.
    work: usize,
    /// Whether an earlier request in this batch maps to the same work
    /// item.
    duplicate: bool,
}

/// The deduplicated work list of one batch or lint run.
#[derive(Default)]
struct Dedup {
    items: Vec<WorkItem>,
    // `WorkItem` embeds `Limits`, whose `CancelToken` has interior
    // mutability — but the token's `Eq`/`Hash` deliberately ignore it
    // (all tokens compare equal), so the key is stable in this map.
    index: HashMap<WorkItem, usize>,
}

impl Dedup {
    /// The item's index in the work list, and whether an earlier insert
    /// already posed it.
    fn insert(&mut self, item: WorkItem) -> (usize, bool) {
        if let Some(&i) = self.index.get(&item) {
            return (i, true);
        }
        let i = self.items.len();
        self.index.insert(item.clone(), i);
        self.items.push(item);
        (i, false)
    }
}

pub(crate) fn run_batch(
    workspace: &mut Workspace,
    pool: &Pool,
    default_limits: &Limits,
    requests: &[Request],
) -> BatchOutcome {
    let started = Instant::now();
    let mut stats = BatchStats {
        requests: requests.len(),
        threads: pool.threads(),
        ..BatchStats::default()
    };

    // Pass 1 (sequential): apply registrations in order; resolve decision
    // problems against the workspace as it stood when they were posed.
    let mut responses: Vec<Option<Value>> = (0..requests.len()).map(|_| None).collect();
    let mut pending: Vec<PendingProblem> = Vec::new();
    let mut work = Dedup::default();
    for (slot, req) in requests.iter().enumerate() {
        let id = req.id.as_ref();
        let response = match &req.kind {
            RequestKind::RegisterDtd { name, source } => workspace
                .register_dtd(name, source)
                .map(|()| registration_response(id, "dtd", name)),
            RequestKind::RegisterQuery { name, xpath } => workspace
                .register_query(name, xpath)
                .map(|()| registration_response(id, "query", name)),
            RequestKind::Problem {
                spec,
                limits,
                trace,
            } => match spec.resolve(workspace) {
                Ok(problem) => {
                    stats.problems += 1;
                    let (item, duplicate) = work.insert(WorkItem {
                        problem,
                        limits: effective_limits(limits.as_ref(), default_limits),
                        trace: *trace,
                    });
                    pending.push(PendingProblem {
                        slot,
                        id: req.id.clone(),
                        op: spec.op(),
                        work: item,
                        duplicate,
                    });
                    continue;
                }
                Err(e) => Err(e),
            },
            RequestKind::Lint(_) => Err("`lint` runs on the sequential front end; \
                 it is not valid inside a batch"
                .to_owned()),
            RequestKind::Stats
            | RequestKind::Metrics
            | RequestKind::SlowLog
            | RequestKind::Reset => Err("`stats`/`metrics`/`slowlog`/`reset` are service ops; \
                 they are not valid inside a batch"
                .to_owned()),
        };
        responses[slot] = Some(response.unwrap_or_else(|e| {
            stats.errors += 1;
            error_response(id, &e)
        }));
    }
    stats.unique_problems = work.items.len();

    // Pass 2: solve the deduplicated work on the pool.
    let results = pool.solve_all(work.items);

    // Pass 3: fill problem responses in request order. A work item with no
    // result (a lost task — which panic containment should make
    // impossible) degrades that one response to an error instead of
    // aborting the whole batch.
    for p in pending {
        let Some(solved) = &results[p.work] else {
            stats.errors += 1;
            stats.cache_misses += 1;
            responses[p.slot] = Some(error_response(
                p.id.as_ref(),
                "internal: the work item for this request was never executed; \
                 the response degraded to an error",
            ));
            continue;
        };
        let cached = solved.cached || p.duplicate;
        match &solved.outcome {
            RunOutcome::Verdict(_) if cached => stats.cache_hits += 1,
            RunOutcome::Verdict(_) => stats.cache_misses += 1,
            RunOutcome::Unknown(_) => {
                stats.unknown += 1;
                stats.cache_misses += 1;
            }
            RunOutcome::Error(_) => {
                stats.errors += 1;
                stats.cache_misses += 1;
            }
        }
        responses[p.slot] = Some(outcome_response(
            p.id.as_ref(),
            p.op,
            &solved.outcome,
            cached,
            solved.trace.clone(),
        ));
    }

    stats.wall_ms = duration_ms(started.elapsed());
    // Every slot should be filled by now; an unanswered one (a bookkeeping
    // bug) becomes an error response rather than a process abort.
    let responses = responses
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                stats.errors += 1;
                error_response(
                    None,
                    "internal: this request was never answered; \
                     the response degraded to an error",
                )
            })
        })
        .collect();
    BatchOutcome { responses, stats }
}

/// Aggregate counters for one lint probe run, folded into the engine's
/// session counters by `Engine::run_lint`.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ProbeStats {
    /// Probes answered from the memo cache (in-plan duplicates included).
    pub hits: usize,
    /// Probes that ran a fresh solve.
    pub misses: usize,
    /// Probes whose solve exhausted a budget.
    pub unknown: usize,
}

/// Solves a lint plan's probes exactly like batch decision problems:
/// deduplicated, solved on the pool, served from and inserted into the
/// shared memo — a lint run warms the cache for later `check`/batch
/// traffic and vice versa. Returns one [`lint::ProbeOutcome`] per probe,
/// in probe order.
pub(crate) fn solve_probes(
    pool: &Pool,
    limits: &Limits,
    probes: &[lint::Probe],
) -> (Vec<lint::ProbeOutcome>, ProbeStats) {
    // Distinct rules frequently pose the same problem (a step prefix
    // shared by dead-step and contradiction probes); each unique problem
    // runs once.
    let mut work = Dedup::default();
    let slots: Vec<(usize, bool)> = probes
        .iter()
        .map(|probe| {
            work.insert(WorkItem {
                problem: probe.problem.clone(),
                limits: limits.clone(),
                trace: false,
            })
        })
        .collect();
    let results = pool.solve_all(work.items);

    let mut stats = ProbeStats::default();
    let outcomes = slots
        .iter()
        .map(|&(j, duplicate)| {
            let Some(solved) = &results[j] else {
                stats.misses += 1;
                return lint::ProbeOutcome::Error {
                    reason: "internal: this lint probe was never executed".to_owned(),
                };
            };
            match &solved.outcome {
                RunOutcome::Verdict(v) => {
                    if solved.cached || duplicate {
                        stats.hits += 1;
                    } else {
                        stats.misses += 1;
                    }
                    let witness = v.counter_example.clone();
                    if v.holds {
                        lint::ProbeOutcome::Holds { witness }
                    } else {
                        lint::ProbeOutcome::Fails { witness }
                    }
                }
                RunOutcome::Unknown(u) => {
                    stats.misses += 1;
                    stats.unknown += 1;
                    lint::ProbeOutcome::Unknown {
                        reason: u.reason.clone(),
                    }
                }
                RunOutcome::Error(e) => {
                    stats.misses += 1;
                    lint::ProbeOutcome::Error { reason: e.clone() }
                }
            }
        })
        .collect();
    (outcomes, stats)
}
