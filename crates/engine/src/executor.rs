//! The parallel batch executor.
//!
//! A batch is an ordered list of requests. Registrations take effect in
//! request order during a sequential resolution pass (each decision problem
//! snapshots `Arc` handles to the artifacts it references, so later
//! rebindings cannot affect earlier problems). The resolved problems are
//! then deduplicated on their canonical structural key — the problem, the
//! backend it runs on, *and* its effective limits — and fanned out over
//! worker threads: each worker owns a long-lived [`Analyzer`] — its own
//! formula arena and BDD manager — while all workers share one verdict
//! memo cache behind a mutex. The memo cache is keyed by `(problem,
//! backend)` alone: a definite verdict is valid whatever budget produced
//! it. Duplicate occurrences and problems already solved in previous
//! batches (or by the sequential front end) are served from the cache and
//! reported with `"cached":true`. `unknown` verdicts (exhausted budgets)
//! and solver-level failures (rejected witnesses) become per-request
//! responses and are **never** cached — a retry with bigger limits must re-solve.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use analyzer::{Analyzer, AnalyzerOptions, BackendChoice, Limits};
use obs::{FieldValue, MemorySink, Recorder, Sink, SlowEntry, SlowLog};

use crate::json::{obj, Value};
use crate::problem::{duration_ms, outcome_status, run_job, Job, RunOutcome, Verdict};
use crate::protocol::{
    error_response, registration_response, trace_value, unknown_response, verdict_response, Op,
    Request, RequestKind,
};
use crate::workspace::Workspace;

/// Observability context shared by the sequential front end and the batch
/// workers: the optional process-wide JSONL trace sink, the slow-solve
/// threshold, and the ring buffer capturing slow solves.
pub(crate) struct ObsCtx<'a> {
    /// Every solve's events also stream here when set (`--trace-file`).
    pub trace_sink: Option<&'a Arc<dyn Sink>>,
    /// Solves slower than this capture their full trace into `slow_log`.
    pub slow_ms: Option<u64>,
    /// The slow-solve ring buffer.
    pub slow_log: &'a SlowLog,
}

impl ObsCtx<'_> {
    /// Builds the per-solve recorder: the process-wide trace sink (when
    /// configured) plus a memory sink when the caller needs the events
    /// back — for a `"trace": true` response or slow-solve capture. With
    /// neither, the recorder is a noop and the solve runs untraced.
    pub(crate) fn recorder(&self, trace: bool) -> (Recorder, Option<Arc<MemorySink>>) {
        let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
        if let Some(f) = self.trace_sink {
            sinks.push(f.clone());
        }
        let capture = (trace || self.slow_ms.is_some()).then(|| Arc::new(MemorySink::new()));
        if let Some(mem) = &capture {
            sinks.push(mem.clone() as Arc<dyn Sink>);
        }
        (Recorder::with_sinks(sinks), capture)
    }

    /// Captures the solve into the slow log when it exceeded the
    /// threshold. `events` is the solve's drained trace.
    pub(crate) fn note_slow(
        &self,
        job: &Job,
        status: &'static str,
        wall_ms: f64,
        events: &[obs::Event],
    ) {
        let Some(threshold) = self.slow_ms else {
            return;
        };
        if wall_ms <= threshold as f64 {
            return;
        }
        self.slow_log.push(SlowEntry {
            op: job.problem.op_name(),
            backend: job.backend.as_str(),
            status,
            wall_ms,
            threshold_ms: threshold,
            cached: false,
            events: events.to_vec(),
        });
    }
}

/// Runs one job with panic containment: a panicking solve produces a
/// [`RunOutcome::Error`] and rebuilds the worker's analyzer (its arenas
/// may be mid-mutation), so one poisoned problem degrades one response
/// instead of killing the worker — and with it every other response of
/// the batch. Each contained panic increments `xsat_worker_panics_total`.
pub fn run_job_contained(
    az: &mut Analyzer,
    options: &AnalyzerOptions,
    job: &Job,
    limits: &Limits,
    rec: &Recorder,
) -> RunOutcome {
    match std::panic::catch_unwind(AssertUnwindSafe(|| run_job(az, job, limits, rec))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            *az = Analyzer::with_options(options.clone());
            obs::metrics()
                .counter("xsat_worker_panics_total", &[])
                .inc();
            RunOutcome::Error(format!(
                "solver panicked ({}); the worker analyzer was rebuilt and \
                 this response degraded to an error",
                panic_message(&payload)
            ))
        }
    }
}

/// Best-effort text of a panic payload (the `&str`/`String` carried by
/// `panic!`; anything else renders as an opaque marker).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// One memo-cache lookup: the `memo` trace event plus the process-wide
/// hit/miss counters.
pub fn note_memo_lookup(rec: &Recorder, job: &Job, hit: bool) {
    rec.event(
        "memo",
        &[
            ("hit", FieldValue::Bool(hit)),
            ("op", FieldValue::Str(job.problem.op_name())),
            ("backend", FieldValue::Str(job.backend.as_str())),
        ],
    );
    let name = if hit {
        "xsat_memo_hits_total"
    } else {
        "xsat_memo_misses_total"
    };
    obs::metrics().counter(name, &[]).inc();
}

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

/// One deduplicated unit of parallel work: the memo key plus the limits
/// that govern the solve if the cache misses. The in-batch dedup key
/// includes the limits — two requests for the same problem under
/// different budgets must not share one (possibly `unknown`) run — while
/// the shared memo cache is keyed by the [`Job`] alone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct WorkItem {
    job: Job,
    limits: Limits,
    /// Whether some request wants this item's event trace back. Part of
    /// the dedup key: a traced request must not be served an untraced
    /// run (it would have no events to return).
    trace: bool,
}

// The engine's full execution context is genuinely this wide; bundling
// the arguments into a one-use struct would only rename the problem.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_batch(
    workspace: &mut Workspace,
    workers: &mut [Analyzer],
    options: &AnalyzerOptions,
    cache: &Mutex<HashMap<Job, Verdict>>,
    default_backend: BackendChoice,
    default_limits: &Limits,
    obs_ctx: &ObsCtx<'_>,
    requests: &[Request],
) -> BatchOutcome {
    let started = Instant::now();
    let mut stats = BatchStats {
        requests: requests.len(),
        threads: workers.len(),
        ..BatchStats::default()
    };

    // Pass 1 (sequential): apply registrations in order; resolve decision
    // problems against the workspace as it stood when they were posed.
    let mut responses: Vec<Option<Value>> = (0..requests.len()).map(|_| None).collect();
    let mut pending: Vec<PendingProblem> = Vec::new();
    let mut work: Vec<WorkItem> = Vec::new();
    // `WorkItem` embeds `Limits`, whose `CancelToken` has interior
    // mutability — but the token's `Eq`/`Hash` deliberately ignore it
    // (all tokens compare equal), so the key is stable in this map.
    #[allow(clippy::mutable_key_type)]
    let mut work_of: HashMap<WorkItem, usize> = HashMap::new();
    for (slot, req) in requests.iter().enumerate() {
        match &req.kind {
            RequestKind::RegisterDtd { name, source } => {
                responses[slot] = Some(match workspace.register_dtd(name, source) {
                    Ok(()) => registration_response(req.id.as_ref(), "dtd", name),
                    Err(e) => {
                        stats.errors += 1;
                        error_response(req.id.as_ref(), &e)
                    }
                });
            }
            RequestKind::RegisterQuery { name, xpath } => {
                responses[slot] = Some(match workspace.register_query(name, xpath) {
                    Ok(()) => registration_response(req.id.as_ref(), "query", name),
                    Err(e) => {
                        stats.errors += 1;
                        error_response(req.id.as_ref(), &e)
                    }
                });
            }
            RequestKind::Problem {
                spec,
                backend,
                limits,
                trace,
            } => match spec.resolve(workspace) {
                Ok(problem) => {
                    stats.problems += 1;
                    let key = WorkItem {
                        job: Job {
                            problem,
                            backend: backend.unwrap_or(default_backend),
                        },
                        limits: limits
                            .as_ref()
                            .map_or_else(|| default_limits.clone(), |l| l.apply(default_limits)),
                        trace: *trace,
                    };
                    let (item, duplicate) = match work_of.get(&key) {
                        Some(&j) => (j, true),
                        None => {
                            let j = work.len();
                            work_of.insert(key.clone(), j);
                            work.push(key);
                            (j, false)
                        }
                    };
                    pending.push(PendingProblem {
                        slot,
                        id: req.id.clone(),
                        op: spec.op(),
                        work: item,
                        duplicate,
                    });
                }
                Err(e) => {
                    stats.errors += 1;
                    responses[slot] = Some(error_response(req.id.as_ref(), &e));
                }
            },
            RequestKind::Lint(_) => {
                responses[slot] = Some(error_response(
                    req.id.as_ref(),
                    "`lint` runs on the sequential front end; \
                     it is not valid inside a batch",
                ));
                stats.errors += 1;
            }
            RequestKind::Stats
            | RequestKind::Metrics
            | RequestKind::SlowLog
            | RequestKind::Reset => {
                responses[slot] = Some(error_response(
                    req.id.as_ref(),
                    "`stats`/`metrics`/`slowlog`/`reset` are service ops; \
                     they are not valid inside a batch",
                ));
                stats.errors += 1;
            }
        }
    }
    stats.unique_problems = work.len();

    // Pass 2 (parallel): fan the deduplicated work out over the workers.
    // `(outcome, was_cache_hit, trace)` per item; only definite verdicts
    // are inserted into the memo cache — unknowns and failed cross-checks
    // are not. The queue-depth gauge tracks the unclaimed work remaining.
    let results: Vec<OnceLock<(RunOutcome, bool, Option<Value>)>> =
        (0..work.len()).map(|_| OnceLock::new()).collect();
    let queue_depth = obs::metrics().gauge("xsat_executor_queue_depth", &[]);
    queue_depth.set(work.len() as u64);
    let cursor = AtomicUsize::new(0);
    let work_ref = &work;
    let results_ref = &results;
    let cursor_ref = &cursor;
    let queue_ref = &queue_depth;
    std::thread::scope(|scope| {
        for az in workers.iter_mut() {
            scope.spawn(move || loop {
                let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                let Some(item) = work_ref.get(i) else {
                    break;
                };
                queue_ref.sub(1);
                let (rec, capture) = obs_ctx.recorder(item.trace);
                let hit = lock(cache).get(&item.job).cloned();
                note_memo_lookup(&rec, &item.job, hit.is_some());
                let (outcome, cached) = match hit {
                    Some(v) => (RunOutcome::Verdict(v), true),
                    None => {
                        let outcome = run_job_contained(az, options, &item.job, &item.limits, &rec);
                        if let RunOutcome::Verdict(v) = &outcome {
                            lock(cache).insert(item.job.clone(), v.clone());
                        }
                        (outcome, false)
                    }
                };
                let trace = capture.map(|mem| mem.drain()).map(|events| {
                    if !cached {
                        let wall_ms = match &outcome {
                            RunOutcome::Verdict(v) => v.wall_ms,
                            RunOutcome::Unknown(u) => u.wall_ms,
                            RunOutcome::Error(_) => 0.0,
                        };
                        obs_ctx.note_slow(&item.job, outcome_status(&outcome), wall_ms, &events);
                    }
                    trace_value(&events)
                });
                // First write wins; a duplicate write (which would take a
                // scheduling bug) is dropped rather than panicking the
                // worker.
                let _ =
                    results_ref[i].set((outcome, cached, item.trace.then_some(trace).flatten()));
            });
        }
    });

    // Pass 3: fill problem responses in request order. A work item with no
    // result (a lost worker — which catch_unwind should make impossible)
    // degrades that one response to an error instead of aborting the
    // whole batch.
    for p in pending {
        let Some((outcome, item_was_hit, trace)) = results[p.work].get() else {
            stats.errors += 1;
            stats.cache_misses += 1;
            responses[p.slot] = Some(error_response(
                p.id.as_ref(),
                "internal: the work item for this request was never executed; \
                 the response degraded to an error",
            ));
            continue;
        };
        match outcome {
            RunOutcome::Error(e) => {
                stats.errors += 1;
                stats.cache_misses += 1;
                responses[p.slot] = Some(error_response(p.id.as_ref(), e));
            }
            RunOutcome::Unknown(u) => {
                stats.unknown += 1;
                stats.cache_misses += 1;
                responses[p.slot] = Some(unknown_response(p.id.as_ref(), p.op, u, trace.clone()));
            }
            RunOutcome::Verdict(verdict) => {
                let cached = *item_was_hit || p.duplicate;
                if cached {
                    stats.cache_hits += 1;
                } else {
                    stats.cache_misses += 1;
                }
                // A cache-served answer costs ~nothing, whether the hit
                // came from a duplicate in this batch or from earlier
                // work; the stored wall_ms describes the original run.
                let wall_ms = if cached { 0.0 } else { verdict.wall_ms };
                responses[p.slot] = Some(verdict_response(
                    p.id.as_ref(),
                    p.op,
                    verdict,
                    cached,
                    wall_ms,
                    trace.clone(),
                ));
            }
        }
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

/// Aggregate counters for one lint probe fan-out, folded into the engine's
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

/// Solves a lint plan's probes through the batch machinery: probes are
/// deduplicated on their canonical [`Job`] key, fanned out over the worker
/// analyzers, and served from / inserted into the shared memo cache exactly
/// like batch decision problems — a lint run warms the cache for later
/// `check`/batch traffic and vice versa. Returns one [`lint::ProbeOutcome`]
/// per probe, in probe order.
pub(crate) fn solve_probes(
    workers: &mut [Analyzer],
    options: &AnalyzerOptions,
    cache: &Mutex<HashMap<Job, Verdict>>,
    backend: BackendChoice,
    limits: &Limits,
    obs_ctx: &ObsCtx<'_>,
    probes: &[lint::Probe],
) -> (Vec<lint::ProbeOutcome>, ProbeStats) {
    // Dedup on the memo key: distinct rules frequently pose the same
    // problem (a step prefix shared by dead-step and contradiction
    // probes), and each unique job must run exactly once.
    let mut jobs: Vec<Job> = Vec::new();
    let mut job_of: HashMap<Job, usize> = HashMap::new();
    let mut slots: Vec<(usize, bool)> = Vec::with_capacity(probes.len());
    for probe in probes {
        let job = Job {
            problem: probe.problem.clone(),
            backend,
        };
        match job_of.get(&job) {
            Some(&j) => slots.push((j, true)),
            None => {
                let j = jobs.len();
                job_of.insert(job.clone(), j);
                jobs.push(job);
                slots.push((j, false));
            }
        }
    }

    let results: Vec<OnceLock<(RunOutcome, bool)>> =
        (0..jobs.len()).map(|_| OnceLock::new()).collect();
    let queue_depth = obs::metrics().gauge("xsat_executor_queue_depth", &[]);
    queue_depth.set(jobs.len() as u64);
    let cursor = AtomicUsize::new(0);
    let jobs_ref = &jobs;
    let results_ref = &results;
    let cursor_ref = &cursor;
    let queue_ref = &queue_depth;
    std::thread::scope(|scope| {
        for az in workers.iter_mut() {
            scope.spawn(move || loop {
                let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs_ref.get(i) else {
                    break;
                };
                queue_ref.sub(1);
                let (rec, capture) = obs_ctx.recorder(false);
                let hit = lock(cache).get(job).cloned();
                note_memo_lookup(&rec, job, hit.is_some());
                let (outcome, cached) = match hit {
                    Some(v) => (RunOutcome::Verdict(v), true),
                    None => {
                        let outcome = run_job_contained(az, options, job, limits, &rec);
                        if let RunOutcome::Verdict(v) = &outcome {
                            lock(cache).insert(job.clone(), v.clone());
                        }
                        (outcome, false)
                    }
                };
                if !cached {
                    if let Some(events) = capture.map(|mem| mem.drain()) {
                        let wall_ms = match &outcome {
                            RunOutcome::Verdict(v) => v.wall_ms,
                            RunOutcome::Unknown(u) => u.wall_ms,
                            RunOutcome::Error(_) => 0.0,
                        };
                        obs_ctx.note_slow(job, outcome_status(&outcome), wall_ms, &events);
                    }
                }
                let _ = results_ref[i].set((outcome, cached));
            });
        }
    });

    let mut stats = ProbeStats::default();
    let outcomes = slots
        .iter()
        .map(|&(j, duplicate)| {
            let Some((outcome, job_was_hit)) = results[j].get() else {
                stats.misses += 1;
                return lint::ProbeOutcome::Error {
                    reason: "internal: this lint probe was never executed".to_owned(),
                };
            };
            match outcome {
                RunOutcome::Verdict(v) => {
                    if *job_was_hit || duplicate {
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

/// Locks ignoring poisoning: a panicked worker must not wedge the service,
/// and cached verdicts are only ever inserted whole.
pub(crate) fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
