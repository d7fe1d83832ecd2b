//! The worker pool: long-lived threads, one warm [`Analyzer`] each, the
//! shared verdict memo, and the one function that runs a solve.
//!
//! Every solve in the workspace — batch items, lint probes, the
//! sequential front end and the TCP tier's admitted problems — runs as
//! [`Worker::solve`] on a pool thread: memo lookup, the solve under panic
//! containment, definite verdicts (only) into the memo, then the trace
//! drained and slow solves recorded. The memo is keyed by the problem
//! alone: a definite verdict is valid whatever budget produced it, while
//! `unknown` verdicts and solver-level failures are never cached — a
//! retry with bigger limits must re-solve.
//!
//! Work arrives as boxed [`Task`] closures through a bounded queue.
//! [`Pool::try_submit`] never blocks: a full (or closed) queue hands the
//! task back, which is the TCP tier's signal to shed the request.
//! Workers block on the queue; [`Pool::close`] lets them finish the
//! backlog and exit, and dropping the pool closes it and joins them.
//!
//! A panicking solve degrades to one [`RunOutcome::Error`]; a task that
//! panics anywhere else still leaves its worker alive. Either way the
//! worker rebuilds its analyzer (its arenas may be mid-mutation) and
//! `xsat_worker_panics_total` counts the panic. `Pool::reset` bumps a
//! generation counter, and each worker rebuilds its analyzer before its
//! next task.

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use analyzer::Analyzer;
use obs::{FieldValue, Gauge, MemorySink, Recorder, Sink, SlowEntry, SlowLog};
use solver::Limits;

use crate::json::Value;
use crate::problem::{outcome_status, run_problem, Problem, RunOutcome, Verdict};
use crate::protocol::{trace_value, BACKEND};

/// One unit of pool work: runs once, on whichever worker pops it.
pub type Task = Box<dyn FnOnce(&mut Worker) + Send>;

/// Construction-time knobs of a [`Pool`].
pub struct PoolConfig {
    /// Worker threads; `0` picks the machine's available parallelism
    /// (capped at 16).
    pub threads: usize,
    /// Queue bound: [`Pool::try_submit`] refuses tasks beyond it.
    pub queue_depth: usize,
    /// Every solve's trace events also stream here when set.
    pub trace_sink: Option<Arc<dyn Sink>>,
    /// Solves slower than this many milliseconds capture their full
    /// trace into the pool's slow log; `None` disables capture.
    pub slow_solve_ms: Option<u64>,
    /// The gauge that reports the queue's backlog.
    pub queue_gauge: &'static str,
}

/// What one [`Worker::solve`] produced.
#[derive(Debug, Clone)]
pub struct Solved {
    /// The verdict, `unknown` or error.
    pub outcome: RunOutcome,
    /// Whether the memo answered (no solve ran).
    pub cached: bool,
    /// The solve's event trace, when the caller asked for it.
    pub trace: Option<Value>,
}

/// A resolved decision problem with the limits and trace flag its solve
/// runs under. Batches deduplicate on the whole item: two requests for
/// the same problem under different budgets must not share one (possibly
/// `unknown`) run, and a traced request must not be served an untraced
/// run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct WorkItem {
    pub problem: Problem,
    pub limits: Limits,
    pub trace: bool,
}

/// State the pool's owner and its workers share.
struct Shared {
    queue: Queue<Task>,
    /// Bumped by [`Pool::reset`]; a worker whose analyzer is older
    /// rebuilds it before its next task.
    generation: AtomicU64,
    memo: Mutex<HashMap<Problem, Verdict>>,
    trace_sink: Option<Arc<dyn Sink>>,
    slow_ms: Option<u64>,
    slow_log: SlowLog,
}

impl Shared {
    /// Builds the per-solve recorder: the process-wide trace sink (when
    /// configured) plus a memory sink when the caller needs the events
    /// back — for a `"trace": true` response or slow-solve capture. With
    /// neither, the recorder is a noop and the solve runs untraced.
    fn recorder(&self, trace: bool) -> (Recorder, Option<Arc<MemorySink>>) {
        let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
        if let Some(f) = &self.trace_sink {
            sinks.push(f.clone());
        }
        let capture = (trace || self.slow_ms.is_some()).then(|| Arc::new(MemorySink::new()));
        if let Some(mem) = &capture {
            sinks.push(mem.clone() as Arc<dyn Sink>);
        }
        (Recorder::with_sinks(sinks), capture)
    }

    /// Captures a computed solve into the slow log when it exceeded the
    /// threshold. `events` is the solve's drained trace.
    fn note_slow(&self, problem: &Problem, outcome: &RunOutcome, events: &[obs::Event]) {
        let Some(threshold) = self.slow_ms else {
            return;
        };
        let wall_ms = match outcome {
            RunOutcome::Verdict(v) => v.wall_ms,
            RunOutcome::Unknown(u) => u.wall_ms,
            RunOutcome::Error(_) => return,
        };
        if wall_ms <= threshold as f64 {
            return;
        }
        self.slow_log.push(SlowEntry {
            op: problem.op_name(),
            backend: BACKEND,
            status: outcome_status(outcome),
            wall_ms,
            threshold_ms: threshold,
            cached: false,
            events: events.to_vec(),
        });
    }
}

/// A pool worker's view of itself, handed to every [`Task`]: its warm
/// analyzer plus the shared memo and observability context.
pub struct Worker {
    analyzer: Analyzer,
    generation: u64,
    shared: Arc<Shared>,
}

impl Worker {
    /// The worker's long-lived analyzer.
    pub(crate) fn analyzer(&mut self) -> &mut Analyzer {
        &mut self.analyzer
    }

    /// Runs one decision problem: memo lookup, then (on a miss) the solve
    /// under panic containment, inserting only a definite verdict into
    /// the memo; then the trace is drained and a slow solve recorded.
    pub fn solve(&mut self, problem: &Problem, limits: &Limits, trace: bool) -> Solved {
        let shared = Arc::clone(&self.shared);
        let (rec, capture) = shared.recorder(trace);
        let hit = lock(&shared.memo).get(problem).cloned();
        note_memo_lookup(&rec, problem, hit.is_some());
        let (outcome, cached) = match hit {
            Some(v) => (RunOutcome::Verdict(v), true),
            None => {
                let outcome = self
                    .contained(|az| run_problem(az, problem, limits, &rec))
                    .unwrap_or_else(RunOutcome::Error);
                if let RunOutcome::Verdict(v) = &outcome {
                    lock(&shared.memo).insert(problem.clone(), v.clone());
                }
                (outcome, false)
            }
        };
        let events = capture.map(|mem| mem.drain()).unwrap_or_default();
        if !cached {
            shared.note_slow(problem, &outcome, &events);
        }
        Solved {
            outcome,
            cached,
            trace: trace.then(|| trace_value(&events)),
        }
    }

    /// Runs `f` on the analyzer with panic containment: a panic rebuilds
    /// the analyzer, counts in `xsat_worker_panics_total`, and comes back
    /// as the error text of a degraded response.
    pub fn contained<T>(&mut self, f: impl FnOnce(&mut Analyzer) -> T) -> Result<T, String> {
        std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut self.analyzer))).map_err(|payload| {
            self.panicked();
            format!(
                "solver panicked ({}); the worker analyzer was rebuilt and \
                 this response degraded to an error",
                panic_message(payload.as_ref())
            )
        })
    }

    fn panicked(&mut self) {
        self.analyzer = Analyzer::new();
        obs::metrics()
            .counter("xsat_worker_panics_total", &[])
            .inc();
    }
}

/// A fixed set of worker threads behind a bounded task queue, sharing
/// one verdict memo.
pub struct Pool {
    shared: Arc<Shared>,
    threads: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("queue_capacity", &self.shared.queue.capacity)
            .field("memo_entries", &self.memo_len())
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// Spawns the workers. Fails only when the OS refuses a thread.
    pub fn new(config: PoolConfig) -> std::io::Result<Pool> {
        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(16)
        } else {
            config.threads
        };
        let pool = Pool {
            shared: Arc::new(Shared {
                queue: Queue::new(
                    config.queue_depth,
                    obs::metrics().gauge(config.queue_gauge, &[]),
                ),
                generation: AtomicU64::new(0),
                memo: Mutex::new(HashMap::new()),
                trace_sink: config.trace_sink,
                slow_ms: config.slow_solve_ms,
                slow_log: SlowLog::default(),
            }),
            threads,
            workers: Mutex::new(Vec::with_capacity(threads)),
        };
        for i in 0..threads {
            let shared = pool.shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("xsat-worker-{i}"))
                .spawn(move || worker_loop(shared))?;
            lock(&pool.workers).push(handle);
        }
        Ok(pool)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Queues `task` unless the queue is full or closed. Never blocks;
    /// a refused task comes back so the caller can answer for it.
    pub fn try_submit(&self, task: Task) -> Result<(), Task> {
        self.shared.queue.try_push(task).map_err(|(task, _)| task)
    }

    /// Runs `f` on some worker and waits for its result: `None` when the
    /// queue refused the task or the task panicked.
    pub(crate) fn run<T: Send + 'static>(
        &self,
        f: impl FnOnce(&mut Worker) -> T + Send + 'static,
    ) -> Option<T> {
        let (tx, rx) = mpsc::channel();
        self.try_submit(Box::new(move |w| {
            let _ = tx.send(f(w));
        }))
        .ok()?;
        rx.recv().ok()
    }

    /// Solves every item and waits for all of them. One claim-loop task
    /// per worker (never more tasks than items) pulls items off a shared
    /// cursor, so the per-item cost is one atomic increment. An item no
    /// task reached — its task was refused or died — comes back `None`.
    pub(crate) fn solve_all(&self, items: Vec<WorkItem>) -> Vec<Option<Solved>> {
        struct Claims {
            items: Vec<WorkItem>,
            next: AtomicUsize,
            results: Vec<Mutex<Option<Solved>>>,
        }
        let claims = Arc::new(Claims {
            results: items.iter().map(|_| Mutex::new(None)).collect(),
            items,
            next: AtomicUsize::new(0),
        });
        let (done, finished) = mpsc::channel::<()>();
        for _ in 0..self.threads.min(claims.items.len()) {
            let (claims, done) = (claims.clone(), done.clone());
            let _ = self.try_submit(Box::new(move |w| {
                // Dropped when the task ends, however it ends.
                let _done = done;
                loop {
                    let i = claims.next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = claims.items.get(i) else {
                        break;
                    };
                    let solved = w.solve(&item.problem, &item.limits, item.trace);
                    *lock(&claims.results[i]) = Some(solved);
                }
            }));
        }
        drop(done);
        // Disconnects once every task has dropped its sender.
        let _ = finished.recv();
        claims.results.iter().map(|r| lock(r).take()).collect()
    }

    /// The current queue backlog.
    pub fn queue_len(&self) -> usize {
        lock(&self.shared.queue.inner).items.len()
    }

    /// The queue bound.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity
    }

    /// Number of memoized verdicts.
    pub(crate) fn memo_len(&self) -> usize {
        lock(&self.shared.memo).len()
    }

    /// The ring buffer of captured slow solves.
    pub(crate) fn slow_log(&self) -> &SlowLog {
        &self.shared.slow_log
    }

    /// The slow-solve threshold, in milliseconds.
    pub(crate) fn slow_solve_ms(&self) -> Option<u64> {
        self.shared.slow_ms
    }

    /// Forgets all accumulated state: the memo and the slow log are
    /// cleared, and every worker rebuilds its analyzer before its next
    /// task — a long-running service sheds the formula and BDD state of
    /// earlier workloads.
    pub(crate) fn reset(&self) {
        lock(&self.shared.memo).clear();
        self.shared.slow_log.clear();
        self.shared.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Closes the queue: submissions are refused from now on, and the
    /// workers finish the backlog and exit.
    pub fn close(&self) {
        self.shared.queue.close();
    }

    /// Closes the queue and joins every worker.
    pub fn shutdown(&self) {
        self.close();
        let current = std::thread::current().id();
        for h in lock(&self.workers).drain(..) {
            // A worker never joins itself (it would wait forever).
            if h.thread().id() != current {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The worker loop: pops until the queue closes and drains.
fn worker_loop(shared: Arc<Shared>) {
    let mut w = Worker {
        analyzer: Analyzer::new(),
        generation: shared.generation.load(Ordering::Acquire),
        shared,
    };
    while let Some(task) = w.shared.queue.pop() {
        let generation = w.shared.generation.load(Ordering::Acquire);
        if generation != w.generation {
            w.analyzer = Analyzer::new();
            w.generation = generation;
        }
        if std::panic::catch_unwind(AssertUnwindSafe(|| task(&mut w))).is_err() {
            w.panicked();
        }
    }
}

/// One memo-cache lookup: the `memo` trace event plus the process-wide
/// hit/miss counters.
fn note_memo_lookup(rec: &Recorder, problem: &Problem, hit: bool) {
    rec.event(
        "memo",
        &[
            ("hit", FieldValue::Bool(hit)),
            ("op", FieldValue::Str(problem.op_name())),
            ("backend", FieldValue::Str(BACKEND)),
        ],
    );
    let name = if hit {
        "xsat_memo_hits_total"
    } else {
        "xsat_memo_misses_total"
    };
    obs::metrics().counter(name, &[]).inc();
}

/// Best-effort text of a panic payload (the `&str`/`String` carried by
/// `panic!`; anything else renders as an opaque marker).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Why [`Queue::try_push`] refused an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PushError {
    /// The queue is at capacity.
    Full,
    /// The queue is closed.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A depth-bounded MPMC queue: non-blocking producers, blocking
/// consumers. Its gauge tracks the backlog.
struct Queue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
    gauge: Gauge,
}

impl<T> Queue<T> {
    fn new(capacity: usize, gauge: Gauge) -> Queue<T> {
        Queue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            gauge,
        }
    }

    /// Admits `item` unless the queue is full or closed. Never blocks —
    /// rejection must be immediate for the shed path to bound latency —
    /// and hands the item back on refusal.
    fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut inner = lock(&self.inner);
        if inner.closed {
            return Err((item, PushError::Closed));
        }
        if inner.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        inner.items.push_back(item);
        self.gauge.set(inner.items.len() as u64);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `None` once the queue is closed *and*
    /// drained — workers finish the backlog before exiting.
    fn pop(&self) -> Option<T> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.gauge.set(inner.items.len() as u64);
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Closes the queue: producers get [`PushError::Closed`], consumers
    /// drain the backlog and then see `None`.
    fn close(&self) {
        lock(&self.inner).closed = true;
        self.ready.notify_all();
    }
}

/// Locks ignoring poisoning: a panicked worker must not wedge the pool,
/// and memoized verdicts are only ever inserted whole.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn pool(threads: usize) -> Pool {
        Pool::new(PoolConfig {
            threads,
            queue_depth: 64,
            trace_sink: None,
            slow_solve_ms: None,
            queue_gauge: "xsat_test_queue_depth",
        })
        .expect("spawn workers")
    }

    fn test_queue<T>(capacity: usize) -> Queue<T> {
        Queue::new(capacity, obs::metrics().gauge("xsat_test_queue_depth", &[]))
    }

    /// Marks the worker's analyzer by interning a formula in its arena: a
    /// rebuilt analyzer starts from an empty arena again.
    fn mark(w: &mut Worker) {
        w.analyzer().logic_mut().parse("pool_test_mark").unwrap();
    }

    fn is_fresh(w: &mut Worker) -> bool {
        w.analyzer().logic_mut().len() == Analyzer::new().logic_mut().len()
    }

    #[test]
    fn panicking_task_leaves_the_worker_alive_on_a_rebuilt_analyzer() {
        let pool = pool(1);
        let panics = obs::metrics().counter("xsat_worker_panics_total", &[]);
        let before = panics.get();
        assert_eq!(pool.run(mark), Some(()));
        assert_eq!(pool.run(is_fresh), Some(false), "the mark sticks");
        let died: Option<()> = pool.run(|w| {
            mark(w);
            panic!("injected task panic");
        });
        assert_eq!(died, None, "a panicked task returns nothing");
        assert_eq!(pool.run(is_fresh), Some(true), "the worker rebuilt");
        assert_eq!(panics.get(), before + 1);
    }

    #[test]
    fn reset_rebuilds_every_worker_before_its_next_task() {
        const THREADS: usize = 3;
        let pool = pool(THREADS);
        // A barrier of the pool's width makes each worker take exactly
        // one of the tasks.
        let on_every_worker = |f: fn(&mut Worker) -> bool| {
            let barrier = Arc::new(Barrier::new(THREADS));
            let (tx, rx) = mpsc::channel();
            for _ in 0..THREADS {
                let (barrier, tx) = (barrier.clone(), tx.clone());
                let task: Task = Box::new(move |w| {
                    barrier.wait();
                    let _ = tx.send(f(w));
                });
                assert!(pool.try_submit(task).is_ok());
            }
            drop(tx);
            rx.iter().collect::<Vec<bool>>()
        };
        on_every_worker(|w| {
            mark(w);
            true
        });
        assert_eq!(on_every_worker(is_fresh), vec![false; THREADS]);
        pool.reset();
        assert_eq!(on_every_worker(is_fresh), vec![true; THREADS]);
    }

    #[test]
    fn bounded_push_and_fifo_pop() {
        let q: Queue<u32> = test_queue(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err((3, PushError::Full)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_backlog_then_ends() {
        let q: Queue<u32> = test_queue(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err((8, PushError::Closed)));
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(test_queue::<u32>(1));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }
}
