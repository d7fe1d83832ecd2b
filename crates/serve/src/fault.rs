//! The fault-injection ops (`ServerConfig::fault_injection` only):
//! deterministic worker-side failure modes for the test harness. They run
//! as ordinary pool tasks, so they exercise the same workers, admission
//! bounds and panic containment as real solves.

use std::time::{Duration, Instant};

use engine::{error_response, Value, Worker};
use solver::CancelToken;

/// The injectable faults.
pub(crate) enum FaultKind {
    /// Panic inside the worker (must degrade to an `error` response).
    Panic,
    /// Hold a worker slot for `ms`, polling the drain token — the
    /// deterministic way to saturate the queue and to test cancellation.
    Sleep {
        /// How long to hold the slot.
        ms: u64,
    },
}

impl FaultKind {
    /// The op name, echoed on responses.
    pub(crate) fn op_name(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Sleep { .. } => "sleep",
        }
    }

    /// Runs the fault on a worker and returns the op's response.
    pub(crate) fn run(&self, w: &mut Worker, id: Option<&Value>, cancel: &CancelToken) -> Value {
        match *self {
            FaultKind::Panic => {
                // The containment boundary every solve runs under: the
                // panic degrades to one error response and a metric.
                let message = w
                    .contained::<()>(|_| panic!("injected panic (fault-injection op)"))
                    .err()
                    .unwrap_or_default();
                error_response(id, &message)
            }
            FaultKind::Sleep { ms } => {
                let deadline = Instant::now() + Duration::from_millis(ms);
                let mut cancelled = false;
                while Instant::now() < deadline {
                    if cancel.is_cancelled() {
                        cancelled = true;
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                let mut fields = Vec::new();
                if let Some(id) = id {
                    fields.push(("id".to_owned(), id.clone()));
                }
                fields.extend([
                    ("ok".to_owned(), Value::Bool(true)),
                    ("op".to_owned(), Value::from("sleep")),
                    ("cancelled".to_owned(), Value::Bool(cancelled)),
                ]);
                Value::Obj(fields)
            }
        }
    }
}
