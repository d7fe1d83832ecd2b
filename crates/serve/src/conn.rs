//! Per-connection I/O: a framed, bounded, timeout-guarded reader thread
//! and a reorder-buffer writer thread.
//!
//! The reader assigns every handled line a connection-local sequence
//! number and answers it exactly once — inline for registrations and
//! service ops (preserving registration order), as a task on the
//! server's [`engine::Pool`] for decision problems and fault ops. The
//! writer receives `(seq, response)` pairs in completion order and writes
//! them in *sequence* order, so pipelined clients always read responses
//! in the order they sent requests, however the solves interleaved.
//!
//! Hostile-peer bounds all live on the reader: the per-line byte cap
//! (oversized lines cost one `error` response), lossy UTF-8 decoding
//! (garbage costs a parse error, not the stream), and the socket read
//! timeout (a stuck client is dropped; an injected `error` line tells it
//! why if it ever reads again).

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use engine::{
    effective_limits, error_response, json, metrics_response, outcome_response, read_framed,
    registration_response, unknown_response, Framed, Op, Request, RequestKind, Task,
    UnknownVerdict, Value, PROTOCOL_VERSION,
};

use crate::fault::FaultKind;
use crate::server::{LifeState, Shared};
use crate::tenant::{InflightGuard, Tenant};
use crate::DEFAULT_TENANT;

/// What the reader does after answering a line.
enum LineOutcome {
    /// Keep reading.
    Continue,
    /// Close the connection (a handled `shutdown` op).
    Close,
}

/// Runs one accepted connection to completion: spawns the writer, loops
/// the reader, joins the writer once every response is delivered.
pub(crate) fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let _ = stream.set_read_timeout(shared.config.read_timeout);
    let _ = stream.set_nodelay(true);
    let (tx, rx) = std::sync::mpsc::channel::<(u64, Value)>();
    let writer = std::thread::Builder::new()
        .name("serve-writer".into())
        .spawn(move || writer_loop(&rx, write_half));
    reader_loop(shared, stream, &tx);
    // Dropping the reader's sender lets the writer drain in-flight
    // responses (worker-held senders drop as their units finish) and exit.
    drop(tx);
    if let Ok(h) = writer {
        let _ = h.join();
    }
}

/// Writes responses in sequence order, whatever order they complete in:
/// a `BTreeMap` reorder buffer holds out-of-order completions until the
/// next expected sequence number arrives. Flushes per line (the protocol
/// is a conversation, not a dump).
fn writer_loop(rx: &Receiver<(u64, Value)>, stream: TcpStream) {
    let mut out = BufWriter::new(stream);
    let mut next: u64 = 0;
    let mut pending: BTreeMap<u64, Value> = BTreeMap::new();
    while let Ok((seq, response)) = rx.recv() {
        pending.insert(seq, response);
        let mut wrote = false;
        while let Some(response) = pending.remove(&next) {
            if writeln!(out, "{}", response.to_json()).is_err() {
                return; // peer gone; drain-and-drop the rest
            }
            next += 1;
            wrote = true;
        }
        if wrote && out.flush().is_err() {
            return;
        }
    }
}

/// The reader loop: framed reads, per-line dispatch, one response per
/// handled line.
fn reader_loop(shared: &Arc<Shared>, stream: TcpStream, tx: &Sender<(u64, Value)>) {
    let mut reader = BufReader::new(stream);
    let mut seq: u64 = 0;
    loop {
        match read_framed(&mut reader, shared.max_line_bytes()) {
            Err(e) => {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    obs::metrics()
                        .counter("xsat_conn_timeouts_total", &[])
                        .inc();
                    let _ = tx.send((
                        seq,
                        error_response(
                            None,
                            "idle timeout: no complete request line arrived in time; \
                             the connection is closed",
                        ),
                    ));
                }
                return;
            }
            Ok(Framed::Eof) => return,
            Ok(Framed::Oversized { limit }) => {
                let _ = tx.send((
                    seq,
                    error_response(
                        None,
                        &format!("request line exceeds the {limit}-byte cap and was discarded"),
                    ),
                ));
                seq += 1;
            }
            Ok(Framed::Line(line)) => {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                match handle_line(shared, line, seq, tx) {
                    LineOutcome::Continue => seq += 1,
                    LineOutcome::Close => return,
                }
            }
        }
    }
}

/// Parses and dispatches one request line, sending exactly one response
/// with the line's sequence number.
fn handle_line(
    shared: &Arc<Shared>,
    line: &str,
    seq: u64,
    tx: &Sender<(u64, Value)>,
) -> LineOutcome {
    let send = |response: Value| {
        let _ = tx.send((seq, response));
    };
    let v = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            send(error_response(None, &e.to_string()));
            return LineOutcome::Continue;
        }
    };
    let id = v.get("id").cloned();
    let tenant_name = match v.get("tenant") {
        None => DEFAULT_TENANT,
        Some(Value::Str(s)) => s.as_str(),
        Some(_) => {
            send(error_response(
                id.as_ref(),
                "the `tenant` field must be a string",
            ));
            return LineOutcome::Continue;
        }
    };
    let tenant = shared.tenants.resolve(tenant_name);
    match v.get("op").and_then(Value::as_str) {
        Some("shutdown") => {
            let report = shared.drain_and_stop();
            let mut fields = Vec::new();
            if let Some(id) = &id {
                fields.push(("id".to_owned(), id.clone()));
            }
            fields.extend([
                ("ok".to_owned(), Value::Bool(true)),
                ("op".to_owned(), Value::from("shutdown")),
                ("drained".to_owned(), Value::Bool(report.drained)),
                ("forced".to_owned(), Value::Bool(report.forced)),
                ("pending".to_owned(), Value::from(report.pending)),
            ]);
            send(Value::Obj(fields));
            LineOutcome::Close
        }
        Some("panic") if shared.config.fault_injection => {
            admit_fault(shared, &tenant, FaultKind::Panic, id, seq, tx);
            LineOutcome::Continue
        }
        Some("sleep") if shared.config.fault_injection => {
            let ms = v.get("ms").and_then(Value::as_f64).unwrap_or(0.0).max(0.0) as u64;
            admit_fault(shared, &tenant, FaultKind::Sleep { ms }, id, seq, tx);
            LineOutcome::Continue
        }
        _ => {
            match Request::from_value(&v) {
                Ok(req) => handle_request(shared, &tenant, req, seq, tx),
                Err(e) => send(error_response(id.as_ref(), &e)),
            }
            LineOutcome::Continue
        }
    }
}

/// Admission for a fault-injection op: the same tenant cap and queue
/// bound as a real solve — a saturating `sleep` burst is exactly how the
/// harness tests the shed path.
fn admit_fault(
    shared: &Arc<Shared>,
    tenant: &Arc<Tenant>,
    kind: FaultKind,
    id: Option<Value>,
    seq: u64,
    tx: &Sender<(u64, Value)>,
) {
    let send = |response: Value| {
        let _ = tx.send((seq, response));
    };
    let op_name = kind.op_name();
    let Some(guard) = admit(shared, tenant) else {
        send(fault_shed(shared, tenant, id.as_ref(), op_name));
        return;
    };
    let (task_id, reply) = (id.clone(), tx.clone());
    let task: Task = Box::new(move |w| {
        let response = kind.run(w, task_id.as_ref(), &guard.tenant().limits.cancel);
        let _ = reply.send((seq, response));
        drop(guard);
    });
    // The refused task, and with it the in-flight slot, stays alive while
    // the shed scope is read.
    if let Err(_refused) = shared.pool.try_submit(task) {
        send(fault_shed(shared, tenant, id.as_ref(), op_name));
    }
}

/// A shed response for a fault op (which has no protocol [`engine::Op`]):
/// same `status: "unknown", resource: "shed"` shape, hand-assembled.
fn fault_shed(
    shared: &Arc<Shared>,
    tenant: &Arc<Tenant>,
    id: Option<&Value>,
    op_name: &str,
) -> Value {
    let (scope, spent, limit) = shed_scope(shared, tenant);
    obs::metrics()
        .counter("xsat_shed_total", &[("scope", scope)])
        .inc();
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id".to_owned(), id.clone()));
    }
    fields.extend([
        ("ok".to_owned(), Value::Bool(true)),
        ("op".to_owned(), Value::from(op_name)),
        ("status".to_owned(), Value::from("unknown")),
        ("resource".to_owned(), Value::from("shed")),
        ("scope".to_owned(), Value::from(scope)),
        ("spent".to_owned(), Value::Num(spent as f64)),
        ("limit".to_owned(), Value::Num(limit as f64)),
        ("cached".to_owned(), Value::Bool(false)),
    ]);
    Value::Obj(fields)
}

/// Which admission bound is binding right now, for shed reporting.
fn shed_scope(shared: &Arc<Shared>, tenant: &Arc<Tenant>) -> (&'static str, u64, u64) {
    if shared.state() != LifeState::Running {
        ("drain", 0, 0)
    } else if tenant.inflight() >= tenant.max_inflight {
        (
            "tenant",
            tenant.inflight() as u64,
            tenant.max_inflight as u64,
        )
    } else {
        (
            "queue",
            shared.pool.queue_len() as u64,
            shared.pool.queue_capacity() as u64,
        )
    }
}

/// A shed verdict: the typed `unknown` an over-admitted request gets
/// instead of unbounded queueing. `scope` names which bound fired
/// (`queue`, `tenant`, or `drain`); `spent`/`limit` report that bound.
/// Sheds are never memo-cached and are counted in `xsat_shed_total`.
fn shed_response(
    id: Option<&Value>,
    op: Op,
    (scope, spent, limit): (&'static str, u64, u64),
) -> Value {
    obs::metrics()
        .counter("xsat_shed_total", &[("scope", scope)])
        .inc();
    let unknown = UnknownVerdict {
        resource: "shed",
        spent,
        limit,
        reason: format!(
            "request shed by admission control ({scope} bound {limit} reached); \
             retry against a less loaded server"
        ),
        wall_ms: 0.0,
    };
    unknown_response(id, op, &unknown, None)
}

/// Takes a tenant in-flight slot if the server is running and the tenant
/// is under its cap.
fn admit(shared: &Arc<Shared>, tenant: &Arc<Tenant>) -> Option<InflightGuard> {
    if shared.state() != LifeState::Running {
        return None;
    }
    tenant.try_admit(&shared.inflight)
}

/// Dispatches one parsed protocol request.
fn handle_request(
    shared: &Arc<Shared>,
    tenant: &Arc<Tenant>,
    req: Request,
    seq: u64,
    tx: &Sender<(u64, Value)>,
) {
    let send = |response: Value| {
        let _ = tx.send((seq, response));
    };
    match req.kind {
        RequestKind::RegisterDtd { name, source } => {
            let result = write_ws(tenant).register_dtd(&name, &source);
            send(match result {
                Ok(()) => registration_response(req.id.as_ref(), "dtd", &name),
                Err(e) => error_response(req.id.as_ref(), &e),
            });
        }
        RequestKind::RegisterQuery { name, xpath } => {
            let result = write_ws(tenant).register_query(&name, &xpath);
            send(match result {
                Ok(()) => registration_response(req.id.as_ref(), "query", &name),
                Err(e) => error_response(req.id.as_ref(), &e),
            });
        }
        RequestKind::Problem {
            spec,
            limits,
            trace,
        } => {
            let op = spec.op();
            // Resolve against the tenant's namespace *before* admission:
            // the memo key is structural, so tenants can never alias.
            let problem = {
                let ws = tenant
                    .workspace
                    .read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                spec.resolve(&ws)
            };
            let problem = match problem {
                Ok(p) => p,
                Err(e) => {
                    send(error_response(req.id.as_ref(), &e));
                    return;
                }
            };
            let limits = effective_limits(limits.as_ref(), &tenant.limits);
            let Some(guard) = admit(shared, tenant) else {
                let scope = shed_scope(shared, tenant);
                send(shed_response(req.id.as_ref(), op, scope));
                return;
            };
            let (id, reply) = (req.id.clone(), tx.clone());
            let task: Task = Box::new(move |w| {
                let started = Instant::now();
                let solved = w.solve(&problem, &limits, trace);
                let response = outcome_response(
                    id.as_ref(),
                    op,
                    &solved.outcome,
                    solved.cached,
                    solved.trace,
                );
                obs::metrics()
                    .histogram("xsat_serve_solve_ms", &[])
                    .observe_ms(started.elapsed().as_secs_f64() * 1000.0);
                // A send error means the connection died mid-request; the
                // verdict is simply dropped (it is already memo-cached if
                // definite).
                let _ = reply.send((seq, response));
                // Released only once the response is handed over, so a
                // drain that sees zero in flight has delivered everything.
                drop(guard);
            });
            // The refused task, and with it the in-flight slot, stays
            // alive while the shed scope is read.
            if let Err(_refused) = shared.pool.try_submit(task) {
                let scope = shed_scope(shared, tenant);
                send(shed_response(req.id.as_ref(), op, scope));
            }
        }
        RequestKind::Stats => send(stats_response(shared, tenant, req.id.as_ref())),
        RequestKind::Metrics => {
            send(metrics_response(
                req.id.as_ref(),
                &obs::metrics().snapshot(),
            ));
        }
        RequestKind::Reset => {
            write_ws(tenant).clear();
            send(registration_response(
                req.id.as_ref(),
                "reset",
                &tenant.name,
            ));
        }
        RequestKind::SlowLog => send(error_response(
            req.id.as_ref(),
            "`slowlog` is not available on the TCP serving tier",
        )),
        RequestKind::Lint(_) => send(error_response(
            req.id.as_ref(),
            "`lint` is not available on the TCP serving tier",
        )),
    }
}

/// The tenant's workspace, write-locked (poison-tolerant).
fn write_ws(tenant: &Arc<Tenant>) -> std::sync::RwLockWriteGuard<'_, engine::Workspace> {
    tenant
        .workspace
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The server-level `stats` response: admission and pool state, scoped to
/// the requesting tenant.
fn stats_response(shared: &Arc<Shared>, tenant: &Arc<Tenant>, id: Option<&Value>) -> Value {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id".to_owned(), id.clone()));
    }
    fields.extend([
        ("ok".to_owned(), Value::Bool(true)),
        (
            "protocol".to_owned(),
            Value::from(usize::try_from(PROTOCOL_VERSION).unwrap_or(usize::MAX)),
        ),
        ("tenant".to_owned(), Value::from(tenant.name.as_str())),
        ("tenant_inflight".to_owned(), Value::from(tenant.inflight())),
        (
            "tenant_inflight_cap".to_owned(),
            Value::from(tenant.max_inflight),
        ),
        (
            "queue_depth".to_owned(),
            Value::from(shared.pool.queue_len()),
        ),
        (
            "queue_capacity".to_owned(),
            Value::from(shared.pool.queue_capacity()),
        ),
        (
            "connections_active".to_owned(),
            Value::from(shared.active_connections()),
        ),
        ("threads".to_owned(), Value::from(shared.pool.threads())),
        (
            "draining".to_owned(),
            Value::Bool(shared.state() != LifeState::Running),
        ),
    ]);
    Value::Obj(fields)
}
