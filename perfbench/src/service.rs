//! The `batch` and `serve` workloads: generated streams of small problems
//! through `Engine::run_batch_lines` (the `xsat batch` path) and through
//! `serve::Server` on loopback.
//!
//! Per-layer numbers come from deltas of the process-wide `obs::metrics()`
//! registry the engine and the server already feed. The traced iterations
//! set the protocol's own per-request `"trace": true` flag, so comparing
//! them with untraced iterations prices that tracing.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use engine::{Engine, EngineConfig, Value};
use obs::MetricValue;
use serve::{Server, ServerConfig, TenantConfig};

use crate::gen::{self, refutable, Expect, Stream, StreamSpec};
use crate::reference::Reference;
use crate::report::{EndToEnd, LayerSplit, Run};
use crate::stats::{median, percentile, summary};

/// Engine worker threads, server worker threads and client connections.
const THREADS: usize = 2;
/// Problems in one `batch` stream.
const BATCH_PROBLEMS: usize = 2400;
/// Share of `batch` problems that repeat an earlier one.
const BATCH_REPEATS: f64 = 0.75;
/// The `batch` stream is posted as this many consecutive batches, so that
/// later batches find earlier answers in the memo.
const BATCH_CHUNKS: usize = 8;
/// Problems each `serve` client sends per iteration.
const SERVE_PROBLEMS: usize = 600;
/// Share of `serve` problems that repeat an earlier one.
const SERVE_REPEATS: f64 = 0.1;
const TENANTS: [&str; THREADS] = ["alpha", "beta"];
/// Iterations every `batch` and `serve` run makes.
const MIN_ITERATIONS: usize = 5;

/// Checks one response against what the generator built it to be.
pub fn check_response(expect: Expect, v: &Value) -> Result<(), String> {
    let field = |k: &str| v.get(k).and_then(Value::as_str);
    match expect {
        Expect::Registered => match v.get("registered") {
            Some(_) => Ok(()),
            None => Err(format!("registration not acknowledged: {}", v.to_json())),
        },
        Expect::Verdict(t) => {
            let want = if t.holds { "holds" } else { "fails" };
            if field("status") != Some(want) || field("op") != Some(t.op) {
                return Err(format!("{}: expected {want}, got {}", t.name, v.to_json()));
            }
            if !t.holds && refutable(t.op) {
                let verified = v
                    .get("counterexample")
                    .and_then(|c| c.get("verified"))
                    .and_then(Value::as_bool);
                if verified != Some(true) {
                    return Err(format!("{}: no verified counterexample", t.name));
                }
            }
            Ok(())
        }
    }
}

/// Adds `"trace":true` to every decision line (the protocol's per-request
/// tracing).
fn traced_lines(s: &Stream) -> Vec<String> {
    s.lines
        .iter()
        .zip(&s.expect)
        .map(|(l, e)| match e {
            Expect::Verdict(_) => l.replacen('{', "{\"trace\":true,", 1),
            Expect::Registered => l.clone(),
        })
        .collect()
}

/// Registry totals the per-layer metrics are deltas of.
#[derive(Debug, Default, Clone, Copy)]
struct Registry {
    solves: f64,
    solve_ms: f64,
    serve_solves: f64,
    serve_solve_ms: f64,
    memo_hits: f64,
    memo_misses: f64,
    shed: f64,
}

impl Registry {
    fn read() -> Registry {
        let mut r = Registry::default();
        for row in obs::metrics().snapshot() {
            match (row.name, row.value) {
                ("xsat_solve_latency_ms", MetricValue::Histogram { count, sum_ms, .. }) => {
                    r.solves += count as f64;
                    r.solve_ms += sum_ms;
                }
                ("xsat_serve_solve_ms", MetricValue::Histogram { count, sum_ms, .. }) => {
                    r.serve_solves += count as f64;
                    r.serve_solve_ms += sum_ms;
                }
                ("xsat_memo_hits_total", MetricValue::Counter(n)) => r.memo_hits += n as f64,
                ("xsat_memo_misses_total", MetricValue::Counter(n)) => r.memo_misses += n as f64,
                ("xsat_shed_total", MetricValue::Counter(n)) => r.shed += n as f64,
                _ => {}
            }
        }
        r
    }

    fn since(self, before: Registry) -> Registry {
        Registry {
            solves: self.solves - before.solves,
            solve_ms: self.solve_ms - before.solve_ms,
            serve_solves: self.serve_solves - before.serve_solves,
            serve_solve_ms: self.serve_solve_ms - before.serve_solve_ms,
            memo_hits: self.memo_hits - before.memo_hits,
            memo_misses: self.memo_misses - before.memo_misses,
            shed: self.shed - before.shed,
        }
    }

    fn add(&mut self, o: Registry) {
        self.solves += o.solves;
        self.solve_ms += o.solve_ms;
        self.serve_solves += o.serve_solves;
        self.serve_solve_ms += o.serve_solve_ms;
        self.memo_hits += o.memo_hits;
        self.memo_misses += o.memo_misses;
        self.shed += o.shed;
    }

    fn memo_hit_ratio(&self) -> f64 {
        self.memo_hits / (self.memo_hits + self.memo_misses).max(1.0)
    }
}

/// Where the solves behind traced responses spent their time, summed
/// from the `phase`, `step` and `solve_end` events of each response's
/// `"trace"`. Only answers computed in the pass count (`"cached": false`):
/// an in-batch duplicate carries a copy of its original's trace.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseSplit {
    /// Summed `solve_end` wall times.
    wall_ms: f64,
    layers: LayerSplit,
}

impl PhaseSplit {
    fn add_response(&mut self, v: &Value) {
        if v.get("cached").and_then(Value::as_bool) != Some(false) {
            return;
        }
        let Some(events) = v.get("trace").and_then(Value::as_arr) else {
            return;
        };
        let mut one = LayerSplit {
            solves: 1.0,
            ..LayerSplit::default()
        };
        let mut wall_ms = 0.0;
        for e in events {
            let num = |k: &str| e.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            let ms = |k: &str| num(k) / 1000.0;
            let phase = e.get("phase").and_then(Value::as_str);
            match (e.get("kind").and_then(Value::as_str), phase) {
                (Some("phase"), Some("compile")) => one.compile_ms += ms("dur_us"),
                (Some("phase"), Some("lean")) => one.lean_ms += ms("dur_us"),
                (Some("phase"), Some("build")) => one.build_ms += ms("dur_us"),
                (Some("phase"), Some("fixpoint")) => one.fixpoint_ms += ms("dur_us"),
                (Some("step"), _) => {
                    one.iterations += 1.0;
                    one.step_ms_max = one.step_ms_max.max(ms("dt_us"));
                    one.peak_nodes = one.peak_nodes.max(num("nodes"));
                }
                (Some("solve_end"), _) => wall_ms += ms("wall_us"),
                _ => {}
            }
        }
        // Reconstruction, witness verification and whatever else the
        // solve does outside its four phases.
        one.reconstruct_verify_ms = (wall_ms - one.covered_ms()).max(0.0);
        self.wall_ms += wall_ms;
        self.layers.add(&one);
    }

    fn add(&mut self, o: PhaseSplit) {
        self.wall_ms += o.wall_ms;
        self.layers.add(&o.layers);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Splits a stream into `n` consecutive JSONL documents of about equal
/// line counts.
fn chunks(lines: &[String], n: usize) -> Vec<String> {
    let per = lines.len().div_ceil(n);
    lines.chunks(per).map(|c| c.join("\n")).collect()
}

/// One `batch` iteration's measurements.
#[derive(Debug, Default)]
struct BatchPass {
    wall_ms: f64,
    problems: usize,
    unique_problems: usize,
    errors: usize,
    unknown: usize,
    phases: PhaseSplit,
}

/// Posts `docs` to a fresh engine and checks every response.
fn batch_pass(engine: &mut Engine, docs: &[String], s: &Stream, out: &mut Run) -> BatchPass {
    let mut pass = BatchPass::default();
    let mut responses = Vec::with_capacity(s.lines.len());
    for doc in docs {
        let started = Instant::now();
        let outcome = engine.run_batch_lines(doc);
        pass.wall_ms += ms(started.elapsed());
        pass.problems += outcome.stats.problems;
        pass.unique_problems += outcome.stats.unique_problems;
        pass.errors += outcome.stats.errors;
        pass.unknown += outcome.stats.unknown;
        responses.extend(outcome.responses);
    }
    check_all(s, &responses, out);
    for v in &responses {
        pass.phases.add_response(v);
    }
    pass
}

/// Checks every decision response of a stream (registrations must be
/// acknowledged but are not counted as attempted problems).
fn check_all(s: &Stream, responses: &[Value], out: &mut Run) {
    if responses.len() != s.expect.len() {
        out.fail(format!(
            "{} responses to {} requests",
            responses.len(),
            s.expect.len()
        ));
        return;
    }
    for (expect, v) in s.expect.iter().zip(responses) {
        let checked = check_response(*expect, v);
        match expect {
            Expect::Verdict(_) => out.attempt(checked),
            Expect::Registered => {
                if let Err(e) = checked {
                    out.fail(e);
                }
            }
        }
    }
}

/// The `batch` workload.
pub fn run_batch(seed: u64, seconds: f64, trace: bool, out: &mut Run) {
    let spec = StreamSpec {
        seed,
        problems: BATCH_PROBLEMS,
        repeat_share: BATCH_REPEATS,
        tenant: None,
    };
    let set_up = || {
        let started = Instant::now();
        let stream = gen::generate(&spec);
        let docs = chunks(&stream.lines, BATCH_CHUNKS);
        let traced_docs = chunks(&traced_lines(&stream), BATCH_CHUNKS);
        let engine = Engine::with_config(EngineConfig {
            threads: THREADS,
            ..EngineConfig::default()
        });
        (
            started.elapsed().as_secs_f64(),
            stream,
            docs,
            traced_docs,
            engine,
        )
    };
    let first = gen::generate(&spec);
    out.note(format!(
        "stream: seed={seed} chunks={BATCH_CHUNKS} lines={} {}",
        first.lines.len(),
        first.mix.describe()
    ));

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut setups = Vec::new();
    let mut pps = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut layers = Registry::default();
    let mut phases = PhaseSplit::default();
    let mut peak_rss_mb = 0.0;
    let mut last = BatchPass::default();
    let mut busy_wall_ms = 0.0;
    let mut reference = Reference::default();
    for i in 0.. {
        let traced_iteration = trace && i % 2 == 1;
        let (setup_s, stream, docs, traced_docs, mut engine) = set_up();
        setups.push(setup_s);
        let before = Registry::read();
        let docs = if traced_iteration {
            &traced_docs
        } else {
            &docs
        };
        let pass = batch_pass(&mut engine, docs, &stream, out);
        if traced_iteration {
            traced_ms.push(pass.wall_ms);
            phases.add(pass.phases);
        } else {
            layers.add(Registry::read().since(before));
            busy_wall_ms += pass.wall_ms;
            untraced_ms.push(pass.wall_ms);
            pps.push(pass.problems as f64 / (pass.wall_ms / 1000.0));
            last = pass;
        }
        if i == 0 {
            // The first iteration's footprint. Later iterations build new
            // threads, whose allocator arenas add memory that depends on
            // scheduling and on how many iterations the budget allows.
            peak_rss_mb = crate::report::peak_rss_mb();
        }
        // The engine's threads end before the kernel runs.
        drop(engine);
        reference.maybe_sample();
        if i + 1 >= MIN_ITERATIONS && Instant::now() >= deadline {
            break;
        }
    }

    reference.top_up();
    let factor = reference.factor();
    out.note(reference.note());
    let throughput = median(&pps).expect("iterations ran") / factor;
    let pass_ms = median(&untraced_ms).expect("iterations ran");
    out.note(format!(
        "pass: {pass_ms:.1} ms, {:.1} ms at the reference speed (median over iterations); \
         throughput {throughput:.1} problems/s at the reference speed",
        pass_ms * factor
    ));
    if trace {
        // Request parsing, timed apart from the engine on the same lines.
        let started = Instant::now();
        for line in &first.lines {
            let _ = engine::Request::parse(line);
        }
        let iterations = untraced_ms.len() as f64;
        out.note(format!(
            "engine: parse {:.2} ms per stream, {:.0} solves per stream ({} unique problems), \
             solve busy {:.1} ms per stream, {} errors, {} unknown",
            ms(started.elapsed()),
            layers.solves / iterations,
            last.unique_problems,
            layers.solve_ms / iterations,
            last.errors,
            last.unknown
        ));
        let per_stream = traced_ms.len() as f64;
        let mut split = phases.layers.per_pass(per_stream);
        split.outside_solve_share = 1.0 - layers.solve_ms / (busy_wall_ms * THREADS as f64);
        split.memo_hit_ratio = layers.memo_hit_ratio();
        split.trace_overhead_ms =
            median(&traced_ms).unwrap_or(0.0) - median(&untraced_ms).unwrap_or(0.0);
        out.note(format!("traced stream: {}", split.describe()));
        out.note(format!(
            "traced: {} untraced and {} traced iterations; tracing costs {:.2} ms per stream",
            untraced_ms.len(),
            traced_ms.len(),
            split.trace_overhead_ms
        ));
        out.metrics = split.metrics();
    } else {
        out.metrics = EndToEnd {
            setup_s: median(&setups).expect("iterations ran") * factor,
            pass_ms: pass_ms * factor,
            peak_rss_mb,
        }
        .metrics();
    }
    out.note(format!(
        "iterations={} (fresh engine each, {THREADS} threads), problems/iteration={}",
        setups.len(),
        last.problems
    ));
    out.note(format!("iteration problems/s: {}", summary(&pps)));
    out.note(format!("iteration set-up s: {}", summary(&setups)));
}

/// One client's closed loop: send a line, wait for its reply. Returns the
/// parsed responses and the decision problems' round-trip times.
fn client(
    stream: TcpStream,
    lines: &[String],
    s: &Stream,
) -> Result<(Vec<Value>, Vec<f64>), String> {
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut responses = Vec::with_capacity(lines.len());
    let mut latencies = Vec::with_capacity(lines.len());
    let mut buf = String::new();
    for (line, expect) in lines.iter().zip(&s.expect) {
        let started = Instant::now();
        writeln!(writer, "{line}").map_err(|e| e.to_string())?;
        buf.clear();
        reader.read_line(&mut buf).map_err(|e| e.to_string())?;
        let rtt = ms(started.elapsed());
        if matches!(expect, Expect::Verdict(_)) {
            latencies.push(rtt);
        }
        responses.push(engine::json::parse(buf.trim()).map_err(|e| format!("{e}: {buf}"))?);
    }
    Ok((responses, latencies))
}

fn connect(server: &Server) -> std::io::Result<TcpStream> {
    let c = TcpStream::connect(server.local_addr())?;
    c.set_nodelay(true)?;
    c.set_read_timeout(Some(Duration::from_secs(60)))?;
    Ok(c)
}

/// The `serve` workload: two tenants, one closed-loop connection each.
pub fn run_serve(seed: u64, seconds: f64, trace: bool, out: &mut Run) {
    let specs: Vec<StreamSpec> = TENANTS
        .iter()
        .enumerate()
        .map(|(i, &tenant)| StreamSpec {
            // A different seed per tenant, and different from `batch`'s.
            seed: seed ^ (0x5e7e_0000 + i as u64),
            problems: SERVE_PROBLEMS,
            repeat_share: SERVE_REPEATS,
            tenant: Some(tenant),
        })
        .collect();
    for s in &specs {
        let g = gen::generate(s);
        out.note(format!(
            "stream: tenant={} seed={} lines={} {}",
            s.tenant.unwrap_or("-"),
            s.seed,
            g.lines.len(),
            g.mix.describe()
        ));
    }
    let config = ServerConfig {
        threads: THREADS,
        tenants: TENANTS
            .iter()
            .map(|t| TenantConfig {
                name: (*t).to_owned(),
                limits: None,
                max_inflight: None,
            })
            .collect(),
        ..ServerConfig::default()
    };

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut setups = Vec::new();
    let mut pps = Vec::new();
    let mut latencies = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut phases = PhaseSplit::default();
    let mut layers = Registry::default();
    let mut peak_rss_mb = 0.0;
    let mut reference = Reference::default();
    for i in 0.. {
        let traced_iteration = trace && i % 2 == 1;
        let started = Instant::now();
        let streams: Vec<Stream> = specs.iter().map(gen::generate).collect();
        let sent: Vec<Vec<String>> = streams
            .iter()
            .map(|s| {
                if traced_iteration {
                    traced_lines(s)
                } else {
                    s.lines.clone()
                }
            })
            .collect();
        let server = match Server::bind(config.clone(), "127.0.0.1:0") {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("bind: {e}"));
                return;
            }
        };
        let conns: Result<Vec<TcpStream>, _> = (0..THREADS).map(|_| connect(&server)).collect();
        let conns = match conns {
            Ok(c) => c,
            Err(e) => {
                out.fail(format!("connect: {e}"));
                let _ = server.shutdown();
                return;
            }
        };
        setups.push(started.elapsed().as_secs_f64());

        let before = Registry::read();
        let started = Instant::now();
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .into_iter()
                .zip(&sent)
                .zip(&streams)
                .map(|((c, lines), s)| scope.spawn(move || client(c, lines, s)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
                .collect()
        });
        let wall = started.elapsed().as_secs_f64();
        let delta = Registry::read().since(before);
        let report = server.shutdown();
        if !report.drained {
            out.fail("server did not drain".into());
        }

        let mut lat = Vec::new();
        for (r, s) in results.into_iter().zip(&streams) {
            match r {
                Ok((responses, l)) => {
                    check_all(s, &responses, out);
                    if traced_iteration {
                        for v in &responses {
                            phases.add_response(v);
                        }
                    }
                    lat.extend(l);
                }
                Err(e) => out.fail(format!("client: {e}")),
            }
        }
        if traced_iteration {
            traced_ms.push(wall * 1000.0);
        } else {
            pps.push(lat.len() as f64 / wall);
            untraced_ms.push(wall * 1000.0);
            latencies.extend(lat);
            layers.add(delta);
        }
        if i == 0 {
            // The first iteration's footprint. Later iterations build new
            // threads, whose allocator arenas add memory that depends on
            // scheduling and on how many iterations the budget allows.
            peak_rss_mb = crate::report::peak_rss_mb();
        }
        reference.maybe_sample();
        if i + 1 >= MIN_ITERATIONS && Instant::now() >= deadline {
            break;
        }
    }

    reference.top_up();
    let factor = reference.factor();
    out.note(reference.note());
    let throughput = median(&pps).expect("iterations ran") / factor;
    let pass_ms = median(&untraced_ms).expect("iterations ran");
    out.note(format!(
        "pass: {pass_ms:.1} ms, {:.1} ms at the reference speed (median over iterations); \
         throughput {throughput:.1} problems/s at the reference speed",
        pass_ms * factor
    ));
    for p in [50.0, 99.0] {
        match percentile(&latencies, p) {
            Ok(v) => out.note(format!(
                "round trip p{p}: {v:.4} ms, {:.4} ms at the reference speed",
                v * factor
            )),
            Err(e) => out.note(format!("round trip p{p}: {e}")),
        }
    }
    if trace {
        let mean_latency = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        let solve_mean = layers.serve_solve_ms / layers.serve_solves.max(1.0);
        out.note(format!(
            "server: mean solve {solve_mean:.4} ms, mean round trip outside the solve {:.4} ms, \
             {} shed",
            mean_latency - solve_mean,
            layers.shed
        ));
        let mut split = phases.layers.per_pass(traced_ms.len() as f64);
        let untraced_wall: f64 = untraced_ms.iter().sum();
        split.outside_solve_share = 1.0 - layers.serve_solve_ms / (untraced_wall * THREADS as f64);
        split.memo_hit_ratio = layers.memo_hit_ratio();
        split.trace_overhead_ms =
            median(&traced_ms).unwrap_or(0.0) - median(&untraced_ms).unwrap_or(0.0);
        out.note(format!("traced iteration: {}", split.describe()));
        out.note(format!(
            "traced: {} untraced and {} traced iterations; tracing costs {:.2} ms per iteration",
            untraced_ms.len(),
            traced_ms.len(),
            split.trace_overhead_ms
        ));
        out.metrics = split.metrics();
    } else {
        out.metrics = EndToEnd {
            setup_s: median(&setups).expect("iterations ran") * factor,
            pass_ms: pass_ms * factor,
            peak_rss_mb,
        }
        .metrics();
    }
    out.note(format!(
        "iterations={} (fresh server each, {THREADS} workers, {THREADS} closed-loop clients), \
         latency samples={} (untraced iterations)",
        setups.len(),
        latencies.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The split reads the engine's own trace format, and counts an
    /// in-batch duplicate, which carries a copy of its original's trace,
    /// once.
    #[test]
    fn phase_split_counts_each_computed_solve_once() {
        let mut engine = Engine::with_config(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let line = r#"{"trace":true,"op":"contains","lhs":"a/b","rhs":"a/*"}"#;
        let outcome = engine.run_batch_lines(&format!("{line}\n{line}"));
        assert_eq!(outcome.responses.len(), 2);
        let mut split = PhaseSplit::default();
        for v in &outcome.responses {
            split.add_response(v);
        }
        let l = split.layers;
        assert_eq!(l.solves, 1.0);
        assert!(l.compile_ms > 0.0 && l.fixpoint_ms > 0.0, "{split:?}");
        assert!(l.iterations >= 1.0 && l.peak_nodes > 0.0, "{split:?}");
        assert!((split.wall_ms - l.covered_ms()).abs() < 1e-9, "{split:?}");
    }
}
