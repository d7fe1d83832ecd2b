//! The run's bookkeeping and its output: human-readable notes, then one
//! JSON result line.

use std::fmt::Write as _;

/// Named metrics in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }
}

/// The end-to-end metrics, which every workload reports (`--trace 0`).
/// Times are at the reference speed (see `reference.rs`).
#[derive(Debug, Default, Clone, Copy)]
pub struct EndToEnd {
    /// Set-up before the first timed problem, median of its repetitions.
    pub setup_s: f64,
    /// Wall time of one pass over the workload's fixed problem set, at
    /// the median.
    pub pass_ms: f64,
    /// `VmHWM` of the process, read at a fixed point of the run.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// The metrics in `BENCHMARK.json`'s order.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push("setup_s", self.setup_s, "s");
        m.push("pass_ms", self.pass_ms, "ms");
        m.push("peak_rss_mb", self.peak_rss_mb, "MB");
        m
    }
}

/// The per-layer metrics, which every workload reports (`--trace 1`):
/// where one pass over the workload's problems spends its time, summed
/// over the solves the pass computed.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerSplit {
    /// Solves the pass computed (memo answers excluded).
    pub solves: f64,
    /// Goal construction: XPath and type compilation.
    pub compile_ms: f64,
    /// Lean computation.
    pub lean_ms: f64,
    /// Building the backend's initial sets.
    pub build_ms: f64,
    /// The fixpoint loop.
    pub fixpoint_ms: f64,
    /// Model reconstruction and witness verification: the solve's wall
    /// time after the fixpoint.
    pub reconstruct_verify_ms: f64,
    /// Fixpoint iterations.
    pub iterations: f64,
    /// The slowest single fixpoint step.
    pub step_ms_max: f64,
    /// The largest BDD store any step of the pass reached.
    pub peak_nodes: f64,
    /// Share of worker time outside the measured solves.
    pub outside_solve_share: f64,
    /// Answers served from the memo over answers asked.
    pub memo_hit_ratio: f64,
    /// Traced pass wall time minus untraced pass wall time.
    pub trace_overhead_ms: f64,
}

impl LayerSplit {
    /// Adds one solve's split; `step_ms_max` and `peak_nodes` take the
    /// maximum, the shares are left alone.
    pub fn add(&mut self, o: &LayerSplit) {
        self.solves += o.solves;
        self.compile_ms += o.compile_ms;
        self.lean_ms += o.lean_ms;
        self.build_ms += o.build_ms;
        self.fixpoint_ms += o.fixpoint_ms;
        self.reconstruct_verify_ms += o.reconstruct_verify_ms;
        self.iterations += o.iterations;
        self.step_ms_max = self.step_ms_max.max(o.step_ms_max);
        self.peak_nodes = self.peak_nodes.max(o.peak_nodes);
    }

    /// Divides the sums by `n` passes.
    pub fn per_pass(mut self, n: f64) -> LayerSplit {
        for v in [
            &mut self.solves,
            &mut self.compile_ms,
            &mut self.lean_ms,
            &mut self.build_ms,
            &mut self.fixpoint_ms,
            &mut self.reconstruct_verify_ms,
            &mut self.iterations,
        ] {
            *v /= n;
        }
        self
    }

    /// The time the split attributes to the solver's layers.
    pub fn covered_ms(&self) -> f64 {
        self.compile_ms
            + self.lean_ms
            + self.build_ms
            + self.fixpoint_ms
            + self.reconstruct_verify_ms
    }

    /// One report line with the split's shares.
    pub fn describe(&self) -> String {
        let share = |v: f64| 100.0 * v / self.covered_ms().max(f64::MIN_POSITIVE);
        format!(
            "{:.0} solves, {:.1} ms in solves: compile {:.0}% lean {:.0}% build {:.0}% \
             fixpoint {:.0}% reconstruct+verify {:.0}%; {:.0} iterations, slowest step {:.2} ms, \
             peak {:.0} BDD nodes",
            self.solves,
            self.covered_ms(),
            share(self.compile_ms),
            share(self.lean_ms),
            share(self.build_ms),
            share(self.fixpoint_ms),
            share(self.reconstruct_verify_ms),
            self.iterations,
            self.step_ms_max,
            self.peak_nodes
        )
    }

    /// The metrics in `BENCHMARK.json`'s order.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push("solves", self.solves, "count");
        m.push("xpath.compile_ms", self.compile_ms, "ms");
        m.push("mulogic.lean_ms", self.lean_ms, "ms");
        m.push("solver.build_ms", self.build_ms, "ms");
        m.push("solver.fixpoint_ms", self.fixpoint_ms, "ms");
        m.push(
            "solver.reconstruct_verify_ms",
            self.reconstruct_verify_ms,
            "ms",
        );
        m.push("solver.iterations", self.iterations, "count");
        m.push("solver.step_ms_max", self.step_ms_max, "ms");
        m.push("bdd.peak_nodes", self.peak_nodes, "count");
        m.push("outside_solve_share", self.outside_solve_share, "ratio");
        m.push("memo_hit_ratio", self.memo_hit_ratio, "ratio");
        m.push("trace_overhead_ms", self.trace_overhead_ms, "ms");
        m
    }
}

/// What one run attempted, what failed, and what it measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Decision problems whose answer was checked.
    pub attempted: u64,
    /// Problems answered with an error, an unknown, a shed, or a verdict
    /// other than the expected one.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Metrics,
}

impl Run {
    /// Counts one checked problem.
    pub fn attempt(&mut self, checked: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = checked {
            self.fail(e);
        }
    }

    /// Counts one failure.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(e);
        }
    }

    /// Adds a report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every answer checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` without running git;
/// `none` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "none".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One provenance line: parallelism, build profile, commit, workload and
/// seeds.
pub fn provenance(workload: &str, seed: u64, seconds: f64, trace: bool, seeds: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "provenance: workload={workload} seed={seed} seconds={seconds} trace={} nproc={nproc} \
         profile={profile} commit={} stream_seeds={seeds}",
        u8::from(trace),
        commit()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units `BENCHMARK.json` lists.
    fn manifest(list: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside perfbench/");
        let v = engine::json::parse(&text).expect("valid JSON");
        v.get(list)
            .and_then(engine::Value::as_arr)
            .unwrap_or_else(|| panic!("no {list}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(engine::Value::as_str).unwrap().to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn names(m: &Metrics) -> Vec<(String, String)> {
        m.0.iter()
            .map(|(n, _, u)| (n.clone(), (*u).to_owned()))
            .collect()
    }

    /// Every workload reports exactly the manifest's metrics, because it
    /// reports them through these two types.
    #[test]
    fn metrics_match_the_manifest() {
        assert_eq!(
            names(&EndToEnd::default().metrics()),
            manifest("end_to_end")
        );
        assert_eq!(
            names(&LayerSplit::default().metrics()),
            manifest("per_layer")
        );
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut run = Run::default();
        run.attempt(Ok(()));
        run.metrics.push("setup_s", 0.5, "s");
        let line = run.result_line();
        let v = engine::json::parse(&line).expect("valid JSON");
        let engine::Value::Obj(fields) = &v else {
            panic!("{line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit"))
                .and_then(engine::Value::as_str),
            Some("s")
        );
        run.attempt(Err("wrong".into()));
        assert!(!run.correct());
    }
}
