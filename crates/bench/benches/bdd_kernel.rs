//! BDD kernel telemetry on the Fig 18 containment family: node
//! allocations, peak live nodes, unique-table load and operation-cache
//! hit rate of the symbolic backend, compared against the pre-overhaul
//! kernel (plain `Vec` store + five `HashMap` caches, no complement
//! edges) as the committed baseline.
//!
//! Results land in `BENCH_bdd.json` at the workspace root. The baseline
//! numbers were measured on the kernel as of PR 2 (commit dee3672):
//! `bdd_nodes` there is total allocations, because that store never
//! reclaimed or shared complemented nodes — the comparable figure for the
//! new kernel is `created_nodes`. The acceptance bar for the overhaul is
//! an allocation drop ≥ 30% (or a mean-time improvement) on this family.

use std::fmt::Write as _;
use std::time::Instant;

use analyzer::{Analyzer, BackendChoice};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// The Fig 18 containment family, from a trivial member up to the
/// figure's own pair.
const FAMILY: &[(&str, &str, &str, bool)] = &[
    ("self", "child::a", "child::a", true),
    ("predicate", "child::a", "child::a[child::b]", false),
    ("sibling", "child::c/preceding-sibling::a", "child::a", true),
    (
        "fig18",
        "child::c/preceding-sibling::a[child::b]",
        "child::c[child::b]",
        false,
    ),
];

/// Pre-overhaul kernel baseline, measured at commit dee3672 (PR 2):
/// `(name, allocated nodes, mean solve ms)` — the node counts from a
/// 3-sample probe of the old manager, the times from the committed
/// `BENCH_backends.json` of that revision.
const BASELINE: &[(&str, usize, f64)] = &[
    ("self", 497, 0.164),
    ("predicate", 817, 0.161),
    ("sibling", 1176, 0.24),
    ("fig18", 2541, 0.538),
];

fn samples() -> usize {
    std::env::var("CRITERION_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

struct Row {
    mean_ms: f64,
    bdd_nodes: usize,
    peak_nodes: usize,
    created_nodes: usize,
    load_factor: f64,
    cache_hit_rate: f64,
    iterations: usize,
}

/// Solves one family member `n` times on `az` (whose long-lived manager is
/// generationally reset per solve — the engine worker configuration) and
/// reports mean time plus the last run's kernel telemetry.
fn measure(az: &mut Analyzer, lhs: &str, rhs: &str, expect_holds: bool, n: usize) -> Row {
    let mut times = Vec::with_capacity(n);
    let mut row = Row {
        mean_ms: 0.0,
        bdd_nodes: 0,
        peak_nodes: 0,
        created_nodes: 0,
        load_factor: 0.0,
        cache_hit_rate: 0.0,
        iterations: 0,
    };
    for _ in 0..n {
        let e1 = xpath::parse(lhs).expect("family query parses");
        let e2 = xpath::parse(rhs).expect("family query parses");
        let f1 = az.query_formula(&e1, None);
        let f2 = az.query_formula(&e2, None);
        let lg = az.logic_mut();
        let nf2 = lg.not(f2);
        let g = lg.and(f1, nf2);
        let t = Instant::now();
        let solved = az
            .solve_formula(black_box(g))
            .expect("symbolic never fails");
        times.push(t.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(!solved.outcome.is_satisfiable(), expect_holds);
        let telemetry = &solved.stats.telemetry;
        let counters = telemetry.bdd_counters().expect("symbolic telemetry");
        row = Row {
            mean_ms: 0.0,
            bdd_nodes: telemetry.bdd_nodes().unwrap(),
            peak_nodes: counters.peak_nodes,
            created_nodes: counters.created_nodes,
            load_factor: telemetry.load_factor().unwrap(),
            cache_hit_rate: counters.cache_hit_rate(),
            iterations: solved.stats.iterations,
        };
    }
    row.mean_ms = times.iter().sum::<f64>() / times.len() as f64;
    row
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn bench_bdd_kernel(_c: &mut Criterion) {
    let n = samples();
    // One analyzer for the whole family: every solve after the first
    // reuses the manager's arena, unique table and cache allocations.
    let mut az = Analyzer::new();
    az.set_backend(BackendChoice::Symbolic);
    let mut rows = String::new();
    for &(name, lhs, rhs, holds) in FAMILY {
        let r = measure(&mut az, lhs, rhs, holds, n);
        let &(_, base_nodes, base_ms) = BASELINE
            .iter()
            .find(|(b, _, _)| *b == name)
            .expect("baseline covers the family");
        let reduction = 100.0 * (1.0 - r.created_nodes as f64 / base_nodes as f64);
        println!(
            "bench bdd-kernel/{name}: mean {:.3} ms (baseline {base_ms:.3}), \
             created {} nodes (baseline {base_nodes}, -{reduction:.1}%), peak {}, \
             load {:.3}, cache hit rate {:.3}",
            r.mean_ms, r.created_nodes, r.peak_nodes, r.load_factor, r.cache_hit_rate,
        );
        let _ = write!(
            rows,
            concat!(
                r#"{}{{"name":"{}","mean_ms":{},"iterations":{},"bdd_nodes":{},"#,
                r#""peak_nodes":{},"created_nodes":{},"load_factor":{},"cache_hit_rate":{},"#,
                r#""baseline_created_nodes":{},"baseline_mean_ms":{},"node_reduction_pct":{}}}"#
            ),
            if rows.is_empty() { "" } else { "," },
            name,
            round3(r.mean_ms),
            r.iterations,
            r.bdd_nodes,
            r.peak_nodes,
            r.created_nodes,
            round3(r.load_factor),
            round3(r.cache_hit_rate),
            base_nodes,
            base_ms,
            round3(reduction),
        );
    }
    let json = format!(
        concat!(
            r#"{{"bench":"bdd_kernel","family":"fig18-containment","samples":{},"#,
            r#""baseline":"pre-overhaul kernel at dee3672 (Vec store, per-op HashMap caches, "#,
            r#"no complement edges)","members":[{}]}}"#
        ),
        n, rows
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bdd.json");
    std::fs::write(path, json + "\n").expect("write BENCH_bdd.json");
    println!("bdd-kernel: wrote {path}");
}

criterion_group!(benches, bench_bdd_kernel);
criterion_main!(benches);
