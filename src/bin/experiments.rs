//! Regenerates the paper's evaluation (§8): Table 1, Table 2, and the
//! figure examples (Fig 13/14 type compilation, Fig 18 solver run).
//!
//! ```text
//! cargo run --release --bin experiments            # everything but the slow XHTML rows
//! cargo run --release --bin experiments -- all     # everything (minutes)
//! cargo run --release --bin experiments -- table1
//! cargo run --release --bin experiments -- table2        # rows 1-4
//! cargo run --release --bin experiments -- table2-xhtml  # rows 5-6 (slow)
//! cargo run --release --bin experiments -- fig13
//! cargo run --release --bin experiments -- fig18
//! ```
//!
//! Every Table 2 row is decided in both directions and checked against the
//! verdicts pinned in `paper::Table2Row::claims`: the paper's, except
//! where a verified counterexample shows it wrong (README, "Where we
//! differ from the paper"). The binary exits 1 when a verdict differs from
//! its pin.
//!
//! Timings are not expected to match the paper's milliseconds (different
//! machine, different decade, different BDD engine); the verdicts and their
//! relative difficulty are.

use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::Instant;

use xsat::analyzer::{paper, Analyzer, Limits};
use xsat::mulogic::Logic;
use xsat::treetypes::{smil_1_0, wikipedia, xhtml_1_0_strict, BinaryType};
use xsat::xpath::parse;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "fast".to_owned());
    let mismatches = match arg.as_str() {
        "table1" => {
            table1();
            0
        }
        "table2" => table2(1..=4),
        "table2-xhtml" => table2(5..=6),
        "fig13" => {
            fig13();
            0
        }
        "fig18" => {
            fig18();
            0
        }
        "all" | "fast" => {
            table1();
            fig13();
            fig18();
            table2(if arg == "all" { 1..=6 } else { 1..=4 })
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            std::process::exit(2);
        }
    };
    if mismatches > 0 {
        eprintln!("{mismatches} Table 2 verdict(s) differ from the pinned ones");
        std::process::exit(1);
    }
}

fn table1() {
    println!("== Table 1: types used in experiments ==");
    println!(
        "{:<22} {:>8} {:>8} {:>12} {:>14}",
        "DTD", "symbols", "(paper)", "binary vars", "(paper)"
    );
    for (name, dtd, paper_syms, paper_vars) in [
        ("SMIL 1.0", smil_1_0(), 19, 11),
        ("XHTML 1.0 Strict", xhtml_1_0_strict(), 77, 325),
        ("Wikipedia (Fig 12)", wikipedia(), 9, 9),
    ] {
        let bt = BinaryType::from_dtd(&dtd);
        println!(
            "{:<22} {:>8} {:>8} {:>12} {:>14}",
            name,
            dtd.symbol_count(),
            paper_syms,
            bt.var_count(),
            paper_vars
        );
    }
    println!();
}

/// Solves every direction of the given Table 2 rows (1-based) and prints
/// each verdict next to the paper's. Returns how many verdicts differ from
/// the pinned ones of `paper::Table2Row::claims`.
fn table2(rows: RangeInclusive<usize>) -> usize {
    println!(
        "== Table 2 (rows {}-{}): decision problems ==",
        rows.start(),
        rows.end()
    );
    println!(
        "{:<4} {:<28} {:>6} {:>12} {:>12}  verdicts (paper's where ours differs)",
        "row", "problem", "lean", "paper (ms)", "ours (ms)"
    );
    let table = paper::table2();
    let mut mismatches = 0;
    let mut notes = Vec::new();
    for r in rows {
        let row = &table[r - 1];
        let dtd = row.type_used.dtd().map(Arc::new);
        let mut az = Analyzer::new();
        let (mut lean, mut verdicts) = (0, Vec::new());
        let t = Instant::now();
        for claim in row.claims() {
            let label = claim.direction.label();
            let a = az
                .solve(&claim.direction.problem(dtd.as_ref()), &Limits::default())
                .unwrap_or_else(|e| panic!("row {r}: {label}: {e}"));
            lean = lean.max(a.stats.lean_size);
            let mut v = format!("{label}: {}", a.holds);
            if claim.ours != claim.paper {
                v += &format!(" (paper: {})", claim.paper);
            }
            if a.holds != claim.ours {
                v += " MISMATCH";
                mismatches += 1;
            }
            verdicts.push(v);
            if let Some(m) = &a.counter_example {
                let kind = if a.holds { "witness" } else { "counterexample" };
                notes.push(format!("  {label} {kind}: {}", m.xml()));
            }
        }
        println!(
            "{:<4} {:<28} {:>6} {:>12} {:>12}  {}",
            r,
            row.description,
            lean,
            row.paper_ms,
            t.elapsed().as_millis(),
            verdicts.join(", ")
        );
    }
    println!("counterexamples and witnesses:");
    for n in &notes {
        println!("{n}");
    }
    println!();
    mismatches
}

fn fig13() {
    println!("== Fig 13/14: Wikipedia DTD compilation ==");
    let dtd = wikipedia();
    let bt = BinaryType::from_dtd(&dtd);
    println!("{}", bt.display());
    let mut lg = Logic::new();
    let f = bt.formula(&mut lg);
    println!("\nLµ formula:\n{}\n", lg.display(f));
}

fn fig18() {
    println!("== Fig 18: example run (containment with counter-example) ==");
    let e1 = parse("child::c/preceding-sibling::a[child::b]").expect("parses");
    let e2 = parse("child::c[child::b]").expect("parses");
    let mut az = Analyzer::new();
    let t = Instant::now();
    let v = az.contains(&e1, None, &e2, None).unwrap();
    println!(
        "e1 ⊆ e2: {} ({} lean atoms, {} iterations, {:?})",
        v.holds,
        v.stats.lean_size,
        v.stats.iterations,
        t.elapsed()
    );
    if let Some(m) = &v.counter_example {
        println!("counter-example: {}\n", m.xml());
    }
}
