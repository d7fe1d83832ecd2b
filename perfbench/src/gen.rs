//! Seeded generator of JSONL request streams for the `batch` and `serve`
//! workloads.
//!
//! Every decision problem comes from a [`Template`] whose verdict is known
//! by construction (a predicate only narrows a path, two distinct child
//! labels never select the same node, a DTD forbids a child, ...), so the
//! benchmark checks the engine's answers against the template, never
//! against another run. Each new instance gets its own labels, so two
//! instances never share a memo entry; a repeat re-sends an earlier
//! instance's line verbatim, so the memo answers it.

use std::collections::BTreeMap;

/// SplitMix64: a small, well-mixed PRNG whose whole state is the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// How a template's problem is laid out on the wire.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `{"query": q0}` (emptiness, satisfiability).
    Unary,
    /// `{"lhs": q0, "rhs": q1}` (containment, overlap, equivalence).
    Binary,
    /// `{"query": q0, "by": [q1, ...]}` (coverage).
    Covers,
    /// `{"query": q0, "input": d0, "output": d1}` (type-checking).
    TypeCheck,
}

/// One problem family with a verdict known by construction. Queries and
/// DTDs name their labels `{A}`..`{D}` and the DTD root `{R}`; every
/// instance substitutes fresh labels.
#[derive(Debug)]
pub struct Template {
    /// Stable name, reported with every mismatch.
    pub name: &'static str,
    /// Wire op.
    pub op: &'static str,
    /// The verdict the construction guarantees.
    pub holds: bool,
    shape: Shape,
    queries: &'static [&'static str],
    /// DTDs; for every shape but type-checking the first one is the
    /// problem's `type`.
    dtds: &'static [&'static str],
}

/// The typed templates' input DTD: the root holds `A`s, an `A` holds an
/// optional `B` then any number of `C`s.
const DTD_IN: &str = "<!ELEMENT {R} ({A}*)> <!ELEMENT {A} ({B}?, {C}*)> \
                      <!ELEMENT {B} EMPTY> <!ELEMENT {C} EMPTY>";
/// The type-checking input: like [`DTD_IN`] but with exactly one `A`, so
/// the selected `A` has no siblings and can be the root of an output
/// document.
const DTD_ONE_A: &str = "<!ELEMENT {R} ({A})> <!ELEMENT {A} ({B}?, {C}*)> \
                         <!ELEMENT {B} EMPTY> <!ELEMENT {C} EMPTY>";
/// Output type rooted at `A` that accepts every `A` of [`DTD_ONE_A`].
const DTD_OUT_WIDE: &str = "<!ELEMENT {A} ({B}?, {C}*)> <!ELEMENT {B} EMPTY> <!ELEMENT {C} EMPTY>";
/// Output type rooted at `A` that rejects an `A` with a `B` child.
const DTD_OUT_NARROW: &str = "<!ELEMENT {A} ({C}*)> <!ELEMENT {C} EMPTY>";

/// Every template, in a fixed order. Contains/overlap/equivalence with the
/// Fig 18 pair and its relatives; every decision op of the protocol
/// appears with both verdicts.
pub const TEMPLATES: &[Template] = &[
    Template {
        name: "contains-predicate-narrows",
        op: "contains",
        holds: true,
        shape: Shape::Binary,
        queries: &["{A}/{B}[{C}]", "{A}/{B}"],
        dtds: &[],
    },
    Template {
        name: "contains-fig18",
        op: "contains",
        holds: false,
        shape: Shape::Binary,
        queries: &[
            "child::{C}/preceding-sibling::{A}[child::{B}]",
            "child::{C}[child::{B}]",
        ],
        dtds: &[],
    },
    Template {
        name: "contains-sibling",
        op: "contains",
        holds: true,
        shape: Shape::Binary,
        queries: &["child::{C}/preceding-sibling::{A}", "child::{A}"],
        dtds: &[],
    },
    Template {
        name: "contains-predicate-widens",
        op: "contains",
        holds: false,
        shape: Shape::Binary,
        queries: &["child::{A}", "child::{A}[child::{B}]"],
        dtds: &[],
    },
    Template {
        name: "contains-typed",
        op: "contains",
        holds: true,
        shape: Shape::Binary,
        queries: &["child::{A}[child::{B}]", "child::{A}"],
        dtds: &[DTD_IN],
    },
    Template {
        name: "empty-contradiction",
        op: "empty",
        holds: true,
        shape: Shape::Unary,
        queries: &["child::{A}[child::{B} and not(child::{B})]"],
        dtds: &[],
    },
    Template {
        name: "empty-descendant",
        op: "empty",
        holds: false,
        shape: Shape::Unary,
        queries: &["{A}//{B}"],
        dtds: &[],
    },
    Template {
        name: "sat-path",
        op: "sat",
        holds: true,
        shape: Shape::Unary,
        queries: &["{A}/{B}[{C}]"],
        dtds: &[],
    },
    Template {
        name: "sat-label-clash",
        op: "sat",
        holds: false,
        shape: Shape::Unary,
        queries: &["child::{A} ∩ child::{B}"],
        dtds: &[],
    },
    Template {
        name: "sat-typed",
        op: "sat",
        holds: true,
        shape: Shape::Unary,
        queries: &["child::{A}/child::{B}"],
        dtds: &[DTD_IN],
    },
    Template {
        name: "sat-typed-forbidden",
        op: "sat",
        holds: false,
        shape: Shape::Unary,
        queries: &["child::{B}"],
        dtds: &[DTD_IN],
    },
    Template {
        name: "overlap-descendant",
        op: "overlap",
        holds: true,
        shape: Shape::Binary,
        queries: &["{A}//{B}", "{A}/{B}"],
        dtds: &[],
    },
    Template {
        name: "overlap-disjoint",
        op: "overlap",
        holds: false,
        shape: Shape::Binary,
        queries: &["child::{A}", "child::{B}"],
        dtds: &[],
    },
    Template {
        name: "covers-split",
        op: "covers",
        holds: true,
        shape: Shape::Covers,
        queries: &["{A}/{B}", "{A}/{B}[{C}]", "{A}/{B}[not({C})]"],
        dtds: &[],
    },
    Template {
        name: "covers-wildcard",
        op: "covers",
        holds: false,
        shape: Shape::Covers,
        queries: &["{A}/*", "{A}/{B}"],
        dtds: &[],
    },
    Template {
        name: "equiv-commuted-or",
        op: "equiv",
        holds: true,
        shape: Shape::Binary,
        queries: &["{A}/{B}[{C} or {D}]", "{A}/{B}[{D} or {C}]"],
        dtds: &[],
    },
    Template {
        name: "equiv-descendant-child",
        op: "equiv",
        holds: false,
        shape: Shape::Binary,
        queries: &["{A}//{B}", "{A}/{B}"],
        dtds: &[],
    },
    Template {
        name: "typecheck-wide",
        op: "typecheck",
        holds: true,
        shape: Shape::TypeCheck,
        queries: &["child::{A}"],
        dtds: &[DTD_ONE_A, DTD_OUT_WIDE],
    },
    Template {
        name: "typecheck-narrow",
        op: "typecheck",
        holds: false,
        shape: Shape::TypeCheck,
        queries: &["child::{A}"],
        dtds: &[DTD_ONE_A, DTD_OUT_NARROW],
    },
];

/// Ops whose `fails` verdict is refuted by a document: the engine must
/// ship a verified counterexample with it. (`sat`/`overlap` fail when
/// the goal is unsatisfiable, so no document can exist.)
pub fn refutable(op: &str) -> bool {
    matches!(op, "empty" | "contains" | "covers" | "equiv" | "typecheck")
}

/// What the benchmark expects back for one request line.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// A registration acknowledgement.
    Registered,
    /// A decision verdict of this template.
    Verdict(&'static Template),
}

/// The parameters of one generated stream.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Seed of every random choice.
    pub seed: u64,
    /// Decision problems in the stream (new instances plus repeats).
    pub problems: usize,
    /// Share of the problems that re-send an earlier instance.
    pub repeat_share: f64,
    /// `tenant` field stamped on every line (the `serve` workload).
    pub tenant: Option<&'static str>,
}

/// A generated stream: the request lines, what each should return, and
/// its composition.
#[derive(Debug, Clone)]
pub struct Stream {
    /// One JSON request per entry, in send order.
    pub lines: Vec<String>,
    /// `expect[i]` is the answer `lines[i]` must get.
    pub expect: Vec<Expect>,
    /// Composition of the stream.
    pub mix: Mix,
}

/// Composition of a stream, reported so that a claim can be rechecked on
/// a second seed.
#[derive(Debug, Clone, Default)]
pub struct Mix {
    /// Decision problems per op.
    pub ops: BTreeMap<&'static str, usize>,
    /// `dtd`/`query` registration lines.
    pub registrations: usize,
    /// Decision problems.
    pub problems: usize,
    /// Problems that re-send an earlier instance.
    pub repeats: usize,
    /// Structurally distinct problems (the new instances).
    pub unique_problems: usize,
}

impl Mix {
    /// Repeats as a share of problems.
    pub fn repeat_share(&self) -> f64 {
        self.repeats as f64 / self.problems.max(1) as f64
    }

    /// One-line summary for the report.
    pub fn describe(&self) -> String {
        let ops: Vec<String> = self.ops.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!(
            "problems={} unique={} repeats={} ({:.3}) registrations={} ops[{}]",
            self.problems,
            self.unique_problems,
            self.repeats,
            self.repeat_share(),
            self.registrations,
            ops.join(" ")
        )
    }
}

/// Minimal JSON string escaping (the generated text has no control
/// characters, but quotes and backslashes are escaped all the same).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

const PREFIXES: [&str; 8] = ["p", "q", "r", "s", "t", "u", "v", "w"];
/// The label placeholders of [`TEMPLATES`].
const PLACEHOLDERS: [&str; 5] = ["{A}", "{B}", "{C}", "{D}", "{R}"];

/// Generates the stream described by `spec`. The same spec always yields
/// the same bytes.
pub fn generate(spec: &StreamSpec) -> Stream {
    let mut rng = Rng::new(spec.seed);
    let repeats = if spec.problems > 1 {
        ((spec.problems as f64 * spec.repeat_share).round() as usize).min(spec.problems - 1)
    } else {
        0
    };
    let fresh = spec.problems - repeats;
    // Exact template counts: the deck cycles through every template, so
    // the op mix is the same on every seed up to one instance per template.
    let mut deck: Vec<usize> = (0..fresh).map(|i| i % TEMPLATES.len()).collect();
    rng.shuffle(&mut deck);
    // `true` = repeat slot; the first problem is always a new instance.
    let mut slots: Vec<bool> = (0..spec.problems).map(|i| i < repeats).collect();
    rng.shuffle(&mut slots);
    if let Some(first_new) = slots.iter().position(|r| !r) {
        slots.swap(0, first_new);
    }

    let tenant = spec
        .tenant
        .map(|t| format!(",\"tenant\":{}", json_str(t)))
        .unwrap_or_default();
    let mut out = Stream {
        lines: Vec::new(),
        expect: Vec::new(),
        mix: Mix::default(),
    };
    // (problem body without id, template) of every new instance so far.
    let mut emitted: Vec<(String, &'static Template)> = Vec::new();
    let mut next_new = deck.into_iter();
    for (id, repeat) in slots.into_iter().enumerate() {
        let (body, t) = if repeat {
            emitted[rng.below(emitted.len())].clone()
        } else {
            let t = &TEMPLATES[next_new.next().expect("one template per new slot")];
            let instance = emitted.len();
            let body = instantiate(t, instance, &mut rng, &tenant, &mut out);
            emitted.push((body.clone(), t));
            (body, t)
        };
        out.lines.push(format!(
            "{{\"id\":{id},\"op\":\"{}\"{tenant},{body}}}",
            t.op
        ));
        out.expect.push(Expect::Verdict(t));
        *out.mix.ops.entry(t.op).or_default() += 1;
        out.mix.problems += 1;
        out.mix.repeats += usize::from(repeat);
    }
    out.mix.unique_problems = emitted.len();
    out
}

/// Substitutes fresh labels into `t`, emits the instance's registration
/// lines into `out` (even instances register their queries and DTDs by
/// name, odd ones pass them inline), and returns the problem's fields.
fn instantiate(
    t: &'static Template,
    instance: usize,
    rng: &mut Rng,
    tenant: &str,
    out: &mut Stream,
) -> String {
    let labels: Vec<String> = (0..PLACEHOLDERS.len())
        .map(|k| {
            format!(
                "{}{}",
                PREFIXES[rng.below(PREFIXES.len())],
                instance * PLACEHOLDERS.len() + k
            )
        })
        .collect();
    let fill = |s: &str| {
        PLACEHOLDERS
            .iter()
            .zip(&labels)
            .fold(s.to_owned(), |acc, (ph, l)| acc.replace(ph, l))
    };
    let by_name = instance.is_multiple_of(2);
    let mut register = |kind: &str, field: &str, name: String, text: String| -> String {
        if !by_name {
            return text;
        }
        out.lines.push(format!(
            "{{\"op\":\"{kind}\"{tenant},\"name\":{},\"{field}\":{}}}",
            json_str(&name),
            json_str(&text)
        ));
        out.expect.push(Expect::Registered);
        out.mix.registrations += 1;
        name
    };
    let queries: Vec<String> = t
        .queries
        .iter()
        .enumerate()
        .map(|(k, q)| {
            json_str(&register(
                "query",
                "xpath",
                format!("q{instance}_{k}"),
                fill(q),
            ))
        })
        .collect();
    let dtds: Vec<String> = t
        .dtds
        .iter()
        .enumerate()
        .map(|(k, d)| {
            json_str(&register(
                "dtd",
                "source",
                format!("d{instance}_{k}"),
                fill(d),
            ))
        })
        .collect();
    let typed = dtds
        .first()
        .map(|d| format!(",\"type\":{d}"))
        .unwrap_or_default();
    match t.shape {
        Shape::Unary => format!("\"query\":{}{typed}", queries[0]),
        Shape::Binary => format!("\"lhs\":{},\"rhs\":{}{typed}", queries[0], queries[1]),
        Shape::Covers => format!(
            "\"query\":{},\"by\":[{}]{typed}",
            queries[0],
            queries[1..].join(",")
        ),
        Shape::TypeCheck => format!(
            "\"query\":{},\"input\":{},\"output\":{}",
            queries[0], dtds[0], dtds[1]
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> StreamSpec {
        StreamSpec {
            seed,
            problems: 400,
            repeat_share: 0.75,
            tenant: Some("t0"),
        }
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        let a = generate(&spec(7));
        let b = generate(&spec(7));
        assert_eq!(
            a.lines.join("\n").into_bytes(),
            b.lines.join("\n").into_bytes()
        );
        assert_ne!(a.lines, generate(&spec(8)).lines);
    }

    #[test]
    fn every_emitted_op_has_an_expected_verdict_rule() {
        let s = generate(&spec(3));
        assert_eq!(s.lines.len(), s.expect.len());
        for (line, expect) in s.lines.iter().zip(&s.expect) {
            let v = engine::json::parse(line).expect("generated line is JSON");
            let op = v.get("op").and_then(engine::Value::as_str).unwrap();
            match expect {
                Expect::Registered => assert!(op == "dtd" || op == "query", "{line}"),
                Expect::Verdict(t) => {
                    assert_eq!(op, t.op, "{line}");
                    assert!(engine::Op::from_wire(op).is_some(), "{line}");
                }
            }
        }
        // Every decision op of the protocol appears, with both verdicts.
        for (op, _) in engine::Op::TABLE {
            let canonical = op.canonical();
            for holds in [true, false] {
                assert!(
                    TEMPLATES
                        .iter()
                        .any(|t| t.op == canonical && t.holds == holds),
                    "no template for {canonical} holds={holds}"
                );
            }
        }
    }

    #[test]
    fn problem_counts_are_exact_on_every_seed() {
        for seed in 1..4 {
            let m = generate(&spec(seed)).mix;
            assert_eq!(m.problems, 400);
            assert_eq!(m.repeats, 300);
            assert_eq!(m.unique_problems, 100);
            assert_eq!(m.ops.values().sum::<usize>(), 400);
        }
    }

    /// The templates' verdicts hold on the real engine: one instance of
    /// each, answered through the batch path.
    #[test]
    fn templates_answer_as_constructed() {
        let s = generate(&StreamSpec {
            seed: 11,
            problems: TEMPLATES.len() * 2,
            repeat_share: 0.0,
            tenant: None,
        });
        let mut engine = engine::Engine::new();
        let outcome = engine.run_batch_lines(&s.lines.join("\n"));
        for ((line, expect), response) in s.lines.iter().zip(&s.expect).zip(&outcome.responses) {
            assert_eq!(
                crate::service::check_response(*expect, response),
                Ok(()),
                "{line}"
            );
        }
    }
}
