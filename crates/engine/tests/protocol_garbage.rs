//! Grammar-plus-garbage properties of the protocol front door: whatever
//! bytes a peer sends, `Request::parse` and `framing::read_framed` answer
//! with `Ok` or a typed `Err`, never a panic.
//!
//! Inputs start from the protocol's own grammar — request objects built
//! from its keys (`op`, `backend`, `limits`, `max_lean`, `trace`, `by`,
//! …), its values and extreme numbers — and are then mutated with JSON
//! tokens, raw bytes, splices and truncations.

use std::io::{BufReader, Read};

use engine::{json, read_framed, Framed, Request, RequestKind, Value};
use proptest::prelude::*;

const KEYS: &[&str] = &[
    "op",
    "id",
    "backend",
    "limits",
    "max_lean",
    "trace",
    "by",
    "query",
    "lhs",
    "rhs",
    "type",
    "ltype",
    "rtype",
    "name",
    "xpath",
    "source",
    "input",
    "output",
    "rules",
    "max_diamonds",
    "tenant",
    "timeout_ms",
    "max_bdd_nodes",
    "max_iterations",
];

const WORDS: &[&str] = &[
    "sat",
    "empty",
    "contains",
    "overlap",
    "covers",
    "equiv",
    "typecheck",
    "dtd",
    "query",
    "lint",
    "stats",
    "metrics",
    "slowlog",
    "reset",
    "symbolic",
    "explicit",
    "witnessed",
    "dual",
    "portfolio",
    "child::a",
    "a/b//c",
    "*",
    "",
    "<!ELEMENT a EMPTY>",
    "dead-step",
    "off",
];

const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "1",
    "-1",
    "0.5",
    "16",
    "1e308",
    "-1e308",
    "1e309",
    "1e-400",
    "4294967296",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "123456789012345678901234567890",
];

const GARBAGE: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "null", "true", "false", " ", "\t", "\n", "\r",
    "\\u0000", "\\ud800", "\\udfff", "\\u12", "01", "1.", "-", ".5", "NaN", "Infinity", "1e",
    "\u{feff}", "é", "😀", "\u{0}",
];

fn quote(s: &str) -> String {
    json::Value::from(s).to_json()
}

/// A JSON value over the protocol's vocabulary, nested up to `depth`.
fn value(depth: u32) -> BoxedStrategy<String> {
    let scalar = prop_oneof![
        prop::sample::select(NUMBERS).prop_map(str::to_owned),
        prop::sample::select(WORDS).prop_map(quote),
        prop::sample::select(KEYS).prop_map(quote),
        prop::sample::select(&["null", "true", "false"][..]).prop_map(str::to_owned),
    ];
    if depth == 0 {
        return scalar.boxed();
    }
    prop_oneof![
        3 => scalar,
        1 => prop::collection::vec(value(depth - 1), 0..4)
            .prop_map(|items| format!("[{}]", items.join(","))),
        1 => object(depth - 1),
    ]
    .boxed()
}

/// An object with protocol keys.
fn object(depth: u32) -> BoxedStrategy<String> {
    prop::collection::vec((prop::sample::select(KEYS), value(depth)), 0..5)
        .prop_map(|fields| {
            let fields: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}:{v}", quote(k)))
                .collect();
            format!("{{{}}}", fields.join(","))
        })
        .boxed()
}

/// One `"key":value` member: mostly a value of the key's own shape (so
/// parses reach the backend, limits and op-specific checks), sometimes any
/// value under any key.
fn field() -> BoxedStrategy<String> {
    let member = |key: &'static str, v: BoxedStrategy<String>| {
        v.prop_map(move |v| format!("{}:{v}", quote(key))).boxed()
    };
    let word = || prop::sample::select(WORDS).prop_map(quote).boxed();
    let number = || {
        prop::sample::select(NUMBERS)
            .prop_map(str::to_owned)
            .boxed()
    };
    let limits = prop::collection::vec(
        prop_oneof![
            member("timeout_ms", number()),
            member("max_bdd_nodes", number()),
            member("max_iterations", number()),
            member("max_lean", number()),
        ],
        0..4,
    )
    .prop_map(|members| format!("{{{}}}", members.join(",")))
    .boxed();
    prop_oneof![
        2 => member("backend", word()),
        2 => member("limits", limits),
        1 => member("trace", value(0)),
        1 => member("by", prop::collection::vec(word(), 0..3)
            .prop_map(|items| format!("[{}]", items.join(","))).boxed()),
        6 => (prop::sample::select(&["query", "lhs", "rhs", "type", "name", "xpath"][..]), word())
            .prop_map(|(k, v)| format!("{}:{v}", quote(k))),
        2 => (prop::sample::select(KEYS), value(2)).prop_map(|(k, v)| format!("{}:{v}", quote(k))),
    ]
    .boxed()
}

/// A request line from the protocol grammar: an `op` and protocol fields.
fn request() -> BoxedStrategy<String> {
    let op = prop_oneof![
        3 => prop::sample::select(&["sat", "empty", "contains", "covers", "lint"][..]),
        1 => prop::sample::select(WORDS),
    ];
    (op, prop::collection::vec(field(), 0..8))
        .prop_map(|(op, fields)| {
            let mut parts = vec![format!("\"op\":{}", quote(op))];
            parts.extend(fields);
            format!("{{{}}}", parts.join(","))
        })
        .boxed()
}

/// One garbage edit: insert a token, insert a raw byte, truncate, or
/// delete a span.
#[derive(Debug, Clone)]
enum Edit {
    Token(prop::sample::Index, &'static str),
    Byte(prop::sample::Index, u8),
    Truncate(prop::sample::Index),
    Delete(prop::sample::Index, usize),
}

fn edit() -> BoxedStrategy<Edit> {
    prop_oneof![
        (any::<prop::sample::Index>(), prop::sample::select(GARBAGE))
            .prop_map(|(at, t)| Edit::Token(at, t)),
        (any::<prop::sample::Index>(), any::<u8>()).prop_map(|(at, b)| Edit::Byte(at, b)),
        any::<prop::sample::Index>().prop_map(Edit::Truncate),
        (any::<prop::sample::Index>(), 1usize..8).prop_map(|(at, n)| Edit::Delete(at, n)),
    ]
    .boxed()
}

fn apply(mut bytes: Vec<u8>, edits: &[Edit]) -> Vec<u8> {
    for e in edits {
        let at = |i: &prop::sample::Index, len: usize| i.index(len + 1);
        match e {
            Edit::Token(i, t) => {
                let k = at(i, bytes.len());
                bytes.splice(k..k, t.bytes());
            }
            Edit::Byte(i, b) => {
                let k = at(i, bytes.len());
                bytes.insert(k, *b);
            }
            Edit::Truncate(i) => bytes.truncate(at(i, bytes.len())),
            Edit::Delete(i, n) => {
                let k = at(i, bytes.len());
                bytes.drain(k..(k + n).min(bytes.len()));
            }
        }
    }
    bytes
}

/// A line of grammar-plus-garbage, decoded as the serve loops decode it.
fn garbage_line() -> BoxedStrategy<String> {
    prop_oneof![
        2 => request(),
        2 => (request(), prop::collection::vec(edit(), 1..4))
            .prop_map(|(r, edits)| String::from_utf8_lossy(&apply(r.into_bytes(), &edits)).into_owned()),
        1 => prop::collection::vec(
            prop_oneof![
                prop::sample::select(GARBAGE).prop_map(str::to_owned),
                prop::sample::select(KEYS).prop_map(quote),
                prop::sample::select(NUMBERS).prop_map(str::to_owned),
                any::<u8>().prop_map(|b| String::from_utf8_lossy(&[b]).into_owned()),
            ],
            0..24,
        )
        .prop_map(|tokens| tokens.concat()),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn request_parse_never_panics(line in garbage_line()) {
        let parsed = std::panic::catch_unwind(|| Request::parse(&line));
        prop_assert!(parsed.is_ok(), "Request::parse panicked on {line:?}");
        match parsed.unwrap() {
            Err(e) => prop_assert!(!e.is_empty(), "empty error for {line:?}"),
            Ok(req) => {
                // Only a JSON object with an `op` parses, and a decision
                // or lint request names no backend but `symbolic` and no
                // `max_lean` limit.
                let v = json::parse(&line).expect("an accepted request is JSON");
                prop_assert!(v.get("op").and_then(Value::as_str).is_some());
                if matches!(req.kind, RequestKind::Problem { .. } | RequestKind::Lint(_)) {
                    let backend = v.get("backend");
                    prop_assert!(
                        backend.is_none() || backend.and_then(Value::as_str) == Some("symbolic"),
                        "{line:?}"
                    );
                    let limits = v.get("limits");
                    prop_assert!(limits.and_then(|l| l.get("max_lean")).is_none(), "{line:?}");
                }
            }
        }
    }

    #[test]
    fn json_values_reserialize_as_json(line in garbage_line()) {
        let parsed = std::panic::catch_unwind(|| json::parse(&line));
        prop_assert!(parsed.is_ok(), "json::parse panicked on {line:?}");
        if let Ok(v) = parsed.unwrap() {
            let text = v.to_json();
            prop_assert!(json::parse(&text).is_ok(), "{line:?} re-serialized as {text:?}");
        }
    }

    #[test]
    fn read_framed_matches_a_line_splitting_model(
        chunks in prop::collection::vec(
            prop_oneof![
                prop::collection::vec(any::<u8>(), 0..24),
                garbage_line().prop_map(String::into_bytes),
                prop::sample::select(&[&b"\n"[..], b"\r\n", b"\n\n", b"\xff\xfe", b"\xe2\x82"][..])
                    .prop_map(<[u8]>::to_vec),
            ],
            0..8,
        ),
        max_bytes in 0usize..64,
        capacity in 1usize..16,
    ) {
        let input = chunks.concat();
        // The model: split on newlines; a final unterminated segment is a
        // line when non-empty; a line longer than the cap is oversized.
        let mut segments: Vec<&[u8]> = input.split(|&b| b == b'\n').collect();
        if segments.last().is_some_and(|s| s.is_empty()) {
            segments.pop();
        }
        let mut expected: Vec<Framed> = segments
            .iter()
            .map(|s| {
                if s.len() > max_bytes {
                    Framed::Oversized { limit: max_bytes }
                } else {
                    Framed::Line(String::from_utf8_lossy(s).into_owned())
                }
            })
            .collect();
        expected.push(Framed::Eof);

        // A small buffer puts frame boundaries at every chunk offset.
        let mut reader = BufReader::with_capacity(capacity, &input[..]);
        let mut got = Vec::new();
        for _ in 0..=input.len() + 1 {
            let frame = read_framed(&mut reader, max_bytes).expect("in-memory reads never fail");
            let eof = frame == Framed::Eof;
            got.push(frame);
            if eof {
                break;
            }
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn read_framed_surfaces_reader_errors(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        fail_after in 0usize..64,
        max_bytes in 0usize..32,
    ) {
        // A peer whose socket errors mid-stream: every read is a frame or
        // the typed I/O error, and the error ends the stream.
        let mut reader = BufReader::with_capacity(4, Failing { bytes, at: 0, fail_after });
        let mut frames = 0;
        loop {
            match read_framed(&mut reader, max_bytes) {
                Ok(Framed::Eof) => break,
                Ok(_) => frames += 1,
                Err(e) => {
                    prop_assert_eq!(e.kind(), std::io::ErrorKind::TimedOut);
                    break;
                }
            }
            prop_assert!(frames <= 64, "read_framed made no progress");
        }
    }
}

/// A reader that yields its bytes, then times out after `fail_after`.
struct Failing {
    bytes: Vec<u8>,
    at: usize,
    fail_after: usize,
}

impl Read for Failing {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let end = self.fail_after.min(self.bytes.len());
        if self.at == end && end < self.bytes.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "injected read timeout",
            ));
        }
        let n = buf.len().min(end - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}
