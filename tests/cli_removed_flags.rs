//! `xsat` has one solver, so it takes no solver-selection flags:
//! `--backend` and `--max-lean` are unknown options (exit 2, naming the
//! flag) on every subcommand, never silently ignored.

use std::process::{Command, Stdio};

/// Asserts that `xsat <args>` is a usage error (exit 2) naming `flag`.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_xsat"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run xsat");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("unknown option `{flag}`")),
        "{args:?} must name {flag}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed a verdict");
}

#[test]
fn check_rejects_backend_and_max_lean() {
    assert_rejected(&["check", "child::a", "--backend", "explicit"], "--backend");
    assert_rejected(&["check", "child::a", "--backend", "symbolic"], "--backend");
    assert_rejected(&["check", "child::a", "--max-lean", "8"], "--max-lean");
}

#[test]
fn serve_and_batch_reject_them_too() {
    assert_rejected(&["serve", "--backend", "witnessed"], "--backend");
    assert_rejected(
        &["batch", "requests.jsonl", "--max-lean", "8"],
        "--max-lean",
    );
}
