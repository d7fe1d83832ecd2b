//! `xsat serve` refuses flags its mode would silently ignore, naming the
//! flag, and stdin `serve` honours `--max-line-bytes`.

use std::io::Write;
use std::process::{Command, Output, Stdio};

/// Runs `xsat serve <args>` with `stdin` piped in and waits for it.
fn serve(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xsat"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xsat");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("wait for xsat")
}

/// Asserts a usage error (exit 2) whose message names `flag`.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = serve(args, "");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
}

#[test]
fn tcp_serve_rejects_the_observability_flags() {
    // Rejected before binding, so the address is never listened on.
    assert_rejected(
        &["--tcp", "127.0.0.1:0", "--trace-file", "t.jsonl"],
        "--trace-file",
    );
    assert_rejected(&["--tcp", "127.0.0.1:0", "--slow-ms", "5"], "--slow-ms");
}

#[test]
fn stdin_serve_rejects_the_tcp_only_flags() {
    for (flag, value) in [
        ("--max-connections", "4"),
        ("--queue-depth", "4"),
        ("--tenant-inflight", "4"),
        ("--drain-ms", "100"),
        ("--read-timeout-ms", "100"),
    ] {
        assert_rejected(&[flag, value], flag);
    }
}

#[test]
fn stdin_serve_honours_max_line_bytes() {
    let long = format!(r#"{{"id":"{}","op":"sat","query":"a"}}"#, "x".repeat(80));
    let input = format!("{long}\n{{\"op\":\"sat\",\"query\":\"a\"}}\n");
    let out = serve(&["--max-line-bytes", "64"], &input);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains("exceeds the 64-byte cap"), "{stdout}");
    assert!(lines[1].contains(r#""status":"holds""#), "{stdout}");

    // Without the flag the default cap admits the same line.
    let out = serve(&[], &input);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(stdout.matches(r#""status":"holds""#).count(), 2, "{stdout}");
}
