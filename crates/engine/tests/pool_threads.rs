//! Dropping an [`Engine`] closes its worker pool and joins the threads.
//!
//! This is the only test in its binary: it counts the process's threads,
//! which concurrently running tests would disturb.

use engine::{Engine, EngineConfig};

/// The `Threads:` line of `/proc/self/status`; `None` off Linux.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

/// Whether the thread count reaches `n` within about 2 s: a joined thread
/// can linger in the count for a moment after `join` returns.
fn settles_at(n: usize) -> bool {
    for _ in 0..200 {
        if threads() == Some(n) {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    false
}

#[test]
fn dropping_engines_joins_their_worker_threads() {
    let Some(before) = threads() else {
        return;
    };
    for _ in 0..50 {
        let engine = Engine::with_config(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        assert!(settles_at(before + 2), "the pool spawned its workers");
        drop(engine);
    }
    assert!(
        settles_at(before),
        "{:?} threads, {before} before",
        threads()
    );
}
