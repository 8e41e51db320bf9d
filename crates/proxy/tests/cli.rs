//! The `webcache-proxy` command line. It no longer selects a serving
//! engine: `--help` must not mention `--backend` (the benchmark's child
//! launcher passes the flag only while the help text lists it), and the
//! flag itself is rejected like any other unknown one. And a value the
//! proxy cannot run with is a usage error, not a panic further in, as is
//! a flag given without the subsystem it configures, which would do
//! nothing.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Run `webcache-proxy ARGS` to its exit. An invocation the binary accepts
/// would serve for ever, so it is killed and failed after ten seconds.
fn proxy(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_webcache-proxy"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run webcache-proxy");
    let give_up = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll webcache-proxy").is_none() {
        if Instant::now() > give_up {
            let _ = child.kill();
            let _ = child.wait();
            panic!("webcache-proxy {args:?} started serving");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect output")
}

#[test]
fn help_lists_no_backend_flag() {
    let out = proxy(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    assert!(
        text.contains("--origin") && !text.contains("--backend"),
        "{text}"
    );
}

#[test]
fn backend_flag_is_an_unknown_flag() {
    let out = proxy(&["--backend", "reactor", "--origin", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn values_the_proxy_cannot_run_with_are_usage_errors() {
    for bad in [
        &["--shards", "3"][..],
        &["--shards", "0"],
        &["--capacity", "0"],
        &["--capacity", "7", "--shards", "8"],
        &["--iofault", "seed=7,append=1.0"],
        &["--snapshot-interval", "100"],
        &["--journal-fsync", "5"],
        &["--degraded-backoff", "50"],
        &["--degraded-retries", "2"],
        &["--node-id", "1"],
        &["--peer-timeout", "100"],
        &[
            "--cluster-seed-list",
            "0=127.0.0.1:7000",
            "--peer-timeout",
            "0",
        ],
    ] {
        let out = proxy(&[&["--origin", "127.0.0.1:1"], bad].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(
            stderr.contains("usage:") && !stderr.contains("panicked"),
            "{bad:?}: {stderr}"
        );
    }
}
