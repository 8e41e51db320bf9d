//! The `webcache-proxy` command line no longer selects a serving engine:
//! `--help` must not mention `--backend` (the benchmark's child launcher
//! passes the flag only while the help text lists it), and the flag
//! itself is rejected like any other unknown one.

use std::process::{Command, Output};

fn proxy(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_webcache-proxy"))
        .args(args)
        .output()
        .expect("run webcache-proxy")
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
