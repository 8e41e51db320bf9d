//! `tracegen` does what its arguments say or refuses them: a scale above
//! 1 is not full scale, `--out` without a file is not stdout, and a
//! second workload does not replace the first. Each is a usage error —
//! exit 2, an `error:` line, nothing on stdout.

use std::process::{Command, Output};

fn tracegen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracegen"))
        .args(args)
        .output()
        .expect("run tracegen")
}

#[test]
fn input_it_would_ignore_is_a_usage_error() {
    for args in [
        &["BL", "--scale", "0.002", "--out"][..],
        &["BL", "G", "--scale", "0.002"],
        &["BL", "--scale", "5"],
        &["BL", "--scale", "0"],
        &["BL", "--scale", "NaN"],
        &["BL", "--seed"],
        &["--scale", "0.002"],
        &["XX", "--scale", "0.002"],
    ] {
        let out = tracegen(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "{args:?}"
        );
    }
}

#[test]
fn a_trace_goes_to_stdout_or_to_the_named_file() {
    let stdout = tracegen(&["BL", "--scale", "0.002", "--seed", "3"]);
    assert_eq!(stdout.status.code(), Some(0));
    let text = String::from_utf8(stdout.stdout).expect("CLF is text");
    assert!(text.lines().count() > 50, "{} lines", text.lines().count());

    let dir = std::env::temp_dir().join(format!("tracegen-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bl.log");
    let path_arg = path.to_str().expect("utf-8 temp path");
    let file = tracegen(&["BL", "--scale", "0.002", "--seed", "3", "--out", path_arg]);
    assert_eq!(file.status.code(), Some(0));
    assert!(file.stdout.is_empty());
    let written = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(written, text, "the file holds what stdout would have");
}
