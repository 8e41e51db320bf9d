//! The `experiments` command line has one way to run a sweep: the
//! checkpoint/resume flags are gone, and a flag or command it does not
//! know is a usage error — never a silent fall-through to the help text
//! with exit 0, which let a script "succeed" having run nothing. And
//! every command the help text names is one the binary runs.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments")
}

#[test]
fn unknown_flags_and_commands_exit_2_with_nothing_on_stdout() {
    for args in [
        &["--checkpoint-dir", "x", "exp1"][..],
        &["--resume", "exp1"],
        &["--scael", "0.1", "all"],
        &["nonsense"],
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "{args:?}"
        );
    }
}

/// A positional argument the command would ignore or misread — a
/// fraction that does not parse or is not in (0, 1], an unknown policy
/// set, no L1 group, no seed — is a usage error too, before anything
/// runs.
#[test]
fn bad_positional_arguments_exit_2_with_nothing_on_stdout() {
    for args in [
        &["--scale", "0.01", "exp2", "BL", "abc"][..],
        &["--scale", "0.01", "exp2", "BL", "0.1", "bogus"],
        &["--scale", "0.01", "exp2b", "G", "1.5"],
        &["--scale", "0.01", "exp3", "-1"],
        &["--scale", "0.01", "exp3", "0"],
        &["--scale", "0.01", "exp4", "NaN"],
        &["--scale", "0.01", "exp5", "BL", "x"],
        &["--scale", "0.01", "exp3-shared", "BL", "0"],
        &["--scale", "0.01", "exp3-shared", "BL", "two"],
        &["--scale", "0.01", "replicate", "G", "abc"],
        &["--scale", "0.01", "replicate", "G", "0"],
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "{args:?}"
        );
    }
}

#[test]
fn help_exits_0_and_lists_no_checkpoint_flag() {
    for args in [&["help"][..], &[]] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains("--scale") && !text.contains("checkpoint"),
            "{text}"
        );
    }
}

#[test]
fn a_small_sweep_runs() {
    let out = experiments(&["--scale", "0.01", "exp1", "C"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("MaxNeeded"));
}

/// The usage text and the `match` behind it cannot drift apart: whatever
/// `help` lists as a command runs, with its defaults, to exit 0.
#[test]
fn every_command_the_usage_text_names_runs() {
    let help = experiments(&["help"]);
    let text = String::from_utf8_lossy(&help.stdout).into_owned();
    let listed = text.split_once("commands:").expect("a commands: list").1;
    // Optional arguments are bracketed and placeholders upper case; what
    // is left between the bars are the commands.
    let mut commands = Vec::new();
    let mut depth = 0;
    for word in listed.split(|c: char| c.is_whitespace() || c == '|') {
        let opens = word.matches('[').count();
        let closes = word.matches(']').count();
        if depth == 0 && opens == 0 && word.starts_with(|c: char| c.is_ascii_lowercase()) {
            commands.push(word);
        }
        depth = depth + opens - closes;
    }
    assert!(
        commands.len() >= 15 && commands.contains(&"hitpos") && commands.contains(&"exp3-shared"),
        "{commands:?}"
    );
    for command in commands {
        let out = experiments(&["--scale", "0.01", command]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "`experiments {command}`: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !out.stdout.is_empty(),
            "`experiments {command}` printed nothing"
        );
    }
}
