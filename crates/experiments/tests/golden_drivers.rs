//! The commands `golden_full.rs` does not run keep their output.
//!
//! `experiments all` leaves out Experiment 5, the shared-L2 extension,
//! the Appendix A hit positions and the seed replication. Each of them
//! drives its own cache systems, so each is held here, at `--scale 0.1`,
//! to an FNV-1a fingerprint of what it writes: the `--json` file of
//! `exp5 BL` and `exp3-shared BL 4`, and the standard output of
//! `hitpos BL` and `replicate G 3`. The fingerprints were taken before
//! those drivers became lanes of the one simulation engine.
//!
//! The four runs take a few seconds in a release build and much longer
//! in a debug one, so the test is ignored in the plain run:
//!
//! ```text
//! cargo test --release -p webcache-experiments --test golden_drivers -- --ignored
//! ```

use std::path::PathBuf;
use std::process::Command;

/// `(arguments after --scale 0.1, what to fingerprint, FNV-1a)`.
/// `Some(name)` is the `--json` file `name`, `None` the standard output.
const GOLDEN: [(&[&str], Option<&str>, u64); 4] = [
    (&["exp5", "BL"], Some("exp5.json"), 0xf1a44498bcb07086),
    (
        &["exp3-shared", "BL", "4"],
        Some("exp3_shared.json"),
        0x59054b95d9a7a8fd,
    ),
    (&["hitpos", "BL"], None, 0xc137953dbd7fdb09),
    (&["replicate", "G", "3"], None, 0x8a48fb262b12c691),
];

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
#[ignore = "scale 0.1: run in release with --ignored"]
fn the_drivers_outside_the_full_record_keep_their_output() {
    let scratch =
        Scratch(std::env::temp_dir().join(format!("wc-golden-drivers-{}", std::process::id())));
    let json = scratch.0.join("json");
    let mut produced = Vec::new();
    for (args, file, _) in GOLDEN {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--scale", "0.1", "--json"])
            .arg(&json)
            .args(args)
            .env_remove("WEBCACHE_PACK_DIR")
            .output()
            .expect("run experiments");
        assert!(out.status.success(), "experiments {args:?}: {}", out.status);
        let bytes = match file {
            Some(name) => std::fs::read(json.join(name))
                .unwrap_or_else(|e| panic!("read {name} of {args:?}: {e}")),
            None => out.stdout,
        };
        produced.push((args, file, fnv(&bytes)));
    }
    if produced != GOLDEN {
        let table: Vec<String> = (produced.iter())
            .map(|(args, file, f)| format!("    ({args:?}, {file:?}, {f:#018x}),"))
            .collect();
        panic!("driver fingerprints moved:\n{}", table.join("\n"));
    }
}
