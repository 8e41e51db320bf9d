//! The committed full-scale record is what the code produces.
//!
//! `results/full/*.json` and `results/full_output.txt` are the output of
//! `experiments --scale 1 --json results/full all > results/full_output.txt
//! 2>&1`, run from the repository root. This test runs the same command
//! in a scratch directory and holds every file it writes to the FNV-1a
//! fingerprint pinned below, and every committed file to the same value.
//! A change that moves a number — in the generator, the simulator or a
//! driver — regenerates the record and re-pins it in the same change; the
//! failure prints the table in its own syntax.
//!
//! Full scale takes about a second in a release build and much longer in
//! a debug one, so the test is ignored in the plain run:
//!
//! ```text
//! cargo test --release -p webcache-experiments --test golden_full -- --ignored
//! ```

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Each file under `results/`, and the FNV-1a of its bytes.
const GOLDEN: [(&str, u64); 10] = [
    ("full_output.txt", 0x56cfb66dcdf66922),
    ("full/exp1.json", 0x496c2ae5b0720a46),
    ("full/exp2_BL.json", 0xb6e05f27570a1541),
    ("full/exp2_BR.json", 0x6c15d0c815c96963),
    ("full/exp2_C.json", 0xa2d4f01e6e574686),
    ("full/exp2_G.json", 0x8d22304d12491538),
    ("full/exp2_U.json", 0xe0716575aab9c222),
    ("full/exp2b.json", 0x2c90b3029ed0bd7c),
    ("full/exp3.json", 0x0a8f53e22251fb83),
    ("full/exp4.json", 0x7614a8ce22ff3e2b),
];

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fingerprint of each golden file under `root`.
fn fingerprints(root: &Path) -> Vec<(&'static str, u64)> {
    GOLDEN
        .iter()
        .map(|&(name, _)| {
            let bytes = std::fs::read(root.join(name))
                .unwrap_or_else(|e| panic!("read {}: {e}", root.join(name).display()));
            (name, fnv(&bytes))
        })
        .collect()
}

/// A scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
#[ignore = "full scale: run in release with --ignored"]
fn the_full_scale_record_is_what_the_code_produces() {
    let scratch =
        Scratch(std::env::temp_dir().join(format!("wc-golden-full-{}", std::process::id())));
    let results = scratch.0.join("results");
    std::fs::create_dir_all(&results).expect("create scratch results");
    let output = File::create(results.join("full_output.txt")).expect("create output file");
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--scale", "1", "--json", "results/full", "all"])
        .current_dir(&scratch.0)
        .stdout(output.try_clone().expect("share output file"))
        .stderr(output)
        .status()
        .expect("run experiments");
    assert!(status.success(), "experiments exited with {status}");

    let produced = fingerprints(&results);
    if produced != GOLDEN {
        let table: Vec<String> = (produced.iter())
            .map(|(name, f)| format!("    ({name:?}, {f:#018x}),"))
            .collect();
        panic!("full-scale fingerprints moved:\n{}", table.join("\n"));
    }
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    assert_eq!(
        fingerprints(&committed),
        GOLDEN,
        "the committed record is not what the code produces: regenerate it"
    );
}
