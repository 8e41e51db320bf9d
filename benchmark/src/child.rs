//! The system under test as users get it: a real `webcache-proxy` child
//! process, spawned with the flags a deployment would pass, found next
//! to this binary, and never left running — not even on a panic.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::OnceLock;

/// Shards and workers the proxy runs with: one per core of the 2-core
/// box the numbers are recorded on.
pub const SHARDS: usize = 2;
pub const WORKERS: usize = 2;
pub const POLICY: &str = "size";

/// Where the proxy binary is: `$WEBCACHE_PROXY_BIN`, else next to this
/// executable (one `CARGO_TARGET_DIR` holds both), else the repository's
/// `target/release`.
pub fn proxy_bin() -> Result<PathBuf, String> {
    let mut tried = Vec::new();
    let env = std::env::var_os("WEBCACHE_PROXY_BIN").map(PathBuf::from);
    let sibling = std::env::current_exe()
        .ok()
        .map(|p| p.with_file_name("webcache-proxy"));
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/release/webcache-proxy");
    for candidate in env.into_iter().chain(sibling).chain([repo]) {
        if candidate.is_file() {
            return Ok(candidate);
        }
        tried.push(candidate.display().to_string());
    }
    Err(format!(
        "webcache-proxy binary not found (looked at {}); build it with \
         `cargo build --release -p webcache-proxy --bin webcache-proxy` or run benchmark/run.sh",
        tried.join(", ")
    ))
}

/// `--backend reactor` is passed only while `--help` still lists
/// `--backend`, so collapsing the proxy to one engine does not break the
/// benchmark.
fn backend_flag(bin: &Path) -> &'static [&'static str] {
    static HAS_BACKEND: OnceLock<bool> = OnceLock::new();
    let has = *HAS_BACKEND.get_or_init(|| {
        Command::new(bin)
            .arg("--help")
            .output()
            .map(|o| String::from_utf8_lossy(&o.stdout).contains("--backend"))
            .unwrap_or(false)
    });
    if has {
        &["--backend", "reactor"]
    } else {
        &[]
    }
}

/// Kills the process with SIGKILL and reaps it when dropped — as a crash
/// would: no flush, no final snapshot. Also what makes a panic anywhere in
/// the benchmark leave no proxy behind.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A running proxy child; dropping it kills the process.
pub struct ProxyChild {
    child: KillOnDrop,
    pub addr: SocketAddr,
    /// Kept open: closing the pipe would SIGPIPE the child on its next
    /// status line.
    _stdout: BufReader<ChildStdout>,
}

impl ProxyChild {
    /// Spawn the proxy in front of `origin` and wait for its address.
    /// The persistence cadence is left at the binary's defaults.
    pub fn spawn(
        origin: SocketAddr,
        capacity: u64,
        persist_dir: Option<&Path>,
    ) -> Result<ProxyChild, String> {
        let bin = proxy_bin()?;
        let mut cmd = Command::new(&bin);
        cmd.args(["--origin", &origin.to_string()])
            .args(["--capacity", &capacity.to_string()])
            .args(["--shards", &SHARDS.to_string()])
            .args(["--workers", &WORKERS.to_string()])
            .args(["--policy", POLICY])
            .args(backend_flag(&bin));
        if let Some(dir) = persist_dir {
            cmd.arg("--persist-dir").arg(dir);
        }
        let mut child = KillOnDrop(
            cmd.stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?,
        );
        let mut stdout = BufReader::new(child.0.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => return Err("webcache-proxy exited before printing its address".into()),
            }
            if let Some(rest) = line.trim().strip_prefix("webcache-proxy: listening on ") {
                break rest
                    .parse()
                    .map_err(|e| format!("bad proxy address {rest:?}: {e}"))?;
            }
        };
        Ok(ProxyChild {
            child,
            addr,
            _stdout: stdout,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.0.id()
    }

    /// SIGKILL now and reap, for a restart on the same directory.
    pub fn kill(&mut self) {
        let _ = self.child.0.kill();
        let _ = self.child.0.wait();
    }
}
