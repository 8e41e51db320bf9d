//! `webcache-proxy` — the caching proxy as a standalone process.
//!
//! Binds an ephemeral port (printed on stdout as
//! `webcache-proxy: listening on <addr>` so a driver can connect),
//! forwards misses to `--origin`, and optionally persists the cache
//! crash-safely under `--persist-dir` (snapshots + append-only journal;
//! a SIGKILLed process warm-restarts from disk). SIGINT/SIGTERM shut
//! down gracefully: the journal is flushed and a final snapshot taken.
//!
//! A failing disk never takes down the proxy: persist errors move the
//! health machine `Healthy -> Degraded -> Disabled` (serving continues
//! throughout), each transition is printed on stdout, and the exit
//! status reports where it ended up (`0` healthy, `3` degraded, `4`
//! disabled). `--iofault` injects disk faults deterministically for
//! tests and chaos runs.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;
use webcache_core::policy::{named, RemovalPolicy};
use webcache_proxy::{
    ClusterConfig, IoFaultPlan, PersistConfig, PersistHealth, ProxyConfig, ProxyServer,
};

const USAGE: &str = "\
usage: webcache-proxy --origin ADDR [options]

  --origin ADDR          origin server address (required), e.g. 127.0.0.1:8080
  --capacity BYTES       total cache capacity, at least one byte per shard
                                                         [default: 1048576]
  --shards N             shard count (power of two)      [default: 8]
  --workers N            ignored: one event loop serves every request;
                         to be dropped once the benchmark stops passing it
  --ttl TICKS            freshness lifetime in logical ticks (omit: no TTL)
  --policy NAME          removal policy: lru, size, lfu, fifo, hyper-g,
                         log2size-lru, lru-min, pitkow-recker, gd-size, or
                         KEY/KEY (primary/secondary sort key) over size,
                         log2size, etime, atime, day, nref, random, doctype,
                         latency, expiry                 [default: size]
  --persist-dir PATH     enable crash-safe persistence into PATH
  --cluster-seed-list L  run as a cluster node; L maps node ids to peer
                         ports, e.g. 0=127.0.0.1:7000,1=127.0.0.1:7001

 needs --persist-dir:
  --snapshot-interval MS snapshot cadence in milliseconds [default: 2000]
  --journal-fsync MS     journal group-fsync interval     [default: 25]
  --iofault SPEC         inject disk faults into the persist paths, e.g.
                         seed=7,append=1.0,sync=0.5,short=0.1,snapshot=0.2,
                         slow=0.1,slow-ms=50,from=100,to=200
  --degraded-backoff MS  re-arm probe backoff base        [default: 200]
  --degraded-retries N   failed probes before persistence is disabled
                                                         [default: 8]

 needs --cluster-seed-list:
  --node-id N            this node's id in the seed list  [default: 0]
  --peer-timeout MS      peer connect/read timeout, at least 1
                                                         [default: 250]

exit status: 0 ok; 2 usage; 3 persistence ended degraded; 4 disabled
";

struct Args {
    origin: SocketAddr,
    config: ProxyConfig,
    policy: String,
    persist: Option<PersistConfig>,
    cluster: Option<ClusterConfig>,
}

fn die(msg: &str) -> ! {
    eprintln!("webcache-proxy: {msg}");
    eprint!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut origin: Option<SocketAddr> = None;
    let mut capacity: u64 = 1 << 20;
    let mut shards: usize = 8;
    let mut ttl: Option<u64> = None;
    let mut policy = String::from("size");
    // Flags that configure persistence or the cluster stay `None` unless
    // given, so one given without its subsystem is caught below.
    let mut persist_dir: Option<PathBuf> = None;
    let mut snapshot_interval: Option<Duration> = None;
    let mut journal_fsync: Option<Duration> = None;
    let mut iofault: Option<IoFaultPlan> = None;
    let mut degraded_backoff: Option<Duration> = None;
    let mut degraded_retries: Option<u32> = None;
    let mut seed_list: Option<Vec<(u32, SocketAddr)>> = None;
    let mut node_id: Option<u32> = None;
    let mut peer_timeout: Option<Duration> = None;

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let Some(value) = it.next() else {
            die(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--origin" => match value.parse() {
                Ok(a) => origin = Some(a),
                Err(_) => die(&format!("bad --origin address: {value}")),
            },
            "--capacity" => match value.parse() {
                Ok(v) => capacity = v,
                Err(_) => die(&format!("bad --capacity: {value}")),
            },
            "--shards" => match value.parse() {
                Ok(v) => shards = v,
                Err(_) => die(&format!("bad --shards: {value}")),
            },
            "--workers" => {}
            "--ttl" => match value.parse() {
                Ok(v) => ttl = Some(v),
                Err(_) => die(&format!("bad --ttl: {value}")),
            },
            "--policy" => policy = value,
            "--persist-dir" => persist_dir = Some(PathBuf::from(value)),
            "--snapshot-interval" => match value.parse() {
                Ok(ms) => snapshot_interval = Some(Duration::from_millis(ms)),
                Err(_) => die(&format!("bad --snapshot-interval: {value}")),
            },
            "--journal-fsync" => match value.parse() {
                Ok(ms) => journal_fsync = Some(Duration::from_millis(ms)),
                Err(_) => die(&format!("bad --journal-fsync: {value}")),
            },
            "--iofault" => match IoFaultPlan::parse(&value) {
                Ok(plan) => iofault = Some(plan),
                Err(e) => die(&format!("bad --iofault: {e}")),
            },
            "--degraded-backoff" => match value.parse() {
                Ok(ms) => degraded_backoff = Some(Duration::from_millis(ms)),
                Err(_) => die(&format!("bad --degraded-backoff: {value}")),
            },
            "--degraded-retries" => match value.parse() {
                Ok(n) => degraded_retries = Some(n),
                Err(_) => die(&format!("bad --degraded-retries: {value}")),
            },
            "--cluster-seed-list" => match ClusterConfig::parse_seed_list(&value) {
                Ok(list) => seed_list = Some(list),
                Err(e) => die(&format!("bad --cluster-seed-list: {e}")),
            },
            "--node-id" => match value.parse() {
                Ok(n) => node_id = Some(n),
                Err(_) => die(&format!("bad --node-id: {value}")),
            },
            "--peer-timeout" => match value.parse() {
                // A zero timeout is one `connect_timeout` rejects: every
                // peer call would fail and the breakers drop every peer.
                Ok(0) => die("--peer-timeout must be at least 1 ms"),
                Ok(ms) => peer_timeout = Some(Duration::from_millis(ms)),
                Err(_) => die(&format!("bad --peer-timeout: {value}")),
            },
            _ => die(&format!("unknown flag: {flag}")),
        }
    }

    let Some(origin) = origin else {
        die("--origin is required");
    };
    if named::by_name(&policy).is_none() {
        die(&format!("unknown --policy: {policy}"));
    }
    if !shards.is_power_of_two() {
        die(&format!(
            "--shards must be a nonzero power of two, got {shards}"
        ));
    }
    if capacity < shards as u64 {
        die(&format!(
            "--capacity {capacity} is less than a byte for each of {shards} shards"
        ));
    }
    let persist_flags = [
        ("--snapshot-interval", snapshot_interval.is_some()),
        ("--journal-fsync", journal_fsync.is_some()),
        ("--iofault", iofault.is_some()),
        ("--degraded-backoff", degraded_backoff.is_some()),
        ("--degraded-retries", degraded_retries.is_some()),
    ];
    let cluster_flags = [
        ("--node-id", node_id.is_some()),
        ("--peer-timeout", peer_timeout.is_some()),
    ];
    for (needs, enabled, flags) in [
        ("--persist-dir", persist_dir.is_some(), &persist_flags[..]),
        (
            "--cluster-seed-list",
            seed_list.is_some(),
            &cluster_flags[..],
        ),
    ] {
        if let Some((flag, _)) = flags.iter().find(|(_, given)| *given && !enabled) {
            die(&format!(
                "{flag} needs {needs}: without it the flag does nothing"
            ));
        }
    }
    let mut config = ProxyConfig::new(capacity).with_shards(shards);
    config.ttl = ttl;
    let cluster = seed_list.map(|list| {
        let node_id = node_id.unwrap_or(0);
        if !list.iter().any(|(id, _)| *id == node_id) {
            die(&format!("--node-id {node_id} is not in the seed list"));
        }
        let mut cfg = ClusterConfig::new(node_id, list);
        if let Some(t) = peer_timeout {
            cfg.peer_timeout = t;
        }
        cfg
    });
    Args {
        origin,
        config,
        policy,
        cluster,
        persist: persist_dir.map(|dir| {
            let mut cfg = PersistConfig::new(dir);
            cfg.snapshot_interval = snapshot_interval.unwrap_or(cfg.snapshot_interval);
            cfg.journal_fsync = journal_fsync.unwrap_or(cfg.journal_fsync);
            cfg.iofault = iofault;
            cfg.degraded_backoff = degraded_backoff.unwrap_or(cfg.degraded_backoff);
            cfg.degraded_max_retries = degraded_retries.unwrap_or(cfg.degraded_max_retries);
            cfg
        }),
    }
}

fn main() {
    let args = parse_args();
    let policy_name = args.policy.clone();
    let make_policy = move || -> Box<dyn RemovalPolicy> {
        named::by_name(&policy_name).unwrap_or_else(|| Box::new(named::size()))
    };

    if args.persist.is_some() && args.cluster.is_some() {
        die("--persist-dir and --cluster-seed-list cannot be combined (yet)");
    }
    let started = match (args.persist, args.cluster) {
        (Some(persist), None) => {
            ProxyServer::start_persistent(args.origin, args.config, persist, make_policy)
                .map_err(|e| e.to_string())
        }
        (None, Some(cluster)) => {
            ProxyServer::start_clustered(args.origin, args.config, cluster, make_policy)
                .map_err(|e| e.to_string())
        }
        _ => ProxyServer::start(args.origin, args.config, make_policy).map_err(|e| e.to_string()),
    };
    let server = started.unwrap_or_else(|e| {
        eprintln!("webcache-proxy: failed to start: {e}");
        std::process::exit(1);
    });

    if let Some(c) = server.cluster_state() {
        println!(
            "webcache-proxy: cluster node {} of {:?} (epoch {})",
            c.node_id(),
            c.members(),
            c.epoch(),
        );
    }
    // Whatever starts this process (tests, the benchmark) parses this
    // line for the port.
    println!("webcache-proxy: listening on {}", server.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();

    webcache_core::lifecycle::install_signal_handlers();
    while !webcache_core::lifecycle::stop_requested() {
        std::thread::sleep(Duration::from_millis(25));
    }
    // Graceful shutdown: drain the reactor, flush the journal, take the
    // final snapshot (all inside ProxyServer's Drop). Keep the health
    // handle across the drop — the final snapshot can still change it.
    let stats = server.stats();
    let health = server.persist_health_state();
    drop(server);
    println!(
        "webcache-proxy: shutdown complete ({} requests, {} hits)",
        stats.requests, stats.hits
    );
    if let Some(h) = health {
        let (final_health, s) = (h.health(), h.stats());
        println!(
            "webcache-proxy: persist: final health {} ({} lost, {} dropped, {} degraded, {} healed)",
            final_health.name(),
            s.journal_lost_records,
            s.journal_dropped,
            s.degraded_transitions,
            s.heals,
        );
        match final_health {
            PersistHealth::Healthy => {}
            PersistHealth::Degraded => std::process::exit(3),
            PersistHealth::Disabled => std::process::exit(4),
        }
    }
}
