//! Golden fingerprints of generated traces.
//!
//! `generate` must produce the same trace for a `(profile, seed)` pair
//! whatever is done to make it faster. `generate_serial` cannot prove
//! that: it shares the calibration and the universe build with
//! `generate`, so it shares any change to them. These fingerprints were
//! taken from the generator before its calibration search decided probes
//! by a bracket (DESIGN D32), and every case must still produce them.
//!
//! A fingerprint is FNV-1a over every request's (time, url, size, client,
//! server, doc_type, last_modified), the interned URL, server and client
//! texts in id order, and the validation counters. On a mismatch the test
//! prints every case's value in the table's own syntax.

use webcache_trace::{ClientId, ServerId, Trace, UrlId};
use webcache_workload::{generate, profiles};

/// The scale `benchmark/`'s `paper_mix` generates U at: 4 000 requests
/// a second for the 15 s of a 30 s run's first phase, over U's 173 384.
const PAPER_MIX: f64 = 4000.0 * 15.0 / 173_384.0;

const SEEDS: [u64; 2] = [1, 1996];

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A text and a terminator no UTF-8 text contains.
    fn text(&mut self, s: Option<&str>) {
        self.bytes(s.expect("every id below the count has a text").as_bytes());
        self.bytes(&[0xff]);
    }
}

fn fingerprint(t: &Trace) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(t.requests.len() as u64);
    for r in &t.requests {
        h.u64(r.time);
        h.u64(u64::from(r.url.0));
        h.u64(r.size);
        h.u64(u64::from(r.client.0));
        h.u64(u64::from(r.server.0));
        h.u64(r.doc_type as u64);
        match r.last_modified {
            None => h.bytes(&[0]),
            Some(lm) => {
                h.bytes(&[1]);
                h.u64(lm);
            }
        }
    }
    let i = &t.interner;
    for id in 0..i.url_count() as u32 {
        h.text(i.url_text(UrlId(id)));
    }
    for id in 0..i.server_count() as u32 {
        h.text(i.server_text(ServerId(id)));
    }
    for id in 0..i.client_count() as u32 {
        h.text(i.client_text(ClientId(id)));
    }
    let v = &t.validation;
    for n in [
        v.accepted,
        v.dropped_not_ok,
        v.dropped_zero_unseen,
        v.assigned_last_known,
        v.size_changes,
        v.rereferences,
    ] {
        h.u64(n);
    }
    h.0
}

/// Generate every profile at `scale` for both seeds and compare with
/// `golden`, one `(profile, seed, fingerprint)` row per case.
fn check(scale: f64, golden: &[(&str, u64, u64)]) {
    let mut got = Vec::new();
    for p in profiles::all() {
        let profile = p.scaled(scale);
        for seed in SEEDS {
            got.push((p.name.clone(), seed, fingerprint(&generate(&profile, seed))));
        }
    }
    let want: Vec<(String, u64, u64)> = golden
        .iter()
        .map(|&(n, s, f)| (n.to_string(), s, f))
        .collect();
    if got != want {
        let rows: String = got
            .iter()
            .map(|(n, s, f)| format!("        ({n:?}, {s}, {f:#018x}),\n"))
            .collect();
        panic!("fingerprints at scale {scale} changed; this build gives:\n{rows}");
    }
}

#[test]
fn scale_0_002() {
    check(
        0.002,
        &[
            ("U", 1, 0x8d9481d1e35da33f),
            ("U", 1996, 0x7468d389b8b8ebd1),
            ("G", 1, 0x44aa75c3cdf0d274),
            ("G", 1996, 0xd77a4237cf2c8e4e),
            ("C", 1, 0x119050fc29f34c37),
            ("C", 1996, 0x78f870151383624a),
            ("BR", 1, 0x44c6d400b491f4ce),
            ("BR", 1996, 0xa6c9a0443580304c),
            ("BL", 1, 0xb933d774c748d72f),
            ("BL", 1996, 0xe12cc9a1344ea070),
        ],
    );
}

#[test]
fn scale_0_02() {
    check(
        0.02,
        &[
            ("U", 1, 0xa68dc735854e0249),
            ("U", 1996, 0x5ba90712819629a0),
            ("G", 1, 0xc53395195a4aab0a),
            ("G", 1996, 0xf52bc886acc6f792),
            ("C", 1, 0x251190197905d406),
            ("C", 1996, 0x5bee0a806a63c255),
            ("BR", 1, 0x1b17725622ff9a41),
            ("BR", 1996, 0x342cbcafbd00e3d1),
            ("BL", 1, 0xbbf601ac27b8836b),
            ("BL", 1996, 0x341ce0548a803c05),
        ],
    );
}

#[test]
fn scale_0_1() {
    check(
        0.1,
        &[
            ("U", 1, 0x67c5aea51dc09ffd),
            ("U", 1996, 0x306b0f7611d8f816),
            ("G", 1, 0xbd90eb6a2158fe1e),
            ("G", 1996, 0x8f5591053fac9c1d),
            ("C", 1, 0xce1dba037c9aedb8),
            ("C", 1996, 0x3c6c9d39289f991b),
            ("BR", 1, 0xf89a90bcd361ea96),
            ("BR", 1996, 0xc5cbd6549a5fb10d),
            ("BL", 1, 0x85832d9e1707ad27),
            ("BL", 1996, 0x301e3e178d60f16e),
        ],
    );
}

#[test]
fn paper_mix_scale() {
    check(
        PAPER_MIX,
        &[
            ("U", 1, 0xf769de2dc306a00a),
            ("U", 1996, 0xc87bd412970e7116),
            ("G", 1, 0xef0e485a525db99a),
            ("G", 1996, 0xbc86c5123cc46662),
            ("C", 1, 0xdbb992bb8fb66fb0),
            ("C", 1996, 0x3cc6e24c54338d0f),
            ("BR", 1, 0x0131b9e44faed9e5),
            ("BR", 1996, 0x64994f954d8c6263),
            ("BL", 1, 0x8379db85bec98e2b),
            ("BL", 1996, 0xa329f858b09bba54),
        ],
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full scale takes minutes unoptimised")]
fn full_scale() {
    check(
        1.0,
        &[
            ("U", 1, 0x1667b1b6550b44ce),
            ("U", 1996, 0x9a49520c56e54d85),
            ("G", 1, 0x13233b18b1ee5df0),
            ("G", 1996, 0x248e4a834babe076),
            ("C", 1, 0xbfa6e6a6958084f5),
            ("C", 1996, 0x1766bc4a196ecf7d),
            ("BR", 1, 0xb314a957f3945894),
            ("BR", 1996, 0x3999d14810bb8489),
            ("BL", 1, 0xa0e582e7d42d6eb8),
            ("BL", 1996, 0x64b2a4e26dcefcd3),
        ],
    );
}
