//! Consistent-hash ring for a cluster of web caches (design decision
//! D17).
//!
//! The paper studies one cache at a network choke point; a deployment
//! has several. This module supplies the *routing* half of the cluster
//! layer: a deterministic consistent-hash ring mapping each URL to
//! exactly one owner node, so the cluster behaves as one logical cache
//! whose capacity is the sum of its members — each document's lifetime
//! is still governed by exactly one removal-policy instance, on its
//! owner (cf. Gallo et al., *Random Replacement for Networks of
//! Caches*).
//!
//! ## Construction
//!
//! Every node of a [`Membership`] contributes `vnodes` points on a
//! 64-bit ring; a point is the [`Hasher64`] (the same FNV-1a word
//! discipline that checksums `.wct`/`.wcs` sections) digest of
//! `(seed, node_id, replica)`. A key is hashed the same way over its
//! URL text — the *text*, not the per-process interned id, so every
//! node and every client computes the identical owner. The owner of a
//! key is the node contributing the first point clockwise from the
//! key's hash.
//!
//! Determinism is load-bearing: two processes given the same `(seed,
//! members, vnodes)` must build bit-identical rings with no
//! coordination, because cluster nodes and the load generator each
//! rebuild the ring locally from the membership epoch they believe in.
//! `tests/ring.rs` pins this with proptests, together with the bounded
//! key-movement property: adding or removing one node of `n` reassigns
//! roughly `K/n` of `K` keys — only the keys whose clockwise successor
//! changed — never a full reshuffle.
//!
//! ## Membership
//!
//! [`Membership`] is a versioned set of node ids: a monotonically
//! increasing `epoch` plus a sorted member list. Membership starts from
//! a static seed list and changes by *epoch bump*: [`Membership::with`]
//! / [`Membership::without`] return a new membership at `epoch + 1`.
//! Higher epoch wins everywhere; ties are harmless because equal epochs
//! imply equal member sets under the bump rules (a node only bumps when
//! its set actually changes, and bumps are totally ordered per origin
//! node in a static-seed-list deployment).

use crate::util::splitmix64;
use webcache_trace::binfmt::Hasher64;

/// Default virtual nodes contributed to the ring by each member. 64
/// points per node keeps the owner-share imbalance of a small cluster
/// within a few percent while the full ring stays tiny (a 8-node ring
/// is 512 sorted pairs).
pub const DEFAULT_VNODES: u32 = 64;

/// Hash a URL key onto the ring: [`Hasher64`] over the key's text
/// bytes. Uses the raw URL text — never a per-process interned id — so
/// every node and client agrees on the placement of every key.
pub fn key_hash(key: &str) -> u64 {
    let mut h = Hasher64::new();
    h.update(key.as_bytes());
    h.finish()
}

/// The ring point for `(seed, node, replica)`: [`Hasher64`] over the
/// three values in little-endian order (the trace-checksum word
/// discipline), decorrelated through [`splitmix64`]. The extra
/// finalisation matters: FNV is linear-ish over inputs differing only
/// in a few low bits, so raw digests of `(seed, node, replica)` tuples
/// form a lattice that badly imbalances owner shares; splitmix64 is the
/// same mix the sharded cache already uses to spread dense ids.
fn point_hash(seed: u64, node: u32, replica: u32) -> u64 {
    let mut h = Hasher64::new();
    h.update(&seed.to_le_bytes());
    h.update(&u64::from(node).to_le_bytes());
    h.update(&u64::from(replica).to_le_bytes());
    splitmix64(h.finish())
}

/// A versioned cluster membership: monotonically increasing epoch plus
/// a sorted, deduplicated set of node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    /// Version of this member set; higher epoch always wins.
    pub epoch: u64,
    /// Sorted, deduplicated node ids.
    pub members: Vec<u32>,
}

impl Membership {
    /// A membership at `epoch` over `members` (sorted and deduplicated
    /// here, so callers may pass any order).
    pub fn new(epoch: u64, mut members: Vec<u32>) -> Membership {
        members.sort_unstable();
        members.dedup();
        Membership { epoch, members }
    }

    /// Does the set contain `node`?
    pub fn contains(&self, node: u32) -> bool {
        self.members.binary_search(&node).is_ok()
    }

    /// The membership after `node` joins: same set plus `node`, at
    /// `epoch + 1`. Returns an unchanged-epoch clone when `node` is
    /// already a member (no bump without an actual change).
    pub fn with(&self, node: u32) -> Membership {
        if self.contains(node) {
            return self.clone();
        }
        let mut members = self.members.clone();
        members.push(node);
        members.sort_unstable();
        Membership {
            epoch: self.epoch + 1,
            members,
        }
    }

    /// The membership after `node` leaves: same set minus `node`, at
    /// `epoch + 1`. Returns an unchanged-epoch clone when `node` is not
    /// a member.
    pub fn without(&self, node: u32) -> Membership {
        if !self.contains(node) {
            return self.clone();
        }
        Membership {
            epoch: self.epoch + 1,
            members: self
                .members
                .iter()
                .copied()
                .filter(|&m| m != node)
                .collect(),
        }
    }
}

/// A deterministic consistent-hash ring over a [`Membership`].
///
/// Built locally by every node and client from `(seed, membership,
/// vnodes)`; identical inputs yield bit-identical rings (see the module
/// docs). Lookup is a binary search over the sorted point list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// Sorted `(point, node)` pairs; ties broken by node id.
    points: Vec<(u64, u32)>,
    epoch: u64,
    members: Vec<u32>,
}

impl HashRing {
    /// Build the ring for `membership` with `vnodes` points per member.
    ///
    /// # Panics
    ///
    /// Panics when the membership is empty or `vnodes` is zero — a ring
    /// with no points cannot own keys, and the proxy guarantees its own
    /// node id is always a member.
    pub fn build(seed: u64, membership: &Membership, vnodes: u32) -> HashRing {
        assert!(
            !membership.members.is_empty(),
            "cannot build a hash ring over an empty membership"
        );
        assert!(vnodes > 0, "vnodes must be nonzero");
        let mut points = Vec::with_capacity(membership.members.len() * vnodes as usize);
        for &node in &membership.members {
            for replica in 0..vnodes {
                points.push((point_hash(seed, node, replica), node));
            }
        }
        // Sort by (hash, node): a 64-bit point collision between two
        // nodes (astronomically unlikely, but determinism must not
        // depend on luck) resolves to the lower node id on every
        // builder.
        points.sort_unstable();
        HashRing {
            points,
            epoch: membership.epoch,
            members: membership.members.clone(),
        }
    }

    /// The membership epoch this ring was built from.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sorted member ids this ring was built from.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ring has exactly one member (no peers to ask).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The node owning `key` (hashes the key text, then
    /// [`HashRing::owner_of_hash`]).
    pub fn owner(&self, key: &str) -> u32 {
        self.owner_of_hash(key_hash(key))
    }

    /// The node owning ring position `h`: the node contributing the
    /// first point at or clockwise after `h`, wrapping at the top of
    /// the 64-bit space.
    pub fn owner_of_hash(&self, h: u64) -> u32 {
        let i = self.points.partition_point(|&(p, _)| p < h);
        let (_, node) = if i == self.points.len() {
            self.points[0]
        } else {
            self.points[i]
        };
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u32) -> Vec<String> {
        (0..n)
            .map(|i| format!("http://s{}.test/doc-{i}.html", i % 13))
            .collect()
    }

    #[test]
    fn same_inputs_build_identical_rings() {
        let m = Membership::new(3, vec![2, 0, 1, 1]);
        assert_eq!(m.members, vec![0, 1, 2], "sorted + deduped");
        let a = HashRing::build(0xabcd, &m, DEFAULT_VNODES);
        let b = HashRing::build(0xabcd, &m, DEFAULT_VNODES);
        assert_eq!(a, b);
        for k in keys(500) {
            assert_eq!(a.owner(&k), b.owner(&k));
        }
    }

    #[test]
    fn different_seed_is_a_different_ring() {
        let m = Membership::new(0, vec![0, 1, 2]);
        let a = HashRing::build(1, &m, DEFAULT_VNODES);
        let b = HashRing::build(2, &m, DEFAULT_VNODES);
        let moved = keys(2000)
            .iter()
            .filter(|k| a.owner(k) != b.owner(k))
            .count();
        assert!(moved > 0, "seed must matter");
    }

    #[test]
    fn all_members_own_a_fair_share() {
        let m = Membership::new(0, vec![0, 1, 2, 3]);
        let ring = HashRing::build(7, &m, DEFAULT_VNODES);
        let mut share = [0usize; 4];
        let ks = keys(20_000);
        for k in &ks {
            share[ring.owner(k) as usize] += 1;
        }
        for (node, &s) in share.iter().enumerate() {
            let frac = s as f64 / ks.len() as f64;
            assert!(
                (0.10..=0.45).contains(&frac),
                "node {node} owns {frac:.3} of keys — ring badly imbalanced"
            );
        }
    }

    #[test]
    fn membership_bump_rules() {
        let m = Membership::new(0, vec![0, 1]);
        let grown = m.with(2);
        assert_eq!(grown.epoch, 1);
        assert_eq!(grown.members, vec![0, 1, 2]);
        // No-op changes do not bump.
        assert_eq!(m.with(1).epoch, 0);
        assert_eq!(m.without(9).epoch, 0);
        let shrunk = grown.without(0);
        assert_eq!(shrunk.epoch, 2);
        assert_eq!(shrunk.members, vec![1, 2]);
    }

    #[test]
    fn removing_a_node_only_moves_its_own_keys() {
        let m = Membership::new(0, vec![0, 1, 2, 3]);
        let ring = HashRing::build(42, &m, DEFAULT_VNODES);
        let smaller = HashRing::build(42, &m.without(3), DEFAULT_VNODES);
        for k in keys(5000) {
            let before = ring.owner(&k);
            if before != 3 {
                assert_eq!(
                    smaller.owner(&k),
                    before,
                    "key not owned by the removed node must not move"
                );
            } else {
                assert_ne!(smaller.owner(&k), 3);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty membership")]
    fn empty_membership_is_rejected() {
        let _ = HashRing::build(0, &Membership::new(0, vec![]), 1);
    }
}
