//! One shard's URL table (DESIGN.md D26) against a model that never
//! forgets.
//!
//! The table only says which slot id a URL has; whether the slot holds a
//! document is the cache's business. Here the cache is a map from id to
//! the document installed there, and the model is a `HashMap` from every
//! URL ever installed to the version it had last. Over random
//! install / evict / lookup / snapshot-restore sequences (sweeps happen
//! when the table decides):
//!
//! * two resident documents never share an id;
//! * a lookup never returns another URL's document, and never misses a
//!   resident one;
//! * ids stay below `2 × (most documents ever resident) + SLACK` however
//!   many distinct URLs pass through — a swept id is handed out again;
//! * a table restored from the resident documents has each under the id
//!   it had.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use webcache_proxy::url_table::{UrlTable, SLACK};
use webcache_trace::UrlId;

fn text(u: u8) -> Arc<str> {
    Arc::from(format!("http://table.test/doc-{u}.html"))
}

/// The slots of a cache that holds at most `room` documents and removes
/// the oldest to make room: id → (URL, version).
struct Slots {
    room: usize,
    held: HashMap<u32, (Arc<str>, u64)>,
    /// Ids in the order their documents arrived.
    order: Vec<u32>,
}

impl Slots {
    fn remove(&mut self, id: u32) {
        self.held.remove(&id);
        self.order.retain(|held| *held != id);
    }
}

fn bind(table: &mut UrlTable, slots: &Slots, url: &Arc<str>) -> UrlId {
    table.bind(url, slots.held.len(), |id| slots.held.contains_key(&id.0))
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Install(u8),
    Evict(u8),
    Lookup(u8),
    Restore,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..10, 0u8..64), 1..400).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, u)| match kind {
                0..=4 => Op::Install(u),
                5..=6 => Op::Evict(u),
                7..=8 => Op::Lookup(u),
                _ => Op::Restore,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn table_agrees_with_a_model_that_never_forgets(ops in ops(), room in 1usize..8) {
        let mut table = UrlTable::default();
        let mut slots = Slots { room, held: HashMap::new(), order: Vec::new() };
        let mut model: HashMap<Arc<str>, u64> = HashMap::new();
        let mut version = 0u64;
        for op in ops {
            match op {
                Op::Install(u) => {
                    let url = text(u);
                    let id = bind(&mut table, &slots, &url);
                    if let Some((held, _)) = slots.held.get(&id.0) {
                        prop_assert!(*held == url, "{url} bound to the id {held} is resident under");
                        slots.remove(id.0);
                    }
                    while slots.held.len() >= slots.room {
                        let oldest = slots.order[0];
                        slots.remove(oldest);
                    }
                    version += 1;
                    slots.held.insert(id.0, (Arc::clone(&url), version));
                    slots.order.push(id.0);
                    model.insert(url, version);
                    prop_assert!(
                        (id.0 as usize) < 2 * room + SLACK,
                        "id {} with never more than {room} documents resident", id.0
                    );
                }
                Op::Evict(u) => {
                    if let Some(id) = table.get(&text(u)) {
                        if slots.held.get(&id.0).is_some_and(|(held, _)| *held == text(u)) {
                            slots.remove(id.0);
                        }
                    }
                }
                Op::Lookup(u) => {
                    let url = text(u);
                    let entries = table.entries();
                    let found = table.get(&url).and_then(|id| slots.held.get(&id.0));
                    prop_assert!(table.entries() == entries, "a lookup added an entry");
                    match found {
                        Some((held, version)) => {
                            prop_assert!(*held == url, "lookup of {url} found {held}");
                            prop_assert_eq!(Some(version), model.get(&url));
                        }
                        None => prop_assert!(
                            slots.held.values().all(|(held, _)| *held != url),
                            "{url} is resident and the table cannot find it"
                        ),
                    }
                }
                Op::Restore => {
                    table = UrlTable::restore(
                        slots.held.iter().map(|(id, (url, _))| (Arc::clone(url), UrlId(*id))),
                    );
                    prop_assert_eq!(table.entries(), slots.held.len());
                    for (id, (url, _)) in &slots.held {
                        prop_assert_eq!(table.get(url), Some(UrlId(*id)));
                    }
                }
            }
            prop_assert!(table.entries() <= 2 * room + SLACK);
        }
    }
}

#[test]
fn a_lookup_binds_nothing_and_a_bind_is_stable() {
    let mut table = UrlTable::default();
    assert_eq!(table.get("http://table.test/a"), None);
    assert_eq!(table.entries(), 0);
    let a = text(1);
    let id = table.bind(&a, 0, |_| false);
    assert_eq!(table.bind(&a, 0, |_| false), id);
    assert_eq!(table.get(&a), Some(id));
    assert_eq!(table.entries(), 1);
}

#[test]
fn the_sweep_drops_exactly_the_empty_slots_and_reuses_their_ids() {
    let mut table = UrlTable::default();
    // Nothing is ever resident: the table holds SLACK entries at most.
    for u in 0..100 {
        let id = table.bind(&text(u), 0, |_| false);
        assert!((id.0 as usize) < SLACK, "id {} for URL {u}", id.0);
        assert!(table.entries() <= SLACK);
    }
    // One resident document survives every sweep under its own id.
    let keep = text(200);
    let kept = table.bind(&keep, 0, |_| false);
    for u in 0..100 {
        let id = table.bind(&text(u), 1, |id| id == kept);
        assert_ne!(id, kept);
        assert_eq!(table.get(&keep), Some(kept));
        assert!(table.entries() <= 2 + SLACK);
    }
}

#[test]
fn a_restored_table_hands_out_the_gaps_before_anything_new() {
    let bound = [(text(0), UrlId(5)), (text(1), UrlId(2))];
    let mut table = UrlTable::restore(bound.clone());
    for (url, id) in &bound {
        assert_eq!(table.get(url), Some(*id));
    }
    let resident = |id: UrlId| id == UrlId(5) || id == UrlId(2);
    let fresh: Vec<u32> = (10..15)
        .map(|u| table.bind(&text(u), 2, resident).0)
        .collect();
    assert_eq!(fresh, [0, 1, 3, 4, 6]);
}
