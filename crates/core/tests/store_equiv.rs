//! Property: the dense [`SlabStore`] is observably a map from [`UrlId`] to
//! one `(DocMeta, payload)` entry. Any sequence of inserts, replacements,
//! in-place edits and removals leaves it agreeing with a plain `HashMap`
//! model on every return value, on every lookup, on its length and on the
//! set of entries it iterates — payload included, so a payload can neither
//! outlive its document nor be handed to another one.

use proptest::prelude::*;
use std::collections::HashMap;
use webcache_core::cache::{DocMeta, SlabStore};
use webcache_trace::{DocType, UrlId};

fn meta(url: u32, size: u64) -> DocMeta {
    DocMeta {
        url: UrlId(url),
        size,
        doc_type: DocType::Text,
        entry_time: size,
        last_access: size,
        nrefs: 1,
        expires: None,
        refetch_latency_ms: 0,
        type_priority: 0,
        last_modified: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slab_store_agrees_with_a_hash_map_model(
        ops in prop::collection::vec((0u8..4, 0u32..24, 1u64..3_000), 1..300),
    ) {
        let mut slab: SlabStore<String> = SlabStore::default();
        let mut model: HashMap<UrlId, (DocMeta, String)> = HashMap::new();
        for (step, &(op, url, size)) in ops.iter().enumerate() {
            let id = UrlId(url);
            match op {
                // Insert or replace: the displaced entry comes back whole.
                0 | 1 => {
                    let payload = format!("{url}@{step}");
                    let a = slab.insert(meta(url, size), payload.clone());
                    let b = model.insert(id, (meta(url, size), payload));
                    prop_assert_eq!(a, b);
                }
                2 => prop_assert_eq!(slab.remove(id), model.remove(&id)),
                // Edit in place through both mutable views.
                _ => {
                    let a = slab.entry_mut(id).map(|(m, p)| {
                        m.nrefs += size;
                        p.push('!');
                    });
                    let b = model.get_mut(&id).map(|(m, p)| {
                        m.nrefs += size;
                        p.push('!');
                    });
                    prop_assert_eq!(a, b);
                    if let Some(m) = slab.get_mut(id) {
                        m.last_access = step as u64;
                        model.get_mut(&id).unwrap().0.last_access = step as u64;
                    }
                }
            }
            prop_assert_eq!(slab.len(), model.len());
            prop_assert_eq!(slab.is_empty(), model.is_empty());
            for probe in 0..24 {
                let id = UrlId(probe);
                let want = model.get(&id);
                prop_assert_eq!(slab.entry(id), want.map(|(m, p)| (m, p)));
                prop_assert_eq!(slab.get(id), want.map(|(m, _)| m));
                prop_assert_eq!(slab.contains(id), want.is_some());
            }
        }
        // Iteration visits exactly the model's entries, in id order.
        let seen: Vec<(DocMeta, String)> =
            slab.iter().map(|(m, p)| (*m, p.clone())).collect();
        let mut want: Vec<(DocMeta, String)> = model.into_values().collect();
        want.sort_by_key(|(m, _)| m.url);
        prop_assert_eq!(seen, want);
    }
}
