//! `Interner` against a `HashMap<String, u32>` + `Vec<String>` reference:
//! `intern`, `get`, `resolve`, `len`, `iter` and `canonical_ids` agree
//! after every operation of a random sequence. The strings include empty
//! strings, shared prefixes, non-ASCII text and 300-byte strings, and every
//! sequence interns enough distinct strings to grow the index at least
//! three times.

use pg_hive_graph::{Interner, Symbol};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::HashMap;

/// A string of one of several shapes, chosen by `shape`, filled by `bits`.
fn string_of(shape: u8, bits: u64) -> String {
    const WIDE: [&str; 6] = ["é", "名前", "🦀", "Ω", "ß", "\u{0301}"];
    match shape % 6 {
        0 => String::new(),
        // Shared prefixes: "p", "pr", "pre", ... and their numbered kin.
        1 => "prefix-label"
            .chars()
            .take(1 + bits as usize % 12)
            .collect(),
        2 => format!("prefix-label-{}", bits % 97),
        3 => (0..1 + bits % 4)
            .map(|i| WIDE[((bits >> (8 * i)) % 6) as usize])
            .collect(),
        4 => {
            let mut s = "x".repeat(299);
            s.push(char::from(b'a' + (bits % 26) as u8));
            s
        }
        _ => format!("k{}", bits % 400),
    }
}

/// Every observable of `interner` equals the reference's.
fn agrees(interner: &Interner, strings: &[String]) -> Result<(), TestCaseError> {
    prop_assert_eq!(interner.len(), strings.len());
    prop_assert_eq!(interner.is_empty(), strings.is_empty());
    let listed: Vec<(Symbol, String)> = interner
        .iter()
        .map(|(sym, s)| (sym, s.to_string()))
        .collect();
    let expected: Vec<(Symbol, String)> = strings
        .iter()
        .enumerate()
        .map(|(i, s)| (Symbol(i as u32), s.clone()))
        .collect();
    prop_assert_eq!(listed, expected);
    for (i, s) in strings.iter().enumerate() {
        prop_assert_eq!(interner.resolve(Symbol(i as u32)), s.as_str());
        prop_assert_eq!(interner.get(s), Some(Symbol(i as u32)));
    }
    let mut order: Vec<usize> = (0..strings.len()).collect();
    order.sort_by(|&a, &b| strings[a].cmp(&strings[b]));
    let mut canon = vec![0u32; strings.len()];
    for (rank, &i) in order.iter().enumerate() {
        canon[i] = rank as u32;
    }
    prop_assert_eq!(interner.canonical_ids(), canon);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interner_matches_a_map_and_vec_reference(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<bool>()), 150..400),
    ) {
        let mut interner = Interner::new();
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut strings: Vec<String> = Vec::new();
        for (n, &(shape, bits, insert)) in ops.iter().enumerate() {
            let s = string_of(shape, bits);
            if insert {
                let next = strings.len() as u32;
                let want = *ids.entry(s.clone()).or_insert_with(|| {
                    strings.push(s.clone());
                    next
                });
                prop_assert_eq!(interner.intern(&s), Symbol(want));
            } else {
                prop_assert_eq!(interner.get(&s), ids.get(&s).map(|&i| Symbol(i)));
            }
            if n % 50 == 0 {
                agrees(&interner, &strings)?;
            }
        }
        // Past the 13th, 27th, 55th and 111th distinct string the index
        // doubles from 16 to 32, 64, 128 and 256 slots.
        let mut k = 0u64;
        while strings.len() < 120 {
            let s = format!("growth-{k}");
            k += 1;
            if !ids.contains_key(&s) {
                ids.insert(s.clone(), strings.len() as u32);
                strings.push(s.clone());
            }
            prop_assert_eq!(interner.intern(&s), Symbol(ids[&s]));
        }
        agrees(&interner, &strings)?;
        let clone = interner.clone();
        agrees(&clone, &strings)?;
        prop_assert_eq!(interner.get("never-interned \u{1F980}"), None);
    }
}
