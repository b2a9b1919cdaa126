//! String interning for labels and property keys.
//!
//! The discovery pipeline compares label sets and property-key sets millions
//! of times; interning turns those comparisons into integer comparisons and
//! keeps the per-element footprint small (see the "Type Sizes" guidance in
//! the Rust performance book).
//!
//! # Storage layout
//!
//! Interned strings are bump-allocated into one shared arena (`String`),
//! so interning `n` strings costs amortized **one** growing allocation
//! instead of `2n` individual ones. Each symbol has one 8-byte entry,
//! `(end, tag)`: the arena offset where its bytes end, and the high 32 bits
//! of its hash. A symbol's bytes start where the previous symbol's end, so
//! the entry needs no start offset. Lookup goes through a small
//! open-addressing hash index that stores only symbol ids; the index
//! position comes from the hash's low bits. A probe compares the tag of
//! each occupied slot it passes before it reads the arena, so a miss costs
//! one entry read per slot, not a string compare (two cache misses), and a
//! hit compares bytes once, barring a 1-in-2^32 tag collision.

/// An interned string handle. `u32` keeps element structs compact; no real
/// dataset comes close to 2^32 distinct labels or keys (IYP, the largest in
/// the paper, has 33 node labels and ~1.2k patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// Raw index into the interner's table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// FNV-1a over the string bytes — short label/key strings hash in a few
/// cycles and the distribution is good enough for a power-of-two table.
fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // Finalize so the low bits (the table index) depend on every byte.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// The tag an entry keeps: the hash bits the index position does not use.
fn tag_of(h: u64) -> u32 {
    (h >> 32) as u32
}

/// Append-only string interner backed by a bump arena.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// All interned bytes, concatenated in insertion order.
    arena: String,
    /// `(end, tag)` of each symbol: where its bytes end inside `arena`
    /// (they start at the previous symbol's end), and the high 32 bits of
    /// its hash.
    entries: Vec<(u32, u32)>,
    /// Open-addressing index: each slot holds `symbol + 1` (0 = empty).
    /// Power-of-two capacity; rebuilt on growth by re-hashing the strings.
    index: Vec<u32>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes of symbol index `i`.
    fn str_at(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.entries[i - 1].0 };
        &self.arena[start as usize..self.entries[i].0 as usize]
    }

    /// Probe for `s` (with hash `h`). Returns the slot index holding it, or
    /// the first empty slot where it would be inserted.
    fn probe(&self, s: &str, h: u64) -> usize {
        let mask = self.index.len() - 1;
        let tag = tag_of(h);
        let mut slot = (h as usize) & mask;
        loop {
            match self.index[slot] {
                0 => return slot,
                sym => {
                    let i = (sym - 1) as usize;
                    if self.entries[i].1 == tag && self.str_at(i) == s {
                        return slot;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    fn grow_index(&mut self) {
        let cap = (self.index.len() * 2).max(16);
        self.index.clear();
        self.index.resize(cap, 0);
        let mask = cap - 1;
        for i in 0..self.entries.len() {
            let mut slot = (hash_str(self.str_at(i)) as usize) & mask;
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = i as u32 + 1;
        }
    }

    /// Intern `s`, returning its stable symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        // Keep the load factor below ~7/8 (counting the entry about to be
        // inserted) so probe chains stay short.
        if (self.entries.len() + 1) * 8 >= self.index.len() * 7 {
            self.grow_index();
        }
        let h = hash_str(s);
        let slot = self.probe(s, h);
        if self.index[slot] != 0 {
            return Symbol(self.index[slot] - 1);
        }
        let sym = Symbol(self.entries.len() as u32);
        self.arena.push_str(s);
        self.entries.push((self.arena.len() as u32, tag_of(h)));
        self.index[slot] = sym.0 + 1;
        sym
    }

    /// Look up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        if self.index.is_empty() {
            return None;
        }
        match self.index[self.probe(s, hash_str(s))] {
            0 => None,
            sym => Some(Symbol(sym - 1)),
        }
    }

    /// Resolve a symbol back to its string.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.str_at(sym.index())
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(Symbol, &str)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        (0..self.entries.len()).map(|i| (Symbol(i as u32), self.str_at(i)))
    }

    /// The stable **canonical-id view**: `canonical_ids()[sym.index()]` is
    /// the rank of `sym`'s string in the lexicographically sorted symbol
    /// table. Two interners holding the same string set map every string to
    /// the same canonical id regardless of the order the strings were
    /// interned in — downstream consumers that key data structures on
    /// canonical ids (e.g. the binary property coordinates of the
    /// representation vectors) therefore produce identical output for any
    /// interning order.
    ///
    /// ```
    /// use pg_hive_graph::Interner;
    /// let mut a = Interner::new();
    /// a.intern("beta");
    /// a.intern("alpha");
    /// let mut b = Interner::new();
    /// b.intern("alpha");
    /// b.intern("beta");
    /// // a interned beta first (symbol 0), b interned it second (symbol 1) —
    /// // yet both agree on the canonical ids: alpha = 0, beta = 1.
    /// assert_eq!(a.canonical_ids(), vec![1, 0]);
    /// assert_eq!(b.canonical_ids(), vec![0, 1]);
    /// ```
    pub fn canonical_ids(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.entries.len() as u32).collect();
        order.sort_by(|&a, &b| self.str_at(a as usize).cmp(self.str_at(b as usize)));
        let mut canon = vec![0u32; self.entries.len()];
        for (rank, &sym) in order.iter().enumerate() {
            canon[sym as usize] = rank as u32;
        }
        canon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("Person");
        let b = i.intern("Person");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut i = Interner::new();
        let a = i.intern("Person");
        let b = i.intern("Post");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "Person");
        assert_eq!(i.resolve(b), "Post");
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert!(i.get("missing").is_none());
        assert!(i.is_empty());
        i.intern("x");
        assert_eq!(i.get("x"), Some(Symbol(0)));
    }

    #[test]
    fn arena_layout_preserves_len_and_resolve_semantics() {
        // Regression for the arena rewrite: symbols stay dense and stable,
        // `len()` counts distinct strings only, and `resolve`/`get` keep
        // working across index rebuilds (enough inserts to force several
        // rehashes of the open-addressing table).
        let mut i = Interner::new();
        let words: Vec<String> = (0..200).map(|n| format!("label-{n}")).collect();
        let syms: Vec<Symbol> = words.iter().map(|w| i.intern(w)).collect();
        assert_eq!(i.len(), 200);
        // Re-interning changes nothing.
        for (n, w) in words.iter().enumerate() {
            assert_eq!(i.intern(w), syms[n]);
        }
        assert_eq!(i.len(), 200);
        for (n, w) in words.iter().enumerate() {
            assert_eq!(i.resolve(syms[n]), w.as_str());
            assert_eq!(i.get(w), Some(syms[n]));
        }
        // Empty strings and prefixes are distinct entries.
        let empty = i.intern("");
        let pre = i.intern("label");
        assert_ne!(empty, pre);
        assert_eq!(i.resolve(empty), "");
        assert_eq!(i.resolve(pre), "label");
        assert_eq!(i.len(), 202);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Interner::new();
        a.intern("x");
        let mut b = a.clone();
        b.intern("y");
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.resolve(Symbol(1)), "y");
    }

    #[test]
    fn canonical_ids_are_interning_order_invariant() {
        let mut fwd = Interner::new();
        let mut rev = Interner::new();
        let words = ["gamma", "alpha", "delta", "beta"];
        for w in words {
            fwd.intern(w);
        }
        for w in words.iter().rev() {
            rev.intern(w);
        }
        // Same canonical id per *string* in both interners.
        for w in words {
            let f = fwd.canonical_ids()[fwd.get(w).unwrap().index()];
            let r = rev.canonical_ids()[rev.get(w).unwrap().index()];
            assert_eq!(f, r, "{w}");
        }
        // Ranks follow lexicographic order and form a permutation.
        let canon = fwd.canonical_ids();
        assert_eq!(canon[fwd.get("alpha").unwrap().index()], 0);
        assert_eq!(canon[fwd.get("beta").unwrap().index()], 1);
        assert_eq!(canon[fwd.get("gamma").unwrap().index()], 3);
        let mut sorted = canon.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert!(Interner::new().canonical_ids().is_empty());
    }

    #[test]
    fn iter_preserves_insertion_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        i.intern("c");
        let seen: Vec<&str> = i.iter().map(|(_, s)| s).collect();
        assert_eq!(seen, vec!["a", "b", "c"]);
    }
}
