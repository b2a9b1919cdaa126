//! The shared bucketing sweep both LSH families end in: union all rows
//! that share a key within at least one group (a "group" is an ELSH table
//! or a MinHash band).
//!
//! Collisions are unioned as they are found, in group-major, row-major
//! order, each row with the first row of its bucket — the order the
//! scalar reference ([`crate::reference`]) unions in, so the union-find
//! evolves identically.

use crate::fx::fx_map_with_capacity;
use crate::unionfind::UnionFind;

/// `keys` is row-major `n × groups` (`keys[i · groups + g]`).
pub(crate) fn union_keyed_collisions(keys: &[u64], n: usize, groups: usize, uf: &mut UnionFind) {
    let mut buckets = fx_map_with_capacity::<u64, usize>(n.min(1 << 16));
    for g in 0..groups {
        buckets.clear();
        for (i, row) in keys.chunks_exact(groups).enumerate() {
            let first = *buckets.entry(row[g]).or_insert(i);
            if first != i {
                uf.union(first, i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unions_rows_sharing_any_group_key() {
        // 3 rows × 2 groups: rows 0 and 2 share a key in group 1 only.
        let keys = vec![10, 77, 20, 30, 40, 77];
        let mut uf = UnionFind::new(3);
        union_keyed_collisions(&keys, 3, 2, &mut uf);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 1));
    }
}
