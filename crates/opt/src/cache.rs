use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use ufc_linalg::Ldlt;

use crate::Result;

/// A cached KKT factorization together with the objective-operator shift it
/// was assembled with (the shift participates in iterative refinement, so it
/// must travel with the factors).
#[derive(Debug, Clone)]
pub(crate) struct CachedKkt {
    pub(crate) fact: Ldlt,
    pub(crate) shift: f64,
}

/// Structural classification of one inequality row for the rank-1 fast KKT
/// path (see [`crate::ActiveSetQp::with_rank1_kkt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowKind {
    /// `−e_j`: the nonnegativity bound `−x_j ≤ b` (exactly one `−1.0` entry
    /// at column `j`, zeros elsewhere).
    NegUnit(usize),
    /// The all-ones row `Σ x ≤ b` (every entry exactly `1.0`).
    Ones,
    /// Any other row — forces the dense KKT fallback when active.
    Other,
}

/// Memoized structural classification of a QP's constraint matrices.
///
/// Classification walks every entry of `A_eq`/`A_in` once (`O(m·n)`), so the
/// active-set solver memoizes the result here, amortizing it across all
/// solves against the same constraint structure. Like the factorization
/// entries, it is only valid for fixed constraint matrices and is dropped by
/// [`KktCache::clear`].
#[derive(Debug)]
pub(crate) struct Rank1Structure {
    /// `true` when there is exactly one equality row and it is all-ones
    /// (the simplex constraint `Σ x = b` of the λ-sub-problem).
    pub(crate) eq_ones: bool,
    /// Per-row classification of `A_in`.
    pub(crate) rows: Vec<RowKind>,
}

/// Memo of KKT factorizations keyed by the active-set solver's working set.
///
/// The λ- and a-sub-problem Hessians of the ADM-G algorithm are constant
/// across outer iterations (`ρI`-shifted quadratics), so for a fixed block
/// the KKT matrix is fully determined by the *ordered* working set of
/// inequality constraints. Caching the LDLᵀ factors lets every iteration
/// after the first skip both the dense-Hessian materialization and the
/// `O(n³)` factorization.
///
/// # Invariants
///
/// * A cache is only valid for a fixed `(Q, A_eq, A_in, hessian_shift)`
///   tuple. Callers **must** [`clear`](KktCache::clear) it whenever any of
///   those change — e.g. when the penalty ρ changes on an adaptive-penalty
///   step, or when the workspace is retargeted to a new instance.
/// * Keys are the working set *in insertion order*, not sorted: the row
///   order determines the LDLᵀ elimination order, and two orderings of the
///   same set produce different (bit-wise) factors. Keying on the exact
///   order is what makes cached solves bit-identical to fresh ones.
/// * The cache is a pure memo — a hit replays the exact factorization a
///   fresh solve would compute, so enabling or disabling caching never
///   changes a single bit of the solution.
#[derive(Debug, Clone)]
pub struct KktCache {
    entries: HashMap<Vec<usize>, CachedKkt>,
    /// Constraint-row classification memo for the rank-1 fast path. Stored
    /// even when `limit == 0`: disabling factorization *storage* must not
    /// force re-classifying the constraint matrices every solve.
    structure: Option<Arc<Rank1Structure>>,
    limit: usize,
    hits: u64,
    misses: u64,
    rank1_solves: u64,
}

impl Default for KktCache {
    /// Capacity for 64 working sets — generous for the paper-scale QPs,
    /// whose active-set paths visit a handful of working sets per solve.
    fn default() -> Self {
        KktCache::new(64)
    }
}

impl KktCache {
    /// Creates a cache holding at most `limit` factorizations. Once full,
    /// further misses are solved fresh without being stored. `limit == 0`
    /// disables caching entirely.
    #[must_use]
    pub fn new(limit: usize) -> Self {
        KktCache {
            entries: HashMap::new(),
            structure: None,
            limit,
            hits: 0,
            misses: 0,
            rank1_solves: 0,
        }
    }

    /// A cache that never stores anything — every lookup is a miss, which
    /// reproduces the uncached solver exactly.
    #[must_use]
    pub fn disabled() -> Self {
        KktCache::new(0)
    }

    /// Drops all cached factorizations (the counters survive).
    /// Must be called whenever the problem data the cache is keyed against
    /// changes — see the type-level invariants.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.structure = None;
    }

    /// Borrows the memoized constraint-structure classification, if any.
    pub(crate) fn structure(&self) -> Option<&Arc<Rank1Structure>> {
        self.structure.as_ref()
    }

    /// Stores the constraint-structure classification for later solves.
    pub(crate) fn set_structure(&mut self, structure: Arc<Rank1Structure>) {
        self.structure = Some(structure);
    }

    /// Number of factorizations currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no factorizations are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from the memo since construction.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a fresh factorization since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// KKT systems solved by the Sherman–Morrison rank-1 path since
    /// construction. Those solves bypass the memo, so they count as
    /// neither hits nor misses.
    #[must_use]
    pub fn rank1_solves(&self) -> u64 {
        self.rank1_solves
    }

    /// Counts one Sherman–Morrison KKT solve.
    pub(crate) fn record_rank1_solve(&mut self) {
        self.rank1_solves += 1;
    }

    /// Returns the entry for `key`, building it with `build` on a miss.
    /// When the cache is at capacity the fresh entry is parked in `spill`
    /// (borrowed back to the caller) instead of being stored.
    pub(crate) fn get_or_build<'a>(
        &'a mut self,
        key: &[usize],
        spill: &'a mut Option<CachedKkt>,
        build: impl FnOnce() -> Result<CachedKkt>,
    ) -> Result<&'a CachedKkt> {
        if self.entries.len() < self.limit {
            // Under capacity: one entry-API lookup covers both hit and
            // insert-on-miss.
            match self.entries.entry(key.to_vec()) {
                Entry::Occupied(occupied) => {
                    self.hits += 1;
                    Ok(occupied.into_mut())
                }
                Entry::Vacant(vacant) => {
                    self.misses += 1;
                    Ok(vacant.insert(build()?))
                }
            }
        } else {
            // At capacity (or disabled): a miss is built fresh and parked
            // in `spill` instead of being stored.
            match self.entries.get(key) {
                Some(cached) => {
                    self.hits += 1;
                    Ok(cached)
                }
                None => {
                    self.misses += 1;
                    *spill = Some(build()?);
                    Ok(spill.as_ref().expect("spill just set"))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_linalg::Matrix;

    fn entry() -> CachedKkt {
        CachedKkt {
            fact: Ldlt::factor(&Matrix::identity(2)).unwrap(),
            shift: 1e-12,
        }
    }

    #[test]
    fn memoizes_up_to_capacity() {
        let mut cache = KktCache::new(1);
        let mut spill = None;
        cache
            .get_or_build(&[0], &mut spill, || Ok(entry()))
            .unwrap();
        assert!(spill.is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache
            .get_or_build(&[0], &mut spill, || Ok(entry()))
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Capacity reached: a second key is built but spilled, not stored.
        cache
            .get_or_build(&[1], &mut spill, || Ok(entry()))
            .unwrap();
        assert!(spill.is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disabled_cache_always_misses() {
        let mut cache = KktCache::disabled();
        let mut spill = None;
        for _ in 0..3 {
            cache.get_or_build(&[], &mut spill, || Ok(entry())).unwrap();
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
        assert!(cache.is_empty());
    }

    #[test]
    fn ordered_keys_are_distinct() {
        let mut cache = KktCache::default();
        let mut spill = None;
        cache
            .get_or_build(&[0, 1], &mut spill, || Ok(entry()))
            .unwrap();
        cache
            .get_or_build(&[1, 0], &mut spill, || Ok(entry()))
            .unwrap();
        assert_eq!(cache.len(), 2, "working-set order must be part of the key");
        cache.clear();
        assert!(cache.is_empty());
    }
}
