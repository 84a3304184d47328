//! A dense set of protocol ids.
//!
//! The ids the checker remembers for a whole run are allocated densely:
//! work-request ids are `WRID_OFF_PROXY | n` from one counter per proxy,
//! transfer ids `rank << 32 | seq` from one counter per rank. An
//! [`IdSet`] stores them as 4096-id bitmap chunks keyed by
//! `(prefix, id >> 12)` — a bit per id instead of a tree node per id — and
//! iterates in ascending `(prefix, id)` order, the order of the
//! `BTreeSet`s it replaces.

use std::collections::BTreeMap;
use std::marker::PhantomData;

use simnet::Pid;

const CHUNK_BITS: u32 = 12;
const WORDS: usize = (1 << CHUNK_BITS) / 64;

/// A key an [`IdSet`] can hold: a prefix (0, or the emitting pid) and the
/// dense id under it.
pub(crate) trait DenseKey: Copy {
    fn split(self) -> (u64, u64);
    fn join(prefix: u64, id: u64) -> Self;
}

impl DenseKey for u64 {
    fn split(self) -> (u64, u64) {
        (0, self)
    }

    fn join(_: u64, id: u64) -> u64 {
        id
    }
}

/// Work-request ids are per-proxy counters, so the pid is the prefix.
impl DenseKey for (Pid, u64) {
    fn split(self) -> (u64, u64) {
        (self.0.index() as u64, self.1)
    }

    fn join(prefix: u64, id: u64) -> (Pid, u64) {
        (Pid::from_index(prefix as usize), id)
    }
}

/// A set of [`DenseKey`]s as bitmap chunks.
pub(crate) struct IdSet<K> {
    chunks: BTreeMap<(u64, u64), Box<[u64; WORDS]>>,
    key: PhantomData<K>,
}

impl<K> Default for IdSet<K> {
    fn default() -> Self {
        IdSet {
            chunks: BTreeMap::new(),
            key: PhantomData,
        }
    }
}

/// Chunk key, word index and bit mask of `key`.
fn locate<K: DenseKey>(key: K) -> ((u64, u64), usize, u64) {
    let (prefix, id) = key.split();
    (
        (prefix, id >> CHUNK_BITS),
        ((id / 64) % WORDS as u64) as usize,
        1 << (id % 64),
    )
}

impl<K: DenseKey> IdSet<K> {
    /// Add `key`; `false` if it was already present.
    pub(crate) fn insert(&mut self, key: K) -> bool {
        let (chunk, word, bit) = locate(key);
        let w = &mut self
            .chunks
            .entry(chunk)
            .or_insert_with(|| Box::new([0; WORDS]))[word];
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Remove `key`; `false` if it was absent. An emptied chunk is freed.
    pub(crate) fn remove(&mut self, key: K) -> bool {
        let (chunk, word, bit) = locate(key);
        let Some(words) = self.chunks.get_mut(&chunk) else {
            return false;
        };
        let present = words[word] & bit != 0;
        words[word] &= !bit;
        if present && words.iter().all(|&w| w == 0) {
            self.chunks.remove(&chunk);
        }
        present
    }

    pub(crate) fn contains(&self, key: K) -> bool {
        let (chunk, word, bit) = locate(key);
        self.chunks
            .get(&chunk)
            .is_some_and(|words| words[word] & bit != 0)
    }

    /// Every key, ascending by `(prefix, id)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.chunks.iter().flat_map(|(&(prefix, hi), words)| {
            words.iter().enumerate().flat_map(move |(i, &w)| {
                let base = (hi << CHUNK_BITS) | (i as u64 * 64);
                let mut rest = w;
                std::iter::from_fn(move || {
                    let b = rest.trailing_zeros();
                    (b < 64).then(|| {
                        rest &= rest - 1;
                        K::join(prefix, base | u64::from(b))
                    })
                })
            })
        })
    }

    /// Keep only the keys `keep` accepts.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(K) -> bool) {
        let gone: Vec<K> = self.iter().filter(|&k| !keep(k)).collect();
        for k in gone {
            self.remove(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn behaves_like_the_btreeset_it_replaces() {
        let p = Pid::from_index;
        let keys = [
            (p(3), 0x0300_0000_0000_0001),
            (p(1), 0x0300_0000_0000_1001),
            (p(3), 0),
            (p(1), u64::MAX),
            (p(1), 4095),
            (p(1), 4096),
            (p(1), 0x0300_0000_0000_0001),
        ];
        let mut set = IdSet::default();
        let mut want = BTreeSet::new();
        for k in keys {
            assert_eq!(set.insert(k), want.insert(k));
            assert_eq!(set.insert(k), want.insert(k), "second insert is a no-op");
        }
        assert!(set.iter().eq(want.iter().copied()), "ascending (pid, id)");
        assert!(set.contains((p(1), 4096)) && !set.contains((p(2), 4096)));
        assert_eq!(set.remove((p(1), 4095)), want.remove(&(p(1), 4095)));
        assert_eq!(set.remove((p(1), 4095)), want.remove(&(p(1), 4095)));
        set.retain(|(pid, _)| pid != p(3));
        want.retain(|&(pid, _)| pid != p(3));
        assert!(set.iter().eq(want.iter().copied()));
        for k in want.clone() {
            assert!(set.remove(k));
        }
        assert!(set.chunks.is_empty(), "emptied chunks are freed");

        let mut ids = IdSet::<u64>::default();
        for id in [(2 << 32) | 7, 5, (1 << 32) | 1] {
            ids.insert(id);
        }
        assert_eq!(
            ids.iter().collect::<Vec<_>>(),
            vec![5, (1 << 32) | 1, (2 << 32) | 7]
        );
    }
}
