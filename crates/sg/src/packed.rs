//! A visited set of fixed-width packed states.
//!
//! Explicit state-space searches — STG reachability over packed markings
//! (`simap-stg`) and the speed-independence verifier over composed
//! (specification state, net values) pairs (`simap-netlist`) — both need
//! to intern states of a fixed number of `u64` words and number them in
//! discovery order. [`PackedSet`] is that one mechanism: every row lives
//! in one contiguous arena, `stride` words each, and an open-addressing
//! hash-to-index table deduplicates them, so a state costs no heap key and
//! a lookup one probe sequence.

/// Fixed-stride `u64` rows in one arena, numbered in insertion order and
/// deduplicated through an open-addressing index.
#[derive(Debug)]
pub struct PackedSet {
    stride: usize,
    /// Row `i` occupies `rows[i * stride..(i + 1) * stride]`.
    rows: Vec<u64>,
    /// Slot values are row ids; `usize::MAX` marks an empty slot.
    slots: Vec<usize>,
    mask: usize,
    /// Number of rows, kept so that an insert divides nothing.
    len: usize,
}

impl PackedSet {
    /// An empty set of `stride`-word rows.
    ///
    /// # Panics
    /// When `stride` is zero.
    pub fn new(stride: usize) -> PackedSet {
        PackedSet::with_capacity(stride, 0)
    }

    /// An empty set with arena room for `rows` rows before it
    /// reallocates; the index grows once it is two-thirds full.
    ///
    /// # Panics
    /// When `stride` is zero.
    pub fn with_capacity(stride: usize, rows: usize) -> PackedSet {
        assert!(stride > 0, "packed rows need at least one word");
        let cap = rows.max(16).next_power_of_two();
        PackedSet {
            stride,
            rows: Vec::with_capacity(stride * rows),
            slots: vec![usize::MAX; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Words per row.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of distinct rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no row has been inserted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row with id `id`.
    ///
    /// # Panics
    /// When `id >= self.len()`.
    #[inline]
    pub fn row(&self, id: usize) -> &[u64] {
        &self.rows[id * self.stride..(id + 1) * self.stride]
    }

    /// Interns `row`: returns its id and whether it is new. A new row gets
    /// the next id, `self.len()` before the call.
    ///
    /// # Panics
    /// When `row.len() != self.stride()`.
    #[inline]
    pub fn insert(&mut self, row: &[u64]) -> (usize, bool) {
        assert_eq!(row.len(), self.stride, "row width must equal the stride");
        let id = self.len;
        if id * 3 >= self.slots.len() * 2 {
            self.grow();
        }
        let mut slot = (hash(row) as usize) & self.mask;
        loop {
            match self.slots[slot] {
                usize::MAX => {
                    self.slots[slot] = id;
                    self.rows.extend_from_slice(row);
                    self.len += 1;
                    return (id, true);
                }
                i if self.matches(i, row) => return (i, false),
                _ => slot = (slot + 1) & self.mask,
            }
        }
    }

    /// Stride-specialized equality of row `i` and `needle`.
    #[inline]
    fn matches(&self, i: usize, needle: &[u64]) -> bool {
        match *needle {
            [a] => self.rows[i] == a,
            [a, b] => {
                let base = i * 2;
                self.rows[base] == a && self.rows[base + 1] == b
            }
            ref ws => self.row(i) == ws,
        }
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let mut slots = vec![usize::MAX; cap];
        let mask = cap - 1;
        for i in 0..self.len() {
            let mut slot = (hash(self.row(i)) as usize) & mask;
            while slots[slot] != usize::MAX {
                slot = (slot + 1) & mask;
            }
            slots[slot] = i;
        }
        self.slots = slots;
        self.mask = mask;
    }
}

/// SplitMix64-style fold: cheap, well-distributed for dense words. The
/// 1- and 2-word layouts (every 1-safe net up to 32 and 64 places, most
/// composed states) take branch-free specializations.
#[inline]
fn hash(words: &[u64]) -> u64 {
    let mix = |h: u64, w: u64| {
        let mut z = h ^ w;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
    match *words {
        [a] => mix(SEED, a),
        [a, b] => mix(mix(SEED, a), b),
        ref ws => ws.iter().fold(SEED, |h, &w| mix(h, w)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Strides 1, 2 and 3 take each hash and compare arm. Enough rows to
    /// grow the index several times; every row is inserted twice, the
    /// second time interleaved with fresh ones.
    #[test]
    fn ids_follow_insertion_order_and_dedup_across_growth() {
        for stride in 1..=3 {
            let mut set = PackedSet::new(stride);
            assert!(set.is_empty());
            let row_of = |k: u64| -> Vec<u64> {
                (0..stride as u64).map(|w| k.wrapping_mul(0x9e37_79b9) ^ (w << 40)).collect()
            };
            let n = 1000u64;
            for k in 0..n {
                assert_eq!(set.insert(&row_of(k)), (k as usize, true), "stride {stride}");
                let old = k / 2;
                assert_eq!(set.insert(&row_of(old)), (old as usize, false), "stride {stride}");
            }
            assert_eq!(set.len(), n as usize);
            assert_eq!(set.stride(), stride);
            for k in 0..n {
                assert_eq!(set.row(k as usize), row_of(k).as_slice());
                assert_eq!(set.insert(&row_of(k)), (k as usize, false));
            }
            assert_eq!(set.len(), n as usize);
        }
    }
}
