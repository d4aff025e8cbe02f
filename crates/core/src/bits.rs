//! Bit rows over dense indices, bit `i` in word `i / 64`: the protocol's
//! process and service rows and the certifier's process graphs. A word a row
//! does not store reads as zero. The reference checkers keep storage of
//! their own, so that the differential tests compare two implementations.

/// The set bits of a bit row given word by word, as indices, ascending.
pub(crate) fn ones(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.into_iter().enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            let b = (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize);
            bits &= bits.wrapping_sub(1);
            b
        })
    })
}

/// Word `w` of a bit row; a word the row does not store reads as zero.
#[inline]
pub(crate) fn word(row: &[u64], w: usize) -> u64 {
    row.get(w).copied().unwrap_or(0)
}

/// Whether bit `i` of a row is set.
#[inline]
pub(crate) fn test(row: &[u64], i: usize) -> bool {
    word(row, i / 64) >> (i % 64) & 1 != 0
}

/// Bit `i` as seen from word `w` (zero from any other word, or for an index
/// that does not exist yet).
#[inline]
pub(crate) fn bit(i: Option<usize>, w: usize) -> u64 {
    i.filter(|i| i / 64 == w).map_or(0, |i| 1u64 << (i % 64))
}

/// `acc` |= `bits`, over the words both have.
#[inline]
pub(crate) fn or(acc: &mut [u64], bits: &[u64]) {
    for (a, b) in acc.iter_mut().zip(bits) {
        *a |= b;
    }
}

/// Sets or clears bit `i` of a single growable row.
pub(crate) fn assign(row: &mut Vec<u64>, i: usize, on: bool) {
    if on && row.len() <= i / 64 {
        row.resize(i / 64 + 1, 0);
    }
    match row.get_mut(i / 64) {
        Some(word) if on => *word |= 1u64 << (i % 64),
        Some(word) => *word &= !(1u64 << (i % 64)),
        None => {}
    }
}

/// Fixed-width bit rows in one allocation: row `i` is words
/// `i·width .. (i+1)·width`. [`fit`](Self::fit) only grows the rows and the
/// width, keeping every set bit; [`reset`](Self::reset) empties them to any
/// shape. A row or word not stored reads as zeros.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitRows {
    width: usize,
    bits: Vec<u64>,
}

impl BitRows {
    /// Row `i`; empty when not stored.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        let stored = self.bits.get(i * self.width..(i + 1) * self.width);
        stored.unwrap_or(&[])
    }

    /// Word `w` of row `i`.
    #[inline]
    pub(crate) fn word(&self, i: usize, w: usize) -> u64 {
        word(self.row(i), w)
    }

    /// Whether bit `j` of row `i` is set.
    #[inline]
    pub(crate) fn test(&self, i: usize, j: usize) -> bool {
        test(self.row(i), j)
    }

    /// Makes room for `rows` rows of `width` words, keeping every set bit.
    pub(crate) fn fit(&mut self, rows: usize, width: usize) {
        if width > self.width {
            let old = std::mem::replace(&mut self.bits, vec![0; rows * width]);
            let narrow = old.chunks_exact(self.width.max(1));
            for (from, to) in narrow.zip(self.bits.chunks_exact_mut(width)) {
                to[..from.len()].copy_from_slice(from);
            }
            self.width = width;
        }
        if self.bits.len() < rows * self.width {
            self.bits.resize(rows * self.width, 0);
        }
    }

    /// `rows` zero rows of `width` words, maybe narrower, in the allocation.
    pub(crate) fn reset(&mut self, rows: usize, width: usize) {
        self.width = width;
        self.bits.clear();
        self.bits.resize(rows * width, 0);
    }

    /// The stored row `i` (fitted before a bit is set in it).
    #[inline]
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.bits[i * self.width..(i + 1) * self.width]
    }

    /// Sets bit `j` of the stored row `i`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize) {
        self.row_mut(i)[j / 64] |= 1u64 << (j % 64);
    }

    /// Clears row `i`; one not stored was never set.
    pub(crate) fn clear_row(&mut self, i: usize) {
        if let Some(row) = self.bits.get_mut(i * self.width..(i + 1) * self.width) {
            row.fill(0);
        }
    }

    /// Clears a bit; one outside the stored rows was never set.
    #[inline]
    pub(crate) fn clear(&mut self, i: usize, j: usize) {
        if j / 64 < self.width && (i + 1) * self.width <= self.bits.len() {
            self.row_mut(i)[j / 64] &= !(1u64 << (j % 64));
        }
    }

    /// Row `dst` |= row `src`, in place; both stored.
    pub(crate) fn or_row(&mut self, dst: usize, src: usize) {
        for w in 0..self.width {
            let bits = self.bits[src * self.width + w];
            self.bits[dst * self.width + w] |= bits;
        }
    }

    /// `acc` |= the union of the rows `rows`.
    pub(crate) fn or_rows(&self, rows: &[u32], acc: &mut [u64]) {
        rows.iter().for_each(|&r| or(acc, self.row(r as usize)));
    }

    /// Word `w` of the union of the rows `rows`.
    pub(crate) fn union_word(&self, rows: &[u32], w: usize) -> u64 {
        rows.iter()
            .fold(0, |acc, &r| acc | self.word(r as usize, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The model: one `Vec<bool>` per row, as wide as the widest index set.
    type Model = Vec<Vec<bool>>;

    fn model_row(model: &Model, i: usize) -> Vec<usize> {
        let row = model.get(i).map_or(&[][..], |r| r.as_slice());
        (0..row.len()).filter(|&j| row[j]).collect()
    }

    fn assert_matches(rows: &BitRows, model: &Model, at: &str) {
        for i in 0..model.len() {
            let (got, want) = (ones(rows.row(i).iter().copied()), model_row(model, i));
            assert_eq!(got.collect::<Vec<_>>(), want, "{at}: row {i}");
            for j in 0..rows.width * 64 {
                assert_eq!(rows.test(i, j), want.contains(&j), "{at}: ({i}, {j})");
            }
        }
    }

    fn model_set(model: &mut Model, i: usize, j: usize, on: bool) {
        let row = &mut model[i];
        if row.len() <= j {
            row.resize(j + 1, false);
        }
        row[j] = on;
    }

    #[test]
    fn fit_across_the_64_and_128_column_boundaries_keeps_every_bit() {
        let mut rng = StdRng::seed_from_u64(42);
        let (mut rows, mut model) = (BitRows::default(), Model::new());
        for n in 1..=200usize {
            rows.fit(n, n.div_ceil(64));
            model.resize(n, Vec::new());
            assert_eq!(rows.width, n.div_ceil(64));
            for _ in 0..3 {
                let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let on = rng.gen_bool(0.8);
                if on {
                    rows.set(i, j);
                } else {
                    rows.clear(i, j);
                }
                model_set(&mut model, i, j, on);
            }
            if [63, 64, 65, 127, 128, 129, 200].contains(&n) {
                assert_matches(&rows, &model, &format!("n = {n}"));
            }
        }
        // Out of range reads as zeros; clearing there is a no-op.
        assert_eq!(rows.row(500), &[] as &[u64]);
        assert!(!rows.test(500, 3) && !rows.test(3, 5000));
        rows.clear(500, 3);
        rows.clear(3, 5000);
        assert_matches(&rows, &model, "after clears out of range");
    }

    #[test]
    fn reset_may_shrink_the_width_and_clears_every_bit() {
        let mut rows = BitRows::default();
        rows.fit(130, 3);
        rows.set(129, 129);
        rows.set(0, 70);
        rows.reset(10, 1);
        assert_eq!(rows.width, 1);
        assert!((0..10).all(|i| rows.row(i) == [0]));
        assert_eq!(rows.row(10), &[] as &[u64]);
        rows.set(9, 9);
        assert!(rows.test(9, 9) && !rows.test(0, 6));
        rows.reset(0, 0);
        assert_eq!((rows.width, rows.row(0)), (0, &[] as &[u64]));
    }

    #[test]
    fn row_unions_match_the_model() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [5usize, 64, 65, 140] {
            let mut rows = BitRows::default();
            rows.fit(n, n.div_ceil(64));
            let mut model: Model = vec![vec![false; n]; n];
            for _ in 0..n * 2 {
                let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                rows.set(i, j);
                model[i][j] = true;
            }
            let picked: Vec<u32> = (0..4).map(|_| rng.gen_range(0..n) as u32).collect();
            let union: Vec<usize> = (0..n)
                .filter(|&j| picked.iter().any(|&r| model[r as usize][j]))
                .collect();
            // `or_rows` onto a narrower accumulator keeps its own words only.
            let mut acc = vec![0u64; n.div_ceil(64)];
            rows.or_rows(&picked, &mut acc);
            assert_eq!(ones(acc.iter().copied()).collect::<Vec<_>>(), union);
            let by_word = (0..n.div_ceil(64)).map(|w| rows.union_word(&picked, w));
            assert_eq!(ones(by_word).collect::<Vec<_>>(), union);
            let mut narrow = vec![0u64; 1];
            rows.or_rows(&picked, &mut narrow);
            let low: Vec<usize> = union.iter().copied().filter(|&j| j < 64).collect();
            assert_eq!(ones(narrow).collect::<Vec<_>>(), low);
            // `or_row` in place, then `clear_row`.
            let (dst, src) = (picked[0] as usize, picked[1] as usize);
            rows.or_row(dst, src);
            let merged: Vec<bool> = (0..n).map(|j| model[dst][j] || model[src][j]).collect();
            model[dst] = merged;
            assert_matches(&rows, &model, &format!("or_row, n = {n}"));
            rows.clear_row(dst);
            model[dst] = vec![false; n];
            assert_matches(&rows, &model, &format!("clear_row, n = {n}"));
        }
    }

    #[test]
    fn single_row_helpers_match_the_model() {
        let mut row = Vec::new();
        assign(&mut row, 130, true);
        assign(&mut row, 3, true);
        assign(&mut row, 500, false);
        assert_eq!(row.len(), 3, "clearing an unstored bit stores nothing");
        assert_eq!(ones(row.iter().copied()).collect::<Vec<_>>(), [3, 130]);
        assign(&mut row, 130, false);
        assert!(!test(&row, 130) && test(&row, 3) && !test(&row, 9000));
        assert_eq!((word(&row, 0), word(&row, 7)), (8, 0));
        assert_eq!(
            (bit(Some(70), 1), bit(Some(70), 0), bit(None, 0)),
            (64, 0, 0)
        );
        let mut acc = vec![1u64, 0];
        or(&mut acc, &[2, 4, 8]);
        assert_eq!(acc, [3, 4]);
        assert_eq!(ones([0u64, 0, 1 << 63]).collect::<Vec<_>>(), [191]);
        assert_eq!(ones(Vec::<u64>::new()).count(), 0);
    }
}
