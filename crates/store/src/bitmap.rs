//! Packed bitmaps: selection vectors and validity masks for the
//! columnar engine.
//!
//! A [`Bitmap`] is a length-aware `Vec<u64>` with the tail bits of the
//! last word kept at zero, so whole-word operations (`and`, `or`,
//! `count_ones`) never see garbage past the logical end. Filter
//! kernels produce one selection bitmap per predicate leaf and combine
//! them wordwise; the same type doubles as a column's validity
//! (non-NULL) mask.

/// A fixed-length bitmap over row positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-zeros bitmap covering `len` positions.
    pub fn new(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// An all-ones bitmap covering `len` positions (tail masked).
    pub fn full(len: usize) -> Bitmap {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.mask_tail();
        b
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set position `i` to one.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Read position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Append one position at the end (grows the bitmap by one).
    pub fn push(&mut self, bit: bool) {
        if self.len & 63 == 0 {
            self.words.push(0);
        }
        if bit {
            self.words[self.len >> 6] |= 1u64 << (self.len & 63);
        }
        self.len += 1;
    }

    /// Set every position in `lo..hi` to one.
    pub fn set_range(&mut self, lo: usize, hi: usize) {
        let hi = hi.min(self.len);
        if lo >= hi {
            return;
        }
        let (first, last) = (lo >> 6, (hi - 1) >> 6);
        let head = u64::MAX << (lo & 63);
        let tail = u64::MAX >> (63 - ((hi - 1) & 63));
        if first == last {
            self.words[first] |= head & tail;
        } else {
            self.words[first] |= head;
            for w in &mut self.words[first + 1..last] {
                *w = u64::MAX;
            }
            self.words[last] |= tail;
        }
    }

    /// Number of set positions.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self &= other`. Lengths must match.
    pub fn and_assign(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self |= other`. Lengths must match.
    pub fn or_assign(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self = domain & !self`: complement restricted to `domain` (the
    /// row range a kernel is evaluating over), so NOT never sets bits
    /// outside the rows under consideration.
    pub fn complement_within(&mut self, domain: &Bitmap) {
        debug_assert_eq!(self.len, domain.len);
        for (a, d) in self.words.iter_mut().zip(&domain.words) {
            *a = d & !*a;
        }
        self.mask_tail();
    }

    /// Iterate set positions in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let next = w & (w - 1);
                (next != 0).then_some(next)
            })
            .map(move |w| (wi << 6) + w.trailing_zeros() as usize)
        })
    }

    /// The backing words (tail bits of the last word are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable view of the backing words, for kernels that assemble
    /// selection bits a word at a time. Callers must keep the tail
    /// bits of the last word zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    fn mask_tail(&mut self) {
        let tail = self.len & 63;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> (64 - tail);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut b = Bitmap::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count_ones(), 4);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
    }

    #[test]
    fn full_masks_tail() {
        let b = Bitmap::full(70);
        assert_eq!(b.count_ones(), 70);
        assert_eq!(*b.words().last().unwrap(), (1u64 << 6) - 1);
        assert!(Bitmap::full(0).is_empty());
        assert_eq!(Bitmap::full(64).count_ones(), 64);
    }

    #[test]
    fn set_range_spans_words() {
        for (lo, hi) in [(0, 0), (3, 9), (60, 70), (0, 64), (5, 200), (199, 200)] {
            let mut b = Bitmap::new(200);
            b.set_range(lo, hi);
            let expect: Vec<usize> = (lo..hi).collect();
            assert_eq!(b.iter_ones().collect::<Vec<_>>(), expect, "[{lo}, {hi})");
        }
        // Clamped at the logical end.
        let mut b = Bitmap::new(10);
        b.set_range(5, 99);
        assert_eq!(b.count_ones(), 5);
    }

    #[test]
    fn boolean_combinators() {
        let mut a = Bitmap::new(100);
        a.set_range(10, 50);
        let mut b = Bitmap::new(100);
        b.set_range(40, 80);
        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(
            and.iter_ones().collect::<Vec<_>>(),
            (40..50).collect::<Vec<_>>()
        );
        let mut or = a.clone();
        or.or_assign(&b);
        assert_eq!(or.count_ones(), 70);
        // NOT restricted to a domain.
        let mut domain = Bitmap::new(100);
        domain.set_range(0, 60);
        let mut not_a = a.clone();
        not_a.complement_within(&domain);
        let expect: Vec<usize> = (0..10).chain(50..60).collect();
        assert_eq!(not_a.iter_ones().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn push_matches_set() {
        let mut grown = Bitmap::new(0);
        let pattern = [true, false, true, true, false];
        for i in 0..130 {
            grown.push(pattern[i % pattern.len()]);
        }
        let mut fixed = Bitmap::new(130);
        for i in 0..130 {
            if pattern[i % pattern.len()] {
                fixed.set(i);
            }
        }
        assert_eq!(grown, fixed);
    }
}
