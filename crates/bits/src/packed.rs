//! [`PackedFlits`] — equal-width flit images packed into one flat word
//! buffer.
//!
//! Flit `i` occupies words `i·k..(i+1)·k` with `k = width.div_ceil(64)`,
//! LSB-first, bits at or above `width` zero: one word per 8-lane fixed-8
//! flit, two per 128-bit link flit, eight per 512-bit float-32 flit. This
//! is the layout both the Table I stream kernel and the NoC simulator's
//! flit arena use, so a flit is never wider in memory than on the wires
//! (a [`PayloadBits`] image is a fixed 1024-bit array). `PayloadBits`
//! stays the encode-side type and the oracle type in parity tests;
//! [`PackedFlits::from_payloads`] and [`PackedFlits::to_payloads`]
//! convert between the two.
//!
//! The free functions ([`field`], [`or_field`], [`transitions`]) work on
//! one flit's word slice, for code that keeps flits in an arena of its
//! own.

use crate::payload::PayloadBits;

/// A sequence of equal-width flits packed into a flat word buffer (see
/// the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedFlits {
    width: u32,
    words_per_flit: usize,
    words: Vec<u64>,
}

impl PackedFlits {
    /// An empty sequence of `width`-bit flits.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!(width > 0, "flit width must be positive");
        Self {
            width,
            words_per_flit: width.div_ceil(64) as usize,
            words: Vec::new(),
        }
    }

    /// Packs flit images of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or any flit is not `width` bits wide.
    #[must_use]
    pub fn from_payloads(width: u32, flits: &[PayloadBits]) -> Self {
        let mut out = Self::new(width);
        out.words.reserve(flits.len() * out.words_per_flit);
        for flit in flits {
            assert_eq!(
                flit.width(),
                width,
                "flit width differs from the sequence's"
            );
            out.words.extend_from_slice(flit.as_words());
        }
        out
    }

    /// Empties the sequence and sets a new flit width, keeping the word
    /// buffer's capacity for reuse.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn reset(&mut self, width: u32) {
        assert!(width > 0, "flit width must be positive");
        self.width = width;
        self.words_per_flit = width.div_ceil(64) as usize;
        self.words.clear();
    }

    /// Flit width in bits.
    #[inline]
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Words per flit (`width.div_ceil(64)`).
    #[inline]
    #[must_use]
    pub fn words_per_flit(&self) -> usize {
        self.words_per_flit
    }

    /// Number of flits.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len() / self.words_per_flit
    }

    /// True when the sequence holds no flit.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Every flit's words, flit after flit.
    #[inline]
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The packed words of flit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    #[must_use]
    pub fn flit(&self, index: usize) -> &[u64] {
        let k = self.words_per_flit;
        &self.words[index * k..(index + 1) * k]
    }

    /// Iterates over the flits' word slices in order.
    fn iter(&self) -> std::slice::ChunksExact<'_, u64> {
        self.words.chunks_exact(self.words_per_flit)
    }

    /// The flits as [`PayloadBits`] images.
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds [`crate::payload::MAX_WIDTH_BITS`].
    #[must_use]
    pub fn to_payloads(&self) -> Vec<PayloadBits> {
        self.iter().map(|words| self.image_of(words)).collect()
    }

    /// Flit `index` as a [`PayloadBits`] image.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the width exceeds
    /// [`crate::payload::MAX_WIDTH_BITS`].
    #[must_use]
    pub fn image(&self, index: usize) -> PayloadBits {
        self.image_of(self.flit(index))
    }

    fn image_of(&self, words: &[u64]) -> PayloadBits {
        PayloadBits::from_words(self.width, words)
    }

    /// Appends whole flits given as consecutive packed words (a multiple
    /// of [`PackedFlits::words_per_flit`]).
    ///
    /// # Panics
    ///
    /// Panics if `words` does not hold a whole number of flits.
    #[inline]
    pub fn extend_from_words(&mut self, words: &[u64]) {
        assert_eq!(words.len() % self.words_per_flit, 0, "partial flit");
        self.words.extend_from_slice(words);
    }

    /// Appends `count` all-zero flits, returning the index of the first.
    pub fn push_zeroed(&mut self, count: usize) -> usize {
        let first = self.len();
        self.words
            .resize(self.words.len() + count * self.words_per_flit, 0);
        first
    }

    /// ORs the low `len` bits of `value` (`1..=64`) into flit `flit` at
    /// bit `offset`; a field may straddle a word boundary.
    #[inline]
    pub fn or_field(&mut self, flit: usize, offset: u32, len: u32, value: u64) {
        debug_assert!(offset + len <= self.width, "field exceeds the flit width");
        let k = self.words_per_flit;
        or_field(
            &mut self.words[flit * k..(flit + 1) * k],
            offset,
            len,
            value,
        );
    }

    /// Reads the `len`-bit field (`1..=64`) of flit `flit` at `offset`.
    #[inline]
    #[must_use]
    pub fn field(&self, flit: usize, offset: u32, len: u32) -> u64 {
        debug_assert!(offset + len <= self.width, "field exceeds the flit width");
        field(self.flit(flit), offset, len)
    }
}

/// Reads the `len`-bit field (`1..=64`) at bit `offset` of one flit's
/// packed words; a field may straddle a word boundary.
#[inline]
#[must_use]
pub fn field(words: &[u64], offset: u32, len: u32) -> u64 {
    let word = (offset / 64) as usize;
    let bit = offset % 64;
    let mut value = words[word] >> bit;
    if bit + len > 64 {
        value |= words[word + 1] << (64 - bit);
    }
    if len == 64 {
        value
    } else {
        value & ((1u64 << len) - 1)
    }
}

/// ORs the low `len` bits of `value` (`1..=64`) into one flit's packed
/// words at bit `offset`; a field may straddle a word boundary.
#[inline]
pub fn or_field(words: &mut [u64], offset: u32, len: u32, value: u64) {
    let value = if len == 64 {
        value
    } else {
        value & ((1u64 << len) - 1)
    };
    let word = (offset / 64) as usize;
    let bit = offset % 64;
    words[word] |= value << bit;
    if bit + len > 64 {
        words[word + 1] |= value >> (64 - bit);
    }
}

/// Bit transitions between two flits' packed words: the Hamming distance
/// of the images (Fig. 8's XOR + popcount).
///
/// # Panics
///
/// Debug builds panic if the slices differ in length.
#[inline]
#[must_use]
pub fn transitions(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "flits of different widths");
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(width: u32, seed: u64) -> PayloadBits {
        let mut p = PayloadBits::zero(width);
        let mut x = seed | 1;
        let mut off = 0;
        while off < width {
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
            let len = 64.min(width - off);
            p.set_field(off, len, x);
            off += len;
        }
        p
    }

    #[test]
    fn payload_roundtrip_at_odd_widths() {
        for width in [1, 63, 64, 65, 128, 129, 136, 512, 513, 521, 1024] {
            let images: Vec<PayloadBits> = (0..5).map(|s| image(width, s)).collect();
            let packed = PackedFlits::from_payloads(width, &images);
            assert_eq!(packed.len(), 5);
            assert_eq!(packed.flit(3).len(), width.div_ceil(64) as usize);
            assert_eq!(packed.to_payloads(), images, "width {width}");
            assert_eq!(packed.image(4), images[4]);
            for (i, img) in images.iter().enumerate() {
                let len = 40.min(width);
                assert_eq!(
                    packed.field(i, width - len, len),
                    img.field(width - len, len)
                );
                assert_eq!(
                    transitions(packed.flit(0), packed.flit(i)),
                    img.transitions_to(&images[0])
                );
            }
        }
    }

    #[test]
    fn fields_straddle_words() {
        let mut packed = PackedFlits::new(136);
        assert!(packed.is_empty());
        packed.push_zeroed(2);
        packed.or_field(1, 60, 8, 0xab);
        assert_eq!(packed.field(1, 60, 8), 0xab);
        assert_eq!(packed.flit(1), &[0xb << 60, 0xa, 0]);
        assert_eq!(packed.field(0, 60, 8), 0);
    }

    #[test]
    fn reset_reuses_the_buffer() {
        let mut packed = PackedFlits::from_payloads(512, &[image(512, 1)]);
        let cap = packed.words.capacity();
        packed.reset(128);
        assert!(packed.is_empty());
        packed.extend_from_words(&[1, 2]);
        packed.extend_from_words(&[3, 4, 5, 6]);
        assert_eq!(packed.len(), 3);
        assert_eq!(packed.words.capacity(), cap);
        assert_eq!(packed.words(), &[1, 2, 3, 4, 5, 6]);
        assert_eq!(packed.iter().nth(2), Some(&[5u64, 6][..]));
    }
}
