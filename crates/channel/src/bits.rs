//! The word-packed [`BitVec`] every PHY stage runs on.
//!
//! 64 bits per machine word, MSB-first: coding, modulation and
//! [`crate::BitPipeline`] all read and write it. Packing, unpacking, and
//! Hamming distance are word-level (`u64::from_be_bytes` shuffles,
//! popcounts). The one-`u8`-per-bit form survives only at the edges
//! ([`BitVec::from_u8_bits`], [`BitVec::to_u8_bits`]) for callers that
//! hold bits that way.
//!
//! # Bit order
//!
//! Bit `i` of a [`BitVec`] lives in word `i / 64` at bit `63 - (i % 64)`:
//! the first bit pushed is the most significant bit of the first word, and
//! [`BitVec::from_bytes`] unpacks each byte MSB-first. Unused bits of
//! the final partial word are always zero — an invariant every mutating
//! method maintains, which is what makes word-wise equality, popcounts,
//! and byte extraction correct without per-bit masking.

/// The low-`n` bit mask (`n <= 64`).
#[inline]
const fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// A growable bit string packed 64 bits per word, MSB-first.
///
/// This is the representation of the channel-crate hot path: block codes
/// encode/decode straight over packed words via
/// [`crate::coding::BlockCode::encode_packed`], modulation reads symbol
/// groups with [`Self::get_bits`], and [`crate::BitPipeline`] threads one
/// set of reusable `BitVec` buffers through the whole chain so a warm
/// transmit makes no heap allocations.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl Clone for BitVec {
    fn clone(&self) -> Self {
        BitVec {
            words: self.words.clone(),
            len: self.len,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Reuse the existing word buffer (the derived impl would allocate).
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        BitVec::default()
    }

    /// Creates an empty bit vector with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        BitVec {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all bits, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// The backing words. Bits past [`Self::len`] in the last word are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Copies `other` into `self`, reusing the existing allocation.
    pub fn copy_from(&mut self, other: &BitVec) {
        self.clone_from(other);
    }

    /// Appends a single bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        self.push_bits(bit as u64, 1);
    }

    /// Appends the low `n` bits of `value`, most significant of the `n`
    /// first. Bits of `value` above `n` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn push_bits(&mut self, value: u64, n: usize) {
        assert!(n <= 64, "can append at most one word at a time");
        if n == 0 {
            return;
        }
        let value = value & low_mask(n);
        let used = self.len & 63;
        if used == 0 {
            self.words.push(0);
        }
        let free = 64 - used;
        let last = self.words.len() - 1;
        if n <= free {
            self.words[last] |= value << (free - n);
        } else {
            let spill = n - free;
            self.words[last] |= value >> spill;
            self.words.push(value << (64 - spill));
        }
        self.len += n;
    }

    /// Reads `n` bits starting at `pos`, returned in the low `n` bits
    /// (first bit read is the most significant of the `n`).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or `pos + n` exceeds the length.
    #[inline]
    pub fn get_bits(&self, pos: usize, n: usize) -> u64 {
        assert!(n <= 64, "can read at most one word at a time");
        assert!(pos + n <= self.len, "bit range out of bounds");
        if n == 0 {
            return 0;
        }
        let w = pos >> 6;
        let off = pos & 63;
        let avail = 64 - off;
        if n <= avail {
            (self.words[w] >> (avail - n)) & low_mask(n)
        } else {
            let spill = n - avail;
            ((self.words[w] & low_mask(avail)) << spill) | (self.words[w + 1] >> (64 - spill))
        }
    }

    /// The bit at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of bounds.
    #[inline]
    pub fn get(&self, pos: usize) -> bool {
        assert!(pos < self.len, "bit index out of bounds");
        (self.words[pos >> 6] >> (63 - (pos & 63))) & 1 == 1
    }

    /// Sets the bit at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of bounds.
    #[inline]
    pub fn set(&mut self, pos: usize, bit: bool) {
        assert!(pos < self.len, "bit index out of bounds");
        let mask = 1u64 << (63 - (pos & 63));
        if bit {
            self.words[pos >> 6] |= mask;
        } else {
            self.words[pos >> 6] &= !mask;
        }
    }

    /// Shortens to `len` bits (no-op when already shorter), zeroing the
    /// dropped tail so the trailing-zeros invariant holds.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.words.truncate(len.div_ceil(64));
        let used = len & 63;
        if used != 0 {
            let last = self.words.len() - 1;
            self.words[last] &= !0u64 << (64 - used);
        }
        self.len = len;
    }

    /// Resizes to `len` bits, zero-filling when growing.
    pub fn resize(&mut self, len: usize) {
        if len <= self.len {
            self.truncate(len);
        } else {
            self.words.resize(len.div_ceil(64), 0);
            self.len = len;
        }
    }

    /// Packs bytes into bits, MSB-first.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut v = BitVec::with_capacity(bytes.len() * 8);
        v.extend_from_bytes(bytes);
        v
    }

    /// Appends bytes MSB-first. Word-aligned appends take the bulk
    /// `u64::from_be_bytes` path (8 bytes per shuffle).
    pub fn extend_from_bytes(&mut self, bytes: &[u8]) {
        if self.len & 63 == 0 {
            let mut chunks = bytes.chunks_exact(8);
            for c in &mut chunks {
                self.words
                    .push(u64::from_be_bytes(c.try_into().expect("chunk of 8")));
            }
            self.len += (bytes.len() - chunks.remainder().len()) * 8;
            for &b in chunks.remainder() {
                self.push_bits(b as u64, 8);
            }
        } else {
            for &b in bytes {
                self.push_bits(b as u64, 8);
            }
        }
    }

    /// Unpacks to bytes, zero-padding the final partial byte.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_bytes_into(&mut out);
        out
    }

    /// Writes the byte form into a caller-owned buffer (cleared first),
    /// allocation-free once the buffer is warm.
    pub fn write_bytes_into(&self, out: &mut Vec<u8>) {
        out.clear();
        let n_bytes = self.len.div_ceil(8);
        out.reserve(n_bytes);
        for w in &self.words {
            out.extend_from_slice(&w.to_be_bytes());
        }
        out.truncate(n_bytes);
    }

    /// Packs a `{0, 1}` byte-per-bit slice.
    ///
    /// Nonzero values are treated as 1; inputs outside `{0, 1}` are
    /// rejected in debug builds.
    pub fn from_u8_bits(bits: &[u8]) -> Self {
        let mut v = BitVec::with_capacity(bits.len());
        v.extend_from_u8_bits(bits);
        v
    }

    /// Appends a `{0, 1}` byte-per-bit slice (64 bits per word op).
    pub fn extend_from_u8_bits(&mut self, bits: &[u8]) {
        for chunk in bits.chunks(64) {
            let mut w = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                debug_assert!(b <= 1, "bit values must be 0 or 1, got {b}");
                w |= ((b != 0) as u64) << (63 - i);
            }
            self.push_bits(w >> (64 - chunk.len()), chunk.len());
        }
    }

    /// Unpacks to the byte-per-bit form.
    pub fn to_u8_bits(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for (wi, &w) in self.words.iter().enumerate() {
            let bits_here = (self.len - wi * 64).min(64);
            for i in 0..bits_here {
                out.push(((w >> (63 - i)) & 1) as u8);
            }
        }
        out
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        // Trailing bits of the last word are zero by invariant.
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Popcount-based Hamming distance: positions where the two differ (up
    /// to the shorter length) plus the length difference.
    pub fn hamming_distance(&self, other: &BitVec) -> usize {
        let common = self.len.min(other.len);
        let full = common / 64;
        let mut diff: usize = self.words[..full]
            .iter()
            .zip(&other.words[..full])
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum();
        let rem = common & 63;
        if rem != 0 {
            let mask = !0u64 << (64 - rem);
            diff += ((self.words[full] ^ other.words[full]) & mask).count_ones() as usize;
        }
        diff + self.len.abs_diff(other.len)
    }

    /// Iterates the bits in order, walking one word at a time.
    pub fn iter(&self) -> Bits<'_> {
        Bits {
            bits: self,
            pos: 0,
            word: 0,
        }
    }
}

impl<'a> IntoIterator for &'a BitVec {
    type Item = bool;
    type IntoIter = Bits<'a>;

    fn into_iter(self) -> Bits<'a> {
        self.iter()
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = BitVec::new();
        for b in iter {
            v.push(b);
        }
        v
    }
}

/// Iterator over the bits of a [`BitVec`], MSB-first.
#[derive(Debug, Clone)]
pub struct Bits<'a> {
    bits: &'a BitVec,
    pos: usize,
    /// Current word, shifted so the next bit is the sign bit.
    word: u64,
}

impl Iterator for Bits<'_> {
    type Item = bool;

    #[inline]
    fn next(&mut self) -> Option<bool> {
        if self.pos >= self.bits.len {
            return None;
        }
        if self.pos & 63 == 0 {
            self.word = self.bits.words[self.pos >> 6];
        }
        let bit = self.word >> 63 == 1;
        self.word <<= 1;
        self.pos += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.bits.len - self.pos;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Bits<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-per-bit unpacking, MSB-first, one shift per bit.
    fn naive_bits(bytes: &[u8]) -> Vec<u8> {
        bytes
            .iter()
            .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1))
            .collect()
    }

    /// Positions where two byte-per-bit strings differ, plus the length
    /// difference.
    fn naive_distance(a: &[u8], b: &[u8]) -> usize {
        a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
    }

    #[test]
    fn roundtrip_bytes() {
        let data = vec![0x00, 0xFF, 0xA5, 0x3C];
        assert_eq!(BitVec::from_bytes(&data).to_bytes(), data);
    }

    #[test]
    fn msb_first_ordering() {
        assert_eq!(
            BitVec::from_bytes(&[0b1000_0001]).to_u8_bits(),
            vec![1, 0, 0, 0, 0, 0, 0, 1]
        );
    }

    #[test]
    fn partial_byte_is_zero_padded() {
        assert_eq!(BitVec::from_u8_bits(&[1, 1]).to_bytes(), vec![0b1100_0000]);
    }

    #[test]
    fn hamming_distance_counts_diffs_and_length() {
        let d =
            |a: &[u8], b: &[u8]| BitVec::from_u8_bits(a).hamming_distance(&BitVec::from_u8_bits(b));
        assert_eq!(d(&[0, 1, 1], &[0, 1, 1]), 0);
        assert_eq!(d(&[0, 1, 1], &[1, 1, 0]), 2);
        assert_eq!(d(&[0, 1], &[0, 1, 1, 1]), 2);
    }

    #[test]
    fn packed_from_bytes_matches_legacy() {
        for len in [0usize, 1, 7, 8, 9, 16, 63, 64, 65, 200] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let packed = BitVec::from_bytes(&data);
            assert_eq!(packed.len(), len * 8);
            assert_eq!(packed.to_u8_bits(), naive_bits(&data), "len {len}");
            assert_eq!(packed.to_bytes(), data, "len {len}");
        }
    }

    #[test]
    fn packed_u8_bits_roundtrip_arbitrary_lengths() {
        for len in [0usize, 1, 5, 63, 64, 65, 129, 300] {
            let bits: Vec<u8> = (0..len).map(|i| ((i * 7 + 3) % 2) as u8).collect();
            let packed = BitVec::from_u8_bits(&bits);
            assert_eq!(packed.len(), len);
            assert_eq!(packed.to_u8_bits(), bits, "len {len}");
        }
    }

    #[test]
    fn push_and_get_bits_cross_word_boundaries() {
        let mut v = BitVec::new();
        v.push_bits(0b1_0110, 5); // straddles nothing yet
        v.push_bits(u64::MAX, 62); // crosses into word 2
        v.push_bits(0b01, 2);
        assert_eq!(v.len(), 69);
        assert_eq!(v.get_bits(0, 5), 0b1_0110);
        assert_eq!(v.get_bits(5, 62), low_mask(62));
        assert_eq!(v.get_bits(67, 2), 0b01);
        // Unaligned wide read crossing the word boundary.
        assert_eq!(v.get_bits(3, 64), (0b10 << 62) | low_mask(62));
    }

    #[test]
    fn set_get_truncate_keep_invariant() {
        let mut v = BitVec::from_u8_bits(&[1; 100]);
        v.set(3, false);
        assert!(!v.get(3));
        assert!(v.get(4));
        v.truncate(70);
        assert_eq!(v.len(), 70);
        assert_eq!(v.count_ones(), 69);
        // The dropped tail must be zeroed, so bytes/words stay canonical.
        assert_eq!(v.words().len(), 2);
        assert_eq!(v.words()[1] & low_mask(58), 0);
        v.resize(80);
        assert_eq!(v.count_ones(), 69, "growth zero-fills");
    }

    #[test]
    fn packed_hamming_distance_matches_legacy() {
        let a: Vec<u8> = (0..150).map(|i| ((i * 13 + 1) % 2) as u8).collect();
        let b: Vec<u8> = (0..130).map(|i| ((i * 7) % 2) as u8).collect();
        let (pa, pb) = (BitVec::from_u8_bits(&a), BitVec::from_u8_bits(&b));
        assert_eq!(pa.hamming_distance(&pb), naive_distance(&a, &b));
        assert_eq!(pb.hamming_distance(&pa), naive_distance(&b, &a));
        assert_eq!(pa.hamming_distance(&pa), 0);
    }

    #[test]
    fn iterator_matches_indexing() {
        let bits: Vec<u8> = (0..131).map(|i| ((i * 31 + 5) % 2) as u8).collect();
        let v = BitVec::from_u8_bits(&bits);
        let collected: Vec<u8> = v.iter().map(u8::from).collect();
        assert_eq!(collected, bits);
        assert_eq!(v.iter().len(), 131);
        let back: BitVec = v.iter().collect();
        assert_eq!(back, v);
    }

    #[test]
    fn clone_from_reuses_buffer_and_compares_equal() {
        let a = BitVec::from_u8_bits(&[1, 0, 1, 1]);
        let mut b = BitVec::from_bytes(&[0xFF; 32]);
        b.copy_from(&a);
        assert_eq!(a, b);
        b.push(true);
        assert_ne!(a, b);
    }
}
