//! The Internet checksum (RFC 1071) used by IPv4, TCP and UDP.
//!
//! One's-complement sum of 16-bit big-endian words, folded and inverted.
//! Implemented once here; the header modules compose it with their
//! pseudo-headers.

/// Accumulates the one's-complement sum over byte slices.
///
/// Use [`Checksum::push`] for each region (header, pseudo-header,
/// payload), then [`Checksum::finish`] for the final inverted value.
///
/// The running sum is a plain integer sum of the words, carries folded
/// only in `finish`, so a partial sum can be copied and completed later
/// with the remaining words in any order. A `u64` holds 2^48 maximal
/// words before it could wrap, far past any region this crate sums; a
/// `u32` would wrap after 128 KiB of `0xFF` bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    sum: u64,
    /// True when an odd byte is pending pairing with the next region's
    /// first byte (regions may have odd lengths, e.g. a payload).
    pending: Option<u8>,
}

impl Checksum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a byte region to the running sum.
    pub fn push(&mut self, bytes: &[u8]) {
        let mut bytes = bytes;
        if let Some(hi) = self.pending.take() {
            if let Some((&lo, rest)) = bytes.split_first() {
                self.add_word(u16::from_be_bytes([hi, lo]));
                bytes = rest;
            } else {
                self.pending = Some(hi);
                return;
            }
        }
        let mut chunks = bytes.chunks_exact(2);
        for chunk in &mut chunks {
            self.add_word(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [odd] = chunks.remainder() {
            self.pending = Some(*odd);
        }
    }

    /// Adds a single 16-bit word (already in host order) to the sum.
    pub fn push_word(&mut self, word: u16) {
        assert!(
            self.pending.is_none(),
            "push_word with an odd byte pending would misalign the sum"
        );
        self.add_word(word);
    }

    fn add_word(&mut self, word: u16) {
        self.sum += u64::from(word);
    }

    /// Folds the carries and returns the inverted checksum.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            // RFC 1071: a trailing odd byte is padded with a zero byte.
            self.add_word(u16::from_be_bytes([hi, 0]));
        }
        let mut sum = self.sum;
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// Computes the checksum of a single contiguous region.
pub fn checksum(bytes: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.push(bytes);
    c.finish()
}

/// Verifies a region whose checksum field is already filled in: the folded
/// sum over the whole region must be zero (i.e. `checksum` returns 0).
pub fn verify(bytes: &[u8]) -> bool {
    checksum(bytes) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from RFC 1071 §3.
    #[test]
    fn rfc1071_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold 0xddf2.
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn empty_region_checksums_to_ffff() {
        assert_eq!(checksum(&[]), 0xFFFF);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xAB]), !0xAB00);
    }

    #[test]
    fn split_regions_equal_contiguous() {
        let data: Vec<u8> = (0..=255u8).collect();
        let whole = checksum(&data);
        for split in [0usize, 1, 7, 128, 255, 256] {
            let mut c = Checksum::new();
            c.push(&data[..split]);
            c.push(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn odd_split_rejoins() {
        // Splitting at an odd offset exercises the pending-byte pairing.
        let data = [1u8, 2, 3, 4, 5, 6];
        let whole = checksum(&data);
        let mut c = Checksum::new();
        c.push(&data[..3]);
        c.push(&data[3..]);
        assert_eq!(c.finish(), whole);
    }

    #[test]
    fn filled_checksum_verifies() {
        // Build a fake header, insert its checksum, verify sums to zero.
        let mut hdr = vec![
            0x45u8, 0x00, 0x00, 0x28, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        hdr.extend_from_slice(&[10, 0, 0, 1, 10, 0, 0, 2]);
        let sum = checksum(&hdr);
        hdr[10..12].copy_from_slice(&sum.to_be_bytes());
        assert!(verify(&hdr));
    }

    #[test]
    fn push_empty_after_odd_keeps_pending() {
        let mut c = Checksum::new();
        c.push(&[0xAB]);
        c.push(&[]);
        c.push(&[0xCD]);
        assert_eq!(c.finish(), !0xABCD);
    }

    /// Folds the region word by word, carrying after every addition.
    fn reference_fold(bytes: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        for pair in bytes.chunks(2) {
            let word = u16::from_be_bytes([pair[0], pair.get(1).copied().unwrap_or(0)]);
            sum += u32::from(word);
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    #[test]
    fn large_regions_do_not_overflow_the_sum() {
        // 0xFFFF words wrapped a 32-bit accumulator after 128 KiB.
        let ones = vec![0xFFu8; 140_000];
        assert_eq!(checksum(&ones), reference_fold(&ones));
        let region: Vec<u8> = (0..1 << 20).map(|i: u32| 0xFF ^ (i % 7) as u8).collect();
        assert_eq!(checksum(&region), reference_fold(&region));
        for split in [1usize, 70_001, 1 << 19, (1 << 20) - 1] {
            let mut c = Checksum::new();
            c.push(&region[..split]);
            c.push(&region[split..]);
            assert_eq!(c.finish(), reference_fold(&region), "split at {split}");
        }
    }

    #[test]
    #[should_panic(expected = "odd byte pending")]
    fn push_word_rejects_misalignment() {
        let mut c = Checksum::new();
        c.push(&[0xAB]);
        c.push_word(0x1234);
    }
}
