//! Property tests for CRC-32: fed in arbitrary pieces from arbitrarily
//! aligned buffers, the streaming state equals the one-shot `crc32`, and
//! both equal the classic bytewise table loop kept here as an oracle — the
//! slicing-by-8 tables and the carry-less-multiply kernel changed the
//! speed, never a value.  Inputs run past 64 KiB, so one case can drive
//! the kernel's fold-by-4 loop for a thousand iterations.

use crac_imagestore::hash::{crc32, Crc32};
use proptest::prelude::*;

/// The bytewise IEEE CRC-32 (reflected, polynomial 0xEDB88320), one table
/// lookup per byte — the reference the fast path must match bit for bit.
fn bytewise_crc32(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
        *slot = crc;
    }
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[test]
fn oracle_matches_the_standard_vector() {
    assert_eq!(bytewise_crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random data up to a 64 KiB chunk and beyond, at a random
    /// misalignment (0–7 bytes into its buffer), fed through
    /// `Crc32::update` in pieces cut at random points.
    #[test]
    fn split_misaligned_updates_match_one_shot_and_bytewise(
        data in proptest::collection::vec(any::<u8>(), 0..70_000),
        skew in 0usize..8,
        cuts in proptest::collection::vec(any::<u64>(), 0..12),
    ) {
        let mut backing = vec![0xA5u8; skew];
        backing.extend_from_slice(&data);
        let bytes = &backing[skew..];

        let mut points: Vec<usize> = cuts
            .iter()
            .map(|c| (*c % (bytes.len() as u64 + 1)) as usize)
            .collect();
        points.push(0);
        points.push(bytes.len());
        points.sort_unstable();

        let mut streamed = Crc32::new();
        for w in points.windows(2) {
            streamed.update(&bytes[w[0]..w[1]]);
        }
        let expect = bytewise_crc32(bytes);
        prop_assert_eq!(crc32(bytes), expect);
        prop_assert_eq!(streamed.finish(), expect);
    }
}
