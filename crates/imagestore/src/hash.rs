//! Integrity primitives: CRC-32 (IEEE) framing checks and the 128-bit
//! content hash that names chunks.
//!
//! Both are implemented locally because the build environment has no
//! registry access, and both work a word at a time — every restored
//! chunk pays a CRC and a hash over its bytes, so byte-at-a-time code
//! here is restart time.
//!
//! - **CRC-32** is the standard IEEE CRC (reflected, polynomial
//!   `0xEDB88320`).  It guards frames, manifests and chunk files against
//!   *accidental* corruption, and one restored chunk pays it up to three
//!   times (the peer's frame, our frame, the chunk file), so it has two
//!   paths that give identical values for every input and every split:
//!   - a **carry-less-multiply kernel** (x86-64 PCLMULQDQ): four 128-bit
//!     accumulators fold 64 bytes per step, then 16 bytes per step, then
//!     a Barrett reduction leaves the 32-bit register (Gopal et al.,
//!     "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ").
//!     [`Crc32::update`] takes it when the CPU reports `pclmulqdq` and
//!     `sse4.1` at run time and the input is at least 128 bytes: ≈20 GB/s
//!     on one core of a 2-vCPU x86-64 VM.
//!   - **slicing-by-8** tables: eight `const`-built tables, eight input
//!     bytes per step, ≈1.2–1.3 GB/s on the same core.  They stay as the
//!     path for inputs under 128 bytes (headers and small frames), for
//!     the kernel's last under-16 bytes, for CPUs or targets without the
//!     instruction, and as the reference the kernel is tested against.
//!
//!   No option selects a path: the CPU and the input length do.  The
//!   kernel's call is this workspace's only `unsafe` (the `unsafe-code`
//!   rule of `crac-lint` keeps it here): calling a function compiled for
//!   extra CPU features is sound only after the run-time check, and the
//!   kernel itself is safe code over slices.
//! - **[`ContentHash`]** is a 128-bit hash from the XXH3 family: 64-byte
//!   stripes feed eight u64 lanes with a 32×32→64 multiply-accumulate
//!   against a fixed 192-byte secret, the lanes are scrambled after every
//!   1 KiB block, and a 128-bit merge folds in the input length.  It is
//!   one function for every length: a trailing partial stripe (and the
//!   empty input) is zero-padded into one stripe, and the folded-in length
//!   keeps the padding from colliding.  It runs at ≈13 GB/s against
//!   ≈0.6 GB/s for the FNV-1a-128 it replaced, on the same machine.
//!
//! Neither is a cryptographic primitive.  The content hash is **not**
//! collision-resistant against an adversary, and it is weaker there than
//! FNV-1a-128 was: the secret is public and each lane adds its raw
//! neighbouring input word, so colliding inputs can be built directly
//! (for example, within one 1 KiB block, from words whose keyed low half
//! is zero) without any cryptanalysis.  A receiver that checks a shipped
//! chunk against its claimed name therefore only catches accidents: any
//! peer holding the shared TCP secret is trusted with chunk naming, and
//! could poison the shared dedup pool.  A process's own checkpoint store
//! has no adversary, and 128 bits make accidental collisions between
//! distinct page contents negligible; the same hash underlies the TCP
//! auth proof (`net::auth`), which is therefore no real MAC either.  A
//! keyed, collision-resistant tree hash (BLAKE3-style) would also serve
//! peers that cannot be trusted, but a portable scalar BLAKE3 is no faster
//! than FNV-1a was (0.3–0.55 GB/s); a fast one needs SIMD intrinsics with
//! runtime dispatch, the seam the CRC-32 kernel above now provides.

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) slicing-by-8
/// tables: `CRC_TABLES[0]` is the classic bytewise table, and
/// `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Slicing-by-8 CRC-32 of `bytes` on top of the raw register `crc`:
/// the portable path, and the kernel's tail.
fn update_tables(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The carry-less-multiply CRC-32 kernel (see the module docs), with the
/// reflected `0xEDB88320` constants Linux, zlib-ng and crc32fast use.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input sent to the kernel: two 64-byte blocks, so its fixed
    /// setup and reduction are spread over at least one fold-by-4 step.
    pub(super) const MIN_LEN: usize = 128;

    /// Fold-by-4 keys: x^(4·128+32) and x^(4·128−32) mod P(x), reflected.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold-by-1 keys: x^(128+32) and x^(128−32) mod P(x), reflected.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// 64→32-bit reduction key: x^64 mod P(x), reflected.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: P(x) itself and μ = ⌊x^64 / P(x)⌋, reflected.
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// True when this CPU has every instruction [`fold`] is compiled for.
    /// The standard library caches the CPUID answer, so this is a load
    /// and a test per call.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// One 16-byte lane of input, little-endian as the reflected CRC
    /// reads it.  Two u64 halves rather than a raw-pointer load keep this
    /// safe; the compiler merges them into one unaligned vector load.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lane(bytes: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*bytes);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// The four 16-byte lanes of a 64-byte block.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lanes(block: &[u8; 64]) -> [__m128i; 4] {
        let (l, _) = block.as_chunks::<16>();
        [lane(&l[0]), lane(&l[1]), lane(&l[2]), lane(&l[3])]
    }

    /// Folds `acc` forward over the distance `keys` encode and adds `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold16(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advances the raw CRC register `crc` over the longest 16-byte
    /// multiple prefix of `bytes` and returns the new register with the
    /// unconsumed tail (under 16 bytes).  Input shorter than one 64-byte
    /// block is returned whole, register untouched.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let (blocks, rest) = bytes.as_chunks::<64>();
        let Some((first, blocks)) = blocks.split_first() else {
            return (crc, bytes);
        };
        let [mut x0, mut x1, mut x2, mut x3] = lanes(first);
        x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(crc as i32));

        // Four independent 128-bit accumulators, each folded 512 bits on.
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in blocks {
            let [b0, b1, b2, b3] = lanes(block);
            x0 = fold16(x0, b0, k1k2);
            x1 = fold16(x1, b1, k1k2);
            x2 = fold16(x2, b2, k1k2);
            x3 = fold16(x3, b3, k1k2);
        }

        // Merge them, then fold in the remaining 16-byte lanes one by one.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(x0, x1, k3k4);
        x = fold16(x, x2, k3k4);
        x = fold16(x, x3, k3k4);
        let (words, tail) = rest.as_chunks::<16>();
        for word in words {
            x = fold16(x, lane(word), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction to the 32-bit remainder (reflected variant: the
        // result sits in the upper half of the low 64 bits).
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        (crc, tail)
    }
}

/// Streaming CRC-32 state.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum: through the carry-less-multiply
    /// kernel when this CPU has it and `bytes` is long enough, through the
    /// slicing-by-8 tables otherwise (and for the kernel's tail).  Both
    /// give the same value for every input and every split.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= clmul::MIN_LEN && clmul::available() {
            // SAFETY: `available()` has just confirmed that this CPU
            // supports pclmulqdq and sse4.1, the features `fold` enables.
            let (state, tail) = unsafe { clmul::fold(self.state, bytes) };
            self.state = update_tables(state, tail);
            return;
        }
        self.state = update_tables(self.state, bytes);
    }

    /// Finalises and returns the checksum.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// One-shot CRC-32 of `bytes` through the slicing-by-8 tables alone, the
/// path every target has.  Equal to [`crc32`] for every input; exposed so
/// benchmarks can report both paths.
pub fn crc32_portable(bytes: &[u8]) -> u32 {
    update_tables(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Name of the path [`Crc32::update`] takes for long inputs on this
/// machine: `"pclmulqdq"` or `"slicing-by-8"`.
pub fn crc32_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if clmul::available() {
        return "pclmulqdq";
    }
    "slicing-by-8"
}

/// 128-bit content hash naming a chunk in the store.
///
/// Equal hash ⇒ treated as equal content (that is what deduplication
/// *means*); the 128-bit width makes accidental collisions negligible.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

/// Bytes per stripe: one u64 per lane.
const STRIPE: usize = 64;
/// Accumulator lanes.
const LANES: usize = 8;
/// Stripes per block; the lanes are scrambled after each block.
const STRIPES_PER_BLOCK: usize = 16;
/// Bytes per block (1 KiB).
const BLOCK: usize = STRIPE * STRIPES_PER_BLOCK;
/// Secret length: stripe `n` of a block keys on bytes `8n..8n + 64`, and
/// the scramble keys on the last 64.
const SECRET_LEN: usize = 192;

const PRIME32_1: u64 = 0x9E37_79B1;
const PRIME32_2: u64 = 0x85EB_CA77;
const PRIME32_3: u64 = 0xC2B2_AE3D;
const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Lane seeds (XXH3's initial accumulator).
const INIT_ACC: [u64; LANES] = [
    PRIME32_3, PRIME64_1, PRIME64_2, PRIME64_3, PRIME64_4, PRIME32_2, PRIME64_5, PRIME32_1,
];

/// The fixed secret: SplitMix64 output from the golden-ratio seed, so its
/// provenance is a formula rather than an opaque table.
const SECRET: [u8; SECRET_LEN] = build_secret();

const fn build_secret() -> [u8; SECRET_LEN] {
    let mut secret = [0u8; SECRET_LEN];
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut i = 0;
    while i < SECRET_LEN / 8 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let bytes = z.to_le_bytes();
        let mut b = 0;
        while b < 8 {
            secret[i * 8 + b] = bytes[b];
            b += 1;
        }
        i += 1;
    }
    secret
}

/// Eight little-endian u64 words of the secret starting at byte `offset`.
const fn secret_words(offset: usize) -> [u64; LANES] {
    let mut words = [0u64; LANES];
    let mut i = 0;
    while i < LANES {
        let mut bytes = [0u8; 8];
        let mut b = 0;
        while b < 8 {
            bytes[b] = SECRET[offset + 8 * i + b];
            b += 1;
        }
        words[i] = u64::from_le_bytes(bytes);
        i += 1;
    }
    words
}

const fn stripe_keys() -> [[u64; LANES]; STRIPES_PER_BLOCK] {
    let mut keys = [[0u64; LANES]; STRIPES_PER_BLOCK];
    let mut n = 0;
    while n < STRIPES_PER_BLOCK {
        keys[n] = secret_words(8 * n);
        n += 1;
    }
    keys
}

/// Per-stripe keys within a block (stripe `n` at secret offset `8n`).
const STRIPE_KEYS: [[u64; LANES]; STRIPES_PER_BLOCK] = stripe_keys();
/// Scramble keys: the secret's last 64 bytes.
const SCRAMBLE_KEY: [u64; LANES] = secret_words(SECRET_LEN - STRIPE);
/// Merge keys for the low and high halves, at XXH3's odd offsets so they
/// straddle the stripe keys instead of repeating them.
const MERGE_KEY_LO: [u64; LANES] = secret_words(11);
const MERGE_KEY_HI: [u64; LANES] = secret_words(SECRET_LEN - STRIPE - 11);

/// Folds one 64-byte stripe into the lanes: each lane adds the product of
/// the two halves of its keyed word and its neighbour's raw word (so no
/// input bit is lost to a zero product).  Loading all eight words before
/// the arithmetic is what lets the compiler vectorise the lanes.
#[inline(always)]
fn accumulate(acc: &mut [u64; LANES], stripe: &[u8], key: &[u64; LANES]) {
    let mut v = [0u64; LANES];
    for (i, word) in v.iter_mut().enumerate() {
        let mut w = [0u8; 8];
        w.copy_from_slice(&stripe[8 * i..8 * i + 8]);
        *word = u64::from_le_bytes(w);
    }
    for i in 0..LANES {
        let k = v[i] ^ key[i];
        let product = (k & 0xFFFF_FFFF).wrapping_mul(k >> 32);
        acc[i] = acc[i].wrapping_add(product).wrapping_add(v[i ^ 1]);
    }
}

/// End-of-block scramble: xorshift, key, multiply — a bijection per lane
/// that spreads high bits down before the next block's products.
#[inline(always)]
fn scramble(acc: &mut [u64; LANES]) {
    for i in 0..LANES {
        let a = acc[i] ^ (acc[i] >> 47) ^ SCRAMBLE_KEY[i];
        acc[i] = a.wrapping_mul(PRIME32_1);
    }
}

/// 64×64→128 multiply folded back to 64 bits.
fn mul128_fold64(a: u64, b: u64) -> u64 {
    let p = a as u128 * b as u128;
    p as u64 ^ (p >> 64) as u64
}

/// Final bijective mix of one output half.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 37;
    h = h.wrapping_mul(0x1656_6791_9E37_79F9);
    h ^ (h >> 32)
}

/// Merges the eight lanes pairwise into 64 bits on top of `start`.
fn merge(acc: &[u64; LANES], key: &[u64; LANES], start: u64) -> u64 {
    let mut r = start;
    for i in (0..LANES).step_by(2) {
        r = r.wrapping_add(mul128_fold64(acc[i] ^ key[i], acc[i + 1] ^ key[i + 1]));
    }
    avalanche(r)
}

impl ContentHash {
    /// Hashes `bytes` with the crate's XXH3-family 128-bit hash (see the
    /// module docs).
    pub fn of(bytes: &[u8]) -> Self {
        let mut acc = INIT_ACC;
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            for (stripe, key) in block.chunks_exact(STRIPE).zip(&STRIPE_KEYS) {
                accumulate(&mut acc, stripe, key);
            }
            scramble(&mut acc);
        }
        let rest = blocks.remainder();
        let mut stripes = rest.chunks_exact(STRIPE);
        for (stripe, key) in (&mut stripes).zip(&STRIPE_KEYS) {
            accumulate(&mut acc, stripe, key);
        }
        let tail = stripes.remainder();
        if !tail.is_empty() || bytes.is_empty() {
            let mut last = [0u8; STRIPE];
            last[..tail.len()].copy_from_slice(tail);
            accumulate(&mut acc, &last, &STRIPE_KEYS[rest.len() / STRIPE]);
        }
        let len = bytes.len() as u64;
        let lo = merge(&acc, &MERGE_KEY_LO, len.wrapping_mul(PRIME64_1));
        let hi = merge(&acc, &MERGE_KEY_HI, !len.wrapping_mul(PRIME64_2));
        ContentHash((hi as u128) << 64 | lo as u128)
    }

    /// Lower-case hex rendering (32 chars) — also the chunk's file stem.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses [`ContentHash::to_hex`] output.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(ContentHash)
    }
}

impl std::fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ContentHash({})", self.to_hex())
    }
}

impl std::fmt::Display for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Streaming equals one-shot.
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), 0xCBF4_3926);
    }

    /// Bit-at-a-time IEEE CRC-32, sharing no table or kernel with the
    /// code under test.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// The dispatched `update` (the carry-less-multiply kernel from 128
    /// bytes up, where the CPU has it), the tables alone and the bitwise
    /// oracle agree at every length to 1 KiB from every misalignment
    /// within a 16-byte lane.
    #[test]
    fn crc32_paths_agree_at_every_length_and_misalignment() {
        let buf = pattern(1024 + 16);
        for skew in 0..16 {
            for len in 0..=1024 {
                let bytes = &buf[skew..skew + len];
                let want = bitwise_crc32(bytes);
                assert_eq!(crc32(bytes), want, "dispatched, len {len} skew {skew}");
                assert_eq!(crc32_portable(bytes), want, "tables, len {len} skew {skew}");
            }
        }
    }

    /// Streaming splits just before, on and after the kernel's 16-, 64-
    /// and 128-byte boundaries give the one-shot value, whichever path
    /// each piece takes.
    #[test]
    fn crc32_streamed_splits_across_kernel_boundaries() {
        let buf = pattern(1000);
        let want = bitwise_crc32(&buf);
        let cuts: Vec<usize> = [16, 64, 128, 144, 192, 256, 512]
            .iter()
            .flat_map(|&b| [b - 1, b, b + 1])
            .collect();
        for (i, &p) in cuts.iter().enumerate() {
            for &q in &cuts[i..] {
                let mut c = Crc32::new();
                c.update(&buf[..p]);
                c.update(&buf[p..q]);
                c.update(&buf[q..]);
                assert_eq!(c.finish(), want, "cuts at {p} and {q}");
            }
        }
    }

    /// CRC values are on disk and on the wire: a 65,565-byte buffer (one
    /// full chunk file) keeps the value the slicing-by-8 code gave before
    /// the kernel existed.
    #[test]
    fn crc32_of_a_chunk_file_sized_buffer_is_pinned() {
        let buf = pattern(65_565);
        assert_eq!(crc32(&buf), 0xDD49_6896);
        assert_eq!(crc32_portable(&buf), 0xDD49_6896);
    }

    #[test]
    fn content_hash_hex_round_trip() {
        let h = ContentHash::of(b"some page bytes");
        assert_eq!(ContentHash::from_hex(&h.to_hex()), Some(h));
        assert_ne!(h, ContentHash::of(b"other page bytes"));
        assert!(ContentHash::from_hex("xyz").is_none());
    }

    #[test]
    fn single_bit_flip_changes_both_digests() {
        let a = vec![0u8; 4096];
        let mut b = a.clone();
        b[2049] ^= 0x01;
        assert_ne!(crc32(&a), crc32(&b));
        assert_ne!(ContentHash::of(&a), ContentHash::of(&b));
    }

    /// Deterministic, non-repeating test bytes.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B1).rotate_right(13) as u8)
            .collect()
    }

    /// Chunk names are on-disk and on-wire identifiers: any change to the
    /// hash must be a deliberate format bump, never an accident.  Lengths
    /// straddle the empty input, the padded stripe, the stripe and block
    /// boundaries, a page, and a full 16-page chunk.
    #[test]
    fn content_hash_known_answers() {
        let known: [(usize, u128); 9] = [
            (0, 0x71fd36d9f169ec70603903e42ccb1480),
            (1, 0x0828e5c269bc0916d38383d0cdbef287),
            (63, 0xb17cda55e9e4f0b2726deb9e29491bf4),
            (64, 0xc6eb50f6ad461f0846972c0a51515e1a),
            (65, 0x4c4bdd4202eb73e4cd90710c7bfece5d),
            (1024, 0x17fa63d69035d4fe2eda34de7754fb6e),
            (1025, 0x45d29a6cbe137c873dd4b871e912f63b),
            (4096, 0x231e0d146a0d8adc70ac34fcd15fbdcd),
            (65536, 0x6f5cc7b3bff43969375260587ee754f2),
        ];
        for (len, want) in known {
            let got = ContentHash::of(&pattern(len));
            assert_eq!(got, ContentHash(want), "length {len}");
        }
    }

    /// A single-bit flip at every byte offset of a 64 KiB chunk changes
    /// its name.  That is 4 GiB of hashing, so unoptimised builds sample
    /// every 97th offset; release builds check them all.
    #[test]
    fn bit_flip_at_every_offset_changes_the_hash() {
        let mut buf = pattern(64 << 10);
        let base = ContentHash::of(&buf);
        let step = if cfg!(debug_assertions) { 97 } else { 1 };
        for offset in (0..buf.len()).step_by(step) {
            let bit = 1u8 << (offset % 8);
            buf[offset] ^= bit;
            assert_ne!(ContentHash::of(&buf), base, "flip at byte {offset}");
            buf[offset] ^= bit;
        }
    }

    /// Zero padding of the last stripe never lets two lengths collide:
    /// all-zero inputs of every length up to four pages and a stripe hash
    /// to distinct values.
    #[test]
    fn zero_inputs_of_every_length_hash_distinctly() {
        let zeros = vec![0u8; 4160];
        let mut seen = std::collections::HashSet::new();
        for len in 0..=zeros.len() {
            assert!(
                seen.insert(ContentHash::of(&zeros[..len])),
                "{len} zero bytes collide with a shorter run"
            );
        }
    }
}
