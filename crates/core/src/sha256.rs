//! In-tree SHA-256 (FIPS 180-4).
//!
//! ValueExpert computes a SHA-256 hash of each data object's value
//! snapshot after every GPU API and groups objects with equal hashes to
//! detect the *duplicate values* pattern (§5.1). The offline crate
//! registry has no `sha2`, so the standard algorithm is implemented here
//! and verified against the FIPS test vectors in the unit tests.
//!
//! Hashing every written object's snapshot dominates a coarse-only
//! replay, so the compression rounds have two backends: the CPU's SHA
//! extensions on x86-64, chosen at run time when the CPU has them, and
//! portable integer rounds everywhere else ([`sha256_portable`] forces
//! them; they are the reference the tests hold the hardware path to).
//! Both compute the same digests.

/// A 256-bit digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Hex rendering of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            use std::fmt::Write;
            write!(s, "{b:02x}").expect("writing to String cannot fail");
        }
        s
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
    0x5be0cd19,
];

/// Where the compression rounds run. Chosen per [`Sha256::update`] call
/// by [`Backend::detect`]; every backend computes the same function.
#[derive(Debug, Clone, Copy)]
enum Backend {
    /// [`compress`], block by block, in plain integer arithmetic.
    Portable,
    /// The CPU's SHA extensions.
    #[cfg(target_arch = "x86_64")]
    Sha(x86::ShaExtensions),
}

impl Backend {
    /// The fastest backend this CPU supports: the SHA extensions where it
    /// has them (x86-64), the portable rounds everywhere else. Feature
    /// detection caches its answer, so this is cheap to call per update.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(sha) = x86::ShaExtensions::detect() {
            return Backend::Sha(sha);
        }
        Backend::Portable
    }

    /// Runs the block function over every 64-byte block of `blocks`,
    /// whose length is a multiple of 64.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Backend::Portable => {
                for block in blocks.chunks_exact(64) {
                    compress(state, block.try_into().expect("chunks_exact yields 64 bytes"));
                }
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Sha(sha) => sha.compress_blocks(state, blocks),
        }
    }
}

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0u8; 64], buf_len: 0, total_len: 0 }
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, Backend::detect());
    }

    /// Finishes and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finalize_with(Backend::detect())
    }

    /// [`Sha256::update`] on an explicit backend: tops up the buffered
    /// partial block, then hands every remaining whole block to one
    /// [`Backend::compress`] call.
    fn update_with(&mut self, mut data: &[u8], backend: Backend) {
        self.total_len += data.len() as u64;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            backend.compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            backend.compress(&mut self.state, &data[..whole]);
        }
        let rest = &data[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// [`Sha256::finalize`] on an explicit backend.
    fn finalize_with(mut self, backend: Backend) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros until 56 mod 64, then the 8-byte length.
        let zeros = (119 - self.buf_len) % 64;
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_be_bytes());
        self.update_with(&pad[..9 + zeros], backend);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }
}

/// The FIPS 180-4 block function in plain integer arithmetic: the only
/// path on CPUs without SHA extensions, and the reference the
/// accelerated backend is tested against.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The x86-64 backend on the SHA extensions (SHA-NI): `sha256rnds2` runs
/// two rounds per instruction and `sha256msg1`/`sha256msg2` extend the
/// message schedule four words at a time, so a block costs a few dozen
/// instructions instead of ~2 000.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
        _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Proof that this CPU has every instruction [`compress_blocks_sha`]
    /// uses: the private field means only [`ShaExtensions::detect`] can
    /// make one.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct ShaExtensions(());

    impl ShaExtensions {
        /// `Some` when the CPU has the SHA extensions and SSE4.1 (SSE2 and
        /// SSSE3 come with every CPU that has SHA).
        pub(super) fn detect() -> Option<Self> {
            (is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1"))
                .then_some(ShaExtensions(()))
        }

        /// Compresses every 64-byte block of `blocks` into `state`.
        pub(super) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
            // SAFETY: `self` exists only if `detect` found every feature
            // `compress_blocks_sha` is compiled for.
            unsafe { compress_blocks_sha(state, blocks) }
        }
    }

    /// Four rounds with message words `w` (rounds `4i..4i+4`).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = _mm_set_epi32(
            K[4 * i + 3] as i32,
            K[4 * i + 2] as i32,
            K[4 * i + 1] as i32,
            K[4 * i] as i32,
        );
        let wk = _mm_add_epi32(w, k);
        // SAFETY: `sha` is enabled for this function, and the caller
        // checked that the CPU has it.
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        // SAFETY: as above; the upper two words of `wk` feed the next two
        // rounds.
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// Message words `4i..4i+4` from the previous sixteen, held as
    /// `w[i-4..i]` in `a`, `b`, `c`, `d`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(a: __m128i, b: __m128i, c: __m128i, d: __m128i) -> __m128i {
        // SAFETY: `sha` is enabled for this function, and the caller
        // checked that the CPU has it.
        let s0 = _mm_sha256msg1_epu32(a, b);
        let t = _mm_add_epi32(s0, _mm_alignr_epi8(d, c, 4));
        // SAFETY: as above.
        _mm_sha256msg2_epu32(t, d)
    }

    /// # Safety
    ///
    /// The CPU must support SHA, SSE2, SSSE3 and SSE4.1.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_blocks_sha(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte order: each 32-bit message word is big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is 32 readable bytes; `loadu` has no alignment
        // requirement.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        // `sha256rnds2` wants the state as (a, b, e, f) and (c, d, g, h).
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `block` is 64 readable bytes, so each of the four
            // unaligned 16-byte loads stays inside it.
            let mut w = unsafe {
                let p = block.as_ptr().cast::<__m128i>();
                [0, 1, 2, 3].map(|j| _mm_shuffle_epi8(_mm_loadu_si128(p.add(j)), bswap))
            };
            for i in 0..16 {
                if i >= 4 {
                    w[i % 4] =
                        schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                }
                rounds4(&mut abef, &mut cdgh, w[i % 4], i);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 32 writable bytes; `storeu` has no alignment
        // requirement.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgef);
        }
    }
}

/// One-shot hash of a byte slice.
///
/// ```rust
/// use vex_core::sha256::sha256;
/// let a = sha256(b"snapshot");
/// assert_eq!(a, sha256(b"snapshot"));       // deterministic
/// assert_ne!(a, sha256(b"snapsho_"));       // collision-resistant enough
/// assert_eq!(a.to_hex().len(), 64);
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    digest_with(data, Backend::detect())
}

/// One-shot hash on the portable backend only, whatever the CPU: the
/// reference [`sha256`] must match byte for byte, and the baseline its
/// hardware path is measured against.
///
/// ```rust
/// use vex_core::sha256::{sha256, sha256_portable};
/// assert_eq!(sha256_portable(b"snapshot"), sha256(b"snapshot"));
/// ```
pub fn sha256_portable(data: &[u8]) -> Digest {
    digest_with(data, Backend::Portable)
}

fn digest_with(data: &[u8], backend: Backend) -> Digest {
    let mut h = Sha256::new();
    h.update_with(data, backend);
    h.finalize_with(backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Asserts a FIPS 180-4 / NIST CAVP vector on the detected backend
    /// and, explicitly, on the portable one (on a CPU with SHA
    /// extensions, `sha256` alone never reaches the portable rounds).
    fn assert_vector(input: &[u8], want: &str) {
        assert_eq!(sha256(input).to_hex(), want, "detected backend");
        assert_eq!(sha256_portable(input).to_hex(), want, "portable backend");
    }

    #[test]
    fn empty_vector() {
        assert_vector(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn abc_vector() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        let chunk = [b'a'; 1000];
        for backend in [Backend::detect(), Backend::Portable] {
            let mut h = Sha256::new();
            for _ in 0..1000 {
                h.update_with(&chunk, backend);
            }
            assert_eq!(
                h.finalize_with(backend).to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{backend:?}"
            );
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn different_data_different_digest() {
        assert_ne!(sha256(&[0u8; 16]), sha256(&[1u8; 16]));
        assert_ne!(sha256(&[0u8; 16]), sha256(&[0u8; 17]));
    }

    proptest! {
        /// The detected backend, fed in up to four pieces, matches the
        /// portable one-shot digest. Vacuous on CPUs without SHA
        /// extensions, where both sides are the portable backend.
        #[test]
        fn prop_backends_agree(
            data in prop::collection::vec(any::<u8>(), 0..1101),
            cuts in prop::collection::vec(any::<usize>(), 0..4)
        ) {
            let backend = Backend::detect();
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                h.update_with(&data[at..cut], backend);
                at = cut;
            }
            prop_assert_eq!(h.finalize_with(backend), sha256_portable(&data));
        }
    }
}
