//! Seeded memory contents and the per-page version model.
//!
//! Every page's bytes are a pure function of `(seed, page, version)`, so
//! the benchmark keeps one version number per page and recomputes the
//! expected bytes when it verifies a restore — it never holds a second
//! copy of the image, and `peak_rss_mib` measures the program under test.
//!
//! The mix exercises the store's content paths:
//!
//! * **random** pages (11/16): incompressible, unique per page and version;
//! * **stamped** pages (3/16): a constant fill with a unique 24-byte stamp,
//!   so run-length friendly but never identical to another page;
//! * **duplicate** pages (2/16): one of [`DUP_GROUPS`] shared contents per
//!   version, so equal pages recur across the image.

use std::sync::atomic::{AtomicU32, Ordering};

use crac_repro::prelude::*;

/// Bytes per simulated page.
pub const PAGE: usize = 4096;
const PAGE_U64: u64 = PAGE as u64;

/// Distinct shared contents the duplicate pages draw from.
pub const DUP_GROUPS: u64 = 4;

/// Pages the host staging buffer for device transfers holds.
pub const SCRATCH_PAGES: u64 = 64;

/// SplitMix64 finaliser: a bijective 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E9B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded generator for the benchmark's own choices (dirty sets,
/// working sets).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Content class of one page (fixed per seed and page).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Random,
    Stamped,
    Duplicate,
}

/// The class page `page` has under `seed`.
pub fn kind_of(seed: u64, page: u64) -> Kind {
    match mix(seed ^ mix(page ^ 0xC1A55)) % 16 {
        0..=10 => Kind::Random,
        11..=13 => Kind::Stamped,
        _ => Kind::Duplicate,
    }
}

fn fill_stream(key: u64, out: &mut [u8]) {
    let mut state = key;
    for word in out.chunks_exact_mut(8) {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        word.copy_from_slice(&mix(state).to_le_bytes());
    }
}

/// Writes the contents of `page` at `version` under `seed` into `out`
/// (exactly one page).
pub fn fill_page(seed: u64, page: u64, version: u32, out: &mut [u8]) {
    debug_assert_eq!(out.len(), PAGE);
    let v = u64::from(version);
    match kind_of(seed, page) {
        Kind::Random => fill_stream(mix(seed ^ mix(page ^ mix(v))), out),
        Kind::Stamped => {
            let fill = (mix(seed ^ page ^ (v << 40)) & 0xff) as u8;
            out.fill(fill);
            out[0..8].copy_from_slice(&seed.to_le_bytes());
            out[8..16].copy_from_slice(&page.to_le_bytes());
            out[16..24].copy_from_slice(&v.to_le_bytes());
        }
        Kind::Duplicate => {
            let group = page % DUP_GROUPS;
            fill_stream(mix(!seed ^ mix(group ^ mix(v))), out)
        }
    }
}

/// One allocation of the modelled application.
#[derive(Clone, Copy, Debug)]
pub struct Alloc {
    /// Base address (page aligned).
    pub base: Addr,
    /// First global page index the allocation covers.
    pub first: u64,
    /// Pages in the allocation.
    pub pages: u64,
    /// Device memory (`cudaMalloc`), reached with `cudaMemcpy`.
    pub device: bool,
}

/// A page whose restored bytes differ from the model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mismatch {
    /// Global page index.
    pub page: u64,
    /// Version the model expected.
    pub version: u32,
}

/// Why a verification failed: wrong bytes, or the memory could not be
/// read at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    Mismatch(Mismatch),
    Access(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Mismatch(m) => {
                write!(f, "page {} differs from version {}", m.page, m.version)
            }
            VerifyError::Access(e) => write!(f, "cannot read restored memory: {e}"),
        }
    }
}

impl From<CracError> for VerifyError {
    fn from(e: CracError) -> Self {
        VerifyError::Access(e.to_string())
    }
}

/// The modelled application: its allocations, a scratch host buffer for
/// device transfers, and one version number per page.
pub struct Model {
    /// Seed of every page's contents.
    pub seed: u64,
    /// Heap allocation first, then device memory.
    pub allocs: Vec<Alloc>,
    /// Host staging buffer for `cudaMemcpy` ([`SCRATCH_PAGES`] pages).
    pub scratch: Addr,
    versions: Vec<AtomicU32>,
}

impl Model {
    /// Allocates `heap_pages` of host heap and `device_pages` of device
    /// memory in `proc` and fills every page with version `base_version`.
    /// The scratch buffer shares the heap mapping (one region).
    pub fn launch(
        proc: &CracProcess,
        seed: u64,
        heap_pages: u64,
        device_pages: u64,
        base_version: u32,
    ) -> Result<Self, CracError> {
        let heap = proc.heap_alloc((heap_pages + SCRATCH_PAGES) * PAGE_U64)?;
        let scratch = heap + heap_pages * PAGE_U64;
        let mut allocs = vec![Alloc {
            base: heap,
            first: 0,
            pages: heap_pages,
            device: false,
        }];
        if device_pages > 0 {
            let dev = proc.malloc(device_pages * PAGE_U64)?;
            allocs.push(Alloc {
                base: dev,
                first: heap_pages,
                pages: device_pages,
                device: true,
            });
        }
        let total = heap_pages + device_pages;
        let model = Model {
            seed,
            allocs,
            scratch,
            versions: (0..total).map(|_| AtomicU32::new(base_version)).collect(),
        };
        for a in model.allocs.clone() {
            let mut p = a.first;
            while p < a.first + a.pages {
                let n = SCRATCH_PAGES.min(a.first + a.pages - p);
                model.write_run(proc, p, n, false)?;
                p += n;
            }
        }
        Ok(model)
    }

    /// Total modelled pages.
    pub fn pages(&self) -> u64 {
        self.versions.len() as u64
    }

    /// Modelled live bytes (heap plus device data, scratch excluded).
    pub fn live_bytes(&self) -> u64 {
        self.pages() * PAGE_U64
    }

    /// Current version of global page `page`.
    pub fn version(&self, page: u64) -> u32 {
        self.versions[page as usize].load(Ordering::Acquire)
    }

    /// The allocation holding global page `page`.
    pub fn alloc_of(&self, page: u64) -> Alloc {
        *self
            .allocs
            .iter()
            .find(|a| page >= a.first && page < a.first + a.pages)
            .unwrap_or(&self.allocs[0])
    }

    /// Address of global page `page`.
    pub fn addr_of(&self, page: u64) -> Addr {
        let a = self.alloc_of(page);
        a.base + (page - a.first) * PAGE_U64
    }

    /// Bytes of `n` pages from `page` at their current versions.
    pub fn expected(&self, page: u64, n: u64) -> Vec<u8> {
        let mut buf = vec![0u8; (n * PAGE_U64) as usize];
        for (i, out) in buf.chunks_exact_mut(PAGE).enumerate() {
            let p = page + i as u64;
            fill_page(self.seed, p, self.version(p), out);
        }
        buf
    }

    /// Rewrites the run of `n` pages from global page `page` (one
    /// allocation, at most [`SCRATCH_PAGES`] pages for device memory),
    /// bumping each page's version first when `bump` is set.  Device runs
    /// are staged through the scratch buffer and copied with `cudaMemcpy`
    /// H2D.
    pub fn write_run(
        &self,
        proc: &CracProcess,
        page: u64,
        n: u64,
        bump: bool,
    ) -> Result<(), CracError> {
        if bump {
            for p in page..page + n {
                self.versions[p as usize].fetch_add(1, Ordering::AcqRel);
            }
        }
        let data = self.expected(page, n);
        let a = self.alloc_of(page);
        let addr = self.addr_of(page);
        if a.device {
            debug_assert!(n <= SCRATCH_PAGES);
            proc.space().write_bytes(self.scratch, &data)?;
            proc.memcpy(addr, self.scratch, n * PAGE_U64, MemcpyKind::HostToDevice)?;
        } else {
            proc.space().write_bytes(addr, &data)?;
        }
        Ok(())
    }

    /// Reads `n` pages from global page `page` of `proc` (one allocation;
    /// device memory comes back through the scratch buffer with
    /// `cudaMemcpy` D2H, at most [`SCRATCH_PAGES`] pages).
    pub fn read_run(&self, proc: &CracProcess, page: u64, n: u64) -> Result<Vec<u8>, CracError> {
        let mut buf = vec![0u8; (n * PAGE_U64) as usize];
        let a = self.alloc_of(page);
        let addr = self.addr_of(page);
        if a.device {
            debug_assert!(n <= SCRATCH_PAGES);
            proc.memcpy(self.scratch, addr, n * PAGE_U64, MemcpyKind::DeviceToHost)?;
            proc.space().read_bytes(self.scratch, &mut buf)?;
        } else {
            proc.space().read_bytes(addr, &mut buf)?;
        }
        Ok(buf)
    }

    /// Compares `got` (the bytes of `n` pages from `page`) with the model.
    pub fn check(&self, page: u64, got: &[u8]) -> Result<(), VerifyError> {
        let n = (got.len() / PAGE) as u64;
        let want = self.expected(page, n);
        for (i, (g, w)) in got
            .chunks_exact(PAGE)
            .zip(want.chunks_exact(PAGE))
            .enumerate()
        {
            if g != w {
                let p = page + i as u64;
                return Err(VerifyError::Mismatch(Mismatch {
                    page: p,
                    version: self.version(p),
                }));
            }
        }
        Ok(())
    }

    /// Verifies every page of every allocation of `proc` byte for byte.
    pub fn verify_all(&self, proc: &CracProcess) -> Result<(), VerifyError> {
        for a in &self.allocs {
            let mut p = a.first;
            while p < a.first + a.pages {
                let n = SCRATCH_PAGES.min(a.first + a.pages - p);
                let got = self.read_run(proc, p, n)?;
                self.check(p, &got)?;
                p += n;
            }
        }
        Ok(())
    }

    /// Splits the global page range `[page, page + n)` into runs that
    /// each stay inside one allocation and span at most
    /// [`SCRATCH_PAGES`] pages.
    pub fn runs(&self, page: u64, n: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut p = page;
        let end = (page + n).min(self.pages());
        while p < end {
            let a = self.alloc_of(p);
            let stop = end.min(a.first + a.pages).min(p + SCRATCH_PAGES);
            out.push((p, stop - p));
            p = stop;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contents_are_pure_functions_of_seed_page_version() {
        let (mut a, mut b) = (vec![0u8; PAGE], vec![0u8; PAGE]);
        fill_page(7, 123, 4, &mut a);
        fill_page(7, 123, 4, &mut b);
        assert_eq!(a, b);
        fill_page(7, 123, 5, &mut b);
        assert_ne!(a, b, "a new version changes the bytes");
        fill_page(8, 123, 4, &mut b);
        assert_ne!(a, b, "another seed changes the bytes");
    }

    #[test]
    fn the_mix_has_every_kind_and_duplicates_repeat() {
        let kinds: Vec<Kind> = (0..4096).map(|p| kind_of(3, p)).collect();
        for k in [Kind::Random, Kind::Stamped, Kind::Duplicate] {
            let n = kinds.iter().filter(|&&x| x == k).count();
            assert!(n > 200, "{k:?} appears {n} times");
        }
        let dups: Vec<u64> = (0..4096)
            .filter(|&p| kind_of(3, p) == Kind::Duplicate)
            .collect();
        let (p, q) = dups
            .iter()
            .flat_map(|&p| dups.iter().map(move |&q| (p, q)))
            .find(|&(p, q)| p != q && p % DUP_GROUPS == q % DUP_GROUPS)
            .unwrap();
        let (mut a, mut b) = (vec![0u8; PAGE], vec![0u8; PAGE]);
        fill_page(3, p, 1, &mut a);
        fill_page(3, q, 1, &mut b);
        assert_eq!(a, b, "duplicate pages of one group share content");
        let s: Vec<u64> = (0..4096)
            .filter(|&p| kind_of(3, p) == Kind::Stamped)
            .take(2)
            .collect();
        fill_page(3, s[0], 1, &mut a);
        fill_page(3, s[1], 1, &mut b);
        assert_ne!(a, b, "stamped pages are unique");
    }
}
