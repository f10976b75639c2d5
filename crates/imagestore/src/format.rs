//! The on-disk binary formats: image manifests and chunk files.
//!
//! A stored checkpoint is one *manifest* (`images/<id>.crimg`) plus the
//! content-addressed *chunk files* (`chunks/<hash>.chk`) it references.
//! Every file is little-endian and CRC-32 framed so that any single
//! corrupted byte is detected at read time:
//!
//! ```text
//! manifest := magic "CRACSTR1" | version u32 | image_id u64 | parent u64
//!           | taken_at_ns u64 | compression u8
//!           | nregions u64 | region*
//!           | npayloads u64 | payload*
//!           | crc32 u32                       (over all preceding bytes)
//! region   := start u64 | len u64 | prot u8 | label_len u32 | label
//!           | nchunks u32 | chunk*
//! chunk    := nruns u32 | (first_page u64, count u32)* | hash u128
//!           | raw_len u64
//! payload  := name_len u32 | name | data_len u64 | data
//!
//! chunkfile := magic "CRACCHK1" | encoding u8 | raw_len u64
//!            | encoded_len u64 | crc32 u32    (over the encoded bytes)
//!            | encoded bytes
//! ```
//!
//! `parent` is 0 for a full checkpoint, or the parent's image id for an
//! incremental one (ids start at 1).  A manifest always describes the
//! *complete* image — incremental is purely a storage property (shared
//! chunks are not rewritten) — so restore never walks a parent chain.

use crac_addrspace::{PageRun, Prot};
use crac_dmtcp::ByteCursor;

use crate::codec::{Compression, Encoding};
use crate::hash::{crc32, ContentHash};
use crate::store::ImageId;

/// Magic bytes opening a manifest file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"CRACSTR1";
/// Magic bytes opening a chunk file.
pub const CHUNK_MAGIC: &[u8; 8] = b"CRACCHK1";
/// Current manifest format version.  Version 2 names chunks with the
/// XXH3-family [`ContentHash`]; a version-1 store named them with
/// FNV-1a-128, so its manifests are refused rather than read as missing
/// chunks.
pub const FORMAT_VERSION: u32 = 2;

/// One chunk reference within a region: which pages it covers and the
/// content hash naming its bytes in the chunk store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Page runs (region-relative indices) in increasing order.
    pub runs: Vec<PageRun>,
    /// Content hash of the chunk's raw (decoded) bytes.
    pub hash: ContentHash,
    /// Raw byte length (`page count × PAGE_SIZE`).
    pub raw_len: u64,
}

/// One saved region in a manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionEntry {
    /// Restore address of the region.
    pub start: u64,
    /// Logical length in bytes.
    pub len: u64,
    /// Protection to restore.
    pub prot: Prot,
    /// Diagnostic label.
    pub label: String,
    /// The region's dirty pages, chunked.
    pub chunks: Vec<ChunkEntry>,
}

/// A decoded manifest: everything needed to rebuild a `CheckpointImage`
/// given the chunk store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// This image's id.
    pub image_id: ImageId,
    /// Parent image for incremental checkpoints (storage lineage only).
    pub parent: Option<ImageId>,
    /// Virtual time the checkpoint was taken.
    pub taken_at_ns: u64,
    /// Compression policy the writer ran with (individual chunks record
    /// their own encoding; this is diagnostic).
    pub compression: Compression,
    /// Saved regions in image order.
    pub regions: Vec<RegionEntry>,
    /// Plugin payloads in name order.
    pub payloads: Vec<(String, Vec<u8>)>,
}

impl Manifest {
    /// Logical image size (regions + payloads), as the paper reports it.
    pub fn logical_size(&self) -> u64 {
        let regions: u64 = self.regions.iter().map(|r| r.len).sum();
        let payloads: u64 = self.payloads.iter().map(|(_, d)| d.len() as u64).sum();
        regions + payloads
    }

    /// Every chunk reference in the manifest.
    pub fn chunk_refs(&self) -> impl Iterator<Item = &ChunkEntry> {
        self.regions.iter().flat_map(|r| r.chunks.iter())
    }

    /// Serialises the manifest, appending the CRC-32 trailer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.image_id.0.to_le_bytes());
        out.extend_from_slice(&self.parent.map_or(0, |p| p.0).to_le_bytes());
        out.extend_from_slice(&self.taken_at_ns.to_le_bytes());
        out.push(match self.compression {
            Compression::None => 0,
            Compression::Rle => 1,
        });
        out.extend_from_slice(&(self.regions.len() as u64).to_le_bytes());
        for region in &self.regions {
            out.extend_from_slice(&region.start.to_le_bytes());
            out.extend_from_slice(&region.len.to_le_bytes());
            out.push(region.prot.bits());
            out.extend_from_slice(&(region.label.len() as u32).to_le_bytes());
            out.extend_from_slice(region.label.as_bytes());
            out.extend_from_slice(&(region.chunks.len() as u32).to_le_bytes());
            for chunk in &region.chunks {
                out.extend_from_slice(&(chunk.runs.len() as u32).to_le_bytes());
                for run in &chunk.runs {
                    out.extend_from_slice(&run.first.to_le_bytes());
                    // The writer caps chunks at CHUNK_PAGES, but the type is
                    // u64: refuse to wrap rather than serialise a silently
                    // truncated page count the CRC could never catch.
                    let count = u32::try_from(run.count)
                        // crac-lint: allow(no-unwrap) — refusing to serialize a wrapping page count is the documented contract
                        .expect("page run exceeds the manifest format's u32 count");
                    out.extend_from_slice(&count.to_le_bytes());
                }
                out.extend_from_slice(&chunk.hash.0.to_le_bytes());
                out.extend_from_slice(&chunk.raw_len.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.payloads.len() as u64).to_le_bytes());
        for (name, data) in &self.payloads {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(data.len() as u64).to_le_bytes());
            out.extend_from_slice(data);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and integrity-checks a manifest.  Returns a description of the
    /// first problem found on any corruption.
    pub fn from_bytes(data: &[u8]) -> Result<Self, String> {
        if data.len() < MANIFEST_MAGIC.len() + 4 + 4 {
            return Err("manifest truncated".into());
        }
        let (body, trailer) = data.split_at(data.len() - 4);
        // crac-lint: allow(no-unwrap) — split_at(len - 4) guarantees a 4-byte trailer
        let stored_crc = u32::from_le_bytes(trailer.try_into().unwrap());
        if crc32(body) != stored_crc {
            return Err(format!(
                "manifest CRC mismatch: stored {stored_crc:#010x}, computed {:#010x}",
                crc32(body)
            ));
        }
        let mut c = ByteCursor::new(body);
        if c.take(8).ok_or("missing magic")? != MANIFEST_MAGIC {
            return Err("bad manifest magic".into());
        }
        let version = c.u32().ok_or("missing version")?;
        if version != FORMAT_VERSION {
            return Err(format!("unsupported manifest version {version}"));
        }
        let image_id = ImageId(c.u64().ok_or("missing image id")?);
        let parent = match c.u64().ok_or("missing parent id")? {
            0 => None,
            p => Some(ImageId(p)),
        };
        let taken_at_ns = c.u64().ok_or("missing timestamp")?;
        let compression = match c.u8().ok_or("missing compression tag")? {
            0 => Compression::None,
            1 => Compression::Rle,
            t => return Err(format!("unknown compression tag {t}")),
        };
        let nregions = c.u64().ok_or("missing region count")? as usize;
        let mut regions = Vec::with_capacity(nregions.min(1 << 16));
        for _ in 0..nregions {
            let start = c.u64().ok_or("truncated region")?;
            let len = c.u64().ok_or("truncated region")?;
            let prot = Prot::from_bits(c.u8().ok_or("truncated region")?)
                .ok_or("invalid protection bits")?;
            let label_len = c.u32().ok_or("truncated region")? as usize;
            let label = String::from_utf8(c.take(label_len).ok_or("truncated label")?.to_vec())
                .map_err(|_| "label is not UTF-8")?;
            let nchunks = c.u32().ok_or("truncated region")? as usize;
            let mut chunks = Vec::with_capacity(nchunks.min(1 << 16));
            for _ in 0..nchunks {
                let nruns = c.u32().ok_or("truncated chunk")? as usize;
                let mut runs = Vec::with_capacity(nruns.min(1 << 16));
                for _ in 0..nruns {
                    let first = c.u64().ok_or("truncated run")?;
                    let count = c.u32().ok_or("truncated run")? as u64;
                    if count == 0 {
                        return Err("empty page run".into());
                    }
                    runs.push(PageRun { first, count });
                }
                let hash = ContentHash(c.u128().ok_or("truncated chunk hash")?);
                let raw_len = c.u64().ok_or("truncated chunk")?;
                chunks.push(ChunkEntry {
                    runs,
                    hash,
                    raw_len,
                });
            }
            regions.push(RegionEntry {
                start,
                len,
                prot,
                label,
                chunks,
            });
        }
        let npayloads = c.u64().ok_or("missing payload count")? as usize;
        let mut payloads = Vec::with_capacity(npayloads.min(1 << 16));
        for _ in 0..npayloads {
            let name_len = c.u32().ok_or("truncated payload")? as usize;
            let name =
                String::from_utf8(c.take(name_len).ok_or("truncated payload name")?.to_vec())
                    .map_err(|_| "payload name is not UTF-8")?;
            let data_len = c.u64().ok_or("truncated payload")? as usize;
            let data = c.take(data_len).ok_or("truncated payload data")?.to_vec();
            payloads.push((name, data));
        }
        if !c.at_end() {
            return Err("trailing bytes after manifest body".into());
        }
        Ok(Self {
            image_id,
            parent,
            taken_at_ns,
            compression,
            regions,
            payloads,
        })
    }
}

/// A chunk file's header plus its encoded payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkFile {
    /// How the payload is encoded.
    pub encoding: Encoding,
    /// Length the payload decodes to.
    pub raw_len: u64,
    /// The encoded bytes.
    pub encoded: Vec<u8>,
}

/// A chunk file's header plus a *borrowed* view of its encoded payload —
/// what [`ChunkFile::parse`] yields.
///
/// The restore pipeline decodes straight out of the file buffer through
/// this view, so a fetched chunk never holds file bytes and an encoded
/// copy at once; that halves the per-worker share of
/// [`crate::reader::restore_buffer_bound`].
#[derive(Clone, Copy, Debug)]
pub struct ChunkView<'a> {
    /// How the payload is encoded.
    pub encoding: Encoding,
    /// Length the payload decodes to.
    pub raw_len: u64,
    /// The encoded bytes, borrowed from the file buffer.
    pub encoded: &'a [u8],
}

impl ChunkFile {
    /// Serialises the chunk file (header + encoded bytes).  The CRC covers
    /// the header fields *and* the payload, so any flipped byte in the file
    /// fails verification.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(29 + self.encoded.len());
        out.extend_from_slice(CHUNK_MAGIC);
        out.push(self.encoding.tag());
        out.extend_from_slice(&self.raw_len.to_le_bytes());
        out.extend_from_slice(&(self.encoded.len() as u64).to_le_bytes());
        let mut crc = crate::hash::Crc32::new();
        crc.update(&out);
        crc.update(&self.encoded);
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out.extend_from_slice(&self.encoded);
        out
    }

    /// Byte length of the fixed header prefix [`ChunkFile::parse_header`]
    /// needs: magic (8) + encoding tag (1) + raw_len (8).
    pub const HEADER_PREFIX_LEN: usize = 17;

    /// Parses just the fixed header prefix of a chunk file — magic,
    /// encoding and `raw_len` — without requiring (or verifying) the
    /// payload.  This is the cheap "what does this chunk decode to"
    /// probe manifest adoption uses to cross-check a peer's declared
    /// lengths against the chunks actually stored; full integrity is
    /// still [`ChunkFile::parse`]'s job at read time.
    pub fn parse_header(prefix: &[u8]) -> Result<(Encoding, u64), String> {
        let mut c = ByteCursor::new(prefix);
        if c.take(8).ok_or("chunk file truncated")? != CHUNK_MAGIC {
            return Err("bad chunk magic".into());
        }
        let encoding =
            Encoding::from_tag(c.u8().ok_or("missing encoding")?).ok_or("unknown encoding tag")?;
        let raw_len = c.u64().ok_or("missing raw length")?;
        Ok((encoding, raw_len))
    }

    /// Parses and integrity-checks a chunk file without copying the
    /// payload: the returned view borrows the encoded bytes from `data`.
    pub fn parse(data: &[u8]) -> Result<ChunkView<'_>, String> {
        let mut c = ByteCursor::new(data);
        if c.take(8).ok_or("chunk file truncated")? != CHUNK_MAGIC {
            return Err("bad chunk magic".into());
        }
        let encoding =
            Encoding::from_tag(c.u8().ok_or("missing encoding")?).ok_or("unknown encoding tag")?;
        let raw_len = c.u64().ok_or("missing raw length")?;
        let encoded_len = c.u64().ok_or("missing encoded length")? as usize;
        let header_len = c.pos();
        let stored_crc = c.u32().ok_or("missing chunk CRC")?;
        let encoded = c.take(encoded_len).ok_or("chunk payload truncated")?;
        if !c.at_end() {
            return Err("trailing bytes after chunk payload".into());
        }
        let mut crc = crate::hash::Crc32::new();
        crc.update(&data[..header_len]);
        crc.update(encoded);
        let computed = crc.finish();
        if computed != stored_crc {
            return Err(format!(
                "chunk CRC mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"
            ));
        }
        Ok(ChunkView {
            encoding,
            raw_len,
            encoded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> Manifest {
        Manifest {
            image_id: ImageId(3),
            parent: Some(ImageId(2)),
            taken_at_ns: 987_654,
            compression: Compression::Rle,
            regions: vec![RegionEntry {
                start: 0x4000_0000_0000,
                len: 1 << 20,
                prot: Prot::RW,
                label: "[heap]".into(),
                chunks: vec![ChunkEntry {
                    runs: vec![
                        PageRun { first: 3, count: 2 },
                        PageRun { first: 9, count: 1 },
                    ],
                    hash: ContentHash::of(b"chunk bytes"),
                    raw_len: 3 * 4096,
                }],
            }],
            payloads: vec![("crac".into(), vec![1, 2, 3])],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = sample_manifest();
        let bytes = m.to_bytes();
        assert_eq!(Manifest::from_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let bytes = sample_manifest().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Manifest::from_bytes(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        // Truncation at any point is also rejected.
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(Manifest::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn chunk_file_round_trips_and_detects_corruption() {
        let cf = ChunkFile {
            encoding: Encoding::Rle,
            raw_len: 4096,
            encoded: vec![255, 0, 255, 0, 255, 0],
        };
        let bytes = cf.to_bytes();
        let view = ChunkFile::parse(&bytes).unwrap();
        assert_eq!(view.encoding, cf.encoding);
        assert_eq!(view.raw_len, cf.raw_len);
        assert_eq!(view.encoded, &cf.encoded[..]);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x80;
            assert!(
                ChunkFile::parse(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let mut bytes = sample_manifest().to_bytes();
        // Corrupt the version field *and* refresh the CRC: must still fail.
        bytes[8] = 99;
        let body_len = bytes.len() - 4;
        let crc = crate::hash::crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        let err = Manifest::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("version"), "got: {err}");
    }

    #[test]
    fn version_1_manifests_are_refused_by_version() {
        // A store written before chunk names changed meaning: refused up
        // front, never read as a run of missing or corrupt chunks.
        let mut bytes = sample_manifest().to_bytes();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let body_len = bytes.len() - 4;
        let crc = crate::hash::crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        let err = Manifest::from_bytes(&bytes).unwrap_err();
        assert_eq!(err, "unsupported manifest version 1");
    }
}
