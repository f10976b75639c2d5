//! The restore-side reader: manifest → parallel chunk fetch/verify →
//! streaming splice, the mirror image of the writer pipeline.
//!
//! ```text
//! fetch workers (threads)                         splice (caller thread)
//! ───────────────────────                         ──────────────────────
//! read ─► CRC ─► decode ─► hash-verify ─► [verified q] ─► RegionSink
//!                                         bounded
//! ```
//!
//! Every byte read is integrity-checked: the manifest is CRC-framed, each
//! chunk file carries its own CRC over the encoded bytes, and after decoding
//! the chunk's content hash is recomputed and compared against the name the
//! manifest references — so a flipped bit anywhere in the store surfaces as
//! a [`StoreError::Corrupt`] instead of silently restoring wrong memory.
//!
//! Fetching is the expensive part (file read + CRC + decode + re-hash per
//! chunk), and chunks are independent, so [`StreamReader`] fans the
//! manifest's *distinct* chunk list out over worker threads; verified
//! chunks flow through a **bounded** queue to the caller's thread, which
//! splices each chunk's page runs into the [`RegionSink`] **as the chunk
//! arrives** — no barrier, no full in-memory image.  A chunk the manifest
//! references many times (deduped repeats) is fetched once and applied to
//! every reference while it is in hand, then dropped.
//!
//! The pipeline itself is source-agnostic: the plan building
//! ([`build_fetch_plan`]) and the worker/splice machinery
//! ([`run_fetch_pipeline`]) are parameterised over a [`ChunkFetch`], so the
//! local store reader and the remote-transport reader
//! ([`crate::remote::RemoteChunkSource`]) are the *same* pipeline with a
//! different fetch callable — one verification path, one bounded-memory
//! proof, two byte sources.
//!
//! Because the queue is bounded and each worker holds at most one chunk,
//! the peak payload the restore ever buffers is a small multiple of the
//! chunk size — *independent of the image size*
//! ([`ReadStats::peak_buffered_bytes`] ≤ [`restore_buffer_bound`]), the
//! restore-side mirror of the writer's guarantee.
//!
//! **Failure semantics**: a worker whose fetch fails *transiently* (a
//! remote timeout, an injected fault — [`StoreError::is_transient`])
//! retries the same chunk a bounded number of times
//! ([`crate::transport::MAX_TRANSIENT_RETRIES`]) before giving up; a
//! permanent failure — corruption above all — is never retried.  The first
//! unrecovered error (a worker's fetch failing for good, the sink
//! rejecting a record) is latched; workers switch to draining so no
//! thread blocks forever, and the latched error is returned once the
//! pipeline has shut down.  A failed streaming restore leaves the sink
//! half-fed — its owner must discard whatever it was building.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crac_addrspace::{Addr, PageRun, PAGE_SIZE};
use crac_dmtcp::{CheckpointImage, RegionDescriptor};
use crac_obs::{Buckets, Counter, EventKind, Histogram, ObsRegistry, Span};

use crate::chunk::CHUNK_PAGES;
use crate::codec::decode;
use crate::error::StoreError;
use crate::format::{ChunkFile, Manifest};
use crate::hash::ContentHash;
use crate::pipeline::{latch, ErrorSlot, Gauge};
use crate::store::{ImageId, ImageStore};
use crate::stream::{ChunkSource, MaterialiseSink, RegionSink};
use crate::transport::{with_transient_retry_observed, RetryObs};

/// Verified chunks the queue holds while the splice consumer is busy
/// (backpressure depth between the fetch workers and the splice).
pub const VERIFY_QUEUE_CHUNKS: usize = 4;

/// Analytic upper bound on [`ReadStats::peak_buffered_bytes`] for a
/// restore that used `threads` fetch workers.
///
/// Each worker holds at most one chunk — its file buffer (header plus
/// encoded payload, never larger than raw + a fixed header since the
/// encoder only keeps encodings that shrink) and its decoded bytes
/// coexist transiently, which the factor 2 covers with slack — each
/// verified-queue entry holds one decoded chunk, and the splice consumer
/// holds one chunk while applying its runs.
pub fn restore_buffer_bound(threads: usize) -> u64 {
    let slots = threads + VERIFY_QUEUE_CHUNKS + 1;
    2 * slots as u64 * CHUNK_PAGES * PAGE_SIZE
}

/// What one image read cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadStats {
    /// Chunk files read (each distinct chunk is read exactly once).
    pub chunks_read: usize,
    /// Chunk references served from an already-fetched chunk (an image
    /// that contains the same content many times reads it once).
    pub chunks_cached: usize,
    /// Encoded chunk bytes read from disk (or received over the
    /// transport, for a remote restore).
    pub chunk_bytes_read: u64,
    /// Manifest file size.
    pub manifest_bytes: u64,
    /// Worker threads used for fetching/verifying chunks.
    pub threads_used: usize,
    /// Transient fetch failures that were absorbed by the bounded retry
    /// (zero on a healthy local restore; the fault-injection tests prove
    /// the recovery path with it).
    pub transient_retries: usize,
    /// Peak bytes the restore pipeline held at any instant: each worker's
    /// in-flight chunk file plus its decoded bytes, the verified queue,
    /// and the chunk being spliced.  Bounded by [`restore_buffer_bound`],
    /// *not* by the image size — the proof that the streaming restore
    /// never materialises the image.
    pub peak_buffered_bytes: u64,
    /// Wall-clock time until the restored process could resume, in
    /// microseconds.  For the eager paths this equals the full restore
    /// (`elapsed`) — the process only runs once every page landed; a lazy
    /// restore resumes after the metadata-only declaration, so the two
    /// paths' resume latency is comparable from one snapshot.
    pub resume_us: u64,
    /// Wall-clock time of the whole read.
    pub elapsed: Duration,
}

/// Per-restore observability bundle shared by both restore paths (local
/// [`StreamReader`] and [`crate::remote::RemoteChunkSource`]): a fresh
/// per-run registry whose counters/histograms *are* the authoritative
/// accounting — [`ReadStats`] is built as a view over its final snapshot,
/// so there is no double bookkeeping — plus the long-lived registry that
/// receives events and retry metrics immediately (mid-run visibility).
pub(crate) struct ReaderObs {
    /// Per-run metric namespace; folded into `events` when the run ends.
    pub(crate) run: ObsRegistry,
    /// The long-lived registry (the store's, or one attached via
    /// `open_with_obs`): structured events and retry accounting land here
    /// directly, visible while the restore is still in flight.
    pub(crate) events: ObsRegistry,
    pub(crate) stage_fetch: Histogram,
    pub(crate) stage_verify: Histogram,
    pub(crate) stage_splice: Histogram,
    pub(crate) chunks_read: Counter,
    pub(crate) chunk_bytes_read: Counter,
}

impl ReaderObs {
    pub(crate) fn new(events: ObsRegistry) -> Self {
        let run = ObsRegistry::new();
        Self {
            stage_fetch: run.histogram("crac_reader_stage_fetch_us", Buckets::LATENCY_US),
            stage_verify: run.histogram("crac_reader_stage_verify_us", Buckets::LATENCY_US),
            stage_splice: run.histogram("crac_reader_stage_splice_us", Buckets::LATENCY_US),
            chunks_read: run.counter("crac_reader_chunks_read"),
            chunk_bytes_read: run.counter("crac_reader_chunk_bytes_read"),
            run,
            events,
        }
    }

    /// Retry observation for one transport/store operation: cause and
    /// backoff land on the long-lived registry as they happen.
    pub(crate) fn retry(&self, op: &'static str) -> RetryObs {
        RetryObs {
            reg: self.events.clone(),
            op,
        }
    }

    /// Ends the run: folds the run registry into the long-lived one and
    /// returns [`ReadStats`] as a view over the run's final snapshot.
    pub(crate) fn finish_stats(&self, elapsed: Duration) -> ReadStats {
        let snap = self.run.snapshot();
        self.events.absorb(&snap);
        ReadStats {
            chunks_read: snap.counter("crac_reader_chunks_read") as usize,
            chunks_cached: snap.counter("crac_reader_chunks_cached") as usize,
            chunk_bytes_read: snap.counter("crac_reader_chunk_bytes_read"),
            manifest_bytes: snap.counter("crac_reader_manifest_bytes"),
            threads_used: snap
                .gauge("crac_reader_threads")
                .map(|g| g.value as usize)
                .unwrap_or(0),
            transient_retries: snap.counter("crac_reader_transient_retries") as usize,
            peak_buffered_bytes: snap
                .gauge("crac_reader_buffered_bytes")
                .map(|g| g.peak)
                .unwrap_or(0),
            // Eager restores resume only when everything landed; the lazy
            // session overwrites this with its declare→resume latency.
            resume_us: elapsed.as_micros() as u64,
            elapsed,
        }
    }
}

/// A streaming image reader: the store's canonical [`ChunkSource`].
///
/// Obtain one through [`ImageStore::stream_restore`]; the constructor
/// loads and CRC-verifies the manifest (metadata only — no chunk is
/// touched), so region descriptors, payloads and the checkpoint timestamp
/// are available before any content streams.  Drive the content with
/// [`ChunkSource::stream_out`], then collect [`StreamReader::stats`].
pub struct StreamReader<'s> {
    store: &'s ImageStore,
    id: ImageId,
    manifest: Manifest,
    obs: ReaderObs,
    stats: ReadStats,
}

impl<'s> StreamReader<'s> {
    pub(crate) fn new(store: &'s ImageStore, id: ImageId) -> Result<Self, StoreError> {
        let manifest = store.load_manifest(id)?;
        let obs = ReaderObs::new(store.obs());
        let manifest_bytes = store.manifest_size(id)?;
        obs.run
            .counter("crac_reader_manifest_bytes")
            .add(manifest_bytes);
        let stats = ReadStats {
            manifest_bytes,
            ..Default::default()
        };
        Ok(Self {
            store,
            id,
            manifest,
            obs,
            stats,
        })
    }

    /// Virtual time the stored checkpoint was taken.
    pub fn taken_at_ns(&self) -> u64 {
        self.manifest.taken_at_ns
    }

    /// A named plugin payload (inline manifest data, available without
    /// streaming any chunk).
    pub fn payload(&self, name: &str) -> Option<&[u8]> {
        self.manifest
            .payloads
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.as_slice())
    }

    /// Number of saved regions the image describes.
    pub fn region_count(&self) -> usize {
        self.manifest.regions.len()
    }

    /// What the read has cost so far (complete once
    /// [`ChunkSource::stream_out`] returned).
    pub fn stats(&self) -> ReadStats {
        self.stats
    }
}

/// One distinct chunk's fetch order: where its verified bytes go.
pub(crate) struct FetchPlan {
    pub(crate) hash: ContentHash,
    pub(crate) raw_len: u64,
    /// Every reference in the manifest that still wins pages after
    /// last-write-wins resolution: `(region index, winning sub-runs each
    /// paired with its byte offset into the chunk's raw bytes)`.
    pub(crate) targets: Vec<(usize, Vec<(PageRun, usize)>)>,
}

/// How the fetch pipeline obtains one chunk's raw (decoded, verified)
/// bytes.  The local store reads a file; the remote reader asks a
/// [`crate::transport::Transport`].  Implementations must fully verify
/// the chunk (CRC + decode + content hash) before returning.
pub(crate) trait ChunkFetch: Sync {
    /// Fetches chunk `hash`, returning its raw bytes plus the encoded
    /// (file/wire) byte count moved.  Must `gauge.add` the raw bytes
    /// before returning them (the pipeline `sub`s when they are dropped),
    /// and should record its acquisition under `obs.stage_fetch` and the
    /// verification ladder under `obs.stage_verify`.
    fn fetch(
        &self,
        hash: ContentHash,
        raw_len: u64,
        gauge: &Gauge,
        obs: &ReaderObs,
    ) -> Result<(Vec<u8>, u64), StoreError>;

    /// Priority flavour used by the lazy restore's fault path: a page the
    /// restarted process is blocked on must not queue behind the
    /// background prefetch sweep.  Local fetches have nothing to jump
    /// (the default delegates); the remote fetcher routes these through
    /// [`crate::transport::Transport::get_chunk_priority`].
    fn fetch_priority(
        &self,
        hash: ContentHash,
        raw_len: u64,
        gauge: &Gauge,
        obs: &ReaderObs,
    ) -> Result<(Vec<u8>, u64), StoreError> {
        self.fetch(hash, raw_len, gauge, obs)
    }
}

/// [`ChunkFetch`] over the local chunk directory.
pub(crate) struct LocalFetch<'s> {
    pub(crate) store: &'s ImageStore,
}

impl ChunkFetch for LocalFetch<'_> {
    fn fetch(
        &self,
        hash: ContentHash,
        raw_len: u64,
        gauge: &Gauge,
        obs: &ReaderObs,
    ) -> Result<(Vec<u8>, u64), StoreError> {
        fetch_chunk(self.store, hash, raw_len, gauge, obs)
    }
}

/// Declares every region and payload of `manifest` into `sink` — the
/// metadata prologue both the local and remote streams send before any
/// content, so the sink knows the full image shape up front.
pub(crate) fn declare_manifest(
    manifest: &Manifest,
    sink: &mut dyn RegionSink,
) -> Result<(), StoreError> {
    for region in &manifest.regions {
        sink.declare_region(&RegionDescriptor {
            start: Addr(region.start),
            len: region.len,
            prot: region.prot,
            label: region.label.clone(),
        })?;
    }
    for (name, data) in &manifest.payloads {
        sink.push_payload(name, data)?;
    }
    Ok(())
}

/// Validates every chunk reference of `manifest` and builds the fetch
/// plan: one entry per *distinct* chunk, carrying every place its pages
/// land (repeats cost a plan target, never a second fetch).  `label`
/// names the manifest's origin in corruption errors — a file path for a
/// local image, a synthetic `remote:` path for a transported one.
///
/// Returns the plan plus the total reference count (for the
/// [`ReadStats::chunks_cached`] accounting).
pub(crate) fn build_fetch_plan(
    manifest: &Manifest,
    label: &Path,
) -> Result<(Vec<FetchPlan>, usize), StoreError> {
    let mut by_hash: HashMap<ContentHash, usize> = HashMap::new();
    let mut plan: Vec<FetchPlan> = Vec::new();
    let mut refs_total = 0usize;
    for (region_idx, region) in manifest.regions.iter().enumerate() {
        let region_pages = region.len / PAGE_SIZE;
        // Validation pass, plus the last-write-wins winner map: a page a
        // pre-copy round re-emitted appears again in a *later* chunk entry
        // of the same region, and that later entry's content is the page's
        // content.  Entry order in the manifest is emission order, so the
        // highest-indexed entry covering a page wins it.
        let mut winner: HashMap<u64, usize> = HashMap::new();
        for (seq, chunk) in region.chunks.iter().enumerate() {
            refs_total += 1;
            // All arithmetic on manifest-supplied values is checked:
            // an overflow is corruption, not a wrap-around bypass.
            let chunk_pages = chunk
                .runs
                .iter()
                .try_fold(0u64, |acc, r| acc.checked_add(r.count));
            let chunk_bytes = chunk_pages.and_then(|p| p.checked_mul(PAGE_SIZE));
            let Some((chunk_pages, chunk_bytes)) = chunk_pages.zip(chunk_bytes) else {
                return Err(StoreError::corrupt(
                    label,
                    format!("chunk {} page counts overflow", chunk.hash),
                ));
            };
            if chunk_bytes != chunk.raw_len {
                return Err(StoreError::corrupt(
                    label,
                    format!(
                        "chunk {} covers {chunk_pages} pages but holds {} bytes",
                        chunk.hash, chunk.raw_len
                    ),
                ));
            }
            for run in &chunk.runs {
                if run.count > region_pages || run.first > region_pages - run.count {
                    return Err(StoreError::corrupt(
                        label,
                        format!(
                            "chunk {} run [{}+{}) exceeds its {region_pages}-page region",
                            chunk.hash, run.first, run.count
                        ),
                    ));
                }
                for page in run.pages() {
                    winner.insert(page, seq);
                }
            }
        }
        for (seq, chunk) in region.chunks.iter().enumerate() {
            let slot = *by_hash.entry(chunk.hash).or_insert_with(|| {
                plan.push(FetchPlan {
                    hash: chunk.hash,
                    raw_len: chunk.raw_len,
                    targets: Vec::new(),
                });
                plan.len() - 1
            });
            // Identical hash across chunk refs must mean identical
            // length; a manifest violating that is corrupt.
            if plan[slot].raw_len != chunk.raw_len {
                return Err(StoreError::corrupt(
                    label,
                    format!("chunk {} referenced with conflicting lengths", chunk.hash),
                ));
            }
            // Walk the chunk's original run layout (which defines byte
            // offsets into its raw bytes) and keep only the maximal
            // sub-runs this entry still wins.  Writers trim entries that
            // win nothing, but a partially superseded entry stays in the
            // manifest, so the splice must never push its stale pages.
            let mut pieces: Vec<(PageRun, usize)> = Vec::new();
            let mut offset = 0usize;
            for run in &chunk.runs {
                let mut sub_first: Option<u64> = None;
                let flush = |from: u64, to: u64, pieces: &mut Vec<(PageRun, usize)>| {
                    pieces.push((
                        PageRun {
                            first: from,
                            count: to - from,
                        },
                        offset + ((from - run.first) * PAGE_SIZE) as usize,
                    ));
                };
                for page in run.pages() {
                    if winner.get(&page) == Some(&seq) {
                        sub_first.get_or_insert(page);
                    } else if let Some(from) = sub_first.take() {
                        flush(from, page, &mut pieces);
                    }
                }
                if let Some(from) = sub_first {
                    flush(from, run.first + run.count, &mut pieces);
                }
                offset += (run.count * PAGE_SIZE) as usize;
            }
            if !pieces.is_empty() {
                plan[slot].targets.push((region_idx, pieces));
            }
        }
    }
    Ok((plan, refs_total))
}

/// The fetch/verify/splice pipeline both restore paths share: workers
/// pull tickets off `plan`, fetch + verify through `fetcher` (with
/// bounded retry on transient failures), and push decoded chunks through
/// the bounded queue; the calling thread splices each chunk into `sink`
/// the moment it arrives.  Accounts everything into `obs`'s run registry
/// — the caller builds its [`ReadStats`] view from the final snapshot.
pub(crate) fn run_fetch_pipeline(
    plan: &[FetchPlan],
    sink: &mut dyn RegionSink,
    fetcher: &dyn ChunkFetch,
    obs: &ReaderObs,
) -> Result<(), StoreError> {
    let threads = effective_read_threads(plan.len());
    obs.run.gauge("crac_reader_threads").set(threads as u64);
    let gauge = Gauge::default();
    let error: ErrorSlot = Arc::new(crac_sync::Mutex::new("imagestore.reader.error", None));
    let next = AtomicUsize::new(0);
    let retries = AtomicUsize::new(0);
    let retry_obs = obs.retry("fetch_chunk");
    let (tx, rx) = sync_channel::<(usize, Vec<u8>, u64)>(VERIFY_QUEUE_CHUNKS);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (next, gauge, error, retries) = (&next, &gauge, &error, &retries);
            let retry_obs = &retry_obs;
            scope.spawn(move || loop {
                let ticket = next.fetch_add(1, Ordering::Relaxed);
                let Some(entry) = plan.get(ticket) else {
                    return;
                };
                if error.lock().is_some() {
                    continue; // drain mode: burn the remaining tickets
                }
                // Transient fetch failures (a remote hiccup, an injected
                // fault) are retried here, bounded; one flaky chunk no
                // longer fails the whole restore.  Corruption and other
                // permanent failures still fail fast, and once any worker
                // has latched an error the cancellation probe stops the
                // others' retry loops mid-budget.
                let fetched = with_transient_retry_observed(
                    retries,
                    || error.lock().is_some(),
                    Some(retry_obs),
                    || fetcher.fetch(entry.hash, entry.raw_len, gauge, obs),
                );
                match fetched {
                    Ok((raw, wire_bytes)) => {
                        let len = raw.len() as u64;
                        if tx.send((ticket, raw, wire_bytes)).is_err() {
                            // Splice consumer gone: only after a latch.
                            gauge.sub(len);
                            return;
                        }
                    }
                    Err(e) => latch(error, e),
                }
            });
        }
        // The workers hold the only remaining senders: once they all
        // exit, the iterator below ends — clean shutdown, no explicit
        // signalling (the mirror of the writer's teardown).
        drop(tx);

        for (ticket, raw, wire_bytes) in rx.iter() {
            let len = raw.len() as u64;
            if error.lock().is_none() {
                let entry = &plan[ticket];
                let stage = Span::enter(&obs.stage_splice);
                let spliced = splice_chunk(sink, entry, &raw);
                stage.finish();
                if let Err(e) = spliced {
                    latch(&error, e);
                } else {
                    obs.chunks_read.inc();
                    obs.chunk_bytes_read.add(wire_bytes);
                }
            }
            gauge.sub(len);
        }
    });

    obs.run
        .gauge("crac_reader_buffered_bytes")
        .raise_peak(gauge.peak());
    obs.run
        .counter("crac_reader_transient_retries")
        .add(retries.load(Ordering::Relaxed) as u64);
    let first_error = error.lock().take();
    match first_error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

impl ChunkSource for StreamReader<'_> {
    fn stream_out(&mut self, sink: &mut dyn RegionSink) -> Result<(), StoreError> {
        // crac-lint: allow(raw-instant) — whole-restore wall time lands in ReadStats via finish_stats
        let start = Instant::now();
        self.obs.events.event(
            EventKind::RestoreBegun,
            format!("image={} regions={}", self.id, self.manifest.regions.len()),
        );

        // Metadata first: declarations and payloads are manifest-inline,
        // so the sink has the full image shape before content arrives.
        declare_manifest(&self.manifest, sink)?;

        let label = self.store.image_path(self.id);
        let (plan, refs_total) = build_fetch_plan(&self.manifest, &label)?;
        self.obs
            .run
            .counter("crac_reader_chunks_cached")
            .add((refs_total - plan.len()) as u64);

        let fetcher = LocalFetch { store: self.store };
        let result = run_fetch_pipeline(&plan, sink, &fetcher, &self.obs);
        self.stats = self.obs.finish_stats(start.elapsed());
        self.obs.events.event(
            EventKind::RestoreFinished,
            format!(
                "image={} ok={} chunks_read={} bytes_read={}",
                self.id,
                result.is_ok(),
                self.stats.chunks_read,
                self.stats.chunk_bytes_read
            ),
        );
        result
    }
}

/// Applies one verified chunk's winning page runs to every target region.
/// The plan pre-resolved last-write-wins, so each sub-run carries its own
/// byte offset into the chunk's raw bytes and a sink never sees a page
/// twice.
fn splice_chunk(
    sink: &mut dyn RegionSink,
    entry: &FetchPlan,
    raw: &[u8],
) -> Result<(), StoreError> {
    for (region, pieces) in &entry.targets {
        for (run, offset) in pieces {
            let len = (run.count * PAGE_SIZE) as usize;
            sink.push_run(*region, *run, &raw[*offset..*offset + len])?;
        }
    }
    Ok(())
}

/// Reads and fully verifies image `id`, reconstructing the checkpoint.
///
/// This is the legacy materialising path ([`ImageStore::read_image`]): the
/// streaming reader driven into a [`MaterialiseSink`], so the two paths
/// cannot diverge.
pub(crate) fn read_image(
    store: &ImageStore,
    id: ImageId,
) -> Result<(CheckpointImage, ReadStats), StoreError> {
    let mut reader = StreamReader::new(store, id)?;
    let mut sink = MaterialiseSink::default();
    reader.stream_out(&mut sink)?;
    let image = sink.into_image(reader.taken_at_ns());
    Ok((image, reader.stats()))
}

pub(crate) fn effective_read_threads(chunks: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(8).clamp(1, chunks.max(1))
}

/// CRC-checks, decodes and hash-verifies one chunk's *file bytes* (from
/// disk or the wire), returning its raw bytes.  Decoding borrows straight
/// from `bytes`, so the caller's transient footprint is file + raw, not
/// file + encoded copy + raw.  `label` names the source in errors.
pub(crate) fn verify_chunk_file_bytes(
    label: &Path,
    bytes: &[u8],
    hash: ContentHash,
    raw_len: u64,
    gauge: &Gauge,
) -> Result<Vec<u8>, StoreError> {
    let view = ChunkFile::parse(bytes).map_err(|what| StoreError::corrupt(label, what))?;
    if view.raw_len != raw_len {
        return Err(StoreError::corrupt(
            label,
            format!(
                "chunk raw length {} does not match manifest ({raw_len})",
                view.raw_len
            ),
        ));
    }
    let raw = decode(view.encoding, view.encoded, view.raw_len as usize)
        .ok_or_else(|| StoreError::corrupt(label, "chunk payload failed to decode"))?;
    gauge.add(raw.len() as u64);
    let actual = ContentHash::of(&raw);
    if actual != hash {
        gauge.sub(raw.len() as u64);
        return Err(StoreError::corrupt(
            label,
            format!("chunk content hashes to {actual}, expected {hash}"),
        ));
    }
    Ok(raw)
}

/// Reads one local chunk file and verifies it end to end (CRC, decode,
/// content hash), returning the verbatim *file* bytes — the form
/// replication ships — so a corrupted local chunk fails before it can
/// cross the wire.
pub(crate) fn read_verified_chunk_file(
    store: &ImageStore,
    hash: ContentHash,
    raw_len: u64,
) -> Result<Vec<u8>, StoreError> {
    let path = store.chunk_path(hash);
    let bytes = std::fs::read(&path).map_err(|e| StoreError::io(&path, e))?;
    verify_chunk_file_bytes(&path, &bytes, hash, raw_len, &Gauge::default())?;
    Ok(bytes)
}

/// Loads, CRC-checks, decodes and hash-verifies one chunk from the local
/// store, returning its raw bytes and the on-disk file size.
fn fetch_chunk(
    store: &ImageStore,
    hash: ContentHash,
    raw_len: u64,
    gauge: &Gauge,
    obs: &ReaderObs,
) -> Result<(Vec<u8>, u64), StoreError> {
    let path = store.chunk_path(hash);
    let stage = Span::enter(&obs.stage_fetch);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(StoreError::MissingChunk {
                hash: hash.to_hex(),
            })
        }
        Err(e) => return Err(StoreError::io(&path, e)),
    };
    stage.finish();
    let file_bytes = bytes.len() as u64;
    gauge.add(file_bytes);
    let stage = Span::enter(&obs.stage_verify);
    let result = verify_chunk_file_bytes(&path, &bytes, hash, raw_len, gauge);
    stage.finish();
    drop(bytes);
    gauge.sub(file_bytes);
    result.map(|raw| (raw, file_bytes))
}

/// Re-exported manifest loader used by [`ImageStore::image_info`].
pub(crate) fn load_manifest_file(path: &std::path::Path) -> Result<Manifest, StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return Err(StoreError::io(path, e)),
    };
    Manifest::from_bytes(&bytes).map_err(|what| StoreError::corrupt(path, what))
}
