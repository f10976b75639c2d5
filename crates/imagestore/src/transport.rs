//! The transport seam for remote replication: a request/response surface a
//! chunk store exposes to its peers.
//!
//! CRAC's deployment story is restarting a CUDA job *somewhere else*, which
//! means a checkpoint image has to move between nodes.  [`Transport`] is
//! the wire boundary that makes that a pluggable concern: batched
//! `has_chunks` (the dedup query — restic/borg-style, only missing chunks
//! are ever shipped), `put_chunk`/`get_chunk` moving verbatim chunk-*file*
//! bytes (already CRC-framed and content-addressed, so both sides can
//! verify everything end to end), and `list/get/put_manifest` for the image
//! metadata.  Everything above the trait — [`crate::remote::RemoteChunkSink`],
//! [`crate::remote::RemoteChunkSource`], [`crate::ImageStore::replicate_to`] —
//! is transport-agnostic; a real TCP or object-store backend later plugs in
//! under the same six methods.
//!
//! The build environment has no network dependencies, so two in-process
//! implementations live here:
//!
//! * [`LoopbackTransport`] — backed by a second [`ImageStore`] (the
//!   "destination node"), with op counters ([`TransportStats`]) the
//!   replication tests assert dedup against: a second replication of the
//!   same image must record **zero** chunk puts.
//! * [`FaultyTransport`] — a fault-injecting wrapper over any transport:
//!   deterministic transient errors (first *k* attempts per op key fail),
//!   a hard cut after *n* puts (the replicator killed mid-stream), and
//!   pseudo-random latency jitter that reorders completions across the
//!   parallel fetch workers.  It is the test harness for the retry,
//!   resume, and crash-consistency paths.
//!
//! **Error contract**: transports report retryable conditions as
//! [`StoreError::Transient`]; callers retry those a bounded number of
//! times ([`MAX_TRANSIENT_RETRIES`]) and fail fast on everything else —
//! corruption is never retried.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crac_obs::{EventKind, ObsRegistry};
use crac_sync::Mutex;

use crate::error::StoreError;
use crate::hash::ContentHash;
use crate::store::{ImageId, ImageStore};

/// Attempts-after-the-first a remote operation is retried when it fails
/// with a [`StoreError::Transient`] error.  Bounded so a dead peer turns
/// into a clean failure instead of an infinite stall; permanent errors
/// (corruption above all) are never retried at all.
pub const MAX_TRANSIENT_RETRIES: usize = 3;

/// Hashes per batched [`Transport::has_chunks`] query.  Batching is what
/// keeps the dedup negotiation cheap over a real network: one round trip
/// covers many chunks instead of one RPC per chunk.
pub const HAS_CHUNKS_BATCH: usize = 64;

/// Delay before the *first* transient retry.  Subsequent retries double
/// the delay up to [`RETRY_BACKOFF_CAP`] — capped exponential backoff, so
/// a struggling peer sees a thinning request stream instead of a hot loop
/// that burns the whole retry budget in microseconds.
pub const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(1);

/// Ceiling on the per-retry backoff delay.
pub const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(64);

/// Backoff before retry number `attempt` (1-based): `BASE << (attempt-1)`,
/// capped at [`RETRY_BACKOFF_CAP`].
fn backoff_delay(attempt: usize, base: Duration, cap: Duration) -> Duration {
    let factor = 1u32 << (attempt.saturating_sub(1)).min(16) as u32;
    base.saturating_mul(factor).min(cap)
}

/// Sleeps `total`, probing `cancelled` roughly every millisecond; returns
/// `false` (without finishing the sleep) as soon as the probe fires, so a
/// latched pipeline failure stops a backing-off worker promptly instead
/// of letting it doze through the whole delay.
fn sleep_unless_cancelled(total: Duration, cancelled: &impl Fn() -> bool) -> bool {
    const SLICE: Duration = Duration::from_millis(1);
    let mut remaining = total;
    while !remaining.is_zero() {
        if cancelled() {
            return false;
        }
        let step = remaining.min(SLICE);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
    !cancelled()
}

/// A peer that can receive and serve checkpoint chunks and manifests.
///
/// Chunk payloads cross the transport as verbatim chunk-*file* bytes
/// (`chunks/<hash>.chk` content: magic, encoding tag, CRC, encoded
/// payload), so both ends verify integrity independently and the encoded
/// (possibly compressed) form is what travels — never the raw pages.
///
/// Implementations must be usable from multiple threads at once
/// (`&self` methods, `Sync`): the restore pipeline fans `get_chunk` out
/// over parallel workers.
pub trait Transport: Sync {
    /// Batched membership query: for each hash, does the peer already hold
    /// the chunk?  Returns one flag per input hash, in order.
    fn has_chunks(&self, hashes: &[ContentHash]) -> Result<Vec<bool>, StoreError>;

    /// Ships one chunk (verbatim chunk-file bytes).  The peer verifies the
    /// bytes against `hash` before making them visible; a chunk the peer
    /// already holds is a cheap no-op.
    fn put_chunk(&self, hash: ContentHash, file_bytes: &[u8]) -> Result<(), StoreError>;

    /// Fetches one chunk's verbatim chunk-file bytes.
    fn get_chunk(&self, hash: ContentHash) -> Result<Vec<u8>, StoreError>;

    /// Priority flavour of [`Transport::get_chunk`], used by the lazy
    /// restore's fault path: a page the restarted process is *blocked on*
    /// must not queue behind a background prefetch sweep.  Transports
    /// with internal queueing (a pooled TCP client above all) should let
    /// these calls jump it; the default simply delegates, which is
    /// correct wherever fetches don't contend.
    fn get_chunk_priority(&self, hash: ContentHash) -> Result<Vec<u8>, StoreError> {
        self.get_chunk(hash)
    }

    /// Lists the image ids the peer holds, ascending.
    fn list_manifests(&self) -> Result<Vec<ImageId>, StoreError>;

    /// Fetches one manifest's verbatim file bytes.
    fn get_manifest(&self, id: ImageId) -> Result<Vec<u8>, StoreError>;

    /// Publishes a manifest on the peer.  The peer allocates its own image
    /// id (ids are store-local), rewrites the manifest's identity, records
    /// `parent` (a *peer-side* id, or `None` to start a fresh lineage) and
    /// returns the id it assigned.  Must refuse a manifest referencing
    /// chunks the peer does not hold — chunks ship first, metadata last.
    fn put_manifest(
        &self,
        manifest_bytes: &[u8],
        parent: Option<ImageId>,
    ) -> Result<ImageId, StoreError>;
}

/// Runs `op`, retrying bounded times while it fails transiently.  Each
/// retry is counted into `retries` (surfaced through replication/read
/// stats so tests can prove the retry path actually ran).  Production
/// call sites all use [`with_transient_retry_observed`]; these thinner
/// flavours survive as test harnesses for the same loop.
#[cfg(test)]
pub(crate) fn with_transient_retry<T>(
    retries: &AtomicUsize,
    op: impl FnMut() -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    with_transient_retry_until(retries, || false, op)
}

/// [`with_transient_retry`] with a cancellation probe, consulted between
/// attempts *and* during the backoff sleeps: once `cancelled` reports
/// true the current error is returned without further retries.  The
/// parallel restore workers pass the pipeline's error latch here, so a
/// failure in one worker stops every other worker's retry loop promptly
/// instead of each ticket burning its full retry budget against a dead
/// peer.
///
/// Retries are spaced by capped exponential backoff
/// ([`RETRY_BACKOFF_BASE`] doubling up to [`RETRY_BACKOFF_CAP`]): against
/// a real TCP peer an immediate retry would hot-loop, hammering a
/// struggling server and exhausting the budget in microseconds.
#[cfg(test)]
pub(crate) fn with_transient_retry_until<T>(
    retries: &AtomicUsize,
    cancelled: impl Fn() -> bool,
    op: impl FnMut() -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    retry_loop(
        retries,
        cancelled,
        RETRY_BACKOFF_BASE,
        RETRY_BACKOFF_CAP,
        None,
        op,
    )
}

/// Where retry attempts are reported: the registry records one
/// `crac_retry_attempts` increment, the backoff actually slept
/// (`crac_retry_backoff_us`), and a `transient_retry` event carrying the
/// operation name, the error *class* that triggered the retry, the
/// attempt number and the backoff duration — enough to reconstruct why a
/// slow replication was slow.
pub(crate) struct RetryObs {
    /// Registry the attempts are recorded into.
    pub(crate) reg: ObsRegistry,
    /// Which operation is being retried (`"get_chunk"`, `"dial"`, …).
    pub(crate) op: &'static str,
}

/// [`with_transient_retry_until`] with retry-cause observation: every
/// transient retry is recorded into `obs` (see [`RetryObs`]) in addition
/// to the `retries` tally.
pub(crate) fn with_transient_retry_observed<T>(
    retries: &AtomicUsize,
    cancelled: impl Fn() -> bool,
    obs: Option<&RetryObs>,
    op: impl FnMut() -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    retry_loop(
        retries,
        cancelled,
        RETRY_BACKOFF_BASE,
        RETRY_BACKOFF_CAP,
        obs,
        op,
    )
}

/// [`with_transient_retry_until`] with injectable backoff parameters, so
/// tests can pin the timing behaviour without multi-second runtimes.
#[cfg(test)]
pub(crate) fn with_transient_retry_backoff<T>(
    retries: &AtomicUsize,
    cancelled: impl Fn() -> bool,
    base: Duration,
    cap: Duration,
    op: impl FnMut() -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    retry_loop(retries, cancelled, base, cap, None, op)
}

/// The shared retry loop behind every `with_transient_retry*` flavour.
fn retry_loop<T>(
    retries: &AtomicUsize,
    cancelled: impl Fn() -> bool,
    base: Duration,
    cap: Duration,
    obs: Option<&RetryObs>,
    mut op: impl FnMut() -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < MAX_TRANSIENT_RETRIES && !cancelled() => {
                attempt += 1;
                retries.fetch_add(1, Ordering::Relaxed);
                // crac-lint: allow(raw-instant) — measures the backoff actually slept, recorded below into retry obs
                let slept_from = Instant::now();
                let finished =
                    sleep_unless_cancelled(backoff_delay(attempt, base, cap), &cancelled);
                if let Some(o) = obs {
                    // Record the backoff actually slept, not the planned
                    // delay — a cancelled sleep cost what it cost.
                    let slept_us = slept_from.elapsed().as_micros() as u64;
                    o.reg.counter("crac_retry_attempts").inc();
                    o.reg.counter("crac_retry_backoff_us").add(slept_us);
                    o.reg.event(
                        EventKind::TransientRetry,
                        format!(
                            "op={} class={} attempt={attempt} backoff_us={slept_us}",
                            o.op,
                            e.class_name()
                        ),
                    );
                }
                if !finished {
                    // Cancelled mid-backoff: a latched failure elsewhere
                    // made this ticket moot — stop waiting immediately.
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Op counters a [`LoopbackTransport`] keeps — the observable the
/// replication tests pin dedup down with (second replication ⇒
/// `chunks_put == 0`) and capacity planning would meter in production.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// `has_chunks` batches answered.
    pub has_batches: usize,
    /// Individual hashes queried across those batches.
    pub chunks_queried: usize,
    /// Chunks received via `put_chunk` (cheap already-present no-ops
    /// included — the sender should have filtered them via `has_chunks`).
    pub chunks_put: usize,
    /// Chunk-file bytes received via `put_chunk`.
    pub bytes_put: u64,
    /// Chunks served via `get_chunk`.
    pub chunks_got: usize,
    /// Chunk-file bytes served via `get_chunk`.
    pub bytes_got: u64,
    /// Manifests published via `put_manifest`.
    pub manifests_put: usize,
    /// Manifests served via `get_manifest`.
    pub manifests_got: usize,
}

#[derive(Default)]
struct Counters {
    has_batches: AtomicUsize,
    chunks_queried: AtomicUsize,
    chunks_put: AtomicUsize,
    bytes_put: AtomicU64,
    chunks_got: AtomicUsize,
    bytes_got: AtomicU64,
    manifests_put: AtomicUsize,
    manifests_got: AtomicUsize,
}

impl Counters {
    fn snapshot(&self) -> TransportStats {
        TransportStats {
            has_batches: self.has_batches.load(Ordering::Relaxed),
            chunks_queried: self.chunks_queried.load(Ordering::Relaxed),
            chunks_put: self.chunks_put.load(Ordering::Relaxed),
            bytes_put: self.bytes_put.load(Ordering::Relaxed),
            chunks_got: self.chunks_got.load(Ordering::Relaxed),
            bytes_got: self.bytes_got.load(Ordering::Relaxed),
            manifests_put: self.manifests_put.load(Ordering::Relaxed),
            manifests_got: self.manifests_got.load(Ordering::Relaxed),
        }
    }
}

/// An in-process [`Transport`] backed by a second [`ImageStore`] — the
/// "remote node" without a network.  Every verification a real remote
/// peer would perform happens here too: received chunks are CRC-checked,
/// decoded and content-hash-verified before an atomic rename makes them
/// visible, and a manifest is refused until every chunk it references has
/// landed.  The trait, not this type, is what a TCP/object-store backend
/// replaces.
pub struct LoopbackTransport<'s> {
    store: &'s ImageStore,
    counters: Counters,
}

impl<'s> LoopbackTransport<'s> {
    /// Wraps `store` as the remote peer.
    pub fn new(store: &'s ImageStore) -> Self {
        Self {
            store,
            counters: Counters::default(),
        }
    }

    /// Snapshot of the op counters.
    pub fn stats(&self) -> TransportStats {
        self.counters.snapshot()
    }

    /// The store playing the remote role.
    pub fn store(&self) -> &'s ImageStore {
        self.store
    }
}

impl Transport for LoopbackTransport<'_> {
    fn has_chunks(&self, hashes: &[ContentHash]) -> Result<Vec<bool>, StoreError> {
        self.counters.has_batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .chunks_queried
            .fetch_add(hashes.len(), Ordering::Relaxed);
        Ok(hashes
            .iter()
            .map(|&h| self.store.contains_chunk(h))
            .collect())
    }

    fn put_chunk(&self, hash: ContentHash, file_bytes: &[u8]) -> Result<(), StoreError> {
        self.store.ingest_chunk_file(hash, file_bytes)?;
        // Count successes only, matching the get-side convention: a put
        // the receiver rejected never landed, so it is not "received".
        self.counters.chunks_put.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_put
            .fetch_add(file_bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn get_chunk(&self, hash: ContentHash) -> Result<Vec<u8>, StoreError> {
        let bytes = self.store.read_chunk_file_bytes(hash)?;
        self.counters.chunks_got.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_got
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }

    fn list_manifests(&self) -> Result<Vec<ImageId>, StoreError> {
        self.store.manifest_ids()
    }

    fn get_manifest(&self, id: ImageId) -> Result<Vec<u8>, StoreError> {
        let bytes = self.store.read_manifest_bytes(id)?;
        self.counters.manifests_got.fetch_add(1, Ordering::Relaxed);
        Ok(bytes)
    }

    fn put_manifest(
        &self,
        manifest_bytes: &[u8],
        parent: Option<ImageId>,
    ) -> Result<ImageId, StoreError> {
        let id = self.store.adopt_manifest(manifest_bytes, parent)?;
        self.counters.manifests_put.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }
}

/// Deterministic fault plan for a [`FaultyTransport`].
///
/// All injection is keyed and reproducible, so tests can assert exact
/// retry behaviour: "the first `transient_get_attempts` fetches of every
/// chunk fail" composes with [`MAX_TRANSIENT_RETRIES`] into a precise
/// pass/fail boundary instead of a flaky probability.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultConfig {
    /// Seed for the latency-jitter PRNG.
    pub seed: u64,
    /// The first N `get_chunk` attempts *per chunk* fail transiently.
    /// Retries beyond N succeed — set `N ≤` [`MAX_TRANSIENT_RETRIES`] to
    /// exercise recovery, `N >` to exercise retry exhaustion.
    pub transient_get_attempts: usize,
    /// The first N `put_chunk` attempts *per chunk* fail transiently.
    pub transient_put_attempts: usize,
    /// After this many successful `put_chunk` calls the link goes down:
    /// every subsequent operation fails transiently, forever — the
    /// replicator was killed mid-stream (retry exhaustion turns it into a
    /// clean error; a fresh transport later resumes the replication).
    pub cut_after_puts: Option<usize>,
    /// Base latency added to every operation.
    pub latency: Duration,
    /// Extra pseudo-random latency in `0..=jitter`, drawn per op — with
    /// parallel fetch workers this *reorders completions* relative to
    /// request order, which the splice-in-arbitrary-order restore contract
    /// must (and does) absorb.
    pub jitter: Duration,
}

/// Fault-injecting wrapper around any [`Transport`] (see [`FaultConfig`]).
pub struct FaultyTransport<'t> {
    inner: &'t dyn Transport,
    cfg: FaultConfig,
    rng: Mutex<u64>,
    /// Puts admitted under [`FaultConfig::cut_after_puts`]: reserved
    /// before the inner put and released if it fails, so concurrent puts
    /// can never land more than the cut allows.
    puts_admitted: AtomicUsize,
    faults_injected: AtomicUsize,
    attempts: Mutex<std::collections::HashMap<(u8, ContentHash), usize>>,
}

impl<'t> FaultyTransport<'t> {
    /// Wraps `inner` under fault plan `cfg`.
    pub fn new(inner: &'t dyn Transport, cfg: FaultConfig) -> Self {
        Self {
            inner,
            cfg,
            rng: Mutex::new("imagestore.transport.rng", cfg.seed | 1),
            puts_admitted: AtomicUsize::new(0),
            faults_injected: AtomicUsize::new(0),
            attempts: Mutex::new(
                "imagestore.transport.attempts",
                std::collections::HashMap::new(),
            ),
        }
    }

    /// Transient failures injected so far (proves the retry path ran).
    pub fn faults_injected(&self) -> usize {
        self.faults_injected.load(Ordering::Relaxed)
    }

    fn inject(&self, what: &str) -> StoreError {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
        StoreError::transient(format!("injected fault: {what}"))
    }

    /// Sleeps the configured base latency plus jitter (xorshift PRNG, so
    /// the schedule is reproducible per seed).
    fn delay(&self) {
        let jitter_ns = self.cfg.jitter.as_nanos() as u64;
        let extra = if jitter_ns == 0 {
            Duration::ZERO
        } else {
            let mut s = self.rng.lock();
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            Duration::from_nanos(*s % (jitter_ns + 1))
        };
        let total = self.cfg.latency + extra;
        if !total.is_zero() {
            std::thread::sleep(total);
        }
    }

    /// The link-down check shared by every op.
    fn check_cut(&self, what: &str) -> Result<(), StoreError> {
        if let Some(cut) = self.cfg.cut_after_puts {
            if self.puts_admitted.load(Ordering::Relaxed) >= cut {
                return Err(self.inject(&format!("link down during {what}")));
            }
        }
        Ok(())
    }

    /// Reserves one of the cut's put slots, or reports the link down once
    /// every slot is taken (by landed or still in-flight puts).
    fn admit_put(&self) -> Result<(), StoreError> {
        let cut = self.cfg.cut_after_puts.unwrap_or(usize::MAX);
        self.puts_admitted
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < cut).then_some(n + 1)
            })
            .map(|_| ())
            .map_err(|_| self.inject("link down during put_chunk"))
    }

    /// Counts one attempt for `key`, returning `true` while the attempt
    /// index is below `budget` (meaning: fail this one).
    fn should_fail_attempt(&self, op: u8, hash: ContentHash, budget: usize) -> bool {
        if budget == 0 {
            return false;
        }
        let mut attempts = self.attempts.lock();
        let n = attempts.entry((op, hash)).or_insert(0);
        *n += 1;
        *n <= budget
    }
}

impl Transport for FaultyTransport<'_> {
    fn has_chunks(&self, hashes: &[ContentHash]) -> Result<Vec<bool>, StoreError> {
        self.delay();
        self.check_cut("has_chunks")?;
        self.inner.has_chunks(hashes)
    }

    fn put_chunk(&self, hash: ContentHash, file_bytes: &[u8]) -> Result<(), StoreError> {
        self.delay();
        self.check_cut("put_chunk")?;
        if self.should_fail_attempt(b'p', hash, self.cfg.transient_put_attempts) {
            return Err(self.inject("put_chunk dropped"));
        }
        self.admit_put()?;
        let put = self.inner.put_chunk(hash, file_bytes);
        if put.is_err() {
            self.puts_admitted.fetch_sub(1, Ordering::Relaxed);
        }
        put
    }

    fn get_chunk(&self, hash: ContentHash) -> Result<Vec<u8>, StoreError> {
        self.delay();
        self.check_cut("get_chunk")?;
        if self.should_fail_attempt(b'g', hash, self.cfg.transient_get_attempts) {
            return Err(self.inject("get_chunk timed out"));
        }
        self.inner.get_chunk(hash)
    }

    // Priority fetches share the `get_chunk` fault budget (same op key):
    // a fault-path fetch during a lazy restore sees exactly the same
    // injected weather a background fetch would, so the tests can prove
    // a faulting page retries with backoff instead of failing the process.
    fn get_chunk_priority(&self, hash: ContentHash) -> Result<Vec<u8>, StoreError> {
        self.delay();
        self.check_cut("get_chunk")?;
        if self.should_fail_attempt(b'g', hash, self.cfg.transient_get_attempts) {
            return Err(self.inject("get_chunk timed out"));
        }
        self.inner.get_chunk_priority(hash)
    }

    fn list_manifests(&self) -> Result<Vec<ImageId>, StoreError> {
        self.delay();
        self.check_cut("list_manifests")?;
        self.inner.list_manifests()
    }

    fn get_manifest(&self, id: ImageId) -> Result<Vec<u8>, StoreError> {
        self.delay();
        self.check_cut("get_manifest")?;
        self.inner.get_manifest(id)
    }

    fn put_manifest(
        &self,
        manifest_bytes: &[u8],
        parent: Option<ImageId>,
    ) -> Result<ImageId, StoreError> {
        self.delay();
        self.check_cut("put_manifest")?;
        self.inner.put_manifest(manifest_bytes, parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_helper_recovers_from_bounded_transient_failures() {
        let retries = AtomicUsize::new(0);
        let mut left = MAX_TRANSIENT_RETRIES;
        let out = with_transient_retry(&retries, || {
            if left > 0 {
                left -= 1;
                Err(StoreError::transient("flaky"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(retries.load(Ordering::Relaxed), MAX_TRANSIENT_RETRIES);
    }

    #[test]
    fn retry_helper_gives_up_after_the_bound() {
        let retries = AtomicUsize::new(0);
        let out: Result<(), _> =
            with_transient_retry(&retries, || Err(StoreError::transient("always down")));
        assert!(matches!(out, Err(StoreError::Transient { .. })));
        assert_eq!(retries.load(Ordering::Relaxed), MAX_TRANSIENT_RETRIES);
    }

    /// Satellite of the observability PR: an observed retry records the
    /// *cause* (error class), the attempt number and the backoff actually
    /// slept — both as counters and as `transient_retry` events.
    #[test]
    fn observed_retries_record_cause_and_backoff() {
        let retries = AtomicUsize::new(0);
        let reg = ObsRegistry::new();
        let obs = RetryObs {
            reg: reg.clone(),
            op: "get_chunk",
        };
        let mut left = 2;
        let out = with_transient_retry_observed(
            &retries,
            || false,
            Some(&obs),
            || {
                if left > 0 {
                    left -= 1;
                    Err(StoreError::transient("flaky"))
                } else {
                    Ok(7)
                }
            },
        );
        assert_eq!(out.unwrap(), 7);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("crac_retry_attempts"), 2);
        assert!(
            snap.counter("crac_retry_backoff_us") > 0,
            "backoff sleep time must be totalled"
        );
        let events = reg.drain_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::TransientRetry);
        assert!(events[0].detail.contains("op=get_chunk"));
        assert!(events[0].detail.contains("class=transient"));
        assert!(events[0].detail.contains("attempt=1"));
        assert!(events[1].detail.contains("attempt=2"));
    }

    /// Regression (PR 5 bug): retries used to fire back-to-back with zero
    /// delay — against a real TCP peer that hot-loops, burning the whole
    /// budget in microseconds.  The attempts must now be spaced by the
    /// exponential backoff.
    #[test]
    fn retries_are_spaced_by_exponential_backoff() {
        let retries = AtomicUsize::new(0);
        let base = Duration::from_millis(5);
        let started = std::time::Instant::now();
        let out: Result<(), _> = with_transient_retry_backoff(
            &retries,
            || false,
            base,
            Duration::from_secs(1),
            || Err(StoreError::transient("always down")),
        );
        assert!(out.is_err());
        assert_eq!(retries.load(Ordering::Relaxed), MAX_TRANSIENT_RETRIES);
        // Sleeps of 5 + 10 + 20 ms precede the three retries; `sleep` never
        // returns early, so the lower bound is exact (minus nothing).
        let floor: Duration = (0..MAX_TRANSIENT_RETRIES).map(|i| base * (1u32 << i)).sum();
        assert!(
            started.elapsed() >= floor,
            "retries fired hot: {:?} < {floor:?}",
            started.elapsed()
        );
    }

    #[test]
    fn backoff_delay_is_capped() {
        let base = Duration::from_millis(1);
        let cap = Duration::from_millis(4);
        assert_eq!(backoff_delay(1, base, cap), Duration::from_millis(1));
        assert_eq!(backoff_delay(2, base, cap), Duration::from_millis(2));
        assert_eq!(backoff_delay(3, base, cap), cap);
        assert_eq!(backoff_delay(60, base, cap), cap, "shift is clamped too");
    }

    /// The cancellation probe interrupts a backoff sleep mid-delay: a
    /// latched pipeline failure stops waiting workers promptly instead of
    /// letting each doze through its full (long) backoff.
    #[test]
    fn cancellation_interrupts_the_backoff_sleep() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let retries = AtomicUsize::new(0);
        let cancel = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&cancel);
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            flag.store(true, Ordering::Relaxed);
        });
        let started = std::time::Instant::now();
        let out: Result<(), _> = with_transient_retry_backoff(
            &retries,
            || cancel.load(Ordering::Relaxed),
            Duration::from_millis(400),
            Duration::from_secs(2),
            || Err(StoreError::transient("always down")),
        );
        killer.join().unwrap();
        assert!(matches!(out, Err(StoreError::Transient { .. })));
        assert!(
            started.elapsed() < Duration::from_millis(380),
            "cancellation must cut the 400 ms backoff short, took {:?}",
            started.elapsed()
        );
        assert_eq!(
            retries.load(Ordering::Relaxed),
            1,
            "one retry was charged before the cancelled sleep"
        );
    }

    #[test]
    fn retry_helper_fails_fast_on_permanent_errors() {
        let retries = AtomicUsize::new(0);
        let out: Result<(), _> =
            with_transient_retry(&retries, || Err(StoreError::corrupt("/x", "flipped bit")));
        assert!(out.unwrap_err().is_corruption());
        assert_eq!(
            retries.load(Ordering::Relaxed),
            0,
            "corruption is never retried"
        );
    }
}
