//! Outside-in probes: a timing decorator around a [`Transport`] and a
//! quiesce/resume [`DmtcpPlugin`].  Both observe the library through its
//! public seams only.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crac_repro::imagestore::{ContentHash, StoreError};
use crac_repro::prelude::*;
use crac_repro::sync::{Condvar, Mutex};

/// The seven [`Transport`] methods, in a fixed order.
pub const NET_OPS: [&str; 7] = [
    "has_chunks",
    "put_chunk",
    "get_chunk",
    "get_chunk_priority",
    "list_manifests",
    "get_manifest",
    "put_manifest",
];

const HAS: usize = 0;
const PUT: usize = 1;
const GET: usize = 2;
const GET_PRIO: usize = 3;
const LIST: usize = 4;
const GET_MAN: usize = 5;
const PUT_MAN: usize = 6;

/// Everything the decorator saw since the last [`TimedTransport::take`].
#[derive(Clone, Debug, Default)]
pub struct NetTally {
    /// Calls per op (index as [`NET_OPS`]).
    pub count: [u64; 7],
    /// Summed call durations per op.
    pub busy: [Duration; 7],
    /// Per-call latencies per op, in microseconds.
    pub lat_us: [Vec<f64>; 7],
    /// Payload bytes sent (chunk files, manifests, queried hashes).
    pub bytes_out: u64,
    /// Payload bytes received (chunk files, manifests, flags, ids).
    pub bytes_in: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Most calls in flight at once.
    pub peak_inflight: usize,
}

impl NetTally {
    /// Summed busy time over every op.
    pub fn busy_total(&self) -> Duration {
        self.busy.iter().sum()
    }

    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: NetTally) {
        for i in 0..NET_OPS.len() {
            self.count[i] += other.count[i];
            self.busy[i] += other.busy[i];
            self.lat_us[i].extend_from_slice(&other.lat_us[i]);
        }
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
        self.errors += other.errors;
        self.peak_inflight = self.peak_inflight.max(other.peak_inflight);
    }
}

/// A [`Transport`] decorator that times every call of every method.
///
/// All seven methods are forwarded explicitly.  `get_chunk_priority` in
/// particular must not fall back to the trait default, which would route
/// fault fetches through `get_chunk` and off the inner transport's
/// priority lane.
pub struct TimedTransport<T> {
    inner: T,
    tally: Mutex<NetTally>,
    inflight: AtomicUsize,
}

impl<T: Transport> TimedTransport<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        Self {
            inner,
            tally: Mutex::new("bench.net.tally", NetTally::default()),
            inflight: AtomicUsize::new(0),
        }
    }

    /// Returns everything recorded so far and starts a fresh tally.
    pub fn take(&self) -> NetTally {
        std::mem::take(&mut *self.tally.lock())
    }

    /// Takes the tally and folds it into `into` when `keep` is set (drops
    /// it otherwise, e.g. during warm-up).
    pub fn take_into(&self, into: &mut NetTally, keep: bool) {
        let t = self.take();
        if keep {
            into.absorb(t);
        }
    }

    fn timed<R>(
        &self,
        op: usize,
        out: u64,
        call: impl FnOnce() -> Result<R, StoreError>,
        size_in: impl FnOnce(&R) -> u64,
    ) -> Result<R, StoreError> {
        let now = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        let t0 = Instant::now();
        let result = call();
        let dt = t0.elapsed();
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        let mut t = self.tally.lock();
        t.peak_inflight = t.peak_inflight.max(now);
        t.count[op] += 1;
        t.busy[op] += dt;
        t.lat_us[op].push(dt.as_secs_f64() * 1e6);
        t.bytes_out += out;
        match &result {
            Ok(r) => t.bytes_in += size_in(r),
            Err(_) => t.errors += 1,
        }
        result
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn has_chunks(&self, hashes: &[ContentHash]) -> Result<Vec<bool>, StoreError> {
        let out = (hashes.len() * 16) as u64;
        self.timed(
            HAS,
            out,
            || self.inner.has_chunks(hashes),
            |f| f.len() as u64,
        )
    }

    fn put_chunk(&self, hash: ContentHash, file_bytes: &[u8]) -> Result<(), StoreError> {
        let out = file_bytes.len() as u64 + 16;
        self.timed(PUT, out, || self.inner.put_chunk(hash, file_bytes), |_| 0)
    }

    fn get_chunk(&self, hash: ContentHash) -> Result<Vec<u8>, StoreError> {
        self.timed(GET, 16, || self.inner.get_chunk(hash), |b| b.len() as u64)
    }

    fn get_chunk_priority(&self, hash: ContentHash) -> Result<Vec<u8>, StoreError> {
        self.timed(
            GET_PRIO,
            16,
            || self.inner.get_chunk_priority(hash),
            |b| b.len() as u64,
        )
    }

    fn list_manifests(&self) -> Result<Vec<ImageId>, StoreError> {
        self.timed(
            LIST,
            0,
            || self.inner.list_manifests(),
            |ids| 8 * ids.len() as u64,
        )
    }

    fn get_manifest(&self, id: ImageId) -> Result<Vec<u8>, StoreError> {
        self.timed(
            GET_MAN,
            8,
            || self.inner.get_manifest(id),
            |b| b.len() as u64,
        )
    }

    fn put_manifest(
        &self,
        manifest_bytes: &[u8],
        parent: Option<ImageId>,
    ) -> Result<ImageId, StoreError> {
        let out = manifest_bytes.len() as u64 + 8;
        self.timed(
            PUT_MAN,
            out,
            || self.inner.put_manifest(manifest_bytes, parent),
            |_| 8,
        )
    }
}

/// Pause/resume handshake between the quiesce plugin and an application
/// thread.  The application brackets its life with [`AppGate::enter`] and
/// [`AppGate::leave`], polls [`AppGate::checkpoint_pending`] between
/// writes and parks in [`AppGate::park`]; the plugin's `pre_checkpoint`
/// returns only once a running application is parked, so no write
/// straddles the final capture.
pub struct AppGate {
    requested: AtomicBool,
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    active: bool,
    parked: bool,
    released: bool,
}

impl Default for AppGate {
    fn default() -> Self {
        Self {
            requested: AtomicBool::new(false),
            state: Mutex::new("bench.gate.state", GateState::default()),
            cv: Condvar::new(),
        }
    }
}

impl AppGate {
    /// `true` once a checkpoint wants the application to stop writing.
    pub fn checkpoint_pending(&self) -> bool {
        self.requested.load(Ordering::Acquire)
    }

    /// Called by the application thread when it starts writing.
    pub fn enter(&self) {
        self.state.lock().active = true;
    }

    /// Called by the application thread when it stops for good.
    pub fn leave(&self) {
        let mut st = self.state.lock();
        st.active = false;
        self.cv.notify_all();
    }

    /// Called by the application: parks until [`AppGate::release`].
    pub fn park(&self) {
        let mut st = self.state.lock();
        st.parked = true;
        self.cv.notify_all();
        while !st.released {
            st = self.cv.wait(st);
        }
        st.parked = false;
        st.released = false;
    }

    /// Called by the plugin: asks the application to park and waits for it.
    fn quiesce(&self) {
        self.requested.store(true, Ordering::Release);
        let mut st = self.state.lock();
        while st.active && !st.parked {
            st = self.cv.wait(st);
        }
    }

    /// Lets a parked application continue.
    pub fn release(&self) {
        self.requested.store(false, Ordering::Release);
        let mut st = self.state.lock();
        if st.parked {
            st.released = true;
            self.cv.notify_all();
        }
    }
}

/// What the quiesce plugin does at `resume`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResumeMode {
    /// The application continues on this node (a local checkpoint).
    Continue,
    /// The application stays parked: it continues on the peer (migration).
    Migrate,
}

/// The benchmark's own [`DmtcpPlugin`], registered after CRAC's plugin so
/// its `pre_checkpoint` runs once the device is drained.  It records the
/// quiesce and resume instants, the upper-half mapped bytes at quiesce
/// (CRAC's drain staging shows up there), and parks the application
/// thread behind an optional [`AppGate`].
pub struct QuiescePlugin {
    space: SharedSpace,
    gate: Option<Arc<AppGate>>,
    mode: Mutex<ResumeMode>,
    quiesced_at: Mutex<Option<Instant>>,
    resumed_at: Mutex<Option<Instant>>,
    mapped_at_quiesce: AtomicU64,
}

impl QuiescePlugin {
    /// A plugin watching `space`, parking `gate`'s application if given.
    pub fn new(space: SharedSpace, gate: Option<Arc<AppGate>>) -> Self {
        Self {
            space,
            gate,
            mode: Mutex::new("bench.quiesce.mode", ResumeMode::Continue),
            quiesced_at: Mutex::new("bench.quiesce.quiesced_at", None),
            resumed_at: Mutex::new("bench.quiesce.resumed_at", None),
            mapped_at_quiesce: AtomicU64::new(0),
        }
    }

    /// Sets what the next `resume` does.
    pub fn set_mode(&self, mode: ResumeMode) {
        *self.mode.lock() = mode;
    }

    /// Instant of the last `pre_checkpoint`.
    pub fn quiesced_at(&self) -> Option<Instant> {
        *self.quiesced_at.lock()
    }

    /// Instant of the last `resume`.
    pub fn resumed_at(&self) -> Option<Instant> {
        *self.resumed_at.lock()
    }

    /// Bytes mapped in the address space when the last `pre_checkpoint`
    /// ran.
    pub fn mapped_at_quiesce(&self) -> u64 {
        self.mapped_at_quiesce.load(Ordering::Acquire)
    }
}

/// Bytes currently mapped in `space`.
pub fn mapped_bytes(space: &SharedSpace) -> u64 {
    space.with(|s| s.proc_maps().iter().map(|e| e.len()).sum())
}

impl DmtcpPlugin for QuiescePlugin {
    fn name(&self) -> &str {
        "bench-quiesce"
    }

    fn pre_checkpoint(&self) {
        *self.quiesced_at.lock() = Some(Instant::now());
        if let Some(gate) = &self.gate {
            gate.quiesce();
        }
        self.mapped_at_quiesce
            .store(mapped_bytes(&self.space), Ordering::Release);
    }

    fn resume(&self) {
        *self.resumed_at.lock() = Some(Instant::now());
        if *self.mode.lock() == ResumeMode::Continue {
            if let Some(gate) = &self.gate {
                gate.release();
            }
        }
    }
}
