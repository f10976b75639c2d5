//! The bounded structured event ring: what happened, when, in order —
//! the narrative complement to the metric totals.

use crac_sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Maximum buffered events; beyond this the oldest are dropped (the drop
/// count is retained, so truncation is visible, never silent).
pub const EVENT_RING_CAPACITY: usize = 1024;

/// What kind of thing happened.  Kinds are coarse on purpose: the
/// `detail` string carries the specifics, the kind makes records
/// greppable and countable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A checkpoint stream was opened.
    CheckpointBegun,
    /// A checkpoint committed (detail carries image id and totals).
    CheckpointFinished,
    /// A restore began.
    RestoreBegun,
    /// A restore completed.
    RestoreFinished,
    /// One address-space region finished streaming into the writer.
    RegionStreamed,
    /// A chunk was skipped because the receiver already held it.
    ChunkDeduped,
    /// A chunk crossed the transport to a remote peer.
    ChunkShipped,
    /// A transient failure triggered a retry (detail: operation, error
    /// class, attempt, backoff slept).
    TransientRetry,
    /// A stale writer lock was stolen from a dead owner.
    LockSteal,
    /// A garbage-collection sweep ran (detail: chunks/bytes reclaimed).
    GcSweep,
    /// A network connection was established (either side).
    ConnOpen,
    /// A connection failed authentication.
    AuthFail,
    /// A connection closed.
    ConnClose,
    /// One pre-copy round completed (detail: round number, bytes/pages
    /// re-copied, residual dirty delta).
    PrecopyRound,
    /// The final stop-the-world window of a checkpoint closed (detail:
    /// window duration, pages captured during the quiesce).
    StopWindow,
    /// A first-touch page fault was serviced during a lazy restore
    /// (detail: faulting address, chunk fetched, service latency).
    FaultServed,
    /// The background prefetch sweep of a lazy restore reported progress
    /// (detail: chunks prefetched / total, pages resident).
    PrefetchRound,
}

impl EventKind {
    /// Stable machine-readable name (`snake_case`).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::CheckpointBegun => "checkpoint_begun",
            EventKind::CheckpointFinished => "checkpoint_finished",
            EventKind::RestoreBegun => "restore_begun",
            EventKind::RestoreFinished => "restore_finished",
            EventKind::RegionStreamed => "region_streamed",
            EventKind::ChunkDeduped => "chunk_deduped",
            EventKind::ChunkShipped => "chunk_shipped",
            EventKind::TransientRetry => "transient_retry",
            EventKind::LockSteal => "lock_steal",
            EventKind::GcSweep => "gc_sweep",
            EventKind::ConnOpen => "conn_open",
            EventKind::AuthFail => "auth_fail",
            EventKind::ConnClose => "conn_close",
            EventKind::PrecopyRound => "precopy_round",
            EventKind::StopWindow => "stop_window",
            EventKind::FaultServed => "fault_served",
            EventKind::PrefetchRound => "prefetch_round",
        }
    }
}

/// One recorded event: a sequence number (gap-free per registry, so
/// ring-buffer truncation is detectable), a monotonic timestamp relative
/// to the registry's construction, a kind, and free-form detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Position in the registry's event stream (starts at 0).
    pub seq: u64,
    /// When it happened, relative to the registry's epoch.
    pub at: Duration,
    /// What kind of thing happened.
    pub kind: EventKind,
    /// Specifics (ids, byte counts, error classes).
    pub detail: String,
}

impl Event {
    /// Human-readable one-liner, e.g.
    /// `[#000012 +1.204s] chunk_shipped hash=3f2a… bytes=65536`.
    pub fn render_line(&self) -> String {
        format!(
            "[#{:06} +{:.3}s] {} {}",
            self.seq,
            self.at.as_secs_f64(),
            self.kind.name(),
            self.detail
        )
    }

    /// Machine-parseable `key=value` record, e.g.
    /// `seq=12 t_us=1203992 kind=chunk_shipped detail="hash=3f2a… bytes=65536"`.
    pub fn render_record(&self) -> String {
        format!(
            "seq={} t_us={} kind={} detail={:?}",
            self.seq,
            self.at.as_micros(),
            self.kind.name(),
            self.detail
        )
    }
}

/// The bounded ring itself.  A mutex is fine here: events are orders of
/// magnitude rarer than metric increments (per checkpoint / per retry /
/// per connection, never per chunk on the happy path).
pub(crate) struct Ring {
    buf: Mutex<RingBuf>,
    dropped: AtomicU64,
}

/// The ring's locked state.  `seq` is assigned under the same lock that
/// orders the queue, so two concurrent pushers can never enqueue out of
/// sequence order.
struct RingBuf {
    events: VecDeque<Event>,
    next_seq: u64,
}

impl Ring {
    pub(crate) fn new() -> Self {
        Ring {
            buf: Mutex::new(
                "obs.event.ring",
                RingBuf {
                    events: VecDeque::with_capacity(64),
                    next_seq: 0,
                },
            ),
            dropped: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> crac_sync::MutexGuard<'_, RingBuf> {
        self.buf.lock()
    }

    pub(crate) fn push(&self, at: Duration, kind: EventKind, detail: String) {
        let mut buf = self.lock();
        let seq = buf.next_seq;
        buf.next_seq += 1;
        if buf.events.len() == EVENT_RING_CAPACITY {
            buf.events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.events.push_back(Event {
            seq,
            at,
            kind,
            detail,
        });
    }

    pub(crate) fn drain(&self) -> Vec<Event> {
        self.lock().events.drain(..).collect()
    }

    pub(crate) fn peek(&self) -> Vec<Event> {
        self.lock().events.iter().cloned().collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_seq_gap_free() {
        let ring = Ring::new();
        for i in 0..(EVENT_RING_CAPACITY + 10) {
            ring.push(
                Duration::from_micros(i as u64),
                EventKind::ChunkShipped,
                format!("n={i}"),
            );
        }
        let events = ring.drain();
        assert_eq!(events.len(), EVENT_RING_CAPACITY);
        assert_eq!(ring.dropped(), 10);
        // The survivors are the newest, in order, seq gap-free.
        assert_eq!(events.first().unwrap().seq, 10);
        assert_eq!(
            events.last().unwrap().seq,
            (EVENT_RING_CAPACITY + 10 - 1) as u64
        );
        for pair in events.windows(2) {
            assert_eq!(pair[0].seq + 1, pair[1].seq);
        }
        // Drained means drained.
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn renderings_carry_the_kind_name() {
        let e = Event {
            seq: 3,
            at: Duration::from_millis(1500),
            kind: EventKind::LockSteal,
            detail: "pid=42".into(),
        };
        assert_eq!(e.render_line(), "[#000003 +1.500s] lock_steal pid=42");
        assert_eq!(
            e.render_record(),
            "seq=3 t_us=1500000 kind=lock_steal detail=\"pid=42\""
        );
    }
}
