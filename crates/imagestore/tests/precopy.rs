//! Pre-copy checkpointing, end to end through the store: concurrent
//! mutation while the image streams, iterative delta rounds, a short final
//! stop-the-world pass — and restores that are byte-identical to what a
//! full stop-the-world checkpoint of the same final memory produces.
//!
//! The mutator runs on its own thread and is stopped by the coordinator's
//! quiesce (`pre_checkpoint`) exactly like a real application: once the
//! final pass begins, memory is frozen, so the live content *after*
//! `checkpoint_precopy` returns is the ground truth every restore is
//! checked against.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crac_addrspace::{Addr, Half, MapRequest, SharedSpace, PAGE_SIZE};
use crac_dmtcp::{Coordinator, CoordinatorConfig, DmtcpPlugin, PrecopyConfig};
use crac_imagestore::net::{serve_on, TcpTransport};
use crac_imagestore::testutil::TempDir;
use crac_imagestore::{Compression, CoordinatorStoreExt, ImageStore, ObsRegistry, WriteOptions};
use proptest::prelude::*;

const SECRET: &[u8] = b"precopy-secret";
const REGION_PAGES: u64 = 64;

/// Quiesces the mutator: sets the stop flag and waits until the mutator
/// thread acknowledges it has taken its last write — after this hook
/// returns, memory is static, exactly like a quiesced application.
struct StopMutator {
    stop: Arc<AtomicBool>,
    acked: Arc<AtomicBool>,
}

impl DmtcpPlugin for StopMutator {
    fn name(&self) -> &str {
        "stop-mutator"
    }
    fn pre_checkpoint(&self) {
        self.stop.store(true, Ordering::SeqCst);
        while !self.acked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }
}

/// Records, at the quiesce, how many `put_chunk` frames the peer has
/// received so far — everything after that number shipped after the stop.
struct FramesAtQuiesce {
    peer: ObsRegistry,
    frames: Arc<AtomicU64>,
}

impl DmtcpPlugin for FramesAtQuiesce {
    fn name(&self) -> &str {
        "frames-at-quiesce"
    }
    fn pre_checkpoint(&self) {
        let frames = self
            .peer
            .snapshot()
            .counter("crac_net_server_chunk_frames_received");
        self.frames.store(frames, Ordering::SeqCst);
    }
}

/// A space with one upper-half mapping of [`REGION_PAGES`] pages seeded
/// with `initial` content, a coordinator quiescing through [`StopMutator`],
/// and a mutator thread replaying `script` in a loop until quiesced.  A
/// non-empty script has taken its first write before this returns, so
/// the mutation is guaranteed to race the checkpoint that follows rather
/// than depend on when the thread first gets scheduled.
fn space_under_mutation(
    initial: &[(u64, u8)],
    script: Vec<(u64, u8)>,
) -> (SharedSpace, Addr, Coordinator, JoinHandle<u64>) {
    let space = SharedSpace::new_no_aslr();
    let a = space
        .mmap(MapRequest::anon(
            REGION_PAGES * PAGE_SIZE,
            Half::Upper,
            "precopy-app",
        ))
        .unwrap();
    for (page, seed) in initial {
        space
            .write_bytes(a + page * PAGE_SIZE, &[*seed; 128])
            .unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicBool::new(false));
    let mut coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
    coord.register_plugin(Arc::new(StopMutator {
        stop: Arc::clone(&stop),
        acked: Arc::clone(&acked),
    }));
    let mut_space = space.clone();
    let started = Arc::new(AtomicBool::new(false));
    let first_write = Arc::clone(&started);
    let mutator = std::thread::spawn(move || {
        let mut writes = 0u64;
        'outer: loop {
            for (page, val) in &script {
                if stop.load(Ordering::SeqCst) {
                    break 'outer;
                }
                let bytes = [val.wrapping_add(writes as u8); 64];
                mut_space
                    .write_bytes(a + page * PAGE_SIZE + 64, &bytes)
                    .unwrap();
                writes += 1;
                first_write.store(true, Ordering::SeqCst);
            }
            if script.is_empty() || stop.load(Ordering::SeqCst) {
                break;
            }
        }
        acked.store(true, Ordering::SeqCst);
        writes
    });
    while !started.load(Ordering::SeqCst) && !mutator.is_finished() {
        std::thread::yield_now();
    }
    (space, a, coord, mutator)
}

/// Reads the whole mapped range of `space`.
fn mapping_bytes(space: &SharedSpace, a: Addr) -> Vec<u8> {
    let mut buf = vec![0u8; (REGION_PAGES * PAGE_SIZE) as usize];
    space.read_bytes(a, &mut buf).unwrap();
    buf
}

#[test]
fn precopy_to_store_under_mutation_restores_the_quiesced_memory() {
    let dir = TempDir::new("precopy-store");
    let store = ImageStore::open(dir.path()).unwrap();
    let initial: Vec<(u64, u8)> = (0..REGION_PAGES).map(|p| (p, p as u8 + 1)).collect();
    let script: Vec<(u64, u8)> = (0..16)
        .map(|i| (i * 3 % REGION_PAGES, 0xC0 + i as u8))
        .collect();
    let (space, a, coord, mutator) = space_under_mutation(&initial, script);

    let (id, pre, write) = coord
        .checkpoint_to_store_precopy(&store, 7, &WriteOptions::full(), PrecopyConfig::default())
        .unwrap();
    let writes = mutator.join().unwrap();
    assert!(writes > 0, "the mutator must have raced the bulk copy");
    // Bulk round + any deltas + the final pass all made it to the store.
    assert!(pre.round_bytes.len() >= 2);
    assert!(pre.round_bytes[0] >= REGION_PAGES * PAGE_SIZE);
    assert!(write.chunks_written > 0);

    // Memory froze at the quiesce; the restored image must equal it.
    let live = mapping_bytes(&space, a);
    let fresh = SharedSpace::new_no_aslr();
    coord.restart_from_store(&store, id, &fresh).unwrap();
    assert_eq!(live, mapping_bytes(&fresh, a));

    // The observability contract: stop window and per-round bytes are on
    // the coordinator's registry for both modes to compare.
    let text = coord.obs().render_text();
    assert!(text.contains("crac_ckpt_stop_window_us"));
    assert!(text.contains("crac_precopy_round_bytes"));
    assert!(text.contains("crac_precopy_rounds"));
}

#[test]
fn precopy_to_remote_over_tcp_under_mutation_restores_the_quiesced_memory() {
    let dir = TempDir::new("precopy-tcp");
    let peer = Arc::new(ImageStore::open(dir.path()).unwrap());
    let server = serve_on("127.0.0.1:0", Arc::clone(&peer), SECRET).unwrap();
    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();

    let initial: Vec<(u64, u8)> = (0..REGION_PAGES / 2)
        .map(|p| (p * 2, p as u8 + 9))
        .collect();
    let script: Vec<(u64, u8)> = (0..24)
        .map(|i| (i * 5 % REGION_PAGES, 0x30 + i as u8))
        .collect();
    let (space, a, coord, mutator) = space_under_mutation(&initial, script);

    let (id, pre, replicate) = coord
        .checkpoint_to_remote_precopy(&tcp, 3, Compression::None, None, PrecopyConfig::default())
        .unwrap();
    mutator.join().unwrap();
    assert!(pre.round_bytes.len() >= 2);
    assert!(replicate.chunks_shipped > 0);

    let live = mapping_bytes(&space, a);
    let fresh = SharedSpace::new_no_aslr();
    coord.restart_from_remote(&tcp, id, &fresh).unwrap();
    assert_eq!(live, mapping_bytes(&fresh, a));
    server.shutdown();
}

/// Pre-copy over TCP with `script` mutating, returning the peer's
/// `put_chunk` frames received after the quiesce and the final pass's
/// dirty pages; the restore is checked against the quiesced memory.
fn frames_after_quiesce(script: Vec<(u64, u8)>) -> (u64, u64) {
    let dir = TempDir::new("precopy-after-stop");
    let peer = Arc::new(ImageStore::open(dir.path()).unwrap());
    let server = serve_on("127.0.0.1:0", Arc::clone(&peer), SECRET).unwrap();
    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
    let initial: Vec<(u64, u8)> = (0..REGION_PAGES).map(|p| (p, p as u8 + 3)).collect();
    let (space, a, mut coord, mutator) = space_under_mutation(&initial, script);
    let at_quiesce = Arc::new(AtomicU64::new(u64::MAX));
    coord.register_plugin(Arc::new(FramesAtQuiesce {
        peer: server.obs(),
        frames: Arc::clone(&at_quiesce),
    }));

    let (id, pre, replicate) = coord
        .checkpoint_to_remote_precopy(&tcp, 5, Compression::None, None, PrecopyConfig::default())
        .unwrap();
    mutator.join().unwrap();
    let total = server.stats().chunk_frames_received as u64;
    let before_stop = at_quiesce.load(Ordering::SeqCst);
    assert!(before_stop <= total, "the quiesce hook ran");
    assert!(before_stop > 0, "the bulk round landed before the stop");
    assert_eq!(total, replicate.chunks_shipped as u64);

    let live = mapping_bytes(&space, a);
    let fresh = SharedSpace::new_no_aslr();
    coord.restart_from_remote(&tcp, id, &fresh).unwrap();
    assert_eq!(live, mapping_bytes(&fresh, a));
    server.shutdown();
    (total - before_stop, pre.final_dirty_pages)
}

/// Regression: the remote sink used to park up to a full negotiation
/// batch of pre-copied chunks until after the stop, so most of the image
/// shipped while the application could not run.  Every round now lands
/// before the residual is measured: with nothing mutating, not a single
/// chunk frame crosses the wire after the quiesce.
#[test]
fn precopy_ships_nothing_after_the_stop_when_memory_is_idle() {
    let (after, final_dirty) = frames_after_quiesce(Vec::new());
    assert_eq!(final_dirty, 0);
    assert_eq!(after, 0, "chunk frames shipped after the quiesce");
}

/// Under a hot-set mutator, only the final delta ships after the stop:
/// every final-pass chunk carries at least one dirty page, so the frames
/// are bounded by the final pass's dirty pages.
#[test]
fn precopy_ships_only_the_final_delta_after_the_stop() {
    let hot: Vec<(u64, u8)> = (0..8).map(|i| (20 + i, 0x50 + i as u8)).collect();
    let (after, final_dirty) = frames_after_quiesce(hot);
    assert!(
        after <= final_dirty,
        "{after} chunk frames after the quiesce for {final_dirty} final dirty pages"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Byte-identical pre-copy-vs-stop-the-world equivalence under
    /// randomized concurrent mutation, over the remote/TCP path: the
    /// pre-copy image (taken while a random write script raced the copy)
    /// restores to exactly the same bytes as a plain stop-the-world
    /// checkpoint of the final, quiesced memory.
    #[test]
    fn precopy_over_tcp_equals_stw_of_quiesced_memory(
        initial in proptest::collection::vec((0..REGION_PAGES, any::<u8>()), 1..40),
        script in proptest::collection::vec((0..REGION_PAGES, any::<u8>()), 1..32),
    ) {
        let dir = TempDir::new("precopy-prop");
        let peer = Arc::new(ImageStore::open(dir.path()).unwrap());
        let server = serve_on("127.0.0.1:0", Arc::clone(&peer), SECRET).unwrap();
        let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
        let (space, a, coord, mutator) = space_under_mutation(&initial, script);

        let (id, _pre, _rep) = coord
            .checkpoint_to_remote_precopy(
                &tcp,
                0,
                Compression::None,
                None,
                PrecopyConfig { max_rounds: 3, convergence_pages: 4, max_run_gap: 1, adaptive_rounds: false },
            )
            .unwrap();
        mutator.join().unwrap();

        // Ground truth: a stop-the-world checkpoint of the now-static
        // memory, restored the materialising way.
        let (stw_image, _) = coord.checkpoint(0);
        let stw_space = SharedSpace::new_no_aslr();
        coord.restart_into(&stw_image, &stw_space);

        let pre_space = SharedSpace::new_no_aslr();
        coord.restart_from_remote(&tcp, id, &pre_space).unwrap();
        server.shutdown();

        prop_assert_eq!(mapping_bytes(&pre_space, a), mapping_bytes(&stw_space, a));
        prop_assert_eq!(mapping_bytes(&pre_space, a), mapping_bytes(&space, a));
    }
}
