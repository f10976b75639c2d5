//! The TCP transport, end to end over real localhost sockets: the PR 4
//! replication suite re-run with actual bytes crossing a wire, plus the
//! network-only concerns — auth gating, pooled-connection fan-out,
//! concurrent clients, and a server killed mid-transfer.
//!
//! Every test binds `127.0.0.1:0` (an ephemeral port), so the suite runs
//! under the plain `cargo test` tier-1 gate with no environment setup.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crac_addrspace::{Addr, Prot, PAGE_SIZE};
use crac_dmtcp::{CheckpointImage, SavedRegion};
use crac_imagestore::net::{serve_on, ServerHandle, TcpTransport};
use crac_imagestore::testutil::TempDir;
use crac_imagestore::{
    ChunkSource, Compression, ContentHash, FaultConfig, FaultyTransport, ImageId, ImageStore,
    MaterialiseSink, RegionSource, RemoteChunkSink, RemoteChunkSource, StoreError, Transport,
    WriteOptions,
};
use crac_sync::{Condvar, Mutex};

const SECRET: &[u8] = b"rendezvous-secret";

/// An image of `chunks` distinct 16-page chunks, every page unique to
/// `seed` (mirrors the loopback suite's generator so results compare).
fn image(seed: u8, chunks: u64) -> CheckpointImage {
    let pages = chunks * 16;
    let mut img = CheckpointImage {
        taken_at_ns: seed as u64 * 1000,
        ..Default::default()
    };
    img.regions.push(SavedRegion {
        start: Addr(0x4000_0000_0000),
        len: pages * PAGE_SIZE,
        prot: Prot::RW,
        label: format!("tcp-{seed}"),
        pages: (0..pages)
            .map(|i| {
                let mut page = vec![seed; PAGE_SIZE as usize];
                page[..8].copy_from_slice(&(((seed as u64) << 32) | i).to_le_bytes());
                (i, page)
            })
            .collect(),
    });
    img.payloads.insert("crac".into(), vec![seed; 128]);
    img
}

/// Starts a server over a fresh store in `dir`, returning both handles.
fn server_over(dir: &TempDir) -> (Arc<ImageStore>, ServerHandle) {
    let store = Arc::new(ImageStore::open(dir.path()).unwrap());
    let handle = serve_on("127.0.0.1:0", Arc::clone(&store), SECRET).unwrap();
    (store, handle)
}

fn assert_same_content(store: &ImageStore, id: ImageId, expect: &CheckpointImage) {
    let (back, _) = store.read_image(id).unwrap();
    assert_eq!(back.regions.len(), expect.regions.len());
    for (a, b) in back.regions.iter().zip(expect.regions.iter()) {
        assert_eq!(a.start, b.start);
        assert_eq!(a.len, b.len);
        assert_eq!(a.pages, b.pages, "region {} content differs", a.label);
    }
    assert_eq!(back.payloads, expect.payloads);
}

#[test]
fn replicate_over_tcp_ships_once_then_zero_chunk_frames() {
    let (src_dir, dst_dir) = (TempDir::new("tcp-src"), TempDir::new("tcp-dst"));
    let src = ImageStore::open(src_dir.path()).unwrap();
    let img = image(1, 8);
    let (id, _) = src.write_image(&img, &WriteOptions::full()).unwrap();

    let (dst_store, server) = server_over(&dst_dir);
    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
    let (remote_id, stats) = src.replicate_to(id, &tcp).unwrap();
    assert_eq!(stats.chunks_shipped, 8, "empty peer: everything travels");
    assert_eq!(server.stats().chunk_frames_received, 8);
    assert!(server.stats().chunk_bytes_received > 0);
    assert_same_content(&dst_store, remote_id, &img);

    // Second replication of the same image: the negotiation finds every
    // chunk present — the server-side counter proves zero chunk frames
    // crossed the wire.
    let (remote_id2, stats2) = src.replicate_to(id, &tcp).unwrap();
    assert_eq!(stats2.chunks_shipped, 0);
    assert_eq!(stats2.chunks_deduped, 8);
    assert_eq!(
        server.stats().chunk_frames_received,
        8,
        "dedup proven at the server: no further chunk frame arrived"
    );
    assert_ne!(remote_id2, remote_id, "peer assigns a fresh id per replica");
    server.shutdown();
}

#[test]
fn replicate_from_pulls_over_tcp() {
    let (src_dir, dst_dir) = (TempDir::new("tcp-pull-src"), TempDir::new("tcp-pull-dst"));
    let img = image(2, 6);
    let (src_store, server) = server_over(&src_dir);
    let (id, _) = src_store.write_image(&img, &WriteOptions::full()).unwrap();

    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
    // list_manifests over the wire sees the image.
    assert_eq!(tcp.list_manifests().unwrap(), vec![id]);
    let (local_id, stats) = dst.replicate_from(&tcp, id).unwrap();
    assert_eq!(stats.chunks_shipped, 6);
    assert_eq!(server.stats().chunks_served, 6);
    assert_same_content(&dst, local_id, &img);

    // A second pull moves no chunk.
    let (_, stats2) = dst.replicate_from(&tcp, id).unwrap();
    assert_eq!(stats2.chunks_shipped, 0);
    assert_eq!(server.stats().chunks_served, 6);
    server.shutdown();
}

#[test]
fn live_checkpoint_streams_straight_to_a_socket() {
    // RemoteChunkSink over TCP: the producer's records are chunked,
    // negotiated and shipped to the server with no local store at all —
    // and dedup against content the peer wrote *locally* still works,
    // because the chunk boundaries (and so the hashes) are
    // writer-identical.
    let dst_dir = TempDir::new("tcp-sink");
    let img = image(3, 5);
    let (dst_store, server) = server_over(&dst_dir);
    dst_store.write_image(&img, &WriteOptions::full()).unwrap();

    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
    let mut sink = RemoteChunkSink::new(&tcp, Compression::None, None);
    img.stream_into(&mut sink).unwrap();
    sink.set_taken_at(img.taken_at_ns);
    let (remote_id, stats) = sink.finish().unwrap();
    assert_eq!(stats.chunks_total, 5);
    assert_eq!(stats.chunks_shipped, 0, "full dedup across the wire");
    assert_eq!(server.stats().chunk_frames_received, 0);
    assert_same_content(&dst_store, remote_id, &img);
    server.shutdown();
}

/// Pairs the restore's `get_chunk` calls at a two-party barrier until the
/// pool has had two sockets in use, so two fetch workers enter the pool
/// together.  Meeting once is not enough: the first worker can drain
/// every get while the second is still dialling, and under load a woken
/// worker can start late.  A wait that runs out (5 s: a lone worker)
/// ends the pairing.  Every call reaches the real transport, whose
/// counters the test asserts.
struct PairedGets<'t> {
    inner: &'t TcpTransport,
    /// (arrivals so far, pairing given up).
    gate: Mutex<(u32, bool)>,
    met: Condvar,
}

impl PairedGets<'_> {
    fn barrier(&self) {
        let mut gate = self.gate.lock();
        if gate.1 || self.inner.stats().peak_connections_in_use >= 2 {
            return;
        }
        gate.0 += 1;
        let round_full = gate.0.next_multiple_of(2);
        if gate.0 == round_full {
            self.met.notify_all();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while gate.0 < round_full {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                gate.1 = true;
                return;
            }
            gate = self.met.wait_timeout(gate, left).0;
        }
    }
}

impl Transport for PairedGets<'_> {
    fn has_chunks(&self, hashes: &[ContentHash]) -> Result<Vec<bool>, StoreError> {
        self.inner.has_chunks(hashes)
    }
    fn put_chunk(&self, hash: ContentHash, file_bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.put_chunk(hash, file_bytes)
    }
    fn get_chunk(&self, hash: ContentHash) -> Result<Vec<u8>, StoreError> {
        self.barrier();
        self.inner.get_chunk(hash)
    }
    fn list_manifests(&self) -> Result<Vec<ImageId>, StoreError> {
        self.inner.list_manifests()
    }
    fn get_manifest(&self, id: ImageId) -> Result<Vec<u8>, StoreError> {
        self.inner.get_manifest(id)
    }
    fn put_manifest(&self, bytes: &[u8], parent: Option<ImageId>) -> Result<ImageId, StoreError> {
        self.inner.put_manifest(bytes, parent)
    }
}

#[test]
fn parallel_restore_rides_multiple_pooled_connections() {
    let dir = TempDir::new("tcp-pool");
    let img = image(4, 32);
    let (store, server) = server_over(&dir);
    let (id, _) = store.write_image(&img, &WriteOptions::full()).unwrap();

    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
    let paired = PairedGets {
        inner: &tcp,
        gate: Mutex::new("test.paired_gets", (0, false)),
        met: Condvar::new(),
    };
    let mut source = RemoteChunkSource::open(&paired, id).unwrap();
    let mut sink = MaterialiseSink::default();
    source.stream_out(&mut sink).unwrap();
    let mut back = sink.into_image(source.taken_at_ns());
    back.regions[0].pages.sort_by_key(|(i, _)| *i);
    assert_eq!(back.regions[0].pages, img.regions[0].pages);

    let read = source.stats();
    assert_eq!(read.chunks_read, 32);
    if read.threads_used >= 2 {
        // The fan-out demonstrably used ≥ 2 pooled sockets: the server
        // saw several distinct authenticated connections serving gets,
        // and the client's in-use high-water mark agrees.
        assert!(
            server.stats().get_connections >= 2,
            "parallel restore served over {} connection(s)",
            server.stats().get_connections
        );
        assert!(
            tcp.stats().peak_connections_in_use >= 2,
            "pool peak: {:?}",
            tcp.stats()
        );
    }
    // Connections were pooled, not leaked: idle ≥ 1, bounded by the cap.
    let pool = tcp.stats();
    assert!(pool.pooled_idle >= 1 && pool.pooled_idle <= TcpTransport::DEFAULT_MAX_IDLE);
    server.shutdown();
}

/// Deterministic pool fan-out, independent of the restore pipeline's
/// thread heuristics: four threads fetch concurrently; while one blocks
/// awaiting its response the others must check out further sockets.
#[test]
fn concurrent_get_chunk_opens_concurrent_connections() {
    let dir = TempDir::new("tcp-pool-det");
    let img = image(5, 16);
    let (store, server) = server_over(&dir);
    let (id, _) = store.write_image(&img, &WriteOptions::full()).unwrap();
    let manifest_bytes = std::fs::read(
        dir.path()
            .join("images")
            .join(format!("{:016x}.crimg", id.0)),
    )
    .unwrap();
    let manifest = crac_imagestore::format::Manifest::from_bytes(&manifest_bytes).unwrap();
    let hashes: Vec<ContentHash> = manifest.chunk_refs().map(|c| c.hash).collect();
    assert_eq!(hashes.len(), 16);

    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (tcp, hashes, barrier) = (&tcp, &hashes, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for _round in 0..8 {
                    for h in hashes.iter().skip(t).step_by(4) {
                        let bytes = tcp.get_chunk(*h).unwrap();
                        assert!(!bytes.is_empty());
                    }
                }
            });
        }
    });
    assert!(
        tcp.stats().peak_connections_in_use >= 2,
        "concurrent fetches must ride concurrent sockets: {:?}",
        tcp.stats()
    );
    assert!(server.stats().get_connections >= 2);
    server.shutdown();
}

#[test]
fn transient_faults_over_a_real_wire_are_absorbed_by_backoff_retry() {
    // FaultyTransport wraps the *TCP client*: injected faults compose
    // with real socket round trips, proving the retry/resume paths
    // survive an actual wire.
    let dir = TempDir::new("tcp-flaky");
    let img = image(6, 6);
    let (store, server) = server_over(&dir);
    let (id, _) = store.write_image(&img, &WriteOptions::full()).unwrap();

    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
    let flaky = FaultyTransport::new(
        &tcp,
        FaultConfig {
            transient_get_attempts: 2,
            jitter: Duration::from_micros(200),
            seed: 11,
            ..Default::default()
        },
    );
    let mut source = RemoteChunkSource::open(&flaky, id).unwrap();
    let mut sink = MaterialiseSink::default();
    source.stream_out(&mut sink).unwrap();
    let stats = source.stats();
    assert_eq!(stats.chunks_read, 6);
    assert!(
        stats.transient_retries >= 12,
        "every chunk needed its two retries: {stats:?}"
    );
    assert!(flaky.faults_injected() >= 12);
    let mut back = sink.into_image(source.taken_at_ns());
    back.regions[0].pages.sort_by_key(|(i, _)| *i);
    assert_eq!(back.regions[0].pages, img.regions[0].pages);
    server.shutdown();
}

#[test]
fn error_classes_survive_the_real_wire() {
    let dir = TempDir::new("tcp-classes");
    let img = image(7, 2);
    let (store, server) = server_over(&dir);
    let (id, _) = store.write_image(&img, &WriteOptions::full()).unwrap();
    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();

    // A chunk the server does not hold: MissingChunk, permanent — the
    // same class LoopbackTransport raises, so a get racing GC keeps the
    // client's fail-fast/retry split intact across serialisation.
    let absent = ContentHash::of(b"never stored");
    let err = tcp.get_chunk(absent).unwrap_err();
    assert!(
        matches!(&err, StoreError::MissingChunk { hash } if *hash == absent.to_hex()),
        "got: {err}"
    );
    assert!(!err.is_transient() && !err.is_corruption());

    // An image the server does not hold: UnknownImage, id preserved.
    let err = tcp.get_manifest(ImageId(4242)).unwrap_err();
    assert!(
        matches!(err, StoreError::UnknownImage(ImageId(4242))),
        "got: {err}"
    );

    // A manifest referencing chunks the server does not hold is refused
    // with MissingChunk (chunks-before-manifest, enforced remotely too).
    let manifest_bytes = std::fs::read(
        dir.path()
            .join("images")
            .join(format!("{:016x}.crimg", id.0)),
    )
    .unwrap();
    let fresh_dir = TempDir::new("tcp-classes-fresh");
    let (fresh_store, fresh_server) = server_over(&fresh_dir);
    let fresh_tcp = TcpTransport::connect(fresh_server.local_addr(), SECRET).unwrap();
    let err = fresh_tcp.put_manifest(&manifest_bytes, None).unwrap_err();
    assert!(matches!(err, StoreError::MissingChunk { .. }), "got: {err}");
    assert_eq!(fresh_store.stats().unwrap().images, 0);

    // Corrupt stored bytes are served verbatim and fail the *client's*
    // verification ladder — corruption class, zero retries.
    let chunks_dir = dir.path().join("chunks");
    let victim = std::fs::read_dir(&chunks_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "chk"))
        .unwrap();
    let mut bytes = std::fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&victim, bytes).unwrap();
    let mut source = RemoteChunkSource::open(&tcp, id).unwrap();
    let mut sink = MaterialiseSink::default();
    let err = source.stream_out(&mut sink).unwrap_err();
    assert!(err.is_corruption(), "got: {err}");
    assert_eq!(
        source.stats().transient_retries,
        0,
        "corruption never retries"
    );

    fresh_server.shutdown();
    server.shutdown();
}

#[test]
fn unauthenticated_clients_are_refused_before_any_store_operation() {
    let dir = TempDir::new("tcp-auth");
    let img = image(8, 2);
    let (store, server) = server_over(&dir);
    let (id, _) = store.write_image(&img, &WriteOptions::full()).unwrap();

    // Wrong secret: the eager handshake in connect() fails with a
    // permanent (non-transient) error — nothing to retry into.
    let err = match TcpTransport::connect(server.local_addr(), b"wrong".as_slice()) {
        Err(e) => e,
        Ok(_) => panic!("a wrong secret must not connect"),
    };
    assert!(
        matches!(err, StoreError::Protocol { .. }),
        "a rejected secret is a protocol refusal: {err}"
    );
    assert!(!err.is_transient());
    // The refusal is counted once the server finishes tearing down.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().auth_failures < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(server.stats().auth_failures, 1);

    // A raw client skipping the handshake: its request is answered with a
    // protocol refusal and the connection dropped — before any store
    // operation runs.
    {
        use crac_imagestore::net::Frame;
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Swallow the hello, then fire a request instead of a proof.
        let hello = crac_imagestore::net::frame::read_frame(&mut raw).unwrap();
        assert!(matches!(hello, Frame::ServerHello { .. }));
        crac_imagestore::net::frame::write_frame(
            &mut raw,
            &Frame::GetChunk(ContentHash::of(b"whatever")),
        )
        .unwrap();
        let reply = crac_imagestore::net::frame::read_frame(&mut raw).unwrap();
        let Frame::Err(we) = reply else {
            panic!("expected a refusal, got {reply:?}");
        };
        assert_eq!(we.class, crac_imagestore::net::ErrClass::Protocol);
    }
    // Wait for the server to finish tearing the refused connection down,
    // then check nothing was served.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().auth_failures < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = server.stats();
    assert_eq!(stats.auth_failures, 2);
    assert_eq!(stats.frames_served, 0, "no request ever reached dispatch");
    assert_eq!(stats.chunks_served, 0);

    // The right secret still works afterwards.
    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
    assert_eq!(tcp.list_manifests().unwrap(), vec![id]);
    server.shutdown();
}

#[test]
fn concurrent_replicators_into_one_server_dedup_exactly() {
    // Two replicators pushing the *same* content race their negotiations:
    // both may ship overlapping chunks, but the content-addressed ingest
    // keeps the store exact — one file per distinct chunk, both images
    // restorable.
    let (a_dir, b_dir, dst_dir) = (
        TempDir::new("tcp-conc-a"),
        TempDir::new("tcp-conc-b"),
        TempDir::new("tcp-conc-dst"),
    );
    let img = image(9, 12);
    let src_a = ImageStore::open(a_dir.path()).unwrap();
    let src_b = ImageStore::open(b_dir.path()).unwrap();
    let (id_a, _) = src_a.write_image(&img, &WriteOptions::full()).unwrap();
    let (id_b, _) = src_b.write_image(&img, &WriteOptions::full()).unwrap();

    let (dst_store, server) = server_over(&dst_dir);
    let (ra, rb) = std::thread::scope(|scope| {
        let addr = server.local_addr();
        let ta = scope.spawn(move || {
            let tcp = TcpTransport::connect(addr, SECRET).unwrap();
            src_a.replicate_to(id_a, &tcp).unwrap()
        });
        let tb = scope.spawn(move || {
            let tcp = TcpTransport::connect(addr, SECRET).unwrap();
            src_b.replicate_to(id_b, &tcp).unwrap()
        });
        (ta.join().unwrap(), tb.join().unwrap())
    });

    let stats = dst_store.stats().unwrap();
    assert_eq!(stats.images, 2, "both manifests adopted");
    assert_eq!(
        stats.chunks, 12,
        "dedup exact under racing replicators: one file per distinct chunk"
    );
    assert_same_content(&dst_store, ra.0, &img);
    assert_same_content(&dst_store, rb.0, &img);
    // Whatever the interleaving shipped, nothing was lost or duplicated.
    let shipped_total = ra.1.chunks_shipped + rb.1.chunks_shipped;
    assert!(
        (12..=24).contains(&shipped_total),
        "shipped {shipped_total} frames for 12 distinct chunks"
    );
    server.shutdown();
}

/// Review regression: connections that died while parked in the pool
/// must all be discarded within ONE operation — not surface one
/// transient error each, burning the caller's bounded retry budget on
/// sockets that were already dead.
#[test]
fn stale_pooled_connections_are_drained_within_one_call() {
    let dir = TempDir::new("tcp-stale-pool");
    let img = image(12, 8);
    let (store, server) = server_over(&dir);
    let (id, _) = store.write_image(&img, &WriteOptions::full()).unwrap();
    let manifest_bytes = std::fs::read(
        dir.path()
            .join("images")
            .join(format!("{:016x}.crimg", id.0)),
    )
    .unwrap();
    let manifest = crac_imagestore::format::Manifest::from_bytes(&manifest_bytes).unwrap();
    let hashes: Vec<ContentHash> = manifest.chunk_refs().map(|c| c.hash).collect();

    // Park several connections in the pool via concurrent fetches.
    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
    let barrier = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        for t in 0..3 {
            let (tcp, hashes, barrier) = (&tcp, &hashes, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..6 {
                    for h in hashes.iter().skip(t).step_by(3) {
                        tcp.get_chunk(*h).unwrap();
                    }
                }
            });
        }
    });
    let idle_before = tcp.stats().pooled_idle;
    assert!(idle_before >= 2, "pool did not fill: {:?}", tcp.stats());

    // The server dies; every parked socket is now stale.
    server.shutdown();

    // ONE call must consume all of them and report a single transient
    // failure from the fresh dial — not one error per stale socket.
    let err = tcp.get_chunk(hashes[0]).unwrap_err();
    assert!(err.is_transient(), "dead server is transient: {err}");
    let after = tcp.stats();
    assert_eq!(after.pooled_idle, 0, "stale pool fully drained: {after:?}");
    assert!(
        after.connections_broken >= idle_before,
        "each stale socket was tried and discarded: {after:?}"
    );
}

#[test]
fn server_killed_mid_transfer_surfaces_transient_and_replication_resumes() {
    let (src_dir, dst_dir) = (TempDir::new("tcp-kill-src"), TempDir::new("tcp-kill-dst"));
    let src = ImageStore::open(src_dir.path()).unwrap();
    let img = image(10, 24);
    let (id, _) = src.write_image(&img, &WriteOptions::full()).unwrap();

    let dst_store = Arc::new(ImageStore::open(dst_dir.path()).unwrap());
    let server = serve_on("127.0.0.1:0", Arc::clone(&dst_store), SECRET).unwrap();
    let addr = server.local_addr();

    // Replicate through a latency shim so the kill lands mid-stream.
    let err = std::thread::scope(|scope| {
        let replicator = scope.spawn(move || {
            let tcp = TcpTransport::connect(addr, SECRET).unwrap();
            let slow = FaultyTransport::new(
                &tcp,
                FaultConfig {
                    latency: Duration::from_millis(2),
                    ..Default::default()
                },
            );
            src.replicate_to(id, &slow)
        });
        // Kill the server once a few chunks have crossed the wire.
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.stats().chunk_frames_received < 3 {
            assert!(Instant::now() < deadline, "transfer never started");
            std::thread::sleep(Duration::from_micros(200));
        }
        server.shutdown();
        replicator.join().unwrap().unwrap_err()
    });
    assert!(
        err.is_transient(),
        "a dead server is transient (retryable), got: {err}"
    );
    assert!(!err.is_corruption());

    // Whatever landed is complete and verifiable; no manifest is visible.
    assert_eq!(dst_store.stats().unwrap().images, 0, "no torn image");
    let landed = dst_store.stats().unwrap().chunks;
    assert!((3..24).contains(&landed), "landed {landed} of 24");

    // The node comes back (same store, fresh listener): replication
    // resumes over a new connection, shipping exactly the remainder.
    let server2 = serve_on("127.0.0.1:0", Arc::clone(&dst_store), SECRET).unwrap();
    let tcp = TcpTransport::connect(server2.local_addr(), SECRET).unwrap();
    let src = ImageStore::open_read_only(src_dir.path()).unwrap();
    let (remote_id, stats) = src.replicate_to(id, &tcp).unwrap();
    assert_eq!(stats.chunks_deduped, landed, "landed chunks are skipped");
    assert_eq!(stats.chunks_shipped, 24 - landed, "only the rest ships");
    assert_same_content(&dst_store, remote_id, &img);
    server2.shutdown();
}

#[test]
fn stats_wire_op_scrapes_the_servers_registry() {
    let (src_dir, dst_dir) = (
        TempDir::new("tcp-scrape-src"),
        TempDir::new("tcp-scrape-dst"),
    );
    let src = ImageStore::open(src_dir.path()).unwrap();
    let img = image(31, 4);
    let (id, _) = src.write_image(&img, &WriteOptions::full()).unwrap();

    let (_dst_store, server) = server_over(&dst_dir);
    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
    src.replicate_to(id, &tcp).unwrap();

    // The scrape is an ordinary request frame: the server answers with
    // its registry rendered as Prometheus text exposition.
    let text = tcp.scrape_peer_metrics().unwrap();
    for family in [
        "crac_net_server_connections_accepted",
        "crac_net_server_frames_served",
        "crac_net_server_chunk_frames_received",
        "crac_net_server_op_put_chunk_us_bucket",
        "crac_net_server_op_put_chunk_us_count",
    ] {
        assert!(text.contains(family), "scrape lacks {family}:\n{text}");
    }
    // The replication demonstrably happened before the scrape: the
    // chunk-ingest counter it reports is the image's chunk count.
    let line = text
        .lines()
        .find(|l| l.starts_with("crac_net_server_chunk_frames_received "))
        .expect("counter sample line");
    assert_eq!(line.split_whitespace().nth(1), Some("4"));

    // The client side of the same conversation landed in the client's
    // registry, stage timings included.
    let client_text = tcp.obs().render_text();
    for family in [
        "crac_net_client_connections_opened",
        "crac_net_client_requests",
        "crac_net_client_connect_us_count",
        "crac_net_client_auth_us_count",
        "crac_net_client_rtt_us_count",
        "crac_net_client_frame_encode_us_count",
    ] {
        assert!(client_text.contains(family), "client lacks {family}");
    }
    assert!(tcp.stats().requests > 0);
    server.shutdown();
}
