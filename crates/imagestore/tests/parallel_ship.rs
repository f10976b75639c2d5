//! The shared ship path under failure: `put_chunk`s fan out over parallel
//! workers, and a link that dies partway through a multi-batch transfer
//! must still surface as an error, leave no manifest visible, and let a
//! re-run ship exactly the remainder — for both ship entry points,
//! [`ImageStore::replicate_to`] and a live checkpoint streamed through
//! `checkpoint_to_remote`.  Over real TCP, a cold replication's puts
//! must ride several pooled connections.

use std::sync::Arc;

use crac_addrspace::{Addr, Half, MapRequest, Prot, SharedSpace, PAGE_SIZE};
use crac_dmtcp::{CheckpointImage, Coordinator, CoordinatorConfig, SavedRegion};
use crac_imagestore::net::{serve_on, TcpTransport};
use crac_imagestore::testutil::TempDir;
use crac_imagestore::transport::HAS_CHUNKS_BATCH;
use crac_imagestore::{
    Compression, CoordinatorStoreExt, FaultConfig, FaultyTransport, ImageStore, LoopbackTransport,
    WriteOptions,
};

const SECRET: &[u8] = b"parallel-ship-secret";

/// Chunks in every test image: more than two negotiation batches.
const CHUNKS: u64 = 2 * HAS_CHUNKS_BATCH as u64 + 22;

/// The link dies after this many landed puts — inside the second batch.
const CUT_AFTER: usize = HAS_CHUNKS_BATCH + 6;

/// An image of `chunks` distinct 16-page chunks, every page unique.
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
        label: format!("ship-{seed}"),
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

/// A link that goes down after [`CUT_AFTER`] landed puts.
fn cut_link<'a>(inner: &'a LoopbackTransport<'a>) -> FaultyTransport<'a> {
    FaultyTransport::new(
        inner,
        FaultConfig {
            cut_after_puts: Some(CUT_AFTER),
            ..Default::default()
        },
    )
}

#[test]
fn replicate_to_cut_mid_transfer_resumes_with_exactly_the_remainder() {
    let (src_dir, dst_dir) = (TempDir::new("ship-cut-src"), TempDir::new("ship-cut-dst"));
    let src = ImageStore::open(src_dir.path()).unwrap();
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let img = image(3, CHUNKS);
    let (id, _) = src.write_image(&img, &WriteOptions::full()).unwrap();

    let loopback = LoopbackTransport::new(&dst);
    let err = src.replicate_to(id, &cut_link(&loopback)).unwrap_err();
    assert!(err.is_transient(), "the link died: {err}");
    assert_eq!(loopback.stats().chunks_put, CUT_AFTER);
    assert_eq!(loopback.stats().manifests_put, 0);
    assert_eq!(dst.stats().unwrap().images, 0, "no manifest visible");
    assert_eq!(dst.stats().unwrap().chunks, CUT_AFTER);

    let (remote_id, stats) = src.replicate_to(id, &loopback).unwrap();
    assert_eq!(stats.chunks_total, CHUNKS as usize);
    assert_eq!(stats.chunks_deduped, CUT_AFTER, "landed chunks are skipped");
    assert_eq!(stats.chunks_shipped, CHUNKS as usize - CUT_AFTER);
    assert_eq!(loopback.stats().chunks_put, CHUNKS as usize);
    assert_eq!(stats.has_batches, 3);
    let (back, _) = dst.read_image(remote_id).unwrap();
    assert_eq!(back.regions[0].pages, img.regions[0].pages);
    assert_eq!(back.payloads, img.payloads);
}

#[test]
fn checkpoint_to_remote_cut_mid_transfer_resumes_with_exactly_the_remainder() {
    let dst_dir = TempDir::new("ship-cut-ckpt");
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let space = SharedSpace::new_no_aslr();
    let pages = CHUNKS * 16;
    let a = space
        .mmap(MapRequest::anon(pages * PAGE_SIZE, Half::Upper, "ship-app"))
        .unwrap();
    for page in 0..pages {
        space
            .write_bytes(a + page * PAGE_SIZE, &(page + 1).to_le_bytes())
            .unwrap();
    }
    let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());

    let loopback = LoopbackTransport::new(&dst);
    let err = coord
        .checkpoint_to_remote(&cut_link(&loopback), 1, Compression::None, None)
        .unwrap_err();
    assert!(err.is_transient(), "the link died: {err}");
    assert_eq!(loopback.stats().chunks_put, CUT_AFTER);
    assert_eq!(loopback.stats().manifests_put, 0);
    assert_eq!(dst.stats().unwrap().images, 0, "no manifest visible");

    let (id, _, stats) = coord
        .checkpoint_to_remote(&loopback, 2, Compression::None, None)
        .unwrap();
    assert!(stats.chunks_total >= CHUNKS as usize);
    assert_eq!(stats.chunks_deduped, CUT_AFTER, "landed chunks are skipped");
    assert_eq!(stats.chunks_shipped, stats.chunks_total - CUT_AFTER);
    assert_eq!(loopback.stats().chunks_put, stats.chunks_total);

    let fresh = SharedSpace::new_no_aslr();
    coord.restart_from_store(&dst, id, &fresh).unwrap();
    let mut want = vec![0u8; (pages * PAGE_SIZE) as usize];
    let mut got = want.clone();
    space.read_bytes(a, &mut want).unwrap();
    fresh.read_bytes(a, &mut got).unwrap();
    assert!(want == got, "restored mapping differs");
}

#[test]
fn cold_replicate_over_tcp_fans_puts_over_pooled_connections() {
    let (src_dir, dst_dir) = (TempDir::new("ship-tcp-src"), TempDir::new("ship-tcp-dst"));
    let src = ImageStore::open(src_dir.path()).unwrap();
    let img = image(4, 32);
    let (id, _) = src.write_image(&img, &WriteOptions::full()).unwrap();
    let dst = Arc::new(ImageStore::open(dst_dir.path()).unwrap());
    let server = serve_on("127.0.0.1:0", Arc::clone(&dst), SECRET).unwrap();
    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();

    let (remote_id, stats) = src.replicate_to(id, &tcp).unwrap();
    assert_eq!(stats.chunks_shipped, 32);
    assert_eq!(server.stats().chunk_frames_received, 32);
    let parallel = std::thread::available_parallelism().map_or(1, |n| n.get());
    if parallel >= 2 {
        // The puts demonstrably overlapped on distinct pooled sockets.
        assert!(
            tcp.stats().peak_connections_in_use >= 2,
            "pool peak: {:?}",
            tcp.stats()
        );
    }
    let (back, _) = dst.read_image(remote_id).unwrap();
    assert_eq!(back.regions[0].pages, img.regions[0].pages);
    server.shutdown();
}
