//! Image-store I/O bench: full vs. incremental vs. compressed checkpoint
//! image write and read throughput through `crac-imagestore`.
//!
//! Alongside the criterion timings it prints the storage-volume comparison
//! the store exists for: an incremental checkpoint with ~5 % dirty pages
//! must write a small fraction of the bytes a full checkpoint writes.

use criterion::{criterion_group, criterion_main, Criterion};

use crac_addrspace::{Addr, PageRun, Prot, SharedSpace, PAGE_SIZE};
use crac_dmtcp::{CheckpointImage, Coordinator, CoordinatorConfig, RegionDescriptor, SavedRegion};
use crac_imagestore::testutil::TempDir;
use crac_imagestore::{
    ChunkSink, Compression, CoordinatorStoreExt, ImageStore, LoopbackTransport, WriteOptions,
};

/// One synthetic page's content (shared by the materialised and streaming
/// producers so both write identical bytes).
fn page_content(r: usize, i: u64) -> Vec<u8> {
    let mut page = vec![(r as u8) ^ (i as u8); PAGE_SIZE as usize];
    if i.is_multiple_of(4) {
        // A quarter of the pages are incompressible (the rest
        // model zero/constant fills, which dominate real ckpts).
        for (j, b) in page.iter_mut().enumerate() {
            *b = (j as u8).wrapping_mul(31).wrapping_add(i as u8);
        }
    }
    // Unique stamp: no two pages are identical, so intra-image
    // dedup cannot skew the full-write baseline.
    page[..8].copy_from_slice(&(((r as u64) << 32) | (i + 1)).to_le_bytes());
    page
}

/// A checkpoint image with `regions` regions of `pages_per_region` dirty
/// pages each (mixed compressible / incompressible content).
fn build_image(regions: usize, pages_per_region: u64) -> CheckpointImage {
    let mut image = CheckpointImage {
        taken_at_ns: 1_000_000,
        ..Default::default()
    };
    for r in 0..regions {
        let pages = (0..pages_per_region)
            .map(|i| (i, page_content(r, i)))
            .collect();
        image.regions.push(SavedRegion {
            start: Addr(0x4000_0000_0000 + ((r as u64) << 28)),
            len: pages_per_region * PAGE_SIZE,
            prot: Prot::RW,
            label: format!("bench-region-{r}"),
            pages,
        });
    }
    image.payloads.insert("crac".into(), vec![0xAB; 64 << 10]);
    image
}

/// Streams the same synthetic checkpoint straight into a sink, generating
/// page content run by run — the producer never holds more than one run
/// buffer, exactly like the coordinator's streaming walk.
fn stream_synthetic(
    sink: &mut dyn ChunkSink,
    regions: usize,
    pages_per_region: u64,
) -> Result<(), crac_imagestore::StoreError> {
    const RUN_PAGES: u64 = 16;
    let mut buf = Vec::with_capacity((RUN_PAGES * PAGE_SIZE) as usize);
    for r in 0..regions {
        sink.begin_region(&RegionDescriptor {
            start: Addr(0x4000_0000_0000 + ((r as u64) << 28)),
            len: pages_per_region * PAGE_SIZE,
            prot: Prot::RW,
            label: format!("bench-region-{r}"),
        })?;
        let mut first = 0u64;
        while first < pages_per_region {
            let take = RUN_PAGES.min(pages_per_region - first);
            buf.clear();
            for i in first..first + take {
                buf.extend_from_slice(&page_content(r, i));
            }
            sink.push_run(PageRun { first, count: take }, &buf)?;
            first += take;
        }
        sink.end_region()?;
    }
    sink.push_payload("crac", &vec![0xAB; 64 << 10])?;
    Ok(())
}

/// Rewrites a contiguous ~`percent`% of each region's pages, modelling the
/// clustered write sets real applications produce (hot buffers, not a page
/// sprayed every N pages — scattered singles would touch nearly every
/// chunk and erase the incremental win).
fn dirty_some_pages(image: &mut CheckpointImage, percent: u64) {
    for region in &mut image.regions {
        let total = region.pages.len() as u64;
        let dirty = (total * percent / 100).max(1);
        for (idx, page) in &mut region.pages {
            if *idx < dirty {
                page.fill(0xD1);
                page[..8].copy_from_slice(&(0xD1D1_0000_0000_0000u64 | *idx).to_le_bytes());
            }
        }
    }
}

fn bench_image_io(c: &mut Criterion) {
    let mut group = c.benchmark_group("ckpt_image_io");
    group.sample_size(10);

    // 8 regions × 256 pages × 4 KiB = 8 MiB of dirty page content.
    let image = build_image(8, 256);
    let mut incremental = image.clone();
    dirty_some_pages(&mut incremental, 5);

    group.bench_function("write_full", |b| {
        b.iter(|| {
            let dir = TempDir::new("bench-full");
            let store = ImageStore::open(dir.path()).unwrap();
            store.write_image(&image, &WriteOptions::full()).unwrap()
        })
    });

    group.bench_function("write_full_rle", |b| {
        b.iter(|| {
            let dir = TempDir::new("bench-rle");
            let store = ImageStore::open(dir.path()).unwrap();
            store
                .write_image(
                    &image,
                    &WriteOptions::full().with_compression(Compression::Rle),
                )
                .unwrap()
        })
    });

    group.bench_function("write_incremental_5pct", |b| {
        b.iter(|| {
            let dir = TempDir::new("bench-incr");
            let store = ImageStore::open(dir.path()).unwrap();
            let (parent, _) = store.write_image(&image, &WriteOptions::full()).unwrap();
            store
                .write_image(&incremental, &WriteOptions::incremental(parent))
                .unwrap()
        })
    });

    let dir = TempDir::new("bench-read");
    let store = ImageStore::open(dir.path()).unwrap();
    let (id, _) = store.write_image(&image, &WriteOptions::full()).unwrap();
    group.bench_function("read_verify", |b| b.iter(|| store.read_image(id).unwrap()));
    group.finish();

    // Streaming vs. materialise-then-write: identical bytes, two producer
    // shapes.  The "materialise" variant is the pre-streaming architecture
    // (build the full in-memory image, then hand it to the store); the
    // "streaming" variant generates runs on the fly and never holds the
    // image — it must be at least as fast, while buffering O(queue-depth)
    // instead of O(image).
    let mut group = c.benchmark_group("ckpt_image_io_streaming");
    group.sample_size(10);
    group.bench_function("materialise_then_write", |b| {
        b.iter(|| {
            let dir = TempDir::new("bench-mat");
            let store = ImageStore::open(dir.path()).unwrap();
            let image = build_image(8, 256);
            store.write_image(&image, &WriteOptions::full()).unwrap()
        })
    });
    group.bench_function("streaming_write", |b| {
        b.iter(|| {
            let dir = TempDir::new("bench-stream");
            let store = ImageStore::open(dir.path()).unwrap();
            store
                .stream_image(&WriteOptions::full(), |w| stream_synthetic(w, 8, 256))
                .unwrap()
        })
    });
    group.finish();

    // Streaming vs. barrier restore: identical restored bytes, two
    // consumer shapes.  The "barrier" variant is the pre-streaming
    // restore architecture (fetch and verify every chunk, materialise the
    // full in-memory image, then splice it into the space); the
    // "streaming" variant splices verified chunks into the space as they
    // arrive — fetch/verify overlaps the splice, and it buffers
    // O(queue-depth) instead of O(image).
    {
        let mut group = c.benchmark_group("ckpt_image_io_restore");
        group.sample_size(10);
        let dir = TempDir::new("bench-restore");
        let store = ImageStore::open(dir.path()).unwrap();
        let image = build_image(8, 256);
        let (id, _) = store.write_image(&image, &WriteOptions::full()).unwrap();
        let coord = Coordinator::new(SharedSpace::new_no_aslr(), CoordinatorConfig::default());
        group.bench_function("barrier_restore", |b| {
            b.iter(|| {
                let space = SharedSpace::new_no_aslr();
                let (image, stats) = store.read_image(id).unwrap();
                (coord.restart_into(&image, &space), stats)
            })
        });
        group.bench_function("streaming_restore", |b| {
            b.iter(|| {
                let space = SharedSpace::new_no_aslr();
                coord.restart_from_store(&store, id, &space).unwrap()
            })
        });
        group.finish();

        // Peak-buffering report for the same restore, both shapes: the
        // barrier path holds the whole image's stored bytes at once by
        // construction; the streaming path is bounded by the queues.
        let space = SharedSpace::new_no_aslr();
        let (_, stream) = coord.restart_from_store(&store, id, &space).unwrap();
        println!(
            "\nckpt_image_io restore: image stored {} KiB; streaming splice peak buffer {} KiB \
             (bound {} KiB; barrier path holds the full image)",
            image.stored_size() >> 10,
            stream.peak_buffered_bytes >> 10,
            crac_imagestore::restore_buffer_bound(stream.threads_used) >> 10,
        );
    }

    // Peak-buffering report for the same write, both shapes.
    {
        let dir = TempDir::new("bench-peak");
        let store = ImageStore::open(dir.path()).unwrap();
        let image = build_image(8, 256);
        let (_, mat) = store.write_image(&image, &WriteOptions::full()).unwrap();
        let dir2 = TempDir::new("bench-peak-stream");
        let store2 = ImageStore::open(dir2.path()).unwrap();
        let (_, (), stream) = store2
            .stream_image(&WriteOptions::full(), |w| stream_synthetic(w, 8, 256))
            .unwrap();
        println!(
            "\nckpt_image_io streaming: raw payload {} KiB; pipeline peak buffer \
             materialised-source={} KiB streamed-source={} KiB (bound {} KiB)",
            stream.raw_chunk_bytes >> 10,
            mat.peak_buffered_bytes >> 10,
            stream.peak_buffered_bytes >> 10,
            crac_imagestore::stream_buffer_bound(stream.threads_used) >> 10,
        );
    }

    // Remote replication over the loopback transport: cold (empty peer —
    // every chunk travels) vs. warm incremental (the peer already holds
    // the parent — only the dirty delta travels).  The dedup negotiation
    // is what a real network deployment lives on.
    {
        let mut group = c.benchmark_group("ckpt_image_io_replicate");
        group.sample_size(10);
        let src_dir = TempDir::new("bench-repl-src");
        let src = ImageStore::open(src_dir.path()).unwrap();
        let (parent, _) = src.write_image(&image, &WriteOptions::full()).unwrap();
        let (child, _) = src
            .write_image(&incremental, &WriteOptions::incremental(parent))
            .unwrap();
        group.bench_function("replicate_cold", |b| {
            b.iter(|| {
                let dst_dir = TempDir::new("bench-repl-cold");
                let dst = ImageStore::open(dst_dir.path()).unwrap();
                let transport = LoopbackTransport::new(&dst);
                src.replicate_to(parent, &transport).unwrap()
            })
        });
        group.bench_function("replicate_incremental_5pct", |b| {
            b.iter(|| {
                let dst_dir = TempDir::new("bench-repl-warm");
                let dst = ImageStore::open(dst_dir.path()).unwrap();
                let transport = LoopbackTransport::new(&dst);
                src.replicate_to(parent, &transport).unwrap();
                src.replicate_to(child, &transport).unwrap()
            })
        });
        group.finish();

        // Shipping-volume report: how much the negotiation saves.
        let dst_dir = TempDir::new("bench-repl-report");
        let dst = ImageStore::open(dst_dir.path()).unwrap();
        let transport = LoopbackTransport::new(&dst);
        let (_, cold) = src.replicate_to(parent, &transport).unwrap();
        let (_, warm) = src.replicate_to(child, &transport).unwrap();
        let (_, resync) = src.replicate_to(child, &transport).unwrap();
        println!(
            "\nckpt_image_io replicate: cold shipped {}/{} chunks ({} KiB); \
             incremental shipped {}/{} ({} KiB, {:.1}% dedup); re-sync shipped {} chunks",
            cold.chunks_shipped,
            cold.chunks_total,
            cold.bytes_shipped >> 10,
            warm.chunks_shipped,
            warm.chunks_total,
            warm.bytes_shipped >> 10,
            100.0 * warm.dedup_ratio(),
            resync.chunks_shipped,
        );
    }

    // The same replication over real localhost TCP — the pooled,
    // authenticated client against the thread-per-connection server —
    // measuring what the socket, framing and auth handshake add on top
    // of the in-process loopback numbers above.
    {
        use crac_imagestore::net::{serve_on, TcpTransport};
        use std::sync::Arc;
        const SECRET: &[u8] = b"bench-secret";
        let mut group = c.benchmark_group("ckpt_image_io_replicate_tcp");
        group.sample_size(10);
        let src_dir = TempDir::new("bench-tcp-src");
        let src = ImageStore::open(src_dir.path()).unwrap();
        let (parent, _) = src.write_image(&image, &WriteOptions::full()).unwrap();
        let (child, _) = src
            .write_image(&incremental, &WriteOptions::incremental(parent))
            .unwrap();
        group.bench_function("tcp_replicate_cold", |b| {
            b.iter(|| {
                let dst_dir = TempDir::new("bench-tcp-cold");
                let dst = Arc::new(ImageStore::open(dst_dir.path()).unwrap());
                let server = serve_on("127.0.0.1:0", Arc::clone(&dst), SECRET).unwrap();
                let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
                let out = src.replicate_to(parent, &tcp).unwrap();
                server.shutdown();
                out
            })
        });
        group.bench_function("tcp_replicate_incremental_5pct", |b| {
            b.iter(|| {
                let dst_dir = TempDir::new("bench-tcp-warm");
                let dst = Arc::new(ImageStore::open(dst_dir.path()).unwrap());
                let server = serve_on("127.0.0.1:0", Arc::clone(&dst), SECRET).unwrap();
                let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
                src.replicate_to(parent, &tcp).unwrap();
                let out = src.replicate_to(child, &tcp).unwrap();
                server.shutdown();
                out
            })
        });
        group.finish();

        // Wire-volume report straight off the server's frame counters.
        let dst_dir = TempDir::new("bench-tcp-report");
        let dst = Arc::new(ImageStore::open(dst_dir.path()).unwrap());
        let server = serve_on("127.0.0.1:0", Arc::clone(&dst), SECRET).unwrap();
        let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
        let (_, cold) = src.replicate_to(parent, &tcp).unwrap();
        let (_, warm) = src.replicate_to(child, &tcp).unwrap();
        let stats = server.stats();
        println!(
            "\nckpt_image_io replicate_tcp: server received {} chunk frames / {} KiB \
             (cold {} + incremental {}); pool opened {} connection(s), peak in use {}",
            stats.chunk_frames_received,
            stats.chunk_bytes_received >> 10,
            cold.chunks_shipped,
            warm.chunks_shipped,
            tcp.stats().connections_opened,
            tcp.stats().peak_connections_in_use,
        );
        server.shutdown();
    }

    // Storage-volume report (the store's reason to exist).
    let dir = TempDir::new("bench-report");
    let store = ImageStore::open(dir.path()).unwrap();
    let (parent, full) = store.write_image(&image, &WriteOptions::full()).unwrap();
    let (_, incr) = store
        .write_image(&incremental, &WriteOptions::incremental(parent))
        .unwrap();
    let (_, rle) = {
        let dir = TempDir::new("bench-report-rle");
        let store = ImageStore::open(dir.path()).unwrap();
        store
            .write_image(
                &image,
                &WriteOptions::full().with_compression(Compression::Rle),
            )
            .unwrap()
    };
    println!(
        "\nckpt_image_io volume: full={} KiB  incremental(5% dirty)={} KiB ({:.1}% of full)  rle={} KiB ({:.1}% of full)",
        full.bytes_written() >> 10,
        incr.bytes_written() >> 10,
        100.0 * incr.bytes_written() as f64 / full.bytes_written() as f64,
        rle.bytes_written() >> 10,
        100.0 * rle.bytes_written() as f64 / full.bytes_written() as f64,
    );
    println!(
        "ckpt_image_io chunks: full wrote {}/{} chunks, incremental wrote {}/{} (deduped {})",
        full.chunks_written,
        full.chunks_total,
        incr.chunks_written,
        incr.chunks_total,
        incr.chunks_deduped,
    );

    // Integrity-primitive throughput (`hash_throughput`): single-thread
    // MB/s of the content hash and of CRC-32 over one 64 KiB chunk — the
    // per-byte cost every written, shipped and restored chunk pays.  CRC-32
    // is timed twice: as dispatched (`crc32_kernel` names the path this
    // machine took) and through the portable tables alone.
    {
        use crac_imagestore::hash::{crc32, crc32_kernel, crc32_portable};
        use crac_imagestore::ContentHash;
        use std::hint::black_box;

        let chunk: Vec<u8> = (0..16).flat_map(|i| page_content(0, i)).collect();
        let mb_per_s = |digest: &dyn Fn(&[u8])| {
            const ROUNDS: u32 = 2000;
            let t0 = std::time::Instant::now();
            for _ in 0..ROUNDS {
                digest(black_box(&chunk));
            }
            f64::from(ROUNDS) * chunk.len() as f64 / t0.elapsed().as_secs_f64() / 1e6
        };
        let hash_mb_s = mb_per_s(&|b| {
            black_box(ContentHash::of(b));
        });
        let crc_mb_s = mb_per_s(&|b| {
            black_box(crc32(b));
        });
        let portable_mb_s = mb_per_s(&|b| {
            black_box(crc32_portable(b));
        });
        println!(
            "\n{{\"bench\":\"hash_throughput\",\"bytes\":{},\
             \"content_hash_mb_s\":{hash_mb_s:.0},\"crc32_mb_s\":{crc_mb_s:.0},\
             \"crc32_portable_mb_s\":{portable_mb_s:.0},\"crc32_kernel\":\"{}\"}}",
            chunk.len(),
            crc32_kernel()
        );
    }

    // Per-stage timing breakdown from the observability registry: one
    // machine-readable JSON line per operation (greppable as
    // `ckpt_image_io_stages`), carving the wall time into the pipeline
    // stages the registry timed — where does a write actually go: hash,
    // dedup, encode, or I/O?
    {
        use crac_imagestore::{ObsRegistry, Snapshot};

        fn stage_line(op: &str, wall_us: u128, snap: &Snapshot, stages: &[(&str, &str)]) {
            let fields: Vec<String> = stages
                .iter()
                .filter_map(|(key, metric)| {
                    let h = snap.histogram(metric)?;
                    Some(format!(
                        "\"{key}\":{{\"count\":{},\"sum_us\":{}}}",
                        h.count, h.sum
                    ))
                })
                .collect();
            println!(
                "{{\"bench\":\"ckpt_image_io_stages\",\"op\":\"{op}\",\"wall_us\":{wall_us},\
                 \"stages\":{{{}}}}}",
                fields.join(",")
            );
        }

        let dir = TempDir::new("bench-stages");
        let store = ImageStore::open(dir.path()).unwrap();
        let write_reg = ObsRegistry::new();
        store.adopt_obs(write_reg.clone());
        let t0 = std::time::Instant::now();
        let (id, _) = store.write_image(&image, &WriteOptions::full()).unwrap();
        let write_wall = t0.elapsed();
        println!();
        stage_line(
            "write_full",
            write_wall.as_micros(),
            &write_reg.snapshot(),
            &[
                ("hash", "crac_writer_stage_hash_us"),
                ("dedup", "crac_writer_stage_dedup_us"),
                ("encode", "crac_writer_stage_encode_us"),
                ("io", "crac_writer_stage_io_us"),
            ],
        );

        let read_reg = ObsRegistry::new();
        store.adopt_obs(read_reg.clone());
        let t1 = std::time::Instant::now();
        store.read_image(id).unwrap();
        let read_wall = t1.elapsed();
        stage_line(
            "read_verify",
            read_wall.as_micros(),
            &read_reg.snapshot(),
            &[
                ("fetch", "crac_reader_stage_fetch_us"),
                ("verify", "crac_reader_stage_verify_us"),
                ("splice", "crac_reader_stage_splice_us"),
            ],
        );

        // Instrumentation-overhead estimate: measure the unit cost of a
        // span (two clock reads + three relaxed atomic adds) and of a
        // counter increment, scale by how many the write actually
        // recorded, and report that against the write's wall time.  The
        // acceptance bar is ≤ 5%; in practice this lands far below 1%.
        use crac_imagestore::{Buckets, Span};
        let probe = ObsRegistry::new();
        let h = probe.histogram("probe_us", Buckets::LATENCY_US);
        let c = probe.counter("probe_total");
        const N: u32 = 1_000_000;
        let t = std::time::Instant::now();
        for _ in 0..N {
            Span::enter(&h).finish();
        }
        let span_ns = t.elapsed().as_nanos() as f64 / N as f64;
        let t = std::time::Instant::now();
        for _ in 0..N {
            c.inc();
        }
        let counter_ns = t.elapsed().as_nanos() as f64 / N as f64;
        let snap = write_reg.snapshot();
        let spans_recorded: u64 = [
            "crac_writer_stage_hash_us",
            "crac_writer_stage_dedup_us",
            "crac_writer_stage_encode_us",
            "crac_writer_stage_io_us",
        ]
        .iter()
        .filter_map(|m| snap.histogram(m))
        .map(|h| h.count)
        .sum();
        // Counter traffic scales with chunks; ~6 counter touches per
        // chunk is a deliberate over-estimate.
        let counter_ops = snap.counter("crac_writer_chunks_total") * 6;
        let overhead_ns = spans_recorded as f64 * span_ns + counter_ops as f64 * counter_ns;
        let overhead_pct = 100.0 * overhead_ns / write_wall.as_nanos() as f64;
        println!(
            "ckpt_image_io obs_overhead: span {span_ns:.0} ns, counter {counter_ns:.1} ns; \
             write recorded {spans_recorded} spans + ~{counter_ops} counter ops \
             = {overhead_pct:.3}% of the {} µs write (bar: 5%)",
            write_wall.as_micros(),
        );
        assert!(
            overhead_pct <= 5.0,
            "instrumentation overhead {overhead_pct:.2}% blew the 5% budget"
        );

        // Same treatment for the instrumented sync layer: measure the
        // unit cost of a crac-sync lock/unlock round trip against a raw
        // std mutex, scale the *delta* by a deliberate over-estimate of
        // lock acquisitions on the checkpoint hot path (~8 per chunk:
        // job queue send/recv, claim, index probe, publish, error
        // checks), and report it against the write's wall time.  In
        // release the wrappers compile to passthrough and the bar is
        // ≤ 1%; in instrumented builds the number is reported only.
        let wrapped = crac_sync::Mutex::new("bench.sync_probe", 0u64);
        let t = std::time::Instant::now();
        for _ in 0..N {
            *wrapped.lock() += 1;
        }
        let wrapped_ns = t.elapsed().as_nanos() as f64 / N as f64;
        // The raw baseline is the one deliberate raw lock in the workspace.
        #[allow(clippy::disallowed_types)]
        let raw = std::sync::Mutex::new(0u64);
        let t = std::time::Instant::now();
        for _ in 0..N {
            *raw.lock().unwrap() += 1;
        }
        let raw_ns = t.elapsed().as_nanos() as f64 / N as f64;
        let delta_ns = (wrapped_ns - raw_ns).max(0.0);
        let lock_ops = snap.counter("crac_writer_chunks_total") * 8;
        let sync_pct = 100.0 * (lock_ops as f64 * delta_ns) / write_wall.as_nanos() as f64;
        println!(
            "ckpt_image_io sync_overhead: crac-sync lock {wrapped_ns:.1} ns vs raw {raw_ns:.1} ns \
             (delta {delta_ns:.1} ns); ~{lock_ops} hot-path acquisitions \
             = {sync_pct:.4}% of the {} µs write (bar: 1%, instrumented: {})",
            write_wall.as_micros(),
            crac_sync::instrumented(),
        );
        if !crac_sync::instrumented() {
            assert!(
                sync_pct <= 1.0,
                "release sync passthrough overhead {sync_pct:.3}% blew the 1% budget"
            );
        }
    }

    // Pre-copy vs stop-the-world: the stop window is the claim.  A
    // background mutator thread races the concurrent bulk copy and delta
    // rounds and is quiesced (via the plugin hook, like a real
    // application) only for the final pass — so the stop window covers
    // the residual dirty delta, not the image.  Reported as greppable
    // JSON lines (`ckpt_image_io_precopy`): stop window vs dirty delta
    // vs image size, for increasing write-set sizes.
    {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        use crac_addrspace::{Half, MapRequest};
        use crac_dmtcp::{DmtcpPlugin, PrecopyConfig};

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

        /// A live space with `regions` × `pages` of real page content.
        fn live_space(regions: usize, pages: u64) -> (SharedSpace, Vec<Addr>) {
            let space = SharedSpace::new_no_aslr();
            let mut addrs = Vec::new();
            for r in 0..regions {
                let a = space
                    .mmap(MapRequest::anon(
                        pages * PAGE_SIZE,
                        Half::Upper,
                        &format!("bench-live-{r}"),
                    ))
                    .unwrap();
                for i in 0..pages {
                    space
                        .write_bytes(a + i * PAGE_SIZE, &page_content(r, i))
                        .unwrap();
                }
                addrs.push(a);
            }
            (space, addrs)
        }

        /// Runs one pre-copy checkpoint with a mutator hammering a
        /// `hot_pages`-page working set until the final quiesce stops it.
        fn precopy_once(
            regions: usize,
            pages: u64,
            hot_pages: u64,
            cfg: PrecopyConfig,
        ) -> (crac_dmtcp::PrecopyStats, u64) {
            let (space, addrs) = live_space(regions, pages);
            let stop = Arc::new(AtomicBool::new(false));
            let acked = Arc::new(AtomicBool::new(false));
            let mut coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
            coord.register_plugin(Arc::new(StopMutator {
                stop: Arc::clone(&stop),
                acked: Arc::clone(&acked),
            }));
            let (mut_space, hot_base) = (space.clone(), addrs[0]);
            let mutator = std::thread::spawn(move || {
                let mut v = 0u8;
                while !stop.load(Ordering::SeqCst) {
                    for p in 0..hot_pages {
                        mut_space
                            .write_bytes(hot_base + p * PAGE_SIZE, &[v; 256])
                            .unwrap();
                    }
                    v = v.wrapping_add(1);
                }
                acked.store(true, Ordering::SeqCst);
            });
            let dir = TempDir::new("bench-precopy");
            let store = ImageStore::open(dir.path()).unwrap();
            let (_, pre, _) = coord
                .checkpoint_to_store_precopy(&store, 0, &WriteOptions::full(), cfg)
                .unwrap();
            mutator.join().unwrap();
            // Memory is static now: a stop-the-world checkpoint of the
            // same space gives the O(image) window pre-copy replaces.
            let stw_coord = Coordinator::new(space, CoordinatorConfig::default());
            let dir2 = TempDir::new("bench-precopy-stw");
            let store2 = ImageStore::open(dir2.path()).unwrap();
            stw_coord
                .checkpoint_to_store(&store2, 0, &WriteOptions::full())
                .unwrap();
            let snap = stw_coord.obs().snapshot();
            let stw_window_us = snap
                .histogram("crac_ckpt_stop_window_us")
                .map(|h| h.sum)
                .unwrap_or(0);
            (pre, stw_window_us)
        }

        let mut group = c.benchmark_group("ckpt_image_io_precopy");
        group.sample_size(10);
        group.bench_function("stw_checkpoint", |b| {
            b.iter(|| {
                let (space, _) = live_space(4, 256);
                let coord = Coordinator::new(space, CoordinatorConfig::default());
                let dir = TempDir::new("bench-stw-iter");
                let store = ImageStore::open(dir.path()).unwrap();
                coord
                    .checkpoint_to_store(&store, 0, &WriteOptions::full())
                    .unwrap()
            })
        });
        group.bench_function("precopy_checkpoint", |b| {
            b.iter(|| precopy_once(4, 256, 32, PrecopyConfig::default()))
        });
        group.finish();

        // Stop-window report: the window must track the residual dirty
        // delta (growing with the hot set) and stay strictly below the
        // stop-the-world walk of the whole image.
        println!();
        for hot in [16u64, 64, 256] {
            let (pre, stw_us) = precopy_once(4, 512, hot, PrecopyConfig::default());
            let precopy_us = pre.stop_window_ns / 1_000;
            println!(
                "{{\"bench\":\"ckpt_image_io_precopy\",\"op\":\"stop_window\",\
                 \"hot_pages\":{hot},\"image_bytes\":{},\"final_dirty_pages\":{},\
                 \"rounds\":{},\"converged\":{},\"precopy_stop_window_us\":{precopy_us},\
                 \"stw_stop_window_us\":{stw_us}}}",
                pre.ckpt.image_bytes, pre.final_dirty_pages, pre.rounds, pre.converged,
            );
            assert!(
                precopy_us < stw_us,
                "pre-copy stop window ({precopy_us} µs) must beat the \
                 stop-the-world walk ({stw_us} µs)"
            );
        }

        // Run-coalescing report: on a scattered dirty set (every other
        // page), bridging small clean gaps turns many one-page runs into
        // few long ones — fewer per-run sink calls and manifest entries,
        // for a bounded redundant-byte cost.
        for gap in [0u64, 2] {
            let space = SharedSpace::new_no_aslr();
            let a = space
                .mmap(MapRequest::anon(
                    512 * PAGE_SIZE,
                    Half::Upper,
                    "bench-sparse",
                ))
                .unwrap();
            // Materialise only every other page: exact runs are all one
            // page long.
            let dirty: Vec<u64> = (0..512).step_by(2).collect();
            for &p in &dirty {
                space.write_bytes(a + p * PAGE_SIZE, &[0xEE; 64]).unwrap();
            }
            let runs = crac_addrspace::page_runs_coalesced(dirty.iter().copied(), gap).len();
            let coord = Coordinator::new(space, CoordinatorConfig::default());
            let dir = TempDir::new("bench-precopy-gap");
            let store = ImageStore::open(dir.path()).unwrap();
            let t0 = std::time::Instant::now();
            let (_, pre, write) = coord
                .checkpoint_to_store_precopy(
                    &store,
                    0,
                    &WriteOptions::full(),
                    PrecopyConfig {
                        max_run_gap: gap,
                        ..Default::default()
                    },
                )
                .unwrap();
            println!(
                "{{\"bench\":\"ckpt_image_io_precopy\",\"op\":\"run_coalescing\",\
                 \"max_run_gap\":{gap},\"runs\":{runs},\"bulk_bytes\":{},\
                 \"chunks_written\":{},\"wall_us\":{}}}",
                pre.round_bytes[0],
                write.chunks_written,
                t0.elapsed().as_micros(),
            );
        }
    }

    // Lazy vs eager restore: time-to-resume is the claim.  The eager path
    // resumes only after the full 8 MiB image is fetched, verified and
    // spliced; the lazy path resumes after mapping the skeleton and
    // declaring pages absent — O(metadata) — then services first touches
    // at priority while a background sweep completes the restore.
    // Reported as greppable JSON lines (`ckpt_image_io_lazy`).
    {
        let dir = TempDir::new("bench-lazy");
        let store = ImageStore::open(dir.path()).unwrap();
        // 8 regions × 256 pages × 4 KiB = 8 MiB.
        let image = build_image(8, 256);
        let (id, _) = store.write_image(&image, &WriteOptions::full()).unwrap();
        let starts: Vec<Addr> = image.regions.iter().map(|r| r.start).collect();

        /// One full lazy restore touching a `hot` pages-per-region working
        /// set while the prefetch sweep races; returns the session's stats.
        fn lazy_once(
            store: &ImageStore,
            id: crac_imagestore::ImageId,
            starts: &[Addr],
            hot: u64,
        ) -> (
            crac_imagestore::ReadStats,
            crac_imagestore::LazyRestoreStats,
        ) {
            let space = SharedSpace::new_no_aslr();
            let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
            let session = coord.open_lazy_restore(store, id).unwrap();
            session.attach(&coord, &space);
            std::thread::scope(|scope| {
                session.spawn_workers(scope);
                let mut b = [0u8; 1];
                for &start in starts {
                    for p in 0..hot {
                        space.read_bytes(start + p * 7 * PAGE_SIZE, &mut b).unwrap();
                    }
                }
                session.drain().unwrap();
            });
            space.clear_fault_handler();
            session.finish()
        }

        let mut group = c.benchmark_group("ckpt_image_io_lazy");
        group.sample_size(10);
        group.bench_function("eager_full_restore", |b| {
            b.iter(|| {
                let space = SharedSpace::new_no_aslr();
                let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
                coord.restart_from_store(&store, id, &space).unwrap()
            })
        });
        group.bench_function("lazy_resume", |b| {
            // Resume latency alone: declare + map + install the handler,
            // then tear the session down without fetching anything.
            b.iter(|| {
                let space = SharedSpace::new_no_aslr();
                let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
                let session = coord.open_lazy_restore(&store, id).unwrap();
                let stats = session.attach(&coord, &space);
                session.abort();
                space.clear_fault_handler();
                (stats, session.finish())
            })
        });
        group.bench_function("lazy_restore_hot32", |b| {
            b.iter(|| lazy_once(&store, id, &starts, 32))
        });
        group.finish();

        // Headline report: declare→resume latency vs the eager restore's
        // completion, measured on the same image, same store, same machine.
        let eager_space = SharedSpace::new_no_aslr();
        let eager_coord = Coordinator::new(eager_space.clone(), CoordinatorConfig::default());
        let t0 = std::time::Instant::now();
        eager_coord
            .restart_from_store(&store, id, &eager_space)
            .unwrap();
        let eager_us = t0.elapsed().as_micros().max(1) as u64;

        let (read, lazy) = lazy_once(&store, id, &starts, 32);
        let resume_us = read.resume_us.max(1);
        let snap = {
            // The fault-service histogram lands on the coordinator registry
            // the session recorded into; grab a fresh run for the snapshot.
            let space = SharedSpace::new_no_aslr();
            let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
            let session = coord.open_lazy_restore(&store, id).unwrap();
            session.attach(&coord, &space);
            std::thread::scope(|scope| {
                session.spawn_workers(scope);
                let mut b = [0u8; 1];
                for &start in &starts {
                    space.read_bytes(start, &mut b).unwrap();
                }
                session.drain().unwrap();
            });
            space.clear_fault_handler();
            session.finish();
            coord.obs().snapshot()
        };
        let (fault_count, fault_sum_us) = snap
            .histogram("crac_fault_service_us")
            .map(|h| (h.count, h.sum))
            .unwrap_or((0, 0));
        println!(
            "\n{{\"bench\":\"ckpt_image_io_lazy\",\"op\":\"resume_latency\",\
             \"image_bytes\":{},\"eager_full_restore_us\":{eager_us},\
             \"lazy_resume_us\":{resume_us},\"speedup\":{:.1},\
             \"chunks_at_resume\":{},\"faults_served\":{},\
             \"chunks_faulted\":{},\"chunks_prefetched\":{},\
             \"fault_service_count\":{fault_count},\"fault_service_sum_us\":{fault_sum_us}}}",
            8u64 << 20,
            eager_us as f64 / resume_us as f64,
            lazy.chunks_at_resume,
            lazy.faults_served,
            lazy.chunks_faulted,
            lazy.chunks_prefetched,
        );
        assert_eq!(lazy.chunks_at_resume, 0, "lazy resume fetched page bytes");
        assert!(
            resume_us * 10 <= eager_us,
            "lazy resume ({resume_us} µs) must be ≥10x below the eager \
             full restore ({eager_us} µs) on the 8 MiB image"
        );
    }
}

criterion_group!(benches, bench_image_io);
criterion_main!(benches);
