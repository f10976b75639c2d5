//! The outside-in probes measure what they claim: the transport decorator
//! agrees with the server's own frame counters, and the quiesce plugin
//! runs after CRAC's device drain.

use std::sync::Arc;

use crac_repro::imagestore::net::{serve_on, TcpTransport};
use crac_repro::prelude::*;
use crbench::model::Model;
use crbench::probes::{mapped_bytes, QuiescePlugin, TimedTransport, NET_OPS};

const SECRET: &[u8] = b"probe-test";

fn test_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::path::Path::new(".bench_out").join(format!("test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn count(tally: &crbench::probes::NetTally, op: &str) -> u64 {
    tally.count[NET_OPS.iter().position(|o| *o == op).unwrap()]
}

#[test]
fn transport_decorator_counts_match_server_frame_counts() {
    let dir = test_dir("decorator");
    let local = ImageStore::open(dir.join("local")).unwrap();
    let peer = Arc::new(ImageStore::open(dir.join("peer")).unwrap());
    let server = serve_on("127.0.0.1:0", Arc::clone(&peer), SECRET).unwrap();
    let link = TimedTransport::new(TcpTransport::connect(server.local_addr(), SECRET).unwrap());

    let proc = CracProcess::launch(CracConfig::test("probe"), Arc::new(KernelRegistry::new()));
    let model = Model::launch(&proc, 9, 96, 32, 1).unwrap();
    let ck = proc
        .checkpoint_to_store(&local, WriteOptions::full())
        .unwrap();
    let (rid, _) = local.replicate_to(ck.image_id, &link).unwrap();
    let (eager, _, _) = CracProcess::restart_from_remote(
        &link,
        rid,
        CracConfig::test("probe"),
        Arc::new(KernelRegistry::new()),
    )
    .unwrap();
    model.verify_all(&eager).unwrap();
    let (lazy, _, _, stats, ()) = CracProcess::restart_from_remote_lazy(
        &link,
        rid,
        CracConfig::test("probe"),
        Arc::new(KernelRegistry::new()),
        |p| {
            let mut buf = vec![0u8; 4096];
            for page in [0u64, 40, 95] {
                p.space().read_bytes(model.addr_of(page), &mut buf).unwrap();
            }
            Ok(())
        },
    )
    .unwrap();
    model.verify_all(&lazy).unwrap();
    assert_eq!(link.list_manifests().unwrap(), vec![rid]);

    let t = link.take();
    let s = server.stats();
    assert_eq!(count(&t, "has_chunks"), s.has_batches as u64);
    assert_eq!(count(&t, "put_chunk"), s.chunk_frames_received as u64);
    assert_eq!(
        count(&t, "get_chunk") + count(&t, "get_chunk_priority"),
        s.chunks_served as u64
    );
    assert_eq!(count(&t, "get_manifest"), s.manifests_served as u64);
    assert_eq!(count(&t, "put_manifest"), s.manifest_frames_received as u64);
    assert_eq!(t.count.iter().sum::<u64>(), s.frames_served as u64);
    assert_eq!(t.errors, 0);
    for op in NET_OPS {
        assert!(count(&t, op) > 0, "{op} was exercised");
    }
    // The lazy restore's faults reached the decorator's priority method
    // (the trait default would have booked them as plain `get_chunk`).
    assert!(stats.chunks_faulted > 0);
    assert!(count(&t, "get_chunk_priority") >= stats.chunks_faulted);
    drop(link);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quiesce_plugin_runs_after_the_crac_drain() {
    let dir = test_dir("quiesce");
    let store = ImageStore::open(&dir).unwrap();
    let mut proc = CracProcess::launch(CracConfig::test("probe"), Arc::new(KernelRegistry::new()));
    let plugin = Arc::new(QuiescePlugin::new(proc.space().clone(), None));
    proc.register_plugin(plugin.clone());
    let device_pages = 48;
    let _model = Model::launch(&proc, 3, 16, device_pages, 1).unwrap();
    let before = mapped_bytes(proc.space());

    proc.checkpoint_to_store(&store, WriteOptions::full())
        .unwrap();

    // CRAC's drain staged every device byte into fresh upper-half memory
    // before the benchmark plugin's hook ran ...
    assert!(
        plugin.mapped_at_quiesce() >= before + device_pages * 4096,
        "staging visible at quiesce: {} vs {before}",
        plugin.mapped_at_quiesce()
    );
    // ... and released it again on resume.
    assert_eq!(mapped_bytes(proc.space()), before);
    let (q, r) = (plugin.quiesced_at().unwrap(), plugin.resumed_at().unwrap());
    assert!(q <= r);
    let _ = std::fs::remove_dir_all(&dir);
}
