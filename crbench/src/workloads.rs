//! The three closed-loop workloads.  Each runs in this one process: the
//! application (a `CracProcess` with seeded memory), the loop that
//! checkpoints and restarts it, and — for the TCP workloads — the peer
//! node's server, reached through one authenticated `TcpTransport` on
//! localhost.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crac_repro::imagestore::net::{serve_on, ServerHandle, TcpTransport};
use crac_repro::imagestore::{ReadStats, ReplicateStats, WriteStats};
use crac_repro::prelude::*;

use crate::model::{Model, Rng, VerifyError, PAGE, SCRATCH_PAGES};
use crate::probes::{AppGate, NetTally, QuiescePlugin, ResumeMode, TimedTransport};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Scale, Workload};

/// Shared secret of the benchmark's peer server.
const SECRET: &[u8] = b"crbench-peer-secret";

/// Images each store keeps after garbage collection: the newest one is
/// the next checkpoint's parent, the one before it a restart fallback.
const KEEP_IMAGES: usize = 2;

/// Share of the image a restarted application touches first.
const WORKING_SET: f64 = 0.10;

/// Pause between two writes of the migrating application's hot set.
const HOT_WRITE_PAUSE: Duration = Duration::from_micros(200);

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Everything one run measured.
#[derive(Default)]
pub struct Rec {
    pub setup_s: Samples,
    pub ckpt: Samples,
    pub restart: Samples,
    pub downtime: Samples,
    pub warm: Samples,
    pub replicate: Samples,
    pub touch_us: Samples,
    pub drain: Samples,
    pub stop: Samples,
    pub restart_self: Samples,
    pub replayed: Samples,
    pub capture: Samples,
    pub write: Samples,
    pub read: Samples,
    pub gc: Samples,
    pub gc_chunks: Samples,
    pub store_chunk_bytes: Samples,
    pub space_ratio: Samples,
    pub precopy_rounds: Samples,
    pub precopy_round_bytes: Samples,
    pub final_dirty: Samples,
    pub lazy_resume: Samples,
    pub lazy_drain: Samples,
    pub writes: Vec<WriteStats>,
    pub reads: Vec<ReadStats>,
    pub lazy: Vec<LazyRestoreStats>,
    pub repl: Vec<ReplicateStats>,
    pub net: NetTally,
    /// Transport busy time inside each checkpoint / replication call.
    pub net_ckpt: Samples,
    pub net_repl: Samples,
    /// Composed checkpoint calls of traced and untraced steps (traced run).
    pub ckpt_traced: Samples,
    pub ckpt_plain: Samples,
    /// Bytes the application dirtied / the store wrote, timed steps only.
    pub dirtied_bytes: u64,
    pub store_written: u64,
    pub wire_den_bytes: u64,
    pub cpu: Duration,
    /// CPU time the hypervisor stole from the machine meanwhile.
    pub steal: Duration,
    pub wall: Duration,
    pub steps: u64,
    /// Restarts fetch from the peer (the standalone local `read_image`
    /// is then no part of them).
    pub remote_restarts: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Rec {
    /// Counts one operation; a failure is recorded with its message.
    fn op<T>(&mut self, r: Res<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.errors.push(e);
                None
            }
        }
    }

    /// Counts one verification.
    fn verified(&mut self, what: &str, r: Result<(), VerifyError>) {
        self.op(r.map_err(|e| format!("{what}: {e}")));
    }
}

/// Options of one run, as the workloads see them.
pub struct RunCtx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub scale: &'a Scale,
    pub tracer: &'a Tracer,
    pub inject_mismatch: bool,
    pub dir: &'a Path,
}

/// One running application: the CRAC process, its memory model, and the
/// benchmark's quiesce plugin with the gate its writer thread parks at.
struct App {
    proc: CracProcess,
    model: Model,
    plugin: Arc<QuiescePlugin>,
    gate: Arc<AppGate>,
}

fn config() -> CracConfig {
    CracConfig::test("crbench")
}

fn kernels() -> Arc<KernelRegistry> {
    Arc::new(KernelRegistry::new())
}

fn launch(seed: u64, heap: u64, dev: u64, version: u32) -> Res<App> {
    let mut proc = CracProcess::launch(config(), kernels());
    let gate = Arc::new(AppGate::default());
    let plugin = Arc::new(QuiescePlugin::new(
        proc.space().clone(),
        Some(Arc::clone(&gate)),
    ));
    proc.register_plugin(plugin.clone());
    let model = Model::launch(&proc, seed, heap, dev, version).map_err(err("launch"))?;
    Ok(App {
        proc,
        model,
        plugin,
        gate,
    })
}

/// The peer node: its store, its server, and the link to it.
struct Peer {
    // Field order is drop order: close the client's sockets first.
    link: TimedTransport<TcpTransport>,
    _server: ServerHandle,
    store: Arc<ImageStore>,
}

fn start_peer(dir: &Path) -> Res<Peer> {
    let store = Arc::new(ImageStore::open(dir).map_err(err("open peer store"))?);
    let server =
        serve_on("127.0.0.1:0", Arc::clone(&store), SECRET).map_err(err("start server"))?;
    let tcp = TcpTransport::connect(server.local_addr(), SECRET).map_err(err("connect"))?;
    Ok(Peer {
        link: TimedTransport::new(tcp),
        _server: server,
        store,
    })
}

fn chunk_bytes(store: &ImageStore) -> Res<u64> {
    Ok(store.stats().map_err(err("store stats"))?.chunk_bytes)
}

fn fresh_dir(path: PathBuf) -> Res<PathBuf> {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).map_err(err("create dir"))?;
    Ok(path)
}

/// Pages of the working set a restarted application touches first: a
/// seeded [`WORKING_SET`] share of the image, drawn from host heap pages
/// (device memory is refilled during the restart itself).
fn working_set(model: &Model, rng: &mut Rng) -> Vec<u64> {
    let heap = model.allocs[0].pages;
    let want = ((model.pages() as f64 * WORKING_SET) as u64).clamp(1, heap);
    let mut pages: Vec<u64> = (0..heap).collect();
    for i in 0..want as usize {
        let j = i + rng.below(heap - i as u64) as usize;
        pages.swap(i, j);
    }
    pages.truncate(want as usize);
    pages
}

/// The restarted application's first pass over its working set.  Each
/// first touch is a plain `read_bytes` (a fault under a lazy restore) and
/// is timed; the bytes are checked against the model outside the timing.
/// With `inject`, one byte of the first page is flipped first — the
/// correctness gate must catch it.
fn warm_pass(
    proc: &CracProcess,
    model: &Model,
    pages: &[u64],
    inject: bool,
    touch_us: &mut Vec<f64>,
) -> (Duration, Result<(), VerifyError>) {
    if inject {
        let addr = model.addr_of(pages[0]);
        let mut b = [0u8; 1];
        let flipped = proc
            .space()
            .read_bytes(addr, &mut b)
            .and_then(|()| proc.space().write_bytes(addr, &[b[0] ^ 0x5a]));
        if let Err(e) = flipped {
            return (Duration::ZERO, Err(VerifyError::Access(e.to_string())));
        }
    }
    let mut busy = Duration::ZERO;
    let mut verdict = Ok(());
    let mut buf = vec![0u8; PAGE];
    for &p in pages {
        let t0 = Instant::now();
        let r = proc.space().read_bytes(model.addr_of(p), &mut buf);
        let dt = t0.elapsed();
        busy += dt;
        touch_us.push(dt.as_secs_f64() * 1e6);
        let checked = match r {
            Ok(()) => model.check(p, &buf),
            Err(e) => Err(VerifyError::Access(e.to_string())),
        };
        if verdict.is_ok() {
            verdict = checked;
        }
    }
    (busy, verdict)
}

/// Moves the clustered dirty range and picks the scattered pages of one
/// step, then rewrites them: about 4% of the pages as one moving range
/// plus 1% single pages, over heap and device memory alike.
struct Dirtier {
    rng: Rng,
    cursor: u64,
    cluster: u64,
    scattered: u64,
}

impl Dirtier {
    fn new(seed: u64, pages: u64) -> Self {
        let mut rng = Rng::new(seed, 0xD1E7);
        let cursor = rng.below(pages);
        Self {
            rng,
            cursor,
            cluster: (pages * 4 / 100).max(1),
            scattered: (pages / 100).max(1),
        }
    }

    /// Dirties one step's pages; returns the bytes dirtied (distinct
    /// modelled pages plus the scratch pages device writes staged through).
    fn step(&mut self, app: &App) -> Res<u64> {
        let total = app.model.pages();
        let mut pages: Vec<u64> = (0..self.cluster)
            .map(|i| (self.cursor + i) % total)
            .collect();
        self.cursor = (self.cursor + self.cluster) % total;
        pages.extend((0..self.scattered).map(|_| self.rng.below(total)));
        pages.sort_unstable();
        pages.dedup();
        let mut scratch_used = 0;
        let mut i = 0;
        while i < pages.len() {
            let mut j = i + 1;
            while j < pages.len() && pages[j] == pages[j - 1] + 1 {
                j += 1;
            }
            for (p, n) in app.model.runs(pages[i], (j - i) as u64) {
                app.model
                    .write_run(&app.proc, p, n, true)
                    .map_err(err("dirty"))?;
                if app.model.alloc_of(p).device {
                    scratch_used = scratch_used.max(n);
                }
            }
            i = j;
        }
        Ok((pages.len() as u64 + scratch_used.min(SCRATCH_PAGES)) * PAGE as u64)
    }
}

/// `ckpt_local` (`peer == false`) and `backup_tcp` (`peer == true`).
pub fn run_local(ctx: &RunCtx, with_peer: bool) -> Rec {
    let mut rec = Rec {
        remote_restarts: with_peer,
        ..Rec::default()
    };
    if let Err(e) = local_loop(ctx, with_peer, &mut rec) {
        rec.attempted += 1;
        rec.failed += 1;
        rec.errors.push(e);
    }
    rec
}

struct LocalNode {
    app: App,
    store: ImageStore,
    peer: Option<Peer>,
    last: ImageId,
    last_remote: Option<ImageId>,
}

fn local_setup(ctx: &RunCtx, with_peer: bool, rep: usize, rec: &mut Rec) -> Res<LocalNode> {
    let s = ctx.scale;
    let dir = fresh_dir(ctx.dir.join(format!("node{rep}")))?;
    let t0 = Instant::now();
    let peer = if with_peer {
        Some(start_peer(&dir.join("peer"))?)
    } else {
        None
    };
    let store = ImageStore::open(dir.join("local")).map_err(err("open store"))?;
    let app = launch(ctx.seed, s.heap_pages, s.device_pages, 1)?;
    let first = rec
        .op(app
            .proc
            .checkpoint_to_store(&store, WriteOptions::full())
            .map_err(err("first checkpoint")))
        .ok_or("setup failed")?;
    let last_remote = match &peer {
        Some(p) => {
            let (rid, _) = rec
                .op(store
                    .replicate_to(first.image_id, &p.link)
                    .map_err(err("cold replication")))
                .ok_or("setup failed")?;
            p.link.take();
            Some(rid)
        }
        None => None,
    };
    rec.setup_s.push(t0.elapsed().as_secs_f64());
    Ok(LocalNode {
        app,
        store,
        peer,
        last: first.image_id,
        last_remote,
    })
}

fn local_loop(ctx: &RunCtx, with_peer: bool, rec: &mut Rec) -> Res<()> {
    let s = ctx.scale;
    let tr = ctx.tracer;
    // Set up several times and keep the last node; the median is setup_s.
    let mut node = local_setup(ctx, with_peer, 0, rec)?;
    for rep in 1..s.setup_reps {
        drop(node);
        let _ = std::fs::remove_dir_all(ctx.dir.join(format!("node{}", rep - 1)));
        node = local_setup(ctx, with_peer, rep, rec)?;
    }
    let shadow = if tr.enabled() {
        let d = fresh_dir(ctx.dir.join("shadow"))?;
        Some(ImageStore::open(d).map_err(err("open shadow store"))?)
    } else {
        None
    };
    let mut dirtier = Dirtier::new(ctx.seed, node.app.model.pages());
    let mut ws_rng = Rng::new(ctx.seed, 0x3A5);
    let mut inject = ctx.inject_mismatch;
    let mut step = 0usize;
    let mut deadline = None::<Instant>;
    let (mut cpu0, mut steal0) = (Duration::ZERO, Duration::ZERO);
    loop {
        let timed = step >= s.warmup_steps;
        if timed && deadline.is_none() {
            deadline = Some(Instant::now() + Duration::from_secs_f64(ctx.seconds));
            cpu0 = crate::stats::cpu_time();
            steal0 = crate::stats::steal_time();
            if let Some(p) = &node.peer {
                p.link.take();
            }
        }
        if let Some(d) = deadline {
            let done = step - s.warmup_steps;
            if Instant::now() >= d && done >= s.restart_every {
                break;
            }
        }
        step += 1;
        let traced = tr.enabled() && step % 2 == 1;
        let step_t0 = Instant::now();
        let step_span = tr.next_id();

        // The application runs: a clustered range and scattered pages change.
        let dirtied = rec.op(dirtier.step(&node.app));
        if dirtied.is_none() {
            return Ok(());
        }

        // Checkpoint into the local store (auto-incremental chain).
        let op = tr.next_id();
        let t0 = Instant::now();
        let r = node
            .app
            .proc
            .checkpoint_to_store(&node.store, WriteOptions::full())
            .map_err(err("checkpoint_to_store"));
        let t1 = Instant::now();
        let Some(ck) = rec.op(r) else { return Ok(()) };
        node.last = ck.image_id;
        let (q, rz) = (node.app.plugin.quiesced_at(), node.app.plugin.resumed_at());
        if let (Some(q), Some(rz)) = (q, rz) {
            let root = tr.record("core.checkpoint_to_store", step_span, op, t0, t1);
            tr.record("core.drain", root, op, t0, q);
            tr.record("dmtcp.stop_window", root, op, q, rz);
            if timed {
                rec.drain.push_ms(q - t0);
                rec.stop.push_ms(rz - q);
                rec.downtime.push_ms(rz - q);
            }
        }
        if timed {
            rec.ckpt.push_ms(t1 - t0);
            if tr.enabled() {
                if traced {
                    rec.ckpt_traced.push_ms(t1 - t0);
                } else {
                    rec.ckpt_plain.push_ms(t1 - t0);
                }
            }
            rec.dirtied_bytes += dirtied.unwrap_or(0);
            rec.store_written += ck.write.bytes_written();
            rec.writes.push(ck.write);
        }

        // Ship it to the peer.
        if let Some(peer) = &node.peer {
            let op = tr.next_id();
            peer.link.take_into(&mut rec.net, timed);
            let t0 = Instant::now();
            let r = node
                .store
                .replicate_to(ck.image_id, &peer.link)
                .map_err(err("replicate_to"));
            let t1 = Instant::now();
            tr.record("imagestore.replicate_to", step_span, op, t0, t1);
            let tally = peer.link.take();
            let Some((rid, rs)) = rec.op(r) else {
                return Ok(());
            };
            node.last_remote = Some(rid);
            if timed {
                rec.replicate.push_ms(t1 - t0);
                rec.net_repl.push_ms(tally.busy_total());
                rec.wire_den_bytes += dirtied.unwrap_or(0);
                rec.repl.push(rs);
                rec.net.absorb(tally);
            }
        }

        // Garbage-collect both stores.
        let t0 = Instant::now();
        let mut reclaimed = 0u64;
        let r = node
            .store
            .retain_last(KEEP_IMAGES)
            .map_err(err("retain_last"));
        if let Some((_, d)) = rec.op(r) {
            reclaimed += d.chunks_deleted as u64;
        }
        if let Some(peer) = &node.peer {
            let r = peer
                .store
                .retain_last(KEEP_IMAGES)
                .map_err(err("peer retain_last"));
            if let Some((_, d)) = rec.op(r) {
                reclaimed += d.chunks_deleted as u64;
            }
        }
        let t1 = Instant::now();
        tr.record("imagestore.retain_last", step_span, tr.next_id(), t0, t1);
        if timed {
            rec.gc.push_ms(t1 - t0);
            rec.gc_chunks.push(reclaimed as f64);
            if let Some(b) = rec.op(chunk_bytes(&node.store)) {
                rec.store_chunk_bytes.push(b as f64);
                rec.space_ratio
                    .push(b as f64 / node.app.model.live_bytes() as f64);
            }
        }

        // Every few steps: lose the node, restart from the latest image.
        if step.is_multiple_of(s.restart_every) {
            let op = tr.next_id();
            if let Some(p) = &node.peer {
                p.link.take_into(&mut rec.net, timed);
            }
            let t0 = Instant::now();
            let r = match (&node.peer, node.last_remote) {
                (Some(p), Some(rid)) => {
                    CracProcess::restart_from_remote(&p.link, rid, config(), kernels())
                        .map_err(err("restart_from_remote"))
                }
                _ => CracProcess::restart_from_store(&node.store, node.last, config(), kernels())
                    .map_err(err("restart_from_store")),
            };
            let t1 = Instant::now();
            tr.record("core.restart", step_span, op, t0, t1);
            if let Some(p) = &node.peer {
                p.link.take_into(&mut rec.net, timed);
            }
            let Some((proc2, report, rs)) = rec.op(r) else {
                return Ok(());
            };
            let ws = working_set(&node.app.model, &mut ws_rng);
            let mut touches = Vec::new();
            let (warm, verdict) = warm_pass(&proc2, &node.app.model, &ws, inject, &mut touches);
            inject = false;
            rec.verified("warm pass", verdict);
            rec.verified("restore", node.app.model.verify_all(&proc2));
            if timed {
                rec.restart.push_ms(t1 - t0);
                rec.restart_self
                    .push_ms((t1 - t0).saturating_sub(rs.elapsed));
                rec.replayed.push(report.replayed_calls as f64);
                rec.reads.push(rs);
                rec.warm.push_ms(warm);
                for t in touches {
                    rec.touch_us.push(t);
                }
            }
        }

        // Traced steps: time the layers one at a time, outside the
        // composed call — capture alone, write alone (into a shadow store,
        // so the composed chain's dedup state is untouched), read alone.
        if traced && timed {
            let op = tr.next_id();
            let (image, dt) = tr.span("dmtcp.checkpoint", step_span, op, || {
                node.app.proc.checkpoint()
            });
            rec.capture.push_ms(dt);
            if let Some(shadow) = &shadow {
                let (r, dt) = tr.span("imagestore.write_image", step_span, op, || {
                    shadow.write_image(&image.image, &WriteOptions::full())
                });
                if rec.op(r.map_err(err("shadow write_image"))).is_some() {
                    rec.write.push_ms(dt);
                }
                rec.op(shadow.retain_last(1).map_err(err("shadow retain_last")));
            }
            drop(image);
            let (r, dt) = tr.span("imagestore.read_image", step_span, op, || {
                node.store.read_image(node.last)
            });
            if rec.op(r.map_err(err("read_image"))).is_some() {
                rec.read.push_ms(dt);
            }
        }
        tr.record("bench.step", 0, step_span, step_t0, Instant::now());
        if timed {
            rec.steps += 1;
        }
    }
    if let Some(d) = deadline {
        let secs = Duration::from_secs_f64(ctx.seconds);
        rec.wall = Instant::now().saturating_duration_since(d) + secs;
        rec.cpu = crate::stats::cpu_time().saturating_sub(cpu0);
        rec.steal = crate::stats::steal_time().saturating_sub(steal0);
    }
    Ok(())
}

/// `migrate_tcp`: a fresh process per step migrates to the peer with a
/// pre-copy checkpoint while its writer thread keeps rewriting a hot set,
/// then resumes there lazily.
pub fn run_migrate(ctx: &RunCtx) -> Rec {
    let mut rec = Rec {
        remote_restarts: true,
        ..Rec::default()
    };
    if let Err(e) = migrate_loop(ctx, &mut rec) {
        rec.attempted += 1;
        rec.failed += 1;
        rec.errors.push(e);
    }
    rec
}

fn migrate_setup(ctx: &RunCtx, rep: usize, rec: &mut Rec) -> Res<Peer> {
    let s = ctx.scale;
    let dir = fresh_dir(ctx.dir.join(format!("peer{rep}")))?;
    let t0 = Instant::now();
    let peer = start_peer(&dir)?;
    let app = launch(
        ctx.seed,
        s.mig_heap_pages,
        s.mig_device_pages,
        1_000_000 + rep as u32,
    )?;
    app.plugin.set_mode(ResumeMode::Migrate);
    rec.op(app
        .proc
        .checkpoint_to_remote_precopy(
            &peer.link,
            Compression::None,
            None,
            PrecopyConfig::default(),
        )
        .map_err(err("first migration")))
        .ok_or("setup failed")?;
    rec.setup_s.push(t0.elapsed().as_secs_f64());
    rec.op(peer.store.retain_last(0).map_err(err("peer retain_last")));
    peer.link.take();
    Ok(peer)
}

/// The migrating application's writer thread: rewrites its hot set until
/// `stop`, parking whenever a checkpoint asks it to.
fn hot_writer(app: &App, hot: &[u64], stop: &AtomicBool) -> Res<()> {
    let mut i = 0;
    let r = loop {
        if stop.load(Ordering::Acquire) {
            break Ok(());
        }
        if app.gate.checkpoint_pending() {
            app.gate.park();
            continue;
        }
        if let Err(e) = app.model.write_run(&app.proc, hot[i % hot.len()], 1, true) {
            break Err(format!("hot-set write: {e}"));
        }
        i += 1;
        std::thread::sleep(HOT_WRITE_PAUSE);
    };
    app.gate.leave();
    r
}

fn migrate_loop(ctx: &RunCtx, rec: &mut Rec) -> Res<()> {
    let s = ctx.scale;
    let tr = ctx.tracer;
    let mut peer = migrate_setup(ctx, 0, rec)?;
    for rep in 1..s.setup_reps {
        drop(peer);
        let _ = std::fs::remove_dir_all(ctx.dir.join(format!("peer{}", rep - 1)));
        peer = migrate_setup(ctx, rep, rec)?;
    }
    let mut rng = Rng::new(ctx.seed, 0x407);
    let mut inject = ctx.inject_mismatch;
    let mut step = 0usize;
    let mut deadline = None::<Instant>;
    let (mut cpu0, mut steal0) = (Duration::ZERO, Duration::ZERO);
    loop {
        let timed = step >= s.warmup_steps;
        if timed && deadline.is_none() {
            deadline = Some(Instant::now() + Duration::from_secs_f64(ctx.seconds));
            cpu0 = crate::stats::cpu_time();
            steal0 = crate::stats::steal_time();
            peer.link.take();
        }
        if let Some(d) = deadline {
            if Instant::now() >= d && step - s.warmup_steps >= s.restart_every {
                break;
            }
        }
        step += 1;
        let traced = tr.enabled() && step % 2 == 1;
        let step_t0 = Instant::now();
        let step_span = tr.next_id();

        // A fresh application with new contents (version = step).
        let app = launch(ctx.seed, s.mig_heap_pages, s.mig_device_pages, step as u32)?;
        let heap = app.model.allocs[0].pages;
        let hot: Vec<u64> = {
            let start = rng.below(heap.saturating_sub(s.hot_pages).max(1));
            (start..start + s.hot_pages.min(heap)).collect()
        };
        let ws = working_set(&app.model, &mut rng);
        let before = rec.op(chunk_bytes(&peer.store)).unwrap_or(0);

        // Migrate out: pre-copy to the peer while the hot set keeps changing.
        let stop = AtomicBool::new(false);
        let op = tr.next_id();
        app.gate.enter();
        let (r, t0, t1, tally) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| hot_writer(&app, &hot, &stop));
            if traced && timed {
                app.plugin.set_mode(ResumeMode::Continue);
                let t0 = Instant::now();
                let (_, dt) = tr.span("dmtcp.checkpoint", step_span, op, || app.proc.checkpoint());
                rec.capture.push_ms(dt);
                if let Some(q) = app.plugin.quiesced_at() {
                    rec.drain.push_ms(q.saturating_duration_since(t0));
                }
            }
            app.plugin.set_mode(ResumeMode::Migrate);
            peer.link.take_into(&mut rec.net, timed);
            let t0 = Instant::now();
            let r = app
                .proc
                .checkpoint_to_remote_precopy(
                    &peer.link,
                    Compression::None,
                    None,
                    PrecopyConfig::default(),
                )
                .map_err(err("checkpoint_to_remote_precopy"));
            let t1 = Instant::now();
            let tally = peer.link.take();
            stop.store(true, Ordering::Release);
            app.gate.release();
            let w = writer
                .join()
                .unwrap_or_else(|_| Err("hot-set writer panicked".into()));
            (r.and_then(|v| w.map(|()| v)), t0, t1, tally)
        });
        let root = tr.record("core.checkpoint_to_remote_precopy", step_span, op, t0, t1);
        let Some((rr, ps)) = rec.op(r) else {
            return Ok(());
        };
        let quiesced = app.plugin.quiesced_at();
        if let Some(q) = quiesced {
            tr.record(
                "dmtcp.stop_window",
                root,
                op,
                q,
                q + Duration::from_nanos(ps.stop_window_ns),
            );
        }
        let after = rec.op(chunk_bytes(&peer.store)).unwrap_or(0);
        if timed {
            rec.ckpt.push_ms(t1 - t0);
            if tr.enabled() {
                if traced {
                    rec.ckpt_traced.push_ms(t1 - t0);
                } else {
                    rec.ckpt_plain.push_ms(t1 - t0);
                }
            }
            rec.net_ckpt.push_ms(tally.busy_total());
            rec.net.absorb(tally);
            rec.precopy_rounds.push(ps.rounds as f64);
            let deltas = &ps.round_bytes[1..ps.round_bytes.len().saturating_sub(1).max(1)];
            for &b in deltas {
                rec.precopy_round_bytes.push(b as f64);
            }
            rec.final_dirty.push(ps.final_dirty_pages as f64);
            rec.stop.push(ps.stop_window_ns as f64 / 1e6);
            // A fresh process: every live byte is new since its last image.
            rec.dirtied_bytes += app.model.live_bytes();
            rec.wire_den_bytes += app.model.live_bytes();
            rec.store_written += after.saturating_sub(before) + rr.replicate.manifest_bytes;
            rec.repl.push(rr.replicate);
        }

        // Resume on the peer, lazily: the closure is the application's
        // first working-set pass, each first touch a fault.
        let op = tr.next_id();
        let mut touches = Vec::new();
        let t0 = Instant::now();
        let r = CracProcess::restart_from_remote_lazy(
            &peer.link,
            rr.image_id,
            config(),
            kernels(),
            |p| {
                let first = Instant::now();
                let (warm, verdict) = warm_pass(p, &app.model, &ws, inject, &mut touches);
                Ok((first, warm, verdict, Instant::now()))
            },
        )
        .map_err(err("restart_from_remote_lazy"));
        let t1 = Instant::now();
        inject = false;
        let tally = peer.link.take();
        let root = tr.record("core.restart_from_remote_lazy", step_span, op, t0, t1);
        let Some((proc2, report, rs, lz, (first, warm, verdict, closure_end))) = rec.op(r) else {
            return Ok(());
        };
        tr.record("bench.warm_pass", root, op, first, closure_end);
        tr.record("imagestore.lazy_drain", root, op, closure_end, t1);
        rec.verified("warm pass", verdict);
        rec.verified("restore", app.model.verify_all(&proc2));
        drop(proc2);
        if timed {
            rec.restart.push_ms(t1 - t0);
            if let Some(q) = quiesced {
                rec.downtime.push_ms(first.saturating_duration_since(q));
            }
            rec.warm.push_ms(warm);
            for t in touches {
                rec.touch_us.push(t);
            }
            let resume = Duration::from_micros(lz.resume_us);
            let drain = t1.saturating_duration_since(closure_end);
            rec.lazy_resume.push_ms(resume);
            rec.lazy_drain.push_ms(drain);
            let inside = resume + closure_end.saturating_duration_since(first) + drain;
            rec.restart_self.push_ms((t1 - t0).saturating_sub(inside));
            rec.replayed.push(report.replayed_calls as f64);
            rec.reads.push(rs);
            rec.lazy.push(lz);
            rec.net.absorb(tally);
        }

        // The peer keeps only what a next migration could need.
        let t0 = Instant::now();
        let r = peer.store.retain_last(1).map_err(err("peer retain_last"));
        let t1 = Instant::now();
        tr.record("imagestore.retain_last", step_span, tr.next_id(), t0, t1);
        if let Some((_, d)) = rec.op(r) {
            if timed {
                rec.gc.push_ms(t1 - t0);
                rec.gc_chunks.push(d.chunks_deleted as f64);
            }
        }
        if timed {
            if let Some(b) = rec.op(chunk_bytes(&peer.store)) {
                rec.store_chunk_bytes.push(b as f64);
                rec.space_ratio
                    .push(b as f64 / app.model.live_bytes() as f64);
            }
            rec.steps += 1;
        }
        tr.record("bench.step", 0, step_span, step_t0, Instant::now());
    }
    if let Some(d) = deadline {
        let secs = Duration::from_secs_f64(ctx.seconds);
        rec.wall = Instant::now().saturating_duration_since(d) + secs;
        rec.cpu = crate::stats::cpu_time().saturating_sub(cpu0);
        rec.steal = crate::stats::steal_time().saturating_sub(steal0);
    }
    Ok(())
}

/// Runs `wl` and returns what it measured.
pub fn run(wl: Workload, ctx: &RunCtx) -> Rec {
    match wl {
        Workload::CkptLocal => run_local(ctx, false),
        Workload::BackupTcp => run_local(ctx, true),
        Workload::MigrateTcp => run_migrate(ctx),
    }
}
