//! `crbench`: the end-to-end checkpoint/restart benchmark.
//!
//! A single-process, closed-loop load generator.  It drives a
//! `CracProcess` whose memory holds seeded contents through the library's
//! public checkpoint, replicate and restart entry points, verifies every
//! restore byte for byte, and reports
//!
//! * with tracing off, the end-to-end metrics a user of the system sees
//!   ([`E2E`]);
//! * with tracing on, per-layer metrics measured from outside each
//!   layer's public functions ([`LAYER`]), plus a Chrome trace of the
//!   benchmark's spans.
//!
//! See `crbench/README.md` for the workloads and the metric definitions.

pub mod model;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

pub use report::{Metric, E2E, LAYER};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Incremental checkpoints of 32 MiB into a local store, GC, and a
    /// verified restart every few steps.  No network.
    CkptLocal,
    /// `CkptLocal` plus replication of every image to a TCP peer and
    /// node-loss restarts from the peer.
    BackupTcp,
    /// Live migration of fresh 8 MiB processes: pre-copy to a TCP peer
    /// under a concurrent writer, lazy resume there.
    MigrateTcp,
}

impl Workload {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CkptLocal,
        Workload::BackupTcp,
        Workload::MigrateTcp,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CkptLocal => "ckpt_local",
            Workload::BackupTcp => "backup_tcp",
            Workload::MigrateTcp => "migrate_tcp",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes and step structure.  [`Scale::default`] is the benchmark; tests
/// shrink it.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Host-heap pages of the `ckpt_local` / `backup_tcp` process.
    pub heap_pages: u64,
    /// Device pages of the `ckpt_local` / `backup_tcp` process.
    pub device_pages: u64,
    /// Host-heap pages of each migrating process.
    pub mig_heap_pages: u64,
    /// Device pages of each migrating process.
    pub mig_device_pages: u64,
    /// Pages the migrating application keeps rewriting.
    pub hot_pages: u64,
    /// Set-ups per run (the median is `setup_s`).
    pub setup_reps: usize,
    /// Steps run before measuring starts.
    pub warmup_steps: usize,
    /// A restart happens every this many steps (`ckpt_local`,
    /// `backup_tcp`); also the minimum number of measured steps.
    pub restart_every: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Self {
            // 32 MiB: half host heap, half device memory.
            heap_pages: 4096,
            device_pages: 4096,
            // 8 MiB: 7/8 host heap, 1/8 device memory.
            mig_heap_pages: 1792,
            mig_device_pages: 256,
            hot_pages: 64,
            setup_reps: 3,
            warmup_steps: 2,
            restart_every: 4,
        }
    }
}

/// One run's options.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Flip one restored byte before the first verification (the
    /// correctness gate must then fail the run).
    pub inject_mismatch: bool,
    pub scale: Scale,
    /// Where the run keeps its stores (a fresh subdirectory per run,
    /// removed at the end) and writes its trace.
    pub out_dir: PathBuf,
}

/// What a run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Run facts: host, build, seed, sample counts.
    pub facts: Vec<(String, String)>,
    /// Chrome trace written by a traced run.
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    /// Every operation succeeded and every restore was byte-identical.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Runs one workload and assembles its report.
pub fn run(cfg: &Config) -> std::io::Result<Outcome> {
    let run_dir = cfg.out_dir.join(format!(
        "run-{}-{}-{}",
        cfg.workload.name(),
        cfg.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir)?;
    let fs = stats::fs_type(&run_dir);
    let tracer = trace::Tracer::new(cfg.trace);
    let ctx = workloads::RunCtx {
        seed: cfg.seed,
        seconds: cfg.seconds,
        scale: &cfg.scale,
        tracer: &tracer,
        inject_mismatch: cfg.inject_mismatch,
        dir: &run_dir,
    };
    let rec = workloads::run(cfg.workload, &ctx);
    let _ = std::fs::remove_dir_all(&run_dir);

    let trace_file = if cfg.trace {
        let path = cfg
            .out_dir
            .join(format!("trace-{}-{}.json", cfg.workload.name(), cfg.seed));
        tracer.write_chrome(&path)?;
        Some(path)
    } else {
        None
    };
    let metrics = if cfg.trace {
        report::layer_metrics(&rec)
    } else {
        report::e2e_metrics(&rec)
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut facts = vec![
        ("workload".into(), cfg.workload.name().into()),
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), cfg.seconds.to_string()),
        ("trace".into(), cfg.trace.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("tmp_fs".into(), fs),
        (
            "host_steal_share".into(),
            format!(
                "{:.3}",
                stats::ratio(
                    rec.steal.as_secs_f64(),
                    rec.wall.as_secs_f64() * nproc as f64
                )
            ),
        ),
        ("profile".into(), profile.into()),
        (
            "sync_instrumented".into(),
            crac_repro::sync::instrumented().to_string(),
        ),
        ("steps".into(), rec.steps.to_string()),
        ("warmup_steps".into(), cfg.scale.warmup_steps.to_string()),
        ("spans".into(), tracer.len().to_string()),
    ];
    facts.extend(report::sample_counts(&rec));
    Ok(Outcome {
        attempted: rec.attempted,
        failed: rec.failed,
        errors: rec.errors,
        metrics,
        facts,
        trace_file,
    })
}
