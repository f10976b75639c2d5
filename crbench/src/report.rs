//! Metric definitions and their computation from a run's record.

use crate::probes::NET_OPS;
use crate::stats::{peak_rss_mib, ratio, Samples};
use crate::workloads::Rec;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// End-to-end metrics (tracing off), as `(name, unit)`.  Every workload
/// reports every one of them.
pub const E2E: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ckpt_p50_ms", "ms"),
    ("restart_p50_ms", "ms"),
    ("downtime_p50_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("store_write_amp", "ratio"),
    ("store_space_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (tracing on), as `(name, unit)`.  Every workload
/// reports every one; a layer idle in a workload reads 0.
pub const LAYER: &[(&str, &str)] = &[
    ("core.drain_ms", "ms"),
    ("core.restart_self_ms", "ms"),
    ("core.replayed_calls", "count"),
    ("dmtcp.capture_ms", "ms"),
    ("dmtcp.stop_window_ms", "ms"),
    ("dmtcp.precopy_rounds", "count"),
    ("dmtcp.precopy_round_bytes", "bytes"),
    ("dmtcp.final_dirty_pages", "count"),
    ("writer.write_ms", "ms"),
    ("writer.elapsed_ms", "ms"),
    ("writer.chunks_total", "count"),
    ("writer.chunks_written", "count"),
    ("writer.dedup_ratio", "ratio"),
    ("writer.bytes_written", "bytes"),
    ("writer.peak_buffered_kib", "KiB"),
    ("reader.read_ms", "ms"),
    ("reader.elapsed_ms", "ms"),
    ("reader.chunks_read", "count"),
    ("reader.bytes_read", "bytes"),
    ("reader.threads_used", "count"),
    ("reader.peak_buffered_kib", "KiB"),
    ("reader.transient_retries", "count"),
    ("store.gc_ms", "ms"),
    ("store.chunks_reclaimed", "count"),
    ("store.chunk_bytes", "bytes"),
    ("net.has_chunks.count", "count"),
    ("net.has_chunks.busy_ms", "ms"),
    ("net.has_chunks.p50_us", "us"),
    ("net.has_chunks.p90_us", "us"),
    ("net.put_chunk.count", "count"),
    ("net.put_chunk.busy_ms", "ms"),
    ("net.put_chunk.p50_us", "us"),
    ("net.put_chunk.p90_us", "us"),
    ("net.get_chunk.count", "count"),
    ("net.get_chunk.busy_ms", "ms"),
    ("net.get_chunk.p50_us", "us"),
    ("net.get_chunk.p90_us", "us"),
    ("net.get_chunk_priority.count", "count"),
    ("net.get_chunk_priority.busy_ms", "ms"),
    ("net.get_chunk_priority.p50_us", "us"),
    ("net.get_chunk_priority.p90_us", "us"),
    ("net.list_manifests.count", "count"),
    ("net.list_manifests.busy_ms", "ms"),
    ("net.list_manifests.p50_us", "us"),
    ("net.list_manifests.p90_us", "us"),
    ("net.get_manifest.count", "count"),
    ("net.get_manifest.busy_ms", "ms"),
    ("net.get_manifest.p50_us", "us"),
    ("net.get_manifest.p90_us", "us"),
    ("net.put_manifest.count", "count"),
    ("net.put_manifest.busy_ms", "ms"),
    ("net.put_manifest.p50_us", "us"),
    ("net.put_manifest.p90_us", "us"),
    ("net.bytes_out", "bytes"),
    ("net.bytes_in", "bytes"),
    ("net.errors", "count"),
    ("net.peak_inflight", "count"),
    ("remote.replicate_ms", "ms"),
    ("remote.chunks_shipped", "count"),
    ("remote.ship_ratio", "ratio"),
    ("remote.bytes_shipped", "bytes"),
    ("remote.wire_amp", "ratio"),
    ("lazy.resume_ms", "ms"),
    ("lazy.touch_p50_us", "us"),
    ("lazy.touch_p90_us", "us"),
    ("lazy.faults_served", "count"),
    ("lazy.chunks_faulted", "count"),
    ("lazy.chunks_prefetched", "count"),
    ("lazy.drain_ms", "ms"),
    ("proc.cpu_util", "ratio"),
    ("pipeline.overlap_ratio", "ratio"),
    ("unattributed.ckpt_ms", "ms"),
    ("unattributed.restart_ms", "ms"),
    ("unattributed.replicate_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("steady.ckpt_drift", "ratio"),
];

fn build(defs: &[(&str, &'static str)], value: impl Fn(&str) -> f64) -> Vec<Metric> {
    defs.iter()
        .map(|&(name, unit)| {
            let v = value(name);
            Metric {
                name: name.to_string(),
                unit,
                value: if v.is_finite() { v } else { 0.0 },
            }
        })
        .collect()
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    let mut s = Samples::default();
    for i in items {
        s.push(f(i));
    }
    s.p50()
}

/// End-to-end metrics of an untraced run.
pub fn e2e_metrics(rec: &Rec) -> Vec<Metric> {
    let live = rec.dirtied_bytes as f64;
    build(&E2E, |name| match name {
        "setup_s" => rec.setup_s.p50(),
        "ckpt_p50_ms" => rec.ckpt.p50(),
        "restart_p50_ms" => rec.restart.p50(),
        "downtime_p50_ms" => rec.downtime.p50(),
        "warm_p50_ms" => rec.warm.p50(),
        "store_write_amp" => ratio(rec.store_written as f64, live),
        "store_space_ratio" => rec.space_ratio.p50(),
        "peak_rss_mib" => peak_rss_mib(),
        _ => 0.0,
    })
}

/// Per-layer metrics of a traced run.
pub fn layer_metrics(rec: &Rec) -> Vec<Metric> {
    let net = &rec.net;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let lat = |i: usize| {
        let mut s = Samples::default();
        for &v in &net.lat_us[i] {
            s.push(v);
        }
        s
    };
    let ckpt_parts = if rec.write.is_empty() {
        // No local writer (migration): the parts are the capture and the
        // transport time inside the call.
        rec.capture.p50() + rec.net_ckpt.p50()
    } else {
        rec.capture.p50() + rec.write.p50()
    };
    let ckpt_traced = if rec.ckpt_traced.is_empty() {
        &rec.ckpt
    } else {
        &rec.ckpt_traced
    };
    // The restart's reader share, from the most independent probe the
    // workload has: a standalone `read_image` of the store restarts read,
    // else the reader's own elapsed time; for a lazy restart the resume,
    // the application's first pass and the drain.
    let reader_part = if !rec.lazy.is_empty() {
        rec.lazy_resume.p50() + rec.warm.p50() + rec.lazy_drain.p50()
    } else if !rec.remote_restarts && !rec.read.is_empty() {
        rec.read.p50()
    } else {
        median_of(&rec.reads, |r| r.elapsed.as_secs_f64() * 1e3)
    };
    let shipped: u64 = rec.repl.iter().map(|r| r.bytes_shipped).sum();
    build(LAYER, |name| {
        if let Some(rest) = name.strip_prefix("net.") {
            if let Some(i) = NET_OPS
                .iter()
                .position(|op| rest.starts_with(&format!("{op}.")))
            {
                let field = &rest[NET_OPS[i].len() + 1..];
                return match field {
                    "count" => net.count[i] as f64,
                    "busy_ms" => ms(net.busy[i]),
                    "p50_us" => lat(i).p50(),
                    "p90_us" => lat(i).p90(),
                    _ => 0.0,
                };
            }
        }
        match name {
            "core.drain_ms" => rec.drain.p50(),
            "core.restart_self_ms" => rec.restart_self.p50(),
            "core.replayed_calls" => rec.replayed.p50(),
            "dmtcp.capture_ms" => rec.capture.p50(),
            "dmtcp.stop_window_ms" => rec.stop.p50(),
            "dmtcp.precopy_rounds" => rec.precopy_rounds.p50(),
            "dmtcp.precopy_round_bytes" => rec.precopy_round_bytes.p50(),
            "dmtcp.final_dirty_pages" => rec.final_dirty.p50(),
            "writer.write_ms" => rec.write.p50(),
            "writer.elapsed_ms" => median_of(&rec.writes, |w| w.elapsed.as_secs_f64() * 1e3),
            "writer.chunks_total" => median_of(&rec.writes, |w| w.chunks_total as f64),
            "writer.chunks_written" => median_of(&rec.writes, |w| w.chunks_written as f64),
            "writer.dedup_ratio" => {
                let total: usize = rec.writes.iter().map(|w| w.chunks_total).sum();
                let dedup: usize = rec.writes.iter().map(|w| w.chunks_deduped).sum();
                ratio(dedup as f64, total as f64)
            }
            "writer.bytes_written" => median_of(&rec.writes, |w| w.bytes_written() as f64),
            "writer.peak_buffered_kib" => {
                median_of(&rec.writes, |w| w.peak_buffered_bytes as f64 / 1024.0)
            }
            "reader.read_ms" => rec.read.p50(),
            "reader.elapsed_ms" => median_of(&rec.reads, |r| r.elapsed.as_secs_f64() * 1e3),
            "reader.chunks_read" => median_of(&rec.reads, |r| r.chunks_read as f64),
            "reader.bytes_read" => median_of(&rec.reads, |r| r.chunk_bytes_read as f64),
            "reader.threads_used" => median_of(&rec.reads, |r| r.threads_used as f64),
            "reader.peak_buffered_kib" => {
                median_of(&rec.reads, |r| r.peak_buffered_bytes as f64 / 1024.0)
            }
            "reader.transient_retries" => {
                rec.reads.iter().map(|r| r.transient_retries as f64).sum()
            }
            "store.gc_ms" => rec.gc.p50(),
            "store.chunks_reclaimed" => rec.gc_chunks.p50(),
            "store.chunk_bytes" => rec.store_chunk_bytes.p50(),
            "net.bytes_out" => net.bytes_out as f64,
            "net.bytes_in" => net.bytes_in as f64,
            "net.errors" => net.errors as f64,
            "net.peak_inflight" => net.peak_inflight as f64,
            "remote.replicate_ms" => rec.replicate.p50(),
            "remote.chunks_shipped" => median_of(&rec.repl, |r| r.chunks_shipped as f64),
            "remote.ship_ratio" => {
                let total: usize = rec.repl.iter().map(|r| r.chunks_total).sum();
                let sent: usize = rec.repl.iter().map(|r| r.chunks_shipped).sum();
                ratio(sent as f64, total as f64)
            }
            "remote.bytes_shipped" => median_of(&rec.repl, |r| r.bytes_shipped as f64),
            "remote.wire_amp" => ratio(shipped as f64, rec.wire_den_bytes as f64),
            "lazy.resume_ms" => rec.lazy_resume.p50(),
            "lazy.touch_p50_us" if !rec.lazy.is_empty() => rec.touch_us.p50(),
            "lazy.touch_p90_us" if !rec.lazy.is_empty() => rec.touch_us.p90(),
            "lazy.faults_served" => median_of(&rec.lazy, |l| l.faults_served as f64),
            "lazy.chunks_faulted" => median_of(&rec.lazy, |l| l.chunks_faulted as f64),
            "lazy.chunks_prefetched" => median_of(&rec.lazy, |l| l.chunks_prefetched as f64),
            "lazy.drain_ms" => rec.lazy_drain.p50(),
            "proc.cpu_util" => ratio(rec.cpu.as_secs_f64(), rec.wall.as_secs_f64()),
            "pipeline.overlap_ratio" => ratio(ckpt_traced.p50(), ckpt_parts),
            "unattributed.ckpt_ms" => ckpt_traced.p50() - ckpt_parts,
            "unattributed.restart_ms" if !rec.restart.is_empty() => rec.restart.p50() - reader_part,
            "unattributed.replicate_ms" if !rec.replicate.is_empty() => {
                rec.replicate.p50() - rec.net_repl.p50()
            }
            "trace.overhead_ratio" => ratio(rec.ckpt_traced.p50(), rec.ckpt_plain.p50()) - 1.0,
            "steady.ckpt_drift" => rec.ckpt.drift(),
            _ => 0.0,
        }
    })
}

/// Per-operation sample counts, for the run facts.
pub fn sample_counts(rec: &Rec) -> Vec<(String, String)> {
    [
        ("samples.setup", rec.setup_s.len()),
        ("samples.ckpt", rec.ckpt.len()),
        ("samples.restart", rec.restart.len()),
        ("samples.replicate", rec.replicate.len()),
        ("samples.downtime", rec.downtime.len()),
        ("samples.warm", rec.warm.len()),
        ("samples.touch", rec.touch_us.len()),
        ("samples.ckpt_beyond_p90", rec.ckpt.beyond(0.9)),
        ("samples.restart_beyond_p90", rec.restart.beyond(0.9)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect()
}
