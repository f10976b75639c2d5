//! Emits a markdown "paper vs measured" report covering every table and
//! figure (the content of `EXPERIMENTS.md`).
//!
//! ```text
//! cargo run --release -p crac-bench --bin experiments -- --scale 0.25 > EXPERIMENTS.md
//! ```

use crac_bench::refdata::{FIG5C_CKPT_MB, RODINIA_REF, TABLE1_REF, TABLE3_REF};
use crac_bench::{experiments as exp, TextTable};

fn parse_flag(args: &[String], flag: &str, default: f64) -> f64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_flag(&args, "--scale", 0.25);
    let iters = parse_flag(&args, "--iters", 10.0) as u32;

    println!("# EXPERIMENTS — paper vs. measured");
    println!();
    println!(
        "Generated by `cargo run --release -p crac-bench --bin experiments -- --scale {scale}`."
    );
    println!();
    println!("All \"measured\" numbers come from the simulated GPU/CUDA substrate described in");
    println!("README.md, with each application's work scaled by its default scale × {scale}");
    println!("(footprints and call *rates* are unaffected by scaling).  Absolute times are");
    println!("therefore model times, not NVIDIA-hardware times; the comparison to check is the");
    println!("*shape*: who wins, by roughly what factor, and where the crossovers fall.");

    // Table 1 --------------------------------------------------------------
    println!("\n## Table 1 — application characterisation\n");
    let mut t = TextTable::new(vec![
        "Application",
        "UVM",
        "Streams",
        "CPS (paper)",
        "CPS (measured)",
        "# streams",
    ]);
    for r in exp::table1(scale) {
        let paper = TABLE1_REF.iter().find(|p| p.name == r.name);
        t.row(vec![
            r.name.clone(),
            if r.uvm { "✓" } else { "✗" }.to_string(),
            if r.streams { "✓" } else { "✗" }.to_string(),
            paper.map(|p| format!("{:.0}", p.cps)).unwrap_or_default(),
            format!("{:.0}", r.cps),
            r.stream_range.clone(),
        ]);
    }
    print!("{}", t.render_markdown());
    println!("\nThe UVM/streams flags and stream ranges match Table 1 by construction; the CPS");
    println!("column is measured from the synthetic applications and lands in the same order of");
    println!("magnitude as the paper for every family (HYPRE lowest, Rodinia/HPGMG highest).");

    // Table 2 --------------------------------------------------------------
    println!("\n## Table 2 — Rodinia command lines\n");
    let mut t = TextTable::new(vec![
        "Application",
        "Arguments (as configured in this repo)",
    ]);
    for (name, cmd) in exp::table2() {
        t.row(vec![name, cmd]);
    }
    print!("{}", t.render_markdown());

    // Figure 2 --------------------------------------------------------------
    println!("\n## Figure 2 — Rodinia runtime overhead (native vs CRAC)\n");
    println!("Paper: 0–2 % overhead for the benchmarks running longer than 10 s; 1–14 % for the");
    println!("short-running ones (DMTCP startup and run-to-run noise dominate there).\n");
    let mut t = TextTable::new(vec![
        "Benchmark",
        "native (s)",
        "CRAC (s)",
        "overhead %",
        "calls (paper)",
        "calls (measured)",
    ]);
    for r in exp::fig2_rodinia(scale) {
        let paper = RODINIA_REF.iter().find(|p| p.name == r.name);
        t.row(vec![
            r.name.clone(),
            format!("{:.2}", r.native_s),
            format!("{:.2}", r.crac_s),
            format!("{:.2}", r.overhead_pct),
            paper.map(|p| p.total_calls.to_string()).unwrap_or_default(),
            r.total_calls.to_string(),
        ]);
    }
    print!("{}", t.render_markdown());

    // Figure 3 --------------------------------------------------------------
    println!("\n## Figure 3 — Rodinia checkpoint/restart times and image sizes\n");
    println!("Paper: checkpoint and restart both complete within ~1 s for every benchmark;");
    println!("restart exceeds checkpoint for the malloc/free-heavy ones because the allocation");
    println!("log must be replayed.\n");
    let mut t = TextTable::new(vec![
        "Benchmark",
        "ckpt (s)",
        "restart (s)",
        "image MB (paper)",
        "image MB (measured)",
        "replayed calls",
    ]);
    for r in exp::fig3_rodinia_ckpt(scale) {
        let paper = RODINIA_REF
            .iter()
            .find(|p| p.name == r.name)
            .and_then(|p| p.ckpt_mb);
        t.row(vec![
            r.name.clone(),
            format!("{:.3}", r.ckpt_s),
            format!("{:.3}", r.restart_s),
            paper
                .map(|m| m.to_string())
                .unwrap_or_else(|| "—".to_string()),
            format!("{:.0}", r.image_mb),
            r.replayed_calls.to_string(),
        ]);
    }
    print!("{}", t.render_markdown());

    // Figure 4 --------------------------------------------------------------
    println!("\n## Figures 4a/4b — simpleStreams sweep\n");
    println!("Paper: total runtime grows with the kernel's iteration count, CRAC stays within");
    println!("1 %, and the 128-stream variant beats the non-streamed variant by an increasing");
    println!("margin as kernels get longer.\n");
    let mut t = TextTable::new(vec![
        "niterations",
        "native total (s)",
        "CRAC total (s)",
        "ovh %",
        "non-streamed native/CRAC (ms)",
        "128-stream native/CRAC (ms)",
    ]);
    for r in exp::fig4_simple_streams(scale) {
        t.row(vec![
            r.niterations.to_string(),
            format!("{:.2}", r.native_total_s),
            format!("{:.2}", r.crac_total_s),
            format!(
                "{:.2}",
                (r.crac_total_s - r.native_total_s) / r.native_total_s * 100.0
            ),
            format!(
                "{:.2} / {:.2}",
                r.native_nonstreamed_ms, r.crac_nonstreamed_ms
            ),
            format!("{:.2} / {:.2}", r.native_streamed_ms, r.crac_streamed_ms),
        ]);
    }
    print!("{}", t.render_markdown());

    // Figure 5a/5b ----------------------------------------------------------
    println!("\n## Figure 5a — stream-oriented benchmarks\n");
    println!("Paper: ≤ ~1.5 % overhead for simpleStreams and UnifiedMemoryStreams; slightly");
    println!("below 2 % for LULESH.\n");
    let mut t = TextTable::new(vec!["Benchmark", "native (s)", "CRAC (s)", "overhead %"]);
    for r in exp::fig5a_streams_apps(scale) {
        t.row(vec![
            r.name.clone(),
            format!("{:.2}", r.native_s),
            format!("{:.2}", r.crac_s),
            format!("{:.2}", r.overhead_pct),
        ]);
    }
    print!("{}", t.render_markdown());

    println!("\n## Figure 5b — real-world benchmarks\n");
    println!("Paper: just under 2 % overhead for HPGMG-FV and about 3 % for HYPRE.\n");
    let mut t = TextTable::new(vec!["Benchmark", "native (s)", "CRAC (s)", "overhead %"]);
    for r in exp::fig5b_realworld(scale) {
        t.row(vec![
            r.name.clone(),
            format!("{:.2}", r.native_s),
            format!("{:.2}", r.crac_s),
            format!("{:.2}", r.overhead_pct),
        ]);
    }
    print!("{}", t.render_markdown());

    // Figure 5c --------------------------------------------------------------
    println!("\n## Figure 5c — checkpoint/restart of the stream/real-world benchmarks\n");
    println!("Paper: both phases finish within ~1 s for the stream-oriented applications;");
    println!("HPGMG needs ~1.75 s to restart because of the number of CUDA calls to replay,");
    println!("while HYPRE's 2.3 GB image makes the checkpoint the expensive side.\n");
    let mut t = TextTable::new(vec![
        "Benchmark",
        "ckpt (s)",
        "restart (s)",
        "image MB (paper)",
        "image MB (measured)",
    ]);
    for r in exp::fig5c_ckpt(scale) {
        let paper = FIG5C_CKPT_MB
            .iter()
            .find(|(n, _)| *n == r.name)
            .map(|(_, m)| *m);
        t.row(vec![
            r.name.clone(),
            format!("{:.3}", r.ckpt_s),
            format!("{:.3}", r.restart_s),
            paper.map(|m| m.to_string()).unwrap_or_default(),
            format!("{:.0}", r.image_mb),
        ]);
    }
    print!("{}", t.render_markdown());

    // Table 3 --------------------------------------------------------------
    println!("\n## Table 3 — cuBLAS: native vs CRAC vs CMA/IPC\n");
    println!("Paper: CRAC stays within ~4 % (usually ~1 %) of native, while the proxy/IPC");
    println!("approach pays 142 %–17 812 % because every operand crosses the process boundary.\n");
    let mut t = TextTable::new(vec![
        "CUDA call",
        "data",
        "native ms",
        "CRAC ovh % (paper)",
        "CRAC ovh % (measured)",
        "IPC ovh % (paper)",
        "IPC ovh % (measured)",
    ]);
    for r in exp::table3(iters) {
        let paper = TABLE3_REF
            .iter()
            .find(|p| p.routine == r.routine.name() && p.data_mb == r.data_mb);
        t.row(vec![
            r.routine.name().to_string(),
            format!("{}MB", r.data_mb),
            format!("{:.3}", r.native_ms),
            paper
                .map(|p| format!("{:.1}", p.crac_overhead_pct))
                .unwrap_or_default(),
            format!("{:.1}", r.crac_overhead_pct),
            paper
                .map(|p| format!("{:.0}", p.ipc_overhead_pct))
                .unwrap_or_default(),
            format!("{:.0}", r.ipc_overhead_pct),
        ]);
    }
    print!("{}", t.render_markdown());

    // Figure 6 --------------------------------------------------------------
    println!("\n## Figure 6 — FSGSBASE experiment (Quadro K600)\n");
    println!("Paper: the FSGSBASE patch changes CRAC's overhead by at most a couple of");
    println!("percentage points in either direction — CRAC's per-call cost is already small.\n");
    let mut t = TextTable::new(vec![
        "Benchmark",
        "native (s)",
        "ovh unpatched %",
        "ovh FSGSBASE %",
        "delta (pp)",
    ]);
    for r in exp::fig6_fsgsbase(scale) {
        t.row(vec![
            r.name.clone(),
            format!("{:.2}", r.native_s),
            format!("{:.2}", r.overhead_unpatched_pct),
            format!("{:.2}", r.overhead_fsgsbase_pct),
            format!("{:+.2}", r.delta_pct),
        ]);
    }
    print!("{}", t.render_markdown());
}
