//! Command line of the benchmark:
//!
//! ```text
//! crbench --workload <ckpt_local|backup_tcp|migrate_tcp> --seed <n>
//!         --seconds <s> --trace <0|1> [--inject-mismatch]
//! ```
//!
//! Prints the run facts and every metric by name with its unit, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.  Exits non-zero when any operation failed or any
//! restored byte was wrong.

use std::path::PathBuf;
use std::process::ExitCode;

use crbench::{Config, Scale, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("crbench: {msg}");
    eprintln!(
        "usage: crbench --workload <ckpt_local|backup_tcp|migrate_tcp> --seed <n> \
         --seconds <s> --trace <0|1> [--inject-mismatch]"
    );
    ExitCode::from(2)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut inject_mismatch = false;
    let mut i = 0;
    while i < args.len() {
        let val = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), val) {
            ("--workload", Some(v)) => workload = Workload::parse(v),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            ("--trace", Some(v)) => trace = matches!(v, "0" | "1").then(|| v == "1"),
            ("--inject-mismatch", _) => {
                inject_mismatch = true;
                i += 1;
                continue;
            }
            (other, _) => return usage(&format!("unexpected argument {other:?}")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    if !trace && crac_repro::sync::instrumented() {
        eprintln!(
            "crbench: refusing end-to-end timing: this build has lock-graph \
             instrumentation on (debug build or `lock-graph` feature), so the \
             numbers would measure the detector; build with --release"
        );
        return ExitCode::from(3);
    }
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        inject_mismatch,
        scale: Scale::default(),
        out_dir: PathBuf::from(".bench_out"),
    };
    let out = match crbench::run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("crbench: cannot run: {e}");
            return ExitCode::from(1);
        }
    };
    for (k, v) in &out.facts {
        println!("fact {k} = {v}");
    }
    if let Some(path) = &out.trace_file {
        println!("fact trace_file = {}", path.display());
    }
    for e in &out.errors {
        println!("error {e}");
    }
    println!(
        "metric failed_ops_ratio = {} ratio ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
