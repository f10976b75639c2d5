//! The correctness gate: every workload runs clean at a small scale, an
//! injected byte mismatch fails the run, and the command refuses
//! end-to-end timing in an instrumented build.

use std::path::PathBuf;
use std::process::Command;

use crbench::{Config, Scale, Workload};

fn small(tag: &str, workload: Workload, inject_mismatch: bool, trace: bool) -> Config {
    Config {
        workload,
        seed: 5,
        seconds: 0.2,
        trace,
        inject_mismatch,
        scale: Scale {
            heap_pages: 96,
            device_pages: 64,
            mig_heap_pages: 80,
            mig_device_pages: 16,
            hot_pages: 8,
            setup_reps: 2,
            warmup_steps: 1,
            restart_every: 2,
        },
        out_dir: PathBuf::from(".bench_out").join(format!("test-{tag}-{}", std::process::id())),
    }
}

#[test]
fn every_workload_runs_clean_and_reports_every_metric() {
    for wl in Workload::ALL {
        for trace in [false, true] {
            let out = crbench::run(&small("clean", wl, false, trace)).unwrap();
            assert!(out.correct(), "{wl:?} trace={trace}: {:?}", out.errors);
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = if trace {
                crbench::LAYER.iter().map(|(n, _)| *n).collect()
            } else {
                crbench::E2E.iter().map(|(n, _)| *n).collect()
            };
            assert_eq!(names, want);
            if !trace {
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{wl:?}: {} is {}", m.name, m.value);
                }
            }
            assert_eq!(out.trace_file.is_some(), trace);
        }
    }
    let _ = std::fs::remove_dir_all(small("clean", Workload::CkptLocal, false, false).out_dir);
}

#[test]
fn an_injected_byte_mismatch_fails_the_run() {
    for wl in Workload::ALL {
        let out = crbench::run(&small("inject", wl, true, false)).unwrap();
        assert!(!out.correct(), "{wl:?} missed the flipped byte");
        assert!(
            out.errors.iter().any(|e| e.contains("differs")),
            "{wl:?}: {:?}",
            out.errors
        );
    }
    let _ = std::fs::remove_dir_all(small("inject", Workload::CkptLocal, true, false).out_dir);
}

#[test]
fn the_command_refuses_timing_an_instrumented_build() {
    let bin = env!("CARGO_BIN_EXE_crbench");
    let args = ["--workload", "ckpt_local", "--seed", "1", "--seconds", "1"];
    let untraced = Command::new(bin)
        .args(args)
        .args(["--trace", "0"])
        .output()
        .unwrap();
    if crac_repro::sync::instrumented() {
        assert!(!untraced.status.success());
        assert!(untraced.stdout.is_empty(), "no result is printed");
    }
    let bad = Command::new(bin)
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
}

#[test]
fn benchmark_json_lists_every_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let metrics: Vec<_> = crbench::E2E.iter().chain(crbench::LAYER.iter()).collect();
    for (name, unit) in &metrics {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{name} ({unit}) missing");
    }
    let entries = json.matches("\"name\": ").count();
    assert_eq!(entries, Workload::ALL.len() + metrics.len());
    for wl in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", wl.name())));
    }
}
