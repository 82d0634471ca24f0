//! Golden-file regression tests for the committed experiment artefacts.
//!
//! `results/figure2.json`, `results/table1.json`, and the Figure 2 DOT
//! files are checked into the repository. These tests re-run the same
//! pipelines **in-process** (through the shared `vex_bench` entry points
//! the binaries call) and diff the freshly produced artefacts against the
//! committed ones, so any change to the analyzers that silently shifts an
//! experiment result fails CI with a readable diff.
//! `results/trace_digests.txt` pins the bytes the recorder writes: the
//! SHA-256 of a few recorded traces under every collection mode, so a
//! change to the collector that moves a single trace byte fails here.
//!
//! When a change is *supposed* to move the numbers, regenerate with:
//!
//! ```text
//! VEX_REGEN=1 cargo test --test golden_results
//! ```
//!
//! and commit the rewritten files under `results/`.

use std::path::PathBuf;
use vex_bench::{figure2_stats, record_app, table1_detect, table1_expected, table1_row};
use vex_core::prelude::*;
use vex_core::sha256::sha256;
use vex_gpu::timing::DeviceSpec;
use vex_workloads::{all_apps, apps::darknet::Darknet, apps::lammps::Lammps, Variant};

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn regen() -> bool {
    std::env::var_os("VEX_REGEN").is_some_and(|v| v == "1")
}

/// Compares `actual` against the committed `results/<name>`, or rewrites
/// the golden when `VEX_REGEN=1`.
fn check_golden(name: &str, actual: &str) {
    let path = results_dir().join(name);
    if regen() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("rewrite {name}: {e}"));
        eprintln!("[regenerated results/{name}]");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read golden results/{name}: {e}"));
    assert_eq!(
        golden.trim_end(),
        actual.trim_end(),
        "results/{name} diverged from the in-process rerun; \
         if the change is intended, regenerate with VEX_REGEN=1"
    );
}

/// Re-runs the full Figure 2 pipeline (Darknet and the `--lammps` path)
/// and diffs stats JSON and both DOT renderings against the goldens.
#[test]
fn figure2_artifacts_match_pipeline_rerun() {
    let (darknet, darknet_dot) = figure2_stats(&Darknet::default(), "gemm_kernel");
    let (lammps, lammps_dot) = figure2_stats(&Lammps::default(), "pair_lj_cut_kernel");
    let stats = vec![darknet, lammps];
    let json = serde_json::to_string_pretty(&stats).expect("serialize figure2 rows");
    check_golden("figure2.json", &json);
    check_golden("darknet_flow.dot", &darknet_dot);
    check_golden("lammps_flow.dot", &lammps_dot);
}

/// Re-runs the full Table 1 pipeline over every bundled workload and
/// diffs the row artefact against the golden.
#[test]
fn table1_artifact_matches_pipeline_rerun() {
    let spec = DeviceSpec::rtx2080ti();
    let rows: Vec<_> = all_apps()
        .iter()
        .map(|app| {
            let detected = table1_detect(&spec, app.as_ref());
            let paper = table1_expected(app.name());
            table1_row(app.name(), &detected, &paper)
        })
        .collect();
    let json = serde_json::to_string_pretty(&rows).expect("serialize table1 rows");
    check_golden("table1.json", &json);
}

/// Records a few bundled workloads the way `vex record` does (RTX 2080 Ti
/// preset, baseline variant) under each collection mode — `--fine`,
/// coarse only, `--fine --block-sampling 4` and `--fine
/// --kernel-sampling 3` — and diffs the SHA-256 of every trace against
/// the golden. huffman brings atomics, bfs scattered reads.
#[test]
fn recorded_trace_bytes_match_golden_digests() {
    let modes = [
        ("fine", ValueExpert::builder().fine(true)),
        ("coarse", ValueExpert::builder().fine(false)),
        ("block4", ValueExpert::builder().fine(true).block_sampling(4)),
        ("kernel3", ValueExpert::builder().fine(true).kernel_sampling(3)),
    ];
    let spec = DeviceSpec::rtx2080ti();
    let mut lines = String::new();
    for app in all_apps() {
        if !["huffman", "bfs", "hotspot", "BarraCUDA"].contains(&app.name()) {
            continue;
        }
        for (mode, builder) in &modes {
            let trace = record_app(&spec, app.as_ref(), Variant::Baseline, builder.clone());
            lines += &format!("{} {mode} {}\n", app.name(), sha256(&trace).to_hex());
        }
    }
    check_golden("trace_digests.txt", &lines);
}
