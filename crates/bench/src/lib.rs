//! # vex-bench — the experiment harness
//!
//! Shared machinery for regenerating every table and figure of the
//! paper's evaluation. Each experiment has a binary under `src/bin/`
//! (`table1`, `table3`, `table4`, `table5`, `figure2`, `figure3`,
//! `figure6`) that prints paper-style rows and writes a JSON artefact
//! into `results/`; Criterion benches for the §6 algorithms live in
//! `benches/`.

#![deny(missing_docs)]

use serde::Serialize;
use std::collections::BTreeSet;
use std::path::Path;
use vex_core::prelude::*;
use vex_core::profiler::ProfilerBuilder;
use vex_gpu::error::GpuError;
use vex_gpu::runtime::Runtime;
use vex_gpu::timing::{DeviceSpec, TimeReport};
use vex_workloads::{AppOutput, GpuApp, Variant};

/// One application run: its verified output and the simulated times.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Application output (checksum).
    pub output: AppOutput,
    /// Simulated time report of the run.
    pub times: TimeReport,
}

/// Runs `app` unprofiled on a fresh runtime for `spec`.
///
/// # Panics
///
/// Panics if the workload itself errors — that is a bug in the workload,
/// not a measurement outcome.
pub fn run_app(spec: &DeviceSpec, app: &dyn GpuApp, variant: Variant) -> RunResult {
    let mut rt = Runtime::new(spec.clone());
    let output = app
        .run(&mut rt, variant)
        .unwrap_or_else(|e: GpuError| panic!("{} {variant} failed: {e}", app.name()));
    RunResult { output, times: rt.time_report().clone() }
}

/// Runs `app` under a configured profiler; returns the profile and the
/// application's time report.
///
/// # Panics
///
/// Panics if the workload errors.
pub fn profile_app(
    spec: &DeviceSpec,
    app: &dyn GpuApp,
    variant: Variant,
    builder: ProfilerBuilder,
) -> (Profile, TimeReport) {
    let mut rt = Runtime::new(spec.clone());
    let vex = builder.attach(&mut rt);
    app.run(&mut rt, variant)
        .unwrap_or_else(|e| panic!("{} {variant} failed under profiler: {e}", app.name()));
    let profile = vex.report(&rt);
    let times = rt.time_report().clone();
    (profile, times)
}

/// Runs `app` under a trace recorder configured by `builder` and returns
/// the serialized `.vex` container bytes.
///
/// # Panics
///
/// Panics if the workload errors or the trace fails to serialize.
pub fn record_app(
    spec: &DeviceSpec,
    app: &dyn GpuApp,
    variant: Variant,
    builder: ProfilerBuilder,
) -> Vec<u8> {
    let mut rt = Runtime::new(spec.clone());
    let rec = builder.record(&mut rt, Vec::new()).expect("in-memory trace header");
    app.run(&mut rt, variant)
        .unwrap_or_else(|e| panic!("{} {variant} failed under recorder: {e}", app.name()));
    rec.finish(&mut rt).expect("in-memory trace trailer")
}

/// Three traces whose captures miss bytes the coarse pass needs, by
/// name, each flagged for both passes:
///
/// * `missing-malloc`: an allocation with no capture;
/// * `huge-malloc`: a 2^46-byte allocation with no capture;
/// * `kernel-gap`: a whole allocation, then a kernel write range with no
///   captured segment.
///
/// The recorder never writes these. The first two fail to decode; the
/// third decodes and fails in the coarse pass.
///
/// # Panics
///
/// Panics if writing the in-memory container fails.
pub fn capture_gap_traces() -> Vec<(&'static str, Vec<u8>)> {
    use std::sync::Arc;
    use vex_gpu::alloc::{AllocId, AllocationInfo};
    use vex_gpu::callpath::CallPathId;
    use vex_gpu::hooks::{ApiEvent, ApiKind, CapturedView, LaunchId};
    use vex_gpu::stream::StreamId;
    use vex_trace::container::{TraceFlags, TraceWriter};
    use vex_trace::event::{Event, EventSink, KernelSummary};
    use vex_trace::interval::Interval;
    use vex_trace::CollectorStats;

    let api = |seq, kind, kernel, segments| Event::Api {
        event: ApiEvent { seq, kind, context: CallPathId::ROOT, stream: StreamId::DEFAULT },
        kernel,
        captured: Arc::new(CapturedView::from_segments(segments)),
    };
    let malloc = |size, segments| {
        let info = AllocationInfo {
            id: AllocId(0),
            addr: 256,
            size,
            label: "buf".into(),
            context: CallPathId::ROOT,
            live: true,
        };
        api(0, ApiKind::Malloc { info }, None, segments)
    };
    let write = |events: &[Event]| {
        let flags = TraceFlags { coarse: true, fine: true };
        let writer = TraceWriter::new(Vec::new(), &DeviceSpec::test_small(), flags)
            .expect("in-memory trace header");
        for event in events {
            writer.on_event(event);
        }
        writer.finish(&[], &CollectorStats::default(), 1.0).expect("in-memory trace trailer")
    };
    let kernel = api(
        1,
        ApiKind::KernelLaunch { launch: LaunchId(0), name: "fill".into() },
        Some(KernelSummary {
            reads: Vec::new(),
            writes: vec![Interval::new(256, 512)],
            raw: 1,
        }),
        Vec::new(),
    );
    vec![
        ("missing-malloc", write(&[malloc(1024, Vec::new())])),
        ("huge-malloc", write(&[malloc(1 << 46, Vec::new())])),
        ("kernel-gap", write(&[malloc(1024, vec![(256, vec![0; 1024])]), kernel])),
    ]
}

/// Speedups of one application on one device (a Table 3 cell pair).
#[derive(Debug, Clone, Serialize)]
pub struct SpeedupRow {
    /// Application name.
    pub app: String,
    /// Hot kernel ("" for memory-only rows).
    pub kernel: String,
    /// Baseline hot-kernel time, µs.
    pub kernel_base_us: f64,
    /// Kernel speedup (1.0 for memory-only rows).
    pub kernel_speedup: f64,
    /// Baseline memory time, µs.
    pub memory_base_us: f64,
    /// Memory-time speedup.
    pub memory_speedup: f64,
}

/// Measures baseline-vs-optimized speedups for `app` on `spec`.
///
/// For the deep-learning applications the paper reports *operator-level*
/// speedups because the optimizations touch several kernels; we follow
/// suit by aggregating all kernels of the app when the optimized variant
/// removes kernels entirely.
pub fn measure_speedups(spec: &DeviceSpec, app: &dyn GpuApp) -> SpeedupRow {
    let base = run_app(spec, app, Variant::Baseline);
    let opt = run_app(spec, app, Variant::Optimized);
    assert!(
        base.output.matches(&opt.output),
        "{}: optimized output diverged ({:?} vs {:?})",
        app.name(),
        base.output,
        opt.output
    );

    let hot = app.hot_kernel();
    let (kernel_base_us, kernel_speedup) = if hot.is_empty() {
        (0.0, 1.0)
    } else {
        // Operator view: the hot kernel plus any helper kernels the
        // optimization removes (e.g. fill/masked_fill kernels that exist
        // only in the baseline).
        let removed: f64 = base
            .times
            .kernel_time_us
            .iter()
            .filter(|(k, _)| !opt.times.kernel_time_us.contains_key(*k))
            .map(|(_, v)| v)
            .sum();
        let b = base.times.kernel_us(hot) + removed;
        let o = opt.times.kernel_us(hot).max(f64::MIN_POSITIVE);
        (b, b / o)
    };
    let memory_speedup = base.times.memory_time_us / opt.times.memory_time_us;
    SpeedupRow {
        app: app.name().to_owned(),
        kernel: hot.to_owned(),
        kernel_base_us,
        kernel_speedup,
        memory_base_us: base.times.memory_time_us,
        memory_speedup,
    }
}

/// Geometric mean of a sequence (ignores non-positive entries).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

/// Median of a sequence.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in medians"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Writes a serializable artefact into `results/<name>.json`.
///
/// # Panics
///
/// Panics on I/O errors — the harness cannot proceed without artefacts.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    // Anchor at the workspace root so examples (run from the root) and
    // benches (run from the package dir) land in the same `results/`.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize artefact");
    std::fs::write(&path, json).expect("write artefact");
    eprintln!("[wrote {}]", path.display());
}

/// Issues one `GET` against a loopback `vex-serve` instance and returns
/// `(status code, body bytes)`. One request per connection, matching the
/// server's `Connection: close` framing.
///
/// # Panics
///
/// Panics if the connection fails or the response is not valid HTTP —
/// the suites using this helper treat that as a dropped response.
pub fn http_get(addr: std::net::SocketAddr, target: &str) -> (u16, Vec<u8>) {
    use std::io::{Read, Write};
    let mut conn = std::net::TcpStream::connect(addr).expect("connect to vex-serve");
    conn.write_all(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("read response");
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap_or_else(|| {
        panic!("no header terminator in {:?}", String::from_utf8_lossy(&raw))
    }) + 4;
    let head = std::str::from_utf8(&raw[..head_end]).expect("ASCII response head");
    assert!(head.starts_with("HTTP/1.1 "), "bad status line: {head}");
    let status: u16 =
        head.split(' ').nth(1).expect("status code").parse().expect("numeric status code");
    (status, raw[head_end..].to_vec())
}

/// Issues one `POST` with a `Content-Length` body against a loopback
/// `vex-serve` instance and returns `(status code, body bytes)`. Used by
/// the ingest suites and the ingest-rate benchmark.
///
/// # Panics
///
/// Panics if the connection fails or the response is not valid HTTP.
pub fn http_post(addr: std::net::SocketAddr, target: &str, body: &[u8]) -> (u16, Vec<u8>) {
    use std::io::{Read, Write};
    let mut conn = std::net::TcpStream::connect(addr).expect("connect to vex-serve");
    conn.write_all(
        format!(
            "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )
    .expect("send request head");
    // An early error response (e.g. 413 on an over-cap Content-Length)
    // may arrive while the body is still in flight; a write failure here
    // is that response racing the upload, not a test failure.
    let _ = conn.write_all(body);
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("read response");
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap_or_else(|| {
        panic!("no header terminator in {:?}", String::from_utf8_lossy(&raw))
    }) + 4;
    let head = std::str::from_utf8(&raw[..head_end]).expect("ASCII response head");
    assert!(head.starts_with("HTTP/1.1 "), "bad status line: {head}");
    let status: u16 =
        head.split(' ').nth(1).expect("status code").parse().expect("numeric status code");
    (status, raw[head_end..].to_vec())
}

/// The pattern matrix of Table 1: for each application, the patterns the
/// paper's run exhibited.
pub fn table1_expected(app: &str) -> BTreeSet<ValuePattern> {
    use ValuePattern::*;
    let v: &[ValuePattern] = match app {
        "bfs" => &[RedundantValues, FrequentValues, SingleValue, HeavyType],
        "backprop" => &[RedundantValues, DuplicateValues, SingleZero],
        "sradv1" => {
            &[DuplicateValues, FrequentValues, SingleValue, HeavyType, StructuredValues]
        }
        "hotspot" => &[FrequentValues, ApproximateValues],
        "pathfinder" => &[RedundantValues, FrequentValues, HeavyType],
        "cfd" => &[RedundantValues, FrequentValues],
        "huffman" => &[RedundantValues, DuplicateValues, SingleValue, HeavyType],
        "lavaMD" => &[RedundantValues],
        "hotspot3D" => &[ApproximateValues],
        "streamcluster" => &[RedundantValues],
        "Darknet" => &[RedundantValues, DuplicateValues, FrequentValues, SingleValue],
        "QMCPACK" => &[RedundantValues],
        "Castro" => &[RedundantValues],
        "BarraCUDA" => &[RedundantValues, FrequentValues],
        "PyTorch-Deepwave" => &[RedundantValues, SingleValue, SingleZero],
        "PyTorch-Bert" => &[RedundantValues],
        "PyTorch-Resnet50" => &[RedundantValues, SingleZero],
        "NAMD" => &[RedundantValues, SingleZero, HeavyType],
        "LAMMPS" => &[RedundantValues, FrequentValues],
        other => panic!("unknown application {other}"),
    };
    v.iter().copied().collect()
}

/// The kernel speedups Table 3 reports (RTX 2080 Ti, A100) — used by
/// EXPERIMENTS.md comparisons, not asserted exactly.
pub fn table3_paper_kernel_speedups(app: &str) -> Option<(f64, f64)> {
    Some(match app {
        "bfs" => (1.34, 0.99),
        "backprop" => (8.18, 1.67),
        "sradv1" => (1.52, 1.11),
        "hotspot" => (1.31, 1.10),
        "pathfinder" => (1.13, 1.37),
        "cfd" => (8.28, 6.05),
        "huffman" => (1.49, 2.55),
        "lavaMD" => (0.99, 0.98),
        "hotspot3D" => (2.00, 1.99),
        "Darknet" => (1.06, 1.05),
        "Castro" => (1.27, 1.24),
        "BarraCUDA" => (1.06, 1.06),
        "PyTorch-Deepwave" => (1.07, 1.04),
        "PyTorch-Bert" => (1.57, 1.59),
        "PyTorch-Resnet50" => (1.02, 1.03),
        "NAMD" => (1.00, 1.00),
        _ => return None,
    })
}

/// The memory-time speedups Table 3 reports (RTX 2080 Ti, A100).
pub fn table3_paper_memory_speedups(app: &str) -> Option<(f64, f64)> {
    Some(match app {
        "bfs" => (1.10, 1.20),
        "backprop" => (1.01, 1.01),
        "sradv1" => (1.03, 1.06),
        "hotspot" => (1.00, 1.00),
        "pathfinder" => (4.21, 3.27),
        "cfd" => (1.01, 1.03),
        "huffman" => (1.00, 1.00),
        "lavaMD" => (1.49, 1.39),
        "hotspot3D" => (1.00, 0.99),
        "streamcluster" => (2.39, 1.81),
        "Darknet" => (1.82, 1.73),
        "QMCPACK" => (1.00, 1.00),
        "Castro" => (1.00, 1.02),
        "BarraCUDA" => (1.13, 1.13),
        "PyTorch-Deepwave" => (1.01, 1.00),
        "PyTorch-Bert" => (1.01, 1.00),
        "PyTorch-Resnet50" => (1.00, 0.98),
        "NAMD" => (1.00, 1.00),
        "LAMMPS" => (6.03, 5.19),
        _ => return None,
    })
}

/// The pattern Table 4 attributes each app's headline optimization to.
pub fn table4_pattern(app: &str) -> ValuePattern {
    use ValuePattern::*;
    match app {
        "backprop" => SingleZero,
        "bfs" | "pathfinder" | "sradv1" | "lavaMD" => HeavyType,
        "hotspot" | "hotspot3D" => ApproximateValues,
        "cfd" | "huffman" | "LAMMPS" => FrequentValues,
        "PyTorch-Resnet50" => SingleValue,
        "NAMD" => SingleZero,
        _ => RedundantValues,
    }
}

/// Node and edge statistics of one application's value flow graph — one
/// row of the Figure 2 artefact (`results/figure2.json`).
#[derive(Debug, Clone, Serialize)]
pub struct GraphStats {
    /// Application name.
    pub app: String,
    /// Vertices in the full value flow graph.
    pub nodes: usize,
    /// Edges in the full value flow graph.
    pub edges: usize,
    /// Redundant bytes attributed to edges.
    pub redundant_bytes: u64,
    /// Vertices surviving the important-graph analysis.
    pub important_nodes: usize,
    /// Edges surviving the important-graph analysis.
    pub important_edges: usize,
    /// Vertices of the slice rooted at the target kernel.
    pub slice_nodes: usize,
    /// Edges of the slice rooted at the target kernel.
    pub slice_edges: usize,
}

/// Profiles `app` coarse-only (the Figure 2 configuration) and derives
/// its flow-graph statistics plus the rendered DOT text. Shared between
/// the `figure2` binary and the golden-file regression test so both
/// always run the identical pipeline.
pub fn figure2_stats(app: &dyn GpuApp, slice_target: &str) -> (GraphStats, String) {
    let spec = DeviceSpec::rtx2080ti();
    let (profile, _) = profile_app(
        &spec,
        app,
        Variant::Baseline,
        ValueExpert::builder().coarse(true).fine(false),
    );
    let g = &profile.flow_graph;

    // Important graph: keep edges above half the maximum edge weight,
    // mirroring the I_e = N/2 choice in the paper's Figure 3 walkthrough.
    let max_bytes = g.edges().map(|(_, _, _, d)| d.bytes).max().unwrap_or(0);
    let important = g.important(max_bytes / 2, u64::MAX);

    // Vertex slice on an interesting kernel.
    let slice =
        g.find_by_name(slice_target).map(|v| g.vertex_slice(v)).unwrap_or_else(FlowGraph::new);

    let dot = g.to_dot(profile.redundancy_threshold);
    let stats = GraphStats {
        app: app.name().to_owned(),
        nodes: g.vertex_count(),
        edges: g.edge_count(),
        redundant_bytes: g.total_redundant_bytes(),
        important_nodes: important.vertex_count(),
        important_edges: important.edge_count(),
        slice_nodes: slice.vertex_count(),
        slice_edges: slice.edge_count(),
    };
    (stats, dot)
}

/// One row of the Table 1 artefact (`results/table1.json`).
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Application name.
    pub app: String,
    /// Patterns ValueExpert detected (abbreviated).
    pub detected: Vec<String>,
    /// Patterns the paper's matrix lists.
    pub paper: Vec<String>,
    /// Intersection of detected and paper.
    pub matched: Vec<String>,
    /// Paper cells not detected.
    pub missed: Vec<String>,
    /// Detections beyond the paper's matrix.
    pub extra: Vec<String>,
}

/// Abbreviated pattern name used in artefact rows.
pub fn pattern_short(p: ValuePattern) -> &'static str {
    match p {
        ValuePattern::RedundantValues => "Red",
        ValuePattern::DuplicateValues => "Dup",
        ValuePattern::FrequentValues => "Freq",
        ValuePattern::SingleValue => "SVal",
        ValuePattern::SingleZero => "SZero",
        ValuePattern::HeavyType => "Heavy",
        ValuePattern::StructuredValues => "Struct",
        ValuePattern::ApproximateValues => "Approx",
    }
}

/// Runs the Table 1 profiling configuration (coarse + fine, light block
/// sampling) on `app` and returns the detected pattern set.
pub fn table1_detect(spec: &DeviceSpec, app: &dyn GpuApp) -> BTreeSet<ValuePattern> {
    let builder = ValueExpert::builder().coarse(true).fine(true).block_sampling(4);
    let (profile, _) = profile_app(spec, app, Variant::Baseline, builder);
    profile.detected_patterns()
}

/// Builds the Table 1 artefact row from an application's detected set.
pub fn table1_row(
    app: &str,
    detected: &BTreeSet<ValuePattern>,
    paper: &BTreeSet<ValuePattern>,
) -> Table1Row {
    let matched: BTreeSet<_> = detected.intersection(paper).copied().collect();
    Table1Row {
        app: app.to_owned(),
        detected: detected.iter().map(|p| pattern_short(*p).to_owned()).collect(),
        paper: paper.iter().map(|p| pattern_short(*p).to_owned()).collect(),
        matched: matched.iter().map(|p| pattern_short(*p).to_owned()).collect(),
        missed: paper.difference(detected).map(|p| pattern_short(*p).to_owned()).collect(),
        extra: detected.difference(paper).map(|p| pattern_short(*p).to_owned()).collect(),
    }
}

/// A small fine-analysis configuration matching the paper's Figure 6
/// setup: no sampling for coarse, kernel+block sampling for fine
/// (period 20 for benchmarks, 100 for applications), kernel filtering on
/// the hot kernel for applications.
pub fn figure6_fine_builder(app: &dyn GpuApp, is_application: bool) -> ProfilerBuilder {
    let period = if is_application { 100 } else { 20 };
    let mut b = ValueExpert::builder()
        .coarse(false)
        .fine(true)
        .kernel_sampling(period)
        .block_sampling(period as u32);
    if is_application && !app.hot_kernel().is_empty() {
        b = b.filter_kernels([app.hot_kernel()]);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_median() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn expected_matrix_covers_all_apps() {
        for app in vex_workloads::all_apps() {
            let expected = table1_expected(app.name());
            assert!(!expected.is_empty(), "{}", app.name());
        }
    }

    #[test]
    fn paper_numbers_available_for_table3_rows() {
        for app in vex_workloads::all_apps() {
            assert!(
                table3_paper_memory_speedups(app.name()).is_some(),
                "{} missing from table 3 memory data",
                app.name()
            );
            let has_kernel = table3_paper_kernel_speedups(app.name()).is_some();
            assert_eq!(has_kernel, !app.memory_only(), "{}", app.name());
        }
    }

    #[test]
    fn speedup_measurement_smoke() {
        // One cheap app end-to-end through the harness path.
        let app =
            vex_workloads::apps::qmcpack::Qmcpack { walkers: 1024, setup_elems: 64, steps: 1 };
        let row = measure_speedups(&DeviceSpec::rtx2080ti(), &app);
        assert_eq!(row.app, "QMCPACK");
        assert!(row.memory_speedup > 0.5);
    }
}
