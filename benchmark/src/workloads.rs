//! The four workloads: how each sets up, what one measured op is, how
//! its outputs are checked, and the end-to-end metrics of an untraced
//! run.

use crate::heap;
use crate::mix::{self, Class, ClosedLoop, Corpus, Outcome, Player, RefKey, Session};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use vex_core::prelude::*;
use vex_core::profiler::ProfilerBuilder;
use vex_gpu::runtime::Runtime;
use vex_gpu::timing::DeviceSpec;
use vex_serve::{ReportParams, Server};
use vex_trace::container::{read_trace, read_trace_with, RecordedTrace};
use vex_trace::CollectorStats;
use vex_workloads::Variant;

/// Warm-up ops run (and counted in `setup_s`) before the first measured
/// op.
const WARMUPS: usize = 3;
/// A run measured by time still takes at least this many ops.
const MIN_OPS: usize = 10;
/// Ops per workload in `--smoke` mode.
const SMOKE_OPS: usize = 3;
/// Open-loop arrival rate of the serve mix, requests per second.
pub const SERVE_RATE: f64 = 8.0;
/// Client threads and connections of the load generator: at most the
/// two cores of the reference host.
pub const CLIENTS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `vex record backprop --fine`.
    Record,
    /// `vex replay backprop.vex --fine`.
    ReplayFine,
    /// `vex replay Darknet.vex` (coarse only) on a fine recording.
    ReplayCoarse,
    /// Mixed reads and writes against `vex serve`.
    ServeMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::Record, Workload::ReplayFine, Workload::ReplayCoarse, Workload::ServeMix];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Record => "record",
            Workload::ReplayFine => "replay-fine",
            Workload::ReplayCoarse => "replay-coarse",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The trace a workload's ops and layer sweep revolve around.
    pub fn target(self) -> Target {
        match self {
            Workload::ReplayCoarse => Target { app: "Darknet", fine: false },
            _ => Target { app: "backprop", fine: true },
        }
    }
}

/// An application recorded with coarse + fine collection, and whether
/// replays of it run the fine pass (they always run the coarse pass).
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// Application name as `vex list` prints it.
    pub app: &'static str,
    /// Replays run the fine pass.
    pub fine: bool,
}

impl Target {
    /// The profiler configuration of this target's replays.
    pub fn builder(self) -> ProfilerBuilder {
        ValueExpert::builder().coarse(true).fine(self.fine)
    }

    /// The same configuration as server report parameters.
    pub fn params(self) -> ReportParams {
        ReportParams { fine: self.fine, ..ReportParams::default() }
    }

    /// The same configuration as a report query string.
    pub fn query(self) -> &'static str {
        if self.fine {
            "fine=1"
        } else {
            ""
        }
    }

    /// `vex replay` arguments for a trace file of this target.
    pub fn replay_args(self, path: &Path) -> Vec<String> {
        let mut args = vec!["replay".to_owned(), path_arg(path)];
        if self.fine {
            args.push("--fine".into());
        }
        args
    }

    /// `vex record` arguments writing this target to `out`.
    pub fn record_args(self, out: &Path) -> Vec<String> {
        ["record", self.app, "--fine", "-o"]
            .map(String::from)
            .into_iter()
            .chain([path_arg(out)])
            .collect()
    }
}

fn path_arg(path: &Path) -> String {
    path.to_str().expect("work paths are UTF-8").to_owned()
}

/// Settings shared by every run of one invocation.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Seed of the generated inputs (the serve-mix plan).
    pub seed: u64,
    /// Seconds one run measures.
    pub seconds: f64,
    /// Few ops per workload, for a quick end-to-end check.
    pub smoke: bool,
    /// Scratch directory for traces and server stores.
    pub work: PathBuf,
}

impl Cfg {
    /// Set-ups per untraced run (`setup_s` is their median), and
    /// repetitions of each layer probe in the traced sweep.
    pub fn reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// How long the measured phase of a run lasts, scaled by `share`.
    pub fn budget(&self, share: f64) -> Budget {
        if self.smoke {
            Budget::Ops(SMOKE_OPS)
        } else {
            Budget::Seconds(self.seconds * share)
        }
    }
}

/// When a measured loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// After exactly this many ops.
    Ops(usize),
    /// Once this many seconds have passed and at least [`MIN_OPS`] ran.
    Seconds(f64),
}

/// Runs `op` until `budget` is spent; `op` gets the op index and
/// returns the op's duration in milliseconds.
pub fn run_ops(budget: Budget, mut op: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let done = match budget {
            Budget::Ops(n) => samples.len() >= n,
            Budget::Seconds(s) => {
                samples.len() >= MIN_OPS && start.elapsed().as_secs_f64() >= s
            }
        };
        if done {
            return samples;
        }
        samples.push(op(samples.len()));
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
}

/// A metric for which lower is better.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_owned(), value, unit, higher_is_better: false }
}

/// A metric for which higher is better.
pub fn higher(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { higher_is_better: true, ..metric(name, value, unit) }
}

/// Ops attempted and failed, with a note per kind of failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops (and output checks) attempted.
    pub attempted: u64,
    /// Ops whose output was wrong or that errored.
    pub failed: u64,
    /// What went wrong, one line per distinct failure.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one op; a failed op adds `what` to the notes once.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what);
        }
    }

    /// Marks `n` already counted ops as failed.
    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        self.failed += n;
        let note = what();
        if !self.notes.contains(&note) {
            self.notes.push(note);
        }
    }
}

/// Output of one run of one workload.
pub struct RunOutput {
    /// The workload.
    pub workload: Workload,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Op and failure counts.
    pub tally: Tally,
    /// Every metric the run measured.
    pub metrics: Vec<Metric>,
    /// Spans of the traced pass.
    pub tracer: Option<Tracer>,
}

/// The outputs of repeated ops that must all be identical, checked
/// against a reference once the measured phase is over.
#[derive(Debug, Default)]
pub struct SameOutput {
    first: Option<Vec<u8>>,
    ops: u64,
}

impl SameOutput {
    /// Records one op's output; false when it differs from the first.
    pub fn observe(&mut self, out: &[u8]) -> bool {
        self.ops += 1;
        match &self.first {
            Some(first) => first == out,
            None => {
                self.first = Some(out.to_vec());
                true
            }
        }
    }

    /// Fails every observed op in `tally` unless the first output equals
    /// `reference`.
    pub fn finish(&self, reference: &[u8], tally: &mut Tally, what: &str) {
        if self.first.as_deref().is_some_and(|f| f != reference) {
            tally.fail(self.ops, || format!("{what}: output differs from the reference"));
        }
    }
}

/// A recording made through the library, as a set-up step.
#[derive(Debug, Clone)]
pub struct Recorded {
    /// Container bytes.
    pub bytes: Vec<u8>,
    /// Collector counters of the recording.
    pub stats: CollectorStats,
}

/// Records `app` with coarse + fine collection on the RTX 2080 Ti
/// preset, into memory.
pub fn record_lib(app: &str, variant: Variant) -> Result<Recorded, String> {
    let app = vex_cli::find_app(app).map_err(|e| e.0)?;
    let mut rt = Runtime::new(DeviceSpec::rtx2080ti());
    let rec = ValueExpert::builder()
        .coarse(true)
        .fine(true)
        .record(&mut rt, Vec::new())
        .map_err(|e| e.to_string())?;
    app.run(&mut rt, variant).map_err(|e| e.to_string())?;
    let stats = rec.stats();
    let bytes = rec.finish(&mut rt).map_err(|e| e.to_string())?;
    Ok(Recorded { bytes, stats })
}

/// The live-session report of `target`: the output every replay of its
/// trace must reproduce.
pub fn live_report(target: Target) -> Result<String, String> {
    let app = vex_cli::find_app(target.app).map_err(|e| e.0)?;
    let mut rt = Runtime::new(DeviceSpec::rtx2080ti());
    let vex = target.builder().attach(&mut rt);
    app.run(&mut rt, Variant::Baseline).map_err(|e| e.to_string())?;
    Ok(vex.report(&rt).render_text_document())
}

/// Runs one `vex` command line through the CLI library and returns what
/// it printed.
pub fn cli(args: &[String]) -> Result<Vec<u8>, String> {
    let cmd = vex_cli::parse_args(args.iter().map(String::as_str)).map_err(|e| e.0)?;
    let mut out = Vec::new();
    match vex_cli::run(&cmd, &mut out) {
        Ok(0) => Ok(out),
        Ok(code) => Err(format!("vex {} exited {code}", args.join(" "))),
        Err(e) => Err(e.0),
    }
}

/// Runs `setup` `reps` times and returns the last result with the
/// median set-up time in seconds. Earlier results are dropped before
/// the next repetition starts.
pub fn timed_setup<S>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut last = None;
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(rep)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), median(&times)))
}

/// A field of `/proc/self/status` given in kB, as MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Memory of a measured phase, MiB.
#[derive(Debug, Clone, Copy)]
pub struct Memory {
    /// The most live heap the process held at once.
    pub heap_peak: f64,
    /// Peak resident memory.
    pub rss_peak: f64,
}

/// Runs `f` as a measured phase and returns its memory peaks.
pub fn measure_memory<T>(f: impl FnOnce() -> T) -> (T, Memory) {
    // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux ≥
    // 4.0). Where that is refused the peak would cover the whole process
    // lifetime, so it is reported as unmeasured.
    let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    heap::reset_peak();
    let out = f();
    let heap_peak = heap::peak_mb();
    let rss_peak = if reset { status_mb("VmHWM:") } else { f64::NAN };
    (out, Memory { heap_peak, rss_peak })
}

/// The end-to-end metrics every untraced run reports.
fn end_to_end(latencies: &[f64], ops_per_s: f64, mem: Memory, setup_s: f64) -> Vec<Metric> {
    vec![
        metric("op_p50_ms", median(latencies), "ms"),
        metric("op_p90_ms", percentile(latencies, 0.9), "ms"),
        higher("ops_per_s", ops_per_s, "1/s"),
        metric("peak_heap_mb", mem.heap_peak, "MiB"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", mem.rss_peak, "MiB"),
        metric("ops", latencies.len() as f64, "count"),
    ]
}

/// Metrics shared by the serial workloads (record and replay).
fn serial_metrics(samples: &[f64], records: u64, mem: Memory, setup_s: f64) -> Vec<Metric> {
    let busy_s = samples.iter().sum::<f64>() / 1e3;
    let ops_per_s = samples.len() as f64 / busy_s;
    let mut m = end_to_end(samples, ops_per_s, mem, setup_s);
    m.push(higher("mrec_per_s", ops_per_s * records as f64 / 1e6, "Mrec/s"));
    m
}

fn with_error_rate(mut metrics: Vec<Metric>, tally: &Tally) -> Vec<Metric> {
    metrics.push(metric(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    ));
    metrics
}

// ---------------------------------------------------------------------------
// record
// ---------------------------------------------------------------------------

/// The record workload's input: the reference recording every op must
/// reproduce byte for byte.
pub struct RecordInput {
    /// Output path of the measured `vex record`.
    pub out: PathBuf,
    /// The set-up recording.
    pub reference: Recorded,
}

/// Records the reference through the library and warms up the CLI path.
pub fn record_setup(cfg: &Cfg, target: Target) -> Result<RecordInput, String> {
    let out = cfg.work.join("record-out.vex");
    let reference = record_lib(target.app, Variant::Baseline)?;
    for _ in 0..WARMUPS {
        cli(&target.record_args(&out))?;
        if std::fs::read(&out).map_err(|e| e.to_string())? != reference.bytes {
            return Err("vex record output differs from the library recording".into());
        }
    }
    Ok(RecordInput { out, reference })
}

/// Runs `vex record` ops until `budget` is spent. With a tracer, every
/// other op runs inside a `record.op` span. Returns the untraced and
/// traced op durations.
pub fn record_ops(
    target: Target,
    input: &RecordInput,
    budget: Budget,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> (Vec<f64>, Vec<f64>) {
    let args = target.record_args(&input.out);
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    run_ops(budget, |i| {
        let t = Instant::now();
        let result = match tracer.filter(|_| i % 2 == 1) {
            Some(tr) => tr.span("record.op", None, tr.new_op(), |_| cli(&args)),
            None => cli(&args),
        };
        let ms = ms_since(t);
        let ok = result.is_ok()
            && std::fs::read(&input.out).is_ok_and(|b| b == input.reference.bytes);
        tally.op(ok, || "vex record output differs from the set-up recording".into());
        if tracer.is_some() && i % 2 == 1 {
            traced.push(ms);
        } else {
            untraced.push(ms);
        }
        ms
    });
    (untraced, traced)
}

/// Checks that the reference recording decodes to the record count the
/// collector reported.
pub fn check_record_count(reference: &Recorded, tally: &mut Tally) {
    let decoded = read_trace(&reference.bytes).map(|t| trace_records(&t));
    tally.op(decoded == Ok(reference.stats.events), || {
        format!(
            "read_trace of the recording gives {decoded:?} records, the collector counted {}",
            reference.stats.events
        )
    });
}

/// Fine records carried by a decoded trace.
pub fn trace_records(trace: &RecordedTrace) -> u64 {
    trace
        .events
        .iter()
        .map(|e| match e {
            vex_trace::event::Event::Batch { records, .. } => records.len() as u64,
            _ => 0,
        })
        .sum()
}

fn record_untraced(cfg: &Cfg) -> Result<RunOutput, String> {
    let target = Workload::Record.target();
    let (input, setup_s) = timed_setup(cfg.reps(), |_| record_setup(cfg, target))?;
    let mut tally = Tally::default();
    let ((samples, _), mem) =
        measure_memory(|| record_ops(target, &input, cfg.budget(1.0), None, &mut tally));
    check_record_count(&input.reference, &mut tally);
    let metrics = serial_metrics(&samples, input.reference.stats.events, mem, setup_s);
    Ok(RunOutput {
        workload: Workload::Record,
        traced: false,
        metrics: with_error_rate(metrics, &tally),
        tally,
        tracer: None,
    })
}

// ---------------------------------------------------------------------------
// replay-fine / replay-coarse
// ---------------------------------------------------------------------------

/// A replay workload's input: the recorded trace on disk.
pub struct ReplayInput {
    /// Trace file.
    pub path: PathBuf,
    /// The recording.
    pub recorded: Recorded,
}

/// Records the target, writes its trace file and warms up `vex replay`.
pub fn replay_setup(cfg: &Cfg, target: Target) -> Result<ReplayInput, String> {
    let path = cfg.work.join(format!("{}.vex", target.app));
    let recorded = record_lib(target.app, Variant::Baseline)?;
    std::fs::write(&path, &recorded.bytes).map_err(|e| e.to_string())?;
    let args = target.replay_args(&path);
    let first = cli(&args)?;
    for _ in 1..WARMUPS {
        if cli(&args)? != first {
            return Err("vex replay output changed between warm-up runs".into());
        }
    }
    Ok(ReplayInput { path, recorded })
}

/// Runs replay ops until `budget` is spent and returns the untraced and
/// traced durations. Untraced ops are `vex replay` through the CLI
/// library; with a tracer every other op instead makes the same calls
/// the CLI makes, each in its own span under a `replay.op` span:
/// `container.read`, `container.decode`, `core.analyze` and
/// `report.render`.
pub fn replay_ops(
    target: Target,
    path: &Path,
    budget: Budget,
    tracer: Option<&Tracer>,
    outputs: &mut SameOutput,
    tally: &mut Tally,
) -> (Vec<f64>, Vec<f64>) {
    let args = target.replay_args(path);
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    run_ops(budget, |i| {
        let t = Instant::now();
        let result = match tracer.filter(|_| i % 2 == 1) {
            Some(tr) => traced_replay(tr, target, path),
            None => cli(&args),
        };
        let ms = ms_since(t);
        let ok = result.is_ok_and(|out| outputs.observe(&out));
        tally.op(ok, || format!("{} replay output changed between ops", target.app));
        if tracer.is_some() && i % 2 == 1 {
            traced.push(ms);
        } else {
            untraced.push(ms);
        }
        ms
    });
    (untraced, traced)
}

fn traced_replay(tr: &Tracer, target: Target, path: &Path) -> Result<Vec<u8>, String> {
    let op = tr.new_op();
    tr.span("replay.op", None, op, |id| {
        let p = Some(id);
        let bytes = tr.span("container.read", p, op, |_| std::fs::read(path));
        let bytes = bytes.map_err(|e| e.to_string())?;
        let b = target.builder();
        let trace = tr
            .span("container.decode", p, op, |_| read_trace_with(&bytes, &b.decode_options()));
        let trace = trace.map_err(|e| e.to_string())?;
        let profile = tr.span("core.analyze", p, op, |_| b.replay(&trace));
        let profile = profile.map_err(|e| e.to_string())?;
        Ok(tr.span("report.render", p, op, |_| profile.render_text_document()).into_bytes())
    })
}

fn replay_untraced(w: Workload, cfg: &Cfg) -> Result<RunOutput, String> {
    let target = w.target();
    let (input, setup_s) = timed_setup(cfg.reps(), |_| replay_setup(cfg, target))?;
    let mut tally = Tally::default();
    let mut outputs = SameOutput::default();
    let ((samples, _), mem) = measure_memory(|| {
        replay_ops(target, &input.path, cfg.budget(1.0), None, &mut outputs, &mut tally)
    });
    outputs.finish(live_report(target)?.as_bytes(), &mut tally, w.name());
    let metrics = serial_metrics(&samples, input.recorded.stats.events, mem, setup_s);
    Ok(RunOutput {
        workload: w,
        traced: false,
        metrics: with_error_rate(metrics, &tally),
        tally,
        tracer: None,
    })
}

// ---------------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------------

/// The serve-mix corpus: (trace id, application, variant).
const SERVE_TRACES: [(&str, &str, Variant); 6] = [
    ("backprop", "backprop", Variant::Baseline),
    ("backprop-opt", "backprop", Variant::Optimized),
    ("bfs", "bfs", Variant::Baseline),
    ("hotspot", "hotspot", Variant::Baseline),
    ("LAMMPS", "LAMMPS", Variant::Baseline),
    ("LAMMPS-opt", "LAMMPS", Variant::Optimized),
];

/// Hot report keys of the serve mix: (trace id, query string). They are
/// computed once while warming up and served from the cache after.
const SERVE_HOT: [(&str, &str); 4] = [
    ("backprop", "fine=1"),
    ("bfs", "fine=1&shards=2"),
    ("LAMMPS-opt", "fine=1&races=1"),
    ("hotspot", "fine=1&reuse=64"),
];

/// Cold report keys, each a miss on every request. Twelve keep one pass
/// over them to six blocks, which the one-connection loop plays whole,
/// and each returns after 19 other distinct keys, more than the 16 cache
/// entries. Every trace and query string appears; the combinations that
/// cost several hundred milliseconds (races and reuse on backprop and
/// bfs) are left out, so no single block dominates a cycle: the six cost
/// between about 100 and 250 ms on the reference host. Alternating
/// backprop and bfs overflows the decoded-tier budget, so evictions and
/// re-decodes stay in the mix.
const SERVE_COLD: [(&str, &str); 12] = [
    ("backprop", ""),
    ("backprop-opt", "fine=1"),
    ("backprop-opt", "fine=1&shards=2"),
    ("bfs", ""),
    ("bfs", "fine=1"),
    ("hotspot", "fine=1&races=1"),
    ("hotspot", "fine=1&shards=2"),
    ("LAMMPS", "fine=1&races=1"),
    ("LAMMPS", "fine=1&reuse=64"),
    ("LAMMPS-opt", ""),
    ("LAMMPS-opt", "fine=1"),
    ("LAMMPS-opt", "fine=1&shards=2"),
];

fn owned_keys(keys: &[(&str, &str)]) -> Vec<(String, String)> {
    keys.iter().map(|&(id, q)| (id.to_owned(), q.to_owned())).collect()
}

/// A running server over a recorded corpus.
pub struct ServeSession {
    /// The server (in this process).
    pub server: Server,
    /// What the mix may request.
    pub corpus: Corpus,
    /// Trace bytes by id, for ingest bodies and references.
    pub bytes: BTreeMap<String, Arc<Vec<u8>>>,
}

impl ServeSession {
    /// Writes `traces` into `dir`, starts `vex serve` on it with
    /// `--ingest --workers 2 --cache-entries 16` and a memory budget of
    /// 1.5 times the largest trace's decoded-size estimate, and warms the
    /// report cache with every key the mix expects to hit.
    pub fn start(
        dir: &Path,
        traces: Vec<(String, Vec<u8>)>,
        corpus: Corpus,
    ) -> Result<ServeSession, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let mut largest = 0u64;
        let mut bytes = BTreeMap::new();
        for (id, b) in traces {
            let path = dir.join(format!("{id}.vex"));
            std::fs::write(&path, &b).map_err(|e| e.to_string())?;
            let index = vex_trace::index::index_trace_file(&path).map_err(|e| e.to_string())?;
            largest = largest.max(index.decoded_bytes_estimate());
            bytes.insert(id, Arc::new(b));
        }
        let budget = (largest * 3 / 2).to_string();
        let server = start_server(
            dir,
            &[
                "--ingest",
                "--workers",
                "2",
                "--cache-entries",
                "16",
                "--memory-budget",
                &budget,
            ],
        )?;
        let warm = ["/healthz", "/traces", "/metrics"].map(String::from).into_iter();
        for target in warm.chain(corpus.warm_targets()) {
            let (status, _) =
                mix::request(server.addr(), "GET", &target, &[]).map_err(|e| e.to_string())?;
            if status != 200 {
                return Err(format!("warm-up GET {target} answered {status}"));
            }
        }
        Ok(ServeSession { server, corpus, bytes })
    }
}

/// Starts `vex serve <dir> --addr 127.0.0.1:0 <extra>` through the CLI
/// library.
pub fn start_server(dir: &Path, extra: &[&str]) -> Result<Server, String> {
    let dir = path_arg(dir);
    let args = ["serve", dir.as_str(), "--addr", "127.0.0.1:0"]
        .into_iter()
        .chain(extra.iter().copied());
    match vex_cli::parse_args(args).map_err(|e| e.0)? {
        vex_cli::Command::Serve(a) => vex_cli::start_server(&a).map_err(|e| e.0),
        other => Err(format!("parsed {other:?}")),
    }
}

/// Records the six-trace serve corpus and starts the server on it.
pub fn serve_setup(cfg: &Cfg, rep: usize) -> Result<ServeSession, String> {
    let mut traces = Vec::new();
    for (id, app, variant) in SERVE_TRACES {
        traces.push((id.to_owned(), record_lib(app, variant)?.bytes));
    }
    let corpus = Corpus {
        ids: SERVE_TRACES.iter().map(|t| t.0.to_owned()).collect(),
        pairs: vec![
            ("backprop".into(), "backprop-opt".into()),
            ("LAMMPS".into(), "LAMMPS-opt".into()),
        ],
        hot: owned_keys(&SERVE_HOT),
        cold: owned_keys(&SERVE_COLD),
        flowgraphs: vec!["backprop".into(), "LAMMPS".into()],
        ingest_source: "hotspot".into(),
        ingest_prefix: format!("ing{}-", cfg.seed),
    };
    let dir = cfg.work.join(format!("serve-{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    ServeSession::start(&dir, traces, corpus)
}

/// Counters scraped from `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounters {
    hits: f64,
    misses: f64,
    decodes: f64,
    evictions: f64,
    shed: f64,
}

/// Scrapes the counters the serve metrics are deltas of.
pub fn scrape(server: &Server) -> Result<ServerCounters, String> {
    let (status, body) =
        mix::request(server.addr(), "GET", "/metrics", &[]).map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    let text = String::from_utf8_lossy(&body);
    let get = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("/metrics has no {name}"))
    };
    Ok(ServerCounters {
        hits: get("vex_cache_hits_total")?,
        misses: get("vex_cache_misses_total")?,
        decodes: get("vex_store_decodes_total")?,
        evictions: get("vex_store_evictions_total")?,
        shed: get("vex_requests_shed_total")?,
    })
}

/// The phases of one play of the mix, in the order they run.
#[derive(Debug, Clone, Copy)]
pub struct MixPhases {
    /// Open-loop requests, rounded up to whole blocks...
    pub open: usize,
    /// ...arriving at this many per second.
    pub rate: f64,
    /// Seconds of the one-connection closed loop. It plays whole
    /// cycles over the cold report keys (two cycles, one traced and one
    /// not, when traced), at least one.
    pub sequential_s: f64,
    /// Seconds of the closed loop over [`CLIENTS`] connections (none
    /// when 0).
    pub concurrent_s: f64,
}

impl MixPhases {
    /// The untraced play: the one-connection loop for the whole run. Its
    /// sessions give the end-to-end numbers; two connections would add
    /// the scheduling of two clients over two cores to every session and
    /// double the spread between runs.
    pub fn untraced(cfg: &Cfg) -> MixPhases {
        let sequential_s = if cfg.smoke { 0.0 } else { cfg.seconds };
        MixPhases { open: 0, rate: SERVE_RATE, sequential_s, concurrent_s: 0.0 }
    }

    /// A traced play of about `seconds`: the open loop over `open`
    /// requests, the concurrent loop for a fifth of the time, and the
    /// one-connection loop for the rest.
    pub fn traced(cfg: &Cfg, open: usize, seconds: f64) -> MixPhases {
        if cfg.smoke {
            // A smoke run checks outputs, not timing: arrivals come
            // faster, so the open loop does not dominate its length.
            let rate = 5.0 * SERVE_RATE;
            return MixPhases {
                open: mix::SESSION,
                rate,
                sequential_s: 0.0,
                concurrent_s: 0.25,
            };
        }
        let concurrent_s = seconds / 5.0;
        let sequential_s = (seconds - open as f64 / SERVE_RATE - concurrent_s).max(0.0);
        MixPhases { open, rate: SERVE_RATE, sequential_s, concurrent_s }
    }
}

/// The requests and sessions one closed loop played.
#[derive(Debug, Default)]
pub struct LoopRun {
    /// Request outcomes.
    pub outcomes: Vec<Outcome>,
    /// Sessions.
    pub sessions: Vec<Session>,
    /// Wall time, seconds.
    pub seconds: f64,
}

impl LoopRun {
    fn new((outcomes, sessions, seconds): (Vec<Outcome>, Vec<Session>, f64)) -> LoopRun {
        LoopRun { outcomes, sessions, seconds }
    }

    /// Session latencies, ms.
    pub fn session_latencies(&self) -> Vec<f64> {
        self.sessions.iter().map(|s| s.latency_ms).collect()
    }

    /// Latencies of the requests of `classes`, ms.
    pub fn latencies(&self, classes: &[Class]) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| classes.contains(&o.class))
            .map(|o| o.latency_ms)
            .collect()
    }
}

/// Everything one play of the mix produced.
pub struct MixRun {
    /// Open-loop outcomes.
    pub open: Vec<Outcome>,
    /// The one-connection closed loop.
    pub sequential: LoopRun,
    /// The closed loop over [`CLIENTS`] connections.
    pub concurrent: LoopRun,
    /// Blocks per cycle over the cold report keys.
    pub cycle_blocks: usize,
    /// Counter values before the mix.
    pub before: ServerCounters,
    /// Counter values after the mix.
    pub after: ServerCounters,
    /// Largest decoded-tier size seen, bytes.
    pub resident_max: u64,
    /// Memory of the process over the one-connection loop.
    pub memory: Memory,
}

impl MixRun {
    /// Tracing overhead of the one-connection loop: the median, over
    /// each traced session and the untraced session at the same place
    /// of the next cycle (so both carry the same cold reports), of
    /// their latency ratio, minus 1.
    pub fn trace_overhead(&self) -> f64 {
        let untraced: BTreeMap<usize, f64> = self
            .sequential
            .sessions
            .iter()
            .filter(|s| !s.traced)
            .map(|s| (s.block, s.latency_ms))
            .collect();
        let ratios: Vec<f64> = self
            .sequential
            .sessions
            .iter()
            .filter(|s| s.traced)
            .filter_map(|s| Some(s.latency_ms / untraced.get(&(s.block + self.cycle_blocks))?))
            .collect();
        median(&ratios) - 1.0
    }

    /// The per-layer serve metrics of this play.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let lateness: Vec<f64> = self.open.iter().map(|o| o.late_ms).collect();
        let (b, a) = (self.before, self.after);
        let hits = a.hits - b.hits;
        let lookups = hits + a.misses - b.misses;
        let seq = &self.sequential;
        vec![
            metric("serve.index_p50_ms", median(&seq.latencies(&[Class::Index])), "ms"),
            metric(
                "serve.report_p90_ms",
                percentile(&seq.latencies(&[Class::Report]), 0.9),
                "ms",
            ),
            metric("serve.diff_p90_ms", percentile(&seq.latencies(&[Class::Diff]), 0.9), "ms"),
            metric(
                "serve.write_p50_ms",
                median(&seq.latencies(&[Class::Ingest, Class::Delete])),
                "ms",
            ),
            metric("serve.late_p90_ms", percentile(&lateness, 0.9), "ms"),
            higher(
                "serve.cache_hit_ratio",
                if lookups > 0.0 { hits / lookups } else { 0.0 },
                "ratio",
            ),
            metric("serve.store_decodes", a.decodes - b.decodes, "count"),
            metric("serve.store_evictions", a.evictions - b.evictions, "count"),
            metric("serve.resident_mb_max", self.resident_max as f64 / (1 << 20) as f64, "MiB"),
            metric("serve.shed", a.shed - b.shed, "count"),
            higher(
                "serve.saturated_sessions_per_s",
                self.concurrent.sessions.len() as f64 / self.concurrent.seconds,
                "1/s",
            ),
        ]
    }
}

/// Plays the mix for `session` in `phases`. Every outcome is counted in
/// `tally`, and every checked body is compared with its library
/// reference afterwards. With a tracer, every open-loop request and
/// every other cycle of the one-connection loop is traced.
pub fn play_mix(
    session: &ServeSession,
    seed: u64,
    phases: MixPhases,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Result<MixRun, String> {
    let cycle_blocks = session.corpus.cycle_len() / mix::SESSION;
    // Enough closed-loop requests that the plan never runs dry.
    let closed = ((phases.sequential_s + phases.concurrent_s) * 400.0) as usize
        + 4 * session.corpus.cycle_len();
    let plan = mix::plan(seed, &session.corpus, phases.rate, phases.open, closed);
    let open = phases.open.div_ceil(mix::SESSION) * mix::SESSION;
    let ingest_body = session.bytes[&session.corpus.ingest_source].clone();
    let store = session.server.state().store();
    let resident = || store.resident_bytes();
    let player = Player::new(session.server.addr(), &plan, &ingest_body, &resident);
    let before = scrape(&session.server)?;
    let open_out = player.play_open(0..open, CLIENTS, tracer);
    let (sequential, memory) = measure_memory(|| {
        let how = ClosedLoop {
            threads: 1,
            seconds: phases.sequential_s,
            whole: if tracer.is_some() { 2 * cycle_blocks } else { cycle_blocks },
            tracer: tracer.map(|t| (t, cycle_blocks)),
        };
        LoopRun::new(player.play_closed(open..plan.len(), how))
    });
    let concurrent = if phases.concurrent_s > 0.0 {
        let from = open + sequential.sessions.len() * mix::SESSION;
        let how = ClosedLoop {
            threads: CLIENTS,
            seconds: phases.concurrent_s,
            whole: 1,
            tracer: None,
        };
        LoopRun::new(player.play_closed(from..plan.len(), how))
    } else {
        LoopRun::default()
    };
    let after = scrape(&session.server)?;
    for o in open_out.iter().chain(&sequential.outcomes).chain(&concurrent.outcomes) {
        tally.op(o.ok, || format!("{:?} request failed or its body changed", o.class));
    }
    check_references(&player.bodies(), &session.bytes, tally)?;
    Ok(MixRun {
        open: open_out,
        sequential,
        concurrent,
        cycle_blocks,
        before,
        after,
        resident_max: player.resident_max(),
        memory,
    })
}

/// Compares the first body of every requested key with its library
/// reference: `materialize` plus the same renderer the server uses.
/// Keys are grouped per trace so each trace is decoded once, and the
/// groups are split over two threads.
fn check_references(
    bodies: &BTreeMap<RefKey, (Vec<u8>, u64)>,
    traces: &BTreeMap<String, Arc<Vec<u8>>>,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut groups: BTreeMap<&str, Vec<&RefKey>> = BTreeMap::new();
    for key in bodies.keys() {
        let id = match key {
            RefKey::Report { id, .. }
            | RefKey::Flowgraph { id }
            | RefKey::Diff { a: id, .. } => id,
        };
        groups.entry(id.as_str()).or_default().push(key);
    }
    let groups: Vec<(&str, Vec<&RefKey>)> = groups.into_iter().collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let Some((id, keys)) = groups.get(i) else { break };
                let r = references(id, keys, traces);
                results.lock().expect("a reference thread panicked").push(r);
            });
        }
    });
    for r in results.into_inner().expect("a reference thread panicked") {
        for (key, reference) in r? {
            let (body, n) = &bodies[&key];
            if *body != reference {
                tally.fail(*n, || format!("{key:?}: body differs from the library reference"));
            }
        }
    }
    Ok(())
}

fn decode(traces: &BTreeMap<String, Arc<Vec<u8>>>, id: &str) -> Result<RecordedTrace, String> {
    let bytes = traces.get(id).ok_or_else(|| format!("no trace {id}"))?;
    read_trace(bytes).map_err(|e| e.to_string())
}

fn references(
    id: &str,
    keys: &[&RefKey],
    traces: &BTreeMap<String, Arc<Vec<u8>>>,
) -> Result<Vec<(RefKey, Vec<u8>)>, String> {
    let trace = decode(traces, id)?;
    let profile = |t: &RecordedTrace, p: &ReportParams| {
        vex_serve::store::materialize(t, p).map_err(|e| e.to_string())
    };
    let mut out = Vec::new();
    for &key in keys {
        let body = match key {
            RefKey::Report { params, .. } => {
                profile(&trace, &parse_params(params)?)?.render_text_document()
            }
            RefKey::Flowgraph { .. } => {
                profile(&trace, &ReportParams::default())?.render_dot_document(None)
            }
            RefKey::Diff { b, .. } => {
                let before = profile(&trace, &ReportParams::default())?;
                let after = profile(&decode(traces, b)?, &ReportParams::default())?;
                diff_profiles(&before, &after, &DiffOptions::default()).render_text_document()
            }
        };
        out.push((key.clone(), body.into_bytes()));
    }
    Ok(out)
}

/// Parses a mix query string into report parameters.
fn parse_params(query: &str) -> Result<ReportParams, String> {
    let mut p = ReportParams::default();
    for pair in query.split('&').filter(|s| !s.is_empty()) {
        match pair.split_once('=') {
            Some(("fine", "1")) => p.fine = true,
            Some(("races", "1")) => p.races = true,
            Some(("shards", n)) => p.shards = n.parse().map_err(|_| format!("bad {pair}"))?,
            Some(("reuse", n)) => p.reuse = Some(n.parse().map_err(|_| format!("bad {pair}"))?),
            _ => return Err(format!("unknown mix parameter {pair}")),
        }
    }
    Ok(p)
}

fn serve_untraced(cfg: &Cfg) -> Result<RunOutput, String> {
    let (session, setup_s) = timed_setup(cfg.reps(), |rep| serve_setup(cfg, rep))?;
    let mut tally = Tally::default();
    let run = play_mix(&session, cfg.seed, MixPhases::untraced(cfg), None, &mut tally)?;
    session.server.shutdown();
    let seq = &run.sequential;
    let mut metrics = end_to_end(
        &seq.session_latencies(),
        seq.sessions.len() as f64 / seq.seconds,
        run.memory,
        setup_s,
    );
    metrics.push(higher("requests_per_s", seq.outcomes.len() as f64 / seq.seconds, "1/s"));
    Ok(RunOutput {
        workload: Workload::ServeMix,
        traced: false,
        metrics: with_error_rate(metrics, &tally),
        tally,
        tracer: None,
    })
}

/// One untraced run of `w`: set-up, measured phase, output checks and
/// end-to-end metrics.
pub fn run_untraced(w: Workload, cfg: &Cfg) -> Result<RunOutput, String> {
    match w {
        Workload::Record => record_untraced(cfg),
        Workload::ReplayFine | Workload::ReplayCoarse => replay_untraced(w, cfg),
        Workload::ServeMix => serve_untraced(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_params_parse() {
        for (_, q) in SERVE_HOT.iter().chain(&SERVE_COLD) {
            parse_params(q).unwrap();
        }
        let p = parse_params("fine=1&reuse=64").unwrap();
        assert!(p.fine && p.reuse == Some(64) && p.coarse);
        assert!(parse_params("bogus=1").is_err());
    }

    #[test]
    fn budgets_stop_where_asked() {
        assert_eq!(run_ops(Budget::Ops(4), |_| 1.0).len(), 4);
        // A time budget still runs the minimum op count.
        assert_eq!(run_ops(Budget::Seconds(0.0), |_| 1.0).len(), MIN_OPS);
    }

    #[test]
    fn same_output_fails_every_op_on_a_bad_reference() {
        let mut s = SameOutput::default();
        assert!(s.observe(b"a"));
        assert!(s.observe(b"a"));
        assert!(!s.observe(b"b"));
        let mut t = Tally::default();
        s.finish(b"a", &mut t, "x");
        assert_eq!(t.failed, 0);
        s.finish(b"z", &mut t, "x");
        assert_eq!(t.failed, 3);
    }
}
