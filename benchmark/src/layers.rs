//! The traced pass: the workload's own ops with spans, then a sweep that
//! times one public call per layer on the workload's input trace.
//!
//! Every workload reports every per-layer metric. Layers its op passes
//! through are timed on the op itself (the primary phase); the others
//! are timed by the sweep on the same input, so a change to any layer
//! shows on every workload whose input exercises it.

use crate::spans::{Span, Tracer};
use crate::stats::median;
use crate::workloads::{
    self, live_report, ms_since, record_lib, record_ops, replay_ops, Budget, Cfg, Metric,
    MixPhases, MixRun, RecordInput, Recorded, RunOutput, SameOutput, ServeSession, Tally,
    Target, Workload,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vex_core::fine::{merge_findings, FineState};
use vex_core::patterns::PatternConfig;
use vex_core::prelude::*;
use vex_core::registry::ObjectRegistry;
use vex_core::sampling::BlockSampler;
use vex_gpu::hooks::ApiKind;
use vex_gpu::runtime::Runtime;
use vex_gpu::timing::DeviceSpec;
use vex_serve::{ProfileStore, StoreOptions};
use vex_trace::codec::{
    decode_columnar_batch, decode_columnar_batch_projected, encode_columnar_batch,
};
use vex_trace::container::{read_trace, read_trace_with};
use vex_trace::event::{Event, EventSink};
use vex_workloads::Variant;

/// Share of `--seconds` spent on the workload's own traced ops; the
/// sweep takes roughly the rest.
const PRIMARY_SHARE: f64 = 0.5;
/// The same for serve-mix, whose traced and untraced sessions are a
/// cycle apart rather than neighbours, so it needs more of them to
/// show the tracing overhead; its sweep skips the short serve mix.
const SERVE_PRIMARY_SHARE: f64 = 0.7;

/// What the sweep runs on: the workload's target trace, a second trace
/// that evicts it from single-trace caches, and a pair to diff.
struct SweepInput {
    target: Target,
    recorded: Recorded,
    /// Directory holding every trace of `traces` as `{id}.vex`.
    dir: PathBuf,
    traces: BTreeMap<String, Arc<Vec<u8>>>,
    other: String,
    pair: (String, String),
}

impl SweepInput {
    /// Writes `traces` into a fresh `dir`.
    fn new(
        dir: PathBuf,
        target: Target,
        recorded: Recorded,
        traces: BTreeMap<String, Arc<Vec<u8>>>,
        other: String,
        pair: (String, String),
    ) -> Result<SweepInput, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        for (id, bytes) in &traces {
            std::fs::write(dir.join(format!("{id}.vex")), bytes.as_slice())
                .map_err(|e| e.to_string())?;
        }
        Ok(SweepInput { target, recorded, dir, traces, other, pair })
    }

    fn path(&self) -> PathBuf {
        self.dir.join(format!("{}.vex", self.target.app))
    }

    fn records(&self) -> f64 {
        self.recorded.stats.events as f64
    }
}

/// The target plus its optimized variant, the sweep input of every
/// workload except serve-mix.
fn pair_input(cfg: &Cfg, target: Target, recorded: Recorded) -> Result<SweepInput, String> {
    let other = format!("{}-opt", target.app);
    let opt = record_lib(target.app, Variant::Optimized)?;
    let traces = BTreeMap::from([
        (target.app.to_owned(), Arc::new(recorded.bytes.clone())),
        (other.clone(), Arc::new(opt.bytes)),
    ]);
    let pair = (target.app.to_owned(), other.clone());
    SweepInput::new(cfg.work.join("sweep"), target, recorded, traces, other, pair)
}

/// Op durations gathered across the primary phase and the sweep.
#[derive(Default)]
struct Ops {
    record_untraced: Vec<f64>,
    replay_untraced: Vec<f64>,
    /// Tracing overhead of the primary phase's ops.
    overhead: f64,
    /// Cold report time beyond its library calls, per repetition.
    cold_unaccounted: Vec<f64>,
    mix: Option<MixRun>,
}

/// Tracing overhead of alternating ops: the median, over each traced op
/// and the untraced op just before it, of their latency ratio, minus 1.
/// Neighbouring ops share the host's state, so a slow spell of the host
/// does not read as overhead.
fn paired_overhead(untraced: &[f64], traced: &[f64]) -> f64 {
    let ratios: Vec<f64> = untraced.iter().zip(traced).map(|(u, t)| t / u).collect();
    median(&ratios) - 1.0
}

/// One traced run of `w`: primary phase, sweep, per-layer metrics.
pub fn run_traced(w: Workload, cfg: &Cfg) -> Result<RunOutput, String> {
    let target = w.target();
    let tr = Tracer::new();
    let mut tally = Tally::default();
    let mut ops = Ops::default();
    let primary = cfg.budget(PRIMARY_SHARE);
    let reference = live_report(target)?;
    let input = match w {
        Workload::Record => {
            let rec = workloads::record_setup(cfg, target)?;
            let (u, t) = record_ops(target, &rec, primary, Some(&tr), &mut tally);
            ops.overhead = paired_overhead(&u, &t);
            ops.record_untraced = u;
            pair_input(cfg, target, rec.reference)?
        }
        Workload::ReplayFine | Workload::ReplayCoarse => {
            let rep = workloads::replay_setup(cfg, target)?;
            let mut outputs = SameOutput::default();
            let (u, t) =
                replay_ops(target, &rep.path, primary, Some(&tr), &mut outputs, &mut tally);
            outputs.finish(reference.as_bytes(), &mut tally, w.name());
            ops.overhead = paired_overhead(&u, &t);
            ops.replay_untraced = u;
            pair_input(cfg, target, rep.recorded)?
        }
        Workload::ServeMix => {
            let session = workloads::serve_setup(cfg, 0)?;
            // Half a cycle of the cold keys in the open loop leaves room
            // for enough one-connection cycles to pair traced sessions
            // with untraced ones.
            let open = session.corpus.cycle_len() / 2;
            let phases = MixPhases::traced(cfg, open, cfg.seconds * SERVE_PRIMARY_SHARE);
            let run = workloads::play_mix(&session, cfg.seed, phases, Some(&tr), &mut tally)?;
            ops.overhead = run.trace_overhead();
            ops.mix = Some(run);
            let traces = session.bytes.clone();
            session.server.shutdown();
            let recorded = record_lib(target.app, Variant::Baseline)?;
            tally.op(*traces[target.app] == recorded.bytes, || {
                "re-recording the target gave different bytes".into()
            });
            let other = format!("{}-opt", target.app);
            let pair = ("LAMMPS".to_owned(), "LAMMPS-opt".to_owned());
            SweepInput::new(cfg.work.join("sweep"), target, recorded, traces, other, pair)?
        }
    };
    sweep(w, cfg, &input, &reference, &tr, &mut tally, &mut ops)?;
    let metrics = layer_metrics(&input, &tr, &ops);
    Ok(RunOutput { workload: w, traced: true, tally, metrics, tracer: Some(tr) })
}

/// Counts events, to time dispatch without analysis.
struct CountingSink(AtomicU64);

impl EventSink for CountingSink {
    fn on_event(&self, event: &Event) {
        std::hint::black_box(event);
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Times every layer call on `input`, `cfg.reps()` times each.
fn sweep(
    w: Workload,
    cfg: &Cfg,
    input: &SweepInput,
    reference: &str,
    tr: &Tracer,
    tally: &mut Tally,
    ops: &mut Ops,
) -> Result<(), String> {
    let k = cfg.reps();
    let target = input.target;
    let bytes = input.traces[target.app].as_slice();
    let path = input.path();
    let err = |e: &dyn std::fmt::Display| e.to_string();

    let app = vex_cli::find_app(target.app).map_err(|e| e.0)?;
    for _ in 0..k {
        tr.span("gpu.simulate", None, tr.new_op(), |_| {
            let mut rt = Runtime::new(DeviceSpec::rtx2080ti());
            app.run(&mut rt, Variant::Baseline).map_err(|e| e.to_string())
        })?;
    }

    if w != Workload::Record {
        let rec = RecordInput {
            out: cfg.work.join("sweep-record.vex"),
            reference: input.recorded.clone(),
        };
        ops.record_untraced = record_ops(target, &rec, Budget::Ops(2 * k), Some(tr), tally).0;
    }
    if !matches!(w, Workload::ReplayFine | Workload::ReplayCoarse) {
        let mut outputs = SameOutput::default();
        ops.replay_untraced =
            replay_ops(target, &path, Budget::Ops(2 * k), Some(tr), &mut outputs, tally).0;
        outputs.finish(reference.as_bytes(), tally, "sweep replay");
    }

    // Codec: encode every batch of the recording, then decode it back
    // projected onto the columns this target's replay reads.
    let full = read_trace(bytes).map_err(|e| err(&e))?;
    let batches: Vec<&[vex_trace::AccessRecord]> = full
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Batch { records, .. } => Some(records.as_slice()),
            _ => None,
        })
        .collect();
    let mut payloads = Vec::new();
    for _ in 0..k {
        payloads = tr.span("codec.encode", None, tr.new_op(), |_| {
            batches.iter().map(|b| encode_columnar_batch(b)).collect::<Vec<_>>()
        });
    }
    let round_trips = payloads
        .iter()
        .zip(&batches)
        .all(|(p, b)| decode_columnar_batch(p).is_ok_and(|d| d == *b));
    tally.op(round_trips, || "columnar encode/decode does not round-trip".into());
    let columns = target.builder().required_columns();
    for _ in 0..k {
        let decoded = tr.span("codec.decode", None, tr.new_op(), |_| {
            payloads
                .iter()
                .map(|p| decode_columnar_batch_projected(p, columns).map(|d| d.count))
                .sum::<Result<usize, _>>()
        });
        tally.op(decoded.is_ok_and(|n| n as f64 == input.records()), || {
            "projected decode lost records".into()
        });
    }
    drop(payloads);

    for _ in 0..k {
        let index = tr.span("index.scan", None, tr.new_op(), |_| {
            vex_trace::index::index_trace_file(&path)
        });
        tally.op(index.is_ok_and(|i| i.summary.records == input.recorded.stats.events), || {
            "skip-scan record count differs from the collector's".into()
        });
    }

    {
        let projected =
            read_trace_with(bytes, &target.builder().decode_options()).map_err(|e| err(&e))?;
        for _ in 0..k {
            let sink = CountingSink(AtomicU64::new(0));
            tr.span("core.dispatch", None, tr.new_op(), |_| projected.dispatch(&sink));
            tally.op(sink.0.load(Ordering::Relaxed) == projected.events.len() as u64, || {
                "dispatch skipped events".into()
            });
        }
    }

    // Analysis passes on the full decode: each pass alone, and the
    // target's configuration on the sharded engine.
    let mut fine_profile = None;
    for _ in 0..k {
        tr.span("core.coarse", None, tr.new_op(), |_| {
            ValueExpert::builder().coarse(true).fine(false).replay(&full)
        })
        .map_err(|e| err(&e))?;
        fine_profile = Some(
            tr.span("core.fine", None, tr.new_op(), |_| {
                ValueExpert::builder().coarse(false).fine(true).replay(&full)
            })
            .map_err(|e| err(&e))?,
        );
        let sharded = tr.span("core.shards2", None, tr.new_op(), |_| {
            target.builder().analysis_shards(2).replay(&full)
        });
        tally.op(sharded.is_ok_and(|p| p.render_text_document() == reference), || {
            "sharded replay differs from the live report".into()
        });
    }
    let want = serde_json::to_string(&fine_profile.expect("k >= 1").fine_findings)
        .map_err(|e| err(&e))?;
    for _ in 0..k {
        let findings = fine_direct(&full, tr);
        let got = serde_json::to_string(&findings).map_err(|e| err(&e))?;
        tally.op(got == want, || {
            "FineState driven directly differs from the fine replay".into()
        });
    }
    drop(full);

    ops.cold_unaccounted = store_probes(input, reference, tr, tally, k)?;

    let diff_profile = |id: &str| {
        let trace = read_trace(&input.traces[id]).map_err(|e| err(&e))?;
        vex_serve::store::materialize(&trace, &target.params()).map_err(|e| err(&e))
    };
    let (a, b) = (diff_profile(&input.pair.0)?, diff_profile(&input.pair.1)?);
    let mut diffs = SameOutput::default();
    for _ in 0..k {
        let text = tr.span("diff.compare", None, tr.new_op(), |_| {
            diff_profiles(&a, &b, &DiffOptions::default()).render_text_document()
        });
        tally.op(diffs.observe(text.as_bytes()), || "diff output changed between reps".into());
    }

    if w != Workload::ServeMix {
        ops.mix = Some(mini_mix(cfg, input, tr, tally)?);
    }
    Ok(())
}

/// Drives [`FineState`] directly from the decoded events, with an
/// [`ObjectRegistry`] fed from the API events, timing each
/// `on_batch` and `on_launch_complete` call under one `fine.direct`
/// span.
fn fine_direct(trace: &vex_trace::container::RecordedTrace, tr: &Tracer) -> Vec<FineFinding> {
    let op = tr.new_op();
    tr.span("fine.direct", None, op, |id| {
        let p = Some(id);
        let mut registry = ObjectRegistry::new();
        let mut fine = FineState::new(PatternConfig::default(), BlockSampler::new(1));
        for event in &trace.events {
            match event {
                Event::Api { event, .. } => match &event.kind {
                    ApiKind::Malloc { info } => registry.on_alloc(info),
                    ApiKind::Free { info } => registry.on_free(info),
                    _ => {}
                },
                Event::Batch { info, records } => {
                    tr.span("fine.batch", p, op, |_| fine.on_batch(info, records, &registry))
                }
                Event::LaunchEnd { info } => {
                    tr.span("fine.launch", p, op, |_| fine.on_launch_complete(info, &registry))
                }
                Event::LaunchBegin { .. } | Event::SkippedLaunch { .. } => {}
            }
        }
        merge_findings(fine.findings())
    })
}

/// The store and cold-serve probes: open, decode and materialize
/// through `vex-serve`, and cold reports from a server that keeps
/// nothing. Returns, per repetition, how much longer the cold report
/// took than the library calls it is made of.
fn store_probes(
    input: &SweepInput,
    reference: &str,
    tr: &Tracer,
    tally: &mut Tally,
    k: usize,
) -> Result<Vec<f64>, String> {
    let target = input.target;
    let id = target.app;
    let opts = StoreOptions { memory_budget: Some(1), ..StoreOptions::default() };
    let mut store = None;
    for _ in 0..k {
        store = Some(
            tr.span("store.open", None, tr.new_op(), |_| {
                ProfileStore::load_dir_with(&input.dir, &opts)
            })
            .map_err(|e| e.0)?,
        );
    }
    let store = store.expect("k >= 1");
    let server = workloads::start_server(
        &input.dir,
        &["--cache-entries", "0", "--memory-budget", "1", "--workers", "2"],
    )?;
    let query = match target.query() {
        "" => String::new(),
        q => format!("?{q}"),
    };
    let get = |id: &str| {
        crate::mix::request(server.addr(), "GET", &format!("/traces/{id}/report{query}"), &[])
    };
    let mut unaccounted = Vec::with_capacity(k);
    for _ in 0..k {
        // Each repetition times the library calls and the server right
        // after each other, so a slow spell of the host falls on both.
        // The one-byte budgets keep only the last decode resident, so
        // decoding the other trace first makes the timed decodes cold.
        store.decoded(&input.other).map_err(|e| e.0)?;
        let t = Instant::now();
        let decoded = tr
            .span("store.decode", None, tr.new_op(), |_| store.decoded(id))
            .map_err(|e| e.0)?;
        let profile = tr.span("store.materialize", None, tr.new_op(), |_| {
            vex_serve::store::materialize(&decoded, &target.params())
        });
        let text = profile.map(|p| p.render_text_document());
        let library_ms = ms_since(t);
        drop(decoded);
        tally.op(text.is_ok_and(|t| t == reference), || {
            "materialize differs from the live report".into()
        });

        let evict = get(&input.other);
        tally.op(evict.is_ok_and(|(s, _)| s == 200), || {
            "cold report of the other trace failed".into()
        });
        let t = Instant::now();
        let cold = tr.span("serve.cold_report", None, tr.new_op(), |_| get(id));
        unaccounted.push(ms_since(t) - library_ms);
        tally.op(cold.is_ok_and(|(s, body)| s == 200 && body == reference.as_bytes()), || {
            "cold report differs from the live report".into()
        });
    }
    server.shutdown();
    Ok(unaccounted)
}

/// A short serve mix over the sweep input, for workloads whose own op
/// is not a request.
fn mini_mix(
    cfg: &Cfg,
    input: &SweepInput,
    tr: &Tracer,
    tally: &mut Tally,
) -> Result<MixRun, String> {
    let ids = vec![input.target.app.to_owned(), input.other.clone()];
    let query = input.target.query().to_owned();
    let corpus = crate::mix::Corpus {
        pairs: vec![(ids[0].clone(), ids[1].clone())],
        hot: vec![(ids[0].clone(), query.clone())],
        cold: vec![(ids[1].clone(), query)],
        flowgraphs: vec![ids[0].clone()],
        ingest_source: input.other.clone(),
        ingest_prefix: format!("ing{}-", cfg.seed),
        ids: ids.clone(),
    };
    let traces = ids.iter().map(|id| (id.clone(), input.traces[id].to_vec())).collect();
    let dir = cfg.work.join("sweep-serve");
    let _ = std::fs::remove_dir_all(&dir);
    let session = ServeSession::start(&dir, traces, corpus)?;
    let phases = MixPhases::traced(cfg, 2 * crate::mix::SESSION, 3.5);
    let run = workloads::play_mix(&session, cfg.seed, phases, Some(tr), tally);
    session.server.shutdown();
    run
}

/// Sum of the durations of `child` spans under each `parent` span, ms.
fn per_parent_sums(spans: &[Span], parent: &str, child: &str) -> Vec<f64> {
    let mut sums: BTreeMap<u64, f64> =
        spans.iter().filter(|s| s.name == parent).map(|s| (s.id, 0.0)).collect();
    for s in spans.iter().filter(|s| s.name == child) {
        if let Some(sum) = s.parent.and_then(|p| sums.get_mut(&p)) {
            *sum += s.duration_ns() as f64 / 1e6;
        }
    }
    sums.into_values().collect()
}

fn layer_metrics(input: &SweepInput, tr: &Tracer, ops: &Ops) -> Vec<Metric> {
    use workloads::metric;
    let med = |name: &str| median(&tr.durations_ms(name));
    let records = input.records();
    let per_record = |ms: f64| ms * 1e6 / records;
    let simulate = med("gpu.simulate");
    let record = median(&ops.record_untraced);
    let collect = record - simulate;
    let read = med("container.read");
    let decode = med("container.decode");
    let analyze = med("core.analyze");
    let render = med("report.render");
    let spans = tr.spans();
    let fine_batch = median(&per_parent_sums(&spans, "fine.direct", "fine.batch"));
    let fine_launch = median(&per_parent_sums(&spans, "fine.direct", "fine.launch"));
    let decoded_mb = vex_trace::index::index_trace(input.traces[input.target.app].as_slice())
        .map_or(f64::NAN, |i| i.decoded_bytes_estimate() as f64 / (1 << 20) as f64);
    let mut m = vec![
        metric("gpu.simulate_ms", simulate, "ms"),
        metric("trace.collect_ms", collect, "ms"),
        metric("trace.collect_ns_per_record", per_record(collect), "ns/record"),
        metric("trace.flushes", input.recorded.stats.flushes as f64, "count"),
        metric("record.slowdown", record / simulate, "x"),
        metric("codec.encode_ns_per_record", per_record(med("codec.encode")), "ns/record"),
        metric("codec.decode_ns_per_record", per_record(med("codec.decode")), "ns/record"),
        metric(
            "container.bytes_per_record",
            input.recorded.bytes.len() as f64 / records,
            "B/record",
        ),
        metric("container.read_ms", read, "ms"),
        metric("container.decode_ms", decode, "ms"),
        metric("container.decode_ns_per_record", per_record(decode), "ns/record"),
        metric("container.decoded_mb", decoded_mb, "MiB"),
        metric("index.scan_ms", med("index.scan"), "ms"),
        metric("core.dispatch_ms", med("core.dispatch"), "ms"),
        metric("core.analyze_ms", analyze, "ms"),
        metric("core.coarse_ms", med("core.coarse"), "ms"),
        metric("core.fine_ms", med("core.fine"), "ms"),
        metric("core.shards2_ms", med("core.shards2"), "ms"),
        metric("fine.batch_ns_per_record", per_record(fine_batch), "ns/record"),
        metric("fine.launch_ms", fine_launch, "ms"),
        metric("report.render_ms", render, "ms"),
        metric(
            "replay.unaccounted_frac",
            1.0 - (read + decode + analyze + render) / median(&ops.replay_untraced),
            "ratio",
        ),
        metric("store.open_ms", med("store.open"), "ms"),
        metric("store.decode_ms", med("store.decode"), "ms"),
        metric("store.materialize_ms", med("store.materialize"), "ms"),
        metric("serve.cold_report_ms", med("serve.cold_report"), "ms"),
        metric("serve.cold_unaccounted_ms", median(&ops.cold_unaccounted), "ms"),
        metric("diff.compare_ms", med("diff.compare"), "ms"),
        metric("bench.trace_overhead_frac", ops.overhead, "ratio"),
    ];
    if let Some(mix) = &ops.mix {
        m.extend(mix.layer_metrics());
    }
    m
}
