//! `vex serve` serving-path benchmarks over loopback.
//!
//! Four measurements, all recorded into `results/serve_throughput.json`:
//!
//! * **Request throughput** — cold (every request streams its trace
//!   from disk and replays it, `--cache-entries 0`) versus warm (served
//!   from the LRU report cache), asserting the cache is worth its
//!   memory (warm ≥ 10× cold).
//! * **Startup** — indexed (the store's skip-records scan) versus eager
//!   (index plus `read_trace_file` of every trace), asserting the
//!   indexed open is cheaper.
//! * **Ingest rate** — pushes/s and MB/s through `POST /ingest/{id}`
//!   against a `--ingest` server.
//! * **Budget gate** — under `--memory-budget` sized to the largest
//!   single report body, every report stays byte-identical to an
//!   unbounded server while the retained body bytes never exceed the
//!   budget, though the corpus's bodies add up to more. This is the CI
//!   assertion that bounded memory does not change observable
//!   behavior.
//!
//! Run with `cargo bench --bench serve_throughput`.

use criterion::Criterion;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;
use vex_bench::{http_get, http_post, median, record_app, write_json};
use vex_cli::{parse_args, start_server, Command};
use vex_core::prelude::*;
use vex_gpu::timing::DeviceSpec;
use vex_serve::{ProfileStore, Server, StoreOptions};
use vex_workloads::{all_apps, Variant};

/// The corpus: a few mid-sized workloads so cold reports and
/// whole-corpus decoding are real work.
const APPS: [&str; 3] = ["backprop", "bfs", "hotspot"];
/// The workload driving the throughput rows.
const APP: &str = "backprop";
const TARGET: &str = "/traces/backprop/report";

fn corpus_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vex-serve-bench-{}", std::process::id()));
    if !dir.join("backprop.vex").exists() {
        std::fs::create_dir_all(&dir).expect("create trace dir");
        let apps = all_apps();
        for name in APPS {
            let app = apps.iter().find(|a| a.name() == name).expect("bundled workload");
            let bytes = record_app(
                &DeviceSpec::rtx2080ti(),
                app.as_ref(),
                Variant::Baseline,
                ValueExpert::builder().coarse(true).fine(false),
            );
            std::fs::write(dir.join(format!("{name}.vex")), bytes).expect("write trace");
        }
    }
    dir
}

/// Starts a server on the corpus through the CLI front door.
fn serve(extra: &[&str]) -> Server {
    let dir = corpus_dir();
    let mut args = vec!["serve", dir.to_str().expect("utf8 dir"), "--addr", "127.0.0.1:0"];
    args.extend_from_slice(extra);
    let cmd = parse_args(args).expect("serve command parses");
    let Command::Serve(args) = cmd else { panic!("parsed {cmd:?}") };
    start_server(&args).expect("server starts")
}

fn fetch_ok(addr: SocketAddr, target: &str) -> Vec<u8> {
    let (status, body) = http_get(addr, target);
    assert_eq!(status, 200, "{target}");
    body
}

fn bench_serve(c: &mut Criterion) {
    let cold = serve(&["--cache-entries", "0"]);
    let warm = serve(&["--cache-entries", "64"]);
    fetch_ok(warm.addr(), TARGET); // fill the cache

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    group
        .bench_function("cold_report", |b| b.iter(|| black_box(fetch_ok(cold.addr(), TARGET))));
    group
        .bench_function("warm_report", |b| b.iter(|| black_box(fetch_ok(warm.addr(), TARGET))));
    group.bench_function("indexed_startup", |b| {
        b.iter(|| {
            black_box(
                ProfileStore::load_dir_with(&corpus_dir(), &StoreOptions::default())
                    .expect("store loads"),
            )
        })
    });
    group.finish();
    cold.shutdown();
    warm.shutdown();
}

#[derive(serde::Serialize)]
struct ServeRow {
    app: String,
    endpoint: String,
    cold_requests_per_s: f64,
    warm_requests_per_s: f64,
    warm_over_cold: f64,
    cache_hit_rate: f64,
}

#[derive(serde::Serialize)]
struct StartupRow {
    traces: usize,
    indexed_ms: f64,
    eager_ms: f64,
    eager_over_indexed: f64,
}

#[derive(serde::Serialize)]
struct IngestRow {
    pushes: usize,
    trace_bytes: usize,
    pushes_per_s: f64,
    mb_per_s: f64,
}

#[derive(serde::Serialize)]
struct BudgetGateRow {
    memory_budget_bytes: u64,
    peak_resident_bytes: u64,
    corpus_body_bytes: u64,
    evictions: u64,
}

#[derive(serde::Serialize)]
struct ServeArtifact {
    throughput: Vec<ServeRow>,
    startup: StartupRow,
    ingest: IngestRow,
    budget_gate: BudgetGateRow,
}

fn measure_rps(requests: usize, mut one: impl FnMut()) -> f64 {
    const RUNS: usize = 5;
    let mut rates = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let t0 = Instant::now();
        for _ in 0..requests {
            one();
        }
        rates.push(requests as f64 / t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE));
    }
    median(rates)
}

fn throughput_row() -> ServeRow {
    let cold = serve(&["--cache-entries", "0"]);
    let warm = serve(&["--cache-entries", "64"]);
    let reference = fetch_ok(warm.addr(), TARGET); // fill the cache

    let cold_rps = measure_rps(5, || {
        assert_eq!(fetch_ok(cold.addr(), TARGET), reference, "cold body diverged");
    });
    let warm_rps = measure_rps(50, || {
        assert_eq!(fetch_ok(warm.addr(), TARGET), reference, "warm body diverged");
    });

    let metrics = String::from_utf8(fetch_ok(warm.addr(), "/metrics")).expect("utf8 metrics");
    let cache_hit_rate: f64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("vex_cache_hit_rate "))
        .expect("hit-rate gauge present")
        .parse()
        .expect("numeric hit rate");

    cold.shutdown();
    warm.shutdown();
    ServeRow {
        app: APP.to_owned(),
        endpoint: TARGET.to_owned(),
        cold_requests_per_s: cold_rps,
        warm_requests_per_s: warm_rps,
        warm_over_cold: warm_rps / cold_rps.max(f64::MIN_POSITIVE),
        cache_hit_rate,
    }
}

/// Indexed open (skip-records scan) versus an eager startup (index plus
/// `read_trace_file` of every trace).
fn startup_row(dir: &Path) -> StartupRow {
    const RUNS: usize = 5;
    let mut indexed = Vec::with_capacity(RUNS);
    let mut eager = Vec::with_capacity(RUNS);
    let mut traces = 0;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let store =
            ProfileStore::load_dir_with(dir, &StoreOptions::default()).expect("store loads");
        let index_ms = t0.elapsed().as_secs_f64() * 1e3;
        indexed.push(index_ms);
        let ids = store.ids();
        traces = ids.len();
        let t0 = Instant::now();
        for id in &ids {
            store.decoded(id).expect("decode");
        }
        eager.push(index_ms + t0.elapsed().as_secs_f64() * 1e3);
    }
    let indexed_ms = median(indexed);
    let eager_ms = median(eager);
    StartupRow {
        traces,
        indexed_ms,
        eager_ms,
        eager_over_indexed: eager_ms / indexed_ms.max(f64::MIN_POSITIVE),
    }
}

/// Push rate through `POST /ingest/{id}` into an empty `--ingest` store.
fn ingest_row() -> IngestRow {
    let dir =
        std::env::temp_dir().join(format!("vex-serve-bench-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create ingest dir");
    let bytes = std::fs::read(corpus_dir().join(format!("{APP}.vex"))).expect("corpus trace");
    let cmd = parse_args([
        "serve",
        dir.to_str().expect("utf8 dir"),
        "--addr",
        "127.0.0.1:0",
        "--ingest",
    ])
    .expect("serve command parses");
    let Command::Serve(args) = cmd else { panic!("parsed {cmd:?}") };
    let server = start_server(&args).expect("server starts");
    let addr = server.addr();

    const PUSHES: usize = 8;
    const RUNS: usize = 5;
    let mut rates = Vec::with_capacity(RUNS);
    for run in 0..RUNS {
        let t0 = Instant::now();
        for i in 0..PUSHES {
            let (status, body) = http_post(addr, &format!("/ingest/p{run}-{i}"), &bytes);
            assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
        }
        rates.push(PUSHES as f64 / t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE));
    }
    let pushes_per_s = median(rates);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    IngestRow {
        pushes: PUSHES * RUNS,
        trace_bytes: bytes.len(),
        pushes_per_s,
        mb_per_s: pushes_per_s * bytes.len() as f64 / (1024.0 * 1024.0),
    }
}

/// The bounded-memory gate: serve the corpus under a budget that admits
/// the largest single report body but not all of them; responses must
/// match an unbounded server byte-for-byte, the retained body bytes must
/// stay under budget, and bodies must be evicted to keep them there.
fn budget_gate() -> BudgetGateRow {
    let unbounded = serve(&[]);
    let targets: Vec<String> = APPS.iter().map(|id| format!("/traces/{id}/report")).collect();
    let mut largest = 0u64;
    let mut corpus_bodies = 0u64;
    for target in &targets {
        let size = fetch_ok(unbounded.addr(), target).len() as u64;
        largest = largest.max(size);
        corpus_bodies += size;
    }
    assert!(
        corpus_bodies > largest,
        "gate needs a corpus that does not fit its own budget ({corpus_bodies} <= {largest})"
    );

    let budget = largest;
    let budgeted = serve(&["--memory-budget", &budget.to_string()]);
    let mut peak_resident = 0u64;
    for round in 0..2 {
        for target in &targets {
            let got = fetch_ok(budgeted.addr(), target);
            let want = fetch_ok(unbounded.addr(), target);
            assert_eq!(got, want, "{target} diverged under the memory budget (round {round})");
            let resident = budgeted.state().store().resident_bytes();
            assert!(
                resident <= budget,
                "resident {resident} bytes exceeds the {budget}-byte budget after {target}"
            );
            peak_resident = peak_resident.max(resident);
        }
    }
    let evictions = budgeted
        .state()
        .cache()
        .stats()
        .budget_evictions
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(evictions > 0, "an over-budget corpus must evict");

    budgeted.shutdown();
    unbounded.shutdown();
    BudgetGateRow {
        memory_budget_bytes: budget,
        peak_resident_bytes: peak_resident,
        corpus_body_bytes: corpus_bodies,
        evictions,
    }
}

fn artifact() {
    let dir = corpus_dir();
    let throughput = throughput_row();
    let startup = startup_row(&dir);
    let ingest = ingest_row();
    let gate = budget_gate();

    println!(
        "{:<10} cold {:>10.1} req/s  warm {:>10.1} req/s  ({:.1}x, hit rate {:.3})",
        throughput.app,
        throughput.cold_requests_per_s,
        throughput.warm_requests_per_s,
        throughput.warm_over_cold,
        throughput.cache_hit_rate
    );
    println!(
        "startup    indexed {:>8.2} ms  eager {:>8.2} ms  ({:.1}x, {} traces)",
        startup.indexed_ms, startup.eager_ms, startup.eager_over_indexed, startup.traces
    );
    println!(
        "ingest     {:>10.1} push/s  {:>8.1} MB/s  ({} B/trace)",
        ingest.pushes_per_s, ingest.mb_per_s, ingest.trace_bytes
    );
    println!(
        "budget     {} B cap, peak {} B resident, corpus {} B of bodies, {} evictions",
        gate.memory_budget_bytes,
        gate.peak_resident_bytes,
        gate.corpus_body_bytes,
        gate.evictions
    );

    assert!(
        throughput.warm_over_cold >= 10.0,
        "cached requests must be >=10x faster than cold materialization, got {:.1}x",
        throughput.warm_over_cold
    );
    assert!(throughput.cache_hit_rate > 0.0, "warm server must report cache hits");
    assert!(
        startup.indexed_ms < startup.eager_ms,
        "the skip-records index must open faster than eager decoding ({:.2} >= {:.2} ms)",
        startup.indexed_ms,
        startup.eager_ms
    );

    write_json(
        "serve_throughput",
        &ServeArtifact { throughput: vec![throughput], startup, ingest, budget_gate: gate },
    );

    std::fs::remove_dir_all(&dir).ok();
}

criterion::criterion_group!(benches, bench_serve);

fn main() {
    benches();
    artifact();
}
