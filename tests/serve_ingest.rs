//! Ingest and eviction suite for `vex serve --ingest --memory-budget`.
//!
//! The push path gets the same adversarial treatment the read path gets
//! in `serve_robustness`: truncated chunked uploads, oversized bodies,
//! garbage payloads, duplicate and malformed ids, and concurrent pushes
//! must all end in the right 4xx — never a partial trace in the store,
//! never a dead server. A property test then pins the bounded-memory
//! contract: a server whose memory budget admits one rendered body but
//! not the whole corpus's serves byte-identical bodies to an unbounded
//! one across random request orders, while the body bytes it retains
//! never exceed the budget. A delete + re-ingest racing report requests
//! only ever serves one of the two incarnations.

use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use vex_bench::{http_get, http_post, record_app};
use vex_core::prelude::*;
use vex_gpu::timing::DeviceSpec;
use vex_serve::store::materialize;
use vex_serve::{
    push_trace, ProfileStore, PushError, ReportParams, Server, ServerConfig, StoreOptions,
};
use vex_trace::container::read_trace;
use vex_workloads::{apps::qmcpack::Qmcpack, Variant};

/// A small QMCPACK trace; `walkers` varies the content and size.
fn qmcpack_trace(walkers: usize) -> Vec<u8> {
    let app = Qmcpack { walkers, setup_elems: 64, steps: 1 };
    record_app(
        &DeviceSpec::rtx2080ti(),
        &app,
        Variant::Baseline,
        ValueExpert::builder().coarse(true).fine(false),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vex-serve-ingest-{tag}-{}", std::process::id()))
}

/// Starts a server over `dir` with the given store options and config.
fn serve(dir: &Path, opts: StoreOptions, config: ServerConfig) -> Server {
    std::fs::create_dir_all(dir).expect("create trace dir");
    let store = ProfileStore::load_dir_with(dir, &opts).expect("store loads");
    Server::bind(store, "127.0.0.1:0", config).expect("server binds")
}

fn ingest_config() -> ServerConfig {
    ServerConfig { ingest_enabled: true, ..ServerConfig::default() }
}

/// Sends raw bytes, half-closes, returns the response bytes.
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let _ = conn.write_all(bytes);
    let _ = conn.shutdown(Shutdown::Write);
    let mut resp = Vec::new();
    let _ = conn.read_to_end(&mut resp);
    resp
}

fn http_delete(addr: SocketAddr, target: &str) -> Vec<u8> {
    send_raw(addr, format!("DELETE {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
}

/// Wraps `body` in chunked transfer coding, `chunk` bytes per chunk.
fn chunked(body: &[u8], chunk: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for part in body.chunks(chunk.max(1)) {
        out.extend_from_slice(format!("{:x}\r\n", part.len()).as_bytes());
        out.extend_from_slice(part);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

fn chunked_post(addr: SocketAddr, target: &str, body: &[u8], chunk: usize) -> Vec<u8> {
    let mut raw =
        format!("POST {target} HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n")
            .into_bytes();
    raw.extend_from_slice(&chunked(body, chunk));
    send_raw(addr, &raw)
}

/// Push → query → duplicate-409 → delete → 404 → re-push, end to end
/// through the public client.
#[test]
fn push_lifecycle_with_duplicates_and_deletes() {
    let dir = temp_dir("lifecycle");
    let server = serve(&dir, StoreOptions::default(), ingest_config());
    let addr = server.addr();
    let url = format!("http://{addr}");
    let bytes = qmcpack_trace(512);

    let row = push_trace(&url, "qmc", &bytes).expect("first push lands");
    assert!(row.contains("\"id\": \"qmc\""), "{row}");
    assert!(dir.join("qmc.vex").is_file(), "push persists the container");
    let (status, body) = http_get(addr, "/traces/qmc/report");
    assert_eq!(status, 200);
    assert!(!body.is_empty());

    match push_trace(&url, "qmc", &bytes) {
        Err(PushError::Rejected { status: 409, .. }) => {}
        other => panic!("duplicate push must 409, got {other:?}"),
    }

    let resp = http_delete(addr, "/traces/qmc");
    assert!(resp.starts_with(b"HTTP/1.1 200 "), "{}", String::from_utf8_lossy(&resp));
    assert!(!dir.join("qmc.vex").exists(), "delete removes the container");
    let (status, _) = http_get(addr, "/traces/qmc/report");
    assert_eq!(status, 404, "deleted trace is gone");
    let resp = http_delete(addr, "/traces/qmc");
    assert!(resp.starts_with(b"HTTP/1.1 404 "), "{}", String::from_utf8_lossy(&resp));

    // The id is free again after deletion.
    push_trace(&url, "qmc", &bytes).expect("re-push after delete lands");
    let (status, _) = http_get(addr, "/traces/qmc/kernels");
    assert_eq!(status, 200);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Delete + re-ingest of *different* bytes under the same id must serve
/// the new trace's reports — the report cache may never replay the old
/// incarnation (cache keys fold in the entry's generation).
#[test]
fn reingest_under_same_id_invalidates_cached_reports() {
    let dir = temp_dir("reingest");
    let server = serve(&dir, StoreOptions::default(), ingest_config());
    let addr = server.addr();
    let url = format!("http://{addr}");
    let old_bytes = qmcpack_trace(512);
    let new_bytes = qmcpack_trace(1536);

    // `ref` pins what the new trace's report must look like; its content
    // differs from the old trace's.
    push_trace(&url, "swap", &old_bytes).expect("first push lands");
    push_trace(&url, "ref", &new_bytes).expect("reference push lands");
    let (status, old_report) = http_get(addr, "/traces/swap/report");
    assert_eq!(status, 200);
    let (status, want) = http_get(addr, "/traces/ref/report");
    assert_eq!(status, 200);
    assert_ne!(old_report, want, "fixture traces must render different reports");

    // Warm the cache again (hit), then swap the trace behind the id.
    let (_, cached) = http_get(addr, "/traces/swap/report");
    assert_eq!(cached, old_report, "second read is the cached body");
    let resp = http_delete(addr, "/traces/swap");
    assert!(resp.starts_with(b"HTTP/1.1 200 "), "{}", String::from_utf8_lossy(&resp));
    push_trace(&url, "swap", &new_bytes).expect("re-push different bytes lands");

    let (status, got) = http_get(addr, "/traces/swap/report");
    assert_eq!(status, 200);
    assert_eq!(
        got, want,
        "report after re-ingest must be the new trace's, not the cached old one"
    );
    // Flowgraphs go through the same keyed cache.
    let (_, old_flow) = http_get(addr, "/traces/ref/flowgraph?format=dot");
    let (status, new_flow) = http_get(addr, "/traces/swap/flowgraph?format=dot");
    assert_eq!(status, 200);
    assert_eq!(new_flow, old_flow, "flowgraph after re-ingest must match the new trace");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// One client loops a fine report of `x` while another deletes `x` and
/// re-ingests it with the other of two recordings. The file a report
/// streams is opened under the index lock, so every 200 body is one
/// incarnation's report, never a mix or a stale cache hit; a request
/// that loses the race gets a 4xx. Once the churn stops, the newest
/// incarnation is served.
#[test]
fn reports_racing_delete_and_reingest_serve_one_incarnation() {
    let dir = temp_dir("race");
    let config = ServerConfig { cache_entries: 0, ..ingest_config() };
    let server = serve(&dir, StoreOptions::default(), config);
    let addr = server.addr();
    let url = format!("http://{addr}");
    let fine = ReportParams { fine: true, ..ReportParams::default() };
    let incarnations: Vec<(Vec<u8>, Vec<u8>)> = [256, 640]
        .into_iter()
        .map(|walkers| {
            let app = Qmcpack { walkers, setup_elems: 64, steps: 1 };
            let builder = ValueExpert::builder().coarse(true).fine(true);
            let bytes = record_app(&DeviceSpec::rtx2080ti(), &app, Variant::Baseline, builder);
            let trace = read_trace(&bytes).expect("recording decodes");
            let report = materialize(&trace, &fine).expect("fine recording replays");
            (bytes, report.render_text_document().into_bytes())
        })
        .collect();
    assert_ne!(incarnations[0].1, incarnations[1].1, "the recordings must differ");
    push_trace(&url, "x", &incarnations[0].0).expect("first push lands");

    const ROUNDS: usize = 24;
    let churning = AtomicBool::new(true);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut served = 0;
            while churning.load(Ordering::Relaxed) {
                let (status, body) = http_get(addr, "/traces/x/report?fine=1");
                match status {
                    200 => {
                        assert!(
                            incarnations.iter().any(|(_, report)| *report == body),
                            "a 200 body matches neither incarnation"
                        );
                        served += 1;
                    }
                    400 | 404 => {}
                    other => panic!("status {other}: {}", String::from_utf8_lossy(&body)),
                }
            }
            served
        });
        for round in 1..=ROUNDS {
            let resp = http_delete(addr, "/traces/x");
            assert!(resp.starts_with(b"HTTP/1.1 200 "), "{}", String::from_utf8_lossy(&resp));
            push_trace(&url, "x", &incarnations[round % 2].0).expect("re-push lands");
        }
        churning.store(false, Ordering::Relaxed);
        assert!(reader.join().expect("reader panicked") > 0, "no report was served");
    });
    let (status, body) = http_get(addr, "/traces/x/report?fine=1");
    assert_eq!(status, 200);
    assert_eq!(body, incarnations[ROUNDS % 2].1, "the newest incarnation is served");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A chunked upload reassembles into the identical trace a
/// `Content-Length` push produces.
#[test]
fn chunked_uploads_reassemble_exactly() {
    let dir = temp_dir("chunked");
    let server = serve(&dir, StoreOptions::default(), ingest_config());
    let addr = server.addr();
    let bytes = qmcpack_trace(640);

    let resp = chunked_post(addr, "/ingest/streamed", &bytes, 1021);
    assert!(resp.starts_with(b"HTTP/1.1 201 "), "{}", String::from_utf8_lossy(&resp));
    assert_eq!(
        std::fs::read(dir.join("streamed.vex")).expect("persisted"),
        bytes,
        "chunk reassembly must be byte-exact"
    );
    let (status, _) = http_get(addr, "/traces/streamed/report");
    assert_eq!(status, 200);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Malformed pushes: every abuse gets its 4xx, nothing lands in the
/// store, and the server stays alive.
#[test]
fn malformed_pushes_are_rejected_without_side_effects() {
    let dir = temp_dir("malformed");
    // Cap sized so a whole trace fits but a padded body does not.
    let real = qmcpack_trace(512);
    let cap = real.len() as u64 + 1024;
    let config = ServerConfig { max_ingest_bytes: cap, ..ingest_config() };
    let server = serve(&dir, StoreOptions::default(), config);
    let addr = server.addr();

    // Garbage payload: parses as HTTP, fails trace validation.
    let (status, body) = http_post(addr, "/ingest/garbage", b"VEXTRACE junk after magic");
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));

    // Truncated trace: a valid prefix of a real container.
    let (status, _) = http_post(addr, "/ingest/truncated", &real[..real.len() / 2]);
    assert_eq!(status, 400);

    // Malformed ids: bad characters and overlong. (An encoded slash —
    // `%2F` — decodes into a path separator and dies in routing as 405,
    // so it never reaches id validation.)
    for id in ["has.dot", "has~tilde", &"x".repeat(65)] {
        let (status, _) = http_post(addr, &format!("/ingest/{id}"), &real);
        assert_eq!(status, 400, "id {id:?} must be rejected");
    }

    // Over the per-request cap, via Content-Length and via chunks.
    let oversized = vec![0u8; cap as usize + 1];
    let (status, _) = http_post(addr, "/ingest/big", &oversized);
    assert_eq!(status, 413);
    let resp = chunked_post(addr, "/ingest/big", &oversized, 4096);
    assert!(resp.starts_with(b"HTTP/1.1 413 "), "{}", String::from_utf8_lossy(&resp));

    // Truncated chunked upload: connection dies mid-chunk.
    let resp = send_raw(
        addr,
        b"POST /ingest/cut HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nff\r\nonly-a-few",
    );
    assert!(
        resp.is_empty() || resp.starts_with(b"HTTP/1.1 4"),
        "{}",
        String::from_utf8_lossy(&resp)
    );

    // Chunked garbage framing: non-hex size line.
    let resp = send_raw(
        addr,
        b"POST /ingest/frame HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nnope\r\n0\r\n\r\n",
    );
    assert!(resp.starts_with(b"HTTP/1.1 400 "), "{}", String::from_utf8_lossy(&resp));

    // Nothing landed; the server still answers.
    assert_eq!(server.state().store().len(), 0, "no rejected push may persist");
    assert!(std::fs::read_dir(&dir).expect("dir").next().is_none(), "no stray files");
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, b"ok\n".to_vec());

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Without `--ingest`, mutation endpoints answer 405 and mutate nothing.
#[test]
fn read_only_server_refuses_mutations() {
    let dir = temp_dir("readonly");
    std::fs::create_dir_all(&dir).expect("create trace dir");
    std::fs::write(dir.join("keep.vex"), qmcpack_trace(512)).expect("seed trace");
    let server = serve(&dir, StoreOptions::default(), ServerConfig::default());
    let addr = server.addr();

    let (status, body) = http_post(addr, "/ingest/nope", b"x");
    assert_eq!(status, 405, "{}", String::from_utf8_lossy(&body));
    let resp = http_delete(addr, "/traces/keep");
    assert!(resp.starts_with(b"HTTP/1.1 405 "), "{}", String::from_utf8_lossy(&resp));
    assert!(dir.join("keep.vex").is_file(), "read-only delete must not remove the file");
    assert_eq!(server.state().store().len(), 1);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// 8 concurrent pushes to distinct ids all land, each queryable.
#[test]
fn concurrent_pushes_to_distinct_ids_all_land() {
    let dir = temp_dir("concurrent");
    let server = serve(&dir, StoreOptions::default(), ingest_config());
    let addr = server.addr();
    let url = format!("http://{addr}");

    const PUSHERS: usize = 8;
    let mut handles = Vec::new();
    for i in 0..PUSHERS {
        let url = url.clone();
        handles.push(std::thread::spawn(move || {
            let bytes = qmcpack_trace(256 + 64 * i);
            push_trace(&url, &format!("t{i}"), &bytes).expect("concurrent push lands");
        }));
    }
    for h in handles {
        h.join().expect("pusher panicked");
    }

    assert_eq!(server.state().store().len(), PUSHERS);
    for i in 0..PUSHERS {
        let (status, _) = http_get(addr, &format!("/traces/t{i}/kernels"));
        assert_eq!(status, 200, "t{i} queryable after concurrent ingest");
    }
    let stats = server.state().store().stats();
    assert_eq!(stats.ingested_total.load(Ordering::Relaxed), PUSHERS as u64);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The shared fixture of the eviction property: one corpus served twice,
/// once unbounded and once under a budget that admits the largest single
/// response body but not the whole corpus's.
struct EvictionRig {
    budget: u64,
    budgeted: Server,
    unbounded: Server,
}

const RIG_IDS: [&str; 3] = ["q1", "q2", "q3"];

fn eviction_rig() -> &'static EvictionRig {
    static RIG: OnceLock<EvictionRig> = OnceLock::new();
    RIG.get_or_init(|| {
        let dir = temp_dir("evict");
        std::fs::create_dir_all(&dir).expect("create trace dir");
        for (id, walkers) in RIG_IDS.iter().zip([384usize, 768, 1536]) {
            std::fs::write(dir.join(format!("{id}.vex")), qmcpack_trace(walkers))
                .expect("write trace");
        }

        let unbounded = serve(&dir, StoreOptions::default(), ServerConfig::default());
        let sizes: Vec<u64> = RIG_TARGETS
            .iter()
            .map(|target| http_get(unbounded.addr(), target).1.len() as u64)
            .collect();
        let budget = *sizes.iter().max().expect("targets");
        assert!(sizes.iter().sum::<u64>() > budget, "corpus must not fit in the budget");
        let budgeted = serve(
            &dir,
            StoreOptions { memory_budget: Some(budget), ..StoreOptions::default() },
            ServerConfig::default(),
        );
        EvictionRig { budget, budgeted, unbounded }
    })
}

const RIG_TARGETS: [&str; 6] = [
    "/traces/q1/report",
    "/traces/q2/report",
    "/traces/q3/report",
    "/traces/q1/report?shards=2",
    "/traces/q2/flowgraph?format=dot",
    "/traces/q3/report",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Across random request orders, the budgeted server's responses
    /// are byte-identical to the unbounded server's, and the body bytes
    /// it retains never exceed the budget.
    #[test]
    fn budgeted_responses_match_unbounded(
        order in prop::collection::vec(0usize..RIG_TARGETS.len(), 1..10),
    ) {
        let rig = eviction_rig();
        for &i in &order {
            let target = RIG_TARGETS[i];
            let got = http_get(rig.budgeted.addr(), target);
            let want = http_get(rig.unbounded.addr(), target);
            prop_assert_eq!(got.0, 200u16, "{}", target);
            prop_assert!(
                got == want,
                "{} diverged under the memory budget ({} vs {} bytes)",
                target, got.1.len(), want.1.len()
            );
            let resident = rig.budgeted.state().store().resident_bytes();
            prop_assert!(
                resident <= rig.budget,
                "resident {} bytes exceeds budget {} after {}",
                resident, rig.budget, target
            );
        }
    }
}

/// The budget actually bites: after the property runs (or on its own),
/// touching every target forces body evictions and re-streamed
/// reports, yet the store keeps answering from a bounded footprint.
#[test]
fn eviction_churn_is_observable_in_stats() {
    let rig = eviction_rig();
    for target in RIG_TARGETS {
        let (status, _) = http_get(rig.budgeted.addr(), target);
        assert_eq!(status, 200, "{target}");
    }
    let state = rig.budgeted.state();
    let evictions = state.cache().stats().budget_evictions.load(Ordering::Relaxed);
    let decodes = state.store().stats().decodes_total.load(Ordering::Relaxed);
    assert!(evictions > 0, "over-budget bodies must evict at least once");
    assert!(decodes > evictions, "every evicted body was streamed first");
    let resident = state.store().resident_bytes();
    assert!(resident > 0 && resident <= rig.budget, "{resident} of {}", rig.budget);
}
