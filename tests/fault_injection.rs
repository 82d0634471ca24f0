//! Fault-injection suite for the collection pipeline.
//!
//! Every test here drives a production failure mode end to end through
//! the public surfaces — `salvage`/`repair` over recorded containers,
//! `push_trace_with`/`push_or_spool`/`drain_spool` against a live
//! server, and the store's atomic ingest protocol — with faults
//! injected through the [`vex_serve::fault`] failpoint registry where
//! a real crash cannot be staged deterministically. The contract under
//! test is the PR's acceptance criteria:
//!
//! * a recording killed at any byte offset salvages its longest valid
//!   prefix, and `repair` re-encodes that prefix into a container that
//!   re-reads cleanly and losslessly;
//! * a torn mid-ingest push never corrupts the served store — readers
//!   see only intact traces, and orphaned temp files are swept (and
//!   counted in `/metrics`) on the next startup;
//! * a flaky network push lands byte-identical through retries, and an
//!   unreachable server spools to disk with a later drain landing the
//!   trace byte-identical — zero loss either way;
//! * a saturated server sheds with `503` + `Retry-After` instead of
//!   stalling, and the shed is visible in `/metrics`.

use std::io::Read;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vex_bench::{http_get, record_app};
use vex_core::prelude::*;
use vex_gpu::timing::DeviceSpec;
use vex_serve::{
    drain_spool, fault, push_or_spool, push_trace_with, ProfileStore, PushError, PushOptions,
    PushOutcome, Server, ServerConfig, StoreOptions,
};
use vex_trace::index::index_trace;
use vex_trace::salvage::{repair_trace, salvage_trace};
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
    std::env::temp_dir().join(format!("vex-fault-{tag}-{}", std::process::id()))
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

/// Push options tuned for tests: single-digit-millisecond backoff so
/// retry loops finish fast, generous enough timeouts to stay unflaky.
fn fast_opts(attempts: u32) -> PushOptions {
    PushOptions {
        attempts,
        backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(10),
        ..PushOptions::default()
    }
}

/// Reads one counter's value out of a `/metrics` exposition.
fn metric(body: &str, name: &str) -> u64 {
    let needle = format!("{name} ");
    body.lines()
        .find(|l| l.starts_with(&needle))
        .unwrap_or_else(|| panic!("no metric {name} in:\n{body}"))
        .rsplit(' ')
        .next()
        .expect("metric line has a value")
        .parse()
        .unwrap_or_else(|e| panic!("metric {name} not a u64: {e}"))
}

/// A recording killed at any byte offset salvages its longest valid
/// prefix; `repair` re-encodes that prefix into a container that
/// re-reads cleanly, and repairing the repaired container is the
/// identity — the recovered prefix round-trips losslessly.
#[test]
fn killed_recording_salvages_and_repairs_at_any_cut() {
    let bytes = qmcpack_trace(256);
    let whole = salvage_trace(&bytes).expect("intact trace salvages");
    assert!(whole.report.complete(), "intact trace is complete: {:?}", whole.report);
    assert!(whole.report.has_trailer);

    let step = (bytes.len() / 40).max(1);
    let mut cuts: Vec<usize> = (0..=16).collect();
    cuts.extend((17..bytes.len()).step_by(step));
    cuts.push(bytes.len() - 1);
    cuts.push(bytes.len());

    let mut seen_ok = false;
    let mut last_frames = 0u64;
    for cut in cuts {
        let prefix = &bytes[..cut];
        match salvage_trace(prefix) {
            Err(_) => {
                // Only cuts inside the fixed header are unsalvageable,
                // so validity is monotone in the cut offset.
                assert!(!seen_ok, "cut {cut} failed after an earlier cut salvaged");
            }
            Ok(s) => {
                seen_ok = true;
                assert_eq!(s.report.bytes_total, cut as u64);
                assert!(
                    s.report.bytes_recovered <= cut as u64,
                    "cut {cut}: recovered {} bytes out of {cut}",
                    s.report.bytes_recovered
                );
                assert!(
                    s.report.frames_recovered >= last_frames,
                    "cut {cut}: frames went backwards ({} < {last_frames})",
                    s.report.frames_recovered
                );
                last_frames = s.report.frames_recovered;

                let (repaired, report) = repair_trace(prefix).expect("salvageable cut repairs");
                assert_eq!(report.frames_recovered, s.report.frames_recovered);
                index_trace(&repaired[..])
                    .unwrap_or_else(|e| panic!("cut {cut}: repaired container rejected: {e}"));
                let healed = salvage_trace(&repaired).expect("repaired container salvages");
                assert!(
                    healed.report.complete(),
                    "cut {cut}: repair must emit a complete trace"
                );
                let (again, _) =
                    repair_trace(&repaired).expect("repaired container re-repairs");
                assert_eq!(again, repaired, "cut {cut}: repair must be idempotent");
            }
        }
    }
    assert!(seen_ok, "the full container must salvage");
}

/// Disk faults and process kills mid-ingest never corrupt the served
/// store: readers keep seeing only intact traces, the crash leaves at
/// most an orphaned temp file, and a restart sweeps the orphans (the
/// sweep is visible in `/metrics`) and frees the id for a clean retry.
#[test]
fn torn_ingest_never_corrupts_the_served_store() {
    let _s = fault::session();
    let dir = temp_dir("torn-ingest");
    std::fs::remove_dir_all(&dir).ok();
    let server = serve(&dir, StoreOptions::default(), ingest_config());
    let addr = server.addr();
    let url = format!("http://{addr}");
    let keep = qmcpack_trace(384);
    let torn = qmcpack_trace(512);
    let opts = fast_opts(1);

    push_trace_with(&url, "keep", &keep, &opts).expect("clean push lands");

    // A disk error at the tmp write: the production error path cleans
    // the tmp file up and reports 500.
    fault::arm_times("store.ingest.write", fault::Action::IoError, 1);
    match push_trace_with(&url, "torn", &torn, &opts) {
        Err(e @ PushError::Rejected { status: 500, .. }) => {
            assert!(e.is_retryable(), "a server-side disk fault must be retryable")
        }
        other => panic!("injected disk error must surface as 500, got {other:?}"),
    }

    // A process kill mid-write and a kill at the rename commit point:
    // each leaves its tmp file behind (a dead process cannot clean up).
    for site in ["store.ingest.write", "store.ingest.rename"] {
        fault::arm_times(site, fault::Action::Kill, 1);
        match push_trace_with(&url, "torn", &torn, &opts) {
            Err(PushError::Rejected { status: 500, .. }) => {}
            other => panic!("kill at {site} must surface as 500, got {other:?}"),
        }
    }
    fault::clear_all();

    // Readers never saw any of it: one trace, fully queryable, and the
    // only `.vex` file on disk is the intact one.
    assert_eq!(server.state().store().len(), 1);
    let (status, _) = http_get(addr, "/traces/keep/report");
    assert_eq!(status, 200);
    let visible: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(visible.contains(&"keep.vex".to_string()), "{visible:?}");
    assert_eq!(
        visible.iter().filter(|n| n.ends_with(".vex.tmp")).count(),
        2,
        "both kills must leave their tmp orphan: {visible:?}"
    );
    assert_eq!(visible.len(), 3, "{visible:?}");
    server.shutdown();

    // Restart over the same directory: the orphans are swept, counted,
    // and the id ingests cleanly this time — byte-identical on disk.
    let server = serve(&dir, StoreOptions::default(), ingest_config());
    let addr = server.addr();
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let body = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(metric(&body, "vex_store_orphans_swept_total"), 2, "{body}");
    assert_eq!(
        std::fs::read_dir(&dir).expect("dir").count(),
        1,
        "only keep.vex survives the sweep"
    );
    push_trace_with(&format!("http://{addr}"), "torn", &torn, &opts)
        .expect("retry after restart lands");
    assert_eq!(std::fs::read(dir.join("torn.vex")).expect("persisted"), torn);
    let (status, _) = http_get(addr, "/traces/torn/report");
    assert_eq!(status, 200);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A flaky network — two dropped connections in a row — costs retries,
/// not data: the push succeeds within its attempt budget and the trace
/// lands byte-identical.
#[test]
fn flaky_push_lands_byte_identical_via_retry() {
    let _s = fault::session();
    let dir = temp_dir("flaky-push");
    std::fs::remove_dir_all(&dir).ok();
    let server = serve(&dir, StoreOptions::default(), ingest_config());
    let addr = server.addr();
    let bytes = qmcpack_trace(448);

    fault::arm_times("client.send", fault::Action::Disconnect, 2);
    push_trace_with(&format!("http://{addr}"), "flaky", &bytes, &fast_opts(4))
        .expect("push must survive two dropped connections");
    assert_eq!(fault::fire("client.send"), None, "both injected drops were consumed");
    assert_eq!(std::fs::read(dir.join("flaky.vex")).expect("persisted"), bytes);
    let (status, _) = http_get(addr, "/traces/flaky/report");
    assert_eq!(status, 200);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// With the server down entirely, `push_or_spool` parks the trace in
/// the local spool; once the server is back, `drain_spool` lands it
/// byte-identical and empties the spool — zero loss across the outage.
#[test]
fn unreachable_server_spools_and_drain_lands_byte_identical() {
    // No failpoints armed, but the guard keeps concurrently running
    // failpoint tests from injecting faults into these pushes.
    let _s = fault::session();
    let dir = temp_dir("spool-store");
    let spool = temp_dir("spool-dir");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&spool).ok();
    let bytes = qmcpack_trace(320);

    // Nothing listens on the reserved port 1: connection refused, which
    // is retryable, so the exhausted push spools instead of erroring.
    match push_or_spool("http://127.0.0.1:1", "outage", &bytes, &spool, &fast_opts(2)) {
        Ok(PushOutcome::Spooled(path, err)) => {
            assert!(err.is_retryable(), "spooling is for retryable failures: {err:?}");
            assert_eq!(std::fs::read(&path).expect("spooled"), bytes, "spool is byte-exact");
        }
        other => panic!("unreachable server must spool, got {other:?}"),
    }

    let server = serve(&dir, StoreOptions::default(), ingest_config());
    let addr = server.addr();
    let outcome =
        drain_spool(&spool, &format!("http://{addr}"), &fast_opts(3)).expect("drain runs");
    assert_eq!(outcome.pushed, vec!["outage".to_string()]);
    assert!(outcome.failed.is_empty(), "{:?}", outcome.failed);
    assert_eq!(
        std::fs::read_dir(&spool).expect("spool dir").count(),
        0,
        "drained spool is empty"
    );
    assert_eq!(std::fs::read(dir.join("outage.vex")).expect("persisted"), bytes);
    let (status, _) = http_get(addr, "/traces/outage/report");
    assert_eq!(status, 200);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&spool).ok();
}

/// A server with every worker busy and the queue full sheds new
/// connections with `503` + `Retry-After` instead of stalling them,
/// and the shed count is scrapeable from `/metrics` once the overload
/// clears.
#[test]
fn saturated_server_sheds_and_reports_it_in_metrics() {
    let dir = temp_dir("shed");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create trace dir");
    std::fs::write(dir.join("q.vex"), qmcpack_trace(256)).expect("seed trace");
    let config = ServerConfig {
        workers: 1,
        shed_wait: Duration::from_millis(20),
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = serve(&dir, StoreOptions::default(), config);
    let addr = server.addr();

    // Two connections that never send a byte: one pins the only worker,
    // the other fills the queue slot.
    let stall_a = TcpStream::connect(addr).expect("stall a");
    let stall_b = TcpStream::connect(addr).expect("stall b");
    std::thread::sleep(Duration::from_millis(150));

    let mut conn = TcpStream::connect(addr).expect("shed victim connects");
    let mut resp = Vec::new();
    conn.read_to_end(&mut resp).expect("shed response arrives");
    let text = String::from_utf8_lossy(&resp);
    assert!(text.starts_with("HTTP/1.1 503 "), "{text}");
    assert!(text.contains("Retry-After: 1\r\n"), "shed must advertise Retry-After: {text}");

    // Release the stalled connections; the worker frees up and the
    // metrics endpoint answers again, reporting the shed.
    drop(stall_a);
    drop(stall_b);
    let deadline = Instant::now() + Duration::from_secs(10);
    let body = loop {
        let (status, body) = http_get(addr, "/metrics");
        if status == 200 {
            break String::from_utf8_lossy(&body).into_owned();
        }
        assert!(Instant::now() < deadline, "server never recovered from the overload");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(metric(&body, "vex_requests_shed_total") >= 1, "{body}");
    let (status, _) = http_get(addr, "/traces/q/kernels");
    assert_eq!(status, 200, "the store still serves after shedding");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
