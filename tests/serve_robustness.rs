//! Robustness suite for `vex serve`: malformed input at the socket, and
//! response integrity under concurrency.
//!
//! Property tests fire arbitrary, truncated, and oversized bytes at a
//! live server; every case must end in a 4xx/5xx response or a clean
//! close — never a panic, a hang, or a corrupted reply. A concurrency
//! test then hammers mixed endpoints from 16 parallel clients and checks
//! every response byte-for-byte against serially-fetched references,
//! and that the report cache ends the run with a nonzero hit rate.
//! Traces whose captures miss bytes, from disk or pushed by a client,
//! and analysis parameters the engine cannot run get a 4xx and leave
//! the server serving.

use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::OnceLock;
use vex_bench::{capture_gap_traces, http_get, http_post, record_app};
use vex_cli::{parse_args, start_server, Command};
use vex_core::prelude::*;
use vex_gpu::timing::DeviceSpec;
use vex_workloads::{all_apps, apps::qmcpack::Qmcpack, Variant};

/// One shared server for the whole suite (leaked; it serves until the
/// test process exits).
fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("vex-serve-rob-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create trace dir");
        let apps = all_apps();
        let app = apps.iter().find(|a| a.name() == "QMCPACK").expect("bundled workload");
        let bytes = record_app(
            &DeviceSpec::rtx2080ti(),
            app.as_ref(),
            Variant::Baseline,
            ValueExpert::builder().coarse(true).fine(false),
        );
        std::fs::write(dir.join("qmcpack.vex"), bytes).expect("write trace");
        let cmd = parse_args([
            "serve",
            dir.to_str().expect("utf8 dir"),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
        ])
        .expect("serve command parses");
        let Command::Serve(args) = cmd else { panic!("parsed {cmd:?}") };
        let server = start_server(&args).expect("server starts");
        let addr = server.addr();
        std::mem::forget(server);
        addr
    })
}

/// Sends raw bytes, half-closes, and returns whatever came back. The
/// half-close turns "waiting for the rest of the request" into a clean
/// EOF so no case waits out the server's read timeout.
fn send_raw(bytes: &[u8]) -> Vec<u8> {
    let mut conn = TcpStream::connect(server_addr()).expect("connect");
    let _ = conn.write_all(bytes);
    let _ = conn.shutdown(Shutdown::Write);
    let mut resp = Vec::new();
    let _ = conn.read_to_end(&mut resp);
    resp
}

/// A response is acceptable for garbage input iff it is a clean close or
/// a well-formed HTTP error; a 200 would mean garbage parsed as a route.
fn assert_rejected(input: &[u8], resp: &[u8]) {
    if resp.is_empty() {
        return; // clean close
    }
    assert!(
        resp.starts_with(b"HTTP/1.1 4") || resp.starts_with(b"HTTP/1.1 5"),
        "input {:?} got {:?}",
        String::from_utf8_lossy(input),
        String::from_utf8_lossy(resp)
    );
}

proptest! {
    /// Arbitrary bytes never kill the server and never yield a 2xx.
    #[test]
    fn arbitrary_bytes_get_an_error_or_a_clean_close(
        bytes in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        let resp = send_raw(&bytes);
        assert_rejected(&bytes, &resp);
        // The server is still alive afterwards.
        let (status, body) = http_get(server_addr(), "/healthz");
        prop_assert_eq!(status, 200);
        prop_assert_eq!(body, b"ok\n".to_vec());
    }

    /// Every truncation of a valid request is answered with an error or
    /// a clean close — never a hang or a partial 200.
    #[test]
    fn truncated_requests_never_hang(cut in 0usize..60, which in 0usize..4) {
        let targets = [
            "GET /healthz HTTP/1.1\r\n\r\n",
            "GET /traces HTTP/1.1\r\nHost: t\r\n\r\n",
            "GET /traces/qmcpack/kernels HTTP/1.1\r\n\r\n",
            "GET /traces/qmcpack/report?shards=2 HTTP/1.1\r\n\r\n",
        ];
        let full = targets[which].as_bytes();
        let cut = cut.min(full.len().saturating_sub(1));
        let resp = send_raw(&full[..cut]);
        assert_rejected(&full[..cut], &resp);
    }
}

/// A request head just past the size limit is rejected with 431.
#[test]
fn oversized_head_is_rejected() {
    let mut junk = b"GET /healthz HTTP/1.1\r\n".to_vec();
    while junk.len() <= vex_serve::http::MAX_REQUEST_BYTES + 256 {
        junk.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    let resp = send_raw(&junk);
    let resp = String::from_utf8_lossy(&resp);
    assert!(resp.starts_with("HTTP/1.1 431 "), "{resp}");
}

/// Deterministic rejections the property tests are unlikely to hit.
#[test]
fn structured_abuse_is_rejected() {
    for (raw, expect) in [
        (&b"POST /traces HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody"[..], "HTTP/1.1 405 "),
        (b"GET /traces/../secrets HTTP/1.1\r\n\r\n", "HTTP/1.1 400 "),
        (b"GET /traces HTTP/2\r\n\r\n", "HTTP/1.1 400 "),
        (b"DELETE /traces HTTP/1.1\r\n\r\n", "HTTP/1.1 405 "),
        (b"GET /traces/qmcpack/report?frob=1 HTTP/1.1\r\n\r\n", "HTTP/1.1 400 "),
        (b"GET /traces/missing/report HTTP/1.1\r\n\r\n", "HTTP/1.1 404 "),
    ] {
        let resp = send_raw(raw);
        let resp = String::from_utf8_lossy(&resp);
        assert!(resp.starts_with(expect), "{:?} got {resp}", String::from_utf8_lossy(raw));
    }
}

/// 16 concurrent clients on mixed endpoints: every response must be
/// byte-identical to its serially-fetched reference — no drops, no
/// cross-wired bodies — and the cache must end with a nonzero hit rate.
#[test]
fn sixteen_concurrent_clients_see_uncorrupted_responses() {
    let addr = server_addr();
    let targets: &[&str] = &[
        "/healthz",
        "/traces",
        "/traces/qmcpack/report",
        "/traces/qmcpack/report?shards=2",
        "/traces/qmcpack/flowgraph?format=dot",
        "/traces/qmcpack/flowgraph?format=json",
        "/traces/qmcpack/objects",
        "/traces/qmcpack/kernels",
        "/traces/missing/report",
        "/no/such/route",
    ];
    // Serial reference pass (also warms the cache).
    let expected: Vec<(u16, Vec<u8>)> = targets.iter().map(|t| http_get(addr, t)).collect();

    const CLIENTS: usize = 16;
    const ROUNDS: usize = 4;
    let mut handles = Vec::new();
    for client in 0..CLIENTS {
        let expected = expected.clone();
        let targets: Vec<String> = targets.iter().map(|s| (*s).to_owned()).collect();
        handles.push(std::thread::spawn(move || {
            for round in 0..ROUNDS {
                for (i, target) in targets.iter().enumerate() {
                    // Stagger the order per client so different
                    // endpoints overlap in flight.
                    let i = (i + client + round) % targets.len();
                    let got = http_get(addr, &targets[i]);
                    assert_eq!(
                        got, expected[i],
                        "client {client} round {round}: {target} corrupted"
                    );
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread panicked");
    }

    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).expect("utf8 metrics");
    let hit_rate: f64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("vex_cache_hit_rate "))
        .expect("hit-rate gauge present")
        .parse()
        .expect("numeric hit rate");
    assert!(hit_rate > 0.0, "cache hit rate stayed zero:\n{metrics}");
    let report_count = metrics
        .lines()
        .find_map(|l| l.strip_prefix("vex_requests_total{endpoint=\"report\"} "))
        .expect("report counter present")
        .parse::<u64>()
        .expect("numeric counter");
    assert!(report_count >= (CLIENTS * ROUNDS * 2) as u64, "{metrics}");
}

/// Traces whose captures miss bytes the coarse pass needs, read from the
/// directory at startup (`disk-*`) or pushed by a client (`net-*`): an
/// uncovered allocation is quarantined or refused at ingest, a kernel
/// write gap loads but its report, flowgraph and diff answer 400 — and
/// after each one a good trace's report still answers 200.
#[test]
fn capture_gap_traces_get_a_4xx_and_the_server_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("vex-serve-gap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create trace dir");
    let app = Qmcpack { walkers: 4, setup_elems: 64, steps: 1 };
    let good = record_app(
        &DeviceSpec::rtx2080ti(),
        &app,
        Variant::Baseline,
        ValueExpert::builder().coarse(true).fine(false),
    );
    std::fs::write(dir.join("good.vex"), good).expect("write trace");
    let crafted = capture_gap_traces();
    for (name, bytes) in &crafted {
        std::fs::write(dir.join(format!("disk-{name}.vex")), bytes).expect("write trace");
    }
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

    for (name, bytes) in &crafted {
        let (status, body) = http_post(addr, &format!("/ingest/net-{name}"), bytes);
        let body = String::from_utf8_lossy(&body);
        if *name == "kernel-gap" {
            assert_eq!(status, 201, "{name}: {body}");
        } else {
            assert_eq!(status, 400, "{name}: {body}");
            assert!(body.contains("allocation not covered by its capture"), "{name}: {body}");
        }
        for id in [format!("disk-{name}"), format!("net-{name}")] {
            for target in [
                format!("/traces/{id}/report"),
                format!("/traces/{id}/flowgraph"),
                format!("/traces/{id}/diff/good"),
            ] {
                let (status, body) = http_get(addr, &target);
                assert!(
                    (400..500).contains(&status),
                    "{target}: {status} {}",
                    String::from_utf8_lossy(&body)
                );
            }
            let (status, _) = http_get(addr, "/traces/good/report");
            assert_eq!(status, 200, "good report after {id}");
        }
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Analysis parameters the engine cannot run — a reuse line size that
/// is not a nonzero power of two, or a shard count past
/// `MAX_ANALYSIS_SHARDS` — answer 400 on every endpoint that replays,
/// instead of panicking a worker or aborting the process, and a good
/// report still answers 200 right after each one.
#[test]
fn bad_analysis_params_get_a_400_and_the_server_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("vex-serve-params-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create trace dir");
    let app = Qmcpack { walkers: 4, setup_elems: 64, steps: 1 };
    let bytes = record_app(
        &DeviceSpec::rtx2080ti(),
        &app,
        Variant::Baseline,
        ValueExpert::builder().coarse(true).fine(true),
    );
    std::fs::write(dir.join("h.vex"), bytes).expect("write trace");
    let cmd = parse_args([
        "serve",
        dir.to_str().expect("utf8 dir"),
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
    ])
    .expect("serve command parses");
    let Command::Serve(args) = cmd else { panic!("parsed {cmd:?}") };
    let server = start_server(&args).expect("server starts");
    let addr = server.addr();

    for (query, complaint) in [
        ("fine=1&reuse=3", "power of two"),
        ("fine=1&reuse=0", "power of two"),
        ("fine=1&shards=1000000", "analysis shards"),
    ] {
        for endpoint in ["report", "flowgraph", "diff/h"] {
            let target = format!("/traces/h/{endpoint}?{query}");
            let (status, body) = http_get(addr, &target);
            let body = String::from_utf8_lossy(&body);
            assert_eq!(status, 400, "{target}: {body}");
            assert!(body.contains(complaint), "{target}: {body}");
            let (status, _) = http_get(addr, "/traces/h/report?fine=1&reuse=64&shards=2");
            assert_eq!(status, 200, "good report after {target}");
        }
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
