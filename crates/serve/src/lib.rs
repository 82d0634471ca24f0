//! `vex-serve`: a concurrent profile query server over recorded `.vex`
//! traces.
//!
//! Recording and analysis are decoupled in ValueExpert: `vex record`
//! captures a compact replayable trace, and every analysis runs later,
//! off the critical path. This crate takes the final step and makes the
//! recorded corpus *queryable*: it opens a directory of `.vex` traces as
//! a [`store::ProfileStore`] — a resident index tier built by a cheap
//! skip-records scan, with every report streamed from its trace file —
//! and serves profile views over plain HTTP/1.1, no external
//! dependencies, just `std::net` and the workspace's vendored shims.
//!
//! | Endpoint | Body |
//! |---|---|
//! | `GET /traces?offset=&limit=` | JSON page of the trace index (+ total, quarantine list) |
//! | `GET /traces/{id}/report` | canonical text report (byte-equal to `vex replay`) |
//! | `GET /traces/{id}/flowgraph?threshold=X&format=dot\|json` | value-flow graph |
//! | `GET /traces/{id}/objects` | JSON rows of recorded data objects |
//! | `GET /traces/{id}/kernels` | JSON per-kernel launch/record counts |
//! | `POST /ingest/{id}` | push a recorded trace (requires `--ingest`) |
//! | `DELETE /traces/{id}` | delete a trace (requires `--ingest`) |
//! | `GET /healthz` | liveness probe |
//! | `GET /metrics` | Prometheus-style request/cache/store metrics |
//!
//! Reports and flowgraphs additionally accept the `vex replay` analysis
//! parameters (`shards`, `coarse`, `fine`, `races`, `reuse`) and are
//! streamed on demand through the same replay path the CLI uses, behind
//! an LRU + single-flight cache of rendered bodies
//! ([`cache::ReportCache`]) that `--memory-budget` bounds in bytes.
//! The serving loop ([`server::Server`]) is a bounded worker pool with a
//! backpressure accept loop that sheds overload (`503` + `Retry-After`
//! once the worker queue stays saturated past a grace period),
//! per-connection timeouts, request-size limits, and graceful drain on
//! shutdown. Ingest bodies arrive as `Content-Length` or chunked
//! uploads, capped per request, validated by the trace decoder, and
//! written atomically into the store's directory — a pushed trace is
//! queryable without a restart; interrupted uploads leave only
//! temporary files that the store sweeps at startup.
//! [`client::push_trace`] is the matching minimal client, used by
//! `vex push` and `vex record --push`; [`client::push_or_spool`] adds
//! retry with backoff and a durable local spool for fleet runs where
//! the collector must not lose traces while the server is unreachable
//! ([`client::drain_spool`] re-pushes them later). [`fault`] provides
//! the failpoint registry the crash-safety test-suite uses to inject
//! torn writes, disk errors, kills, and connection drops into these
//! paths.

#![deny(missing_docs)]

pub mod cache;
pub mod client;
pub mod fault;
pub mod http;
pub mod metrics;
pub mod server;
pub mod store;

pub use cache::ReportCache;
pub use client::{
    drain_spool, push_or_spool, push_trace, push_trace_with, spool_trace, DrainOutcome,
    PushError, PushOptions, PushOutcome,
};
pub use http::{Request, Response, Status};
pub use metrics::Metrics;
pub use server::{ServeState, Server, ServerConfig};
pub use store::{
    MutationError, ProfileError, ProfileStore, QuarantineRow, ReportParams, StoreOptions,
    StoreStats, TraceEntry, TraceListRow,
};
