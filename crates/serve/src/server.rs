//! The serving loop: bounded worker pool over `std::net::TcpListener`.
//!
//! ## Production posture
//!
//! * **Backpressure accept loop with overload shedding** — one accept
//!   thread feeds accepted connections into a *bounded* channel; when
//!   every worker is busy and the queue is full, the accept thread
//!   waits at most [`ServerConfig::shed_wait`] for space, then answers
//!   the connection itself with `503 Service Unavailable` +
//!   `Retry-After` and closes it. The accept loop is never blocked
//!   indefinitely by saturated workers, and sheds are counted in
//!   `/metrics` (`vex_requests_shed_total`).
//! * **Bounded worker pool** — `workers` threads each serve one
//!   connection at a time: read (bounded, with a timeout), route,
//!   respond, close. One request per connection (`Connection: close`).
//! * **Timeouts and size limits** — per-connection read/write timeouts
//!   and the [`crate::http::MAX_REQUEST_BYTES`] head cap bound the
//!   resources any single client can hold.
//! * **Caching** — report/flowgraph/diff bodies go through the store's
//!   LRU + single-flight [`ReportCache`], so hot reports skip analysis
//!   and a cold thundering herd streams its trace once. Cache keys fold
//!   in the trace entry's generation, so a delete + re-ingest under the
//!   same id can never serve the previous trace's cached bodies.
//! * **Graceful shutdown** — [`Server::shutdown`] stops accepting, lets
//!   the workers drain every already-accepted connection, and joins all
//!   threads before returning.

use crate::cache::ReportCache;
use crate::http::{
    parse_request, query_map, ChunkedDecoder, ParseError, Request, Response, Status,
    BODY_TOO_LARGE,
};
use crate::metrics::Metrics;
use crate::store::{
    MutationError, ProfileError, ProfileStore, QuarantineRow, ReportParams, TraceEntry,
    TraceListRow,
};
use crossbeam::channel;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vex_core::diff::{diff_profiles, DiffOptions};
use vex_core::report::Profile;

/// Tunables of a serving process.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (≥1).
    pub workers: usize,
    /// LRU report-cache capacity, entries (0 disables retention); the
    /// store's memory budget bounds their bytes.
    pub cache_entries: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Whether mutation endpoints (`POST /ingest/{id}`,
    /// `DELETE /traces/{id}`) are enabled. Off by default: a query
    /// server stays read-only unless started with `--ingest`.
    pub ingest_enabled: bool,
    /// Per-request cap on an ingest body, bytes.
    pub max_ingest_bytes: u64,
    /// How long the accept thread waits for worker-queue space before
    /// shedding the connection with `503` + `Retry-After`. Long enough
    /// to absorb ordinary bursts (workers turn requests around in
    /// micro- to milliseconds), short enough that saturated workers
    /// never stall accepting.
    pub shed_wait: Duration,
    /// `Retry-After` value advertised on shed responses, seconds.
    pub shed_retry_after_secs: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            cache_entries: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            ingest_enabled: false,
            max_ingest_bytes: 64 * 1024 * 1024,
            shed_wait: Duration::from_millis(100),
            shed_retry_after_secs: 1,
        }
    }
}

/// Everything a worker needs to answer a request.
#[derive(Debug)]
pub struct ServeState {
    store: ProfileStore,
    metrics: Metrics,
    ingest_enabled: bool,
}

impl ServeState {
    /// Builds the shared state for `store` with a cache of
    /// `cache_entries`. Mutation endpoints start disabled; see
    /// [`ServeState::with_ingest`].
    pub fn new(store: ProfileStore, cache_entries: usize) -> Self {
        ServeState {
            store: store.with_cache_entries(cache_entries),
            metrics: Metrics::new(),
            ingest_enabled: false,
        }
    }

    /// Enables/disables the mutation endpoints.
    #[must_use]
    pub fn with_ingest(mut self, enabled: bool) -> Self {
        self.ingest_enabled = enabled;
        self
    }

    /// The trace store being served.
    pub fn store(&self) -> &ProfileStore {
        &self.store
    }

    /// The report cache (stats feed `/metrics`).
    pub fn cache(&self) -> &ReportCache {
        self.store.cache()
    }

    /// The request-metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Routes one parsed request (with no body) to its endpoint — the
    /// read-only surface. Ingest requests carry a body; see
    /// [`ServeState::handle_with_body`].
    pub fn handle(&self, req: &Request) -> (&'static str, Response) {
        self.handle_with_body(req, &[])
    }

    /// Routes one parsed request to its endpoint. Returns the static
    /// endpoint label (for metrics) and the response. Infallible: every
    /// failure mode is a 4xx/5xx response.
    pub fn handle_with_body(&self, req: &Request, body: &[u8]) -> (&'static str, Response) {
        let segments = req.segments();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => ("healthz", self.healthz(req)),
            ("GET", ["metrics"]) => ("metrics", self.render_metrics(req)),
            ("GET", ["traces"]) => ("traces", self.list_traces(req)),
            ("GET", ["traces", id, "report"]) => ("report", self.report(req, id)),
            ("GET", ["traces", a, "diff", b]) => ("diff", self.diff(req, a, b)),
            ("GET", ["traces", id, "flowgraph"]) => ("flowgraph", self.flowgraph(req, id)),
            ("GET", ["traces", id, "objects"]) => {
                ("objects", self.static_json(req, id, |t| json_rows(&t.objects)))
            }
            ("GET", ["traces", id, "kernels"]) => {
                ("kernels", self.static_json(req, id, |t| json_rows(&t.kernels)))
            }
            ("POST", ["ingest", id]) => ("ingest", self.ingest(req, id, body)),
            ("DELETE", ["traces", id]) => ("delete", self.delete(req, id)),
            ("GET", _) => {
                ("other", Response::error(Status::NotFound, format!("no route {}", req.path)))
            }
            _ => (
                "other",
                Response::error(
                    Status::MethodNotAllowed,
                    "only GET, POST /ingest/{id}, and DELETE /traces/{id} are served",
                ),
            ),
        }
    }

    /// `POST /ingest/{id}` — validate, persist, and index a pushed
    /// trace; queryable immediately, no restart.
    fn ingest(&self, req: &Request, id: &str, body: &[u8]) -> Response {
        if !self.ingest_enabled {
            return Response::error(
                Status::MethodNotAllowed,
                "ingest is disabled (restart with --ingest)",
            );
        }
        if let Err(e) = query_map(req, &[]) {
            return Response::error(Status::BadRequest, e);
        }
        match self.store.ingest(id, body) {
            Ok(row) => Response::json(Status::Created, to_pretty_json(&row)),
            Err(e) => mutation_response(e),
        }
    }

    /// `DELETE /traces/{id}` — drop a trace from the index and disk.
    fn delete(&self, req: &Request, id: &str) -> Response {
        if !self.ingest_enabled {
            return Response::error(
                Status::MethodNotAllowed,
                "ingest is disabled (restart with --ingest)",
            );
        }
        if let Err(e) = query_map(req, &[]) {
            return Response::error(Status::BadRequest, e);
        }
        match self.store.remove(id) {
            Ok(()) => Response::text(Status::Ok, format!("deleted '{id}'\n")),
            Err(e) => mutation_response(e),
        }
    }

    fn healthz(&self, req: &Request) -> Response {
        match query_map(req, &[]) {
            Ok(_) => Response::text(Status::Ok, "ok\n"),
            Err(e) => Response::error(Status::BadRequest, e),
        }
    }

    fn render_metrics(&self, req: &Request) -> Response {
        match query_map(req, &[]) {
            Ok(_) => Response::text(
                Status::Ok,
                self.metrics.render(self.cache().stats(), self.store.stats()),
            ),
            Err(e) => Response::error(Status::BadRequest, e),
        }
    }

    /// `GET /traces?offset=N&limit=M` — a stable (id-sorted) page of the
    /// listing plus the total count, so 10k-trace stores don't ship
    /// megabyte responses; the quarantine list rides along.
    fn list_traces(&self, req: &Request) -> Response {
        let map = match query_map(req, &["offset", "limit"]) {
            Ok(m) => m,
            Err(e) => return Response::error(Status::BadRequest, e),
        };
        let offset = match map.get("offset").map(|v| v.parse::<usize>()) {
            None => 0,
            Some(Ok(n)) => n,
            Some(Err(_)) => {
                return Response::error(
                    Status::BadRequest,
                    "offset must be a non-negative integer",
                )
            }
        };
        let limit = match map.get("limit").map(|v| v.parse::<usize>()) {
            None => None,
            Some(Ok(n)) => Some(n),
            Some(Err(_)) => {
                return Response::error(
                    Status::BadRequest,
                    "limit must be a non-negative integer",
                )
            }
        };
        let rows = self.store.list_rows();
        let total = rows.len();
        let traces: Vec<TraceListRow> =
            rows.into_iter().skip(offset).take(limit.unwrap_or(usize::MAX)).collect();
        let listing = TraceListing {
            total,
            offset,
            count: traces.len(),
            traces,
            quarantined: self.store.quarantined(),
        };
        Response::json(Status::Ok, to_pretty_json(&listing))
    }

    fn lookup(&self, id: &str) -> Result<Arc<TraceEntry>, Response> {
        self.store.entry(id).ok_or_else(|| {
            Response::error(
                Status::NotFound,
                format!("no trace '{id}' (loaded: {})", self.store.ids().join(", ")),
            )
        })
    }

    fn static_json(
        &self,
        req: &Request,
        id: &str,
        rows: impl Fn(&TraceEntry) -> String,
    ) -> Response {
        if let Err(e) = query_map(req, &[]) {
            return Response::error(Status::BadRequest, e);
        }
        match self.lookup(id) {
            Ok(t) => Response::json(Status::Ok, rows(&t)),
            Err(resp) => resp,
        }
    }

    /// `GET /traces/{id}/report` — the canonical text report, byte-equal
    /// to `vex replay` with the same parameters.
    fn report(&self, req: &Request, id: &str) -> Response {
        let params = match query_map(req, &["shards", "coarse", "fine", "races", "reuse"])
            .and_then(|m| parse_report_params(&m))
        {
            Ok(p) => p,
            Err(e) => return Response::error(Status::BadRequest, e),
        };
        match self.lookup(id) {
            Ok(entry) => self.cached_report(&entry, &params),
            Err(resp) => resp,
        }
    }

    /// The report of the incarnation `entry` names. The entry's
    /// generation folds the trace *incarnation* into the key: after a
    /// delete + re-ingest under the same id, the new entry gets a fresh
    /// generation, so cached bodies of the old trace can never be served
    /// for the new one (stale keys age out of the LRU), and a miss on
    /// the old incarnation is a 404.
    fn cached_report(&self, entry: &TraceEntry, params: &ReportParams) -> Response {
        let key = format!("{}@{}/report?{}", entry.id, entry.generation, params.cache_key());
        let value = self.cache().get_or_compute(&key, || {
            // A miss streams the trace from disk; a hit never touches it.
            let profile = self.profile(entry, params)?;
            Ok(Response::text(Status::Ok, profile.render_text_document()))
        });
        unwrap_cached(&value)
    }

    /// `GET /traces/{a}/diff/{b}?threshold=X&format=text|json` — the
    /// structural diff of two traces replayed under identical
    /// parameters, byte-equal to `vex diff a.vex b.vex` with the same
    /// options. Cached under BOTH trace generations, so re-ingesting
    /// either side invalidates the pair.
    fn diff(&self, req: &Request, a: &str, b: &str) -> Response {
        let allowed = ["shards", "coarse", "fine", "races", "reuse", "threshold", "format"];
        let map = match query_map(req, &allowed) {
            Ok(m) => m,
            Err(e) => return Response::error(Status::BadRequest, e),
        };
        let params = match parse_report_params(&map) {
            Ok(p) => p,
            Err(e) => return Response::error(Status::BadRequest, e),
        };
        let threshold = match map.get("threshold") {
            None => 0.10,
            Some(v) => match v.parse::<f64>() {
                Ok(t) if (0.0..=1.0).contains(&t) => t,
                _ => {
                    return Response::error(
                        Status::BadRequest,
                        format!("threshold must be a number in [0, 1], got '{v}'"),
                    )
                }
            },
        };
        let json = match map.get("format").copied().unwrap_or("text") {
            "text" => false,
            "json" => true,
            other => {
                return Response::error(
                    Status::BadRequest,
                    format!("format must be 'text' or 'json', got '{other}'"),
                )
            }
        };
        let entry_a = match self.lookup(a) {
            Ok(entry) => entry,
            Err(resp) => return resp,
        };
        let entry_b = match self.lookup(b) {
            Ok(entry) => entry,
            Err(resp) => return resp,
        };
        let key = format!(
            "{a}@{}+{b}@{}/diff?{},threshold={threshold:?},json={json}",
            entry_a.generation,
            entry_b.generation,
            params.cache_key()
        );
        let value = self.cache().get_or_compute(&key, || {
            let profile_a = self.profile(&entry_a, &params)?;
            let profile_b = self.profile(&entry_b, &params)?;
            let opts = DiffOptions { threshold, ..DiffOptions::default() };
            let diff = diff_profiles(&profile_a, &profile_b, &opts);
            Ok(if json {
                let body = diff.render_json_document();
                Response::json(
                    Status::Ok,
                    body.map_err(|e| (Status::BadRequest, e.to_string()))?,
                )
            } else {
                Response::text(Status::Ok, diff.render_text_document())
            })
        });
        unwrap_cached(&value)
    }

    /// `GET /traces/{id}/flowgraph?threshold=X&format=dot|json`.
    fn flowgraph(&self, req: &Request, id: &str) -> Response {
        let allowed = ["shards", "coarse", "fine", "races", "reuse", "threshold", "format"];
        let map = match query_map(req, &allowed) {
            Ok(m) => m,
            Err(e) => return Response::error(Status::BadRequest, e),
        };
        let params = match parse_report_params(&map) {
            Ok(p) => p,
            Err(e) => return Response::error(Status::BadRequest, e),
        };
        let threshold = match map.get("threshold") {
            None => None,
            Some(v) => match v.parse::<f64>() {
                Ok(t) if (0.0..=1.0).contains(&t) => Some(t),
                _ => {
                    return Response::error(
                        Status::BadRequest,
                        format!("threshold must be a number in [0, 1], got '{v}'"),
                    )
                }
            },
        };
        let format = match map.get("format").copied().unwrap_or("dot") {
            "dot" => FlowFormat::Dot,
            "json" => FlowFormat::Json,
            other => {
                return Response::error(
                    Status::BadRequest,
                    format!("format must be 'dot' or 'json', got '{other}'"),
                )
            }
        };
        let entry = match self.lookup(id) {
            Ok(entry) => entry,
            Err(resp) => return resp,
        };
        let key = format!(
            "{id}@{}/flowgraph?{},threshold={threshold:?},format={format:?}",
            entry.generation,
            params.cache_key()
        );
        let value = self.cache().get_or_compute(&key, || {
            let profile = self.profile(&entry, &params)?;
            Ok(match format {
                FlowFormat::Dot => Response {
                    status: Status::Ok,
                    content_type: "text/vnd.graphviz; charset=utf-8",
                    body: profile.render_dot_document(threshold).into_bytes(),
                    retry_after: None,
                },
                FlowFormat::Json => {
                    Response::json(Status::Ok, to_pretty_json(&profile.flow_graph))
                }
            })
        });
        unwrap_cached(&value)
    }

    /// Streams the incarnation `entry` names under `params`; a vanished
    /// incarnation is a 404, a trace that cannot be analyzed under
    /// `params` the client's 400.
    fn profile(
        &self,
        entry: &TraceEntry,
        params: &ReportParams,
    ) -> Result<Profile, (Status, String)> {
        self.store.profile(&entry.id, entry.generation, params).map_err(|e| {
            let status = match e {
                ProfileError::NotFound(_) => Status::NotFound,
                ProfileError::Failed(_) => Status::BadRequest,
            };
            (status, e.to_string())
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowFormat {
    Dot,
    Json,
}

/// The `GET /traces` response document.
#[derive(Debug, serde::Serialize)]
struct TraceListing {
    total: usize,
    offset: usize,
    count: usize,
    traces: Vec<TraceListRow>,
    quarantined: Vec<QuarantineRow>,
}

/// Maps a store mutation failure onto its HTTP status.
fn mutation_response(e: MutationError) -> Response {
    let status = match &e {
        MutationError::BadId(_) | MutationError::InvalidTrace(_) => Status::BadRequest,
        MutationError::Duplicate(_) => Status::Conflict,
        MutationError::NotFound(_) => Status::NotFound,
        MutationError::Io(_) => Status::Internal,
    };
    Response::error(status, e)
}

/// Serializes rows as a pretty JSON document terminated by a newline.
fn json_rows<T: serde::Serialize>(rows: &[T]) -> String {
    to_pretty_json(&rows)
}

fn to_pretty_json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    let mut s = serde_json::to_string_pretty(value)
        .unwrap_or_else(|e| format!("\"serialization failed: {e}\""));
    s.push('\n');
    s
}

/// A cached computation result as a response, failures with the status
/// their computation chose.
fn unwrap_cached(value: &crate::cache::CachedValue) -> Response {
    match value.as_ref() {
        Ok(resp) => resp.clone(),
        Err((status, e)) => Response::error(*status, e),
    }
}

/// Parses the shared analysis parameters, mirroring `vex replay`'s
/// defaults and validation.
fn parse_report_params(
    map: &std::collections::BTreeMap<&str, &str>,
) -> Result<ReportParams, String> {
    let mut p = ReportParams::default();
    if let Some(v) = map.get("shards") {
        p.shards = v
            .parse()
            .map_err(|_| format!("shards must be a non-negative integer, got '{v}'"))?;
    }
    if let Some(v) = map.get("coarse") {
        p.coarse = parse_bool("coarse", v)?;
    }
    if let Some(v) = map.get("fine") {
        p.fine = parse_bool("fine", v)?;
    }
    if let Some(v) = map.get("races") {
        p.races = parse_bool("races", v)?;
    }
    if let Some(v) = map.get("reuse") {
        let line: u64 =
            v.parse().map_err(|_| format!("reuse must be a line size in bytes, got '{v}'"))?;
        p.reuse = Some(line);
    }
    p.validate()?;
    Ok(p)
}

fn parse_bool(key: &str, v: &str) -> Result<bool, String> {
    match v {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        _ => Err(format!("{key} must be 0/1/true/false, got '{v}'")),
    }
}

/// A running server; dropping it shuts it down gracefully.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts the accept loop and
    /// worker pool over `store`.
    ///
    /// # Errors
    ///
    /// The I/O error if binding fails.
    pub fn bind(
        store: ProfileStore,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(
            ServeState::new(store, config.cache_entries).with_ingest(config.ingest_enabled),
        );
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = config.workers.max(1);
        // Cap queued-but-unserved connections at one per worker; beyond
        // that the accept thread waits up to `shed_wait` for space and
        // then sheds the connection with a 503 instead of buffering
        // unboundedly or stalling the accept loop.
        let (tx, rx) = channel::bounded::<TcpStream>(workers);

        let accept_thread = {
            let shutdown = shutdown.clone();
            let state = state.clone();
            let config = config.clone();
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    match tx.send_timeout(conn, config.shed_wait) {
                        Ok(()) => {}
                        Err(channel::SendTimeoutError::Timeout(conn)) => {
                            shed_connection(conn, &state, &config);
                        }
                        Err(channel::SendTimeoutError::Disconnected(_)) => break,
                    }
                }
                // Dropping `tx` disconnects the channel; workers drain
                // what was accepted, then exit.
            })
        };

        let mut worker_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let rx = rx.clone();
            let state = state.clone();
            let config = config.clone();
            worker_handles.push(std::thread::spawn(move || {
                while let Ok(conn) = rx.recv() {
                    serve_connection(conn, &state, &config);
                }
            }));
        }

        Ok(Server {
            addr,
            state,
            shutdown,
            accept_thread: Some(accept_thread),
            workers: worker_handles,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (store, cache, metrics) — for inspection in
    /// tests and benches.
    pub fn state(&self) -> &ServeState {
        &self.state
    }

    /// Stops accepting, drains in-flight and already-queued connections,
    /// and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Answers a connection the worker pool could not absorb within
/// [`ServerConfig::shed_wait`]: a canned `503 Service Unavailable` with
/// `Retry-After`, written from the accept thread under the ordinary
/// write timeout so a slow client cannot stall accepting for long.
fn shed_connection(mut conn: TcpStream, state: &ServeState, config: &ServerConfig) {
    state.metrics().record_shed();
    let _ = conn.set_write_timeout(Some(config.write_timeout));
    let _ = conn.set_nodelay(true);
    let resp =
        Response::error(Status::ServiceUnavailable, "worker queue saturated; retry later")
            .with_retry_after(config.shed_retry_after_secs);
    let _ = conn.write_all(&resp.to_bytes());
    let _ = conn.shutdown(std::net::Shutdown::Both);
}

/// Serves one connection: bounded read, parse, route, respond, close.
/// Never panics; every failure turns into a 4xx or a closed socket.
fn serve_connection(mut conn: TcpStream, state: &ServeState, config: &ServerConfig) {
    let started = Instant::now();
    let _ = conn.set_read_timeout(Some(config.read_timeout));
    let _ = conn.set_write_timeout(Some(config.write_timeout));
    let _ = conn.set_nodelay(true);

    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let parsed = loop {
        match parse_request(&buf) {
            Ok(ok) => break Ok(ok),
            Err(ParseError::Incomplete) => {}
            Err(e) => break Err(e),
        }
        match conn.read(&mut chunk) {
            // Clean EOF with an incomplete head: nothing to answer.
            Ok(0) => {
                if !buf.is_empty() {
                    respond(
                        state,
                        &mut conn,
                        "other",
                        started,
                        Response::error(Status::BadRequest, "connection closed mid-request"),
                    );
                }
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            // Timeout or reset while reading.
            Err(_) => {
                respond(
                    state,
                    &mut conn,
                    "other",
                    started,
                    Response::error(
                        Status::RequestTimeout,
                        "timed out reading the request head",
                    ),
                );
                return;
            }
        }
    };

    match parsed {
        Ok((request, consumed)) => {
            // Only POSTs carry a body the server reads; any declared
            // body on other methods is left unread (the connection
            // closes after one response anyway).
            let body = if request.method == "POST" {
                match read_body(&mut conn, &buf[consumed..], &request, config) {
                    Ok(body) => body,
                    Err(response) => {
                        respond(state, &mut conn, "ingest", started, response);
                        // The client may still be mid-body; a hard close
                        // now would RST the connection and can destroy
                        // the error response before the client reads it.
                        drain_request(&mut conn);
                        return;
                    }
                }
            } else {
                Vec::new()
            };
            let (endpoint, response) = state.handle_with_body(&request, &body);
            respond(state, &mut conn, endpoint, started, response);
        }
        Err(e) => {
            let status = e.status();
            let detail = match e {
                ParseError::Malformed(what) => what,
                ParseError::TooLarge => "request head too large",
                ParseError::Incomplete => "incomplete request",
            };
            respond(state, &mut conn, "other", started, Response::error(status, detail));
        }
    }
}

/// Finishes an early-error connection whose request body was never
/// fully read: half-close the write side, then discard (bounded) what
/// the client is still sending, so the response already on the wire is
/// not destroyed by a TCP reset when the socket closes with unread
/// bytes pending.
fn drain_request(conn: &mut TcpStream) {
    let _ = conn.shutdown(std::net::Shutdown::Write);
    let mut chunk = [0u8; 8 * 1024];
    let mut drained = 0usize;
    // Per-read timeouts still apply; the bound keeps a hostile client
    // from feeding a worker forever.
    while drained < 16 * 1024 * 1024 {
        match conn.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

/// Reads a POST body according to the request's declared framing:
/// `Content-Length` (capped before the bytes are read) or chunked
/// (capped incrementally by [`decode_chunked`]). `leftover` is whatever
/// the head read already pulled off the socket.
fn read_body(
    conn: &mut TcpStream,
    leftover: &[u8],
    request: &Request,
    config: &ServerConfig,
) -> Result<Vec<u8>, Response> {
    let max = config.max_ingest_bytes;
    let mut chunk = [0u8; 8 * 1024];
    if let Some(declared) = request.content_length {
        if declared > max {
            return Err(Response::error(
                Status::PayloadTooLarge,
                format!("body of {declared} bytes exceeds the {max}-byte cap"),
            ));
        }
        let declared = declared as usize;
        let mut body = Vec::with_capacity(declared.min(1 << 20));
        body.extend_from_slice(&leftover[..leftover.len().min(declared)]);
        while body.len() < declared {
            match conn.read(&mut chunk) {
                Ok(0) => {
                    return Err(Response::error(
                        Status::BadRequest,
                        "connection closed mid-body",
                    ))
                }
                Ok(n) => {
                    let want = declared - body.len();
                    body.extend_from_slice(&chunk[..n.min(want)]);
                }
                Err(_) => {
                    return Err(Response::error(
                        Status::RequestTimeout,
                        "timed out reading the request body",
                    ))
                }
            }
        }
        Ok(body)
    } else if request.chunked {
        // Resumable decode: each socket read advances the decoder from
        // where it stopped, so reassembly is O(body), not O(body²).
        let mut decoder = ChunkedDecoder::new(max);
        let mut complete = decoder.extend(leftover).map_err(chunk_error)?;
        while !complete {
            match conn.read(&mut chunk) {
                Ok(0) => {
                    return Err(Response::error(
                        Status::BadRequest,
                        "connection closed mid-body",
                    ))
                }
                Ok(n) => complete = decoder.extend(&chunk[..n]).map_err(chunk_error)?,
                Err(_) => {
                    return Err(Response::error(
                        Status::RequestTimeout,
                        "timed out reading the request body",
                    ))
                }
            }
        }
        Ok(decoder.into_body())
    } else {
        Ok(Vec::new())
    }
}

/// Maps a chunked-framing error onto its response (`413` for the size
/// cap, `400` for everything else).
fn chunk_error(e: &'static str) -> Response {
    if e == BODY_TOO_LARGE {
        Response::error(Status::PayloadTooLarge, e)
    } else {
        Response::error(Status::BadRequest, e)
    }
}

fn respond(
    state: &ServeState,
    conn: &mut TcpStream,
    endpoint: &'static str,
    started: Instant,
    response: Response,
) {
    let is_error = !response.status.is_success();
    // A client that vanished mid-write is not a server failure; the
    // metrics entry still records the request.
    let _ = conn.write_all(&response.to_bytes());
    let _ = conn.flush();
    state.metrics.record(endpoint, started.elapsed(), is_error);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use vex_core::profiler::ValueExpert;
    use vex_gpu::runtime::Runtime;
    use vex_gpu::timing::DeviceSpec;
    use vex_workloads::{all_apps, Variant};

    /// Records QMCPACK with both passes into a fresh temp directory, as
    /// each of `ids`.
    fn qmcpack_dir(tag: &str, ids: &[&str]) -> PathBuf {
        let apps = all_apps();
        let app = apps.iter().find(|a| a.name() == "QMCPACK").expect("bundled workload");
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let rec =
            ValueExpert::builder().coarse(true).fine(true).record(&mut rt, Vec::new()).unwrap();
        app.run(&mut rt, Variant::Baseline).unwrap();
        let bytes = rec.finish(&mut rt).unwrap();
        let dir = std::env::temp_dir().join(format!("vex-server-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for id in ids {
            std::fs::write(dir.join(format!("{id}.vex")), &bytes).unwrap();
        }
        dir
    }

    /// A store over `qmcpack`, recorded once and shared by every test.
    fn qmcpack_store() -> ProfileStore {
        static DIR: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
        ProfileStore::load_dir(DIR.get_or_init(|| qmcpack_dir("shared", &["qmcpack"]))).unwrap()
    }

    fn qmcpack_state() -> ServeState {
        ServeState::new(qmcpack_store(), 8)
    }

    fn get(state: &ServeState, target: &str) -> (&'static str, Response) {
        let (req, _) =
            parse_request(format!("GET {target} HTTP/1.1\r\n\r\n").as_bytes()).unwrap();
        state.handle(&req)
    }

    #[test]
    fn routes_cover_every_endpoint() {
        let state = qmcpack_state();
        for (target, endpoint, status) in [
            ("/healthz", "healthz", Status::Ok),
            ("/metrics", "metrics", Status::Ok),
            ("/traces", "traces", Status::Ok),
            ("/traces/qmcpack/report", "report", Status::Ok),
            ("/traces/qmcpack/report?shards=2&fine=1", "report", Status::Ok),
            ("/traces/qmcpack/diff/qmcpack", "diff", Status::Ok),
            ("/traces/qmcpack/diff/qmcpack?format=json&threshold=0.5", "diff", Status::Ok),
            ("/traces/qmcpack/diff/missing", "diff", Status::NotFound),
            ("/traces/qmcpack/diff/qmcpack?threshold=2", "diff", Status::BadRequest),
            ("/traces/qmcpack/diff/qmcpack?format=xml", "diff", Status::BadRequest),
            ("/traces/qmcpack/flowgraph", "flowgraph", Status::Ok),
            ("/traces/qmcpack/flowgraph?format=json", "flowgraph", Status::Ok),
            ("/traces/qmcpack/objects", "objects", Status::Ok),
            ("/traces/qmcpack/kernels", "kernels", Status::Ok),
            ("/traces/missing/report", "report", Status::NotFound),
            ("/nope", "other", Status::NotFound),
            ("/traces/qmcpack/report?frob=1", "report", Status::BadRequest),
            ("/traces/qmcpack/report?shards=lots", "report", Status::BadRequest),
            ("/traces/qmcpack/report?coarse=0", "report", Status::BadRequest),
            ("/traces/qmcpack/flowgraph?threshold=2", "flowgraph", Status::BadRequest),
            ("/traces/qmcpack/flowgraph?format=png", "flowgraph", Status::BadRequest),
            ("/healthz?x=1", "healthz", Status::BadRequest),
        ] {
            let (label, resp) = get(&state, target);
            assert_eq!(label, endpoint, "{target}");
            assert_eq!(
                resp.status,
                status,
                "{target}: {:?}",
                String::from_utf8_lossy(&resp.body)
            );
        }
    }

    #[test]
    fn non_get_is_405() {
        let state = qmcpack_state();
        for head in [
            &b"DELETE /traces HTTP/1.1\r\n\r\n"[..],
            &b"PUT /traces/qmcpack/report HTTP/1.1\r\n\r\n"[..],
            &b"POST /traces HTTP/1.1\r\n\r\n"[..],
            // The mutation routes themselves stay 405 until --ingest.
            &b"POST /ingest/x HTTP/1.1\r\n\r\n"[..],
            &b"DELETE /traces/qmcpack HTTP/1.1\r\n\r\n"[..],
        ] {
            let (req, _) = parse_request(head).unwrap();
            let (_, resp) = state.handle(&req);
            assert_eq!(
                resp.status,
                Status::MethodNotAllowed,
                "{}",
                String::from_utf8_lossy(head)
            );
        }
    }

    #[test]
    fn report_of_a_vanished_incarnation_is_404() {
        let dir = qmcpack_dir("stale", &["x"]);
        let bytes = std::fs::read(dir.join("x.vex")).unwrap();
        let state = ServeState::new(ProfileStore::load_dir(&dir).unwrap(), 0);
        let stale = state.store().entry("x").unwrap();
        let params = ReportParams::default();
        assert_eq!(state.cached_report(&stale, &params).status, Status::Ok);
        // Deleted and re-ingested after the lookup: the old generation
        // is gone, like an id that was never there.
        state.store().remove("x").unwrap();
        let resp = state.cached_report(&stale, &params);
        assert_eq!(resp.status, Status::NotFound, "{}", String::from_utf8_lossy(&resp.body));
        state.store().ingest("x", &bytes).unwrap();
        assert_eq!(state.cached_report(&stale, &params).status, Status::NotFound);
        let fresh = state.store().entry("x").unwrap();
        assert_eq!(state.cached_report(&fresh, &params).status, Status::Ok);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traces_listing_paginates_with_stable_totals() {
        let dir = qmcpack_dir("listing", &["a", "b", "c", "d"]);
        let state = ServeState::new(ProfileStore::load_dir(&dir).unwrap(), 4);
        let body = |target: &str| -> String {
            let (_, resp) = get(&state, target);
            assert_eq!(resp.status, Status::Ok, "{target}");
            String::from_utf8(resp.body).unwrap()
        };
        let all = body("/traces");
        assert!(all.contains("\"total\": 4"), "{all}");
        assert!(all.contains("\"count\": 4"), "{all}");
        for id in ["a", "b", "c", "d"] {
            assert!(all.contains(&format!("\"id\": \"{id}\"")), "{all}");
        }
        let page = body("/traces?offset=1&limit=2");
        assert!(page.contains("\"total\": 4"), "{page}");
        assert!(page.contains("\"count\": 2"), "{page}");
        assert!(!page.contains("\"id\": \"a\""), "{page}");
        assert!(page.contains("\"id\": \"b\""), "{page}");
        assert!(page.contains("\"id\": \"c\""), "{page}");
        assert!(!page.contains("\"id\": \"d\""), "{page}");
        // Past-the-end page is empty but well-formed.
        let empty = body("/traces?offset=10");
        assert!(empty.contains("\"count\": 0"), "{empty}");
        // Bad pagination parameters are rejected.
        let (_, resp) = get(&state, "/traces?offset=-1");
        assert_eq!(resp.status, Status::BadRequest);
        let (_, resp) = get(&state, "/traces?limit=lots");
        assert_eq!(resp.status, Status::BadRequest);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_bytes_match_replay_and_cache_hits() {
        let state = qmcpack_state();
        let trace = state.store().decoded("qmcpack").unwrap();
        let expect =
            ValueExpert::builder().coarse(true).replay(&trace).unwrap().render_text_document();
        let (_, first) = get(&state, "/traces/qmcpack/report");
        assert_eq!(String::from_utf8(first.body.clone()).unwrap(), expect);
        let (_, second) = get(&state, "/traces/qmcpack/report");
        assert_eq!(first, second);
        let stats = state.cache().stats();
        assert_eq!(stats.misses.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(stats.hits.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn flowgraph_dot_matches_replay() {
        let state = qmcpack_state();
        let trace = state.store().decoded("qmcpack").unwrap();
        let expect = ValueExpert::builder()
            .coarse(true)
            .replay(&trace)
            .unwrap()
            .render_dot_document(None);
        let (_, resp) = get(&state, "/traces/qmcpack/flowgraph?format=dot");
        assert_eq!(String::from_utf8(resp.body).unwrap(), expect);
        // An explicit threshold is honoured.
        let (_, resp) = get(&state, "/traces/qmcpack/flowgraph?threshold=0.9");
        let expect_t = ValueExpert::builder()
            .coarse(true)
            .replay(&trace)
            .unwrap()
            .render_dot_document(Some(0.9));
        assert_eq!(String::from_utf8(resp.body).unwrap(), expect_t);
    }

    #[test]
    fn loopback_roundtrip_and_graceful_shutdown() {
        let server =
            Server::bind(qmcpack_store(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.addr();
        let fetch = |target: &str| -> String {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .unwrap();
            let mut out = String::new();
            conn.read_to_string(&mut out).unwrap();
            out
        };
        let health = fetch("/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.ends_with("\r\n\r\nok\n"), "{health}");
        let report = fetch("/traces/qmcpack/report");
        assert!(report.contains("ValueExpert profile"), "{report}");
        let metrics = fetch("/metrics");
        assert!(metrics.contains("vex_requests_total{endpoint=\"report\"} 1"), "{metrics}");
        assert!(server.state().metrics().total_requests() >= 2);
        server.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may still accept briefly; a racing connect that
                // succeeds must at least get no response.
                true
            }
        );
    }

    #[test]
    fn saturated_workers_shed_with_503_and_retry_after() {
        let server = {
            let store = qmcpack_store();
            let config = ServerConfig {
                workers: 1,
                shed_wait: Duration::from_millis(20),
                read_timeout: Duration::from_secs(2),
                ..ServerConfig::default()
            };
            Server::bind(store, "127.0.0.1:0", config).unwrap()
        };
        let addr = server.addr();
        // Occupy the single worker and the single queue slot with
        // connections that send nothing: the worker blocks in its
        // bounded read until `read_timeout` expires.
        let stall1 = TcpStream::connect(addr).unwrap();
        let stall2 = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // The next connection cannot reach the queue within
        // `shed_wait`: the accept thread itself must answer 503 with a
        // Retry-After, well before the stalled worker frees up.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        let mut out = String::new();
        let _ = conn.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{out}");
        assert!(out.contains("Retry-After: 1\r\n"), "{out}");
        assert_eq!(server.state().metrics().sheds(), 1);
        let metrics = server
            .state()
            .metrics()
            .render(server.state().cache().stats(), server.state().store().stats());
        assert!(metrics.contains("vex_requests_shed_total 1"), "{metrics}");
        drop(stall1);
        drop(stall2);
        server.shutdown();
    }
}
