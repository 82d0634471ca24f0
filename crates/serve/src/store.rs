//! The profile store: every `.vex` trace of a directory, indexed at
//! startup and streamed from its file for every report.
//!
//! A trace's id is its file stem (`darknet.vex` → `darknet`). Loading
//! builds only the resident **index tier** — summary counts plus the
//! object and kernel breakdowns, folded out of one cheap skip-records
//! scan ([`vex_trace::index`]) — so startup cost tracks encoded bytes,
//! never record counts, and an idle store holds a few KiB per trace.
//! A report, flowgraph or diff replays its trace straight from the file
//! ([`ProfileStore::profile`]), one projected batch at a time, exactly
//! as `vex replay` does; no decoded trace is ever kept. What the store
//! does keep is the rendered bodies, in its generation-keyed
//! [`ReportCache`], whose retained bytes [`StoreOptions::memory_budget`]
//! bounds.
//!
//! Loading is lenient by default: a corrupt trace is quarantined (and
//! surfaced in `/traces` + `/metrics`) instead of failing the whole
//! startup; [`StoreOptions::strict`] restores fail-fast. The store is
//! also *mutable* while serving: [`ProfileStore::ingest`] validates
//! pushed trace bytes, writes them atomically (tmp file + rename) into
//! the backing directory, and indexes them without a restart;
//! [`ProfileStore::remove`] deletes a trace from the index and disk.

use crate::cache::ReportCache;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use vex_core::profiler::{check_analysis_params, ProfilerBuilder, ReplayError, ValueExpert};
use vex_core::report::Profile;
use vex_gpu::hooks::ApiKind;
use vex_trace::codec::DecodeError;
use vex_trace::container::{read_trace_file, RecordedTrace, TraceFrame, TraceReader};
use vex_trace::event::Event;
use vex_trace::index::{index_trace_with, FrameEntry, TraceIndex};
use vex_trace::summary::TraceSummary;

/// One row of the `GET /traces` listing.
#[derive(Debug, Clone, Serialize)]
pub struct TraceListRow {
    /// Trace id (file stem).
    pub id: String,
    /// Device preset the trace was recorded against.
    pub device: String,
    /// Whether coarse capture snapshots were recorded.
    pub coarse: bool,
    /// Whether fine-grained access records were recorded.
    pub fine: bool,
    /// API events in the stream.
    pub api_events: u64,
    /// Instrumented kernel launches.
    pub instrumented_launches: u64,
    /// Fine-grained access records.
    pub records: u64,
    /// Application time of the recorded run, µs.
    pub app_us: f64,
}

/// One row of the `GET /traces/{id}/objects` breakdown.
#[derive(Debug, Clone, Serialize)]
pub struct ObjectRow {
    /// Allocation id.
    pub id: u64,
    /// Allocation label (the paper's object name).
    pub label: String,
    /// Device address.
    pub addr: u64,
    /// Size, bytes.
    pub size_bytes: u64,
    /// Rendered allocating call path.
    pub context: String,
    /// Whether the object was freed before the end of the recording.
    pub freed: bool,
}

/// One row of the `GET /traces/{id}/kernels` breakdown.
#[derive(Debug, Clone, Serialize)]
pub struct KernelRow {
    /// Kernel name.
    pub name: String,
    /// Launches that were instrumented.
    pub instrumented_launches: u64,
    /// Launches skipped by sampling/filtering.
    pub skipped_launches: u64,
    /// Fine-grained records collected across instrumented launches.
    pub records: u64,
}

/// A quarantined trace file: present in the directory, skipped at load.
///
/// Besides the disqualifying error, the row reports what a salvage
/// pass ([`vex_trace::salvage`]) could still recover — a truncated
/// trace from a crashed recording is usually mostly intact, and
/// surfacing that here lets an operator decide between `vex repair`
/// and deletion without leaving the listing.
#[derive(Debug, Clone, Serialize)]
pub struct QuarantineRow {
    /// File name (not the full path — the directory is the store's).
    pub file: String,
    /// The decode error that disqualified it.
    pub error: String,
    /// Whether salvage recovered at least one frame (`vex repair` would
    /// produce a non-empty valid trace).
    pub salvageable: bool,
    /// Percent of the file's bytes inside the recoverable prefix.
    pub recoverable_percent: f64,
    /// Frames in the longest valid prefix.
    pub frames_recovered: u64,
}

impl QuarantineRow {
    /// Builds the row for `path`, running a salvage probe over the file
    /// to fill the recoverability fields. A file whose header cannot be
    /// parsed (or that vanished) reports as unsalvageable.
    fn probe(path: &Path, error: String) -> QuarantineRow {
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let (salvageable, recoverable_percent, frames_recovered) =
            match vex_trace::salvage::salvage_trace_file(path) {
                Ok(s) => (
                    s.report.frames_recovered > 0,
                    s.report.recoverable_percent(),
                    s.report.frames_recovered,
                ),
                Err(_) => (false, 0.0, 0),
            };
        QuarantineRow { file, error, salvageable, recoverable_percent, frames_recovered }
    }
}

/// The always-resident index tier of one trace: everything the static
/// endpoints serve, built by a single skip-records scan — never the
/// decoded event stream.
#[derive(Debug)]
pub struct TraceEntry {
    /// Trace id (file stem).
    pub id: String,
    /// Incarnation token: process-unique, assigned when the entry is
    /// indexed. A delete + re-ingest under the same id yields a new
    /// entry with a different generation, so report-cache keys and
    /// [`ProfileStore::profile`] can distinguish the incarnations and
    /// never serve a previous trace's data for the new one.
    pub generation: u64,
    /// Header fields and per-event-type counts.
    pub summary: TraceSummary,
    /// Per-object breakdown rows.
    pub objects: Vec<ObjectRow>,
    /// Per-kernel breakdown rows.
    pub kernels: Vec<KernelRow>,
    /// Backing file.
    path: PathBuf,
}

/// The next process-unique [`TraceEntry::generation`].
fn next_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Loading or serving the store failed.
#[derive(Debug)]
pub struct StoreError(pub String);

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for StoreError {}

/// Why an ingest or delete was refused; each variant maps onto one HTTP
/// status so the server's error surface stays uniform.
#[derive(Debug)]
pub enum MutationError {
    /// The id is not a valid trace id (charset/length). → 400
    BadId(String),
    /// A trace with this id already exists. → 409
    Duplicate(String),
    /// No trace with this id. → 404
    NotFound(String),
    /// The uploaded bytes are not a valid trace. → 400
    InvalidTrace(String),
    /// Disk I/O failed. → 500
    Io(String),
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::BadId(id) => {
                write!(f, "invalid trace id '{id}' (1-64 chars of [A-Za-z0-9_-])")
            }
            MutationError::Duplicate(id) => write!(f, "trace '{id}' already exists"),
            MutationError::NotFound(id) => write!(f, "no trace '{id}'"),
            MutationError::InvalidTrace(e) => write!(f, "not a valid trace: {e}"),
            MutationError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for MutationError {}

/// Load/serve knobs of a [`ProfileStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreOptions {
    /// Upper bound on the bytes of rendered bodies the report cache
    /// retains (`None` = unbounded). Least-recently-used bodies are
    /// evicted to stay under it; a body larger than the whole budget is
    /// served but not kept. The index tier is always resident.
    pub memory_budget: Option<u64>,
    /// Fail the whole load on the first corrupt trace instead of
    /// quarantining it.
    pub strict: bool,
}

/// Gauges and counters of the store, rendered into `/metrics`.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Configured memory budget, bytes (gauge; 0 = unbounded).
    pub memory_budget_bytes: AtomicU64,
    /// Traces streamed from disk by [`ProfileStore::profile`].
    pub decodes_total: AtomicU64,
    /// Traces accepted via ingest.
    pub ingested_total: AtomicU64,
    /// Ingest requests refused (bad id, duplicate, invalid bytes, io).
    pub ingest_errors_total: AtomicU64,
    /// Trace bytes accepted via ingest.
    pub ingested_bytes_total: AtomicU64,
    /// Traces deleted.
    pub deleted_total: AtomicU64,
    /// Trace files quarantined at load (gauge).
    pub quarantined: AtomicU64,
    /// Orphaned ingest temp files (`.{id}.{nonce}.vex.tmp`) swept at
    /// startup — litter from a crash mid-ingest; the atomic
    /// tmp+rename protocol guarantees they were never visible to
    /// readers.
    pub orphans_swept: AtomicU64,
}

/// Every trace of one directory: a resident index tier, plus the
/// rendered bodies of the reports streamed from it.
pub struct ProfileStore {
    entries: RwLock<BTreeMap<String, Arc<TraceEntry>>>,
    /// Trace files skipped at load. Mutable: a successful ingest under a
    /// quarantined file's id replaces the corrupt bytes and clears its
    /// row, so `/traces` never lists an id as both valid and quarantined.
    quarantined: RwLock<Vec<QuarantineRow>>,
    /// Rendered report/flowgraph/diff bodies under
    /// [`StoreOptions::memory_budget`]; keeps none until
    /// [`Self::with_cache_entries`] sizes it.
    bodies: ReportCache,
    dir: PathBuf,
    opts: StoreOptions,
    stats: StoreStats,
}

impl std::fmt::Debug for ProfileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileStore")
            .field("traces", &self.len())
            .field("quarantined", &self.quarantined().len())
            .field("dir", &self.dir)
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

impl ProfileStore {
    /// Loads every `*.vex` file under `dir` (non-recursive) with default
    /// options: lenient loading, no memory budget.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the directory cannot be read. Corrupt traces
    /// are quarantined, not fatal (see [`StoreOptions::strict`]). An
    /// empty directory is a valid (empty) store.
    pub fn load_dir(dir: &Path) -> Result<Self, StoreError> {
        Self::load_dir_with(dir, &StoreOptions::default())
    }

    /// [`load_dir`](Self::load_dir) with explicit [`StoreOptions`].
    ///
    /// Startup indexes each trace with one skip-records scan; no record
    /// is decoded until a report streams the trace.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the directory cannot be read, a file stem is
    /// not UTF-8, or (under [`StoreOptions::strict`]) a trace fails to
    /// decode.
    pub fn load_dir_with(dir: &Path, opts: &StoreOptions) -> Result<Self, StoreError> {
        let read = std::fs::read_dir(dir)
            .map_err(|e| StoreError(format!("cannot read {}: {e}", dir.display())))?;
        let all: Vec<PathBuf> = read.filter_map(|e| e.ok().map(|e| e.path())).collect();
        // Sweep orphaned ingest temp files first: a crash between the
        // tmp write and the rename leaves `.{id}.{nonce}.vex.tmp`
        // behind. The rename is the commit point, so an orphan was
        // never visible to readers and can never become one — deleting
        // it is always safe, and keeps crashes from leaking disk.
        let mut orphans_swept = 0u64;
        for path in &all {
            if is_orphan_tmp(path) && std::fs::remove_file(path).is_ok() {
                orphans_swept += 1;
            }
        }
        let mut paths: Vec<PathBuf> = all
            .into_iter()
            .filter(|p| p.extension().is_some_and(|x| x == "vex") && p.is_file())
            .collect();
        paths.sort();
        let mut entries = BTreeMap::new();
        let mut quarantined = Vec::new();
        for path in paths {
            let id = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| StoreError(format!("non-utf8 trace name: {}", path.display())))?
                .to_owned();
            match index_entry(id.clone(), &path) {
                Ok(entry) => {
                    if entries.insert(id.clone(), Arc::new(entry)).is_some() {
                        return Err(StoreError(format!("duplicate trace id '{id}'")));
                    }
                }
                Err(e) if opts.strict => {
                    return Err(StoreError(format!("cannot load {}: {e}", path.display())));
                }
                Err(e) => quarantined.push(QuarantineRow::probe(&path, e.to_string())),
            }
        }
        let store = ProfileStore {
            entries: RwLock::new(entries),
            quarantined: RwLock::new(quarantined),
            bodies: ReportCache::new(0, opts.memory_budget),
            dir: dir.to_path_buf(),
            opts: *opts,
            stats: StoreStats::default(),
        };
        store.stats.quarantined.store(store.quarantined().len() as u64, Ordering::Relaxed);
        store.stats.orphans_swept.store(orphans_swept, Ordering::Relaxed);
        store
            .stats
            .memory_budget_bytes
            .store(opts.memory_budget.unwrap_or(0), Ordering::Relaxed);
        Ok(store)
    }

    /// Number of traces indexed.
    pub fn len(&self) -> usize {
        self.entries.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Trace ids, sorted.
    pub fn ids(&self) -> Vec<String> {
        self.entries.read().unwrap_or_else(|e| e.into_inner()).keys().cloned().collect()
    }

    /// Looks the index tier up by id.
    pub fn entry(&self, id: &str) -> Option<Arc<TraceEntry>> {
        self.entries.read().unwrap_or_else(|e| e.into_inner()).get(id).cloned()
    }

    /// The quarantine list: trace files skipped at load and not yet
    /// replaced by a successful ingest.
    pub fn quarantined(&self) -> Vec<QuarantineRow> {
        self.quarantined.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The store's gauges and counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Keeps up to `entries` rendered bodies (0 keeps none) within the
    /// memory budget.
    #[must_use]
    pub(crate) fn with_cache_entries(mut self, entries: usize) -> Self {
        self.bodies = ReportCache::new(entries, self.opts.memory_budget);
        self
    }

    /// The rendered-body cache.
    pub fn cache(&self) -> &ReportCache {
        &self.bodies
    }

    /// Bytes of rendered bodies the report cache currently retains.
    pub fn resident_bytes(&self) -> u64 {
        self.bodies.stats().bytes.load(Ordering::Relaxed)
    }

    /// The `GET /traces` listing rows, sorted by id.
    pub fn list_rows(&self) -> Vec<TraceListRow> {
        self.entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|t| TraceListRow {
                id: t.id.clone(),
                device: t.summary.device.clone(),
                coarse: t.summary.flags.coarse,
                fine: t.summary.flags.fine,
                api_events: t.summary.api_events,
                instrumented_launches: t.summary.instrumented_launches,
                records: t.summary.records,
                app_us: t.summary.app_us,
            })
            .collect()
    }

    /// Replays trace `id` under `params`, streaming its file one
    /// projected batch at a time through
    /// [`ProfilerBuilder::replay_reader`] — the path `vex replay` takes,
    /// so every rendered surface matches the CLI byte for byte.
    /// `generation` is the incarnation the caller keyed its cache entry
    /// on. The file is opened under the index lock, and [`Self::ingest`]
    /// renames and [`Self::remove`] unlinks only under its write lock, so
    /// the opened file always belongs to that incarnation.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if `id` no longer names that incarnation, or its
    /// file fails to open, decode or replay under `params`.
    pub fn profile(
        &self,
        id: &str,
        generation: u64,
        params: &ReportParams,
    ) -> Result<Profile, StoreError> {
        let (path, file) = {
            let entries = self.entries.read().unwrap_or_else(|e| e.into_inner());
            let entry = entries
                .get(id)
                .filter(|e| e.generation == generation)
                .ok_or_else(|| StoreError(format!("no trace '{id}'")))?;
            (entry.path.clone(), std::fs::File::open(&entry.path))
        };
        let cannot_decode =
            |e: DecodeError| StoreError(format!("cannot decode {}: {e}", path.display()));
        let file = file.map_err(|e| cannot_decode(e.into()))?;
        self.stats.decodes_total.fetch_add(1, Ordering::Relaxed);
        let reader = TraceReader::new(std::io::BufReader::new(file)).map_err(cannot_decode)?;
        params.builder().replay_reader(reader).map_err(|e| match e {
            ReplayError::Decode(e) => cannot_decode(e),
            e => StoreError(e.to_string()),
        })
    }

    /// The whole decoded event stream of `id`, read from its file on
    /// every call ([`read_trace_file`]); the server never calls this,
    /// it streams through [`Self::profile`].
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the id is unknown or its file fails to decode.
    pub fn decoded(&self, id: &str) -> Result<Arc<RecordedTrace>, StoreError> {
        let entry = self.entry(id).ok_or_else(|| StoreError(format!("no trace '{id}'")))?;
        read_trace_file(&entry.path)
            .map(Arc::new)
            .map_err(|e| StoreError(format!("cannot decode {}: {e}", entry.path.display())))
    }

    /// Validates `bytes` as a trace, writes them atomically into the
    /// backing directory as `{id}.vex`, and indexes the new trace — it
    /// is queryable as soon as this returns, no restart needed. An id
    /// whose file was quarantined at load may be pushed: the valid bytes
    /// replace the corrupt file and its quarantine row is cleared.
    ///
    /// # Errors
    ///
    /// [`MutationError`]; on any error the store and directory are
    /// unchanged.
    pub fn ingest(&self, id: &str, bytes: &[u8]) -> Result<TraceListRow, MutationError> {
        let result = self.ingest_inner(id, bytes);
        match &result {
            Ok(_) => {
                self.stats.ingested_total.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .ingested_bytes_total
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.stats.ingest_errors_total.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    fn ingest_inner(&self, id: &str, bytes: &[u8]) -> Result<TraceListRow, MutationError> {
        if !valid_trace_id(id) {
            return Err(MutationError::BadId(id.to_owned()));
        }
        let dir = &self.dir;
        // Cheap duplicate pre-check so an obvious conflict skips the
        // scan and the disk write; the authoritative check repeats under
        // the write lock below.
        if self.entries.read().unwrap_or_else(|e| e.into_inner()).contains_key(id) {
            return Err(MutationError::Duplicate(id.to_owned()));
        }
        // Validate before taking the write lock: a skip-records scan of
        // the bytes, folding the index-tier views in the same pass.
        let entry = index_entry_bytes(id.to_owned(), bytes, dir.join(format!("{id}.vex")))
            .map_err(|e| MutationError::InvalidTrace(e.to_string()))?;
        // Write the tmp file before taking the lock, so read endpoints
        // never block behind a multi-MB disk write. The nonce keeps
        // concurrent ingests of the same id off each other's tmp file.
        static TMP_NONCE: AtomicU64 = AtomicU64::new(0);
        let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".{id}.{nonce}.vex.tmp"));
        let dst = dir.join(format!("{id}.vex"));
        // Failpoint: disk faults at the tmp write. `Kill` emulates a
        // process death mid-write — the partial tmp file stays on disk
        // (a dead process cannot clean up) for the startup sweep to
        // find; every other action takes the production error path.
        match crate::fault::fire("store.ingest.write") {
            None => {}
            Some(crate::fault::Action::Kill) => {
                let _ = std::fs::write(&tmp, &bytes[..bytes.len() / 2]);
                return Err(MutationError::Io(
                    crate::fault::Action::Kill.to_io_error("store.ingest.write").to_string(),
                ));
            }
            Some(action) => {
                if let crate::fault::Action::Partial(n) = action {
                    let _ = std::fs::write(&tmp, &bytes[..n.min(bytes.len())]);
                }
                let _ = std::fs::remove_file(&tmp);
                return Err(MutationError::Io(
                    action.to_io_error("store.ingest.write").to_string(),
                ));
            }
        }
        if let Err(e) = std::fs::write(&tmp, bytes) {
            let _ = std::fs::remove_file(&tmp);
            return Err(MutationError::Io(e.to_string()));
        }
        // The write lock serializes only the duplicate check, the
        // rename, and the index insert — a concurrent ingest of the same
        // id cannot interleave, and losers clean their tmp file up.
        let mut entries = self.entries.write().unwrap_or_else(|e| e.into_inner());
        if entries.contains_key(id) {
            drop(entries);
            let _ = std::fs::remove_file(&tmp);
            return Err(MutationError::Duplicate(id.to_owned()));
        }
        // Failpoint: death at the commit point. The fully-written tmp
        // file is orphaned (`Kill` skips cleanup) — the worst-possible
        // crash window for the atomic protocol.
        if let Some(action) = crate::fault::fire("store.ingest.rename") {
            drop(entries);
            if action != crate::fault::Action::Kill {
                let _ = std::fs::remove_file(&tmp);
            }
            return Err(MutationError::Io(
                action.to_io_error("store.ingest.rename").to_string(),
            ));
        }
        if let Err(e) = std::fs::rename(&tmp, &dst) {
            drop(entries);
            let _ = std::fs::remove_file(&tmp);
            return Err(MutationError::Io(e.to_string()));
        }
        let row = list_row(&entry);
        entries.insert(id.to_owned(), Arc::new(entry));
        drop(entries);
        // A valid push under a quarantined file's id replaced the
        // corrupt bytes on disk; clear its quarantine row so the id is
        // not listed as both valid and quarantined.
        self.clear_quarantined(&format!("{id}.vex"));
        Ok(row)
    }

    /// Drops `file` from the quarantine list (if present) and refreshes
    /// the gauge.
    fn clear_quarantined(&self, file: &str) {
        let mut quarantined = self.quarantined.write().unwrap_or_else(|e| e.into_inner());
        let before = quarantined.len();
        quarantined.retain(|row| row.file != file);
        if quarantined.len() != before {
            self.stats.quarantined.store(quarantined.len() as u64, Ordering::Relaxed);
        }
    }

    /// Deletes `id` from the index tier and the directory.
    ///
    /// # Errors
    ///
    /// [`MutationError::NotFound`] if the id is unknown;
    /// [`MutationError::Io`] if the backing file cannot be removed.
    pub fn remove(&self, id: &str) -> Result<(), MutationError> {
        let mut entries = self.entries.write().unwrap_or_else(|e| e.into_inner());
        let entry = entries.remove(id).ok_or_else(|| MutationError::NotFound(id.to_owned()))?;
        match std::fs::remove_file(&entry.path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                // Roll the index entry back: the file is still there.
                entries.insert(id.to_owned(), entry);
                return Err(MutationError::Io(e.to_string()));
            }
        }
        drop(entries);
        self.stats.deleted_total.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Valid ingest ids: non-empty, ≤ 64 chars, `[A-Za-z0-9_-]` — exactly
/// the stems `load_dir` would accept without surprises, and nothing
/// that can traverse paths.
fn valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// Matches the `.{id}.{nonce}.vex.tmp` names `ingest_inner` writes:
/// hidden (leading dot) and double-suffixed, so no legitimate `*.vex`
/// trace can collide with the pattern.
fn is_orphan_tmp(path: &Path) -> bool {
    path.is_file()
        && path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with('.') && n.ends_with(".vex.tmp"))
}

fn list_row(entry: &TraceEntry) -> TraceListRow {
    TraceListRow {
        id: entry.id.clone(),
        device: entry.summary.device.clone(),
        coarse: entry.summary.flags.coarse,
        fine: entry.summary.flags.fine,
        api_events: entry.summary.api_events,
        instrumented_launches: entry.summary.instrumented_launches,
        records: entry.summary.records,
        app_us: entry.summary.app_us,
    }
}

/// Builds one index-tier entry from a trace file: a single
/// skip-records scan yielding the summary plus the object and kernel
/// views through the frame visitor.
fn index_entry(id: String, path: &Path) -> Result<TraceEntry, vex_trace::codec::DecodeError> {
    let file = std::fs::File::open(path)?;
    let mut views = ViewScan::default();
    let index = index_trace_with(std::io::BufReader::new(file), |entry, frame| {
        views.visit(entry, frame);
    })?;
    Ok(views.into_entry(id, index, path.to_path_buf()))
}

/// [`index_entry`] over in-memory bytes (the ingest path).
fn index_entry_bytes(
    id: String,
    bytes: &[u8],
    path: PathBuf,
) -> Result<TraceEntry, vex_trace::codec::DecodeError> {
    let mut views = ViewScan::default();
    let index = index_trace_with(bytes, |entry, frame| views.visit(entry, frame))?;
    Ok(views.into_entry(id, index, path))
}

/// Folds the object and kernel views out of the skip-records scan.
/// Batch frames arrive with empty record vectors in scan mode; their
/// counts come from the per-frame [`FrameEntry::records`]. Malloc
/// contexts are interned ids until the `Contexts` frame arrives near
/// the end of the stream, then resolved.
#[derive(Default)]
struct ViewScan {
    objects: Vec<ObjectRow>,
    object_contexts: Vec<vex_gpu::callpath::CallPathId>,
    object_index: BTreeMap<u64, usize>,
    kernels: BTreeMap<String, KernelRow>,
    contexts: BTreeMap<vex_gpu::callpath::CallPathId, String>,
}

impl ViewScan {
    fn visit(&mut self, entry: &FrameEntry, frame: &TraceFrame) {
        match frame {
            TraceFrame::Event(Event::Api { event, .. }) => match &event.kind {
                ApiKind::Malloc { info } => {
                    self.object_index.insert(info.id.0, self.objects.len());
                    self.object_contexts.push(info.context);
                    self.objects.push(ObjectRow {
                        id: info.id.0,
                        label: info.label.clone(),
                        addr: info.addr,
                        size_bytes: info.size,
                        context: String::new(),
                        freed: false,
                    });
                }
                ApiKind::Free { info } => {
                    if let Some(&i) = self.object_index.get(&info.id.0) {
                        self.objects[i].freed = true;
                    }
                }
                _ => {}
            },
            TraceFrame::Event(Event::LaunchBegin { info }) => {
                self.kernel(&info.kernel_name).instrumented_launches += 1;
            }
            TraceFrame::Event(Event::SkippedLaunch { info }) => {
                self.kernel(&info.kernel_name).skipped_launches += 1;
            }
            TraceFrame::Event(Event::Batch { info, .. }) => {
                self.kernel(&info.kernel_name).records += entry.records;
            }
            TraceFrame::Contexts(map) => self.contexts = map.clone(),
            _ => {}
        }
    }

    fn kernel(&mut self, name: &str) -> &mut KernelRow {
        self.kernels.entry(name.to_owned()).or_insert_with(|| KernelRow {
            name: name.to_owned(),
            instrumented_launches: 0,
            skipped_launches: 0,
            records: 0,
        })
    }

    fn into_entry(mut self, id: String, index: TraceIndex, path: PathBuf) -> TraceEntry {
        for (row, ctx) in self.objects.iter_mut().zip(&self.object_contexts) {
            row.context = self
                .contexts
                .get(ctx)
                .cloned()
                .unwrap_or_else(|| format!("<unrecorded context {}>", ctx.0));
        }
        TraceEntry {
            id,
            generation: next_generation(),
            summary: index.summary,
            objects: self.objects,
            kernels: self.kernels.into_values().collect(),
            path,
        }
    }
}

/// The analysis parameters of a replay: what the `vex replay`, `vex
/// diff`, `vex profile` and `vex record` analysis flags and the
/// server's report/flowgraph/diff queries parse into, and the one place
/// they become a [`ProfilerBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportParams {
    /// Run the coarse pass (default true).
    pub coarse: bool,
    /// Run the fine pass (default false).
    pub fine: bool,
    /// Run race detection.
    pub races: bool,
    /// Reuse-distance line size, if enabled.
    pub reuse: Option<u64>,
    /// Analysis shards (0 = synchronous engine).
    pub shards: usize,
}

impl Default for ReportParams {
    fn default() -> Self {
        ReportParams { coarse: true, fine: false, races: false, reuse: None, shards: 0 }
    }
}

impl ReportParams {
    /// Canonical cache-key rendering; equal params render equally.
    pub fn cache_key(&self) -> String {
        format!(
            "coarse={},fine={},races={},reuse={:?},shards={}",
            self.coarse, self.fine, self.races, self.reuse, self.shards
        )
    }

    /// Rejects parameters no replay can run: neither pass enabled, a
    /// reuse line size that is not a power of two, or too many shards.
    ///
    /// # Errors
    ///
    /// A description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !self.coarse && !self.fine {
            return Err("at least one of coarse/fine must stay enabled".into());
        }
        check_analysis_params(self.reuse, self.shards)
    }

    /// The profiler these parameters configure — exactly the one
    /// `vex replay` builds from the equivalent flags.
    pub fn builder(&self) -> ProfilerBuilder {
        let b = ValueExpert::builder()
            .coarse(self.coarse)
            .fine(self.fine)
            .race_detection(self.races)
            .analysis_shards(self.shards);
        match self.reuse {
            Some(line) => b.reuse_distance(line),
            None => b,
        }
    }
}

/// Replays an in-memory `trace` under `params` through
/// [`ReportParams::builder`]: the library reference the server's
/// streamed reports are checked against.
///
/// # Errors
///
/// [`ReplayError`] when the requested passes were not recorded.
pub fn materialize(
    trace: &RecordedTrace,
    params: &ReportParams,
) -> Result<Profile, ReplayError> {
    params.builder().replay(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_gpu::runtime::Runtime;
    use vex_gpu::timing::DeviceSpec;
    use vex_trace::container::read_trace;
    use vex_workloads::{all_apps, Variant};

    /// The [`TraceSummary`] of a decoded trace: the oracle the index
    /// scan's summary is checked against.
    fn summarize_decoded(trace: &RecordedTrace) -> TraceSummary {
        let mut s = TraceSummary {
            version: trace.version,
            flags: trace.flags,
            device: trace.spec.name.clone(),
            contexts: trace.contexts.len() as u64,
            batch_bytes: trace.batch_bytes,
            stats: trace.stats,
            app_us: trace.app_us,
            ..TraceSummary::default()
        };
        for event in &trace.events {
            match event {
                Event::Api { event, .. } => {
                    s.api_events += 1;
                    if matches!(event.kind, ApiKind::KernelLaunch { .. }) {
                        s.kernel_launches += 1;
                    }
                }
                Event::LaunchBegin { .. } => s.instrumented_launches += 1,
                Event::SkippedLaunch { .. } => s.skipped_launches += 1,
                Event::Batch { records, .. } => {
                    s.batches += 1;
                    s.records += records.len() as u64;
                }
                Event::LaunchEnd { .. } => {}
            }
        }
        s
    }

    fn object_rows(trace: &RecordedTrace) -> Vec<ObjectRow> {
        let mut rows: Vec<ObjectRow> = Vec::new();
        let mut index: BTreeMap<u64, usize> = BTreeMap::new();
        for event in &trace.events {
            if let Event::Api { event, .. } = event {
                match &event.kind {
                    ApiKind::Malloc { info } => {
                        index.insert(info.id.0, rows.len());
                        rows.push(ObjectRow {
                            id: info.id.0,
                            label: info.label.clone(),
                            addr: info.addr,
                            size_bytes: info.size,
                            context: trace.contexts.get(&info.context).cloned().unwrap_or_else(
                                || format!("<unrecorded context {}>", info.context.0),
                            ),
                            freed: false,
                        });
                    }
                    ApiKind::Free { info } => {
                        if let Some(&i) = index.get(&info.id.0) {
                            rows[i].freed = true;
                        }
                    }
                    _ => {}
                }
            }
        }
        rows
    }

    fn kernel_rows(trace: &RecordedTrace) -> Vec<KernelRow> {
        let mut by_name: BTreeMap<String, KernelRow> = BTreeMap::new();
        fn row<'a>(
            by_name: &'a mut BTreeMap<String, KernelRow>,
            name: &str,
        ) -> &'a mut KernelRow {
            by_name.entry(name.to_owned()).or_insert_with(|| KernelRow {
                name: name.to_owned(),
                instrumented_launches: 0,
                skipped_launches: 0,
                records: 0,
            })
        }
        for event in &trace.events {
            match event {
                Event::LaunchBegin { info } => {
                    row(&mut by_name, &info.kernel_name).instrumented_launches += 1
                }
                Event::SkippedLaunch { info } => {
                    row(&mut by_name, &info.kernel_name).skipped_launches += 1
                }
                Event::Batch { info, records } => {
                    row(&mut by_name, &info.kernel_name).records += records.len() as u64
                }
                _ => {}
            }
        }
        by_name.into_values().collect()
    }

    fn recorded_bytes(app_name: &str) -> Vec<u8> {
        let apps = all_apps();
        let app = apps
            .iter()
            .find(|a| a.name().eq_ignore_ascii_case(app_name))
            .expect("bundled workload");
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let rec = ValueExpert::builder()
            .coarse(true)
            .fine(true)
            .record(&mut rt, Vec::new())
            .expect("header");
        app.run(&mut rt, Variant::Baseline).expect("workload runs");
        rec.finish(&mut rt).expect("trailer")
    }

    fn recorded(app_name: &str) -> RecordedTrace {
        read_trace(&recorded_bytes(app_name)).expect("decodes")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vex-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn load_dir_indexes_by_stem_and_sorts() {
        let dir = temp_dir("basic");
        let bytes = recorded_bytes("QMCPACK");
        let trace = read_trace(&bytes).expect("decodes");
        std::fs::write(dir.join("beta.vex"), &bytes).unwrap();
        std::fs::write(dir.join("alpha.vex"), &bytes).unwrap();
        std::fs::write(dir.join("notatrace.txt"), b"ignored").unwrap();

        let store = ProfileStore::load_dir(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.ids(), vec!["alpha", "beta"]);
        let alpha = store.entry("alpha").unwrap();
        assert_eq!(alpha.summary.instrumented_launches, trace_launches(&trace));
        assert!(store.entry("gamma").is_none());
        // Startup is index-only: nothing streamed or kept yet.
        assert_eq!(store.stats().decodes_total.load(Ordering::Relaxed), 0);
        assert_eq!(store.resident_bytes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn trace_launches(trace: &RecordedTrace) -> u64 {
        trace.events.iter().filter(|e| matches!(e, Event::LaunchBegin { .. })).count() as u64
    }

    #[test]
    fn corrupt_trace_is_quarantined_by_default_and_fatal_under_strict() {
        let dir = temp_dir("bad");
        std::fs::write(dir.join("bad.vex"), b"not a trace").unwrap();
        std::fs::write(dir.join("good.vex"), recorded_bytes("QMCPACK")).unwrap();

        // Default (lenient): the good trace loads, the bad one is
        // quarantined with its file name and error.
        let store = ProfileStore::load_dir(&dir).unwrap();
        assert_eq!(store.ids(), vec!["good"]);
        assert_eq!(store.quarantined().len(), 1);
        assert_eq!(store.quarantined()[0].file, "bad.vex");
        assert!(!store.quarantined()[0].error.is_empty());
        // Garbage bytes have no parseable header: nothing to salvage.
        assert!(!store.quarantined()[0].salvageable);
        assert_eq!(store.quarantined()[0].frames_recovered, 0);
        assert_eq!(store.stats().quarantined.load(Ordering::Relaxed), 1);

        // Strict restores fail-fast, naming the file.
        let opts = StoreOptions { strict: true, ..StoreOptions::default() };
        let err = ProfileStore::load_dir_with(&dir, &opts).unwrap_err();
        assert!(err.0.contains("bad.vex"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_trace_quarantines_as_salvageable() {
        let dir = temp_dir("salv");
        let bytes = recorded_bytes("QMCPACK");
        // Cut inside the Finish trailer: every earlier frame is intact,
        // so the quarantine row must advertise a recoverable prefix.
        std::fs::write(dir.join("cut.vex"), &bytes[..bytes.len() - 7]).unwrap();
        let store = ProfileStore::load_dir(&dir).unwrap();
        let rows = store.quarantined();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].salvageable, "{rows:?}");
        assert!(rows[0].frames_recovered > 0, "{rows:?}");
        assert!(
            rows[0].recoverable_percent > 0.0 && rows[0].recoverable_percent < 100.0,
            "{rows:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn startup_sweeps_orphaned_ingest_temp_files() {
        let dir = temp_dir("sweep");
        std::fs::write(dir.join("good.vex"), recorded_bytes("QMCPACK")).unwrap();
        std::fs::write(dir.join(".good.3.vex.tmp"), b"partial").unwrap();
        std::fs::write(dir.join(".other.12.vex.tmp"), b"").unwrap();
        let store = ProfileStore::load_dir(&dir).unwrap();
        assert_eq!(store.ids(), vec!["good"]);
        assert_eq!(store.stats().orphans_swept.load(Ordering::Relaxed), 2);
        assert!(!dir.join(".good.3.vex.tmp").exists());
        assert!(!dir.join(".other.12.vex.tmp").exists());
        assert!(store.quarantined().is_empty(), "tmp litter is not quarantine material");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_ingest_never_corrupts_store_or_directory() {
        let _s = crate::fault::session();
        let dir = temp_dir("torn");
        let store = ProfileStore::load_dir(&dir).unwrap();
        let bytes = recorded_bytes("QMCPACK");

        // Torn tmp write: the production error path cleans up.
        crate::fault::arm_times("store.ingest.write", crate::fault::Action::Partial(10), 1);
        let err = store.ingest("t", &bytes).unwrap_err();
        assert!(matches!(err, MutationError::Io(_)), "{err:?}");
        assert!(store.entry("t").is_none());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "no litter on error path");

        // Kill at the commit point: the fully-written tmp is orphaned,
        // invisible to a reload, and swept by it.
        crate::fault::arm_times("store.ingest.rename", crate::fault::Action::Kill, 1);
        let err = store.ingest("t", &bytes).unwrap_err();
        assert!(matches!(err, MutationError::Io(_)), "{err:?}");
        assert!(store.entry("t").is_none());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "orphan tmp left behind");
        let reloaded = ProfileStore::load_dir(&dir).unwrap();
        assert!(reloaded.ids().is_empty());
        assert_eq!(reloaded.stats().orphans_swept.load(Ordering::Relaxed), 1);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);

        // Faults exhausted: the same ingest now lands byte-identically.
        store.ingest("t", &bytes).expect("clean ingest");
        assert_eq!(store.ids(), vec!["t"]);
        assert_eq!(std::fs::read(dir.join("t.vex")).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_repairs_a_quarantined_id() {
        let dir = temp_dir("repair");
        std::fs::write(dir.join("broken.vex"), b"not a trace").unwrap();
        let store = ProfileStore::load_dir(&dir).unwrap();
        assert_eq!(store.quarantined().len(), 1);
        assert!(store.entry("broken").is_none());

        // Pushing valid bytes under the quarantined id replaces the
        // corrupt file and clears the quarantine row — the id must never
        // be listed as both valid and quarantined.
        let bytes = recorded_bytes("QMCPACK");
        store.ingest("broken", &bytes).expect("repair push lands");
        assert_eq!(store.ids(), vec!["broken"]);
        assert!(store.quarantined().is_empty());
        assert_eq!(store.stats().quarantined.load(Ordering::Relaxed), 0);
        assert_eq!(std::fs::read(dir.join("broken.vex")).unwrap(), bytes);
        assert!(store.decoded("broken").is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn static_views_cover_objects_and_kernels() {
        let dir = temp_dir("static");
        std::fs::write(dir.join("q.vex"), recorded_bytes("QMCPACK")).unwrap();
        let store = ProfileStore::load_dir(&dir).unwrap();
        let t = store.entry("q").unwrap();
        assert!(!t.objects.is_empty(), "workload allocates");
        assert!(!t.kernels.is_empty(), "workload launches kernels");
        assert!(t.objects.iter().all(|o| !o.label.is_empty()));
        let rows = store.list_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id, "q");
        assert!(rows[0].fine);
        assert_eq!(
            t.summary.instrumented_launches,
            t.kernels.iter().map(|k| k.instrumented_launches).sum::<u64>()
        );
        assert_eq!(t.summary.records, t.kernels.iter().map(|k| k.records).sum::<u64>());
        assert!(store.decoded("q").is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_tier_matches_eager_views() {
        // The skip-scan index tier must produce exactly the views the
        // old eager loader computed from the decoded stream.
        let dir = temp_dir("views");
        let bytes = recorded_bytes("QMCPACK");
        std::fs::write(dir.join("q.vex"), &bytes).unwrap();
        let store = ProfileStore::load_dir(&dir).unwrap();
        let scanned = store.entry("q").unwrap();

        let trace = read_trace(&bytes).unwrap();
        let eager_objects = object_rows(&trace);
        let eager_kernels = kernel_rows(&trace);
        let eager_summary = summarize_decoded(&trace);

        assert_eq!(scanned.summary, eager_summary);
        assert_eq!(scanned.objects.len(), eager_objects.len());
        for (a, b) in scanned.objects.iter().zip(&eager_objects) {
            assert_eq!(
                (a.id, &a.label, a.addr, a.size_bytes, &a.context, a.freed),
                (b.id, &b.label, b.addr, b.size_bytes, &b.context, b.freed)
            );
        }
        assert_eq!(scanned.kernels.len(), eager_kernels.len());
        for (a, b) in scanned.kernels.iter().zip(&eager_kernels) {
            assert_eq!(
                (&a.name, a.instrumented_launches, a.skipped_launches, a.records),
                (&b.name, b.instrumented_launches, b.skipped_launches, b.records)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The default report of `id`, streamed by the store and kept in
    /// its body cache.
    fn report_body(store: &ProfileStore, id: &str) -> Vec<u8> {
        let generation = store.entry(id).unwrap().generation;
        let value = store.cache().get_or_compute(&format!("{id}@{generation}"), || {
            let profile = store.profile(id, generation, &ReportParams::default());
            let text = profile.map_err(|e| e.0)?.render_text_document();
            Ok(crate::http::Response::text(crate::http::Status::Ok, text))
        });
        value.as_ref().as_ref().unwrap().body.clone()
    }

    #[test]
    fn lazy_decode_then_evict_under_budget() {
        // Reports stream from disk on demand; the budget bounds the
        // rendered bodies the store keeps.
        let dir = temp_dir("evict");
        let bytes = recorded_bytes("QMCPACK");
        for id in ["a", "b", "c"] {
            std::fs::write(dir.join(format!("{id}.vex")), &bytes).unwrap();
        }
        let direct = materialize(&read_trace(&bytes).unwrap(), &ReportParams::default());
        let direct = direct.unwrap().render_text_document().into_bytes();
        let size = direct.len() as u64;
        // A budget of one body: only the latest stays.
        let opts = StoreOptions { memory_budget: Some(size), ..StoreOptions::default() };
        let store = ProfileStore::load_dir_with(&dir, &opts).unwrap().with_cache_entries(8);
        for id in ["a", "b", "c"] {
            assert_eq!(report_body(&store, id), direct, "{id} streams the direct report");
            assert_eq!(store.resident_bytes(), size, "{id}");
        }
        assert_eq!(store.cache().stats().budget_evictions.load(Ordering::Relaxed), 2);
        // Re-requesting a streams it again, byte for byte.
        assert_eq!(report_body(&store, "a"), direct);
        assert_eq!(store.stats().decodes_total.load(Ordering::Relaxed), 4);
        // A budget below one body serves it but keeps nothing.
        let opts = StoreOptions { memory_budget: Some(size - 1), ..StoreOptions::default() };
        let tiny = ProfileStore::load_dir_with(&dir, &opts).unwrap().with_cache_entries(8);
        assert_eq!(report_body(&tiny, "a"), direct);
        assert_eq!(tiny.resident_bytes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unbounded_store_keeps_everything_resident() {
        let dir = temp_dir("unbounded");
        let bytes = recorded_bytes("QMCPACK");
        std::fs::write(dir.join("a.vex"), &bytes).unwrap();
        std::fs::write(dir.join("b.vex"), &bytes).unwrap();
        let store = ProfileStore::load_dir(&dir).unwrap().with_cache_entries(8);
        let a = report_body(&store, "a");
        report_body(&store, "b");
        assert_eq!(store.resident_bytes(), 2 * a.len() as u64);
        assert_eq!(store.cache().stats().budget_evictions.load(Ordering::Relaxed), 0);
        // Cache hits stream nothing.
        report_body(&store, "a");
        assert_eq!(store.stats().decodes_total.load(Ordering::Relaxed), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_validates_persists_and_indexes() {
        let dir = temp_dir("ingest");
        let store = ProfileStore::load_dir(&dir).unwrap();
        assert!(store.is_empty());
        let bytes = recorded_bytes("QMCPACK");

        let row = store.ingest("pushed", &bytes).unwrap();
        assert_eq!(row.id, "pushed");
        assert!(dir.join("pushed.vex").is_file());
        assert_eq!(store.ids(), vec!["pushed"]);
        // Queryable without restart: the report streams from the file
        // just written.
        let generation = store.entry("pushed").unwrap().generation;
        assert!(store.profile("pushed", generation, &ReportParams::default()).is_ok());

        // Duplicate id is refused, store unchanged.
        assert!(matches!(store.ingest("pushed", &bytes), Err(MutationError::Duplicate(_))));
        // Garbage bytes are refused before touching disk.
        assert!(matches!(
            store.ingest("junk", b"not a trace"),
            Err(MutationError::InvalidTrace(_))
        ));
        assert!(!dir.join("junk.vex").exists());
        // Invalid ids are refused.
        for bad in ["", "a/b", "../x", "a b", &"x".repeat(65)] {
            assert!(matches!(store.ingest(bad, &bytes), Err(MutationError::BadId(_))), "{bad}");
        }
        assert_eq!(store.stats().ingested_total.load(Ordering::Relaxed), 1);
        assert!(store.stats().ingest_errors_total.load(Ordering::Relaxed) >= 6);

        // Delete removes the entry and the file; a re-ingest under the
        // same id is a new incarnation the old generation cannot reach.
        store.remove("pushed").unwrap();
        assert!(store.is_empty());
        assert!(!dir.join("pushed.vex").exists());
        assert!(matches!(store.remove("pushed"), Err(MutationError::NotFound(_))));
        store.ingest("pushed", &bytes).unwrap();
        assert!(store.profile("pushed", generation, &ReportParams::default()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn materialize_matches_direct_replay() {
        let trace = recorded("QMCPACK");
        let direct = ValueExpert::builder().coarse(true).replay(&trace).unwrap();
        let served = materialize(&trace, &ReportParams::default()).expect("params replayable");
        assert_eq!(direct.render_text_document(), served.render_text_document());
        assert_eq!(direct.render_dot_document(None), served.render_dot_document(None));
        // Fine pass on, sharded.
        let p = ReportParams { fine: true, shards: 2, ..ReportParams::default() };
        let sharded = materialize(&trace, &p).unwrap();
        let direct = ValueExpert::builder()
            .coarse(true)
            .fine(true)
            .analysis_shards(2)
            .replay(&trace)
            .unwrap();
        assert_eq!(direct.render_text_document(), sharded.render_text_document());
    }

    #[test]
    fn cache_keys_are_canonical() {
        let a = ReportParams::default();
        let b = ReportParams::default();
        assert_eq!(a.cache_key(), b.cache_key());
        let c = ReportParams { shards: 8, ..ReportParams::default() };
        assert_ne!(a.cache_key(), c.cache_key());
    }
}
