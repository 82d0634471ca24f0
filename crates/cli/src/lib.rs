//! # vex-cli — the ValueExpert command line
//!
//! The launcher a user of the real tool would invoke (`gvprof -e
//! value_pattern ./app` in the original artifact). Because our
//! applications are simulator workloads rather than arbitrary binaries,
//! the CLI selects them by name:
//!
//! ```text
//! vex list
//! vex profile darknet --fine --block-sampling 4 --json out.json --dot flow.dot
//! vex profile lammps --races --reuse 64
//! vex speedup backprop --device a100
//! vex gvprof huffman
//! vex record darknet --fine -o darknet.vex
//! vex replay darknet.vex --fine --json out.json
//! vex replay darknet.vex --gvprof
//! vex info darknet.vex
//! vex serve traces/ --addr 127.0.0.1:7070 --workers 8 --cache-entries 64
//! ```
//!
//! The argument parser and command logic live in this library so they are
//! unit-testable; `main.rs` is a thin shim.

#![deny(missing_docs)]

use std::fmt;
use vex_core::prelude::*;
use vex_gpu::runtime::Runtime;
use vex_gpu::timing::DeviceSpec;
use vex_gvprof::{GvProfReplayError, GvProfSession};
use vex_serve::ReportParams;
use vex_trace::codec::DecodeError;
use vex_trace::container::TraceReader;
use vex_workloads::{all_apps, GpuApp, Variant};

/// Which device preset to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Device {
    /// NVIDIA RTX 2080 Ti (default — the paper's first platform).
    #[default]
    Rtx2080Ti,
    /// NVIDIA A100.
    A100,
}

impl Device {
    /// The corresponding simulator spec.
    pub fn spec(self) -> DeviceSpec {
        match self {
            Device::Rtx2080Ti => DeviceSpec::rtx2080ti(),
            Device::A100 => DeviceSpec::a100(),
        }
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `vex list` — print available workloads.
    List,
    /// `vex profile <app> [options]`.
    Profile(ProfileArgs),
    /// `vex speedup <app> [--device d]`.
    Speedup {
        /// Workload name.
        app: String,
        /// Device preset.
        device: Device,
    },
    /// `vex gvprof <app>` — run the baseline profiler.
    GvProf {
        /// Workload name.
        app: String,
    },
    /// `vex record <app> [options] -o trace.vex`.
    Record(RecordArgs),
    /// `vex replay <trace.vex> [options]`.
    Replay(ReplayArgs),
    /// `vex diff <a.vex> <b.vex> [options]` — compare two traces.
    Diff(DiffArgs),
    /// `vex info <trace.vex>` — print the container header and counts.
    Info {
        /// Trace path.
        path: String,
        /// Emit the summary as JSON (`--format json`).
        json: bool,
    },
    /// `vex repair <trace.vex> [<out.vex>]` — salvage the longest valid
    /// prefix of a truncated/corrupt trace into a new valid container.
    Repair {
        /// Damaged trace path.
        input: String,
        /// Output path (default: `<stem>.repaired.vex` next to the
        /// input).
        output: Option<String>,
    },
    /// `vex serve <dir> [options]` — serve recorded traces over HTTP.
    Serve(ServeArgs),
    /// `vex push <trace.vex> [--url URL] [--id ID] [--spool-dir DIR]` —
    /// stream a recorded trace to a running `vex serve --ingest`.
    Push {
        /// Trace path to push.
        path: String,
        /// Server base URL.
        url: String,
        /// Trace id on the server (default: the file stem).
        id: Option<String>,
        /// Spool the trace here instead of failing when the server
        /// stays unreachable after retries.
        spool_dir: Option<String>,
    },
    /// `vex push --drain <dir> [--url URL]` — re-push every spooled
    /// trace, removing each from the spool once it lands.
    Drain {
        /// Spool directory to drain.
        dir: String,
        /// Server base URL.
        url: String,
    },
    /// `vex help`.
    Help,
}

/// Options of `vex serve`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Directory of `.vex` traces to load.
    pub dir: String,
    /// Listen address.
    pub addr: String,
    /// Worker threads.
    pub workers: usize,
    /// Report-cache capacity, entries.
    pub cache_entries: usize,
    /// Upper bound on the bytes of rendered bodies the report cache
    /// keeps (`None` = unbounded); least-recently-used bodies are
    /// evicted to stay under it.
    pub memory_budget: Option<u64>,
    /// Enable the mutation endpoints (`POST /ingest/{id}`,
    /// `DELETE /traces/{id}`).
    pub ingest: bool,
    /// Per-request cap on an ingest body, bytes.
    pub max_ingest_bytes: u64,
    /// Fail startup on the first corrupt trace instead of quarantining
    /// it.
    pub strict: bool,
}

impl ServeArgs {
    fn new(dir: String) -> Self {
        ServeArgs {
            dir,
            addr: "127.0.0.1:7070".into(),
            workers: 4,
            cache_entries: 64,
            memory_budget: None,
            ingest: false,
            max_ingest_bytes: 64 * 1024 * 1024,
            strict: false,
        }
    }
}

/// Options of `vex record`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordArgs {
    /// Workload name.
    pub app: String,
    /// Device preset.
    pub device: Device,
    /// Which passes to record (`coarse`, default on, and `fine`,
    /// default off; the other fields stay at their defaults).
    pub analysis: ReportParams,
    /// Workload variant to run (default baseline).
    pub variant: Variant,
    /// Kernel sampling period applied while recording.
    pub kernel_sampling: u64,
    /// Block sampling period applied while recording.
    pub block_sampling: u32,
    /// Kernel-name substring filters applied while recording.
    pub filters: Vec<String>,
    /// Output trace path.
    pub output: String,
    /// Stream the finished trace to this `vex serve --ingest` URL
    /// instead of writing it to disk; the trace id is the output file
    /// stem.
    pub push: Option<String>,
    /// With `--push`: spool the trace to this directory instead of
    /// failing when the server stays unreachable after retries
    /// (`vex push --drain` re-pushes it later).
    pub spool_dir: Option<String>,
}

impl RecordArgs {
    fn new(app: String) -> Self {
        RecordArgs {
            app,
            device: Device::default(),
            analysis: ReportParams::default(),
            variant: Variant::Baseline,
            kernel_sampling: 1,
            block_sampling: 1,
            filters: Vec::new(),
            output: "trace.vex".into(),
            push: None,
            spool_dir: None,
        }
    }
}

/// The analysis flags of `vex replay` and `vex diff`.
const REPLAY_FLAGS: &[&str] = &["--no-coarse", "--fine", "--races", "--reuse", "--shards"];
/// The analysis flags of `vex profile` (fine is on by default).
const PROFILE_FLAGS: &[&str] = &["--no-coarse", "--no-fine", "--races", "--reuse"];
/// The pass flags of `vex record`.
const RECORD_FLAGS: &[&str] = &["--no-coarse", "--fine"];

/// Consumes `flag` (and its value from `it`) into `p` if it is one of
/// the analysis flags the subcommand `accepts`; `Ok(false)` leaves it to
/// the subcommand.
fn parse_analysis_flag<'a>(
    p: &mut ReportParams,
    accepts: &[&str],
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<bool, UsageError> {
    if !accepts.contains(&flag) {
        return Ok(false);
    }
    match flag {
        "--no-coarse" => p.coarse = false,
        "--fine" => p.fine = true,
        "--no-fine" => p.fine = false,
        "--races" => p.races = true,
        "--reuse" => {
            p.reuse = Some(
                take_value(flag, it)?
                    .parse()
                    .map_err(|_| UsageError("invalid reuse line size".into()))?,
            )
        }
        "--shards" => {
            p.shards = take_value(flag, it)?
                .parse()
                .map_err(|_| UsageError("invalid shard count".into()))?
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Options of `vex replay`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayArgs {
    /// Trace path.
    pub path: String,
    /// Which analyses to replay, and how.
    pub analysis: ReportParams,
    /// Replay through the GVProf baseline instead of ValueExpert.
    pub gvprof: bool,
    /// GVProf kernel sampling period (only with `--gvprof`).
    pub kernel_sampling: u64,
    /// GVProf block sampling period (only with `--gvprof`).
    pub block_sampling: u32,
    /// Write the JSON profile here.
    pub json: Option<String>,
    /// Write the value-flow DOT here.
    pub dot: Option<String>,
    /// Write a Markdown report here.
    pub md: Option<String>,
}

impl ReplayArgs {
    fn new(path: String) -> Self {
        ReplayArgs {
            path,
            analysis: ReportParams::default(),
            gvprof: false,
            kernel_sampling: 1,
            block_sampling: 1,
            json: None,
            dot: None,
            md: None,
        }
    }
}

/// Output format of `vex diff`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiffFormat {
    /// Human-readable text report (default).
    #[default]
    Text,
    /// Machine-readable JSON document.
    Json,
}

/// Options of `vex diff`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffArgs {
    /// "Before" trace path.
    pub path_a: String,
    /// "After" trace path.
    pub path_b: String,
    /// Relative-change significance threshold in `[0, 1]`.
    pub threshold: f64,
    /// Output format.
    pub format: DiffFormat,
    /// CI gate mode: append a PASS/FAIL line and exit 1 on regressions,
    /// 2 on errors.
    pub ci: bool,
    /// Per-category threshold overrides (`--ci-threshold CAT=FRACTION`).
    pub category_thresholds: Vec<(DeltaCategory, f64)>,
    /// The analyses replayed on both traces.
    pub analysis: ReportParams,
}

impl DiffArgs {
    fn new(path_a: String, path_b: String) -> Self {
        DiffArgs {
            path_a,
            path_b,
            threshold: 0.10,
            format: DiffFormat::Text,
            ci: false,
            category_thresholds: Vec::new(),
            analysis: ReportParams::default(),
        }
    }
}

/// Options of `vex profile`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileArgs {
    /// Workload name.
    pub app: String,
    /// Device preset.
    pub device: Device,
    /// Which analyses to run (fine on by default; no shards).
    pub analysis: ReportParams,
    /// Kernel sampling period.
    pub kernel_sampling: u64,
    /// Block sampling period.
    pub block_sampling: u32,
    /// Kernel-name substring filters.
    pub filters: Vec<String>,
    /// Write the JSON profile here.
    pub json: Option<String>,
    /// Write the value-flow DOT here.
    pub dot: Option<String>,
    /// Write a Markdown report here.
    pub md: Option<String>,
}

impl ProfileArgs {
    fn new(app: String) -> Self {
        ProfileArgs {
            app,
            device: Device::default(),
            analysis: ReportParams { fine: true, ..ReportParams::default() },
            kernel_sampling: 1,
            block_sampling: 1,
            filters: Vec::new(),
            json: None,
            dot: None,
            md: None,
        }
    }
}

/// A CLI error: a command line [`parse_args`] rejects, or a command
/// [`run`] could not carry out. It displays as its message alone; the
/// `vex` binary follows a parse error with [`USAGE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// The usage text.
pub const USAGE: &str = "\
usage:
  vex list
  vex profile <app> [--device 2080ti|a100] [--no-coarse] [--no-fine]
               [--kernel-sampling N] [--block-sampling N] [--filter SUBSTR]...
               [--races] [--reuse LINE_BYTES] [--json PATH] [--dot PATH] [--md PATH]
  vex speedup <app> [--device 2080ti|a100]
  vex gvprof <app>
  vex record <app> [-o|--output PATH] [--device 2080ti|a100] [--no-coarse] [--fine]
               [--variant baseline|optimized]
               [--kernel-sampling N] [--block-sampling N] [--filter SUBSTR]...
               [--push URL] [--spool-dir DIR]
               record the canonical event stream to a .vex trace (default trace.vex);
               sampling and filters are baked into the trace; --variant
               optimized runs the workload with the paper's fix applied
               (the natural after-side input for `vex diff`); --push streams
               the finished trace to a running `vex serve --ingest` (id = the
               output file stem) instead of writing it to disk, retrying with
               backoff on transient failures; with --spool-dir the trace is
               spooled there instead of lost when the server stays down
               (`vex push --drain DIR` re-pushes it later)
  vex replay <trace.vex> [--no-coarse] [--fine] [--races] [--reuse LINE_BYTES]
               [--shards N] [--json PATH] [--dot PATH] [--md PATH]
               re-run analyses offline from a recorded trace, streaming it
               one record batch at a time; reports are byte-identical to a
               live session with the same options
  vex replay <trace.vex> --gvprof [--kernel-sampling N] [--block-sampling N]
               replay a --fine trace through the GVProf baseline, streaming
               it one record batch at a time
  vex diff <a.vex> <b.vex> [--threshold FRACTION] [--format text|json] [--ci]
               [--ci-threshold CATEGORY=FRACTION]... [--no-coarse] [--fine]
               [--races] [--reuse LINE_BYTES] [--shards N]
               replay both traces with identical options and report what
               changed: per-object pattern appearances/disappearances,
               redundancy / dead-store / duplicate byte swings, access-count
               swings, copy-strategy recommendation changes, and new/removed
               objects and kernels, ranked by estimated byte cost; changes
               below --threshold (default 0.10 relative) are noise and
               dropped; --ci appends a PASS/FAIL line and exits 1 when any
               regression survives the thresholds (0 clean, 2 error) —
               --ci-threshold overrides the gate per category (categories:
               pattern redundancy dead-store duplicate access copy-strategy
               invocations traffic object-set kernel-set)
  vex info <trace.vex> [--format text|json]
               print the container header (format version, device preset)
               and per-event-type counts without materializing the trace;
               a damaged trace reports its salvageable prefix instead;
               --format json emits the same summary machine-readably
  vex repair <trace.vex> [<out.vex>]
               recover the longest valid frame prefix of a truncated or
               corrupt trace (e.g. from a recording killed mid-run) into a
               new valid container (default out: <stem>.repaired.vex) and
               print a loss report
  vex serve <dir> [--addr HOST:PORT] [--workers N] [--cache-entries K]
               [--memory-budget BYTES[k|m|g]] [--ingest]
               [--max-ingest-bytes BYTES[k|m|g]] [--strict]
               index every .vex trace in <dir> (cheap skip-scan, no full
               decode) and serve profile queries over HTTP: /traces,
               /traces/{id}/report, /traces/{id}/flowgraph,
               /traces/{a}/diff/{b}, /traces/{id}/objects,
               /traces/{id}/kernels, /healthz, /metrics; each report streams
               its trace from disk as `vex replay` does, and up to K
               rendered bodies (default 64) are cached within
               --memory-budget bytes (LRU eviction); --ingest enables
               POST /ingest/{id} and DELETE /traces/{id} (bodies capped by
               --max-ingest-bytes, default 64m); corrupt traces are
               quarantined unless --strict
  vex push <trace.vex> [--url http://HOST:PORT] [--id ID] [--spool-dir DIR]
               stream a recorded trace to a running `vex serve --ingest`
               (default url http://127.0.0.1:7070, default id = file stem),
               retrying transient failures with backoff; --spool-dir keeps
               the trace locally instead of failing when the server stays
               unreachable
  vex push --drain DIR [--url http://HOST:PORT]
               re-push every trace spooled in DIR, removing each from the
               spool once it lands; traces that still fail stay spooled
  vex help";

fn parse_device(v: &str) -> Result<Device, UsageError> {
    match v.to_ascii_lowercase().as_str() {
        "2080ti" | "rtx2080ti" | "rtx-2080-ti" => Ok(Device::Rtx2080Ti),
        "a100" => Ok(Device::A100),
        other => Err(UsageError(format!("unknown device '{other}'"))),
    }
}

fn parse_variant(v: &str) -> Result<Variant, UsageError> {
    match v.to_ascii_lowercase().as_str() {
        "baseline" | "base" => Ok(Variant::Baseline),
        "optimized" | "opt" => Ok(Variant::Optimized),
        other => Err(UsageError(format!(
            "unknown variant '{other}' (expected baseline or optimized)"
        ))),
    }
}

fn parse_diff_format(v: &str) -> Result<DiffFormat, UsageError> {
    match v {
        "text" => Ok(DiffFormat::Text),
        "json" => Ok(DiffFormat::Json),
        other => {
            Err(UsageError(format!("unknown diff format '{other}' (expected text or json)")))
        }
    }
}

fn take_value<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    it: &mut I,
) -> Result<&'a str, UsageError> {
    it.next().ok_or_else(|| UsageError(format!("{flag} requires a value")))
}

/// The value of a `--kernel-sampling` / `--block-sampling` flag: a
/// period of at least 1 (every N-th launch or block is instrumented).
fn sampling_period<'a, T: std::str::FromStr + From<u8> + PartialEq>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<T, UsageError> {
    let what = if flag == "--kernel-sampling" { "kernel" } else { "block" };
    let n: T = take_value(flag, it)?
        .parse()
        .map_err(|_| UsageError(format!("invalid {what} sampling period")))?;
    if n == T::from(0) {
        return Err(UsageError(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

/// Parses a byte size with an optional `k`/`m`/`g` suffix (powers of
/// 1024), e.g. `64m`, `2g`, `1048576`.
fn parse_byte_size(v: &str) -> Result<u64, UsageError> {
    let lower = v.to_ascii_lowercase();
    let (digits, unit) = if let Some(n) = lower.strip_suffix('g') {
        (n, 1u64 << 30)
    } else if let Some(n) = lower.strip_suffix('m') {
        (n, 1 << 20)
    } else if let Some(n) = lower.strip_suffix('k') {
        (n, 1 << 10)
    } else {
        (lower.as_str(), 1)
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| UsageError(format!("invalid byte size '{v}' (expected N[k|m|g])")))?;
    n.checked_mul(unit).ok_or_else(|| UsageError(format!("byte size '{v}' overflows")))
}

/// Derives a trace id from an output path: its file stem.
fn trace_id_from_path(path: &str) -> Result<String, UsageError> {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .ok_or_else(|| UsageError(format!("cannot derive a trace id from '{path}'")))
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns [`UsageError`] for unknown commands, flags, or values.
pub fn parse_args<'a>(args: impl IntoIterator<Item = &'a str>) -> Result<Command, UsageError> {
    let mut it = args.into_iter();
    let cmd = match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some(c) => c,
    };
    match cmd {
        "list" => Ok(Command::List),
        "profile" => {
            let app =
                it.next().ok_or_else(|| UsageError("profile requires an app name".into()))?;
            let mut p = ProfileArgs::new(app.to_owned());
            while let Some(flag) = it.next() {
                if parse_analysis_flag(&mut p.analysis, PROFILE_FLAGS, flag, &mut it)? {
                    continue;
                }
                match flag {
                    "--device" => p.device = parse_device(take_value(flag, &mut it)?)?,
                    "--kernel-sampling" => p.kernel_sampling = sampling_period(flag, &mut it)?,
                    "--block-sampling" => p.block_sampling = sampling_period(flag, &mut it)?,
                    "--filter" => p.filters.push(take_value(flag, &mut it)?.to_owned()),
                    "--json" => p.json = Some(take_value(flag, &mut it)?.to_owned()),
                    "--dot" => p.dot = Some(take_value(flag, &mut it)?.to_owned()),
                    "--md" => p.md = Some(take_value(flag, &mut it)?.to_owned()),
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            p.analysis.validate().map_err(UsageError)?;
            Ok(Command::Profile(p))
        }
        "speedup" => {
            let app = it
                .next()
                .ok_or_else(|| UsageError("speedup requires an app name".into()))?
                .to_owned();
            let mut device = Device::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--device" => device = parse_device(take_value(flag, &mut it)?)?,
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Speedup { app, device })
        }
        "gvprof" => {
            let app = it
                .next()
                .ok_or_else(|| UsageError("gvprof requires an app name".into()))?
                .to_owned();
            if app == "--help" || app == "-h" {
                return Ok(Command::Help);
            }
            if let Some(flag) = it.next() {
                return match flag {
                    "--help" | "-h" => Ok(Command::Help),
                    other => Err(UsageError(format!("unknown flag '{other}'"))),
                };
            }
            Ok(Command::GvProf { app })
        }
        "record" => {
            let app =
                it.next().ok_or_else(|| UsageError("record requires an app name".into()))?;
            if app == "--help" || app == "-h" {
                return Ok(Command::Help);
            }
            let mut r = RecordArgs::new(app.to_owned());
            while let Some(flag) = it.next() {
                if parse_analysis_flag(&mut r.analysis, RECORD_FLAGS, flag, &mut it)? {
                    continue;
                }
                match flag {
                    "--help" | "-h" => return Ok(Command::Help),
                    "-o" | "--output" => r.output = take_value(flag, &mut it)?.to_owned(),
                    "--device" => r.device = parse_device(take_value(flag, &mut it)?)?,
                    "--variant" => r.variant = parse_variant(take_value(flag, &mut it)?)?,
                    "--kernel-sampling" => r.kernel_sampling = sampling_period(flag, &mut it)?,
                    "--block-sampling" => r.block_sampling = sampling_period(flag, &mut it)?,
                    "--filter" => r.filters.push(take_value(flag, &mut it)?.to_owned()),
                    "--push" => r.push = Some(take_value(flag, &mut it)?.to_owned()),
                    "--spool-dir" => r.spool_dir = Some(take_value(flag, &mut it)?.to_owned()),
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            r.analysis.validate().map_err(UsageError)?;
            if r.spool_dir.is_some() && r.push.is_none() {
                return Err(UsageError("--spool-dir only applies with --push".into()));
            }
            Ok(Command::Record(r))
        }
        "replay" => {
            let path =
                it.next().ok_or_else(|| UsageError("replay requires a trace path".into()))?;
            if path == "--help" || path == "-h" {
                return Ok(Command::Help);
            }
            let mut r = ReplayArgs::new(path.to_owned());
            while let Some(flag) = it.next() {
                if parse_analysis_flag(&mut r.analysis, REPLAY_FLAGS, flag, &mut it)? {
                    continue;
                }
                match flag {
                    "--help" | "-h" => return Ok(Command::Help),
                    "--gvprof" => r.gvprof = true,
                    "--kernel-sampling" => r.kernel_sampling = sampling_period(flag, &mut it)?,
                    "--block-sampling" => r.block_sampling = sampling_period(flag, &mut it)?,
                    "--json" => r.json = Some(take_value(flag, &mut it)?.to_owned()),
                    "--dot" => r.dot = Some(take_value(flag, &mut it)?.to_owned()),
                    "--md" => r.md = Some(take_value(flag, &mut it)?.to_owned()),
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            let a = &r.analysis;
            if r.gvprof && (a.fine || a.races || a.reuse.is_some() || !a.coarse || a.shards > 0)
            {
                return Err(UsageError(
                    "--gvprof replays the baseline profiler and cannot be combined with \
                     ValueExpert analysis flags"
                        .into(),
                ));
            }
            if !r.gvprof && (r.kernel_sampling != 1 || r.block_sampling != 1) {
                return Err(UsageError(
                    "sampling periods are baked into the trace at record time; \
                     --kernel-sampling/--block-sampling only apply to --gvprof replays"
                        .into(),
                ));
            }
            if !r.gvprof {
                a.validate().map_err(UsageError)?;
            }
            Ok(Command::Replay(r))
        }
        "diff" => {
            let path_a =
                it.next().ok_or_else(|| UsageError("diff requires two trace paths".into()))?;
            if path_a == "--help" || path_a == "-h" {
                return Ok(Command::Help);
            }
            let path_b =
                it.next().ok_or_else(|| UsageError("diff requires two trace paths".into()))?;
            if path_b == "--help" || path_b == "-h" {
                return Ok(Command::Help);
            }
            let mut d = DiffArgs::new(path_a.to_owned(), path_b.to_owned());
            while let Some(flag) = it.next() {
                if parse_analysis_flag(&mut d.analysis, REPLAY_FLAGS, flag, &mut it)? {
                    continue;
                }
                match flag {
                    "--help" | "-h" => return Ok(Command::Help),
                    "--threshold" => {
                        d.threshold = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| UsageError("invalid threshold".into()))?;
                        if !(0.0..=1.0).contains(&d.threshold) {
                            return Err(UsageError("--threshold must be within [0, 1]".into()));
                        }
                    }
                    "--format" => d.format = parse_diff_format(take_value(flag, &mut it)?)?,
                    "--ci" => d.ci = true,
                    "--ci-threshold" => {
                        let spec = take_value(flag, &mut it)?;
                        let (cat, frac) = spec.split_once('=').ok_or_else(|| {
                            UsageError(format!(
                                "--ci-threshold takes CATEGORY=FRACTION, got '{spec}'"
                            ))
                        })?;
                        let cat = DeltaCategory::parse(cat).ok_or_else(|| {
                            UsageError(format!("unknown diff category '{cat}'"))
                        })?;
                        let frac: f64 = frac
                            .parse()
                            .map_err(|_| UsageError("invalid threshold fraction".into()))?;
                        if !(0.0..=1.0).contains(&frac) {
                            return Err(UsageError(
                                "--ci-threshold fraction must be within [0, 1]".into(),
                            ));
                        }
                        d.category_thresholds.push((cat, frac));
                    }
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            d.analysis.validate().map_err(UsageError)?;
            if !d.category_thresholds.is_empty() && !d.ci {
                return Err(UsageError("--ci-threshold only applies with --ci".into()));
            }
            Ok(Command::Diff(d))
        }
        "info" => {
            let path =
                it.next().ok_or_else(|| UsageError("info requires a trace path".into()))?;
            if path == "--help" || path == "-h" {
                return Ok(Command::Help);
            }
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag {
                    "--help" | "-h" => return Ok(Command::Help),
                    "--format" => {
                        json = match take_value(flag, &mut it)? {
                            "text" => false,
                            "json" => true,
                            other => {
                                return Err(UsageError(format!(
                                    "unknown info format '{other}' (expected text or json)"
                                )))
                            }
                        }
                    }
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                };
            }
            Ok(Command::Info { path: path.to_owned(), json })
        }
        "repair" => {
            let input =
                it.next().ok_or_else(|| UsageError("repair requires a trace path".into()))?;
            if input == "--help" || input == "-h" {
                return Ok(Command::Help);
            }
            let mut output = None;
            for arg in it {
                match arg {
                    "--help" | "-h" => return Ok(Command::Help),
                    other if other.starts_with('-') => {
                        return Err(UsageError(format!("unknown flag '{other}'")))
                    }
                    other => {
                        if output.is_some() {
                            return Err(UsageError(
                                "repair takes at most an input and an output path".into(),
                            ));
                        }
                        output = Some(other.to_owned());
                    }
                }
            }
            Ok(Command::Repair { input: input.to_owned(), output })
        }
        "serve" => {
            let dir = it
                .next()
                .ok_or_else(|| UsageError("serve requires a trace directory".into()))?;
            if dir == "--help" || dir == "-h" {
                return Ok(Command::Help);
            }
            let mut s = ServeArgs::new(dir.to_owned());
            while let Some(flag) = it.next() {
                match flag {
                    "--help" | "-h" => return Ok(Command::Help),
                    "--addr" => s.addr = take_value(flag, &mut it)?.to_owned(),
                    "--workers" => {
                        s.workers = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| UsageError("invalid worker count".into()))?;
                        if s.workers == 0 {
                            return Err(UsageError("--workers must be at least 1".into()));
                        }
                    }
                    "--cache-entries" => {
                        s.cache_entries = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| UsageError("invalid cache capacity".into()))?
                    }
                    "--memory-budget" => {
                        s.memory_budget = Some(parse_byte_size(take_value(flag, &mut it)?)?)
                    }
                    "--ingest" => s.ingest = true,
                    "--max-ingest-bytes" => {
                        s.max_ingest_bytes = parse_byte_size(take_value(flag, &mut it)?)?;
                        if s.max_ingest_bytes == 0 {
                            return Err(UsageError(
                                "--max-ingest-bytes must be at least 1".into(),
                            ));
                        }
                    }
                    "--strict" => s.strict = true,
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Serve(s))
        }
        "push" => {
            let first = it
                .next()
                .ok_or_else(|| UsageError("push requires a trace path or --drain".into()))?;
            if first == "--help" || first == "-h" {
                return Ok(Command::Help);
            }
            let mut url = "http://127.0.0.1:7070".to_owned();
            if first == "--drain" {
                let dir = take_value("--drain", &mut it)?.to_owned();
                while let Some(flag) = it.next() {
                    match flag {
                        "--help" | "-h" => return Ok(Command::Help),
                        "--url" => url = take_value(flag, &mut it)?.to_owned(),
                        other => return Err(UsageError(format!("unknown flag '{other}'"))),
                    }
                }
                return Ok(Command::Drain { dir, url });
            }
            let path = first;
            let mut id = None;
            let mut spool_dir = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--help" | "-h" => return Ok(Command::Help),
                    "--url" => url = take_value(flag, &mut it)?.to_owned(),
                    "--id" => id = Some(take_value(flag, &mut it)?.to_owned()),
                    "--spool-dir" => spool_dir = Some(take_value(flag, &mut it)?.to_owned()),
                    other => return Err(UsageError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Push { path: path.to_owned(), url, id, spool_dir })
        }
        other => Err(UsageError(format!("unknown command '{other}'"))),
    }
}

/// Finds a workload by (case-insensitive) name.
///
/// # Errors
///
/// Returns [`UsageError`] listing the valid names when not found.
pub fn find_app(name: &str) -> Result<Box<dyn GpuApp>, UsageError> {
    let needle = name.to_ascii_lowercase();
    for app in all_apps() {
        if app.name().to_ascii_lowercase() == needle {
            return Ok(app);
        }
    }
    let names: Vec<&'static str> = all_apps().iter().map(|a| a.name()).collect();
    Err(UsageError(format!("unknown app '{name}'; available: {}", names.join(", "))))
}

/// Executes a parsed command, writing human output to `out`, and
/// returns the process exit code: `0` on success, and for
/// `vex diff --ci` `1` when the regression gate trips and `2` when the
/// comparison itself failed (missing trace, decode error).
///
/// # Errors
///
/// Returns [`UsageError`] for unknown app names; I/O failures writing
/// requested artefacts are reported as usage errors too (the path was the
/// user's input).
pub fn run(cmd: &Command, out: &mut dyn std::io::Write) -> Result<i32, UsageError> {
    match cmd {
        Command::Diff(d) => run_diff(d, out),
        other => run_unit(other, out).map(|()| 0),
    }
}

/// The commands whose only outcomes are "worked" (exit 0) or a
/// [`UsageError`]; `vex diff` carries real exit codes and lives in
/// [`run_diff`].
fn run_unit(cmd: &Command, out: &mut dyn std::io::Write) -> Result<(), UsageError> {
    let io_err = |e: std::io::Error| UsageError(format!("i/o error: {e}"));
    match cmd {
        Command::Diff(_) => unreachable!("diff is dispatched by run()"),
        Command::Help => writeln!(out, "{USAGE}").map_err(io_err),
        Command::List => {
            for app in all_apps() {
                writeln!(
                    out,
                    "{:<18} hot kernel: {}",
                    app.name(),
                    if app.memory_only() {
                        "(memory-bound rows only)"
                    } else {
                        app.hot_kernel()
                    }
                )
                .map_err(io_err)?;
            }
            Ok(())
        }
        Command::Profile(p) => {
            let app = find_app(&p.app)?;
            let mut rt = Runtime::new(p.device.spec());
            let mut b = p
                .analysis
                .builder()
                .kernel_sampling(p.kernel_sampling)
                .block_sampling(p.block_sampling);
            if !p.filters.is_empty() {
                b = b.filter_kernels(p.filters.clone());
            }
            let vex = b.attach(&mut rt);
            app.run(&mut rt, Variant::Baseline)
                .map_err(|e| UsageError(format!("workload failed: {e}")))?;
            let profile = vex.report(&rt);
            write!(out, "{}", profile.render_text_document()).map_err(io_err)?;
            if let Some(path) = &p.json {
                let json = profile
                    .to_json()
                    .map_err(|e| UsageError(format!("serialize failed: {e}")))?;
                std::fs::write(path, json).map_err(io_err)?;
                writeln!(out, "wrote {path}").map_err(io_err)?;
            }
            if let Some(path) = &p.dot {
                std::fs::write(path, profile.render_dot_document(None)).map_err(io_err)?;
                writeln!(out, "wrote {path}").map_err(io_err)?;
            }
            if let Some(path) = &p.md {
                std::fs::write(path, profile.render_markdown()).map_err(io_err)?;
                writeln!(out, "wrote {path}").map_err(io_err)?;
            }
            Ok(())
        }
        Command::Speedup { app, device } => {
            let app = find_app(app)?;
            let measure = |variant| {
                let mut rt = Runtime::new(device.spec());
                app.run(&mut rt, variant).expect("workload runs");
                rt.time_report().clone()
            };
            let base = measure(Variant::Baseline);
            let opt = measure(Variant::Optimized);
            if !app.memory_only() {
                let k = app.hot_kernel();
                writeln!(
                    out,
                    "kernel {k}: {:.1} us -> {:.1} us ({:.2}x)",
                    base.kernel_us(k),
                    opt.kernel_us(k),
                    base.kernel_us(k) / opt.kernel_us(k).max(f64::MIN_POSITIVE)
                )
                .map_err(io_err)?;
            }
            writeln!(
                out,
                "memory time: {:.1} us -> {:.1} us ({:.2}x)",
                base.memory_time_us,
                opt.memory_time_us,
                base.memory_time_us / opt.memory_time_us
            )
            .map_err(io_err)
        }
        Command::GvProf { app } => {
            let app = find_app(app)?;
            let mut rt = Runtime::new(DeviceSpec::rtx2080ti());
            let gv = GvProfSession::attach(&mut rt);
            app.run(&mut rt, Variant::Baseline)
                .map_err(|e| UsageError(format!("workload failed: {e}")))?;
            write_gvprof_results(out, &gv.results())
        }
        Command::Record(r) => {
            let app = find_app(&r.app)?;
            let mut rt = Runtime::new(r.device.spec());
            let mut b = r
                .analysis
                .builder()
                .kernel_sampling(r.kernel_sampling)
                .block_sampling(r.block_sampling);
            if !r.filters.is_empty() {
                b = b.filter_kernels(r.filters.clone());
            }
            if let Some(url) = &r.push {
                // Push mode: record into memory and stream the finished
                // trace to the server — no local file is written.
                let rec = b.record(&mut rt, Vec::new()).map_err(io_err)?;
                app.run(&mut rt, r.variant)
                    .map_err(|e| UsageError(format!("workload failed: {e}")))?;
                let stats = rec.stats();
                let bytes = rec
                    .finish(&mut rt)
                    .map_err(|e| UsageError(format!("trace write failed: {e}")))?;
                let id = trace_id_from_path(&r.output)?;
                if let Some(spool_dir) = &r.spool_dir {
                    let outcome = vex_serve::push_or_spool(
                        url,
                        &id,
                        &bytes,
                        std::path::Path::new(spool_dir),
                        &vex_serve::PushOptions::default(),
                    )
                    .map_err(|e| UsageError(e.to_string()))?;
                    return match outcome {
                        vex_serve::PushOutcome::Pushed(_) => writeln!(
                            out,
                            "pushed {id} to {url} ({} bytes, {} fine records, {} \
                             instrumented launches)",
                            bytes.len(),
                            stats.events,
                            stats.instrumented_launches
                        )
                        .map_err(io_err),
                        vex_serve::PushOutcome::Spooled(path, e) => writeln!(
                            out,
                            "server unreachable ({e}); spooled {id} to {} — run \
                             `vex push --drain {spool_dir}` once the server is back",
                            path.display()
                        )
                        .map_err(io_err),
                    };
                }
                vex_serve::push_trace(url, &id, &bytes)
                    .map_err(|e| UsageError(e.to_string()))?;
                return writeln!(
                    out,
                    "pushed {id} to {url} ({} bytes, {} fine records, {} instrumented launches)",
                    bytes.len(),
                    stats.events,
                    stats.instrumented_launches
                )
                .map_err(io_err);
            }
            let file = std::fs::File::create(&r.output).map_err(io_err)?;
            let rec = b.record(&mut rt, std::io::BufWriter::new(file)).map_err(io_err)?;
            app.run(&mut rt, r.variant)
                .map_err(|e| UsageError(format!("workload failed: {e}")))?;
            let stats = rec.stats();
            rec.finish(&mut rt).map_err(|e| UsageError(format!("trace write failed: {e}")))?;
            writeln!(
                out,
                "wrote {} ({} fine records, {} instrumented launches)",
                r.output, stats.events, stats.instrumented_launches
            )
            .map_err(io_err)
        }
        Command::Push { path, url, id, spool_dir } => {
            let bytes = std::fs::read(path)
                .map_err(|e| UsageError(format!("cannot read trace '{path}': {e}")))?;
            let id = match id {
                Some(id) => id.clone(),
                None => trace_id_from_path(path)?,
            };
            if let Some(spool_dir) = spool_dir {
                let outcome = vex_serve::push_or_spool(
                    url,
                    &id,
                    &bytes,
                    std::path::Path::new(spool_dir),
                    &vex_serve::PushOptions::default(),
                )
                .map_err(|e| UsageError(e.to_string()))?;
                return match outcome {
                    vex_serve::PushOutcome::Pushed(_) => {
                        writeln!(out, "pushed {id} ({} bytes) to {url}", bytes.len())
                            .map_err(io_err)
                    }
                    vex_serve::PushOutcome::Spooled(spooled, e) => writeln!(
                        out,
                        "server unreachable ({e}); spooled {id} to {} — run \
                         `vex push --drain {spool_dir}` once the server is back",
                        spooled.display()
                    )
                    .map_err(io_err),
                };
            }
            vex_serve::push_trace(url, &id, &bytes).map_err(|e| UsageError(e.to_string()))?;
            writeln!(out, "pushed {id} ({} bytes) to {url}", bytes.len()).map_err(io_err)
        }
        Command::Drain { dir, url } => {
            let outcome = vex_serve::drain_spool(
                std::path::Path::new(dir),
                url,
                &vex_serve::PushOptions::default(),
            )
            .map_err(|e| UsageError(e.to_string()))?;
            for id in &outcome.pushed {
                writeln!(out, "pushed {id} to {url}").map_err(io_err)?;
            }
            for (id, e) in &outcome.failed {
                writeln!(out, "failed {id}: {e} (left in spool)").map_err(io_err)?;
            }
            writeln!(
                out,
                "drained {dir}: {} pushed, {} still spooled",
                outcome.pushed.len(),
                outcome.failed.len()
            )
            .map_err(io_err)?;
            if outcome.failed.is_empty() {
                Ok(())
            } else {
                Err(UsageError(format!(
                    "{} spooled trace(s) could not be pushed",
                    outcome.failed.len()
                )))
            }
        }
        Command::Replay(r) => {
            if r.gvprof {
                let (results, _) = vex_gvprof::replay(
                    open_trace(&r.path)?,
                    r.kernel_sampling,
                    r.block_sampling,
                )
                .map_err(|e| match e {
                    GvProfReplayError::Decode(e) => cannot_read_trace(&r.path, &e),
                    e => UsageError(e.to_string()),
                })?;
                return write_gvprof_results(out, &results);
            }
            let profile = replay_file(r.analysis.builder(), &r.path)?;
            write!(out, "{}", profile.render_text_document()).map_err(io_err)?;
            if let Some(path) = &r.json {
                let json = profile
                    .to_json()
                    .map_err(|e| UsageError(format!("serialize failed: {e}")))?;
                std::fs::write(path, json).map_err(io_err)?;
                writeln!(out, "wrote {path}").map_err(io_err)?;
            }
            if let Some(path) = &r.dot {
                std::fs::write(path, profile.render_dot_document(None)).map_err(io_err)?;
                writeln!(out, "wrote {path}").map_err(io_err)?;
            }
            if let Some(path) = &r.md {
                std::fs::write(path, profile.render_markdown()).map_err(io_err)?;
                writeln!(out, "wrote {path}").map_err(io_err)?;
            }
            Ok(())
        }
        Command::Info { path, json } => {
            let s = match vex_trace::index::index_trace_file(std::path::Path::new(path)) {
                Ok(index) => index.summary,
                Err(e) => {
                    // Decode failed — probe for a salvageable prefix (a
                    // crashed recording usually leaves one) before giving
                    // up, so the operator learns what `vex repair` would
                    // recover instead of just seeing the error.
                    return info_salvage_fallback(path, &e, *json, out);
                }
            };
            if *json {
                return write_info_json(path, &s, out);
            }
            writeln!(out, "{path}").map_err(io_err)?;
            writeln!(out, "  format version:        {}", s.version).map_err(io_err)?;
            writeln!(out, "  device preset:         {}", s.device).map_err(io_err)?;
            writeln!(
                out,
                "  passes:                {}",
                match (s.flags.coarse, s.flags.fine) {
                    (true, true) => "coarse + fine",
                    (true, false) => "coarse",
                    (false, true) => "fine",
                    (false, false) => "none",
                }
            )
            .map_err(io_err)?;
            writeln!(out, "  api events:            {}", s.api_events).map_err(io_err)?;
            writeln!(out, "  kernel launches:       {}", s.kernel_launches).map_err(io_err)?;
            writeln!(out, "  instrumented launches: {}", s.instrumented_launches)
                .map_err(io_err)?;
            writeln!(out, "  skipped launches:      {}", s.skipped_launches).map_err(io_err)?;
            writeln!(out, "  record batches:        {}", s.batches).map_err(io_err)?;
            writeln!(out, "  fine records:          {}", s.records).map_err(io_err)?;
            writeln!(out, "  record bytes:          {}", s.batch_bytes).map_err(io_err)?;
            if s.batch_bytes > 0 {
                let ratio = (s.records * 32) as f64 / s.batch_bytes as f64;
                writeln!(out, "  compression ratio:     {ratio:.2}x").map_err(io_err)?;
            }
            writeln!(out, "  call-path contexts:    {}", s.contexts).map_err(io_err)?;
            writeln!(out, "  app time:              {:.1} us", s.app_us).map_err(io_err)
        }
        Command::Repair { input, output } => {
            let bytes = std::fs::read(input)
                .map_err(|e| UsageError(format!("cannot read trace '{input}': {e}")))?;
            let (repaired, report) = vex_trace::salvage::repair_trace(&bytes).map_err(|e| {
                UsageError(format!(
                    "cannot salvage '{input}': {e} (the container header is unreadable)"
                ))
            })?;
            let output = match output {
                Some(o) => o.clone(),
                None => default_repair_output(input),
            };
            std::fs::write(&output, &repaired).map_err(io_err)?;
            writeln!(out, "wrote {output} ({} bytes)", repaired.len()).map_err(io_err)?;
            writeln!(out, "  frames recovered:      {}", report.frames_recovered)
                .map_err(io_err)?;
            writeln!(
                out,
                "  bytes recovered:       {} of {} ({:.1}%)",
                report.bytes_recovered,
                report.bytes_total,
                report.recoverable_percent()
            )
            .map_err(io_err)?;
            writeln!(out, "  bytes discarded:       {}", report.bytes_discarded)
                .map_err(io_err)?;
            match &report.first_error {
                None if report.complete() => {
                    writeln!(out, "  input was already complete; output is a clean rewrite")
                        .map_err(io_err)
                }
                None => {
                    writeln!(out, "  input ended cleanly but without a trailer").map_err(io_err)
                }
                Some(e) => writeln!(out, "  stopped at:            {e}").map_err(io_err),
            }
        }
        Command::Serve(s) => {
            let server = start_server(s)?;
            writeln!(
                out,
                "serving {} trace(s) from {} on http://{}",
                server.state().store().len(),
                s.dir,
                server.addr()
            )
            .map_err(io_err)?;
            out.flush().map_err(io_err)?;
            // Serve until the process is killed.
            loop {
                std::thread::park();
            }
        }
    }
}

/// `vex info` on a trace that failed to decode: salvage-probe it and
/// report what `vex repair` would recover. Returns `Ok` when a
/// recoverable prefix exists (the command did produce useful output);
/// propagates the original error otherwise (missing file, garbage
/// bytes).
fn info_salvage_fallback(
    path: &str,
    error: &vex_trace::codec::DecodeError,
    json: bool,
    out: &mut dyn std::io::Write,
) -> Result<(), UsageError> {
    let io_err = |e: std::io::Error| UsageError(format!("i/o error: {e}"));
    let cannot = || UsageError(format!("cannot read trace '{path}': {error}"));
    let salvaged = vex_trace::salvage::salvage_trace_file(std::path::Path::new(path))
        .map_err(|_| cannot())?;
    if salvaged.report.frames_recovered == 0 {
        return Err(cannot());
    }
    if json {
        let doc = serde_json::Value::Object(vec![
            ("path".into(), serde_json::Value::Str(path.to_owned())),
            ("format_version".into(), serde_json::Value::U64(u64::from(salvaged.version))),
            (
                "salvage".into(),
                serde_json::Value::Object(vec![
                    ("error".into(), serde_json::Value::Str(error.to_string())),
                    (
                        "frames_recovered".into(),
                        serde_json::Value::U64(salvaged.report.frames_recovered),
                    ),
                    (
                        "events_recovered".into(),
                        serde_json::Value::U64(salvaged.events.len() as u64),
                    ),
                    (
                        "bytes_recovered".into(),
                        serde_json::Value::U64(salvaged.report.bytes_recovered),
                    ),
                    ("bytes_total".into(), serde_json::Value::U64(salvaged.report.bytes_total)),
                    (
                        "recoverable_percent".into(),
                        serde_json::Value::F64(salvaged.report.recoverable_percent()),
                    ),
                ]),
            ),
        ]);
        return write_json_doc(&doc, out);
    }
    writeln!(out, "{path}: damaged trace ({error})").map_err(io_err)?;
    writeln!(out, "  format version:        {}", salvaged.version).map_err(io_err)?;
    writeln!(out, "  frames recovered:      {}", salvaged.report.frames_recovered)
        .map_err(io_err)?;
    writeln!(out, "  events recovered:      {}", salvaged.events.len()).map_err(io_err)?;
    writeln!(
        out,
        "  bytes recovered:       {} of {} ({:.1}%)",
        salvaged.report.bytes_recovered,
        salvaged.report.bytes_total,
        salvaged.report.recoverable_percent()
    )
    .map_err(io_err)?;
    writeln!(out, "  run `vex repair {path}` to rewrite the recoverable prefix").map_err(io_err)
}

/// Serializes a hand-built JSON document and writes it
/// newline-terminated.
fn write_json_doc(
    doc: &serde_json::Value,
    out: &mut dyn std::io::Write,
) -> Result<(), UsageError> {
    let json = serde_json::to_string_pretty(doc)
        .map_err(|e| UsageError(format!("serialize failed: {e}")))?;
    writeln!(out, "{json}").map_err(|e| UsageError(format!("i/o error: {e}")))
}

/// `vex info --format json`: the text summary as one JSON object.
fn write_info_json(
    path: &str,
    s: &vex_trace::summary::TraceSummary,
    out: &mut dyn std::io::Write,
) -> Result<(), UsageError> {
    use serde_json::Value;
    let compression_ratio = if s.batch_bytes > 0 {
        Value::F64((s.records * 32) as f64 / s.batch_bytes as f64)
    } else {
        Value::Null
    };
    let doc = Value::Object(vec![
        ("path".into(), Value::Str(path.to_owned())),
        ("format_version".into(), Value::U64(u64::from(s.version))),
        ("device".into(), Value::Str(s.device.to_string())),
        ("coarse".into(), Value::Bool(s.flags.coarse)),
        ("fine".into(), Value::Bool(s.flags.fine)),
        ("api_events".into(), Value::U64(s.api_events)),
        ("kernel_launches".into(), Value::U64(s.kernel_launches)),
        ("instrumented_launches".into(), Value::U64(s.instrumented_launches)),
        ("skipped_launches".into(), Value::U64(s.skipped_launches)),
        ("record_batches".into(), Value::U64(s.batches)),
        ("fine_records".into(), Value::U64(s.records)),
        ("record_bytes".into(), Value::U64(s.batch_bytes)),
        ("compression_ratio".into(), compression_ratio),
        ("call_path_contexts".into(), Value::U64(s.contexts)),
        ("app_us".into(), Value::F64(s.app_us)),
        ("salvage".into(), Value::Null),
    ]);
    write_json_doc(&doc, out)
}

/// Streams the trace at `path` through `b` ([`ProfilerBuilder::replay_reader`]):
/// one projected batch in memory at a time. A pass the trace did not
/// record is reported from the header, before any frame is read; any
/// decode failure — however late in the stream — or capture gap fails the
/// whole replay, so no partial report is ever rendered.
fn replay_file(b: ProfilerBuilder, path: &str) -> Result<Profile, UsageError> {
    b.replay_reader(open_trace(path)?).map_err(|e| match e {
        ReplayError::Decode(e) => cannot_read_trace(path, &e),
        ReplayError::CaptureGap(gap) => cannot_read_trace(path, &gap),
        e => UsageError(e.to_string()),
    })
}

/// Opens `path` for streaming and decodes its header.
fn open_trace(
    path: &str,
) -> Result<TraceReader<std::io::BufReader<std::fs::File>>, UsageError> {
    let file = std::fs::File::open(path)
        .map_err(|e| cannot_read_trace(path, &DecodeError::from(e)))?;
    TraceReader::new(std::io::BufReader::new(file)).map_err(|e| cannot_read_trace(path, &e))
}

fn cannot_read_trace(path: &str, e: &dyn std::fmt::Display) -> UsageError {
    UsageError(format!("cannot read trace '{path}': {e}"))
}

/// `vex diff`: replay both traces with identical options, diff the
/// profiles, render, and in `--ci` mode gate on regressions.
fn run_diff(d: &DiffArgs, out: &mut dyn std::io::Write) -> Result<i32, UsageError> {
    let io_err = |e: std::io::Error| UsageError(format!("i/o error: {e}"));
    let compared = replay_file(d.analysis.builder(), &d.path_a).and_then(|a| {
        let b = replay_file(d.analysis.builder(), &d.path_b)?;
        let mut opts = DiffOptions { threshold: d.threshold, ..DiffOptions::default() };
        for (cat, frac) in &d.category_thresholds {
            opts.category_thresholds.insert(*cat, *frac);
        }
        Ok(diff_profiles(&a, &b, &opts))
    });
    let diff = match compared {
        Ok(diff) => diff,
        // The CI contract reserves exit 1 for "regression detected"; a
        // comparison that never ran is reported as exit 2 instead.
        Err(e) if d.ci => {
            writeln!(out, "ci: ERROR — {}", e.0).map_err(io_err)?;
            return Ok(2);
        }
        Err(e) => return Err(e),
    };
    match d.format {
        DiffFormat::Text => write!(out, "{}", diff.render_text_document()).map_err(io_err)?,
        DiffFormat::Json => {
            let json = diff
                .render_json_document()
                .map_err(|e| UsageError(format!("serialize failed: {e}")))?;
            write!(out, "{json}").map_err(io_err)?;
        }
    }
    if d.ci {
        if diff.has_regressions() {
            writeln!(
                out,
                "ci: FAIL — {} regression(s) ({})",
                diff.summary.regressions,
                diff.summary.regression_categories.join(", ")
            )
            .map_err(io_err)?;
            return Ok(1);
        }
        writeln!(out, "ci: PASS — no regressions above thresholds").map_err(io_err)?;
    }
    Ok(0)
}

/// `foo/bar.vex` → `foo/bar.repaired.vex`.
fn default_repair_output(input: &str) -> String {
    let p = std::path::Path::new(input);
    let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    p.with_file_name(format!("{stem}.repaired.vex")).display().to_string()
}

/// Loads the trace directory of a `vex serve` invocation and starts the
/// server (without blocking). `run` blocks on it forever; tests and
/// benches drive the returned handle directly.
///
/// # Errors
///
/// Returns [`UsageError`] if the directory cannot be loaded or the
/// address cannot be bound.
pub fn start_server(args: &ServeArgs) -> Result<vex_serve::Server, UsageError> {
    let opts =
        vex_serve::StoreOptions { memory_budget: args.memory_budget, strict: args.strict };
    let store = vex_serve::ProfileStore::load_dir_with(std::path::Path::new(&args.dir), &opts)
        .map_err(|e| UsageError(e.to_string()))?;
    let config = vex_serve::ServerConfig {
        workers: args.workers,
        cache_entries: args.cache_entries,
        ingest_enabled: args.ingest,
        max_ingest_bytes: args.max_ingest_bytes,
        ..vex_serve::ServerConfig::default()
    };
    vex_serve::Server::bind(store, &args.addr, config)
        .map_err(|e| UsageError(format!("cannot bind {}: {e}", args.addr)))
}

/// Prints per-kernel GVProf results in the format shared by `vex gvprof`
/// and `vex replay --gvprof`, so live and replayed output match
/// byte-for-byte.
fn write_gvprof_results(
    out: &mut dyn std::io::Write,
    results: &std::collections::BTreeMap<String, vex_gvprof::KernelRedundancy>,
) -> Result<(), UsageError> {
    let io_err = |e: std::io::Error| UsageError(format!("i/o error: {e}"));
    for (kernel, r) in results {
        writeln!(
            out,
            "{kernel}: {:.1}% redundant stores ({}/{}), {:.1}% redundant loads ({}/{})",
            r.store_redundancy() * 100.0,
            r.redundant_stores,
            r.total_stores,
            r.load_redundancy() * 100.0,
            r.redundant_loads,
            r.total_loads
        )
        .map_err(io_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_profile_flags() {
        let cmd = parse_args([
            "profile",
            "darknet",
            "--device",
            "a100",
            "--no-fine",
            "--kernel-sampling",
            "20",
            "--block-sampling",
            "4",
            "--filter",
            "gemm",
            "--races",
            "--reuse",
            "64",
            "--json",
            "p.json",
        ])
        .unwrap();
        match cmd {
            Command::Profile(p) => {
                assert_eq!(p.app, "darknet");
                assert_eq!(p.device, Device::A100);
                assert!(p.analysis.coarse);
                assert!(!p.analysis.fine);
                assert_eq!(p.kernel_sampling, 20);
                assert_eq!(p.block_sampling, 4);
                assert_eq!(p.filters, vec!["gemm"]);
                assert!(p.analysis.races);
                assert_eq!(p.analysis.reuse, Some(64));
                assert_eq!(p.json.as_deref(), Some("p.json"));
                assert_eq!(p.dot, None);
                assert_eq!(p.md, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(["frobnicate"]).is_err());
        assert!(parse_args(["profile"]).is_err());
        assert!(parse_args(["profile", "x", "--device"]).is_err());
        assert!(parse_args(["profile", "x", "--device", "h100"]).is_err());
        assert!(parse_args(["profile", "x", "--no-coarse", "--no-fine"]).is_err());
        assert!(parse_args(["profile", "x", "--kernel-sampling", "many"]).is_err());
    }

    #[test]
    fn help_and_empty() {
        assert_eq!(parse_args([]).unwrap(), Command::Help);
        assert_eq!(parse_args(["help"]).unwrap(), Command::Help);
        assert_eq!(parse_args(["--help"]).unwrap(), Command::Help);
        // Per-command help for the trace commands.
        assert_eq!(parse_args(["record", "--help"]).unwrap(), Command::Help);
        assert_eq!(parse_args(["record", "darknet", "-h"]).unwrap(), Command::Help);
        assert_eq!(parse_args(["replay", "--help"]).unwrap(), Command::Help);
        assert_eq!(parse_args(["replay", "t.vex", "--help"]).unwrap(), Command::Help);
        assert!(USAGE.contains("vex record"), "{USAGE}");
        assert!(USAGE.contains("vex replay"), "{USAGE}");
    }

    #[test]
    fn parses_record_flags() {
        let cmd = parse_args([
            "record",
            "darknet",
            "--fine",
            "--device",
            "a100",
            "--kernel-sampling",
            "4",
            "--block-sampling",
            "2",
            "--filter",
            "gemm",
            "-o",
            "d.vex",
        ])
        .unwrap();
        match cmd {
            Command::Record(r) => {
                assert_eq!(r.app, "darknet");
                assert!(r.analysis.coarse);
                assert!(r.analysis.fine);
                assert_eq!(r.device, Device::A100);
                assert_eq!(r.kernel_sampling, 4);
                assert_eq!(r.block_sampling, 2);
                assert_eq!(r.filters, vec!["gemm"]);
                assert_eq!(r.output, "d.vex");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: coarse-only into trace.vex.
        match parse_args(["record", "huffman"]).unwrap() {
            Command::Record(r) => {
                assert!(r.analysis.coarse);
                assert!(!r.analysis.fine);
                assert_eq!(r.output, "trace.vex");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_replay_flags() {
        let cmd = parse_args([
            "replay", "t.vex", "--fine", "--races", "--reuse", "64", "--shards", "8", "--json",
            "p.json", "--dot", "f.dot",
        ])
        .unwrap();
        match cmd {
            Command::Replay(r) => {
                assert_eq!(r.path, "t.vex");
                assert!(r.analysis.coarse);
                assert!(r.analysis.fine);
                assert!(r.analysis.races);
                assert_eq!(r.analysis.reuse, Some(64));
                assert_eq!(r.analysis.shards, 8);
                assert!(!r.gvprof);
                assert_eq!(r.json.as_deref(), Some("p.json"));
                assert_eq!(r.dot.as_deref(), Some("f.dot"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(["replay", "t.vex", "--gvprof", "--kernel-sampling", "4"]).unwrap() {
            Command::Replay(r) => {
                assert!(r.gvprof);
                assert_eq!(r.kernel_sampling, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decode_threads_flag_is_unknown() {
        // Every decode runs on the calling thread; the pool knob is gone.
        for sub in [&["replay", "t.vex"][..], &["replay", "t.vex", "--gvprof"], &["serve", "d"]]
        {
            let err = parse_args(sub.iter().copied().chain(["--decode-threads", "2"]))
                .expect_err("--decode-threads is rejected");
            assert_eq!(err.0, "unknown flag '--decode-threads'", "{sub:?}");
        }
        assert!(!USAGE.contains("--decode-threads"), "{USAGE}");
    }

    #[test]
    fn trace_ttl_flag_is_unknown() {
        // Reports stream from disk and no decoded trace is kept, so there
        // is nothing left for an idle TTL to expire.
        let err = parse_args(["serve", "d", "--trace-ttl", "60"]).expect_err("rejected");
        assert_eq!(err.0, "unknown flag '--trace-ttl'");
        assert!(!USAGE.contains("--trace-ttl"), "{USAGE}");
    }

    #[test]
    fn analysis_flags_keep_each_subcommand_defaults_and_subset() {
        let analysis = |args: &[&str]| match parse_args(args.iter().copied()).unwrap() {
            Command::Profile(p) => p.analysis,
            Command::Record(r) => r.analysis,
            Command::Replay(r) => r.analysis,
            Command::Diff(d) => d.analysis,
            other => panic!("unexpected {other:?}"),
        };
        let coarse_only = ReportParams::default();
        let both = ReportParams { fine: true, ..coarse_only };
        assert_eq!(analysis(&["profile", "x"]), both);
        assert_eq!(analysis(&["record", "x"]), coarse_only);
        assert_eq!(analysis(&["replay", "t.vex"]), coarse_only);
        assert_eq!(analysis(&["diff", "a.vex", "b.vex"]), coarse_only);
        assert_eq!(
            analysis(&["profile", "x", "--no-coarse"]),
            ReportParams { coarse: false, ..both }
        );
        assert_eq!(
            analysis(&["record", "x", "--no-coarse", "--fine"]),
            ReportParams { coarse: false, ..both }
        );
        // Each subcommand keeps its own subset.
        for (args, flag) in [
            (&["profile", "x", "--fine"][..], "--fine"),
            (&["profile", "x", "--shards", "2"], "--shards"),
            (&["record", "x", "--races"], "--races"),
            (&["record", "x", "--reuse", "64"], "--reuse"),
            (&["record", "x", "--no-fine"], "--no-fine"),
            (&["replay", "t.vex", "--no-fine"], "--no-fine"),
        ] {
            let err = parse_args(args.iter().copied()).expect_err("not in the subset");
            assert_eq!(err.0, format!("unknown flag '{flag}'"), "{args:?}");
        }
        for args in
            [&["record", "x", "--no-coarse"][..], &["profile", "x", "--no-coarse", "--no-fine"]]
        {
            let err = parse_args(args.iter().copied()).expect_err("no pass left");
            assert_eq!(err.0, "at least one of coarse/fine must stay enabled", "{args:?}");
        }
    }

    #[test]
    fn sampling_periods_must_be_positive_integers() {
        let subcommands: [&[&str]; 3] =
            [&["profile", "x"], &["record", "x"], &["replay", "t.vex", "--gvprof"]];
        for sub in subcommands {
            for (flag, what) in [("--kernel-sampling", "kernel"), ("--block-sampling", "block")]
            {
                let with = |extra: &[&'static str]| {
                    parse_args(sub.iter().copied().chain([flag]).chain(extra.iter().copied()))
                };
                let err = with(&["0"]).expect_err("a zero period is rejected");
                assert_eq!(err.0, format!("{flag} must be at least 1"), "{sub:?}");
                let err = with(&["many"]).expect_err("garbage is rejected");
                assert_eq!(err.0, format!("invalid {what} sampling period"), "{sub:?}");
                let err = with(&[]).expect_err("a missing value is rejected");
                assert_eq!(err.0, format!("{flag} requires a value"), "{sub:?}");
                assert!(with(&["3"]).is_ok(), "{sub:?} {flag} 3");
            }
        }
    }

    #[test]
    fn every_subcommand_rejects_unknown_flags() {
        assert!(parse_args(["profile", "x", "--frob"]).is_err());
        assert!(parse_args(["speedup", "x", "--frob"]).is_err());
        assert!(parse_args(["gvprof", "x", "--frob"]).is_err());
        assert!(parse_args(["record", "x", "--frob"]).is_err());
        assert!(parse_args(["replay", "x.vex", "--frob"]).is_err());
        assert!(parse_args(["info", "x.vex", "--frob"]).is_err());
        assert!(parse_args(["repair", "x.vex", "--frob"]).is_err());
        assert!(parse_args(["serve", "traces", "--frob"]).is_err());
        assert!(parse_args(["push", "x.vex", "--frob"]).is_err());
    }

    #[test]
    fn parses_info() {
        assert_eq!(
            parse_args(["info", "t.vex"]).unwrap(),
            Command::Info { path: "t.vex".into(), json: false }
        );
        assert_eq!(parse_args(["info", "--help"]).unwrap(), Command::Help);
        assert_eq!(parse_args(["info", "t.vex", "-h"]).unwrap(), Command::Help);
        assert!(parse_args(["info"]).is_err());
        assert!(parse_args(["info", "a.vex", "b.vex"]).is_err());
    }

    #[test]
    fn parses_serve_flags() {
        // Defaults.
        match parse_args(["serve", "traces"]).unwrap() {
            Command::Serve(s) => {
                assert_eq!(s.dir, "traces");
                assert_eq!(s.addr, "127.0.0.1:7070");
                assert_eq!(s.workers, 4);
                assert_eq!(s.cache_entries, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Every flag, in one invocation.
        match parse_args([
            "serve",
            "run/traces",
            "--addr",
            "0.0.0.0:8080",
            "--workers",
            "8",
            "--cache-entries",
            "16",
        ])
        .unwrap()
        {
            Command::Serve(s) => {
                assert_eq!(s.dir, "run/traces");
                assert_eq!(s.addr, "0.0.0.0:8080");
                assert_eq!(s.workers, 8);
                assert_eq!(s.cache_entries, 16);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Each flag alone.
        match parse_args(["serve", "d", "--addr", "127.0.0.1:0"]).unwrap() {
            Command::Serve(s) => assert_eq!(s.addr, "127.0.0.1:0"),
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(["serve", "d", "--workers", "1"]).unwrap() {
            Command::Serve(s) => assert_eq!(s.workers, 1),
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(["serve", "d", "--cache-entries", "0"]).unwrap() {
            Command::Serve(s) => assert_eq!(s.cache_entries, 0),
            other => panic!("unexpected {other:?}"),
        }
        // Help at every position.
        assert_eq!(parse_args(["serve", "--help"]).unwrap(), Command::Help);
        assert_eq!(parse_args(["serve", "d", "-h"]).unwrap(), Command::Help);
        assert_eq!(
            parse_args(["serve", "d", "--workers", "2", "--help"]).unwrap(),
            Command::Help
        );
        // Invalid values.
        assert!(parse_args(["serve"]).is_err());
        assert!(parse_args(["serve", "d", "--addr"]).is_err());
        assert!(parse_args(["serve", "d", "--workers", "zero"]).is_err());
        assert!(parse_args(["serve", "d", "--workers", "0"]).is_err());
        assert!(parse_args(["serve", "d", "--cache-entries", "-1"]).is_err());
        assert!(USAGE.contains("vex serve"), "{USAGE}");
        assert!(USAGE.contains("vex info"), "{USAGE}");
    }

    #[test]
    fn parses_store_and_ingest_flags() {
        // Defaults: unbounded, read-only, lenient.
        match parse_args(["serve", "traces"]).unwrap() {
            Command::Serve(s) => {
                assert_eq!(s.memory_budget, None);
                assert!(!s.ingest);
                assert_eq!(s.max_ingest_bytes, 64 * 1024 * 1024);
                assert!(!s.strict);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_args([
            "serve",
            "traces",
            "--memory-budget",
            "64m",
            "--ingest",
            "--max-ingest-bytes",
            "128k",
            "--strict",
        ])
        .unwrap()
        {
            Command::Serve(s) => {
                assert_eq!(s.memory_budget, Some(64 * 1024 * 1024));
                assert!(s.ingest);
                assert_eq!(s.max_ingest_bytes, 128 * 1024);
                assert!(s.strict);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(["serve", "d", "--max-ingest-bytes", "0"]).is_err());
        // Every suffix plus a bare byte count.
        for (arg, want) in
            [("1024", 1024u64), ("8k", 8 << 10), ("2M", 2 << 20), ("1g", 1 << 30)]
        {
            match parse_args(["serve", "d", "--memory-budget", arg]).unwrap() {
                Command::Serve(s) => assert_eq!(s.memory_budget, Some(want), "{arg}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Invalid sizes.
        for bad in ["", "lots", "1t", "99999999999999999999g"] {
            assert!(parse_args(["serve", "d", "--memory-budget", bad]).is_err(), "{bad}");
        }
        assert!(parse_args(["serve", "d", "--memory-budget"]).is_err());
        assert!(USAGE.contains("--memory-budget"), "{USAGE}");
        assert!(USAGE.contains("--ingest"), "{USAGE}");
        assert!(USAGE.contains("--max-ingest-bytes"), "{USAGE}");
        assert!(USAGE.contains("--strict"), "{USAGE}");
    }

    #[test]
    fn parses_push_command_and_record_push_flag() {
        // Defaults.
        assert_eq!(
            parse_args(["push", "t.vex"]).unwrap(),
            Command::Push {
                path: "t.vex".into(),
                url: "http://127.0.0.1:7070".into(),
                id: None,
                spool_dir: None
            }
        );
        assert_eq!(
            parse_args(["push", "runs/a.vex", "--url", "http://10.0.0.1:9000", "--id", "b"])
                .unwrap(),
            Command::Push {
                path: "runs/a.vex".into(),
                url: "http://10.0.0.1:9000".into(),
                id: Some("b".into()),
                spool_dir: None
            }
        );
        assert_eq!(
            parse_args(["push", "t.vex", "--spool-dir", "spool"]).unwrap(),
            Command::Push {
                path: "t.vex".into(),
                url: "http://127.0.0.1:7070".into(),
                id: None,
                spool_dir: Some("spool".into())
            }
        );
        assert_eq!(
            parse_args(["push", "--drain", "spool", "--url", "http://10.0.0.1:9000"]).unwrap(),
            Command::Drain { dir: "spool".into(), url: "http://10.0.0.1:9000".into() }
        );
        assert_eq!(
            parse_args(["push", "--drain", "spool"]).unwrap(),
            Command::Drain { dir: "spool".into(), url: "http://127.0.0.1:7070".into() }
        );
        assert!(parse_args(["push", "--drain"]).is_err());
        assert!(parse_args(["push", "--drain", "spool", "--id", "x"]).is_err());
        assert_eq!(parse_args(["push", "--help"]).unwrap(), Command::Help);
        assert_eq!(parse_args(["push", "t.vex", "-h"]).unwrap(), Command::Help);
        assert!(parse_args(["push"]).is_err());
        assert!(parse_args(["push", "t.vex", "--frob"]).is_err());
        assert!(parse_args(["push", "t.vex", "--url"]).is_err());
        // record --push.
        match parse_args(["record", "darknet", "--push", "http://127.0.0.1:7070"]).unwrap() {
            Command::Record(r) => {
                assert_eq!(r.push.as_deref(), Some("http://127.0.0.1:7070"));
                assert_eq!(r.output, "trace.vex");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(["record", "darknet", "--push"]).is_err());
        // record --spool-dir rides on --push.
        match parse_args([
            "record",
            "darknet",
            "--push",
            "http://127.0.0.1:7070",
            "--spool-dir",
            "spool",
        ])
        .unwrap()
        {
            Command::Record(r) => assert_eq!(r.spool_dir.as_deref(), Some("spool")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(["record", "darknet", "--spool-dir", "spool"]).is_err());
        // record --variant selects the workload variant (default baseline).
        match parse_args(["record", "backprop", "--variant", "optimized"]).unwrap() {
            Command::Record(r) => assert_eq!(r.variant, Variant::Optimized),
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(["record", "backprop"]).unwrap() {
            Command::Record(r) => assert_eq!(r.variant, Variant::Baseline),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(["record", "backprop", "--variant", "frobnicated"]).is_err());
        assert!(parse_args(["record", "backprop", "--variant"]).is_err());
        assert!(USAGE.contains("vex push"), "{USAGE}");
        assert!(USAGE.contains("--push"), "{USAGE}");
        assert!(USAGE.contains("--spool-dir"), "{USAGE}");
        assert!(USAGE.contains("--drain"), "{USAGE}");
    }

    #[test]
    fn parses_repair_command() {
        assert_eq!(
            parse_args(["repair", "t.vex"]).unwrap(),
            Command::Repair { input: "t.vex".into(), output: None }
        );
        assert_eq!(
            parse_args(["repair", "t.vex", "fixed.vex"]).unwrap(),
            Command::Repair { input: "t.vex".into(), output: Some("fixed.vex".into()) }
        );
        assert_eq!(parse_args(["repair", "--help"]).unwrap(), Command::Help);
        assert!(parse_args(["repair"]).is_err());
        assert!(parse_args(["repair", "a.vex", "b.vex", "c.vex"]).is_err());
        assert!(parse_args(["repair", "t.vex", "--frob"]).is_err());
        assert!(USAGE.contains("vex repair"), "{USAGE}");
        assert_eq!(default_repair_output("runs/cut.vex"), "runs/cut.repaired.vex");
    }

    #[test]
    fn record_push_streams_into_a_serving_store() {
        use std::io::{Read as _, Write as _};
        let dir = std::env::temp_dir().join(format!("vex-cli-push-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let mut args = ServeArgs::new(dir.to_str().unwrap().to_owned());
        args.addr = "127.0.0.1:0".into();
        args.workers = 2;
        args.ingest = true;
        let server = start_server(&args).unwrap();
        assert!(server.state().store().is_empty());
        let url = format!("http://{}", server.addr());

        // `vex record --push` — no local file, trace lands on the server.
        let mut rec = RecordArgs::new("QMCPACK".into());
        rec.output = "pushed-q.vex".into();
        rec.push = Some(url.clone());
        let mut out = Vec::new();
        run(&Command::Record(rec), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("pushed pushed-q to"), "{s}");
        assert!(!std::path::Path::new("pushed-q.vex").exists());
        assert!(dir.join("pushed-q.vex").is_file(), "trace persisted server-side");

        // Queryable without restart.
        let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
        conn.write_all(b"GET /traces/pushed-q/report HTTP/1.1\r\n\r\n").unwrap();
        let mut body = String::new();
        conn.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 200 OK\r\n"), "{body}");
        assert!(body.contains("ValueExpert profile"), "{body}");

        // `vex push <file>` of an existing trace, custom id. The local
        // file lives outside the served directory.
        let outside =
            std::env::temp_dir().join(format!("vex-cli-push-src-{}", std::process::id()));
        std::fs::create_dir_all(&outside).unwrap();
        let local = outside.join("local.vex");
        let mut rec = RecordArgs::new("QMCPACK".into());
        rec.output = local.to_str().unwrap().to_owned();
        run(&Command::Record(rec), &mut Vec::new()).unwrap();
        let mut out = Vec::new();
        run(
            &Command::Push {
                path: local.to_str().unwrap().to_owned(),
                url: url.clone(),
                id: Some("renamed".into()),
                spool_dir: None,
            },
            &mut out,
        )
        .unwrap();
        assert!(String::from_utf8(out).unwrap().contains("pushed renamed"), "push output");
        assert_eq!(server.state().store().ids(), vec!["pushed-q", "renamed"]);

        // Duplicate push is refused with the server's detail.
        let err = run(
            &Command::Push {
                path: local.to_str().unwrap().to_owned(),
                url,
                id: Some("renamed".into()),
                spool_dir: None,
            },
            &mut Vec::new(),
        )
        .expect_err("duplicate id");
        assert!(err.0.contains("409"), "{err:?}");

        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&outside).ok();
    }

    #[test]
    fn push_spools_when_down_and_drain_lands_byte_identical() {
        let base = std::env::temp_dir().join(format!("vex-cli-spool-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let local = base.join("run1.vex");
        let mut rec = RecordArgs::new("QMCPACK".into());
        rec.output = local.to_str().unwrap().to_owned();
        run(&Command::Record(rec), &mut Vec::new()).unwrap();
        let original = std::fs::read(&local).unwrap();

        // Push with the server down (port 1 never listens): after the
        // retries the trace must land in the spool, not be lost.
        let spool = base.join("spool");
        let mut out = Vec::new();
        run(
            &Command::Push {
                path: local.to_str().unwrap().to_owned(),
                url: "http://127.0.0.1:1".into(),
                id: None,
                spool_dir: Some(spool.to_str().unwrap().to_owned()),
            },
            &mut out,
        )
        .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("spooled run1"), "{s}");
        assert_eq!(std::fs::read(spool.join("run1.vex")).unwrap(), original);

        // The server comes back; drain re-pushes and empties the spool.
        let served = base.join("served");
        std::fs::create_dir_all(&served).unwrap();
        let mut args = ServeArgs::new(served.to_str().unwrap().to_owned());
        args.addr = "127.0.0.1:0".into();
        args.workers = 2;
        args.ingest = true;
        let server = start_server(&args).unwrap();
        let url = format!("http://{}", server.addr());
        let mut out = Vec::new();
        run(&Command::Drain { dir: spool.to_str().unwrap().to_owned(), url }, &mut out)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("pushed run1"), "{s}");
        assert!(s.contains("1 pushed, 0 still spooled"), "{s}");
        assert!(!spool.join("run1.vex").exists(), "drained from the spool");
        // The recording landed byte-identically server-side.
        assert_eq!(std::fs::read(served.join("run1.vex")).unwrap(), original);
        server.shutdown();
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn repair_recovers_a_truncated_recording() {
        let base = std::env::temp_dir().join(format!("vex-cli-repair-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let trace = base.join("run.vex");
        let mut rec = RecordArgs::new("QMCPACK".into());
        rec.output = trace.to_str().unwrap().to_owned();
        run(&Command::Record(rec), &mut Vec::new()).unwrap();
        let full = std::fs::read(&trace).unwrap();

        // Emulate a recording killed mid-run: drop the last third.
        let cut = base.join("cut.vex");
        std::fs::write(&cut, &full[..full.len() - full.len() / 3]).unwrap();

        // `vex info` reports the salvageable prefix, not a bare error.
        let mut out = Vec::new();
        run(&Command::Info { path: cut.to_str().unwrap().to_owned(), json: false }, &mut out)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("damaged trace"), "{s}");
        assert!(s.contains("frames recovered"), "{s}");
        assert!(s.contains("vex repair"), "{s}");

        // `vex repair` writes a valid container next to the input.
        let mut out = Vec::new();
        run(
            &Command::Repair { input: cut.to_str().unwrap().to_owned(), output: None },
            &mut out,
        )
        .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("frames recovered"), "{s}");
        assert!(s.contains("bytes discarded"), "{s}");
        let repaired = base.join("cut.repaired.vex");
        assert!(repaired.is_file());
        // The repaired trace now summarizes cleanly.
        let mut out = Vec::new();
        run(
            &Command::Info { path: repaired.to_str().unwrap().to_owned(), json: false },
            &mut out,
        )
        .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("format version"), "{s}");
        assert!(!s.contains("damaged"), "{s}");
        // A missing file still errors — salvage only softens decode
        // failures, not i/o ones.
        assert!(run(
            &Command::Info { path: "missing.vex".into(), json: false },
            &mut Vec::new()
        )
        .is_err());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn replay_flag_combinations_are_validated() {
        // GVProf mode excludes ValueExpert analysis flags.
        assert!(parse_args(["replay", "t.vex", "--gvprof", "--fine"]).is_err());
        assert!(parse_args(["replay", "t.vex", "--gvprof", "--races"]).is_err());
        assert!(parse_args(["replay", "t.vex", "--gvprof", "--shards", "2"]).is_err());
        // Sampling is baked into the trace outside GVProf mode.
        assert!(parse_args(["replay", "t.vex", "--kernel-sampling", "4"]).is_err());
        // Everything off is an error, as for profile.
        assert!(parse_args(["replay", "t.vex", "--no-coarse"]).is_err());
        assert!(parse_args(["record", "x", "--no-coarse"]).is_err());
    }

    #[test]
    fn unrunnable_analysis_params_are_usage_errors() {
        let cases: [(&[&str], &str); 3] = [
            (&["--fine", "--reuse", "3"], "power of two"),
            (&["--fine", "--reuse", "0"], "power of two"),
            (&["--fine", "--shards", "65"], "analysis shards"),
        ];
        for (flags, complaint) in cases {
            for cmd in [&["replay", "t.vex"][..], &["diff", "a.vex", "b.vex"]] {
                let args: Vec<&str> = cmd.iter().chain(flags).copied().collect();
                let err = parse_args(args.iter().copied()).unwrap_err();
                assert!(err.0.contains(complaint), "{args:?}: {err}");
            }
        }
        // `profile` has no --shards; a bad line size fails the same check.
        for line in ["3", "0"] {
            let err = parse_args(["profile", "x", "--reuse", line]).unwrap_err();
            assert!(err.0.contains("power of two"), "--reuse {line}: {err}");
        }
        assert!(parse_args(["profile", "x", "--shards", "65"]).is_err());
        // The limits themselves parse.
        assert!(
            parse_args(["replay", "t.vex", "--fine", "--reuse", "1", "--shards", "64"]).is_ok()
        );
        assert!(parse_args(["profile", "x", "--reuse", "64"]).is_ok());
    }

    #[test]
    fn find_app_is_case_insensitive() {
        assert_eq!(find_app("darknet").unwrap().name(), "Darknet");
        assert_eq!(find_app("LAMMPS").unwrap().name(), "LAMMPS");
        let err = match find_app("doom") {
            Err(e) => e,
            Ok(app) => panic!("unexpectedly found {}", app.name()),
        };
        assert!(err.0.contains("available"));
    }

    #[test]
    fn list_runs() {
        let mut out = Vec::new();
        run(&Command::List, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("Darknet"));
        assert!(s.contains("streamcluster"));
        assert_eq!(s.lines().count(), 19);
    }

    #[test]
    fn profile_small_app_end_to_end() {
        let mut p = ProfileArgs::new("QMCPACK".into());
        p.block_sampling = 8;
        let mut out = Vec::new();
        run(&Command::Profile(p), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("ValueExpert profile"), "{s}");
        assert!(s.contains("redundant values"), "{s}");
    }

    #[test]
    fn speedup_runs() {
        let mut out = Vec::new();
        run(&Command::Speedup { app: "backprop".into(), device: Device::Rtx2080Ti }, &mut out)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("kernel bpnn_adjust_weights_cuda"), "{s}");
        assert!(s.contains("memory time"), "{s}");
    }

    #[test]
    fn record_then_replay_round_trip() {
        let dir = std::env::temp_dir().join(format!("vex-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("q.vex").to_str().unwrap().to_owned();

        let mut rec = RecordArgs::new("QMCPACK".into());
        rec.analysis.fine = true;
        rec.output = trace.clone();
        let mut out = Vec::new();
        run(&Command::Record(rec), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("wrote"), "record output");

        let mut live = Vec::new();
        run(&Command::Profile(ProfileArgs::new("QMCPACK".into())), &mut live).unwrap();

        let mut rep = ReplayArgs::new(trace);
        rep.analysis.fine = true;
        let mut replayed = Vec::new();
        run(&Command::Replay(rep), &mut replayed).unwrap();
        assert_eq!(
            String::from_utf8(live).unwrap(),
            String::from_utf8(replayed).unwrap(),
            "replayed report must be byte-identical to the live one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `vex replay` and `vex diff` stream their traces, which pins the
    /// error order: a pass the trace lacks is reported from the header
    /// before any frame is read, and a trace cut mid-stream fails as a
    /// whole with nothing on stdout — never a partial report.
    #[test]
    fn streamed_replay_error_order() {
        let dir = std::env::temp_dir().join(format!("vex-cli-order-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let full = dir.join("full.vex").to_str().unwrap().to_owned();
        let cut = dir.join("cut.vex").to_str().unwrap().to_owned();
        let mut rec = RecordArgs::new("QMCPACK".into());
        rec.output = full.clone();
        run(&Command::Record(rec), &mut Vec::new()).unwrap();
        let bytes = std::fs::read(&full).unwrap();
        std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();

        // The coarse-only trace lacks fine records: the header says so
        // before the cut frames are ever reached.
        let mut rep = ReplayArgs::new(cut.clone());
        rep.analysis.fine = true;
        let mut out = Vec::new();
        let err = run(&Command::Replay(rep), &mut out).unwrap_err();
        assert!(err.0.contains("--fine") && !err.0.contains("cannot read"), "{}", err.0);
        assert!(out.is_empty());

        // The recorded pass streams up to the cut, then fails whole.
        let mut out = Vec::new();
        let err = run(&Command::Replay(ReplayArgs::new(cut.clone())), &mut out).unwrap_err();
        assert!(err.0.starts_with(&format!("cannot read trace '{cut}': ")), "{}", err.0);
        assert!(err.0.contains("mid-frame"), "{}", err.0);
        assert!(out.is_empty(), "partial report written: {}", String::from_utf8_lossy(&out));

        let mut out = Vec::new();
        let err = run(&Command::Diff(DiffArgs::new(full.clone(), cut.clone())), &mut out)
            .unwrap_err();
        assert!(err.0.starts_with(&format!("cannot read trace '{cut}': ")), "{}", err.0);
        assert!(out.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_prints_header_and_counts() {
        let dir = std::env::temp_dir().join(format!("vex-cli-info-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("q.vex").to_str().unwrap().to_owned();
        let mut rec = RecordArgs::new("QMCPACK".into());
        rec.analysis.fine = true;
        rec.output = trace.clone();
        run(&Command::Record(rec), &mut Vec::new()).unwrap();

        let mut out = Vec::new();
        run(&Command::Info { path: trace.clone(), json: false }, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("format version:        2"), "{s}");
        assert!(s.contains("device preset:"), "{s}");
        assert!(s.contains("passes:                coarse + fine"), "{s}");
        assert!(s.contains("instrumented launches:"), "{s}");
        assert!(s.contains("fine records:"), "{s}");
        assert!(s.contains("compression ratio:"), "{s}");

        // The counts agree with the index scan.
        let summary =
            vex_trace::index::index_trace_file(std::path::Path::new(&trace)).unwrap().summary;
        assert!(s.contains(&format!("fine records:          {}", summary.records)), "{s}");
        assert!(summary.records > 0, "fine recording produced records");
        // v2 columnar batches land well under the 32-byte fixed records.
        assert!(summary.batch_bytes > 0 && summary.batch_bytes < summary.records * 32, "{s}");

        let err =
            run(&Command::Info { path: "missing.vex".into(), json: false }, &mut Vec::new())
                .expect_err("missing file errors");
        assert!(err.0.contains("missing.vex"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_starts_from_a_recorded_directory() {
        use std::io::{Read as _, Write as _};
        let dir = std::env::temp_dir().join(format!("vex-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut rec = RecordArgs::new("QMCPACK".into());
        rec.output = dir.join("qmcpack.vex").to_str().unwrap().to_owned();
        run(&Command::Record(rec), &mut Vec::new()).unwrap();

        let mut args = ServeArgs::new(dir.to_str().unwrap().to_owned());
        args.addr = "127.0.0.1:0".into();
        args.workers = 2;
        let server = start_server(&args).unwrap();
        assert_eq!(server.state().store().ids(), vec!["qmcpack"]);

        let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
        conn.write_all(b"GET /traces HTTP/1.1\r\n\r\n").unwrap();
        let mut body = String::new();
        conn.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 200 OK\r\n"), "{body}");
        assert!(body.contains("qmcpack"), "{body}");

        server.shutdown();
        assert!(start_server(&ServeArgs::new("no-such-dir".into())).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gvprof_runs() {
        let mut out = Vec::new();
        run(&Command::GvProf { app: "huffman".into() }, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("histo_kernel"), "{s}");
    }
}
