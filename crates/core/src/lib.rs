//! # vex-core — ValueExpert: value patterns and value flows
//!
//! A Rust reproduction of **ValueExpert** (Zhou, Hao, Mellor-Crummey,
//! Meng, Liu — ASPLOS 2022): a value profiler that pinpoints
//! value-related inefficiencies in GPU-accelerated applications.
//!
//! The crate implements the paper's full pipeline on top of the
//! [`vex_gpu`] simulator and the [`vex_trace`] instrumentation engine:
//!
//! * the **eight value patterns** of §3 and their recognizers
//!   ([`patterns`]),
//! * the **coarse-grained analyzer** — value snapshots per GPU API,
//!   redundancy diffing, and SHA-256 duplicate grouping ([`coarse`],
//!   [`snapshot hashing`](sha256)),
//! * the **fine-grained analyzer** — per-access value statistics with
//!   access types recovered by bidirectional slicing ([`fine`],
//!   [`access_type`]),
//! * the **value flow graph** with vertex-slice and important-graph
//!   analyses and DOT export ([`flowgraph`]),
//! * the §6 performance machinery: the **data-parallel interval merge**
//!   ([`vex_trace::interval`]), **adaptive snapshot copy strategies**
//!   ([`copy_strategy`]), and **kernel filtering / hierarchical
//!   sampling** ([`sampling`]),
//! * a **sharded, off-critical-path analysis engine** that runs both
//!   analyzers on worker threads behind bounded channels while producing
//!   byte-identical reports
//!   ([`ProfilerBuilder::analysis_shards`](profiler::ProfilerBuilder::analysis_shards)),
//! * a **profiler front-end** that wires everything onto a runtime
//!   ([`profiler`]) and a report/GUI stand-in ([`report`]), plus an
//!   explicit **overhead model** ([`overhead`]).
//!
//! ## Quick start
//!
//! ```rust
//! use vex_core::prelude::*;
//! use vex_gpu::prelude::*;
//!
//! # fn main() -> Result<(), GpuError> {
//! let mut rt = Runtime::new(DeviceSpec::rtx2080ti());
//! let vex = ValueExpert::builder().coarse(true).fine(true).attach(&mut rt);
//!
//! // A double initialization the profiler should flag:
//! let buf = rt.malloc(1024, "l.output_gpu")?;
//! rt.memset(buf, 0, 1024)?;
//! rt.memset(buf, 0, 1024)?; // redundant
//!
//! let profile = vex.report(&rt);
//! assert!(profile.has_pattern(ValuePattern::RedundantValues));
//! println!("{}", profile.render_text());
//! # Ok(()) }
//! ```

#![deny(missing_docs)]

pub mod access_type;
pub mod cluster;
pub mod coarse;
pub mod copy_strategy;
pub mod diff;
pub mod fine;
pub mod flowgraph;
pub mod overhead;
pub mod patterns;
pub(crate) mod pipeline;
pub mod profiler;
pub mod races;
pub mod registry;
pub mod report;
pub mod reuse;
pub mod sampling;
pub mod sha256;

/// Convenient glob import for profiler users.
pub mod prelude {
    pub use crate::cluster::{ClusterReport, ClusterSession};
    pub use crate::coarse::{CaptureGap, DuplicateFinding, RedundancyFinding};
    pub use crate::copy_strategy::{AdaptivePolicy, CopyStrategy, ObjectCopyPlan};
    pub use crate::diff::{
        diff_profiles, DeltaCategory, DeltaDirection, DiffOptions, ProfileDiff,
    };
    pub use crate::fine::{Direction, FineFinding};
    pub use crate::flowgraph::{AccessKind, FlowGraph, VertexId, VertexKind};
    pub use crate::overhead::{OverheadModel, OverheadReport};
    pub use crate::patterns::{PatternConfig, PatternHit, ValuePattern};
    pub use crate::profiler::{ProfilerBuilder, Recording, ReplayError, ValueExpert};
    pub use crate::races::{RaceKind, RaceReport};
    pub use crate::report::Profile;
    pub use crate::reuse::{ReuseAnalyzer, ReuseHistogram};
    pub use crate::sampling::{BlockSampler, HierarchicalSampler, KernelNameFilter};
    pub use vex_trace::interval::Interval;
}
