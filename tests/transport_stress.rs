//! Threaded stress tests for the bounded channels that feed the analysis
//! pipeline, and for the pipelined session lifecycle:
//! back-pressure from a producer that outruns its consumers, consumers
//! vanishing mid-stream, and sessions torn down without a report. Each
//! test finishing at all is half the assertion — a deadlock hangs the
//! suite.

use vex_core::prelude::*;
use vex_core::profiler::ProfilerBuilder;
use vex_gpu::dim::Dim3;
use vex_gpu::exec::ThreadCtx;
use vex_gpu::ir::{InstrTable, InstrTableBuilder, MemSpace, Pc, ScalarType};
use vex_gpu::kernel::Kernel;
use vex_gpu::prelude::DevicePtr;
use vex_gpu::runtime::Runtime;
use vex_gpu::timing::DeviceSpec;
use vex_trace::container::TraceReader;

const N: usize = 256;

struct Sweep {
    dst: DevicePtr,
    value: f32,
}

impl Kernel for Sweep {
    fn name(&self) -> &str {
        "sweep"
    }
    fn instr_table(&self) -> InstrTable {
        InstrTableBuilder::new().store(Pc(0), ScalarType::F32, MemSpace::Global).build()
    }
    fn execute(&self, ctx: &mut ThreadCtx<'_>) {
        let i = ctx.global_thread_id();
        if i < N {
            ctx.store(Pc(0), self.dst.addr() + (i * 4) as u64, self.value);
        }
    }
}

/// Four sweeps over one buffer.
fn sweep(rt: &mut Runtime) {
    let dst = rt.malloc((N * 4) as u64, "buf").unwrap();
    for i in 0..4 {
        rt.launch(&Sweep { dst, value: i as f32 }, Dim3::linear(2), Dim3::linear(128)).unwrap();
    }
}

fn builder(shards: usize, depth: usize) -> ProfilerBuilder {
    ValueExpert::builder()
        .coarse(true)
        .fine(true)
        .reuse_distance(32)
        .race_detection(true)
        .analysis_shards(shards)
        .analysis_queue_depth(depth)
}

fn pipelined_run(shards: usize, depth: usize) -> (Runtime, ValueExpert) {
    let mut rt = Runtime::new(DeviceSpec::test_small());
    let vex = builder(shards, depth).attach(&mut rt);
    sweep(&mut rt);
    (rt, vex)
}

/// A streamed replay outrunning a slow consumer — a depth-1 pipeline fed
/// a four-record batch per frame as fast as the trace decodes — must
/// block, never drop or reorder: the report matches the live session's.
#[test]
fn fast_producer_slow_consumer_loses_nothing() {
    let make = || builder(2, 1).buffer_capacity(4);
    let mut rt = Runtime::new(DeviceSpec::test_small());
    let live = make().attach(&mut rt);
    sweep(&mut rt);
    let expected = live.report(&rt).to_json().unwrap();

    let mut rt = Runtime::new(DeviceSpec::test_small());
    let recording = make().record(&mut rt, Vec::new()).unwrap();
    sweep(&mut rt);
    let bytes = recording.finish(&mut rt).unwrap();
    let reader = TraceReader::new(bytes.as_slice()).unwrap();
    let replayed = make().replay_reader(reader).unwrap();
    assert_eq!(replayed.to_json().unwrap(), expected);
}

/// Analysis shutting down mid-stream (the session dropped while the
/// application keeps launching kernels) must never block or panic the
/// application thread: publishes into the stopped pipeline return at
/// once.
#[test]
fn consumer_shutdown_mid_stream_never_blocks_the_producer() {
    for shards in [1, 2, 8] {
        let (mut rt, vex) = pipelined_run(shards, 1);
        drop(vex);
        sweep(&mut rt);
    }
}

/// Dropping a pipelined session without ever asking for a report must
/// stop and join every worker — no detached threads, no deadlock.
#[test]
fn pipelined_session_drops_cleanly_without_report() {
    for shards in [1, 2, 8] {
        let (rt, vex) = pipelined_run(shards, 4);
        drop(vex);
        drop(rt);
    }
}

/// The flush barrier is idempotent: repeated reports from one session
/// return byte-identical profiles.
#[test]
fn pipelined_report_is_repeatable() {
    let (rt, vex) = pipelined_run(2, 64);
    let a = vex.report(&rt);
    let b = vex.report(&rt);
    assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    assert_eq!(a.render_text(), b.render_text());
}

/// A queue depth of one maximizes back-pressure on the application
/// thread; the report must still match a deep-queue run exactly.
#[test]
fn queue_depth_one_still_produces_identical_reports() {
    let (rt_deep, vex_deep) = pipelined_run(2, 256);
    let (rt_shallow, vex_shallow) = pipelined_run(2, 1);
    assert_eq!(
        vex_deep.report(&rt_deep).to_json().unwrap(),
        vex_shallow.report(&rt_shallow).to_json().unwrap()
    );
}
