//! §7 "ValueExpert vs GVProf": the three advantages the paper claims
//! must be demonstrable against our GVProf baseline implementation —
//! larger analysis scope (cross-API redundancy), richer insight (the
//! object/API attribution GVProf lacks), and lower measurement cost.

use std::sync::Arc;
use vex_core::overhead::OverheadModel;
use vex_core::prelude::*;
use vex_gpu::dim::Dim3;
use vex_gpu::exec::ThreadCtx;
use vex_gpu::ir::{InstrTable, InstrTableBuilder, MemSpace, Pc, ScalarType};
use vex_gpu::kernel::Kernel;
use vex_gpu::prelude::DevicePtr;
use vex_gpu::runtime::Runtime;
use vex_gpu::timing::DeviceSpec;
use vex_gvprof::GvProfSession;
use vex_trace::event::{Event, EventSink, EventSource, EventSourceConfig};

const N: usize = 1024;

struct Fill {
    dst: DevicePtr,
    value: f32,
}

impl Kernel for Fill {
    fn name(&self) -> &str {
        "fill"
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

/// The cross-kernel double-initialization scenario: memset zeros, then a
/// kernel rewrites the same zeros. The redundancy spans two GPU APIs.
fn run_cross_api(rt: &mut Runtime) {
    let dst = rt.malloc((N * 4) as u64, "buf").unwrap();
    rt.memset(dst, 0, (N * 4) as u64).unwrap();
    rt.launch(&Fill { dst, value: 0.0 }, Dim3::linear(4), Dim3::linear(256)).unwrap();
}

#[test]
fn valueexpert_sees_cross_api_redundancy_gvprof_does_not() {
    // GVProf: per-kernel scope. Within the fill kernel each address is
    // written once — no temporal redundancy visible.
    let mut rt = Runtime::new(DeviceSpec::test_small());
    let gv = GvProfSession::attach(&mut rt);
    run_cross_api(&mut rt);
    let gv_results = gv.results();
    assert_eq!(gv_results["fill"].redundant_stores, 0, "invisible to GVProf");

    // ValueExpert: snapshot diff across APIs flags the kernel's writes as
    // 100% redundant and attributes them to the object and API.
    let mut rt = Runtime::new(DeviceSpec::test_small());
    let vex = ValueExpert::builder().coarse(true).attach(&mut rt);
    run_cross_api(&mut rt);
    let p = vex.report(&rt);
    let hit =
        p.redundancies.iter().find(|r| r.api == "fill").expect("ValueExpert flags the kernel");
    assert_eq!(hit.fraction(), 1.0);
    assert_eq!(hit.object_label, "buf");
}

#[test]
fn gvprof_still_catches_intra_kernel_redundancy() {
    // Sanity: the baseline is a real profiler, not a strawman.
    struct DoubleWrite {
        dst: DevicePtr,
    }
    impl Kernel for DoubleWrite {
        fn name(&self) -> &str {
            "double_write"
        }
        fn instr_table(&self) -> InstrTable {
            InstrTableBuilder::new()
                .store(Pc(0), ScalarType::F32, MemSpace::Global)
                .store(Pc(1), ScalarType::F32, MemSpace::Global)
                .build()
        }
        fn execute(&self, ctx: &mut ThreadCtx<'_>) {
            let a = self.dst.addr() + (ctx.global_thread_id() * 4) as u64;
            ctx.store(Pc(0), a, 1.0f32);
            ctx.store(Pc(1), a, 1.0f32);
        }
    }
    let mut rt = Runtime::new(DeviceSpec::test_small());
    let gv = GvProfSession::attach(&mut rt);
    let dst = rt.malloc(32 * 4, "buf").unwrap();
    rt.launch(&DoubleWrite { dst }, Dim3::linear(1), Dim3::linear(32)).unwrap();
    let r = &gv.results()["double_write"];
    assert_eq!(r.store_redundancy(), 0.5);
}

#[test]
fn gvprof_overhead_is_an_order_of_magnitude_higher() {
    let spec = DeviceSpec::rtx2080ti();
    let model = OverheadModel::default();
    let workload = |rt: &mut Runtime| {
        let dst = rt.malloc((N * 4) as u64, "buf").unwrap();
        for _ in 0..20 {
            rt.launch(&Fill { dst, value: 1.0 }, Dim3::linear(4), Dim3::linear(256)).unwrap();
        }
    };

    // ValueExpert fine pass with the paper's sampling.
    let mut rt = Runtime::new(spec.clone());
    let vex = ValueExpert::builder()
        .coarse(false)
        .fine(true)
        .kernel_sampling(20)
        .block_sampling(4)
        .attach(&mut rt);
    workload(&mut rt);
    let p = vex.report(&rt);
    let ve_cost = p.overhead.fine_us;

    // GVProf: everything instrumented, CPU-side analysis.
    let mut rt = Runtime::new(spec.clone());
    let gv = GvProfSession::attach(&mut rt);
    workload(&mut rt);
    let gv_cost = model.gvprof_cost_us(&gv.collector_stats(), &spec);

    assert!(gv_cost > ve_cost * 10.0, "GVProf {gv_cost:.1}us vs ValueExpert {ve_cost:.1}us");
}

#[test]
fn collector_flush_counts_differ() {
    // GVProf's small synchronous buffer flushes far more often than
    // ValueExpert's large one for the same stream.
    let spec = DeviceSpec::test_small();
    let mut rt = Runtime::new(spec.clone());
    let gv = GvProfSession::attach(&mut rt);
    let dst = rt.malloc((N * 4) as u64, "buf").unwrap();
    for _ in 0..8 {
        rt.launch(&Fill { dst, value: 1.0 }, Dim3::linear(4), Dim3::linear(256)).unwrap();
    }
    let gv_stats = gv.collector_stats();

    // ValueExpert's collector at its default 64k-record buffer.
    let mut rt = Runtime::new(spec);
    let config =
        EventSourceConfig { api: false, coarse: false, fine: true, ..Default::default() };
    let source = EventSource::attach(
        &mut rt,
        config,
        Arc::new(vex_trace::AcceptAll),
        Arc::new(NullSink),
    );
    let dst = rt.malloc((N * 4) as u64, "buf").unwrap();
    for _ in 0..8 {
        rt.launch(&Fill { dst, value: 1.0 }, Dim3::linear(4), Dim3::linear(256)).unwrap();
    }
    assert_eq!(source.stats().events, gv_stats.events);
    assert!(gv_stats.flushes >= source.stats().flushes);

    struct NullSink;
    impl EventSink for NullSink {
        fn on_event(&self, _: &Event) {}
    }
}
