//! Observability-layer overhead: the cost of the trace dispatch itself
//! (disabled vs null-sink vs ring-buffer emit) and of a whole session run
//! with and without an extra observer attached. The acceptance criterion
//! is that the disabled path and the session-level null-observer overhead
//! are both in the noise.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::session::run_session_with;
use scan_platform::Platform;
use scan_sched::scaling::ScalingPolicy;
use scan_sim::{NullObserver, RingBuffer, SimTime, TraceEvent, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

fn ev(i: u64) -> TraceEvent {
    TraceEvent::SubtaskDone { job: i, stage: (i % 7) as u32, vm: i % 64 }
}

fn bench_emit(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracer");

    group.bench_function("emit_disabled", |b| {
        let tracer = Tracer::disabled();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            tracer.emit(SimTime::new(i as f64), black_box(ev(i)));
        })
    });

    group.bench_function("emit_with_disabled", |b| {
        let tracer = Tracer::disabled();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            tracer.emit_with(SimTime::new(i as f64), || black_box(ev(i)));
        })
    });

    group.bench_function("emit_null_sink", |b| {
        let mut tracer = Tracer::disabled();
        tracer.attach(Rc::new(RefCell::new(NullObserver)));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            tracer.emit(SimTime::new(i as f64), black_box(ev(i)));
        })
    });

    group.bench_function("emit_ring_buffer", |b| {
        let mut tracer = Tracer::disabled();
        tracer.attach(Rc::new(RefCell::new(RingBuffer::new(4096))));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            tracer.emit(SimTime::new(i as f64), black_box(ev(i)));
        })
    });

    group.finish();
}

fn short_config() -> ScanConfig {
    let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), 99);
    cfg.fixed.sim_time_tu = 150.0;
    cfg
}

fn bench_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("session");
    group.sample_size(10);

    group.bench_function("aggregator_only", |b| {
        let cfg = short_config();
        b.iter(|| black_box(Platform::new(cfg.clone(), 0).run()))
    });

    group.bench_function("aggregator_plus_null_observer", |b| {
        let cfg = short_config();
        b.iter(|| black_box(run_session_with(&cfg, 0, NullObserver)))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_emit, bench_session
}
criterion_main!(benches);
