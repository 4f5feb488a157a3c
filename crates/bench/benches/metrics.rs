//! Metrics-layer overhead: the cost of one update through a disabled
//! [`Metrics`] handle (the acceptance bar is "a few ns per event" — the
//! same class as the disabled tracer emit), the enabled-path cost for
//! scale, and a whole session run instrumented vs plain. The session
//! pair is the ledger entry that proves the registry stays out of the
//! hot path when nobody asked for metrics.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use scan_metrics::{Metrics, SeriesKind};
use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::Platform;
use scan_sched::scaling::ScalingPolicy;

fn bench_handle(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");

    group.bench_function("counter_add_disabled", |b| {
        let m = Metrics::disabled();
        let id = Metrics::enabled(5.0)
            .with_registry(|r| r.counter("bench_total", "", "", "1", "bench"))
            .unwrap();
        b.iter(|| m.counter_add(black_box(id), 1))
    });

    group.bench_function("histogram_record_disabled", |b| {
        let m = Metrics::disabled();
        let id = Metrics::enabled(5.0)
            .with_registry(|r| r.histogram("bench_tu", "", "", "tu", "bench"))
            .unwrap();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            m.record(black_box(id), i as f64);
        })
    });

    group.bench_function("counter_add_enabled", |b| {
        let m = Metrics::enabled(5.0);
        let id = m.with_registry(|r| r.counter("bench_total", "", "", "1", "bench")).unwrap();
        b.iter(|| m.counter_add(black_box(id), 1))
    });

    group.bench_function("histogram_record_enabled", |b| {
        let m = Metrics::enabled(5.0);
        let id = m.with_registry(|r| r.histogram("bench_tu", "", "", "tu", "bench")).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            m.record(black_box(id), (i % 1024) as f64 + 0.5);
        })
    });

    group.bench_function("series_sample_enabled", |b| {
        let m = Metrics::enabled(5.0);
        let id = m
            .with_registry(|r| {
                r.series(SeriesKind::TimeWeightedMean, "bench_util", "", "", "ratio", "bench")
            })
            .unwrap();
        let mut t = 0.0f64;
        b.iter(|| {
            t += 0.25;
            m.sample(black_box(id), t, 0.5);
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
    let mut group = c.benchmark_group("metrics_session");
    group.sample_size(10);

    group.bench_function("plain", |b| {
        let cfg = short_config();
        b.iter(|| black_box(Platform::new(cfg.clone(), 0).run()))
    });

    group.bench_function("instrumented", |b| {
        let cfg = short_config();
        b.iter(|| {
            let metrics = Metrics::enabled(5.0);
            let mut platform = Platform::new(cfg.clone(), 0);
            platform.set_metrics(&metrics);
            black_box((platform.run(), metrics.into_registry()))
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_handle, bench_session
}
criterion_main!(benches);
