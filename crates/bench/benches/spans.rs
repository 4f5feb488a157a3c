//! Span-derivation economics: what the causal-span observer adds to the
//! instrumented ingest path, and what the downstream consumers cost.
//!
//! Target: `session_recorder` (a full traced session —
//! store + incremental span stitching) within 5% of `session_store`
//! (the same session with the store alone). The observer earns that by
//! ignoring the high-volume kinds (`subtask_done`, `queue_depth`,
//! `scaling_decision`) entirely — only seven event kinds carry span
//! information — so its per-event work is a fraction of the columnar
//! append it rides along with, which is itself a fraction of simulating
//! the event. The replay-level `ingest_*` benches below isolate the
//! per-sink costs outside the simulation for diagnosis.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::session::run_session_with;
use scan_sched::scaling::ScalingPolicy;
use scan_sim::{Observer, SimTime, TraceEvent};
use scan_spans::{aggregate, derive, export, render, Recorder, SpanObserver};
use scan_tracestore::TraceStore;

/// The medium fig4 cell every trace bench uses (same as
/// `benches/tracestore.rs`), with the SLO monitor armed.
fn cell() -> ScanConfig {
    let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.0), 99);
    cfg.fixed.sim_time_tu = 300.0;
    cfg.slo_target_tu = Some(cfg.breakeven_latency_tu());
    cfg
}

/// Captures a session's raw event stream so the replay benches feed
/// every sink the exact same events.
#[derive(Default)]
struct Capture {
    events: Vec<(SimTime, TraceEvent)>,
}

impl Observer for Capture {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        self.events.push((at, *event));
    }
}

fn bench_spans(c: &mut Criterion) {
    let cfg = cell();
    let (_, capture) = run_session_with(&cfg, 0, Capture::default());
    let stream = capture.events;
    let mut group = c.benchmark_group("spans");
    group.throughput(Throughput::Elements(stream.len() as u64));

    // The ingest path as sessions actually run it: simulate + store.
    group.bench_function("session_store", |b| {
        b.iter(|| {
            let (metrics, store) = run_session_with(&cfg, 0, TraceStore::new());
            black_box((metrics.jobs_completed, store.events()))
        })
    });

    // Simulate + store + incremental span stitching — the ≤5% criterion
    // compares this against `session_store`.
    group.bench_function("session_recorder", |b| {
        b.iter(|| {
            let (metrics, rec) = run_session_with(&cfg, 0, Recorder::default());
            black_box((metrics.jobs_completed, rec.store.events(), rec.spans.completed()))
        })
    });

    // Replay-level isolation: the same captured events through each sink
    // without the simulation around them.
    group.bench_function("ingest_store", |b| {
        b.iter(|| {
            let mut store = TraceStore::new();
            for (at, event) in &stream {
                store.ingest(*at, event);
            }
            black_box(store.events())
        })
    });

    group.bench_function("ingest_recorder", |b| {
        b.iter(|| {
            let mut rec = Recorder::default();
            for (at, event) in &stream {
                rec.on_event(*at, event);
            }
            black_box((rec.store.events(), rec.spans.completed()))
        })
    });

    group.bench_function("ingest_observer_only", |b| {
        b.iter(|| {
            let mut obs = SpanObserver::new();
            for (at, event) in &stream {
                obs.on_event(*at, event);
            }
            black_box(obs.completed())
        })
    });

    group.finish();

    let mut rec = Recorder::default();
    for (at, event) in &stream {
        rec.on_event(*at, event);
    }
    let store = rec.store;
    let spans = rec.spans.into_spans();

    let mut group = c.benchmark_group("spans");
    group.bench_function("derive_batch", |b| b.iter(|| black_box(derive(&store).jobs.len())));
    group.bench_function("aggregate_report", |b| {
        b.iter(|| black_box(render(&aggregate(&spans)).len()))
    });
    group.bench_function("perfetto_export", |b| b.iter(|| black_box(export(&store, &spans).len())));
    group.finish();

    eprintln!(
        "spans footprint: {} events -> {} jobs ({} in flight), perfetto {} B",
        stream.len(),
        spans.jobs.len(),
        spans.in_flight,
        export(&store, &spans).len()
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_spans
}
criterion_main!(benches);
