//! Columnar trace-store economics: ingest cost per event against the
//! JSONL sink it replaces, query latency over a populated store, and the
//! on-disk footprint of the SCTS export against the equivalent JSONL.
//!
//! Targets: ingest ≤ 2× the JSONL sink per event, export ≥ 5× smaller
//! on disk. The byte counts are printed to stderr here; the end-to-end
//! store costs of a recorded session (`tracestore.ingest_ns_per_event`,
//! `tracestore.export_bytes`) are measured by `perfbench` (workload
//! `explain-session`, see `perfbench/README.md`).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::session::run_session_with;
use scan_sched::scaling::ScalingPolicy;
use scan_sim::{JsonlWriter, Observer, SimTime, TraceEvent};
use scan_tracestore::{Agg, EventKind, Filter, Query, TraceStore};

/// Captures a session's raw event stream so both sinks replay the exact
/// same events.
#[derive(Default)]
struct Capture {
    events: Vec<(SimTime, TraceEvent)>,
}

impl Observer for Capture {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        self.events.push((at, *event));
    }
}

fn captured_stream() -> Vec<(SimTime, TraceEvent)> {
    let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.0), 99);
    cfg.fixed.sim_time_tu = 300.0;
    let (_, capture) = run_session_with(&cfg, 0, Capture::default());
    capture.events
}

fn store_of(stream: &[(SimTime, TraceEvent)]) -> TraceStore {
    let mut store = TraceStore::new();
    for (at, event) in stream {
        store.ingest(*at, event);
    }
    store
}

fn bench_ingest(c: &mut Criterion) {
    let stream = captured_stream();
    let mut group = c.benchmark_group("tracestore");
    group.throughput(Throughput::Elements(stream.len() as u64));

    group.bench_function("ingest_store", |b| {
        b.iter(|| {
            let mut store = TraceStore::new();
            for (at, event) in &stream {
                store.ingest(*at, event);
            }
            black_box(store.events())
        })
    });

    // The sink the store replaces: same events through the JSONL writer
    // into an in-memory buffer (no filesystem noise in either side).
    group.bench_function("ingest_jsonl", |b| {
        b.iter(|| {
            let mut sink = JsonlWriter::new(Vec::<u8>::with_capacity(1 << 20));
            for (at, event) in &stream {
                sink.on_event(*at, event);
            }
            black_box(sink.into_inner().len())
        })
    });

    group.bench_function("export_bytes", |b| {
        let store = store_of(&stream);
        b.iter(|| black_box(store.to_bytes().len()))
    });

    group.finish();

    // Footprint report (informational; perfbench's `explain-session`
    // measures the export of a full recorded session).
    let store = store_of(&stream);
    let mut jsonl = JsonlWriter::new(Vec::<u8>::with_capacity(1 << 20));
    for (at, event) in &stream {
        jsonl.on_event(*at, event);
    }
    let jsonl_len = jsonl.into_inner().len();
    let scts_len = store.to_bytes().len();
    eprintln!(
        "tracestore footprint: {} events, jsonl {} B, scts {} B ({:.1}x smaller)",
        stream.len(),
        jsonl_len,
        scts_len,
        jsonl_len as f64 / scts_len as f64
    );
}

fn bench_query(c: &mut Criterion) {
    let stream = captured_stream();
    let store = store_of(&stream);
    let mut group = c.benchmark_group("tracestore");

    group.bench_function("query_p95_wait_by_tier", |b| {
        let query = Query::over(EventKind::SubtaskDispatched)
            .group_by("tier")
            .aggregate(Agg::P95, "waited_tu");
        b.iter(|| black_box(query.run(&store).expect("columns are declared in the schema")))
    });

    group.bench_function("query_filtered_bucketed_count", |b| {
        let query = Query::over(EventKind::ScalingDecision)
            .filter(Filter::EqLabel { column: "choice".into(), label: "wait".into() })
            .bucket_tu(50.0)
            .count();
        b.iter(|| black_box(query.run(&store).expect("choice is declared in the schema")))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_ingest, bench_query
}
criterion_main!(benches);
