//! End-to-end session throughput: the repo's headline perf number.
//!
//! Every other bench in this suite times one subsystem in isolation; this
//! one times the whole thing — `Platform::new` + the full event loop — at
//! three arrival rates, plus one replicated sweep cell through the rayon
//! fan-out. The paper's evaluation is a 10-repetition fixed-seed sweep
//! over 1 056 cells, so sessions/second is exactly the number that bounds
//! how much of that grid we can afford to run; `scripts/bench.sh` records
//! these medians in `BENCH_PR*.json` so later PRs regress-gate against
//! the trajectory.
//!
//! Each full-session bench reports `Throughput::Elements(events)` where
//! `events` is the session's dispatched-event count (measured once in
//! setup — sessions are deterministic, so every iteration replays the
//! same event stream). The printed `elem/s` rate is therefore events/sec,
//! and `1 / mean-time` is sessions/sec.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::sweep::run_replicated;
use scan_platform::Platform;
use scan_sched::scaling::ScalingPolicy;

/// One fixed-seed fig4-shaped cell, 500 TU long: long enough that the
/// event loop dominates `Platform::new`'s knowledge-base bootstrap, short
/// enough that criterion gets real sample counts.
fn session_cfg(mean_interval: f64) -> ScanConfig {
    let mut cfg =
        ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, mean_interval), 42);
    cfg.fixed.sim_time_tu = 500.0;
    cfg
}

fn bench_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("session");

    // Arrival-rate axis: mean inter-arrival interval in TU (Table I sweeps
    // 2.0–3.0; lower interval = higher load = more events per session).
    for &(label, interval) in &[("small", 3.0), ("medium", 2.5), ("large", 2.0)] {
        let cfg = session_cfg(interval);
        let events = Platform::new(cfg.clone(), 0).run().events;
        group.throughput(Throughput::Elements(events));
        group.bench_function(format!("full/{label}"), |b| {
            b.iter(|| black_box(Platform::new(cfg.clone(), 0).run().jobs_completed))
        });
    }

    // One sweep cell as the grid runs it: N seeded repetitions fanned out
    // over rayon and folded deterministically. This is the macro shape of
    // `sweep_grid_with` — per-cell wall time, not per-session.
    let cfg = session_cfg(2.5);
    group.throughput(Throughput::Elements(4));
    group.bench_function("sweep_cell/medium_x4", |b| {
        b.iter(|| black_box(run_replicated(&cfg, 4).n()))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_session
}
criterion_main!(benches);
