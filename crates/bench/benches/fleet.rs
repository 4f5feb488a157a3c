//! Whole-fleet throughput: run-to-completion multi-tenant fleets at
//! 100, 1 000 and 10 000 tenants on one shared provider pool.
//!
//! Each iteration is a complete fleet run — M platform constructions
//! (knowledge-base bootstrap included; at scale that is the dominant
//! cost) plus the single tenant-tagged event loop to drain. Throughput
//! is `Throughput::Elements(jobs)`, so the printed `elem/s` is
//! **jobs/sec**. The benchmark that compares commits is `perfbench`
//! (workload `fleet-tenants`, see `perfbench/README.md`).
//!
//! Sample counts are deliberately tiny: the 10k-tenant fleet takes
//! minutes per iteration, and fleet runs are deterministic, so extra
//! samples measure the allocator, not the platform.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use scan_bench::fleet_cfg;
use scan_platform::fleet::run_fleet_with;
use scan_sim::NullObserverFactory;

fn bench_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    for &tenants in &[100u16, 1_000, 10_000] {
        let cfg = fleet_cfg(tenants);
        group.throughput(Throughput::Elements(tenants as u64 * cfg.jobs_per_tenant));
        group.bench_function(format!("tenants/{tenants}"), |b| {
            b.iter(|| black_box(run_fleet_with(&cfg, 0, &NullObserverFactory).0.jobs_completed))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(2)
        .warm_up_time(std::time::Duration::from_millis(1))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_fleet
}
criterion_main!(benches);
