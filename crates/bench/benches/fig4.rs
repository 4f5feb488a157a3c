//! Figure 4 as a bench target: times one reduced-horizon session per
//! horizontal-scaling policy at a busy and a quiet load point — the same
//! code path the `fig4` binary sweeps at full scale.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use scan_bench::EXPERIMENT_SEED;
use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::Platform;
use scan_sched::scaling::ScalingPolicy;

fn bench_fig4_sessions(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4/session_500tu");
    group.sample_size(10);
    for scaling in ScalingPolicy::all() {
        for &interval in &[0.8f64, 2.5] {
            let label = format!("{}@{interval}", scaling.name());
            group.bench_with_input(
                BenchmarkId::from_parameter(&label),
                &(scaling, interval),
                |b, &(scaling, interval)| {
                    b.iter(|| {
                        let mut cfg = ScanConfig::new(
                            VariableParams::fig4(scaling, interval),
                            EXPERIMENT_SEED,
                        );
                        cfg.fixed.sim_time_tu = 500.0;
                        let m = Platform::new(cfg, 0).run();
                        assert!(m.jobs_completed > 0);
                        black_box(m.profit_per_run)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_fig4_sessions
}
criterion_main!(benches);
