//! Figure 5 as a bench target: times reduced-horizon heterogeneous
//! (reshape-enabled) sessions at three points of the core-stage ladder —
//! serial, the sweet spot, and over-provisioned.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use scan_bench::EXPERIMENT_SEED;
use scan_platform::config::{RewardKind, ScanConfig, VariableParams};
use scan_platform::Platform;
use scan_sched::alloc::AllocationPolicy;
use scan_sched::scaling::ScalingPolicy;

fn bench_fig5_points(c: &mut Criterion) {
    let plans: [(&str, Vec<(u32, u32)>); 3] = [
        ("serial-7", vec![(1, 1); 7]),
        ("sweet-20", vec![(1, 2), (4, 1), (1, 2), (4, 1), (1, 8), (1, 1), (1, 1)]),
        ("heavy-67", vec![(1, 8), (6, 1), (2, 8), (6, 2), (1, 16), (1, 8), (1, 1)]),
    ];
    let mut group = c.benchmark_group("fig5/session_500tu");
    group.sample_size(10);
    for (name, plan) in &plans {
        group.bench_with_input(BenchmarkId::from_parameter(name), plan, |b, plan| {
            b.iter(|| {
                let mut cfg = ScanConfig::new(
                    VariableParams {
                        allocation: AllocationPolicy::BestConstant,
                        scaling: ScalingPolicy::Predictive,
                        mean_interval: 2.0,
                        reward: RewardKind::ThroughputBased,
                        public_core_cost: 50.0,
                    },
                    EXPERIMENT_SEED,
                );
                cfg.fixed.sim_time_tu = 500.0;
                cfg.allow_reshape = true;
                cfg.forced_plan = Some(plan.clone());
                let m = Platform::new(cfg, 0).run();
                black_box(m.reward_to_cost)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_fig5_points
}
criterion_main!(benches);
