//! Ablation benches for the design choices DESIGN.md §8 calls out:
//!
//! * delay-cost lookahead (predictive scaling) vs blind policies, as
//!   session cost at a saturating load;
//! * knowledge-base advice on/off: allocator-chosen plans vs a fixed
//!   naive plan;
//! * reshape penalty magnitude: the heterogeneous configuration with the
//!   published 0.5 TU penalty vs a free-reshape counterfactual (penalty
//!   effects show up as profit differences, timed here through the same
//!   session path);
//! * the §VI learning extension: ε-greedy plan selection convergence.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use scan_bench::EXPERIMENT_SEED;
use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::Platform;
use scan_sched::learned::EpsilonGreedyPlanner;
use scan_sched::plan::{candidate_plans, evaluate_plan, PlanObjective};
use scan_sched::scaling::ScalingPolicy;
use scan_sim::SimRng;
use scan_workload::gatk::PipelineModel;
use scan_workload::reward::RewardFn;

fn session(scaling: ScalingPolicy, forced: Option<Vec<(u32, u32)>>, reshape: bool) -> f64 {
    let mut cfg = ScanConfig::new(VariableParams::fig4(scaling, 0.8), EXPERIMENT_SEED);
    cfg.fixed.sim_time_tu = 400.0;
    cfg.forced_plan = forced;
    cfg.allow_reshape = reshape;
    Platform::new(cfg, 0).run().profit_per_run
}

fn ablate_delay_cost_lookahead(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/scaling_policy_saturated");
    group.sample_size(10);
    for scaling in ScalingPolicy::all() {
        group.bench_with_input(BenchmarkId::from_parameter(scaling.name()), &scaling, |b, &s| {
            b.iter(|| black_box(session(s, None, false)))
        });
    }
    group.finish();
}

fn ablate_kb_advice(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/plan_source");
    group.sample_size(10);
    group.bench_function("kb_advised", |b| {
        b.iter(|| black_box(session(ScalingPolicy::Predictive, None, false)))
    });
    group.bench_function("naive_serial", |b| {
        b.iter(|| black_box(session(ScalingPolicy::Predictive, Some(vec![(1, 1); 7]), false)))
    });
    group.finish();
}

fn ablate_reshape(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/heterogeneous_workers");
    group.sample_size(10);
    group.bench_function("reshape_on", |b| {
        b.iter(|| black_box(session(ScalingPolicy::Predictive, None, true)))
    });
    group.bench_function("reshape_off", |b| {
        b.iter(|| black_box(session(ScalingPolicy::Predictive, None, false)))
    });
    group.finish();
}

fn ablate_learned_planner(c: &mut Criterion) {
    // How fast the §VI bandit converges onto the analytically-best arm.
    let model = PipelineModel::paper();
    let arms = candidate_plans(&model, 5.0);
    let objective = PlanObjective {
        reward: RewardFn::paper_time_based(),
        price_per_core_tu: 6.5,
        overhead_tu: 1.0,
    };
    c.bench_function("ablation/bandit_200_rounds", |b| {
        b.iter(|| {
            let mut planner = EpsilonGreedyPlanner::new(arms.clone(), 0.1);
            let mut rng = SimRng::from_seed_u64(9);
            for _ in 0..200 {
                let (idx, plan) = planner.select(&mut rng);
                let econ = evaluate_plan(&model, 5.0, &plan, &objective);
                planner.update(idx, econ.profit);
            }
            black_box(planner.best_arm())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2));
    targets = ablate_delay_cost_lookahead, ablate_kb_advice, ablate_reshape, ablate_learned_planner
}
criterion_main!(benches);
