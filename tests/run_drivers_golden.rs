//! Bit-level pins of the run drivers: replicated means, an observed
//! two-cell sweep and a merged fleet store, as `f64::to_bits`/`u64`.
//! Any change to how sessions are seeded, ordered or folded shows up
//! here as a changed constant, not only as a changed CI digest.

use scan::platform::config::{ScanConfig, VariableParams};
use scan::platform::fleet::{run_fleet_replicated_with, FleetConfig};
use scan::platform::sweep::{run_replicated, sweep_grid_with};
use scan::platform::DecisionStatsFactory;
use scan::sched::scaling::ScalingPolicy;
use scan::tracestore::TraceStoreFactory;

fn cfg(policy: ScalingPolicy, interval: f64, seed: u64, horizon: f64) -> ScanConfig {
    let mut cfg = ScanConfig::new(VariableParams::fig4(policy, interval), seed);
    cfg.fixed.sim_time_tu = horizon;
    cfg
}

#[test]
fn golden_replicated_means() {
    let r = run_replicated(&cfg(ScalingPolicy::Predictive, 2.5, 41, 200.0), 3);
    let bits = [
        r.profit_per_run.mean().to_bits(),
        r.reward_to_cost.mean().to_bits(),
        r.mean_latency.mean().to_bits(),
        r.completion_rate.mean().to_bits(),
        r.public_share.mean().to_bits(),
        r.utilisation.mean().to_bits(),
        r.core_stages.mean().to_bits(),
        r.profit_per_run.stddev().to_bits(),
    ];
    assert_eq!(
        bits,
        [
            0x406aeead22656625,
            0x3ff6d5210d4cc9c4,
            0x4030e728ca7b95a3,
            0x3fed8842b6f13128,
            0x0000000000000000,
            0x3fdf2ea5a07a8ad7,
            0x404d800000000000,
            0x40163cc823c35c72,
        ]
    );
}

#[test]
fn golden_observed_sweep() {
    let cells = [
        VariableParams::fig4(ScalingPolicy::Predictive, 0.9),
        VariableParams::fig4(ScalingPolicy::AlwaysScale, 2.5),
    ];
    let base = cfg(ScalingPolicy::Predictive, 2.5, 43, 150.0);
    let got: Vec<[u64; 7]> = sweep_grid_with(&base, &cells, 2, &DecisionStatsFactory)
        .iter()
        .map(|c| {
            [
                c.metrics.profit_per_run.mean().to_bits(),
                c.metrics.mean_latency.mean().to_bits(),
                c.stats.hire_decisions(),
                c.stats.wait_decisions(),
                c.stats.depth_samples(),
                c.stats.mean_depth().to_bits(),
                c.stats.total_cost().to_bits(),
            ]
        })
        .collect();
    assert_eq!(
        got,
        [
            [
                0x406b99f790fa467e,
                0x403091f5ccbe6032,
                3001,
                7257,
                37094,
                0x401890b5502e280e,
                0x411be1df9bacec13,
            ],
            [
                0x406ad9cfd967918a,
                0x4030ddd93be84f81,
                2791,
                0,
                14645,
                0x401b6a5e381caaf5,
                0x41030025fdce1074
            ],
        ]
    );
}

#[test]
fn golden_fleet_store_digest() {
    let base = cfg(ScalingPolicy::Predictive, 2.5, 47, 400.0);
    let mut fleet = FleetConfig::new(base, 3);
    fleet.shared_private_cores = 24;
    fleet.jobs_per_tenant = 4;
    let (metrics, store) = run_fleet_replicated_with(&fleet, 2, &TraceStoreFactory::fleet(3));
    let got = [
        store.digest(),
        store.events(),
        metrics.iter().map(|m| m.jobs_completed).sum(),
        metrics[1].total_cost.to_bits(),
    ];
    assert_eq!(got, [0x5ff14c7a606ba4fb, 5592, 24, 0x40ec318816442d09]);
}
