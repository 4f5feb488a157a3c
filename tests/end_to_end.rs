//! Cross-crate integration: full platform sessions driven through the
//! public facade, checking paper-level invariants.

use scan::platform::config::{RewardKind, ScanConfig, VariableParams};
use scan::platform::sweep::run_replicated;
use scan::platform::Platform;
use scan::sched::alloc::AllocationPolicy;
use scan::sched::scaling::ScalingPolicy;

fn cfg(scaling: ScalingPolicy, interval: f64, seed: u64) -> ScanConfig {
    let mut cfg = ScanConfig::new(VariableParams::fig4(scaling, interval), seed);
    cfg.fixed.sim_time_tu = 500.0;
    cfg
}

#[test]
fn accounting_identity_holds() {
    // profit/run × completed == total reward − total cost.
    let m = Platform::new(cfg(ScalingPolicy::Predictive, 2.4, 1), 0).run();
    assert!(m.jobs_completed > 0);
    let lhs = m.profit_per_run * m.jobs_completed as f64;
    let rhs = m.total_reward - m.total_cost;
    assert!((lhs - rhs).abs() < 1e-6 * rhs.abs().max(1.0), "{lhs} vs {rhs}");
    // Reward-to-cost consistent with the same totals.
    assert!((m.reward_to_cost - m.total_reward / m.total_cost).abs() < 1e-9);
}

#[test]
fn latency_beats_serial_baseline() {
    // The whole point of SCAN: parallelised pipelines complete much
    // faster than the serial execution of the same mean job (~31 TU for
    // d = 5 units at the paper's coefficients).
    let m = Platform::new(cfg(ScalingPolicy::Predictive, 2.5, 2), 0).run();
    let serial = scan::workload::gatk::PipelineModel::paper().serial_latency(5.0);
    assert!(
        m.mean_latency < 0.7 * serial,
        "mean latency {} should be well under the serial {}",
        m.mean_latency,
        serial
    );
}

#[test]
fn never_scale_never_pays_public_prices() {
    for interval in [0.8, 2.0, 3.0] {
        let m = Platform::new(cfg(ScalingPolicy::NeverScale, interval, 3), 0).run();
        assert_eq!(m.public_core_tu_share, 0.0, "interval {interval}");
    }
}

#[test]
fn saturation_hurts_never_scale_most() {
    // At a saturating load the never-scale baseline must do strictly
    // worse than predictive scaling (the Fig. 4 busy end).
    // Kept short: saturated sessions are expensive in debug builds, and
    // the policy gap is already decisive within 350 TU.
    let mut never = cfg(ScalingPolicy::NeverScale, 0.5, 4);
    let mut pred = cfg(ScalingPolicy::Predictive, 0.5, 4);
    never.fixed.sim_time_tu = 350.0;
    pred.fixed.sim_time_tu = 350.0;
    let mn = run_replicated(&never, 2);
    let mp = run_replicated(&pred, 2);
    assert!(
        mp.profit_per_run.mean() > mn.profit_per_run.mean(),
        "predictive {} should beat never-scale {} under saturation",
        mp.profit_per_run.mean(),
        mn.profit_per_run.mean()
    );
}

#[test]
fn always_scale_pays_premium_under_load() {
    let mut always = cfg(ScalingPolicy::AlwaysScale, 0.8, 5);
    let mut pred = cfg(ScalingPolicy::Predictive, 0.8, 5);
    always.fixed.sim_time_tu = 350.0;
    pred.fixed.sim_time_tu = 350.0;
    let ma = run_replicated(&always, 2);
    let mp = run_replicated(&pred, 2);
    assert!(ma.sessions.iter().any(|s| s.public_core_tu_share > 0.0));
    assert!(
        mp.profit_per_run.mean() >= ma.profit_per_run.mean(),
        "predictive {} vs always {}",
        mp.profit_per_run.mean(),
        ma.profit_per_run.mean()
    );
}

#[test]
fn throughput_reward_prefers_fast_plans() {
    let mut slow = cfg(ScalingPolicy::Predictive, 2.5, 6);
    slow.variable.reward = RewardKind::ThroughputBased;
    slow.forced_plan = Some(vec![(1, 1); 7]);
    let mut fast = slow.clone();
    fast.forced_plan = Some(vec![(1, 4), (6, 1), (1, 4), (4, 1), (1, 8), (1, 1), (1, 1)]);
    let ms = Platform::new(slow, 0).run();
    let mf = Platform::new(fast, 0).run();
    assert!(mf.mean_latency < ms.mean_latency);
    assert!(mf.total_reward > ms.total_reward);
}

#[test]
fn every_policy_pairing_completes_work() {
    for allocation in AllocationPolicy::all() {
        for scaling in ScalingPolicy::all() {
            let mut c = cfg(scaling, 2.6, 7);
            c.variable.allocation = allocation;
            c.fixed.sim_time_tu = 300.0;
            let m = Platform::new(c, 0).run();
            assert!(
                m.completion_rate() > 0.5,
                "{}/{} completed only {:.0}%",
                allocation.name(),
                scaling.name(),
                100.0 * m.completion_rate()
            );
        }
    }
}

#[test]
fn replication_is_deterministic_and_varied() {
    let c = cfg(ScalingPolicy::Predictive, 2.5, 8);
    let a = run_replicated(&c, 4);
    let b = run_replicated(&c, 4);
    assert_eq!(a.sessions, b.sessions, "same seeds, same results");
    // Distinct repetitions genuinely differ (different streams).
    assert!(a.profit_per_run.stddev() > 0.0);
}

#[test]
fn reshape_mode_changes_behaviour() {
    let mut base = cfg(ScalingPolicy::NeverScale, 2.3, 9);
    base.variable.allocation = AllocationPolicy::Greedy;
    let plain = Platform::new(base.clone(), 0).run();
    let mut reshaped = base.clone();
    reshaped.allow_reshape = true;
    let m = Platform::new(reshaped, 0).run();
    assert_eq!(plain.reshapes, 0);
    assert!(m.reshapes > 0, "heterogeneous mode should reshape workers");
}
