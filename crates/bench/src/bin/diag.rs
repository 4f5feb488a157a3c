//! Diagnostic dump of one session per scaling policy (not a paper
//! artefact; used to calibrate and sanity-check the simulation).

use scan_bench::EXPERIMENT_SEED;
use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::Platform;
use scan_sched::scaling::ScalingPolicy;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let interval: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2.0);
    let sim: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2000.0);
    for scaling in
        [ScalingPolicy::Predictive, ScalingPolicy::AlwaysScale, ScalingPolicy::NeverScale]
    {
        let mut cfg = ScanConfig::new(VariableParams::fig4(scaling, interval), EXPERIMENT_SEED);
        cfg.fixed.sim_time_tu = sim;
        let m = Platform::new(cfg, 0).run();
        println!("--- {} @ interval {interval} ---", scaling.name());
        println!(
            "  submitted {} completed {} ({:.1}%)",
            m.jobs_submitted,
            m.jobs_completed,
            100.0 * m.completion_rate()
        );
        println!(
            "  reward {:.0} cost {:.0} profit/run {:.1} r/c {:.2}",
            m.total_reward, m.total_cost, m.profit_per_run, m.reward_to_cost
        );
        println!(
            "  latency mean {:.2} p95 {:.2} | queue mean {:.1} peak {}",
            m.mean_latency, m.p95_latency, m.mean_queue_len, m.peak_queue_len
        );
        println!(
            "  util {:.2} public-share {:.2} core-stages {:.1} vms {} reshapes {} events {}",
            m.worker_utilisation,
            m.public_core_tu_share,
            m.mean_core_stages,
            m.vms_hired,
            m.reshapes,
            m.events
        );
    }
}
