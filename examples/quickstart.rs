//! Quickstart: run one SCAN platform session end to end.
//!
//! Builds the paper's evaluation setup — a hybrid private/public cloud, a
//! knowledge base bootstrapped from GATK profiling traces, the
//! reward-driven scheduler — submits ~90 minutes of simulated pipeline
//! jobs, and prints the headline economics.
//!
//! Run with: `cargo run --release --example quickstart`

use scan::platform::config::{ScanConfig, VariableParams};
use scan::platform::sweep::run_replicated;
use scan::platform::Platform;
use scan::sched::scaling::ScalingPolicy;

fn main() {
    // A Table I cell: predictive scaling, best-constant allocation,
    // time-based reward, public cores at 50 CU/TU, one batch of jobs
    // roughly every 2.5 TU.
    let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), 42);
    cfg.fixed.sim_time_tu = 2_000.0;

    println!("SCAN quickstart: one 2,000 TU session\n");
    let m = Platform::new(cfg.clone(), 0).run();
    println!("jobs submitted            : {}", m.jobs_submitted);
    println!(
        "pipeline runs completed   : {} ({:.1}%)",
        m.jobs_completed,
        100.0 * m.completion_rate()
    );
    println!("total reward              : {:>12.0} CU", m.total_reward);
    println!("total infrastructure cost : {:>12.0} CU", m.total_cost);
    println!("mean profit per run       : {:>12.1} CU", m.profit_per_run);
    println!("reward-to-cost ratio      : {:>12.2}", m.reward_to_cost);
    println!("mean pipeline latency     : {:>12.2} TU", m.mean_latency);
    println!("95th percentile latency   : {:>12.2} TU", m.p95_latency);
    println!("worker utilisation        : {:>12.2}", m.worker_utilisation);
    println!("public-tier core-TU share : {:>12.2}", m.public_core_tu_share);
    println!("workers hired             : {:>12}", m.vms_hired);

    // The paper's methodology: repeat with independent seeds, report
    // mean ± one standard deviation.
    println!("\nReplicated 5x (mean ± σ):");
    let r = run_replicated(&cfg, 5);
    println!(
        "profit per run  : {:>8.1} ± {:.1} CU",
        r.profit_per_run.mean(),
        r.profit_per_run.stddev()
    );
    println!(
        "reward-to-cost  : {:>8.2} ± {:.2}",
        r.reward_to_cost.mean(),
        r.reward_to_cost.stddev()
    );
    println!(
        "mean latency    : {:>8.2} ± {:.2} TU",
        r.mean_latency.mean(),
        r.mean_latency.stddev()
    );
}
