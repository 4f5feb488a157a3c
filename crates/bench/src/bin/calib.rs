//! Calibration grid over idle timeout × throttle × overhead factor
//! (development tool, not a paper artefact).
use scan_bench::EXPERIMENT_SEED;
use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::Platform;
use scan_sched::scaling::ScalingPolicy;

fn main() {
    let timeout = 2.0f64;
    let throttle = false;
    for &interval in &[0.5f64, 0.6, 0.7, 0.8, 1.0, 1.2, 1.6, 2.0, 3.0] {
        let mut cfg = ScanConfig::new(
            VariableParams::fig4(ScalingPolicy::Predictive, interval),
            EXPERIMENT_SEED,
        );
        cfg.fixed.sim_time_tu = 2000.0;
        cfg.fixed.idle_timeout_tu = timeout;
        cfg.fixed.private_hire_throttle = throttle;
        cfg.fixed.overhead_price_factor =
            std::env::var("OPF").ok().and_then(|v| v.parse().ok()).unwrap_or(1.6);
        cfg.variable.scaling = match std::env::var("SCALING").as_deref() {
            Ok("always") => ScalingPolicy::AlwaysScale,
            Ok("never") => ScalingPolicy::NeverScale,
            _ => ScalingPolicy::Predictive,
        };
        let m = Platform::new(cfg, 0).run();
        println!(
            "int {interval:3.1} to {timeout:3.1} thr {} | profit {:8.1} lat {:6.2} util {:4.2} vms {:6} q {:5.1} cs {:4.1}",
            throttle as u8, m.profit_per_run, m.mean_latency, m.worker_utilisation,
            m.vms_hired, m.mean_queue_len, m.mean_core_stages
        );
    }
}
