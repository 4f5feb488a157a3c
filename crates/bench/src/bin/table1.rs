//! Table I — "Variable simulation parameters".
//!
//! Prints the grid exactly as published and smoke-runs one short session
//! for a representative cell of every policy combination, proving each of
//! the 4 × 3 = 12 algorithm pairings executes.
//!
//! Usage: `cargo run --release -p scan-bench --bin table1`

use scan_bench::EXPERIMENT_SEED;
use scan_platform::config::{ParameterGrid, ScanConfig, VariableParams};
use scan_platform::Platform;

fn main() {
    let grid = ParameterGrid::paper();

    println!("Table I: variable simulation parameters\n");
    println!(
        "  Resource allocation algorithm : {}",
        grid.allocations.iter().map(|a| a.name()).collect::<Vec<_>>().join(", ")
    );
    println!(
        "  Horizontal scaling algorithm  : {}",
        grid.scalings.iter().map(|s| s.name()).collect::<Vec<_>>().join(", ")
    );
    println!(
        "  Mean job inter-arrival (TU)   : {}",
        grid.intervals.iter().map(|i| format!("{i:.1}")).collect::<Vec<_>>().join(", ")
    );
    println!(
        "  Task completion reward fn     : {}",
        grid.rewards.iter().map(|r| r.name()).collect::<Vec<_>>().join(", ")
    );
    println!(
        "  Public tier core cost (CU/TU) : {}",
        grid.public_costs.iter().map(|c| format!("{c:.0}")).collect::<Vec<_>>().join(", ")
    );
    println!("\n  Total grid cells: {}\n", grid.n_cells());

    println!("Smoke run (500 TU, 1 repetition) of each allocation x scaling pairing:");
    println!(
        "{:>20} | {:>13} | {:>9} | {:>10} | {:>8}",
        "allocation", "scaling", "completed", "profit/run", "latency"
    );
    println!("{}", "-".repeat(74));
    for &allocation in &grid.allocations {
        for &scaling in &grid.scalings {
            let v = VariableParams {
                allocation,
                scaling,
                mean_interval: 2.5,
                reward: grid.rewards[0],
                public_core_cost: 50.0,
            };
            let mut cfg = ScanConfig::new(v, EXPERIMENT_SEED);
            cfg.fixed.sim_time_tu = 500.0;
            let m = Platform::new(cfg, 0).run();
            println!(
                "{:>20} | {:>13} | {:>9} | {:>10.1} | {:>8.2}",
                allocation.name(),
                scaling.name(),
                m.jobs_completed,
                m.profit_per_run,
                m.mean_latency
            );
        }
    }
}
