//! Multi-tenant fleet smoke + throughput: runs whole fleets to
//! completion at several tenant counts, printing a deterministic
//! per-replication summary on stdout and wall-clock jobs/sec on stderr.
//!
//! The deterministic stdout is the CI smoke contract: the fleet result is
//! a pure function of `(seed, repetition)`, so two invocations — under
//! *different* `RAYON_NUM_THREADS` — must emit byte-identical stdout.
//!
//! Usage: `cargo run --release -p scan-bench --bin fleet [--quick]
//! [--store <path>] [--spans <path> [--slowest N]]` (`--quick` runs the
//! 100-tenant point only; `SCAN_TENANTS=100,1000` overrides the
//! tenant-count axis.)
//!
//! `--store <path>` additionally re-runs the first axis point's fleet
//! with one columnar trace store per tenant session and writes the
//! merged SCTS export (see `docs/TRACESTORE.md`). Like the stdout
//! contract, the merged export is bit-identical across
//! `RAYON_NUM_THREADS` — CI diffs the files from a 1-thread and an
//! 8-thread invocation.
//!
//! `--spans <path>` likewise re-runs the first axis point's fleet with a
//! span-deriving recorder per tenant session and writes the Perfetto
//! timeline of repetition 0 plus the merged critical-path report at
//! `<path>.txt` (with the `--slowest N` job table; see `docs/SPANS.md`).
//! The report covers every repetition and is bit-identical across
//! `RAYON_NUM_THREADS` — CI compares those files too.

use scan_bench::{
    dump_fleet_spans, dump_fleet_store, fleet_cfg, path_flag_from_args, spans_flags_from_args,
};
use scan_platform::fleet::run_fleet_replicated_with;
use scan_sim::NullObserverFactory;
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let axis: Vec<u16> = match std::env::var("SCAN_TENANTS") {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => {
            if quick {
                vec![100]
            } else {
                vec![100, 1_000, 10_000]
            }
        }
    };
    let reps = 2u64;
    println!("fleet: run-to-completion multi-tenant fleets ({reps} replications each)");
    if let (Some(path), Some(&tenants)) = (path_flag_from_args("store"), axis.first()) {
        dump_fleet_store(&fleet_cfg(tenants), reps, &path);
    }
    let (spans_path, slowest) = spans_flags_from_args();
    if let (Some(path), Some(&tenants)) = (spans_path, axis.first()) {
        dump_fleet_spans(&fleet_cfg(tenants), reps, &path, slowest);
    }
    for &tenants in &axis {
        let cfg = fleet_cfg(tenants);
        let t0 = Instant::now();
        let (runs, ()) = run_fleet_replicated_with(&cfg, reps, &NullObserverFactory);
        let wall = t0.elapsed().as_secs_f64();
        let jobs: u64 = runs.iter().map(|m| m.jobs_completed).sum();
        for (rep, m) in runs.iter().enumerate() {
            println!(
                "tenants={tenants} rep={rep} submitted={} completed={} deferred={} \
                 peak_shared={} events={} ended_at={:.3}",
                m.jobs_submitted,
                m.jobs_completed,
                m.jobs_deferred,
                m.peak_shared_cores,
                m.events,
                m.ended_at_tu
            );
        }
        eprintln!(
            "tenants={tenants}: {jobs} jobs in {wall:.2}s = {:.0} jobs/s",
            jobs as f64 / wall
        );
    }
}
