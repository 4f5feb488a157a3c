//! Replicated runs and parameter-grid sweeps, parallelised with rayon.
//!
//! Each `(cell, repetition)` pair is an independent, deterministic
//! simulation (its RNG streams derive from `(seed, repetition)`), so the
//! rayon fan-out provably returns the same results as a sequential loop —
//! the data-parallel contract the workspace's HPC guides are built on.
//!
//! # Observing parallel sessions
//!
//! Session observers are `Rc<RefCell<_>>` sinks and cannot cross the
//! rayon task boundary, so the sweep uses the factory/summary bridge from
//! `scan_sim::trace`: [`sweep_grid_with`] takes an [`ObserverFactory`]
//! (`Sync`, shared by reference), each worker task builds its own
//! observer via [`ObserverFactory::build`], and only the `Send` summary
//! returns. Summaries are merged with [`merge_in_order`] strictly in
//! repetition order — *not* in task-completion order — so the statistics
//! a sweep reports are bit-identical whether rayon ran on one thread or
//! N (`RAYON_NUM_THREADS=1` reproduces the sequential fold exactly; the
//! determinism tests below assert this). [`run_replicated`] is one
//! unobserved cell of the same sweep.

use crate::config::{ScanConfig, VariableParams};
use crate::metrics::ReplicatedMetrics;
use crate::session::run_session_with;
use rayon::prelude::*;
use scan_sim::{merge_in_order, Merge, NullObserverFactory, ObserverFactory};

/// Runs `repetitions` seeded repetitions of one configuration in parallel
/// and aggregates mean ± σ: a one-cell [`sweep_grid_with`], so the
/// session ordinal is the repetition.
pub fn run_replicated(cfg: &ScanConfig, repetitions: u64) -> ReplicatedMetrics {
    let mut cells = sweep_grid_with(cfg, &[cfg.variable], repetitions, &NullObserverFactory);
    cells.pop().expect("one cell in, one cell out").metrics
}

/// One sweep cell's outcome with its merged observer summary.
#[derive(Debug, Clone)]
pub struct ObservedCell<S> {
    /// The cell's variable parameters.
    pub params: VariableParams,
    /// Replicated metrics for the cell.
    pub metrics: ReplicatedMetrics,
    /// The cell's observer summaries, merged in repetition order.
    pub stats: S,
}

/// Sweeps a list of cells, each replicated, with the whole
/// `(cell × repetition)` space scheduled onto one rayon pool and one
/// factory-built observer per session.
///
/// Every `(cell, repetition)` session gets its own observer (built inside
/// the rayon task with the flat session ordinal, cell-major); summaries
/// are merged per cell in repetition order, so the per-cell statistics
/// are independent of rayon's thread count and scheduling. Pass
/// [`NullObserverFactory`] to sweep without observers.
pub fn sweep_grid_with<F: ObserverFactory>(
    base: &ScanConfig,
    cells: &[VariableParams],
    repetitions: u64,
    factory: &F,
) -> Vec<ObservedCell<F::Summary>>
where
    F::Summary: Merge,
{
    assert!(repetitions >= 1);
    // Flatten so rayon load-balances across the full space (cells differ
    // wildly in event counts: heavy-load never-scale cells are cheap,
    // always-scale cells are not).
    let sessions = cells.len() as u64 * repetitions;
    let observed: Vec<_> = (0..sessions)
        .into_par_iter()
        .map(|ordinal| {
            let mut cfg = base.clone();
            cfg.variable = cells[(ordinal / repetitions) as usize];
            let rep = ordinal % repetitions;
            let (metrics, obs) = run_session_with(&cfg, rep, factory.build(ordinal));
            (metrics, factory.finish(obs))
        })
        .collect();

    // `collect` preserved flat (cell-major, repetition-minor) order, so
    // each cell's run of `repetitions` results merges in repetition
    // order — the deterministic aggregation step.
    let mut observed = observed.into_iter();
    cells
        .iter()
        .map(|&params| {
            let (sessions, summaries): (Vec<_>, Vec<_>) =
                observed.by_ref().take(repetitions as usize).unzip();
            ObservedCell {
                params,
                metrics: ReplicatedMetrics::from_sessions(sessions),
                stats: merge_in_order(summaries).expect("repetitions >= 1"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScanConfig;
    use crate::metrics::SessionMetrics;
    use crate::observers::{DecisionStats, DecisionStatsFactory};
    use crate::platform::Platform;
    use scan_sched::scaling::ScalingPolicy;

    fn base() -> ScanConfig {
        let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), 17);
        cfg.fixed.sim_time_tu = 120.0;
        cfg
    }

    #[test]
    fn replicated_aggregates_n_runs() {
        let r = run_replicated(&base(), 4);
        assert_eq!(r.n(), 4);
        assert!(r.profit_per_run.stddev() >= 0.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let cfg = base();
        let par = run_replicated(&cfg, 3);
        let seq: Vec<SessionMetrics> =
            (0..3).map(|rep| Platform::new(cfg.clone(), rep).run()).collect();
        assert_eq!(par.sessions, seq, "rayon must not change results");
    }

    #[test]
    fn sweep_preserves_cell_order() {
        let cells: Vec<VariableParams> = [2.2, 2.8]
            .iter()
            .map(|&i| VariableParams::fig4(ScalingPolicy::AlwaysScale, i))
            .collect();
        let results = sweep_grid_with(&base(), &cells, 2, &NullObserverFactory);
        assert_eq!(results.len(), 2);
        assert!((results[0].params.mean_interval - 2.2).abs() < 1e-12);
        assert!((results[1].params.mean_interval - 2.8).abs() < 1e-12);
        assert_eq!(results[0].metrics.n(), 2);
    }

    /// The tentpole determinism guarantee: an observed parallel sweep
    /// reports per-cell statistics bit-identical to a purely sequential
    /// (one-thread) evaluation of the same `(cell × repetition)` space,
    /// for a fixed seed.
    #[test]
    fn observed_sweep_is_thread_count_invariant() {
        // Load the cells enough that real scaling decisions happen.
        let mut cfg = base();
        cfg.fixed.sim_time_tu = 150.0;
        let cells: Vec<VariableParams> = [0.9, 2.5]
            .iter()
            .map(|&i| VariableParams::fig4(ScalingPolicy::Predictive, i))
            .collect();
        let reps = 3;

        // Parallel run: rayon schedules the 6 sessions however it likes.
        let par = sweep_grid_with(&cfg, &cells, reps, &DecisionStatsFactory);

        // Sequential reference: the same space on one thread, merged in
        // the same repetition order.
        let seq: Vec<(Vec<SessionMetrics>, DecisionStats)> = cells
            .iter()
            .map(|&cell| {
                let mut c = cfg.clone();
                c.variable = cell;
                let (sessions, stats): (Vec<_>, Vec<_>) =
                    (0..reps).map(|rep| run_session_with(&c, rep, DecisionStats::new())).unzip();
                (sessions, merge_in_order(stats).unwrap())
            })
            .collect();

        assert_eq!(par.len(), seq.len());
        let mut saw_decisions = false;
        for (cell, (seq_sessions, seq_stats)) in par.iter().zip(&seq) {
            assert_eq!(cell.metrics.sessions, *seq_sessions, "metrics must not depend on threads");
            assert_eq!(cell.stats, *seq_stats, "stats must not depend on threads");
            saw_decisions |= cell.stats.total_decisions() > 0;
        }
        assert!(saw_decisions, "the loaded cell must exercise the decision counters");
    }

    /// A one-cell observed sweep is the replicated run: same metrics as
    /// [`run_replicated`], and the per-session folds merged in
    /// repetition order.
    #[test]
    fn one_cell_sweep_merges_in_rep_order() {
        let cfg = base();
        let [cell] = sweep_grid_with(&cfg, &[cfg.variable], 3, &DecisionStatsFactory)
            .try_into()
            .expect("one cell");
        assert_eq!(cell.metrics.sessions, run_replicated(&cfg, 3).sessions);
        assert_eq!(cell.stats.sessions(), 3);
        let expect =
            merge_in_order((0..3).map(|rep| run_session_with(&cfg, rep, DecisionStats::new()).1));
        assert_eq!(Some(cell.stats), expect);
    }
}
