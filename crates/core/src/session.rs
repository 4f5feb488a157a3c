//! One seeded session run with a caller-built observer attached.
//!
//! A plain session needs no driver: `Platform::new(cfg, rep).run()`.
//! Extra observers go on with [`Platform::add_observer`] and a metrics
//! registry with [`Platform::set_metrics`].

use crate::config::ScanConfig;
use crate::metrics::SessionMetrics;
use crate::platform::Platform;
use scan_sim::Observer;
use std::cell::RefCell;
use std::rc::Rc;

/// Runs one repetition with a caller-built observer attached, returning
/// the observer alongside the metrics once the run is over.
///
/// This is the single-session half of the parallel-sweep observer story:
/// the caller (e.g. [`sweep_grid_with`](crate::sweep::sweep_grid_with))
/// builds the observer *inside* the worker task, this function threads it
/// through the session's `Rc<RefCell<_>>` sink plumbing, and hands back
/// sole ownership afterwards so a `Send` summary can cross back to the
/// coordinating thread.
pub fn run_session_with<O: Observer + 'static>(
    cfg: &ScanConfig,
    repetition: u64,
    observer: O,
) -> (SessionMetrics, O) {
    let sink = Rc::new(RefCell::new(observer));
    let mut platform = Platform::new(cfg.clone(), repetition);
    platform.add_observer(sink.clone());
    let metrics = platform.run();
    (metrics, reclaim(sink))
}

/// Takes sole ownership of an observer back from its sink handle. Call
/// only once the run is over: the platform (and every tracer clone) has
/// been dropped by then, so the handle is unique again.
pub(crate) fn reclaim<O>(sink: Rc<RefCell<O>>) -> O {
    Rc::try_unwrap(sink).ok().expect("observer uniquely owned after the run").into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariableParams;
    use crate::instrument::DEFAULT_WINDOW_TU;
    use scan_metrics::Metrics;
    use scan_sched::scaling::ScalingPolicy;
    use scan_sim::JsonlWriter;

    fn cfg() -> ScanConfig {
        let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.8), 5);
        cfg.fixed.sim_time_tu = 150.0;
        cfg
    }

    fn plain() -> SessionMetrics {
        Platform::new(cfg(), 3).run()
    }

    #[test]
    fn traced_session_writes_jsonl_and_matches_untraced() {
        let (traced, writer) = run_session_with(&cfg(), 3, JsonlWriter::new(Vec::new()));
        assert_eq!(traced, plain(), "tracing must not perturb the session");
        assert!(!writer.errored());
        let text = String::from_utf8(writer.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 100, "trace has {} lines", lines.len());
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(lines.last().unwrap().contains("\"kind\":\"run_ended\""));
    }

    #[test]
    fn metrics_do_not_perturb_the_session() {
        let metrics = Metrics::enabled(DEFAULT_WINDOW_TU);
        let mut platform = Platform::new(cfg(), 3);
        platform.set_metrics(&metrics);
        let m = platform.run();
        assert_eq!(m, plain(), "metrics must not perturb the session");
        let reg = metrics.into_registry().expect("registry uniquely owned after the run");
        // The run actually landed in the registry.
        let hired: u64 = reg
            .counters()
            .iter()
            .map(|(meta, v)| u64::from(meta.family == "vm_hired_total") * v)
            .sum();
        assert!(hired > 0, "no VM hires counted");
        assert!(reg.histograms().iter().any(|(_, h)| h.count() > 0));
        assert!(reg.series_entries().iter().all(|(_, s)| !s.values().is_empty()));
    }
}
