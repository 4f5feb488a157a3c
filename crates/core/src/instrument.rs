//! Defaults for instrumented sessions.
//!
//! A session is instrumented by attaching a [`scan_metrics`] registry
//! before it runs: `platform.set_metrics(&Metrics::enabled(window_tu))`.
//! Every subsystem then records into it (dispatch histograms, scaling
//! counters and margins, provider lifecycle counters, windowed
//! utilisation/spend series, the engine's batch-size histogram); see
//! `docs/METRICS.md`.

/// Default sim-time window for the time series (TU). Sessions run for
/// hundreds of TU, so 5 TU gives a readable number of points per series.
pub const DEFAULT_WINDOW_TU: f64 = 5.0;
