//! The platform's metric ids and their registration.
//!
//! One [`PlatformMeters`] is built per session by [`Platform::set_metrics`]
//! and records through a shared [`Metrics`] handle. Registration happens
//! in one fixed order (platform meters, then provider meters, then the
//! engine's batch histogram), so every repetition produces a registry of
//! identical shape — the precondition for the deterministic cross-thread
//! merge. Without `set_metrics` the platform carries a disabled handle
//! and none of the hot paths touch a registry.

use super::Platform;
use scan_metrics::{CounterId, HistogramId, Metrics, SeriesId, SeriesKind};
use scan_sim::ScalingChoice;

/// Every metric id the platform records through, plus the shared handle.
#[derive(Debug, Clone)]
pub(super) struct PlatformMeters {
    pub(super) metrics: Metrics,
    /// `dispatch_queue_wait_tu{stage}`: realised queue wait per dispatch.
    pub(super) queue_wait: Vec<HistogramId>,
    /// `dispatch_service_time_tu{stage}`: busy span per dispatched subtask.
    pub(super) service_time: Vec<HistogramId>,
    /// `scaling_margin_cu{outcome}`: |delay cost − hire cost| of priced
    /// decisions, split by which side won.
    pub(super) margin_hire: HistogramId,
    pub(super) margin_wait: HistogramId,
    /// `scaling_choice_total{choice}`, indexed by `ScalingChoice as usize`.
    pub(super) choice: [CounterId; ScalingChoice::ALL.len()],
    /// `broker_split_fanout`: stage-1 shards per admitted job.
    pub(super) split_fanout: HistogramId,
    /// `broker_merge_fanout`: shards gathered per completed stage.
    pub(super) merge_fanout: HistogramId,
    /// `vm_utilisation`: busy cores over hired cores, time-weighted.
    pub(super) util: SeriesId,
    /// `vm_busy_cores`: cores running subtasks, time-weighted.
    pub(super) busy_cores: SeriesId,
    /// `queue_depth`: total queued subtasks, time-weighted.
    pub(super) queue_depth: SeriesId,
    /// `tier_spend_rate{tier}`: cost accrued per TU, per tier.
    pub(super) spend_rate: [SeriesId; 2],
    /// `slo_violations_total`: completed jobs that missed the SLO target.
    pub(super) slo_violations: CounterId,
    /// `slo_burn_rate`: SLO violations per TU, windowed.
    pub(super) slo_burn: SeriesId,
}

impl Platform {
    /// Attaches a metrics registry to the session. Must be called before
    /// [`Platform::run`]; registers every platform metric (and the
    /// provider's) in a fixed order. A disabled handle is a no-op.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        if !metrics.is_enabled() {
            return;
        }
        let n_stages = self.true_model.n_stages();
        let meters = metrics.with_registry(|r| {
            let stage_label = |i: usize| i.to_string();
            let queue_wait = (0..n_stages)
                .map(|i| {
                    r.histogram(
                        "dispatch_queue_wait_tu",
                        "stage",
                        &stage_label(i),
                        "tu",
                        "Realised queue wait per dispatched subtask, by stage",
                    )
                })
                .collect();
            let service_time = (0..n_stages)
                .map(|i| {
                    r.histogram(
                        "dispatch_service_time_tu",
                        "stage",
                        &stage_label(i),
                        "tu",
                        "Busy span per dispatched subtask (exec + staging), by stage",
                    )
                })
                .collect();
            let margin_hire = r.histogram(
                "scaling_margin_cu",
                "outcome",
                "hire",
                "cu",
                "Eq. 1 |delay cost - hire cost| when the decision was to hire",
            );
            let margin_wait = r.histogram(
                "scaling_margin_cu",
                "outcome",
                "wait",
                "cu",
                "Eq. 1 |delay cost - hire cost| when the decision was to wait",
            );
            let choice = ScalingChoice::ALL.map(|choice| {
                r.counter(
                    "scaling_choice_total",
                    "choice",
                    choice.name(),
                    "1",
                    "Horizontal-scaling decisions, by outcome",
                )
            });
            let split_fanout = r.histogram(
                "broker_split_fanout",
                "",
                "",
                "1",
                "Stage-1 shards registered per admitted job",
            );
            let merge_fanout = r.histogram(
                "broker_merge_fanout",
                "",
                "",
                "1",
                "Shards gathered when a job's stage completes",
            );
            let util = r.series(
                SeriesKind::TimeWeightedMean,
                "vm_utilisation",
                "",
                "",
                "ratio",
                "Busy cores over hired cores (idle-sweep sampled)",
            );
            let busy_cores = r.series(
                SeriesKind::TimeWeightedMean,
                "vm_busy_cores",
                "",
                "",
                "cores",
                "Cores running subtasks (idle-sweep sampled)",
            );
            let queue_depth = r.series(
                SeriesKind::TimeWeightedMean,
                "queue_depth",
                "",
                "",
                "1",
                "Total queued subtasks (idle-sweep sampled)",
            );
            let spend_rate = ["private", "public"].map(|tier| {
                r.series(
                    SeriesKind::Rate,
                    "tier_spend_rate",
                    "tier",
                    tier,
                    "cu_per_tu",
                    "Cost accrued per TU, by tier",
                )
            });
            let slo_violations = r.counter(
                "slo_violations_total",
                "",
                "",
                "jobs",
                "Completed jobs whose latency missed the configured SLO target",
            );
            let slo_burn = r.series(
                SeriesKind::Rate,
                "slo_burn_rate",
                "",
                "",
                "jobs_per_tu",
                "SLO violations per TU (windowed burn rate)",
            );
            PlatformMeters {
                metrics: Metrics::disabled(), // patched below
                queue_wait,
                service_time,
                margin_hire,
                margin_wait,
                choice,
                split_fanout,
                merge_fanout,
                util,
                busy_cores,
                queue_depth,
                spend_rate,
                slo_violations,
                slo_burn,
            }
        });
        if let Some(mut meters) = meters {
            meters.metrics = metrics.clone();
            self.meters = Some(meters);
        }
        self.metrics = metrics.clone();
        self.provider.set_metrics(metrics);
    }
}
