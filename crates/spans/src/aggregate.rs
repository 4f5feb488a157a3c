//! Fleet-level critical-path aggregates: per-tenant and per-tier
//! distributions of segment durations, plus the rendered text report the
//! bins' `--spans` flag writes.
//!
//! Everything here is deterministic down to the byte: groups are keyed
//! through `BTreeMap` (sorted iteration), percentiles use nearest-rank
//! over a `total_cmp` sort, and floats render through Rust's shortest
//! round-trip `Display` — so the same merged [`SpanSet`] always renders
//! the same report regardless of thread count.

use crate::schema::{SegmentKind, ALL_SEGMENTS};
use crate::span::{SpanSet, NO_TIER};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Distribution summary of one group's segment durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Segments in the group.
    pub count: u64,
    /// Total duration, TU.
    pub total_tu: f64,
    /// Arithmetic mean duration, TU.
    pub mean_tu: f64,
    /// Nearest-rank median duration, TU.
    pub p50_tu: f64,
    /// Nearest-rank 95th-percentile duration, TU.
    pub p95_tu: f64,
}

/// One aggregate row: a (group key, segment kind) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupStats {
    /// Group key: tenant id or tier index ([`NO_TIER`] = unattributed).
    pub key: u32,
    /// Segment kind the row describes.
    pub kind: SegmentKind,
    /// The distribution.
    pub stats: Stats,
}

/// The full aggregate view of a span set.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAggregates {
    /// Completed jobs summarised.
    pub jobs: u64,
    /// Jobs still in flight when the run(s) ended.
    pub in_flight: u64,
    /// Rows grouped by owning tenant, ascending (tenant, kind).
    pub by_tenant: Vec<GroupStats>,
    /// Rows grouped by attributed tier, ascending (tier, kind).
    pub by_tier: Vec<GroupStats>,
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn summarise(groups: BTreeMap<(u32, u8), Vec<f64>>) -> Vec<GroupStats> {
    groups
        .into_iter()
        .map(|((key, kind), mut durations)| {
            durations.sort_by(f64::total_cmp);
            let count = durations.len() as u64;
            let total_tu: f64 = durations.iter().sum();
            GroupStats {
                key,
                kind: ALL_SEGMENTS[kind as usize],
                stats: Stats {
                    count,
                    total_tu,
                    mean_tu: total_tu / count as f64,
                    p50_tu: percentile(&durations, 0.50),
                    p95_tu: percentile(&durations, 0.95),
                },
            }
        })
        .collect()
}

/// Aggregates every segment of every completed job, grouped by tenant
/// and (independently) by attributed tier.
pub fn aggregate(set: &SpanSet) -> SpanAggregates {
    let mut by_tenant: BTreeMap<(u32, u8), Vec<f64>> = BTreeMap::new();
    let mut by_tier: BTreeMap<(u32, u8), Vec<f64>> = BTreeMap::new();
    for job in &set.jobs {
        for seg in &job.segments {
            let d = seg.duration_tu();
            by_tenant.entry((job.tenant, seg.kind.index() as u8)).or_default().push(d);
            by_tier.entry((seg.tier, seg.kind.index() as u8)).or_default().push(d);
        }
    }
    SpanAggregates {
        jobs: set.jobs.len() as u64,
        in_flight: set.in_flight,
        by_tenant: summarise(by_tenant),
        by_tier: summarise(by_tier),
    }
}

fn key_label(kind: &str, key: u32) -> String {
    if key == NO_TIER {
        format!("{kind}=none")
    } else {
        format!("{kind}={key}")
    }
}

/// Renders the aggregate report, one `spans:`-prefixed line per cell.
pub fn render(agg: &SpanAggregates) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "spans: jobs={} in_flight={}", agg.jobs, agg.in_flight);
    for (group, rows) in [("tenant", &agg.by_tenant), ("tier", &agg.by_tier)] {
        for r in rows {
            let _ = writeln!(
                out,
                "spans: {} segment={} count={} total_tu={} mean_tu={} p50_tu={} p95_tu={}",
                key_label(group, r.key),
                r.kind.name(),
                r.stats.count,
                r.stats.total_tu,
                r.stats.mean_tu,
                r.stats.p50_tu,
                r.stats.p95_tu,
            );
        }
    }
    out
}

/// Renders the `--slowest N` job table: each job's latency decomposed
/// into its per-kind totals, slowest first.
pub fn render_slowest(set: &SpanSet, n: usize) -> String {
    let mut out = String::new();
    let picks = set.slowest(n);
    let _ = writeln!(out, "spans: slowest jobs (top {} of {})", picks.len(), set.jobs.len());
    let mut header = String::from("spans: tenant job latency_tu stages");
    for kind in ALL_SEGMENTS {
        let _ = write!(header, " {}", kind.name());
    }
    let _ = writeln!(out, "{header}");
    for i in picks {
        let job = &set.jobs[i];
        let _ = write!(out, "spans: {} {} {} {}", job.tenant, job.job, job.latency_tu, job.stages);
        for d in job.breakdown() {
            let _ = write!(out, " {d}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{JobSpans, Segment};

    fn one_job(tenant: u32, job: u64, segs: &[(SegmentKind, u32, f64, f64)]) -> JobSpans {
        let segments: Vec<Segment> = segs
            .iter()
            .map(|&(kind, tier, start_tu, end_tu)| Segment { kind, tier, start_tu, end_tu })
            .collect();
        let submitted_tu = segments.first().map(|s| s.start_tu).unwrap_or(0.0);
        let completed_tu = segments.last().map(|s| s.end_tu).unwrap_or(0.0);
        JobSpans {
            tenant,
            job,
            submitted_tu,
            completed_tu,
            latency_tu: completed_tu - submitted_tu,
            reward: 1.0,
            stages: 1,
            segments,
        }
    }

    #[test]
    fn aggregates_group_by_tenant_and_tier() {
        let mut set = SpanSet::default();
        set.jobs.push(one_job(
            0,
            0,
            &[(SegmentKind::QueueWait, NO_TIER, 0.0, 1.0), (SegmentKind::Service, 0, 1.0, 3.0)],
        ));
        set.jobs.push(one_job(
            1,
            0,
            &[(SegmentKind::QueueWait, NO_TIER, 0.0, 3.0), (SegmentKind::Service, 1, 3.0, 4.0)],
        ));
        let agg = aggregate(&set);
        assert_eq!(agg.jobs, 2);
        // Two tenants × two kinds each.
        assert_eq!(agg.by_tenant.len(), 4);
        // Tiers: NO_TIER (queue) + tier 0 + tier 1.
        assert_eq!(agg.by_tier.len(), 3);
        let queue = agg
            .by_tier
            .iter()
            .find(|r| r.key == NO_TIER && r.kind == SegmentKind::QueueWait)
            .expect("queue-wait tier row");
        assert_eq!(queue.stats.count, 2);
        assert_eq!(queue.stats.total_tu, 4.0);
        assert_eq!(queue.stats.mean_tu, 2.0);
        assert_eq!(queue.stats.p50_tu, 1.0);
        assert_eq!(queue.stats.p95_tu, 3.0);
    }

    #[test]
    fn render_is_line_per_cell_and_stable() {
        let mut set = SpanSet::default();
        set.jobs.push(one_job(0, 0, &[(SegmentKind::Service, 0, 0.0, 2.5)]));
        let text = render(&aggregate(&set));
        assert!(text.starts_with("spans: jobs=1 in_flight=0\n"), "{text}");
        assert!(
            text.contains(
                "spans: tenant=0 segment=service count=1 total_tu=2.5 mean_tu=2.5 p50_tu=2.5 p95_tu=2.5"
            ),
            "{text}"
        );
        assert!(text.contains("spans: tier=0 segment=service"), "{text}");
    }

    #[test]
    fn slowest_table_lists_breakdowns() {
        let mut set = SpanSet::default();
        set.jobs.push(one_job(
            0,
            7,
            &[(SegmentKind::QueueWait, NO_TIER, 0.0, 1.5), (SegmentKind::Service, 0, 1.5, 2.0)],
        ));
        set.jobs.push(one_job(0, 8, &[(SegmentKind::Service, 0, 0.0, 9.0)]));
        let text = render_slowest(&set, 1);
        assert!(text.starts_with("spans: slowest jobs (top 1 of 2)\n"), "{text}");
        assert!(text.contains("service fan_in\n"), "{text}");
        // Job 8 (latency 9) leads; its service total is 9.
        assert!(text.contains("spans: 0 8 9 1 0 0 0 0 9 0\n"), "{text}");
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 2.0);
        assert_eq!(percentile(&v, 0.95), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
