//! Batch span derivation: reads the rows of the seven stitching-relevant
//! tables of a [`TraceStore`] back as events
//! ([`Table::event`](scan_tracestore::Table::event)) and replays them
//! through [`SpanObserver::on_event`], the incremental path's own entry
//! point, producing an identical [`SpanSet`].
//!
//! Rows are globally ordered by `(tenant, time, kind-priority, row)`;
//! the kind priority fixes the order of *different* tables at equal
//! timestamps to match the platform's emission order (a worker can boot
//! and receive a dispatch at the same instant — the boot must land
//! first), and the row index keeps within-table ties in stream order.
//!
//! The pass expects a store from a single run: a solo session, or one
//! fleet repetition (where each tenant's sub-stream is time-monotone and
//! job/worker ids are unique per tenant). Replicated fleet sweeps merge
//! stores across repetitions, which reuses ids — derive spans for those
//! through the incremental [`SpansFactory`](crate::observer::SpansFactory)
//! path instead.

use crate::observer::SpanObserver;
use crate::span::SpanSet;
use scan_sim::{Merge, Observer, SimTime};
use scan_tracestore::{EventKind, TraceStore};

/// The replayed kinds, in priority order for rows at equal times.
const REPLAYED: [EventKind; 7] = [
    EventKind::VmHired,
    EventKind::VmReshaped,
    EventKind::VmBooted,
    EventKind::JobArrived,
    EventKind::JobStageAdvanced,
    EventKind::SubtaskDispatched,
    EventKind::JobCompleted,
];

/// Derives every completed job's spans from a single-run store. The
/// result is element-for-element identical to running a
/// [`SpanObserver`] per tenant on the
/// live stream and merging in tenant order.
pub fn derive(store: &TraceStore) -> SpanSet {
    // (tenant, t_bits, kind priority, row index) — sorting t by bit
    // pattern equals numeric order because simulation time is
    // non-negative, and keeps equal-valued rows byte-stable. Each table
    // is already one sorted run, which the (merging) stable sort uses.
    let mut rows: Vec<(u32, u64, u8, u32)> = Vec::new();
    for (priority, kind) in REPLAYED.into_iter().enumerate() {
        let table = store.table(kind);
        let (tenant, t_bits) = (table.tenant(), table.t_bits());
        rows.extend((0..table.rows()).map(|i| (tenant[i], t_bits[i], priority as u8, i as u32)));
    }
    rows.sort();

    // Replay: rows are grouped by tenant after the sort, so a fresh
    // observer per tenant run, merged in ascending-tenant order —
    // exactly the session-ordinal merge the incremental path uses.
    let mut out = SpanSet::default();
    let mut current: Option<(u32, SpanObserver)> = None;
    for (tenant, t_bits, priority, row) in rows {
        if current.as_ref().map(|(ten, _)| *ten) != Some(tenant) {
            if let Some((_, finished)) = current.take() {
                out.merge(finished.into_spans());
            }
            current = Some((tenant, SpanObserver::for_tenant(tenant)));
        }
        let obs = &mut current.as_mut().expect("installed above").1;
        let event = store.table(REPLAYED[priority as usize]).event(row as usize);
        obs.on_event(SimTime::new(f64::from_bits(t_bits)), &event);
    }
    if let Some((_, finished)) = current.take() {
        out.merge(finished.into_spans());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_sim::{Observer, SimTime, TraceEvent};

    /// Ingest a small hand-built stream into a store, then check the
    /// batch pass reproduces the incremental observer bit-for-bit.
    #[test]
    fn derive_matches_observer_on_a_hand_built_stream() {
        let events: Vec<(f64, TraceEvent)> = vec![
            (0.5, TraceEvent::VmHired { vm: 0, tier: 1, cores: 2 }),
            (1.0, TraceEvent::JobArrived { job: 0, size_units: 4.0, submitted_tu: 0.25 }),
            (1.0, TraceEvent::JobStageAdvanced { job: 0, stage: 0, shards: 2, cores: 1 }),
            (1.5, TraceEvent::VmBooted { vm: 0, cores: 2 }),
            // Boot and dispatch at the same instant: priority must put
            // the boot first on both paths.
            (
                1.5,
                TraceEvent::SubtaskDispatched {
                    job: 0,
                    stage: 0,
                    vm: 0,
                    cores: 1,
                    waited_tu: 0.5,
                    busy_tu: 2.0,
                },
            ),
            (
                1.5,
                TraceEvent::SubtaskDispatched {
                    job: 0,
                    stage: 0,
                    vm: 0,
                    cores: 1,
                    waited_tu: 0.5,
                    busy_tu: 2.0,
                },
            ),
            (
                3.5,
                TraceEvent::JobCompleted {
                    job: 0,
                    latency_tu: 3.25,
                    reward: 8.0,
                    core_stages: 2.0,
                },
            ),
        ];
        let (incremental, batch) = both_paths(&events);
        assert_eq!(batch, incremental);
        assert_eq!(batch.jobs.len(), 1);
        assert!(batch.jobs[0].conservation_ok(), "{:#?}", batch.jobs[0]);
    }

    /// Feeds `events` to a live observer and to a store, returning the
    /// incremental and the batch span sets.
    fn both_paths(events: &[(f64, TraceEvent)]) -> (SpanSet, SpanSet) {
        let mut store = TraceStore::new();
        let mut obs = SpanObserver::new();
        for (t, e) in events {
            store.ingest(SimTime::new(*t), e);
            obs.on_event(SimTime::new(*t), e);
        }
        (obs.into_spans(), derive(&store))
    }

    /// A job id past `u32::MAX` keeps its value on both paths.
    #[test]
    fn job_ids_past_u32_survive_observer_and_derive() {
        let job = u64::from(u32::MAX) + 5;
        let events = [
            (1.0, TraceEvent::JobArrived { job, size_units: 4.0, submitted_tu: 1.0 }),
            (1.0, TraceEvent::JobStageAdvanced { job, stage: 0, shards: 1, cores: 1 }),
            (
                1.5,
                TraceEvent::SubtaskDispatched {
                    job,
                    stage: 0,
                    vm: 0,
                    cores: 1,
                    waited_tu: 0.5,
                    busy_tu: 2.0,
                },
            ),
            (3.5, TraceEvent::JobCompleted { job, latency_tu: 2.5, reward: 1.0, core_stages: 1.0 }),
        ];
        let (incremental, batch) = both_paths(&events);
        assert_eq!(batch, incremental);
        assert_eq!(incremental.in_flight, 0);
        assert_eq!(incremental.jobs.len(), 1);
        assert_eq!(incremental.jobs[0].job, job);
        assert!(incremental.jobs[0].conservation_ok(), "{:#?}", incremental.jobs[0]);
    }
}
