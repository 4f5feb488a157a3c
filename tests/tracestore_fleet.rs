//! Cross-crate contract tests for the columnar trace store: sessions and
//! fleets ingest through the platform's observer plumbing, merged fleet
//! stores are independent of how rayon sharded the replications, and the
//! store agrees with the JSONL sink it replaces on what happened.

use scan::platform::config::{ScanConfig, VariableParams};
use scan::platform::fleet::{run_fleet_replicated_with, run_fleet_with, FleetConfig};
use scan::platform::session::run_session_with;
use scan::sched::scaling::ScalingPolicy;
use scan::sim::{merge_in_order, JsonlWriter, Observer};
use scan::tracestore::{Agg, EventKind, Query, TraceStore, TraceStoreFactory};

fn session_cfg() -> ScanConfig {
    let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.0), 7);
    cfg.fixed.sim_time_tu = 120.0;
    cfg
}

fn fleet_cfg(tenants: u16) -> FleetConfig {
    let mut cfg = FleetConfig::new(session_cfg(), tenants);
    cfg.jobs_per_tenant = 3;
    cfg.shared_private_cores = cfg.shared_private_cores.max(u32::from(tenants) * 2);
    cfg
}

/// The merged fleet store must be bit-identical whether the replications
/// ran through rayon or a plain sequential loop — the in-process face of
/// the CI gate that diffs `RAYON_NUM_THREADS=1` vs `8` exports.
#[test]
fn merged_fleet_store_is_schedule_invariant() {
    let cfg = fleet_cfg(3);
    let reps = 3;
    let factory = TraceStoreFactory::fleet(u64::from(cfg.tenants));

    let (par_metrics, par_store) = run_fleet_replicated_with(&cfg, reps, &factory);

    let (seq_metrics, seq_stores): (Vec<_>, Vec<_>) =
        (0..reps).map(|rep| run_fleet_with(&cfg, rep, &factory)).unzip();
    let seq_store =
        merge_in_order(seq_stores.into_iter().flatten()).expect("at least one tenant session ran");

    assert_eq!(par_metrics, seq_metrics, "fleet metrics must not depend on threads");
    assert!(par_store.events() > 0, "the fleet must ingest events");
    assert_eq!(
        par_store.to_bytes(),
        seq_store.to_bytes(),
        "merged store exports must be byte-identical regardless of scheduling"
    );
    assert_eq!(par_store.digest(), seq_store.digest());
}

/// Tenant stamping survives the merge: every tenant of every repetition
/// contributes rows under its own tenant id, queryable after the fact.
#[test]
fn merged_fleet_store_stays_per_tenant_queryable() {
    let cfg = fleet_cfg(3);
    let factory = TraceStoreFactory::fleet(u64::from(cfg.tenants));
    let (_, store) = run_fleet_replicated_with(&cfg, 2, &factory);

    let per_tenant = Query::over(EventKind::JobCompleted)
        .group_by("tenant")
        .count()
        .run(&store)
        .expect("tenant is an implicit column on every kind");
    assert_eq!(per_tenant.len(), 3, "all three tenants must complete jobs");
    for (i, row) in per_tenant.iter().enumerate() {
        assert_eq!(row.group.as_deref(), Some(i.to_string().as_str()));
        assert!(row.value > 0.0);
    }
}

/// The store and the JSONL sink observe the same stream: same event
/// count, and the store's aggregate answers match scalar math over the
/// session's JSONL lines.
#[test]
fn store_agrees_with_the_jsonl_sink() {
    struct Both {
        store: TraceStore,
        jsonl: JsonlWriter<Vec<u8>>,
    }
    impl Observer for Both {
        fn on_event(&mut self, at: scan::sim::SimTime, event: &scan::sim::TraceEvent) {
            self.store.on_event(at, event);
            self.jsonl.on_event(at, event);
        }
    }

    let cfg = session_cfg();
    let both = Both { store: TraceStore::new(), jsonl: JsonlWriter::new(Vec::new()) };
    let (_, both) = run_session_with(&cfg, 0, both);
    let lines: Vec<&str> = {
        let bytes = both.jsonl.into_inner();
        let text = Box::leak(String::from_utf8(bytes).expect("JSONL is UTF-8").into_boxed_str());
        text.lines().collect()
    };
    assert_eq!(both.store.events(), lines.len() as u64, "one JSONL line per stored event");

    let dispatched = lines.iter().filter(|l| l.contains("\"kind\":\"subtask_dispatched\"")).count();
    let rows = Query::over(EventKind::SubtaskDispatched)
        .count()
        .run(&both.store)
        .expect("count needs no declared columns");
    assert_eq!(rows[0].value, dispatched as f64);

    // The export is dramatically smaller than the JSONL for the same
    // stream (perfbench's `explain-session` reports the full session's
    // `tracestore.export_bytes`; this is the in-process sanity floor).
    let jsonl_len: usize = lines.iter().map(|l| l.len() + 1).sum();
    let scts_len = both.store.to_bytes().len();
    assert!(
        scts_len * 3 < jsonl_len,
        "SCTS export ({scts_len} B) should be well under a third of the JSONL ({jsonl_len} B)"
    );
}

/// A queryable assertion that previously required log scraping: p95 queue
/// wait per tier, straight off a session's store.
#[test]
fn p95_queue_wait_per_tier_is_queryable_in_process() {
    let (_, store) = run_session_with(&session_cfg(), 0, TraceStore::new());
    let rows = Query::over(EventKind::SubtaskDispatched)
        .group_by("tier")
        .aggregate(Agg::P95, "waited_tu")
        .run(&store)
        .expect("tier and waited_tu are declared subtask_dispatched columns");
    assert!(!rows.is_empty(), "the session must dispatch subtasks");
    for row in &rows {
        let tier = row.group.as_deref().expect("grouped rows carry their tier label");
        assert!(
            ["private", "public", "tier2+"].contains(&tier),
            "dispatches attribute to a known hired tier, got {tier:?}"
        );
        assert!(row.value >= 0.0, "waits are non-negative");
    }
}
