//! The in-process columnar trace store: an [`Observer`] that turns the
//! event stream into per-kind typed tables during the run.
//!
//! Ingest is one loop over the event's field values and its kind's
//! column layout ([`schema`](crate::schema)) — a handful of `Vec`
//! pushes; no strings are formatted and nothing is re-parsed later, in
//! contrast to the JSONL sink whose output every consumer had to decode
//! again. [`Table::event`] reads a row back through the same layout.
//! Two enrichments happen at ingest time because they are free while
//! the stream is live and expensive afterwards:
//!
//! * **Tier attribution.** The store tracks every VM's current tier from
//!   its `vm_hired`/`vm_reshaped` history, so `subtask_dispatched` rows
//!   carry a derived `tier` label — the "p95 queue wait per tier" query
//!   needs no join.
//! * **Tenant stamping.** Every row records its tenant (0 for solo
//!   sessions); merged fleet stores therefore stay per-tenant queryable.
//!
//! Merging ([`Merge`]) concatenates tables row-wise, remapping
//! dictionary codes; callers merge in a fixed (repetition, tenant)
//! order, so merged stores — and their exports — are bit-identical for
//! any `RAYON_NUM_THREADS` (the same contract every observer in this
//! workspace honours; see `docs/TRACESTORE.md` § Determinism).

use crate::column::Column;
use crate::schema::{column_index, columns, layout, EventKind, Slot};
use scan_sim::{FieldValue, Merge, Observer, ObserverFactory, ScalingChoice, SimTime, TraceEvent};

/// The label a tier index is stored under: the catalogue order of
/// `Platform::new` (0 = private, 1 = public); later indices would be
/// spot-style tiers and keep their numeric name until they earn one.
pub fn tier_label(tier: u32) -> &'static str {
    match tier {
        0 => "private",
        1 => "public",
        _ => "tier2+",
    }
}

/// The tier index a stored tier label stands for: the inverse of
/// [`tier_label`] (2 for every `tier2+` tier), and `u32::MAX` for
/// [`UNKNOWN_TIER`].
pub fn tier_index(label: &str) -> u32 {
    match label {
        "private" => 0,
        "public" => 1,
        UNKNOWN_TIER => u32::MAX,
        _ => 2,
    }
}

/// The label used when a dispatching VM was never seen being hired
/// (possible only for synthetic streams; live sessions always hire
/// before dispatching).
pub const UNKNOWN_TIER: &str = "unknown";

/// One event kind's columnar table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    kind: EventKind,
    /// Event times as `f64` bit patterns (monotone non-decreasing).
    t_bits: Vec<u64>,
    /// Owning tenant per row.
    tenant: Vec<u32>,
    /// Stored columns, parallel to [`columns`](crate::columns()).
    cols: Vec<Column>,
}

impl Table {
    pub(crate) fn new(kind: EventKind) -> Table {
        Table {
            kind,
            t_bits: Vec::new(),
            tenant: Vec::new(),
            cols: columns(kind).iter().map(|spec| Column::new(spec.ty)).collect(),
        }
    }

    /// The kind whose rows this table holds.
    pub fn kind(&self) -> EventKind {
        self.kind
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.t_bits.len()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.t_bits.is_empty()
    }

    /// Event time of row `i`, in TU.
    pub fn time_tu(&self, i: usize) -> f64 {
        f64::from_bits(self.t_bits[i])
    }

    /// The raw time column (bit patterns).
    pub fn t_bits(&self) -> &[u64] {
        &self.t_bits
    }

    /// The tenant column.
    pub fn tenant(&self) -> &[u32] {
        &self.tenant
    }

    /// The stored columns, in [`columns`](crate::columns()) order.
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// A stored column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        column_index(self.kind, name).map(|i| &self.cols[i])
    }

    /// A `u32` column by name; empty if absent or of another type.
    pub fn u32s(&self, name: &str) -> &[u32] {
        match self.column(name) {
            Some(Column::U32(v)) => v,
            _ => &[],
        }
    }

    /// A `u64` column by name; empty if absent or of another type.
    pub fn u64s(&self, name: &str) -> &[u64] {
        match self.column(name) {
            Some(Column::U64(v)) => v,
            _ => &[],
        }
    }

    /// An `f64` column by name; empty if absent or of another type.
    pub fn f64s(&self, name: &str) -> &[f64] {
        match self.column(name) {
            Some(Column::F64(v)) => v,
            _ => &[],
        }
    }

    /// A dictionary column's label per row; empty if absent or not a
    /// dictionary.
    pub fn labels(&self, name: &str) -> Vec<&str> {
        match self.column(name) {
            Some(Column::Dict { codes, dict }) => codes.iter().map(|&c| dict.label(c)).collect(),
            _ => Vec::new(),
        }
    }

    /// Row `row` rebuilt as the event it was ingested from: each field
    /// read back from its column (a tier label through [`tier_index`], a
    /// choice from its name); derived columns are dropped.
    ///
    /// # Panics
    /// Panics if `row` is out of range, or if a label cannot be read back
    /// as its field (only a hand-made export can hold such a label).
    pub fn event(&self, row: usize) -> TraceEvent {
        let slots = &layout(self.kind).slots;
        let mut values = [FieldValue::U32(0); TraceEvent::MAX_FIELDS];
        for (value, &slot) in values.iter_mut().zip(slots) {
            *value = match slot {
                Slot::Tenant => FieldValue::U32(self.tenant[row]),
                Slot::Column(c) => match &self.cols[c] {
                    Column::U32(v) => FieldValue::U32(v[row]),
                    Column::U64(v) => FieldValue::U64(v[row]),
                    Column::F64(v) => FieldValue::F64(v[row]),
                    Column::Dict { codes, dict } => {
                        let label = dict.label(codes[row]);
                        match ScalingChoice::from_name(label) {
                            Some(choice) => FieldValue::Choice(choice),
                            None => FieldValue::U32(tier_index(label)),
                        }
                    }
                },
            };
        }
        TraceEvent::from_fields(self.kind, &values[..slots.len()])
            .expect("stored labels fit their fields")
    }

    /// Rebuilds a table from decoded parts (export reader). Lengths are
    /// the reader's responsibility; `check_invariants` re-verifies.
    pub(crate) fn from_parts(
        kind: EventKind,
        t_bits: Vec<u64>,
        tenant: Vec<u32>,
        cols: Vec<Column>,
    ) -> Table {
        Table { kind, t_bits, tenant, cols }
    }

    fn append(&mut self, other: &Table) {
        self.t_bits.extend_from_slice(&other.t_bits);
        self.tenant.extend_from_slice(&other.tenant);
        for (mine, theirs) in self.cols.iter_mut().zip(&other.cols) {
            mine.append(theirs);
        }
    }
}

/// The columnar trace store. Build one per session (it is an
/// [`Observer`]), or let [`TraceStoreFactory`] build one per parallel
/// session and merge the results.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStore {
    tables: Vec<Table>,
    /// Tenant id stamped on every ingested row (admission events carry
    /// their own tenant and override the stamp).
    tenant: u32,
    /// VM id → current tier index, maintained from hire/reshape events.
    vm_tier: Vec<u32>,
    /// Total events ingested (= Σ table rows).
    events: u64,
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceStore {
    /// An empty store stamping tenant 0 (single-tenant sessions).
    pub fn new() -> TraceStore {
        Self::for_tenant(0)
    }

    /// An empty store stamping every row with `tenant` (fleet sessions).
    pub fn for_tenant(tenant: u32) -> TraceStore {
        TraceStore {
            tables: EventKind::ALL.into_iter().map(Table::new).collect(),
            tenant,
            vm_tier: Vec::new(),
            events: 0,
        }
    }

    /// The table for `kind` (possibly empty).
    pub fn table(&self, kind: EventKind) -> &Table {
        &self.tables[kind as usize]
    }

    /// All tables, in [`EventKind::ALL`] order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Total events ingested across all tables.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Rebuilds a store from decoded tables (export reader). The
    /// vm→tier scratch map is not part of the persisted state — derived
    /// columns were materialized at ingest time — so a decoded store
    /// queries identically but should not ingest further events.
    pub(crate) fn from_tables(tables: Vec<Table>) -> TraceStore {
        let events = tables.iter().map(|t| t.rows() as u64).sum();
        TraceStore { tables, tenant: 0, vm_tier: Vec::new(), events }
    }

    /// The tier currently attributed to `vm`, as a label.
    fn tier_of(&self, vm: u64) -> &'static str {
        match self.vm_tier.get(vm as usize) {
            Some(&t) if t != u32::MAX => tier_label(t),
            _ => UNKNOWN_TIER,
        }
    }

    fn note_tier(&mut self, vm: u64, tier: u32) {
        let idx = vm as usize;
        if idx >= self.vm_tier.len() {
            self.vm_tier.resize(idx + 1, u32::MAX);
        }
        self.vm_tier[idx] = tier;
    }

    /// Ingests one event (the [`Observer`] impl delegates here).
    pub fn ingest(&mut self, at: SimTime, event: &TraceEvent) {
        let kind = EventKind::of(event);
        let layout = layout(kind);
        self.events += 1;
        event.with_fields(|values| {
            let table = &mut self.tables[kind as usize];
            let mut tenant = self.tenant;
            for (&slot, &value) in layout.slots.iter().zip(values) {
                match (slot, value) {
                    (Slot::Column(c), value) => table.cols[c].push(value),
                    (Slot::Tenant, FieldValue::U32(t)) => tenant = t,
                    (Slot::Tenant, _) => {}
                }
            }
            table.t_bits.push(at.as_tu().to_bits());
            table.tenant.push(tenant);
            // Tier attribution: hires and reshapes set the VM's tier, and
            // a dispatch row gets its VM's tier as the derived last column.
            let field = |at: Option<usize>| at.map(|i| values[i]);
            match (kind, field(layout.vm), field(layout.tier)) {
                (
                    EventKind::VmHired | EventKind::VmReshaped,
                    Some(FieldValue::U64(vm)),
                    Some(FieldValue::U32(tier)),
                ) => self.note_tier(vm, tier),
                (EventKind::SubtaskDispatched, Some(FieldValue::U64(vm)), _) => {
                    let label = self.tier_of(vm);
                    if let Some(col) = self.tables[kind as usize].cols.last_mut() {
                        col.push_label(label);
                    }
                }
                _ => {}
            }
        });
    }

    /// Sanity check used by tests and debug assertions: every table's
    /// columns agree on the row count.
    pub fn check_invariants(&self) -> bool {
        self.tables.iter().all(|t| {
            t.tenant.len() == t.t_bits.len() && t.cols.iter().all(|c| c.len() == t.t_bits.len())
        }) && self.events == self.tables.iter().map(|t| t.rows() as u64).sum::<u64>()
    }
}

impl Observer for TraceStore {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        self.ingest(at, event);
    }
}

impl Merge for TraceStore {
    /// Appends `other`'s rows after this store's own, per table.
    /// Determinism contract: callers merge in session-ordinal order.
    fn merge(&mut self, other: TraceStore) {
        for (mine, theirs) in self.tables.iter_mut().zip(&other.tables) {
            mine.append(theirs);
        }
        self.events += other.events;
    }
}

/// Builds one [`TraceStore`] per parallel session, stamping rows with
/// the session's tenant ordinal — the observer-factory bridge that lets
/// whole-fleet (or replicated-sweep) stores shard over rayon and merge
/// deterministically.
#[derive(Debug, Clone, Copy)]
pub struct TraceStoreFactory {
    /// Tenants per repetition: the factory's session ordinal is
    /// `repetition × tenants + tenant` (the fleet convention), so the
    /// stamped tenant is `ordinal % tenants`. Use 1 for plain replicated
    /// solo sessions (every row stamps tenant 0).
    pub tenants: u64,
}

impl TraceStoreFactory {
    /// A factory for solo-session replications (tenant 0 throughout).
    pub fn solo() -> TraceStoreFactory {
        TraceStoreFactory { tenants: 1 }
    }

    /// A factory for fleets of `tenants` tenants per repetition.
    pub fn fleet(tenants: u64) -> TraceStoreFactory {
        assert!(tenants >= 1, "a fleet has at least one tenant");
        TraceStoreFactory { tenants }
    }
}

impl ObserverFactory for TraceStoreFactory {
    type Obs = TraceStore;
    type Summary = TraceStore;

    fn build(&self, session: u64) -> TraceStore {
        TraceStore::for_tenant((session % self.tenants) as u32)
    }

    fn finish(&self, obs: TraceStore) -> TraceStore {
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_sim::ScalingChoice;

    fn t(tu: f64) -> SimTime {
        SimTime::new(tu)
    }

    #[test]
    fn ingest_fills_the_right_table() {
        let mut store = TraceStore::new();
        store
            .ingest(t(1.0), &TraceEvent::JobArrived { job: 3, size_units: 5.0, submitted_tu: 1.0 });
        store.ingest(t(2.0), &TraceEvent::QueueDepthSampled { depth: 9 });
        store.ingest(t(2.0), &TraceEvent::QueueDepthSampled { depth: 7 });
        assert_eq!(store.table(EventKind::JobArrived).rows(), 1);
        assert_eq!(store.table(EventKind::QueueDepthSampled).rows(), 2);
        assert_eq!(store.events(), 3);
        assert!(store.check_invariants());
        let depth =
            store.table(EventKind::QueueDepthSampled).column("depth").expect("declared column");
        assert_eq!(depth.value_f64(1), 7.0);
    }

    #[test]
    fn dispatch_rows_carry_the_hiring_tier() {
        let mut store = TraceStore::new();
        store.ingest(t(0.5), &TraceEvent::VmHired { vm: 0, tier: 1, cores: 4 });
        store.ingest(t(0.6), &TraceEvent::VmHired { vm: 1, tier: 0, cores: 2 });
        for (vm, at) in [(0u64, 1.0), (1, 1.5), (0, 2.0)] {
            store.ingest(
                t(at),
                &TraceEvent::SubtaskDispatched {
                    job: 1,
                    stage: 0,
                    vm,
                    cores: 1,
                    waited_tu: 0.1,
                    busy_tu: 1.0,
                },
            );
        }
        // Reshape does not change the tier, but a later hire of a new VM id does.
        store
            .ingest(t(2.5), &TraceEvent::VmReshaped { vm: 1, tier: 0, cores_from: 2, cores_to: 4 });
        let table = store.table(EventKind::SubtaskDispatched);
        let tier = table.column("tier").expect("derived tier column");
        match tier {
            Column::Dict { codes, dict } => {
                let labels: Vec<&str> = codes.iter().map(|&c| dict.label(c)).collect();
                assert_eq!(labels, ["public", "private", "public"]);
            }
            _ => unreachable!("tier is declared as a dict column"),
        }
    }

    #[test]
    fn unknown_vm_dispatches_label_unknown() {
        let mut store = TraceStore::new();
        store.ingest(
            t(1.0),
            &TraceEvent::SubtaskDispatched {
                job: 0,
                stage: 0,
                vm: 42,
                cores: 1,
                waited_tu: 0.0,
                busy_tu: 1.0,
            },
        );
        let table = store.table(EventKind::SubtaskDispatched);
        match table.column("tier").expect("derived tier column") {
            Column::Dict { codes, dict } => assert_eq!(dict.label(codes[0]), UNKNOWN_TIER),
            _ => unreachable!("tier is declared as a dict column"),
        }
    }

    #[test]
    fn admission_rows_use_the_event_tenant() {
        let mut store = TraceStore::for_tenant(7);
        store.ingest(t(1.0), &TraceEvent::AdmissionDeferred { tenant: 3, jobs: 2, backlog: 2 });
        store.ingest(t(2.0), &TraceEvent::QueueDepthSampled { depth: 1 });
        assert_eq!(store.table(EventKind::AdmissionDeferred).tenant(), [3]);
        assert_eq!(store.table(EventKind::QueueDepthSampled).tenant(), [7]);
    }

    #[test]
    fn merge_concatenates_and_remaps() {
        let mut a = TraceStore::new();
        a.ingest(t(1.0), &TraceEvent::VmHired { vm: 0, tier: 0, cores: 2 });
        let mut b = TraceStore::for_tenant(1);
        b.ingest(t(1.5), &TraceEvent::VmHired { vm: 0, tier: 1, cores: 4 });
        b.ingest(
            t(2.0),
            &TraceEvent::ScalingDecision {
                stage: 0,
                cores: 2,
                queued_jobs: 1,
                delay_cost: 1.0,
                hire_cost: 2.0,
                choice: ScalingChoice::Wait,
            },
        );
        a.merge(b);
        assert_eq!(a.events(), 3);
        assert!(a.check_invariants());
        let hired = a.table(EventKind::VmHired);
        assert_eq!(hired.rows(), 2);
        assert_eq!(hired.tenant(), [0, 1]);
        match hired.column("tier").expect("declared column") {
            Column::Dict { codes, dict } => {
                assert_eq!(dict.labels(), ["private", "public"]);
                assert_eq!(codes, &[0, 1]);
            }
            _ => unreachable!("tier is declared as a dict column"),
        }
    }

    #[test]
    fn tier_labels_round_trip() {
        for tier in [0, 1, 2] {
            assert_eq!(tier_index(tier_label(tier)), tier);
        }
        assert_eq!(tier_index(tier_label(7)), 2);
        assert_eq!(tier_index(UNKNOWN_TIER), u32::MAX);
    }

    #[test]
    fn table_getters_are_typed() {
        let mut store = TraceStore::new();
        store.ingest(t(0.5), &TraceEvent::VmHired { vm: 4, tier: 1, cores: 8 });
        let hired = store.table(EventKind::VmHired);
        assert_eq!(hired.u64s("vm"), [4]);
        assert_eq!(hired.u32s("cores"), [8]);
        assert_eq!(hired.labels("tier"), ["public"]);
        // Absent or differently typed columns read as empty.
        assert!(hired.u32s("vm").is_empty() && hired.f64s("cores").is_empty());
        assert!(hired.labels("cores").is_empty() && hired.u64s("nope").is_empty());
    }

    #[test]
    fn factory_stamps_tenant_ordinals() {
        let f = TraceStoreFactory::fleet(3);
        assert_eq!(ObserverFactory::build(&f, 0).tenant, 0);
        assert_eq!(ObserverFactory::build(&f, 5).tenant, 2);
        assert_eq!(TraceStoreFactory::solo().build(17).tenant, 0);
    }
}
