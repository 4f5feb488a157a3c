//! The store's data model: one column set per trace-event kind.
//!
//! Every [`TraceEvent`](scan_sim::TraceEvent) variant maps to one
//! table, keyed by its [`EventKind`] (declared with the event itself in
//! `scan_sim`), in [`TraceEvent::SCHEMA`](scan_sim::TraceEvent::SCHEMA)
//! order. A kind's stored columns are worked out once from its declared
//! fields, and [`columns`] returns them:
//!
//! * a column's type is its field's type (`u32` → U32, `u64` → U64,
//!   `f64` → F64, a `ScalingChoice` → Dict of its name);
//! * a `tenant` field is stored in the implicit `tenant` column;
//! * a `tier` field is dictionary-encoded through
//!   [`tier_label`](crate::store::tier_label);
//! * `subtask_dispatched` gets a derived `tier` column appended, the
//!   dispatching VM's tier from its hire/reshape history.
//!
//! Ingest, [`Table::event`](crate::Table::event), the query layer and the
//! export all read that one layout, and the root `tests/doc_tables.rs`
//! checks it against `docs/TRACESTORE.md` in both directions (so a field
//! added or renamed without its documentation row fails CI, and vice
//! versa).
//!
//! Two implicit columns precede every table's declared columns and are
//! therefore *not* listed in [`columns`]:
//!
//! * `t` — the event's simulation time, stored as the `u64` bit pattern
//!   of the non-negative `f64` TU value (bit order equals numeric order,
//!   so the column is monotone and delta-encodes well);
//! * `tenant` — the owning tenant's id (0 for single-tenant sessions;
//!   the event's own `tenant` payload for the admission events).

pub use scan_sim::EventKind;
use scan_sim::FieldSchema;
use std::sync::OnceLock;

/// The physical type of one stored column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Plain `u32` values (stages, core counts, depths).
    U32,
    /// Plain `u64` values (job and VM ids, large counters).
    U64,
    /// `f64` values (times in TU, costs in CU, sizes).
    F64,
    /// Dictionary-encoded labels: a per-column string dictionary plus a
    /// `u32` code per row.
    Dict,
}

/// One stored column of a kind's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSpec {
    /// Column name; equals the `TraceEvent` field (and JSONL key) it
    /// stores, except for the derived `tier` on `subtask_dispatched`.
    pub name: &'static str,
    /// Physical type of the column.
    pub ty: ColumnType,
}

/// Where one declared field of an event is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// The implicit `tenant` column.
    Tenant,
    /// Stored column `i` of the kind's table.
    Column(usize),
}

/// One kind's storage layout, worked out from its declared fields.
#[derive(Debug)]
pub(crate) struct Layout {
    /// Stored columns, in storage order.
    pub(crate) columns: Vec<ColumnSpec>,
    /// Per declared field, in declaration order: where it is stored.
    pub(crate) slots: Vec<Slot>,
    /// Position of the `vm` field, if the kind declares one.
    pub(crate) vm: Option<usize>,
    /// Position of the `tier` field, if the kind declares one.
    pub(crate) tier: Option<usize>,
}

impl Layout {
    fn of(kind: EventKind) -> Layout {
        let fields = kind.schema().fields;
        let mut columns = Vec::with_capacity(fields.len() + 1);
        let slots = fields
            .iter()
            .map(|field| {
                if field.name == "tenant" {
                    return Slot::Tenant;
                }
                columns.push(ColumnSpec { name: field.name, ty: column_type(field) });
                Slot::Column(columns.len() - 1)
            })
            .collect();
        if kind == EventKind::SubtaskDispatched {
            columns.push(ColumnSpec { name: "tier", ty: ColumnType::Dict });
        }
        let position = |name: &str| fields.iter().position(|f| f.name == name);
        Layout { columns, slots, vm: position("vm"), tier: position("tier") }
    }
}

/// The column type a declared field is stored as.
fn column_type(field: &FieldSchema) -> ColumnType {
    match field.ty {
        _ if field.name == "tier" => ColumnType::Dict,
        "u32" => ColumnType::U32,
        "u64" => ColumnType::U64,
        "f64" => ColumnType::F64,
        _ => ColumnType::Dict,
    }
}

/// The layout of `kind`'s table (built once for all kinds).
pub(crate) fn layout(kind: EventKind) -> &'static Layout {
    static LAYOUTS: OnceLock<Vec<Layout>> = OnceLock::new();
    &LAYOUTS.get_or_init(|| EventKind::ALL.into_iter().map(Layout::of).collect())[kind as usize]
}

/// The stored columns of `kind`'s table, in storage order.
pub fn columns(kind: EventKind) -> &'static [ColumnSpec] {
    &layout(kind).columns
}

/// The position of a stored column of `kind`'s table by name.
pub fn column_index(kind: EventKind, name: &str) -> Option<usize> {
    columns(kind).iter().position(|c| c.name == name)
}

/// The aggregation functions the query layer can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Row count of the selection (no value column needed).
    Count,
    /// Sum of the value column, accumulated in row order.
    Sum,
    /// Arithmetic mean of the value column (sum in row order / count).
    Mean,
    /// Median by the nearest-rank method over `total_cmp`-sorted values.
    P50,
    /// 95th percentile, nearest-rank over `total_cmp`-sorted values.
    P95,
    /// Maximum by `total_cmp` (NaNs sort above every number).
    Max,
}

impl Agg {
    /// Stable lowercase label (used in query results and the docs).
    pub fn name(self) -> &'static str {
        match self {
            Self::Count => "count",
            Self::Sum => "sum",
            Self::Mean => "mean",
            Self::P50 => "p50",
            Self::P95 => "p95",
            Self::Max => "max",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_sim::TraceEvent;

    #[test]
    fn columns_follow_the_declared_fields() {
        for (kind, event) in EventKind::ALL.into_iter().zip(TraceEvent::SCHEMA) {
            // Columns are the event's fields, except the admission events'
            // `tenant` (the implicit column) and the derived dispatch `tier`.
            let fields: Vec<&str> =
                event.fields.iter().map(|f| f.name).filter(|&f| f != "tenant").collect();
            let mut names: Vec<&str> = columns(kind).iter().map(|c| c.name).collect();
            if kind == EventKind::SubtaskDispatched {
                assert_eq!(names.pop(), Some("tier"));
            }
            assert_eq!(names, fields, "{}", kind.tag());
        }
        let ty = |kind, name| columns(kind)[column_index(kind, name).expect("declared")].ty;
        assert_eq!(ty(EventKind::JobArrived, "job"), ColumnType::U64);
        assert_eq!(ty(EventKind::VmHired, "tier"), ColumnType::Dict);
        assert_eq!(ty(EventKind::VmHired, "cores"), ColumnType::U32);
        assert_eq!(ty(EventKind::ScalingDecision, "choice"), ColumnType::Dict);
        assert_eq!(ty(EventKind::SubtaskDispatched, "tier"), ColumnType::Dict);
    }

    #[test]
    fn column_names_are_unique_per_kind() {
        for kind in EventKind::ALL {
            let cols = columns(kind);
            for (i, a) in cols.iter().enumerate() {
                assert_ne!(a.name, "t", "t is implicit");
                assert_ne!(a.name, "tenant", "tenant is implicit");
                for b in &cols[i + 1..] {
                    assert_ne!(a.name, b.name, "duplicate column in {}", kind.tag());
                }
            }
            assert_eq!(column_index(kind, cols[0].name), Some(0));
            assert_eq!(column_index(kind, "no_such_column"), None);
        }
    }
}
