//! The compact on-disk export: `SCTS` version 2.
//!
//! Layout (all integers little-endian; `varint` is LEB128, 7 bits per
//! byte, low group first):
//!
//! ```text
//! magic      b"SCTS"
//! version    u32        (currently 2)
//! table ×16, in EventKind::ALL order:
//!   rows       varint
//!   if rows > 0:
//!     t        delta-varint × rows   (u64 f64-bit-pattern deltas; the
//!                                     column is monotone, so deltas fit
//!                                     small varints)
//!     tenant   varint × rows
//!     per stored column, in columns(kind) order:
//!       U32    varint × rows
//!       U64    varint × rows
//!       F64    raw 8-byte LE × rows
//!       Dict   labels varint, then per label (len varint + UTF-8 bytes),
//!              then codes varint × rows
//! digest     u64        (FNV-1a 64 over every preceding byte)
//! ```
//!
//! The trailing digest doubles as the store-level fingerprint CI pins:
//! [`TraceStore::digest`] returns it without materializing a file, and
//! because merged stores are bit-identical across thread counts, so is
//! the digest. Empty tables cost one byte each, so a solo fig4 cell
//! (which never emits admission events) pays no overhead for the fleet
//! kinds.

use crate::column::{Column, Interner};
use crate::schema::{columns, ColumnType, EventKind};
use crate::store::{Table, TraceStore};
use std::fmt;

/// The 4-byte export signature.
pub const MAGIC: [u8; 4] = *b"SCTS";

/// The format version this crate writes and reads. Bumped to 2 when the
/// `slo_violation` table and `job_arrived.submitted_tu` column were
/// added (the table count and per-table layout both changed).
pub const VERSION: u32 = 2;

/// Why decoding an export failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The version field is not [`VERSION`].
    BadVersion(u32),
    /// The buffer ended before the layout was complete.
    Truncated,
    /// The trailing digest does not match the decoded bytes.
    DigestMismatch {
        /// Digest stored in the trailer.
        stored: u64,
        /// Digest recomputed over the payload.
        computed: u64,
    },
    /// A decoded value is impossible (oversized varint, bad UTF-8,
    /// dictionary code past the dictionary).
    Malformed,
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::BadMagic => write!(f, "not an SCTS export (bad magic)"),
            ExportError::BadVersion(v) => write!(f, "unsupported SCTS version {v}"),
            ExportError::Truncated => write!(f, "truncated SCTS export"),
            ExportError::DigestMismatch { stored, computed } => {
                write!(f, "SCTS digest mismatch: trailer {stored:016x}, payload {computed:016x}")
            }
            ExportError::Malformed => write!(f, "malformed SCTS payload"),
        }
    }
}

impl std::error::Error for ExportError {}

/// FNV-1a 64 over `bytes` — small, dependency-free, and stable across
/// platforms, which is all a CI fingerprint needs (this is an integrity
/// check, not a cryptographic commitment).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A cursor over the encoded buffer.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ExportError> {
        let end = self.pos.checked_add(n).ok_or(ExportError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(ExportError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn varint(&mut self) -> Result<u64, ExportError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = *self.bytes.get(self.pos).ok_or(ExportError::Truncated)?;
            self.pos += 1;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(ExportError::Malformed)
    }

    fn varint_u32(&mut self) -> Result<u32, ExportError> {
        u32::try_from(self.varint()?).map_err(|_| ExportError::Malformed)
    }
}

fn encode_table(out: &mut Vec<u8>, table: &Table) {
    push_varint(out, table.rows() as u64);
    if table.is_empty() {
        return;
    }
    let mut prev = 0u64;
    for &bits in table.t_bits() {
        push_varint(out, bits.wrapping_sub(prev));
        prev = bits;
    }
    for &tenant in table.tenant() {
        push_varint(out, u64::from(tenant));
    }
    for col in table.columns() {
        match col {
            Column::U32(v) => v.iter().for_each(|&x| push_varint(out, u64::from(x))),
            Column::U64(v) => v.iter().for_each(|&x| push_varint(out, x)),
            Column::F64(v) => v.iter().for_each(|&x| out.extend_from_slice(&x.to_le_bytes())),
            Column::Dict { codes, dict } => {
                push_varint(out, dict.len() as u64);
                for label in dict.labels() {
                    push_varint(out, label.len() as u64);
                    out.extend_from_slice(label.as_bytes());
                }
                codes.iter().for_each(|&c| push_varint(out, u64::from(c)));
            }
        }
    }
}

fn decode_table(r: &mut Reader<'_>, kind: EventKind) -> Result<Table, ExportError> {
    let rows = usize::try_from(r.varint()?).map_err(|_| ExportError::Malformed)?;
    if rows == 0 {
        // Even an empty table carries its declared (empty) columns, so
        // schema-resolved queries stay in bounds.
        return Ok(Table::new(kind));
    }
    // Cap against absurd row counts before allocating (a corrupt varint
    // must not turn into an OOM): the buffer can hold at most one byte
    // per remaining row.
    if rows > r.bytes.len().saturating_sub(r.pos) {
        return Err(ExportError::Truncated);
    }
    let mut t_bits = Vec::with_capacity(rows);
    let mut prev = 0u64;
    for _ in 0..rows {
        prev = prev.wrapping_add(r.varint()?);
        t_bits.push(prev);
    }
    let mut tenant = Vec::with_capacity(rows);
    for _ in 0..rows {
        tenant.push(r.varint_u32()?);
    }
    let mut cols = Vec::with_capacity(columns(kind).len());
    for spec in columns(kind) {
        let col = match spec.ty {
            ColumnType::U32 => {
                let mut v = Vec::with_capacity(rows);
                for _ in 0..rows {
                    v.push(r.varint_u32()?);
                }
                Column::U32(v)
            }
            ColumnType::U64 => {
                let mut v = Vec::with_capacity(rows);
                for _ in 0..rows {
                    v.push(r.varint()?);
                }
                Column::U64(v)
            }
            ColumnType::F64 => {
                let mut v = Vec::with_capacity(rows);
                for _ in 0..rows {
                    let raw = r.take(8)?;
                    let mut le = [0u8; 8];
                    le.copy_from_slice(raw);
                    v.push(f64::from_le_bytes(le));
                }
                Column::F64(v)
            }
            ColumnType::Dict => {
                let n_labels = usize::try_from(r.varint()?).map_err(|_| ExportError::Malformed)?;
                if n_labels > r.bytes.len().saturating_sub(r.pos) {
                    return Err(ExportError::Truncated);
                }
                let mut labels = Vec::with_capacity(n_labels);
                for _ in 0..n_labels {
                    let len = usize::try_from(r.varint()?).map_err(|_| ExportError::Malformed)?;
                    let raw = r.take(len)?;
                    labels
                        .push(String::from_utf8(raw.to_vec()).map_err(|_| ExportError::Malformed)?);
                }
                let mut codes = Vec::with_capacity(rows);
                for _ in 0..rows {
                    let code = r.varint_u32()?;
                    if code as usize >= n_labels {
                        return Err(ExportError::Malformed);
                    }
                    codes.push(code);
                }
                Column::Dict { codes, dict: Interner::from_labels(labels) }
            }
        };
        cols.push(col);
    }
    Ok(Table::from_parts(kind, t_bits, tenant, cols))
}

impl TraceStore {
    /// Encodes the store as an SCTS v2 buffer (payload + digest
    /// trailer). Bit-identical for equal stores, so merged fleet exports
    /// reproduce across `RAYON_NUM_THREADS`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.events() as usize * 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        for table in self.tables() {
            encode_table(&mut out, table);
        }
        let digest = fnv1a64(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    /// The store's FNV-1a 64 fingerprint — the same value the export's
    /// trailer carries, computed without materializing a file.
    pub fn digest(&self) -> u64 {
        let bytes = self.to_bytes();
        let trailer = &bytes[bytes.len() - 8..];
        let mut le = [0u8; 8];
        le.copy_from_slice(trailer);
        u64::from_le_bytes(le)
    }

    /// Decodes an SCTS v2 buffer, verifying magic, version, layout, and
    /// the digest trailer.
    pub fn from_bytes(bytes: &[u8]) -> Result<TraceStore, ExportError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(ExportError::Truncated);
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let mut le = [0u8; 8];
        le.copy_from_slice(trailer);
        let stored = u64::from_le_bytes(le);
        let computed = fnv1a64(payload);
        if stored != computed {
            return Err(ExportError::DigestMismatch { stored, computed });
        }
        let mut r = Reader { bytes: payload, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(ExportError::BadMagic);
        }
        let mut ver = [0u8; 4];
        ver.copy_from_slice(r.take(4)?);
        let version = u32::from_le_bytes(ver);
        if version != VERSION {
            return Err(ExportError::BadVersion(version));
        }
        let mut tables = Vec::with_capacity(EventKind::ALL.len());
        for kind in EventKind::ALL {
            tables.push(decode_table(&mut r, kind)?);
        }
        if r.pos != payload.len() {
            return Err(ExportError::Malformed);
        }
        Ok(TraceStore::from_tables(tables))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Agg, EventKind};
    use crate::Query;
    use scan_sim::{ScalingChoice, SimTime, TraceEvent};

    fn sample_store() -> TraceStore {
        let mut store = TraceStore::new();
        store.ingest(SimTime::new(0.25), &TraceEvent::VmHired { vm: 0, tier: 0, cores: 4 });
        store.ingest(
            SimTime::new(1.0),
            &TraceEvent::JobArrived { job: 0, size_units: 12.0, submitted_tu: 1.0 },
        );
        store.ingest(
            SimTime::new(1.5),
            &TraceEvent::SubtaskDispatched {
                job: 0,
                stage: 0,
                vm: 0,
                cores: 2,
                waited_tu: 0.5,
                busy_tu: 2.0,
            },
        );
        store.ingest(
            SimTime::new(2.0),
            &TraceEvent::ScalingDecision {
                stage: 0,
                cores: 2,
                queued_jobs: 3,
                delay_cost: 1.25,
                hire_cost: f64::NAN,
                choice: ScalingChoice::Wait,
            },
        );
        store.ingest(SimTime::new(9.0), &TraceEvent::RunEnded { events_dispatched: 1 << 40 });
        store
    }

    /// One event of every variant (two fleet tenants, every
    /// `ScalingChoice`, both tiers, NaN and infinite costs), each at its
    /// own time.
    fn every_variant() -> Vec<(SimTime, TraceEvent)> {
        let decision = |choice, delay_cost, hire_cost| TraceEvent::ScalingDecision {
            stage: 6,
            cores: 16,
            queued_jobs: 4_000_000_000,
            delay_cost,
            hire_cost,
            choice,
        };
        let events = [
            TraceEvent::VmHired { vm: 3, tier: 1, cores: 8 },
            TraceEvent::VmHired { vm: 4, tier: 0, cores: 2 },
            TraceEvent::AdmissionDeferred { tenant: 2, jobs: 5, backlog: 5 },
            TraceEvent::JobArrived { job: 7, size_units: 5.798604725604796, submitted_tu: 0.1 },
            TraceEvent::JobStageAdvanced { job: 7, stage: 0, shards: 2, cores: 8 },
            TraceEvent::VmBooted { vm: 3, cores: 8 },
            TraceEvent::SubtaskDispatched {
                job: 7,
                stage: 0,
                vm: 3,
                cores: 8,
                waited_tu: 0.25,
                busy_tu: 1.7648625957560722,
            },
            TraceEvent::SubtaskDispatched {
                job: u64::from(u32::MAX),
                stage: 1,
                vm: 4,
                cores: 2,
                waited_tu: 0.0,
                busy_tu: 3.5,
            },
            TraceEvent::SubtaskDone { job: 7, stage: 0, vm: 3 },
            TraceEvent::VmReshaped { vm: 4, tier: 0, cores_from: 2, cores_to: 8 },
            decision(ScalingChoice::Wait, 10.5, 2.25),
            decision(ScalingChoice::HirePrivate, f64::NAN, f64::NAN),
            decision(ScalingChoice::ThrottledPrivate, f64::INFINITY, 0.0),
            decision(ScalingChoice::HirePublic, -0.0, f64::NEG_INFINITY),
            decision(ScalingChoice::Reshape, 1.0, 3.0),
            TraceEvent::QueueDepthSampled { depth: u32::MAX },
            TraceEvent::JobCompleted {
                job: 7,
                latency_tu: 15.8160051595641,
                reward: -2.5,
                core_stages: 37.0,
            },
            TraceEvent::SloViolation { job: 7, latency_tu: 15.8160051595641, target_tu: 10.0 },
            TraceEvent::AdmissionResumed { tenant: 2, jobs: 5, backlog: 0 },
            TraceEvent::VmReleased { vm: 3, tier: 1, cores: 8 },
            TraceEvent::TierSettled { tier: 0, cost: 12.5, core_tu: 621972.7974353022 },
            TraceEvent::TierSettled { tier: 1, cost: f64::NAN, core_tu: 0.0 },
            TraceEvent::RunEnded { events_dispatched: 1 << 40 },
        ];
        events.into_iter().enumerate().map(|(i, e)| (SimTime::new(i as f64 * 0.5), e)).collect()
    }

    /// Byte pin for every table's layout: the fleet digest covers only
    /// the kinds a fleet run emits, so this store holds one row (or
    /// more) of all sixteen.
    #[test]
    fn every_table_scts_bytes_are_pinned() {
        let mut store = TraceStore::for_tenant(1);
        for (at, e) in every_variant() {
            store.ingest(at, &e);
        }
        assert!(store.tables().iter().all(|t| !t.is_empty()));
        let got = (store.digest(), store.to_bytes().len());
        assert_eq!(got, (0xa737dde756355d57, 665), "{got:#x?}");
    }

    /// Every ingested event reads back from its table row unchanged, from
    /// the live store and from its decoded export.
    #[test]
    fn table_rows_read_back_as_their_events() {
        let events = every_variant();
        let mut store = TraceStore::for_tenant(1);
        for (at, e) in &events {
            store.ingest(*at, e);
        }
        let decoded = TraceStore::from_bytes(&store.to_bytes()).expect("own export must decode");
        for s in [&store, &decoded] {
            let mut next_row = [0usize; EventKind::ALL.len()];
            for (_, e) in &events {
                let kind = EventKind::of(e);
                let row = &mut next_row[kind as usize];
                // NaN costs defeat `PartialEq`; `Debug` prints them alike.
                assert_eq!(format!("{:?}", s.table(kind).event(*row)), format!("{e:?}"));
                *row += 1;
            }
        }
    }

    /// Ids are stored at their field width: a job number past `u32::MAX`
    /// must not saturate (two such jobs would collide).
    #[test]
    fn ids_above_u32_max_survive_the_store() {
        let job = u64::from(u32::MAX) + 5;
        let arrived = TraceEvent::JobArrived { job, size_units: 1.0, submitted_tu: 0.0 };
        let mut store = TraceStore::new();
        store.ingest(SimTime::new(0.0), &arrived);
        let decoded = TraceStore::from_bytes(&store.to_bytes()).expect("own export must decode");
        for s in [&store, &decoded] {
            let table = s.table(EventKind::JobArrived);
            assert_eq!(table.column("job").and_then(|c| c.group_key(0)), Some(job));
            assert_eq!(table.u64s("job"), [job]);
            assert_eq!(table.event(0), arrived);
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let store = sample_store();
        let bytes = store.to_bytes();
        let decoded = TraceStore::from_bytes(&bytes).expect("own export must decode");
        // NaN in the scaling costs breaks PartialEq, so compare re-encoded
        // bytes: bit-identical encode ⇒ bit-identical store.
        assert_eq!(decoded.to_bytes(), bytes);
        assert_eq!(decoded.events(), store.events());
        assert!(decoded.check_invariants());
    }

    #[test]
    fn decoded_stores_answer_queries() {
        let store = sample_store();
        let decoded = TraceStore::from_bytes(&store.to_bytes()).expect("own export must decode");
        let rows = Query::over(EventKind::SubtaskDispatched)
            .group_by("tier")
            .aggregate(Agg::P95, "waited_tu")
            .run(&decoded)
            .expect("tier and waited_tu are declared");
        assert_eq!(rows[0].group.as_deref(), Some("private"));
        assert_eq!(rows[0].value, 0.5);
    }

    #[test]
    fn digest_matches_trailer_and_detects_tampering() {
        let store = sample_store();
        let mut bytes = store.to_bytes();
        assert_eq!(store.digest(), {
            let mut le = [0u8; 8];
            le.copy_from_slice(&bytes[bytes.len() - 8..]);
            u64::from_le_bytes(le)
        });
        let flip = bytes.len() / 2;
        bytes[flip] ^= 0x01;
        assert!(matches!(TraceStore::from_bytes(&bytes), Err(ExportError::DigestMismatch { .. })));
    }

    #[test]
    fn rejects_wrong_magic_version_and_truncation() {
        let store = sample_store();
        let good = store.to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let payload_len = bad_magic.len() - 8;
        let digest = fnv1a64(&bad_magic[..payload_len]);
        bad_magic[payload_len..].copy_from_slice(&digest.to_le_bytes());
        assert_eq!(TraceStore::from_bytes(&bad_magic), Err(ExportError::BadMagic));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        let digest = fnv1a64(&bad_version[..payload_len]);
        bad_version[payload_len..].copy_from_slice(&digest.to_le_bytes());
        assert_eq!(TraceStore::from_bytes(&bad_version), Err(ExportError::BadVersion(99)));

        assert_eq!(TraceStore::from_bytes(&good[..5]), Err(ExportError::Truncated));
    }

    #[test]
    fn empty_store_is_tiny() {
        let bytes = TraceStore::new().to_bytes();
        // magic + version + one zero-varint per kind + digest.
        assert_eq!(bytes.len(), 4 + 4 + 16 + 8);
        let decoded = TraceStore::from_bytes(&bytes).expect("empty export must decode");
        assert_eq!(decoded.events(), 0);
    }

    #[test]
    fn merged_exports_are_deterministic() {
        let build = |tenant: u32, depth: u32| {
            let mut s = TraceStore::for_tenant(tenant);
            s.ingest(SimTime::new(1.0), &TraceEvent::QueueDepthSampled { depth });
            s.ingest(SimTime::new(2.0), &TraceEvent::VmHired { vm: 0, tier: tenant, cores: 2 });
            s
        };
        let merge_all = || {
            let mut base = build(0, 4);
            scan_sim::Merge::merge(&mut base, build(1, 7));
            scan_sim::Merge::merge(&mut base, build(2, 9));
            base.to_bytes()
        };
        assert_eq!(merge_all(), merge_all());
    }
}
