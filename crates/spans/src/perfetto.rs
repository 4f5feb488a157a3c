//! Chrome/Perfetto `trace_event` JSON export.
//!
//! The produced document loads directly in `ui.perfetto.dev` (or
//! `chrome://tracing`): one process per tenant, one thread track per
//! worker VM carrying its boot/reshape and subtask slices, a
//! `queue_depth` counter track per tenant, and each completed job as a
//! nestable async span with its derived segments nested inside.
//!
//! Layout (all times µs = TU × 1e6, rendered through `f64::Display` so
//! equal inputs always produce byte-equal output):
//!
//! - `M` metadata rows name every process and thread track.
//! - `X` complete slices: `cat:"boot"` (hire→boot, reshape→boot) and
//!   `cat:"subtask"` (dispatch, `dur` = `busy_tu`) on `tid = vm + 16`.
//! - `C` counter rows: `queue_depth` per tenant.
//! - `b`/`e` nestable async rows: `cat:"job"` spanning
//!   `[submitted, completed]` with `cat:"segment"` children, correlated
//!   by `id = (tenant << 32) | job` in hex (the platform's job ids are
//!   `u32`, so the two halves never overlap).

use crate::span::SpanSet;
use scan_tracestore::{tier_label, EventKind, TraceStore};
use std::fmt::Write as _;

/// Offset keeping VM thread tracks clear of the reserved/queue tids.
const VM_TID_OFFSET: u64 = 16;

/// Escapes a string for a JSON literal (control chars, quotes, slashes).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// µs timestamp from a TU time, via shortest round-trip `Display`.
fn us(t_tu: f64) -> String {
    format!("{}", t_tu * 1e6)
}

struct EventWriter {
    out: String,
    first: bool,
}

impl EventWriter {
    fn new() -> EventWriter {
        EventWriter { out: String::from("{\"traceEvents\":["), first: true }
    }

    /// Appends one pre-rendered event object body (without braces).
    fn push(&mut self, body: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('{');
        self.out.push_str(body);
        self.out.push('}');
    }

    fn finish(mut self) -> String {
        self.out.push_str("],\"displayTimeUnit\":\"ms\"}");
        self.out
    }
}

/// Renders the trace-event JSON for a single-run store and its derived
/// spans (the pair a [`Recorder`](crate::observer::Recorder) produces).
pub fn export(store: &TraceStore, spans: &SpanSet) -> String {
    let mut w = EventWriter::new();

    // --- Track metadata -------------------------------------------------
    // Tenants present anywhere in the store or span set, ascending.
    let mut tenants: Vec<u32> = Vec::new();
    for table in store.tables() {
        for &t in table.tenant() {
            if let Err(at) = tenants.binary_search(&t) {
                tenants.insert(at, t);
            }
        }
    }
    for job in &spans.jobs {
        if let Err(at) = tenants.binary_search(&job.tenant) {
            tenants.insert(at, job.tenant);
        }
    }
    for &tenant in &tenants {
        w.push(&format!(
            "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{tenant},\
             \"args\":{{\"name\":\"tenant {tenant}\"}}"
        ));
    }
    // One thread track per hired VM, named with its (first) tier.
    let hired = store.table(EventKind::VmHired);
    let (h_vm, h_tier) = (hired.u64s("vm"), hired.labels("tier"));
    let mut named: Vec<(u32, u64)> = Vec::new();
    for i in 0..hired.rows() {
        let key = (hired.tenant()[i], h_vm[i]);
        if !named.contains(&key) {
            named.push(key);
            w.push(&format!(
                "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                 \"args\":{{\"name\":\"vm {} ({})\"}}",
                key.0,
                key.1 + VM_TID_OFFSET,
                key.1,
                escape(h_tier[i]),
            ));
        }
    }

    // --- Boot / reshape slices ------------------------------------------
    // Pair each hire or reshape with the next boot of the same VM.
    let reshaped = store.table(EventKind::VmReshaped);
    let (r_vm, r_tier) = (reshaped.u64s("vm"), reshaped.labels("tier"));
    let booted = store.table(EventKind::VmBooted);
    let b_vm = booted.u64s("vm");
    let mut starts: Vec<(u32, u64, u8, u32)> = Vec::new();
    for i in 0..hired.rows() {
        starts.push((hired.tenant()[i], hired.t_bits()[i], 0, i as u32));
    }
    for i in 0..reshaped.rows() {
        starts.push((reshaped.tenant()[i], reshaped.t_bits()[i], 1, i as u32));
    }
    starts.sort_unstable();
    let mut open: Vec<((u32, u64), (f64, String))> = Vec::new();
    let mut boots: Vec<(u32, f64, f64, String, u64)> = Vec::new();
    let mut bi = 0usize;
    // Replay starts and boots in time order per tenant (single-run
    // stores are time-monotone per tenant, and boot always follows its
    // start strictly later or at the same instant).
    for (tenant, t_bits, which, i) in starts {
        let i = i as usize;
        let (vm, name) = match which {
            0 => (h_vm[i], format!("boot ({})", escape(h_tier[i]))),
            _ => (r_vm[i], format!("reshape ({})", escape(r_tier[i]))),
        };
        // Close any boots that completed before this start.
        while bi < booted.rows() && booted.t_bits()[bi] <= t_bits {
            let key = (booted.tenant()[bi], b_vm[bi]);
            if let Some(at) = open.iter().position(|(k, _)| *k == key) {
                let ((ten, vmid), (start, label)) = open.remove(at);
                boots.push((ten, start, booted.time_tu(bi), label, vmid));
            }
            bi += 1;
        }
        if let Some(at) = open.iter().position(|(k, _)| *k == (tenant, vm)) {
            open.remove(at);
        }
        open.push(((tenant, vm), (f64::from_bits(t_bits), name)));
    }
    while bi < booted.rows() {
        let key = (booted.tenant()[bi], b_vm[bi]);
        if let Some(at) = open.iter().position(|(k, _)| *k == key) {
            let ((ten, vmid), (start, label)) = open.remove(at);
            boots.push((ten, start, booted.time_tu(bi), label, vmid));
        }
        bi += 1;
    }
    boots.sort_by_key(|b| (b.0, b.1.to_bits(), b.4));
    for (tenant, start, end, label, vm) in boots {
        w.push(&format!(
            "\"name\":\"{label}\",\"cat\":\"boot\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{tenant},\"tid\":{}",
            us(start),
            us(end - start),
            vm + VM_TID_OFFSET,
        ));
    }

    // --- Subtask slices --------------------------------------------------
    let disp = store.table(EventKind::SubtaskDispatched);
    let (d_job, d_stage) = (disp.u64s("job"), disp.u32s("stage"));
    let (d_vm, d_cores) = (disp.u64s("vm"), disp.u32s("cores"));
    let d_busy = disp.f64s("busy_tu");
    for i in 0..disp.rows() {
        w.push(&format!(
            "\"name\":\"job {}/s{}\",\"cat\":\"subtask\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":{},\"args\":{{\"cores\":{}}}",
            d_job[i],
            d_stage[i],
            us(disp.time_tu(i)),
            us(d_busy[i]),
            disp.tenant()[i],
            d_vm[i] + VM_TID_OFFSET,
            d_cores[i],
        ));
    }

    // --- Queue-depth counters -------------------------------------------
    let depth = store.table(EventKind::QueueDepthSampled);
    let d_val = depth.u32s("depth");
    for (i, &d) in d_val.iter().enumerate() {
        w.push(&format!(
            "\"name\":\"queue_depth\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\
             \"args\":{{\"depth\":{}}}",
            us(depth.time_tu(i)),
            depth.tenant()[i],
            d,
        ));
    }

    // --- Job spans with nested segments ---------------------------------
    for job in &spans.jobs {
        let id = (u64::from(job.tenant) << 32) | job.job;
        let common = format!("\"cat\":\"job\",\"id\":\"0x{id:x}\",\"pid\":{}", job.tenant);
        w.push(&format!(
            "\"name\":\"job {}\",\"ph\":\"b\",\"ts\":{},{common},\
             \"args\":{{\"latency_tu\":{},\"stages\":{}}}",
            job.job,
            us(job.submitted_tu),
            job.latency_tu,
            job.stages,
        ));
        for seg in &job.segments {
            let seg_common =
                format!("\"cat\":\"segment\",\"id\":\"0x{id:x}\",\"pid\":{}", job.tenant);
            let tier = if seg.tier == crate::span::NO_TIER {
                String::from("null")
            } else {
                format!("\"{}\"", tier_label(seg.tier))
            };
            w.push(&format!(
                "\"name\":\"{}\",\"ph\":\"b\",\"ts\":{},{seg_common},\
                 \"args\":{{\"tier\":{tier}}}",
                seg.kind.name(),
                us(seg.start_tu),
            ));
            w.push(&format!(
                "\"name\":\"{}\",\"ph\":\"e\",\"ts\":{},{seg_common}",
                seg.kind.name(),
                us(seg.end_tu),
            ));
        }
        w.push(&format!(
            "\"name\":\"job {}\",\"ph\":\"e\",\"ts\":{},{common}",
            job.job,
            us(job.completed_tu),
        ));
    }

    w.finish()
}

/// A minimal JSON reader the tests use to schema-validate exports
/// without a JSON dependency. Accepts strict JSON; numbers parse through
/// `f64`.
#[cfg(test)]
mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Member lookup on objects.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric payload, if this is a number.
        pub fn as_num(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    /// Parses a complete JSON document.
    pub fn parse(src: &str) -> Result<Value, String> {
        let mut p = Parser { bytes: src.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at {}", p.pos));
        }
        Ok(v)
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.bytes.get(self.pos) == Some(&b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at {}", b as char, self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(_) => self.number(),
                None => Err(String::from("unexpected end of input")),
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at {}", self.pos))
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while matches!(
                self.bytes.get(self.pos),
                Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            ) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| String::from("non-utf8 number"))?;
            text.parse::<f64>().map(Value::Num).map_err(|_| format!("bad number at {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos) {
                    None => return Err(String::from("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.bytes.get(self.pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| String::from("bad \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| String::from("bad \\u escape"))?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| String::from("bad \\u scalar"))?,
                                );
                                self.pos += 4;
                            }
                            _ => return Err(format!("bad escape at {}", self.pos)),
                        }
                        self.pos += 1;
                    }
                    Some(&b) => {
                        // Multi-byte UTF-8 passes through unchanged.
                        let ch_len = match b {
                            0x00..=0x7f => 1,
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        let chunk = self
                            .bytes
                            .get(self.pos..self.pos + ch_len)
                            .and_then(|c| std::str::from_utf8(c).ok())
                            .ok_or_else(|| String::from("bad utf8 in string"))?;
                        out.push_str(chunk);
                        self.pos += ch_len;
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at {}", self.pos)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&b'}') {
                self.pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let v = self.value()?;
                members.push((key, v));
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at {}", self.pos)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value};
    use super::*;
    use crate::observer::Recorder;
    use scan_sim::{Observer, SimTime, TraceEvent};

    fn recording() -> Recorder {
        let mut rec = Recorder::default();
        let events: Vec<(f64, TraceEvent)> = vec![
            (0.25, TraceEvent::VmHired { vm: 0, tier: 0, cores: 2 }),
            (0.5, TraceEvent::QueueDepthSampled { depth: 1 }),
            (1.0, TraceEvent::JobArrived { job: 0, size_units: 4.0, submitted_tu: 0.75 }),
            (1.0, TraceEvent::JobStageAdvanced { job: 0, stage: 0, shards: 1, cores: 1 }),
            (1.25, TraceEvent::VmBooted { vm: 0, cores: 2 }),
            (
                1.25,
                TraceEvent::SubtaskDispatched {
                    job: 0,
                    stage: 0,
                    vm: 0,
                    cores: 1,
                    waited_tu: 0.25,
                    busy_tu: 1.5,
                },
            ),
            (
                2.75,
                TraceEvent::JobCompleted { job: 0, latency_tu: 2.0, reward: 4.0, core_stages: 1.0 },
            ),
        ];
        for (t, e) in events {
            rec.on_event(SimTime::new(t), &e);
        }
        rec
    }

    /// The export is valid JSON with the documented envelope, every
    /// event carries the mandatory trace_event fields, and the async
    /// begin/end rows balance per id.
    #[test]
    fn export_is_schema_valid_trace_event_json() {
        let rec = recording();
        let spans = rec.spans.clone().into_spans();
        let doc = export(&rec.store, &spans);
        let parsed = parse(&doc).expect("export must be well-formed JSON");
        assert_eq!(parsed.get("displayTimeUnit").and_then(Value::as_str), Some("ms"), "envelope");
        let events = parsed.get("traceEvents").and_then(Value::as_arr).expect("traceEvents array");
        assert!(!events.is_empty());
        let mut balance = 0i64;
        let mut saw = [false; 5]; // M, X, C, b, e
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).expect("every event has ph");
            assert!(e.get("name").and_then(Value::as_str).is_some(), "name");
            assert!(e.get("pid").and_then(Value::as_num).is_some(), "pid");
            match ph {
                "M" => saw[0] = true,
                "X" => {
                    saw[1] = true;
                    assert!(e.get("ts").and_then(Value::as_num).is_some());
                    assert!(e.get("dur").and_then(Value::as_num).unwrap_or(-1.0) >= 0.0);
                    assert!(e.get("tid").and_then(Value::as_num).is_some());
                }
                "C" => {
                    saw[2] = true;
                    assert!(e.get("args").is_some());
                }
                "b" => {
                    saw[3] = true;
                    balance += 1;
                    assert!(e.get("id").and_then(Value::as_str).is_some());
                }
                "e" => {
                    saw[4] = true;
                    balance -= 1;
                    assert!(e.get("id").and_then(Value::as_str).is_some());
                }
                other => panic!("unexpected phase {other:?}"),
            }
        }
        assert!(saw.iter().all(|&s| s), "all phases present: {saw:?}");
        assert_eq!(balance, 0, "async begin/end rows balance");
    }

    /// Track layout: the VM thread sits at `vm + 16`, subtask slices
    /// land on it, and the boot slice covers hire→boot.
    #[test]
    fn export_lays_out_tracks_per_vm_and_tenant() {
        let rec = recording();
        let spans = rec.spans.clone().into_spans();
        let doc = export(&rec.store, &spans);
        let parsed = parse(&doc).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(Value::as_arr).unwrap();
        let thread_name = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .expect("thread_name metadata");
        assert_eq!(thread_name.get("tid").and_then(Value::as_num), Some(16.0));
        assert_eq!(
            thread_name.get("args").and_then(|a| a.get("name")).and_then(Value::as_str),
            Some("vm 0 (private)")
        );
        let boot = events
            .iter()
            .find(|e| e.get("cat").and_then(Value::as_str) == Some("boot"))
            .expect("boot slice");
        assert_eq!(boot.get("ts").and_then(Value::as_num), Some(250000.0));
        assert_eq!(boot.get("dur").and_then(Value::as_num), Some(1000000.0));
        let seg_names: Vec<&str> = events
            .iter()
            .filter(|e| {
                e.get("cat").and_then(Value::as_str) == Some("segment")
                    && e.get("ph").and_then(Value::as_str) == Some("b")
            })
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        // Zero-width queue waits on both sides of the boot are elided:
        // the job defers 0.75→1.0, waits for the boot 1.0→1.25, then
        // runs 1.25→2.75 with no fan-in tail.
        assert_eq!(seg_names, ["admission_deferred", "boot_wait", "service"]);
    }

    #[test]
    fn json_reader_handles_escapes_and_rejects_garbage() {
        let v = parse(r#"{"a":[1,-2.5e3,true,null],"b":"x\n\"yA"}"#).expect("valid");
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x\n\"yA"));
        assert_eq!(v.get("a").and_then(Value::as_arr).map(<[Value]>::len), Some(4));
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
    }
}
