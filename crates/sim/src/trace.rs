//! Typed simulation trace: a flat event vocabulary and pluggable
//! observers, so every layer of the platform can narrate what it does
//! without knowing who is listening.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** [`Tracer::emit`] returns immediately
//!    when no sink is attached, and the [`Tracer::emit_with`] form defers
//!    even the event *construction* behind that check, so un-observed
//!    hot paths pay one branch on an almost-always-empty `Vec`.
//! 2. **Primitive payloads.** This crate sits below the domain crates, so
//!    [`TraceEvent`] carries raw `u64`/`u32`/`f64` fields (job numbers,
//!    VM numbers, tier indices) rather than domain newtypes. Everything
//!    is `Copy`; emitting never allocates.
//! 3. **Single-threaded sharing.** A session is one thread (parallelism
//!    lives *across* sessions), so sinks are `Rc<RefCell<…>>` — the
//!    platform, the cloud provider and the scheduler can all hold clones
//!    of one [`Tracer`] and feed the same observers.
//!
//! Three general-purpose observers live here: [`NullObserver`] (measures
//! the observer-dispatch floor), [`RingBuffer`] (keeps the last N events
//! for post-mortems), and [`JsonlWriter`] (streams events as JSON lines).
//! Domain-aware aggregators (e.g. the platform's session-metrics builder)
//! implement [`Observer`] in their own crates.
//!
//! # Parallel sessions: the factory/summary bridge
//!
//! Constraint 3 makes a single sink unusable across threads — but it does
//! not need to be shared. For parallel sweeps, an [`ObserverFactory`]
//! (which *is* `Sync`) builds one observer per session *inside* each
//! worker task, and [`ObserverFactory::finish`] folds the finished
//! observer into a `Send` summary that crosses back to the coordinating
//! thread. Summaries implementing [`Merge`] are then combined in a
//! deterministic (session-ordinal) order, so an N-thread sweep reports
//! bit-identical statistics to a 1-thread run.
//!
//! # Example: a custom observer
//!
//! Any `impl Observer` can be attached to a [`Tracer`] (or, through the
//! platform crate, to a whole session). A counter for VM hires:
//!
//! ```
//! use scan_sim::{Observer, SimTime, TraceEvent, Tracer};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! #[derive(Default)]
//! struct HireCounter {
//!     hires: u64,
//! }
//!
//! impl Observer for HireCounter {
//!     fn on_event(&mut self, _at: SimTime, event: &TraceEvent) {
//!         if matches!(event, TraceEvent::VmHired { .. }) {
//!             self.hires += 1;
//!         }
//!     }
//! }
//!
//! let counter = Rc::new(RefCell::new(HireCounter::default()));
//! let mut tracer = Tracer::disabled();
//! tracer.attach(counter.clone());
//! tracer.emit(SimTime::new(1.0), TraceEvent::VmHired { vm: 0, tier: 1, cores: 4 });
//! tracer.emit(SimTime::new(2.0), TraceEvent::QueueDepthSampled { depth: 3 });
//! assert_eq!(counter.borrow().hires, 1);
//! ```
//!
//! The event vocabulary itself — every variant, its fields and units, and
//! one worked JSONL example per variant — is documented in
//! `docs/TRACE_SCHEMA.md` at the repository root.

use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::rc::Rc;

/// What a scaling decision chose to do with a stalled task class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingChoice {
    /// Keep waiting for an existing worker to free up.
    Wait,
    /// Hire a new private-tier worker.
    HirePrivate,
    /// Private hire was justified by the policy but vetoed by the Eq. 1
    /// delay-cost throttle.
    ThrottledPrivate,
    /// Hire a new public-tier worker.
    HirePublic,
    /// Reshape an idle worker of another shape instead of hiring.
    Reshape,
}

impl ScalingChoice {
    /// Every choice, in declaration order (`ALL[c as usize] == c`).
    pub const ALL: [ScalingChoice; 5] =
        [Self::Wait, Self::HirePrivate, Self::ThrottledPrivate, Self::HirePublic, Self::Reshape];

    /// Stable lowercase label (used by the JSONL writer and the trace store).
    pub fn name(self) -> &'static str {
        match self {
            Self::Wait => "wait",
            Self::HirePrivate => "hire_private",
            Self::ThrottledPrivate => "throttled_private",
            Self::HirePublic => "hire_public",
            Self::Reshape => "reshape",
        }
    }

    /// The choice whose [`name`](Self::name) is `name`.
    pub fn from_name(name: &str) -> Option<ScalingChoice> {
        Self::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// Declares the event vocabulary once: each variant's rustdoc, kind tag
/// and fields (name, type, rustdoc). Expands to the [`TraceEvent`] enum,
/// its fieldless twin [`EventKind`], [`TraceEvent::SCHEMA`], the field
/// accessor [`TraceEvent::with_fields`] and the constructor
/// [`TraceEvent::from_fields`], so adding an event kind is one
/// declaration below.
macro_rules! trace_events {
    (
        $(#[$enum_meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$variant_meta:meta])*
                $variant:ident as $tag:literal {
                    $(
                        $(#[$field_meta:meta])*
                        $field:ident: $ty:ty,
                    )*
                },
            )*
        }
    ) => {
        $(#[$enum_meta])*
        $vis enum $name {
            $(
                $(#[$variant_meta])*
                $variant {
                    $(
                        $(#[$field_meta])*
                        $field: $ty,
                    )*
                },
            )*
        }

        /// The kind of a [`TraceEvent`]: one fieldless variant per event
        /// variant, in declaration order (`ALL[k as usize] == k`).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis enum EventKind {
            $(
                #[doc = concat!("`", $tag, "` events.")]
                $variant,
            )*
        }

        impl EventKind {
            /// Every kind, in declaration order.
            pub const ALL: [EventKind; $name::SCHEMA.len()] = [$(Self::$variant),*];

            /// The kind of `event`.
            #[inline]
            pub fn of(event: &$name) -> EventKind {
                match event {
                    $($name::$variant { .. } => Self::$variant,)*
                }
            }

            /// Stable lowercase kind tag (used by the JSONL writer and filters).
            pub fn tag(self) -> &'static str {
                match self {
                    $(Self::$variant => $tag,)*
                }
            }

            /// This kind's declaration in [`TraceEvent::SCHEMA`].
            pub fn schema(self) -> &'static EventSchema {
                &$name::SCHEMA[self as usize]
            }
        }

        impl $name {
            /// Every variant's declaration, in declaration order
            /// (`SCHEMA[e.index()]` describes `e`).
            pub const SCHEMA: &'static [EventSchema] = &[$(EventSchema {
                tag: $tag,
                variant: stringify!($variant),
                fields: &[$(FieldSchema {
                    name: stringify!($field),
                    ty: <$ty as Field>::TYPE,
                }),*],
            }),*];

            /// Calls `f` with this event's field values, in declaration
            /// order.
            #[inline]
            pub fn with_fields<R>(&self, f: impl FnOnce(&[FieldValue]) -> R) -> R {
                match *self {
                    $(Self::$variant { $($field),* } => f(&[$(Field::value($field)),*]),)*
                }
            }

            /// Builds a `kind` event from exactly its field values, in
            /// declaration order; `None` if one is missing, extra or of
            /// the wrong type.
            #[inline]
            pub fn from_fields(kind: EventKind, values: &[FieldValue]) -> Option<$name> {
                Some(match (kind, values) {
                    $((EventKind::$variant, &[$($field),*]) => Self::$variant {
                        $($field: Field::from_value($field)?,)*
                    },)*
                    _ => return None,
                })
            }
        }
    };
}

impl TraceEvent {
    /// The most payload fields any variant declares.
    pub const MAX_FIELDS: usize = {
        let (mut max, mut i) = (0, 0);
        while i < Self::SCHEMA.len() {
            if Self::SCHEMA[i].fields.len() > max {
                max = Self::SCHEMA[i].fields.len();
            }
            i += 1;
        }
        max
    };

    /// Stable lowercase kind tag (used by the JSONL writer and filters).
    pub fn kind(&self) -> &'static str {
        EventKind::of(self).tag()
    }

    /// Position of this event's variant in [`TraceEvent::SCHEMA`].
    #[inline]
    pub fn index(&self) -> usize {
        EventKind::of(self) as usize
    }
}

/// One declared [`TraceEvent`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSchema {
    /// Stable kind tag, as [`TraceEvent::kind`] returns it.
    pub tag: &'static str,
    /// Rust variant name.
    pub variant: &'static str,
    /// Payload fields, in declaration (and JSONL) order.
    pub fields: &'static [FieldSchema],
}

/// One payload field of a declared [`TraceEvent`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSchema {
    /// Field name; also its JSONL key.
    pub name: &'static str,
    /// JSON type label: `u64`, `u32`, `f64` or `string`.
    pub ty: &'static str,
}

/// One payload field's value, as [`TraceEvent::with_fields`] hands it
/// out and [`TraceEvent::from_fields`] takes it back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// A `u64` field (job and VM numbers, counters).
    U64(u64),
    /// A `u32` field (stages, cores, tier indices, depths).
    U32(u32),
    /// An `f64` field (times in TU, costs in CU, sizes).
    F64(f64),
    /// A [`ScalingChoice`] field.
    Choice(ScalingChoice),
}

impl FieldValue {
    /// Appends the JSON value: integers verbatim, `f64` through
    /// [`push_json_f64`], a choice as its quoted name.
    fn write_json(self, line: &mut String) {
        match self {
            Self::U64(v) => {
                let _ = write!(line, "{v}");
            }
            Self::U32(v) => {
                let _ = write!(line, "{v}");
            }
            Self::F64(v) => push_json_f64(line, v),
            Self::Choice(c) => {
                line.push('"');
                line.push_str(c.name());
                line.push('"');
            }
        }
    }
}

/// A payload field type: its schema type label and its [`FieldValue`].
trait Field: Copy {
    /// Type label in [`FieldSchema::ty`].
    const TYPE: &'static str;
    /// The value, wrapped.
    fn value(self) -> FieldValue;
    /// The value back, if `value` holds this type.
    fn from_value(value: FieldValue) -> Option<Self>;
}

/// Implements [`Field`] for each payload type through its [`FieldValue`]
/// variant.
macro_rules! field_types {
    ($($ty:ty => $variant:ident as $label:literal),*) => {$(
        impl Field for $ty {
            const TYPE: &'static str = $label;
            #[inline]
            fn value(self) -> FieldValue {
                FieldValue::$variant(self)
            }
            #[inline]
            fn from_value(value: FieldValue) -> Option<Self> {
                match value {
                    FieldValue::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    )*};
}

field_types!(u64 => U64 as "u64", u32 => U32 as "u32", f64 => F64 as "f64",
    ScalingChoice => Choice as "string");

trace_events! {
    /// One observation from the simulation. Variants mirror the platform's
    /// event flow: jobs arrive and advance stage by stage, shard subtasks are
    /// dispatched to workers, workers are hired / booted / reshaped /
    /// released, and the scheduler takes scaling decisions with the Eq. 1
    /// delay-cost-versus-hire-cost numbers attached.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum TraceEvent {
        /// A job was admitted to the platform.
        JobArrived as "job_arrived" {
            /// Job number.
            job: u64,
            /// Dataset size in abstract units.
            size_units: f64,
            /// When the job was originally submitted, in TU. Equal to the
            /// event time unless the fair-share admission gate deferred the
            /// job first — the gap is the admission-deferred span segment.
            submitted_tu: f64,
        },
        /// A job's next stage was enqueued (stage 0 = first).
        JobStageAdvanced as "job_stage_advanced" {
            /// Job number.
            job: u64,
            /// Stage now queued.
            stage: u32,
            /// Shard subtasks enqueued for the stage.
            shards: u32,
            /// Cores (threads) each shard needs.
            cores: u32,
        },
        /// A job finished its last stage and earned its reward.
        JobCompleted as "job_completed" {
            /// Job number.
            job: u64,
            /// End-to-end latency in TU.
            latency_tu: f64,
            /// Reward earned (CU).
            reward: f64,
            /// Σ shards·threads of the job's plan (Fig. 5's x-axis).
            core_stages: f64,
        },
        /// A completed job missed the configured latency SLO
        /// (`latency_tu > target_tu`). Emitted right after the job's
        /// `JobCompleted` event; only present when an SLO target is set.
        SloViolation as "slo_violation" {
            /// Job number.
            job: u64,
            /// End-to-end latency in TU.
            latency_tu: f64,
            /// The SLO latency target that was missed, in TU.
            target_tu: f64,
        },
        /// A queued shard subtask started on a worker.
        SubtaskDispatched as "subtask_dispatched" {
            /// Owning job.
            job: u64,
            /// Stage the subtask belongs to.
            stage: u32,
            /// Worker VM number.
            vm: u64,
            /// Cores the subtask occupies.
            cores: u32,
            /// Time the subtask spent queued, in TU.
            waited_tu: f64,
            /// Execution + staging time it will occupy the worker for, in TU.
            busy_tu: f64,
        },
        /// A shard subtask finished and freed its worker.
        SubtaskDone as "subtask_done" {
            /// Owning job.
            job: u64,
            /// Stage the subtask belonged to.
            stage: u32,
            /// Worker VM number.
            vm: u64,
        },
        /// A VM was hired on a tier and began booting.
        VmHired as "vm_hired" {
            /// VM number.
            vm: u64,
            /// Tier index (0 = private, 1 = public).
            tier: u32,
            /// Cores of the instance shape.
            cores: u32,
        },
        /// A VM finished booting (or reshaping) and joined the idle pool.
        VmBooted as "vm_booted" {
            /// VM number.
            vm: u64,
            /// Cores of the instance shape.
            cores: u32,
        },
        /// An idle VM was converted to a different shape (30 s penalty).
        VmReshaped as "vm_reshaped" {
            /// VM number.
            vm: u64,
            /// Tier index.
            tier: u32,
            /// Shape before the reshape.
            cores_from: u32,
            /// Shape after the reshape.
            cores_to: u32,
        },
        /// A VM was released and its billing settled.
        VmReleased as "vm_released" {
            /// VM number.
            vm: u64,
            /// Tier index.
            tier: u32,
            /// Cores of the instance shape.
            cores: u32,
        },
        /// A horizontal-scaling decision for a stalled task class, with the
        /// Eq. 1 comparison that justified it. `delay_cost`/`hire_cost` are
        /// NaN when the deciding policy did not price the decision (the
        /// always/never policies decide unconditionally).
        ScalingDecision as "scaling_decision" {
            /// Pipeline stage of the stalled class.
            stage: u32,
            /// Cores per subtask of the stalled class.
            cores: u32,
            /// Distinct queued jobs considered in the Eq. 1 view.
            queued_jobs: u32,
            /// Eq. 1 delay cost of waiting out the projected delay (CU).
            delay_cost: f64,
            /// Cost of hiring capacity for boot + one task (CU).
            hire_cost: f64,
            /// What was decided.
            choice: ScalingChoice,
        },
        /// Total queued subtasks across all classes changed.
        QueueDepthSampled as "queue_depth" {
            /// Queued subtasks over all classes.
            depth: u32,
        },
        /// A fleet tenant's arrival batch was deferred by the fair-share
        /// admission gate: the shared private pool is exhausted and the
        /// tenant already holds at least its fair share of it.
        AdmissionDeferred as "admission_deferred" {
            /// Tenant whose batch was deferred.
            tenant: u32,
            /// Jobs pushed onto the tenant's admission backlog.
            jobs: u32,
            /// Backlogged jobs after the deferral.
            backlog: u32,
        },
        /// Previously deferred jobs cleared the fair-share admission gate.
        AdmissionResumed as "admission_resumed" {
            /// Tenant whose backlog drained.
            tenant: u32,
            /// Jobs admitted from the backlog.
            jobs: u32,
            /// Backlogged jobs remaining after the resume.
            backlog: u32,
        },
        /// End-of-run billing settlement for one tier.
        TierSettled as "tier_settled" {
            /// Tier index.
            tier: u32,
            /// Total cost charged against the tier (CU).
            cost: f64,
            /// Total core·TU provisioned on the tier.
            core_tu: f64,
        },
        /// The session's event loop ended.
        RunEnded as "run_ended" {
            /// Events the engine dispatched.
            events_dispatched: u64,
        },
    }

}

/// A consumer of trace events. Observers are driven synchronously from
/// the emitting call site, in attachment order.
pub trait Observer {
    /// Receives one event stamped with the simulation time it occurred.
    fn on_event(&mut self, at: SimTime, event: &TraceEvent);
}

/// Shared handle to an attached observer.
pub type ObserverHandle = Rc<RefCell<dyn Observer>>;

/// Builds one observer per parallel session and folds the finished
/// observer into a [`Send`] summary — the bridge that lets the
/// `Rc<RefCell<_>>` sink machinery work *across* a thread-pool boundary
/// without itself becoming thread-safe.
///
/// The contract: the factory is shared by reference across worker threads
/// (hence `Sync`); each worker calls [`ObserverFactory::build`] with the
/// session's ordinal, owns the observer for exactly one session, then
/// hands it back through [`ObserverFactory::finish`]. Only the summary
/// crosses threads, so the observer itself may freely hold `Rc`s, open
/// files, or scratch buffers.
pub trait ObserverFactory: Sync {
    /// The per-session observer this factory builds.
    type Obs: Observer + 'static;
    /// The thread-crossing digest of one finished observer.
    type Summary: Send;

    /// Builds a fresh observer for one session. `session` is the caller's
    /// ordinal for the session (e.g. the flat `(cell, repetition)` index
    /// of a sweep) — factories may use it to label output streams or
    /// ignore it entirely.
    fn build(&self, session: u64) -> Self::Obs;

    /// Folds a finished observer into its summary after the session's
    /// final event ([`TraceEvent::RunEnded`]) has been delivered.
    fn finish(&self, obs: Self::Obs) -> Self::Summary;
}

/// Closure factories: `|session| SomeObserver::new()` builds the observer
/// and the summary is the observer itself (for observer types that are
/// already `Send` once the run is over).
impl<F, O> ObserverFactory for F
where
    F: Fn(u64) -> O + Sync,
    O: Observer + Send + 'static,
{
    type Obs = O;
    type Summary = O;

    fn build(&self, session: u64) -> O {
        self(session)
    }

    fn finish(&self, obs: O) -> O {
        obs
    }
}

/// A summary that can absorb another summary of the same session batch.
///
/// Merging must be commutative over *disjoint event streams* in the
/// counts it keeps, but callers are still required to merge in a
/// deterministic order (session-ordinal order), so floating-point sums
/// stay bit-identical regardless of worker-thread count.
pub trait Merge {
    /// Absorbs `other` into `self`.
    fn merge(&mut self, other: Self);
}

impl Merge for () {
    fn merge(&mut self, _other: ()) {}
}

/// Folds `summaries` left to right in iteration order: the first one is
/// the accumulator and each later one merges into it. Every parallel
/// driver folds through here, in session-ordinal order, so its result is
/// the same at any thread count. `None` when there is nothing to merge.
pub fn merge_in_order<S: Merge>(summaries: impl IntoIterator<Item = S>) -> Option<S> {
    let mut summaries = summaries.into_iter();
    let mut merged = summaries.next()?;
    summaries.for_each(|s| merged.merge(s));
    Some(merged)
}

/// The factory counterpart of [`NullObserver`]: builds inert observers
/// and summarises them to `()`. Lets "no extra observers" reuse the same
/// observed code path without a second implementation.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserverFactory;

impl ObserverFactory for NullObserverFactory {
    type Obs = NullObserver;
    type Summary = ();

    fn build(&self, _session: u64) -> NullObserver {
        NullObserver
    }

    fn finish(&self, _obs: NullObserver) {}
}

/// Fan-out point for trace events. Cloning a `Tracer` clones the sink
/// list (cheap `Rc` bumps) — clones feed the same observers, which is how
/// the provider and scheduler share the platform's sinks.
#[derive(Clone, Default)]
pub struct Tracer {
    sinks: Vec<ObserverHandle>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("sinks", &self.sinks.len()).finish()
    }
}

impl Tracer {
    /// A tracer with no sinks: emitting is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Attaches an observer; events emitted from now on reach it.
    pub fn attach(&mut self, sink: ObserverHandle) {
        self.sinks.push(sink);
    }

    /// Whether any observer is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Emits one event to every sink. With no sinks attached this is one
    /// empty-`Vec` branch.
    #[inline]
    pub fn emit(&self, at: SimTime, event: TraceEvent) {
        if self.sinks.is_empty() {
            return;
        }
        for sink in &self.sinks {
            sink.borrow_mut().on_event(at, &event);
        }
    }

    /// Emits the event produced by `build`, constructing it only when a
    /// sink is attached. Use this when assembling the event itself costs
    /// something (string formatting, extra queries).
    #[inline]
    pub fn emit_with(&self, at: SimTime, build: impl FnOnce() -> TraceEvent) {
        if self.sinks.is_empty() {
            return;
        }
        self.emit(at, build());
    }
}

/// Discards every event. Exists to measure the dispatch floor and to
/// satisfy "an observer must be attached" plumbing in tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&mut self, _at: SimTime, _event: &TraceEvent) {}
}

/// Keeps the most recent `capacity` events for post-mortem inspection.
#[derive(Debug)]
pub struct RingBuffer {
    capacity: usize,
    buf: VecDeque<(SimTime, TraceEvent)>,
    seen: u64,
}

impl RingBuffer {
    /// A ring holding at most `capacity` events (capacity 0 keeps none).
    pub fn new(capacity: usize) -> Self {
        Self { capacity, buf: VecDeque::with_capacity(capacity.min(4096)), seen: 0 }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(SimTime, TraceEvent)> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events observed, including evicted ones.
    pub fn total_seen(&self) -> u64 {
        self.seen
    }
}

impl Observer for RingBuffer {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        self.seen += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back((at, *event));
    }
}

/// Streams events as JSON lines (`{"t":…,"kind":…,…}`) to any writer.
///
/// The JSON is hand-assembled: every field is a number, a fixed label, or
/// a pre-escaped tag, so no general serializer is needed (and the offline
/// build has none).
pub struct JsonlWriter<W: io::Write> {
    out: W,
    line: String,
    errored: bool,
}

impl<W: io::Write> JsonlWriter<W> {
    /// Wraps a writer. I/O errors are latched: the first failure stops
    /// further writes rather than panicking mid-simulation.
    pub fn new(out: W) -> Self {
        Self { out, line: String::with_capacity(160), errored: false }
    }

    /// Whether a write error occurred (output is truncated).
    pub fn errored(&self) -> bool {
        self.errored
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

/// Writes an f64 as JSON: finite values verbatim, NaN/inf as null.
fn push_json_f64(line: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(line, "{value}");
    } else {
        line.push_str("null");
    }
}

impl<W: io::Write> Observer for JsonlWriter<W> {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        if self.errored {
            return;
        }
        let line = &mut self.line;
        line.clear();
        let _ = write!(line, "{{\"t\":");
        push_json_f64(line, at.as_tu());
        let _ = write!(line, ",\"kind\":\"{}\"", event.kind());
        event.with_fields(|values| {
            for (field, value) in EventKind::of(event).schema().fields.iter().zip(values) {
                line.push_str(",\"");
                line.push_str(field.name);
                line.push_str("\":");
                value.write_json(line);
            }
        });
        line.push('}');
        line.push('\n');
        if self.out.write_all(line.as_bytes()).is_err() {
            self.errored = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_in_order_folds_left_to_right() {
        struct Cat(String);
        impl Merge for Cat {
            fn merge(&mut self, other: Cat) {
                self.0.push_str(&other.0);
            }
        }
        let merged = merge_in_order(["a", "b", "c"].map(|s| Cat(s.into())));
        assert_eq!(merged.map(|c| c.0).as_deref(), Some("abc"));
        assert!(merge_in_order(Vec::<Cat>::new()).is_none());
    }

    fn ev() -> TraceEvent {
        TraceEvent::JobArrived { job: 7, size_units: 5.25, submitted_tu: 1.5 }
    }

    #[test]
    fn disabled_tracer_is_inert_and_emit_with_is_lazy() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.emit(SimTime::new(1.0), ev());
        tracer.emit_with(SimTime::new(2.0), || panic!("must not be built"));
    }

    #[test]
    fn fanout_reaches_all_sinks_in_order() {
        let a = Rc::new(RefCell::new(RingBuffer::new(8)));
        let b = Rc::new(RefCell::new(RingBuffer::new(8)));
        let mut tracer = Tracer::disabled();
        tracer.attach(a.clone());
        tracer.attach(b.clone());
        assert!(tracer.is_enabled());

        // A clone shares the same sinks.
        let clone = tracer.clone();
        clone.emit(SimTime::new(3.0), ev());
        tracer.emit(SimTime::new(4.0), TraceEvent::QueueDepthSampled { depth: 9 });

        for ring in [&a, &b] {
            let ring = ring.borrow();
            assert_eq!(ring.len(), 2);
            let kinds: Vec<&str> = ring.events().map(|(_, e)| e.kind()).collect();
            assert_eq!(kinds, ["job_arrived", "queue_depth"]);
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut ring = RingBuffer::new(2);
        for depth in 0..5u32 {
            ring.on_event(SimTime::new(depth as f64), &TraceEvent::QueueDepthSampled { depth });
        }
        assert_eq!(ring.total_seen(), 5);
        let depths: Vec<u32> = ring
            .events()
            .map(|(_, e)| match e {
                TraceEvent::QueueDepthSampled { depth } => *depth,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(depths, [3, 4]);
    }

    #[test]
    fn jsonl_lines_are_wellformed() {
        let mut w = JsonlWriter::new(Vec::new());
        w.on_event(SimTime::new(1.5), &ev());
        w.on_event(
            SimTime::new(2.0),
            &TraceEvent::ScalingDecision {
                stage: 2,
                cores: 4,
                queued_jobs: 3,
                delay_cost: 10.5,
                hire_cost: f64::NAN,
                choice: ScalingChoice::HirePublic,
            },
        );
        let out = String::from_utf8(w.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t\":1.5,\"kind\":\"job_arrived\",\"job\":7,\"size_units\":5.25,\"submitted_tu\":1.5}"
        );
        assert!(lines[1].contains("\"hire_cost\":null"));
        assert!(lines[1].contains("\"choice\":\"hire_public\""));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
            // Balanced quotes: crude but catches missed escapes/commas.
            assert_eq!(l.matches('"').count() % 2, 0);
        }
    }

    /// Byte pin for the JSONL writer: one hand-built sample per variant
    /// (every `ScalingChoice` label, NaN costs, a u64 id above
    /// `u32::MAX`) against literal lines. The fixed-seed golden trace is a
    /// solo run without admission, SLO or reshape lines, so this is the
    /// only byte gate for those variants.
    #[test]
    fn every_variant_writes_pinned_jsonl() {
        let big = u64::from(u32::MAX) + 7;
        let decision = |choice, delay_cost, hire_cost| TraceEvent::ScalingDecision {
            stage: 6,
            cores: 16,
            queued_jobs: 4_000_000_000,
            delay_cost,
            hire_cost,
            choice,
        };
        let events = [
            TraceEvent::JobArrived { job: big, size_units: 5.798604725604796, submitted_tu: 0.1 },
            TraceEvent::JobStageAdvanced { job: 3, stage: 6, shards: 1, cores: 8 },
            TraceEvent::JobCompleted {
                job: 1,
                latency_tu: 15.8160051595641,
                reward: -2.5,
                core_stages: 37.0,
            },
            TraceEvent::SloViolation { job: 1, latency_tu: 1e-7, target_tu: 1e21 },
            TraceEvent::SubtaskDispatched {
                job: 0,
                stage: 0,
                vm: big,
                cores: 8,
                waited_tu: 0.0,
                busy_tu: 1.7648625957560722,
            },
            TraceEvent::SubtaskDone { job: 1, stage: 0, vm: 38 },
            TraceEvent::VmHired { vm: 0, tier: 0, cores: 1 },
            TraceEvent::VmBooted { vm: 0, cores: 1 },
            TraceEvent::VmReshaped { vm: 12, tier: 1, cores_from: 1, cores_to: 8 },
            TraceEvent::VmReleased { vm: 58, tier: 0, cores: 16 },
            decision(ScalingChoice::Wait, 10.5, 2.25),
            decision(ScalingChoice::HirePrivate, f64::NAN, f64::NAN),
            decision(ScalingChoice::ThrottledPrivate, f64::INFINITY, 0.0),
            decision(ScalingChoice::HirePublic, -0.0, f64::NEG_INFINITY),
            decision(ScalingChoice::Reshape, 1.0, 3.0),
            TraceEvent::QueueDepthSampled { depth: u32::MAX },
            TraceEvent::AdmissionDeferred { tenant: 3, jobs: 2, backlog: 2 },
            TraceEvent::AdmissionResumed { tenant: 3, jobs: 2, backlog: 0 },
            TraceEvent::TierSettled { tier: 1, cost: f64::NAN, core_tu: 621972.7974353022 },
            TraceEvent::RunEnded { events_dispatched: u64::MAX },
        ];
        let mut w = JsonlWriter::new(Vec::new());
        for (i, e) in events.iter().enumerate() {
            w.on_event(SimTime::new(i as f64 * 0.5), e);
        }
        let out = String::from_utf8(w.into_inner()).unwrap();
        let expected = [
            r#"{"t":0,"kind":"job_arrived","job":4294967302,"size_units":5.798604725604796,"submitted_tu":0.1}"#,
            r#"{"t":0.5,"kind":"job_stage_advanced","job":3,"stage":6,"shards":1,"cores":8}"#,
            r#"{"t":1,"kind":"job_completed","job":1,"latency_tu":15.8160051595641,"reward":-2.5,"core_stages":37}"#,
            r#"{"t":1.5,"kind":"slo_violation","job":1,"latency_tu":0.0000001,"target_tu":1000000000000000000000}"#,
            r#"{"t":2,"kind":"subtask_dispatched","job":0,"stage":0,"vm":4294967302,"cores":8,"waited_tu":0,"busy_tu":1.7648625957560722}"#,
            r#"{"t":2.5,"kind":"subtask_done","job":1,"stage":0,"vm":38}"#,
            r#"{"t":3,"kind":"vm_hired","vm":0,"tier":0,"cores":1}"#,
            r#"{"t":3.5,"kind":"vm_booted","vm":0,"cores":1}"#,
            r#"{"t":4,"kind":"vm_reshaped","vm":12,"tier":1,"cores_from":1,"cores_to":8}"#,
            r#"{"t":4.5,"kind":"vm_released","vm":58,"tier":0,"cores":16}"#,
            r#"{"t":5,"kind":"scaling_decision","stage":6,"cores":16,"queued_jobs":4000000000,"delay_cost":10.5,"hire_cost":2.25,"choice":"wait"}"#,
            r#"{"t":5.5,"kind":"scaling_decision","stage":6,"cores":16,"queued_jobs":4000000000,"delay_cost":null,"hire_cost":null,"choice":"hire_private"}"#,
            r#"{"t":6,"kind":"scaling_decision","stage":6,"cores":16,"queued_jobs":4000000000,"delay_cost":null,"hire_cost":0,"choice":"throttled_private"}"#,
            r#"{"t":6.5,"kind":"scaling_decision","stage":6,"cores":16,"queued_jobs":4000000000,"delay_cost":-0,"hire_cost":null,"choice":"hire_public"}"#,
            r#"{"t":7,"kind":"scaling_decision","stage":6,"cores":16,"queued_jobs":4000000000,"delay_cost":1,"hire_cost":3,"choice":"reshape"}"#,
            r#"{"t":7.5,"kind":"queue_depth","depth":4294967295}"#,
            r#"{"t":8,"kind":"admission_deferred","tenant":3,"jobs":2,"backlog":2}"#,
            r#"{"t":8.5,"kind":"admission_resumed","tenant":3,"jobs":2,"backlog":0}"#,
            r#"{"t":9,"kind":"tier_settled","tier":1,"cost":null,"core_tu":621972.7974353022}"#,
            r#"{"t":9.5,"kind":"run_ended","events_dispatched":18446744073709551615}"#,
        ];
        assert_eq!(out.lines().collect::<Vec<_>>(), expected);

        // The samples cover the whole schema, which names the written keys.
        let covered: std::collections::BTreeSet<usize> = events.iter().map(|e| e.index()).collect();
        assert_eq!(covered.len(), TraceEvent::SCHEMA.len());
        for (line, e) in out.lines().zip(&events) {
            let schema = &TraceEvent::SCHEMA[e.index()];
            assert_eq!(schema.tag, e.kind());
            let keys: Vec<String> =
                schema.fields.iter().map(|f| format!("\"{}\":", f.name)).collect();
            assert!(keys.iter().all(|k| line.contains(k.as_str())), "{line}");
        }
    }

    #[test]
    fn kinds_and_choices_follow_their_declarations() {
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
            assert_eq!(kind.tag(), TraceEvent::SCHEMA[i].tag);
            assert_eq!(format!("{kind:?}"), TraceEvent::SCHEMA[i].variant);
        }
        for (i, choice) in ScalingChoice::ALL.into_iter().enumerate() {
            assert_eq!(choice as usize, i);
            assert_eq!(ScalingChoice::from_name(choice.name()), Some(choice));
        }
        assert_eq!(ScalingChoice::from_name("hire"), None);
    }

    #[test]
    fn from_fields_inverts_with_fields() {
        let events = [
            ev(),
            TraceEvent::SubtaskDispatched {
                job: u64::MAX,
                stage: 2,
                vm: 9,
                cores: 4,
                waited_tu: 0.5,
                busy_tu: 1.25,
            },
            TraceEvent::ScalingDecision {
                stage: 1,
                cores: 2,
                queued_jobs: 3,
                delay_cost: -0.0,
                hire_cost: f64::INFINITY,
                choice: ScalingChoice::Reshape,
            },
        ];
        for e in events {
            let kind = EventKind::of(&e);
            let values = e.with_fields(<[FieldValue]>::to_vec);
            assert_eq!(values.len(), kind.schema().fields.len());
            assert!(values.len() <= TraceEvent::MAX_FIELDS);
            assert_eq!(TraceEvent::from_fields(kind, &values), Some(e));
            // Too few, too many, or mistyped values build nothing.
            assert_eq!(TraceEvent::from_fields(kind, &values[..values.len() - 1]), None);
            let long = [&values[..], &[FieldValue::U32(0)]].concat();
            assert_eq!(TraceEvent::from_fields(kind, &long), None);
        }
        let mistyped = [FieldValue::U32(7), FieldValue::F64(5.25), FieldValue::F64(1.5)];
        assert_eq!(TraceEvent::from_fields(EventKind::JobArrived, &mistyped), None);
    }

    #[test]
    fn closure_factories_build_per_session_observers() {
        // A closure is an ObserverFactory whose summary is the observer
        // itself; `build` must hand out independent instances.
        let factory = |_session: u64| RingBuffer::new(4);
        let mut a = ObserverFactory::build(&factory, 0);
        let b = ObserverFactory::build(&factory, 1);
        a.on_event(SimTime::new(0.0), &ev());
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 0);
        let summary = factory.finish(a);
        assert_eq!(summary.total_seen(), 1);
    }

    #[test]
    fn null_factory_is_inert() {
        let mut obs = NullObserverFactory.build(7);
        obs.on_event(SimTime::new(0.0), &ev());
        #[allow(clippy::let_unit_value)]
        let mut summary = NullObserverFactory.finish(obs);
        summary.merge(());
    }

    #[test]
    fn jsonl_latches_write_errors() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = JsonlWriter::new(Failing);
        w.on_event(SimTime::new(0.0), &ev());
        assert!(w.errored());
        w.on_event(SimTime::new(1.0), &ev());
    }
}
