//! The reference documents' tables match the code's runtime values, in
//! both directions, and every declared event kind and metric is produced:
//!
//! * docs/TRACE_SCHEMA.md — one `### `tag` — `TraceEvent::Variant``
//!   section per [`TraceEvent::SCHEMA`] entry, whose field rows (name
//!   and type) equal the declared fields, and every `ScalingChoice`
//!   label mentioned;
//! * docs/TRACESTORE.md — the "Column layouts" tables equal
//!   `tracestore::columns(kind)` (name and type), and the "Aggregations"
//!   table lists the `Agg` labels;
//! * docs/SPANS.md — the "Segment taxonomy" table lists the
//!   `ALL_SEGMENTS` names, and the "SLO metrics" table lists the `slo`
//!   metric families the runs below register;
//! * docs/METRICS.md — the "Metric catalogue" tables list exactly the
//!   families the runs below register: each in the table of its kind,
//!   with the code's label key, unit and (for series) series kind;
//! * coverage — the same runs fill every [`EventKind`] table, take every
//!   `ScalingChoice`, and update every metric they register.
//!
//! The runs are two instrumented sessions (the configuration pinned by
//! `golden_fixed_seed_registry_exports`, with and without the private-hire
//! throttle) and one contended fleet, each with a [`TraceStore`] attached.
//! A mismatch names the file, the section and the row; a coverage gap
//! names the event kind or the metric.

use scan::platform::config::{ScanConfig, VariableParams};
use scan::platform::fleet::{run_fleet_with, FleetConfig};
use scan::platform::instrument::DEFAULT_WINDOW_TU;
use scan::platform::Platform;
use scan::sched::scaling::ScalingPolicy;
use scan::sim::{ScalingChoice, TraceEvent};
use scan::tracestore::{columns, Agg, ColumnType, EventKind, TraceStore, TraceStoreFactory};
use scan_metrics::{MetricMeta, Metrics, Registry};
use scan_spans::ALL_SEGMENTS;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::OnceLock;

/// One markdown heading and the table rows under it (header and
/// separator rows dropped; fenced code blocks skipped).
struct Section {
    level: usize,
    title: String,
    /// Title of the enclosing `##` section (its own title at level 2).
    parent: String,
    rows: Vec<Row>,
}

struct Row {
    line: usize,
    cells: Vec<String>,
}

fn sections(text: &str) -> Vec<Section> {
    let mut out: Vec<Section> = Vec::new();
    let mut fenced = false;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        if let Some((hashes, title)) =
            line.split_once(' ').filter(|(h, _)| !h.is_empty() && h.bytes().all(|b| b == b'#'))
        {
            let parent = match (hashes.len(), out.last()) {
                (3.., Some(s)) => s.parent.clone(),
                _ => title.to_string(),
            };
            out.push(Section {
                level: hashes.len(),
                title: title.to_string(),
                parent,
                rows: vec![],
            });
        } else if let (Some(cells), Some(section)) =
            (line.strip_prefix('|').and_then(|l| l.strip_suffix('|')), out.last_mut())
        {
            let cells: Vec<String> = cells.split('|').map(|c| c.trim().to_string()).collect();
            if cells.iter().all(|c| c.starts_with("---")) {
                section.rows.pop(); // the header row
            } else {
                section.rows.push(Row { line: i + 1, cells });
            }
        }
    }
    out
}

/// Compares a documented table against the code's rows by their first
/// cell (the backticked name): each code row must be documented with the
/// same leading cells, and each documented row must exist in the code.
fn compare(file: &str, section: &Section, code: &[Vec<&str>], errors: &mut Vec<String>) {
    let at = |row: &Row| format!("{file} § {} (line {})", section.title, row.line);
    let name = |row: &Row| row.cells[0].trim_matches('`').to_string();
    for want in code {
        match section.rows.iter().find(|r| name(r) == want[0]) {
            None => errors.push(format!(
                "{file} § {}: no row for `{}` (the code declares {want:?})",
                section.title, want[0]
            )),
            Some(row) => {
                let got: Vec<&str> =
                    row.cells.iter().skip(1).take(want.len() - 1).map(String::as_str).collect();
                if got != want[1..] {
                    errors.push(format!(
                        "{}: row `{}` says {got:?}, the code says {:?}",
                        at(row),
                        want[0],
                        &want[1..]
                    ));
                }
            }
        }
    }
    for row in &section.rows {
        if !code.iter().any(|want| want[0] == name(row)) {
            errors.push(format!("{}: row `{}` is not in the code", at(row), name(row)));
        }
    }
}

/// The one section titled `title` under the `##` section `parent`.
fn find<'a>(
    file: &str,
    all: &'a [Section],
    parent: &str,
    title: &str,
    errors: &mut Vec<String>,
) -> Option<&'a Section> {
    let found = all.iter().find(|s| s.parent == parent && s.title == title);
    if found.is_none() {
        errors.push(format!("{file}: no section `{title}` under `## {parent}`"));
    }
    found
}

/// Flags `###` sections under `parent` that the code does not declare.
fn no_phantoms(file: &str, all: &[Section], parent: &str, titles: &[String], e: &mut Vec<String>) {
    for s in all.iter().filter(|s| s.level == 3 && s.parent == parent) {
        if !titles.contains(&s.title) {
            e.push(format!("{file} § {}: documents nothing the code declares", s.title));
        }
    }
}

// The exhaustive matches make a new variant a compile error right next to
// the list it must join.
fn scaling_choice_labels() -> Vec<&'static str> {
    use ScalingChoice::*;
    let listed = |c: ScalingChoice| match c {
        Wait | HirePrivate | ThrottledPrivate | HirePublic | Reshape => c.name(),
    };
    [Wait, HirePrivate, ThrottledPrivate, HirePublic, Reshape].map(listed).to_vec()
}

fn agg_labels() -> Vec<&'static str> {
    use Agg::*;
    let listed = |a: Agg| match a {
        Count | Sum | Mean | P50 | P95 | Max => a.name(),
    };
    [Count, Sum, Mean, P50, P95, Max].map(listed).to_vec()
}

fn column_type(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::U32 => "u32",
        ColumnType::U64 => "u64",
        ColumnType::F64 => "f64",
        ColumnType::Dict => "dict",
    }
}

fn check_trace_schema(text: &str) -> Vec<String> {
    const FILE: &str = "docs/TRACE_SCHEMA.md";
    const PARENT: &str = "Event catalogue";
    let (all, mut errors) = (sections(text), Vec::new());
    let titles: Vec<String> = TraceEvent::SCHEMA
        .iter()
        .map(|e| format!("`{}` — `TraceEvent::{}`", e.tag, e.variant))
        .collect();
    for (event, title) in TraceEvent::SCHEMA.iter().zip(&titles) {
        if let Some(section) = find(FILE, &all, PARENT, title, &mut errors) {
            let fields: Vec<Vec<&str>> = event.fields.iter().map(|f| vec![f.name, f.ty]).collect();
            compare(FILE, section, &fields, &mut errors);
        }
    }
    no_phantoms(FILE, &all, PARENT, &titles, &mut errors);
    for label in scaling_choice_labels() {
        if !text.contains(&format!("`{label}`")) {
            errors.push(format!("{FILE}: ScalingChoice label `{label}` is never mentioned"));
        }
    }
    errors
}

fn check_tracestore(text: &str) -> Vec<String> {
    const FILE: &str = "docs/TRACESTORE.md";
    const PARENT: &str = "Column layouts";
    let (all, mut errors) = (sections(text), Vec::new());
    let titles: Vec<String> = EventKind::ALL.iter().map(|k| format!("`{}`", k.tag())).collect();
    for (&kind, title) in EventKind::ALL.iter().zip(&titles) {
        if let Some(section) = find(FILE, &all, PARENT, title, &mut errors) {
            let cols: Vec<Vec<&str>> =
                columns(kind).iter().map(|c| vec![c.name, column_type(c.ty)]).collect();
            compare(FILE, section, &cols, &mut errors);
        }
    }
    no_phantoms(FILE, &all, PARENT, &titles, &mut errors);
    if let Some(section) = find(FILE, &all, "Aggregations", "Aggregations", &mut errors) {
        let aggs: Vec<Vec<&str>> = agg_labels().into_iter().map(|a| vec![a]).collect();
        compare(FILE, section, &aggs, &mut errors);
    }
    errors
}

fn check_spans(text: &str, slo_families: &BTreeSet<String>) -> Vec<String> {
    const FILE: &str = "docs/SPANS.md";
    let (all, mut errors) = (sections(text), Vec::new());
    let taxonomy = "Segment taxonomy";
    if let Some(section) = find(FILE, &all, taxonomy, taxonomy, &mut errors) {
        let names: Vec<Vec<&str>> = ALL_SEGMENTS.iter().map(|s| vec![s.name()]).collect();
        compare(FILE, section, &names, &mut errors);
    }
    if let Some(section) = find(FILE, &all, "SLO metrics", "SLO metrics", &mut errors) {
        let names: Vec<Vec<&str>> = slo_families.iter().map(|f| vec![f.as_str()]).collect();
        compare(FILE, section, &names, &mut errors);
    }
    errors
}

/// What the instrumented runs produced: one registry and one store per
/// run (two sessions, then the fleet).
struct Runs {
    registries: Vec<Registry>,
    stores: Vec<TraceStore>,
}

/// The instrumented runs, simulated once and shared by every test here.
fn runs() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| {
        let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), 99);
        cfg.fixed.sim_time_tu = 300.0;
        cfg.allow_reshape = true;
        cfg.fixed.private_capacity_cores = 64;
        cfg.slo_target_tu = Some(10.0);
        let mut throttled = cfg.clone();
        throttled.fixed.private_hire_throttle = true;
        let mut runs = Runs { registries: Vec::new(), stores: Vec::new() };
        for cfg in [cfg, throttled] {
            let metrics = Metrics::enabled(DEFAULT_WINDOW_TU);
            let store = Rc::new(RefCell::new(TraceStore::new()));
            let mut platform = Platform::new(cfg, 0);
            platform.set_metrics(&metrics);
            platform.add_observer(store.clone());
            platform.run();
            runs.registries.push(metrics.into_registry().expect("registry uniquely owned"));
            runs.stores.push(Rc::try_unwrap(store).expect("store uniquely owned").into_inner());
        }
        // A shared pool far below fleet demand: the fair-share gate defers
        // and resumes admissions, and every job misses a tight SLO.
        let mut base = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 0.9), 23);
        base.fixed.sim_time_tu = 500.0;
        base.slo_target_tu = Some(1.0);
        let mut fleet = FleetConfig::new(base, 4);
        fleet.shared_private_cores = 8;
        fleet.jobs_per_tenant = 6;
        let (metrics, stores) = run_fleet_with(&fleet, 0, &TraceStoreFactory::fleet(4));
        runs.registries.push(metrics.registry());
        runs.stores.extend(stores);
        runs
    })
}

/// A metric kind: the catalogue `###` table it belongs in.
#[derive(Clone, Copy)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
    Series,
}

impl MetricKind {
    const ALL: [MetricKind; 4] =
        [MetricKind::Counter, MetricKind::Gauge, MetricKind::Histogram, MetricKind::Series];

    fn table(self) -> &'static str {
        match self {
            MetricKind::Counter => "Counters",
            MetricKind::Gauge => "Gauges",
            MetricKind::Histogram => "Histograms",
            MetricKind::Series => "Series (sim-time-windowed)",
        }
    }
}

/// One registered metric instance: its catalogue row (family, label key,
/// then the series kind for series, then the unit) and whether the run
/// updated it.
struct Registered<'a> {
    meta: &'a MetricMeta,
    row: Vec<String>,
    updated: bool,
}

/// Every metric instance `r` registered, of one kind. A counter counts
/// as updated when it is positive, a gauge when it was set off zero, a
/// histogram when it holds a sample and a series when a window
/// accumulated a nonzero value (`finish` gives even an untouched series
/// its windows).
fn registered(r: &Registry, kind: MetricKind) -> Vec<Registered<'_>> {
    fn one<'a>(meta: &'a MetricMeta, series_kind: Option<&str>, updated: bool) -> Registered<'a> {
        let label = if meta.label_key.is_empty() { "{}" } else { meta.label_key };
        let mut row = vec![meta.family.clone(), format!("`{label}`")];
        row.extend(series_kind.map(str::to_string));
        row.push(meta.unit.to_string());
        Registered { meta, row, updated }
    }
    match kind {
        MetricKind::Counter => r.counters().iter().map(|(m, v)| one(m, None, *v > 0)).collect(),
        MetricKind::Gauge => r.gauges().iter().map(|(m, v)| one(m, None, *v != 0.0)).collect(),
        MetricKind::Histogram => {
            r.histograms().iter().map(|(m, h)| one(m, None, h.count() > 0)).collect()
        }
        MetricKind::Series => r
            .series_entries()
            .iter()
            .map(|(m, s)| {
                let updated = s.accumulators().iter().any(|&(v, _)| v != 0.0);
                one(m, Some(s.kind().name()), updated)
            })
            .collect(),
    }
}

fn check_metrics(text: &str, families: &[BTreeSet<Vec<String>>]) -> Vec<String> {
    const FILE: &str = "docs/METRICS.md";
    const PARENT: &str = "Metric catalogue";
    let (all, mut errors) = (sections(text), Vec::new());
    let titles: Vec<String> = MetricKind::ALL.iter().map(|k| k.table().to_string()).collect();
    for (rows, title) in families.iter().zip(&titles) {
        if let Some(section) = find(FILE, &all, PARENT, title, &mut errors) {
            let rows: Vec<Vec<&str>> =
                rows.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
            compare(FILE, section, &rows, &mut errors);
        }
    }
    no_phantoms(FILE, &all, PARENT, &titles, &mut errors);
    errors
}

/// The coverage gaps of the runs: event kinds no run stored, scaling
/// choices no decision took, metrics registered but never updated.
fn coverage_gaps(runs: &Runs) -> Vec<String> {
    let mut gaps = Vec::new();
    for kind in EventKind::ALL {
        if runs.stores.iter().all(|s| s.table(kind).is_empty()) {
            gaps.push(format!("no run stored a `{}` row (EventKind::{kind:?})", kind.tag()));
        }
    }
    let taken: BTreeSet<&str> = runs
        .stores
        .iter()
        .flat_map(|s| s.table(EventKind::ScalingDecision).labels("choice"))
        .collect();
    for choice in ScalingChoice::ALL {
        if !taken.contains(choice.name()) {
            gaps.push(format!("no `scaling_decision` row took choice `{}`", choice.name()));
        }
    }
    // A family is live once any run updated any of its label values:
    // label values such as `tenant` depend on the run's geometry.
    for kind in MetricKind::ALL {
        let mut families: BTreeMap<&str, bool> = BTreeMap::new();
        for m in runs.registries.iter().flat_map(|r| registered(r, kind)) {
            *families.entry(m.meta.family.as_str()).or_default() |= m.updated;
        }
        for (family, _) in families.into_iter().filter(|(_, updated)| !updated) {
            gaps.push(format!("{} § `{family}` is registered but no run updated it", kind.table()));
        }
    }
    gaps
}

/// The catalogue rows of every family the runs registered, one set per
/// kind in [`MetricKind::ALL`] order.
fn catalogue() -> Vec<BTreeSet<Vec<String>>> {
    let rows =
        |kind| runs().registries.iter().flat_map(move |r| registered(r, kind)).map(|m| m.row);
    MetricKind::ALL.map(|kind| rows(kind).collect()).to_vec()
}

/// The `slo` metric families the runs register.
fn registered_slo_families() -> BTreeSet<String> {
    catalogue()
        .into_iter()
        .flatten()
        .map(|row| row[0].clone())
        .filter(|f| f.contains("slo"))
        .collect()
}

fn doc(name: &str) -> String {
    let path = format!("{}/docs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Asserts `errors` has a message containing every one of `parts`.
fn assert_reported(errors: &[String], parts: &[&str]) {
    assert!(
        errors.iter().any(|e| parts.iter().all(|p| e.contains(p))),
        "no error mentions all of {parts:?}: {errors:#?}"
    );
}

#[test]
fn trace_schema_matches_the_declared_events() {
    let errors = check_trace_schema(&doc("TRACE_SCHEMA.md"));
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}

#[test]
fn tracestore_matches_the_store_schema() {
    let errors = check_tracestore(&doc("TRACESTORE.md"));
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}

#[test]
fn spans_matches_the_segments_and_registered_slo_families() {
    let slo = registered_slo_families();
    assert!(slo.len() >= 3, "the SLO families went unregistered: {slo:?}");
    let errors = check_spans(&doc("SPANS.md"), &slo);
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}

#[test]
fn metrics_matches_the_registered_families() {
    let families = catalogue();
    for (rows, kind) in families.iter().zip(MetricKind::ALL) {
        assert!(!rows.is_empty(), "the runs registered no {}", kind.table());
    }
    let errors = check_metrics(&doc("METRICS.md"), &families);
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}

#[test]
fn every_declared_event_and_metric_is_produced() {
    let gaps = coverage_gaps(runs());
    assert!(gaps.is_empty(), "{}", gaps.join("\n"));
}

#[test]
fn a_deleted_field_row_is_reported() {
    let row = "| `size_units` | f64 | dataset size in abstract size units |\n";
    let text = doc("TRACE_SCHEMA.md");
    assert!(text.contains(row));
    let errors = check_trace_schema(&text.replacen(row, "", 1));
    let section = "`job_arrived` — `TraceEvent::JobArrived`";
    assert_reported(&errors, &["docs/TRACE_SCHEMA.md", section, "no row for `size_units`"]);

    let retyped = text.replacen(row, &row.replace("f64", "u32"), 1);
    let errors = check_trace_schema(&retyped);
    assert_reported(&errors, &["docs/TRACE_SCHEMA.md", section, "row `size_units` says"]);
}

#[test]
fn a_phantom_column_is_reported() {
    let row = "| `cores` | u32 | Core count now available. |\n";
    let text = doc("TRACESTORE.md");
    assert!(text.contains(row));
    let errors =
        check_tracestore(&text.replacen(row, &format!("{row}| `ghost` | u32 | Nothing. |\n"), 1));
    assert_reported(&errors, &["docs/TRACESTORE.md", "`vm_booted`", "row `ghost` is not in"]);
}

#[test]
fn a_renamed_segment_is_reported() {
    let slo: BTreeSet<String> =
        ["fleet_slo_violations_total", "slo_burn_rate", "slo_violations_total"]
            .map(String::from)
            .into();
    let text = doc("SPANS.md").replacen("| `fan_in` |", "| `fan_out` |", 1);
    let errors = check_spans(&text, &slo);
    assert_reported(&errors, &["docs/SPANS.md", "Segment taxonomy", "no row for `fan_in`"]);
    assert_reported(&errors, &["docs/SPANS.md", "Segment taxonomy", "row `fan_out` is not in"]);
}

#[test]
fn a_metric_catalogue_drift_is_reported() {
    let text = doc("METRICS.md");
    let row = text
        .lines()
        .find(|l| l.starts_with("| `vm_reshaped_total` |"))
        .expect("METRICS.md documents vm_reshaped_total")
        .to_string();
    let families = catalogue();
    let errors = check_metrics(&text.replacen(&format!("{row}\n"), "", 1), &families);
    assert_reported(&errors, &["docs/METRICS.md", "Counters", "no row for `vm_reshaped_total`"]);

    let retyped = text.replacen(&row, &row.replacen("| 1 |", "| tu |", 1), 1);
    let errors = check_metrics(&retyped, &families);
    assert_reported(&errors, &["docs/METRICS.md", "Counters", "row `vm_reshaped_total` says"]);

    let mut undocumented = families.clone();
    undocumented[2].insert(["ghost_tu", "`{}`", "tu"].map(String::from).to_vec());
    let errors = check_metrics(&text, &undocumented);
    assert_reported(&errors, &["docs/METRICS.md", "Histograms", "no row for `ghost_tu`"]);
}

#[test]
fn a_coverage_gap_is_reported() {
    let mut idle = Registry::new(1.0);
    idle.counter("idle_total", "tier", "public", "1", "Never updated");
    let gaps = coverage_gaps(&Runs { registries: vec![idle], stores: vec![TraceStore::new()] });
    assert_reported(&gaps, &["Counters", "`idle_total`", "no run updated it"]);
    assert_reported(&gaps, &["`vm_reshaped` row", "EventKind::VmReshaped"]);
    assert_reported(&gaps, &["choice `throttled_private`"]);
}
