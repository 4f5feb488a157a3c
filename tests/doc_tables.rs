//! The reference documents' tables match the code's runtime values, in
//! both directions:
//!
//! * docs/TRACE_SCHEMA.md — one `### `tag` — `TraceEvent::Variant``
//!   section per [`TraceEvent::SCHEMA`] entry, whose field rows (name
//!   and type) equal the declared fields, and every `ScalingChoice`
//!   label mentioned;
//! * docs/TRACESTORE.md — the "Column layouts" tables equal
//!   `EventKind::columns()` (name and type), and the "Aggregations"
//!   table lists the `Agg` labels;
//! * docs/SPANS.md — the "Segment taxonomy" table lists the
//!   `ALL_SEGMENTS` names, and the "SLO metrics" table lists the `slo`
//!   metric families a session and a fleet actually register.
//!
//! A mismatch names the file, the section and the row.

use scan::platform::config::{ScanConfig, VariableParams};
use scan::platform::fleet::{run_fleet_with, FleetConfig};
use scan::platform::Platform;
use scan::sched::scaling::ScalingPolicy;
use scan::sim::{NullObserverFactory, ScalingChoice, TraceEvent};
use scan::tracestore::{Agg, ColumnType, ALL_KINDS};
use scan_metrics::Metrics;
use scan_spans::ALL_SEGMENTS;
use std::collections::BTreeSet;

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
    let titles: Vec<String> = ALL_KINDS.iter().map(|k| format!("`{}`", k.tag())).collect();
    for (kind, title) in ALL_KINDS.iter().zip(&titles) {
        if let Some(section) = find(FILE, &all, PARENT, title, &mut errors) {
            let cols: Vec<Vec<&str>> =
                kind.columns().iter().map(|c| vec![c.name, column_type(c.ty)]).collect();
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

/// The `slo` metric families a short session with the SLO armed and a
/// small fleet actually register.
fn registered_slo_families() -> BTreeSet<String> {
    let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.0), 7);
    cfg.fixed.sim_time_tu = 60.0;
    cfg.slo_target_tu = Some(1.0);
    let metrics = Metrics::enabled(10.0);
    let mut platform = Platform::new(cfg.clone(), 0);
    platform.set_metrics(&metrics);
    platform.run();
    let session = metrics.into_registry().expect("registry uniquely owned after the run");
    let mut fleet = FleetConfig::new(cfg, 2);
    fleet.jobs_per_tenant = 2;
    let fleet = run_fleet_with(&fleet, 0, &NullObserverFactory).0.registry();
    let mut families = BTreeSet::new();
    for r in [&session, &fleet] {
        families.extend(r.counters().iter().map(|(m, _)| &m.family));
        families.extend(r.gauges().iter().map(|(m, _)| &m.family));
        families.extend(r.histograms().iter().map(|(m, _)| &m.family));
        families.extend(r.series_entries().iter().map(|(m, _)| &m.family));
    }
    families.into_iter().filter(|f| f.contains("slo")).cloned().collect()
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
