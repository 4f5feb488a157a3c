//! `metrics-doc-drift`: synthetic drift in each direction must be
//! caught, and registrations inside test code must not count.

use scan_lint::rules::consistency::{
    check_metrics_doc, collect_registered_metrics, RegisteredMetrics,
};
use scan_lint::source::SourceFile;
use std::path::{Path, PathBuf};

const METRICS_DOC: &str = "\
# Metrics

## Metric catalogue

| name | unit |
|---|---|
| `jobs_done` | count |

## Export formats

| `not_a_metric` | this table is outside the catalogue |
";

fn registered(names: &[&str]) -> RegisteredMetrics {
    names.iter().map(|n| (n.to_string(), vec![(PathBuf::from("meters.rs"), 1)])).collect()
}

#[test]
fn matching_metrics_doc_is_clean() {
    let out = check_metrics_doc(Path::new("M.md"), METRICS_DOC, &registered(&["jobs_done"]));
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn unregistered_documented_metric_is_drift() {
    let out = check_metrics_doc(Path::new("M.md"), METRICS_DOC, &registered(&["other"]));
    let rendered: Vec<String> = out.iter().map(|d| d.render()).collect();
    assert!(rendered.iter().any(|d| d.contains("`jobs_done` is not registered")), "{rendered:?}");
    assert!(rendered.iter().any(|d| d.contains("`other` is registered here")), "{rendered:?}");
}

#[test]
fn registration_sites_are_collected_outside_tests_only() {
    let src = SourceFile::new(
        PathBuf::from("meters.rs"),
        r#"
fn wire(reg: &mut Registry) {
    reg.counter("live_metric", "u");
    reg.histogram("lat_metric", "tu");
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        reg.counter("test_only_metric", "u");
    }
}
"#
        .to_string(),
    );
    let got = collect_registered_metrics(&[&src]);
    let names: Vec<&str> = got.keys().map(String::as_str).collect();
    assert_eq!(names, ["lat_metric", "live_metric"]);
}
