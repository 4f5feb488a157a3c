//! Doc–code consistency: `metrics-doc-drift` checks `docs/METRICS.md`
//! against the metric families actually registered in library code
//! (`registry.counter(…)` / `.histogram(…)` / `.series(…)` call sites):
//! the catalogue lists exactly the registered families, in both
//! directions.
//!
//! The registered families are collected from tokens, because nothing
//! enumerates them at runtime yet. The other reference documents
//! (TRACE_SCHEMA.md, TRACESTORE.md, SPANS.md) are checked against the
//! runtime schema values by the root `tests/doc_tables.rs` instead.

use crate::diag::{Diagnostic, Severity};
use crate::lex::{Token, TokenKind};
use crate::source::SourceFile;
use std::collections::BTreeMap;
use std::path::Path;

/// A registered metric family: name → every registration site.
pub type RegisteredMetrics = BTreeMap<String, Vec<(std::path::PathBuf, u32)>>;

/// Collects the metric families registered by non-test library code:
/// `<recv>.counter("name", …)`, `.histogram("name", …)` and
/// `.series(Kind, "name", …)` call sites (the name is the first string
/// literal in the argument list).
pub fn collect_registered_metrics(files: &[&SourceFile]) -> RegisteredMetrics {
    let mut out = RegisteredMetrics::new();
    for file in files {
        let code: Vec<&Token> = file.code_tokens().map(|(_, t)| t).collect();
        for (pos, token) in code.iter().enumerate() {
            if token.kind != TokenKind::Ident
                || !matches!(file.text_of(token), "counter" | "histogram" | "series")
                || file.in_test_code(token.start)
            {
                continue;
            }
            let preceded_by_dot = pos > 0 && matches!(code[pos - 1].kind, TokenKind::Punct(b'.'));
            let called = matches!(code.get(pos + 1).map(|t| t.kind), Some(TokenKind::Punct(b'(')));
            if !preceded_by_dot || !called {
                continue;
            }
            // First string literal inside the argument list is the name.
            let mut depth = 0i32;
            let mut k = pos + 1;
            while k < code.len() {
                match code[k].kind {
                    TokenKind::Punct(b'(') => depth += 1,
                    TokenKind::Punct(b')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokenKind::Str => {
                        if let Some(name) = code[k].str_content(&file.text) {
                            if !name.is_empty() {
                                out.entry(name.to_string())
                                    .or_default()
                                    .push((file.path.clone(), token.line));
                            }
                        }
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
    }
    out
}

/// Cross-checks docs/METRICS.md's catalogue tables against the
/// registered metric families.
pub fn check_metrics_doc(
    doc_path: &Path,
    doc_text: &str,
    registered: &RegisteredMetrics,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let documented = parse_metrics_catalogue(doc_text);
    if registered.is_empty() {
        diags.push(Diagnostic {
            rule: "metrics-doc-drift",
            severity: Severity::Error,
            path: doc_path.to_path_buf(),
            line: 1,
            col: 1,
            message: "no registered metrics found in library code; the collector is broken"
                .to_string(),
            chain: Vec::new(),
        });
        return diags;
    }
    for (name, sites) in registered {
        if !documented.iter().any(|(doc_name, _)| doc_name == name) {
            let (path, line) = &sites[0];
            diags.push(Diagnostic {
                rule: "metrics-doc-drift",
                severity: Severity::Error,
                path: path.clone(),
                line: *line,
                col: 1,
                message: format!(
                    "metric `{name}` is registered here but missing from {}'s catalogue",
                    doc_path.display()
                ),
                chain: Vec::new(),
            });
        }
    }
    for (name, line) in &documented {
        if !registered.contains_key(name) {
            diags.push(Diagnostic {
                rule: "metrics-doc-drift",
                severity: Severity::Error,
                path: doc_path.to_path_buf(),
                line: *line,
                col: 1,
                message: format!(
                    "documented metric `{name}` is not registered by any library code"
                ),
                chain: Vec::new(),
            });
        }
    }
    diags
}

/// Extracts `(metric name, line)` rows from the "Metric catalogue"
/// section's tables.
fn parse_metrics_catalogue(doc_text: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut in_catalogue = false;
    let mut in_fence = false;
    for (idx, raw) in doc_text.lines().enumerate() {
        let line = raw.trim_end();
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        if let Some(heading) = line.strip_prefix("## ") {
            in_catalogue = heading.trim() == "Metric catalogue";
            continue;
        }
        if !in_catalogue {
            continue;
        }
        if let Some(rest) = line.strip_prefix("| `") {
            if let Some((name, _)) = rest.split_once('`') {
                out.push((name.to_string(), (idx + 1) as u32));
            }
        }
    }
    out
}
