//! Non-vacuity guards for the semantic layer, pinned against the real
//! workspace: a refactor that silently stops resolving calls (or stops
//! finding hazards) would otherwise keep every pass green by making it
//! blind. `workspace_clean` pins the *post-allow* result at zero; these
//! pin the machinery underneath at non-trivial sizes.

use scan_lint::diag::Allows;
use scan_lint::graph;
use scan_lint::model::SemanticModel;
use scan_lint::rules::{self, semantic};
use scan_lint::source::SourceFile;
use scan_lint::workspace::Workspace;
use std::path::Path;

fn real_workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Workspace::load(&root).expect("workspace root is readable")
}

#[test]
fn call_graph_covers_the_workspace() {
    let ws = real_workspace();
    let model = SemanticModel::build(&ws);
    let g = graph::build(&model);
    assert!(model.fns.len() >= 1000, "symbol table shrank: {} fns", model.fns.len());
    assert!(g.edge_count() >= 500, "call graph shrank: {} edges", g.edge_count());
}

/// With allow directives ignored, the passes must find the workspace's
/// *annotated* hazards: the kb interner's lookup-only `HashMap` behind
/// the knowledge base's RDF view, and the trace-store columns' `# Panics`
/// contract sites behind the observer hot path. The broker learns its
/// models from the knowledge base's profile table and never builds the
/// RDF view, so as committed no sim-facing code reaches that `HashMap`;
/// the guard routes the real broker through the view in memory and the
/// taint pass must follow the real kb call chain down to it. If this
/// fails after removing one of those, re-point it at another allowed
/// site — the guard exists so the passes can never silently go blind.
#[test]
fn passes_find_the_annotated_sites_when_allows_are_ignored() {
    let mut ws = real_workspace();
    let broker = ws
        .files
        .iter_mut()
        .find(|wf| wf.file.path.ends_with("crates/core/src/broker.rs"))
        .expect("the workspace has the data broker");
    let anchor = "let learned = Self::learn_model(&kb, model);";
    let routed = broker.file.text.replace(anchor, &format!("{anchor}\nlet _ = kb.ontology();"));
    assert_ne!(routed, broker.file.text, "the broker still learns its model after ingesting");
    broker.file = SourceFile::new(broker.file.path.clone(), routed);

    let model = SemanticModel::build(&ws);
    let g = graph::build(&model);
    let mut no_allows = Allows::collect(std::iter::empty::<&SourceFile>(), rules::is_known_rule);
    let mut diags = Vec::new();
    semantic::check(&model, &g, &mut no_allows, &mut diags);
    let count = |rule: &str| diags.iter().filter(|d| d.rule == rule).count();
    assert!(
        diags.iter().any(|d| d.rule == "taint-nondet"
            && d.message.contains("KnowledgeBase::ontology")
            && d.message.contains("HashMap")),
        "taint pass went blind: {diags:?}"
    );
    assert!(count("panic-path") >= 1, "panic-path pass went blind: {diags:?}");
}
