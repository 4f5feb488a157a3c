//! Analyzer runtime: how long `scan-lint` takes over the whole
//! workspace. The gate budget is "well under a second" so the lint step
//! stays in `ci.sh quick`; this bench times a full load+scan and the
//! rule pass alone.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use scan_lint::Workspace;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn bench_lint(c: &mut Criterion) {
    let mut group = c.benchmark_group("lint");

    // Disk + tokenize + every rule: what `ci.sh` actually pays.
    group.bench_function("load_and_run", |b| {
        b.iter(|| {
            let ws = Workspace::load(black_box(workspace_root())).expect("workspace loads");
            black_box(ws.run().diagnostics.len())
        })
    });

    // Rules only, on an already-loaded (lexed) workspace.
    let ws = Workspace::load(workspace_root()).expect("workspace loads");
    group.bench_function("rules_only", |b| b.iter(|| black_box(ws.run().diagnostics.len())));

    // The interprocedural layer alone: item parse + symbol table + call
    // graph + the three semantic passes. CI budgets the whole analysis
    // at 250 ms (`--time-budget-ms`), so this must stay far under that.
    group.bench_function("semantic", |b| b.iter(|| black_box(ws.run_semantic().diagnostics.len())));

    group.finish();
}

criterion_group!(benches, bench_lint);
criterion_main!(benches);
