#!/usr/bin/env bash
# Local CI gate: everything a PR must pass before merging.
#
#   ./scripts/ci.sh          full gate (build, tests, clippy, fmt)
#   ./scripts/ci.sh quick    skip the release build
#
# The container is offline; all third-party crates resolve to the in-repo
# shims under compat/, so `cargo` never touches the network.
set -euo pipefail
cd "$(dirname "$0")/.."

quick="${1:-}"

# `cargo test <filter>` exits 0 when the filter matches no test, so a
# renamed or deleted test would silently drop out of its gate. Runs one
# filtered `cargo test -q` and fails unless at least one test ran.
filtered_test() {
    local log ran
    log="$(mktemp)"
    cargo test -q "$@" 2>&1 | tee "$log"
    ran="$(sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' "$log" \
        | awk '{ n += $1 } END { print n + 0 }')"
    rm -f "$log"
    if (( ran < 1 )); then
        echo "FAIL: no test ran for: cargo test $*" >&2
        exit 1
    fi
}

echo "==> scan-lint --deny-warnings (determinism + hygiene + metrics doc drift + semantic passes)"
cargo run -q -p scan-lint -- --deny-warnings

echo "==> scan-lint --json (machine-output schema check)"
# The heredoc is python's stdin (it is the script), so the JSON goes
# through a file, not a pipe.
lint_json="$(mktemp)"
cargo run -q -p scan-lint -- --json > "$lint_json"
python3 - "$lint_json" <<'PY'
import json, sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
for key in ("files_scanned", "errors", "warnings", "findings"):
    assert key in doc, f"scan-lint --json lost the `{key}` key"
assert isinstance(doc["findings"], list), "findings must be a list"
for f in doc["findings"]:
    for key in ("path", "line", "col", "severity", "rule", "message", "chain"):
        assert key in f, f"finding lost the `{key}` key: {f}"
    for hop in f["chain"]:
        for key in ("label", "path", "line"):
            assert key in hop, f"chain hop lost the `{key}` key: {hop}"
print(f"scan-lint --json schema OK ({doc['files_scanned']} files, "
      f"{len(doc['findings'])} findings)")
PY
rm -f "$lint_json"

if [[ "$quick" != "quick" ]]; then
    echo "==> cargo build --release (tier-1)"
    cargo build --release
fi

echo "==> doc tables (TRACE_SCHEMA / TRACESTORE / SPANS match the code)"
filtered_test --test doc_tables

echo "==> cargo test -q (tier-1, root package)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo bench --no-run (bench smoke: harnesses must compile)"
cargo bench --workspace --no-run --quiet

echo "==> metrics determinism (metrics leave the session unchanged; registries merge every metric type)"
filtered_test -p scan-platform session::tests::metrics_do_not_perturb_the_session
filtered_test -p scan-metrics merge_folds_all_metric_types

echo "==> KB determinism (golden learned model + adaptive session, table fits == triple-view refit)"
filtered_test -p scan-platform golden_learned_model_bits
filtered_test -p scan-platform golden_adaptive_fixed_seed_metrics
filtered_test -p scan-kb prop_table_fits_match_the_view_refit

echo "==> span conservation (medium fig4 cell: segments sum bit-exactly to latency)"
filtered_test -p scan-spans --test conservation

if [[ "$quick" != "quick" ]]; then
    echo "==> store determinism (two fixed-seed runs, identical SCTS digest)"
    # The columnar store's 8-byte digest replaces the old multi-megabyte
    # JSONL double-run compare as the fixed-seed determinism gate; the
    # byte-level cmp backstops the digest against collisions.
    s1="$(mktemp)"; s2="$(mktemp)"; o1="$(mktemp)"; o2="$(mktemp)"
    trap 'rm -f "$s1" "$s2" "$o1" "$o2"' EXIT
    SCAN_HORIZON=300 SCAN_REPS=1 cargo run -q --release -p scan-bench --bin fig4 -- \
        --quick --store "$s1" > "$o1"
    SCAN_HORIZON=300 SCAN_REPS=1 cargo run -q --release -p scan-bench --bin fig4 -- \
        --quick --store "$s2" > "$o2"
    d1="$(sed -n 's/.*digest \([0-9a-f]*\).*/\1/p' "$o1")"
    d2="$(sed -n 's/.*digest \([0-9a-f]*\).*/\1/p' "$o2")"
    [[ -n "$d1" && "$d1" == "$d2" ]] || {
        echo "FAIL: fixed-seed store digest differs between runs ($d1 vs $d2)" >&2; exit 1; }
    cmp "$s1" "$s2" || { echo "FAIL: fixed-seed store export differs between runs" >&2; exit 1; }

    echo "==> store/JSONL cross-check (the one retained JSONL gate)"
    filtered_test --test tracestore_fleet store_agrees_with_the_jsonl_sink

    echo "==> fleet determinism (1 vs 8 rayon threads: stdout + merged store + spans)"
    f1="$(mktemp)"; f2="$(mktemp)"; fs1="$(mktemp)"; fs2="$(mktemp)"
    fp1="$(mktemp)"; fp2="$(mktemp)"
    trap 'rm -f "$s1" "$s2" "$o1" "$o2" "$f1" "$f2" "$fs1" "$fs2" \
        "$fp1" "$fp2" "$fp1.txt" "$fp2.txt"' EXIT
    RAYON_NUM_THREADS=1 cargo run -q --release -p scan-bench --bin fleet -- \
        --quick --store "$fs1" --spans "$fp1" > "$f1"
    RAYON_NUM_THREADS=8 cargo run -q --release -p scan-bench --bin fleet -- \
        --quick --store "$fs2" --spans "$fp2" > "$f2"
    # The `store:`/`spans:` "wrote <path>" lines carry the differing temp
    # paths; the spans report itself is byte-compared below instead.
    diff <(grep -v '^store:\|^spans:' "$f1") <(grep -v '^store:\|^spans:' "$f2") \
        || { echo "FAIL: fleet result depends on rayon thread count" >&2; exit 1; }
    cmp "$fs1" "$fs2" \
        || { echo "FAIL: merged fleet store depends on rayon thread count" >&2; exit 1; }
    cmp "$fp1.txt" "$fp2.txt" \
        || { echo "FAIL: merged fleet span report depends on rayon thread count" >&2; exit 1; }
    cmp "$fp1" "$fp2" \
        || { echo "FAIL: fleet Perfetto timeline depends on rayon thread count" >&2; exit 1; }

    # Analyzer latency budget: the semantic layer must keep the full
    # release-mode scan under 250 ms so scan-lint stays first in CI.
    echo "==> scan-lint --time-budget-ms 250 (release)"
    cargo run -q --release -p scan-lint -- --time-budget-ms 250
fi

echo "==> metrics overhead bench (run-gate: disabled hot path must execute)"
cargo bench -p scan-bench --bench metrics >/dev/null

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "CI gate passed."
