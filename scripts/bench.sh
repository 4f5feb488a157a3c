#!/usr/bin/env bash
# Perf-trajectory recorder: runs the criterion benches and folds their
# medians into a JSON ledger, so every PR's before/after numbers are
# committed next to the code that produced them.
#
#   ./scripts/bench.sh                         run all benches, print JSON
#   ./scripts/bench.sh --quick                 end-to-end session bench only
#   ./scripts/bench.sh --benches hiring,session,fleet
#                                              run a named subset (skips
#                                              the export-footprint step)
#   ./scripts/bench.sh --label after --out BENCH_PR3.json
#                                              merge this run into the
#                                              ledger under "runs.after"
#
# The ledger file accumulates runs: {"runs": {"<label>": {...}}}. Each run
# records, per benchmark, the mean seconds/iteration plus the derived
# sessions/sec and ns/event for the end-to-end session benches. The
# committed BENCH_PR*.json ledgers are history, not a gate: regressions
# are caught by perfbench's live A/B runs of two commits (perfbench/).
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
label="run"
out=""
subset=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --quick) quick=1 ;;
        --benches) subset="$2"; shift ;;
        --label) label="$2"; shift ;;
        --out) out="$2"; shift ;;
        *) echo "unknown flag: $1" >&2; exit 2 ;;
    esac
    shift
done

if [[ -n "$subset" ]]; then
    IFS=',' read -r -a benches <<< "$subset"
    quick=1 # subset runs skip the export-footprint measurement too
else
    benches=(session)
    if [[ "$quick" == 0 ]]; then
        benches+=(dispatch hiring metrics lint fleet tracestore spans)
    fi
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
for b in "${benches[@]}"; do
    echo "==> cargo bench -p scan-bench --bench $b" >&2
    cargo bench -p scan-bench --bench "$b" 2>/dev/null | tee -a "$raw" >&2
done

# Export footprint on real artefacts: the medium fig4 cell written as
# JSONL and as an SCTS store (docs/TRACESTORE.md "Export format"). The
# ≥5x size criterion of PR7 is measured and ledgered here.
jsonl_bytes=0; scts_bytes=0
if [[ "$quick" == 0 ]]; then
    echo "==> export footprint (medium fig4 cell: JSONL vs SCTS)" >&2
    tj="$(mktemp)"; ts="$(mktemp)"
    SCAN_HORIZON=300 SCAN_REPS=1 cargo run -q --release -p scan-bench --bin fig4 -- \
        --quick --trace "$tj" --store "$ts" >/dev/null
    jsonl_bytes="$(wc -c < "$tj")"
    scts_bytes="$(wc -c < "$ts")"
    rm -f "$tj" "$ts"
    echo "    jsonl ${jsonl_bytes} B, scts ${scts_bytes} B" >&2
fi

python3 - "$raw" "$label" "$out" "$jsonl_bytes" "$scts_bytes" <<'PY'
import json, re, subprocess, sys

raw_path, label, out_path = sys.argv[1], sys.argv[2], sys.argv[3]
jsonl_bytes, scts_bytes = int(sys.argv[4]), int(sys.argv[5])

UNIT = {"ns": 1e-9, "µs": 1e-6, "us": 1e-6, "ms": 1e-3, "s": 1.0}
LINE = re.compile(
    r"^(?P<name>\S+)\s+time:\s+\[(?P<min>[\d.]+) (?P<minu>\S+) "
    r"(?P<mean>[\d.]+) (?P<meanu>\S+) (?P<max>[\d.]+) (?P<maxu>\S+)\]"
    r"(?:\s+thrpt: (?P<rate>[\d.]+) ?(?P<ratesuf>G|M|K)? ?elem/s)?"
)
SUF = {"G": 1e9, "M": 1e6, "K": 1e3, None: 1.0}

results = {}
for line in open(raw_path):
    m = LINE.match(line.strip())
    if not m:
        continue
    mean_s = float(m["mean"]) * UNIT[m["meanu"]]
    entry = {
        "min_s": float(m["min"]) * UNIT[m["minu"]],
        "mean_s": mean_s,
        "max_s": float(m["max"]) * UNIT[m["maxu"]],
    }
    if m["rate"]:
        # session benches report Throughput::Elements(events): the rate is
        # events/sec, and events = rate × mean seconds.
        events_per_s = float(m["rate"]) * SUF[m["ratesuf"]]
        entry["events_per_s"] = events_per_s
        if m["name"].startswith("session/full/"):
            entry["sessions_per_s"] = 1.0 / mean_s
            entry["ns_per_event"] = 1e9 / events_per_s
        if m["name"].startswith("fleet/tenants/"):
            # Fleet benches report Throughput::Elements(jobs): elem/s is
            # whole-fleet jobs/sec at that tenant count.
            entry["jobs_per_s"] = events_per_s
    results[m["name"]] = entry

commit = subprocess.run(
    ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
).stdout.strip() or "unknown"

run = {"commit": commit, "results": results}
if scts_bytes:
    run["export_size"] = {
        "fig4_jsonl_bytes": jsonl_bytes,
        "fig4_scts_bytes": scts_bytes,
        "jsonl_over_scts": round(jsonl_bytes / scts_bytes, 2),
    }

if out_path:
    try:
        ledger = json.load(open(out_path))
    except (FileNotFoundError, json.JSONDecodeError):
        ledger = {
            "_comment": "End-to-end and per-subsystem bench medians per "
            "labelled run; written by scripts/bench.sh.",
            "runs": {},
        }
    ledger.setdefault("runs", {})[label] = run
    with open(out_path, "w") as f:
        json.dump(ledger, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out_path} (label: {label}, {len(results)} benchmarks)")
else:
    print(json.dumps(run, indent=2, sort_keys=True))
PY
