#!/usr/bin/env bash
# Telemetry smoke: a sweep run with --trace-out must produce the same
# result JSON as an untraced run (stripping only wall_seconds and the
# provenance timestamp -- scripts/diff_sweep_json.py), and the trace
# itself must be a loadable Chrome trace with the expected lanes,
# spans, and phases.
#
# Usage: scripts/telemetry_smoke.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  where pracbench lives (default: build)
#   OUT_DIR    results location (default: results/telemetry_smoke)

set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-results/telemetry_smoke}"
PRACBENCH="${BUILD_DIR}/pracbench"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

if [[ ! -x "${PRACBENCH}" ]]; then
    echo "error: ${PRACBENCH} not found; build first" >&2
    exit 1
fi

rm -rf "${OUT_DIR}"
mkdir -p "${OUT_DIR}"

# Same CI-sized sweep as the resume smoke: six points.
SWEEP=(defense_matrix_perf --jobs 2 --quiet --no-table
       --set mitigation=none,para,tprac
       --set entry=h_rand_heavy,m_blend
       --set warmup=20000 --set measure=200000)

echo "==> untraced reference run"
"${PRACBENCH}" run "${SWEEP[@]}" --out "${OUT_DIR}/reference.json"

echo "==> traced run (--trace-out), must not perturb the result"
"${PRACBENCH}" run "${SWEEP[@]}" \
    --trace-out "${OUT_DIR}/trace.json" --out "${OUT_DIR}/traced.json"

python3 "${SCRIPT_DIR}/diff_sweep_json.py" \
    --ignore wall_seconds --ignore generated_at \
    "${OUT_DIR}/reference.json" "${OUT_DIR}/traced.json"

echo "==> validating the Chrome trace"
python3 - "${OUT_DIR}/trace.json" <<'EOF'
import json
import sys

document = json.load(open(sys.argv[1]))
events = document["traceEvents"]
spans = [e for e in events if e["ph"] == "X"]
metas = [e for e in events if e["ph"] == "M"]
points = [e for e in spans if e["cat"] == "point"]
phases = [e for e in spans if e["cat"] == "phase"]

failures = []
if len(points) != 6:
    failures.append(f"expected 6 point spans, got {len(points)}")
if not phases:
    failures.append("no phase spans (sim / journal-flush)")
if not any(m["name"] == "process_name" for m in metas):
    failures.append("missing process_name metadata event")
if not any(m["name"] == "thread_name" for m in metas):
    failures.append("missing thread_name metadata events")
for span in spans:
    if span["dur"] < 0:
        failures.append(f"negative duration on span {span['name']}")
for failure in failures:
    print(f"telemetry_smoke: FAIL: {failure}")
print(f"telemetry_smoke: trace OK "
      f"({len(events)} events, {len(points)} point spans)")
sys.exit(1 if failures else 0)
EOF

echo "telemetry smoke passed"
