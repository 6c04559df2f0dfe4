#!/usr/bin/env bash
# Kill-and-resume smoke: start a multi-point sweep with --checkpoint,
# SIGKILL it once the journal shows real progress, resume it, and
# diff the final JSON against an uninterrupted reference run
# (stripping only wall_seconds and the provenance timestamp --
# scripts/diff_sweep_json.py).
#
# Usage: scripts/resume_smoke.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  where pracbench lives (default: build)
#   OUT_DIR    results + checkpoint location (default: results/resume_smoke)

set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-results/resume_smoke}"
PRACBENCH="${BUILD_DIR}/pracbench"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

if [[ ! -x "${PRACBENCH}" ]]; then
    echo "error: ${PRACBENCH} not found; build first" >&2
    exit 1
fi

rm -rf "${OUT_DIR}"
mkdir -p "${OUT_DIR}"

# Six points (3 defenses x 2 workloads), each heavy enough that the
# kill lands mid-sweep but the whole exercise stays CI-sized.
SWEEP=(defense_matrix_perf --jobs 2 --quiet --no-table
       --set mitigation=none,para,tprac
       --set entry=h_rand_heavy,m_blend
       --set warmup=20000 --set measure=200000)
JOURNAL="${OUT_DIR}/ckpt/defense_matrix_perf.jsonl"

echo "==> reference (uninterrupted) run"
"${PRACBENCH}" run "${SWEEP[@]}" --out "${OUT_DIR}/reference.json"

echo "==> checkpointed run, to be SIGKILLed mid-flight"
"${PRACBENCH}" run "${SWEEP[@]}" --checkpoint "${OUT_DIR}/ckpt" \
    --out "${OUT_DIR}/resumed.json" &
VICTIM=$!

# Kill as soon as the journal holds at least one completed point
# (header + 1 record) while the sweep is still mid-flight.
for _ in $(seq 1 600); do
    if [[ -f "${JOURNAL}" ]] &&
       [[ "$(wc -l < "${JOURNAL}")" -ge 2 ]]; then
        break
    fi
    if ! kill -0 "${VICTIM}" 2>/dev/null; then
        break
    fi
    sleep 0.1
done

records() { [[ -f "${JOURNAL}" ]] && wc -l < "${JOURNAL}" || echo 0; }

if kill -KILL "${VICTIM}" 2>/dev/null; then
    echo "==> SIGKILLed pid ${VICTIM} after $(records) journal records"
else
    # The sweep outran the poll loop; the resume below still has to
    # prove it recomputes nothing and emits identical bytes.
    echo "warning: sweep finished before the kill landed" >&2
fi
wait "${VICTIM}" 2>/dev/null || true

if [[ "$(records)" -lt 1 ]]; then
    echo "error: the checkpointed sweep never wrote its journal" >&2
    exit 1
fi
if [[ -f "${OUT_DIR}/resumed.json" ]]; then
    # Only possible when the sweep finished before the kill landed.
    echo "warning: killed run had already emitted its JSON" >&2
    rm -f "${OUT_DIR}/resumed.json"
fi

echo "==> resuming from $(records) journal records"
"${PRACBENCH}" run "${SWEEP[@]}" --checkpoint "${OUT_DIR}/ckpt" \
    --resume --out "${OUT_DIR}/resumed.json"

echo "==> diffing resumed output against the reference"
python3 "${SCRIPT_DIR}/diff_sweep_json.py" \
    --ignore wall_seconds --ignore generated_at \
    "${OUT_DIR}/reference.json" "${OUT_DIR}/resumed.json"
echo "resume smoke passed"
