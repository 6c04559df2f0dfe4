#!/usr/bin/env bash
# Fleet smoke: run one sweep as three static shards over a shared
# checkpoint directory -- shard 2/3 is SIGKILLed mid-flight (a dead
# host) and then resumed with --resume -- and `pracbench merge` fuses
# the journals.  The result must be byte-identical to an
# uninterrupted single-host run (stripping only wall_seconds and the
# provenance timestamp -- scripts/diff_sweep_json.py; the CSV must
# match byte-for-byte).
#
# Usage: scripts/shard_smoke.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  where pracbench lives (default: build)
#   OUT_DIR    results + checkpoint location (default: results/shard_smoke)

set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-results/shard_smoke}"
PRACBENCH="${BUILD_DIR}/pracbench"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

if [[ ! -x "${PRACBENCH}" ]]; then
    echo "error: ${PRACBENCH} not found; build first" >&2
    exit 1
fi

rm -rf "${OUT_DIR}"
mkdir -p "${OUT_DIR}"

# Six points (3 defenses x 2 workloads), heavy enough that the kill
# lands mid-sweep but the whole exercise stays CI-sized.  Identical
# to the resume smoke's sweep so the two jobs cross-check.
SWEEP=(defense_matrix_perf --jobs 2 --quiet --no-table
       --set mitigation=none,para,tprac
       --set entry=h_rand_heavy,m_blend
       --set warmup=20000 --set measure=200000)
CKPT="${OUT_DIR}/ckpt"
VICTIM_JOURNAL="${CKPT}/defense_matrix_perf.shard-2-of-3.jsonl"

echo "==> single-host reference run"
"${PRACBENCH}" run "${SWEEP[@]}" \
    --out "${OUT_DIR}/reference.json" --csv "${OUT_DIR}/reference.csv"

echo "==> static shards 0/3 and 1/3"
for index in 0 1; do
    "${PRACBENCH}" run "${SWEEP[@]}" \
        --checkpoint "${CKPT}" --shard "${index}/3"
done

echo "==> shard 2/3, SIGKILLed mid-flight"
# One thread, so the kill lands between the shard's two points.
"${PRACBENCH}" run "${SWEEP[@]}" --jobs 1 \
    --checkpoint "${CKPT}" --shard 2/3 &
VICTIM=$!
# Kill once the journal holds a completed point (header + 1 record):
# the resume must keep it and run only what is missing.
for _ in $(seq 1 600); do
    if [[ -f "${VICTIM_JOURNAL}" ]] &&
       [[ "$(wc -l < "${VICTIM_JOURNAL}")" -ge 2 ]]; then
        break
    fi
    if ! kill -0 "${VICTIM}" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
if kill -KILL "${VICTIM}" 2>/dev/null; then
    echo "==> SIGKILLed pid ${VICTIM}"
else
    echo "warning: shard 2/3 finished before the kill landed" >&2
fi
wait "${VICTIM}" 2>/dev/null || true

if [[ ! -f "${VICTIM_JOURNAL}" ]]; then
    echo "error: shard 2/3 never wrote its journal" >&2
    exit 1
fi

echo "==> resuming shard 2/3 ($(wc -l < "${VICTIM_JOURNAL}") journal lines)"
"${PRACBENCH}" run "${SWEEP[@]}" \
    --checkpoint "${CKPT}" --shard 2/3 --resume

echo "==> merging $(ls "${CKPT}"/*.jsonl | wc -l) journals"
"${PRACBENCH}" merge "${CKPT}" --jobs 2 --no-table \
    --out "${OUT_DIR}/merged.json" --csv "${OUT_DIR}/merged.csv"

echo "==> diffing the merged output against the reference"
python3 "${SCRIPT_DIR}/diff_sweep_json.py" \
    --ignore wall_seconds --ignore generated_at \
    "${OUT_DIR}/reference.json" "${OUT_DIR}/merged.json"
# The CSV carries no timestamps: byte-identical, full stop.
cmp "${OUT_DIR}/reference.csv" "${OUT_DIR}/merged.csv"
echo "shard smoke passed"
