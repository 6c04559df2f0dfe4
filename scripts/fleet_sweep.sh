#!/usr/bin/env bash
# Run one scenario as an N-way sharded fleet on this host (N shard
# processes sharing a checkpoint directory -- a stand-in for N hosts
# sharing a filesystem), then fuse the shard journals with
# `pracbench merge` into the single-host-identical JSON/CSV.
#
# Usage: scripts/fleet_sweep.sh SCENARIO N [BUILD_DIR] [OUT_DIR]
#   SCENARIO   registered scenario name (see `pracbench list`)
#   N          shard count (one process per shard)
#   BUILD_DIR  where pracbench lives (default: build)
#   OUT_DIR    results + checkpoint location (default: results/fleet)
#
# Extra pracbench arguments pass through PRACBENCH_ARGS, e.g.
#   PRACBENCH_ARGS="--set measure=50000" scripts/fleet_sweep.sh \
#       defense_matrix_perf 4
# (axis overrides change the grid hash, so pass the same
# PRACBENCH_ARGS to every later resume of the same directory).
#
# Shards journal under OUT_DIR/ckpt and every shard runs with
# --resume, so rerunning this script after a crash continues instead
# of restarting.  To spread across real hosts, run on each host i:
#   pracbench run SCENARIO --checkpoint SHARED_DIR --shard i/N --resume
# and merge from any host once all shards finish.  A host that dies
# mid-shard loses nothing journaled: rerun its exact command (the
# --resume makes it pick up where it stopped).

set -euo pipefail

if [[ $# -lt 2 ]]; then
    echo "usage: $0 SCENARIO N [BUILD_DIR] [OUT_DIR]" >&2
    exit 1
fi
SCENARIO="$1"
COUNT="$2"
BUILD_DIR="${3:-build}"
OUT_DIR="${4:-results/fleet}"
PRACBENCH="${BUILD_DIR}/pracbench"
CKPT="${OUT_DIR}/ckpt"

if [[ ! -x "${PRACBENCH}" ]]; then
    echo "error: ${PRACBENCH} not found; build first" >&2
    exit 1
fi
if ! [[ "${COUNT}" =~ ^[1-9][0-9]*$ ]]; then
    echo "error: N must be a positive integer, got '${COUNT}'" >&2
    exit 1
fi

mkdir -p "${OUT_DIR}"

echo "==> ${SCENARIO} across ${COUNT} shards -> ${CKPT}"
PIDS=()
for ((index = 0; index < COUNT; ++index)); do
    # shellcheck disable=SC2086  # PRACBENCH_ARGS is intentionally split
    "${PRACBENCH}" run "${SCENARIO}" --quiet --no-table \
        --checkpoint "${CKPT}" --shard "${index}/${COUNT}" --resume \
        ${PRACBENCH_ARGS:-} &
    PIDS+=($!)
done

FAILED=0
for pid in "${PIDS[@]}"; do
    wait "${pid}" || FAILED=1
done
if [[ "${FAILED}" -ne 0 ]]; then
    echo "error: a shard failed; fix and rerun (completed points" \
         "are journaled and will not be recomputed)" >&2
    exit 1
fi

echo "==> merging shard journals"
# shellcheck disable=SC2086
"${PRACBENCH}" merge "${CKPT}" --scenario "${SCENARIO}" --no-table \
    --out "${OUT_DIR}/${SCENARIO}.json" \
    --csv "${OUT_DIR}/${SCENARIO}.csv"
echo "done: ${OUT_DIR}/${SCENARIO}.json"
