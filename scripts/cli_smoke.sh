#!/usr/bin/env bash
# CLI contract smoke: every verb has exactly one spelling (a
# subcommand), the retired flat flags, `status`, `merge` and `--shard`
# are rejected, numeric flag values are checked, an empty flag value
# is refused, and unknown subcommands / flags / scenarios exit 2 with
# a "did you mean" hint instead of being silently ignored.  record and
# replay run through the sweep runner: --jobs works, a grid axis they
# lack is an unknown-axis error, and a sweep flag they cannot honour
# exits 2.  An explicit --set beats a --try-set on the same axis.
#
# Usage: scripts/cli_smoke.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  where pracbench lives (default: build)
#   OUT_DIR    scratch space (default: results/cli_smoke)

set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-results/cli_smoke}"
PRACBENCH="${BUILD_DIR}/pracbench"

if [[ ! -x "${PRACBENCH}" ]]; then
    echo "error: ${PRACBENCH} not found; build first" >&2
    exit 1
fi

rm -rf "${OUT_DIR}"
mkdir -p "${OUT_DIR}"

# --- a command must FAIL with exit 2 and print the expected text ---
expect_reject() {
    local needle="$1"
    shift
    local rc=0 output
    output="$("$@" 2>&1)" || rc=$?
    if [[ "${rc}" -ne 2 ]]; then
        echo "error: expected exit 2 from: $* (got ${rc})" >&2
        echo "${output}" >&2
        exit 1
    fi
    if [[ "${output}" != *"${needle}"* ]]; then
        echo "error: expected '${needle}' in output of: $*" >&2
        echo "${output}" >&2
        exit 1
    fi
    echo "    rejected as expected: $*"
}

SEARCH=(search defense_matrix_adaptive --target-defense para --quiet)

echo "==> the subcommands work"
"${PRACBENCH}" list > "${OUT_DIR}/list.txt"
grep -q "fig07_tmax_analysis" "${OUT_DIR}/list.txt"
"${PRACBENCH}" run fig07_tmax_analysis --smoke --quiet --no-table \
    --jobs 0 --out "${OUT_DIR}/run.json"
python3 -m json.tool "${OUT_DIR}/run.json" > /dev/null

echo "==> help exits 0 as a command and as a flag"
"${PRACBENCH}" help > /dev/null
"${PRACBENCH}" --help > /dev/null
"${PRACBENCH}" -h > /dev/null

echo "==> retired spellings are unknown"
expect_reject "unknown command" "${PRACBENCH}" --list
expect_reject "unknown command" \
    "${PRACBENCH}" --scenario fig07_tmax_analysis --smoke
expect_reject "unknown command" \
    "${PRACBENCH}" --record-trace "${OUT_DIR}/traces"
expect_reject "unknown command" \
    "${PRACBENCH}" --replay "${OUT_DIR}/missing.trc"
expect_reject "unknown command" "${PRACBENCH}" status "${OUT_DIR}"
expect_reject "unknown command" "${PRACBENCH}" merge "${OUT_DIR}"
expect_reject "unknown option" \
    "${PRACBENCH}" run --scenario fig07_tmax_analysis --smoke
expect_reject "unknown option" \
    "${PRACBENCH}" run -s fig07_tmax_analysis --smoke
expect_reject "unknown option" \
    "${PRACBENCH}" run fig07_tmax_analysis --smoke \
    --checkpoint "${OUT_DIR}/ckpt" --shard 0/2
if "${PRACBENCH}" help | grep -q -e '^  merge ' -e '--shard'; then
    echo "error: help still lists merge or --shard" >&2
    exit 1
fi

echo "==> numeric flag values are checked"
expect_reject "--jobs expects" \
    "${PRACBENCH}" run fig07_tmax_analysis --jobs -1 --smoke
expect_reject "--jobs expects" \
    "${PRACBENCH}" run fig07_tmax_analysis --jobs abc --smoke
expect_reject "--jobs expects" "${PRACBENCH}" "${SEARCH[@]}" --jobs 2x
expect_reject "--budget expects" \
    "${PRACBENCH}" "${SEARCH[@]}" --budget abc
expect_reject "--rounds expects" "${PRACBENCH}" "${SEARCH[@]}" --rounds x
expect_reject "--seed expects" "${PRACBENCH}" "${SEARCH[@]}" --seed -5
expect_reject "--set attacker.aggressors expects" \
    "${PRACBENCH}" "${SEARCH[@]}" --set attacker.aggressors=abc
expect_reject "0 leaves it sampled" "${PRACBENCH}" "${SEARCH[@]}" \
    --budget 3 --rounds 1 --set attacker.phase=0

echo "==> an empty path value is refused, not read as \"off\""
for flag in --out --csv --checkpoint --trace-out --series-out; do
    expect_reject "${flag} needs a non-empty value" \
        "${PRACBENCH}" run fig07_tmax_analysis --smoke "${flag}" ""
done
expect_reject "--checkpoint needs a non-empty value" \
    "${PRACBENCH}" run fig07_tmax_analysis --smoke --checkpoint "" \
    --resume

echo "==> typos are rejected with exit 2 and a hint"
expect_reject "did you mean 'replay'" "${PRACBENCH}" replya
expect_reject "did you mean '--checkpoint'" \
    "${PRACBENCH}" run fig07_tmax_analysis --chekpoint "${OUT_DIR}/ckpt"
expect_reject "did you mean 'fig07_tmax_analysis'" \
    "${PRACBENCH}" run fig07_tmax_analysiss --smoke
expect_reject "unknown" \
    "${PRACBENCH}" run fig07_tmax_analysis --frobnicate
expect_reject "did you mean 'attacker.pool_size'" \
    "${PRACBENCH}" "${SEARCH[@]}" --set attacker.pool_sise=3
expect_reject "did you mean 'tprac'" \
    "${PRACBENCH}" run defense_matrix_leakage --smoke --set mitigation=tprc

echo "==> an explicit --set beats a --try-set on the same axis"
"${PRACBENCH}" run defense_matrix_leakage --smoke --quiet --no-table \
    --set mitigation=para --try-set mitigation=tprac \
    --out "${OUT_DIR}/precedence.json"
python3 - "${OUT_DIR}/precedence.json" <<'PY'
import json
import sys

axis = json.load(open(sys.argv[1]))["grid"]["mitigation"]
if axis != ["para"]:
    sys.exit(f"error: --set mitigation=para ran {axis}")
PY

echo "==> record and replay take --jobs"
TRACES="${OUT_DIR}/traces"
TRACE="${TRACES}/h_rand_heavy.trc"
"${PRACBENCH}" record "${TRACES}" --workload h_rand_heavy \
    --workload m_blend --set warmup=2000 --set measure=5000 \
    --jobs 4 --quiet
"${PRACBENCH}" replay "${TRACE}" --set mitigation=none,tprac --verify \
    --jobs 4 --quiet --no-table --out "${OUT_DIR}/replay.json"
python3 -m json.tool "${OUT_DIR}/replay.json" > /dev/null

echo "==> record/replay flags take effect or exit 2"
expect_reject "--no-table do not apply" \
    "${PRACBENCH}" record "${TRACES}" --no-table
expect_reject "--smoke do not apply" \
    "${PRACBENCH}" replay "${TRACE}" --smoke
expect_reject "unknown axis 'nbo'" \
    "${PRACBENCH}" replay "${TRACE}" --set nbo=3
expect_reject "unknown axis 'bogus'" \
    "${PRACBENCH}" record "${TRACES}" --set bogus=1
expect_reject "unknown axis 'nrh'" \
    "${PRACBENCH}" record "${TRACES}" --set nrh=1024
expect_reject "takes exactly one value" \
    "${PRACBENCH}" record "${TRACES}" --set measure=1000,2000

echo "cli smoke passed"
