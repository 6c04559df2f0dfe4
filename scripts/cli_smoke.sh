#!/usr/bin/env bash
# CLI contract smoke: every verb has exactly one spelling (a
# subcommand), the retired flat flags, `status`, `merge` and `--shard`
# are rejected, numeric flag values are checked, an empty flag value
# is refused, and unknown subcommands / flags / scenarios exit 2 with
# a "did you mean" hint instead of being silently ignored.
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

echo "cli smoke passed"
