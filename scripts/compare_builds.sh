#!/usr/bin/env bash
# Compare two pracbench builds scenario by scenario: run each full grid
# with both binaries and diff every pair of sweep JSON files.  Sweeps
# are deterministic, so two builds meant to simulate the same must
# agree on every field but the git revision and the wall clock.
#
# Usage: scripts/compare_builds.sh OLD NEW OUT [SCENARIO...]
#   OLD, NEW   pracbench binaries (one binary twice is a self-check)
#   OUT        results directory: OUT/old/NAME.json, OUT/new/NAME.json
#   SCENARIO   scenarios to run (default: every one `OLD list` names)
#
# Each run is `pracbench run NAME --jobs N --quiet --no-table --out`,
# N being the host's CPU count; each pair goes through
# scripts/diff_sweep_json.py --ignore git_rev.  Exits 0 when every
# pair is equivalent, 1 when any differs, 2 on a usage error or a
# failed run.

set -euo pipefail

if [[ $# -lt 3 ]]; then
    echo "usage: $0 OLD NEW OUT [SCENARIO...]" >&2
    exit 2
fi
OLD="$1"
NEW="$2"
OUT="$3"
shift 3
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

for binary in "${OLD}" "${NEW}"; do
    if [[ ! -x "${binary}" ]]; then
        echo "error: ${binary} is not an executable" >&2
        exit 2
    fi
done

if [[ $# -gt 0 ]]; then
    scenarios=("$@")
else
    # `list` prints a header, then two lines per scenario (the second
    # indented), then a blank line before the defense and attacker
    # keys.
    mapfile -t scenarios < <("${OLD}" list |
        awk 'NR == 1 { next } NF == 0 { exit } !/^ / { print $1 }')
fi

jobs="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
mkdir -p "${OUT}/old" "${OUT}/new"
status=0
for scenario in "${scenarios[@]}"; do
    for side in old new; do
        binary="${OLD}"
        [[ "${side}" == new ]] && binary="${NEW}"
        if ! "${binary}" run "${scenario}" --jobs "${jobs}" --quiet \
            --no-table --out "${OUT}/${side}/${scenario}.json" \
            > /dev/null; then
            echo "error: ${binary} run ${scenario} failed" >&2
            exit 2
        fi
    done
    python3 "${SCRIPT_DIR}/diff_sweep_json.py" --ignore git_rev \
        "${OUT}/old/${scenario}.json" "${OUT}/new/${scenario}.json" ||
        status=1
done
exit "${status}"
