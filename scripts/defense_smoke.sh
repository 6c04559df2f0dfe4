#!/usr/bin/env bash
# Defense smoke: every defense `pracbench list` names runs through the
# defense_matrix_leakage bake-off as a one-point sweep, so a defense
# registered without a working experiment path fails here.
#
# Usage: scripts/defense_smoke.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  where pracbench lives (default: build)
#   OUT_DIR    scratch space (default: results/defense_smoke)

set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-results/defense_smoke}"
PRACBENCH="${BUILD_DIR}/pracbench"

if [[ ! -x "${PRACBENCH}" ]]; then
    echo "error: ${PRACBENCH} not found; build first" >&2
    exit 1
fi

rm -rf "${OUT_DIR}"
mkdir -p "${OUT_DIR}"

"${PRACBENCH}" list > "${OUT_DIR}/list.txt"
defenses=$(awk '/^mitigation /{on=1;next} on&&NF==0{exit} on{print $1}' \
    "${OUT_DIR}/list.txt")
if [[ -z "${defenses}" ]]; then
    echo "error: pracbench list printed no mitigation keys" >&2
    exit 1
fi

for defense in ${defenses}; do
    echo "==> ${defense}"
    "${PRACBENCH}" run defense_matrix_leakage --smoke --jobs 1 \
        --quiet --no-table --set "mitigation=${defense}"
done
echo "defense smoke passed"
