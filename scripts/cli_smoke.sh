#!/usr/bin/env bash
# CLI contract smoke: every verb has exactly one spelling (a
# subcommand), the retired flat flags, `status`, `merge` and `--shard`
# are rejected, numeric flag values are checked, an empty flag value
# is refused, a --set value must fit its axis's kind, and unknown
# subcommands / flags / scenarios exit 2 with a "did you mean" hint
# instead of being silently ignored.  record and replay run through
# the sweep runner: --jobs works, a grid axis they lack is an
# unknown-axis error, and a sweep flag they cannot honour is an
# unknown option.  An explicit --set beats a --try-set on the same
# axis.  Each command accepts exactly the flags `pracbench help`
# lists for it.
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

echo "==> a --set/--try-set value must fit its axis, before any point runs"
expect_reject "axis 'nrh' takes a non-negative integer, got 'abc'" \
    "${PRACBENCH}" run fig10_performance --smoke --set nrh=abc
expect_reject "axis 'nrh' takes a non-negative integer, got '-5'" \
    "${PRACBENCH}" run fig10_performance --smoke --set nrh=-5
expect_reject "axis 'nbo' takes a non-negative integer, got '1e+20'" \
    "${PRACBENCH}" run fig03_timing_variation --smoke \
    --set nbo=99999999999999999999
expect_reject "axis 'nbo' takes an integer in [0, 4294967295], got 4294967296" \
    "${PRACBENCH}" run fig03_timing_variation --smoke \
    --set nbo=4294967296
expect_reject "axis 'with_victim' takes true or false, got 'yes'" \
    "${PRACBENCH}" run fig03_timing_variation --smoke --set with_victim=yes
expect_reject "axis 'window_ms' takes a number, got 'abc'" \
    "${PRACBENCH}" run fig03_timing_variation --smoke --try-set window_ms=abc
"${PRACBENCH}" run fig03_timing_variation --smoke --quiet --no-table \
    --set window_ms=1 --out "${OUT_DIR}/window_ms.json"
python3 - "${OUT_DIR}/window_ms.json" <<'PY'
import json
import sys

axis = json.load(open(sys.argv[1]))["grid"]["window_ms"]
if axis != [1]:
    sys.exit(f"error: --set window_ms=1 ran {axis}")
PY

echo "==> a value no point can be built with exits 2, and records nothing"
expect_reject "channels must be a non-zero power of two" \
    "${PRACBENCH}" run perf_channel_sweep --smoke --set channels=3
expect_reject "nmit must be at least 1" \
    "${PRACBENCH}" run sidechannel_cross_channel --smoke --set nmit=0
expect_reject "needs at least one core" \
    "${PRACBENCH}" record "${OUT_DIR}/no_cores" --smoke --set cores=0
if compgen -G "${OUT_DIR}/no_cores/*.trc" > /dev/null; then
    echo "error: record --set cores=0 wrote a trace" >&2
    exit 1
fi

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
expect_reject "unknown option" \
    "${PRACBENCH}" record "${TRACES}" --no-table
expect_reject "unknown option" \
    "${PRACBENCH}" replay "${TRACE}" --smoke
expect_reject "unknown axis 'nbo'" \
    "${PRACBENCH}" replay "${TRACE}" --set nbo=3
expect_reject "unknown axis 'bogus'" \
    "${PRACBENCH}" record "${TRACES}" --set bogus=1
expect_reject "unknown axis 'nrh'" \
    "${PRACBENCH}" record "${TRACES}" --set nrh=1024
expect_reject "takes exactly one value" \
    "${PRACBENCH}" record "${TRACES}" --set measure=1000,2000

echo "==> each command takes exactly the flags help lists for it"
# Every spelling help lists for any command, tried on every command
# with no positional argument (so nothing runs) and a dummy value
# where the flag takes one: listed for the command means it is not
# an unknown option there, listed only for others means it is.
python3 - "${PRACBENCH}" "${OUT_DIR}" <<'PY'
import os
import re
import subprocess
import sys

pracbench, cwd = os.path.abspath(sys.argv[1]), sys.argv[2]
usage = subprocess.run([pracbench, "help"], capture_output=True,
                       text=True, check=True).stdout
commands, flags, section = [], {}, None
for line in usage.splitlines():
    if line == "commands:":
        section = "commands"
    elif match := re.fullmatch(r"(\w+) options:", line):
        section = match.group(1)
        flags[section] = {}
    elif not line:
        section = None
    elif section == "commands" and (match := re.match(r"  (\w+)", line)):
        commands.append(match.group(1))
    elif section in flags and (
            match := re.match(r"  (--[\w-]+)(?:/(-\w))?( \S+)?", line)):
        for spelling in filter(None, match.group(1, 2)):
            flags[section][spelling] = match.group(3) is not None

if len(commands) < 7 or len(flags) < 5 or not all(flags.values()):
    sys.exit(f"error: cannot read commands/flags from help: {commands} "
             f"{flags}")
takes = {spelling: value for listed in flags.values()
         for spelling, value in listed.items()}
failures = []
for command in commands:
    for spelling, value in sorted(takes.items()):
        args = [pracbench, command, spelling] + (["x=1"] if value else [])
        run = subprocess.run(args, capture_output=True, text=True, cwd=cwd)
        unknown = "unknown option" in run.stderr
        if unknown == (spelling in flags.get(command, {})):
            failures.append(f"{' '.join(args[1:])}: exit {run.returncode}: "
                            f"{run.stderr.strip()}")
    for spelling in ("--help", "-h"):
        if subprocess.run([pracbench, command, spelling],
                          capture_output=True, cwd=cwd).returncode != 0:
            failures.append(f"{command} {spelling} did not exit 0")
if failures:
    sys.exit("error: help and parser disagree:\n  " + "\n  ".join(failures))
print(f"    {len(commands)} commands x {len(takes)} spellings agree")
PY

echo "cli smoke passed"
