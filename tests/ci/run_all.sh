#!/usr/bin/env bash
# tests/ci/run_all.sh PARALOQ [STEP ...]: the steps of .github/workflows/tests.yml, run as CI runs them,
# against the command PARALOQ: the installed `paraloq`, or a wrapper that runs `exec python3 -m paraloq.cli "$@"`
# (exec, so a signal reaches the process). A STEP is a step_* function below without its prefix; with none,
# every step runs in this file's order, the workflow's. The package comes from this checkout's src/. The
# steps write ci* files into the current directory, where bom reads the log golden wrote.
set -euo pipefail
PARALOQ=$1 && shift
ROOT=$(cd "$(dirname "$0")/../.." && pwd) && CI=$ROOT/tests/ci
export PYTHONPATH=$ROOT/src${PYTHONPATH:+:$PYTHONPATH}
START=(--start-time 2026-08-10T12:00:00)
# exits CODE COMMAND...: COMMAND exits with CODE; rewrites_same LOG: LOG read back and written again is the same bytes
exits() { local code=0; "${@:2}" || code=$?; [ "$code" -eq "$1" ] || { echo "exit $code, not $1: ${*:2}" >&2; return 1; }; }
rewrites_same() { python3 -c 'import sys, paraloq as p; p.write_csv(p.read_csv(sys.argv[1]), sys.argv[2])' "$1" "$1.rewrite"; cmp "$1" "$1.rewrite"; }

step_tier1() { (cd "$ROOT" && python3 -m pytest -q --continue-on-collection-errors); }
step_mutants() { python3 "$CI/mutants.py"; }
step_finite6() { python3 "$CI/finite6_sweep.py"; }
step_chain_voltage() { python3 "$CI/chain_voltage_sweep.py"; }
step_acceptance() { (cd "$ROOT" && python3 -m pytest tests/test_acceptance.py -v -s) | python3 "$CI/acceptance_lines.py"; }
step_console() {
    "$PARALOQ" simulate --duration 5 --dry-temp 20 --wet-temp 18 "${START[@]}" --out ci.csv
    # the same run through the Python API: a row sink sees the rows of the log the CLI wrote; spelt with ints, the
    # same run and the same metadata, as a config stores its float fields as floats
    python3 -c "from datetime import datetime; from paraloq import Channel, Constant, RunConfig, read_csv, run_acquisition; rows = []; run = run_acquisition(RunConfig(duration_s=5.0, stimuli={Channel.DRY: Constant(20.0), Channel.WET: Constant(18.0)}, start_time=datetime(2026, 8, 10, 12)), sinks=[rows.append]); log = read_csv('ci.csv'); assert rows == run.rows == log.rows; assert run == log"
    python3 -c "from datetime import datetime; from paraloq import Channel, Constant, RunConfig, read_csv, run_acquisition; run = run_acquisition(RunConfig(duration_s=5, stimuli={Channel.DRY: Constant(20), Channel.WET: Constant(18)}, start_time=datetime(2026, 8, 10, 12))); log = read_csv('ci.csv'); assert run == log"
    rewrites_same ci.csv
    "$PARALOQ" summarize --input ci.csv
    "$PARALOQ" plot --input ci.csv --column dry_temp_c
    printf '[psychro]\nmagnus_c = inf\n' > ci-inf.ini
    exits 2 "$PARALOQ" --config ci-inf.ini compute --dry 20 --wet 18
    # every config key set to its default writes the same log as no config file
    printf '%s\n' '[run]' 'sample_rate_hz = 2.0' 'duration_s = 5' 'filter_substeps = 0' 'seed = 0' '[chain]' 'sensor_slope = 0.010' 'amp_gain = 10.0' \
        'clamp_volts = 5.0' 'filter_cutoff_hz = 0.5' 'vref = 5.0' '[clock]' 'r_ohms = 1420.5' 'c_farads = 1e-9' '[psychro]' 'psychrometer_coeff = 6.6e-4' \
        'pressure_hpa = 1013.25' 'magnus_a = 6.112' 'magnus_b = 17.62' 'magnus_c = 243.12' > ci-defaults.ini
    "$PARALOQ" --config ci-defaults.ini simulate --dry-temp 20 --wet-temp 18 "${START[@]}" --out ci-defaults.csv
    cmp ci.csv ci-defaults.csv
    # a chain other than the default, shared by both channels, writes its pinned log
    printf '%s\n' '[chain]' 'clamp_volts = 4.5' 'filter_cutoff_hz = 0.2' > ci-chain.ini
    "$PARALOQ" --config ci-chain.ini simulate --duration 30 --dry-stimulus sine:amp=20,freq=0.05,offset=30 --wet-temp 18 --filter-substeps 8 --seed 0 "${START[@]}" --out ci-chain.csv
    echo 'e1917b0d3fe0808ab60d901b4ef165e28afa9c86f906dced2a5e624062ae9e8c  ci-chain.csv' | sha256sum -c
    # an R C that underflows leaves no clock frequency: exit 2 before any tick
    printf '[clock]\nr_ohms = 1e-300\nc_farads = 1e-300\n' > ci-clock.ini
    exits 2 "$PARALOQ" --config ci-clock.ini simulate --duration 1 --out ci-clock.csv
}
step_far_clock() { timeout 20 python3 "$CI/far_clock.py"; }
step_sigint() { python3 "$CI/stopped_run.py" "$PARALOQ" INT ci-int.csv; }
step_sigterm() { python3 "$CI/stopped_run.py" "$PARALOQ" TERM ci-term.csv; }
step_sigkill() { python3 "$CI/stopped_run.py" "$PARALOQ" KILL ci-kill.csv; }
step_golden() {
    "$PARALOQ" simulate --duration 600 --dry-temp 19.92858 --wet-temp 18.02167 --seed 0 "${START[@]}" --out ci-steady.csv
    "$PARALOQ" plot --input ci-steady.csv --column dry_temp_c --format svg --out ci-steady.svg
    "$PARALOQ" plot --input ci-steady.csv --column dry_temp_c --format ascii --out ci-steady.txt
    python3 "$CI/golden_digests.py" "$ROOT/perfbench/golden.json" ci-steady.csv ci-steady.svg ci-steady.txt
}
step_bom() {
    # a spreadsheet's "CSV UTF-8" save starts the file with EF BB BF
    { printf '\xef\xbb\xbf'; cat ci-steady.csv; } > ci-steady-bom.csv
    "$PARALOQ" summarize --input ci-steady.csv > ci-steady-summary.out
    "$PARALOQ" summarize --input ci-steady-bom.csv | tee ci-steady-bom-summary.out
    test "$(wc -l < ci-steady-summary.out)" -eq 4; cmp ci-steady-summary.out ci-steady-bom-summary.out
    # one 0xff in the 100th data row, line 106 after five metadata lines and the header
    python3 -c 'lines = open("ci-steady.csv", "rb").read().split(b"\n"); lines[105] = lines[105].replace(b",", b",\xff", 1); open("ci-steady-ff.csv", "wb").write(b"\n".join(lines))'
    exits 5 "$PARALOQ" summarize --input ci-steady-ff.csv > /dev/null 2> ci-steady-ff.err
    cat ci-steady-ff.err; grep -qx 'error: line 106: not UTF-8: byte 0xff (invalid start byte)' ci-steady-ff.err
}
step_pipe() {
    "$PARALOQ" simulate --duration 3600 --seed 0 "${START[@]}" --out ci-hour.csv
    # the 1 h chart is larger than a pipe holds, so head leaves while plot still writes
    local code=0 && { "$PARALOQ" plot --input ci-hour.csv --column dry_temp_c --format svg 2> ci-pipe.err | head -c 10 || code=${PIPESTATUS[0]}; }
    echo " plot exited $code"; test "$code" -eq 141; test ! -s ci-pipe.err
}
step_rails() {
    # 124 of the 241 rows hold a code of 0 or 255, which no benchmark workload reaches
    "$PARALOQ" simulate --duration 120 --dry-stimulus sine:amp=30,freq=0.05,offset=25 --wet-stimulus sine:amp=28,freq=0.02,offset=22 --filter-substeps 32 --seed 0 "${START[@]}" --out ci-rail.csv
    echo 'f7178279a54bc146d8c98689291865ab6b5b016560d750b88f565418c4c42fb0  ci-rail.csv' | sha256sum -c
    rewrites_same ci-rail.csv  # empty humidity fields included
}
step_memory() { python3 "$CI/memory.py" "$PARALOQ" ci-day; }
step_bench() { python3 "$CI/bench_smoke.py" "$ROOT/BENCHMARK.json" 0 1 0; }
step_bench_seed1() { python3 "$CI/bench_smoke.py" "$ROOT/BENCHMARK.json" 1 0; }
# the steps, in the order they are defined
mapfile -t STEPS < <(sed -n 's/^step_\([a-z0-9_]*\)() {.*/\1/p' "$0")
(($#)) || set -- "${STEPS[@]}"
for step; do
    declare -F "step_$step" > /dev/null || { echo "no step $step; the steps: ${STEPS[*]}" >&2 && exit 2; }
    echo "== $step" && "step_$step"
done
