#!/usr/bin/env bash
# The repository benchmark.  Builds the perfbench package offline, then:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       the driver's form: one run, the result object as the last line
#   run.sh                every workload untraced then traced, as a table of
#                         `workload metric value unit  # samples, min/p90/max`
#   run.sh --quick        the same at a tenth of the length, validators only
#   run.sh --selfcheck [--strict] [--workloads a,b]
#                         the driver's acceptance check: two sets x seeds
#                         1-10 at run_seconds (see selfcheck.py)
#
# Every mode exits non-zero on any failed operation.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# No QRQW_* override may reach a pool or a batch policy (the binary strips
# them again before it builds anything).
for var in $(compgen -e | grep '^QRQW_' || true); do unset "$var"; done

target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
bin="$target/release/perfbench"

run_seconds=$("$bin" --run-seconds)

# Every workload, untraced then traced, at $1 seconds: the metric table when
# $2 is "table", one line per run otherwise.
all_workloads() {
    local seconds=$1 show=$2 status=0
    for trace in 0 1; do
        for workload in $("$bin" --list); do
            local out
            if ! out=$("$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace "$trace"); then
                status=1
                echo "$out" | grep '^# FAILED' || true
            fi
            if [ "$show" = table ]; then
                echo "$out" | sed -n "s/^# \($workload .*\)/\1/p"
            else
                echo "$workload trace=$trace $(echo "$out" | tail -n 1 | cut -c1-60)"
            fi
        done
    done
    return $status
}

case "${1:-}" in
    "")
        echo "# rustc: $(rustc -V)"
        all_workloads "$run_seconds" table
        ;;
    --quick)
        all_workloads "$(awk "BEGIN { print $run_seconds / 10 }")" brief
        ;;
    --selfcheck)
        shift
        echo "# rustc: $(rustc -V)"
        exec python3 perfbench/selfcheck.py "$bin" "$@"
        ;;
    *)
        echo "# rustc: $(rustc -V)"
        exec "$bin" "$@"
        ;;
esac
