#!/usr/bin/env bash
# Runs the five workloads end to end, then the five traced runs, and
# prints one JSON document: commit, seed, machine, and per workload the
# end-to-end and per-layer metrics with units and the operations
# attempted / failed. Run from the repo root:
#
#   benchmark/run_all.sh [seed] [seconds] > bench.json
#
# Progress goes to stderr. Exits non-zero if any run failed.
set -u -o pipefail
seed="${1:-20090629}"
seconds="${2:-15}"
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2 || exit 2
run() { cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- "$@"; }

workloads="browse_mix quick_pages quick_pages_baseline cached_mix order_mix"
status=0
printf '{"commit": "%s", "seed": %s, "seconds": %s, "nproc": %s, "kernel": "%s", "rustc": "%s", "workloads": {' \
    "$(git rev-parse HEAD 2>/dev/null || echo unknown)" "$seed" "$seconds" \
    "$(nproc)" "$(uname -r)" "$(rustc -V)"
first=1
for w in $workloads; do
    [ "$first" = 1 ] || printf ', '
    first=0
    printf '"%s": {' "$w"
    for trace in 0 1; do
        echo "== $w --trace $trace" >&2
        line="$(run --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)" || status=1
        case "$line" in
            '{"correct": true'*) ;;
            *) status=1 ;;
        esac
        if [ "$trace" = 0 ]; then
            printf '"end_to_end": %s, ' "${line:-null}"
        else
            printf '"per_layer": %s' "${line:-null}"
        fi
    done
    printf '}'
done
printf '}}\n'
exit "$status"
