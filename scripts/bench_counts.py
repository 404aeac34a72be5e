#!/usr/bin/env python3
"""Count gates over the repo benchmark: runs two short traced workloads
and checks counts that do not depend on the machine's speed.

    scripts/bench_counts.py

* `browse_mix`: `proc.allocs_per_req` at most ALLOCS_PER_REQ_MAX;
* `cached_mix`: `core.doccache_hit_ratio` at least HIT_RATIO_MIN.

Each run must also report `correct: true` and no failed operation; on
`cached_mix` that includes the freshness read after every write, so a
stale body fails here too. About 10 s per workload once built. Exits
non-zero on any violation.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 2 vCPUs, default seed, `--trace 1 --seconds 3`: five runs read
# 199.38-199.68 allocations per request (median 199.57), with the
# staged server keeping no response cache while `doc_cache` is off.
# The bound is 1.03x that median, so one extra allocation per row of a
# listing page (~+13 per request) fails it.
ALLOCS_PER_REQ_MAX = 205.6
# Same setup, three runs: 0.856-0.860.
HIT_RATIO_MIN = 0.8

CHECKS = [
    ("browse_mix", "proc.allocs_per_req", lambda v: v <= ALLOCS_PER_REQ_MAX,
     f"<= {ALLOCS_PER_REQ_MAX}"),
    ("cached_mix", "core.doccache_hit_ratio", lambda v: v >= HIT_RATIO_MIN,
     f">= {HIT_RATIO_MIN}"),
]


def run(workload):
    """The final JSON line of one traced benchmark run."""
    out = subprocess.run(
        ["cargo", "run", "--locked", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "benchmark", "Cargo.toml"), "--",
         "--workload", workload, "--trace", "1", "--seconds", "3"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload}: no output (exit {out.returncode})")
    return out.returncode, json.loads(lines[-1])


def main():
    failures = []
    for workload, metric, holds, bound in CHECKS:
        code, result = run(workload)
        value = result["metrics"][metric]["value"]
        ok = code == 0 and result["correct"] and result["failed"] == 0 and holds(value)
        print(f"{workload}: {metric} = {value:.3f} (bound {bound}), "
              f"correct={result['correct']}, failed={result['failed']}, exit {code}: "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(workload)
    if failures:
        sys.exit(f"count gates failed on: {', '.join(failures)}")


if __name__ == "__main__":
    main()
