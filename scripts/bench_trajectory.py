#!/usr/bin/env python3
"""Records a benchmark trajectory point: runs `benchmark/run_all.sh` once
per seed, reduces every end-to-end and per-layer metric of every workload
to its median and interquartile range across the seeds, and writes one
`BENCH_<workload>.json` per workload at the repo root.

    scripts/bench_trajectory.py [--seeds 20090629,7,1009] [--seconds 15]

Exits non-zero, writing nothing, if any run failed an operation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """Median and quartiles (inclusive method; a lone value is all three)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "runs": values,
    }


def reduce(runs, part):
    """Per metric of one result part ("end_to_end" or "per_layer")."""
    names = runs[0][part]["metrics"]
    return {
        name: dict(unit=names[name]["unit"],
                   **spread([run[part]["metrics"][name]["value"] for run in runs]))
        for name in names
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="20090629,7,1009")
    parser.add_argument("--seconds", default="15")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 3:
        sys.exit("--seeds: a trajectory needs at least three seeds")

    documents = []
    for seed in seeds:
        print(f"== seed {seed}", file=sys.stderr)
        out = subprocess.run(
            [os.path.join(ROOT, "benchmark", "run_all.sh"), str(seed), args.seconds],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit(f"run_all.sh failed for seed {seed}:\n{out.stdout}")
        documents.append(json.loads(out.stdout))

    first = documents[0]
    for workload in first["workloads"]:
        runs = [doc["workloads"][workload] for doc in documents]
        point = {
            "workload": workload,
            "commit": first["commit"],
            "seeds": seeds,
            "seconds": first["seconds"],
            "nproc": first["nproc"],
            "kernel": first["kernel"],
            "rustc": first["rustc"],
            "attempted": [run["end_to_end"]["attempted"] for run in runs],
            "failed": [run["end_to_end"]["failed"] for run in runs],
            "end_to_end": reduce(runs, "end_to_end"),
            "per_layer": reduce(runs, "per_layer"),
        }
        path = os.path.join(ROOT, f"BENCH_{workload}.json")
        with open(path, "w") as f:
            json.dump(point, f, indent=1)
            f.write("\n")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
