#!/usr/bin/env python3
"""Seed sets for the serving benchmark.

Runs BENCHMARK.json's command once per seed on every workload, with
tracing off, and summarises each end-to-end metric across the seeds:
median, quartiles as statistics.quantiles(values, n=4) gives them, and
spread (interquartile distance over the median).

    python3 bench/serve/seeds.py run 1 10 > set-a.json
    python3 bench/serve/seeds.py check set-a.json set-b.json

`check` prints, per workload and metric, each set's spread against the
metric's bound and the second median's change against the first, and
exits 1 if a spread (setup_s excepted) or a worsening exceeds the bound.
Run from the repository root.
"""
import json
import os
import statistics
import subprocess
import sys


def bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def run(first, last):
    b = bench()
    out = {"command": b["command"], "nproc": os.cpu_count(),
           "seeds": [first, last], "workloads": {}}
    for w in b["workloads"]:
        values = {m["name"]: [] for m in b["end_to_end"]}
        for seed in range(first, last + 1):
            p = subprocess.run(
                b["command"] + ["--workload", w["name"], "--seed", str(seed),
                                "--seconds", str(b["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit("%s seed %d failed:\n%s" % (w["name"], seed, p.stderr))
            metrics = json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
            for name in values:
                values[name].append(metrics[name]["value"])
            print(w["name"], seed, file=sys.stderr, flush=True)
        out["workloads"][w["name"]] = {k: summary(v) for k, v in values.items()}
    json.dump(out, sys.stdout, indent=1)
    print()


def check(path_a, path_b):
    b = bench()
    sets = [json.load(open(p)) for p in (path_a, path_b)]
    bad = 0
    print("%-11s %-12s %6s %8s %8s %8s  %s" %
          ("workload", "metric", "bound", "spreadA", "spreadB", "change", "verdict"))
    for w in b["workloads"]:
        for m in b["end_to_end"]:
            a, c = (s["workloads"][w["name"]][m["name"]] for s in sets)
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (c["median"] - a["median"]) / a["median"]
            ok = change <= m["bound"] and (
                m["name"] == "setup_s"
                or (a["spread"] <= m["bound"] and c["spread"] <= m["bound"]))
            bad += not ok
            print("%-11s %-12s %6.2f %8.3f %8.3f %+8.3f  %s" %
                  (w["name"], m["name"], m["bound"], a["spread"], c["spread"],
                   change, "ok" if ok else "OUT OF BOUND"))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    if sys.argv[1:2] == ["run"] and len(sys.argv) == 4:
        run(int(sys.argv[2]), int(sys.argv[3]))
    elif sys.argv[1:2] == ["check"] and len(sys.argv) == 4:
        check(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
