#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command on every workload with several seeds, one or
two sets of runs, and judges the figures against the bounds in
BENCHMARK.json:

  * spread: for each end-to-end metric, the distance between the first and
    third quartile of a set's values (statistics.quantiles, n=4) as a share
    of their median; it must stay within the metric's bound, and the
    benchmark aims at a third of it;
  * shift: the second set's median may not be worse than the first's by
    more than the bound;
  * failures: the share of failed operations must be the same in both sets.

Usage, from the repository root:

  python3 perfbench/steady.py --seeds 10 --sets 2             # run and judge
  python3 perfbench/steady.py --workloads serve-mix --seeds 5 # quick look
  python3 perfbench/steady.py --compare DIR_A DIR_B           # judge saved runs

Each run's result line is saved as DIR/<workload>.jsonl (one JSON object
per line, with its seed), so saved sets can be compared later.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_set(spec, workloads, seeds, first_seed, seconds, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for w in workloads:
        path = os.path.join(out_dir, w + ".jsonl")
        with open(path, "w") as out:
            for seed in range(first_seed, first_seed + seeds):
                cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                         "--seconds", str(seconds), "--trace", "0"]
                p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                if p.returncode != 0:
                    sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
                res = json.loads(p.stdout.strip().splitlines()[-1])
                res["seed"] = seed
                out.write(json.dumps(res) + "\n")
                out.flush()
                m = res["metrics"]
                print(f"{w} seed {seed}: " + " ".join(f"{k}={m[k]['value']:.4g}" for k in sorted(m))
                      + f" failed={res['failed']}/{res['attempted']}", flush=True)


def load_set(out_dir, workload):
    with open(os.path.join(out_dir, workload + ".jsonl")) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def judge(spec, workloads, dirs):
    ok = True
    for w in workloads:
        sets = [load_set(d, w) for d in dirs]
        print(f"\n== {w}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            line = f"  {name:18s} bound {bound:.3f}"
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs]
                s, med = spread(vals)
                meds.append(med)
                flag = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
                if s > bound:
                    ok = False
                line += f" | median {med:.5g} spread {s:.3f} ({flag})"
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= bound else "WORSE"
                if worse > bound:
                    ok = False
                line += f" | shift {worse:+.3f} ({verdict})"
            print(line)
        shares = []
        for runs in sets:
            shares.append(sorted({(r["failed"], r["attempted"], r["failed"] / r["attempted"]) for r in runs}))
        fracs = [{round(f / a, 12) for f, a, _ in s} for s in shares]
        same = all(len(f) == 1 for f in fracs) and len({next(iter(f)) for f in fracs}) == 1
        if not same:
            ok = False
        print(f"  failed share per set: {[sorted(f) for f in fracs]} ({'ok' if same else 'DIFFERS'})")
    print("\nsteady" if ok else "\nNOT steady")
    return ok


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_build", "steady"))
    ap.add_argument("--compare", nargs=2, metavar="DIR")
    a = ap.parse_args()
    workloads = a.workloads.split(",")
    if a.compare:
        dirs = a.compare
    else:
        dirs = []
        for k in range(a.sets):
            d = os.path.join(a.out, f"set{k + 1}")
            # The second set uses fresh seeds, as a later comparison would.
            run_set(spec, workloads, a.seeds, a.first_seed + k * a.seeds, a.seconds, d)
            dirs.append(d)
    sys.exit(0 if judge(spec, workloads, dirs) else 1)


if __name__ == "__main__":
    main()
