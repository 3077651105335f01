"""Steadiness check: two sets of runs of one commit, interleaved.

    python3 bench/steady.py [--workload NAME ...] [--runs 10] [--seconds S]

Runs bench/run.py --trace 0 once per seed, alternating a run of set A
(seeds 1..runs) with a run of set B (seeds 101..100+runs), and prints,
for every end-to-end metric, raw and calibrated, each set's quartiles,
its spread (q3 - q1) / median, and the shift of B's median from A's.
Bounds in BENCHMARK.json come from these figures; the failed share must
be identical in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=600)
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update({f"{name} (raw)": v for name, v in report["raw"].items()
                   if name in result["metrics"]})
    return result, values


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    out = {}
    for workload in names:
        sets = {"A": [], "B": []}
        shares = set()
        for i in range(args.runs):
            for label, base in (("A", 1), ("B", 101)):
                result, values = one_run(workload, base + i, seconds)
                if not result["correct"]:
                    raise SystemExit(f"{workload} seed {base + i}: outputs are wrong")
                shares.add((result["failed"] * 10**6) // result["attempted"]
                           if result["failed"] else 0)
                sets[label].append(values)
                print(f"{workload} {label} seed {base + i}: "
                      + "  ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
        rows = {}
        for metric in sets["A"][0]:
            a = summary([v[metric] for v in sets["A"]])
            b = summary([v[metric] for v in sets["B"]])
            rows[metric] = {"A": a, "B": b, "shift": b["median"] / a["median"] - 1}
        out[workload] = {"runs": args.runs, "seconds": seconds, "failed_shares": sorted(shares),
                         "metrics": rows}
        print(f"\n{workload}: {args.runs} + {args.runs} runs of {seconds:g} s; "
              f"failed share per run {sorted(shares)} (ppm)")
        print(f"  {'metric':<24}{'bound':>7}  {'A q1':>10}{'A med':>10}{'A q3':>10}{'A spr':>7}"
              f"  {'B q1':>10}{'B med':>10}{'B q3':>10}{'B spr':>7}{'shift':>8}")
        for metric, row in rows.items():
            bound = bounds.get(metric.split(" ")[0], float("nan"))
            a, b = row["A"], row["B"]
            print(f"  {metric:<24}{bound:>7.2f}  {a['q1']:>10.4g}{a['median']:>10.4g}"
                  f"{a['q3']:>10.4g}{a['spread']:>7.1%}  {b['q1']:>10.4g}{b['median']:>10.4g}"
                  f"{b['q3']:>10.4g}{b['spread']:>7.1%}{row['shift']:>+8.1%}")
        print(flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)


if __name__ == "__main__":
    main()
