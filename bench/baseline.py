"""One-off reference figures: the ROADMAP baseline rows, raw and calibrated.

    python3 bench/baseline.py [--repeat 5] [--slow]

Rows: classify of two 8-branch smooth germs with a chain of distinct
contacts, one in reversed order; the numeric estimate of the multiplicity-6
pair; `import curvegerm.cli` in a fresh interpreter, with numpy's share
from -X importtime.  --slow adds germ() with multiplicities {7, 8, 9, 11}
(tens of seconds and hundreds of MB), run once in a child process.
Each figure is the median over --repeat runs.
"""

import argparse
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import calib  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

SLOW_GERM = """
import resource, sys, time
from curvegerm import branch, germ
start = time.perf_counter()
germ([branch(7, [(8, 1)]), branch(8, [(9, 1)]), branch(9, [(10, 1)]), branch(11, [(12, 1)])])
print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def timed(clock, fn, repeat):
    raws, cals = [], []
    for _ in range(repeat):
        _, raw, factor = clock.measure(fn)
        raws.append(raw)
        cals.append(raw * factor)
    return statistics.median(raws), statistics.median(cals)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--slow", action="store_true")
    args = p.parse_args()
    from curvegerm import branch, classify, estimate_branch_contact, germ

    shares = {name: share for name, (_, share) in workloads.WORKLOADS.items()}
    clock = calib.Clock(shares["classify-branches"])
    chain = [branch(1, [(k, 1) for k in range(1, i + 1)], truncation=10) for i in range(8)]
    g, reversed_g = germ(chain), germ(chain[::-1])
    rows = [("classify, 8 smooth branches, chain of contacts, one order reversed",
             timed(clock, lambda: classify(g, reversed_g), args.repeat))]
    s1, s2, _ = inputs.prefix_pair(random.Random(0), (6, 8, 9))
    b1, b2 = workloads.to_branch(s1), workloads.to_branch(s2)
    clock = calib.Clock(shares["numeric-estimate"])
    rows.append(("estimate_branch_contact, multiplicity-6 pair (genus 2), default grid",
                 timed(clock, lambda: estimate_branch_contact(b1, b2), args.repeat)))
    clock = calib.Clock(shares["cli-cold"])
    rows.append(("python -c 'import curvegerm.cli' (whole process)",
                 timed(clock, lambda: workloads.run_child(
                     [sys.executable, "-c", "import curvegerm.cli"]), args.repeat)))
    numpy = []
    for _ in range(args.repeat):
        proc = workloads.run_child([sys.executable, "-X", "importtime", "-c", "import curvegerm.cli"])
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("numpy", "curvegerm.cli"):
                numpy.append((parts[2].strip(), int(parts[1]) / 1e6))
    for name in ("curvegerm.cli", "numpy"):
        values = [v for n, v in numpy if n == name]
        print(f"-X importtime cumulative {name}: {statistics.median(values) * 1e3:.1f} ms raw")
    for label, (raw, cal) in rows:
        print(f"{label}: {raw * 1e3:.1f} ms raw, {cal * 1e3:.1f} ms calibrated")
    if args.slow:
        proc = workloads.run_child([sys.executable, "-c", SLOW_GERM])
        seconds, rss = proc.stdout.split()
        print(f"germ() with multiplicities 7, 8, 9, 11: {float(seconds):.1f} s raw, "
              f"{float(rss):.0f} MB peak RSS")


if __name__ == "__main__":
    main()
