"""Benchmark for curvegerm: four closed-loop workloads, drift-calibrated.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

One caller, one operation at a time: set-up (imports, inputs from the
seed, one warm-up pass over the round), then whole rounds of operations
until S seconds have passed.  Every output is checked against answers
made apart from the program (see inputs.py).  Times are calibrated with
the reference kernel in calib.py; raw seconds are reported alongside.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced rounds and prints the per-layer metrics, writing the spans of
the first traced round to bench/out/.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The line
before it holds the raw-second figures.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("classify-branches", "contact-fields", "numeric-estimate", "cli-cold")
CLI_COMMANDS = ("invariants", "contact", "classify", "estimate", "check-prop1", "proof-arcs")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


class Outcome:
    """Raw and calibrated seconds of every operation attempted."""

    def __init__(self):
        self.raw, self.cal, self.failures = [], [], {}
        self.unexpected = []

    def add(self, op, raw, factor, error):
        self.raw.append(raw)
        self.cal.append(raw * factor)
        if error is not None:
            self.failures[op.label] = self.failures.get(op.label, 0) + 1
            if not op.known_fault:
                self.unexpected.append(f"{op.label}: {error}")


def attempt(clock, op, call):
    """Time one call; a raised exception or a failed check is a failure."""
    def guarded():
        try:
            return call(), None
        except Exception as exc:  # the program's fault, counted as failed
            return None, f"{type(exc).__name__}: {exc}"

    (result, error), raw, factor = clock.measure(guarded)
    return result, raw, factor, error


def check(op, result, error):
    return error if error is not None else op.check(result)


def run_round(clock, ops, outcome, tracer=None, layer=None):
    seconds = 0.0
    for op in ops:
        child = None
        if tracer is not None and op.traced is not None:
            result, raw, factor, error = attempt(clock, op, op.traced)
            out, child = result if result is not None else (None, None)
        else:
            out, raw, factor, error = attempt(clock, op, op.call)
        error = check(op, out, error)
        outcome.add(op, raw, factor, error)
        seconds += raw * factor
        if layer is not None:
            self_s, counts = tracer.take()
            layer.add(op, factor, self_s, counts, child)
    return seconds


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


class LayerRound:
    """Per-layer self seconds (calibrated) and counts of one traced round."""

    def __init__(self):
        self.self_s, self.counts = {}, {}
        self.spans = []
        self.cli_import, self.cli_main = [], {}
        self.child_tables = 0

    def add(self, op, factor, self_s, counts, child):
        if child is not None:
            self_s = child["self_s"]
            counts = child["counts"]
            self.cli_import.append(child["import_s"] * factor)
            self.cli_main.setdefault(child["command"], []).append(child["main_s"] * factor)
            self.child_tables += child["field_tables"]
            self.spans.append({"op": op.label, "spans": child["spans"]})
        for name, value in self_s.items():
            self.self_s[name] = self.self_s.get(name, 0.0) + value * factor
        for name, value in counts.items():
            if name.endswith("max_field_degree"):
                self.counts[name] = max(self.counts.get(name, 0), value)
            else:
                self.counts[name] = self.counts.get(name, 0) + value


def layer_metrics(rounds, overhead, tables, numpy_import):
    import tracer as tr

    first = rounds[0]
    counts = first.counts
    out = {}
    for metric, names in tr.TIME_GROUPS.items():
        out[metric] = (statistics.median(
            sum(r.self_s.get(n, 0.0) for n in names) for r in rounds), "s")
    for metric, span in tr.CALL_COUNTS.items():
        out[metric] = (counts.get(span, 0), "count")
    out["cyclotomic.max_field_degree"] = (counts.get("cyclotomic.max_field_degree", 0), "count")
    out["cyclotomic.field_tables"] = (first.child_tables or tables, "count")
    pairs = counts.get("contact.pair_conjugates", 0)
    out["contact.pair_conjugates"] = (pairs, "count")
    calls = counts.get("puiseux.difference_order", 0)
    out["contact.sweeps_per_pair"] = (calls / pairs if pairs else 0.0, "ratio")
    for name in ("holder.bijections_tried", "holder.obstructions", "metric.point_pairs"):
        out[name] = (counts.get(name, 0), "count")
    out["cli.import_s"] = (statistics.median(
        statistics.median(r.cli_import) if r.cli_import else 0.0 for r in rounds), "s")
    out["cli.numpy_import_s"] = (numpy_import, "s")
    out["cli.main_s"] = (statistics.median(
        sum(sum(v) for v in r.cli_main.values()) for r in rounds), "s")
    for command in CLI_COMMANDS:
        out[f"cli.main_s.{command}"] = (statistics.median(
            statistics.mean(r.cli_main[command]) if command in r.cli_main else 0.0
            for r in rounds), "s")
    out["trace.overhead_s"] = (overhead, "s")
    return out


def numpy_import_seconds(clock):
    """Cumulative import time of numpy inside `import curvegerm.cli`, from
    python -X importtime in a fresh interpreter (calibrated)."""
    import workloads

    proc, _, factor = clock.measure(lambda: workloads.run_child(
        [sys.executable, "-X", "importtime", "-c", "import curvegerm.cli"]))
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1].strip()) / 1e6 * factor
    raise RuntimeError(f"numpy not found in -X importtime output:\n{proc.stderr}")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "curvegerm", "__init__.py")):
        print("bench/run.py: no curvegerm sources under src/; run it from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [SRC, HERE]

    cli_cold = args.workload == "cli-cold"
    if cli_cold and hasattr(os, "sched_setaffinity"):
        # The kernel runs in this process and the CLI in a child: on one
        # CPU the kernel sees the speed the child ran at.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import calib
    import workloads

    build, numeric_share = workloads.WORKLOADS[args.workload]
    clock = calib.Clock(numeric_share)
    setup_raw = time.perf_counter() - START - clock.kernel_s
    setup_cal = setup_raw / clock.slowness
    steps = [] if cli_cold else [lambda: __import__("curvegerm")]
    steps.append(lambda: build(args.seed))
    ops = None
    for step in steps:
        ops, raw, factor = clock.measure(step)
        setup_raw += raw
        setup_cal += raw * factor
    warm = Outcome()
    for op in ops:
        out, raw, factor, error = attempt(clock, op, op.call)
        warm.add(op, raw, factor, check(op, out, error))
        setup_raw += raw
        setup_cal += raw * factor

    outcome = Outcome()
    began = time.perf_counter()
    report = {"workload": args.workload, "seed": args.seed, "ops_per_round": len(ops)}
    if args.trace:
        metrics = traced_run(args, clock, ops, outcome, began, report)
    else:
        rounds = 0
        while True:
            run_round(clock, ops, outcome)
            rounds += 1
            if time.perf_counter() - began >= args.seconds:
                break
        report["rounds"] = rounds
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if cli_cold else resource.RUSAGE_SELF)
        metrics = {
            "setup_s": (setup_cal, "s"),
            "op_p50_ms": (statistics.median(outcome.cal) * 1e3, "ms"),
            "ops_per_s": (len(outcome.cal) / sum(outcome.cal), "1/s"),
            "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
        }
        report["raw"] = {
            "setup_s": setup_raw,
            "op_p50_ms": statistics.median(outcome.raw) * 1e3,
            "ops_per_s": len(outcome.raw) / sum(outcome.raw),
        }
        if len(outcome.cal) >= 40:
            report["op_p90_ms"] = statistics.quantiles(outcome.cal, n=10)[-1] * 1e3
            report["raw"]["op_p90_ms"] = statistics.quantiles(outcome.raw, n=10)[-1] * 1e3
    report["wall_s"] = time.perf_counter() - began
    report["failures"] = outcome.failures
    unexpected = warm.unexpected + outcome.unexpected
    if unexpected:
        report["unexpected_failures"] = unexpected[:20]
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload}  {name:<34} {value:14.6f} {unit}")
    print(f"# {args.workload}  attempted {len(outcome.cal)}  failed "
          f"{sum(outcome.failures.values())}  correct {not unexpected}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(outcome.cal),
        "failed": sum(outcome.failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(args, clock, ops, outcome, began, report):
    """Untraced and traced rounds in turn; per-layer metrics per round."""
    import tracer as tr

    tracer = tr.Tracer()
    in_process = args.workload != "cli-cold"  # cli-cold traces in its children
    plain, traced, layers = [], [], []
    numpy_import = 0.0
    while True:
        plain.append(run_round(clock, ops, outcome))
        tracer.record = not layers
        if in_process:
            tracer.install()
        layer = LayerRound()
        try:
            traced.append(run_round(clock, ops, outcome, tracer, layer))
        finally:
            tracer.uninstall()
        layers.append(layer)
        if args.workload == "cli-cold" and not numpy_import:
            numpy_import = numpy_import_seconds(clock)
        if time.perf_counter() - began >= args.seconds:
            break
    if any(layer.counts != layers[0].counts for layer in layers):
        outcome.unexpected.append("per-layer counts differ between traced rounds")
    overhead = statistics.median(traced) - statistics.median(plain)
    tables = sys.modules["curvegerm.cyclotomic"]._power_basis.cache_info().currsize \
        if "curvegerm.cyclotomic" in sys.modules else 0
    report["rounds"] = {"untraced": len(plain), "traced": len(traced)}
    report["round_s"] = {"untraced": statistics.median(plain), "traced": statistics.median(traced)}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json")
    spans = layers[0].spans if layers[0].spans else [{"op": "round", "spans": tracer.spans}]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "span_fields": ["name", "start", "end", "parent"],
                   "counts": layers[0].counts, "ops": spans}, handle)
    report["trace_file"] = os.path.relpath(path, ROOT)
    return layer_metrics(layers, overhead, tables, numpy_import)


def run_all(args):
    """Every workload, one after another, each in its own process."""
    results, code = {}, 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write("".join(l + "\n" for l in proc.stdout.splitlines() if l.startswith("#")))
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            code = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
