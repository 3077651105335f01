"""Per-layer tracing of curvegerm, applied from outside the package.

``Tracer.install`` replaces the public functions of cyclotomic, puiseux,
invariants, contact, holder and metric with timing wrappers in every
curvegerm module that binds them (the defining module included, so calls
inside a module count too), and wraps a few methods on the classes:
cyclotomic multiplication and lifting, and the distinctness sweep run
when a CurveGerm is built.  ``uninstall`` puts the originals back.

Each call is a span with a name, start, end and parent.  Self time (the
span's duration minus its child spans) and call counts are summed per
span name; ``take`` hands them over and resets them, so the caller can
scale each operation's times by that operation's calibration factor.
Spans themselves are kept only while ``record`` is set, and written out
by the caller once the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cyclotomic", "puiseux", "invariants", "contact", "holder", "metric")

#: Called for every element built; a span there is not a layer boundary.
_SKIP = {("curvegerm.cyclotomic", "field_degree"),
         ("curvegerm.cyclotomic", "cyclotomic_polynomial")}

#: Span names whose self times make up each per-layer time metric.
TIME_GROUPS = {
    "cyclotomic.mul_s": {"cyclotomic.mul"},
    "cyclotomic.lift_s": {"cyclotomic.lift"},
    "puiseux.germ_s": {"puiseux.germ", "puiseux.parse_germ", "puiseux.load_germ",
                       "puiseux.germ_from_dict", "puiseux.lift_branch",
                       "puiseux.CurveGerm.sweep"},
    "puiseux.difference_order_s": {"puiseux.difference_order"},
    "contact.report_s": {"contact.contact_report", "contact.coincidence",
                         "contact.contact", "contact.intersection_multiplicity"},
    "invariants.characteristic_data_s": {"invariants.characteristic_data"},
    "holder.classify_s": {"holder.classify", "holder.pair_obstruction",
                          "holder.branch_obstruction", "holder.contact_obstruction"},
    "metric.gap_profile_s": {"metric.branch_gap_profile", "metric.gap_profile",
                             "metric.gap_function"},
    "metric.sample_arc_s": {"metric.sample_branch_arc"},
    "metric.fit_s": {"metric.estimate_branch_contact", "metric.estimate_contact"},
}

CALL_COUNTS = {
    "cyclotomic.mul_calls": "cyclotomic.mul",
    "cyclotomic.lift_calls": "cyclotomic.lift",
    "puiseux.conjugate_calls": "puiseux.conjugate",
    "puiseux.difference_order_calls": "puiseux.difference_order",
    "metric.sample_arc_calls": "metric.sample_branch_arc",
}


class Tracer:
    def __init__(self):
        self.record = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[list] = []  # [span index or -1, start, child seconds]
        self._self_s: defaultdict[str, float] = defaultdict(float)
        self._counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stack, self_s, counts = self._stack, self._self_s, self._counts
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = -1
            start = time.perf_counter()
            if self.record:
                index = len(spans)
                spans.append([name, start, None, parent])
            frame = [index, start, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[2]
                counts[name] += 1
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    spans[index][2] = end
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- install -------------------------------------------------------------

    def install(self):
        import curvegerm  # noqa: F401  (loads every layer)

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "curvegerm" or name.startswith("curvegerm.")}
        hooks = _hooks()
        for layer in LAYERS:
            home = modules[f"curvegerm.{layer}"]
            for attr, fn in list(vars(home).items()):
                if (attr.startswith("_") or not callable(fn) or isinstance(fn, type)
                        or getattr(fn, "__module__", None) != home.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn, hooks.get(f"{layer}.{attr}"))
                for mod_name, mod in modules.items():
                    if (mod_name, attr) in _SKIP:
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, name, wrapper)

        cyclotomic = modules["curvegerm.cyclotomic"]
        number = cyclotomic.CyclotomicNumber
        mul = self._wrap("cyclotomic.mul", number.__mul__, hooks["cyclotomic.mul"])
        self._patch(number, "__mul__", mul)
        self._patch(number, "__rmul__", mul)
        self._patch(number, "lift",
                    self._wrap("cyclotomic.lift", number.lift, hooks["cyclotomic.lift"]))
        germ_type = modules["curvegerm.puiseux"].CurveGerm
        self._patch(germ_type, "__post_init__",
                    self._wrap("puiseux.CurveGerm.sweep", germ_type.__post_init__))
        self._patch(modules["curvegerm.holder"], "itertools", _CountingItertools(self._counts))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results -------------------------------------------------------------

    def take(self):
        """Self seconds per span name and counts since the last take."""
        self_s, counts = dict(self._self_s), dict(self._counts)
        self._self_s.clear()
        self._counts.clear()
        return self_s, counts


class _CountingItertools:
    """Stands in for ``itertools`` in holder and counts every candidate
    bijection drawn from ``permutations``."""

    def __init__(self, counts):
        self._counts = counts

    def permutations(self, *args):
        counts = self._counts
        for sigma in itertools.permutations(*args):
            counts["holder.bijections_tried"] += 1
            yield sigma

    def __getattr__(self, name):
        return getattr(itertools, name)


def _hooks():
    """Counters computed from a call's arguments or result."""
    import numpy as np
    from curvegerm import metric

    def mul(counts, args, kwargs, result):
        degree = len(args[0].coeffs)
        if degree > counts["cyclotomic.max_field_degree"]:
            counts["cyclotomic.max_field_degree"] = degree

    def lift(counts, args, kwargs, result):
        degree = len(result.coeffs)
        if degree > counts["cyclotomic.max_field_degree"]:
            counts["cyclotomic.max_field_degree"] = degree

    def report(counts, args, kwargs, result):
        germ = args[0]
        r = len(germ.branches)
        counts["contact.pair_conjugates"] += sum(
            germ.branches[j].n for i in range(r) for j in range(i + 1, r))

    def classify(counts, args, kwargs, result):
        counts["holder.obstructions"] += len(result.obstructions)

    def branch_profile(counts, args, kwargs, result):
        b1, b2, radii = args[:3]
        angles = args[3] if len(args) > 3 else kwargs.get("angles", metric.DEFAULT_ANGLES)
        counts["metric.point_pairs"] += (
            np.asarray(radii).size * b1.n * angles * b2.n * angles)

    slack = 1 - getattr(metric, "_RADIUS_SLACK", 0.0)

    def gap_function(counts, args, kwargs, result):
        a, b, r = args[:3]
        counts["metric.point_pairs"] += (
            int((a.radii >= r * slack).sum()) * int((b.radii >= r * slack).sum()))

    return {
        "cyclotomic.mul": mul,
        "cyclotomic.lift": lift,
        "contact.contact_report": report,
        "holder.classify": classify,
        "metric.branch_gap_profile": branch_profile,
        "metric.gap_function": gap_function,
    }
