"""The benchmark's per-layer tracer still fits the library.

``bench/tracer.py`` patches module attributes and class methods by name
(``holder.itertools``, ``CyclotomicNumber.__mul__``/``lift``,
``CurveGerm.__post_init__`` and every public layer function).  A rename
in the library would break ``bench/run.py --trace 1`` without failing
any other test.  This test only reads ``bench/``.
"""

import importlib.util
import pathlib
from fractions import Fraction

import curvegerm
from curvegerm import branch, zeta

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_kernel_call_per_conjugate_and_sweep():
    branches = [
        branch(2, [(3, 1), (5, zeta(5))], truncation=8),
        branch(3, [(4, 1)], truncation=9),
        branch(4, [(6, 1), (7, zeta(5, 2))], truncation=10),
    ]
    pair_conjugates = sum(b.n for i, _ in enumerate(branches) for b in branches[i + 1:])
    original = curvegerm.contact_report
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        g = curvegerm.germ(branches)
        report = curvegerm.contact_report(g)
    finally:
        tracer.uninstall()
    _, counts = tracer.take()
    assert report.contact[0][1] == Fraction(4, 3)
    assert counts["contact.pair_conjugates"] == pair_conjugates == 3 + 4 + 4
    assert counts["puiseux.CurveGerm.sweep"] == 1
    assert counts["contact.contact_report"] == 1
    # One sweep when the germ is built; contact_report reads it.
    assert counts["puiseux.difference_order"] == pair_conjugates
    assert counts.get("puiseux.conjugate", 0) == 0
    assert curvegerm.contact_report is original
