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
from curvegerm.cyclotomic import field_degree

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_sweep_and_no_per_conjugate_call():
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
    # One walk per pair when the germ is built, over every conjugate at
    # once; contact_report reads the contacts it found and calls no
    # per-conjugate kernel.
    assert counts.get("puiseux.difference_order", 0) == 0
    assert counts.get("puiseux.conjugate", 0) == 0
    assert curvegerm.contact_report is original


def test_tracer_sees_only_pair_fields():
    # Fields 3, 5 and 7 (lcm 105, degree 48): each pair agrees at its shared
    # rational x^2 coefficient with conjugate 0, which needs no rotation, so
    # that comparison stays in Q; every pair parts before it reaches a
    # coefficient with a root of unity.
    branches = [
        branch(3, [(6, 1), (7, zeta(3))]),
        branch(5, [(10, 1), (11, zeta(5))]),
        branch(7, [(14, 1), (15, zeta(7))]),
    ]
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        report = curvegerm.contact_report(curvegerm.germ(branches))
    finally:
        tracer.uninstall()
    _, counts = tracer.take()
    assert report.contact[1][2] == Fraction(15, 7)
    assert counts["cyclotomic.max_field_degree"] == field_degree(1) == 1
