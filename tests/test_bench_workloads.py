"""The benchmark's rounds still run against the library and pass their checks.

``bench/workloads.py`` calls ``curvegerm.metric`` by name and with
positional arguments (``estimate_contact(a, b, grid)``,
``check_contact_distortion(a, b, beta, grid, tolerance=...)`` and so on).
A rename or a signature change there would break the benchmark without
failing any other test, and so would a classify verdict its checks
reject.  These tests only read ``bench/``.
"""

import importlib.util
import pathlib
import sys

from curvegerm import metric

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

#: Every metric name the numeric-estimate workload calls.
CALLED = (
    "check_contact_distortion",
    "default_branch_grid",
    "estimate_branch_contact",
    "estimate_contact",
    "geometric_grid",
    "sample_branch_arc",
    "witness_arcs",
)


def _load(monkeypatch, name, path):
    # registered before it runs: dataclasses look their module up there
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _failed(ops):
    """Label -> error of every op whose call raises or whose check fails."""
    failed = {}
    for op in ops:
        try:
            error = op.check(op.call())
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failed[op.label] = error
    return failed


def test_numeric_estimate_round_has_no_failed_op(monkeypatch):
    source = (BENCH / "workloads.py").read_text()
    for name in CALLED:
        assert f"met.{name}(" in source
        assert callable(getattr(metric, name))
    # workloads.py imports its sibling as the top-level module ``inputs``
    _load(monkeypatch, "inputs", BENCH / "inputs.py")
    workloads = _load(monkeypatch, "bench_workloads", BENCH / "workloads.py")
    ops = workloads.build_numeric(1)
    failed = _failed(ops)
    assert len(ops) == 26
    # y = x^2 against y = x^2 + x^h, h = 7..12, included: the gap comes
    # from the exact difference -x^h, not from subtracting two y-values
    assert failed == {}


def test_classify_branches_round_has_no_failed_op(monkeypatch):
    _load(monkeypatch, "inputs", BENCH / "inputs.py")
    workloads = _load(monkeypatch, "bench_workloads", BENCH / "workloads.py")
    ops = workloads.build_classify(1)
    failed = _failed(ops)
    assert len(ops) == 16
    assert failed == {}
