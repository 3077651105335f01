"""The four workloads: inputs built from the seed, one call per operation,
and the check every output must pass.

Each workload is a function ``build(seed)`` returning the operations of
one round.  A run repeats whole rounds, so every run attempts the same
mix.  Inputs are made in set-up; the timed call gets only the program's
own objects.  Calls look curvegerm functions up on their modules at call
time, so a traced run sees them through the tracer's wrappers.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right
    #: fails today because of a fault the README names; counted as failed
    known_fault: bool = False
    #: cli-cold only: the same call through the tracing shim
    traced: Callable[[], tuple] | None = None


def _mod(name):
    return importlib.import_module(f"curvegerm.{name}")


def to_branch(spec, field_order=None):
    cyc, pui = _mod("cyclotomic"), _mod("puiseux")
    terms = [
        (m, c.q if c.root is None else cyc.zeta(*c.root) + c.q) for m, c in spec.terms
    ]
    return pui.branch(spec.n, terms, truncation=spec.truncation, field_order=field_order)


def _matrix(rows):
    return [list(row) for row in rows]


# ---------------------------------------------------------------------------
# classify-branches
# ---------------------------------------------------------------------------

#: The equivalent partner's branch order is drawn from the last 15% of
#: the 8! orders in lexicographic order, so an exhaustive search costs
#: about as much on it as on a distinct pair, whatever the seed.
RANK_WINDOW = (0.85, 1.0)
CLASSIFY_PAIRS = 16


def build_classify(seed):
    holder, pui = _mod("holder"), _mod("puiseux")
    rng = random.Random(f"classify-branches:{seed}")
    ops = []
    for i in range(CLASSIFY_PAIRS):
        equivalent = i % 2 == 0
        s1, b1, c1, s2, b2, c2 = inputs.tree_pair(rng, 8, equivalent, RANK_WINDOW)
        g1 = pui.germ([to_branch(s, 2) for s in s1])
        g2 = pui.germ([to_branch(s, 2) for s in s2])
        if equivalent:
            check = _check_matching(b1, c1, b2, c2)
        else:
            check = _check_k0(inputs.expected_k0(b1, c1, b2, c2))
        ops.append(Op(f"{'equivalent' if equivalent else 'distinct'}-{i}",
                      lambda g1=g1, g2=g2: holder.classify(g1, g2), check))
    return ops


def _check_matching(b1, c1, b2, c2):
    r = len(b1)

    def check(verdict):
        if verdict.status != "equivalent_invariants":
            return f"expected an equivalent verdict, got {verdict.status}"
        s = verdict.matching
        if sorted(s) != list(range(r)):
            return f"sigma {s} is not a bijection"
        if any(b1[i] != b2[s[i]] for i in range(r)) or any(
                c1[i][j] != c2[s[i]][s[j]] for i in range(r) for j in range(r) if i != j):
            return f"sigma {s} does not carry the betas and contacts over"
        return None

    return check


def _check_k0(k0):
    def check(verdict):
        if verdict.status != "certified_distinct" or verdict.k0 != k0:
            return f"expected certified_distinct with k0 = {k0}, got {verdict.status} {verdict.k0}"
        return None

    return check


# ---------------------------------------------------------------------------
# contact-fields
# ---------------------------------------------------------------------------

#: (n_A, n_C, extra root orders, shape seed): field orders N from 120 to
#: 420 (phi(N) 32 to 96).  The shape seed fixes exponents and roots of
#: unity, hence the cost; --seed draws the rational parts.
FIELD_SHAPES = [
    (8, 3, (5,), 0), (6, 8, (5,), 1), (4, 5, (7,), 0), (4, 9, (5,), 1), (4, 7, (9,), 2),
    (5, 6, (7,), 0), (8, 9, (5,), 2), (6, 5, (7,), 0), (4, 3, (5, 7), 0),
]


def build_contact(seed):
    pui, con, inv = _mod("puiseux"), _mod("contact"), _mod("invariants")
    ops = []
    for i, (n_a, n_c, orders, shape) in enumerate(FIELD_SHAPES):
        value_rng = random.Random(f"contact-fields:{seed}:{i}")
        specs, cont, inter = inputs.mixed_germ(random.Random(shape), value_rng, n_a, n_c, orders)
        branches = [to_branch(s) for s in specs]

        def call(branches=branches):
            g = pui.germ(branches)
            return con.contact_report(g), [inv.characteristic_data(b) for b in g.branches]

        field = math.lcm(n_a, n_c, *orders)
        ops.append(Op(f"N{field}-{n_a}.{n_a}.{n_c}", call, _check_report(specs, cont, inter)))
    return ops


def _check_report(specs, cont, inter):
    def check(out):
        report, data = out
        if _matrix(report.contact) != cont:
            return f"contacts {report.to_dict()['contact']} differ from {cont}"
        if _matrix(report.intersection) != inter:
            return f"intersections {report.intersection} differ from {inter}"
        if not inputs.is_ultrametric(report.contact):
            return "contact matrix is not an ultrametric"
        if [d.beta for d in data] != [s.beta for s in specs]:
            return f"betas {[d.beta for d in data]} differ from {[s.beta for s in specs]}"
        return None

    return check


# ---------------------------------------------------------------------------
# numeric-estimate
# ---------------------------------------------------------------------------

#: y = x^2 against y = x^2 + x^h; from h = 7 the double-precision gap
#: underflows against |y| and the fit raises "zero gap encountered".
GAP_ORDERS = range(2, 13)
FIRST_FAILING_ORDER = 7
PREFIX_BETAS = [(2, 3), (3, 4), (4, 6, 7), (5, 7), (6, 8, 9), (6, 9, 10)]
LEADING_PAIRS = [(1, 1, 2, 5), (2, 3, 3, 8)]
WITNESS_BETAS = [(2, 5), (3, 5), (4, 6, 7), (6, 8, 9)]
DISTORTION_BETAS = (1.0, 1.25, 2.0)
TOLERANCE = 0.1


def build_numeric(seed):
    met = _mod("metric")
    rng = random.Random(f"numeric-estimate:{seed}")
    ops = []

    def estimate_op(label, b1, b2, contact, known_fault=False):
        ops.append(Op(label, lambda: met.estimate_branch_contact(b1, b2),
                      _check_slope(contact), known_fault))

    pui = _mod("puiseux")
    for h in GAP_ORDERS:
        parabola = pui.branch(1, [(2, 1)], truncation=16)
        other = pui.branch(1, [(2, 2)] if h == 2 else [(2, 1), (h, 1)], truncation=max(16, h))
        estimate_op(f"x2-vs-x2+x^{h}", parabola, other, Fraction(h), h >= FIRST_FAILING_ORDER)
    for beta in PREFIX_BETAS:
        s1, s2, contact = inputs.prefix_pair(rng, beta)
        estimate_op(f"prefix-{'.'.join(map(str, beta))}",
                    to_branch(s1), to_branch(s2), contact)
    for n1, p1, n2, p2 in LEADING_PAIRS:
        s1, s2, contact = inputs.leading_pair(rng, n1, p1, n2, p2)
        field = math.lcm(n1, n2)
        estimate_op(f"leading-{n1}.{p1}-{n2}.{p2}",
                    to_branch(s1, field), to_branch(s2, field), contact)

    axis = pui.branch(1, [], truncation=16)
    curve = pui.branch(1, [(2, inputs.small_coefficient(rng)), (3, inputs.small_coefficient(rng))], truncation=16)
    for beta in DISTORTION_BETAS:
        def distortion(beta=beta):
            grid = met.geometric_grid(1e-1, 1e-3, 16)
            a = met.sample_branch_arc(axis, 0, 0.0, grid)
            b = met.sample_branch_arc(curve, 0, 0.0, grid)
            return met.check_contact_distortion(a, b, beta, grid, tolerance=TOLERANCE)

        ops.append(Op(f"distortion-beta{beta}", distortion,
                      lambda rep: None if rep.passed else f"bounds fail: {rep.to_dict()}"))

    for beta in WITNESS_BETAS:
        b = to_branch(inputs.normal_form_branch(rng, beta))
        index = len(beta) - 1

        def witness(b=b, index=index):
            radii = met.default_branch_grid(b)
            base, quarter, twisted, _ = met.witness_arcs(b, index, radii)
            return (met.estimate_contact(base, twisted, radii).slope,
                    met.estimate_contact(base, quarter, radii).slope)

        ops.append(Op(f"witness-{'.'.join(map(str, beta))}", witness,
                      _check_witness(Fraction(beta[-1], beta[0]))))
    return ops


def _check_slope(contact):
    def check(est):
        if abs(est.slope - float(contact)) > TOLERANCE or est.r_squared < 0.99:
            return f"slope {est.slope:.4f} (r^2 {est.r_squared:.4f}) for contact {contact}"
        return None

    return check


def _check_witness(exponent):
    def check(slopes):
        twist, turn = slopes
        if abs(twist - float(exponent)) > TOLERANCE or abs(turn - 1) > TOLERANCE:
            return f"witness slopes {twist:.4f}, {turn:.4f}; expected {exponent} and 1"
        return None

    return check


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

#: The generated germ for the CLI: shape (4, 4, 5) with roots of order 7,
#: field order 140.
CLI_SHAPE = (4, 5, (7,), 0)


def germ_document(specs):
    """The germ file format for specs whose roots share one zeta order."""
    order = math.lcm(*(c.root[0] for s in specs for _, c in s.terms if c.root))

    def coeff(c):
        if c.root is None:
            return {"rational": str(c.q)}
        o, k = c.root
        return {"cyclotomic": [[str(c.q), 0], ["1", k * order // o]]}

    return {
        "zeta_order": order,
        "branches": [
            {"n": s.n, "truncation": s.truncation,
             "terms": [{"exp": m, "coeff": coeff(c)} for m, c in s.terms]}
            for s in specs
        ],
    }


def run_child(argv):
    """Run argv from the checkout root with curvegerm importable from src/."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=False)


def _cli_op(label, args, check):
    argv = list(args) + ["--json"]

    def call():
        proc = run_child([sys.executable, "-m", "curvegerm.cli", *argv])
        return proc.returncode, proc.stdout

    def traced():
        proc = run_child([sys.executable, os.path.join(HERE, "cli_child.py"), *argv])
        lines = proc.stderr.strip().splitlines()
        trace = json.loads(lines[-1]) if lines else None
        if trace is not None:
            trace["command"] = args[0]
        return (proc.returncode, proc.stdout), trace

    def full_check(out):
        code, stdout = out
        if code != 0:
            return f"exit code {code}: {stdout.strip()[:200]}"
        try:
            return check(json.loads(stdout))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unexpected output ({exc!r}): {stdout.strip()[:200]}"

    return Op(label, call, full_check, traced=traced)


def _near(value, target):
    return abs(float(value) - float(target)) <= TOLERANCE


def build_cli(seed):
    n_a, n_c, orders, shape = CLI_SHAPE
    specs, cont, inter = inputs.mixed_germ(
        random.Random(shape), random.Random(f"cli-cold:{seed}"), n_a, n_c, orders)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"cli-germ-{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(germ_document(specs), handle, indent=1)
    data = os.path.join("demos", "data")

    def demo(name):
        return os.path.join(data, name + ".json")

    def expect(condition, message):
        return None if condition else message

    betas = [list(s.beta) for s in specs]
    contacts = [[None if v is None else str(v) for v in row] for row in cont]
    return [
        _cli_op("invariants-genus_two", ["invariants", demo("genus_two")],
                lambda out: expect(out["beta"] == [4, 6, 7], f"beta {out['beta']}")),
        _cli_op("invariants-twisted_cusp", ["invariants", demo("twisted_cusp")],
                lambda out: expect(out["beta"] == [3, 4], f"beta {out['beta']}")),
        _cli_op("contact-axis_and_cubic", ["contact", demo("axis_and_cubic")],
                lambda out: expect(out["contact"][0][1] == "3" and out["intersection"][0][1] == 3,
                                   f"contact {out['contact']}, intersection {out['intersection']}")),
        _cli_op("classify-cusp_2_5-cusp_2_3", ["classify", demo("cusp_2_5"), demo("cusp_2_3")],
                lambda out: expect(out["k0"] == "4/5", f"k0 {out.get('k0')}")),
        _cli_op("estimate-axis-parabola", ["estimate", demo("axis"), demo("parabola")],
                lambda out: expect(_near(out["slope"], 2) and out["exact"] == "2",
                                   f"slope {out['slope']}, exact {out['exact']}")),
        _cli_op("check-prop1-axis-parabola",
                ["check-prop1", demo("axis"), demo("parabola"), "--beta", "1.25"],
                lambda out: expect(out["passed"] is True, "distortion bounds fail")),
        _cli_op("proof-arcs-cusp_2_5", ["proof-arcs", demo("cusp_2_5")],
                lambda out: expect(_near(out["base_vs_conjugate_twist"]["slope"], 2.5)
                                   and _near(out["base_vs_quarter_turn"]["slope"], 1),
                                   "witness slopes are not 5/2 and 1")),
        _cli_op("invariants-generated", ["invariants", path],
                lambda out: expect([b["beta"] for b in out["branches"]] == betas,
                                   f"betas {out['branches']}")),
        _cli_op("contact-generated", ["contact", path],
                lambda out: expect(out["contact"] == contacts and out["intersection"] == inter,
                                   f"contact {out['contact']}, intersection {out['intersection']}")),
    ]


#: name -> (build, numeric share of the calibration kernel).  The share
#: weighs the kernel's numeric part (cache-missing numpy) against its exact
#: part (Fraction loop): the weight whose calibrated figures spread least
#: over 10-second stretches of a noisy machine (bench/README.md).
WORKLOADS = {
    "classify-branches": (build_classify, 0.0),
    "contact-fields": (build_contact, 0.75),
    "numeric-estimate": (build_numeric, 0.75),
    "cli-cold": (build_cli, 0.5),
}
