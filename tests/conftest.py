import math
import random
from fractions import Fraction

import pytest

from curvegerm import branch, germ, zeta


@pytest.fixture
def cusp25():
    return branch(2, [(5, 1)], truncation=12)


@pytest.fixture
def cusp23():
    return branch(2, [(3, 1)], truncation=12)


@pytest.fixture
def genus2():
    return branch(4, [(6, 1), (7, 1)], truncation=12)


@pytest.fixture
def smooth_axis():
    return branch(1, [], truncation=24)


@pytest.fixture
def classify_corpus(cusp25, cusp23, genus2, smooth_axis):
    """Deterministic germ corpus with conclusive truncations everywhere."""
    parabola = branch(1, [(2, 1)], truncation=24)
    cubic = branch(1, [(3, 1)], truncation=24)
    line_p = branch(1, [(1, 1)], truncation=24)
    line_m = branch(1, [(1, -1)], truncation=24)
    return [
        germ([cusp25]),
        germ([cusp23]),
        germ([genus2]),
        germ([smooth_axis]),
        germ([branch(1, [], truncation=24), parabola]),
        germ([branch(1, [], truncation=24), branch(2, [(3, 1)], truncation=12)]),
        germ([line_p, line_m]),
        germ([branch(2, [(3, 1)], truncation=12), branch(2, [(3, 1), (4, 1)], truncation=12)]),
        germ([branch(3, [(4, zeta(3))], truncation=12)]),
        germ([branch(3, [(4, 1), (5, 1)], truncation=12)]),
        germ([branch(1, [], truncation=24), parabola, cubic]),
        germ([parabola, branch(1, [], truncation=24)]),
    ]


# --- seeded random germs, conclusive by construction ----------------------
#
# A germ is a few families of branches.  A family has a multiplicity n and
# a primitive base series whose exponents end at the last characteristic
# exponent beta_g; families differ in their leading order (first exponent
# over n).  Each member copies its family's base and adds a tail that
# starts at a divergence exponent d > beta_g.  So every nontrivial
# conjugate of a member differs from a sibling by beta_g, and two
# siblings differ at the smaller d (at a shared d their coefficients
# differ), which fixes the contacts: d / n inside a family and the
# smaller leading order across families.  The structure comes from
# ``shape``, the coefficients from ``values``: two germs of one shape have
# equal characteristic data and contacts, hence equivalent invariants.

ROOT_ORDERS = (3, 4, 5)


def _coefficient(values, cyclotomic):
    """A nonzero rational, or a rational plus a primitive root of unity of
    order 3, 4 or 5 (never rational, so the sum is never zero)."""
    q = Fraction(values.choice([-3, -2, -1, 1, 2, 3]), values.choice([1, 2, 3]))
    if not cyclotomic:
        return q
    order = values.choice(ROOT_ORDERS)
    return zeta(order, values.choice([k for k in range(1, order) if math.gcd(k, order) == 1])) + q


def _base_exponents(shape, n):
    """Increasing exponents of a primitive base series of multiplicity n:
    some multiples of n (a smooth part), then the gcd chain down to 1."""
    if n == 1:
        return sorted(shape.sample(range(1, 4), shape.randint(1, 2)))
    beta, e = shape.choice([m for m in range(n + 1, 3 * n + 1) if m % n]), n
    exponents = [m for m in range(n, beta, n) if shape.random() < 0.5]
    while True:
        exponents.append(beta)
        e = math.gcd(e, beta)
        if e == 1:
            return exponents
        beta += shape.choice([m for m in range(1, 2 * e + 1) if m % e])


def random_germ(shape, values):
    """A germ of 1 to 7 branches from at most three families, and the
    contact matrix its construction fixes."""
    branches, places, leads = [], [], set()
    for family in range(shape.randint(1, 3)):
        n = shape.choice([1, 2, 3, 4])
        base = _base_exponents(shape, n)
        lead = Fraction(base[0], n)
        if lead in leads:
            continue
        leads.add(lead)
        cyclotomic = shape.random() < 0.5
        terms = {m: _coefficient(values, cyclotomic) for m in base}
        diverge = _coefficient(values, False)
        for s in range(shape.randint(1, 3 if len(leads) < 3 else 1)):
            d = shape.randint(base[-1] + 1, base[-1] + 3)
            tail = {d: (s + 1) * diverge}
            for m in range(d + 1, d + 3):
                if shape.random() < 0.4:
                    tail[m] = _coefficient(values, cyclotomic)
            series = sorted({**terms, **tail}.items())
            branches.append(branch(n, series, truncation=series[-1][0] + shape.randint(0, 2)))
            places.append((family, lead, Fraction(d, n)))
    contact = [
        [None if i == j else min(a[2], b[2]) if a[0] == b[0] else min(a[1], b[1])
         for j, b in enumerate(places)]
        for i, a in enumerate(places)
    ]
    return germ(branches), contact


@pytest.fixture
def generated_germs():
    """Eighty seeded random germs as (shape seed, germ, contact matrix),
    twenty of them twins of an earlier one: same shape, other
    coefficients."""
    made = []
    for seed in range(60):
        made.append((seed, *random_germ(random.Random(seed), random.Random(1000 + seed))))
    for seed in range(0, 60, 3):
        made.append((seed, *random_germ(random.Random(seed), random.Random(2000 + seed))))
    return made
