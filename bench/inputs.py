"""Seeded inputs for the benchmark workloads and the answers they must give.

Every expected value is fixed by the way the input is built, or computed
from a published formula (the paper's obstruction numbers, Max Noether's
intersection formula).  Nothing here calls curvegerm, so a fault in the
program cannot leak into the answer it is checked against.

A branch is described as ``Spec(n, terms, truncation, beta)``: x = t^n and
y = sum of coeff * t^exp, each coefficient a ``Coef`` q + zeta_o^k (or a
bare rational when ``root`` is None), and ``beta`` the characteristic
exponents the generator put in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Coef:
    q: Fraction
    root: tuple[int, int] | None = None  # (order o, power k): adds zeta_o^k


@dataclass(frozen=True)
class Spec:
    n: int
    terms: tuple[tuple[int, Coef], ...]
    truncation: int
    beta: tuple[int, ...]


# ---------------------------------------------------------------------------
# Formulas the checks use
# ---------------------------------------------------------------------------


def char_pairs(beta):
    """Characteristic pairs (m_i, n_i) of an exponent sequence beta."""
    e, pairs = beta[0], []
    for b in beta[1:]:
        g = math.gcd(e, b)
        pairs.append((b // g, e // g))
        e = g
    return tuple(pairs)


def noether_intersection(beta, contact, n_other):
    """Max Noether's formula for the intersection number of two branches.

    With gamma of characteristic exponents beta (beta_0 = n), e_i the gcd
    chain, delta of multiplicity n_other and coincidence c:
    I = (n_other / n) * (sum_{i<=q} (e_{i-1} - e_i) * beta_i + e_q * n * c),
    q the number of beta_i / n <= c.
    """
    n = beta[0]
    e = [n]
    for b in beta[1:]:
        e.append(math.gcd(e[-1], b))
    total, q = Fraction(0), 0
    for i in range(1, len(beta)):
        if Fraction(beta[i], n) <= contact:
            total += (e[i - 1] - e[i]) * beta[i]
            q = i
    total += e[q] * n * contact
    value = Fraction(n_other, n) * total
    assert value.denominator == 1
    return int(value)


def _pair_obstruction(p1, j, p2, i):
    a = p1[j - 1][0] * math.prod(q for _, q in p2[:i])
    b = p2[i - 1][0] * math.prod(n for _, n in p1[:j])
    return min(Fraction(a + b, 2 * b), Fraction(a + b, 2 * a))


def branch_obstruction(beta1, beta2):
    """The paper's obstruction from two exponent sequences; 1 when equal.

    A smooth branch enters with the formal pair (1, 1).  Equal genus scans
    the diagonal pairs; unequal genus scans the larger genus against the
    last pair of the smaller one.
    """
    if beta1 == beta2:
        return Fraction(1)
    p1 = char_pairs(beta1) or ((1, 1),)
    p2 = char_pairs(beta2) or ((1, 1),)
    g1, g2 = len(p1), len(p2)
    if g1 == g2:
        values = [_pair_obstruction(p1, i, p2, i) for i in range(1, g1 + 1)]
    elif g1 > g2:
        values = [_pair_obstruction(p1, j, p2, g2) for j in range(g2, g1 + 1)]
    else:
        values = [_pair_obstruction(p1, g1, p2, i) for i in range(g1, g2 + 1)]
    return max(v for v in values if v != 1)


def expected_k0(betas1, contacts1, betas2, contacts2):
    """k0 = max of the baseline 1/2, every branch obstruction below 1 and
    every contact ratio min(c/c', c'/c) below 1, over the two germs."""
    values = [Fraction(1, 2)]
    values += [branch_obstruction(u, v) for u in betas1 for v in betas2]
    r = len(betas1)
    c1 = {contacts1[i][j] for i in range(r) for j in range(i + 1, r)}
    c2 = {contacts2[i][j] for i in range(r) for j in range(i + 1, r)}
    values += [min(a / b, b / a) for a in c1 for b in c2]
    return max(v for v in values if v < 1)


def is_ultrametric(c):
    r = len(c)
    return all(
        c[i][k] >= min(c[i][j], c[j][k])
        for i in range(r) for j in range(r) for k in range(r)
        if len({i, j, k}) == 3
    )


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _rational(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))


def _dense_coef(shape_rng, value_rng, orders, field):
    """q + zeta_o^k, o from ``orders``, with zeta_o^k = zeta_N^j for some
    j >= phi(N) in the germ's field Q(zeta_N): its reduced coordinates are
    dense.  zeta_o^k is not rational, so the sum is never zero.  The root
    comes from ``shape_rng`` and q from ``value_rng``."""
    phi = sum(1 for j in range(1, field + 1) if math.gcd(j, field) == 1)
    o = shape_rng.choice([o for o in orders if o > 2])
    k = shape_rng.choice([k for k in range(1, o) if (2 * k) % o and k * field // o >= phi])
    return Coef(_rational(value_rng), (o, k))


def _singular_exponents(rng, n, first, count):
    """``count`` exponents of a primitive branch of multiplicity n whose
    first exponent ``first`` is characteristic; returns (exponents, beta)."""
    beta, e, m = [n, first], math.gcd(n, first), first
    while e > 1:
        m += rng.randint(1, 3)
        if m % e:
            beta.append(m)
            e = math.gcd(e, m)
    gcd_after = {}
    g = n
    for b in beta[1:]:
        g = math.gcd(g, b)
        gcd_after[b] = g
    top = beta[-1]
    # a term between two characteristic exponents is divisible by the gcd
    # in force there, or it would be characteristic itself
    others = [
        m for m in range(first + 1, top + 2 * count + 4)
        if m not in gcd_after
        and m % min((g for b, g in gcd_after.items() if b < m), default=n) == 0
    ]
    tail = [m for m in others if m > top]
    chosen = set(rng.sample(tail, 1))  # at least one term beyond beta_g
    rest = [m for m in others if m not in chosen]
    chosen |= set(rng.sample(rest, max(0, count - len(beta))))
    return sorted(set(beta[1:]) | chosen), tuple(beta)


def mixed_germ(shape_rng, value_rng, n_a, n_c, orders, terms=5):
    """Three branches A, B, C with A, B of multiplicity n_a and C of n_c.

    B copies A up to an exponent d beyond A's last characteristic exponent
    and differs there, so contact(A, B) = d / n_a: every other conjugate of
    B already differs at a characteristic exponent.  C starts at another
    x-order, so its contact with both is the smaller leading order.
    Exponents and roots of unity come from ``shape_rng``, which fixes the
    cost; the rational parts come from ``value_rng``.
    Returns (specs, contact matrix, intersection matrix).
    """
    roots = list(orders) + [n_a, n_c]
    field = math.lcm(*roots)
    first_a = shape_rng.choice([m for m in range(n_a + 1, 3 * n_a) if m % n_a])
    exps_a, beta_a = _singular_exponents(shape_rng, n_a, first_a, terms)
    lead_a = Fraction(first_a, n_a)
    first_c = shape_rng.choice(
        [m for m in range(n_c + 1, 3 * n_c) if m % n_c and Fraction(m, n_c) != lead_a]
    )
    exps_c, beta_c = _singular_exponents(shape_rng, n_c, first_c, terms)
    coef_a = {m: _dense_coef(shape_rng, value_rng, roots, field) for m in exps_a}
    d = min(m for m in exps_a if m > beta_a[-1])
    coef_b = {m: c for m, c in coef_a.items() if m < d}
    coef_b[d] = Coef(coef_a[d].q + value_rng.choice([-1, 1]), coef_a[d].root)
    for m in shape_rng.sample(range(d + 1, d + 6), 2):
        coef_b[m] = _dense_coef(shape_rng, value_rng, roots, field)
    coef_c = {m: _dense_coef(shape_rng, value_rng, roots, field) for m in exps_c}
    specs = [
        Spec(n_a, tuple(sorted(coef_a.items())), max(coef_a), beta_a),
        Spec(n_a, tuple(sorted(coef_b.items())), max(coef_b), beta_a),
        Spec(n_c, tuple(sorted(coef_c.items())), max(coef_c), beta_c),
    ]
    ab, low = Fraction(d, n_a), min(lead_a, Fraction(first_c, n_c))
    cont = [[None, ab, low], [ab, None, low], [low, low, None]]
    inter = [
        [None if i == j else noether_intersection(specs[i].beta, cont[i][j], specs[j].n)
         for j in range(3)]
        for i in range(3)
    ]
    return specs, cont, inter


# ---------------------------------------------------------------------------
# Germs from random contact trees (classify-branches)
# ---------------------------------------------------------------------------


@dataclass
class _Node:
    level: int
    children: list  # of _Node or leaf index


def _random_tree(rng, leaves, floor):
    if len(leaves) == 1:
        return leaves[0]
    level = floor + rng.randint(1, 3)
    cut = rng.randint(1, len(leaves) - 1)
    return _Node(level, [_random_tree(rng, leaves[:cut], level),
                         _random_tree(rng, leaves[cut:], level)])


def _nodes(tree):
    if isinstance(tree, _Node):
        yield tree
        for child in tree.children:
            yield from _nodes(child)


def _leaves(tree):
    return [tree] if not isinstance(tree, _Node) else [
        leaf for child in tree.children for leaf in _leaves(child)]


def tree_contacts(tree, r):
    """Contact of two leaves = level of their lowest common node."""
    c = [[None] * r for _ in range(r)]

    def walk(node):
        if not isinstance(node, _Node):
            return
        left, right = (_leaves(ch) for ch in node.children)
        for i in left:
            for j in right:
                c[i][j] = c[j][i] = Fraction(node.level)
        for child in node.children:
            walk(child)

    walk(tree)
    return c


def _tree_series(rng, tree, top):
    """Rational x-series per leaf that realise the tree: the two subtrees
    of a node share every term below its level and differ at it."""
    series = {}

    def walk(node, prefix, floor):
        if not isinstance(node, _Node):
            own = dict(prefix)
            for e in range(floor + 1, top + 1):
                if rng.random() < 0.5:
                    own[e] = _rational(rng)
            series[node] = own
            return
        values = rng.sample([Fraction(v, 2) for v in range(-6, 7)], 2)
        for child, value in zip(node.children, values):
            shared = dict(prefix)
            if value:
                shared[node.level] = value
            below = child.level if isinstance(child, _Node) else node.level + 1
            for e in range(node.level + 1, below):
                if rng.random() < 0.5:
                    shared[e] = _rational(rng)
            walk(child, shared, below - 1)

    shared = {e: _rational(rng) for e in range(1, tree.level) if rng.random() < 0.5}
    walk(tree, shared, 0)
    return series


def _tree_specs(rng, tree, r, top, odd):
    """Leaf 0 smooth, leaf i > 0 a cusp (x = t^2) whose even part is the
    leaf's series and whose odd term t^odd[i] lies beyond every contact,
    so beta = (2, odd[i]) and the contacts stay the tree's levels."""
    series = _tree_series(rng, tree, top)
    specs = []
    for leaf in range(r):
        terms = sorted(series[leaf].items())
        if leaf == 0:
            specs.append(Spec(1, tuple((e, Coef(q)) for e, q in terms), top, (1,)))
        else:
            cusp = [(2 * e, Coef(q)) for e, q in terms] + [(odd[leaf], Coef(_rational(rng)))]
            specs.append(Spec(2, tuple(cusp), odd[leaf], (2, odd[leaf])))
    return specs


def _unrank(rank, r):
    items, out = list(range(r)), []
    for i in range(r, 0, -1):
        block = math.factorial(i - 1)
        out.append(items.pop(rank // block))
        rank %= block
    return tuple(out)


def _reorder(specs, contacts, pi):
    """Put item i at position pi[i]."""
    r = len(specs)
    out = [None] * r
    cont = [[None] * r for _ in range(r)]
    for i in range(r):
        out[pi[i]] = specs[i]
        for j in range(r):
            cont[pi[i]][pi[j]] = contacts[i][j]
    return out, cont


def tree_pair(rng, r, equivalent, rank_window):
    """A germ of r branches from a random contact tree, and a partner.

    Every leaf has its own beta, so exactly one bijection matches the
    germs when they are equivalent.  The equivalent partner is the same
    tree with fresh coefficients in the branch order whose lexicographic
    rank is drawn from ``rank_window`` (a share of r!), which fixes how far
    an exhaustive search must go.  The distinct partner changes one
    contact or one beta and uses a random order.
    Returns (specs1, betas1, contacts1, specs2, betas2, contacts2).
    """
    tree = _random_tree(rng, list(range(r)), 0)
    top = max(node.level for node in _nodes(tree)) + 2
    odd = [None]
    for _ in range(1, r):
        o = max(2 * top + 1, math.ceil(1.5 * odd[-1]) if odd[-1] else 0)
        odd.append(o + 1 - o % 2)
    specs1 = _tree_specs(rng, tree, r, top, odd)
    cont1 = tree_contacts(tree, r)
    odd2 = list(odd)
    if equivalent:
        lo, hi = rank_window
        pi = _unrank(rng.randint(int(lo * math.factorial(r)), int(hi * math.factorial(r)) - 1), r)
    else:
        pi = tuple(rng.sample(range(r), r))
        movable = []
        for node in _nodes(tree):
            parent = max((p.level for p in _nodes(tree) if node in p.children), default=0)
            child = min((ch.level for ch in node.children if isinstance(ch, _Node)),
                        default=top - 1)
            options = [v for v in range(parent + 1, child) if v != node.level]
            if options:
                movable.append((node, options))
        if movable and rng.random() < 0.5:
            node, options = rng.choice(movable)
            node.level = rng.choice(options)
        else:
            leaf = rng.randrange(1, r)
            odd2[leaf] += 2
    specs2, cont2 = _reorder(_tree_specs(rng, tree, r, top, odd2), tree_contacts(tree, r), pi)
    betas1 = [s.beta for s in specs1]
    betas2 = [s.beta for s in specs2]
    return specs1, betas1, cont1, specs2, betas2, cont2


# ---------------------------------------------------------------------------
# Branch pairs for the numeric cross-check (numeric-estimate)
# ---------------------------------------------------------------------------


def small_coefficient(rng):
    """A coefficient of size 1/2 to 3/2, so no term dwarfs another."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(2, 6), 4)


def prefix_pair(value_rng, beta):
    """(b1, b2, contact): b1 keeps only its characteristic terms and b2
    adds c*t^d with d = beta_g + n, so the aligned conjugates differ by
    exactly c*x^(d/n) and contact = d/n; every other conjugate differs at
    a characteristic exponent, a whole x-order lower, which keeps the
    finite-scale slope on the contact."""
    n, d = beta[0], beta[-1] + beta[0]
    b1 = normal_form_branch(value_rng, beta)
    b2 = Spec(n, b1.terms + ((d, Coef(small_coefficient(value_rng))),), d, tuple(beta))
    return Spec(n, b1.terms, d, b1.beta), b2, Fraction(d, n)


def leading_pair(value_rng, n1, p1, n2, p2):
    """(b1, b2, contact) for y = a t^p1 (x = t^n1) and y = b t^p2
    (x = t^n2) with p1/n1 at least one below p2/n2: contact = p1/n1."""
    assert Fraction(p1, n1) + 1 <= Fraction(p2, n2)
    b1 = Spec(n1, ((p1, Coef(small_coefficient(value_rng))),), p1, (n1, p1) if n1 > 1 else (1,))
    b2 = Spec(n2, ((p2, Coef(small_coefficient(value_rng))),), p2, (n2, p2) if n2 > 1 else (1,))
    return b1, b2, Fraction(p1, n1)


def normal_form_branch(value_rng, beta):
    """y = sum of c_i t^beta_i: only characteristic terms, so the
    conjugate twist of the last one differs from the base arc by a single
    term and the witness-arc slope is exactly beta_g / n."""
    terms = tuple((b, Coef(small_coefficient(value_rng))) for b in beta[1:])
    return Spec(beta[0], terms, beta[-1], tuple(beta))
