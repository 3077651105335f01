"""Characteristic exponents, characteristic pairs, and the bi-Lipschitz normal form.

The characteristic exponents of a branch x = t^n, y = sum a_m t^m are
produced by the gcd recursion: e_0 = beta_0 = n, and beta_{i+1} is the
smallest term exponent not divisible by e_i, with e_{i+1} =
gcd(e_i, beta_{i+1}); the chain stops at e_g = 1.  The pairs (m_i, n_i)
defined by beta_i = m_i * e_i and e_{i-1} = n_i * e_i encode the same
data.  They form a complete topological invariant of the branch, and the
branch is bi-Lipschitz equivalent to the one that keeps only the terms
at the characteristic exponents.

Smooth branches (n = 1) have no characteristic pairs and genus 0.  A
branch whose known exponents never break the divisibility chain is
either non-primitive or truncated too early; that is reported as a
TruncationExceeded rather than silently reparametrized, since
reparametrizing would change the germ the user specified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from curvegerm.puiseux import ConsistencyError, PuiseuxBranch, TruncationExceeded


@dataclass(frozen=True)
class CharacteristicData:
    """The gcd-recursion output for one branch.

    beta:  (beta_0, ..., beta_g), beta_0 = n.
    e:     (e_0, ..., e_g) with e_i = gcd(e_{i-1}, beta_i) and e_g = 1.
    pairs: ((m_1, n_1), ..., (m_g, n_g)).
    genus: g, the number of pairs; 0 for a smooth branch.

    The constructor checks every relation above, and so does
    ``dataclasses.replace``.  :func:`characteristic_data` does not call
    it: its recursion makes each relation true.
    """

    beta: tuple[int, ...]
    e: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    genus: int

    def __post_init__(self):
        beta, e = self.beta, self.e
        ok = (
            len(beta) == len(e) == self.genus + 1
            and len(self.pairs) == self.genus
            and beta[0] == e[0]
            and e[-1] == 1
        )
        # one pass: n_1 * ... * n_g, taken along the way, must be beta_0
        product = 1
        for i, (m, nn) in enumerate(self.pairs if ok else (), 1):
            product *= nn
            if not (
                e[i] == math.gcd(e[i - 1], beta[i])
                and e[i] < e[i - 1]
                and (i == 1 or beta[i] > beta[i - 1])
                and beta[i] == m * e[i]
                and e[i - 1] == nn * e[i]
            ):
                ok = False
                break
        if not (ok and product == beta[0]):
            raise ConsistencyError(f"inconsistent characteristic data: {self}")


def _steps(b: PuiseuxBranch):
    """The gcd recursion on the known exponents, one (beta_i, e_i) at a
    time, i >= 1.  Exponents increase, so beta_{i+1} is the first one
    past beta_i that e_i does not divide.  The walk is lazy, so a reader
    that stops early ends it there."""
    e = b.n
    for m, _ in b.terms:
        if e == 1:
            return
        if m % e:
            e = math.gcd(e, m)
            yield m, e


def characteristic_data(b: PuiseuxBranch) -> CharacteristicData:
    """Run the gcd recursion on the known exponents of the branch.

    Raises TruncationExceeded when some e_i > 1 divides every known
    exponent: the branch is non-primitive as far as visible.  That is the
    one check made here.  The rest hold by construction, so the result is
    built without the constructor: each e_i is gcd(e_{i-1}, beta_i) of a
    beta_i that e_{i-1} does not divide, so it divides both and is
    smaller, and the betas increase since the branch's exponents do
    (:class:`~curvegerm.puiseux.PuiseuxBranch` checks that); the n_i
    then multiply to e_0 / e_g = n.
    """
    beta = [b.n]
    e = [b.n]
    pairs = []
    for m, g in _steps(b):
        pairs.append((m // g, e[-1] // g))
        beta.append(m)
        e.append(g)
    if e[-1] != 1:
        raise TruncationExceeded(
            f"characteristic recursion is stuck at gcd e={e[-1]}: every known "
            f"exponent up to the truncation {b.truncation} is divisible by it "
            "(branch non-primitive as far as visible; supply more terms)"
        )
    data = object.__new__(CharacteristicData)
    data.__dict__.update(beta=tuple(beta), e=tuple(e), pairs=tuple(pairs), genus=len(pairs))
    return data


def lipschitz_normal_form(b: PuiseuxBranch) -> PuiseuxBranch:
    """Keep exactly the terms at the characteristic exponents.

    The result parametrizes a branch bi-Lipschitz equivalent to the
    input.  For a singular branch the truncation shrinks to beta_g; a
    smooth branch becomes y = 0 with its truncation kept.
    """
    data = characteristic_data(b)
    keep = set(data.beta[1:])
    terms = tuple((m, c) for m, c in b.terms if m in keep)
    truncation = data.beta[-1] if data.genus else b.truncation
    return PuiseuxBranch(b.n, terms, truncation)
