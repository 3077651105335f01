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

from curvegerm.puiseux import PuiseuxBranch, TruncationExceeded


@dataclass(frozen=True)
class CharacteristicData:
    """The gcd-recursion output for one branch.

    beta:  (beta_0, ..., beta_g), beta_0 = n.
    e:     (e_0, ..., e_g) with e_i = gcd(e_{i-1}, beta_i) and e_g = 1.
    pairs: ((m_1, n_1), ..., (m_g, n_g)).
    genus: g, the number of pairs; 0 for a smooth branch.
    """

    beta: tuple[int, ...]
    e: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    genus: int

    def __post_init__(self):
        ok = (
            len(self.beta) == len(self.e) == self.genus + 1
            and len(self.pairs) == self.genus
            and self.beta[0] == self.e[0]
            and self.e[-1] == 1
        )
        for i in range(1, self.genus + 1):
            m, nn = self.pairs[i - 1]
            ok = ok and (
                self.e[i] == math.gcd(self.e[i - 1], self.beta[i])
                and self.e[i] < self.e[i - 1]
                and (i == 1 or self.beta[i] > self.beta[i - 1])
                and self.beta[i] == m * self.e[i]
                and self.e[i - 1] == nn * self.e[i]
            )
        ok = ok and math.prod(nn for _, nn in self.pairs) == self.beta[0]
        if not ok:
            raise ValueError(f"inconsistent characteristic data: {self}")


def characteristic_data(b: PuiseuxBranch) -> CharacteristicData:
    """Run the gcd recursion on the known exponents of the branch.

    Raises TruncationExceeded when some e_i > 1 divides every known
    exponent: the branch is non-primitive as far as visible.
    """
    if b.n == 1:
        return CharacteristicData((1,), (1,), (), 0)
    exponents = b.exponents
    beta = [b.n]
    e = [b.n]
    while e[-1] > 1:
        nxt = min((m for m in exponents if m % e[-1]), default=None)
        if nxt is None:
            raise TruncationExceeded(
                f"characteristic recursion is stuck at gcd e={e[-1]}: every known "
                f"exponent up to the truncation {b.truncation} is divisible by it "
                "(branch non-primitive as far as visible; supply more terms)"
            )
        beta.append(nxt)
        e.append(math.gcd(e[-1], nxt))
    pairs = tuple(
        (beta[i] // e[i], e[i - 1] // e[i]) for i in range(1, len(beta))
    )
    return CharacteristicData(tuple(beta), tuple(e), pairs, len(pairs))


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
    return PuiseuxBranch(b.n, terms, truncation, b.field_order)
