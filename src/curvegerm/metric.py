"""Floating-point contact estimation from sampled arcs.

The contact of two germs at the origin is the limiting slope of
ln(gap(r)) against ln(r).  For two branches, gap(r) is the smallest
|y1 - y2| over the same x, swept over the circle |x| = r and over every
pair of conjugates.  Each difference comes from the exact difference
series, so terms that cancel never reach floating point, and one
product for all conjugates gives every difference: their coefficients
times roots of unity from one cached table, times real powers of the
radii.  For two sampled arcs, gap(r) is the distance between their
points of equal index.  The slope is a least-squares fit in closed
form, from centred sums, and comes with its r^2.  This is the numeric cross-check for the exact
contact computation; it also exercises the distortion bounds a radial
Holder map must satisfy.

Everything here is double precision; by default radii below 1e-6 are
excluded so cancellation inside a sampled arc does not drown the signal.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from curvegerm.invariants import characteristic_data
from curvegerm.puiseux import PuiseuxBranch, _differences, _is_int, conjugate

#: Radii below this are dropped from default grids.
DEFAULT_MIN_RADIUS = 1e-6

#: Default number of x-angles swept when estimating branch-pair contact.
DEFAULT_ANGLES = 64

#: Fewest radii a contact estimate fits a slope through.
_FIT_POINTS = 8

#: Smallest normal double; a gap below it has underflowed.
_GAP_FLOOR = float(np.finfo(float).tiny)


@functools.lru_cache(maxsize=32)
def _roots(period: int) -> np.ndarray:
    """The roots of unity exp(2*pi*i*j/period), 0 <= j < period, read-only."""
    roots = np.exp(2j * math.pi * np.arange(period) / period)
    roots.flags.writeable = False
    return roots


def geometric_grid(r_max: float = 1e-1, r_min: float = 1e-4, count: int = 16) -> np.ndarray:
    """Strictly decreasing geometric radius grid from r_max down to r_min."""
    if not 0 < r_min < r_max < math.inf:
        raise ValueError("need 0 < r_min < r_max < inf")
    if count < 2:
        raise ValueError("need at least two grid points")
    # the steps np.geomspace takes, without its generality: the same bits
    start, stop = np.log10(float(r_max)), np.log10(float(r_min))
    y = np.arange(operator.index(count), dtype=float)
    y *= (stop - start) / (count - 1)
    y += start
    y[-1] = stop
    grid = 10.0**y
    grid[0], grid[-1] = r_max, r_min
    return grid


@dataclass(eq=False)
class ArcSample:
    """Sampled points of one arc in C^2 with their Euclidean norms."""

    points: np.ndarray
    radii: np.ndarray = field(init=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=complex).reshape(-1, 2)
        self.radii = np.sqrt((np.abs(self.points) ** 2).sum(axis=1))

    def __len__(self):
        return len(self.points)


def _validate_grid(grid: np.ndarray):
    if grid.size == 0:
        raise ValueError("empty grid")
    # written so that NaN fails: every comparison with it is False; and
    # with comparisons only, infinite radii raise no numpy warning
    if not ((grid > 0).all() and (grid[1:] < grid[:-1]).all()):
        raise ValueError("grid must be strictly decreasing and positive")


def _validate_t_grid(grid: np.ndarray):
    _validate_grid(grid)
    if grid[0] > 0.5 * (1 + 1e-12):
        raise ValueError(
            f"grid starts at {grid[0]:.4g} > 0.5; germ sampling is only meaningful "
            "near the origin"
        )


def sample_branch_arc(
    b: PuiseuxBranch, conj: int = 0, angle: float = 0.0, grid=None
) -> ArcSample:
    """Evaluate (t^n, y(t)) on the ray t = zeta_n^conj * s * exp(i*angle/n).

    ``grid`` holds the t-radii s, strictly decreasing in (0, 0.5]; the
    x-coordinates of the resulting points sit at radius s^n and angle
    ``angle``.  By default s runs over the n-th roots of
    :func:`default_branch_grid`.
    """
    if grid is None:
        grid = default_branch_grid(b) ** (1.0 / b.n)
    s = np.asarray(grid, dtype=float)
    _validate_t_grid(s)
    t = np.exp(1j * (angle + 2.0 * math.pi * (conj % b.n)) / b.n) * s
    y = np.zeros_like(t)
    for m, coeff in b.terms:
        y = y + coeff.to_complex() * t**m
    return ArcSample(np.stack([t**b.n, y], axis=-1))


def gap_profile(a: ArcSample, b: ArcSample) -> np.ndarray:
    """Distance between the points of equal index in two samples of equal length."""
    if len(a) != len(b):
        raise ValueError(f"samples of {len(a)} and {len(b)} points cannot be compared")
    return np.sqrt((np.abs(a.points - b.points) ** 2).sum(axis=-1))


@dataclass(frozen=True)
class ContactEstimate:
    """Least-squares slope of ln(gap) against ln(r) with its fit quality."""

    slope: float
    r_squared: float
    window: tuple[float, float]

    def to_dict(self) -> dict:
        return {"slope": self.slope, "r_squared": self.r_squared, "window": list(self.window)}


def _fit_loglog(radii: np.ndarray, gaps: np.ndarray) -> ContactEstimate:
    if radii.size < _FIT_POINTS:
        raise ValueError(f"need at least {_FIT_POINTS} grid points for a contact estimate")
    if (gaps <= 0).any():
        raise ValueError("zero gap encountered: the sampled sets overlap")
    x, y = np.log(radii), np.log(gaps)
    if x.max() - x.min() == 0:
        raise ValueError("degenerate regression: all radii are equal")
    if y.max() - y.min() == 0:
        raise ValueError("degenerate regression: all gaps are equal")
    x, y = x - x.sum() / x.size, y - y.sum() / y.size
    slope = float(x @ y) / float(x @ x)
    residuals = y - slope * x
    r_squared = 1.0 - float(residuals @ residuals) / float(y @ y)
    return ContactEstimate(slope, r_squared, (float(radii.min()), float(radii.max())))


def estimate_contact(a: ArcSample, b: ArcSample, grid) -> ContactEstimate:
    """Estimate the contact of two sampled arcs over the radius grid they share.

    ``grid`` must be strictly decreasing and positive, one radius per point.
    """
    grid = np.asarray(grid, dtype=float)
    _validate_grid(grid)
    if grid.size != len(a):
        raise ValueError(f"grid of {grid.size} radii for samples of {len(a)} points")
    return _fit_loglog(grid, gap_profile(a, b))


def branch_gap_profile(
    b1: PuiseuxBranch, b2: PuiseuxBranch, radii, angles: int = DEFAULT_ANGLES
) -> np.ndarray:
    """Per-radius gap between the two branches at equal x.

    Over each x = r * exp(2*pi*i*j/angles) the branches have n1 and n2
    y-values; the gap at r is the smallest |y1 - y2| over those n1*n2
    pairs and over all angles j.  Each difference comes from the exact
    series b1 - conj_k(b2) = sum of d_e * s^e, x = s^n, n = lcm(n1, n2),
    at the n1*angles points s = rho * w^m, rho = r^(1/n) and
    w = exp(2*pi*i/(n*angles)), which lie over every x of the sweep (sheet
    m // angles of b1 against sheet m // angles + k of b2).  As s^e =
    w^(m*e mod n*angles) * rho^e, one product for all conjugates gives
    every difference: the complex U[k, m, e] = d_ke * w^(m*e), over the
    exponents that survive in some conjugate (d_ke = 0 where conjugate
    k's term cancels) and read from one cached table of roots of unity,
    times the real V[e, r] = rho^e.  ``angles`` is an int >= 1.
    Raises ValueError when a conjugate pair agrees in every known term
    (its gap is zero at every radius) and when a gap underflows the
    smallest normal double, naming the first radius where it does.
    """
    if not _is_int(angles):
        raise ValueError(f"angles must be an int, got {angles!r}")
    if angles < 1:
        raise ValueError(f"angles must be at least 1, got {angles}")
    radii = np.asarray(radii, dtype=float)
    # the radii first: a root of a negative radius would warn before raising
    _validate_grid(radii)
    for bn in dict.fromkeys((b1.n, b2.n)):
        _validate_t_grid(radii ** (1.0 / bn))
    n = math.lcm(b1.n, b2.n)
    rows = [dict(terms) for _, terms in _differences(b1, b2, range(b2.n))]
    for k, row in enumerate(rows):
        if not row:
            known = min(Fraction(b1.truncation, b1.n), Fraction(b2.truncation, b2.n))
            raise ValueError(
                f"zero gap: conjugate {k} of the second branch agrees with the first "
                f"in every known term, up to order {known} in x"
            )
    # one column per exponent that survives in some conjugate; a term
    # that cancels exactly is an exact 0 in its conjugate's row
    exps = sorted(set().union(*rows))
    table = np.array([[row[e].to_complex() if e in row else 0j for e in exps] for row in rows])
    exps = np.array(exps)
    roots = _roots(n * angles)
    m = np.arange(b1.n * angles)[:, None]
    u = table[:, None, :] * roots[m * exps % roots.size]
    rho = radii ** (1.0 / n)
    gaps = np.abs(u @ rho ** exps[:, None]).reshape(-1, radii.size).min(axis=0)
    low = np.flatnonzero(gaps < _GAP_FLOOR)
    if low.size:
        raise ValueError(
            f"the gap at r = {radii[low[0]]:.6g} underflows double precision: it is "
            f"{gaps[low[0]]:.6g}, below the floor {_GAP_FLOOR:.6g}; the branches agree "
            "too closely to resolve at this radius, so use larger radii"
        )
    return gaps


def default_branch_grid(*branches) -> np.ndarray:
    """Radius grid respecting the t-radius bound 0.5 for every branch."""
    n = max(b.n for b in branches)
    r_max = min(0.1, 0.5**n)
    if r_max <= DEFAULT_MIN_RADIUS:
        raise ValueError(
            f"no default radius grid for multiplicity {n}: 0.5^{n} = {r_max:.3g} "
            f"is not above the radius floor {DEFAULT_MIN_RADIUS:g}"
        )
    return geometric_grid(r_max, max(r_max * 1e-3, DEFAULT_MIN_RADIUS), 16)


def estimate_branch_contact(
    b1: PuiseuxBranch, b2: PuiseuxBranch, radii=None, angles: int = DEFAULT_ANGLES
) -> ContactEstimate:
    """Numeric contact estimate for a pair of branches.

    This is the finite-scale proxy for the metric contact; compare the
    slope against the exact value from :func:`curvegerm.contact.contact`.
    Radii below ``DEFAULT_MIN_RADIUS`` are dropped before the fit.
    """
    if radii is None:
        radii = default_branch_grid(b1, b2)
    radii = np.asarray(radii, dtype=float)
    # non-finite radii stay, so that the profile's grid check rejects them
    kept = radii[(radii >= DEFAULT_MIN_RADIUS) | ~np.isfinite(radii)]
    if radii.size and not kept.size:
        raise ValueError(
            f"the radius floor {DEFAULT_MIN_RADIUS:g} dropped all {radii.size} radii of the "
            "grid; a contact estimate needs radii at or above it"
        )
    if kept.size < radii.size and kept.size < _FIT_POINTS:
        raise ValueError(
            f"the radius floor {DEFAULT_MIN_RADIUS:g} dropped {radii.size - kept.size} of the "
            f"{radii.size} radii of the grid and kept {kept.size}; a contact estimate needs "
            f"at least {_FIT_POINTS} radii at or above it"
        )
    return _fit_loglog(kept, branch_gap_profile(b1, b2, kept, angles))


def radial_holder_map(a: ArcSample, exponent: float) -> ArcSample:
    """Apply p -> p * |p|**(exponent-1), a bi-(1/exponent)-Holder model map."""
    if not (math.isfinite(exponent) and exponent >= 1):
        raise ValueError(f"the radial exponent must be finite and at least 1, got {exponent}")
    scale = a.radii ** (exponent - 1.0)
    return ArcSample(a.points * scale[:, None])


@dataclass(frozen=True)
class DistortionReport:
    """Outcome of the contact-distortion check for a radial Holder map."""

    exponent: float
    alpha: float
    source: ContactEstimate
    image: ContactEstimate
    lower_ok: bool
    upper_ok: bool
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok

    def to_dict(self) -> dict:
        return {
            "beta": self.exponent,
            "alpha": self.alpha,
            "contact_source": self.source.to_dict(),
            "contact_image": self.image.to_dict(),
            "lower_ok": self.lower_ok,
            "upper_ok": self.upper_ok,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def check_contact_distortion(
    a: ArcSample, b: ArcSample, exponent: float, grid=None, tolerance: float = 0.1
) -> DistortionReport:
    """Verify that a radial Holder map distorts contact by at most alpha**2.

    With alpha = 1/exponent and c, c' the estimated contacts before and
    after the map, checks alpha**2 * c' <= c * (1+tol) and
    c <= c' / alpha**2 * (1+tol).
    """
    if grid is None:
        grid = geometric_grid(1e-1, 1e-3, 16)
    grid = np.asarray(grid, dtype=float)
    source = estimate_contact(a, b, grid)
    image_grid = grid**exponent
    image_gaps = gap_profile(radial_holder_map(a, exponent), radial_holder_map(b, exponent))
    kept = image_grid >= DEFAULT_MIN_RADIUS
    if kept.sum() < _FIT_POINTS:
        raise ValueError(
            f"the image grid r^{exponent:g} keeps only {kept.sum()} of {grid.size} radii "
            f"above the {DEFAULT_MIN_RADIUS:g} floor; a contact estimate needs at least "
            f"{_FIT_POINTS}"
        )
    image = _fit_loglog(image_grid[kept], image_gaps[kept])
    alpha = 1.0 / exponent
    lower_ok = alpha**2 * image.slope <= source.slope * (1 + tolerance)
    upper_ok = source.slope <= image.slope / alpha**2 * (1 + tolerance)
    return DistortionReport(exponent, alpha, source, image, lower_ok, upper_ok, tolerance)


def witness_arcs(b: PuiseuxBranch, index: int, radii=None):
    """Four arcs on the branch witnessing the characteristic exponent beta_j/n.

    The arcs come in a base copy, a quarter-turn of it, the conjugate
    twist that first moves the term at beta_j, and a three-quarter-turn
    combined with the same twist.  The gap between the base arc and the
    twisted one scales like r**(beta_j/n); the gap between the base arc
    and the quarter-turn scales like r.  ``index`` is 1-based and must
    not exceed the genus.
    """
    data = characteristic_data(b)
    if not 1 <= index <= data.genus:
        raise ValueError(
            f"characteristic index {index} out of range 1..{data.genus}"
            + (" (smooth branch has none)" if data.genus == 0 else "")
        )
    if radii is None:
        radii = default_branch_grid(b)
    s = np.asarray(radii, dtype=float) ** (1.0 / b.n)
    twist = math.prod(n for _, n in data.pairs[: index - 1])
    twisted = conjugate(b, twist)
    return (
        sample_branch_arc(b, 0, 0.0, s),
        sample_branch_arc(b, 0, math.pi / 2, s),
        sample_branch_arc(twisted, 0, 0.0, s),
        sample_branch_arc(twisted, 0, 3 * math.pi / 2, s),
    )
