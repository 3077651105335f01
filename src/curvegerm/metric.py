"""Floating-point contact estimation from sampled arcs.

The contact of two germs at the origin is the limiting slope of
ln(gap(r)) against ln(r), where gap(r) is the smallest distance between
points of the two sets of norm at least r.  This module samples arcs on
branches, evaluates the gap on geometric radius grids, and estimates the
slope by least squares, reporting the fit quality.  It is the numeric
cross-check for the exact coincidence computation, and it also exercises
the distortion bounds a radial Holder map must satisfy.

Everything here is double precision; by default radii below 1e-6 are
excluded so cancellation does not drown the signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from curvegerm.invariants import characteristic_data
from curvegerm.puiseux import PuiseuxBranch, conjugate

#: Radii below this are dropped from default grids.
DEFAULT_MIN_RADIUS = 1e-6

#: Default number of x-angles swept when estimating branch-pair contact.
DEFAULT_ANGLES = 64

#: Relative slack when selecting points of norm >= r, absorbing roundoff
#: in radii that were produced by n-th roots.
_RADIUS_SLACK = 1e-9


def geometric_grid(r_max: float = 1e-1, r_min: float = 1e-4, count: int = 16) -> np.ndarray:
    """Strictly decreasing geometric radius grid from r_max down to r_min."""
    if not 0 < r_min < r_max:
        raise ValueError("need 0 < r_min < r_max")
    if count < 2:
        raise ValueError("need at least two grid points")
    return np.geomspace(r_max, r_min, count)


@dataclass(eq=False)
class ArcSample:
    """Sampled points of one arc in C^2 with their Euclidean norms."""

    points: np.ndarray
    radii: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=complex).reshape(-1, 2)
        if self.radii is None:
            self.radii = np.sqrt((np.abs(self.points) ** 2).sum(axis=1))
        else:
            self.radii = np.asarray(self.radii, dtype=float)
            if self.radii.shape != (len(self.points),):
                raise ValueError("radii must match the point list")

    def __len__(self):
        return len(self.points)


def merge_samples(samples) -> ArcSample:
    """Union of several arc samples as a single point cloud."""
    samples = list(samples)
    if not samples:
        raise ValueError("nothing to merge")
    return ArcSample(
        np.concatenate([s.points for s in samples]),
        np.concatenate([s.radii for s in samples]),
        {"merged_from": len(samples)},
    )


def _validate_t_grid(grid: np.ndarray):
    if grid.size == 0:
        raise ValueError("empty grid")
    if np.any(grid <= 0) or np.any(np.diff(grid) >= 0):
        raise ValueError("grid must be strictly decreasing and positive")
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
    ``angle``.
    """
    if grid is None:
        grid = geometric_grid() ** (1.0 / b.n)
    s = np.asarray(grid, dtype=float)
    _validate_t_grid(s)
    phase = np.exp(1j * (angle + 2.0 * math.pi * (conj % b.n)) / b.n)
    t = phase * s
    x = t**b.n
    y = np.zeros_like(t)
    for m, coeff in b.terms:
        y = y + coeff.to_complex() * t**m
    points = np.column_stack([x, y])
    meta = {
        "branch": f"n={b.n}, exponents={list(b.exponents)}",
        "conjugation": conj % b.n,
        "angle": angle,
        "grid": {"start": float(s[0]), "stop": float(s[-1]), "count": int(s.size)},
    }
    return ArcSample(points, meta=meta)


def gap_function(a: ArcSample, b: ArcSample, r: float) -> float:
    """Smallest distance between points of the two samples of norm >= r."""
    pa = a.points[a.radii >= r * (1 - _RADIUS_SLACK)]
    pb = b.points[b.radii >= r * (1 - _RADIUS_SLACK)]
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError(f"no sampled points of norm >= {r:.4g} in one of the arcs")
    diff = pa[:, None, :] - pb[None, :, :]
    return float(np.sqrt((np.abs(diff) ** 2).sum(axis=-1)).min())


def gap_profile(a: ArcSample, b: ArcSample, grid) -> np.ndarray:
    """gap_function evaluated on every radius of the grid."""
    return np.array([gap_function(a, b, r) for r in np.asarray(grid, dtype=float)])


@dataclass(frozen=True)
class ContactEstimate:
    """Least-squares slope of ln(gap) against ln(r) with its fit quality."""

    slope: float
    r_squared: float
    window: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "r_squared": self.r_squared,
            "window": [self.window[0], self.window[1]],
        }


def _fit_loglog(radii: np.ndarray, gaps: np.ndarray) -> ContactEstimate:
    if radii.size < 8:
        raise ValueError("need at least 8 grid points for a contact estimate")
    if np.any(gaps <= 0):
        raise ValueError("zero gap encountered: the sampled sets overlap")
    lr, lg = np.log(radii), np.log(gaps)
    if np.ptp(lg) == 0:
        raise ValueError("degenerate regression: all gaps are equal")
    slope, intercept = np.polyfit(lr, lg, 1)
    residuals = lg - (slope * lr + intercept)
    r_squared = 1.0 - float((residuals**2).sum()) / float(((lg - lg.mean()) ** 2).sum())
    return ContactEstimate(float(slope), r_squared, (float(radii.min()), float(radii.max())))


def estimate_contact(a: ArcSample, b: ArcSample, grid) -> ContactEstimate:
    """Estimate the contact of two sampled arcs over the given radius grid."""
    grid = np.asarray(grid, dtype=float)
    return _fit_loglog(grid, gap_profile(a, b, grid))


def _branch_cloud(b: PuiseuxBranch, radii: np.ndarray, angles: int) -> np.ndarray:
    """Stacked points, shape (arcs, radii, 2), aligned on the x-radius grid."""
    s = radii ** (1.0 / b.n)
    rows = []
    for conj in range(b.n):
        for k in range(angles):
            theta = 2.0 * math.pi * k / angles
            rows.append(sample_branch_arc(b, conj, theta, s).points)
    return np.stack(rows)


def branch_gap_profile(
    b1: PuiseuxBranch,
    b2: PuiseuxBranch,
    radii,
    angles: int = DEFAULT_ANGLES,
) -> np.ndarray:
    """Per-radius minimal distance between the two branches.

    Every conjugate of each branch is sampled on a common x-radius grid
    and a common sweep of x-angles; the gap at each radius is the
    minimum over all point pairs at that radius.
    """
    if angles < 1:
        raise ValueError(f"angles must be at least 1, got {angles}")
    radii = np.asarray(radii, dtype=float)
    c1 = _branch_cloud(b1, radii, angles)
    c2 = _branch_cloud(b2, radii, angles)
    gaps = np.empty(radii.size)
    for k in range(radii.size):
        diff = c1[:, k, None, :] - c2[None, :, k, :]
        gaps[k] = np.sqrt((np.abs(diff) ** 2).sum(axis=-1)).min()
    return gaps


def default_branch_grid(*branches, count: int = 16) -> np.ndarray:
    """Radius grid respecting the t-radius bound 0.5 for every branch."""
    n = max(b.n for b in branches)
    r_max = min(0.1, 0.5**n)
    if r_max <= DEFAULT_MIN_RADIUS:
        raise ValueError(
            f"no default radius grid for multiplicity {n}: 0.5^{n} = {r_max:.3g} "
            f"is not above the radius floor {DEFAULT_MIN_RADIUS:g}"
        )
    return geometric_grid(r_max, max(r_max * 1e-3, DEFAULT_MIN_RADIUS), count)


def estimate_branch_contact(
    b1: PuiseuxBranch,
    b2: PuiseuxBranch,
    radii=None,
    angles: int = DEFAULT_ANGLES,
    min_radius: float = DEFAULT_MIN_RADIUS,
) -> ContactEstimate:
    """Numeric contact estimate for a pair of branches.

    This is the finite-scale proxy for the metric contact; compare the
    slope against the exact value from :func:`curvegerm.contact.contact`.
    """
    if radii is None:
        radii = default_branch_grid(b1, b2)
    radii = np.asarray(radii, dtype=float)
    radii = radii[radii >= min_radius]
    return _fit_loglog(radii, branch_gap_profile(b1, b2, radii, angles))


def radial_holder_map(a: ArcSample, exponent: float) -> ArcSample:
    """Apply p -> p * |p|**(exponent-1), a bi-(1/exponent)-Holder model map."""
    if exponent < 1:
        raise ValueError("the radial exponent must be at least 1")
    scale = a.radii ** (exponent - 1.0)
    meta = dict(a.meta)
    meta["radial_exponent"] = exponent
    return ArcSample(a.points * scale[:, None], meta=meta)


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
    a: ArcSample,
    b: ArcSample,
    exponent: float,
    grid=None,
    tolerance: float = 0.1,
    min_radius: float = DEFAULT_MIN_RADIUS,
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
    image_grid = image_grid[image_grid >= min_radius]
    image = estimate_contact(
        radial_holder_map(a, exponent), radial_holder_map(b, exponent), image_grid
    )
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
    arcs = (
        sample_branch_arc(b, 0, 0.0, s),
        sample_branch_arc(b, 0, math.pi / 2, s),
        sample_branch_arc(twisted, 0, 0.0, s),
        sample_branch_arc(twisted, 0, 3 * math.pi / 2, s),
    )
    roles = ("base", "quarter_turn", "conjugate_twist", "twisted_three_quarter_turn")
    for arc, role in zip(arcs, roles):
        arc.meta["role"] = role
        arc.meta["characteristic_index"] = index
    return arcs
