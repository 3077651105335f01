import itertools
import math
import pathlib
import warnings

import numpy as np
import pytest

from curvegerm import (
    ArcSample,
    branch,
    branch_gap_profile,
    characteristic_data,
    check_contact_distortion,
    contact,
    default_branch_grid,
    estimate_branch_contact,
    estimate_contact,
    gap_profile,
    geometric_grid,
    load_germ,
    radial_holder_map,
    sample_branch_arc,
    witness_arcs,
    zeta,
)
from curvegerm.metric import DEFAULT_MIN_RADIUS, _fit_loglog
from curvegerm.puiseux import _differences, difference_series

DEMO_DATA = pathlib.Path(__file__).resolve().parents[1] / "demos" / "data"
DEMO_BRANCHES = [b for path in sorted(DEMO_DATA.glob("*.json")) for b in load_germ(path).branches]


def axis(truncation=32, field_order=1):
    return branch(1, [], truncation=truncation, field_order=field_order)


def test_sample_axis_arc_lies_on_the_ray():
    grid = geometric_grid(0.4, 1e-3, 12)
    arc = sample_branch_arc(axis(), 0, math.pi / 3, grid)
    expected_x = grid * np.exp(1j * math.pi / 3)
    assert np.allclose(arc.points[:, 0], expected_x, rtol=1e-14, atol=0)
    assert np.all(arc.points[:, 1] == 0)
    assert np.allclose(arc.radii, grid, rtol=1e-14, atol=0)


def test_sample_cusp_point_values():
    arc = sample_branch_arc(branch(2, [(5, 1)], truncation=8), 0, 0.0, np.array([0.1]))
    assert abs(arc.points[0, 0] - 0.01) < 1e-12
    assert abs(arc.points[0, 1] - 1e-5) < 1e-12

    conj_arc = sample_branch_arc(branch(2, [(3, 1)], truncation=8), 1, 0.0, np.array([0.1]))
    assert abs(conj_arc.points[0, 0] - 0.01) < 1e-12
    assert abs(conj_arc.points[0, 1] + 1e-3) < 1e-12


def test_sample_radii_match_norms():
    arc = sample_branch_arc(branch(2, [(3, 1)], truncation=8), 0, 1.0, geometric_grid(0.3, 1e-3, 10))
    norms = np.sqrt((np.abs(arc.points) ** 2).sum(axis=1))
    assert np.allclose(arc.radii, norms, rtol=1e-12, atol=0)


def test_sample_grid_validation():
    b = axis()
    with pytest.raises(ValueError, match="empty"):
        sample_branch_arc(b, 0, 0.0, np.array([]))
    with pytest.raises(ValueError, match="decreasing"):
        sample_branch_arc(b, 0, 0.0, np.array([0.01, 0.1]))
    with pytest.raises(ValueError, match="0.5"):
        sample_branch_arc(b, 0, 0.0, np.array([0.9, 0.1]))


@pytest.mark.parametrize("n", range(1, 8))
def test_sample_branch_arc_default_grid(n):
    # from multiplicity 4, the n-th roots of geometric_grid() start above 0.5
    b = branch(n, [(n + 1, 1)], truncation=n + 2)
    arc = sample_branch_arc(b)
    assert np.allclose(np.abs(arc.points[:, 0]), default_branch_grid(b), rtol=1e-12, atol=0)
    if n <= 3:
        assert np.array_equal(default_branch_grid(b), geometric_grid())


def norm_gap_oracle(a, b, grid):
    """Reference gap: for each r, the smallest distance between points of
    the two samples of norm at least r (with a relative slack of 1e-9 for
    roundoff in radii made by n-th roots).  On the samples the callers
    build, the equal-index gap of ``gap_profile`` equals it bit for bit."""
    gaps = []
    for r in grid:
        pa = a.points[a.radii >= r * (1 - 1e-9)]
        pb = b.points[b.radii >= r * (1 - 1e-9)]
        diff = pa[:, None, :] - pb[None, :, :]
        gaps.append(np.sqrt((np.abs(diff) ** 2).sum(axis=-1)).min())
    return np.array(gaps)


# The all-pairs gap that branch_gap_profile computed before it paired
# points over equal x: every conjugate of each branch sampled on the same
# x-radii and x-angles, and at each radius the smallest distance in C^2
# over all (n1*angles) * (n2*angles) point pairs.  Kept here as an oracle.


def _branch_cloud(b, radii, angles):
    """Stacked points (t^n, y(t)), shape (arcs, radii, 2), aligned on the x-radius grid."""
    s = radii ** (1.0 / b.n)
    arcs = [(conj, 2.0 * math.pi * k / angles) for conj in range(b.n) for k in range(angles)]
    t = np.array([np.exp(1j * (a + 2.0 * math.pi * (c % b.n)) / b.n) for c, a in arcs])
    t = t[:, None] * s
    y = np.zeros_like(t)
    for m, coeff in b.terms:
        y = y + coeff.to_complex() * t**m
    return np.stack([t**b.n, y], axis=-1)


def _gap_kernel(c1, c2):
    """Per radius index, the smallest distance between the two clouds' points there."""
    gaps = np.empty(c1.shape[1])
    for k in range(gaps.size):
        diff = c1[:, k, None, :] - c2[None, :, k, :]
        gaps[k] = np.sqrt((np.abs(diff) ** 2).sum(axis=-1)).min()
    return gaps


def test_gap_kernel_against_brute_force():
    b1 = branch(2, [(3, 1), (4, zeta(3))], truncation=8, field_order=6)
    b2 = branch(3, [(4, 1)], truncation=8, field_order=6)
    radii = geometric_grid(0.1, 1e-3, 5)
    c1, c2 = _branch_cloud(b1, radii, 3), _branch_cloud(b2, radii, 3)
    assert c1.shape == (6, 5, 2) and c2.shape == (9, 5, 2)
    gaps = _gap_kernel(c1, c2)

    def real(p):
        return (p[0].real, p[0].imag, p[1].real, p[1].imag)

    for k in range(radii.size):
        brute = min(math.dist(real(p), real(q)) for p in c1[:, k] for q in c2[:, k])
        assert gaps[k] == pytest.approx(brute, rel=1e-12)
        # the equal-x pairs, from the points themselves
        equal_x = min(
            abs(p[1] - q[1])
            for p in c1[:, k]
            for q in c2[:, k]
            if abs(p[0] - q[0]) <= 1e-12 * radii[k]
        )
        assert branch_gap_profile(b1, b2, radii, 3)[k] == pytest.approx(equal_x, rel=1e-12)
    assert np.allclose(branch_gap_profile(b1, b2, radii, 3), gaps, rtol=1e-12, atol=0)


def test_branch_cloud_stacks_the_sampled_arcs():
    for b in DEMO_BRANCHES + [branch(2, [(3, zeta(5)), (4, 1)], truncation=8)]:
        radii = default_branch_grid(b)
        s = radii ** (1.0 / b.n)
        arcs = [
            sample_branch_arc(b, conj, 2.0 * math.pi * k / 5, s).points
            for conj in range(b.n)
            for k in range(5)
        ]
        assert np.array_equal(_branch_cloud(b, radii, 5), np.stack(arcs))


def test_branch_gap_profile_matches_the_all_pairs_gap_on_demo_pairs():
    compared = coincident = 0
    for b1, b2 in itertools.permutations(DEMO_BRANCHES, 2):
        radii = default_branch_grid(b1, b2)
        c1, c2 = _branch_cloud(b1, radii, 64), _branch_cloud(b2, radii, 64)
        old = _gap_kernel(c1, c2)
        try:
            new = branch_gap_profile(b1, b2, radii)
        except ValueError as exc:
            assert "zero gap: conjugate 0" in str(exc)
            assert np.all(old == 0)
            coincident += 1
            continue
        size = np.maximum(np.abs(c1[..., 1]).max(axis=0), np.abs(c2[..., 1]).max(axis=0))
        resolved = old > 1e-8 * size
        assert np.allclose(new[resolved], old[resolved], rtol=1e-9, atol=0)
        compared += int(resolved.sum())
    # the axis appears in three demo files and the parabola in two
    assert coincident == 3 * 2 + 2
    assert compared == (10 * 9 - 8) * 16


# The kernel that branch_gap_profile used before it read its angles from
# a root-of-unity table: one complex power s**e per term on the full
# (sample, radius) array, with the angle of s**e reduced in floating
# point.  Kept here as an oracle.


def _power_kernel(b1, b2, radii, angles):
    n = math.lcm(b1.n, b2.n)
    phases = np.exp(2j * math.pi * np.arange(b1.n * angles) / (n * angles))
    s = phases[:, None] * radii ** (1.0 / n)
    gaps = np.full(radii.size, np.inf)
    for k in range(b2.n):
        dy = sum(d.to_complex() * s**e for e, d in difference_series(b1, b2, k)[1])
        gaps = np.minimum(gaps, np.abs(dy).min(axis=0))
    return gaps


def test_branch_gap_profile_matches_the_power_kernel_on_demo_pairs():
    compared = coincident = 0
    for b1, b2 in itertools.permutations(DEMO_BRANCHES, 2):
        radii = default_branch_grid(b1, b2)
        try:
            new = branch_gap_profile(b1, b2, radii)
        except ValueError as exc:
            assert "zero gap: conjugate 0" in str(exc)
            coincident += 1
            continue
        assert np.allclose(new, _power_kernel(b1, b2, radii, 64), rtol=1e-12, atol=0)
        compared += 1
    assert (coincident, compared) == (3 * 2 + 2, 10 * 9 - 8)


def test_branch_gap_profile_matches_the_power_kernel_on_mixed_multiplicities(generated_germs):
    shapes = set()
    for _, g, _ in generated_germs:
        for b1, b2 in itertools.permutations(g.branches, 2):
            if b1.n != b2.n:
                radii = default_branch_grid(b1, b2)
                old = _power_kernel(b1, b2, radii, 64)
                assert np.allclose(branch_gap_profile(b1, b2, radii), old, rtol=1e-12, atol=0)
                shapes.add((b1.n, b2.n))
    # every ordered pair of distinct multiplicities from 1 to 4
    assert len(shapes) == 12


# The kernel that branch_gap_profile used before it took one product for
# all conjugates: one walk of the difference series and one matrix
# product per conjugate, over that conjugate's own exponents.  Kept here
# as an oracle that the stacked product must match bit for bit.


def _conjugate_kernel(b1, b2, radii, angles, series):
    """``series`` holds the terms of difference_series(b1, b2, k) for each k."""
    n = math.lcm(b1.n, b2.n)
    roots = np.exp(2j * math.pi * np.arange(n * angles) / (n * angles))
    m = np.arange(b1.n * angles)[:, None]
    rho = radii ** (1.0 / n)
    gaps = np.full(radii.size, np.inf)
    for terms in series:
        exps = np.array([e for e, _ in terms])
        u = np.array([d.to_complex() for _, d in terms]) * roots[m * exps % roots.size]
        gaps = np.minimum(gaps, np.abs(u @ rho ** exps[:, None]).min(axis=0))
    return gaps


def _profiles_match_the_conjugate_kernel(pairs, angles):
    """Counts of pairs compared bit for bit, of pairs whose gap underflows
    and of pairs with a zero gap."""
    compared = underflowed = coincident = 0
    for b1, b2 in pairs:
        radii = default_branch_grid(b1, b2)
        series = [difference_series(b1, b2, k)[1] for k in range(b2.n)]
        empty = [k for k, terms in enumerate(series) if not terms]
        if empty:
            with pytest.raises(ValueError, match=f"zero gap: conjugate {empty[0]} "):
                branch_gap_profile(b1, b2, radii, angles)
            coincident += 1
            continue
        old = _conjugate_kernel(b1, b2, radii, angles, series)
        if (old < np.finfo(float).tiny).any():
            with pytest.raises(ValueError, match="underflows double precision"):
                branch_gap_profile(b1, b2, radii, angles)
            underflowed += 1
            continue
        assert np.array_equal(branch_gap_profile(b1, b2, radii, angles), old)
        compared += 1
    return compared, underflowed, coincident


@pytest.mark.parametrize("angles", [1, 3, 64])
def test_branch_gap_profile_matches_the_conjugate_kernel_on_demo_pairs(angles):
    pairs = itertools.permutations(DEMO_BRANCHES, 2)
    assert _profiles_match_the_conjugate_kernel(pairs, angles) == (10 * 9 - 8, 0, 3 * 2 + 2)


@pytest.mark.parametrize("angles", [1, 3, 64])
def test_branch_gap_profile_matches_the_conjugate_kernel_on_generated_germs(
    generated_germs, angles
):
    pairs = [p for _, g, _ in generated_germs for p in itertools.permutations(g.branches, 2)]
    compared, underflowed, coincident = _profiles_match_the_conjugate_kernel(pairs, angles)
    # branches of one germ are never conjugate, so no pair has a zero gap
    assert (compared + underflowed, coincident) == (len(pairs), 0)
    assert underflowed < compared


def test_differences_is_one_walk_for_every_conjugate(generated_germs):
    cancelled = 0
    for _, g, _ in generated_germs:
        for b1, b2 in itertools.permutations(g.branches, 2):
            walked = _differences(b1, b2, range(b2.n))
            assert len(walked) == b2.n
            for k, series in enumerate(walked):
                assert difference_series(b1, b2, k) == series
            # conjugates beyond 0..n2-1 reduce mod n2
            assert _differences(b1, b2, (b2.n + 1, -1)) == [walked[1 % b2.n], walked[-1]]
            cancelled += len({e for _, t in walked for e, _ in t}) > min(len(t) for _, t in walked)
    # some conjugate loses a term that survives in another
    assert cancelled > 0


def test_geometric_grid_is_geomspace_bit_for_bit():
    rng = np.random.default_rng(18)
    for _ in range(2000):
        r_max, r_min = sorted(10 ** rng.uniform(-12, 1, 2), reverse=True)
        count = int(rng.integers(2, 64))
        grid = geometric_grid(r_max, r_min, count)
        expected = np.geomspace(r_max, r_min, count)
        assert grid.dtype == expected.dtype and np.array_equal(grid, expected)
    # neighbouring doubles, int bounds and a numpy count
    tight = np.nextafter(0.25, 0)
    assert np.array_equal(geometric_grid(0.25, tight, 5), np.geomspace(0.25, tight, 5))
    assert np.array_equal(geometric_grid(1, 1e-3, 7), np.geomspace(1, 1e-3, 7))
    assert np.array_equal(geometric_grid(0.1, 1e-4, np.int64(16)), geometric_grid())


@pytest.mark.parametrize("count", [16.0, "16"])
def test_geometric_grid_needs_an_int_count(count):
    with pytest.raises(TypeError):
        geometric_grid(0.1, 1e-4, count)


def test_closed_form_fit_matches_polyfit():
    rng = np.random.default_rng(14)
    for _ in range(200):
        radii = np.sort(rng.uniform(1e-6, 0.5, rng.integers(8, 40)))[::-1]
        gaps = radii ** rng.uniform(0.5, 12) * np.exp(rng.normal(0, 0.5, radii.size))
        x, y = np.log(radii), np.log(gaps)
        slope, intercept = np.polyfit(x, y, 1)
        residuals = y - (slope * x + intercept)
        r_squared = 1 - (residuals**2).sum() / ((y - y.mean()) ** 2).sum()
        est = _fit_loglog(radii, gaps)
        assert est.slope == pytest.approx(slope, rel=1e-12)
        assert abs(est.r_squared - r_squared) <= 1e-12
        assert est.window == (radii[-1], radii[0])


def test_fit_rejects_a_grid_of_equal_radii():
    # the gaps differ, but a line through ten points at one radius has no slope
    with pytest.raises(ValueError, match="degenerate regression: all radii are equal"):
        _fit_loglog(np.full(10, 0.01), np.linspace(1, 2, 10))
    # estimate_contact turns such a grid away before it fits
    a = ArcSample(np.zeros((10, 2)))
    b = ArcSample(np.column_stack([np.zeros(10), np.linspace(1, 2, 10)]))
    with pytest.raises(ValueError, match="grid must be strictly decreasing and positive"):
        estimate_contact(a, b, np.full(10, 0.01))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_radii_are_rejected(bad):
    parabola = branch(1, [(2, 1)], truncation=8)
    radii = geometric_grid(0.1, 1e-3, 12)
    radii[5] = bad
    message = "grid must be strictly decreasing and positive"
    with pytest.raises(ValueError, match=message):
        branch_gap_profile(axis(), parabola, radii)
    # the radius floor does not drop a non-finite radius and fit the rest
    with pytest.raises(ValueError, match=message):
        estimate_branch_contact(axis(), parabola, radii)
    with pytest.raises(ValueError, match=message):
        sample_branch_arc(parabola, 0, 0.0, radii)


def replaced(grid, k, value):
    grid = grid.copy()
    grid[k] = value
    return grid


@pytest.mark.parametrize(
    "bad",
    [lambda g: replaced(g, 4, -g[4]), lambda g: replaced(g, 4, math.nan), lambda g: g[::-1]],
    ids=["negative", "nan", "reversed"],
)
def test_estimate_contact_checks_its_grid(bad):
    # the axis against the parabola: a reversed grid used to fit slope -2
    # with r^2 = 1, a negative or NaN radius slope and r^2 NaN
    grid = geometric_grid(0.1, 1e-3, 10)
    a = sample_branch_arc(axis(), 0, 0.0, grid)
    b = sample_branch_arc(branch(1, [(2, 1)], truncation=8), 0, 0.0, grid)
    message = "grid must be strictly decreasing and positive"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            estimate_contact(a, b, bad(grid))
        with pytest.raises(ValueError, match=message):
            check_contact_distortion(a, b, 1.5, bad(grid))


def test_branch_gap_profile_checks_the_radii_before_taking_roots():
    # with n = 2, sqrt of a negative radius used to warn before the error
    cusp = branch(2, [(3, 1)], truncation=8)
    other = branch(2, [(5, 1)], truncation=8)
    radii = -geometric_grid(0.1, 1e-3, 10) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="grid must be strictly decreasing and positive"):
            branch_gap_profile(cusp, other, radii)


@pytest.mark.parametrize("bounds", [(math.inf, 1e-4), (math.nan, 1e-4), (0.1, math.nan)])
def test_geometric_grid_needs_finite_bounds(bounds):
    with pytest.raises(ValueError, match="need 0 < r_min < r_max < inf"):
        geometric_grid(*bounds, 16)


@pytest.mark.parametrize("angles", [2.5, True, 64.0, "64"])
def test_angles_must_be_an_int(angles):
    b1, b2 = axis(), branch(1, [(2, 1)], truncation=8)
    with pytest.raises(ValueError, match=f"angles must be an int, got {angles!r}"):
        branch_gap_profile(b1, b2, geometric_grid(0.1, 1e-3, 12), angles)
    with pytest.raises(ValueError, match=f"angles must be an int, got {angles!r}"):
        estimate_branch_contact(b1, b2, angles=angles)


@pytest.mark.parametrize("h", range(2, 13))
def test_high_contact_is_resolved(h):
    parabola = branch(1, [(2, 1)], truncation=16)
    other = branch(1, [(2, 2)] if h == 2 else [(2, 1), (h, 1)], truncation=max(16, h))
    est = estimate_branch_contact(parabola, other)
    assert abs(est.slope - h) < 0.1
    assert est.r_squared >= 0.99


def test_radius_floor_names_the_radii_it_drops():
    parabola = branch(1, [(2, 1)], truncation=8)
    with pytest.raises(ValueError, match="the radius floor 1e-06 dropped all 16 radii"):
        estimate_branch_contact(axis(), parabola, geometric_grid(1e-7, 1e-9, 16))
    # a floor that leaves too few radii of a longer grid names both counts
    with pytest.raises(
        ValueError,
        match=r"the radius floor 1e-06 dropped 12 of the 16 radii of the grid and kept 4; "
        r"a contact estimate needs at least 8 radii at or above it",
    ):
        estimate_branch_contact(axis(), parabola, geometric_grid(1e-5, 1e-9, 16))
    # a grid that was empty to begin with is still an empty grid
    with pytest.raises(ValueError, match="empty grid"):
        estimate_branch_contact(axis(), parabola, [])
    # radii the floor keeps are fitted, with the window they span
    est = estimate_branch_contact(axis(), parabola, geometric_grid(1e-1, 1e-9, 25))
    assert est.window == (pytest.approx(DEFAULT_MIN_RADIUS), 1e-1)
    assert abs(est.slope - 2) < 0.1


def test_zero_gap_names_the_conjugate():
    cusp = branch(2, [(3, 1)], truncation=5)
    with pytest.raises(ValueError, match="conjugate 1 of the second branch .* order 5/2 in x"):
        branch_gap_profile(cusp, branch(2, [(3, -1)], truncation=8), default_branch_grid(cusp))
    longer = branch(2, [(3, 1), (7, 1)], truncation=8)
    assert np.all(branch_gap_profile(cusp, longer, default_branch_grid(cusp)) > 0)


def test_underflowed_gap_names_the_radius_and_the_floor():
    # x^100 at r = 10^-3.2 is 1e-320, a subnormal double, and 0.0 below it
    parabola = branch(1, [(2, 1)], truncation=200)
    other = branch(1, [(2, 1), (100, 1)], truncation=200)
    grid = default_branch_grid(parabola, other)
    first = grid[np.flatnonzero(grid**100 < np.finfo(float).tiny)[0]]
    message = (
        f"the gap at r = {first:.6g} underflows double precision: it is .* below the "
        f"floor {np.finfo(float).tiny:.6g}"
    )
    with pytest.raises(ValueError, match=message):
        estimate_branch_contact(parabola, other)
    with pytest.raises(ValueError, match=message):
        branch_gap_profile(parabola, other, grid)
    assert np.all(branch_gap_profile(parabola, other, grid[grid > 0.01]) > 0)


def test_branch_gap_profile_keeps_terms_past_the_shorter_truncation():
    # difference_order stops at x^(3/2), the end of the cusp's known terms
    cusp = load_germ(DEMO_DATA / "cusp_2_3.json").branches[0]
    genus_two = load_germ(DEMO_DATA / "genus_two.json").branches[0]
    est = estimate_branch_contact(cusp, genus_two)
    assert abs(est.slope - 1.75) < 0.01


def test_gap_profile_of_identical_samples_is_zero():
    grid = geometric_grid(0.1, 1e-3, 12)
    a = sample_branch_arc(axis(), 0, 0.0, grid)
    assert np.array_equal(gap_profile(a, a), np.zeros(12))


def test_gap_is_monotone_under_extra_points():
    # the four-angle sweep contains every point of the two-angle one
    b1, b2 = axis(field_order=2), branch(2, [(3, 1)], truncation=8)
    radii = geometric_grid(0.1, 1e-3, 12)
    assert np.all(branch_gap_profile(b1, b2, radii, 4) <= branch_gap_profile(b1, b2, radii, 2))


def test_gap_profile_matches_the_norm_gap_on_witness_arcs():
    profiles = 0
    for b in DEMO_BRANCHES:
        radii = default_branch_grid(b)
        for index in range(1, characteristic_data(b).genus + 1):
            for x, y in itertools.combinations(witness_arcs(b, index, radii), 2):
                assert np.array_equal(gap_profile(x, y), norm_gap_oracle(x, y, radii))
                profiles += 1
    assert profiles == 6 * 5


@pytest.mark.parametrize("beta", [1.0, 1.25, 2.0, 3.0])
def test_gap_profile_matches_the_norm_gap_on_distortion_inputs(beta):
    grid = geometric_grid(1e-1, 1e-3, 16)
    image_grid = grid**beta
    kept = image_grid >= DEFAULT_MIN_RADIUS
    arcs = [sample_branch_arc(b, 0, 0.0, grid ** (1.0 / b.n)) for b in DEMO_BRANCHES if b.n <= 3]
    for a, b in itertools.product(arcs, repeat=2):
        assert np.array_equal(gap_profile(a, b), norm_gap_oracle(a, b, grid))
        ma, mb = radial_holder_map(a, beta), radial_holder_map(b, beta)
        image = gap_profile(ma, mb)[kept]
        assert np.array_equal(image, norm_gap_oracle(ma, mb, image_grid[kept]))


def test_gap_profile_rejects_samples_of_different_lengths():
    grid = geometric_grid(0.1, 1e-3, 10)
    a = sample_branch_arc(axis(), 0, 0.0, grid)
    b = sample_branch_arc(branch(1, [(2, 1)], truncation=8), 0, 0.0, grid)
    with pytest.raises(ValueError, match="grid of 8 radii for samples of 10 points"):
        estimate_contact(a, b, grid[:8])
    short = sample_branch_arc(axis(), 0, 0.0, grid[:9])
    with pytest.raises(ValueError, match="samples of 10 and 9 points"):
        gap_profile(a, short)


def test_estimate_contact_on_smooth_pairs():
    grid = geometric_grid(1e-1, 1e-4, 16)
    a = sample_branch_arc(axis(), 0, 0.0, grid)
    parabola = sample_branch_arc(branch(1, [(2, 1)], truncation=8), 0, 0.0, grid)
    cubic = sample_branch_arc(branch(1, [(3, 1)], truncation=8), 0, 0.0, grid)

    est = estimate_contact(a, parabola, grid)
    assert abs(est.slope - 2.0) < 0.05
    assert est.window == (pytest.approx(1e-4), pytest.approx(1e-1))

    assert abs(estimate_contact(a, cubic, grid).slope - 3.0) < 0.08

    ray = sample_branch_arc(axis(), 0, 1.0, grid)
    assert abs(estimate_contact(a, ray, grid).slope - 1.0) < 0.05


def test_estimate_contact_validations():
    grid = geometric_grid(1e-1, 1e-2, 6)
    a = sample_branch_arc(axis(), 0, 0.0, grid)
    b = sample_branch_arc(branch(1, [(2, 1)], truncation=8), 0, 0.0, grid)
    with pytest.raises(ValueError, match="8 grid points"):
        estimate_contact(a, b, grid)

    grid16 = geometric_grid(1e-1, 1e-4, 16)
    a16 = sample_branch_arc(axis(), 0, 0.0, grid16)
    with pytest.raises(ValueError, match="overlap"):
        estimate_contact(a16, a16, grid16)


def test_degenerate_regression_is_reported():
    # two parallel horizontal lines at distance 1: every gap equals 1
    points_a = np.column_stack([np.linspace(1, 2, 10) + 0j, np.zeros(10) + 0j])
    points_b = np.column_stack([np.linspace(1, 2, 10) + 0j, np.ones(10) + 0j])
    a, b = ArcSample(points_a), ArcSample(points_b)
    with pytest.raises(ValueError, match="degenerate"):
        estimate_contact(a, b, np.linspace(1.4, 1.0, 10))


def test_branch_estimates_track_the_exact_contact():
    pairs = [
        (axis(field_order=2), branch(1, [(1, 1)], truncation=8, field_order=2), None),
        (axis(field_order=2), branch(2, [(3, 1)], truncation=8), 1.5),
        (axis(), branch(1, [(2, 1)], truncation=8), 2.0),
        (axis(field_order=2), branch(2, [(5, 1)], truncation=8), 2.5),
        (axis(), branch(1, [(3, 1)], truncation=8), 3.0),
    ]
    grid = geometric_grid(1e-1, 1e-4, 16)
    for b1, b2, expected in pairs:
        est = estimate_branch_contact(b1, b2, grid)
        exact = float(contact(b1, b2)) if expected is None else expected
        assert abs(est.slope - exact) < 0.1
        assert est.r_squared >= 0.99


def test_radial_map_identity_and_norm_scaling():
    grid = geometric_grid(0.1, 1e-3, 12)
    arc = sample_branch_arc(branch(1, [(2, 1)], truncation=8), 0, 0.0, grid)
    same = radial_holder_map(arc, 1.0)
    assert np.array_equal(same.points, arc.points)

    mapped = radial_holder_map(arc, 2.0)
    assert np.allclose(mapped.radii, arc.radii**2, rtol=1e-12)
    scale = (arc.radii**1)[:, None]
    assert np.allclose(mapped.points, arc.points * scale, rtol=1e-12)
    with pytest.raises(ValueError):
        radial_holder_map(arc, 0.5)


@pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf])
def test_radial_map_rejects_non_finite_exponents(exponent):
    arc = sample_branch_arc(axis(), 0, 0.0, geometric_grid(0.1, 1e-3, 12))
    with pytest.raises(ValueError, match=f"got {exponent}"):
        radial_holder_map(arc, exponent)


def test_radial_map_changes_contact_as_predicted():
    grid = geometric_grid(1e-1, 1e-3, 16)
    a = sample_branch_arc(axis(), 0, 0.0, grid)
    b = sample_branch_arc(branch(1, [(2, 1)], truncation=8), 0, 0.0, grid)
    image_grid = (grid**2)[grid**2 >= 1e-6]
    est = estimate_contact(radial_holder_map(a, 2.0), radial_holder_map(b, 2.0), image_grid)
    assert abs(est.slope - 1.5) < 0.1


@pytest.mark.parametrize("beta", [1.0, 1.25, 2.0])
def test_contact_distortion_bounds_hold(beta):
    grid = geometric_grid(1e-1, 1e-3, 16)
    a = sample_branch_arc(axis(), 0, 0.0, grid)
    b = sample_branch_arc(branch(1, [(2, 1)], truncation=8), 0, 0.0, grid)
    report = check_contact_distortion(a, b, beta, grid)
    assert report.passed
    assert abs(report.source.slope - 2.0) < 0.1
    assert abs(report.image.slope - (beta + 1) / beta) < 0.1


def test_witness_arcs_slopes_match_the_characteristic_exponent():
    b = branch(2, [(5, 1)], truncation=8)
    radii = default_branch_grid(b)
    base, quarter, twisted, counter = witness_arcs(b, 1, radii)
    assert abs(estimate_contact(base, twisted, radii).slope - 2.5) < 0.1
    assert abs(estimate_contact(base, quarter, radii).slope - 1.0) < 0.05
    # the fourth arc turns the twisted one by three quarters: x by -i
    assert np.allclose(counter.points[:, 0], -1j * base.points[:, 0], rtol=1e-12)
    # the twisted arc starts on the other sheet: sign flip on t^5
    assert np.allclose(twisted.points[:, 1], -base.points[:, 1], rtol=1e-12)
    # the quarter turn rotates x by i
    assert np.allclose(quarter.points[:, 0], 1j * base.points[:, 0], rtol=1e-12)


def test_branch_gap_profile_needs_an_angle():
    with pytest.raises(ValueError, match="angles must be at least 1, got 0"):
        branch_gap_profile(axis(), branch(1, [(2, 1)], truncation=8), [1e-2], angles=0)


def test_witness_arcs_validation():
    with pytest.raises(ValueError, match="smooth"):
        witness_arcs(axis(), 1)
    with pytest.raises(ValueError, match="out of range"):
        witness_arcs(branch(2, [(5, 1)], truncation=8), 2)
