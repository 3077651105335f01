import math

import numpy as np
import pytest

from curvegerm import (
    ArcSample,
    branch,
    branch_gap_profile,
    check_contact_distortion,
    contact,
    default_branch_grid,
    estimate_branch_contact,
    estimate_contact,
    gap_function,
    gap_profile,
    geometric_grid,
    radial_holder_map,
    sample_branch_arc,
    witness_arcs,
)


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


def test_gap_function_against_brute_force():
    grid = geometric_grid(0.1, 1e-3, 12)
    a = sample_branch_arc(axis(), 0, 0.0, grid)
    b = sample_branch_arc(branch(1, [(2, 1)], truncation=8), 0, 0.0, grid)
    value = gap_function(a, b, 0.1)

    brute = min(
        math.dist(
            (p[0].real, p[0].imag, p[1].real, p[1].imag),
            (q[0].real, q[0].imag, q[1].real, q[1].imag),
        )
        for p, ra in zip(a.points, a.radii)
        for q, rb in zip(b.points, b.radii)
        if ra >= 0.1 * (1 - 1e-9) and rb >= 0.1 * (1 - 1e-9)
    )
    assert value == pytest.approx(brute, rel=1e-12)
    assert value == pytest.approx(0.01, rel=1e-6)


def test_gap_function_identical_samples_is_zero():
    grid = geometric_grid(0.1, 1e-3, 12)
    a = sample_branch_arc(axis(), 0, 0.0, grid)
    assert gap_function(a, a, 0.05) == 0.0


def test_gap_function_needs_points_above_the_radius():
    grid = geometric_grid(0.1, 1e-3, 12)
    a = sample_branch_arc(axis(), 0, 0.0, grid)
    with pytest.raises(ValueError, match="norm"):
        gap_function(a, a, 0.5)


def test_gap_is_monotone_under_extra_points():
    grid = geometric_grid(0.1, 1e-3, 12)
    a = sample_branch_arc(axis(), 0, 0.0, grid)
    b = sample_branch_arc(branch(1, [(2, 1)], truncation=8), 0, 0.0, grid)
    extra = sample_branch_arc(axis(), 0, 0.1, grid)
    enlarged = ArcSample(np.concatenate([a.points, extra.points]))
    for r in grid:
        assert gap_function(enlarged, b, r) <= gap_function(a, b, r) + 1e-15


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
        estimate_contact(a, b, np.linspace(1.4, 1.0, 8))


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
    assert counter.meta["role"] == "twisted_three_quarter_turn"
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


def test_gap_profile_matches_pointwise_calls():
    grid = geometric_grid(0.1, 1e-3, 10)
    a = sample_branch_arc(axis(), 0, 0.0, grid)
    b = sample_branch_arc(branch(1, [(2, 1)], truncation=8), 0, 0.0, grid)
    profile = gap_profile(a, b, grid)
    assert profile.shape == (10,)
    assert profile[3] == gap_function(a, b, grid[3])
