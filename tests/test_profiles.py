import math

import numpy as np
import pytest

from reconset.profiles import PiecewiseQuadratic, Profile, StepProfile


def test_tent_basics():
    t = Profile.tent()
    assert t.support == (-1.0, 1.0)
    assert t(0.0) == 1.0
    assert t(0.5) == 0.5
    assert t(-2.0) == 0.0 and t(2.0) == 0.0
    assert t.integral() == 1.0
    assert np.array_equal(t.vl[1:], t.vr[:-1])  # continuous: no interior jump


def test_indicator_evaluation_half_open():
    c = Profile.indicator(0.0, 1.0)
    assert c(0.0) == 1.0
    assert c(1.0) == 0.0
    assert c(0.999) == 1.0
    assert c.integral() == 1.0
    assert not np.any(c(np.array([-0.5, 1.5])))


def test_total_variation():
    assert Profile.tent().total_variation() == 2.0
    assert Profile.indicator(0, 1).total_variation() == 2.0
    two_bump = Profile.step([0, 1, 2, 3], [1.0, 0.0, 1.0])
    assert two_bump.total_variation() == 4.0


def test_derivative_step_of_tent():
    d = Profile.tent().derivative_step()
    assert d(-0.5) == 1.0
    assert d(0.5) == -1.0
    assert d.total_variation() == 4.0  # jumps 1, 2, 1
    assert d.l1_norm() == 2.0


def test_antiderivative_matches_quadrature():
    t = Profile.tent()
    P = t.antiderivative()
    assert P(-1.0) == 0.0
    assert P(1.0) == pytest.approx(1.0, abs=1e-15)
    assert P(0.0) == pytest.approx(0.5, abs=1e-15)
    # quadrature oracle on a fine Riemann grid
    for x in [-0.7, -0.2, 0.3, 0.9]:
        grid = np.linspace(-1, x, 20001)
        riemann = np.trapezoid(t(grid), grid)
        assert P(x) == pytest.approx(riemann, abs=1e-8)


def test_antiderivative_interval_set():
    t = Profile.tent()
    P = t.antiderivative()
    ends = np.array([[-1.0, 0.0], [0.0, 1.0]])
    vals = P(ends.ravel()).reshape(-1, 2)
    assert math.fsum(vals[:, 1] - vals[:, 0]) == pytest.approx(1.0, abs=1e-15)
    assert P(0.5) - P(-0.5) == pytest.approx(0.75, abs=1e-15)


def test_shift_scale_mirror():
    t = Profile.tent()
    s = t.shift(2.0)
    assert s.support == (1.0, 3.0)
    assert s(2.0) == 1.0
    w = t.scale_x(3.0)
    assert w.support == (-3.0, 3.0)
    assert w(0.0) == 1.0
    assert w.integral() == pytest.approx(3.0)
    asym = Profile.from_knots([0, 1, 4], [0, 1, 0])
    m = Profile(-asym.xs[::-1], asym.vr[::-1], asym.vl[::-1])
    assert m.support == (-4.0, 0.0)
    assert m(-1.0) == pytest.approx(1.0)
    assert m(-2.0) == pytest.approx(asym(2.0))


def test_trimmed():
    p = Profile.from_knots([-3, -1, 0, 1, 3], [0, 0, 1, 0, 0])
    q = p.trimmed()
    assert q.support == (-1.0, 1.0)
    assert q.integral() == p.integral()


def test_step_profile_l1_and_variation():
    g = StepProfile([0, 1, 2], [2.0, -1.0])
    assert g.l1_norm() == 3.0
    assert g.integral() == 1.0
    assert g.total_variation() == 2.0 + 3.0 + 1.0
    h = g.clamp(1.0)
    assert h.vals.tolist() == [1.0, -1.0]
    assert g.l1_distance(h) == 1.0


def test_step_merged_grid():
    a = StepProfile([0, 2], [1.0])
    b = StepProfile([1, 3], [2.0])
    assert a.l1_distance(b) == 1.0 + 1.0 + 2.0


def test_step_antiderivative():
    g = StepProfile([0, 1, 2], [1.0, -1.0])
    G = g.antiderivative()
    assert G(0.0) == 0.0
    assert G(1.0) == 1.0
    assert G(2.0) == 0.0
    assert G(5.0) == 0.0
    assert G(0.25) == 0.25


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile.from_knots([0, 0, 1], [0, 1, 0])
    with pytest.raises(ValueError):
        Profile.from_knots([0, 1], [-1, 0])
    with pytest.raises(ValueError):
        StepProfile([1, 0], [1.0])


def test_csv_rows_with_jump():
    c = Profile.indicator(0, 1)
    rows = c.to_csv_rows()
    assert rows == [(0.0, 1.0), (1.0, 1.0)]
    j = Profile.step([0, 1, 2], [1.0, 3.0])
    rows = j.to_csv_rows()
    assert (1.0, 1.0) in rows and (1.0, 3.0) in rows


def test_json_roundtrip():
    p = Profile.from_knots([0, 1, 2], [0, 2, 0], abs_error=1e-6)
    q = Profile.from_json(p.to_json())
    assert np.array_equal(p.xs, q.xs)
    assert q.abs_error == 1e-6


def test_piecewise_quadratic_vectorized():
    p = Profile.from_knots([0, 1, 2], [0, 2, 0])
    P = PiecewiseQuadratic(p)
    xs = np.linspace(-1, 3, 101)
    vals = P(xs)
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(2.0)
    assert np.all(np.diff(vals) >= -1e-15)
