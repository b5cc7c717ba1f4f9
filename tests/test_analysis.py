import math

import numpy as np
import pytest

from reconset.analysis import (
    VariationEnvelope,
    ac_diagnostic,
    concavity_check,
    convolution_identity_check,
    sliding_integral,
)
from reconset.errors import WindowExceededError
from reconset.intervals import IntervalSet, Window
from reconset.profiles import Profile, StepProfile


TENT = Profile.tent()


# -- variation and weak derivative-----------------------------------------------


def test_variation_of_tent():
    var, deriv = TENT.total_variation(), TENT.derivative_step()
    assert var == 2.0
    assert deriv(-0.5) == 1.0 and deriv(0.5) == -1.0
    assert deriv.total_variation() == 4.0


def test_variation_of_constant_zero():
    zero = Profile.step([0, 1], [0.0])
    var, deriv = zero.total_variation(), zero.derivative_step()
    assert var == 0.0
    assert deriv.total_variation() == 0.0


# -- K(eps, f) upper bounds------------------------------------------------------------


def test_k_upper_tent_derivative_bounded():
    g = TENT.derivative_step()
    for eps in (1.0, 0.1, 1e-3, 1e-6):
        kb = VariationEnvelope(g).bound(eps)
        assert kb.variation_bound <= 4.0
        assert kb.l1_error < eps


def test_k_upper_zero_profile():
    g = StepProfile([0, 1], [0.0])
    kb = VariationEnvelope(g).bound(0.5)
    assert kb.variation_bound == 0.0


def test_k_upper_big_budget_gives_zero():
    g = TENT.derivative_step()  # l1 norm 2
    kb = VariationEnvelope(g).bound(3.0)
    assert kb.variation_bound == 0.0


def sqrt_singularity_step(n=4000):
    """Step approximation of x^(-1/2) on (0, 1]."""
    edges = np.linspace(0.0, 1.0, n + 1)
    edges[0] = 1e-9
    mids = (edges[:-1] + edges[1:]) / 2.0
    return StepProfile(edges, 1.0 / np.sqrt(mids))


def test_k_upper_truncation_rate():
    g = sqrt_singularity_step()
    for eps in (0.1, 0.05, 0.02):
        kb = VariationEnvelope(g).bound(eps)
        # truncation calculus: threshold ~ 1/eps, Var ~ 2/eps
        assert kb.variation_bound <= 2.6 / eps
        assert kb.variation_bound >= 0.5 / eps


def test_k_upper_monotone_in_eps():
    g = sqrt_singularity_step(600)
    env = VariationEnvelope(g)
    eps_grid = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005]
    bounds = [env.bound(e).variation_bound for e in eps_grid]
    for a, b in zip(bounds, bounds[1:]):
        assert b >= a - 1e-12  # decreasing eps can only raise the bound


def test_k_upper_merge_beats_truncation_on_wiggles():
    rng = np.random.default_rng(7)
    base = np.where(np.arange(200) % 2 == 0, 1.0, 1.02)
    g = StepProfile(np.linspace(0, 1, 201), base + 0.001 * rng.standard_normal(200))
    kb = VariationEnvelope(g).bound(0.05)
    # truncation cannot fall below ~2*max - wiggle mass; merging flattens it
    assert kb.variation_bound < 2.2
    assert kb.strategy in ("merge", "truncation")


def test_k_upper_rejects_bad_eps():
    with pytest.raises(ValueError):
        VariationEnvelope(TENT.derivative_step()).bound(0.0)


# -- sliding_integral --------------------------------------------------------------


def big_window():
    return Window.of(-16, 16)


def test_sliding_tent_halfline():
    T = IntervalSet([(0, 10)])
    vals = sliding_integral(TENT, T, 1.0, [0.0], Window.of(-12, 12))
    assert vals[0] == pytest.approx(0.5, abs=1e-14)


def test_sliding_total_mass():
    T = IntervalSet([(-12, 12)])
    for b in (-3.0, 0.0, 4.5):
        vals = sliding_integral(TENT, T, 1.0, [b], Window.of(-16, 16))
        assert vals[0] == pytest.approx(1.0, abs=1e-13)


def test_sliding_strictly_increasing_tail_formula():
    # T = [0, 10): F(b) = mass of tent right of -b: closed form of tent tail
    T = IntervalSet([(0, 10)])
    bs = np.linspace(-1, 1, 41)
    vals = sliding_integral(TENT, T, 1.0, bs, Window.of(-12, 12))

    def tail(b):
        # ∫_0^∞ tent(x - b) dx = 1 - ∫_{-∞}^{-b} tent
        u = -b
        if u <= -1:
            return 1.0
        if u >= 1:
            return 0.0
        P = 0.5 * (u + 1) ** 2 if u <= 0 else 1 - 0.5 * (1 - u) ** 2
        return 1.0 - P

    expect = np.array([tail(b) for b in bs])
    assert np.allclose(vals, expect, atol=1e-13)
    assert np.all(np.diff(vals) > 0)


def test_sliding_mass_conservation_with_scale():
    T = IntervalSet([(-14, 14)])
    for a in (1.0, 2.0, 3.5):
        vals = sliding_integral(TENT, T, a, [0.0, 1.0], Window.of(-16, 16))
        assert np.allclose(vals, a * TENT.integral(), atol=1e-12)


def test_sliding_translation_equivariance_exact():
    T = IntervalSet([(0, 1), (2, 3), (5, 8)])
    s = 2.0
    Ts = T.translate(2)
    b = np.array([0.5, 1.25, 3.0])
    f1 = sliding_integral(TENT, T, 1.0, b, big_window())
    f2 = sliding_integral(TENT, Ts, 1.0, b + s, big_window())
    assert np.array_equal(f1, f2)


def test_sliding_window_exceeded():
    T = IntervalSet([(0, 1)])
    with pytest.raises(WindowExceededError) as ei:
        sliding_integral(TENT, T, 1.0, [9.5], Window.of(-10, 10))
    assert ei.value.required_hi > 10


def test_sliding_direct_and_by_parts_agree():
    from reconset.analysis import _sliding_by_parts, _sliding_direct

    rng = np.random.default_rng(3)
    edges = np.sort(rng.uniform(-5, 5, size=40))
    T = IntervalSet([(float(a), float(b)) for a, b in edges.reshape(-1, 2)])
    ends = T.to_floats()
    b = np.linspace(-2, 2, 17)
    p = Profile.from_knots([-1, -0.25, 0.5, 1], [0, 0.5, 2, 0])
    direct = _sliding_direct(p, ends, 1.5, b)
    parts = _sliding_by_parts(p, T, 1.5, b)
    assert np.allclose(direct, parts, atol=1e-11)
    # and with a jumpy profile
    q = Profile.step([-1, 0, 1], [1.0, 0.25])
    direct = _sliding_direct(q, ends, 2.0, b)
    parts = _sliding_by_parts(q, T, 2.0, b)
    assert np.allclose(direct, parts, atol=1e-11)


# -- ac_diagnostic -------------------------------------------------------------------


def test_ac_diagnostic_indicator_grows():
    chi = Profile.indicator(0.0, 1.0)
    cutoffs = [16, 32, 64, 128, 256]
    vals = ac_diagnostic(chi, 2.0, cutoffs)
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] / vals[-2] > 1.5


def test_ac_diagnostic_tent_plateaus():
    cutoffs = [16, 32, 64, 128, 256]
    vals = ac_diagnostic(TENT, 2.0, cutoffs)
    assert vals[-1] / vals[-2] < 1.05


def test_ac_diagnostic_plancherel():
    for p in (TENT, Profile.indicator(0, 1), Profile.from_knots([-1, 0, 2], [0, 3, 0])):
        vals = ac_diagnostic(p, 0.0, [512.0])
        l2sq = _l2_norm_squared(p)
        assert vals[0] == pytest.approx(l2sq, rel=1e-3)


def _l2_norm_squared(p: Profile) -> float:
    w = np.diff(p.xs)
    return float(np.sum(w * (p.vl**2 + p.vl * p.vr + p.vr**2) / 3.0))


def test_ac_diagnostic_nondecreasing_partials():
    vals = ac_diagnostic(TENT, 1.0, [1, 2, 4, 8, 16, 32, 64])
    assert np.all(np.diff(vals) >= 0)


# -- concavity_check -------------------------------------------------------------------


def disk_profile(n=64):
    theta = np.linspace(0, np.pi, n + 1)
    xs = -np.cos(theta)
    ys = 2.0 * np.sqrt(np.maximum(0.0, 1.0 - xs**2))
    xs[0], xs[-1] = -1.0, 1.0
    return Profile.from_knots(np.unique(xs), ys[np.argsort(xs)])


def test_concavity_disk_passes():
    ok, margin = concavity_check(disk_profile(), 2)
    assert ok, margin


def test_concavity_tent_passes():
    ok, margin = concavity_check(TENT, 2)
    assert ok and margin >= -1e-12


def test_concavity_two_bump_fails():
    p = Profile.step([0, 1, 2, 3], [1.0, 0.0, 1.0])
    ok, margin = concavity_check(p, 2)
    assert not ok
    assert margin < -0.1


# -- convolution identity ----------------------------------------------------------------


def test_convolution_identity_tent_indicator():
    dev = convolution_identity_check(TENT, StepProfile([0, 1], [1.0]))
    assert dev <= 1e-6


def test_convolution_identity_mirror():
    dev = convolution_identity_check(TENT, StepProfile([-1, 0], [1.0]))
    assert dev <= 1e-6


def test_convolution_identity_zero():
    dev = convolution_identity_check(TENT, StepProfile([0, 1], [0.0]))
    assert dev == 0.0


def test_convolution_identity_quadratic_oracle():
    # tent * indicator([0,1]) has closed piecewise-quadratic form; check values
    P = TENT.antiderivative()

    def conv(x):
        return P(x) - P(x - 1.0)

    g = TENT.derivative_step()
    Q = StepProfile([0, 1], [1.0]).antiderivative()

    def dconv(x):
        return sum(
            v * (Q(x - g.edges[i]) - Q(x - g.edges[i + 1])) for i, v in enumerate(g.vals)
        )

    for x in (-0.85, -0.3, 0.21, 0.77, 1.4, 1.93):
        h = 1e-5
        fd = (conv(x + h) - conv(x - h)) / (2 * h)
        assert fd == pytest.approx(dconv(x), abs=1e-9)
