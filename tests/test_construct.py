import json
import math

import numpy as np
import pytest

from reconset.analysis import sliding_integral
from reconset.construct import (
    FamilyOptions,
    MagnifyConfig,
    MagnifyCertificate,
    TranslateCertificate,
    avoidance_set,
    family_test_sets,
    growth_certificate,
    magnify_test_set,
    semigroup,
    translate_test_set,
    union_test_set,
)
from reconset.analysis import VariationEnvelope
from reconset.dyadic import Dyadic
from reconset.errors import GrowthCertificateError, InfeasibleResolutionError
from reconset.intervals import IntervalSet, Window
from reconset.profiles import Profile, StepProfile
from reconset.shapes import Ball, Box, Direction, radon_profile


# -- semigroup ---------------------------------------------------------------


def test_semigroup_unit_lengths():
    assert semigroup([1], Dyadic(7, 1)) == [Dyadic(1), Dyadic(2), Dyadic(3)]


def test_semigroup_two_generators():
    got = semigroup([1, Dyadic(3, 1)], 4)
    expect = [Dyadic(1), Dyadic(3, 1), Dyadic(2), Dyadic(5, 1), Dyadic(3), Dyadic(7, 1), Dyadic(4)]
    assert got == sorted(expect)


def test_semigroup_empty_below_bound():
    assert semigroup([2], 1) == []


def test_semigroup_rejects_bad_input():
    with pytest.raises(ValueError):
        semigroup([], 5)
    with pytest.raises(ValueError):
        semigroup([0], 5)


# -- avoidance sets ------------------------------------------------------------


def test_avoidance_postconditions_exact():
    G = semigroup([1], 2)
    w = Window.of(0, 2)
    A = avoidance_set(G, w, Dyadic(1, 4))
    # (i) A ∩ (A+g) empty inside window, exactly
    for g in G:
        assert not A.intersect(A.translate(g)).restrict(w)
    # (ii) positive measure in every length-rho subinterval (random probes)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = Dyadic(int(rng.integers(0, 2**6 - 4)), 6)  # leaves room for 1/16
        J = IntervalSet([(x, x + Dyadic(1, 4))])
        assert Dyadic(0) < A.intersect(J).measure()


def test_avoidance_shift_leaves_window():
    A = avoidance_set([Dyadic(1)], Window.of(0, Dyadic(1, 1)), Dyadic(1, 2))
    w = Window.of(0, Dyadic(1, 1))
    assert not A.intersect(A.translate(1)).restrict(w)
    assert Dyadic(0) < A.measure()


def test_avoidance_infeasible_rho():
    with pytest.raises(InfeasibleResolutionError):
        avoidance_set([Dyadic(1, 1)], Window.of(0, 4), Dyadic(1, 1))


# -- union test sets --------------------------------------------------------------


def exact_translate_measures(E, T, xs):
    return [E.translate(x).intersect(T).measure() for x in xs]


def test_union_test_set_unit_interval_monotone():
    T = union_test_set([1], Window.of(0, 8), Dyadic(1, 4))
    E = IntervalSet([(0, 1)])
    xs = [Dyadic(i, 4) for i in range(0, 6 * 16 + 1)]
    vals = exact_translate_measures(E, T, xs)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_union_test_set_two_component_monotone():
    T = union_test_set([1, Dyadic(3, 1)], Window.of(0, 12), Dyadic(1, 4))
    E = IntervalSet([(0, 1), (2, Dyadic(7, 1))])
    xs = [Dyadic(i, 4) for i in range(0, 6 * 16 + 1)]
    vals = exact_translate_measures(E, T, xs)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_union_test_set_empty_window():
    with pytest.raises(ValueError):
        union_test_set([1], Window.of(0, 0), Dyadic(1, 4))


# -- translate construction ---------------------------------------------------------


def test_translate_tent_monotone():
    tent = Profile.tent()
    T, cert = translate_test_set(tent, Window.of(-6, 6))
    assert cert.recheck() == []
    b = np.arange(-4.0, 4.0 + 1e-12, 1.0 / 64.0)
    F = sliding_integral(tent, T, 1.0, b, cert.effective_window)
    assert float(np.min(np.diff(F))) > 0


def test_translate_certificate_roundtrip():
    tent = Profile.tent()
    _, cert = translate_test_set(tent, Window.of(-4, 4))
    again = TranslateCertificate.from_json(cert.to_json())
    assert again.recheck() == []
    assert again.guarantee_lower_bound == cert.guarantee_lower_bound
    assert json.dumps(again.to_json(), sort_keys=True) == json.dumps(cert.to_json(), sort_keys=True)


def test_translate_asymmetric_support_normalization():
    f = Profile.from_knots([2.0, 3.0, 7.0], [0.0, 0.5, 0.0])
    T, cert = translate_test_set(f, Window.of(-16, 16))
    lo, hi = cert.effective_window.lo, cert.effective_window.hi
    b = np.arange(-2.0, 2.0 + 1e-12, 1.0 / 32.0)
    F = sliding_integral(f, T, 1.0, b, cert.effective_window)
    assert float(np.min(np.diff(F))) > 0


def test_translate_rejects_zero_profile():
    with pytest.raises(ValueError):
        translate_test_set(Profile.step([0, 1], [0.0]), Window.of(-4, 4))


def test_translate_budgets_consume_k_upper_safely():
    tent = Profile.tent()
    _, cert = translate_test_set(tent, Window.of(-6, 6))
    for row in cert.shells:
        assert row.h * 4.0 * row.k_bound <= row.phi_min * (1 + 1e-12)
        assert row.eps == pytest.approx(row.phi_min / 4.0)


# -- magnification construction -------------------------------------------------------


@pytest.fixture(scope="module")
def disk_profile_small():
    return radon_profile(Ball((0.0, 0.0), 1.0), Direction((1.0, 0.0)), resolution=8)


@pytest.fixture(scope="module")
def magnify_small(disk_profile_small):
    return magnify_test_set(
        disk_profile_small, Window.of(-6, 6), MagnifyConfig(a_max=2.0)
    )


def test_magnify_monotone_small(disk_profile_small, magnify_small):
    T, cert = magnify_small
    assert cert.recheck() == []
    b = np.arange(-2.0, 2.0 + 1e-12, 1.0 / 64.0)
    for a in (1.0, 1.5, 2.0):
        F = sliding_integral(disk_profile_small, T, a, b, cert.effective_window)
        assert float(np.min(np.diff(F))) > 0, f"a={a}"


def test_magnify_certificate_roundtrip(magnify_small):
    _, cert = magnify_small
    again = MagnifyCertificate.from_json(cert.to_json())
    assert again.recheck() == []
    assert again.c2 == cert.c2 and again.C3 == cert.C3
    assert json.dumps(again.to_json(), sort_keys=True) == json.dumps(cert.to_json(), sort_keys=True)


def _scaled(path, factor):
    """Tamper: multiply the recorded value at `path` inside certificate JSON."""

    def tamper(o):
        *head, last = path
        for key in head:
            o = o[key]
        o[last] *= factor

    return tamper


def _last_shell_h_up(o):
    o["shells"][-1]["h"] = 10.0 * o["shells"][0]["h"]


@pytest.mark.parametrize(
    "tamper, problem",
    [
        (_scaled(("shells", 0, "eps"), 2.0), "shell 0: eps != phi_min/4"),
        (_scaled(("shells", 0, "k_bound"), 10.0), "shell 0: h * 4K exceeds"),
        (_scaled(("shells", 0, "phi_min"), 2.0), "shell 0: recorded phi_min too large"),
        (_scaled(("shells", 0, "delta"), 3.0), "shell 0: delta > 0.5 h(k+1)"),
        (_scaled(("shells", 0, "n"), 0), "shell 0: n not above 4/delta"),
        (_last_shell_h_up, "h not non-increasing"),
    ],
    ids=["eps", "h-4K", "phi-min", "delta", "n", "h-order"],
)
def test_translate_recheck_names_tampered_value(tamper, problem):
    _, cert = translate_test_set(Profile.tent(), Window.of(-4, 4))
    o = json.loads(json.dumps(cert.to_json()))
    tamper(o)
    problems = TranslateCertificate.from_json(o).recheck()
    assert any(problem in p for p in problems), problems


@pytest.mark.parametrize(
    "tamper, problem",
    [
        (_scaled(("growth", "slope"), 1e9), "growth slope exceeds bound"),
        (_scaled(("h0",), 1e9), "h(0) outside (0,1)"),
        (_scaled(("C3",), 2.0), "h(0) != c2/(24 C3)"),
        (_scaled(("shells", 1, "k_bound"), 1e6), "shell 1: h*K exceeds regime-2 budget"),
        (_scaled(("shells", 1, "delta"), 3.0), "shell 1: delta > 1 h(k+1)"),
        (_scaled(("shells", 1, "n"), 0), "shell 1: n not above 4/delta"),
        (_last_shell_h_up, "h not non-increasing"),
    ],
    ids=["slope", "h0-range", "h0-formula", "regime-2", "delta", "n", "h-order"],
)
def test_magnify_recheck_names_tampered_value(magnify_small, tamper, problem):
    _, cert = magnify_small
    o = json.loads(json.dumps(cert.to_json()))
    tamper(o)
    problems = MagnifyCertificate.from_json(o).recheck()
    assert any(problem in p for p in problems), problems


def test_magnify_small_scale_can_fail(disk_profile_small):
    # the guarantee needs a >= 1; a coarse constructed set shows violations
    # below scale 1 (density fluctuations beat the drift at small windows)
    from reconset.quantize import ShellBudget, tiled_quantizer
    from reconset.targets import Logistic

    T, res = tiled_quantizer(
        Logistic(0.5), ShellBudget((0.5,) * 6), Window.of(-6, 6)
    )
    tent = Profile.tent()
    b = np.arange(-2.0, 2.0 + 1e-12, 1.0 / 64.0)
    worst = np.inf
    for a in (0.25, 0.125):
        F = sliding_integral(tent, T, a, b, Window.of(-6, 6))
        worst = min(worst, float(np.min(np.diff(F))))
    assert worst < 0


def test_growth_certificate_rejects_steep_growth():
    # steps of x^(-3/4): K(eps) ~ eps^-3 keeps growing across the grid, so
    # the fitted exponent-1/3 slope (~1.5) exceeds a tight policy bound
    edges = np.concatenate([[0.0], np.geomspace(1e-14, 1.0, 1201)])
    mids = (edges[1:] + edges[:-1]) / 2.0
    mids[0] = edges[1] / 2.0
    g = StepProfile(edges, mids ** (-0.75))
    env = VariationEnvelope(g)
    eps_grid = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    with pytest.raises(GrowthCertificateError) as ei:
        growth_certificate(env, eps_grid, slope_max=1.0)
    assert ei.value.slope > 1.0
    # a disk-style bounded derivative passes the same gate easily
    disk_env = VariationEnvelope(
        radon_profile(Ball((0.0, 0.0), 1.0), Direction((1.0, 0.0)), 32).derivative_step()
    )
    fit = growth_certificate(disk_env, eps_grid, slope_max=1.0)
    assert fit.slope < 1.0


def test_magnify_growth_gate_raises(disk_profile_small):
    with pytest.raises(GrowthCertificateError):
        magnify_test_set(
            disk_profile_small,
            Window.of(-4, 4),
            MagnifyConfig(a_max=2.0, slope_max=1e-9),
        )


# -- families ------------------------------------------------------------------------


def test_family_disk_translate_axes():
    slabs = family_test_sets(
        Ball((0.0, 0.0), 1.0), "translate", FamilyOptions(resolution=64)
    )
    assert len(slabs) == 2
    dirs = np.array([s.theta.theta for s in slabs])
    assert np.allclose(np.abs(dirs), np.eye(2))  # axes pass first for the disk


def test_family_square_avoids_face_normals():
    slabs = family_test_sets(
        Box((0.0, 0.0), (1.0, 1.0)), "translate", FamilyOptions(resolution=64)
    )
    for s in slabs:
        th = np.asarray(s.theta.theta)
        assert np.all(np.abs(np.abs(th) - 1.0) > 1e-6)  # no axis direction


def test_family_magnify_has_full_space():
    slabs = family_test_sets(
        Ball((0.0, 0.0), 1.0),
        "magnify",
        FamilyOptions(resolution=8, a_max=2.0, translate_radius=0.5),
    )
    assert len(slabs) == 3
    assert slabs[-1].full_space
    assert slabs[0].certificate is not None


def test_family_deterministic_per_seed():
    opts = FamilyOptions(resolution=32, seed=7)
    a = family_test_sets(Box((0.0, 0.0), (1.0, 1.0)), "translate", opts)
    b = family_test_sets(Box((0.0, 0.0), (1.0, 1.0)), "translate", opts)
    assert [s.theta.theta for s in a] == [s.theta.theta for s in b]
    assert all(x.T == y.T for x, y in zip(a, b))


def test_family_rejects_1d():
    from reconset.shapes import IntervalUnion

    with pytest.raises(ValueError):
        family_test_sets(
            IntervalUnion(IntervalSet([(0, 1)])), "translate", FamilyOptions()
        )
