"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantities and runtime.  Tolerances are pinned here, not
configured elsewhere.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from reconset.analysis import (
    VariationEnvelope,
    ac_diagnostic,
    concavity_check,
    convolution_identity_check,
    sliding_integral,
)
from reconset.construct import (
    FamilyOptions,
    family_test_sets,
    magnify_test_set,
    translate_test_set,
    union_test_set,
)
from reconset.dyadic import Dyadic
from reconset.gridsets import CopyCount, required_copies, sample_grid_set, validate_levels
from reconset.intervals import IntervalSet, Window
from reconset.profiles import Profile, StepProfile
from reconset.quantize import ShellBudget, greedy_quantizer, quantizer_residual, tiled_quantizer
from reconset.shapes import (
    Ball,
    Box,
    Direction,
    GridShape,
    Polygon,
    radon_profile,
)
from reconset.targets import AffineTarget, Logistic
from reconset.verify import (
    IntervalFamilyGrid,
    TranslateFamilyGrid,
    interval_counterexample,
    injectivity_report,
    monotonicity_report,
    monte_carlo_reconstruction,
)


def report(name: str, ok: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if ok else "FAIL"
    print(f"{name} {status}: {detail} [{elapsed:.2f}s / limit {limit:.0f}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name}: runtime {elapsed:.2f}s exceeds {limit}s"


DISK = Ball((0.0, 0.0), 1.0)
E1 = Direction((1.0, 0.0))


@pytest.fixture(scope="module")
def disk_profile_64():
    return radon_profile(DISK, E1, resolution=64)


def test_ac01_quantizer_bound():
    """Block-rule guarantees for phi(x) = x at n = 64."""
    t0 = time.time()
    n = 64
    target = AffineTarget(1.0, 0.0)
    T = greedy_quantizer(target, n)
    rng = np.random.default_rng(1)
    pts = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 10_000)]))
    D = quantizer_residual(T, target, 0.0, pts)
    sup_pair = float(D.max() - D.min())  # sup over (a,b) of |∫_a^b (chi_T - phi)|
    total = float(quantizer_residual(T, target, 0.0, np.array([1.0]))[0])
    ok = sup_pair <= 1.0 / 16.0 + 1e-12 and abs(total) <= 1e-12
    report(
        "AC-01",
        ok,
        f"sup |∫_a^b (chi_T - phi)| = {sup_pair:.6f} <= 1/16; |∫_0^1| = {abs(total):.2e}",
        time.time() - t0,
        1.0,
    )


def test_ac02_interval_translate_monotone():
    """Unit interval against the semigroup test set: exact strict increase."""
    t0 = time.time()
    T = union_test_set([1], Window.of(0, 8), Dyadic(1, 4))
    E = IntervalSet([(0, 1)])
    vals = [E.translate(Dyadic(i, 4)).intersect(T).measure() for i in range(97)]
    strict = all(b > a for a, b in zip(vals, vals[1:]))  # exact dyadic comparisons
    min_inc = min(float(b - a) for a, b in zip(vals, vals[1:]))
    report(
        "AC-02",
        strict,
        f"97 exact measures strictly increasing, min increment {min_inc:.3g}",
        time.time() - t0,
        1.0,
    )


def test_ac03_interval_union_monotone():
    """Two-component union [0,1] ∪ [2,7/2]: exact strict increase."""
    t0 = time.time()
    T = union_test_set([1, Dyadic(3, 1)], Window.of(0, 12), Dyadic(1, 4))
    E = IntervalSet([(0, 1), (2, Dyadic(7, 1))])
    vals = [E.translate(Dyadic(i, 4)).intersect(T).measure() for i in range(97)]
    strict = all(b > a for a, b in zip(vals, vals[1:]))
    report(
        "AC-03",
        strict,
        "97 exact measures strictly increasing for E = [0,1] ∪ [2,7/2]",
        time.time() - t0,
        5.0,
    )


def test_ac04_function_translate_monotone(disk_profile_64):
    """Translate construction drives sliding integrals strictly up."""
    b = np.arange(-4.0, 4.0 + 1e-12, 1.0 / 64.0)
    for name, prof, limit in (
        ("tent", Profile.tent(), 10.0),
        ("disk profile", disk_profile_64, 10.0),
    ):
        t0 = time.time()
        T, cert = translate_test_set(prof, Window.of(-6, 6))
        assert cert.recheck() == []
        F = sliding_integral(prof, T, 1.0, b, cert.effective_window)
        rep = monotonicity_report(F)
        report(
            f"AC-04[{name}]",
            rep.passed,
            f"min increment {rep.min_increment:.3e} over b in [-4,4] step 1/64",
            time.time() - t0,
            limit,
        )


def test_ac05_magnification_monotone():
    """Magnification construction: monotone for a in {1,2,5,8}; the a >= 1
    restriction is sharp (violation exhibited at a = 1/4)."""
    t0 = time.time()
    prof = radon_profile(DISK, E1, resolution=8)
    T, cert = magnify_test_set(prof, Window.of(-12, 12), a_max=8.0)
    assert cert.recheck() == []
    b = np.arange(-4.0, 4.0 + 1e-12, 1.0 / 64.0)
    worst = math.inf
    for a in (1.0, 2.0, 5.0, 8.0):
        F = sliding_integral(prof, T, a, b, cert.effective_window)
        rep = monotonicity_report(F)
        worst = min(worst, rep.min_increment)
        assert rep.passed, f"a={a}: {rep.min_increment}"
    # sharpness of a >= 1: a coarse constructed set fails at a = 1/4
    T_coarse, _ = tiled_quantizer(
        Logistic(0.5), ShellBudget((0.5,) * 6), Window.of(-6, 6)
    )
    b2 = np.arange(-2.0, 2.0 + 1e-12, 1.0 / 64.0)
    F_small = sliding_integral(Profile.tent(), T_coarse, 0.25, b2, Window.of(-6, 6))
    rep_small = monotonicity_report(F_small)
    violated = not rep_small.passed
    report(
        "AC-05",
        worst > 0 and violated,
        f"min increment {worst:.3e} for a in {{1,2,5,8}}; "
        f"a = 1/4 violation on a coarse set ({rep_small.min_increment:.3e} < 0)",
        time.time() - t0,
        60.0,
    )


def test_ac06_translate_family_injectivity():
    """Two slabs reconstruct disk translates over a 33x33 grid."""
    t0 = time.time()
    slabs = family_test_sets(DISK, "translate", FamilyOptions(resolution=512))
    grid = TranslateFamilyGrid(DISK, (-1.0, -1.0), (1.0, 1.0), (33, 33))
    rep = injectivity_report(grid, slabs, resolution=512)
    ok = (
        not rep.collisions
        and not rep.indeterminate
        and rep.min_separation > 10.0 * rep.quadrature_error
    )
    report(
        "AC-06",
        ok,
        f"min separation {rep.min_separation:.3e} > 10 x quadrature error "
        f"{rep.quadrature_error:.3e}; collisions {len(rep.collisions)}",
        time.time() - t0,
        60.0,
    )


def test_ac07_two_set_impossibility():
    """Counterexample pairs exist for seeded random 20-interval test sets."""
    t0 = time.time()
    tol = 1e-9
    found = 0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        sets = []
        for _ in range(2):
            pts = np.sort(rng.integers(-(2**10), 2**10, size=40)) / 2**6
            pairs = [
                (Dyadic.from_float(float(a)), Dyadic.from_float(float(b)))
                for a, b in pts.reshape(-1, 2)
                if a < b
            ]
            sets.append(IntervalSet(pairs))
        A, B = sets
        pair = interval_counterexample(A, B, 1, tol)
        (x1, y1), (x2, y2) = pair.first, pair.second
        for S in (A, B):
            m1 = IntervalSet([(x1, y1)]).intersect(S).measure()
            m2 = IntervalSet([(x2, y2)]).intersect(S).measure()
            assert abs(float(m1 - m2)) <= tol
        assert float(y1 - x1) > 1.0 and float(y2 - x2) > 1.0
        assert max(abs(float(x1 - x2)), abs(float(y1 - y2))) >= 100 * tol
        found += 1
    report(
        "AC-07",
        found == 5,
        f"{found}/5 seeded pairs resolved with both discrepancies <= 1e-9",
        time.time() - t0,
        120.0,
    )


def test_ac08_random_construction_interval_family():
    """Five random copies reconstruct intervals; one copy clearly does not."""
    t0 = time.time()
    r = required_copies(CopyCount(2.0, 1, 0.0))
    assert r == 5
    levels = validate_levels((16384,), (64,), (0.5,), (0,), (3,))
    grid = IntervalFamilyGrid.of(0, 1, Dyadic(1, 5), 1, 2, Dyadic(1, 5))
    rep5 = monte_carlo_reconstruction(grid, levels, copies=r, trials=20, seed=42)
    rep1 = monte_carlo_reconstruction(grid, levels, copies=1, trials=20, seed=42)
    ok = rep5.rate >= 0.95 and rep5.rate - rep1.rate >= 0.30
    report(
        "AC-08",
        ok,
        f"required_copies = 5; success rate r=5: {rep5.rate:.2f} >= 0.95, "
        f"r=1: {rep1.rate:.2f} (gap {rep5.rate - rep1.rate:.2f} >= 0.30)",
        time.time() - t0,
        300.0,
    )


def test_ac09_near_tie_rate():
    """Single-level near-tie frequency obeys the coarse-count bound."""
    t0 = time.time()
    n, g, p = 256, 16, 0.5
    levels = validate_levels((n,), (g,), (p,), (0,), (1,))
    K_hi = Dyadic(1, 1)  # K  = [0, 1/2)
    Kp_hi = Dyadic(1, 1) + Dyadic(1, 4)  # K' = [0, 9/16): one more coarse cell
    thresh = Dyadic(1, 10)  # 1/(4n)
    ties = 0
    trials = 2000
    for seed in range(trials):
        gs = sample_grid_set(levels, seed)
        a = gs.runs.measure_between(Dyadic(0), K_hi)
        b = gs.runs.measure_between(Dyadic(0), Kp_hi)
        if abs(a - b) < thresh:
            ties += 1
    bound = 2.0 * g / (p * n)
    ok = ties / trials <= bound
    report(
        "AC-09",
        ok,
        f"near-tie frequency {ties}/{trials} = {ties/trials:.3f} <= 2g/(pn) = {bound:.3f}",
        time.time() - t0,
        30.0,
    )


def test_ac10_concavity(disk_profile_64):
    """Root-concavity of section profiles of convex bodies; failure for a
    disconnected shape."""
    t0 = time.time()
    square = Box((0.0, 0.0), (1.0, 1.0))
    cases = [
        ("disk", disk_profile_64, True),
        ("square axis", radon_profile(square, E1), True),
        ("square diagonal", radon_profile(square, Direction.of((1.0, 1.0))), True),
        ("triangle", radon_profile(Polygon(((0, 0), (2, 0), (1, 2))), Direction.of((0.3, 1.0))), True),
        (
            "two squares",
            radon_profile(GridShape(1, (0, 0), (3, 1), cubes=(0, 2)), E1),
            False,
        ),
    ]
    details = []
    ok = True
    for name, prof, expect in cases:
        is_concave, margin = concavity_check(prof, 2, tol=1e-9)
        ok &= is_concave == expect
        details.append(f"{name}: margin {margin:.2e} {'pass' if is_concave else 'fail'}")
    report("AC-10", ok, "; ".join(details), time.time() - t0, 1.0)


def test_ac11_convex_k_bound_exponent():
    """log k_upper grows at most like log(1/eps) for the disk derivative."""
    t0 = time.time()
    prof = radon_profile(DISK, E1, resolution=256)
    env = VariationEnvelope(prof.derivative_step())
    eps_grid = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    ks = np.array([env.bound(float(e)).variation_bound for e in eps_grid])
    x = np.log(1.0 / eps_grid)
    y = np.log(ks)
    slope = float(np.polyfit(x, y, 1)[0])
    ok = slope <= 1.1
    report(
        "AC-11",
        ok,
        f"fitted slope of log K vs log(1/eps) = {slope:.3f} <= 1.1 "
        f"(K = {', '.join(f'{k:.3g}' for k in ks)})",
        time.time() - t0,
        10.0,
    )


def test_ac12_spectral_diagnostic_contrast(disk_profile_64):
    """Power-2 spectral tails plateau for continuous profiles and grow for
    the indicator.  The doubling ladder extends past the disk profile's
    sampling scale (resolution 64 puts the piecewise-linear rolloff near
    r ~ 500), where its integrable tail becomes visible."""
    t0 = time.time()
    cutoffs = [16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]
    tent_tail = ac_diagnostic(Profile.tent(), 2.0, cutoffs)
    disk_tail = ac_diagnostic(disk_profile_64, 2.0, cutoffs)
    chi_tail = ac_diagnostic(Profile.indicator(0.0, 1.0), 2.0, cutoffs)
    r_tent = tent_tail[-1] / tent_tail[-2]
    r_disk = disk_tail[-1] / disk_tail[-2]
    r_chi = chi_tail[-1] / chi_tail[-2]
    ok = r_tent < 1.05 and r_disk < 1.05 and r_chi > 1.5
    report(
        "AC-12",
        ok,
        f"last ratios: tent {r_tent:.3f} < 1.05, disk {r_disk:.3f} < 1.05, "
        f"indicator {r_chi:.3f} > 1.5",
        time.time() - t0,
        10.0,
    )


def test_ac13_convolution_identity():
    """(f * g)' = f' * g numerically on the tent x indicator case."""
    t0 = time.time()
    dev = convolution_identity_check(Profile.tent(), StepProfile([0.0, 1.0], [1.0]))
    ok = dev <= 1e-6
    report(
        "AC-13",
        ok,
        f"max |d/dx (f*g) - f'*g| = {dev:.2e} <= 1e-6 at step 1e-4",
        time.time() - t0,
        1.0,
    )
