import bisect
import functools
import heapq
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reconset import construct
from reconset.analysis import sliding_integral
from reconset.construct import (
    FamilyOptions,
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
from reconset.dyadic import Dyadic, as_dyadic
from reconset.errors import (
    ExactnessOverflowError,
    GrowthCertificateError,
    InfeasibleResolutionError,
    SearchBudgetError,
)
from reconset.intervals import IntervalSet, Window
from reconset.profiles import Profile, StepProfile
from reconset.shapes import Ball, Box, Direction, Polygon, SlabTestSet, radon_profile


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


# The interval-union construction as it was built on Dyadic objects, float
# bisect keys and one IntervalSet per cell: the reference the integer
# construction must reproduce row for row.


def _reference_semigroup(lengths, bound, max_elements: int = 200_000):
    ls = sorted({as_dyadic(x) for x in lengths})
    if not ls:
        raise ValueError("semigroup needs at least one length")
    if any(not Dyadic(0) < x for x in ls):
        raise ValueError("semigroup lengths must be positive")
    bound = as_dyadic(bound)
    if not Dyadic(0) < bound:
        raise ValueError("bound must be positive")
    out = []
    seen = set()
    heap = [x for x in ls if x <= bound]
    heapq.heapify(heap)
    while heap:
        g = heapq.heappop(heap)
        if g in seen:
            continue
        seen.add(g)
        out.append(g)
        if len(out) > max_elements:
            raise InfeasibleResolutionError(
                f"semigroup exceeds {max_elements} elements below {bound}"
            )
        for a in ls:
            s = g + a
            if s <= bound and s not in seen:
                heapq.heappush(heap, s)
    return out


def _reference_avoidance_set(G, window, rho):
    rho = as_dyadic(rho)
    G = [as_dyadic(g) for g in G]
    if not G:
        raise ValueError("avoidance set needs a non-empty G")
    g_min = min(G)
    if not Dyadic(0) < rho or not rho < g_min:
        raise InfeasibleResolutionError(
            f"resolution rho = {rho} must satisfy 0 < rho < min(G) = {g_min}"
        )
    span = window.span
    reach = [g for g in G if g < span]
    half = rho.half()
    n_cells = (span.as_fraction() / half.as_fraction()).__floor__()
    if n_cells < 1:
        raise InfeasibleResolutionError("window shorter than rho/2")
    k = max(4 * (len(reach) + 1), 4)
    pad = 1
    while (1 << pad) < 4 * k:
        pad += 1
    w_target = Dyadic(half.num, half.exp + pad)
    placed = []
    placed_lo_f = []
    for i in range(n_cells):
        cell_lo = window.lo + Dyadic(i * half.num, half.exp)
        cell_hi = cell_lo + half
        cell = IntervalSet([(cell_lo, cell_hi)])
        shadows = []
        wmax = float(w_target)
        for g in reach:
            for s in (g, -g):
                lo_f = float(cell_lo) - float(s) - wmax
                hi_f = float(cell_hi) - float(s)
                j0 = bisect.bisect_left(placed_lo_f, lo_f)
                j1 = bisect.bisect_right(placed_lo_f, hi_f)
                for j in range(j0, j1):
                    lo, hi = placed[j]
                    a, b = lo + s, hi + s
                    if a < cell_hi and cell_lo < b:
                        shadows.append((max(a, cell_lo), min(b, cell_hi)))
        free = cell.difference(IntervalSet(shadows)) if shadows else cell
        if not free:
            raise InfeasibleResolutionError(f"no room left in cell {i}")
        glo, ghi = max(free, key=lambda p: (p[1] - p[0]).as_fraction())
        width = min(w_target, (ghi - glo).half())
        if not Dyadic(0) < width:
            raise InfeasibleResolutionError(f"cell {i} gap degenerate")
        placed.append((glo, glo + width))
        placed_lo_f.append(float(glo))
    A = IntervalSet(placed)
    _reference_check_avoidance(A, reach, window, half, n_cells)
    return A


def _reference_check_avoidance(A, reach, window, half, n_cells):
    for g in reach:
        clash = A.intersect(A.translate(g)).restrict(window)
        if clash:
            raise AssertionError(f"avoidance violated at shift {g}: {clash}")
    for i in range(n_cells):
        cell_lo = window.lo + Dyadic(i * half.num, half.exp)
        cell = IntervalSet([(cell_lo, cell_lo + half)])
        if not Dyadic(0) < A.intersect(cell).measure():
            raise AssertionError(f"cell {i} has no mass")


def _reference_union_test_set(lengths, window, rho):
    """G, A and T = A ∪ (A + G) restricted to the window."""
    G = _reference_semigroup(lengths, window.span)
    A = _reference_avoidance_set(G, window, rho)
    T = A
    for g in G:
        T = T.union(A.translate(g).restrict(window))
    return G, A, T


def _union_parts(lengths, window, rho):
    G = semigroup(lengths, window.span)
    return G, avoidance_set(G, window, rho), union_test_set(lengths, window, rho)


def _outcome(build, *args):
    try:
        G, A, T = build(*args)
    except (ValueError, InfeasibleResolutionError, ExactnessOverflowError) as e:
        return type(e)
    return [str(g) for g in G], A.to_json(), T.to_json()


@st.composite
def union_cases(draw):
    """1-3 generators at exponents up to 4; rho at exponent 4, mostly between
    an eighth of the least length and that length; a window at an offset
    within ±64 of about 0-12 least lengths, at most 512 cells of rho/2 plus a
    remainder below rho/2, with at most 2,048 cells times shifts, so the
    reference stays fast."""
    k = draw(st.integers(0, 4))
    lengths = [Dyadic(n, k) for n in draw(st.lists(st.integers(1, 48), min_size=1, max_size=3))]
    least = (min(lengths) * 16).num
    r = draw(st.integers(max(least // 8, 1), least + 1))
    rho = Dyadic(r, 4)
    half = rho.half()
    e = draw(st.integers(0, 4))
    lo = Dyadic(draw(st.integers(-64 << e, 64 << e)), e)
    per_length = -(-2 * least // r)  # cells of rho/2 in the least length, rounded up
    cells = draw(st.integers(0, 12)) * per_length + draw(st.integers(0, per_length))
    rest = half * Dyadic(draw(st.integers(0 if cells else 1, 3)), 2)
    window = Window(lo, lo + half * Dyadic(cells) + rest)
    # the reference makes a lookup per cell and shift
    assume(cells <= 512 and cells * (len(semigroup(lengths, window.span)) + 1) <= 2048)
    return lengths, window, rho


@settings(max_examples=60, deadline=None)
@given(union_cases())
def test_union_construction_matches_reference(case):
    # the same semigroup, avoidance set and test set rows, or the same error
    assert _outcome(_union_parts, *case) == _outcome(_reference_union_test_set, *case)


def test_union_test_set_far_window_overflows():
    # numerators of 2**47 at the width's exponent 2**-14 leave the 2**58 guard
    with pytest.raises(ExactnessOverflowError):
        union_test_set([1], Window.of(2**47, 2**47 + 8), Dyadic(1, 6))


def test_union_test_set_builds_few_dyadics(monkeypatch):
    # 4,096 cells; the per-cell Dyadic construction made 323,497
    calls = 0
    init = Dyadic.__init__

    def counting(self, *args):
        nonlocal calls
        calls += 1
        init(self, *args)

    window = Window.of(0, 32)
    monkeypatch.setattr(Dyadic, "__init__", counting)
    union_test_set([1], window, Dyadic(1, 6))
    assert calls < 300


# E and the lengths of its components; the sets are the README's scale
PROMISE_CASES = {
    "unit": ([(0, 1)], [1]),
    "two-components": ([(0, 1), (2, Dyadic(7, 1))], [1, Dyadic(3, 1)]),
}
PROMISE_RHO = Dyadic(1, 4)


@functools.cache
def _promise_set(name):
    return union_test_set(PROMISE_CASES[name][1], Window.of(0, 8), PROMISE_RHO)


def _translate_measure(T, E, x):
    return sum((T.measure_between(x + a, x + b) for a, b in E), Dyadic(0))


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(PROMISE_CASES)), x=st.integers(0, 1 << 12),
       step=st.integers(0, (1 << 12) - 1))
def test_union_test_set_increases_over_steps_of_rho(name, x, step):
    # offsets x at 2**-12 over the room E + x + 2 rho leaves in [0, 8), steps in [rho, 2 rho)
    E = [(as_dyadic(a), as_dyadic(b)) for a, b in PROMISE_CASES[name][0]]
    room = Dyadic(8) - E[-1][1] - PROMISE_RHO * 2
    x, s = room * Dyadic(x, 12), PROMISE_RHO + PROMISE_RHO * Dyadic(step, 12)
    T = _promise_set(name)
    assert _translate_measure(T, E, x + s) > _translate_measure(T, E, x)


def test_union_test_set_has_flats_below_rho():
    # the README check at grid step 1/64, a quarter of rho: 192 zero increments
    T = _promise_set("unit")
    xs = np.arange(0, 6 * 64 + 1, dtype=np.int64)
    c, _, e = T.cumulative_nums(np.concatenate([xs, xs + 64]), 6)
    increments = np.diff(c[xs.size:] - c[:xs.size])
    assert int(np.sum(increments == 0)) == 192 and np.all(increments >= 0)


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
    return magnify_test_set(disk_profile_small, Window.of(-6, 6), a_max=2.0)


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


def _one_eps(o):
    o["growth"]["eps_grid"] = [o["growth"]["eps_grid"][0]] * len(o["growth"]["eps_grid"])


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
        (_scaled(("growth", "k_bounds", 2), 1.5), "growth fit does not replay"),
        (_one_eps, "growth fit does not replay"),
        (_scaled(("h0",), 1e9), "h(0) outside (0,1)"),
        (_scaled(("C3",), 2.0), "h(0) != c2/(24 C3)"),
        (_scaled(("shells", 1, "k_bound"), 1e6), "shell 1: h*K exceeds regime-2 budget"),
        (_scaled(("shells", 1, "delta"), 3.0), "shell 1: delta > 1 h(k+1)"),
        (_scaled(("shells", 1, "n"), 0), "shell 1: n not above 4/delta"),
        (_last_shell_h_up, "h not non-increasing"),
    ],
    ids=["slope", "k-bound", "one-eps", "h0-range", "h0-formula", "regime-2", "delta", "n",
         "h-order"],
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


def test_magnify_growth_gate_raises(disk_profile_small, monkeypatch):
    monkeypatch.setattr(construct, "GROWTH_SLOPE_MAX", 1e-9)
    with pytest.raises(GrowthCertificateError):
        magnify_test_set(disk_profile_small, Window.of(-4, 4), a_max=2.0)


@pytest.mark.parametrize("a_max", [0.5, math.nan, math.inf])
def test_magnify_refuses_horizon(disk_profile_small, a_max):
    with pytest.raises(ValueError, match=f"^a_max must be finite and at least 1, got {a_max}$"):
        magnify_test_set(disk_profile_small, Window.of(-4, 4), a_max)


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


def _translate_window(profile, d: int, options: FamilyOptions) -> Window:
    s0, s1 = profile.support
    bmax = options.translate_radius * math.sqrt(d) + 1.0
    half = int(math.ceil(bmax + max(abs(s0), abs(s1)) + 1))
    return Window.of(-half, half)


def _per_direction_family(shape, mode, options):
    """The family screened and built afresh for every candidate direction."""
    from reconset import construct as c

    normals = c._face_normals(shape)
    accepted, dirs = [], []
    for theta in c._direction_candidates(shape.d, c.SCREEN_CANDIDATES, options.seed):
        if len(accepted) == shape.d:
            break
        if mode == "magnify" and c._is_convex(shape) and not isinstance(shape, Ball):
            try:
                theta = c.diameter_direction(shape, c.DIAMETER_SQUEEZE, theta)
            except ValueError:
                pass
        tv = theta.as_array()
        if any(abs(float(tv @ n)) > 1.0 - 1e-9 for n in normals):
            continue
        if dirs and np.linalg.svd(np.stack(dirs + [tv]), compute_uv=False)[-1] < c.SCREEN_MIN_SINGULAR:
            continue
        built = c._screened_test_set(
            radon_profile(shape, theta, options.resolution), mode, shape.d, options
        )
        if built is not None:
            accepted.append(SlabTestSet(theta, built[0], built[1].effective_window, certificate=built[1]))
            dirs.append(tv)
    return accepted


def _same_slabs(got, want):
    assert [s.theta.theta for s in got] == [s.theta.theta for s in want]
    for g, w in zip(got, want):
        assert np.array_equal(g.T.rows(), w.T.rows())
        assert g.window == w.window
        assert json.dumps(g.certificate.to_json()) == json.dumps(w.certificate.to_json())


def test_family_disk_slabs_equal_direct_builds():
    options = FamilyOptions(resolution=512, seed=1)
    disk = Ball((0.0, 0.0), 1.0)
    slabs = family_test_sets(disk, "translate", options)
    for s in slabs:
        profile = radon_profile(disk, s.theta, options.resolution)
        T, cert = translate_test_set(profile, _translate_window(profile, 2, options))
        assert np.array_equal(s.T.rows(), T.rows())
        assert json.dumps(s.certificate.to_json()) == json.dumps(cert.to_json())


def test_family_centered_ball_is_built_once(monkeypatch):
    from reconset import construct

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return translate_test_set(*args, **kwargs)

    monkeypatch.setattr(construct, "translate_test_set", counted)
    slabs = family_test_sets(Ball((0.0, 0.0, 0.0), 1.0), "translate", FamilyOptions(resolution=16))
    assert len(slabs) == 3 and len(calls) == 1
    assert all(s.T is slabs[0].T for s in slabs)


@pytest.mark.parametrize(
    "shape",
    [
        Ball((0.25, -0.5), 1.0),
        Box((0.0, 0.0), (1.0, 1.0)),
        # both axes project the vertices to knots 0, 1, 2, 3; the sections
        # differ (1.5 and 2.5 wide along x, 7/3 and 5/3 along y)
        Polygon([(0.0, 1.0), (2.0, 0.0), (3.0, 3.0), (1.0, 2.0)]),
    ],
    ids=["off-center-ball", "box", "polygon"],
)
def test_family_matches_per_direction_builds(shape):
    options = FamilyOptions(resolution=16, seed=3)
    _same_slabs(family_test_sets(shape, "translate", options), _per_direction_family(shape, "translate", options))


# the directions translate families accept at the default resolution, as
# float.hex of each component of θ: the disk takes both axes, the triangle
# its first axis and one keyed candidate, the 3-simplex (whose axes are face
# normals) three keyed candidates
FAMILY_DIRECTIONS = {
    ("disk", 0): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.0000000000000p+0"),
    ],
    ("disk", 1): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.0000000000000p+0"),
    ],
    ("disk", 7): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.0000000000000p+0"),
    ],
    ("triangle", 0): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.4ad79516722f0p-1", "-0x1.86c0a1d9aa195p-1"),
    ],
    ("triangle", 1): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.d00843c99c5fdp-3", "0x1.f2af349e17507p-1"),
    ],
    ("triangle", 7): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.820e3b04eaabdp-2", "-0x1.da383a9668989p-1"),
    ],
    ("3-simplex", 0): [
        ("-0x1.107c42a76bea7p-1", "-0x1.1b8caae3e2a3bp-2", "-0x1.99a0ef712b898p-1"),
        ("-0x1.16c9c45f89d35p-3", "-0x1.4a0935a5ce748p-1", "0x1.812dbacb86e48p-1"),
        ("-0x1.86679b45bdc32p-4", "-0x1.9be7bf475b228p-6", "0x1.fd81a618ca935p-1"),
    ],
    ("3-simplex", 1): [
        ("0x1.321a8320bc335p-1", "0x1.cf873b97f86b0p-2", "-0x1.52b7d9eff4d30p-1"),
        ("0x1.c5bcfa83f5219p-1", "0x1.37a7caea3bcd6p-2", "0x1.65ad8ac033617p-2"),
        ("-0x1.756a97bc7c7d9p-3", "-0x1.a3b456cfd9c9fp-1", "0x1.15fcdd0c514c7p-1"),
    ],
    ("3-simplex", 7): [
        ("0x1.394e14d9ebf50p-1", "0x1.4bfdbe8e5cc40p-2", "-0x1.715d11f73e620p-1"),
        ("0x1.3510f902b1116p-4", "-0x1.d50b5e69ab37dp-2", "-0x1.c57cc4fe2699cp-1"),
        ("0x1.6bab198511f12p-2", "-0x1.35afb3bb51476p-1", "0x1.6cee5c466bc83p-1"),
    ],
}


@pytest.mark.parametrize("name, seed", list(FAMILY_DIRECTIONS))
def test_family_screen_keeps_accepted_directions(monkeypatch, name, seed):
    from types import SimpleNamespace

    from reconset.shapes import Simplex

    shape = {
        "disk": Ball((0.0, 0.0), 1.0),
        "triangle": Polygon([(0.0, 0.0), (2.0, 0.0), (0.5, 1.5)]),
        "3-simplex": Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))),
    }[name]
    # only the screen and the direction search decide the directions, so the
    # build is stubbed (the 3-simplex's would exceed the quantizer's cap)
    monkeypatch.setattr(
        construct, "translate_test_set",
        lambda profile, window: (IntervalSet([(0, 1)]), SimpleNamespace(effective_window=window)),
    )
    slabs = family_test_sets(shape, "translate", FamilyOptions(seed=seed))
    assert [tuple(c.hex() for c in s.theta.theta) for s in slabs] == FAMILY_DIRECTIONS[name, seed]


def test_direction_candidates_are_keyed_philox_draws():
    # candidate i reads the stream numpy's Philox(key=seed << 64 | i) yields
    seed = 2**64 - 5
    cands = list(construct._direction_candidates(2, 8, seed))
    assert cands[:2] == [Direction.axis(0, 2), Direction.axis(1, 2)]
    for i, c in enumerate(cands[2:]):
        word = int(np.random.Philox(key=(seed << 64) | i).random_raw()) & 0xFFFFFFFF
        ang = 2.0 * math.pi * (word >> 20) / 4096.0
        assert c.theta == (math.cos(ang), math.sin(ang))
    # in d >= 3, the first lattice point in the shell, normalized
    for d in (3, 4):
        for i, c in enumerate(list(construct._direction_candidates(d, 16, seed))[d:]):
            words = np.random.Philox(key=(seed << 64) | i).random_raw(32 * d).astype("<u8").view("<u4")
            points = ((words.astype(np.int64) >> 19) - 4096).reshape(-1, d).tolist()
            v = next(p for p in points if 2048**2 <= sum(x * x for x in p) < 4096**2)
            assert c.theta == tuple(x / math.sqrt(sum(x * x for x in v)) for x in v)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_family_refuses_seed_outside_64_bits(seed):
    # also when the axes alone would pass
    with pytest.raises(ValueError, match=rf"seed {seed} is outside \[0, 2\*\*64\)"):
        family_test_sets(Ball((0.0, 0.0), 1.0), "translate", FamilyOptions(resolution=16, seed=seed))


def test_family_draws_no_candidate_after_the_last_accepted(monkeypatch):
    drawn = []
    candidates = construct._direction_candidates

    def counted(*args):
        for c in candidates(*args):
            drawn.append(c)
            yield c

    monkeypatch.setattr(construct, "_direction_candidates", counted)
    slabs = family_test_sets(Ball((0.0, 0.0), 1.0), "translate", FamilyOptions(resolution=16))
    assert [s.theta for s in slabs] == drawn == [Direction.axis(0, 2), Direction.axis(1, 2)]


def test_family_growth_rejection_recorded_once(monkeypatch):
    from reconset import construct

    calls = []

    def rejecting(*args, **kwargs):
        calls.append(args)
        raise GrowthCertificateError("steep growth", slope=1.0, slope_max=0.0)

    monkeypatch.setattr(construct, "magnify_test_set", rejecting)
    with pytest.raises(SearchBudgetError, match="only 0 of 2 directions"):
        family_test_sets(Ball((0.0, 0.0), 1.0), "magnify", FamilyOptions(resolution=8))
    assert len(calls) == 1


def test_family_translate_skips_an_infeasible_direction(monkeypatch):
    # a direction whose budgets exceed the quantizer's cap is rejected as the
    # screen rejects one, and the search goes on to the next candidate; the
    # triangle's profiles differ by direction, so each candidate is built
    from types import SimpleNamespace

    calls = []

    def first_infeasible(profile, window):
        calls.append(profile)
        if len(calls) == 1:
            raise InfeasibleResolutionError("cell at -10 needs 8388608 blocks (> 4194304)")
        return IntervalSet([(0, 1)]), SimpleNamespace(effective_window=window)

    monkeypatch.setattr(construct, "translate_test_set", first_infeasible)
    triangle = Polygon([(0.0, 0.0), (2.0, 0.0), (0.5, 1.5)])
    slabs = family_test_sets(triangle, "translate", FamilyOptions(seed=0))
    dirs = [tuple(c.hex() for c in s.theta.theta) for s in slabs]
    assert len(slabs) == 2 and len(calls) == 3
    assert FAMILY_DIRECTIONS["triangle", 0][0] not in dirs  # the first build's axis
