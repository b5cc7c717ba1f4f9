import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


@pytest.mark.parametrize("n", [40, 5000], ids=["direct", "by_parts"])
def test_sliding_batch_equals_one_offset_at_a_time(n):
    # the path is chosen by |T| alone, so F(b) has the same bits whether b
    # comes in a batch or alone; slab measures deduplicate offsets on this
    rng = np.random.default_rng(5)
    lows = np.sort(rng.choice(1 << 16, size=n, replace=False)).astype(np.int64) * 2
    T = IntervalSet.from_arrays(lows - (1 << 16), lows - (1 << 16) + 1, 14)
    assert len(T) == n
    b = np.concatenate([rng.uniform(-3, 3, size=30), [0.0, -0.0, 1.5, 1.5]])
    for p, a in ((Profile.from_knots([-1, -0.25, 0.5, 1], [0, 0.5, 2, 0]), 1.5),
                 (Profile.step([-1, 0, 1], [1.0, 0.25]), 2.0)):
        batch = sliding_integral(p, T, a, b, big_window())
        alone = np.concatenate([sliding_integral(p, T, a, [x], big_window()) for x in b])
        assert np.array_equal(batch.view(np.int64), alone.view(np.int64))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sliding_refuses_non_finite_scale_and_offsets(bad):
    T = IntervalSet([(0, 1)])
    with pytest.raises(ValueError, match="scale"):
        sliding_integral(TENT, T, bad, [0.0], big_window())
    with pytest.raises(ValueError, match="offsets"):
        sliding_integral(TENT, T, 1.0, [0.0, bad, bad], big_window())


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


def _oracle_ac_diagnostic(p: Profile, power: float, cutoffs, samples: int = 1 << 20):
    """The spectral partial integrals with a stable argsort of |freqs| and a
    cumulative sum over the whole spectrum."""
    cutoffs = np.asarray(cutoffs, dtype=np.float64)
    s0, s1 = p.support
    width = s1 - s0
    center = (s0 + s1) / 2.0
    span = 4.0 * width
    xs = center - span / 2.0 + span * np.arange(samples) / samples
    vals = p(xs)
    rel = (xs - (center - span / 2.0)) / span
    taper = np.ones(samples)
    left = rel < 0.25
    right = rel > 0.75
    taper[left] = 0.5 * (1.0 - np.cos(4.0 * np.pi * rel[left]))
    taper[right] = 0.5 * (1.0 - np.cos(4.0 * np.pi * (1.0 - rel[right])))
    dx = span / samples
    spectrum = np.fft.fft(vals * taper) * dx
    freqs = np.fft.fftfreq(samples, dx)
    density = np.abs(spectrum) ** 2 * np.abs(freqs) ** power
    order = np.argsort(np.abs(freqs), kind="stable")
    absf = np.abs(freqs)[order]
    cum = np.cumsum(density[order]) * (1.0 / span)
    idx = np.searchsorted(absf, cutoffs, side="right") - 1
    if np.any(idx < 0):
        raise ValueError("cutoff below the frequency resolution")
    return cum[idx]


@pytest.fixture(scope="module")
def section_profiles():
    from reconset.shapes import Ball, Box, Direction, Polygon, radon_profile

    theta = Direction((0.6, 0.8))
    return [
        radon_profile(Ball((0.0, 0.0), 1.0), Direction((1.0, 0.0)), 512),
        radon_profile(Box((0.0, 0.0), (1.0, 2.0)), theta, 64),
        radon_profile(Polygon([(0.0, 0.0), (2.0, 0.0), (0.5, 1.5)]), theta, 64),
    ]


@pytest.mark.parametrize("power", [1.0, 2.0])
def test_ac_diagnostic_matches_argsort_oracle(section_profiles, power):
    from reconset.construct import SCREEN_CUTOFFS

    for p in section_profiles:
        got = ac_diagnostic(p, power, SCREEN_CUTOFFS)
        assert got.tobytes() == _oracle_ac_diagnostic(p, power, SCREEN_CUTOFFS).tobytes()


def test_ac_diagnostic_clamps_at_nyquist(section_profiles):
    # 64 samples over a span of 8-9 put Nyquist near 4: the cutoff 1e6 takes
    # every bin, and for even N the bin N/2 comes once, last
    for p in section_profiles:
        for samples in (64, 63):
            cutoffs = [0.5, 3.0, 1e6]
            got = ac_diagnostic(p, 2.0, cutoffs, samples)
            want = _oracle_ac_diagnostic(p, 2.0, cutoffs, samples)
            assert got.tobytes() == want.tobytes()


def test_ac_diagnostic_refuses_cutoff_below_resolution():
    with pytest.raises(ValueError, match="below the frequency resolution"):
        ac_diagnostic(TENT, 1.0, [-2.0, -1.0], 64)
    with pytest.raises(ValueError, match="ascending"):
        ac_diagnostic(TENT, 1.0, [1.0, math.nan, 3.0], 64)


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


# -- the exact running sum and the bisected threshold against the quadratic code


def _oracle_merge_chain(g: StepProfile):
    """The merge chain as first written: each state's variation re-sums every
    live jump with math.fsum."""
    import heapq

    from reconset.analysis import _weighted_median_and_cost

    n = g.piece_count
    widths = g.widths()
    items = [[(float(g.vals[i]), float(widths[i]))] for i in range(n)]
    meds = [float(v) for v in g.vals]
    costs = [0.0] * n
    last_piece = list(range(n))
    prev = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    alive = [True] * n
    version = [0] * n

    def merged_data(k):
        right = nxt[k]
        both = sorted(items[k] + items[right])
        med, cost = _weighted_median_and_cost(both)
        return both, med, cost

    def variation_total():
        vals = [meds[k] for k in range(n) if alive[k]]
        total = abs(vals[0]) + abs(vals[-1])
        total += math.fsum(abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1))
        return total

    heap = []
    for k in range(n - 1):
        _, med, cost = merged_data(k)
        delta = cost - costs[k] - costs[k + 1]
        heapq.heappush(heap, (delta, k, version[k], version[k + 1]))

    states = [(0.0, variation_total())]
    order = []
    cum = 0.0
    budget_cap = g.l1_norm() * 1.5 + 1e-9
    while heap and cum <= budget_cap:
        delta, k, vk, vr = heapq.heappop(heap)
        right = nxt[k] if k < n else -1
        if not alive[k] or right >= n or right < 0 or not alive[right]:
            continue
        if version[k] != vk or version[right] != vr:
            continue
        both, med, cost = merged_data(k)
        items[k] = both
        meds[k] = med
        costs[k] = cost
        alive[right] = False
        order.append(last_piece[k])
        last_piece[k] = last_piece[right]
        nxt[k] = nxt[right]
        if nxt[k] < n:
            prev[nxt[k]] = k
        version[k] += 1
        cum += max(delta, 0.0)
        states.append((cum, variation_total()))
        if prev[k] >= 0:
            _, _, c2 = merged_data(prev[k])
            d2 = c2 - costs[prev[k]] - costs[k]
            heapq.heappush(heap, (d2, prev[k], version[prev[k]], version[k]))
        if nxt[k] < n:
            _, _, c3 = merged_data(k)
            d3 = c3 - costs[k] - costs[nxt[k]]
            heapq.heappush(heap, (d3, k, version[k], version[nxt[k]]))
    return order, states


def _oracle_truncation_threshold(g: StepProfile, eps: float):
    """The truncation threshold as first written: a scan of every level."""
    w = g.widths()
    v = np.abs(g.vals)
    if float(math.fsum(w * v)) < eps:
        return 0.0
    levels = np.unique(v)

    def excess(t: float) -> float:
        return float(math.fsum(w * np.maximum(v - t, 0.0)))

    prev_t, prev_e = 0.0, excess(0.0)
    t_star = float(levels[-1])
    for t in levels:
        e = excess(float(t))
        if e < eps:
            if prev_e > e:
                t_star = prev_t + (prev_e - eps) * (t - prev_t) / (prev_e - e)
            else:
                t_star = float(t)
            break
        prev_t, prev_e = float(t), e
    for bump in (1e-12, 1e-9, 1e-6):
        t_try = t_star * (1 + bump) + bump
        if excess(t_try) < eps:
            return t_try
    return None


def _oracle_chain_witness(g: StepProfile, chain, j: int) -> StepProfile:
    from reconset.analysis import _weighted_median_and_cost

    order, _ = chain
    removed = set(order[:j])
    edges = [float(g.edges[0])]
    vals = []
    widths = g.widths()
    block = []
    for i in range(g.piece_count):
        block.append((float(g.vals[i]), float(widths[i])))
        if i in removed:
            continue
        med, _ = _weighted_median_and_cost(sorted(block))
        vals.append(med)
        edges.append(float(g.edges[i + 1]))
        block = []
    return StepProfile(edges, vals)


@st.composite
def step_functions(draw):
    """1-400 pieces on uniform or random widths; values drawn freely (zeros,
    negatives, subnormals), from a small pool (repeats), or a 1/sqrt(x) spike."""
    n = draw(st.integers(1, 400))
    if draw(st.booleans()):
        edges = np.linspace(0.0, 1.0, n + 1)
    else:
        widths = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
        edges = np.concatenate([[0.0], np.cumsum(widths)])
        edges /= edges[-1]
    kind = draw(st.sampled_from(["free", "repeated", "spike"]))
    if kind == "free":
        vals = draw(st.lists(st.floats(-10.0, 10.0) | st.sampled_from([0.0, -1.0, 1.0]),
                             min_size=n, max_size=n))
    elif kind == "repeated":
        vals = draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0]),
                             min_size=n, max_size=n))
    else:
        edges[0] = 1e-9
        vals = 1.0 / np.sqrt((edges[:-1] + edges[1:]) / 2.0)
        if draw(st.booleans()):
            vals = -vals
    return StepProfile(edges, vals)


EPS_GRID = np.geomspace(1e-3, 1.0, 5).tolist()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(g=step_functions())
def test_merge_chain_and_bounds_match_quadratic_oracle(g):
    from reconset import analysis

    new = VariationEnvelope(g)
    with mock.patch.object(analysis, "_merge_chain", _oracle_merge_chain):
        old = VariationEnvelope(g)
    # exact float equality: no state is NaN
    assert new._chain == old._chain
    for eps in EPS_GRID:
        # with equal thresholds, the bisection serves the oracle's bound too
        assert analysis._least_truncation_threshold(g, eps) == _oracle_truncation_threshold(g, eps)
        got = new.bound(eps)
        with mock.patch.object(analysis, "_chain_witness", _oracle_chain_witness):
            want = old.bound(eps)
        assert (got.variation_bound, got.l1_error, got.strategy) == (
            want.variation_bound, want.l1_error, want.strategy)
        assert got.witness.edges.tobytes() == want.witness.edges.tobytes()
        assert got.witness.vals.tobytes() == want.witness.vals.tobytes()


def test_k_upper_rejects_non_finite_eps():
    env = VariationEnvelope(TENT.derivative_step())
    for eps in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            env.bound(eps)
