import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconset.dyadic import Dyadic
from reconset.intervals import IntervalSet, Window
from reconset.quantize import (
    TIE_DUST,
    ShellBudget,
    cells_to_interval_set,
    greedy_mask,
    greedy_quantizer,
    least_power_of_two_above,
    quantize_cell,
    quantizer_residual,
    tiled_quantizer,
)
from reconset.targets import AffineTarget, LogSquaredDecay, Logistic


def reference_greedy_mask(block_integrals: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Literal block rule; returns (kept mask, final running integral)."""
    s = 0.0
    kept = np.zeros(n, dtype=bool)
    for m in range(n):
        skip = s - block_integrals[m]
        if m == 0 or n * skip < -TIE_DUST:  # a tie skips, as in `greedy_mask`
            kept[m] = True
            s = skip + 1.0 / n
        else:
            s = skip
    return kept, s


def antiderivative(block_integrals: np.ndarray) -> np.ndarray:
    """A at the block edges, as `greedy_mask` takes it: [0, cumsum(ints)]."""
    return np.concatenate([[0.0], np.cumsum(block_integrals)])


def block_integrals(target, lo: float, n: int) -> np.ndarray:
    """∫ phi over each of the n blocks [lo + m/n, lo + (m+1)/n]."""
    edges = lo + np.arange(n + 1, dtype=np.float64) / n
    return np.asarray(target.integrate_phi(edges[:-1], edges[1:]))


def test_least_power_of_two_above():
    assert least_power_of_two_above(8) == 16  # strictly greater
    assert least_power_of_two_above(7.9) == 8
    assert least_power_of_two_above(1) == 2
    assert least_power_of_two_above(0.3) == 2


def test_worked_example_identity_target():
    # phi(x) = x, n = 4: keep, skip, keep, skip; zero trim
    T = greedy_quantizer(AffineTarget(1.0, 0.0), 4)
    assert T == IntervalSet([(0, Dyadic(1, 2)), (Dyadic(1, 1), Dyadic(3, 2))])


def test_worked_example_partial_sums():
    target = AffineTarget(1.0, 0.0)
    ints = block_integrals(target, 0.0, 4)
    kept, h = reference_greedy_mask(ints, 4)
    assert kept.tolist() == [True, False, True, False]
    assert h == pytest.approx(0.0, abs=1e-15)
    fast_kept, fast_h = greedy_mask(antiderivative(ints), 4)
    assert np.array_equal(fast_kept, kept) and fast_h == pytest.approx(h, abs=1e-15)
    # running integrals of (chi_T - phi) after each block: 7/32, 4/32, 7/32, 0
    s = []
    acc = 0.0
    for m in range(4):
        acc += kept[m] / 4.0 - ints[m]
        s.append(acc)
    assert np.allclose(s, [7 / 32, 4 / 32, 7 / 32, 0.0], atol=1e-15)


def test_constant_target_density():
    c = 0.37
    n = 256
    T = greedy_quantizer(AffineTarget(0.0, c), n)
    assert abs(float(T.measure()) - c) <= 2.0 / n


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_greedy_mask_matches_reference(log_n, rate, shift):
    n = 2**log_n * 4
    ints = block_integrals(Logistic(rate), shift, n)
    kept_fast, h_fast = greedy_mask(antiderivative(ints), n)
    kept_ref, h_ref = reference_greedy_mask(ints, n)
    assert np.array_equal(kept_fast, kept_ref)
    assert h_fast == pytest.approx(h_ref, abs=1e-12)


def test_greedy_mask_tie_skips_in_both_rules():
    # a logistic centred on [-1/2, 1/2] integrates to exactly 1/2, so the last
    # block is a tie; float dust in the running sum must not keep it
    n = 8
    ints = block_integrals(Logistic(3.0), -0.5, n)
    kept_fast, h_fast = greedy_mask(antiderivative(ints), n)
    kept_ref, h_ref = reference_greedy_mask(ints, n)
    assert kept_fast.tolist() == [True, False, False, True, False, True, True, False]
    assert np.array_equal(kept_fast, kept_ref)
    assert h_fast == pytest.approx(h_ref, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.floats(min_value=0.2, max_value=2.5))
def test_quantizer_guarantees_random_targets(log_n, rate):
    n = 2**log_n
    target = Logistic(rate)
    T = greedy_quantizer(target, n)
    rng = np.random.default_rng(1234)
    pts = np.sort(rng.uniform(0.0, 1.0, size=200))
    res = quantizer_residual(T, target, 0.0, pts)
    # |∫_a^b| = |D(b) - D(a)| <= 4/n for all pairs <=> max spread <= 4/n
    assert res.max() - res.min() <= 4.0 / n + 1e-9
    total = quantizer_residual(T, target, 0.0, np.array([1.0]))[0]
    assert abs(total) <= 1e-12


def test_zero_integral_with_trim():
    target = Logistic(1.0)
    for n in (8, 64, 512):
        T = greedy_quantizer(target, n)
        total = quantizer_residual(T, target, 0.0, np.array([1.0]))[0]
        assert abs(total) <= 1e-12


def test_tiled_quantizer_single_cell_reduces_to_greedy():
    target = Logistic(0.7)
    delta = ShellBudget((0.5,))
    T, res = tiled_quantizer(target, delta, Window.of(0, 1))
    assert res == {0: 16}  # least power of two above 4/0.5 = 8 is 16
    assert T == greedy_quantizer(target, 16)


def test_tiled_quantizer_shell_bound():
    target = Logistic(0.5)
    delta = ShellBudget(tuple(2.0 ** (-k - 3) for k in range(4)))
    window = Window.of(-4, 4)
    T, res = tiled_quantizer(target, delta, window)
    # bound at all half-integer pairs: |∫_a^b| <= delta(fl|a|) + delta(fl|b|)
    pts = np.arange(-8, 9) / 2.0
    D = quantizer_residual(T, target, -4.0, pts)
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            if b <= a:
                continue
            bound = delta(min(int(abs(a)), 3)) + delta(min(int(abs(b)), 3))
            assert abs(D[j] - D[i]) <= bound + 1e-9


def test_tiled_window_must_be_integer():
    with pytest.raises(ValueError):
        tiled_quantizer(Logistic(), ShellBudget((0.5,) * 3), Window.of(0, Dyadic(3, 1)))


def test_shell_budget_validation():
    with pytest.raises(ValueError):
        ShellBudget((0.5, 1.5))
    with pytest.raises(ValueError):
        ShellBudget(())


def test_log_squared_decay_target():
    t = LogSquaredDecay()
    # derivative positive, even, decreasing in |x|
    xs = np.array([0.0, 1.0, -1.0, 5.0, 25.0])
    d = t.dphi(xs)
    assert np.all(d > 0)
    assert d[1] == pytest.approx(d[2])
    assert d[3] > d[4]
    # phi increasing, inside (0, 1), phi(0) = 1/2
    assert t.phi(0.0) == pytest.approx(0.5)
    ps = t.phi(np.array([-30.0, -1.0, 0.5, 4.0, 30.0]))
    assert np.all(np.diff(ps) > 0)
    assert 0.0 < ps[0] and ps[-1] < 1.0
    # decay shape: phi'(x) * u ln^2 u constant
    for x in (3.0, 10.0, 40.0):
        u = math.hypot(math.e, x)
        assert t.dphi(x) * u * math.log(u) ** 2 == pytest.approx(t.c1)


def test_log_squared_decay_block_integrals_consistent():
    t = LogSquaredDecay()
    edges = 2.0 + np.arange(17) / 16.0
    A = t.cell_antiderivative(2, 16)
    assert A.shape == (17,) and A[0] == pytest.approx(0.0, abs=1e-16)
    fast = np.diff(A)
    slow = np.asarray(t.integrate_phi(edges[:-1], edges[1:]))
    assert np.allclose(fast, slow, atol=1e-13)
    # against a trapezoid oracle on a very fine grid
    for i in (0, 7, 15):
        g = np.linspace(edges[i], edges[i + 1], 4001)
        orc = np.trapezoid(t.phi(g), g)
        assert fast[i] == pytest.approx(orc, abs=1e-9)


@pytest.mark.parametrize("lo, hi", [(-12, 11), (-12, 10), (-6, 5), (11, -12)])
def test_log_squared_decay_integral_over_many_cells(lo, hi):
    # one Gauss-Legendre panel over all of [-12, 11] was off by 2.1e-4
    t = LogSquaredDecay()
    sign = 1.0 if lo <= hi else -1.0
    cells = range(min(lo, hi), max(lo, hi))
    want = sign * math.fsum(float(t.integrate_phi(k, k + 1.0)[0]) for k in cells)
    assert float(t.integrate_phi(float(lo), float(hi))[0]) == pytest.approx(want, abs=1e-12)


def test_logistic_block_integrals_exact():
    t = Logistic(0.8)
    edges = -1.0 + np.arange(9) / 8.0
    fast = np.diff(t.cell_antiderivative(-1, 8))
    for i in (0, 3, 7):
        g = np.linspace(edges[i], edges[i + 1], 4001)
        orc = np.trapezoid(t.phi(g), g)
        assert fast[i] == pytest.approx(orc, abs=1e-10)


def test_quantize_cell_negative_cells():
    target = Logistic(0.5)
    cell = quantize_cell(target, -3, 32)
    T = cells_to_interval_set([cell])
    lo, hi = T.span()
    assert float(lo) >= -3.0 and float(hi) <= -2.0
    total = quantizer_residual(T, target, -3.0, np.array([-2.0]))[0]
    assert abs(total) <= 1e-12


@pytest.mark.parametrize(
    "target", [Logistic(0.5), LogSquaredDecay()], ids=["logistic", "log-squared-decay"]
)
def test_windowed_integral_norm_obeys_shell_bound(target):
    def windowed_integral_norm(T, target, x, a, samples=512):
        """sup over x-a <= u <= v <= x+a of |∫_u^v (chi_T - phi)|, on a sample
        grid refined by the interval endpoints inside the window."""
        ends = T.to_floats().ravel()
        inside = ends[(ends >= x - a) & (ends <= x + a)]
        pts = np.unique(
            np.concatenate([[x - a, x + a], inside, np.linspace(x - a, x + a, samples)])
        )
        D = quantizer_residual(T, target, x - a, pts)
        return float(D.max() - D.min())

    delta = ShellBudget(tuple(2.0 ** (-k - 3) for k in range(4)))
    T, _ = tiled_quantizer(target, delta, Window.of(-4, 4))
    # by the shell bound, the a-window norm at x is at most twice the largest
    # delta over shells reachable from [x-a, x+a]
    for x, a in ((0.0, 1.0), (1.5, 1.0), (-2.5, 1.0), (0.5, 2.0)):
        norm = windowed_integral_norm(T, target, x, a)
        ks = range(max(0, int(abs(x)) - int(a) - 1), 4)
        bound = 2.0 * max(delta(min(k, 3)) for k in ks)
        assert norm <= bound + 1e-9


def test_logistic_matches_expit_bit_for_bit():
    # certificate floats depend on the last bit of phi; |z| > 709 overflows exp
    special = pytest.importorskip("scipy.special")
    x = np.concatenate([np.linspace(-2000.0, 2000.0, 200_001), [-np.inf, np.inf, -0.0]])
    for rate in (0.25, 0.5, 0.7, 1.0, 3.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = Logistic(rate).phi(x)
        assert got.tobytes() == special.expit(rate * x).tobytes()
        assert Logistic(rate).phi(x[7]) == special.expit(rate * x[7])
