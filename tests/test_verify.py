import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconset.analysis import sliding_integral
from reconset.construct import union_test_set
from reconset.dyadic import Dyadic, common_numerators, snap
from reconset.errors import ExactnessOverflowError, SearchBudgetError, WindowExceededError
from reconset.gridsets import validate_levels, sample_grid_set
from reconset.intervals import IntervalSet, Window
from reconset.profiles import Profile
from reconset import shapes
from reconset.shapes import (
    Ball,
    Direction,
    IntervalUnion,
    Pose,
    SlabTestSet,
    intersection_measure_detailed,
    radon_profile,
)
from reconset.verify import (
    MAX_GRID_POINTS,
    MAX_LISTED_COLLISIONS,
    IntervalFamilyGrid,
    TranslateFamilyGrid,
    interval_counterexample,
    injectivity_report,
    measure_vector,
    monotonicity_report,
    grid_points,
    monte_carlo_reconstruction,
    pairwise_min_linf,
)


# -- grids -------------------------------------------------------------------------


def _oracle_range(lo, hi, step):
    """A grid as a list of Dyadics, sized first (the construction the int64
    grids replace)."""
    if not Dyadic(0) < step:
        raise ValueError(f"grid step must be positive, got {step}")
    (lo_n, hi_n, step_n), _ = common_numerators([lo, hi, step])
    size = max(0, (hi_n - lo_n) // step_n + 1)
    if size > MAX_GRID_POINTS:
        raise ValueError("too many points")
    return [lo + step * k for k in range(size)]


def _oracle_numerators(points):
    """Numerators at the least common exponent, refused beyond int64 as the
    int64 prefix kernel refuses them."""
    nums, exp = common_numerators(points)
    if any(not -(1 << 63) <= n < 1 << 63 for n in nums):
        raise ExactnessOverflowError("numerators exceed int64")
    return nums, exp


def _same_as_oracle(oracle, build):
    """build() returns what oracle() does, as an int64 array and exponent, or
    raises the same exception type."""
    try:
        expect = oracle()
    except (ValueError, ExactnessOverflowError) as e:
        with pytest.raises(type(e)):
            build()
        return None
    ends, exp = build()
    assert ends.dtype == np.int64
    assert (ends.ravel().tolist(), exp) == expect
    return expect


exps = st.integers(0, 64)


@st.composite
def grids(draw, counts, steps=st.integers(-2, 1 << 63), least=None):
    """(lo, hi, step): lo negative, or above `least`, and hi so that the grid
    has a drawn count of points."""
    lo = Dyadic(draw(st.integers(0, 1 << 64)), draw(exps))
    lo = -lo if least is None else least + lo
    step = Dyadic(draw(steps), draw(exps))
    # hi lies in [last point, last point + step)
    hi = lo + step * (draw(counts) - 1) + step * Dyadic(draw(st.integers(0, 255)), 8)
    return lo, hi, step


@settings(max_examples=300, deadline=None)
@given(grids(st.integers(0, 300) | st.integers(MAX_GRID_POINTS + 1, 1 << 40)),
       st.lists(st.builds(Dyadic, st.integers(-(1 << 62), 1 << 62), exps),
                min_size=1, max_size=4))
def test_grid_points_match_dyadic_oracle(grid, offsets):
    lo, hi, step = grid
    _same_as_oracle(lambda: _oracle_numerators(_oracle_range(lo, hi, step)),
                    lambda: grid_points(lo, hi, step))
    _same_as_oracle(
        lambda: _oracle_numerators(
            [x + o for x in _oracle_range(lo, hi, step) for o in offsets]),
        lambda: grid_points(lo, hi, step, offsets),
    )


@settings(max_examples=200, deadline=None)
@given(grids(st.integers(0, 20), st.integers(1, 1 << 63)),
       grids(st.integers(0, 20), st.integers(1, 1 << 63), least=Dyadic(1, 64)))
def test_interval_family_instances_match_dyadic_oracle(x, length):
    grid = IntervalFamilyGrid(*x, *length)

    def oracle():
        ls = _oracle_range(*length)
        return _oracle_numerators([d for x in _oracle_range(*x) for L in ls for d in (x, x + L)])

    expect = _same_as_oracle(oracle, grid.instances)
    if expect is not None:
        nums, exp = expect
        want = (Dyadic(min(nums), exp), Dyadic(max(nums), exp)) if nums else None
        assert grid.span() == want


def test_interval_family_refuses_non_positive_length():
    for least in (0, -1):
        with pytest.raises(ValueError, match=f"the least length must be positive, got {least}"):
            IntervalFamilyGrid.of(0, 1, 1, least, 1, 1)


# -- measure_vector ---------------------------------------------------------------


def test_measure_vector_halfline():
    T = IntervalSet([(0, 100)])
    vals, errs, exp = measure_vector((np.array([[0, 1]]), 0), [T])
    assert vals.dtype == np.int64 and vals.tolist() == [[1]] and exp == 0
    assert errs.tolist() == [[0.0]]


def test_measure_vector_slab_square():
    from reconset.shapes import Box

    V = SlabTestSet(Direction((1.0, 0.0)), IntervalSet([(0, 1)]), Window.of(-4, 4))
    vals, errs, exp = measure_vector([(Box((0.0, 0.0), (1.0, 1.0)), Pose.identity(2))], [V])
    assert exp == 0 and vals[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_measure_vector_matches_sliding_integral_exactly():
    # cross-oracle: interval family against a semigroup test set
    T = union_test_set([1], Window.of(0, 8), Dyadic(1, 4))
    chi = Profile.indicator(0.0, 1.0)
    xs = [Dyadic(i, 3) for i in range(0, 33)]
    direct, _, exp = measure_vector((np.array([[i, i + 8] for i in range(0, 33)]), 3), [T])
    slid = sliding_integral(chi, T, 1.0, [float(x) for x in xs], Window.of(-2, 10))
    assert np.array_equal(direct[:, 0] * 2.0**-exp, slid)  # exact equality of the two paths


def test_measure_vector_gridset_window_guard():
    lv = validate_levels((16,), (4,), (0.5,), (0,), (1,))
    gs = sample_grid_set(lv, 1)
    with pytest.raises(WindowExceededError):
        measure_vector((np.array([[1, 3]]), 1), [gs])


# -- monotonicity -------------------------------------------------------------------


def test_monotonicity_report():
    r = monotonicity_report([0.0, 1.0, 2.0])
    assert r.min_increment == 1.0 and r.violations == [] and r.passed
    r2 = monotonicity_report([0.0, 1.0, 1.0])
    assert r2.min_increment == 0.0 and r2.violations == [2] and not r2.passed
    with pytest.raises(ValueError):
        monotonicity_report([1.0])


def test_monotonicity_report_exact():
    # 1 - k/2^60 rounds to 1.0 in floats: only the numerators see the rise
    r = monotonicity_report([(1 << 60) - k for k in range(16, 0, -1)], 60)
    assert r.passed and r.violations == [] and r.min_increment == 2.0**-60
    r2 = monotonicity_report([3, 5, 5, 4], 2)
    assert r2.violations == [2, 3] and r2.min_increment == -0.25 and not r2.passed


# -- injectivity ----------------------------------------------------------------------


def test_injectivity_translation_invariant_test_collides():
    grid = IntervalFamilyGrid.of(0, 1, Dyadic(1, 1), 1, 1, 1)
    T = IntervalSet([(-50, 50)])  # effectively the halfline: same measure for all
    rep = injectivity_report(grid, [T])
    assert rep.collisions  # all vectors equal (1)
    assert rep.min_separation == 0.0


def test_injectivity_with_semigroup_test_set():
    T = union_test_set([1], Window.of(0, 8), Dyadic(1, 4))
    grid = IntervalFamilyGrid.of(0, 3, Dyadic(1, 2), 1, 1, 1)
    rep = injectivity_report(grid, [T])
    assert not rep.collisions
    assert rep.min_separation > 0
    assert rep.passed


def test_pairwise_min_linf_bruteforce():
    rng = np.random.default_rng(3)
    # floats, and small integers with ties, duplicate rows and collisions
    for m, threshold in ((rng.uniform(size=(40, 3)), 0.1), (rng.integers(0, 6, size=(40, 3)), 1)):
        best, witness, collisions, count = pairwise_min_linf(m, threshold)
        dist = {(i, j): np.max(np.abs(m[i] - m[j])).item()
                for i in range(40) for j in range(i + 1, 40)}
        assert best == min(dist.values()) == dist[tuple(sorted(witness))]
        colliding = {p for p, d in dist.items() if d <= threshold}
        assert count == len(colliding) > 0
        assert {tuple(sorted(p)) for p in collisions} == colliding


def _sweep_oracle(matrix, threshold=0.0):
    """The per-row sweep the array sweep replaced: every collision listed."""
    n = matrix.shape[0]
    if n < 2:
        return math.inf, (-1, -1), []
    order = np.argsort(matrix[:, 0], kind="stable")
    m = matrix[order]
    col0 = m[:, 0]
    best = math.inf
    witness = (-1, -1)
    collisions = []
    for i in range(n - 1):
        cap = max(best, threshold)
        j_end = int(np.searchsorted(col0, col0[i] + cap, side="right")) if math.isfinite(cap) else n
        j_end = max(j_end, i + 2)
        j_end = min(j_end, n)
        block = m[i + 1 : j_end]
        if block.size == 0:
            continue
        dists = np.max(np.abs(block - m[i]), axis=1)
        k = int(np.argmin(dists))
        if float(dists[k]) < best:
            best = float(dists[k])
            witness = (int(order[i]), int(order[i + 1 + k]))
        hit = np.flatnonzero(dists <= threshold)
        for h in hit:
            collisions.append((int(order[i]), int(order[i + 1 + h])))
    return best, witness, collisions


@st.composite
def sweep_inputs(draw):
    """An int64 matrix with entries below 2**52, where the oracle's floats are
    exact, or the same numerators over 2**10 as floats, and a threshold:
    ties, duplicate rows and runs of more than MAX_LISTED_COLLISIONS
    collisions come up."""
    n = draw(st.integers(0, 3) | st.integers(4, 100))
    cols = draw(st.integers(1, 3))
    top = draw(st.sampled_from([1, 3, 1 << 20, 1 << 52]))
    rows = draw(st.lists(st.lists(st.integers(0, top), min_size=cols, max_size=cols),
                         min_size=n, max_size=n))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=8))
    m = np.array(rows, np.int64).reshape(-1, cols)
    threshold = draw(st.sampled_from([0, 1, 2, top // 4]))
    if draw(st.booleans()):
        return m * 2.0**-10, threshold * 2.0**-10
    return m, threshold


@settings(max_examples=80, deadline=None)
@given(sweep_inputs())
def test_pairwise_min_linf_matches_row_sweep(args):
    m, threshold = args
    best, witness, collisions, count = pairwise_min_linf(m, threshold)
    want_best, want_witness, want_collisions = _sweep_oracle(m, threshold)
    assert (best, witness) == (want_best, want_witness)
    assert collisions == want_collisions[:MAX_LISTED_COLLISIONS]
    assert count == len(want_collisions)


def test_injectivity_permutation_invariant():
    T = union_test_set([1], Window.of(0, 8), Dyadic(1, 4))
    g1 = IntervalFamilyGrid.of(0, 2, Dyadic(1, 2), 1, 1, 1)
    rep1 = injectivity_report(g1, [T])
    # same instances, reversed enumeration via a wrapper grid
    class Reversed:
        def instances(self):
            ends, exp = g1.instances()
            return ends[::-1], exp

        def describe(self):
            return {}

    rep2 = injectivity_report(Reversed(), [T])
    assert rep1.min_separation == pytest.approx(rep2.min_separation)


def test_injectivity_translate_family_disk_smoke():
    disk = Ball((0.0, 0.0), 1.0)
    T = IntervalSet([(Dyadic(-3), Dyadic(0))])
    V1 = SlabTestSet(Direction((1.0, 0.0)), T, Window.of(-6, 6))
    V2 = SlabTestSet(Direction((0.0, 1.0)), T, Window.of(-6, 6))
    grid = TranslateFamilyGrid(disk, (-0.5, -0.5), (0.5, 0.5), (5, 5))
    rep = injectivity_report(grid, [V1, V2], resolution=128)
    # the halfline-style slab measures are strictly monotone in each coordinate
    assert not rep.collisions
    assert rep.min_separation > 0


def test_translate_grid_with_nan_corner_refused():
    disk = Ball((0.0, 0.0), 1.0)
    grid = TranslateFamilyGrid(disk, (math.nan, -0.5), (0.5, 0.5), (3, 3))
    T = IntervalSet([(Dyadic(-3), Dyadic(0))])
    V = SlabTestSet(Direction((1.0, 0.0)), T, Window.of(-6, 6))
    with pytest.raises(ValueError, match="translation"):
        injectivity_report(grid, [V])


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _long_slab_set(n=5000):
    # n disjoint intervals inside [-3, 0): more than 4096, so sliding_integral
    # integrates by parts
    lows = -3 * 2**12 + 2 * np.arange(n, dtype=np.int64)
    T = IntervalSet.from_arrays(lows, lows + 1, 12)
    assert len(T) == n
    return T


def test_slab_measure_vector_matches_per_pose():
    # one sliding integral per (test, magnification, offset) equals one per
    # pose, bit for bit, on both sliding_integral paths: axis directions,
    # where offsets repeat; a non-axis direction, where none does; magnified
    # copies sharing every translation; and, in 1-D, the offsets 0.0 and -0.0
    # (<x, theta> for x = 0.0 against theta = -1), which np.unique merges
    disk = Ball((0.0, 0.0), 1.0)
    oblique = Direction.of((1.0, math.sqrt(2.0)))
    poses = TranslateFamilyGrid(disk, (-0.5, -0.5), (0.5, 0.5), (5, 5)).instances()
    assert len({oblique.dot(p.translation) for p in poses}) == len(poses)
    poses += [Pose(p.translation, 1.5) for p in poses]
    segment = IntervalUnion(IntervalSet([(Dyadic(-1, 1), Dyadic(1, 1))]))
    line_poses = [Pose((0.0,)), Pose((-0.0,)), Pose((0.25,)), Pose((0.0,), 2.0)]
    cases = [
        (disk, poses, [Direction((1.0, 0.0)), Direction((0.0, 1.0)), oblique]),
        (segment, line_poses, [Direction((1.0,)), Direction((-1.0,))]),
    ]
    for theta in cases[1][2]:
        signs = [math.copysign(1.0, theta.dot(p.translation)) for p in line_poses[:2]]
        assert sorted(signs) == [-1.0, 1.0]
    for T in (IntervalSet([(Dyadic(-3), Dyadic(0))]), _long_slab_set()):
        for shape, family, thetas in cases:
            tests = [SlabTestSet(theta, T, Window.of(-6, 6)) for theta in thetas]
            profiles = [radon_profile(shape, V.theta, 128) for V in tests]
            values, errors, _ = measure_vector([(shape, p) for p in family], tests, profiles)
            for i, pose in enumerate(family):
                for j, V in enumerate(tests):
                    v, e = intersection_measure_detailed(shape, pose, V, profile=profiles[j])
                    assert _bits(values[i, j]) == _bits(v) and errors[i, j] == e


def test_axis_grid_takes_one_sliding_integral_per_distinct_offset(monkeypatch):
    # the 33 x 33 translate grid of AC-06 against the two axis slabs: each
    # slab sees the 33 distinct coordinates, not the 1,089 poses
    calls = []

    def spy(p, T, a, b, window):
        calls.append(len(b))
        return sliding_integral(p, T, a, b, window)

    monkeypatch.setattr(shapes, "sliding_integral", spy)
    disk = Ball((0.0, 0.0), 1.0)
    T = IntervalSet([(Dyadic(-3), Dyadic(0))])
    slabs = [SlabTestSet(Direction.axis(i, 2), T, Window.of(-6, 6)) for i in range(2)]
    grid = TranslateFamilyGrid(disk, (-1.0, -1.0), (1.0, 1.0), (33, 33))
    rep = injectivity_report(grid, slabs, resolution=128)
    assert calls == [33, 33]
    assert rep.instance_count == 33 * 33 and not rep.collisions


# -- interval counterexample -------------------------------------------------------------


def recheck_pair(A, B, pair, tol):
    (x1, y1), (x2, y2) = pair.first, pair.second
    for S, d in ((A, pair.a_discrepancy), (B, pair.b_discrepancy)):
        m1 = IntervalSet([(x1, y1)]).intersect(S).measure()
        m2 = IntervalSet([(x2, y2)]).intersect(S).measure()
        assert abs(float(m1 - m2)) <= tol
    assert float(y1 - x1) > 1.0 and float(y2 - x2) > 1.0
    sep = max(abs(float(x1 - x2)), abs(float(y1 - y2)))
    assert sep >= 100 * tol


def test_counterexample_empty_sets():
    pair = interval_counterexample(IntervalSet.empty(), IntervalSet.empty(), 1, 1e-9)
    recheck_pair(IntervalSet.empty(), IntervalSet.empty(), pair, 1e-9)


def test_counterexample_halfline_and_empty():
    A = IntervalSet([(0, 64)])  # window-bounded stand-in for [0, inf)
    B = IntervalSet.empty()
    pair = interval_counterexample(A, B, 1, 1e-9)
    recheck_pair(A, B, pair, 1e-9)


def test_counterexample_random_sets():
    rng = np.random.default_rng(2024)
    pts = np.sort(rng.integers(-2**10, 2**10, size=40)) / 2**6
    A = IntervalSet([(Dyadic.from_float(a), Dyadic.from_float(b))
                     for a, b in pts.reshape(-1, 2) if a < b])
    pts2 = np.sort(rng.integers(-2**10, 2**10, size=40)) / 2**6
    B = IntervalSet([(Dyadic.from_float(a), Dyadic.from_float(b))
                     for a, b in pts2.reshape(-1, 2) if a < b])
    pair = interval_counterexample(A, B, 1, 1e-9)
    recheck_pair(A, B, pair, 1e-9)
    assert pair.a_discrepancy == 0 and pair.b_discrepancy == 0



def test_counterexample_stays_in_windows():
    A = IntervalSet([(20, 21), (24, 25)])
    B = IntervalSet([(22, 23)])
    windows = [Window.of(10, 28), Window.of(12, 32)]
    pair = interval_counterexample(A, B, 1, 1e-9, windows)
    recheck_pair(A, B, pair, 1e-9)
    for x, y in (pair.first, pair.second):
        assert Dyadic(12) <= x and y <= Dyadic(28)
    with pytest.raises(ValueError, match="no interval longer than 16 fits"):
        interval_counterexample(A, B, 16, 1e-9, windows)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_counterexample_refuses_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        interval_counterexample(IntervalSet([(0, 1)]), IntervalSet.empty(), 1, tol)


def test_counterexample_budget_names_grid_and_cut_off(monkeypatch):
    from reconset import verify

    A, B = IntervalSet([(0, 1), (2, 5)]), IntervalSet([(1, 3)])
    monkeypatch.setattr(verify, "_exact_resolve", lambda *args: None)
    monkeypatch.setattr(verify, "MAX_GRID", 1024)
    # in [0, 8) few intervals are longer than 253/32: no round is cut off
    with pytest.raises(SearchBudgetError, match=r"up to a 1024x1024 grid; no round reached "
                                                r"the 200,000-candidate cut-off") as ei:
        interval_counterexample(A, B, Dyadic(253, 5), 1e-9, [Window.of(0, 8)])
    assert ei.value.densest_grid == 1024
    monkeypatch.setattr(verify, "MAX_CANDIDATES", 10)
    with pytest.raises(SearchBudgetError, match=r"the 10-candidate cut-off ended the "
                                                r"rounds on 256x256, 1024x1024$"):
        interval_counterexample(A, B, 1, 1e-9)


def _fraction_resolver():
    """The resolver the integer one replaced, solving in Fractions and looking
    up one point at a time.  Lookups and pins are remembered, as the
    candidates of a search share their grid points."""
    memo = {}

    def lookup(S, x):
        key = S, x.num, x.exp
        if key not in memo:
            v, inside, e = S.cumulative_nums([x.num], x.exp)
            memo[key] = Dyadic(int(v[0]), e), bool(inside[0])
        return memo[key]

    def pin(c):
        if c not in memo:
            memo[c] = snap(c, 24)[0]
        return memo[c]

    def piece(S, x):
        c, inside = lookup(S, x)
        return (1, c - x) if inside else (0, c)

    def increment(S, z):
        return lookup(S, z[1])[0] - lookup(S, z[0])[0]

    def resolve(A, B, z1, z2, step, min_length, sep_needed, bounds):
        pinned = [pin(float(c)) for c in (*z1, *z2)]
        fixed = [p.as_fraction() for p in pinned]
        rows = []
        for S in (A, B):
            (s0, c0), (s1, c1), (s2, c2), (s3, c3) = (piece(S, p) for p in pinned)
            rows.append(((-s0, s1, s2, -s3), (c0 - c1 - c2 + c3).as_fraction()))
        for free in combinations(range(4), 2):
            i, j = (k for k in range(4) if k not in free)
            vals = list(fixed)
            eqs = [(m[i], m[j], r - sum(m[k] * fixed[k] for k in free)) for m, r in rows]
            (a, b, r), (c, d, t) = eqs
            det = a * d - b * c
            if det:
                vals[i], vals[j] = (d * r - b * t) / det, (a * t - c * r) / det
            else:
                for a, b, r in eqs:
                    if a or b:
                        if a:
                            vals[i] = (r - b * vals[j]) / a
                        else:
                            vals[j] = r / b
                        break
                if any(a * vals[i] + b * vals[j] != r for a, b, r in eqs):
                    continue
            cand = validate(A, B, vals, pinned, step, min_length, sep_needed, bounds)
            if cand is not None:
                return cand
        return None

    def validate(A, B, vals, pinned, step, min_length, sep_needed, bounds):
        if any(v.denominator & (v.denominator - 1) for v in vals):
            return None
        dys = [Dyadic(v.numerator, v.denominator.bit_length() - 1) for v in vals]
        x1, y1, x2, y2 = dys
        if bounds is not None and not (bounds[0] <= min(dys) and max(dys) <= bounds[1]):
            return None
        if any(abs(float(d) - float(p)) > 1.6 * step for d, p in zip(dys, pinned)):
            return None
        if any(piece(S, d) != piece(S, p) for d, p in zip(dys, pinned) for S in (A, B)):
            return None
        if not (min_length < float(y1 - x1) and min_length < float(y2 - x2)):
            return None
        if max(abs(float(x1 - x2)), abs(float(y1 - y2))) < sep_needed:
            return None
        if any(increment(S, (x1, y1)) != increment(S, (x2, y2)) for S in (A, B)):
            return None
        return (x1, y1), (x2, y2)

    return resolve


def _random_set(rng, count, exp, top):
    ends = np.sort(rng.integers(-top, top, size=2 * count))
    return IntervalSet.from_arrays(ends[0::2], ends[1::2], exp)


def test_resolver_matches_fraction_oracle(monkeypatch):
    # every candidate a search resolves, with and without window bounds, on
    # random sets at exponents below and above the pins' 24 and empty sets
    from reconset import verify

    resolve, oracle, answers = verify._exact_resolve, _fraction_resolver(), []

    def both(*args):
        answers.append(resolve(*args))
        assert answers[-1] == oracle(*args)
        return None  # resolve the search's next candidate

    monkeypatch.setattr(verify, "_exact_resolve", both)
    monkeypatch.setattr(verify, "MAX_GRID", 256)
    monkeypatch.setattr(verify, "MAX_CANDIDATES", 1667)
    rng = np.random.default_rng(8)
    dense = union_test_set([1], Window.of(10, 18), Dyadic(1, 4))
    cases = [
        (_random_set(rng, 20, 6, 1 << 10), _random_set(rng, 20, 6, 1 << 10), ()),
        (_random_set(rng, 20, 6, 1 << 10), _random_set(rng, 20, 6, 1 << 10),
         (Window.of(-8, 12), Window.of(-10, 10))),
        (_random_set(rng, 30, 30, 1 << 33), _random_set(rng, 5, 2, 1 << 4),
         (Window.of(-8, 8),)),
        (IntervalSet.empty(), IntervalSet.empty(), ()),
        (IntervalSet.empty(), IntervalSet([(0, 64)]), (Window.of(Dyadic(-3, 2), 64),)),
        (dense, union_test_set([Dyadic(3, 1)], Window.of(10, 18), Dyadic(1, 4)),
         (Window.of(10, 18),)),
    ]
    for A, B, windows in cases:
        with pytest.raises(SearchBudgetError):
            interval_counterexample(A, B, 1, 1e-9, windows)
    assert len(answers) >= 10_000
    assert 0 < sum(a is not None for a in answers) < len(answers)


# -- Monte Carlo -------------------------------------------------------------------------


def small_levels():
    return validate_levels((1024,), (32,), (0.5,), (0,), (3,))


def test_monte_carlo_reproducible():
    grid = IntervalFamilyGrid.of(0, 1, Dyadic(1, 2), 1, Dyadic(3, 1), Dyadic(1, 1))
    lv = small_levels()
    r1 = monte_carlo_reconstruction(grid, lv, copies=3, trials=4, seed=11)
    r2 = monte_carlo_reconstruction(grid, lv, copies=3, trials=4, seed=11)
    assert r1.to_json() == r2.to_json()


def test_monte_carlo_zero_trials():
    grid = IntervalFamilyGrid.of(0, 1, Dyadic(1, 1), 1, 1, 1)
    rep = monte_carlo_reconstruction(grid, small_levels(), copies=2, trials=0, seed=5)
    assert rep.trials == 0 and rep.per_trial == []


def test_monte_carlo_more_copies_separate_better():
    grid = IntervalFamilyGrid.of(0, 1, Dyadic(1, 4), 1, 2, Dyadic(1, 4))
    lv = small_levels()
    many = monte_carlo_reconstruction(grid, lv, copies=5, trials=6, seed=3)
    one = monte_carlo_reconstruction(grid, lv, copies=1, trials=6, seed=3)
    assert many.rate >= one.rate


def test_monte_carlo_off_grid_family():
    # x steps by 1/4096 on a 1/1024 grid: partial cells are measured exactly
    lv = small_levels()
    grid = IntervalFamilyGrid.of(0, Dyadic(1), Dyadic(1, 12), 1, 1, 1)
    rep = monte_carlo_reconstruction(grid, lv, copies=2, trials=2, seed=0)
    assert rep.trials == 2
    for trial in rep.per_trial:
        tests = [sample_grid_set(lv, s) for s in trial["seeds"]]
        matrix, _, exp = measure_vector(grid.instances(), tests)
        assert trial["min_separation"] == pairwise_min_linf(matrix * 2.0**-exp)[0]


def test_monte_carlo_trial_seeds_distinct():
    # 1,010 copies: with seeds (seed*1_000_003 + t)*1_009 + c, trial 0 copy
    # 1009 and trial 1 copy 0 would share a seed
    lv = validate_levels((2,), (1,), (0.5,))
    grid = IntervalFamilyGrid.of(0, 0, 1, 1, 1, 1)
    rep = monte_carlo_reconstruction(grid, lv, copies=1010, trials=2, seed=0)
    seeds = [s for trial in rep.per_trial for s in trial["seeds"]]
    assert len(set(seeds)) == len(seeds) == 2020
    assert all(0 <= s < 2**64 for s in seeds)
    # a copy's seed does not depend on how many copies a trial draws
    one = monte_carlo_reconstruction(grid, lv, copies=1, trials=2, seed=0)
    assert [t["seeds"] for t in one.per_trial] == [t["seeds"][:1] for t in rep.per_trial]
