import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconset.analysis import sliding_integral
from reconset.construct import union_test_set
from reconset.dyadic import Dyadic, common_numerators
from reconset.errors import CheckFailedError, ExactnessOverflowError, WindowExceededError
from reconset.gridsets import validate_levels, sample_grid_set
from reconset.intervals import IntervalSet, Window
from reconset.profiles import Profile
from reconset import analysis
from reconset.shapes import (
    Ball,
    Direction,
    IntervalUnion,
    SlabTestSet,
    intersection_measures,
    project,
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


@pytest.mark.parametrize(
    "args",
    [(0, 0, 1, 1, 2, Dyadic(1, 2)),
     (Dyadic(-3, 2), 1, Dyadic(1, 3), 1, 1, 1),
     (5, 5, 1, Dyadic(3, 4), Dyadic(3, 4), 1),
     (0, Dyadic(7, 3), Dyadic(1, 2), 1, Dyadic(5, 2), Dyadic(1, 4))],
    ids=["one-x", "one-length", "one-instance", "ends-off-grid"],
)
def test_interval_family_span_is_instance_extremes(args):
    grid = IntervalFamilyGrid.of(*args)
    ends, exp = grid.instances()
    assert grid.span() == (Dyadic(int(ends.min()), exp), Dyadic(int(ends.max()), exp))


def test_interval_family_span_of_empty_grid():
    assert IntervalFamilyGrid.of(1, 0, 1, 1, 2, 1).span() is None
    assert IntervalFamilyGrid.of(0, 1, 1, 2, 1, 1).span() is None


def test_interval_family_refuses_non_positive_length():
    for least in (0, -1):
        with pytest.raises(ValueError, match=f"the least length must be positive, got {least}"):
            IntervalFamilyGrid.of(0, 1, 1, least, 1, 1)


# -- measure_vector ---------------------------------------------------------------


def test_measure_vector_halfline():
    T = IntervalSet([(0, 100)])
    vals, exp = measure_vector((np.array([[0, 1]]), 0), [T])
    assert vals.dtype == np.int64 and vals.tolist() == [[1]] and exp == 0


def test_measure_vector_matches_sliding_integral_exactly():
    # cross-oracle: interval family against a semigroup test set
    T = union_test_set([1], Window.of(0, 8), Dyadic(1, 4))
    chi = Profile.indicator(0.0, 1.0)
    xs = [Dyadic(i, 3) for i in range(0, 33)]
    direct, exp = measure_vector((np.array([[i, i + 8] for i in range(0, 33)]), 3), [T])
    slid = sliding_integral(chi, T, 1.0, [float(x) for x in xs], Window.of(-2, 10))
    assert np.array_equal(direct[:, 0] * 2.0**-exp, slid)  # exact equality of the two paths


def test_measure_vector_gridset_window_guard():
    lv = validate_levels((16,), (4,), (0.5,), (0,), (1,))
    gs = sample_grid_set(lv, 1)
    with pytest.raises(WindowExceededError):
        measure_vector((np.array([[1, 3]]), 1), [gs])


def test_family_kinds_do_not_mix():
    # an interval family takes interval and grid tests, a translate family
    # slab tests; either refuses the other kind by its type name
    T = IntervalSet([(Dyadic(-3), Dyadic(0))])
    V = SlabTestSet(Direction((1.0, 0.0)), T, Window.of(-6, 6))
    intervals = IntervalFamilyGrid.of(0, 1, Dyadic(1, 2), 1, 1, 1)
    translates = TranslateFamilyGrid(Ball((0.0, 0.0), 1.0), (-0.5, -0.5), (0.5, 0.5), (3, 3))
    with pytest.raises(TypeError, match="not SlabTestSet"):
        injectivity_report(intervals, [T, V])
    with pytest.raises(TypeError, match="not IntervalSet"):
        injectivity_report(translates, [V, T])


@pytest.mark.parametrize(
    "grid",
    [IntervalFamilyGrid.of(0, 1, Dyadic(1, 2), 1, 1, 1),
     TranslateFamilyGrid(Ball((0.0, 0.0), 1.0), (-0.5, -0.5), (0.5, 0.5), (3, 3))],
    ids=["interval", "translate"],
)
def test_injectivity_refuses_empty_test_list(grid):
    for empty in ([], iter(()), (t for t in ())):
        with pytest.raises(ValueError, match="empty test list"):
            injectivity_report(grid, empty)


# -- streamed tests -------------------------------------------------------------------


def _traced(f, *args):
    """f(*args) under tracemalloc: its result, and the bytes it peaked at and
    kept above the start."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = f(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, kept - base


def test_injectivity_keeps_one_streamed_grid_set():
    # each grid set is sampled when its column is due and released after it,
    # so eight sets peak within one set's footprint of two
    lv = validate_levels((512, 65536), (64, 1024), (0.5, 0.25))
    grid = IntervalFamilyGrid.of(0, Dyadic(1, 1), Dyadic(1, 4), Dyadic(1, 2), Dyadic(1, 1), Dyadic(1, 4))

    def one_set():
        gs = sample_grid_set(lv, 0)
        gs.runs
        return gs

    def report(count):
        return injectivity_report(grid, (sample_grid_set(lv, s) for s in range(count)))

    _, _, footprint = _traced(one_set)
    (two, peak_two, _), (eight, peak_eight, _) = _traced(report, 2), _traced(report, 8)
    assert (two.test_count, eight.test_count) == (2, 8)
    assert abs(peak_eight - peak_two) < footprint


def test_streamed_tests_are_drawn_once():
    # a one-shot iterator gives the report and the matrix a list gives
    T = union_test_set([1], Window.of(0, 8), Dyadic(1, 4))
    gs = sample_grid_set(validate_levels((16,), (4,), (0.5,), (0,), (4,)), 3)
    tests = [T, gs, IntervalSet([(0, 2)])]
    grid = IntervalFamilyGrid.of(0, 2, Dyadic(1, 2), 1, Dyadic(3, 1), Dyadic(1, 1))
    drawn = []

    def stream():
        for t in tests:
            drawn.append(t)
            yield t

    one_shot = stream()
    rep = injectivity_report(grid, one_shot)
    assert drawn == tests and next(one_shot, None) is None
    assert rep.to_json() == injectivity_report(grid, tests).to_json()
    matrix, exp = measure_vector(grid.instances(), iter(tests))
    want, want_exp = measure_vector(grid.instances(), tests)
    assert exp == want_exp and np.array_equal(matrix, want)
    assert rep.test_count == matrix.shape[1] == len(tests)
    # a translate family takes its slab tests from an iterator too
    V = [SlabTestSet(Direction.axis(i, 2), IntervalSet([(Dyadic(-3), Dyadic(0))]), Window.of(-6, 6))
         for i in range(2)]
    posed = TranslateFamilyGrid(Ball((0.0, 0.0), 1.0), (-0.5, -0.5), (0.5, 0.5), (3, 3))
    rep = injectivity_report(posed, iter(V), resolution=128)
    assert rep.to_json() == injectivity_report(posed, V, resolution=128).to_json()
    assert rep.test_count == 2


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
    # n disjoint intervals inside [-3, 0)
    lows = -3 * 2**12 + 2 * np.arange(n, dtype=np.int64)
    T = IntervalSet.from_arrays(lows, lows + 1, 12)
    assert len(T) == n
    return T


def test_slab_measure_vector_matches_per_pose():
    # one sliding integral per (test, offset) equals one per translation,
    # bit for bit, against a one-interval slab set and a long one: axis
    # directions, where offsets repeat; a non-axis direction, where none
    # does; each magnification in a call of its own; and, in 1-D, the
    # offsets 0.0 and -0.0 (<x, theta> for x = 0.0 against theta = -1),
    # which np.unique merges
    disk = Ball((0.0, 0.0), 1.0)
    oblique = Direction.of((1.0, math.sqrt(2.0)))
    grid = TranslateFamilyGrid(disk, (-0.5, -0.5), (0.5, 0.5), (5, 5)).instances()
    assert len(set(project(grid, oblique.theta).tolist())) == len(grid)
    segment = IntervalUnion(IntervalSet([(Dyadic(-1, 1), Dyadic(1, 1))]))
    line = np.array([[0.0], [-0.0], [0.25]])
    cases = [
        (disk, grid, (1.0, 1.5), [Direction((1.0, 0.0)), Direction((0.0, 1.0)), oblique]),
        (segment, line, (1.0, 2.0), [Direction((1.0,)), Direction((-1.0,))]),
    ]
    for theta in cases[1][3]:
        signs = [math.copysign(1.0, b) for b in project(line[:2], theta.theta)]
        assert sorted(signs) == [-1.0, 1.0]
    for T in (IntervalSet([(Dyadic(-3), Dyadic(0))]), _long_slab_set()):
        for shape, family, magnifications, thetas in cases:
            for theta in thetas:
                V = SlabTestSet(theta, T, Window.of(-6, 6))
                for r in magnifications:
                    values, errors = intersection_measures(shape, family, V, 128, r)
                    for i in range(len(family)):
                        (v,), (e,) = intersection_measures(shape, family[i : i + 1], V, 128, r)
                        assert _bits(values[i]) == _bits(v) and errors[i] == e


def test_axis_grid_takes_one_sliding_integral_per_distinct_offset(monkeypatch):
    # the 33 x 33 translate grid of AC-06 against the two axis slabs: each
    # slab sees the 33 distinct coordinates, not the 1,089 poses
    calls = []

    def spy(p, T, a, b, window):
        calls.append(len(b))
        return sliding_integral(p, T, a, b, window)

    monkeypatch.setattr(analysis, "sliding_integral", spy)
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


def test_counterexample_refuses_negative_min_length():
    with pytest.raises(ValueError, match="min_length must be non-negative"):
        interval_counterexample(IntervalSet([(0, 1)]), IntervalSet.empty(), -1, 1e-9)


def _collides_on_grid(A, B, window, min_length, exp=6):
    """Whether two intervals [x, y] longer than min_length, x and y on the
    2**-exp grid of the window, share their measures against A and B: a
    brute-force search over every such (x, y)."""
    (lo, hi, L, _), _ = common_numerators([window.lo, window.hi, min_length, Dyadic(1, exp)])
    x, y = np.meshgrid(np.arange(lo, hi + 1), np.arange(lo, hi + 1), indexing="ij")
    long = y - x > L
    x, y = x[long], y[long]
    f = np.stack([S.cumulative_nums(y, exp)[0] - S.cumulative_nums(x, exp)[0] for S in (A, B)], 1)
    return len(np.unique(f, axis=0)) < len(f)


# the endpoints of a set, in sixteenths, some of them outside the window
_SIXTEENTHS = st.lists(st.integers(-4, 44), max_size=10, unique=True).map(
    lambda e: sorted(e)[:len(e) // 2 * 2])


@settings(max_examples=250, deadline=None)
@given(a=_SIXTEENTHS, b=_SIXTEENTHS, lo=st.integers(0, 8), extra=st.integers(1, 24),
       length=st.sampled_from([0, 8, 16, 17]))
def test_counterexample_pair_exactly_when_grid_collides(a, b, lo, extra, length):
    # sets and windows on the 1/16 grid: a pair the rules give lies on the
    # 1/32 grid, so the 1/64 grid has a collision whenever a rule fits, and
    # none when f is injective
    A, B = (IntervalSet.from_arrays(e[0::2], e[1::2], 4) for e in (a, b))
    window = Window(Dyadic(lo, 4), Dyadic(lo + length + extra, 4))
    min_length = Dyadic(length, 4)
    collides = _collides_on_grid(A.restrict(window), B.restrict(window), window, min_length)
    try:
        pair = interval_counterexample(A, B, min_length, 1e-9, [window])
    except CheckFailedError:
        assert not collides
        return
    assert collides
    assert pair.first != pair.second
    for S in (A, B):
        m1, m2 = (IntervalSet([z]).intersect(S).measure() for z in (pair.first, pair.second))
        assert m1 == m2
    for x, y in (pair.first, pair.second):
        assert window.lo <= x and min_length < y - x and y <= window.hi


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
        matrix, exp = measure_vector(grid.instances(), tests)
        assert trial["min_separation"] == pairwise_min_linf(matrix * 2.0**-exp)[0]


def test_monte_carlo_trial_seeds_are_keyed_philox_words():
    # copy c of trial t takes the 64-bit word c of Philox(key=seed << 64 | t)
    rep = monte_carlo_reconstruction(
        IntervalFamilyGrid.of(0, 0, 1, 1, 1, 1), validate_levels((2,), (1,), (0.5,)),
        copies=3, trials=2, seed=2**64 - 1)
    assert [t["seeds"] for t in rep.per_trial] == [
        np.random.Philox(key=((2**64 - 1) << 64) | t).random_raw(3).tolist() for t in range(2)]


@pytest.mark.parametrize("seed", [-1, 1 << 64])
@pytest.mark.parametrize("trials", [0, 1])
def test_monte_carlo_refuses_seed_outside_64_bits(seed, trials):
    grid = IntervalFamilyGrid.of(0, 0, 1, 1, 1, 1)
    with pytest.raises(ValueError, match=rf"seed {seed} is outside \[0, 2\*\*64\)"):
        monte_carlo_reconstruction(grid, small_levels(), copies=1, trials=trials, seed=seed)


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
