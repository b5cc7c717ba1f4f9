from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reconset.dyadic import Dyadic
from reconset.errors import ExactnessOverflowError
from reconset.intervals import IntervalSet, Window, boolean


def iset(*pairs):
    return IntervalSet(list(pairs))


small_dyadic = st.builds(
    Dyadic,
    st.integers(min_value=-256, max_value=256),
    st.integers(min_value=0, max_value=5),
)


@st.composite
def interval_sets(draw, max_intervals=20):
    n = draw(st.integers(min_value=0, max_value=max_intervals))
    pairs = []
    for _ in range(n):
        a = draw(small_dyadic)
        b = draw(small_dyadic)
        if b < a:
            a, b = b, a
        pairs.append((a, b))
    return IntervalSet(pairs)


# -- normalize ---------------------------------------------------------------


def test_normalize_adjacent_merge():
    assert iset((0, 1), (1, 2)) == iset((0, 2))


def test_normalize_overlap_merge():
    assert iset((0, 1), (Dyadic(1, 1), 3)) == iset((0, 3))


def test_normalize_degenerate_drop_and_sort():
    assert iset((2, 2), (0, 1)) == iset((0, 1))


def test_normalize_rejects_inverted():
    with pytest.raises(ValueError):
        iset((3, 1))


def test_normalize_far_apart_exponents_overflow_before_shifting():
    # aligning 1 to exponent 2**45 would need a 4 TiB integer
    with pytest.raises(ExactnessOverflowError):
        iset((-1, Dyadic(1, 2**45)))
    assert iset((0, Dyadic(1, 70))).exponent == 70


def test_normalize_idempotent():
    s = iset((0, 1), (2, 3), (Dyadic(5, 1), 4))
    again = IntervalSet(list(s))
    assert again == s


# -- measure -----------------------------------------------------------------


def test_measure_examples():
    assert iset((0, 1), (2, 3)).measure() == Dyadic(2)
    assert IntervalSet.empty().measure() == Dyadic(0)
    assert iset((0, Dyadic(1, 2))).measure() == Dyadic(1, 2)


# -- boolean ops -------------------------------------------------------------


def test_boolean_examples():
    s, t = iset((0, 2)), iset((1, 3))
    assert boolean(s, t, "intersect") == iset((1, 2))
    assert boolean(s, t, "symmdiff") == iset((0, 1), (2, 3))
    assert boolean(s, IntervalSet.empty(), "union") == s
    assert boolean(s, t, "difference") == iset((0, 1))


def test_boolean_measure_identities():
    s = iset((0, 2), (4, 5))
    t = iset((1, 3), (Dyadic(9, 1), 6))
    mi = s.intersect(t).measure()
    mu = s.union(t).measure()
    msd = s.symmdiff(t).measure()
    assert mu + mi == s.measure() + t.measure()
    assert msd == s.measure() + t.measure() - mi - mi


def test_restrict_complement():
    w = Window.of(0, 10)
    s = iset((-5, 1), (2, 3), (9, 20))
    r = s.restrict(w)
    assert r == iset((0, 1), (2, 3), (9, 10))
    c = s.complement_within(w)
    assert c == iset((1, 2), (3, 9))
    assert r.union(c) == iset((0, 10))


def test_contains_point():
    s = iset((0, 1), (2, 3))
    assert s.contains_point(0)
    assert not s.contains_point(1)  # half-open
    assert s.contains_point(Dyadic(5, 1))
    assert not s.contains_point(Dyadic(3, 1))
    assert not s.contains_point(5)


# -- affine ------------------------------------------------------------------


def test_affine_examples():
    assert iset((0, 1)).affine(2, 3) == iset((3, 5))
    s = iset((0, 1), (2, 3))
    assert s.affine(1, 0) == s
    assert s.affine(Dyadic(1, 1), 0).measure() == Dyadic(1)


def test_affine_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        iset((0, 1)).affine(0, 0)
    with pytest.raises(ValueError):
        iset((0, 1)).affine(Dyadic(-1), 0)


def test_affine_composition_exact():
    s = iset((0, 1), (Dyadic(5, 1), 4))
    a, b = Dyadic(3, 1), Dyadic(7, 2)
    c, d = Dyadic(5, 2), Dyadic(-1, 3)
    lhs = s.affine(a, b).affine(c, d)
    rhs = s.affine(c * a, c * b + d)
    assert lhs == rhs


# -- oracle-backed property tests ---------------------------------------------


def brute_membership(s: IntervalSet, x: Fraction) -> bool:
    for lo, hi in s:
        if lo.as_fraction() <= x < hi.as_fraction():
            return True
    return False


def brute_boolean(s, t, op, grid):
    """Membership-parity oracle on the common refinement grid."""
    out = []
    for a, b in zip(grid[:-1], grid[1:]):
        mid = (a + b) / 2
        ina, inb = brute_membership(s, mid), brute_membership(t, mid)
        val = {
            "intersect": ina and inb,
            "union": ina or inb,
            "symmdiff": ina != inb,
            "difference": ina and not inb,
        }[op]
        if val:
            out.append((a, b))
    return out


def refinement_grid(*sets):
    pts = set()
    for s in sets:
        for lo, hi in s:
            pts.add(lo.as_fraction())
            pts.add(hi.as_fraction())
    return sorted(pts) or [Fraction(0), Fraction(1)]


@settings(max_examples=60, deadline=None)
@given(interval_sets(), interval_sets(), st.sampled_from(["intersect", "union", "symmdiff", "difference"]))
def test_boolean_matches_brute_force(s, t, op):
    got = boolean(s, t, op)
    grid = refinement_grid(s, t)
    expect = brute_boolean(s, t, op, grid)
    # compare as merged fraction spans
    merged = []
    for a, b in expect:
        if merged and merged[-1][1] == a:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    got_pairs = [(lo.as_fraction(), hi.as_fraction()) for lo, hi in got]
    assert got_pairs == merged


# points on grids both finer and coarser than the sets' exponents (0..5)
query_point = st.builds(
    Dyadic,
    st.integers(min_value=-(1 << 14), max_value=1 << 14),
    st.integers(min_value=0, max_value=10),
)


@settings(max_examples=80, deadline=None)
@given(interval_sets(), query_point, query_point)
def test_prefix_measure_matches_boolean_oracle(t, x, y):
    if y < x:
        x, y = y, x
    expect = IntervalSet([(x, y)]).intersect(t).measure()
    assert t.measure_between(x, y) == expect
    assert t.cumulative(y) - t.cumulative(x) == expect
    e = max(x.exp, y.exp)
    c, inside, ce = t.cumulative_nums([x.num << (e - x.exp), y.num << (e - y.exp)], e)
    assert Dyadic(int(c[1] - c[0]), ce) == expect
    assert bool(inside[0]) == brute_membership(t, x.as_fraction()) == t.contains_point(x)
    # the float view agrees wherever floats are exact
    assert t.cumulative_f(float(x)) == float(t.cumulative(x))


@settings(max_examples=40, deadline=None)
@given(interval_sets(10), interval_sets(10))
def test_inclusion_exclusion(s, t):
    assert s.union(t).measure() + s.intersect(t).measure() == s.measure() + t.measure()


@settings(max_examples=40, deadline=None)
@given(interval_sets(10), interval_sets(10))
def test_commutativity(s, t):
    for op in ("intersect", "union", "symmdiff"):
        assert boolean(s, t, op) == boolean(t, s, op)


@settings(max_examples=30, deadline=None)
@given(interval_sets(8), interval_sets(8), interval_sets(8))
def test_symmdiff_associative(s, t, u):
    assert s.symmdiff(t).symmdiff(u) == s.symmdiff(t.symmdiff(u))


@settings(max_examples=40, deadline=None)
@given(interval_sets())
def test_normalize_invariants(s):
    prev_hi = None
    for lo, hi in s:
        assert lo < hi
        if prev_hi is not None:
            assert prev_hi < lo
        prev_hi = hi


def test_json_roundtrip():
    s = iset((Dyadic(-3, 2), Dyadic(1, 1)), (2, 3))
    js = s.to_json()
    assert js == [[-3, 2, 1, 1], [2, 0, 3, 0]]
    assert IntervalSet.from_json(js) == s
    w = Window.of(Dyadic(-1, 1), 4)
    assert Window.from_json(w.to_json()) == w


def test_float_view_exact():
    s = iset((Dyadic(1, 3), Dyadic(-7, 2) + 4))
    fl = s.to_floats()
    assert fl[0, 0] == 0.125
    assert fl[0, 1] == 2.25


def test_large_array_roundtrip():
    import numpy as np

    lows = np.arange(0, 2_000, 2, dtype=np.int64)
    highs = lows + 1
    s = IntervalSet.from_arrays(lows, highs, 4)
    assert len(s) == 1000
    assert s.measure() == Dyadic(1000, 4)
    t = s.translate(Dyadic(1, 4))
    assert s.intersect(t).measure() == Dyadic(0)
    assert s.union(t) == IntervalSet.from_arrays([0], [2000], 4)
