from fractions import Fraction

import numpy as np
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
    c = IntervalSet([(w.lo, w.hi)]).difference(s)
    assert c == iset((1, 2), (3, 9))
    assert r.union(c) == iset((0, 10))


def test_contains_point():
    # the points 0, 1, 5/2, 3/2 and 5: 1 lies outside, half-open
    s = iset((0, 1), (2, 3))
    _, inside, _ = s.cumulative_nums([0, 2, 5, 3, 10], 1)
    assert inside.tolist() == [True, False, True, False, False]


# -- affine ------------------------------------------------------------------


def test_affine_examples():
    assert iset((0, 1)).affine(2, 3) == iset((3, 5))
    s = iset((0, 1), (2, 3))
    assert s.affine(1, 0) == s
    assert s.affine(Dyadic(1, 1), 0).measure() == Dyadic(1)
    assert not IntervalSet.empty().affine(2**70, 2**70)


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


def _affine_oracle(s: IntervalSet, scale: Dyadic, shift: Dyadic) -> IntervalSet:
    """The image on Python ints in an object array, then sorted, merged and
    guarded by from_arrays: the computation affine replaced."""
    if not s:
        return IntervalSet.empty()
    scaled = s._nums.astype(object) * scale.num
    e = s.exponent + scale.exp
    e_out = max(e, shift.exp)
    scaled <<= e_out - e
    scaled += shift.num << (e_out - shift.exp)
    return IntervalSet.from_arrays(scaled[:, 0], scaled[:, 1], e_out)


@st.composite
def offset_sets(draw):
    """Sets of small span far from zero, so a scaled endpoint is large."""
    exp = draw(st.integers(min_value=0, max_value=40))
    far = st.integers(2**50, 2**57 - 2**16)
    base = draw(far | far.map(lambda v: -v) | st.integers(-(2**57), 2**57 - 2**16))
    ends = sorted(draw(st.lists(st.integers(0, 2**16), min_size=2, max_size=8, unique=True)))
    ends = [base + v for v in ends[: len(ends) // 2 * 2]]
    return IntervalSet.from_arrays(ends[0::2], ends[1::2], exp)


@st.composite
def affine_cases(draw):
    s = draw((wide_sets() | offset_sets()).filter(len))
    scale = Dyadic(draw(st.integers(1, 2**20) | st.integers(2**12, 2**20)), draw(st.integers(0, 24)))
    mode = draw(st.sampled_from(["free", "top", "bottom", "cancel"]))
    if mode == "free":
        return s, scale, Dyadic(draw(st.integers(-(2**62), 2**62)), draw(st.integers(0, 64)))
    # at the shift's exponent e = s.exponent + scale.exp the image numerators are
    # nums*scale.num + t; place the last high or the first low on a target
    anchor = int(s._nums[-1, 1] if mode == "top" else s._nums[0, 0])
    delta = draw(st.integers(-3, 3))
    target = {"top": 2**58 + delta, "bottom": -(2**58) + delta}.get(mode, delta * 1024)
    return s, scale, Dyadic(target - anchor * scale.num, s.exponent + scale.exp)


@settings(max_examples=400, deadline=None)
@given(affine_cases())
def test_affine_matches_object_array_oracle(case):
    s, scale, shift = case
    try:
        want = _affine_oracle(s, scale, shift)
    except ExactnessOverflowError:
        with pytest.raises(ExactnessOverflowError):
            s.affine(scale, shift)
        return
    got = s.affine(scale, shift)
    assert got._nums.dtype == np.int64
    assert np.array_equal(got._nums, want._nums)
    assert got.exponent == want.exponent


def test_affine_guard_at_two_to_the_58():
    s = iset((0, 1))
    assert len(s.affine(2**57, 2**57 - 1)) == 1  # image [2^57 - 1, 2^58 - 1)
    with pytest.raises(ExactnessOverflowError):
        s.affine(2**57, 2**57)
    with pytest.raises(ExactnessOverflowError):
        s.affine(1, -(2**58))
    # the scaled endpoint 2^77 cancels against the shift
    assert s.affine(2**20, 0).translate(-(2**20)) == iset((-(2**20), 0))
    assert iset((2**57 - 1, 2**57)).affine(2**20, -(2**77 - 2**20)) == iset((0, 2**20))


# -- integer input -------------------------------------------------------------


@pytest.mark.parametrize(
    "lows, highs",
    [([0.5], [1.5]), (["1"], ["3"]), ([True], [3]), ([1, 2.0], [2, 3]),
     (np.array([0.5]), np.array([1.5])), (np.array([True]), np.array([True])),
     (np.array(["1"]), np.array(["3"]))],
    ids=["floats", "strings", "bool", "mixed-float", "float-array", "bool-array", "str-array"],
)
def test_from_arrays_refuses_non_integers(lows, highs):
    with pytest.raises(ValueError, match="integers"):
        IntervalSet.from_arrays(lows, highs, 0)


def test_cumulative_nums_refuses_non_integers():
    s = iset((0, 4))
    for x in ([1.9], np.array([1.9]), ["1"], [True]):
        with pytest.raises(ValueError, match="integers"):
            s.cumulative_nums(x, 0)
    assert s.cumulative_nums(np.array([3], dtype=np.uint8), 0)[0].tolist() == [3]


@pytest.mark.parametrize(
    "lows, highs",
    [([2**63], [2**63 + 1]), ([-(2**63) - 1], [0]),
     (np.array([2**63], dtype=np.uint64), np.array([2**64 - 1], dtype=np.uint64))],
    ids=["int", "negative-int", "uint64"],
)
def test_from_arrays_beyond_int64_overflows(lows, highs):
    with pytest.raises(ExactnessOverflowError):
        IntervalSet.from_arrays(lows, highs, 0)


def test_from_arrays_integer_input():
    want = IntervalSet([(1, 3)])
    assert IntervalSet.from_arrays([1], [3], 0) == want
    assert IntervalSet.from_arrays(np.array([1], np.int32), np.array([3], np.uint16), 0) == want
    assert IntervalSet.from_arrays(np.array([1], object), np.array([3], object), 0) == want
    assert not IntervalSet.from_arrays([], [], 0)
    assert not IntervalSet.from_arrays(np.array([]), np.array([]), 0)
    with pytest.raises(ExactnessOverflowError):
        iset((0, 1)).cumulative_nums([2**64], 0)


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
    e = max(x.exp, y.exp)
    c, inside, ce = t.cumulative_nums([x.num << (e - x.exp), y.num << (e - y.exp)], e)
    assert Dyadic(int(c[1] - c[0]), ce) == expect
    assert bool(inside[0]) == brute_membership(t, x.as_fraction())
    # C(x) looked up at x's own exponent is the same
    cx, _, ex = t.cumulative_nums([x.num], x.exp)
    assert Dyadic(int(cx[0]), ex) == Dyadic(int(c[0]), ce)
    # the float view agrees wherever floats are exact
    assert t.float_coverage(float(x))[0] == float(Dyadic(int(c[0]), ce))


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
    assert w.to_json() == [-1, 1, 4, 0]
    assert Window.from_json(w.to_json()) == w


def test_json_non_canonical_rows():
    # rows at a fixed exponent, as the benchmark writes them, and a negative
    # exponent folded into the numerator
    assert IntervalSet.from_json([[64, 6, 96, 6], [-6, 6, 0, 6]]) == iset(
        (Dyadic(-3, 5), 0), (1, Dyadic(3, 1))
    )
    assert IntervalSet.from_json([[3, -2, 13, 0], [0, 100, 1, 0]]) == iset((0, 1), (12, 13))
    assert Window.from_json([4, 2, 3, -1]) == Window.of(1, 6)


@pytest.mark.parametrize(
    "rows",
    [[[1.5, 0, 3, 0]], [["1", 0, "3", 0]], [[True, 0, 1, 0]], [[1, 0, 3]],
     {"a": [1, 0, 3, 0]}, 5],
)
def test_json_rejects_non_integer_rows(rows):
    with pytest.raises(ValueError):
        IntervalSet.from_json(rows)


@pytest.mark.parametrize(
    "rows",
    [[[1, -(2**35), 2, 0]], [[-1, 0, 1, 2**35]], [[2**70, 70, 3, 0]], [[-(2**63), 0, 0, 0]]],
)
def test_json_sizes_every_shift(rows):
    with pytest.raises(ExactnessOverflowError):
        IntervalSet.from_json(rows)
    with pytest.raises(ExactnessOverflowError):
        Window.from_json(rows[0])


@st.composite
def wide_sets(draw):
    """Sets at exponents 0-58 with negative numerators and zero endpoints."""
    exp = draw(st.integers(min_value=0, max_value=58))
    num = st.integers(min_value=-(2**57), max_value=2**57) | st.just(0)
    ends = sorted(draw(st.lists(num, max_size=16, unique=True)))
    return IntervalSet.from_arrays(ends[0:-1:2], ends[1::2], exp)


@settings(max_examples=300, deadline=None)
@given(wide_sets())
def test_row_codec_matches_per_endpoint_encoding(t):
    rows = t.to_json()
    assert rows == [[lo.num, lo.exp, hi.num, hi.exp] for lo, hi in t]
    assert all(type(v) is int for row in rows for v in row)
    assert IntervalSet.from_json(rows) == t


_row_end = st.builds(
    lambda num, exp: (num, exp),
    st.integers(min_value=-(2**20), max_value=2**20) | st.just(0),
    st.integers(min_value=-8, max_value=64),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_row_end, _row_end), max_size=8))
def test_row_codec_decodes_like_dyadic_endpoints(ends):
    # oracle: one Dyadic per endpoint, sized at the common exponent, then a
    # merge of the half-open intervals
    ends = [(a, b) if Dyadic(*a) <= Dyadic(*b) else (b, a) for a, b in ends]
    rows = [[*a, *b] for a, b in ends]
    pairs = [(Dyadic(*a), Dyadic(*b)) for a, b in ends]
    exp = max((d.exp for pair in pairs for d in pair), default=0)
    if any(d.num and d.num.bit_length() + exp - d.exp > 58 for pair in pairs for d in pair):
        with pytest.raises(ExactnessOverflowError):
            IntervalSet.from_json(rows)
        return
    merged = []
    for lo, hi in sorted(p for p in pairs if p[0] < p[1]):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    assert [list(p) for p in IntervalSet.from_json(rows)] == merged


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
