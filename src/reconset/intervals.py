"""Finite unions of half-open intervals with exact dyadic endpoints.

An :class:`IntervalSet` stores all endpoints as int64 numerators over one
shared power-of-two denominator, so boolean operations, measures and affine
images are exact while sets with millions of components stay cheap.  The
half-open ``[lo, hi)`` convention makes partitions measure-exact; it differs
from closed intervals only on null sets, which never affect a measure.

Locally finite sets are represented by their restriction to a
:class:`Window`; constructions record their window and verification
operations refuse queries outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .blocks import spans
from .dyadic import Dyadic, as_dyadic, common_numerators
from .errors import ExactnessOverflowError

# int64 guard: |numerator| must stay clear of 2**63 through one alignment shift
_MAX_BITS = 58


def _check_bits(arr: np.ndarray, bits: int = _MAX_BITS, what: str = "endpoint"):
    if arr.size:
        _check_magnitude(max(int(arr.max()), -int(arr.min())), bits, what)


def _check_magnitude(m: int, bits: int = _MAX_BITS, what: str = "endpoint"):
    if m >> max(bits, 0):
        raise ExactnessOverflowError(
            f"{what} magnitude exceeds 2**{bits}; reduce exponents or coordinates"
        )


def _as_int64(values) -> np.ndarray:
    """Integer input as int64: a numpy integer array, or a list of Python
    ints.  Floats, strings and booleans raise ValueError rather than being
    truncated or parsed; integers beyond int64 raise ExactnessOverflowError."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        if values.dtype.kind == "u" and values.size and values.max() > np.iinfo(np.int64).max:
            raise ExactnessOverflowError("numerators exceed int64")
        return values.astype(np.int64, copy=False)
    flat = values.ravel().tolist() if isinstance(values, np.ndarray) else list(values)
    if not set(map(type, flat)) <= {int}:
        raise ValueError("numerators must be integers")
    try:
        return np.fromiter(flat, np.int64, len(flat))
    except OverflowError:
        raise ExactnessOverflowError("numerators exceed int64") from None


@dataclass(frozen=True)
class Window:
    """A bounded truncation horizon ``[lo, hi)`` for locally finite sets."""

    lo: Dyadic
    hi: Dyadic

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"window requires lo < hi, got [{self.lo}, {self.hi})")

    @staticmethod
    def of(lo, hi) -> "Window":
        return Window(as_dyadic(lo), as_dyadic(hi))

    @property
    def span(self) -> Dyadic:
        return self.hi - self.lo

    def to_json(self):
        nums, exp = common_numerators([self.lo, self.hi])
        return _encode_rows(_as_int64(nums).reshape(1, 2), exp)[0].tolist()

    @staticmethod
    def from_json(obj) -> "Window":
        (lo,), (hi,), exp = _decode_rows([obj])
        return Window(Dyadic(int(lo), exp), Dyadic(int(hi), exp))

    def __str__(self):
        return f"[{self.lo}, {self.hi})"


class IntervalSet:
    """Normalized finite union of disjoint half-open dyadic intervals."""

    __slots__ = ("_nums", "_exp", "_prefix")

    def __init__(self, pairs=()):
        """Build from (lo, hi) pairs; degenerate pairs dropped, overlaps merged."""
        rows = []
        for lo, hi in pairs:
            lo, hi = as_dyadic(lo), as_dyadic(hi)
            rows.append([lo.num, lo.exp, hi.num, hi.exp])
        self._nums, self._exp = _normalize_arrays(*_decode_rows(rows))
        self._prefix = None

    # -- raw constructors ------------------------------------------------

    @classmethod
    def _raw(cls, nums: np.ndarray, exp: int) -> "IntervalSet":
        """Wrap already-normalized data (sorted, disjoint, non-degenerate)."""
        obj = cls.__new__(cls)
        obj._nums = nums
        obj._exp = exp
        obj._prefix = None
        return obj

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls._raw(np.empty((0, 2), dtype=np.int64), 0)

    @classmethod
    def from_arrays(cls, lows, highs, exp: int) -> "IntervalSet":
        """Build from integer numerator arrays at a common exponent."""
        nums, e = _normalize_arrays(_as_int64(lows), _as_int64(highs), exp)
        return cls._raw(nums, e)

    # -- basic views -------------------------------------------------------

    def __len__(self) -> int:
        return self._nums.shape[0]

    def __bool__(self) -> bool:
        return self._nums.shape[0] > 0

    @property
    def exponent(self) -> int:
        return self._exp

    def endpoints(self, i: int) -> tuple[Dyadic, Dyadic]:
        lo, hi = self._nums[i]
        return Dyadic(int(lo), self._exp), Dyadic(int(hi), self._exp)

    def __iter__(self):
        for i in range(len(self)):
            yield self.endpoints(i)

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        if len(self) != len(other):
            return False
        if len(self) == 0:
            return True
        a, b, _ = _align(self, other)
        return bool(np.array_equal(a, b))

    def __hash__(self):
        return hash((self._exp, self._nums.tobytes()))

    def __repr__(self):
        if len(self) <= 6:
            body = ", ".join(f"[{lo}, {hi})" for lo, hi in self)
        else:
            lo0, hi0 = self.endpoints(0)
            lon, hin = self.endpoints(len(self) - 1)
            body = f"[{lo0}, {hi0}) ... [{lon}, {hin}) ({len(self)} intervals)"
        return f"IntervalSet({{{body}}})"

    def to_floats(self) -> np.ndarray:
        """(N, 2) float endpoints; exact whenever numerators fit in 53 bits."""
        out = self._nums.astype(np.float64)
        out *= 2.0 ** (-self._exp)
        return out

    def numerators(self, exp: int) -> np.ndarray:
        """The lows and highs as an (N, 2) int64 array of numerators at an
        exponent exp no less than the set's; read-only, and checked against
        int64 before the shift."""
        shift = exp - self._exp
        if shift < 0:
            raise ValueError(f"exponent {exp} is coarser than the set's {self._exp}")
        if shift:
            _check_bits(self._nums, 62 - shift, "aligned endpoint")
        nums = self._nums << shift if shift else self._nums.view()
        nums.flags.writeable = False
        return nums

    def span(self) -> tuple[Dyadic, Dyadic]:
        if not self:
            raise ValueError("empty set has no span")
        return self.endpoints(0)[0], self.endpoints(len(self) - 1)[1]

    # -- measure ----------------------------------------------------------

    def measure(self) -> Dyadic:
        """Exact total length, Σ (hi - lo)."""
        if not self:
            return Dyadic(0)
        return Dyadic(int(self._prefix_sums()[-1]), self._exp)

    def _prefix_sums(self) -> np.ndarray:
        """P[k] = measure of the first k intervals, as numerators at the set's
        exponent; built on first use and kept with the (immutable) set."""
        if self._prefix is None:
            d = self._nums[:, 1] - self._nums[:, 0]
            prefix = np.zeros(d.size + 1, dtype=np.int64)
            np.cumsum(d, out=prefix[1:])
            # diffs are positive and bounded by the global span, so the int64
            # sum is safe given the construction guard; verify cheaply anyway
            if d.size and (prefix[-1] < 0 or prefix[-1] < np.max(d)):
                raise ExactnessOverflowError("measure sum overflowed int64")
            self._prefix = prefix
        return self._prefix

    def cumulative_nums(self, nums, exp: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Exact C(x) = λ(S ∩ (-inf, x]) at the dyadic points x = nums / 2**exp.

        Returns (values, inside, e): the numerators of C(x) at exponent
        e = max(exp, self.exponent) and whether each x lies in S.  A point is
        located by floor(x * 2**self.exponent), which is exact against the
        set's lows at any exponent.
        """
        x = _as_int64(nums)
        if not self:
            return np.zeros_like(x), np.zeros(x.shape, dtype=bool), exp
        shift = exp - self._exp
        if shift >= 0:
            k = np.searchsorted(self._nums[:, 0], x >> shift, side="right")
        else:
            _check_bits(x, 62 + shift, "aligned point")
            x = x << -shift
            k = np.searchsorted(self._nums[:, 0], x, side="right")
        prefix = self._prefix_sums()[k]
        high = self._nums[np.maximum(k - 1, 0), 1]
        if shift > 0:
            _check_bits(prefix, 62 - shift, "aligned measure")
            _check_bits(high, 62 - shift, "aligned endpoint")
            prefix, high = prefix << shift, high << shift
        over = np.where(k > 0, np.maximum(high - x, 0), 0)
        return prefix - over, over > 0, max(exp, self._exp)

    def measure_between(self, lo, hi) -> Dyadic:
        """Exact λ(S ∩ [lo, hi)) for dyadic lo, hi; zero when hi <= lo."""
        lo, hi = as_dyadic(lo), as_dyadic(hi)
        if not lo < hi:
            return Dyadic(0)
        v, _, e = self.cumulative_nums(*common_numerators([lo, hi]))
        return Dyadic(int(v[1] - v[0]), e)

    def float_coverage(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Float C(x) = λ(S ∩ (-inf, x]) and Q(x) = ∫_{-inf}^x C(t) dt at
        float points x, as two arrays of x's shape.

        C is known exactly at the knots (every endpoint) from the prefix sums;
        between knots it is linear, so C is interpolated there and Q is
        integrated exactly over each linear piece.  One pass over the knots,
        one block at a time, answers the sorted points that fall in each
        block; Q at the block's first knot is the carry of the blocks before
        it.  Nothing is kept with the set beyond its prefix sums.
        """
        x = np.asarray(x, dtype=np.float64)
        c_out, q_out = np.zeros(x.size), np.zeros(x.size)
        if not self or x.size == 0:
            return c_out.reshape(x.shape), q_out.reshape(x.shape)
        order = np.argsort(x, axis=None, kind="stable")
        pts = x.ravel()[order]
        prefix, n, scale = self._prefix_sums(), len(self), 2.0 ** (-self._exp)
        # points left of the first knot keep C = Q = 0
        lo = int(np.searchsorted(pts, float(self._nums[0, 0]) * scale, side="left"))
        carry = 0.0
        for start, stop in spans(n):
            if lo == pts.size:
                break
            last = stop == n
            # the knots of intervals start..stop-1, and the next low unless
            # this is the last block, with C there from the exact prefix
            xs = self._nums[start : stop + 1].ravel()[: 2 * (stop - start) + 1]
            xs = xs.astype(np.float64)
            xs *= scale
            c = prefix[start : stop + 2].astype(np.float64)
            c *= scale
            c = np.repeat(c, 2)[1 : xs.size + 1]
            q = np.empty(xs.size)
            q[0] = carry
            q[1:] = np.diff(xs) * (c[:-1] + c[1:]) / 2.0
            np.cumsum(q, out=q)
            carry = q[-1]
            # the points in [xs[0], xs[-1]), or every point left in the last
            # block, whose knot index is then clipped to the last piece
            hi = pts.size if last else int(np.searchsorted(pts, xs[-1], side="left"))
            p = pts[lo:hi]
            idx = np.searchsorted(xs, p, side="right") - 1
            if last:
                np.minimum(idx, xs.size - 2, out=idx)
            t = p - xs[idx]
            slope = 1 - idx % 2  # C rises at slope 1 inside an interval, 0 in a gap
            val = q[idx] + t * (c[idx] + t * slope / 2.0)
            if last:
                val = np.where(p >= xs[-1], q[-1] + (p - xs[-1]) * c[-1], val)
            c_out[order[lo:hi]] = np.interp(p, xs, c)
            q_out[order[lo:hi]] = val
            lo = hi
        return c_out.reshape(x.shape), q_out.reshape(x.shape)

    # -- set operations -----------------------------------------------------

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return boolean(self, other, "intersect")

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return boolean(self, other, "union")

    def symmdiff(self, other: "IntervalSet") -> "IntervalSet":
        return boolean(self, other, "symmdiff")

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return boolean(self, other, "difference")

    def restrict(self, window: Window) -> "IntervalSet":
        return self.intersect(IntervalSet([(window.lo, window.hi)]))

    # -- affine image ---------------------------------------------------------

    def affine(self, scale, shift) -> "IntervalSet":
        """Exact image {scale*s + shift : s in S}; scale must be positive."""
        scale = as_dyadic(scale)
        shift = as_dyadic(shift)
        if not Dyadic(0) < scale:
            raise ValueError(f"affine scale must be positive, got {scale}")
        if not self:
            return IntervalSet.empty()
        # image numerators nums*s + t at exponent e
        e = max(self._exp + scale.exp, shift.exp)
        s = scale.num << (e - self._exp - scale.exp)
        t = shift.num << (e - shift.exp)
        # an increasing map keeps the set sorted, disjoint and non-adjacent, and
        # its first low and last high bound every image endpoint; once both pass
        # the guard, every term below is within the image span, below 2**59
        lo = int(self._nums[0, 0]) * s + t
        _check_magnitude(max(abs(lo), abs(int(self._nums[-1, 1]) * s + t)))
        image = self._nums - self._nums[0, 0]
        image *= s
        image += lo
        return IntervalSet._raw(*_reduce_exponent(image, e))

    def translate(self, shift) -> "IntervalSet":
        return self.affine(Dyadic(1), shift)

    # -- JSON ----------------------------------------------------------------

    def row_blocks(self):
        """The rows [num_lo, exp_lo, num_hi, exp_hi] in canonical form, as
        int64 (b, 4) arrays of at most ``blocks.BLOCK`` rows, each encoded
        when it is asked for: what an interval-set artifact stores."""
        for start, stop in spans(len(self)):
            yield _encode_rows(self._nums[start:stop], self._exp)

    def rows(self) -> np.ndarray:
        """The canonical rows as one int64 (N, 4) array, filled block by
        block."""
        out = np.empty((len(self), 4), dtype=np.int64)
        for (start, stop), block in zip(spans(len(self)), self.row_blocks()):
            out[start:stop] = block
        return out

    def to_json(self):
        """The canonical rows as lists of Python ints."""
        return self.rows().tolist()

    @staticmethod
    def from_json(obj) -> "IntervalSet":
        return IntervalSet.from_arrays(*_decode_rows(obj))


# -- row codec --------------------------------------------------------------
#
# An interval is stored as the row [num_lo, exp_lo, num_hi, exp_hi], each
# endpoint num / 2**exp in canonical dyadic form (see dyadic.Dyadic).  Rows are
# read and written as int64 arrays, one block of blocks.BLOCK rows at a time;
# every shift is sized before it is made, so a hostile exponent raises
# ExactnessOverflowError instead of building a huge integer.

_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _bit_length(a: np.ndarray) -> np.ndarray:
    """Exact bit length of |a| for any int64 array (2**63 for -2**63)."""
    return np.searchsorted(_POW2, np.abs(a).view(np.uint64), side="right")


def _canonical(nums: np.ndarray, exps: np.ndarray):
    """Canonical form of each nums/2**exps: a negative exponent folded into the
    numerator, trailing zero bits stripped while the exponent is positive, and
    zero written as (0, 0)."""
    nonzero = nums != 0
    fold = nonzero & (exps < 0)
    if np.any(exps[fold] < _bit_length(nums[fold]) - _MAX_BITS):
        raise ExactnessOverflowError(f"an endpoint exceeds 2**{_MAX_BITS}")
    nums = nums << np.where(fold, -np.maximum(exps, -_MAX_BITS), 0)
    exps = np.where(nonzero, np.maximum(exps, 0), 0)
    trailing = _bit_length(nums & -nums) - 1
    strip = np.where(nonzero, np.minimum(trailing, exps), 0)
    return nums >> strip, exps - strip


def _encode_rows(nums: np.ndarray, exp: int) -> np.ndarray:
    """Canonical int64 (N, 4) rows of (N, 2) numerators at one exponent."""
    n, e = _canonical(nums, np.full(nums.shape, exp, dtype=np.int64))
    return np.stack([n[:, 0], e[:, 0], n[:, 1], e[:, 1]], axis=1)


def _decode_rows(rows):
    """Low and high numerators at their common exponent, and that exponent,
    from rows given as lists of four integers.

    The rows are read, canonicalized and aligned one block at a time, each
    step over every block before the next, so a refusal is the one the whole
    array would give wherever its row lies.  The lows and highs returned are
    the columns of one (N, 2) array.
    """
    if not (isinstance(rows, list) and set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {4}):
        raise ValueError("interval rows must be [num_lo, exp_lo, num_hi, exp_hi] lists")
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        raise ValueError("interval row entries must be integers")
    nums = np.empty((len(rows), 2), dtype=np.int64)
    exps = np.empty_like(nums)
    for start, stop in spans(len(rows)):
        try:
            flat = np.fromiter(chain.from_iterable(rows[start:stop]), np.int64, 4 * (stop - start))
        except OverflowError:
            raise ExactnessOverflowError("interval row entries exceed int64") from None
        flat = flat.reshape(-1, 4)
        nums[start:stop], exps[start:stop] = flat[:, 0::2], flat[:, 1::2]
    # canonical form in place; the common exponent is the largest
    exp = 0
    for start, stop in spans(len(rows)):
        n, e = _canonical(nums[start:stop], exps[start:stop])
        nums[start:stop], exps[start:stop] = n, e
        exp = max(exp, int(e.max()))
    # align in place, each shift sized before it is made
    for start, stop in spans(len(rows)):
        n, e = nums[start:stop], exps[start:stop]
        shift = np.where(n != 0, exp - e, 0)
        if np.any(shift > _MAX_BITS - _bit_length(n)):
            raise ExactnessOverflowError(
                f"endpoints need more than 2**{_MAX_BITS} at exponent {exp}"
            )
        n <<= shift
    return nums[:, 0], nums[:, 1], exp


# -- internals ------------------------------------------------------------


def _normalize_arrays(lows: np.ndarray, highs: np.ndarray, exp: int):
    """Sort, drop degenerate, merge overlapping/adjacent; reduce exponent.

    Input already sorted by its lows (a quantizer's cells in order, an
    artifact's rows) is not sorted again: a stable sort would leave it as it
    is.  Sorted input whose intervals lie apart (an artifact's rows) is not
    merged either: the merge would keep every interval.
    """
    if np.any(lows > highs):
        i = int(np.argmax(lows > highs))
        raise ValueError(
            f"interval has lo > hi: ({Dyadic(int(lows[i]), exp)}, "
            f"{Dyadic(int(highs[i]), exp)})"
        )
    keep = lows < highs
    if not keep.all():
        lows, highs = lows[keep], highs[keep]
    del keep
    if lows.size == 0:
        return np.empty((0, 2), dtype=np.int64), 0
    _check_bits(lows)
    _check_bits(highs)
    if np.any(lows[1:] < lows[:-1]):
        order = np.argsort(lows, kind="stable")
        lows, highs = lows[order], highs[order]
        del order
    if np.all(lows[1:] > highs[:-1]):
        # sorted and apart, as an artifact's rows are: nothing to merge
        out = np.empty((lows.size, 2), dtype=np.int64)
        out[:, 0], out[:, 1] = lows, highs
        return _reduce_exponent(out, exp)
    # merge: a new interval starts where lo strictly exceeds the running max hi
    run_hi = np.maximum.accumulate(highs)
    mark = np.empty(lows.size, dtype=bool)
    mark[0] = True
    np.greater(lows[1:], run_hi[:-1], out=mark[1:])
    out = np.empty((np.count_nonzero(mark), 2), dtype=np.int64)
    out[:, 0] = lows[mark]
    # each merged interval ends at the running max hi just before the next start
    mark[:-1] = mark[1:]
    mark[-1] = True
    out[:, 1] = run_hi[mark]
    return _reduce_exponent(out, exp)


def _reduce_exponent(nums: np.ndarray, exp: int):
    """Strip the trailing zero bits every numerator shares, up to exp; nums
    is a fresh array, shifted in place."""
    if exp == 0 or nums.size == 0:
        return nums, exp if nums.size else 0
    acc = int(np.bitwise_or.reduce(nums.ravel()))
    if acc == 0:
        return nums, 0
    tz = (acc & -acc).bit_length() - 1
    shift = min(tz, exp)
    if shift:
        nums >>= shift
        exp -= shift
    return nums, exp


def _align(a: IntervalSet, b: IntervalSet):
    e = max(a._exp, b._exp)
    return a.numerators(e), b.numerators(e), e


_OPS = {
    "intersect": lambda a, b: a & b,
    "union": lambda a, b: a | b,
    "symmdiff": lambda a, b: a ^ b,
    "difference": lambda a, b: a & ~b,
}


def boolean(s: IntervalSet, t: IntervalSet, op: str) -> IntervalSet:
    """Exact set-theoretic combination of two interval sets."""
    if op not in _OPS:
        raise ValueError(f"unknown boolean op {op!r}; expected one of {sorted(_OPS)}")
    an, bn, e = _align(s, t)
    if an.size == 0 and bn.size == 0:
        return IntervalSet.empty()
    coords = np.unique(np.concatenate([an.ravel(), bn.ravel()]))
    if coords.size < 2:
        return IntervalSet.empty()
    seg_lo = coords[:-1]
    in_a = _membership(an, seg_lo)
    in_b = _membership(bn, seg_lo)
    keep = _OPS[op](in_a, in_b)
    if not np.any(keep):
        return IntervalSet.empty()
    # merge adjacent kept segments: segment i spans [coords[i], coords[i+1])
    starts = np.empty(keep.size, dtype=bool)
    starts[0] = keep[0]
    starts[1:] = keep[1:] & ~keep[:-1]
    stops = np.empty(keep.size, dtype=bool)
    stops[-1] = keep[-1]
    stops[:-1] = keep[:-1] & ~keep[1:]
    out = np.empty((int(np.sum(starts)), 2), dtype=np.int64)
    out[:, 0] = coords[:-1][starts]
    out[:, 1] = coords[1:][stops]
    nums, e = _reduce_exponent(out, e)
    return IntervalSet._raw(nums, e)


def _membership(nums: np.ndarray, points: np.ndarray) -> np.ndarray:
    """points[i] in the union, evaluated with half-open semantics."""
    if nums.size == 0:
        return np.zeros(points.size, dtype=bool)
    lo = np.searchsorted(nums[:, 0], points, side="right")
    hi = np.searchsorted(nums[:, 1], points, side="right")
    return lo - hi == 1
