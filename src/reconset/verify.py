"""Verification harness: measure vectors, monotonicity and injectivity
reports, Monte Carlo reconstruction rates, and the two-test-set
counterexample, decided exactly on the pieces of A ∪ B: a pair of intervals
that A and B measure equally, or a proof that none exists (CheckFailedError),
or IndeterminateError when the widest pair lies closer than the tolerance
allows.

Separation policy: exact-arithmetic paths demand strict inequality, while
quadrature-backed paths demand separation above 10x the reported quadrature
error — anything closer is flagged indeterminate rather than called a
collision.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dyadic import Dyadic, as_dyadic, common_numerators
from .errors import (
    CheckFailedError,
    ExactnessOverflowError,
    IndeterminateError,
    ReconsetError,
    WindowExceededError,
)
from .intervals import IntervalSet, Window

# gridsets and shapes load only for the tests and grids that use them, so an
# exact interval-set query never compiles them
if TYPE_CHECKING:
    from .gridsets import RandomLevels


# -- family grids -----------------------------------------------------------------


@dataclass(frozen=True)
class IntervalFamilyGrid:
    """Intervals [x, x+L) on a rectangular dyadic (x, L) parameter grid."""

    x_lo: Dyadic
    x_hi: Dyadic
    x_step: Dyadic
    l_lo: Dyadic
    l_hi: Dyadic
    l_step: Dyadic

    @staticmethod
    def of(x_lo, x_hi, x_step, l_lo, l_hi, l_step) -> "IntervalFamilyGrid":
        return IntervalFamilyGrid(
            *(as_dyadic(v) for v in (x_lo, x_hi, x_step, l_lo, l_hi, l_step))
        )

    def __post_init__(self):
        if not Dyadic(0) < self.l_lo:
            raise ValueError(f"the least length must be positive, got {self.l_lo}")
        _check_grid_size(math.prod(self._sizes()), "the (x, L) grid")

    def _sizes(self) -> tuple[int, int]:
        return (_grid_size(self.x_lo, self.x_hi, self.x_step),
                _grid_size(self.l_lo, self.l_hi, self.l_step))

    def instances(self) -> tuple[np.ndarray, int]:
        """The numerators of x and x + L for each instance [x, x + L), an
        (N, 2) int64 array with x outermost, and their exponent."""
        nx, nl = self._sizes()
        if not nx * nl:
            return np.empty((0, 2), np.int64), 0
        # the least L and the L step are differences of points x + L and x too
        (x0, dx, l0, dl), exp = common_numerators(
            [self.x_lo, _step(self.x_step, nx), self.l_lo, _step(self.l_step, nl)]
        )
        x_last, xl_last = x0 + (nx - 1) * dx, x0 + l0 + (nx - 1) * dx + (nl - 1) * dl
        _check_int64("grid points", exp, x0, x_last, x0 + l0, xl_last)
        x = _progression(x0, dx, nx)
        ends = np.stack([np.repeat(x, nl), (x[:, None] + _progression(l0, dl, nl)).ravel()], 1)
        return ends.view(np.int64), exp

    def span(self) -> tuple[Dyadic, Dyadic] | None:
        """The least and the greatest of the points x and x + L of the
        instances [x, x + L); None for an empty grid."""
        ends, exp = self.instances()
        if not ends.size:
            return None
        return Dyadic(int(ends.min()), exp), Dyadic(int(ends.max()), exp)

    def describe(self) -> dict:
        return {
            "kind": "interval",
            "x": [str(self.x_lo), str(self.x_hi), str(self.x_step)],
            "L": [str(self.l_lo), str(self.l_hi), str(self.l_step)],
        }


# far above every grid the benchmark uses (4,225 points at most),
# far below one that exhausts memory
MAX_GRID_POINTS = 1 << 20


def _grid_size(lo: Dyadic, hi: Dyadic, step: Dyadic) -> int:
    """The exact number of points lo, lo + step, ... up to hi inclusive."""
    if not Dyadic(0) < step:
        raise ValueError(f"grid step must be positive, got {step}")
    (lo_n, hi_n, step_n), _ = common_numerators([lo, hi, step])
    return max(0, (hi_n - lo_n) // step_n + 1)


def _check_grid_size(size: int, what: str):
    if size > MAX_GRID_POINTS:
        raise ValueError(f"{what} has {size} points, more than {MAX_GRID_POINTS}")


def grid_points(lo: Dyadic, hi: Dyadic, step: Dyadic,
                offsets=(Dyadic(0),)) -> tuple[np.ndarray, int]:
    """The numerators of x + o for x = lo, lo + step, ... up to hi inclusive
    and o in offsets, an (n, len(offsets)) int64 array at the least exponent
    that holds them all, and that exponent.  The grid is sized, and its
    extreme points are checked against int64, before any point is made."""
    size = _grid_size(lo, hi, step)
    _check_grid_size(size, f"the grid {lo} to {hi} by {step}")
    if not size:
        return np.empty((0, len(offsets)), np.int64), 0
    o = offsets[0]
    # each point is lo + o + k*step + (p - o), and p - o a difference of points
    (first, d, *rel), exp = common_numerators(
        [lo + o, _step(step, size), *(p - o for p in offsets)]
    )
    _check_int64("grid points", exp, first + min(rel), first + (size - 1) * d + max(rel))
    points = _progression(first, d, size)[:, None] + np.array([r % 2**64 for r in rel], np.uint64)
    return points.view(np.int64), exp


def _step(step: Dyadic, size: int) -> Dyadic:
    """The step of a grid of `size` points, 0 for one point.  The first point
    and the step are integer combinations of the points, and every point is
    one of them: their least common exponent is the points'."""
    return step if size > 1 else Dyadic(0)


def _progression(first: int, step: int, size: int) -> np.ndarray:
    """first, first + step, ... (size terms) as uint64 modulo 2**64: exact in
    int64 view once the caller has checked the extremes against int64."""
    return np.uint64(first % 2**64) + np.arange(size, dtype=np.uint64) * np.uint64(step % 2**64)


_INT64 = range(-(1 << 63), 1 << 63)


def _check_int64(what: str, exp: int, *extremes: int):
    if not all(v in _INT64 for v in extremes):
        raise ExactnessOverflowError(f"{what} need numerators beyond int64 at exponent {exp}")


@dataclass(frozen=True)
class TranslateFamilyGrid:
    """Translates of a fixed shape over a uniform grid in each coordinate."""

    shape: object
    lo: tuple
    hi: tuple
    steps: tuple  # points per axis

    def instances(self) -> list:
        from .shapes import Pose

        axes = [
            np.linspace(a, b, int(k)) for a, b, k in zip(self.lo, self.hi, self.steps)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        return [Pose(tuple(float(c) for c in row), 1.0) for row in pts]

    def describe(self) -> dict:
        return {
            "kind": "translate",
            "lo": list(self.lo),
            "hi": list(self.hi),
            "steps": list(self.steps),
        }


# -- measure vectors ----------------------------------------------------------------


def measure_vector(instances, tests) -> tuple[np.ndarray, int]:
    """Entry (i, j) = measure of instance i against test j, exactly.

    Instances are the (ends, exp) of an interval family: ends an (N, 2) int64
    array of the numerators of x and x + L for [x, x+L) at the exponent exp.
    Tests are interval sets and grid sets; column j is C(x+L) - C(x) from the
    exact cumulative measure C of test j.  Returns the (instances x tests)
    int64 numerators at one exponent e, and e.
    """
    ends, e = instances
    columns = []
    for t in tests:
        if not isinstance(t, IntervalSet):
            from .gridsets import GridSet

            if not isinstance(t, GridSet):
                raise TypeError(
                    f"an interval family takes interval and grid tests, not {type(t).__name__}"
                )
            if len(ends):  # a grid set: its runs, inside its box
                need = (Dyadic(int(ends.min()), e), Dyadic(int(ends.max()), e))
                check_span(need, Window.of(t.levels.box_lo[0], t.levels.box_hi[0]), "the grid box")
            t = t.runs
        c, _, ce = t.cumulative_nums(ends.ravel(), e)
        columns.append((c[1::2] - c[0::2], ce))
    if not (len(ends) and columns):
        return np.zeros((len(ends), len(tests)), np.int64), 0
    # one exponent for every test, each column's extremes sized before the shift
    exp = max(ce for _, ce in columns)
    _check_int64("measures", exp,
                 *(int(v) << exp - ce for d, ce in columns for v in (d.min(), d.max())))
    return np.stack([d << exp - ce for d, ce in columns], 1), exp


def check_span(need: tuple, window: Window, where: str):
    """The points the instances query, spanning need = (lo, hi), lie in the
    window of a test; else WindowExceededError naming the span needed."""
    lo, hi = need
    if lo < window.lo or window.hi < hi:
        raise WindowExceededError(
            f"instances need [{lo}, {hi}), outside {where} {window}",
            required_lo=float(lo),
            required_hi=float(hi),
        )


# -- reports ---------------------------------------------------------------------


@dataclass
class MonotonicityReport:
    min_increment: float
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations and self.min_increment > 0

    def to_json(self):
        return {
            "min_increment": self.min_increment,
            "violations": self.violations,
            "passed": self.passed,
        }


def monotonicity_report(values, exp: int | None = None) -> MonotonicityReport:
    """Min consecutive increment and the indices of non-increases of float
    values or, given exp, decided exactly on the integer numerators values
    at the exponent exp."""
    vals = list(values)
    if len(vals) < 2:
        raise ValueError("monotonicity needs at least two values")
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    violations = [i + 1 for i, d in enumerate(diffs) if not d > 0]
    least = min(diffs)
    return MonotonicityReport(float(least) if exp is None else least * 2.0**-exp, violations)


@dataclass
class VerificationReport:
    instance_count: int
    test_count: int
    min_separation: float
    witness_pair: tuple
    collisions: list  # the first MAX_LISTED_COLLISIONS of them
    collision_count: int
    indeterminate: bool
    quadrature_error: float
    grid: dict

    @property
    def passed(self) -> bool:
        return not self.collision_count and not self.indeterminate

    def to_json(self):
        return {
            "instances": self.instance_count,
            "tests": self.test_count,
            "min_separation": self.min_separation,
            "witness_pair": list(self.witness_pair),
            "collisions": self.collisions,
            "collision_count": self.collision_count,
            "indeterminate": self.indeterminate,
            "quadrature_error": self.quadrature_error,
            "grid": self.grid,
            "passed": self.passed,
        }


MAX_LISTED_COLLISIONS = 1000  # colliding pairs a report lists; it counts them all


def pairwise_min_linf(matrix: np.ndarray, threshold=0):
    """Min pairwise l-infinity distance of int64 or float rows, by a sweep.

    Returns (min_distance, witness (i, j), the first MAX_LISTED_COLLISIONS
    collisions at <= threshold, their count), pairs ordered as the rows sorted
    on the first component.  Step k compares each active sorted row i with
    row i + k at once; row i leaves once the first-component gap alone exceeds
    both the current minimum and the threshold, as it then does at every
    later k (Bentley & Shamos, STOC 1976)."""
    n = matrix.shape[0]
    if n < 2:
        return math.inf, (-1, -1), [], 0
    order = np.argsort(matrix[:, 0], kind="stable")
    cols = matrix[order].T.copy()  # each component contiguous, sorted on the first
    col0 = cols[0]
    best, wi, wk = math.inf, -1, 0
    listed, count = [], 0  # (i, k) of the first collisions, and their count
    rows, k, gap = np.arange(n - 1), 1, np.diff(col0)
    while rows.size:
        d = np.max([gap, *(np.abs(c[rows + k] - c[rows]) for c in cols[1:])], axis=0)
        at = int(np.argmin(d))
        if d[at] < best or (d[at] == best and rows[at] < wi):
            best, wi, wk = d[at].item(), int(rows[at]), k
        hit = rows[d <= threshold]
        count += hit.size
        # a pair of this step precedes a listed one only with a lesser row
        if hit.size and (len(listed) < MAX_LISTED_COLLISIONS or hit[0] < listed[-1][0]):
            listed += [(i, k) for i in hit[:MAX_LISTED_COLLISIONS].tolist()]
            listed = sorted(listed)[:MAX_LISTED_COLLISIONS]
        k += 1
        rows = rows[: np.searchsorted(rows, n - k)]
        gap = col0[rows + k] - col0[rows]
        rows, gap = rows[gap <= max(best, threshold)], gap[gap <= max(best, threshold)]
    collisions = [(int(order[i]), int(order[i + k])) for i, k in listed]
    return best, (int(order[wi]), int(order[wi + wk])), collisions, count


def injectivity_report(grid, tests, resolution: int = 256) -> VerificationReport:
    """Pairwise separation of the measure-vector map over a finite family.

    An interval family takes interval and grid tests, measured exactly by
    `measure_vector`; a translate family takes slab tests, each column one
    `shapes.intersection_measures` at the given profile resolution.  Exact
    tests demand strict separation; quadrature-backed tests flag the report
    indeterminate when the minimum separation does not clear 10x the reported
    error.
    """
    instances = grid.instances()
    posed = isinstance(grid, TranslateFamilyGrid)
    if len(instances if posed else instances[0]) < 2:
        raise ValueError("injectivity needs at least two instances")
    if not tests:
        raise ValueError("injectivity needs at least one test set, got an empty test list")
    if posed:
        from .shapes import SlabTestSet, intersection_measures

        matrix, exp = np.zeros((len(instances), len(tests))), 0
        errors = np.zeros_like(matrix)
        for j, t in enumerate(tests):
            if not isinstance(t, SlabTestSet):
                raise TypeError(f"a translate family takes slab tests, not {type(t).__name__}")
            matrix[:, j], errors[:, j] = intersection_measures(grid.shape, instances, t, resolution)
        qerr = float(np.max(errors)) if errors.size else 0.0
    else:
        matrix, exp = measure_vector(instances, tests)
        qerr = 0.0
    best, witness, collisions, count = pairwise_min_linf(matrix)
    best = best * 2.0**-exp
    indeterminate = qerr > 0 and best <= 10.0 * qerr and not count
    return VerificationReport(
        instance_count=len(matrix),
        test_count=len(tests),
        min_separation=best,
        witness_pair=witness,
        collisions=collisions,
        collision_count=count,
        indeterminate=indeterminate,
        quadrature_error=qerr,
        grid=grid.describe(),
    )


# -- two-test-set counterexample ----------------------------------------------------


@dataclass
class CounterexamplePair:
    first: tuple  # (Dyadic, Dyadic)
    second: tuple
    a_discrepancy: Dyadic
    b_discrepancy: Dyadic
    rule: str

    def to_json(self):
        (x1, y1), (x2, y2) = self.first, self.second
        return {
            "first": [[x1.num, x1.exp], [y1.num, y1.exp]],
            "second": [[x2.num, x2.exp], [y2.num, y2.exp]],
            "a_discrepancy": float(self.a_discrepancy),
            "b_discrepancy": float(self.b_discrepancy),
            "rule": self.rule,
        }


# Each rule pairs a left point c_l with a right point c_r, c_r - c_l > L, and
# a shift s: first = [c_l + u1 s, c_r + v1 s], second = [c_l + u2 s, c_r + v2 s]
# for its ((u1, v1), (u2, v2)).  Their separation is max(|u1 - u2|, |v1 - v2|) s.
_RULES = {
    "translation": ((0, -1), (1, 0)),
    "x-gap": ((0, 0), (1, 0)),
    "y-gap": ((0, -1), (0, 0)),
    "y-fold": ((0, -1), (1, 1)),
    "x-fold": ((-1, -1), (1, 0)),
}


def interval_counterexample(
    A: IntervalSet,
    B: IntervalSet,
    min_length=1,
    tol: float = 1e-9,
    windows=(),
) -> CounterexamplePair:
    """Two distinct intervals [x, y] longer than min_length that A and B
    measure equally, exactly; or CheckFailedError when no two exist.

    Both intervals lie in [lo, hi]: the intersection of `windows` (those
    recorded for A and B), or without them a window that covers both sets
    with a margin.  The endpoints of A and B cut [lo, hi) into pieces, each of
    a type τ = (in A, in B).  The map f(x, y) = (λ(A ∩ [x, y]), λ(B ∩ [x, y]))
    is affine on each cell P × Q of pieces, with Jacobian determinant
    a(y) b(x) - a(x) b(y).  A cell is admissible when Q.hi - P.lo > L.  Five
    closed forms give two intervals of equal measures against both sets:

    * translation, τP = τQ: [x, y] and [x + s, y + s];
    * x-gap, τP = (0, 0): [x, y] and [x + s, y];
    * y-gap, τQ = (0, 0): [x, y] and [x, y + s];
    * y-fold, τP = (1, 1) and q between adjacent pieces of types (1, 0) and
      (0, 1), in either order, with q - P.lo > L: [x - s, q - s] and
      [x, q + s];
    * x-fold, τQ = (1, 1) and such a p with Q.hi - p > L: [p - s, y - s]
      and [p + s, y].

    They are complete.  The determinant is 0 on the cells of the first three
    and ±1 on every other cell.  Without them, its sign can change across the
    admissible region only at a fold.  With one sign throughout, B holds every
    admissible x and A every admissible y (or the reverse), and two intervals
    of equal measures would need an admissible cell of two (1, 1) pieces or a
    (0, 0) piece: f is injective.

    Each rule takes the pieces that allow the greatest shift s, and the pair
    with the widest separation wins, the leftmost among equals.  All of it
    runs on int64 numerators one bit finer than every endpoint and L, so
    that half the slack Q.hi - P.lo - L of any cell is a numerator too.  The pair is
    re-measured exactly before it is returned.  IndeterminateError when the
    widest separation is below max(100 tol, 2^-20).
    """
    min_length = as_dyadic(min_length)
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if min_length < 0:
        raise ValueError(f"min_length must be non-negative, got {min_length}")
    if windows:
        lo, hi = max(w.lo for w in windows), min(w.hi for w in windows)
        if not min_length < hi - lo:
            raise ValueError(
                f"no interval longer than {min_length} fits in the intersection "
                f"of the windows {', '.join(map(str, windows))}"
            )
    else:
        W = max([Dyadic(2), *(abs(v) for S in (A, B) if S for v in S.span())])
        lo, hi = -(W + min_length + 3), W + min_length + 3
    window = Window(lo, hi)
    A_w, B_w = A.restrict(window), B.restrict(window)
    exp = max(lo.exp, hi.exp, min_length.exp, A_w.exponent, B_w.exponent) + 1
    lo_n, hi_n, L = (v.num << exp - v.exp for v in (lo, hi, min_length))
    _check_int64("the window", exp, lo_n, hi_n, lo_n - hi_n - L)
    t = np.unique(np.concatenate([[lo_n, hi_n], A_w.numerators(exp).ravel(),
                                  B_w.numerators(exp).ravel()]))
    starts, ends, size = t[:-1], t[1:], np.diff(t)
    a, b = (S.cumulative_nums(starts, exp)[1] for S in (A_w, B_w))
    # a fold point: both sets change there, between a (1, 0) and a (0, 1) piece
    fold = (a[:-1] != a[1:]) & (b[:-1] != b[1:]) & (a[:-1] != b[:-1])
    folds = t[1:-1][fold], np.minimum(size[:-1], size[1:])[fold]
    gap, both = ~a & ~b, a & b
    whole = [hi_n - lo_n]  # no piece bounds the shift at lo or at hi
    sides = [
        *(("translation", (starts[m], size[m]), (ends[m], size[m]))
          for m in (gap, a & ~b, ~a & b, both)),
        ("x-gap", (starts[gap], size[gap]), ([hi_n], whole)),
        ("y-gap", ([lo_n], whole), (ends[gap], size[gap])),
        ("y-fold", (starts[both], size[both]), folds),
        ("x-fold", folds, (ends[both], size[both])),
    ]
    found = []
    for rule, left, right in sides:
        widest = _widest(left, right, L, lo_n, hi_n)
        if widest is not None:
            s, c_l, c_r = widest
            (u1, v1), (u2, v2) = _RULES[rule]
            pair = (c_l + u1 * s, c_r + v1 * s), (c_l + u2 * s, c_r + v2 * s)
            found.append((max(abs(u1 - u2), abs(v1 - v2)) * s, pair, rule))
    if not found:
        raise CheckFailedError(
            f"A and B tell apart every two intervals longer than {min_length} "
            f"in [{lo}, {hi}]: no pair of equal measures exists"
        )
    sep, pair, rule = min(found, key=lambda c: (-c[0], c[1]))
    sep = Dyadic(sep, exp)
    if sep < max(100 * Dyadic.from_float(tol), Dyadic(1, 20)):
        raise IndeterminateError(
            f"the widest pair is {sep} apart, below max(100 tol, 2^-20) for tol {tol}"
        )
    first, second = (tuple(Dyadic(v, exp) for v in z) for z in pair)
    da, db = (S.measure_between(*first) - S.measure_between(*second) for S in (A, B))
    if da or db:
        raise ReconsetError(f"the {rule} pair {first}, {second} re-measured unequal")
    return CounterexamplePair(first, second, da, db, rule)


def _widest(left, right, min_length: int, lo: int, hi: int):
    """The greatest s = min(size_l, size_r, (c_r - c_l - L) // 2) over a left
    item (c_l, size_l) and a right item (c_r, size_r) with c_r > c_l + L, and
    its (s, c_l, c_r); None when no pair has a positive s.  Every coordinate
    lies in [lo, hi].  Items come as (coordinates, sizes), int64.

    At a size threshold v, the leftmost left item and the rightmost right
    item of sizes >= v pair best: with the items sorted by size, descending,
    a running minimum and maximum give every threshold's pair at once."""
    (l_at, l_size), (r_at, r_size) = (map(np.asarray, side) for side in (left, right))
    if not (l_at.size and r_at.size):
        return None
    size = np.concatenate([l_size, r_size])
    order = np.argsort(-size, kind="stable")
    at = np.concatenate([l_at, r_at])[order]
    is_left = order < l_at.size
    first = np.minimum.accumulate(np.where(is_left, at, hi))
    last = np.maximum.accumulate(np.where(is_left, lo, at))
    s = np.minimum(size[order], (last - first - min_length) // 2)
    k = int(np.argmax(s))
    if s[k] <= 0:
        return None
    v = size[order[k]]
    return int(s[k]), int(l_at[l_size >= v].min()), int(r_at[r_size >= v].max())


# -- Monte Carlo reconstruction ---------------------------------------------------------


@dataclass
class MonteCarloReport:
    trials: int
    successes: int
    rate: float
    copies: int
    separation: float
    per_trial: list
    master_seed: int

    def to_json(self):
        return asdict(self)


def monte_carlo_reconstruction(
    grid: IntervalFamilyGrid,
    levels: RandomLevels,
    copies: int,
    trials: int,
    seed: int,
    separation: float | None = None,
) -> MonteCarloReport:
    """Fraction of trials whose random test sets separate the whole family.

    A trial succeeds when no pair of family members has all its measure
    differences below the declared resolution separation (default
    1/(4 n^d)).  Copy c of trial t samples with a 64-bit seed hashed from
    (seed, t, c), so it does not depend on the number of copies and no two
    (t, c) share it but by hash chance.  Per-trial seeds are logged for replay.
    """
    if trials < 0 or copies < 1:
        raise ValueError("need trials >= 0 and copies >= 1")
    from .gridsets import sample_grid_set

    if separation is None:
        separation = 1.0 / (4.0 * float(levels.finest) ** levels.d)
    instances = grid.instances()
    per_trial = []
    successes = 0
    for t in range(trials):
        trial_seeds = [
            int(np.random.SeedSequence((seed, t, c)).generate_state(1, np.uint64)[0])
            for c in range(copies)
        ]
        tests = [sample_grid_set(levels, s) for s in trial_seeds]
        matrix, exp = measure_vector(instances, tests)
        best, _, _, count = pairwise_min_linf(
            matrix * 2.0**-exp, threshold=separation * (1 - 1e-12)
        )
        ok = not count
        successes += ok
        per_trial.append(
            {"seeds": trial_seeds, "min_separation": best, "success": bool(ok)}
        )
    rate = successes / trials if trials else 0.0
    return MonteCarloReport(
        trials, successes, rate, copies, separation, per_trial, seed
    )
