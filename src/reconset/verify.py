"""Verification harness: measure vectors, monotonicity and injectivity
reports, Monte Carlo reconstruction rates, and the two-test-set
counterexample searcher.

Separation policy: exact-arithmetic paths demand strict inequality, while
quadrature-backed paths demand separation above 10x the reported quadrature
error — anything closer is flagged indeterminate rather than called a
collision.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import combinations

import numpy as np

from .dyadic import Dyadic, as_dyadic, common_numerators
from .errors import ExactnessOverflowError, SearchBudgetError, WindowExceededError
from .gridsets import GridSet, RandomLevels, sample_grid_set
from .intervals import IntervalSet, Window
from .shapes import Pose, SlabTestSet, intersection_measures, radon_profile


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


def measure_vector(instances, tests, profiles=None) -> tuple[np.ndarray, np.ndarray, int]:
    """Entry (i, j) = measure of instance i against test j.

    Returns the (instances x tests) values as numerators at an exponent e,
    their error bounds, and e.  Instances are the (ends, exp) of an interval
    family, ends an (N, 2) int64 array of the numerators of x and x + L for
    [x, x+L) at the exponent exp, or a list of (shape, Pose) pairs sharing one
    shape for slab tests, whose profiles (one per test) may be passed in.
    Interval and grid tests take C(x+L) - C(x) from the exact cumulative
    measure C of the test: int64, zero error; slab tests one sliding integral
    per magnification: floats at e = 0.
    """
    values = np.zeros((_count(instances), len(tests)))
    errors = np.zeros_like(values)
    if not values.shape[0]:
        return values, errors, 0
    columns = []
    for j, t in enumerate(tests):
        if isinstance(t, SlabTestSet):
            shape = instances[0][0]
            if any(s is not shape for s, _ in instances):
                raise ValueError("slab instances must share one shape")
            prof = profiles[j] if profiles else None
            poses = [pose for _, pose in instances]
            values[:, j], errors[:, j] = intersection_measures(shape, poses, t, profile=prof)
            continue
        if not isinstance(t, (IntervalSet, GridSet)):
            raise TypeError(f"unknown test type {type(t).__name__}")
        ends, e = instances
        if isinstance(t, GridSet):
            need = (Dyadic(int(ends.min()), e), Dyadic(int(ends.max()), e))
            check_span(need, Window.of(t.levels.box_lo[0], t.levels.box_hi[0]), "the grid box")
            t = t.runs
        c, _, ce = t.cumulative_nums(ends.ravel(), e)
        columns.append((c[1::2] - c[0::2], ce))
    # one exponent for every test, each column's extremes sized before the shift
    exp = max((ce for _, ce in columns), default=0)
    _check_int64("measures", exp,
                 *(int(v) << exp - ce for d, ce in columns for v in (d.min(), d.max())))
    return (np.stack([d << exp - ce for d, ce in columns], 1) if columns else values), errors, exp


def _count(instances) -> int:
    return len(instances) if isinstance(instances, list) else len(instances[0])


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
    grid: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)

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
            "seeds": self.seeds,
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

    Exact tests demand strict separation; quadrature-backed tests flag the
    report indeterminate when the minimum separation does not clear 10x the
    reported error.
    """
    instances = grid.instances()
    if _count(instances) < 2:
        raise ValueError("injectivity needs at least two instances")
    profiles = None
    if isinstance(instances, list):
        profiles = [
            None if t.full_space else radon_profile(grid.shape, t.theta, resolution)
            for t in tests
        ]
        instances = [(grid.shape, pose) for pose in instances]
    matrix, errors, exp = measure_vector(instances, tests, profiles)
    qerr = float(np.max(errors)) if errors.size else 0.0
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
        grid=grid.describe() if hasattr(grid, "describe") else {},
    )


# -- two-test-set counterexample searcher ---------------------------------------------


@dataclass
class CounterexamplePair:
    first: tuple  # (Dyadic, Dyadic)
    second: tuple
    a_discrepancy: Dyadic
    b_discrepancy: Dyadic
    grid_used: int

    def to_json(self):
        (x1, y1), (x2, y2) = self.first, self.second
        return {
            "first": [[x1.num, x1.exp], [y1.num, y1.exp]],
            "second": [[x2.num, x2.exp], [y2.num, y2.exp]],
            "a_discrepancy": float(self.a_discrepancy),
            "b_discrepancy": float(self.b_discrepancy),
            "grid_used": self.grid_used,
        }


# the search grids run INITIAL_GRID, 4x, 16x, ... up to MAX_GRID points a
# side; the 4096 x 4096 round peaks near 1 GB, the next would need 16 GB
INITIAL_GRID = 256
MAX_GRID = 4096
# candidate pairs resolved exactly per round at most
MAX_CANDIDATES = 200_000


def interval_counterexample(
    A: IntervalSet,
    B: IntervalSet,
    min_length=1,
    tol: float = 1e-9,
    windows=(),
) -> CounterexamplePair:
    """Two distinct intervals of length > min_length whose measures against
    both A and B agree within tol.

    Searches the planar map f(x, y) = (lambda(A ∩ [x,y]), lambda(B ∩ [x,y]))
    for image self-overlaps on a coarse grid, then resolves each candidate
    pair exactly on the affine pieces of f (slopes are 0/±1 with dyadic
    offsets, so solutions are dyadic and the discrepancies vanish exactly).
    With `windows` (those recorded for A and B) both intervals lie in their
    intersection; without, the search covers both sets with margin.
    Existence is guaranteed for any A, B; exhaustion signals a budget
    problem and raises SearchBudgetError.
    """
    min_length = as_dyadic(min_length)
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if windows:
        bounds = (max(w.lo for w in windows), min(w.hi for w in windows))
        if not min_length < bounds[1] - bounds[0]:
            raise ValueError(
                f"no interval longer than {min_length} fits in the intersection "
                f"of the windows {', '.join(map(str, windows))}"
            )
        lo, hi = float(bounds[0]), float(bounds[1])
    else:
        bounds = None
        W = Dyadic(2)
        for S in (A, B):
            if S:
                lo0, hi0 = S.span()
                W = max(W, abs(lo0), abs(hi0))
        W = float(W + min_length + Dyadic(4))
        lo, hi = -W + 1.0, W - 1.0
    sep_needed = max(100.0 * tol, 2.0 ** -20)

    grid, cut_off = INITIAL_GRID, []
    while grid <= MAX_GRID:
        pair, cut = _search_on_grid(A, B, lo, hi, bounds, min_length, grid, sep_needed)
        if pair is not None:
            (z1, z2) = pair
            da, db = (S.measure_between(*z1) - S.measure_between(*z2) for S in (A, B))
            if abs(da) <= Dyadic.from_float(tol) and abs(db) <= Dyadic.from_float(tol):
                return CounterexamplePair(z1, z2, da, db, grid)
        if cut:
            cut_off.append(f"{grid}x{grid}")
        grid *= 4
    grid //= 4
    reason = (
        f"the {MAX_CANDIDATES:,}-candidate cut-off ended the rounds on {', '.join(cut_off)}"
        if cut_off else f"no round reached the {MAX_CANDIDATES:,}-candidate cut-off"
    )
    raise SearchBudgetError(
        f"no counterexample found up to a {grid}x{grid} grid; {reason}",
        densest_grid=grid,
    )


def _search_on_grid(A, B, lo, hi, bounds, min_length, grid, sep_needed):
    """(pair or None, whether the candidate cut-off ended the round)."""
    xs = np.linspace(lo, hi, grid)
    step = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    mask = (Y - X) > float(min_length) + 2.0 * step
    pts_x = X[mask]
    pts_y = Y[mask]
    fa = A.cumulative_f(pts_y) - A.cumulative_f(pts_x)
    fb = B.cumulative_f(pts_y) - B.cumulative_f(pts_x)
    bucket = 2.0 * step + 1e-12
    keys = np.stack(
        [np.floor(fa / bucket).astype(np.int64), np.floor(fb / bucket).astype(np.int64)],
        axis=1,
    )
    buckets: dict[tuple, list] = {}
    for idx in range(keys.shape[0]):
        buckets.setdefault((int(keys[idx, 0]), int(keys[idx, 1])), []).append(idx)
    min_dom = float(min_length)
    checked = 0
    for (ka, kb), members in buckets.items():
        cands = [j for da in (-1, 0, 1) for db in (-1, 0, 1)
                 for j in buckets.get((ka + da, kb + db), ())]
        for i in members:
            for j in cands:
                if j <= i:
                    continue
                if (
                    abs(pts_x[i] - pts_x[j]) < sep_needed + 2 * step
                    and abs(pts_y[i] - pts_y[j]) < sep_needed + 2 * step
                ):
                    continue
                if abs(fa[i] - fa[j]) > 2.1 * step or abs(fb[i] - fb[j]) > 2.1 * step:
                    continue
                checked += 1
                if checked > MAX_CANDIDATES:
                    return None, True
                res = _exact_resolve(A, B, (pts_x[i], pts_y[i]), (pts_x[j], pts_y[j]),
                                     step, min_dom, sep_needed, bounds)
                if res is not None:
                    return res, False
    return None, False


def _exact_resolve(A, B, z1, z2, step, min_length, sep_needed, bounds):
    """Solve f(z1') = f(z2') exactly near the float candidates.

    Each coordinate is pinned (rounded half up to a multiple of 2**-24) and
    confined to its affine piece of each cumulative there; the 2x4 system is
    solved with two coordinates pinned and every constraint re-checked, exactly
    in integers at an exponent F one bit finer than every pin and intercept:
    right-hand sides are even, determinants ±1 or ±2, solutions integers."""
    F = max(A.exponent, B.exponent, 24) + 1
    fixed = [((n << 25) + d) // (2 * d) << F - 24 for n, d in map(float.as_integer_ratio, z1 + z2)]
    pieces = [_pieces(S, fixed, F)[0] for S in (A, B)]
    # equations: (C_S(y1) - C_S(x1)) - (C_S(y2) - C_S(x2)) = 0 for S = A, B,
    # with C_S = slope*x + c on its pieces at the pinned points: the
    # coefficients for (x1, y1, x2, y2) and the right-hand side
    rows = [((-s0, s1, s2, -s3), c0 - c1 - c2 + c3)
            for (s0, c0), (s1, c1), (s2, c2), (s3, c3) in pieces]
    if bounds is not None:  # the least and the greatest numerator in them
        bounds = -(-bounds[0].num << F >> bounds[0].exp), bounds[1].num << F >> bounds[1].exp
    for free in combinations(range(4), 2):
        i, j = (k for k in range(4) if k not in free)
        vals = list(fixed)
        eqs = [(m[i], m[j], r - sum(m[k] * fixed[k] for k in free)) for m, r in rows]
        (a, b, r), (c, d, t) = eqs
        det = a * d - b * c
        if det:
            vals[i], vals[j] = (d * r - b * t) // det, (a * t - c * r) // det
        else:
            # rank <= 1: solve the first nonzero equation with one more
            # coordinate pinned, then check both
            for a, b, r in eqs:
                if a or b:
                    if a:
                        vals[i] = (r - b * vals[j]) // a
                    else:
                        vals[j] = r // b
                    break
            if any(a * vals[i] + b * vals[j] != r for a, b, r in eqs):
                continue
        cand = _validate_candidate(A, B, vals, fixed, step, min_length, sep_needed, bounds, F, pieces)
        if cand is not None:
            return cand
    return None


def _validate_candidate(A, B, vals, pinned, step, min_length, sep_needed, bounds, F, pieces):
    x1, y1, x2, y2 = vals
    f = 2.0**-F  # distances are compared as the floats of exact differences
    if bounds is not None and not (bounds[0] <= min(vals) and max(vals) <= bounds[1]):
        return None
    if any(abs(v * f - p * f) > 1.6 * step for v, p in zip(vals, pinned)):
        return None
    if not (min_length < (y1 - x1) * f and min_length < (y2 - x2) * f):
        return None
    if max(abs((x1 - x2) * f), abs((y1 - y2) * f)) < sep_needed:
        return None
    # stay on the same affine pieces the system was built from; equal increments
    for S, at_pins in zip((A, B), pieces):
        at_vals, c = _pieces(S, vals, F)
        if at_vals != at_pins or c[1] - c[0] != c[3] - c[2]:
            return None
    x1, y1, x2, y2 = (Dyadic(v, F) for v in vals)
    return (x1, y1), (x2, y2)


def _pieces(S: IntervalSet, nums: list, exp: int) -> tuple[list, list]:
    """The (slope, intercept) of C = slope*x + c, the cumulative measure of S,
    on its piece at x = nums / 2**exp (exp > S.exponent), and C(x), ints at exp.
    S is constant on each cell of its grid: C is continued from the cell's start."""
    s = exp - S.exponent
    c, inside, _ = S.cumulative_nums([x >> s for x in nums], S.exponent)
    inside = inside.tolist()
    c = [(v << s) + (x - (x >> s << s) if i else 0) for v, i, x in zip(c.tolist(), inside, nums)]
    return [(1, v - x) if i else (0, v) for v, i, x in zip(c, inside, nums)], c


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
        matrix, _, exp = measure_vector(instances, tests)
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
