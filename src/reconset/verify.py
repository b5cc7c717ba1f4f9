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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dyadic import Dyadic, as_dyadic, common_numerators, snap
from .errors import SearchBudgetError, WindowExceededError
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
        size = _grid_size(self.x_lo, self.x_hi, self.x_step) * _grid_size(
            self.l_lo, self.l_hi, self.l_step
        )
        _check_grid_size(size, "the (x, L) grid")

    def xs(self) -> list:
        return _dyadic_range(self.x_lo, self.x_hi, self.x_step)

    def ls(self) -> list:
        return _dyadic_range(self.l_lo, self.l_hi, self.l_step)

    def instances(self) -> list:
        ls = self.ls()
        return [(x, L) for x in self.xs() for L in ls]

    def span(self) -> tuple[Dyadic, Dyadic] | None:
        """The least and the greatest of the points x and x + L of the
        instances [x, x + L); None for an empty grid."""
        xs, ls = self.xs(), self.ls()
        if not (xs and ls):
            return None
        ends = (xs[0], xs[-1], xs[0] + ls[0], xs[-1] + ls[-1])
        return min(ends), max(ends)

    def describe(self) -> dict:
        return {
            "kind": "interval",
            "x": [str(self.x_lo), str(self.x_hi), str(self.x_step)],
            "L": [str(self.l_lo), str(self.l_hi), str(self.l_step)],
        }


# far above every grid the tests and the benchmark use (4,225 points at most),
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


def _dyadic_range(lo: Dyadic, hi: Dyadic, step: Dyadic) -> list:
    """lo, lo + step, ... up to hi inclusive."""
    size = _grid_size(lo, hi, step)
    _check_grid_size(size, f"the grid {lo} to {hi} by {step}")
    return [lo + step * k for k in range(size)]


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


def measure_vector(instances, tests, profiles=None) -> tuple[np.ndarray, np.ndarray]:
    """Entry (i, j) = measure of instance i against test j.

    Returns the (instances x tests) values and error bounds; exact paths
    report zero error.  Instances are (x, L) dyadic pairs denoting [x, x+L),
    or (shape, Pose) pairs sharing one shape for slab tests, whose profiles
    (one per test) may be passed in.  Interval and grid tests take
    C(x+L) - C(x) from the exact cumulative measure C of the test; slab tests
    take one sliding integral per magnification.
    """
    values = np.zeros((len(instances), len(tests)))
    errors = np.zeros_like(values)
    if not instances:
        return values, errors
    ends = None
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
        if ends is None:
            nums, e = common_numerators([d for x, L in instances for d in (x, x + L)])
            ends = np.asarray(nums)
        if isinstance(t, GridSet):
            need = (Dyadic(int(np.min(ends)), e), Dyadic(int(np.max(ends)), e))
            check_span(need, Window.of(t.levels.box_lo[0], t.levels.box_hi[0]), "the grid box")
            t = t.runs
        c, _, ce = t.cumulative_nums(ends, e)
        values[:, j] = (c[1::2] - c[0::2]) * 2.0**-ce
    return values, errors


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


def monotonicity_report(values) -> MonotonicityReport:
    """Min consecutive increment and the indices of non-increases."""
    vals = list(values)
    if len(vals) < 2:
        raise ValueError("monotonicity needs at least two values")
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    violations = [i + 1 for i, d in enumerate(diffs) if not d > 0]
    return MonotonicityReport(float(min(diffs)), violations)


@dataclass
class VerificationReport:
    instance_count: int
    test_count: int
    min_separation: float
    witness_pair: tuple
    collisions: list
    indeterminate: bool
    quadrature_error: float
    grid: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.collisions and not self.indeterminate

    def to_json(self):
        return {
            "instances": self.instance_count,
            "tests": self.test_count,
            "min_separation": self.min_separation,
            "witness_pair": list(self.witness_pair),
            "collisions": self.collisions,
            "indeterminate": self.indeterminate,
            "quadrature_error": self.quadrature_error,
            "grid": self.grid,
            "seeds": self.seeds,
            "passed": self.passed,
        }


def pairwise_min_linf(matrix: np.ndarray, threshold: float = 0.0):
    """Min pairwise l-infinity distance with a sort-assisted sweep.

    Returns (min_distance, witness (i, j), collisions at <= threshold).
    Sorting on the first component prunes: once the first-coordinate gap
    alone exceeds both the current minimum and the collision threshold,
    later rows cannot matter; the surviving window is handled vectorized.
    """
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


def injectivity_report(grid, tests, resolution: int = 256) -> VerificationReport:
    """Pairwise separation of the measure-vector map over a finite family.

    Exact tests demand strict separation; quadrature-backed tests flag the
    report indeterminate when the minimum separation does not clear 10x the
    reported error.
    """
    instances = grid.instances()
    if len(instances) < 2:
        raise ValueError("injectivity needs at least two instances")
    profiles = None
    if isinstance(instances[0], Pose):
        profiles = [
            None if t.full_space else radon_profile(grid.shape, t.theta, resolution)
            for t in tests
        ]
        instances = [(grid.shape, pose) for pose in instances]
    matrix, errors = measure_vector(instances, tests, profiles)
    qerr = float(np.max(errors)) if errors.size else 0.0
    best, witness, collisions = pairwise_min_linf(matrix)
    indeterminate = qerr > 0 and best <= 10.0 * qerr and not collisions
    return VerificationReport(
        instance_count=len(instances),
        test_count=len(tests),
        min_separation=best,
        witness_pair=witness,
        collisions=collisions,
        indeterminate=indeterminate,
        quadrature_error=qerr,
        grid=grid.describe() if hasattr(grid, "describe") else {},
    )


# -- two-test-set counterexample searcher ---------------------------------------------


@dataclass
class CounterexamplePair:
    first: tuple  # (Dyadic, Dyadic)
    second: tuple
    a_discrepancy: Fraction
    b_discrepancy: Fraction
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
            da = (_increment(A, z1) - _increment(A, z2)).as_fraction()
            db = (_increment(B, z1) - _increment(B, z2)).as_fraction()
            if abs(da) <= tol and abs(db) <= tol:
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


def _increment(S: IntervalSet, z) -> Dyadic:
    """C(y) - C(x) for z = (x, y), with C the cumulative measure of S."""
    return S.cumulative(z[1]) - S.cumulative(z[0])


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
        cands = []
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                cands.extend(buckets.get((ka + da, kb + db), []))
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
                res = _exact_resolve(
                    A,
                    B,
                    (pts_x[i], pts_y[i]),
                    (pts_x[j], pts_y[j]),
                    step,
                    min_dom,
                    sep_needed,
                    bounds,
                )
                if res is not None:
                    return res, False
    return None, False


def _exact_resolve(A, B, z1, z2, step, min_length, sep_needed, bounds):
    """Solve f(z1') = f(z2') exactly near the float candidates.

    Each coordinate is confined to its current affine piece of the relevant
    cumulative, the 2x4 dyadic system is solved with two coordinates pinned
    to snapped values, and all constraints are re-checked exactly.
    """
    coords_f = [z1[0], z1[1], z2[0], z2[1]]
    pinned = []
    for c in coords_f:
        s, _ = snap(float(c), 24)
        pinned.append(s)
    slopes_a = []
    slopes_b = []
    offs_a = []
    offs_b = []
    for c in pinned:
        sa, ca = A.piece(c)
        sb, cb = B.piece(c)
        slopes_a.append(sa)
        slopes_b.append(sb)
        offs_a.append(ca)
        offs_b.append(cb)
    # equations: (C_A(y1) - C_A(x1)) - (C_A(y2) - C_A(x2)) = 0, same for B
    # coefficients for (x1, y1, x2, y2)
    rows = [
        [-slopes_a[0], slopes_a[1], slopes_a[2], -slopes_a[3]],
        [-slopes_b[0], slopes_b[1], slopes_b[2], -slopes_b[3]],
    ]
    rhs = [
        (offs_a[0] - offs_a[1] - offs_a[2] + offs_a[3]).as_fraction(),
        (offs_b[0] - offs_b[1] - offs_b[2] + offs_b[3]).as_fraction(),
    ]
    from itertools import combinations

    for free in combinations(range(4), 2):
        solve_for = [k for k in range(4) if k not in free]
        m00 = Fraction(rows[0][solve_for[0]])
        m01 = Fraction(rows[0][solve_for[1]])
        m10 = Fraction(rows[1][solve_for[0]])
        m11 = Fraction(rows[1][solve_for[1]])
        det = m00 * m11 - m01 * m10
        vals: list[Fraction | None] = [None] * 4
        for k in free:
            vals[k] = pinned[k].as_fraction()
        r0 = rhs[0] - sum(Fraction(rows[0][k]) * vals[k] for k in free)
        r1 = rhs[1] - sum(Fraction(rows[1][k]) * vals[k] for k in free)
        if det != 0:
            vals[solve_for[0]] = (m11 * r0 - m01 * r1) / det
            vals[solve_for[1]] = (m00 * r1 - m10 * r0) / det
        else:
            # rank <= 1: try pinning one more variable
            if m00 != 0 or m01 != 0:
                if m00 != 0:
                    vals[solve_for[1]] = pinned[solve_for[1]].as_fraction()
                    vals[solve_for[0]] = (r0 - m01 * vals[solve_for[1]]) / m00
                else:
                    vals[solve_for[0]] = pinned[solve_for[0]].as_fraction()
                    vals[solve_for[1]] = (r0 - m00 * vals[solve_for[0]]) / m01
                if m10 * vals[solve_for[0]] + m11 * vals[solve_for[1]] != r1:
                    continue
            elif m10 != 0 or m11 != 0:
                if m10 != 0:
                    vals[solve_for[1]] = pinned[solve_for[1]].as_fraction()
                    vals[solve_for[0]] = (r1 - m11 * vals[solve_for[1]]) / m10
                else:
                    vals[solve_for[0]] = pinned[solve_for[0]].as_fraction()
                    vals[solve_for[1]] = (r1 - m10 * vals[solve_for[0]]) / m11
                if r0 != 0:
                    continue
            else:
                if r0 != 0 or r1 != 0:
                    continue
                vals[solve_for[0]] = pinned[solve_for[0]].as_fraction()
                vals[solve_for[1]] = pinned[solve_for[1]].as_fraction()
        if any(v is None for v in vals):
            continue
        cand = _validate_candidate(
            A, B, vals, pinned, step, min_length, sep_needed, bounds
        )
        if cand is not None:
            return cand
    return None


def _validate_candidate(A, B, vals, pinned, step, min_length, sep_needed, bounds):
    dys = []
    for v in vals:
        if v.denominator & (v.denominator - 1):
            return None  # not dyadic; a different pivot choice will be
        dys.append(Dyadic(v.numerator, v.denominator.bit_length() - 1))
    x1, y1, x2, y2 = dys
    if bounds is not None and not (bounds[0] <= min(dys) and max(dys) <= bounds[1]):
        return None
    # stay on the same affine pieces the system was built from
    for d, p in zip(dys, pinned):
        if abs(float(d) - float(p)) > 1.6 * step:
            return None
    for c, ref in ((x1, pinned[0]), (y1, pinned[1]), (x2, pinned[2]), (y2, pinned[3])):
        for S in (A, B):
            if S.piece(c) != S.piece(ref):
                return None
    if not (min_length < float(y1 - x1) and min_length < float(y2 - x2)):
        return None
    sep = max(abs(float(x1 - x2)), abs(float(y1 - y2)))
    if sep < sep_needed:
        return None
    if _increment(A, (x1, y1)) != _increment(A, (x2, y2)):
        return None
    if _increment(B, (x1, y1)) != _increment(B, (x2, y2)):
        return None
    return (x1, y1), (x2, y2)


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
        return {
            "trials": self.trials,
            "successes": self.successes,
            "rate": self.rate,
            "copies": self.copies,
            "separation": self.separation,
            "per_trial": self.per_trial,
            "master_seed": self.master_seed,
        }


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
        matrix, _ = measure_vector(instances, tests)
        best, witness, collisions = pairwise_min_linf(
            matrix, threshold=separation * (1 - 1e-12)
        )
        ok = not collisions
        successes += ok
        per_trial.append(
            {"seeds": trial_seeds, "min_separation": best, "success": bool(ok)}
        )
    rate = successes / trials if trials else 0.0
    return MonteCarloReport(
        trials, successes, rate, copies, separation, per_trial, seed
    )
