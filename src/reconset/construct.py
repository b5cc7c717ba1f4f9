"""Explicit test-set constructions.

Three families of constructions live here:

* semigroup/avoidance sets for translates of interval unions: T = A ∪ (A+G)
  where G is the additive semigroup of the component lengths and A avoids its
  own G-translates while keeping positive measure in every interval at the
  declared resolution scale;

* the translate construction for a profile f: a logistic target phi is
  quantized with per-shell budgets sized from upper bounds on K(eps, f') so
  that b -> ∫_T f(x-b) dx is strictly increasing;

* the magnification construction: same skeleton with the slow-decay target
  (phi' ~ c1/(|x| log^2 |x|)) and budgets from both proof regimes, valid for
  every scale a >= 1 up to the declared horizon;

plus slab families that lift the 1-D sets to R^d through screened directions.

Every construction returns a certificate recording the budgets; the recorded
inequalities can be re-verified offline via ``recheck()``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import TYPE_CHECKING, ClassVar, get_args, get_origin, get_type_hints

import numpy as np

from .dyadic import Dyadic, as_dyadic, common_numerators, snap
from .errors import (
    GrowthCertificateError,
    InfeasibleResolutionError,
    SearchBudgetError,
)
from .intervals import IntervalSet, Window, _check_magnitude

# the profile constructions and the slab family load their modules when they
# run, so `construct interval-union` compiles none of them
if TYPE_CHECKING:
    from .analysis import VariationEnvelope
    from .profiles import Profile
    from .shapes import SlabTestSet

# normalization constants only need to bracket the support; a coarse snap
# keeps exponents small enough that affine images stay inside int64
SNAP_EXPONENT = 8


# -- semigroups and avoidance sets ------------------------------------------------


MAX_SEMIGROUP_ELEMENTS = 200_000
# shadow lookups of the avoidance cell loop, n_cells * (|reach| + 1): the README
# set makes 2,048; 131,072 cells at 8 shifts (2**20) take seconds
MAX_CELL_SHIFTS = 1 << 20


def semigroup(lengths, bound) -> list[Dyadic]:
    """All positive integer combinations of the lengths up to `bound`.

    Exactly enumerated, sorted, deduplicated; locally finite by construction.
    """
    ls = [as_dyadic(x) for x in lengths]
    if not ls:
        raise ValueError("semigroup needs at least one length")
    if any(not Dyadic(0) < x for x in ls):
        raise ValueError("semigroup lengths must be positive")
    bound = as_dyadic(bound)
    if not Dyadic(0) < bound:
        raise ValueError("bound must be positive")
    (top, *steps), e = common_numerators([bound, *ls])
    # layer k holds the combinations of k lengths not met in an earlier layer
    seen: set[int] = set()
    layer = {s for s in steps if s <= top}
    while layer:
        seen |= layer
        if len(seen) > MAX_SEMIGROUP_ELEMENTS:
            raise InfeasibleResolutionError(
                f"semigroup exceeds {MAX_SEMIGROUP_ELEMENTS} elements below {bound}"
            )
        layer = {x + s for x in layer for s in steps if x + s <= top} - seen
    return [Dyadic(n, e) for n in sorted(seen)]


def avoidance_set(G, window: Window, rho) -> IntervalSet:
    """A ⊂ window with A ∩ (A+g) ∩ window = ∅ for all g, and positive
    measure in every subinterval of length >= rho.

    Cells of rho/2 are filled left to right, each with one [p, p + w) at the
    start of the first widest gap left by the shadows: earlier placements
    shifted by the g in G shorter than the window (a -g shadow would come from
    a cell still empty).  w = rho/2 over the least power of two >= 16 (|reach|
    + 1) always fits: two placements at most per shift meet a cell, so
    2 |reach| shadows of width <= w cover under an eighth of it, and the widest
    of its <= 2 |reach| + 1 gaps exceeds 2w.  Both postconditions are
    re-checked exactly before returning.
    """
    rho = as_dyadic(rho)
    G = [as_dyadic(g) for g in G]
    if not G:
        raise ValueError("avoidance set needs a non-empty G")
    g_min = min(G)
    if not Dyadic(0) < rho or not rho < g_min:
        raise InfeasibleResolutionError(
            f"resolution rho = {rho} must satisfy 0 < rho < min(G) = {g_min}"
        )
    span = window.span
    reach = [g for g in G if g < span]
    half = rho.half()
    pad = (16 * (len(reach) + 1) - 1).bit_length()
    (lo, hi, h, w, *shifts), e = common_numerators(
        [window.lo, window.hi, half, Dyadic(half.num, half.exp + pad), *reach]
    )
    n_cells = (hi - lo) // h
    if n_cells < 1:
        raise InfeasibleResolutionError("window shorter than rho/2")
    if n_cells * (len(reach) + 1) > MAX_CELL_SHIFTS:
        raise InfeasibleResolutionError(
            f"{n_cells} cells of rho/2 times {len(reach) + 1} shifts exceed "
            f"{MAX_CELL_SHIFTS} lookups; take a coarser rho or a shorter window"
        )
    _check_magnitude(max(abs(lo), abs(hi)))

    placed: list[int] = []  # lows in increasing order, one per cell
    for i in range(n_cells):
        cell_lo = lo + i * h
        cell_hi = cell_lo + h
        shadows = []
        for g in shifts:
            # [p + g, p + g + w) meets the cell iff cell_lo - g - w < p < cell_hi - g
            j0, j1 = bisect_right(placed, cell_lo - g - w), bisect_left(placed, cell_hi - g)
            for p in placed[j0:j1]:
                shadows.append((max(p + g, cell_lo), min(p + g + w, cell_hi)))
        widest, start, cursor = -1, cell_lo, cell_lo
        for a, b in sorted(shadows) + [(cell_hi, cell_hi)]:
            if a - cursor > widest:
                widest, start = a - cursor, cursor
            cursor = max(cursor, b)
        if widest < 2 * w:
            raise InfeasibleResolutionError(
                f"cell {i} has no gap of 2w; shadows filled it (|G|={len(reach)})"
            )
        placed.append(start)

    lows = np.array(placed, dtype=np.int64)
    A = IntervalSet.from_arrays(lows, lows + w, e)
    _check_avoidance(A, reach, window, lo + h * np.arange(n_cells + 1, dtype=np.int64), e)
    return A


def _check_avoidance(A: IntervalSet, reach, window: Window, edges: np.ndarray, e: int):
    """A ∩ (A+g) ∩ window = ∅ for g in reach, and A has mass between
    consecutive cell edges (numerators at exponent e)."""
    for g in reach:
        clash = A.intersect(A.translate(g)).restrict(window)
        if clash:
            raise AssertionError(f"avoidance violated at shift {g}: {clash}")
    c, _, _ = A.cumulative_nums(edges, e)
    empty = np.flatnonzero(np.diff(c) <= 0)
    if empty.size:
        raise AssertionError(f"cell {empty[0]} has no mass")


def union_test_set(lengths, window: Window, rho) -> IntervalSet:
    """T = A ∪ (A + G) restricted to the window, G the length semigroup.

    Guarantee: x -> lambda((E+x) ∩ T) strictly increases over every
    translation step >= rho, at any offset x, while E+x stays in the window
    (E any union of intervals with the given lengths); verified by the
    harness, not just asserted.  Finer steps can meet flats: for lengths [1]
    on [0, 8) at rho 1/16, the grid 0 to 6 by 1/64 has 192 zero increments.
    """
    G = semigroup(lengths, window.span)
    A = avoidance_set(G, window, rho)
    # every g is at most the window's span, so A + g stays within int64
    e = max([A.exponent, *(g.exp for g in G)])
    ends = A.numerators(e)
    shifted = np.concatenate([ends + (g.num << e - g.exp) for g in (Dyadic(0), *G)])
    return IntervalSet.from_arrays(shifted[:, 0], shifted[:, 1], e).restrict(window)


# -- shared machinery for the profile constructions ----------------------------------


@dataclass(frozen=True)
class Normalization:
    """Affine data mapping the input profile to supp ⊆ [-1,1], mass 1."""

    center: Dyadic
    halfwidth: Dyadic
    mass: float

    def internal_profile(self, f: Profile) -> Profile:
        c, w = float(self.center), float(self.halfwidth)
        return f.shift(-c).scale_x(1.0 / w).scale_y(w / self.mass)

    @staticmethod
    def of(f: Profile) -> "Normalization":
        mass = f.integral()
        if mass <= 0:
            raise ValueError("profile must have positive mass")
        lo, hi = f.support
        c, _ = snap((lo + hi) / 2.0, SNAP_EXPONENT)
        w_needed = max(hi - float(c), float(c) - lo)
        w, err = snap(w_needed, SNAP_EXPONENT)
        if float(w) < w_needed:
            w = w + Dyadic(1, SNAP_EXPONENT)
        return Normalization(c, w, mass)

    def to_json(self):
        return {
            "center": [self.center.num, self.center.exp],
            "halfwidth": [self.halfwidth.num, self.halfwidth.exp],
            "mass": self.mass,
        }

    @staticmethod
    def from_json(obj):
        return Normalization(
            Dyadic(*obj["center"]), Dyadic(*obj["halfwidth"]), obj["mass"]
        )


def _internal_window(window: Window, norm: Normalization) -> Window:
    """Integer hull of the window pulled into normalized coordinates."""
    (lo, hi, c, w), _ = common_numerators(
        [window.lo, window.hi, norm.center, norm.halfwidth]
    )
    return Window.of((lo - c) // w, -((c - hi) // w))


# every shell budget h(k) stays at or below this cap
H_CAP = 0.499


@dataclass
class ShellRow:
    k: int
    phi_min: float
    eps: float
    k_bound: float
    h: float
    delta: float | None = None
    n: int | None = None

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, o):
        return cls(**o)


@dataclass
class _ShellFrame:
    """The recipe both profile constructions share.  ``of`` normalizes the
    profile, builds the K(eps, f') oracle of its derivative and finds the
    window's shells; the construction supplies one row per shell
    k = 0..max_shell+1 with its unclamped h(k), and ``build`` does the rest."""

    norm: Normalization
    env: VariationEnvelope
    window: Window  # as requested
    eff: Window  # integer hull in normalized coordinates
    max_shell: int

    @staticmethod
    def of(f: Profile, window: Window) -> "_ShellFrame":
        from .analysis import VariationEnvelope
        from .quantize import shell_index

        norm = Normalization.of(f)
        env = VariationEnvelope(norm.internal_profile(f).derivative_step())
        eff = _internal_window(window, norm)
        max_shell = max(shell_index(c) for c in range(eff.lo.num, eff.hi.num))
        return _ShellFrame(norm, env, window, eff, max_shell)

    def build(self, phi, rows: list, cert_cls, **extra):
        """Clamp h(k) = min(h(k-1), h(k)), set delta(k) = ratio * h(k+1),
        quantize phi with those per-shell budgets, record each shell's
        resolution n(k), and map T back to the input frame.  Returns T and
        its certificate of class `cert_cls`, with `extra` as its own fields."""
        from .quantize import ShellBudget, shell_index, tiled_quantizer

        h_prev = H_CAP
        for r in rows:
            r.h = h_prev = min(h_prev, r.h)
        for r, nxt in zip(rows, rows[1:]):
            r.delta = cert_cls.DELTA_RATIO * nxt.h
        cells = range(self.eff.lo.num, self.eff.hi.num)
        T_int, resolutions = tiled_quantizer(
            phi, ShellBudget(tuple(r.delta for r in rows[:-1])), self.eff
        )
        for r in rows[:-1]:
            ns = [resolutions[c] for c in cells if shell_index(c) == r.k]
            r.n = max(ns) if ns else None
        c, w = self.norm.center, self.norm.halfwidth
        T = T_int.affine(w, c)
        eff_window = Window(c + Dyadic(self.eff.lo.num) * w, c + Dyadic(self.eff.hi.num) * w)
        cert = cert_cls(phi.describe(), self.norm, self.window, eff_window, rows, len(T), **extra)
        return T, cert


@dataclass
class ShellCertificate:
    """What both profile constructions record, and the shell checks they share.

    Subclasses add their own fields and checks; ``DELTA_RATIO`` is the
    construction's delta(k) / h(k+1).
    """

    KIND: ClassVar[str]
    DELTA_RATIO: ClassVar[float]

    phi: dict
    normalization: Normalization
    requested_window: Window
    effective_window: Window
    shells: list[ShellRow]  # one per shell k
    interval_count: int

    def shell_problems(self) -> list[str]:
        """h non-increasing, delta(k) <= ratio * h(k+1) and n(k) > 4/delta(k)."""
        problems = []
        rows = {r.k: r for r in self.shells}
        for r in self.shells:
            if r.delta is not None:
                nxt = rows.get(r.k + 1)
                if nxt is not None and r.delta > self.DELTA_RATIO * nxt.h * (1 + 1e-12):
                    problems.append(f"shell {r.k}: delta > {self.DELTA_RATIO:g} h(k+1)")
                if r.n is not None and not (r.n > 4.0 / r.delta):
                    problems.append(f"shell {r.k}: n not above 4/delta")
        hs = [r.h for r in sorted(self.shells, key=lambda r: r.k)]
        if any(b > a * (1 + 1e-12) for a, b in zip(hs, hs[1:])):
            problems.append("h not non-increasing across shells")
        return problems

    def to_json(self):
        out = {"kind": self.KIND}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "shells":
                v = [r.to_json() for r in v]
            out[f.name] = v.to_json() if hasattr(v, "to_json") else v
        return out

    @classmethod
    def from_json(cls, o):
        """The certificate `to_json` wrote, each field read back by its type."""
        types = get_type_hints(cls)
        return cls(**{f.name: _field_from_json(types[f.name], o[f.name]) for f in fields(cls)})


def _field_from_json(t, v):
    if get_origin(t) is list:
        return [_field_from_json(get_args(t)[0], x) for x in v]
    return t.from_json(v) if hasattr(t, "from_json") else v


@dataclass
class TranslateCertificate(ShellCertificate):
    """Budgets of a translate construction, re-verifiable offline."""

    KIND = "translate"
    DELTA_RATIO = 0.5

    guarantee_lower_bound: float

    def recheck(self) -> list[str]:
        from .targets import target_from_json

        problems = []
        target = target_from_json(self.phi)
        for r in self.shells:
            if abs(r.eps - r.phi_min / 4.0) > 1e-12 * max(r.phi_min, 1.0):
                problems.append(f"shell {r.k}: eps != phi_min/4")
            if r.h * 4.0 * r.k_bound > r.phi_min * (1 + 1e-12):
                problems.append(f"shell {r.k}: h * 4K exceeds min phi'")
            got = target.dphi_min(-(r.k + 2.0), r.k + 2.0)
            if got < r.phi_min * (1 - 1e-9):
                problems.append(f"shell {r.k}: recorded phi_min too large")
        return problems + self.shell_problems()


def translate_test_set(
    f: Profile, window: Window, rate: float = 0.5
) -> tuple[IntervalSet, TranslateCertificate]:
    """Test set T making b -> ∫_T f(x - b) dx strictly increasing.

    The profile is normalized to support ⊆ [-1, 1] and mass 1; a logistic
    target is quantized with per-shell budgets
    eps(k) = min phi'/4,  h(k) = min phi' / (4 K(eps(k), f')),
    delta(k) = h(k+1)/2, each K value an exact-witness upper bound.
    The guarantee target (f * chi_T)' >= min phi'/4 on each shell is recorded
    and meant to be verified numerically by the harness.
    """
    from .targets import Logistic

    frame = _ShellFrame.of(f, window)
    phi = Logistic(rate=rate)
    rows = []
    for k in range(frame.max_shell + 2):
        phi_min = phi.dphi_min(-(k + 2.0), k + 2.0)
        eps = phi_min / 4.0
        kb = frame.env.bound(eps).variation_bound
        rows.append(ShellRow(k, phi_min, eps, kb, phi_min / (4.0 * max(kb, 1e-12))))
    return frame.build(
        phi, rows, TranslateCertificate,
        guarantee_lower_bound=min(r.phi_min for r in rows) / 4.0,
    )


# -- magnification construction ----------------------------------------------------


# the eps points at which the growth of K(eps, f') is fitted
GROWTH_EPS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


# the largest growth-fit slope accepted; the certificate records it
GROWTH_SLOPE_MAX = 10.0


@dataclass
class GrowthFit:
    eps_grid: tuple
    k_bounds: tuple
    slope: float
    intercept: float
    slope_max: float

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, o):
        return cls(**o)


def _growth_line(eps_grid, k_bounds) -> tuple[float, float]:
    """Least squares of y = log K on x = eps^(-1/3), x and y by libm: the
    normal equations solved exactly in those floats, each result rounded once."""
    x = [Fraction(math.pow(e, -1.0 / 3.0)) for e in eps_grid]
    y = [Fraction(math.log(max(k, 1e-300))) for k in k_bounds]
    n, sx, sy = len(x), sum(x), sum(y)
    slope = (n * sum(u * v for u, v in zip(x, y)) - sx * sy) / (n * sum(u * u for u in x) - sx * sx)
    return float(slope), float((sy - slope * sx) / n)


def growth_certificate(env: VariationEnvelope, eps_grid, slope_max: float) -> GrowthFit:
    """Fit log K(eps) against eps^(-1/3); reject steep growth.

    Subexponential K with exponent 1/3 shows as a bounded slope; the fitted
    slope is stored so the check can be replayed.
    """
    eps = tuple(sorted(map(float, eps_grid), reverse=True))
    ks = tuple(float(env.bound(e).variation_bound) for e in eps)
    fit = GrowthFit(eps, ks, *_growth_line(eps, ks), slope_max)
    if fit.slope > slope_max:
        raise GrowthCertificateError(
            f"K(eps, f') growth slope {fit.slope:.3g} exceeds {slope_max} "
            "on the declared eps grid",
            slope=fit.slope,
            slope_max=slope_max,
        )
    return fit


@dataclass
class MagnifyCertificate(ShellCertificate):
    """Budgets of a magnification construction, re-verifiable offline.

    Shell 0 records phi_min = c2 and eps = c2/12; shells k >= 1 record the
    regime-2 numerator and eps.
    """

    KIND = "magnify"
    DELTA_RATIO = 1.0

    a_max: float
    c2: float
    c3: float
    C3: float
    h0: float
    growth: GrowthFit

    def recheck(self) -> list[str]:
        problems = []
        g = self.growth
        try:
            replay = _growth_line(g.eps_grid, g.k_bounds)
        except (ArithmeticError, ValueError):  # a degenerate or non-finite grid
            replay = None
        if replay != (g.slope, g.intercept):
            problems.append("growth fit does not replay")
        if g.slope > g.slope_max:
            problems.append("growth slope exceeds bound")
        if not (0 < self.h0 < 1):
            problems.append("h(0) outside (0,1)")
        if abs(self.h0 - min(self.c2 / (24.0 * self.C3), H_CAP)) > 1e-12:
            problems.append("h(0) != c2/(24 C3)")
        for r in self.shells:
            if r.k == 0:
                continue
            x = 2.0 * (r.k + 1.0)
            rhs = self.c3 / (16.0 * x * math.log(2.0 * x) ** 2)
            if r.h * r.k_bound > rhs * (1 + 1e-9):
                problems.append(f"shell {r.k}: h*K exceeds regime-2 budget")
        return problems + self.shell_problems()


def magnify_test_set(
    f: Profile, window: Window, a_max: float = 8.0
) -> tuple[IntervalSet, MagnifyCertificate]:
    """Test set T making b -> ∫_T f((x - b)/a) dx strictly increasing for
    every magnification a in [1, a_max], a finite horizon a_max >= 1.

    Uses the slow-decay target; the regime constants are computed on the
    declared horizon:
    c2 = min_a 3a ln^2(3a) phi'(3a),  c3 = min_x 2x ln^2(2x) phi'(3x/2),
    C3 = max_a K(c2/(12 ln^2 3a), f') ln^2(3a)/a,  h(0) = c2/(24 C3),
    and shell budgets h(k) from the far regime; delta(k) = h(k+1).
    Raises GrowthCertificateError when K(eps, f') is not certifiably
    subexponential on the eps grid GROWTH_EPS (a fitted slope above
    GROWTH_SLOPE_MAX), and ValueError for an a_max outside [1, inf).
    """
    from .targets import LogSquaredDecay

    if not (1.0 <= a_max < math.inf):
        raise ValueError(f"a_max must be finite and at least 1, got {a_max}")
    frame = _ShellFrame.of(f, window)
    env = frame.env
    fit = growth_certificate(env, GROWTH_EPS, GROWTH_SLOPE_MAX)
    phi = LogSquaredDecay()

    a_grid = np.geomspace(1.0, a_max, 65)
    # libm's log, point by point: numpy's SIMD log differs in the last bit
    # on some inputs, and c2 and c3 reach the artifact
    ln3a = np.array([math.log(3.0 * a) for a in a_grid]) ** 2
    c2 = float(np.min(3.0 * a_grid * ln3a * phi.dphi(3.0 * a_grid)))
    x_hi = 2.0 * (frame.max_shell + 2.0)
    x_grid = np.geomspace(2.0, max(x_hi, 4.0), 129)
    ln2x = np.array([math.log(2.0 * x) for x in x_grid]) ** 2
    c3 = float(np.min(2.0 * x_grid * ln2x * phi.dphi(1.5 * x_grid)))
    C3 = 0.0
    for a, l2 in zip(a_grid, ln3a):
        kb = env.bound(c2 / (12.0 * l2)).variation_bound
        C3 = max(C3, kb * l2 / a)
    h0 = min(c2 / (24.0 * C3), H_CAP)

    rows = [ShellRow(0, c2, c2 / 12.0, env.bound(c2 / 12.0).variation_bound, h0)]
    for k in range(1, frame.max_shell + 2):
        x = 2.0 * (k + 1.0)
        l2 = math.log(2.0 * x) ** 2
        eps2 = c3 / (8.0 * x * l2)
        kb = env.bound(eps2).variation_bound
        rows.append(ShellRow(k, c3 / (2.0 * x * l2), eps2, kb, c3 / (16.0 * x * l2) / max(kb, 1e-12)))
    return frame.build(
        phi, rows, MagnifyCertificate, a_max=a_max, c2=c2, c3=c3, C3=C3, h0=h0, growth=fit
    )


# -- slab families over R^d ---------------------------------------------------------


SCREEN_CANDIDATES = 64  # seeded directions tried after the axes
SCREEN_CUTOFFS = (16.0, 32.0, 64.0, 128.0, 256.0)  # spectral diagnostic cutoffs
SCREEN_PLATEAU = 1.05  # growth across the last two cutoffs that still counts as a plateau
SCREEN_MIN_SINGULAR = 0.2  # least singular value of the accepted directions
DIAMETER_SQUEEZE = 0.125


@dataclass
class FamilyOptions:
    """The translation range, the magnification horizon [1, a_max], the
    profile sampling resolution and the screening seed of a slab family."""

    translate_radius: float = 1.0  # translations stay in [-r, r]^d
    a_max: float = 8.0
    resolution: int = 64
    seed: int = 0


def _direction_candidates(d: int, count: int, seed: int):
    """The axes, then `count` candidates, candidate i from the Philox stream
    keyed by (seed, i): in 2-D the dyadic angle of a word's top 12 bits; in
    d >= 3 the first point of the lattice [-4096, 4096)^d (13 bits a word) in
    the shell 2048 <= |v| < 4096, normalized by an exact sum and libm's sqrt."""
    from .gridsets import check_seed, philox_uint32
    from .shapes import Direction

    check_seed(seed)
    for i in range(d):
        yield Direction.axis(i, d)
    for i in range(count):
        if d == 2:
            ang = 2.0 * math.pi * int(philox_uint32(seed, i, 0)[0] >> 20) / 4096.0
            yield Direction((math.cos(ang), math.sin(ang)))
            continue
        v, pos = [0] * d, 0
        while not 2048**2 <= sum(x * x for x in v) < 4096**2:
            v = [int(w >> 19) - 4096 for w in philox_uint32(seed, i, range(pos, pos + d))]
            pos += d
        n = math.sqrt(sum(x * x for x in v))
        yield Direction(tuple(x / n for x in v))


def _face_normals(shape):
    from .shapes import Box, Direction, Polygon, Simplex

    if isinstance(shape, Box):
        return [Direction.axis(i, shape.d).as_array() for i in range(shape.d)]
    if isinstance(shape, Polygon):
        return list(shape.edge_normals())
    if isinstance(shape, Simplex):
        v = np.asarray(shape.vertices)
        d = shape.d
        normals = []
        for drop in range(d + 1):
            face = np.delete(v, drop, axis=0)
            base = face[0]
            span = face[1:] - base
            # normal = kernel of the span
            _, _, vt = np.linalg.svd(span)
            normals.append(vt[-1])
        return normals
    return []


def _is_convex(shape) -> bool:
    from .shapes import Ball, Box, Polygon, Simplex

    if isinstance(shape, (Ball, Box, Simplex)):
        return True
    if isinstance(shape, Polygon):
        return shape.is_convex()
    return False


def _screened_test_set(profile: Profile, mode: str, d: int, options: FamilyOptions):
    """(T, certificate) of one direction's section profile, or None when the
    spectral screen, the resolution cap (translate) or the growth certificate
    (magnify) rejects the profile."""
    from .analysis import ac_diagnostic

    # d-1 is the integrability exponent of the finiteness criterion
    tails = ac_diagnostic(profile, d - 1.0, SCREEN_CUTOFFS)
    if tails[-1] / max(tails[-2], 1e-300) >= SCREEN_PLATEAU:
        return None
    s0, s1 = profile.support
    rad = max(abs(s0), abs(s1))
    bmax = options.translate_radius * math.sqrt(d) + 1.0
    if mode == "translate":
        half = int(math.ceil(bmax + rad + 1))
        try:
            return translate_test_set(profile, Window.of(-half, half))
        except InfeasibleResolutionError:
            return None
    half = int(math.ceil(options.a_max * rad + bmax + 1))
    try:
        return magnify_test_set(profile, Window.of(-half, half), options.a_max)
    except GrowthCertificateError:
        return None


def family_test_sets(
    shape, mode: str, options: FamilyOptions | None = None
) -> list[SlabTestSet]:
    """d slab test sets for translates (d+1 with the full space for
    magnified copies) of a fixed body.

    Direction candidates (axes first, then seeded dyadic-angle vectors) are
    screened: linear independence, no face-orthogonality for polytopes, a
    plateauing spectral diagnostic, and for magnification additionally the
    variation-growth certificate; convex bodies route magnification
    candidates through the squeezed diameter search.  The first passing
    candidates win, so the family is deterministic per seed.  Directions with
    the same section profile share one screen and one build.
    """
    from .shapes import Ball, SlabTestSet, diameter_direction, radon_profile

    if mode not in ("translate", "magnify"):
        raise ValueError(f"mode must be translate or magnify, got {mode!r}")
    if options is None:
        options = FamilyOptions()
    d = shape.d
    if d < 2:
        raise ValueError("slab families need d >= 2 (use 1-D sets directly)")
    normals = _face_normals(shape)
    accepted: list[SlabTestSet] = []
    accepted_dirs: list[np.ndarray] = []
    built: dict = {}  # profile bytes -> (T, cert), or None if rejected
    for tried, cand in enumerate(_direction_candidates(d, SCREEN_CANDIDATES, options.seed), 1):
        theta = cand
        if mode == "magnify" and _is_convex(shape) and not isinstance(shape, Ball):
            try:
                theta = diameter_direction(shape, DIAMETER_SQUEEZE, cand)
            except ValueError:
                pass
        tv = theta.as_array()
        if any(abs(float(tv @ n)) > 1.0 - 1e-9 for n in normals):
            continue
        if accepted_dirs:
            m = np.stack(accepted_dirs + [tv])
            sv = np.linalg.svd(m, compute_uv=False)
            if sv[-1] < SCREEN_MIN_SINGULAR:
                continue
        try:
            profile = radon_profile(shape, theta, options.resolution)
        except NotImplementedError:
            continue
        # the screen and the construction are pure in the profile, and a
        # centered ball has the same one in every direction
        key = tuple(a.tobytes() for a in (profile.xs, profile.vl, profile.vr)) + (
            profile.abs_error.hex(), profile.l1_error.hex()
        )
        if key not in built:
            built[key] = _screened_test_set(profile, mode, d, options)
        if built[key] is None:
            continue
        T, cert = built[key]
        accepted.append(
            SlabTestSet(theta, T, cert.effective_window, certificate=cert)
        )
        accepted_dirs.append(tv)
        if len(accepted) == d:
            break
    if len(accepted) < d:
        raise SearchBudgetError(
            f"only {len(accepted)} of {d} directions passed screening after "
            f"{tried} candidates"
        )
    if mode == "magnify":
        accepted.append(SlabTestSet.full())
    return accepted
