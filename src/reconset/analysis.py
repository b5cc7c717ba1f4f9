"""Analysis of 1-D profiles: variation, L1-vs-variation bounds, sliding
integrals against interval sets, spectral diagnostics and concavity checks.

The central quantity is the modulus K(eps, g): the least total variation of a
compactly supported approximant within L1 distance eps of g.  It is computed
as an upper bound only — constructions consume it in the safe direction — by
taking the better of a truncation approximant and a merge-chain approximant,
each returned with an exactly re-checked witness.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .blocks import unique
from .errors import WindowExceededError
from .intervals import IntervalSet, Window
from .profiles import Profile, StepProfile


# -- K(eps, f) upper bounds ---------------------------------------------------


@dataclass(frozen=True)
class KBound:
    """An upper bound for K(eps, g) with its witness approximant.

    The recorded facts are re-checked exactly (step arithmetic) at
    construction: l1_error < epsilon and Var(witness) == variation_bound.
    """

    epsilon: float
    variation_bound: float
    witness: StepProfile
    l1_error: float
    strategy: str

    def __post_init__(self):
        if not self.l1_error < self.epsilon:
            raise ValueError(
                f"witness misses its L1 budget: {self.l1_error} >= {self.epsilon}"
            )
        if self.variation_bound != self.witness.total_variation():
            raise ValueError("variation_bound does not match the witness")


class VariationEnvelope:
    """Reusable K(eps, g) upper-bound oracle for one step function g.

    Precomputes a fixed merge chain (adjacent pieces coalesced in increasing
    order of L1 damage, each block taking its weighted-median value).  A
    query scans the states whose cumulative L1 cost fits the budget, so the
    returned bound is non-increasing in eps by construction; truncation
    approximants are tried as well and the better witness wins.
    """

    def __init__(self, g: StepProfile):
        self.g = g
        self._chain = _merge_chain(g)

    def bound(self, eps: float) -> KBound:
        if not (eps > 0 and math.isfinite(eps)):
            raise ValueError(f"epsilon must be positive and finite, got {eps}")
        best = None
        for witness, strategy in self._candidates(eps):
            err = self.g.l1_distance(witness)
            if not err < eps:
                continue
            var = witness.total_variation()
            if best is None or var < best.variation_bound:
                best = KBound(eps, var, witness, err, strategy)
        assert best is not None  # g itself is always a feasible witness
        return best

    def _candidates(self, eps: float):
        yield self.g, "identity"
        if self.g.l1_norm() < eps:
            lo, hi = self.g.support
            yield StepProfile([lo, hi], [0.0]), "zero"
        t = _least_truncation_threshold(self.g, eps)
        if t is not None:
            yield self.g.clamp(t), "truncation"
        state = _best_chain_state(self._chain, eps)
        if state is not None:
            yield _chain_witness(self.g, self._chain, state), "merge"


def _least_truncation_threshold(g: StepProfile, eps: float) -> float | None:
    """Smallest clamp level t with ||g - clamp(g, t)||_1 < eps, plus margin."""
    w = g.widths()
    v = np.abs(g.vals)
    if float(math.fsum(w * v)) < eps:
        return 0.0
    levels = unique(v)

    def excess(t: float) -> float:
        return float(math.fsum(w * np.maximum(v - t, 0.0)))

    # excess(t) is piecewise linear and non-increasing, and so is its correctly
    # rounded fsum: bisect the sorted levels for the first one below eps, then
    # interpolate linearly with its predecessor (or with t = 0)
    i = bisect.bisect_left(levels, True, key=lambda t: excess(float(t)) < eps)
    t_star = float(levels[-1])
    if i < levels.size:
        t = levels[i]
        e = excess(float(t))
        prev_t = float(levels[i - 1]) if i else 0.0
        prev_e = excess(prev_t)
        if prev_e > e:
            t_star = prev_t + (prev_e - eps) * (t - prev_t) / (prev_e - e)
        else:
            t_star = float(t)
    for bump in (1e-12, 1e-9, 1e-6):
        t_try = t_star * (1 + bump) + bump
        if excess(t_try) < eps:
            return t_try
    return None


def _weighted_median_and_cost(items) -> tuple[float, float]:
    """items: value-sorted [(v, w)]; lower weighted median and its L1 cost."""
    half = math.fsum(w for _, w in items) / 2.0
    acc = 0.0
    med = items[-1][0]
    for v, w in items:
        acc += w
        if acc >= half:
            med = v
            break
    cost = math.fsum(w * abs(v - med) for v, w in items)
    return med, cost


def _merge_chain(g: StepProfile):
    """Fixed merge order with per-state (cumulative L1 cost, variation).

    Blocks of adjacent pieces are coalesced cheapest-first (each block at its
    weighted median); states[j] = (cost_j, var_j) after j merges, with
    states[0] describing g itself.  Returns (order, states) where order[j]
    is the removed boundary (last original piece of the absorbing block).

    var_j = |first median| + |last median| + Σ |jumps| between live blocks.
    The jump sum is kept exactly, as an integer count of 2**-1074 (the least
    positive float), and rounded once per state: that is math.fsum of the
    same jumps, which is correctly rounded.  A merge removes three jumps and
    adds two.
    """
    import heapq

    n = g.piece_count
    widths = g.widths()
    items = [[(float(g.vals[i]), float(widths[i]))] for i in range(n)]
    meds = [float(v) for v in g.vals]
    costs = [0.0] * n
    last_piece = list(range(n))
    prev = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    alive = [True] * n
    version = [0] * n
    last = n - 1  # the last live block; block 0 is never absorbed
    unit = 1 << 1074

    def merged_data(k):
        right = nxt[k]
        both = sorted(items[k] + items[right])
        med, cost = _weighted_median_and_cost(both)
        return both, med, cost

    def jump(a: float, b: float) -> int:
        """|b - a|, as the float subtraction rounds it, in units of 2**-1074."""
        num, den = abs(b - a).as_integer_ratio()
        return num << (1075 - den.bit_length())

    def variation_total():
        return abs(meds[0]) + abs(meds[last]) + jumps / unit

    heap = []
    for k in range(n - 1):
        _, med, cost = merged_data(k)
        delta = cost - costs[k] - costs[k + 1]
        heapq.heappush(heap, (delta, k, version[k], version[k + 1]))

    jumps = sum(jump(meds[i], meds[i + 1]) for i in range(n - 1))
    states = [(0.0, variation_total())]
    order = []
    cum = 0.0
    budget_cap = g.l1_norm() * 1.5 + 1e-9
    while heap and cum <= budget_cap:
        delta, k, vk, vr = heapq.heappop(heap)
        right = nxt[k] if k < n else -1
        if not alive[k] or right >= n or right < 0 or not alive[right]:
            continue
        if version[k] != vk or version[right] != vr:
            continue
        both, med, cost = merged_data(k)
        left, far = prev[k], nxt[right]
        jumps -= jump(meds[k], meds[right])
        if left >= 0:
            jumps += jump(meds[left], med) - jump(meds[left], meds[k])
        if far < n:
            jumps += jump(med, meds[far]) - jump(meds[right], meds[far])
        if right == last:
            last = k
        items[k] = both
        meds[k] = med
        costs[k] = cost
        alive[right] = False
        order.append(last_piece[k])
        last_piece[k] = last_piece[right]
        nxt[k] = far
        if far < n:
            prev[far] = k
        version[k] += 1
        cum += max(delta, 0.0)
        states.append((cum, variation_total()))
        if prev[k] >= 0:
            _, _, c2 = merged_data(prev[k])
            d2 = c2 - costs[prev[k]] - costs[k]
            heapq.heappush(heap, (d2, prev[k], version[prev[k]], version[k]))
        if nxt[k] < n:
            _, _, c3 = merged_data(k)
            d3 = c3 - costs[k] - costs[nxt[k]]
            heapq.heappush(heap, (d3, k, version[k], version[nxt[k]]))
    return order, states


def _best_chain_state(chain, eps: float) -> int | None:
    order, states = chain
    best_j, best_var = None, math.inf
    for j, (c, var) in enumerate(states):
        if c < eps and var < best_var:
            best_j, best_var = j, var
    return best_j if best_j not in (None, 0) else None


def _chain_witness(g: StepProfile, chain, j: int) -> StepProfile:
    order, _ = chain
    removed = set(order[:j])
    g_edges = g.edges.tolist()
    edges = [g_edges[0]]
    vals = []
    block = []
    for i, item in enumerate(zip(g.vals.tolist(), g.widths().tolist())):
        block.append(item)
        if i in removed:
            continue
        med, _ = _weighted_median_and_cost(sorted(block))
        vals.append(med)
        edges.append(g_edges[i + 1])
        block = []
    return StepProfile(edges, vals)


# -- sliding integrals --------------------------------------------------------


def sliding_integral(
    p: Profile,
    T: IntervalSet,
    a: float,
    b_grid,
    window: Window,
) -> np.ndarray:
    """F(b) = ∫_T p((x - b)/a) dx for each b, integrated by parts against
    the coverage C of T: F(b) = -∫ C(x) d/dx[p((x-b)/a)] dx needs C and its
    antiderivative only at the knots and jumps of p shifted to b, so the work
    per b does not depend on |T|, and F(b) does not depend on how the b are
    batched.

    Precondition: the support of x -> p((x - b)/a), which is
    [b + a*s0, b + a*s1], must lie inside the window for every b.
    """
    if not (a > 0 and math.isfinite(a)):
        raise ValueError(f"scale a must be positive and finite, got {a}")
    b = np.atleast_1d(np.asarray(b_grid, dtype=np.float64))
    if not np.all(np.isfinite(b)):
        raise ValueError("offsets b must be finite")
    s0, s1 = p.support
    lo_need = float(np.min(b)) + a * s0
    hi_need = float(np.max(b)) + a * s1
    wlo, whi = float(window.lo), float(window.hi)
    if lo_need < wlo - 1e-12 or hi_need > whi + 1e-12:
        raise WindowExceededError(
            f"shifted support [{lo_need:g}, {hi_need:g}] exceeds window "
            f"[{wlo:g}, {whi:g}]",
            required_lo=lo_need,
            required_hi=hi_need,
        )
    if len(T) == 0:
        return np.zeros(b.shape)
    xs = p.xs
    slopes = p.slopes()
    # both edges and the interior jumps of p: d/dx contributes J_k * delta at knot k
    J = p.value_jumps()
    keep = J != 0.0
    keep[[0, -1]] = True
    jx, jv = xs[keep], J[keep]

    knots = b[:, None] + a * xs[None, :]
    jump_pts = b[:, None] + a * jx[None, :]
    C, Q = T.float_coverage(np.concatenate([knots.ravel(), jump_pts.ravel()]))
    Q = Q[: knots.size].reshape(knots.shape)
    piece_term = -(slopes[None, :] / a) * (Q[:, 1:] - Q[:, :-1])
    jump_term = -jv[None, :] * C[knots.size :].reshape(jump_pts.shape)
    return piece_term.sum(axis=1) + jump_term.sum(axis=1)


# -- spectral absolute-continuity diagnostic -----------------------------------


AC_MAX_BIN = 1 << 19  # the last bin k a cutoff may reach
AC_BLOCK = 256  # frequencies per block of the closed form


def ac_diagnostic(p: Profile, power: float, cutoffs) -> np.ndarray:
    """Partial integrals I(R) = ∫_{|r|<=R} |p_hat(r)|^2 |r|^power dr.

    A Riemann sum over the bins r = k/span, |k| <= R·span, with span 4x the
    support width.  p is piecewise linear, so p'' is a sum of point masses
    at its knots x: the value jumps J (as δ') and the slope jumps S (as δ).
    Hence p_hat(ω) = (Σ J e^{-iωx} + Σ S e^{-iωx}/(iω)) / (iω) at ω = 2πr,
    evaluated in closed form, AC_BLOCK frequencies at a time.
    Growth across doubling cutoffs signals a non-integrable tail; a plateau
    is consistent with the finiteness criterion.
    """
    if not math.isfinite(power) or power < 0:
        raise ValueError("power must be finite and non-negative")
    s0, s1 = p.support
    span = 4.0 * (s1 - s0)
    last = _last_bins(span, cutoffs)
    x = p.xs - (s0 + s1) / 2.0
    # the value jumps J and the slope jumps S at the knots, support edges included
    slope_jumps = np.diff(np.concatenate(([0.0], p.slopes(), [0.0])))
    jumps = np.column_stack([p.value_jumps(), slope_jumps])
    n = last[-1] + 1
    density = np.empty(n)
    density[0] = p.integral() ** 2 * 0.0**power  # 0**0 = 1: the bin r = 0 counts only at power 0
    for start in range(1, n, AC_BLOCK):
        k = np.arange(start, min(start + AC_BLOCK, n))
        iw = 2j * np.pi / span * k
        j_sum, s_sum = (np.exp(np.outer(-iw, x)) @ jumps).T
        # bins ±k have the same |p_hat|, as p is real
        density[k] = 2.0 * np.abs((j_sum + s_sum / iw) / iw) ** 2 * (k / span) ** power
    return np.cumsum(density)[last] * (1.0 / span)


def _last_bins(span: float, cutoffs) -> np.ndarray:
    """The last bin k with k/span <= R, for each cutoff R."""
    cutoffs = np.asarray(cutoffs, dtype=np.float64)
    if cutoffs.size == 0 or not np.all(np.diff(cutoffs) > 0):
        raise ValueError("cutoffs must be ascending and non-empty")
    if not np.all(np.isfinite(cutoffs)):
        raise ValueError("cutoffs must be finite")
    last = np.floor(cutoffs * span)
    if last[0] < 0:
        raise ValueError("cutoff below the frequency resolution")
    if last[-1] > AC_MAX_BIN:
        raise ValueError(f"cutoff {cutoffs[-1]:g} needs more than {AC_MAX_BIN} bins at span {span:g}")
    return last.astype(np.intp)


# -- Brunn-Minkowski concavity check ------------------------------------------


def concavity_check(
    p: Profile, d: int, tol: float = 1e-9, refine: int = 4
) -> tuple[bool, float]:
    """Midpoint concavity of p^(1/(d-1)) on its support.

    Tests every pair on the 4x-refined breakpoint grid; returns
    (is_concave, worst_margin) where the margin is the most negative
    midpoint defect (>= -tol passes).
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    s0, s1 = p.support
    base = [s0]
    for i in range(p.piece_count):
        a, b = p.xs[i], p.xs[i + 1]
        for j in range(1, refine + 1):
            base.append(a + (b - a) * j / refine)
    grid = unique(base)
    exponent = 1.0 / (d - 1)
    q = np.maximum(p(grid), 0.0) ** exponent
    worst = 0.0
    n = grid.size
    chunk = max(1, 2_000_000 // max(n, 1))
    for start in range(0, n, chunk):
        gi = grid[start : start + chunk, None]
        qi = q[start : start + chunk, None]
        mids = (gi + grid[None, :]) / 2.0
        qm = np.maximum(p(mids.ravel()), 0.0).reshape(mids.shape) ** exponent
        margin = qm - (qi + q[None, :]) / 2.0
        worst = min(worst, float(np.min(margin)))
    return worst >= -tol, worst


# -- convolution differentiation identity ---------------------------------------


def convolution_identity_check(
    p: Profile,
    q: StepProfile,
    samples=None,
    fd_step: float = 1e-4,
) -> float:
    """Max deviation between the finite-difference derivative of p*q and
    (p' * q), both evaluated in closed form.

    Default samples avoid the kinks of p*q (where one-sided curvature makes
    central differences first-order); p*q is piecewise quadratic elsewhere,
    so central differences are exact up to roundoff.
    """
    if np.all(q.vals == 0.0):
        return 0.0
    P = p.antiderivative()
    Qanti = q.antiderivative()
    g = p.derivative_step()

    qc, qd = q.edges[:-1], q.edges[1:]
    qv = q.vals

    def conv(x):
        x = np.asarray(x, dtype=np.float64)
        acc = np.zeros(x.shape)
        for c, dd, v in zip(qc, qd, qv):
            if v != 0.0:
                acc += v * (P(x - c) - P(x - dd))
        return acc

    ge, gv = g.edges, g.vals

    def deriv_conv(x):
        x = np.asarray(x, dtype=np.float64)
        acc = np.zeros(x.shape)
        for i, v in enumerate(gv):
            if v != 0.0:
                acc += v * (Qanti(x - ge[i]) - Qanti(x - ge[i + 1]))
        return acc

    if samples is None:
        lo = p.support[0] + q.support[0]
        hi = p.support[1] + q.support[1]
        pad = 0.1 * (hi - lo)
        samples = np.linspace(lo - pad, hi + pad, 801)
    samples = np.asarray(samples, dtype=np.float64)
    kinks = (np.add.outer(p.xs, q.edges)).ravel()
    dist = np.min(np.abs(samples[:, None] - kinks[None, :]), axis=1)
    samples = samples[dist > 2.5 * fd_step]
    if samples.size == 0:
        raise ValueError("no samples left after removing kink neighborhoods")
    fd = (conv(samples + fd_step) - conv(samples - fd_step)) / (2.0 * fd_step)
    return float(np.max(np.abs(fd - deriv_conv(samples))))
