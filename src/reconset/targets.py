"""Strictly increasing C^1 targets that quantizers approximate.

Two families are provided: a logistic sigmoid, whose derivative has
exponential tails, and a slowly-decaying sigmoid whose derivative behaves
like c1 / (|x| log^2 |x|) for large |x| — the shape that makes the
magnification construction work for every scale a >= 1.

A quantizer cell [c, c+1) reads one object of its target: the antiderivative
A(c + m/n) = ∫_c^{c+m/n} phi at up to millions of block edges, accurate to
~1e-13 (`cell_antiderivative`).  The logistic has a closed-form
antiderivative.  The slow-decay target's derivative is analytic within 2.5 of
the real axis, so a degree-`CHEB_DEGREE` Chebyshev series of it on the cell
is exact to roundoff; integrated twice, it gives A as one series evaluated at
every edge.  Its phi itself comes from fixed-order Gauss-Legendre panels and
a cumulative table at integer points.

The logistic itself is evaluated as 1 / (1 + exp(-z)) with the C library exp
(``math.exp``), point by point: certificate floats (phi_min, eps, h) depend on
its last bit, and numpy's vectorized exp rounds differently on some inputs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .blocks import spans

CHEB_DEGREE = 24  # Chebyshev degree of the slow-decay phi' on one unit cell


@lru_cache(maxsize=8)
def _gl_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gl_panel_integrals(f, lo, hi, order: int = 16) -> np.ndarray:
    """Gauss-Legendre integral of f over each [lo_i, hi_i], vectorized."""
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    x, w = _gl_nodes(order)
    mid = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    pts = mid[:, None] + half[:, None] * x[None, :]
    vals = f(pts.ravel()).reshape(pts.shape)
    return half * (vals @ w)


class AffineTarget:
    """phi(x) = slope*x + intercept with exact block integrals.

    Used for worked examples (phi(x) = x) and constant targets; the caller is
    responsible for keeping values inside [0, 1] on the domain of use.
    """

    def __init__(self, slope: float = 1.0, intercept: float = 0.0):
        self.slope = float(slope)
        self.intercept = float(intercept)

    def phi(self, x):
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept

    def dphi(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.full(x.shape, self.slope)

    def integrate_phi(self, lo, hi):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        return self.slope * (hi * hi - lo * lo) / 2.0 + self.intercept * (hi - lo)

    def cell_antiderivative(self, c: int, n: int) -> np.ndarray:
        return self.integrate_phi(c, c + np.arange(n + 1, dtype=np.float64) / n)

    def dphi_min(self, lo: float, hi: float) -> float:
        return self.slope

    def describe(self):
        return {"variant": "affine", "slope": self.slope, "intercept": self.intercept}


def _expit(z: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:  # exp(-z) beyond the float range: phi underflows to 0
        return 0.0


class Logistic:
    """phi(x) = 1 / (1 + exp(-rate x)); strictly increasing into (0, 1)."""

    def __init__(self, rate: float = 0.5):
        if not (rate > 0 and math.isfinite(rate)):
            raise ValueError(f"rate must be positive and finite, got {rate}")
        self.rate = float(rate)

    def phi(self, x):
        z = self.rate * np.asarray(x, dtype=np.float64)
        # a Python loop, not a ufunc: numpy would turn the overflow flag that
        # math.exp leaves behind into a RuntimeWarning
        return np.array([_expit(v) for v in z.ravel().tolist()]).reshape(z.shape)[()]

    def dphi(self, x):
        p = self.phi(x)
        return self.rate * p * (1.0 - p)

    def _anti(self, x):
        # ∫ phi = log(1 + exp(rate x)) / rate, computed stably on both sides
        x = np.asarray(x, dtype=np.float64)
        r = self.rate
        return np.maximum(x, 0.0) + np.log1p(np.exp(-r * np.abs(x))) / r

    def integrate_phi(self, lo, hi):
        return self._anti(hi) - self._anti(lo)

    def cell_antiderivative(self, c: int, n: int) -> np.ndarray:
        """∫_c^{c+m/n} phi for m = 0..n, one block of edges at a time."""
        out = np.empty(n + 1)
        a0 = self._anti(float(c))
        for start, stop in spans(n + 1):
            edges = c + np.arange(start, stop, dtype=np.float64) / n
            np.subtract(self._anti(edges), a0, out=out[start:stop])
        return out

    def dphi_min(self, lo: float, hi: float) -> float:
        # phi' is even and decreasing in |x|: min at the endpoint farthest from 0
        return float(self.dphi(max(abs(lo), abs(hi))))

    def describe(self):
        return {"variant": "logistic", "rate": self.rate}


class LogSquaredDecay:
    """Increasing target with phi'(x) = c1 / (u ln^2 u), u = sqrt(e^2 + x^2).

    For |x| >= 2 this matches the c1/(|x| log^2 |x|) decay the magnification
    construction needs, while staying smooth and positive everywhere (u >= e
    keeps ln u >= 1).  c1 normalizes the derivative mass so phi maps into
    (0, 1); the slowly convergent tail is bounded analytically by comparison
    with 1/(x ln^2 x).
    """

    _E = math.e

    def __init__(self, c1: float | None = None):
        if c1 is None:
            c1 = 1.0 / self._raw_mass()
        if c1 <= 0:
            raise ValueError("c1 must be positive")
        self.c1 = float(c1)
        self._cache_lo = 0
        self._cache_hi = 0
        self._cache = {0: 0.5}  # phi at integer points

    @classmethod
    def _raw_dphi(cls, x):
        x = np.asarray(x, dtype=np.float64)
        u = np.sqrt(x * x + cls._E * cls._E)
        lu = np.log(u)
        return 1.0 / (u * lu * lu)

    @classmethod
    @lru_cache(maxsize=1)
    def _raw_mass(cls) -> float:
        X = 1e8
        edges = np.concatenate([[0.0], np.geomspace(1.0, X, 400)])
        body = float(np.sum(gl_panel_integrals(cls._raw_dphi, edges[:-1], edges[1:], 32)))
        tail = 1.0 / math.log(X)  # ∫_X^∞ dx/(x ln^2 x) = 1/ln X dominates the rest
        return 2.0 * (body + tail)

    def dphi(self, x):
        return self.c1 * self._raw_dphi(x)

    def _phi_int(self, k: int) -> float:
        while self._cache_hi < k:
            j = self._cache_hi
            step = float(gl_panel_integrals(self.dphi, [float(j)], [j + 1.0], 24)[0])
            self._cache[j + 1] = self._cache[j] + step
            self._cache_hi = j + 1
        while self._cache_lo > k:
            j = self._cache_lo
            step = float(gl_panel_integrals(self.dphi, [j - 1.0], [float(j)], 24)[0])
            self._cache[j - 1] = self._cache[j] - step
            self._cache_lo = j - 1
        return self._cache[k]

    def phi(self, x):
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        base = np.floor(x).astype(np.int64)
        if base.size:
            self._phi_int(int(base.max()))
            self._phi_int(int(base.min()))
        base_phi = np.array([self._cache[int(b)] for b in base])
        frac = gl_panel_integrals(self.dphi, base.astype(np.float64), x, 24)
        out = base_phi + frac
        return float(out[0]) if scalar else out

    def integrate_phi(self, lo, hi):
        """∫_lo^hi phi by parts: [x phi] - ∫ x phi'(x) dx (phi only at ends).

        The moment takes one 24-node panel per unit cell that [lo, hi] meets,
        summed from the left: a single panel over [-12, 11] errs by 2e-4.
        """
        lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
        a, b = np.minimum(lo, hi), np.maximum(lo, hi)
        moment = np.zeros(a.shape)
        cell = np.floor(a)
        live = a < b
        while live.any():
            left = np.maximum(a[live], cell[live])
            right = np.minimum(b[live], cell[live] + 1.0)
            moment[live] += gl_panel_integrals(lambda t: t * self.dphi(t), left, right, 24)
            cell += 1.0
            live = cell < b
        moment = np.where(hi < lo, -moment, moment)
        return hi * self.phi(hi) - lo * self.phi(lo) - moment

    def cell_antiderivative(self, c: int, n: int) -> np.ndarray:
        """∫_c^{c+m/n} phi for m = 0..n, from a Chebyshev series of phi'.

        phi' at the CHEB_DEGREE + 1 Chebyshev points of [c, c+1] (math.sqrt
        and math.log, point by point) gives the series by a cosine sum in
        fixed order; integrated once, plus phi(c), it is phi, and once more
        A.  A is evaluated at t = m (2/n) - 1 one block of edges at a time,
        by elementwise steps only.
        """
        from numpy.polynomial import chebyshev  # 3-6 ms to import: only here

        N = CHEB_DEGREE
        E2 = self._E * self._E
        f = []
        for k in range(N + 1):
            x = c + 0.5 + 0.5 * math.cos(math.pi * k / N)
            u = math.sqrt(x * x + E2)
            lu = math.log(u)
            f.append(self.c1 * (1.0 / (u * lu * lu)))  # as dphi rounds it
        f[0] /= 2.0
        f[N] /= 2.0
        coef = [
            2.0 / N * math.fsum(fk * math.cos(math.pi * j * k / N) for k, fk in enumerate(f))
            for j in range(N + 1)
        ]
        coef[0] /= 2.0
        coef[N] /= 2.0
        phi = chebyshev.chebint(coef, lbnd=-1, scl=0.5)
        phi[0] += self.phi(float(c))
        anti = chebyshev.chebint(phi, lbnd=-1, scl=0.5)
        out = np.empty(n + 1)
        for start, stop in spans(n + 1):
            t = np.arange(start, stop, dtype=np.float64) * (2.0 / n) - 1.0
            out[start:stop] = chebyshev.chebval(t, anti)
        return out

    def dphi_min(self, lo: float, hi: float) -> float:
        return float(self.dphi(max(abs(lo), abs(hi))))

    def describe(self):
        return {"variant": "log_squared_decay", "c1": self.c1}


def target_from_json(obj):
    variant = obj["variant"]
    if variant == "affine":
        return AffineTarget(obj["slope"], obj["intercept"])
    if variant == "logistic":
        return Logistic(obj["rate"])
    if variant == "log_squared_decay":
        return LogSquaredDecay(obj["c1"])
    raise ValueError(f"unknown target variant {variant!r}")
