"""Strictly increasing C^1 targets that quantizers approximate.

Two families are provided: a logistic sigmoid, whose derivative has
exponential tails, and a slowly-decaying sigmoid whose derivative behaves
like c1 / (|x| log^2 |x|) for large |x| — the shape that makes the
magnification construction work for every scale a >= 1.

A quantizer cell [c, c+1) reads one object of its target: the antiderivative
A(c + m/n) = ∫_c^{c+m/n} phi at up to millions of block edges, accurate to
~1e-13 (`cell_antiderivative`).  The logistic has a closed-form
antiderivative.  The slow-decay target's derivative is analytic within 2.5 of
the real axis, so a degree-`CHEB_DEGREE` Chebyshev series of it on each unit
cell is exact to roundoff, and it is that target's one numerical method:
integrated once, the series gives phi (phi at the integers walks the cell
totals out from phi(0) = 1/2); integrated twice, A, evaluated at every edge;
∫ phi sums A over the cells it meets.

The logistic itself is evaluated as 1 / (1 + exp(-z)) with the C library exp
(``math.exp``), point by point: certificate floats (phi_min, eps, h) depend on
its last bit, and numpy's vectorized exp rounds differently on some inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .blocks import spans

CHEB_DEGREE = 24  # Chebyshev degree of the slow-decay phi' on one unit cell


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


def _raw_dphi(x: float) -> float:
    """The slow-decay phi' / c1 = 1 / (u ln^2 u), u = sqrt(x^2 + e^2), by libm."""
    u = math.sqrt(x * x + math.e * math.e)
    lu = math.log(u)
    return 1.0 / (u * lu * lu)


# c1 = 1 / ∫ (u ln^2 u)^-1 dx over the line, as 1 / (2 (body + tail)): body
# by 32-node Gauss-Legendre on [0, 1] and on 399 geometric panels from 1 to
# X = 1e8, tail = ∫_X^∞ dx / (x ln^2 x) = 1 / ln X
C1 = 0.32917502281739036  # 0x1.511341d6a49a7p-2


class LogSquaredDecay:
    """Increasing target with phi'(x) = c1 / (u ln^2 u), u = sqrt(e^2 + x^2).

    For |x| >= 2 this matches the c1/(|x| log^2 |x|) decay the magnification
    construction needs, while staying smooth and positive everywhere (u >= e
    keeps ln u >= 1).  c1 normalizes the derivative mass so phi maps into
    (0, 1); the slowly convergent tail is bounded analytically by comparison
    with 1/(x ln^2 x).
    """

    def __init__(self, c1: float | None = None):
        c1 = C1 if c1 is None else c1
        if c1 <= 0:
            raise ValueError("c1 must be positive")
        self.c1 = float(c1)
        self._cache = {0: 0.5}  # phi at integer points

    def dphi(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.array([self.c1 * _raw_dphi(v) for v in x.ravel().tolist()]).reshape(x.shape)[()]

    def _rise(self, c: int):
        """The series of phi - phi(c) in t = 2 (x - c) - 1 on [c, c+1]: that of
        phi' at the CHEB_DEGREE + 1 Chebyshev points, by a cosine sum in fixed
        order (first and last terms halved), integrated from t = -1."""
        from numpy.polynomial import chebyshev  # 3-6 ms to import: only here

        N = CHEB_DEGREE
        f = [self.c1 * _raw_dphi(c + 0.5 + 0.5 * math.cos(math.pi * k / N)) / (2.0 if k % N == 0 else 1.0)
             for k in range(N + 1)]
        coef = [(1.0 if j % N == 0 else 2.0) / N
                * math.fsum(fk * math.cos(math.pi * j * k / N) for k, fk in enumerate(f))
                for j in range(N + 1)]
        return chebyshev.chebint(coef, lbnd=-1, scl=0.5)

    def _phi_int(self, k: int) -> float:
        """phi(k), walking the cell totals out from phi(0) = 1/2."""
        step = 1 if k > 0 else -1
        for j in range(0, k, step):
            if j + step not in self._cache:
                self._cache[j + step] = self._cache[j] + step * math.fsum(self._rise(min(j, j + step)))
        return self._cache[k]

    def _cell(self, c: int):
        """phi and A(x) = ∫_c^x phi on [c, c+1], as series in t = 2 (x - c) - 1."""
        from numpy.polynomial.chebyshev import chebint, chebval

        phi = self._rise(c)
        phi[0] += self._phi_int(c)
        anti = chebint(phi, lbnd=-1, scl=0.5)
        return (lambda t: chebval(t, phi)), (lambda t: chebval(t, anti))

    def phi(self, x):
        x = np.asarray(x, dtype=np.float64)
        base = np.floor(x)
        out = np.empty(x.shape)
        for c in np.unique(base).tolist():
            at = base == c
            out[at] = self._cell(int(c))[0](2.0 * (x[at] - c) - 1.0)
        return out[()]

    def integrate_phi(self, lo, hi):
        """∫_lo^hi phi: A of each unit cell that [lo, hi] meets, at its ends
        clipped to the cell, summed by one math.fsum per pair."""
        lo, hi = (np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (lo, hi))
        a, b = np.minimum(lo, hi), np.maximum(lo, hi)
        terms = [np.zeros(a.size)]  # the sum when [lo, hi] meets no cell
        for c in range(int(np.floor(a.min())), int(np.ceil(b.max()))) if a.size else ():
            anti = self._cell(c)[1]
            for end, sign in ((b, 1.0), (a, -1.0)):
                terms.append(sign * anti(2.0 * (np.clip(end, c, c + 1.0) - c) - 1.0).ravel())
        sums = np.array([math.fsum(col) for col in zip(*terms)]).reshape(a.shape)
        return np.where(hi < lo, -sums, sums)

    def cell_antiderivative(self, c: int, n: int) -> np.ndarray:
        """∫_c^{c+m/n} phi for m = 0..n: the series of A at t = m (2/n) - 1,
        one block of edges at a time, by elementwise steps only."""
        anti = self._cell(c)[1]
        out = np.empty(n + 1)
        for start, stop in spans(n + 1):
            t = np.arange(start, stop, dtype=np.float64) * (2.0 / n) - 1.0
            out[start:stop] = anti(t)
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
