"""Strictly increasing C^1 targets that quantizers approximate.

Two families are provided: a logistic sigmoid, whose derivative has
exponential tails, and a slowly-decaying sigmoid whose derivative behaves
like c1 / (|x| log^2 |x|) for large |x| — the shape that makes the
magnification construction work for every scale a >= 1.

Quantizer bookkeeping needs integrals of the target over up to millions of
consecutive tiny blocks, accurate to ~1e-13.  The logistic has a closed-form
antiderivative; the slow-decay target integrates its derivative with
fixed-order Gauss-Legendre panels (machine precision at these widths) and a
cumulative table at integer points.

The logistic itself is evaluated as 1 / (1 + exp(-z)) with the C library exp
(``math.exp``), point by point: certificate floats (phi_min, eps, h) depend on
its last bit, and numpy's vectorized exp rounds differently on some inputs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .blocks import spans


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

    def consecutive_block_integrals(self, edges: np.ndarray) -> np.ndarray:
        return self.integrate_phi(edges[:-1], edges[1:])

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

    def consecutive_block_integrals(self, edges: np.ndarray) -> np.ndarray:
        edges = np.asarray(edges, dtype=np.float64)
        out = np.empty(max(edges.size - 1, 0))
        for start, stop in spans(out.size):
            a = self._anti(edges[start : stop + 1])
            np.subtract(a[1:], a[:-1], out=out[start:stop])
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
        """∫_lo^hi phi by parts: [x phi] - ∫ x phi'(x) dx (phi only at ends)."""
        lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
        phi_lo = self.phi(lo)
        phi_hi = self.phi(hi)
        moment = gl_panel_integrals(lambda t: t * self.dphi(t), lo, hi, 24)
        return hi * phi_hi - lo * phi_lo - moment

    def consecutive_block_integrals(self, edges: np.ndarray) -> np.ndarray:
        """Fast path for ascending consecutive blocks (quantizer cells).

        One derivative evaluation per quadrature node serves both the
        edge-value cumulation and the moment term of the by-parts formula.
        The n x order node arrays live one block of rows at a time; the edge
        values are one cumsum of the derivative steps over the whole cell.
        """
        edges = np.asarray(edges, dtype=np.float64)
        width = edges[1] - edges[0] if edges.size > 1 else 1.0
        order = 4 if width <= 2.0**-10 else (6 if width <= 2.0**-6 else 16)
        x, w = _gl_nodes(order)
        n = max(edges.size - 1, 0)
        phi_edges = np.empty(n + 1)
        phi_edges[0] = 0.0
        moment = np.empty(n)
        for start, stop in spans(n):
            lo, hi = edges[start:stop], edges[start + 1 : stop + 1]
            mid = (lo + hi) / 2.0
            halfw = (hi - lo) / 2.0
            pts = mid[:, None] + halfw[:, None] * x[None, :]
            dvals = self.dphi(pts.ravel()).reshape(pts.shape)
            phi_edges[start + 1 : stop + 1] = halfw * (dvals @ w)
            moment[start:stop] = halfw * ((pts * dvals) @ w)
        np.cumsum(phi_edges[1:], out=phi_edges[1:])
        phi_edges += float(self.phi(edges[0]))
        for start, stop in spans(n):
            lo, hi = edges[start:stop], edges[start + 1 : stop + 1]
            moment[start:stop] = (
                hi * phi_edges[start + 1 : stop + 1] - lo * phi_edges[start:stop]
                - moment[start:stop]
            )
        return moment

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
