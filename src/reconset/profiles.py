"""Compactly supported piecewise-linear profiles and their step derivatives.

A :class:`Profile` is the single carrier for every 1-D section-measure
function: exact piecewise-linear data (ball chords are sampled onto it, boxes
and polygons land on it exactly) plus indicator-style profiles with jumps.
Pieces are half-open ``[x_i, x_{i+1})`` and the function is zero outside the
support, so evaluation is defined everywhere and integration against interval
sets is closed-form.
"""

from __future__ import annotations

import math

import numpy as np


def _as_array(xs) -> np.ndarray:
    a = np.asarray(xs, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("expected a 1-D array")
    return a


class Profile:
    """Piecewise-linear, non-negative, compactly supported function.

    ``xs`` are the n+1 ascending piece boundaries; ``vl[i]``/``vr[i]`` are the
    values at the left/right end of piece i, so value jumps between pieces
    (and at the support edges) are representable.  ``abs_error`` records the
    pointwise approximation error when the profile was sampled from a curve
    (zero for exact profiles); downstream bounds account for it.
    """

    __slots__ = ("xs", "vl", "vr", "abs_error", "l1_error")

    def __init__(self, xs, vl, vr, abs_error: float = 0.0, l1_error: float = 0.0):
        self.xs = _as_array(xs)
        self.vl = _as_array(vl)
        self.vr = _as_array(vr)
        if self.xs.size != self.vl.size + 1 or self.vl.size != self.vr.size:
            raise ValueError("need n+1 boundaries for n pieces")
        if self.vl.size == 0:
            raise ValueError("profile needs at least one piece")
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("piece boundaries must be strictly ascending")
        if np.min(self.vl) < -1e-12 or np.min(self.vr) < -1e-12:
            raise ValueError("profile values must be non-negative")
        np.maximum(self.vl, 0.0, out=self.vl)
        np.maximum(self.vr, 0.0, out=self.vr)
        self.abs_error = float(abs_error)
        self.l1_error = float(l1_error)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_knots(xs, ys, abs_error: float = 0.0, l1_error: float = 0.0) -> "Profile":
        """Continuous piecewise-linear profile through (xs[i], ys[i])."""
        xs = _as_array(xs)
        ys = _as_array(ys)
        if xs.size < 2:
            raise ValueError("need at least two knots")
        return Profile(xs, ys[:-1], ys[1:], abs_error, l1_error)

    @staticmethod
    def step(edges, values, abs_error: float = 0.0) -> "Profile":
        """Piecewise-constant profile: values[i] on [edges[i], edges[i+1])."""
        edges = _as_array(edges)
        values = _as_array(values)
        return Profile(edges, values, values.copy(), abs_error)

    @staticmethod
    def tent(center: float = 0.0, half_width: float = 1.0, height: float = 1.0) -> "Profile":
        """max(0, height*(1 - |x-center|/half_width)); mass = height*half_width."""
        return Profile.from_knots(
            [center - half_width, center, center + half_width], [0.0, height, 0.0]
        )

    @staticmethod
    def indicator(lo: float, hi: float, height: float = 1.0) -> "Profile":
        return Profile.step([lo, hi], [height])

    # -- basic queries ------------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])

    @property
    def piece_count(self) -> int:
        return self.vl.size

    def slopes(self) -> np.ndarray:
        return (self.vr - self.vl) / np.diff(self.xs)

    def __call__(self, x):
        """Evaluate; right-continuous at interior jumps, zero outside support."""
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        idx = np.searchsorted(self.xs, x, side="right") - 1
        inside = (idx >= 0) & (idx < self.piece_count)
        idx = np.clip(idx, 0, self.piece_count - 1)
        w = self.xs[idx + 1] - self.xs[idx]
        t = (x - self.xs[idx]) / w
        val = self.vl[idx] * (1 - t) + self.vr[idx] * t
        out = np.where(inside, val, 0.0)
        return float(out[0]) if scalar else out

    def integral(self) -> float:
        widths = np.diff(self.xs)
        return float(math.fsum(widths * (self.vl + self.vr) / 2.0))

    def max_value(self) -> float:
        return float(max(np.max(self.vl), np.max(self.vr)))

    # -- calculus -------------------------------------------------------------

    def antiderivative(self) -> "PiecewiseQuadratic":
        return PiecewiseQuadratic(self)

    def derivative_step(self) -> "StepProfile":
        """Slope step function: the a.e. derivative (weak derivative when
        the profile is continuous)."""
        return StepProfile(self.xs.copy(), self.slopes())

    def total_variation(self) -> float:
        """Exact total variation on the line, including support-edge jumps."""
        terms = [abs(float(self.vl[0]))]  # jump up from 0 at the left edge
        for i in range(self.piece_count):
            terms.append(abs(float(self.vr[i] - self.vl[i])))
            if i + 1 < self.piece_count:
                terms.append(abs(float(self.vl[i + 1] - self.vr[i])))
        terms.append(abs(float(self.vr[-1])))  # jump down to 0 at the right edge
        return math.fsum(terms)

    # -- geometry ----------------------------------------------------------------

    def shift(self, dx: float) -> "Profile":
        return Profile(self.xs + dx, self.vl.copy(), self.vr.copy(), self.abs_error, self.l1_error)

    def scale_x(self, a: float) -> "Profile":
        """x -> p(x/a): support stretches by a > 0, values unchanged."""
        if a <= 0:
            raise ValueError("scale must be positive")
        return Profile(self.xs * a, self.vl.copy(), self.vr.copy(), self.abs_error, self.l1_error * a)

    def scale_y(self, c: float) -> "Profile":
        if c < 0:
            raise ValueError("y-scale must be non-negative")
        return Profile(self.xs.copy(), self.vl * c, self.vr * c, self.abs_error * c, self.l1_error * c)

    def trimmed(self, tol: float = 0.0) -> "Profile":
        """Drop identically-zero pieces at the ends of the support."""
        lo = 0
        n = self.piece_count
        while lo < n - 1 and self.vl[lo] <= tol and self.vr[lo] <= tol:
            lo += 1
        hi = n
        while hi - 1 > lo and self.vl[hi - 1] <= tol and self.vr[hi - 1] <= tol:
            hi -= 1
        return Profile(
            self.xs[lo : hi + 1], self.vl[lo:hi].copy(), self.vr[lo:hi].copy(),
            self.abs_error, self.l1_error,
        )

    def to_csv_rows(self):
        """(breakpoint, value) rows; jumps produce two rows per breakpoint."""
        rows = [(float(self.xs[0]), float(self.vl[0]))]
        for i in range(self.piece_count):
            rows.append((float(self.xs[i + 1]), float(self.vr[i])))
            if i + 1 < self.piece_count and self.vl[i + 1] != self.vr[i]:
                rows.append((float(self.xs[i + 1]), float(self.vl[i + 1])))
        return rows

    def to_json(self):
        return {
            "xs": self.xs.tolist(),
            "vl": self.vl.tolist(),
            "vr": self.vr.tolist(),
            "abs_error": self.abs_error,
            "l1_error": self.l1_error,
        }

    @staticmethod
    def from_json(obj) -> "Profile":
        return Profile(
            obj["xs"], obj["vl"], obj["vr"],
            obj.get("abs_error", 0.0), obj.get("l1_error", 0.0),
        )

    def __repr__(self):
        lo, hi = self.support
        return (
            f"Profile({self.piece_count} pieces on [{lo:g}, {hi:g}], "
            f"mass {self.integral():.6g})"
        )


class PiecewiseQuadratic:
    """Antiderivative P(x) = ∫_{-inf}^x p of a Profile; vectorized evaluation.

    Constant below the support, equal to the total mass above it.
    """

    __slots__ = ("xs", "cum", "vl", "slope_half", "total")

    def __init__(self, p: Profile):
        widths = np.diff(p.xs)
        areas = widths * (p.vl + p.vr) / 2.0
        self.xs = p.xs
        self.cum = np.concatenate([[0.0], np.cumsum(areas)])
        self.vl = p.vl
        self.slope_half = (p.vr - p.vl) / (2.0 * widths)
        self.total = float(self.cum[-1])

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        idx = np.searchsorted(self.xs, x, side="right") - 1
        below = idx < 0
        above = idx >= self.vl.size
        idx = np.clip(idx, 0, self.vl.size - 1)
        t = x - self.xs[idx]
        val = self.cum[idx] + t * (self.vl[idx] + t * self.slope_half[idx])
        out = np.where(below, 0.0, np.where(above, self.total, val))
        return float(out[0]) if scalar else out


class StepProfile:
    """Piecewise-constant, compactly supported function (may take any sign).

    Houses derivatives of piecewise-linear profiles and quantizer residuals:
    value ``vals[i]`` on ``[edges[i], edges[i+1])``, zero outside.
    """

    __slots__ = ("edges", "vals")

    def __init__(self, edges, vals):
        self.edges = _as_array(edges)
        self.vals = _as_array(vals)
        if self.edges.size != self.vals.size + 1:
            raise ValueError("need n+1 edges for n values")
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must be strictly ascending")

    @property
    def support(self) -> tuple[float, float]:
        return float(self.edges[0]), float(self.edges[-1])

    @property
    def piece_count(self) -> int:
        return self.vals.size

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        idx = np.searchsorted(self.edges, x, side="right") - 1
        inside = (idx >= 0) & (idx < self.vals.size)
        out = np.where(inside, self.vals[np.clip(idx, 0, self.vals.size - 1)], 0.0)
        return float(out[0]) if scalar else out

    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def integral(self) -> float:
        return float(math.fsum(self.widths() * self.vals))

    def l1_norm(self) -> float:
        return float(math.fsum(self.widths() * np.abs(self.vals)))

    def total_variation(self) -> float:
        """Var on the line: edge jumps from/to zero plus interior jumps."""
        if self.piece_count == 0:
            return 0.0
        interior = np.abs(np.diff(self.vals))
        return float(
            abs(self.vals[0]) + math.fsum(interior) + abs(self.vals[-1])
        )

    def clamp(self, bound: float) -> "StepProfile":
        """min(bound, max(-bound, g)) — the truncation approximant."""
        return StepProfile(self.edges.copy(), np.clip(self.vals, -bound, bound))

    def merged_with(self, other: "StepProfile"):
        """Common refinement: (edges, self values, other values)."""
        edges = np.unique(np.concatenate([self.edges, other.edges]))
        mids = (edges[:-1] + edges[1:]) / 2.0
        return edges, self(mids), other(mids)

    def l1_distance(self, other: "StepProfile") -> float:
        edges, a, b = self.merged_with(other)
        return float(math.fsum(np.diff(edges) * np.abs(a - b)))

    def antiderivative(self) -> "SignedPiecewiseLinear":
        """∫_{-inf}^x g: continuous piecewise-linear, constant outside support."""
        cum = np.concatenate([[0.0], np.cumsum(self.widths() * self.vals)])
        return SignedPiecewiseLinear(self.edges.copy(), cum)

    def __repr__(self):
        lo, hi = self.support
        return f"StepProfile({self.piece_count} pieces on [{lo:g}, {hi:g}])"


class SignedPiecewiseLinear:
    """Continuous piecewise-linear interpolant, clamped to its end values.

    Used for antiderivatives of signed step functions, where Profile's
    non-negativity would get in the way.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, xs, ys):
        self.xs = _as_array(xs)
        self.ys = _as_array(ys)
        if self.xs.size != self.ys.size or self.xs.size < 2:
            raise ValueError("need matching xs/ys with at least two knots")

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        out = np.interp(np.atleast_1d(x), self.xs, self.ys)
        return float(out[0]) if scalar else out
