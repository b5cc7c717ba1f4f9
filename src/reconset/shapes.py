"""Geometric bodies in R^d, their section-measure profiles, and slab test sets.

The section-measure profile of a body E in direction theta (the Radon
transform of its indicator) is the function r -> lambda^{d-1}(E ∩ {<x,theta> = r}).
Every variant lands on the shared piecewise-linear Profile carrier: boxes and
polygons exactly (their profiles are piecewise linear in the plane), balls
and simplices by sampling with a reported interpolation error and an exact
mass correction, interval unions and axis-aligned grid shapes as exact step
profiles.

The d-dimensional measure of a posed body against a slab test set
V = {a : <a,theta> in T} reduces to a 1-D integral of the profile:
lambda^d((rE+v) ∩ V) = r^(d-1) ∫_T profile((t - <v,theta>)/r) dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import Dyadic
from .errors import decoding
from .intervals import IntervalSet, Window
from .profiles import Profile

_UNIT_TOL = 1e-12


def _finite(what: str, values: tuple) -> tuple:
    """values, after refusing a NaN or an infinity among them."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite, got {values}")
    return values


@dataclass(frozen=True)
class Direction:
    """A unit vector in R^d (norm checked to 1e-12)."""

    theta: tuple

    def __post_init__(self):
        t = _finite("direction components", tuple(map(float, self.theta)))
        object.__setattr__(self, "theta", t)
        n = math.sqrt(math.fsum(x * x for x in t))
        if abs(n - 1.0) > _UNIT_TOL:
            raise ValueError(f"direction norm {n} is not 1 within {_UNIT_TOL}")

    @staticmethod
    def of(vector) -> "Direction":
        v = np.asarray(vector, dtype=np.float64)
        n = float(np.linalg.norm(v))
        if n == 0:
            raise ValueError("zero vector has no direction")
        return Direction(tuple(v / n))

    @staticmethod
    def axis(i: int, d: int) -> "Direction":
        v = [0.0] * d
        v[i] = 1.0
        return Direction(tuple(v))

    @property
    def d(self) -> int:
        return len(self.theta)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.theta)

    def dot(self, point) -> float:
        return float(np.dot(self.as_array(), np.asarray(point, dtype=np.float64)))


@dataclass(frozen=True)
class Pose:
    """Translation and magnification of a body: the posed set is r*E + x."""

    translation: tuple
    magnification: float = 1.0

    def __post_init__(self):
        x = _finite("translation components", tuple(map(float, self.translation)))
        object.__setattr__(self, "translation", x)
        if not 1.0 <= self.magnification < math.inf:
            raise ValueError(
                "magnification must be finite and >= 1 (translate-only uses r = 1)"
            )


# -- shape variants -----------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _finite("center", tuple(map(float, self.center))))
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

    @property
    def d(self) -> int:
        return len(self.center)

    def volume(self) -> float:
        d = self.d
        return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * self.radius**d


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", _finite("box corner", tuple(map(float, self.lo))))
        object.__setattr__(self, "hi", _finite("box corner", tuple(map(float, self.hi))))
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimension mismatch")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box needs lo < hi in every coordinate")

    @property
    def d(self) -> int:
        return len(self.lo)

    def volume(self) -> float:
        return float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))

    def corners(self) -> np.ndarray:
        d = self.d
        out = np.empty((1 << d, d))
        for mask in range(1 << d):
            for i in range(d):
                out[mask, i] = self.hi[i] if (mask >> i) & 1 else self.lo[i]
        return out


def _shoelace(v: np.ndarray) -> float:
    """Signed area of the polygon with vertex rows v, positive counterclockwise."""
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


@dataclass(frozen=True)
class Polygon:
    """Simple polygon in the plane with counterclockwise vertices."""

    vertices: tuple

    def __post_init__(self):
        vs = tuple(_finite("polygon vertex", tuple(map(float, v))) for v in self.vertices)
        object.__setattr__(self, "vertices", vs)
        if len(vs) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if any(len(v) != 2 for v in vs):
            raise ValueError("polygon vertices must be planar")
        if _shoelace(np.asarray(vs)) <= 0:
            raise ValueError("vertices must be counterclockwise with positive area")
        if self._self_intersects():
            raise ValueError("polygon must be simple")

    def _self_intersects(self) -> bool:
        v = self.vertices
        n = len(v)
        segs = [(v[i], v[(i + 1) % n]) for i in range(n)]

        def cross(o, a, b):
            return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

        def crosses(s1, s2):
            p1, p2 = s1
            q1, q2 = s2
            d1 = cross(q1, q2, p1)
            d2 = cross(q1, q2, p2)
            d3 = cross(p1, p2, q1)
            d4 = cross(p1, p2, q2)
            return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))

        for i in range(n):
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                if crosses(segs[i], segs[j]):
                    return True
        return False

    @property
    def d(self) -> int:
        return 2

    def volume(self) -> float:
        return _shoelace(np.asarray(self.vertices))

    def is_convex(self) -> bool:
        v = np.asarray(self.vertices)
        n = len(v)
        sign = 0
        for i in range(n):
            a, b, c = v[i], v[(i + 1) % n], v[(i + 2) % n]
            cr = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if abs(cr) < 1e-14:
                continue
            s = 1 if cr > 0 else -1
            if sign == 0:
                sign = s
            elif s != sign:
                return False
        return True

    def edge_normals(self) -> np.ndarray:
        v = np.asarray(self.vertices)
        e = np.roll(v, -1, axis=0) - v
        n = np.stack([e[:, 1], -e[:, 0]], axis=1)
        norms = np.linalg.norm(n, axis=1)
        return n / norms[:, None]


@dataclass(frozen=True)
class Simplex:
    vertices: tuple

    def __post_init__(self):
        vs = tuple(_finite("simplex vertex", tuple(map(float, v))) for v in self.vertices)
        object.__setattr__(self, "vertices", vs)
        d = len(vs[0])
        if len(vs) != d + 1:
            raise ValueError("simplex in R^d needs d+1 vertices")
        if abs(self._det()) < 1e-14:
            raise ValueError("simplex vertices must be affinely independent")

    def _det(self) -> float:
        v = np.asarray(self.vertices)
        return float(np.linalg.det(v[1:] - v[0]))

    @property
    def d(self) -> int:
        return len(self.vertices[0])

    def volume(self) -> float:
        return abs(self._det()) / math.factorial(self.d)


@dataclass(frozen=True)
class IntervalUnion:
    """1-D shape: a finite union of intervals."""

    S: IntervalSet

    def __post_init__(self):
        if not self.S:
            raise ValueError("interval union must have positive measure")

    @property
    def d(self) -> int:
        return 1

    def volume(self) -> float:
        return float(self.S.measure())


@dataclass(frozen=True)
class GridShape:
    """Union of axis-aligned cubes of side 1/n inside an integer box."""

    n: int
    box_lo: tuple
    box_hi: tuple
    cubes: tuple  # sorted flat indices into the box grid at resolution 1/n

    def __post_init__(self):
        if self.n < 1 or self.n & (self.n - 1):
            raise ValueError("grid resolution must be a power of two")
        object.__setattr__(self, "box_lo", tuple(int(v) for v in self.box_lo))
        object.__setattr__(self, "box_hi", tuple(int(v) for v in self.box_hi))
        object.__setattr__(self, "cubes", tuple(int(c) for c in sorted(set(self.cubes))))
        if not self.cubes:
            raise ValueError("grid shape must contain at least one cube")
        total = 1
        for a, b in zip(self.box_lo, self.box_hi):
            if b <= a:
                raise ValueError("grid box needs lo < hi")
            total *= (b - a) * self.n
        if self.cubes[-1] >= total or self.cubes[0] < 0:
            raise ValueError("cube index outside the box grid")

    @property
    def d(self) -> int:
        return len(self.box_lo)

    def shape_counts(self) -> tuple:
        return tuple((b - a) * self.n for a, b in zip(self.box_lo, self.box_hi))

    def volume(self) -> float:
        return len(self.cubes) / float(self.n**self.d)


Shape = Ball | Box | Polygon | Simplex | IntervalUnion | GridShape


# -- slab test sets ------------------------------------------------------------


@dataclass(frozen=True)
class SlabTestSet:
    """V = {a in R^d : <a,theta> in T}, or the full space as a sentinel.

    The window records where the 1-D set T is known; intersection measures
    whose profile support leaves the window are refused.
    """

    theta: Direction | None
    T: IntervalSet | None
    window: Window | None
    full_space: bool = False
    certificate: object = field(default=None, compare=False)

    @staticmethod
    def full() -> "SlabTestSet":
        return SlabTestSet(None, None, None, full_space=True)

    def __post_init__(self):
        if self.full_space:
            if self.theta is not None or self.T is not None:
                raise ValueError("full-space slab carries no direction or set")
        else:
            if self.theta is None or self.T is None or self.window is None:
                raise ValueError("slab needs a direction, a set and a window")


# -- section-measure profiles ----------------------------------------------------


def radon_profile(shape, theta: Direction, resolution: int = 256) -> Profile:
    """Profile of lambda^{d-1} sections of `shape` orthogonal to theta.

    `resolution` is the sample count for the variants whose profile is not
    piecewise linear (ball, simplex in d >= 3, boxes in d >= 3 off-axis);
    those are mass-corrected to the exact volume and carry the estimated
    pointwise interpolation error in ``abs_error``.
    """
    if theta.d != shape.d:
        raise ValueError(f"direction in R^{theta.d} vs shape in R^{shape.d}")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if isinstance(shape, Ball):
        return _ball_profile(shape, theta, resolution)
    if isinstance(shape, Box):
        return _box_profile(shape, theta, resolution)
    if isinstance(shape, Polygon):
        return _polygon_profile(shape, theta)
    if isinstance(shape, Simplex):
        return _simplex_profile(shape, theta, resolution)
    if isinstance(shape, IntervalUnion):
        return _interval_union_profile(shape, theta)
    if isinstance(shape, GridShape):
        return _grid_profile(shape, theta)
    raise TypeError(f"unknown shape {type(shape).__name__}")


def _mass_corrected(xs, ys, exact_mass, value_fn) -> Profile:
    raw = Profile.from_knots(xs, ys)
    raw_mass = raw.integral()
    if raw_mass <= 0:
        raise ValueError("zero-measure shape has no profile")
    s = exact_mass / raw_mass
    widths = np.diff(raw.xs)
    mids = (raw.xs[:-1] + raw.xs[1:]) / 2.0
    dev = np.abs(raw(mids) - value_fn(mids)) if value_fn else np.zeros_like(mids)
    abs_err = s * float(np.max(dev)) + abs(s - 1.0) * raw.max_value()
    # midpoint deviation underestimates the piecewise L1 error by ~2/3 for
    # smooth curvature; the factor 2 keeps the report an upper estimate
    l1_err = 2.0 * s * float(np.sum(widths * dev)) + abs(s - 1.0) * exact_mass
    return Profile.from_knots(xs, np.asarray(ys) * s, abs_error=abs_err, l1_error=l1_err)


def _ball_profile(ball: Ball, theta: Direction, resolution: int) -> Profile:
    m = theta.dot(ball.center)
    R = ball.radius
    d = ball.d
    if d == 1:
        return Profile.indicator(m - R, m + R)
    vd1 = math.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0 + 1.0)

    def section(t):
        t = np.asarray(t, dtype=np.float64)
        return vd1 * np.maximum(0.0, R * R - (t - m) ** 2) ** ((d - 1) / 2.0)

    # Chebyshev nodes cluster at the rim where the section has a root singularity
    j = np.arange(resolution + 1)
    xs = m - R * np.cos(np.pi * j / resolution)
    xs[0], xs[-1] = m - R, m + R
    ys = section(xs)
    return _mass_corrected(xs, ys, ball.volume(), section)


def _box_profile(box: Box, theta: Direction, resolution: int) -> Profile:
    widths = np.asarray(box.hi) - np.asarray(box.lo)
    th = theta.as_array()
    base = theta.dot(box.lo)
    spans = th * widths  # projection spread per axis, sign carried
    # piecewise-polynomial density of sum of uniforms; corners are breakpoints
    shifts = [0.0]
    for s in spans:
        shifts = [a + min(s, 0.0) for a in shifts] + [a + max(s, 0.0) for a in shifts]
    corners = _dedupe_sorted(base + np.sort(np.asarray(shifts)))
    active = np.abs(spans) > 1e-15
    k = int(np.count_nonzero(active))
    vol = box.volume()
    if k == 0:
        raise ValueError("direction orthogonal to every box axis")
    if k == 1:
        # axis-aligned: constant section over the projection interval
        height = vol / float(np.abs(spans[active][0]))
        return Profile.step([float(corners[0]), float(corners[-1])], [height])

    aa = np.abs(spans[active])

    def density(t):
        # alternating Irwin-Hall form for the density of sum of U[0, a_i]
        t = np.asarray(t, dtype=np.float64) - base - np.sum(np.minimum(spans, 0.0))
        acc = np.zeros_like(t)
        for mask in range(1 << k):
            shift = sum(aa[i] for i in range(k) if (mask >> i) & 1)
            sign = -1.0 if bin(mask).count("1") % 2 else 1.0
            acc += sign * np.maximum(t - shift, 0.0) ** (k - 1)
        return acc / (math.factorial(k - 1) * float(np.prod(aa)))

    def section(t):
        return vol * density(t)

    if k == 2:
        xs = corners  # exactly piecewise linear between projected corners
        return Profile.from_knots(xs, np.maximum(section(xs), 0.0))
    xs = _refined_grid(corners, resolution)
    return _mass_corrected(xs, np.maximum(section(xs), 0.0), vol, section)


def _dedupe_sorted(arr: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Collapse near-equal ascending values, keeping exact representatives."""
    scale = max(abs(float(arr[0])), abs(float(arr[-1])), 1.0)
    keep = np.concatenate([[True], np.diff(arr) > rel_tol * scale])
    return arr[keep]


def _refined_grid(breaks: np.ndarray, resolution: int) -> np.ndarray:
    span = breaks[-1] - breaks[0]
    out = [breaks[0]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        k = max(1, int(round(resolution * (b - a) / span)))
        out.extend(a + (b - a) * np.arange(1, k + 1) / k)
    return np.unique(np.asarray(out))


def _chord_length(poly: Polygon, theta: Direction, t: float) -> float:
    """Total length of the chord {<x,theta> = t} ∩ polygon (t off vertices)."""
    th = theta.as_array()
    perp = np.array([-th[1], th[0]])
    v = np.asarray(poly.vertices)
    proj = v @ th
    u = v @ perp
    n = len(v)
    hits = []
    for i in range(n):
        j = (i + 1) % n
        a, b = proj[i], proj[j]
        if (a < t) == (b < t):
            continue
        s = (t - a) / (b - a)
        hits.append(u[i] + s * (u[j] - u[i]))
    hits.sort()
    return float(math.fsum(hits[k + 1] - hits[k] for k in range(0, len(hits) - 1, 2)))


def _polygon_profile(poly: Polygon, theta: Direction) -> Profile:
    v = np.asarray(poly.vertices)
    proj = np.unique(v @ theta.as_array())
    xs = proj
    vals = np.zeros(xs.size)
    # chord length is affine strictly between projected vertices: two interior
    # samples per gap recover each piece exactly and sidestep vertex hits
    left_vals = np.zeros(xs.size - 1)
    right_vals = np.zeros(xs.size - 1)
    for i in range(xs.size - 1):
        a, b = xs[i], xs[i + 1]
        t1, t2 = a + (b - a) / 3.0, a + 2.0 * (b - a) / 3.0
        c1 = _chord_length(poly, theta, t1)
        c2 = _chord_length(poly, theta, t2)
        slope = (c2 - c1) / (t2 - t1)
        left_vals[i] = c1 + slope * (a - t1)
        right_vals[i] = c1 + slope * (b - t1)
    vals[0] = max(left_vals[0], 0.0)
    vals[-1] = max(right_vals[-1], 0.0)
    for i in range(1, xs.size - 1):
        vals[i] = max((right_vals[i - 1] + left_vals[i]) / 2.0, 0.0)
    return Profile.from_knots(xs, vals)


def _simplex_profile(simplex: Simplex, theta: Direction, resolution: int) -> Profile:
    d = simplex.d
    if d == 2:
        return _polygon_profile(_triangle_as_polygon(simplex), theta)
    if d == 3:
        v = np.asarray(simplex.vertices)
        proj = np.unique(v @ theta.as_array())

        def section(t):
            t = np.atleast_1d(np.asarray(t, dtype=np.float64))
            return np.array([_tetra_section_area(v, theta.as_array(), ti) for ti in t])

        xs = _refined_grid(proj, resolution)
        ys = section(xs)
        return _mass_corrected(xs, ys, simplex.volume(), section)
    raise NotImplementedError(
        "simplex profiles implemented for d <= 3 (higher d is out of scope)"
    )


def _triangle_as_polygon(simplex: Simplex) -> Polygon:
    vs = tuple(tuple(p) for p in simplex.vertices)
    if _shoelace(np.asarray(vs)) < 0:
        vs = tuple(reversed(vs))
    return Polygon(vs)


def _tetra_section_area(v: np.ndarray, th: np.ndarray, t: float) -> float:
    proj = v @ th
    pts = []
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = proj[i], proj[j]
            if (a - t) * (b - t) < 0:
                s = (t - a) / (b - a)
                pts.append(v[i] + s * (v[j] - v[i]))
    if len(pts) < 3:
        return 0.0
    pts = np.asarray(pts)
    # orthonormal frame of the cutting plane
    e1 = np.zeros(3)
    k = int(np.argmin(np.abs(th)))
    e1[k] = 1.0
    e1 = e1 - th * th[k]
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(th, e1)
    uv = np.stack([pts @ e1, pts @ e2], axis=1)
    c = uv.mean(axis=0)
    ang = np.arctan2(uv[:, 1] - c[1], uv[:, 0] - c[0])
    order = np.argsort(ang)
    return abs(_shoelace(uv[order]))


def _interval_union_profile(shape: IntervalUnion, theta: Direction) -> Profile:
    # {x : x*theta = r} is the single point r*theta: the profile is the
    # indicator of E (mirrored when theta = -1), an exact step profile
    sgn = theta.theta[0]
    ends = shape.S.to_floats()
    if sgn < 0:
        ends = (-ends[:, ::-1])[::-1]
    xs = [float(ends[0, 0])]
    piece_vals = []
    for lo, hi in ends:
        if float(lo) > xs[-1]:
            piece_vals.append(0.0)
            xs.append(float(lo))
        piece_vals.append(1.0)
        xs.append(float(hi))
    return Profile.step(xs, piece_vals)


def _grid_profile(shape: GridShape, theta: Direction) -> Profile:
    th = theta.as_array()
    axis = int(np.argmax(np.abs(th)))
    rest = np.delete(th, axis)
    if abs(abs(th[axis]) - 1.0) > 1e-12 or np.any(np.abs(rest) > 1e-12):
        raise NotImplementedError(
            "grid-shape profiles are exact for axis directions only"
        )
    counts = shape.shape_counts()
    idx = np.asarray(shape.cubes, dtype=np.int64)
    coords = np.empty((idx.size, shape.d), dtype=np.int64)
    rem = idx.copy()
    for k in reversed(range(shape.d)):
        coords[:, k] = rem % counts[k]
        rem //= counts[k]
    layer = coords[:, axis]
    per_layer = np.bincount(layer, minlength=counts[axis]).astype(np.float64)
    cell = 1.0 / shape.n
    area = cell ** (shape.d - 1)
    base = shape.box_lo[axis]
    sgn = 1.0 if th[axis] > 0 else -1.0
    edges = base + np.arange(counts[axis] + 1) * cell
    vals = per_layer * area
    if sgn < 0:
        edges = (-edges)[::-1]
        vals = vals[::-1]
    return Profile.step(edges, vals).trimmed()


# -- intersection measures ----------------------------------------------------------


def intersection_measures(
    shape, poses, V: SlabTestSet, resolution: int = 256
) -> tuple[np.ndarray, np.ndarray]:
    """lambda^d((rE+x) ∩ V) for each pose, with quadrature error bounds.

    The measure depends on x only through the offset <x, theta>, so one
    sliding integral per distinct (magnification, offset) covers all poses
    sharing it.  Exact (error 0) for the full-space sentinel: r^d * lambda^d(E).
    """
    from .analysis import sliding_integral

    rs = [pose.magnification for pose in poses]
    if V.full_space:
        return np.array([r**shape.d * shape.volume() for r in rs]), np.zeros(len(rs))
    profile = radon_profile(shape, V.theta, resolution)
    values = np.empty(len(rs))
    errors = np.empty(len(rs))
    for r in dict.fromkeys(rs):
        idx = [i for i, ri in enumerate(rs) if ri == r]
        b = np.array([V.theta.dot(poses[i].translation) for i in idx])
        # F(b) is computed for each b alone, so each distinct offset is integrated
        # once; 0.0 and -0.0 merge at equal bits, and a NaN stays to be refused
        offsets, where = np.unique(b, return_inverse=True)
        vals = sliding_integral(profile, V.T, r, offsets, V.window)[where]
        values[idx] = np.maximum(r ** (shape.d - 1) * vals, 0.0)
        # |error| = r^(d-1) |∫_T Δ((t-b)/r) dt| <= r^d ||Δ||_1
        errors[idx] = r**shape.d * profile.l1_error
    return values, errors


# -- diameter directions under anisotropic squeeze ------------------------------------


def _householder_to_last_axis(target: Direction) -> np.ndarray:
    d = target.d
    t = target.as_array()
    e = np.zeros(d)
    e[-1] = 1.0
    u = e - t
    n = np.linalg.norm(u)
    if n < 1e-15:
        return np.eye(d)
    u = u / n
    return np.eye(d) - 2.0 * np.outer(u, u)


def _canonical_direction(v: np.ndarray, target: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    if float(v @ target) < 0:
        v = -v
    return v


def diameter_direction(shape, squeeze: float, target: Direction) -> Direction:
    """Squeeze the body by `squeeze` orthogonally to `target`, take the
    direction of a diameter pair of the squeezed body, and pull it back.

    The pulled-back direction converges quadratically to `target` as the
    squeeze tends to 0.  Among coexisting diameter pairs the direction is
    canonicalized to the target hemisphere and ties break lexicographically
    (the paper leaves the choice open; this is an artifact decision).
    """
    if not (0.0 < squeeze <= 1.0):
        raise ValueError("squeeze must lie in (0, 1]")
    d = shape.d
    if target.d != d:
        raise ValueError("target dimension mismatch")
    R = _householder_to_last_axis(target)
    S = np.concatenate([np.full(d - 1, squeeze), [1.0]])
    A = S[:, None] * R  # maps body points into the squeezed frame

    if isinstance(shape, (Box, Simplex)) or (isinstance(shape, Polygon) and shape.is_convex()):
        if isinstance(shape, Box):
            pts = shape.corners()
        else:
            pts = np.asarray(shape.vertices)
        y = pts @ A.T
        diff = y[:, None, :] - y[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        best = float(np.max(dist))
        ii, jj = np.nonzero(dist >= best - 1e-12)
        tgt = target.as_array()
        cands = []
        for i, j in zip(ii, jj):
            if i >= j:
                continue
            u = _canonical_direction(diff[i, j], A @ tgt)
            cands.append(tuple(np.round(u, 12)))
        theta_sq = np.asarray(sorted(set(cands))[0])
    elif isinstance(shape, Ball):
        # the image ellipsoid A·B is longest along the top left singular vector of A
        theta_sq = np.linalg.svd(A)[0][:, 0]
    else:
        raise ValueError(f"{type(shape).__name__} is not a supported convex body")

    back = _canonical_direction(A.T @ theta_sq, target.as_array())
    return Direction.of(back)


# -- JSON -----------------------------------------------------------------------


def shape_from_json(obj) -> Shape:
    with decoding("shape"):
        if isinstance(obj, (list, tuple)) and len(obj) == 2:
            # shorthand: [a, b] is the 1-D interval [a, b)
            return IntervalUnion(
                IntervalSet([(Dyadic.parse(str(obj[0])), Dyadic.parse(str(obj[1])))])
            )
        variant = obj["variant"]
        if variant == "ball":
            return Ball(tuple(obj["center"]), obj["radius"])
        if variant == "box":
            return Box(tuple(obj["lo"]), tuple(obj["hi"]))
        if variant == "polygon":
            return Polygon(tuple(tuple(v) for v in obj["vertices"]))
        if variant == "simplex":
            return Simplex(tuple(tuple(v) for v in obj["vertices"]))
        if variant == "interval_union":
            return IntervalUnion(IntervalSet.from_json(obj["intervals"]))
        if variant == "grid":
            return GridShape(obj["n"], tuple(obj["box_lo"]), tuple(obj["box_hi"]), tuple(obj["cubes"]))
        raise ValueError(f"unknown shape variant {variant!r}")
