import math

import numpy as np
import pytest

from reconset.dyadic import Dyadic
from reconset.errors import WindowExceededError
from reconset.intervals import IntervalSet, Window
from reconset.shapes import (
    Ball,
    Box,
    Direction,
    GridShape,
    IntervalUnion,
    Polygon,
    Pose,
    Simplex,
    SlabTestSet,
    diameter_direction,
    intersection_measures,
    radon_profile,
    shape_from_json,
)

E1 = Direction((1.0, 0.0))
E2 = Direction((0.0, 1.0))
DISK = Ball((0.0, 0.0), 1.0)
SQUARE = Box((0.0, 0.0), (1.0, 1.0))


def mc_section_oracle(shape, theta, t, rng, n=400_000, h=0.02):
    """Monte Carlo slab estimate of the section measure at level t."""
    if isinstance(shape, Ball):
        lo = np.asarray(shape.center) - shape.radius
        hi = np.asarray(shape.center) + shape.radius

        def inside(pts):
            return np.sum((pts - np.asarray(shape.center)) ** 2, axis=1) <= shape.radius**2

    elif isinstance(shape, Box):
        lo = np.asarray(shape.lo)
        hi = np.asarray(shape.hi)

        def inside(pts):
            return np.all((pts >= lo) & (pts <= hi), axis=1)

    else:
        raise TypeError
    pts = rng.uniform(lo, hi, size=(n, len(lo)))
    proj = pts @ theta.as_array()
    band = np.abs(proj - t) < h / 2
    box_vol = float(np.prod(hi - lo))
    return box_vol * np.mean(inside(pts) & band) / h


# -- radon profiles -----------------------------------------------------------


def test_disk_profile_center_value():
    p = radon_profile(DISK, E1, resolution=128)
    assert p(0.0) == pytest.approx(2.0, abs=2e-3)
    rng = np.random.default_rng(11)
    assert p(0.0) == pytest.approx(mc_section_oracle(DISK, E1, 0.0, rng), abs=0.03)


def test_ball3_profile_center_value():
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    th = Direction((0.0, 0.0, 1.0))
    p = radon_profile(ball, th, resolution=128)
    assert p(0.0) == pytest.approx(math.pi, abs=5e-3)
    rng = np.random.default_rng(12)
    assert p(0.0) == pytest.approx(mc_section_oracle(ball, th, 0.0, rng), abs=0.05)


def test_square_axis_profile():
    p = radon_profile(SQUARE, E1)
    assert p(0.5) == pytest.approx(1.0)
    assert p(-0.1) == 0.0 and p(1.1) == 0.0
    assert p.integral() == pytest.approx(1.0)
    assert p.abs_error == 0.0


def test_square_diagonal_profile_is_tent():
    th = Direction.of((1.0, 1.0))
    p = radon_profile(SQUARE, th)
    peak = 1.0 / math.sqrt(2.0)
    assert p(peak) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert p.integral() == pytest.approx(1.0, abs=1e-12)
    assert p.abs_error == 0.0


def test_box3_axis_and_generic():
    box = Box((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
    p = radon_profile(box, Direction((1.0, 0.0, 0.0)))
    assert p(0.5) == pytest.approx(6.0)
    th = Direction.of((1.0, 1.0, 1.0))
    q = radon_profile(box, th, resolution=200)
    assert q.integral() == pytest.approx(box.volume(), rel=1e-9)
    rng = np.random.default_rng(13)
    mid = (q.support[0] + q.support[1]) / 2
    assert q(mid) == pytest.approx(mc_section_oracle(box, th, mid, rng, h=0.05), rel=0.05)


def test_fubini_consistency_all_variants():
    shapes_dirs = [
        (DISK, E1),
        (Ball((0.5, -0.25, 1.0), 1.5), Direction.of((1.0, 2.0, -1.0))),
        (SQUARE, Direction.of((3.0, 1.0))),
        (Polygon(((0, 0), (2, 0), (1, 2))), Direction.of((1.0, 1.0))),
        (Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))), Direction.of((1.0, 1.0, 1.0))),
        (IntervalUnion(IntervalSet([(0, 1), (2, 4)])), Direction((1.0,))),
    ]
    for shape, th in shapes_dirs:
        p = radon_profile(shape, th, resolution=256)
        assert p.integral() == pytest.approx(shape.volume(), rel=1e-6), type(shape)


def test_translation_covariance():
    v = (0.75, -0.5)
    th = Direction.of((2.0, 1.0))
    p0 = radon_profile(DISK, th, resolution=64)
    moved = Ball(tuple(c + w for c, w in zip(DISK.center, v)), DISK.radius)
    p1 = radon_profile(moved, th, resolution=64)
    shift = th.dot(v)
    assert np.allclose(p1.xs, p0.xs + shift, atol=1e-12)
    assert np.allclose(p1.vl, p0.vl, atol=1e-12)


def test_scaling_covariance():
    r = 2.5
    th = Direction.of((1.0, 3.0))
    p1 = radon_profile(DISK, th, resolution=64)
    p2 = radon_profile(Ball((0.0, 0.0), r), th, resolution=64)
    ts = np.linspace(-r + 1e-9, r - 1e-9, 41)
    assert np.allclose(p2(ts), r * p1(ts / r), atol=1e-9)


def test_polygon_profile_breakpoints_at_projected_vertices():
    poly = Polygon(((0, 0), (3, 0), (3, 1), (1, 2)))
    th = Direction.of((1.0, 0.5))
    p = radon_profile(poly, th)
    projs = sorted({round(th.dot(v), 12) for v in poly.vertices})
    assert np.allclose(p.xs, projs)
    assert p.integral() == pytest.approx(poly.volume(), rel=1e-12)


def test_grid_profile_axis():
    g = GridShape(2, (0, 0), (1, 1), cubes=(0, 3))  # two diagonal cells of a 2x2 grid
    p = radon_profile(g, E1)
    assert p(0.25) == pytest.approx(0.5)
    assert p(0.75) == pytest.approx(0.5)
    assert p.integral() == pytest.approx(g.volume())
    with pytest.raises(NotImplementedError):
        radon_profile(g, Direction.of((1.0, 1.0)))


def test_interval_union_profile_mirrored():
    iu = IntervalUnion(IntervalSet([(0, 1), (2, 3)]))
    p = radon_profile(iu, Direction((-1.0,)))
    assert p(-0.5) == 1.0
    assert p(-1.5) == 0.0
    assert p(-2.5) == 1.0


# -- slab lifting and intersection measures -------------------------------------


def test_slab_lift_and_validation():
    T = IntervalSet([(0, 1)])
    s = SlabTestSet(E1, T, Window.of(-4, 4))
    assert not s.full_space
    with pytest.raises(ValueError):
        Direction((1.0, 1.0))
    f = SlabTestSet.full()
    assert f.full_space


def test_intersection_measure_square_examples():
    T = IntervalSet([(0, 1)])
    V = SlabTestSet(E1, T, Window.of(-8, 8))
    v1 = intersection_measures(SQUARE, [Pose((0.0, 0.0))], V)[0][0]
    assert v1 == pytest.approx(1.0, abs=1e-12)
    v2 = intersection_measures(SQUARE, [Pose((0.0, 0.0), 2.0)], V)[0][0]
    assert v2 == pytest.approx(2.0, abs=1e-12)


def test_intersection_measure_full_space():
    F = SlabTestSet.full()
    assert intersection_measures(DISK, [Pose((0.3, 0.4), 2.0)], F)[0][0] == pytest.approx(
        4.0 * math.pi
    )
    assert intersection_measures(SQUARE, [Pose((5.0, 5.0), 3.0)], F)[0][0] == pytest.approx(9.0)


def test_intersection_measure_halfplane_offset_disk():
    # disk at (1/2, 0), slab x in [0, 4): covers all but the cap x < 0
    T = IntervalSet([(0, 4)])
    V = SlabTestSet(E1, T, Window.of(-8, 8))
    (val,), (err,) = intersection_measures(
        DISK, [Pose((0.5, 0.0), 1.0)], V, resolution=2048
    )
    # quadrature oracle: area of unit disk right of x = -1/2
    xs = np.linspace(-0.5, 1.0, 300_001)
    chords = 2.0 * np.sqrt(np.maximum(0.0, 1.0 - xs**2))
    oracle = np.trapezoid(chords, xs)
    assert val == pytest.approx(oracle, abs=1e-6)
    assert err < 1e-4


def test_intersection_measure_window_exceeded():
    T = IntervalSet([(0, 1)])
    V = SlabTestSet(E1, T, Window.of(-2, 2))
    with pytest.raises(WindowExceededError) as ei:
        intersection_measures(SQUARE, [Pose((5.0, 0.0), 1.0)], V)
    assert ei.value.required_hi > 2


def test_intersection_measure_scaling_identity():
    # r^d * vol scaling for the full-space sentinel at several r
    for r in (1.0, 1.5, 3.0):
        got = intersection_measures(DISK, [Pose((0.0, 0.0), r)], SlabTestSet.full())[0][0]
        assert got == pytest.approx(r**2 * math.pi, rel=1e-12)


def test_intersection_measure_against_grid_mc():
    # slab in a non-axis direction vs a 2-D Monte Carlo oracle
    th = Direction.of((1.0, 1.0))
    T = IntervalSet([(0, 1)])
    V = SlabTestSet(th, T, Window.of(-6, 6))
    pose = Pose((0.25, -0.125), 1.0)
    val = intersection_measures(DISK, [pose], V, resolution=1024)[0][0]
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1, 1, size=(2_000_000, 2))
    inside = np.sum(pts**2, axis=1) <= 1.0
    shifted = pts + np.asarray(pose.translation)
    proj = shifted @ th.as_array()
    hit = inside & (proj >= 0.0) & (proj < 1.0)
    mc = 4.0 * np.mean(hit)
    assert val == pytest.approx(mc, abs=3e-3)


# -- diameter directions ----------------------------------------------------------


def test_diameter_disk_any():
    th = diameter_direction(DISK, 1.0, E2)
    assert np.linalg.norm(th.as_array()) == pytest.approx(1.0)


def test_diameter_square_diagonal():
    th = diameter_direction(SQUARE, 1.0, E2)
    v = np.abs(th.as_array())
    assert np.allclose(v, [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_diameter_square_squeezed_near_target():
    th = diameter_direction(SQUARE, 1.0 / 8.0, E2)
    assert np.linalg.norm(th.as_array() - np.array([0.0, 1.0])) <= 0.05


def test_diameter_ball_squeezed_matches_target():
    th = diameter_direction(Ball((3.0, -1.0), 2.0), 0.25, E2)
    assert np.linalg.norm(th.as_array() - np.array([0.0, 1.0])) <= 1e-8


def test_diameter_rejects_nonconvex():
    noncvx = Polygon(((0, 0), (4, 0), (4, 3), (2, 1), (0, 3)))
    with pytest.raises(ValueError):
        diameter_direction(noncvx, 0.5, E2)


def test_diameter_tilted_target():
    tgt = Direction.of((1.0, 1.0))
    th = diameter_direction(DISK, 0.125, tgt)
    assert np.linalg.norm(th.as_array() - tgt.as_array()) <= 1e-8


# -- shape JSON ----------------------------------------------------------------


def test_shape_json_roundtrip():
    cases = [
        ({"variant": "ball", "center": [0.0, 0.0], "radius": 1.0}, DISK),
        ({"variant": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}, SQUARE),
        ({"variant": "polygon", "vertices": [[0, 0], [2, 0], [1, 2]]},
         Polygon(((0, 0), (2, 0), (1, 2)))),
        ({"variant": "simplex", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
         Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))),
        ({"variant": "interval_union", "intervals": [[0, 0, 1, 0], [2, 0, 3, 0]]},
         IntervalUnion(IntervalSet([(0, 1), (2, 3)]))),
        ({"variant": "grid", "n": 4, "box_lo": [0, 0], "box_hi": [1, 1], "cubes": [0, 5, 9]},
         GridShape(4, (0, 0), (1, 1), cubes=(0, 5, 9))),
    ]
    for obj, shape in cases:
        assert shape_from_json(obj) == shape


def test_shape_shorthand_interval():
    s = shape_from_json([0, 1])
    assert isinstance(s, IntervalUnion)
    assert s.S == IntervalSet([(0, 1)])


def test_volumes():
    assert DISK.volume() == pytest.approx(math.pi)
    assert Ball((0, 0, 0), 2.0).volume() == pytest.approx(4 / 3 * math.pi * 8)
    assert SQUARE.volume() == 1.0
    assert Polygon(((0, 0), (2, 0), (1, 2))).volume() == pytest.approx(2.0)
    assert Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))).volume() == pytest.approx(1 / 6)
    assert GridShape(2, (0, 0), (1, 1), cubes=(0,)).volume() == 0.25


def test_pose_validation():
    with pytest.raises(ValueError):
        Pose((0.0, 0.0), 0.5)
    p = Pose((0.0, 0.0, 0.0))
    assert p.magnification == 1.0 and p.translation == (0.0, 0.0, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="translation"):
            Pose((0.0, bad), 1.0)
        with pytest.raises(ValueError, match="magnification"):
            Pose((0.0, 0.0), bad)


@pytest.mark.filterwarnings("ignore:overflow encountered in dot")
def test_overflowing_offset_refused():
    # finite poses whose offset <x, theta> overflows to inf are refused, not
    # reported as a window overrun
    V = SlabTestSet(Direction.of((1.0, 1.0)), IntervalSet([(0, 1)]), Window.of(-4, 4))
    with pytest.raises(ValueError, match="offsets"):
        intersection_measures(SQUARE, [Pose((1.5e308, 1.5e308), 1.0)], V)


def test_polygon_validation():
    with pytest.raises(ValueError, match="counterclockwise"):
        Polygon(((0, 0), (0, 1), (1, 0)))  # clockwise
    with pytest.raises(ValueError, match="simple"):
        Polygon(((0, 0), (4, 0), (1, 2), (3, 2)))  # self-intersecting
    assert Polygon(((0, 0), (1, 0), (0, 1))).is_convex()
    assert not Polygon(((0, 0), (4, 0), (4, 3), (2, 1), (0, 3))).is_convex()


def test_empty_slab_measures_zero():
    V = SlabTestSet(E2, IntervalSet([]), Window.of(-4, 4))
    assert intersection_measures(SQUARE, [Pose((0.0, 0.0))], V)[0][0] == 0.0


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: Ball((0.0, 0.0), math.nan), "radius"),
        (lambda: Ball((math.nan, 0.0), 1.0), "center"),
        (lambda: Ball((0.0, 0.0), math.inf), "radius"),
        (lambda: Box((math.nan, 0.0), (1.0, 1.0)), "box corner"),
        (lambda: Polygon(((0.0, 0.0), (1.0, math.nan), (0.0, 1.0))), "polygon vertex"),
        (lambda: Simplex(((0.0, 0.0), (1.0, 0.0), (math.nan, 1.0))), "simplex vertex"),
    ],
    ids=["ball-nan-radius", "ball-nan-center", "ball-inf-radius", "box-nan-corner",
         "polygon-nan-vertex", "simplex-nan-vertex"],
)
def test_shape_refuses_non_finite(build, what):
    # each was accepted before, with a NaN or infinite volume
    with pytest.raises(ValueError, match=f"{what} must be (positive and )?finite"):
        build()
