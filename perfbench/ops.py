"""Library-level operations that the ``reconset`` CLI has no command for.

Each runs in its own process, exactly like a CLI command, and follows the
CLI exit-code contract (0 pass, 2 check failed, 3 indeterminate):

    python3 perfbench/ops.py magnify-verify ARTIFACT --scale 1 --scale 1.5 -o REPORT
    python3 perfbench/ops.py slab-family --seed 7 --resolution 512 --grid 33 \
        --family FAMILY -o REPORT

``magnify-verify`` reads a magnification artifact back and checks its
guarantee: b -> ∫_T f((x - b)/a) dx strictly increasing on the artifact's
window, for the disk section profile f and each scale a.

``slab-family`` builds the translate slab family of the unit disk, writes a
summary with each slab's certificate, then verifies injectivity of disk
translates against it.  It prints ``stage construct <time.monotonic()>``
when construction is done, so the caller can split the process wall time.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from reconset import io as rio
from reconset.analysis import sliding_integral
from reconset.construct import FamilyOptions, family_test_sets
from reconset.intervals import IntervalSet, Window
from reconset.shapes import Ball, Direction, radon_profile
from reconset.verify import TranslateFamilyGrid, injectivity_report, monotonicity_report

DISK = Ball((0.0, 0.0), 1.0)
# `reconset construct magnify --profile disk` samples the disk at this resolution
MAGNIFY_PROFILE_RESOLUTION = 8
# spacing of the translations b at which the sliding integral is checked
MAGNIFY_STEP = 1.0 / 256.0


def magnify_verify(artifact: str, scales, output: str) -> int:
    obj = rio.read_json(artifact)
    T = IntervalSet.from_json(obj["intervals"])
    window = Window.from_json(obj["window"])
    prof = radon_profile(DISK, Direction((1.0, 0.0)), MAGNIFY_PROFILE_RESOLUTION)
    s0, s1 = prof.support
    checks = []
    for a in scales:
        b_lo = float(window.lo) - a * s0
        b_hi = float(window.hi) - a * s1
        b = np.arange(b_lo, b_hi + MAGNIFY_STEP / 2, MAGNIFY_STEP)
        rep = monotonicity_report(sliding_integral(prof, T, a, b, window))
        checks.append({"a": a, "points": int(b.size), **rep.to_json()})
    passed = all(c["passed"] for c in checks)
    rio.write_json(
        output, {"kind": "magnification_report", "checks": checks, "passed": passed}
    )
    worst = min(c["min_increment"] for c in checks)
    print(f"scales {len(checks)}, min increment {worst:.6g}, passed {passed}")
    return 0 if passed else 2


def slab_family(seed: int, resolution: int, grid: int, family: str, output: str) -> int:
    slabs = family_test_sets(
        DISK, "translate", FamilyOptions(resolution=resolution, seed=seed)
    )
    rio.write_json(
        family,
        {
            "kind": "slab_family",
            "slabs": [
                {
                    "theta": list(s.theta.theta),
                    "interval_count": len(s.T),
                    "measure": str(s.T.measure()),
                    "window": s.window.to_json(),
                    "certificate": s.certificate.to_json(),
                }
                for s in slabs
            ],
        },
    )
    print(f"stage construct {time.monotonic()!r}", flush=True)
    family_grid = TranslateFamilyGrid(DISK, (-1.0, -1.0), (1.0, 1.0), (grid, grid))
    rep = injectivity_report(family_grid, slabs, resolution=resolution)
    out = {"kind": "verification_report"}
    out.update(rep.to_json())
    rio.write_json(output, out)
    print(
        f"instances {rep.instance_count}, min separation {rep.min_separation:.6g}, "
        f"quadrature error {rep.quadrature_error:.3g}"
    )
    if rep.collisions:
        return 2
    return 3 if rep.indeterminate else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ops.py")
    sub = parser.add_subparsers(dest="op", required=True)
    mv = sub.add_parser("magnify-verify")
    mv.add_argument("artifact")
    mv.add_argument("--scale", type=float, action="append", required=True)
    mv.add_argument("-o", "--output", required=True)
    sf = sub.add_parser("slab-family")
    sf.add_argument("--seed", type=int, required=True)
    sf.add_argument("--resolution", type=int, required=True)
    sf.add_argument("--grid", type=int, required=True)
    sf.add_argument("--family", required=True)
    sf.add_argument("-o", "--output", required=True)
    args = parser.parse_args(argv)
    if args.op == "magnify-verify":
        return magnify_verify(args.artifact, args.scale, args.output)
    return slab_family(args.seed, args.resolution, args.grid, args.family, args.output)


if __name__ == "__main__":
    sys.exit(main())
