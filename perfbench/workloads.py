"""The benchmark's workloads: chains of reconset operations and their checks.

A workload is the chains of two scenarios, one after the other.  A scenario
turns the seed into input files, then names the operations of its chain.
Each operation is one fresh process: a ``reconset`` CLI command (``cli``)
or a library call from ``ops.py`` (``py``).  An operation's
``check`` runs on the first chain of a run, outside the timed region, and
returns the properties that failed; later chains must reproduce the first
chain's outputs.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from reconset import io as rio
from reconset.construct import MagnifyCertificate, TranslateCertificate
from reconset.dyadic import Dyadic
from reconset.gridsets import load_grid_set
from reconset.intervals import IntervalSet


@dataclass
class Op:
    stage: str  # construct | verify | report
    kind: str  # cli | py
    args: list
    outputs: tuple = ()  # files written, relative to the chain's directory
    check: Callable | None = None  # (stdout, chain dir) -> problems
    split: bool = False  # stdout marks where construction ends and verification starts


def _wrote(stdout: str, path: str) -> re.Match:
    m = re.search(rf"wrote {re.escape(path)}: (\d+) intervals(?:, measure (\S+))?", stdout)
    if m is None:
        raise ValueError(f"no 'wrote {path}' line in the output")
    return m


def _read_back(d: Path, path: str, stdout: str, cert_cls=None) -> tuple[list, IntervalSet]:
    """The artifact holds the interval count (and measure) the command printed;
    its certificate, if any, rechecks clean and names the same count.
    Returns the problems and the set read back."""
    m = _wrote(stdout, path)
    count = int(m.group(1))
    obj = rio.read_json(d / path)
    T = IntervalSet.from_json(obj["intervals"])
    problems = []
    if len(T) != count:
        problems.append(f"{path}: {len(T)} intervals read back, {count} printed")
    if m.group(2) is not None and str(T.measure()) != m.group(2):
        problems.append(f"{path}: measure {T.measure()} read back, {m.group(2)} printed")
    if cert_cls is not None:
        cert = cert_cls.from_json(obj["certificate"])
        problems += [f"{path}: certificate: {p}" for p in cert.recheck()]
        if cert.interval_count != count:
            problems.append(f"{path}: certificate counts {cert.interval_count} intervals")
    return problems, T


def _passed_report(path: str, instances: int, tests: int, margin: float = 0.0):
    """An injectivity report that passed: no collision, not indeterminate, the
    expected family size and, for quadrature, separation > margin x error."""

    def check(stdout, d):
        rep = rio.read_json(d / path)
        problems = []
        if not rep["passed"] or rep["collisions"] or rep["indeterminate"]:
            problems.append(f"{path}: verdict did not pass")
        if (rep["instances"], rep["tests"]) != (instances, tests):
            problems.append(f"{path}: {rep['instances']} x {rep['tests']}, want {instances} x {tests}")
        if not rep["min_separation"] > margin * rep["quadrature_error"]:
            problems.append(f"{path}: min separation within {margin} x quadrature error")
        return problems

    return check


def _report_lines(*lines):
    def check(stdout, d):
        return [f"report: missing line {line!r}" for line in lines if line not in stdout.splitlines()]

    return check


def _interval_set_file(path: Path, pairs):
    path.write_text(
        json.dumps({"kind": "interval_set", "intervals": [[lo, 6, hi, 6] for lo, hi in pairs]})
    )


def _random_pairs(rng: random.Random, count: int, half_span: int):
    """`count` disjoint intervals with endpoints on the 1/64 grid of
    [-half_span, half_span)."""
    pts = sorted(rng.sample(range(-half_span * 64, half_span * 64), 2 * count))
    return list(zip(pts[0::2], pts[1::2]))


# -- magnify-artifact ---------------------------------------------------------

MAGNIFY_WINDOW = ("-2", "2")
MAGNIFY_SCALES = ("1", "1.25", "1.5", "1.75")


def magnify_artifact(seed: int, work: Path) -> list[Op]:
    # the construction is deterministic; the seed selects nothing here
    state = {}

    def construct_check(stdout, d):
        problems, T = _read_back(d, "Tm.json", stdout, MagnifyCertificate)
        state["line"] = f"intervals: {len(T)}; measure: {T.measure()}"
        return problems

    def verify_check(stdout, d):
        rep = rio.read_json(d / "magnify_report.json")
        ok = rep["passed"] and len(rep["checks"]) == len(MAGNIFY_SCALES)
        return [] if ok else ["magnify_report.json: monotonicity failed"]

    def report_check(stdout, d):
        return _report_lines("kind: interval_set", state.get("line"))(stdout, d)

    scales = [a for s in MAGNIFY_SCALES for a in ("--scale", s)]
    return [
        Op("construct", "cli",
           ["construct", "magnify", "--profile", "disk", "--window", *MAGNIFY_WINDOW,
            "--a-max", "8", "-o", "Tm.json"],
           ("Tm.json",), construct_check),
        Op("verify", "py", ["magnify-verify", "Tm.json", *scales, "-o", "magnify_report.json"],
           ("magnify_report.json",), verify_check),
        Op("report", "cli", ["report", "--input", "Tm.json"], (), report_check),
    ]


# -- exact-verify -------------------------------------------------------------

# the search time depends steeply on the span the sets cover: 1,800 intervals
# in [-64, 64) take 0.2-0.4 s in-process for every seed tried, in [-80, 80)
# 3-5 s, in [-128, 128) 14-17 s
COUNTEREXAMPLE_INTERVALS = 1800
COUNTEREXAMPLE_HALF_SPAN = 64
COUNTEREXAMPLE_TOL = 1e-9


def exact_verify(seed: int, work: Path) -> list[Op]:
    rng = random.Random(seed)
    sets = {}
    for name in ("A", "B"):
        pairs = _random_pairs(rng, COUNTEREXAMPLE_INTERVALS, COUNTEREXAMPLE_HALF_SPAN)
        _interval_set_file(work / f"{name}.json", pairs)
        sets[name] = IntervalSet.from_arrays([lo for lo, _ in pairs], [hi for _, hi in pairs], 6)

    def mono_check(stdout, d):
        rep = rio.read_json(d / "mono.json")
        return [] if rep["passed"] and not rep["violations"] else ["mono.json: not monotone"]

    def counterexample_check(stdout, d):
        """The two intervals are long, distinct, and A and B measure each
        pair equally within the tolerance, re-measured exactly."""
        obj = rio.read_json(d / "ce.json")
        (x1, y1), (x2, y2) = (
            tuple(Dyadic(num, exp) for num, exp in obj[k]) for k in ("first", "second")
        )
        problems = []
        for name, S in sets.items():
            m1 = IntervalSet([(x1, y1)]).intersect(S).measure()
            m2 = IntervalSet([(x2, y2)]).intersect(S).measure()
            if abs(float(m1 - m2)) > COUNTEREXAMPLE_TOL:
                problems.append(f"ce.json: {name} tells the intervals apart")
        if not (float(y1 - x1) > 1.0 and float(y2 - x2) > 1.0):
            problems.append("ce.json: an interval is not longer than 1")
        if max(abs(float(x1 - x2)), abs(float(y1 - y2))) < 100 * COUNTEREXAMPLE_TOL:
            problems.append("ce.json: the intervals coincide")
        return problems

    return [
        Op("construct", "cli",
           ["construct", "interval-union", "--lengths", "1", "--window", "0", "8",
            "--rho", "1/16", "-o", "T.json"],
           ("T.json",), lambda out, d: _read_back(d, "T.json", out)[0]),
        Op("verify", "cli",
           ["verify", "monotonicity", "--test", "T.json", "--shape", "[0,1]",
            "--grid", "0", "6", "1/16", "-o", "mono.json"],
           ("mono.json",), mono_check),
        Op("construct", "cli",
           ["construct", "translate", "--profile", "tent", "--window", "-6", "6", "-o", "Tt.json"],
           ("Tt.json",), lambda out, d: _read_back(d, "Tt.json", out, TranslateCertificate)[0]),
        Op("verify", "cli",
           ["verify", "injectivity", "--x", "0", "1", "1/16", "--length", "1", "2", "1/8",
            "--tests", "T.json", "--tests", "Tt.json", "-o", "inj.json"],
           ("inj.json",), _passed_report("inj.json", 17 * 9, 2)),
        Op("verify", "cli",
           ["search", "two-set-counterexample", "--A", "../A.json", "--B", "../B.json",
            "--min-length", "1", "--tol", str(COUNTEREXAMPLE_TOL), "-o", "ce.json"],
           ("ce.json",), counterexample_check),
        Op("report", "cli", ["report", "--input", "inj.json"], (),
           _report_lines("kind: verification_report", "passed: True", "instances: 153")),
    ]


# -- random-grid --------------------------------------------------------------

GRID_SETS = 5
GRID_LEVELS = ["--n", "512", "--n", "65536", "--g", "64", "--g", "1024",
               "--p", "0.5", "--p", "0.25", "--box", "0", "3"]


def random_grid(seed: int, work: Path) -> list[Op]:
    rng = random.Random(seed)
    seeds = [rng.randrange(2**32) for _ in range(GRID_SETS)]

    def sample_check(path):
        def check(stdout, d):
            m = re.search(rf"wrote {re.escape(path)}: measure (\S+)", stdout)
            got = str(load_grid_set(str(d / path)).measure())
            if m is None or m.group(1) != got:
                return [f"{path}: measure {got} read back, printed line {stdout.strip()!r}"]
            return []

        return check

    ops = [
        Op("construct", "cli",
           ["random", "sample", *GRID_LEVELS, "--seed", str(s), "-o", f"g{i}.npz"],
           (f"g{i}.npz",), sample_check(f"g{i}.npz"))
        for i, s in enumerate(seeds)
    ]
    tests = [a for i in range(GRID_SETS) for a in ("--tests", f"g{i}.npz")]
    ops += [
        Op("verify", "cli",
           ["verify", "injectivity", "--x", "0", "1", "1/64", "--length", "1", "2", "1/64",
            *tests, "-o", "grid_inj.json"],
           ("grid_inj.json",), _passed_report("grid_inj.json", 65 * 65, GRID_SETS)),
        Op("report", "cli", ["report", "--input", "grid_inj.json"], (),
           _report_lines("kind: verification_report", "passed: True", "instances: 4225")),
    ]
    return ops


# -- slab-family --------------------------------------------------------------

SLAB_RESOLUTION = 512
SLAB_GRID = 33


def slab_family(seed: int, work: Path) -> list[Op]:
    def family_check(stdout, d):
        problems = _passed_report("slab_report.json", SLAB_GRID**2, 2, margin=10.0)(stdout, d)
        slabs = rio.read_json(d / "family.json")["slabs"]
        if len(slabs) != 2:
            problems.append(f"family.json: {len(slabs)} slabs, want 2")
        for i, slab in enumerate(slabs):
            cert = TranslateCertificate.from_json(slab["certificate"])
            problems += [f"family.json slab {i}: certificate: {p}" for p in cert.recheck()]
            if cert.interval_count != slab["interval_count"]:
                problems.append(f"family.json slab {i}: certificate count differs")
        return problems

    return [
        Op("verify", "py",
           ["slab-family", "--seed", str(seed), "--resolution", str(SLAB_RESOLUTION),
            "--grid", str(SLAB_GRID), "--family", "family.json", "-o", "slab_report.json"],
           ("family.json", "slab_report.json"), family_check, split=True),
        Op("report", "cli", ["report", "--input", "slab_report.json"], (),
           _report_lines("kind: verification_report", "passed: True", f"instances: {SLAB_GRID**2}")),
    ]


# Two workloads of two scenarios each, not four of one: within the same time
# budget a run then lasts twice as long and averages the machine's speed
# drift over a longer span.  Each workload exercises what the other bypasses
# (see README.md).
WORKLOADS = {
    # interval sets of 150,000-620,000 intervals built and checked, one of
    # them written and read back: construction kernels and artifact I/O
    # carry the time
    "large-sets": (magnify_artifact, slab_family),
    # many small exact queries against small interval sets and grid sets
    "small-queries": (exact_verify, random_grid),
}


def workload_ops(name: str, seed: int, work: Path) -> list[Op]:
    """One chain of the workload: its scenarios' chains, one after the other."""
    return [op for scenario in WORKLOADS[name] for op in scenario(seed, work)]
