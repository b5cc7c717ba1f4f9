"""File formats shared by the CLI: JSON artifacts and CSV plot data.

Every artifact is deterministic for fixed inputs and seed: keys are sorted
and no timestamps are embedded, so byte-identical reruns hash identically.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .errors import decoding
from .intervals import IntervalSet, Window
from .profiles import Profile


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def interval_set_artifact(T: IntervalSet, window: Window | None = None, meta: dict | None = None):
    out = {"kind": "interval_set", "intervals": T.to_json()}
    if window is not None:
        out["window"] = window.to_json()
    if meta:
        out["meta"] = meta
    return out


def load_interval_set(path) -> tuple[IntervalSet, Window | None]:
    return decode_interval_set(read_json(path), path)


def decode_interval_set(obj, path) -> tuple[IntervalSet, Window | None]:
    """An interval-set artifact, or a bare list of intervals, read from `path`."""
    with decoding("interval_set", path):
        if isinstance(obj, list):
            return IntervalSet.from_json(obj), None
        if obj.get("kind") not in (None, "interval_set"):
            raise ValueError(f"{path}: expected an interval-set artifact")
        window = Window.from_json(obj["window"]) if obj.get("window") else None
        return IntervalSet.from_json(obj["intervals"]), window


def slab_artifact(slab) -> dict:
    if slab.full_space:
        return {"kind": "slab", "full_space": True}
    out = {
        "kind": "slab",
        "full_space": False,
        "theta": list(slab.theta.theta),
        "intervals": slab.T.to_json(),
        "window": slab.window.to_json(),
    }
    if slab.certificate is not None:
        out["certificate"] = slab.certificate.to_json()
    return out


def load_slab(path):
    from .shapes import Direction, SlabTestSet

    obj = read_json(path)
    with decoding("slab", path):
        if obj.get("kind") != "slab":
            raise ValueError(f"{path}: expected a slab artifact")
        if obj.get("full_space"):
            return SlabTestSet.full()
        return SlabTestSet(
            Direction(tuple(obj["theta"])),
            IntervalSet.from_json(obj["intervals"]),
            Window.from_json(obj["window"]),
        )


def profile_artifact(p: Profile, meta: dict | None = None) -> dict:
    out = {"kind": "profile"}
    out.update(p.to_json())
    if meta:
        out["meta"] = meta
    return out


def load_profile(path) -> Profile:
    return decode_profile(read_json(path), path)


def decode_profile(obj, path) -> Profile:
    """A profile artifact read from `path`."""
    with decoding("profile", path):
        if obj.get("kind") not in (None, "profile"):
            raise ValueError(f"{path}: expected a profile artifact")
        return Profile.from_json(obj)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
