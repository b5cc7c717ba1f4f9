"""File formats shared by the CLI: JSON artifacts and CSV plot data.

Every artifact is deterministic for fixed inputs and seed: keys are sorted
and no timestamps are embedded, so byte-identical reruns hash identically.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .errors import decoding
from .intervals import IntervalSet, Window
from .profiles import Profile


def write_json(path, obj):
    """Standard JSON only: NaN or an infinity raises ValueError."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1, allow_nan=False) + "\n")


def _finite(text):
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} is not a finite number")
    return x


def parse_json(text: str):
    """Standard JSON with finite numbers only: the tokens NaN, Infinity and
    -Infinity, and a number beyond the float range, raise ValueError."""
    return json.loads(text, parse_constant=_finite, parse_float=_finite)


def read_json(path):
    return parse_json(Path(path).read_text())


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
