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

# numpy, .intervals and .profiles are imported by the functions that use
# them, so parse_json and read_json load none of them


# one row of an int64 (N, 4) array, laid out as json.dumps(indent=1) lays out
# a list of four integers held by a value of the top-level dict
_ROW = "  [\n   %d,\n   %d,\n   %d,\n   %d\n  ]"
# rows formatted per write: the Python ints and text of one block stay a few
# MB, where a whole 2.8M-row artifact at once would take ~250 MB more
_ROWS_PER_WRITE = 1 << 16


def _is_rows(value) -> bool:
    import numpy as np

    return isinstance(value, np.ndarray) and value.dtype == np.int64 and value.shape[1:] == (4,)


def write_json(path, obj):
    """Write ``json.dumps(obj, sort_keys=True, indent=1)`` and a newline.

    ``obj`` is a dict.  A value of it that is an int64 (N, 4) array, such as the
    rows of an interval-set artifact, is written as the list of its rows, in
    the same layout, from one %-format per block of rows: the pure-Python
    encoder that ``indent`` selects never walks the rows.  Standard JSON
    only: NaN or an infinity raises ValueError, and nothing is written.
    """
    rows = {k: v for k, v in obj.items() if _is_rows(v)}
    if rows:
        obj = {**obj, **dict.fromkeys(rows, [])}
    text = json.dumps(obj, sort_keys=True, indent=1, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        done = 0
        for key in sorted(k for k, v in rows.items() if len(v)):
            # a top-level key opens the only line that starts with one space
            # and a quote: deeper lines are indented further, and a string
            # holds no raw newline
            marker = f"\n {json.dumps(key)}: ["
            at = text.index(marker) + len(marker)
            fh.write(text[done:at] + "\n")
            block = rows[key]
            for i in range(0, len(block), _ROWS_PER_WRITE):
                chunk = block[i:i + _ROWS_PER_WRITE]
                fh.write((",\n" if i else "")
                         + ",\n".join([_ROW] * len(chunk)) % tuple(chunk.ravel().tolist()))
            fh.write("\n ")
            done = at
        fh.write(text[done:])


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
    out = {"kind": "interval_set", "intervals": T.rows()}
    if window is not None:
        out["window"] = window.to_json()
    if meta:
        out["meta"] = meta
    return out


def load_interval_set(path) -> tuple[IntervalSet, Window | None]:
    return decode_interval_set(read_json(path), path)


def decode_interval_set(obj, path) -> tuple[IntervalSet, Window | None]:
    """An interval-set artifact, or a bare list of intervals, read from `path`."""
    from .intervals import IntervalSet, Window

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
    from .profiles import Profile

    with decoding("profile", path):
        if obj.get("kind") not in (None, "profile"):
            raise ValueError(f"{path}: expected a profile artifact")
        return Profile.from_json(obj)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
