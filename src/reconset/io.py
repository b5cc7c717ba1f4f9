"""File formats shared by the CLI: JSON artifacts and CSV plot data.

Every artifact is deterministic for fixed inputs and seed: keys are sorted
and no timestamps are embedded, so byte-identical reruns hash identically.
"""

from __future__ import annotations

import csv
import gc
import json
import math
from pathlib import Path

from .errors import decoding

# numpy, .intervals and .profiles are imported by the functions that use
# them, so parse_json and read_json load none of them


# one row of an interval-set artifact, [num_lo, exp_lo, num_hi, exp_hi], laid
# out as json.dumps lays out a list of four integers, on a line of its own
# under a value of the top-level dict
_ROW = "  [%d, %d, %d, %d]"


def write_json(path, obj):
    """Write ``json.dumps(obj, sort_keys=True, indent=1)`` and a newline, with
    each row of an interval set on one line.

    ``obj`` is a dict.  A value of it that is an IntervalSet, as in an
    interval-set artifact, is written as the list of its canonical rows, one
    row per line as ``json.dumps(row)`` lays it out.  The rows are encoded one
    block of ``blocks.BLOCK`` rows at a time, just before that block is
    written, and formatted by one %-format per block: the whole (N, 4) array
    is never formed, and the pure-Python encoder that ``indent`` selects
    never sees the rows.  Standard JSON only: NaN or an infinity raises
    ValueError, and nothing is written.
    """
    # an IntervalSet is the one value that encodes its rows block by block
    sets = {k: v for k, v in obj.items() if hasattr(v, "row_blocks")}
    if sets:
        obj = {**obj, **dict.fromkeys(sets, [])}
    text = json.dumps(obj, sort_keys=True, indent=1, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        done = 0
        for key in sorted(k for k, v in sets.items() if len(v)):
            # a top-level key opens the only line that starts with one space
            # and a quote: deeper lines are indented further, and a string
            # holds no raw newline
            marker = f"\n {json.dumps(key)}: ["
            at = text.index(marker) + len(marker)
            fh.write(text[done:at] + "\n")
            for i, block in enumerate(sets[key].row_blocks()):
                fh.write((",\n" if i else "")
                         + ",\n".join([_ROW] * len(block)) % tuple(block.ravel().tolist()))
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
    -Infinity, and a number beyond the float range, raise ValueError.

    The cyclic garbage collector is off during the one ``json.loads`` call
    and back in its previous state after it.  The millions of row lists of
    an interval-set artifact would otherwise trigger a collection every few
    hundred allocations, about half the parse time; a parsed JSON value is a
    tree, so it holds no cycle to collect.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text, parse_constant=_finite, parse_float=_finite)
    finally:
        if enabled:
            gc.enable()


def read_json(path):
    return parse_json(Path(path).read_text())


def interval_set_artifact(T: IntervalSet, window: Window | None = None, meta: dict | None = None):
    # write_json encodes the rows of T block by block as it writes them
    out = {"kind": "interval_set", "intervals": T}
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


def write_interval_csv(path, T: IntervalSet):
    """The canonical rows of T under a header, as ``write_csv`` writes them,
    one block of ``blocks.BLOCK`` rows at a time: each block is encoded and
    formatted by one %-format just before it is written, so the whole row
    list is never formed."""
    with open(path, "w", newline="") as fh:
        fh.write("num_lo,exp_lo,num_hi,exp_hi\r\n")
        for block in T.row_blocks():
            fh.write("%d,%d,%d,%d\r\n" * len(block) % tuple(block.ravel().tolist()))
