"""Bounded blocks for kernels whose temporaries would otherwise scale with n.

A kernel that works on millions of blocks, samples or intervals evaluates its
elementwise steps one block of ``BLOCK`` rows at a time into a preallocated
output, so its peak memory is the output plus a few blocks.  Elementwise
steps give the same bits in any split; a running sum (``cumsum``) is taken
once over the whole output, or seeded with the carry of the blocks before it.

``unique`` is the package's one dedupe of sorted values.
"""

from __future__ import annotations

import numpy as np

BLOCK = 1 << 16


def spans(n: int):
    """(start, stop) of consecutive blocks covering range(n)."""
    for start in range(0, n, BLOCK):
        yield start, min(start + BLOCK, n)


def unique(values) -> np.ndarray:
    """The sorted distinct values of a NaN-free array, flattened: the bits of
    ``np.unique(values)``, whose plain path imports numpy.ma (numpy 2.4).  It
    sorts as np.unique does, so of 0.0 and -0.0 the one sorted first stays."""
    a = np.sort(values, axis=None)
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]
