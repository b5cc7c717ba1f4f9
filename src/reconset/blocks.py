"""Bounded blocks for kernels whose temporaries would otherwise scale with n.

A kernel that works on millions of blocks, samples or intervals evaluates its
elementwise steps one block of ``BLOCK`` rows at a time into a preallocated
output, so its peak memory is the output plus a few blocks.  Elementwise
steps give the same bits in any split; a running sum (``cumsum``) is taken
once over the whole output, or seeded with the carry of the blocks before it.
"""

from __future__ import annotations

BLOCK = 1 << 16


def spans(n: int):
    """(start, stop) of consecutive blocks covering range(n)."""
    for start in range(0, n, BLOCK):
        yield start, min(start + BLOCK, n)
