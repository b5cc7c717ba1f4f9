"""Randomized multi-level cube-grid test sets.

Each level i lays two nested grids over an integer box: fine cubes of side
1/n_i and coarse cells of side 1/g_i (both powers of two, with the chain
n_{i-1} | g_i and g_i | n_i).  Independently per coarse cell, a count m_D is
drawn uniformly from {0, ..., floor(p_i (n_i/g_i)^d)} and that many distinct
fine cubes are selected inside the cell; the level sets are combined by
symmetric difference on the finest grid, where measures are exact dyadic
counts.

Randomness is counter-based and owned by this module: the Philox4x64-10
stream keyed by (seed, level, cell) makes every cell independent and the
whole construction reproducible and order-independent.  A cell draws as
numpy's `Generator(Philox(key=...)).integers` would: its count, then the
Fisher-Yates draws k_j on [j, cell_size), by Lemire's rule, a rejected word
skipped for the stream's next one.  numpy's Generator is the tests' oracle.

The copy count r = floor(2 dim_P / (d - b)) + 1 gives the number of
independent sets needed for a family with packing dimension dim_P whose
member boundaries have upper box dimension at most b.
"""

from __future__ import annotations

import json
import math
import zipfile
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyadic import Dyadic
from .errors import decoding


# finest cubes a box may hold: the benchmark's largest grid has 196,608
MAX_CUBES = 1 << 20
# a cell's Philox key is (seed, level << 48 ^ cell): 16 bits of level index
MAX_LEVELS = 1 << 16


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class RandomLevels:
    """Validated level parameters for the random construction."""

    n: tuple  # fine cells per unit, one per level, powers of two
    g: tuple  # coarse cells per unit, powers of two ("log role")
    p: tuple  # densities, strictly decreasing, sum < 1
    box_lo: tuple
    box_hi: tuple

    @property
    def levels(self) -> int:
        return len(self.n)

    @property
    def d(self) -> int:
        return len(self.box_lo)

    @property
    def finest(self) -> int:
        return self.n[-1]

    def box_units(self) -> tuple:
        return tuple(b - a for a, b in zip(self.box_lo, self.box_hi))


def validate_levels(n, g, p, box_lo=(0,), box_hi=(1,)) -> RandomLevels:
    """Check the divisibility chain, monotonicity and the box's MAX_CUBES
    finest cubes; name the failing pair."""
    n = tuple(int(x) for x in n)
    g = tuple(int(x) for x in g)
    p = tuple(float(x) for x in p)
    box_lo = tuple(int(x) for x in box_lo)
    box_hi = tuple(int(x) for x in box_hi)
    if not (len(n) == len(g) == len(p)) or not n:
        raise ValueError("need equal, non-empty n/g/p level lists")
    if len(n) > MAX_LEVELS:
        raise ValueError(f"{len(n)} levels, more than {MAX_LEVELS}")
    if len(box_lo) != len(box_hi) or not box_lo:
        raise ValueError("box_lo/box_hi dimension mismatch")
    if any(b <= a for a, b in zip(box_lo, box_hi)):
        raise ValueError("box needs lo < hi componentwise")
    for i, x in enumerate(n):
        if not _is_pow2(x):
            raise ValueError(f"n[{i}] = {x} is not a power of two")
    for i, x in enumerate(g):
        if not _is_pow2(x):
            raise ValueError(f"g[{i}] = {x} is not a power of two")
    for i in range(len(n)):
        if g[i] > n[i] or n[i] % g[i]:
            raise ValueError(f"g[{i}] = {g[i]} does not divide n[{i}] = {n[i]}")
        if i > 0 and (g[i] % n[i - 1]):
            raise ValueError(
                f"n[{i-1}] = {n[i-1]} does not divide g[{i}] = {g[i]}"
            )
    cubes = math.prod((b - a) * n[-1] for a, b in zip(box_lo, box_hi))
    if cubes > MAX_CUBES:
        raise ValueError(f"the box holds {cubes} finest cubes, more than {MAX_CUBES}")
    for i, x in enumerate(p):
        if not (0.0 < x < 1.0):
            raise ValueError(f"p[{i}] = {x} outside (0, 1)")
    if any(b >= a for a, b in zip(p, p[1:])):
        raise ValueError("densities p must be strictly decreasing")
    if sum(p) >= 1.0:
        raise ValueError("sum of densities must stay below 1")
    return RandomLevels(n, g, p, box_lo, box_hi)


# Philox4x64-10's multipliers and key increments (Salmon et al., SC 2011)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1


def _mulhilo(a: int, b: np.ndarray) -> tuple:
    """The low and high 64-bit words of the 128-bit products a * b, the high
    word summed from 32-bit halves."""
    a0, a1 = np.uint64(a & _M32), np.uint64(a >> 32)
    b0, b1 = b & _M32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return np.uint64(a) * b, a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _philox4x64(key0: np.ndarray, key1: int, ctr: np.ndarray) -> tuple:
    """Philox4x64-10 of the counters (ctr, 0, 0, 0) under the keys
    (key0, key1): the four words numpy's Philox buffers for those blocks."""
    x0, x1, x2, x3 = ctr, np.zeros_like(ctr), np.zeros_like(ctr), np.zeros_like(ctr)
    key1 = int(key1)
    for r in range(10):
        if r:
            key0 = key0 + np.uint64(_PHILOX_W[0])
            key1 = (key1 + _PHILOX_W[1]) & _M64
        lo0, hi0 = _mulhilo(_PHILOX_M[0], x0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ key0, lo1, hi0 ^ x3 ^ np.uint64(key1), lo0
    return x0, x1, x2, x3


def check_seed(seed: int):
    """A seed keys the streams' upper 64 bits: outside [0, 2**64) it raises."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")


def philox_uint32(seed: int, key, pos) -> np.ndarray:
    """uint32 number `pos` of the streams keyed by (seed, key), as numpy's
    Philox(key=seed << 64 | key) hands them out: counters from 1, four words
    a block, each word's low half before its high half."""
    check_seed(seed)
    key, pos = np.array(key, dtype=np.uint64, ndmin=1), np.array(pos, dtype=np.int64, ndmin=1)
    word = np.choose((pos >> 1) & 3, _philox4x64(key, seed, (pos >> 3).astype(np.uint64) + 1))
    return np.where(pos & 1, word >> 32, word & _M32)


def _lemire(x: np.ndarray, r) -> tuple:
    """numpy's draws on [0, r) from the uint32s `x` (Lemire's multiply-shift)
    and whether numpy rejects each x and draws again."""
    r = np.asarray(r, dtype=np.uint64)
    prod = x * r
    rejected = (prod & _M32) < (2**32 - r) % r
    prod >>= 32
    return prod.view(np.int64), rejected


def _skip_rejected(keys, seed: int, w: np.ndarray, pos: np.ndarray, r: np.ndarray, last) -> np.ndarray:
    """numpy's draws on [0, r) from the uint32s w at consecutive positions pos
    of each stream `keys`, last[t] the index of the last draw on t's stream.
    numpy redraws a rejected draw from the next uint32: it and every later
    draw of its stream move one word on, drawn again up to the next rejection."""
    k, rejected = _lemire(w, r)
    end = 0
    for t in np.flatnonzero(rejected).tolist():
        if t < end:
            continue  # its stream is drawn already
        # draw j stands at position base + j on the word w[j] until moved s words on
        end, base, s = last[t] + 1, pos[t] - t, 0
        while t < end:  # draw t is rejected where it stands
            s += 1
            for u in range(t, end, 1 << 12):
                c = min(u + (1 << 12), end)
                pos[u:c] = np.arange(u, c) + base + s
                tail = philox_uint32(seed, keys[t], pos[max(u, end - s) : c]) if c > end - s else w[:0]
                k[u:c], rejected = _lemire(np.concatenate([w[u + s : min(c + s, end)], tail]), r[u:c])
                if rejected.any():
                    t = u + int(rejected.argmax())
                    break
            else:
                t = end
    return k


def _cell_draws(key: np.ndarray, seed: int, at: np.ndarray, m: np.ndarray, cell_size: int) -> list:
    """The draws k_j on [j, cell_size), j < m, that follow the count at
    stream position `at` on each keyed stream, laid end to end."""
    blocks = (at + m + 8) // 8  # a block holds 8 uint32s: positions 0 to at + m
    first = np.cumsum(blocks) - blocks
    ctr = (np.arange(1, blocks.sum() + 1) - np.repeat(first, blocks)).astype(np.uint64)
    words = np.stack(_philox4x64(np.repeat(key, blocks), seed, ctr), axis=1)
    # numpy's next_uint32 hands out a word's low half, then its high half
    stream = words.astype("<u8", copy=False).view("<u4").ravel()
    end = np.cumsum(m)
    j = np.arange(m.sum()) - np.repeat(end - m, m)
    pos = np.repeat(at + 1, m) + j
    w = stream[np.repeat(8 * first, m) + pos]
    k = _skip_rejected(np.repeat(key, m), seed, w, pos, cell_size - j, np.repeat(end - 1, m))
    return (k + j).tolist()


def sample_level(levels: RandomLevels, i: int, seed: int) -> np.ndarray:
    """Select fine cubes for level i; deterministic given (seed, i, cell).

    Returns sorted flat indices into the box-wide fine grid at resolution
    n_i.  Per coarse cell D, m_D is uniform on {0, ..., floor(p (n/g)^d)} and
    the m_D distinct cubes are drawn by a sparse partial Fisher-Yates.  The
    draws are those of numpy's `Generator(Philox(key=seed << 64 | i << 48 ^
    D))`: `.integers(0, m_max + 1)`, then `.integers(np.arange(m_D),
    cell_size)`, computed for every cell at once.
    """
    if not (0 <= i < levels.levels):
        raise IndexError(f"level {i} out of range")
    n, g, p = levels.n[i], levels.g[i], levels.p[i]
    units = levels.box_units()
    sub = n // g  # fine cubes per coarse cell edge
    cell_size = sub**levels.d
    m_max = int(math.floor(p * cell_size))
    coarse_counts = tuple(u * g for u in units)
    key = np.uint64(i << 48) ^ np.arange(math.prod(coarse_counts), dtype=np.uint64)
    # a cell's count takes the first accepted uint32 of its stream, its draws the next
    at = np.zeros(key.size, dtype=np.int64)
    m = _skip_rejected(key, seed, philox_uint32(seed, key, at), at,
                       np.full(key.size, m_max + 1), np.arange(key.size))
    cells = np.flatnonzero(m)
    if not cells.size:
        return np.empty(0, dtype=np.int64)
    counts = m[cells]
    draws = _cell_draws(key[cells], seed, at[cells], counts, cell_size)
    # global fine coordinate = coarse coordinate * sub + offset inside the cell
    coarse = np.unravel_index(np.repeat(cells, counts), coarse_counts)
    offset = np.unravel_index(_fisher_yates(draws, counts.tolist()), (sub,) * levels.d)
    flat = np.ravel_multi_index(
        tuple(c * sub + o for c, o in zip(coarse, offset)), tuple(u * n for u in units)
    )
    return np.sort(flat)


def _fisher_yates(draws: list, counts: list) -> list:
    """The values a partial Fisher-Yates on range(cell_size) selects in each
    cell, from the cell's draws k_j on [j, cell_size), cells laid end to end;
    `draws` is overwritten with them.  Only swapped positions are stored, and
    no step after j reads position j."""
    start = 0
    for m in counts:
        swap: dict[int, int] = {}
        for j, k in enumerate(draws[start : start + m]):
            draws[start + j] = swap.get(k, k)
            swap[k] = swap.get(j, j)
        start += m
    return draws


@dataclass(frozen=True)
class GridSet:
    """Assembled random test set: level selections and their parity union."""

    levels: RandomLevels
    selections: tuple  # per level: sorted fine-cube flat index arrays
    seed: int
    parity: np.ndarray  # boolean d-array on the finest grid

    def measure(self) -> Dyadic:
        count = int(np.count_nonzero(self.parity))
        exp = (self.levels.finest.bit_length() - 1) * self.levels.d
        return Dyadic(count, exp)

    def level_measure(self, i: int) -> Dyadic:
        scale = (self.levels.n[i].bit_length() - 1) * self.levels.d
        return Dyadic(int(self.selections[i].size), scale)

    # -- exact 1-D interval intersections --------------------------------------

    @cached_property
    def runs(self) -> IntervalSet:
        """A 1-D set as an interval set: its runs of selected finest cells."""
        from .intervals import IntervalSet  # here: `random sample` never compiles it

        if self.levels.d != 1:
            raise ValueError("interval intersections need a 1-D grid set")
        edges = np.diff(np.concatenate([[0], self.parity.view(np.int8), [0]]))
        j = self.levels.finest.bit_length() - 1
        lo = self.levels.box_lo[0] << j
        return IntervalSet.from_arrays(
            lo + np.flatnonzero(edges == 1), lo + np.flatnonzero(edges == -1), j
        )


def assemble(levels: RandomLevels, selections, seed: int = -1) -> GridSet:
    """Symmetric difference of the level sets on the finest grid, exactly;
    `seed` is recorded, -1 when the selections were not sampled from one."""
    if len(selections) != levels.levels:
        raise ValueError("need one selection per level")
    d = levels.d
    units = levels.box_units()
    fine = tuple(u * levels.finest for u in units)
    parity = np.zeros(fine, dtype=bool)
    for i, sel in enumerate(selections):
        n_i = levels.n[i]
        counts_i = tuple(u * n_i for u in units)
        level_mask = np.zeros(counts_i, dtype=bool)
        if sel.size:
            level_mask.ravel()[sel] = True
        rep = levels.finest // n_i
        for axis in range(d):
            level_mask = np.repeat(level_mask, rep, axis=axis)
        parity ^= level_mask
    return GridSet(levels, tuple(np.asarray(s, dtype=np.int64) for s in selections), seed, parity)


def sample_grid_set(levels: RandomLevels, seed: int) -> GridSet:
    """Sample every level and assemble; fully determined by (levels, seed),
    a seed in [0, 2**64)."""
    selections = tuple(sample_level(levels, i, seed) for i in range(levels.levels))
    return assemble(levels, selections, seed)


# -- copy counts ---------------------------------------------------------------


@dataclass(frozen=True)
class CopyCount:
    dim_p: float
    d: int
    b: float

    def __post_init__(self):
        if self.dim_p < 0:
            raise ValueError("packing dimension bound must be non-negative")
        if not self.b < self.d:
            raise ValueError(f"boundary dimension b = {self.b} must be < d = {self.d}")


def required_copies(c: CopyCount) -> int:
    """r = floor(2 dim_P / (d - b)) + 1 independent sets."""
    return int(math.floor(2.0 * c.dim_p / (c.d - c.b))) + 1


# -- serialization ----------------------------------------------------------------


def save_grid_set(gs: GridSet, path: str):
    """Binary format: header (levels, box, n, g, p, seed) + per-level sorted
    cube-index arrays."""
    header = {
        "n": list(gs.levels.n),
        "g": list(gs.levels.g),
        "p": list(gs.levels.p),
        "box_lo": list(gs.levels.box_lo),
        "box_hi": list(gs.levels.box_hi),
        "seed": gs.seed,
    }
    arrays = {f"level_{i}": sel for i, sel in enumerate(gs.selections)}
    np.savez_compressed(path, header=json.dumps(header, sort_keys=True), **arrays)


def load_grid_set(path: str) -> GridSet:
    """The grid set save_grid_set wrote to `path`.  An unreadable archive, a
    malformed header or a level that is not a strictly increasing array of
    cube indices in the box raises ValueError naming the file."""
    try:
        # the file is opened here, so a constructor that raises (BadZipFile
        # on a truncated archive) cannot leave it open
        with (
            decoding("grid_set", path),
            open(path, "rb") as f,
            np.load(f, allow_pickle=False) as data,
        ):
            header = json.loads(str(data["header"]))
            levels = validate_levels(
                header["n"], header["g"], header["p"], header["box_lo"], header["box_hi"]
            )
            selections = tuple(
                _cube_indices(data[f"level_{i}"], levels, i, path) for i in range(levels.levels)
            )
            seed = header["seed"]
    # what zipfile and zlib raise on a truncated or corrupted archive (an
    # encrypted member or an unknown compression method: RuntimeError)
    except (zipfile.BadZipFile, zlib.error, EOFError, RuntimeError) as e:
        raise ValueError(f"{path}: unreadable grid_set archive: {e}") from None
    return assemble(levels, selections, seed)


def _cube_indices(sel: np.ndarray, levels: RandomLevels, i: int, path) -> np.ndarray:
    cubes = math.prod(u * levels.n[i] for u in levels.box_units())
    if not (sel.dtype.kind in "iu" and sel.ndim == 1
            and (not sel.size or 0 <= sel.min() and sel.max() < cubes)):
        raise ValueError(f"{path}: level_{i} must be a 1-D array of cube indices in [0, {cubes})")
    sel = sel.astype(np.int64)
    if np.any(np.diff(sel) <= 0):
        raise ValueError(f"{path}: the cube indices of level_{i} must be strictly increasing")
    return sel


def grid_summary(gs: GridSet) -> dict:
    """JSON summary with exact per-level and assembled measures."""
    return {
        "seed": gs.seed,
        "levels": gs.levels.levels,
        "d": gs.levels.d,
        "n": list(gs.levels.n),
        "g": list(gs.levels.g),
        "p": list(gs.levels.p),
        "box_lo": list(gs.levels.box_lo),
        "box_hi": list(gs.levels.box_hi),
        "level_measures": [str(gs.level_measure(i)) for i in range(gs.levels.levels)],
        "measure": str(gs.measure()),
        "cube_counts": [int(s.size) for s in gs.selections],
    }
