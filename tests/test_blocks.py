"""Kernels that run in bounded blocks: the same bits as their whole-array
forms, and a bounded peak of traced memory.

Each oracle below is the whole-array code the blocked kernel replaced,
kept verbatim.  The slow-decay target's antiderivative is a Chebyshev series,
not the Gauss-Legendre block integrals of its oracle: it meets that oracle's
running sum within 1e-13, and its own one-block form bit for bit.  Sizes
straddle the block size B: 1, B-1, B, B+1 and 3B+5.
"""

import gc
import tracemalloc
from itertools import chain

import numpy as np
import pytest

from reconset.analysis import ac_diagnostic
from reconset.blocks import BLOCK
from reconset.construct import SCREEN_CUTOFFS
from reconset.dyadic import Dyadic
from reconset.errors import ExactnessOverflowError
from reconset.intervals import (
    _MAX_BITS,
    IntervalSet,
    _bit_length,
    _canonical,
    _check_bits,
    _decode_rows,
)
from reconset.io import write_csv, write_interval_csv
from reconset.quantize import (
    TIE_DUST,
    TRIM_EXPONENT,
    CellQuantization,
    cells_to_interval_set,
    greedy_mask,
    quantize_cell,
)
from reconset.shapes import Ball, Direction, radon_profile
from reconset import targets
from reconset.targets import LogSquaredDecay, Logistic, _gl_nodes

SIZES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)


# -- whole-array oracles ----------------------------------------------------------


def oracle_greedy_mask(A, n):
    k = np.ceil(n * A[1:] - TIE_DUST)
    k = np.maximum.accumulate(np.maximum(k, 1.0))
    kept = np.diff(np.concatenate([[0.0], k])) > 0.5
    return kept, float(k[-1]) / n - A[-1]


def oracle_interval_arrays(cell):
    kept = cell.kept
    diff = np.diff(np.concatenate([[0], kept.view(np.int8), [0]]))
    starts = np.flatnonzero(diff == 1).astype(np.int64)
    stops = np.flatnonzero(diff == -1).astype(np.int64)
    shift = TRIM_EXPONENT - (cell.n.bit_length() - 1)
    lo0 = cell.lo * cell.n
    lows = (lo0 + starts) << shift
    highs = (lo0 + stops) << shift
    if lows.size and cell.trim.num:
        t = cell.trim.num << (TRIM_EXPONENT - cell.trim.exp)
        first_width = int(highs[0] - lows[0])
        lows[0] += min(t, first_width)
    return lows, highs, TRIM_EXPONENT


def oracle_reduce_exponent(nums, exp):
    if exp == 0 or nums.size == 0:
        return nums, exp if nums.size else 0
    acc = int(np.bitwise_or.reduce(nums.ravel()))
    if acc == 0:
        return nums, 0
    tz = (acc & -acc).bit_length() - 1
    shift = min(tz, exp)
    if shift:
        nums = nums >> shift
        exp -= shift
    return nums, exp


def oracle_normalize_arrays(lows, highs, exp):
    if np.any(lows > highs):
        raise ValueError("interval has lo > hi")
    keep = lows < highs
    lows, highs = lows[keep], highs[keep]
    if lows.size == 0:
        return np.empty((0, 2), dtype=np.int64), 0
    _check_bits(lows)
    _check_bits(highs)
    order = np.argsort(lows, kind="stable")
    lows, highs = lows[order], highs[order]
    run_hi = np.maximum.accumulate(highs)
    starts = np.empty(lows.size, dtype=bool)
    starts[0] = True
    starts[1:] = lows[1:] > run_hi[:-1]
    idx = np.flatnonzero(starts)
    out = np.empty((idx.size, 2), dtype=np.int64)
    out[:, 0] = lows[idx]
    ends = np.append(idx[1:], lows.size)
    out[:, 1] = run_hi[ends - 1]
    return oracle_reduce_exponent(out, exp)


def oracle_cells_to_interval_set(cells):
    lows_all = []
    highs_all = []
    for cell in cells:
        lows, highs, _ = oracle_interval_arrays(cell)
        lows_all.append(lows)
        highs_all.append(highs)
    lows = np.concatenate(lows_all)
    highs = np.concatenate(highs_all)
    keep = lows < highs
    return oracle_normalize_arrays(lows[keep], highs[keep], TRIM_EXPONENT)


def oracle_coverage_knots(T):
    prefix = T._prefix_sums().astype(np.float64) * 2.0 ** (-T.exponent)
    floats = T._nums.astype(np.float64) * 2.0 ** (-T.exponent)
    xs, c = floats.ravel(), np.repeat(prefix, 2)[1:-1]
    areas = np.diff(xs) * (c[:-1] + c[1:]) / 2.0
    return xs, c, np.concatenate([[0.0], np.cumsum(areas)])


def oracle_float_coverage(T, x):
    xs, c, q = oracle_coverage_knots(T)
    idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
    t = x - xs[idx]
    slope = 1 - idx % 2
    val = q[idx] + t * (c[idx] + t * slope / 2.0)
    val = np.where(x <= xs[0], 0.0, val)
    return np.interp(x, xs, c), np.where(x >= xs[-1], q[-1] + (x - xs[-1]) * c[-1], val)


def oracle_log_squared_decay_block_integrals(t, edges):
    edges = np.asarray(edges, dtype=np.float64)
    width = edges[1] - edges[0] if edges.size > 1 else 1.0
    order = 4 if width <= 2.0**-10 else (6 if width <= 2.0**-6 else 16)
    x, w = _gl_nodes(order)
    lo, hi = edges[:-1], edges[1:]
    mid = (lo + hi) / 2.0
    halfw = (hi - lo) / 2.0
    pts = mid[:, None] + halfw[:, None] * x[None, :]
    dvals = t.dphi(pts.ravel()).reshape(pts.shape)
    dsteps = halfw * (dvals @ w)
    moment = halfw * ((pts * dvals) @ w)
    phi0 = float(t.phi(edges[0]))
    phi_edges = phi0 + np.concatenate([[0.0], np.cumsum(dsteps)])
    return hi * phi_edges[1:] - lo * phi_edges[:-1] - moment


def oracle_encode_rows(nums, exp):
    n, e = _canonical(nums, np.full(nums.shape, exp, dtype=np.int64))
    return np.stack([n[:, 0], e[:, 0], n[:, 1], e[:, 1]], axis=1)


def oracle_decode_rows(rows):
    if not (isinstance(rows, list) and set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {4}):
        raise ValueError("interval rows must be [num_lo, exp_lo, num_hi, exp_hi] lists")
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        raise ValueError("interval row entries must be integers")
    try:
        flat = np.fromiter(chain.from_iterable(rows), np.int64, 4 * len(rows))
    except OverflowError:
        raise ExactnessOverflowError("interval row entries exceed int64") from None
    flat = flat.reshape(-1, 4)
    nums, exps = _canonical(flat[:, 0::2], flat[:, 1::2])
    # align: the common exponent, each shift sized before it is made
    exp = int(exps.max(initial=0))
    shift = np.where(nums != 0, exp - exps, 0)
    if np.any(shift > _MAX_BITS - _bit_length(nums)):
        raise ExactnessOverflowError(
            f"endpoints need more than 2**{_MAX_BITS} at exponent {exp}"
        )
    nums = nums << shift
    return nums[:, 0], nums[:, 1], exp


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- bit identity -----------------------------------------------------------------


@pytest.mark.parametrize("size", SIZES)
def test_greedy_mask_matches_whole_array_oracle(size):
    rng = np.random.default_rng(size)
    for A in (
        np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 1.0 / size, size))]),  # runs and gaps
        np.arange(size + 1) / (2 * size),  # ties at every second block
        Logistic(0.5).cell_antiderivative(-2, size),
    ):
        kept, h = greedy_mask(A, size)
        want_kept, want_h = oracle_greedy_mask(A, size)
        assert same_bits(kept, want_kept)
        assert np.float64(h).tobytes() == np.float64(want_h).tobytes()


def _cells(size, seed):
    """Four adjacent cells of `size` blocks with random runs, each ending on
    a kept block: the runs of cells -1 and 0 meet and merge, cell 1 has a
    trim inside its first run, and cell 2 a trim that swallows it."""
    rng = np.random.default_rng(seed)
    cells = []
    for lo, trim in ((-1, 0), (0, 0), (1, 1), (2, 1 << 62)):
        kept = rng.random(size) < 0.6
        kept[0] = kept[-1] = True
        cells.append(CellQuantization(lo, size, kept, Dyadic(trim, TRIM_EXPONENT)))
    return cells


@pytest.mark.parametrize("size", SIZES)
def test_interval_arrays_match_whole_array_oracle(size):
    for cell in _cells(size, size):
        got = cell.interval_arrays()
        want = oracle_interval_arrays(cell)
        assert got[2] == want[2]
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@pytest.mark.parametrize("size", SIZES)
def test_cells_to_interval_set_matches_whole_array_oracle(size):
    cells = _cells(size, size + 2)
    T = cells_to_interval_set(cells)
    nums, exp = oracle_cells_to_interval_set(cells)
    assert T.exponent == exp and same_bits(T._nums, nums)


@pytest.mark.parametrize("size", SIZES)
def test_normalizer_matches_oracle_on_unsorted_overlapping_input(size):
    rng = np.random.default_rng(size + 3)
    lows = rng.integers(-(1 << 20), 1 << 20, size) << 4
    highs = lows + (rng.integers(0, 1 << 12, size) << 4)  # some empty, many overlap
    ends = np.cumsum(rng.integers(1, 1 << 8, 2 * size) << 4)  # sorted and apart
    for lo, hi in ((lows, highs), (np.sort(lows), np.sort(lows) + 16), (ends[0::2], ends[1::2])):
        T = IntervalSet.from_arrays(lo, hi, 10)
        nums, exp = oracle_normalize_arrays(lo, hi, 10)
        assert T.exponent == exp and same_bits(T._nums, nums)


@pytest.mark.parametrize("size", SIZES)
def test_coverage_knots_match_whole_array_oracle(size):
    rng = np.random.default_rng(size + 4)
    ends = np.cumsum(rng.integers(1, 1 << 10, 2 * size)) - (1 << 20)
    T = IntervalSet.from_arrays(ends[0::2], ends[1::2], 12)
    knots = T.to_floats().ravel()
    # at the knots, between them, outside the set, duplicated, and shuffled
    x = np.concatenate([
        knots,
        (knots[:-1] + knots[1:]) / 2.0,
        knots[:7],
        [knots[0] - 1.0, knots[-1] + 1.0, -np.inf, np.inf],
        rng.uniform(knots[0] - 1.0, knots[-1] + 1.0, 1000),
    ])
    rng.shuffle(x)
    for got, want in zip(T.float_coverage(x), oracle_float_coverage(T, x)):
        assert same_bits(got, want)
    grid = x[:12].reshape(3, 4)
    for got, want in zip(T.float_coverage(grid), oracle_float_coverage(T, grid)):
        assert same_bits(got, want)


# widths 2**-16, 2**-12, 2**-8 and 2**-4 take 4, 4, 6 and 16 Gauss-Legendre
# nodes in the oracle; cells 2 and -3 are mirror images (one shell), cell 5
# has no mirror in its window
@pytest.mark.parametrize("width_exp", [16, 12, 8, 4])
@pytest.mark.parametrize("cell", [2, -3, 5])
def test_log_squared_decay_block_integrals_match_whole_array_oracle(width_exp, cell):
    t = LogSquaredDecay()
    n = 1 << width_exp
    got = t.cell_antiderivative(cell, n)
    ints = oracle_log_squared_decay_block_integrals(t, cell + np.arange(n + 1, dtype=np.float64) / n)
    want = np.concatenate([[0.0], np.cumsum(ints)])
    assert np.abs(got - want).max() <= 1e-13


@pytest.mark.parametrize("size", SIZES)
def test_logistic_block_integrals_match_whole_array_oracle(size):
    t = Logistic(0.5)
    edges = -3.0 + np.arange(size + 1, dtype=np.float64) / size
    assert same_bits(t.cell_antiderivative(-3, size), t._anti(edges) - t._anti(-3.0))


@pytest.mark.parametrize("size", SIZES)
def test_log_squared_decay_antiderivative_blocked_matches_whole(monkeypatch, size):
    t = LogSquaredDecay()
    blocked = t.cell_antiderivative(-4, size)
    monkeypatch.setattr(targets, "spans", lambda n: [(0, n)])
    assert same_bits(blocked, t.cell_antiderivative(-4, size))


def _codec_set(size, seed):
    """`size` intervals around 0 at exponent 24, whose endpoints have from 0
    to 30 trailing zero bits, so their canonical exponents vary; 0 is an
    endpoint."""
    rng = np.random.default_rng(seed)
    ends = np.cumsum(rng.integers(1, 1 << 10, 2 * size) << rng.integers(0, 30, 2 * size))
    ends -= ends[size]
    return IntervalSet.from_arrays(ends[0::2], ends[1::2], 24)


def _codec_rows(size, seed):
    """`size` rows as an artifact might hold them: exponents from -6 to 30,
    not canonical (trailing zero bits, negative exponents, zeros with an
    exponent), all alignable."""
    rng = np.random.default_rng(seed)
    rows = np.stack([rng.integers(-(1 << 16), 1 << 16, size), rng.integers(-6, 31, size),
                     rng.integers(-(1 << 16), 1 << 16, size), rng.integers(-6, 31, size)], axis=1)
    rows[::7, 0] <<= 4
    rows[::11, 2] = 0
    return rows.tolist()


@pytest.mark.parametrize("size", SIZES)
def test_row_encoding_matches_whole_array_oracle(size):
    T = _codec_set(size, size + 5)
    want = oracle_encode_rows(T._nums, T.exponent)
    assert size == 1 or len(set(want[:, 1])) > 10  # the canonical exponents vary
    assert same_bits(T.rows(), want)
    blocks = list(T.row_blocks())
    assert max(map(len, blocks)) <= BLOCK and same_bits(np.concatenate(blocks), want)


@pytest.mark.parametrize("size", SIZES)
def test_row_decoding_matches_whole_array_oracle(size):
    rows = _codec_rows(size, size + 6)
    *got, exp = _decode_rows(rows)
    *want, want_exp = oracle_decode_rows(rows)
    assert exp == want_exp and (size == 1 or exp == 30)
    assert all(same_bits(g, w) for g, w in zip(got, want))


def _refusal(decode, rows):
    try:
        decode(rows)
    except (ValueError, ExactnessOverflowError) as e:
        return type(e), str(e)
    pytest.fail("the rows were accepted")


# a bad entry as (column, value), or a bad row as (None, row)
BAD_ROWS = {
    "float": (0, 1.0),
    "string": (2, "1"),
    "bool": (1, True),
    "beyond-int64": (2, 1 << 63),
    "below-int64": (0, -(1 << 63) - 1),
    "fold-overflow": (None, [1 << 40, -30, 1 << 41, -30]),
    "align-overflow": (None, [1 << 50, 0, 3, 40]),
}


@pytest.mark.parametrize("size", SIZES)
def test_row_decoding_refuses_as_the_oracle_at_any_block(size):
    rows = _codec_rows(size, size + 7)
    for column, value in BAD_ROWS.values():
        # the first row, the first of the second block, the last row
        for at in sorted({0, min(BLOCK, size - 1), size - 1}):
            row = rows[at]
            rows[at] = value if column is None else [*row[:column], value, *row[column + 1:]]
            assert _refusal(_decode_rows, rows) == _refusal(oracle_decode_rows, rows)
            rows[at] = row


# -- traced memory ------------------------------------------------------------------


def traced_mib(f, *args):
    """f(*args) under tracemalloc, which sees numpy's buffers: its peak above
    the start and what its result keeps, in MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = f(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - base) / 2**20, (kept - base) / 2**20


def test_ac_diagnostic_memory_budget():
    # 2^20 samples and their FFT peaked at 74.2 MiB on this call whole-array
    # and at 25.8 MiB blocked; the closed form holds one block of frequencies
    p = radon_profile(Ball((0.0, 0.0), 1.0), Direction((1.0, 0.0)), 512)
    _, peak, _ = traced_mib(ac_diagnostic, p, 1.0, SCREEN_CUTOFFS)
    assert peak <= 8.0


@pytest.mark.parametrize(
    "target", [Logistic(0.5), LogSquaredDecay()], ids=["logistic", "log-squared-decay"]
)
def test_quantize_cell_memory_budget(target):
    # the whole-array form peaked at 48.0 MiB on the logistic call, and the
    # slow-decay target's Gauss-Legendre block integrals at 37.0 MiB; the
    # antiderivative (8 MiB), the kept counts (8 MiB) and the mask remain
    _, peak, _ = traced_mib(quantize_cell, target, 4, 2**20)
    assert peak <= 24.0


def test_coverage_knots_memory_budget():
    # on these 600,000 intervals the cached whole-array form kept 32.0 MiB
    # with the set (the int prefix sums and three float knot arrays, 56
    # bytes per interval) and peaked 22.9 MiB above that; each block of
    # float knots is 2 * BLOCK * 8 bytes = 1 MiB
    n = 600_000
    ends = np.arange(2 * n, dtype=np.int64) * 3
    T = IntervalSet.from_arrays(ends[0::2], ends[1::2], 4)
    x = np.linspace(-1.0, ends[-1] / 16 + 1.0, 2000)
    _, _, kept = traced_mib(T.float_coverage, x)
    assert kept <= 8 * (n + 1) / 2**20 + 0.1  # the int prefix sums only
    _, peak, kept = traced_mib(T.float_coverage, x)
    assert kept <= 0.1
    assert peak <= 6 * (2 * BLOCK * 8) / 2**20


@pytest.mark.parametrize("size", (0,) + SIZES[:4])
def test_interval_csv_matches_whole_list_oracle(tmp_path, size):
    T = _codec_set(size, size + 6) if size else IntervalSet.empty()
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_interval_csv(got, T)
    write_csv(want, ["num_lo", "exp_lo", "num_hi", "exp_hi"], T.to_json())
    assert got.read_bytes() == want.read_bytes()


def test_interval_csv_memory_budget(tmp_path):
    # on these 200,000 intervals writing T.to_json() through csv.writer
    # peaked at 36.6 MiB
    T = _codec_set(200_000, 9)
    _, peak, _ = traced_mib(write_interval_csv, tmp_path / "T.csv", T)
    assert peak <= 36.6 / 2


def test_row_codec_memory_budget():
    # on these 1,000,000 intervals the whole-array encoder peaked at 95.4 MiB,
    # 30.5 MiB of it the (N, 4) rows it returns
    T = _codec_set(1_000_000, 8)
    _, peak, _ = traced_mib(T.rows)
    assert peak <= 95.4 / 2
    # on these 400,000 rows the whole-array decoder peaked at 50.4 MiB; the
    # blocked one holds the numerators and exponents read, 12.2 MiB, and a
    # block's temporaries
    rows = _codec_rows(400_000, 9)
    _, peak, _ = traced_mib(_decode_rows, rows)
    assert peak <= 50.4 / 2
