import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconset import gridsets
from reconset.dyadic import Dyadic
from reconset.gridsets import (
    MAX_LEVELS,
    CopyCount,
    GridSet,
    RandomLevels,
    _philox,
    _fisher_yates,
    assemble,
    grid_summary,
    load_grid_set,
    required_copies,
    sample_grid_set,
    sample_level,
    save_grid_set,
    validate_levels,
)


def test_validate_levels_examples():
    lv = validate_levels((4, 256), (4, 8), (0.5, 0.25), (0,), (1,))
    assert lv.levels == 2 and lv.finest == 256
    validate_levels((16,), (4,), (0.25,))
    with pytest.raises(ValueError, match="power of two"):
        validate_levels((8, 64), (8, 6), (0.5, 0.25))
    with pytest.raises(ValueError, match="does not divide"):
        validate_levels((8, 64), (16, 64), (0.5, 0.25))  # g0 = 16 > n0 = 8


def test_validate_levels_bounds_the_finest_cubes():
    # exactly 2**20 finest cubes pass, in one dimension and in two
    assert validate_levels((1 << 20,), (64,), (0.5,)).finest == 1 << 20
    validate_levels((512,), (64,), (0.5,), (0, 0), (2, 2))
    with pytest.raises(ValueError, match="1572864 finest cubes"):
        validate_levels((512,), (64,), (0.5,), (0, 0), (2, 3))


def test_validate_levels_bounds_the_level_count():
    # a level index keys 16 bits: level 2**16 would share the streams of seed + 1
    assert _philox(5, 1 << 16, 7).integers(0, 1 << 62, 4).tolist() == (
        _philox(4, 0, 7).integers(0, 1 << 62, 4).tolist())
    p = [(MAX_LEVELS + 1 - k) * 1e-11 for k in range(MAX_LEVELS + 1)]
    assert validate_levels((4,) * MAX_LEVELS, (4,) * MAX_LEVELS, p[1:]).levels == MAX_LEVELS
    with pytest.raises(ValueError, match="65537 levels, more than 65536"):
        validate_levels((4,) * (MAX_LEVELS + 1), (4,) * (MAX_LEVELS + 1), p)


def test_validate_levels_chain_violation():
    # g1 = 4 not divisible by n0 = 8
    with pytest.raises(ValueError, match="n\\[0\\]"):
        validate_levels((8, 64), (8, 4), (0.5, 0.25))
    with pytest.raises(ValueError, match="decreasing"):
        validate_levels((4, 256), (4, 8), (0.25, 0.5))
    with pytest.raises(ValueError, match="below 1"):
        validate_levels((4, 256), (4, 8), (0.6, 0.5))


def test_determinism_same_seed():
    lv = validate_levels((64,), (8,), (0.5,), (0,), (2,))
    a = sample_level(lv, 0, seed=123)
    b = sample_level(lv, 0, seed=123)
    assert np.array_equal(a, b)
    c = sample_level(lv, 0, seed=124)
    assert not np.array_equal(a, c)


def test_grid_set_reproducible():
    lv = validate_levels((16, 256), (16, 32), (0.5, 0.125), (0,), (1,))
    g1 = sample_grid_set(lv, 7)
    g2 = sample_grid_set(lv, 7)
    assert np.array_equal(g1.parity, g2.parity)
    assert g1.measure() == g2.measure()


def test_density_close_to_half_p():
    # expected fine-cube density per coarse cell ~ p/2 within 3 std errors
    p = 0.5
    lv = validate_levels((256,), (16,), (p,), (0,), (4,))  # 64 coarse cells
    dens = []
    for seed in range(160):
        sel = sample_level(lv, 0, seed=seed)
        dens.append(sel.size / (4 * 256))
    mean = float(np.mean(dens))
    # per-cell count is uniform {0..M}, M = p*(n/g) = 8: mean 4, var ~ M^2/12
    cells = 64 * 160
    se = (8 / np.sqrt(12.0)) / 16.0 / np.sqrt(cells)
    assert abs(mean - p / 2.0) <= 3.0 * se + 1.0 / 16.0 / 8.0  # + discretization of floor


def test_degenerate_density_empty_possible():
    # p (n/g)^d < 1 forces m_D = 0 always
    lv = validate_levels((4,), (4,), (0.5,), (0,), (1,))
    assert sample_level(lv, 0, seed=0).size == 0


def _sample_level_oracle(levels, i, seed):
    """sample_level with one scalar draw per Fisher-Yates step and hand-written
    unravelling of the coarse cell and of the offset inside it."""
    n, g, p = levels.n[i], levels.g[i], levels.p[i]
    d = levels.d
    sub = n // g
    cell_size = sub**d
    m_max = int(math.floor(p * cell_size))
    coarse_counts = tuple(u * g for u in levels.box_units())
    fine_counts = tuple(u * n for u in levels.box_units())
    picks = []
    for cell in range(int(np.prod(coarse_counts))):
        rng = _philox(seed, i, cell)
        m = int(rng.integers(0, m_max + 1))
        if m == 0:
            continue
        local = _fisher_yates_oracle(rng, cell_size, m)
        rem, coarse = cell, []
        for size in reversed(coarse_counts):
            coarse.append(rem % size)
            rem //= size
        coarse.reverse()
        for v in local:
            offset = []
            for _ in range(d):
                offset.append(v % sub)
                v //= sub
            offset.reverse()
            flat = 0
            for k in range(d):
                flat = flat * fine_counts[k] + coarse[k] * sub + offset[k]
            picks.append(flat)
    return np.array(sorted(picks), dtype=np.int64)


def _fisher_yates_oracle(rng, n, m):
    swap, out = {}, []
    for j in range(m):
        k = int(rng.integers(j, n))
        vj, vk = swap.get(j, j), swap.get(k, k)
        out.append(vk)
        swap[k], swap[j] = vj, vk
    return out


@pytest.mark.parametrize(
    "levels",
    [
        validate_levels((16, 256), (16, 32), (0.5, 0.125), (-1,), (2,)),
        validate_levels((8, 64), (4, 16), (0.5, 0.25), (0, 0), (2, 1)),
        validate_levels((4, 16), (2, 8), (0.5, 0.25), (0, 0, 0), (1, 2, 1)),
    ],
    ids=["1d", "2d", "3d"],
)
def test_sample_level_matches_scalar_oracle(levels):
    for seed in (0, 1, 7, 2**40 + 3):
        for i in range(levels.levels):
            got = sample_level(levels, i, seed)
            assert got.dtype == np.int64
            assert np.array_equal(got, _sample_level_oracle(levels, i, seed))


@st.composite
def _one_level(draw):
    """A level of a 1-3-D box, possibly offset below 0, with any count bound
    m_max + 1 (1, powers of two among them) and a level index 0-2.
    sample_level reads only level i and the box, so the other levels repeat it."""
    d = draw(st.integers(1, 3))
    e_sub = draw(st.integers(0, 8 // d))
    g = 1 << draw(st.integers(0, 8 // d - e_sub))
    cell_size = 1 << (e_sub * d)
    m_max = draw(st.integers(0, cell_size - 1)
                 | st.sampled_from([(1 << a) - 1 for a in range(e_sub * d + 1)]))
    lo = draw(st.lists(st.integers(-3, 2), min_size=d, max_size=d))
    units = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    copies = draw(st.integers(1, 3))
    levels = RandomLevels(
        (g << e_sub,) * copies, (g,) * copies, ((m_max + 0.5) / cell_size,) * copies,
        tuple(lo), tuple(a + u for a, u in zip(lo, units)),
    )
    return levels, copies - 1


@settings(max_examples=100, deadline=None)
@given(case=_one_level(), seed=st.integers(0, 2**64 - 1))
def test_sample_level_matches_scalar_oracle_on_random_levels(case, seed):
    levels, i = case
    assert np.array_equal(sample_level(levels, i, seed), _sample_level_oracle(levels, i, seed))


def _counting_philox(monkeypatch):
    calls = []
    keyed = gridsets._philox

    def counting(seed, level, cell, rng=None):
        calls.append(cell)
        return keyed(seed, level, cell, rng)

    monkeypatch.setattr(gridsets, "_philox", counting)
    return calls


@pytest.mark.parametrize(
    "args, seed, cell",
    [
        # m_D * cell_size >= 2**32 expects a rejection: the cell goes to numpy whole
        (((1 << 20,), (1,), (0.5,), (0,), (1,)), 3, 0),
        # numpy rejects one of cell 1's 1,750 draws on [j, 2**16)
        (((1 << 16,), (1,), (0.125,), (0,), (16,)), 1, 1),
        # numpy rejects the count draw on [0, 32513)
        (((1 << 15,), (1,), (32512.5 / 32768,), (0,), (1,)), 112826, 0),
    ],
    ids=["one-cell-of-2^20", "draw-rejected", "count-rejected"],
)
def test_rejecting_cells_are_drawn_by_the_keyed_generator(monkeypatch, args, seed, cell):
    levels = validate_levels(*args)
    calls = _counting_philox(monkeypatch)
    got = sample_level(levels, 0, seed)
    assert calls == [cell]
    monkeypatch.undo()
    assert np.array_equal(got, _sample_level_oracle(levels, 0, seed))


def test_benchmark_levels_key_no_generator(monkeypatch):
    # the levels and the five seeds of perfbench's small-queries workload at seed 1
    levels = validate_levels((512, 65536), (64, 1024), (0.5, 0.25), (0,), (3,))
    rng = random.Random(1)
    seeds = [rng.randrange(2**32) for _ in range(5)]
    calls = _counting_philox(monkeypatch)
    for s in seeds:
        sample_grid_set(levels, s)
    assert calls == []


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_outside_64_bits_refused(seed):
    # also where no level draws at all (m_max = 0 on every level)
    for levels in (validate_levels((16,), (4,), (0.5,)), validate_levels((4,), (4,), (0.5,))):
        with pytest.raises(ValueError, match=rf"seed {seed} is outside \[0, 2\*\*64\)"):
            sample_grid_set(levels, seed)
    assert sample_grid_set(validate_levels((16,), (4,), (0.5,)), (1 << 64) - 1).seed == (1 << 64) - 1


@pytest.mark.parametrize("n", [8, 4096, 2**40])
def test_fisher_yates_leaves_stream_where_scalar_draws_would(n):
    for m in sorted({1, min(n, 8), min(n, 300)}):
        a, b = _philox(5, 1, m), _philox(5, 1, m)
        draws = a.integers(np.arange(m), n).tolist()
        assert _fisher_yates(draws, [m]) == _fisher_yates_oracle(b, n, m)
        assert a.integers(0, 2**62) == b.integers(0, 2**62)


def test_assemble_single_level_identity():
    lv = validate_levels((8,), (4,), (0.5,), (0,), (1,))
    sel = sample_level(lv, 0, seed=3)
    gs = assemble(lv, (sel,))
    assert int(np.count_nonzero(gs.parity)) == sel.size


def test_symmdiff_cancels_identical():
    # X △ X = ∅: the same selection at two levels of equal resolution
    lv = validate_levels((4, 4), (4, 4), (0.5, 0.25), (0,), (1,))
    sel = np.array([0, 2, 3], dtype=np.int64)
    gs = assemble(lv, (sel, sel))
    assert gs.measure() == Dyadic(0)


def test_parity_brute_force_oracle_two_levels():
    lv = validate_levels((4, 16), (4, 8), (0.5, 0.25), (0,), (1,))
    rng = np.random.default_rng(0)
    sel0 = np.sort(rng.choice(4, size=2, replace=False)).astype(np.int64)
    sel1 = np.sort(rng.choice(16, size=5, replace=False)).astype(np.int64)
    gs = assemble(lv, (sel0, sel1))
    # brute force on the finest grid
    fine = np.zeros(16, dtype=int)
    for c in sel0:
        fine[c * 4 : (c + 1) * 4] += 1
    for c in sel1:
        fine[c] += 1
    expect = (fine % 2).astype(bool)
    assert np.array_equal(gs.parity, expect)
    assert gs.measure() == Dyadic(int(expect.sum()), 4)


def test_interval_measure_exact():
    lv = validate_levels((16,), (4,), (0.5,), (0,), (1,))
    sel = np.array([0, 1, 5, 8, 9, 10, 15], dtype=np.int64)
    gs = assemble(lv, (sel,))
    # full box
    assert gs.runs.measure_between(0, 1) == Dyadic(7, 4)
    # [0, 1/8) covers cubes 0,1
    assert gs.runs.measure_between(0, Dyadic(1, 3)) == Dyadic(2, 4)
    # partial cell: [0, 1/32) covers half of cube 0
    assert gs.runs.measure_between(0, Dyadic(1, 5)) == Dyadic(1, 5)
    # straddling: [5/16, 9/16): cubes 5,6,7,8 -> 5 and 8 selected
    assert gs.runs.measure_between(Dyadic(5, 4), Dyadic(9, 4)) == Dyadic(2, 4)
    # the same counts from the exact prefix-measure kernel, in 1/16 units
    c, _, e = gs.runs.cumulative_nums([0, 5, 16, 9], 4)
    assert e == 4
    assert (c[2:] - c[:2]).tolist() == [7, 2]


def test_required_copies_examples():
    assert required_copies(CopyCount(2.0, 1, 0.0)) == 5
    assert required_copies(CopyCount(3.0, 2, 1.0)) == 7  # 2k+1 with k = 3
    assert required_copies(CopyCount(1.0, 1, 0.0)) == 3
    with pytest.raises(ValueError):
        CopyCount(1.0, 1, 1.0)


def test_save_load_roundtrip(tmp_path):
    lv = validate_levels((16, 64), (16, 16), (0.5, 0.125), (0,), (2,))
    gs = sample_grid_set(lv, 99)
    path = str(tmp_path / "grid.npz")
    save_grid_set(gs, path)
    back = load_grid_set(path)
    assert back.seed == 99
    assert np.array_equal(back.parity, gs.parity)
    summary = grid_summary(back)
    assert summary["measure"] == str(gs.measure())


def test_near_tie_rate_single_level():
    # K, K' differing by one full coarse cell: near-tie frequency over seeds
    # at most 2 g/(p n) (the coarse-count bound with g in the log role)
    n, g, p = 256, 16, 0.5
    lv = validate_levels((n,), (g,), (p,), (0,), (1,))
    lo_k, hi_k = Dyadic(0), Dyadic(1, 1)  # K = [0, 1/2)
    hi_kp = Dyadic(1, 1) + Dyadic(1, 4)  # K' = [0, 1/2 + 1/16): one more coarse cell
    trials = 400
    ties = 0
    thresh = Dyadic(1, 2 + 8)  # 1/(4n) = 2^-10
    for seed in range(trials):
        gs = sample_grid_set(lv, seed)
        a = gs.runs.measure_between(lo_k, hi_k)
        b = gs.runs.measure_between(lo_k, hi_kp)
        if abs(a - b) < thresh:
            ties += 1
    bound = 2.0 * g / (p * n)
    assert ties / trials <= bound


@pytest.mark.parametrize(
    "key", [0, (1 << 64) + 1, (1 << 128) - 1, (3_000_000_007 << 64) ^ (1 << 48) ^ 3263],
    ids=["zero", "two-to-64-plus-1", "two-to-128-minus-1", "benchmark-style"],
)
def test_philox_matches_keyed_constructor(key):
    # fresh, and re-keyed after draws that leave a buffered 32-bit half
    seed, rest = key >> 64, key & ((1 << 64) - 1)
    used = _philox(7, 1, 2)
    used.integers(0, 1 << 62, 5), used.integers(0, 2, 3, dtype=np.uint32)
    for got in (_philox(seed, 0, rest), _philox(seed, 0, rest, used)):
        want = np.random.Generator(np.random.Philox(key=key))
        assert np.array_equal(got.integers(0, 1 << 62, 257), want.integers(0, 1 << 62, 257))
        assert got.integers(0, 5, 3, dtype=np.uint32).tolist() == want.integers(
            0, 5, 3, dtype=np.uint32).tolist()
        assert got.random() == want.random()


def test_philox_refuses_key_out_of_range():
    with pytest.raises(ValueError, match="less than 2"):
        _philox(-1, 0, 0)
    with pytest.raises(ValueError, match="less than 2"):
        _philox(1 << 64, 0, 0)
