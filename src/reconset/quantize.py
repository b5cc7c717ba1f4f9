"""Greedy quantizers: interval sets whose indicator tracks a smooth target.

The block-by-block rule on a unit cell [c, c+1) splits the cell into n equal
blocks (n a power of two) and keeps or skips each block so the running
integral of (chi_T - phi) stays inside [0, 1/n]; a final left trim makes the
cell integral vanish.  With the skip-preferring tie-break the kept-block
count after m blocks equals ceil(n * ∫_c^{c+m/n} phi), which is what the
vectorized implementation uses: it reads the target's antiderivative at the
cell's block edges (`cell_antiderivative`), whose last value is the cell
total that fixes the trim.

Tiling the rule over integer cells with per-shell budgets delta(k) yields a
set T with |∫_a^b (chi_T - phi)| <= delta(floor|a|) + delta(floor|b|) over
the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import Dyadic
from .errors import InfeasibleResolutionError
from .intervals import IntervalSet, Window

TRIM_EXPONENT = 44  # left-trim endpoints snap to 2**-44; cell integrals stay < 1e-12
MAX_BLOCKS_PER_CELL = 1 << 22
TIE_DUST = 1e-12  # n * (running integral) this close above an integer is a tie


def _check_power_of_two(n: int, what: str = "n"):
    if n < 2 or n & (n - 1):
        raise ValueError(f"{what} must be a power of two >= 2, got {n}")


def least_power_of_two_above(x: float) -> int:
    """Smallest power of two strictly greater than x."""
    n = 2
    while n <= x:
        n <<= 1
    return n


def greedy_mask(A: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Vectorized block rule via the kept-count identity k_m = ceil(n A_m),
    A the cell's antiderivative at its n + 1 block edges; A[-1] is the cell
    total that fixes the trim."""
    # k is one n-sized buffer, updated in place
    k = A[1:] * n
    k -= TIE_DUST  # tolerate float dust just above integers
    np.ceil(k, out=k)
    np.maximum(k, 1.0, out=k)  # block 0 is always kept
    np.maximum.accumulate(k, out=k)
    # k holds whole numbers, so a step of k above 0.5 is a strict increase
    kept = np.empty(k.size, dtype=bool)
    kept[:1] = k[:1] > 0.5
    np.greater(k[1:], k[:-1], out=kept[1:])
    return kept, float(k[-1]) / n - float(A[-1])


@dataclass(frozen=True)
class CellQuantization:
    """One quantized unit cell: kept blocks of width 1/n in [lo, lo+1)."""

    lo: int
    n: int
    kept: np.ndarray
    trim: Dyadic  # length removed from the start of the first kept run

    def interval_arrays(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Run-length encode kept blocks into numerators at TRIM_EXPONENT."""
        edge = np.zeros(self.kept.size + 2, dtype=np.int8)
        edge[1:-1] = self.kept
        edge = np.diff(edge)  # +1 where a run starts, -1 one past its end
        shift = TRIM_EXPONENT - (self.n.bit_length() - 1)
        lo0 = self.lo * self.n
        lows = np.flatnonzero(edge == 1).astype(np.int64, copy=False)
        highs = np.flatnonzero(edge == -1).astype(np.int64, copy=False)
        for a in (lows, highs):
            a += lo0
            a <<= shift
        if lows.size and self.trim.num:
            t = self.trim.num << (TRIM_EXPONENT - self.trim.exp)
            first_width = int(highs[0] - lows[0])
            lows[0] += min(t, first_width)
        return lows, highs, TRIM_EXPONENT


def quantize_cell(target, cell_lo: int, n: int) -> CellQuantization:
    """Run the block rule on [cell_lo, cell_lo + 1) with n blocks."""
    _check_power_of_two(n)
    if n > MAX_BLOCKS_PER_CELL:
        raise InfeasibleResolutionError(
            f"cell at {cell_lo} needs {n} blocks (> {MAX_BLOCKS_PER_CELL}); "
            "budgets demand more resolution than the desk-scale cap"
        )
    kept, h = greedy_mask(target.cell_antiderivative(cell_lo, n), n)
    h = min(max(h, 0.0), 1.0 / n)
    trim_num = round(h * (1 << TRIM_EXPONENT))
    return CellQuantization(cell_lo, n, kept, Dyadic(trim_num, TRIM_EXPONENT))


def cells_to_interval_set(cells) -> IntervalSet:
    """The union of the cells' runs; cells in ascending order give the
    normalizer sorted input, which it does not sort again."""
    runs = [cell.interval_arrays()[:2] for cell in cells]
    if not runs:
        return IntervalSet.empty()
    lows = np.concatenate([lo for lo, _ in runs])
    highs = np.concatenate([hi for _, hi in runs])
    del runs
    return IntervalSet.from_arrays(lows, highs, TRIM_EXPONENT)


def greedy_quantizer(target, n: int) -> IntervalSet:
    """Quantize target restricted to [0, 1): kept blocks minus the left trim.

    Guarantees |∫_a^b (chi_T - phi)| <= 4/n for 0 <= a <= b <= 1 and
    ∫_0^1 (chi_T - phi) = 0 up to the trim snap (< 1e-12).
    """
    cell = quantize_cell(target, 0, n)
    return cells_to_interval_set([cell])


def shell_index(cell_lo: int) -> int:
    """Shell of the unit cell [cell_lo, cell_lo+1): floor(|a|) for a inside."""
    return cell_lo if cell_lo >= 0 else -cell_lo - 1


@dataclass(frozen=True)
class ShellBudget:
    """Per-shell quantization budgets delta(k), each in (0, 1)."""

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("shell budget needs at least one shell")
        for k, v in enumerate(self.values):
            if not (0.0 < v < 1.0):
                raise ValueError(f"delta({k}) = {v} outside (0, 1)")

    def __call__(self, k: int) -> float:
        if k >= len(self.values):
            raise IndexError(f"shell {k} beyond budget table (max {len(self.values) - 1})")
        return self.values[k]


def tiled_quantizer(target, delta: ShellBudget, window: Window):
    """Per-cell quantizers over a window with integer endpoints.

    Returns (T, cell_resolutions) where cell_resolutions maps cell start to
    the block count used; the bound |∫_a^b (chi_T - phi)| is
    delta(floor|a|) + delta(floor|b|) for a, b in the window.
    """
    if not (window.lo.is_integer and window.hi.is_integer):
        raise ValueError("tiled quantizer window endpoints must be integers")
    lo, hi = window.lo.num, window.hi.num
    cells = []
    resolutions = {}
    for c in range(lo, hi):
        n = least_power_of_two_above(4.0 / delta(shell_index(c)))
        cells.append(quantize_cell(target, c, n))
        resolutions[c] = n
    return cells_to_interval_set(cells), resolutions


# -- residual evaluation (guarantee checks) ---------------------------------


def quantizer_residual(T: IntervalSet, target, origin: float, points) -> np.ndarray:
    """D(x) = ∫_origin^x (chi_T - phi) at each point, vectorized."""
    pts = np.atleast_1d(np.asarray(points, dtype=np.float64))
    C, _ = T.float_coverage(np.append(pts, origin))
    cover = C[:-1].reshape(pts.shape) - C[-1]
    phi_int = np.asarray(target.integrate_phi(np.full(pts.shape, origin), pts))
    return cover - phi_int

