"""Norms used to monitor the iteration.

L-infinity is measured as a grid maximum on an oversampled collocation
grid, so every reported value is a certified lower bound on the true
norm. The X-norm stacks L-infinity of the field and of its two images
under the even rational multipliers. A transform reads only the k2 >= 0
half of a coefficient box, so the X-norm applies the multipliers to
that half and builds no full Riesz box. Homogeneous Sobolev norms come
straight from coefficients. Holder regularity is tracked by a
dyadic-block (Besov-type) proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridBudgetExceeded
from .fields import TorusField, good_grid, half_to_grid, to_grid
from .multipliers import _kgrids, _knorm, require_mean_zero, riesz_odd_symbol


def _grid_side(K: int, oversample: int, grid_cap) -> int:
    """Side of the grid `linf` samples a band-K field on."""
    if oversample < 2:
        raise ValueError(f"oversample must be >= 2, got {oversample}")
    minimal = 2 * K + 2
    candidates = [good_grid(s * minimal) for s in range(oversample, 1, -1)]
    candidates.append(minimal)
    for N in candidates:
        if grid_cap is None or N <= grid_cap:
            return N
    raise GridBudgetExceeded(
        f"band {K} needs a {minimal}-point axis, cap is {grid_cap}")


def _max_abs(g) -> float:
    # the float np.abs(g).max() gives, with no |g| grid
    return float(np.abs([g.max(), g.min()]).max())


def linf(f: TorusField, oversample: int = 4, grid_cap=None) -> float:
    """Max of |f| over an oversampled collocation grid (a lower bound
    on the true sup). When a cap is given the oversampling degrades one
    notch at a time down to the minimal alias-free grid before giving
    up."""
    N = _grid_side(f.band, oversample, grid_cap)
    if f.band == 0:
        return abs(f.coeffs[0, 0].real)
    return _max_abs(to_grid(f, N))


def x_norm(q: TorusField, oversample: int = 4, grid_cap=None, sup=None) -> float:
    """‖q‖∞ + ‖m_1 q‖∞ + ‖m_2 q‖∞ with the even rational multipliers.
    `sup` passes linf(q, oversample, grid_cap) when it is already known.

    The transforms read only the k2 >= 0 half of a box, so m_j is
    evaluated on q's half alone and passed to `half_to_grid`: no m_j q
    box is built, and each term is bit for bit linf(riesz_odd(q, j))."""
    require_mean_zero(q, "x_norm")
    total = linf(q, oversample, grid_cap) if sup is None else sup
    K = q.band
    N = _grid_side(K, oversample, grid_cap)
    if K == 0:
        return total  # a band-0 mean-zero q is 0, and so is m_j q
    k1, k2 = _kgrids(K)
    half = q.coeffs[:, K:]
    for j in (1, 2):
        total += _max_abs(half_to_grid(half * riesz_odd_symbol(j, k1, k2[:, K:]), N))
    return total


def sobolev(f: TorusField, s: float) -> float:
    """Homogeneous Sobolev norm (sum over k != 0 of |k|^{2s} |c(k)|^2)^{1/2}.
    Negative s requires a mean-zero field."""
    s = float(s)
    if s < 0:
        require_mean_zero(f, f"sobolev s={s:g}")
    kn = _knorm(f.band)
    mask = kn > 0
    if not mask.any():
        return 0.0
    w = kn[mask] ** (2.0 * s)
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs[mask]) ** 2)))


@dataclass(frozen=True)
class DyadicBlock:
    """Spectral annulus: j = 0 holds |k| <= 1, j >= 1 holds
    2^{j-1} < |k| <= 2^j; together they partition the lattice."""

    j: int
    part: TorusField


def dyadic_blocks(f: TorusField) -> list[DyadicBlock]:
    """Split f into its dyadic annuli (empty blocks are skipped)."""
    K = f.band
    kn = _knorm(K)
    jmax = 0 if K == 0 else max(0, math.ceil(math.log2(math.hypot(K, K))))
    out = []
    for j in range(jmax + 1):
        if j == 0:
            mask = kn <= 1.0
        else:
            mask = (kn > 2.0 ** (j - 1)) & (kn <= 2.0 ** j)
        c = np.where(mask, f.coeffs, 0.0)
        if not np.any(c):
            continue
        out.append(DyadicBlock(j=j, part=TorusField._exact(c).trim()))
    return out


def holder_besov(f: TorusField, alpha: float, oversample: int = 4,
                 grid_cap=None) -> float:
    """C^alpha proxy: sup_j 2^{j alpha} ‖block_j f‖∞ over the dyadic
    blocks. Requires 0 < alpha < 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    best = 0.0
    for blk in dyadic_blocks(f):
        best = max(best, 2.0 ** (blk.j * alpha) * linf(blk.part, oversample, grid_cap))
    return best
