"""Norms used to monitor the iteration.

L-infinity is measured as a grid maximum on an oversampled collocation
grid, so every reported value is a certified lower bound on the true
norm. A transform reads only the k2 >= 0 half of a coefficient box,
so the one sampler, `linf`, takes a field or that half, and every
sample goes through `fields.to_grid`. The X-norm stacks L-infinity of
the field and of its two images under the even rational multipliers,
applied to q's half: no full Riesz box is built. Holder regularity is
tracked by a Besov-type proxy whose dyadic shells are cut from the
half spectrum. Homogeneous Sobolev norms come straight from
coefficients.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import GridBudgetExceeded
from .fields import TorusField, good_grid, to_grid
from .multipliers import _kgrids, _knorm, require_mean_zero, riesz_odd_symbol


def _grid_side(K: int, oversample: int, grid_cap) -> int:
    """Side of the grid `linf` samples a band-K field on: the first of
    good_grid(s * (2K+2)), s = oversample down to 2, then 2K+2 itself,
    that fits under grid_cap. good_grid(n) >= n, so the search starts at
    the largest s whose grid can fit."""
    if oversample < 2:
        raise ValueError(f"oversample must be >= 2, got {oversample}")
    minimal = 2 * K + 2
    top = oversample if grid_cap is None else min(oversample, grid_cap // minimal)
    for s in range(top, 1, -1):
        N = good_grid(s * minimal)
        if grid_cap is None or N <= grid_cap:
            return N
    if minimal <= grid_cap:  # a None cap has returned above
        return minimal
    raise GridBudgetExceeded(
        f"band {K} needs a {minimal}-point axis, cap is {grid_cap}")


def _max_abs(g) -> float:
    # the float np.abs(g).max() gives, with no |g| grid
    return float(np.abs([g.max(), g.min()]).max())


def linf(f: TorusField | np.ndarray, oversample: int = 4, grid_cap=None) -> float:
    """Max of |f| over an oversampled collocation grid (a lower bound
    on the true sup), f a TorusField or the (2K+1, K+1) array of a
    band-K field's k2 >= 0 coefficients. When a cap is given the
    oversampling degrades one notch at a time down to the minimal
    alias-free grid before giving up."""
    K = f.band if isinstance(f, TorusField) else f.shape[1] - 1
    return _max_abs(to_grid(f, _grid_side(K, oversample, grid_cap)))


@lru_cache(maxsize=1)
def _xnorm_symbols(K):
    """m_1 and m_2 on the k2 >= 0 half of the band-K box. A step
    measures qM3 and q_next, of one band, back to back, so the last band
    alone is kept; `iteration.step` clears it with the |k| grids."""
    k1, k2 = _kgrids(K)
    ms = tuple(riesz_odd_symbol(j, k1, k2[:, K:]) for j in (1, 2))
    for m in ms:
        m.flags.writeable = False
    return ms


def x_norm(q: TorusField, oversample: int = 4, grid_cap=None, sup=None) -> float:
    """‖q‖∞ + ‖m_1 q‖∞ + ‖m_2 q‖∞ with the even rational multipliers.
    `sup` passes linf(q, oversample, grid_cap) when it is already known.

    The transforms read only the k2 >= 0 half of a box, so m_j is
    evaluated on q's half alone and passed to `linf`: no m_j q box is
    built, and each term is bit for bit linf(riesz_odd(q, j))."""
    require_mean_zero(q, "x_norm")
    total = linf(q, oversample, grid_cap) if sup is None else sup
    half = q.coeffs[:, q.band:]
    for m in _xnorm_symbols(q.band):
        total += linf(half * m, oversample, grid_cap)
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


def holder_besov(f: TorusField, alpha: float, oversample: int = 4,
                 grid_cap=None) -> float:
    """C^alpha proxy: sup_j 2^{j alpha} ‖P_j f‖∞ over the dyadic shells,
    j = 0 holding |k| <= 1 and j >= 1 holding 2^{j-1} < |k| <= 2^j.
    Each shell is cut from f's k2 >= 0 half and sampled at the smallest
    band holding it; empty shells are skipped. Requires 0 < alpha < 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    K = f.band
    half = f.coeffs[:, K:]
    kn = _knorm(K)[:, K:]
    jmax = 0 if K == 0 else max(0, math.ceil(math.log2(math.hypot(K, K))))
    best = 0.0
    for j in range(jmax + 1):
        if j == 0:
            mask = kn <= 1.0
        else:
            mask = (kn > 2.0 ** (j - 1)) & (kn <= 2.0 ** j)
        h = np.where(mask, half, 0.0)
        rows = np.flatnonzero(np.any(h, axis=1))
        if rows.size == 0:
            continue
        # a field's c(k) and c(-k) are zero together, so the half's rows
        # and columns give the band of the whole shell
        b = max(int(np.abs(rows - K).max()), int(np.flatnonzero(np.any(h, axis=0))[-1]))
        best = max(best, 2.0 ** (j * alpha)
                   * linf(h[K - b:K + b + 1, :b + 1], oversample, grid_cap))
    return best
