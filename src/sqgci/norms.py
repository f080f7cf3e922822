"""Norms used to monitor the iteration.

L-infinity is measured as a grid maximum on an oversampled collocation
grid, so every reported value is a certified lower bound on the true
norm. The one sampler, `linf`, takes a field, and every sample goes
through `fields.to_grid`. The X-norm stacks L-infinity of the field and
of its two images under the even rational multipliers, `riesz_odd`.
Holder regularity is tracked by a Besov-type proxy whose dyadic shells
are cut from the field's half. Homogeneous Sobolev norms are summed
over the half, each k2 > 0 column counted for itself and its mirror.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import GridBudgetExceeded
from .fields import TorusField, _half_vdot, _max_abs, good_grid, to_grid
from .multipliers import _knorm, require_mean_zero, riesz_odd


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


def linf(f: TorusField, oversample: int = 4, grid_cap=None) -> float:
    """Max of |f| over an oversampled collocation grid (a lower bound
    on the true sup). When a cap is given the oversampling degrades one
    notch at a time down to the minimal alias-free grid before giving
    up."""
    return _max_abs(to_grid(f, _grid_side(f.band, oversample, grid_cap)))


def x_norm(q: TorusField, oversample: int = 4, grid_cap=None, sup=None) -> float:
    """‖q‖∞ + ‖m_1 q‖∞ + ‖m_2 q‖∞ with the even rational multipliers.
    `sup` passes linf(q, oversample, grid_cap) when it is already known."""
    require_mean_zero(q, "x_norm")
    total = linf(q, oversample, grid_cap) if sup is None else sup
    for j in (1, 2):
        total += linf(riesz_odd(q, j), oversample, grid_cap)
    return total


def sobolev(f: TorusField, s: float) -> float:
    """Homogeneous Sobolev norm (sum over k != 0 of |k|^{2s} |c(k)|^2)^{1/2}.
    Negative s requires a mean-zero field."""
    s = float(s)
    if s < 0:
        require_mean_zero(f, f"sobolev s={s:g}")
    c = f.coeffs
    with np.errstate(divide="ignore"):
        w = _knorm(f.band) ** (2.0 * s)
    w[f.band, 0] = 0.0
    return float(np.sqrt(_half_vdot(c, w * c)))


def holder_besov(f: TorusField, alpha: float, oversample: int = 4,
                 grid_cap=None) -> float:
    """C^alpha proxy: sup_j 2^{j alpha} ‖P_j f‖∞ over the dyadic shells,
    j = 0 holding |k| <= 1 and j >= 1 holding 2^{j-1} < |k| <= 2^j.
    Each shell is cut from f's half and sampled at the smallest band
    holding it; empty shells are skipped. Requires 0 < alpha < 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    K = f.band
    kn = _knorm(K)
    jmax = 0 if K == 0 else max(0, math.ceil(math.log2(math.hypot(K, K))))
    best = 0.0
    for j in range(jmax + 1):
        if j == 0:
            mask = kn <= 1.0
        else:
            mask = (kn > 2.0 ** (j - 1)) & (kn <= 2.0 ** j)
        shell = TorusField._exact(np.where(mask, f.coeffs, 0.0)).trim()
        if shell.coeffs.any():
            best = max(best, 2.0 ** (j * alpha) * linf(shell, oversample, grid_cap))
    return best
