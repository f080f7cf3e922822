"""Norms used to monitor the iteration.

L-infinity is measured as a grid maximum on an oversampled collocation
grid, so every reported value is a certified lower bound on the true
norm. The one sampler, `linf`, takes a field and optionally a symbol,
and every sample goes through `fields.to_grid`, whose max-abs mode
reduces the samples block by block: no N x N sample grid is held. The
X-norm stacks L-infinity of the field and of its two images under the
even rational multipliers m_j, each sampled through its symbol with no
image and no k-grid built. Holder regularity is tracked by a
Besov-type proxy whose dyadic shells are cut from windows of the
field's half. Homogeneous Sobolev norms are summed over the half, each
k2 > 0 column counted for itself and its mirror.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import GridBudgetExceeded
from .fields import TorusField, _half_vdot, _window, good_grid, to_grid
from .multipliers import _knorm, require_mean_zero, riesz_odd_symbol


def _grid_side(K: int, oversample: int, grid_cap) -> int:
    """Side of the grid `linf` samples a band-K field on: the first of
    good_grid(s * (2K+2)), s = oversample down to 1, that fits under
    grid_cap, and 2K+2 itself only when even good_grid(2K+2) does not,
    which a power-of-two cap never allows. good_grid(n) >= n, so the
    search starts at the largest s whose grid can fit."""
    if oversample < 2:
        raise ValueError(f"oversample must be >= 2, got {oversample}")
    minimal = 2 * K + 2
    top = oversample if grid_cap is None else min(oversample, grid_cap // minimal)
    for s in range(top, 0, -1):
        N = good_grid(s * minimal)
        if grid_cap is None or N <= grid_cap:
            return N
    if minimal <= grid_cap:  # a None cap has returned above
        return minimal
    raise GridBudgetExceeded(
        f"band {K} needs a {minimal}-point axis, cap is {grid_cap}")


def linf(f: TorusField, oversample: int = 4, grid_cap=None, symbol=None) -> float:
    """Max of |f| over an oversampled collocation grid (a lower bound
    on the true sup), or of |m f| for a symbol m (see `to_grid`). When a
    cap is given the oversampling degrades one notch at a time down to
    the minimal alias-free grid before giving up. The maximum is
    reduced block by block; no sample grid is held."""
    return to_grid(f, _grid_side(f.band, oversample, grid_cap), symbol=symbol, max_abs=True)


def x_norm(q: TorusField, oversample: int = 4, grid_cap=None, sup=None) -> float:
    """‖q‖∞ + ‖m_1 q‖∞ + ‖m_2 q‖∞ with the even rational multipliers,
    each m_j q sampled from q with no image built. `sup` passes
    linf(q, oversample, grid_cap) when it is already known."""
    require_mean_zero(q, "x_norm")
    total = linf(q, oversample, grid_cap) if sup is None else sup
    for j in (1, 2):
        total += linf(q, oversample, grid_cap, symbol=functools.partial(riesz_odd_symbol, j))
    return total


def sobolev(f: TorusField, s: float) -> float:
    """Homogeneous Sobolev norm (sum over k != 0 of |k|^{2s} |c(k)|^2)^{1/2}.
    Negative s requires a mean-zero field."""
    s = float(s)
    if s < 0:
        require_mean_zero(f, f"sobolev s={s:g}")
    c = f.coeffs
    kn = _knorm(f.band)
    w = np.power(kn, 2.0 * s, out=np.zeros_like(kn), where=kn > 0)
    return float(np.sqrt(_half_vdot(c, w * c)))


def holder_besov(f: TorusField, alpha: float, oversample: int = 4,
                 grid_cap=None) -> float:
    """C^alpha proxy: sup_j 2^{j alpha} ‖P_j f‖∞ over the dyadic shells,
    j = 0 holding |k| <= 1 and j >= 1 holding 2^{j-1} < |k| <= 2^j.
    Shell j is cut from the band-min(K, 2^j) window of f's half, masked
    on that window's |k|, and sampled at the smallest band holding it;
    empty shells are skipped. Requires 0 < alpha < 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    K = f.band
    jmax = 0 if K == 0 else max(0, math.ceil(math.log2(math.hypot(K, K))))
    best = 0.0
    for j in range(jmax + 1):
        b = min(K, 2 ** j)
        kn = _knorm(b)
        if j == 0:
            mask = kn <= 1.0
        else:
            mask = (kn > 2.0 ** (j - 1)) & (kn <= 2.0 ** j)
        shell = TorusField._exact(np.where(mask, _window(f.coeffs, b), 0.0)).trim()
        if shell.coeffs.any():
            best = max(best, 2.0 ** (j * alpha) * linf(shell, oversample, grid_cap))
    return best
