"""Low-level lattice kernels in plain numpy.

Two inner loops run outside scipy's FFTs: the smooth cutoff profile
evaluated on wavenumber grids, and the shifted-symbol pair for the
modulated-wave operators.
"""

import numpy as np


def cutoff_profile(r):
    """Smooth radial cutoff: 1 for r <= 1/2, 0 for r >= 1, glued by
    g(2(1-r)) / (g(2(1-r)) + g(2(r-1/2))) with g(t) = exp(-1/t)."""
    r = np.asarray(r, dtype=np.float64)
    out = np.ones_like(r)
    out[r >= 1.0] = 0.0
    mid = (r > 0.5) & (r < 1.0)
    rm = r[mid]
    # g arguments stay in (0, 1]; no overflow possible
    ga = np.exp(-1.0 / (2.0 * (1.0 - rm)))
    gb = np.exp(-1.0 / (2.0 * (rm - 0.5)))
    out[mid] = ga / (ga + gb)
    return out


def t_symbols(lam, n1, n2, d, K):
    """Symbol grids for the two carrier-correction operators at carrier
    lam*l, l = (n1, n2)/d exactly rational with n1^2 + n2^2 = d^2.

    Returns (t1, t2f), both real (2K+1, K+1) arrays over the k2 >= 0
    half of |k|_inf <= K, indexed [k1+K, k2]:
    t1(k)  = (|lam l + k| + |lam l - k|)/2 - lam
    t2f(k) = (|lam l + k| - |lam l - k|)/2 - l.k   (the full symbol is i*t2f)

    Evaluated in the cancellation-free forms
    t1  = [(2 lam l.k + |k|^2)/(A + lam) + (-2 lam l.k + |k|^2)/(B + lam)]/2
    t2f = -2 (l.k) t1 / (A + B)
    with A = |lam l + k|, B = |lam l - k| and all squared norms computed
    from exact integers: |lam l +- k|^2 = ((lam n1 +- d k1)^2 +
    (lam n2 +- d k2)^2) / d^2.
    """
    k = np.arange(-K, K + 1, dtype=np.int64)
    k1 = k[:, None]
    k2 = k[None, K:]
    ldk = n1 * k1 + n2 * k2                       # d * (l.k), exact
    ksq = k1 * k1 + k2 * k2                       # |k|^2, exact
    asq = (lam * n1 + d * k1) ** 2 + (lam * n2 + d * k2) ** 2
    bsq = (lam * n1 - d * k1) ** 2 + (lam * n2 - d * k2) ** 2
    dd = float(d)
    A = np.sqrt(asq.astype(np.float64)) / dd
    B = np.sqrt(bsq.astype(np.float64)) / dd
    lk = ldk.astype(np.float64) / dd
    num_p = 2.0 * float(lam) * lk + ksq.astype(np.float64)
    num_m = -2.0 * float(lam) * lk + ksq.astype(np.float64)
    t1 = 0.5 * (num_p / (A + float(lam)) + num_m / (B + float(lam)))
    t2f = -2.0 * lk * t1 / (A + B)
    return t1, t2f
