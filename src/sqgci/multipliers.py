"""Fourier multipliers and commutators.

Everything here acts coefficientwise on TorusField spectra:

    lambda_s     |k|^s (fractional Laplacian powers)
    riesz        i k_j / |k|
    riesz_odd    the even rational pair
                 m1(k) = 25 (k2^2 - k1^2) / (12 |k|^2)
                 m2(k) =  7 (k2^2 - k1^2) / (12 |k|^2) + 4 k1 k2 / |k|^2
    t_op         the shifted-norm symbols attached to a direction l,
                 order 1: (|lam*l + k| + |lam*l - k|)/2 - lam   (real even)
                 order 2: i ((|lam*l + k| - |lam*l - k|)/2 - l.k)  (imag odd)
    lowpass      psi(|k|/mu) with the exponential-glue cutoff psi
    fat_lowpass  psi(|k|/(4 mu)), identity up to 2 mu, zero from 4 mu
    inv_div      p with Laplacian(p) = div v, i.e. p^(k) = i k.v^(k)/(-|k|^2)

plus derivative helpers, the Riesz commutator [R_j, phi] theta =
R_j(phi theta) - phi R_j theta (products computed exactly), and exact
modulation by cos/sin of a lattice wave (pure coefficient shifts).

Real-even symbols map real fields to real fields, imaginary-odd ones
likewise; the symbol grids below are built so that the required
conjugate symmetry holds to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BandExceedsLambda, NegativePowerOnMean, NonZeroMean
from .fields import TorusField, VectorField, multiply
from .kernels import cutoff_profile, t_symbols

# mean checks compare |c(0)| against the coefficient l2 mass: transform
# round-off sits near 1e-13 relative, a genuine mean is order one
MEAN_RTOL = 1e-11


@dataclass(frozen=True)
class Direction:
    """Unit vector with exact rational components (n1/d, n2/d),
    n1^2 + n2^2 = d^2, so integer multiples of d*l are lattice points."""

    n1: int
    n2: int
    d: int

    def __post_init__(self):
        if self.d <= 0 or self.n1 ** 2 + self.n2 ** 2 != self.d ** 2:
            raise ValueError(f"({self.n1}, {self.n2}, {self.d}) is not a rational unit vector")

    @property
    def vec(self):
        return (self.n1 / self.d, self.n2 / self.d)

    @property
    def perp(self):
        """Rotate by +90 degrees: (-l2, l1)."""
        return Direction(-self.n2, self.n1, self.d)

    def wave(self, scale):
        """Integer wave vector scale*l; scale must clear the denominator."""
        w1, r1 = divmod(int(scale) * self.n1, self.d)
        w2, r2 = divmod(int(scale) * self.n2, self.d)
        if r1 or r2:
            raise ValueError(f"{scale}*l is not a lattice vector for l = {self.vec}")
        return (w1, w2)


L1 = Direction(3, 4, 5)
L2 = Direction(1, 0, 1)
DIRECTIONS = (L1, L2)


@lru_cache(maxsize=8)
def _kgrids(K):
    """Broadcastable k1 (column), k2 (row), and the |k| grid for band K."""
    k = np.arange(-K, K + 1, dtype=np.float64)
    k1 = k[:, None].copy()
    k2 = k[None, :].copy()
    kn = np.hypot(*np.meshgrid(k, k, indexing="ij"))
    for a in (k1, k2, kn):
        a.flags.writeable = False
    return k1, k2, kn


def _coeff_l2(c):
    return float(np.sqrt(np.sum(np.abs(c) ** 2)))


def require_mean_zero(f: TorusField, what: str):
    """Raise NonZeroMean unless f is flagged mean-zero or its mean
    coefficient is negligible against the coefficient l2 mass."""
    if f.mean_zero:
        return
    c0 = abs(f.coeffs[f.band, f.band])
    if c0 > MEAN_RTOL * _coeff_l2(f.coeffs):
        raise NonZeroMean(f"{what}: mean coefficient {c0:.3e} is not negligible")


def lambda_s(f: TorusField, s: float) -> TorusField:
    """|k|^s multiplier. s = 0 is the identity (mean kept); s > 0 sends
    the mean to zero; s < 0 requires a mean-zero input."""
    s = float(s)
    if s == 0.0:
        return f
    K = f.band
    _, _, kn = _kgrids(K)
    if s < 0:
        if not f.mean_zero:
            c0 = abs(f.coeffs[K, K])
            if c0 > MEAN_RTOL * _coeff_l2(f.coeffs):
                raise NegativePowerOnMean(
                    f"Lambda^{s:g} of a field with mean coefficient {c0:.3e}")
        with np.errstate(divide="ignore"):
            m = kn ** s
        m[K, K] = 0.0
    else:
        m = kn ** s
    return TorusField._exact(f.coeffs * m, mean_zero=True)


def _riesz_raw(f: TorusField, j: int) -> TorusField:
    """Riesz multiplier with m(0) = 0; tolerates a mean (drops it)."""
    K = f.band
    k1, k2, kn = _kgrids(K)
    kj = k1 if j == 1 else k2
    with np.errstate(invalid="ignore"):
        m = kj / kn
    m[K, K] = 0.0
    return TorusField._exact(f.coeffs * (1j * m), mean_zero=True)


def riesz(f: TorusField, j: int) -> TorusField:
    """R_j f, symbol i k_j/|k|. Input must be mean-zero."""
    if j not in (1, 2):
        raise ValueError(f"Riesz index must be 1 or 2, got {j}")
    require_mean_zero(f, "riesz")
    return _riesz_raw(f, j)


def riesz_odd_symbol(j, k1, k2):
    """Evaluate the even rational symbol m_j at wave vectors (vectorized);
    0 at k = 0."""
    k1 = np.asarray(k1, dtype=np.float64)
    k2 = np.asarray(k2, dtype=np.float64)
    n2 = k1 * k1 + k2 * k2
    with np.errstate(invalid="ignore", divide="ignore"):
        if j == 1:
            m = 25.0 * (k2 * k2 - k1 * k1) / (12.0 * n2)
        elif j == 2:
            m = 7.0 * (k2 * k2 - k1 * k1) / (12.0 * n2) + 4.0 * k1 * k2 / n2
        else:
            raise ValueError(f"index must be 1 or 2, got {j}")
    return np.where(n2 == 0.0, 0.0, m)


def riesz_odd(f: TorusField, j: int) -> TorusField:
    """Apply the even rational multiplier m_j. Input must be mean-zero."""
    require_mean_zero(f, "riesz_odd")
    K = f.band
    k1, k2, _ = _kgrids(K)
    m = riesz_odd_symbol(j, k1, k2)
    return TorusField._exact(f.coeffs * m, mean_zero=True)


def t_op(f: TorusField, order: int, lam: int, l: Direction) -> TorusField:
    """Shifted-norm multiplier of the given order at frequency lam along l.

    The symbols are smooth only inside |k| < lam, so the band of f must
    stay strictly below lam (BandExceedsLambda otherwise). Both symbols
    vanish at k = 0.
    """
    lam = int(lam)
    if f.band >= lam:
        raise BandExceedsLambda(f"band {f.band} >= lambda {lam}")
    t1, t2f = t_symbols(lam, l.n1, l.n2, l.d, f.band)
    if order == 1:
        c = f.coeffs * t1
    elif order == 2:
        c = f.coeffs * (1j * t2f)
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    return TorusField._exact(c, mean_zero=True)


def lowpass(f: TorusField, mu: float) -> TorusField:
    """Smooth projection psi(|k|/mu): identity for |k| <= mu/2, zero for
    |k| >= mu. Requires mu >= 1."""
    if mu < 1.0:
        raise ValueError(f"lowpass cutoff must be >= 1, got {mu}")
    _, _, kn = _kgrids(f.band)
    m = cutoff_profile(kn / mu)
    return TorusField._exact(f.coeffs * m, mean_zero=f.mean_zero).trim()


def fat_lowpass(f: TorusField, mu: float) -> TorusField:
    """Widened projection psi(|k|/(4 mu)): identity for |k| <= 2 mu, zero
    for |k| >= 4 mu. Requires mu >= 1."""
    if mu < 1.0:
        raise ValueError(f"fat_lowpass cutoff must be >= 1, got {mu}")
    _, _, kn = _kgrids(f.band)
    m = cutoff_profile(kn / (4.0 * mu))
    return TorusField._exact(f.coeffs * m, mean_zero=f.mean_zero).trim()


def inv_div(v: VectorField) -> TorusField:
    """Solve Laplacian(p) = div v for mean-zero p:
    p^(k) = (i k.v^(k)) / (-|k|^2). Both components must be mean-zero."""
    require_mean_zero(v.comp1, "inv_div component 1")
    require_mean_zero(v.comp2, "inv_div component 2")
    K = v.band
    k1, k2, _ = _kgrids(K)
    num = 1j * (k1 * v.comp1.coeffs + k2 * v.comp2.coeffs)
    den = -(k1 * k1 + k2 * k2)
    den[K, K] = 1.0
    c = num / den
    c[K, K] = 0.0
    return TorusField._exact(c, mean_zero=True)


def partial(f: TorusField, j: int) -> TorusField:
    """d/dx_j, symbol i k_j."""
    k1, k2, _ = _kgrids(f.band)
    kj = k1 if j == 1 else k2
    return TorusField._exact(f.coeffs * (1j * kj), mean_zero=True)


def grad(f: TorusField) -> VectorField:
    return VectorField(partial(f, 1), partial(f, 2))


def grad_perp(f: TorusField) -> VectorField:
    """(-d2 f, d1 f)."""
    return VectorField(-1.0 * partial(f, 2), partial(f, 1))


def directional_grad(f: TorusField, l: Direction) -> TorusField:
    """(l . grad) f, exact rational symbol i (n1 k1 + n2 k2)/d."""
    k1, k2, _ = _kgrids(f.band)
    m = 1j * ((l.n1 * k1 + l.n2 * k2) / l.d)
    return TorusField._exact(f.coeffs * m, mean_zero=True)


def riesz_commutator(psi: TorusField, theta: TorusField, j: int) -> TorusField:
    """[R_j, psi] theta = R_j(psi theta) - psi R_j(theta), products exact.
    theta must be mean-zero; psi theta may carry a mean (R_j drops it)."""
    if j not in (1, 2):
        raise ValueError(f"Riesz index must be 1 or 2, got {j}")
    require_mean_zero(theta, "riesz_commutator theta")
    first = _riesz_raw(multiply(psi, theta), j)
    second = multiply(psi, _riesz_raw(theta, j))
    return first - second


def rperp_grad_commutator(psi: TorusField, theta: TorusField) -> TorusField:
    """-[R_2, d1 psi] theta + [R_1, d2 psi] theta."""
    d1 = partial(psi, 1)
    d2 = partial(psi, 2)
    return -1.0 * riesz_commutator(d1, theta, 2) + riesz_commutator(d2, theta, 1)


def modulate(a: TorusField, p, trig: str) -> TorusField:
    """a(x) * cos(p.x) or a(x) * sin(p.x) for a lattice vector p,
    computed as exact coefficient shifts:

        cos: c_out(k) = (c(k-p) + c(k+p)) / 2
        sin: c_out(k) = (c(k-p) - c(k+p)) / (2i)

    Band grows by max(|p1|, |p2|).
    """
    if trig not in ("cos", "sin"):
        raise ValueError(f"trig must be 'cos' or 'sin', got {trig!r}")
    p1, p2 = int(p[0]), int(p[1])
    Ka = a.band
    Kout = Ka + max(abs(p1), abs(p2))
    n = 2 * Kout + 1
    w = 2 * Ka + 1
    c = np.zeros((n, n), dtype=np.complex128)
    lo1, lo2 = Kout + p1 - Ka, Kout + p2 - Ka
    c[lo1:lo1 + w, lo2:lo2 + w] = a.coeffs
    lo1, lo2 = Kout - p1 - Ka, Kout - p2 - Ka
    if trig == "cos":
        c[lo1:lo1 + w, lo2:lo2 + w] += a.coeffs
        c *= 0.5
    else:
        c[lo1:lo1 + w, lo2:lo2 + w] -= a.coeffs
        c /= 2j
    return TorusField._exact(c, mean_zero=False)
