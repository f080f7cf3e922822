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

ModulatedField keeps a field factored by carrier, sum_p A_p e^{i p.x}
with small amplitudes A_p; sums, scalar multiples and inv_div act on
the amplitude grids, and `modulate` is its dense view of one wave.

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
    if j not in (1, 2):
        raise ValueError(f"index must be 1 or 2, got {j}")
    k1 = np.asarray(k1, dtype=np.float64)
    k2 = np.asarray(k2, dtype=np.float64)
    n2 = k1 * k1 + k2 * k2
    m = np.asarray(k2 * k2 - k1 * k1)
    with np.errstate(invalid="ignore", divide="ignore"):
        # in place, in the order of 25(k2^2-k1^2)/(12|k|^2) and
        # 7(k2^2-k1^2)/(12|k|^2) + 4 k1 k2/|k|^2
        m *= 25.0 if j == 1 else 7.0
        m /= 12.0 * n2
        if j == 2:
            m += 4.0 * k1 * k2 / n2
    m[n2 == 0.0] = 0.0
    return m


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


def _inv_div_block(c1, c2, p=(0, 0)):
    """inv_div coefficients of the amplitude pair (c1, c2) riding carrier
    p: the symbol i(p+k).v / (-|p+k|^2) on the amplitude's grid, 0 at
    p + k = 0."""
    K = c1.shape[0] // 2
    k1, k2, _ = _kgrids(K)
    k1, k2 = k1 + p[0], k2 + p[1]
    num = 1j * (k1 * c1 + k2 * c2)
    den = -(k1 * k1 + k2 * k2)
    covers_origin = max(abs(p[0]), abs(p[1])) <= K
    if covers_origin:
        den[K - p[0], K - p[1]] = 1.0
    c = num / den
    if covers_origin:
        c[K - p[0], K - p[1]] = 0.0
    return c


def inv_div(v: VectorField) -> TorusField:
    """Solve Laplacian(p) = div v for mean-zero p:
    p^(k) = (i k.v^(k)) / (-|k|^2). Both components must be mean-zero."""
    require_mean_zero(v.comp1, "inv_div component 1")
    require_mean_zero(v.comp2, "inv_div component 2")
    return TorusField._exact(_inv_div_block(v.comp1.coeffs, v.comp2.coeffs), mean_zero=True)


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


def _pad(b, K):
    """Block b (components stacked on axis 0) zero-padded to band K."""
    w = K - b.shape[-1] // 2
    return b if w == 0 else np.pad(b, ((0, 0), (w, w), (w, w)))


class ModulatedField:
    """A field kept factored by carrier,

        F(x) = sum_p A_p(x) exp(i p.x),

    as a map from lattice carriers p = (p1, p2) to the coefficients of
    small complex amplitudes A_p at their own band K_p. Each block is an
    array of shape (m, 2K_p+1, 2K_p+1): m = 1 for a scalar field, m = 2
    for a vector field (components stacked). A block alone is not a real
    field; the blocks at p and -p are mirror conjugates, so F is.

    Sums, scalar multiples and `inv_div` act per carrier on the small
    amplitude grids, with the float operations the dense box would apply
    to each coefficient. Only `to_dense` places blocks into one box.
    """

    __slots__ = ("blocks", "mean_zero")

    def __init__(self, blocks, mean_zero=False):
        for b in blocks.values():
            b.flags.writeable = False
        self.blocks = blocks  # dict carrier -> block
        self.mean_zero = bool(mean_zero)

    @classmethod
    def wave(cls, a, p, trig: str):
        """a(x) cos(p.x) or a(x) sin(p.x) for a TorusField or VectorField
        a and a lattice vector p:

            cos: a/2 at carrier p and at -p
            sin: a/(2i) at p and -a/(2i) at -p
        """
        if trig not in ("cos", "sin"):
            raise ValueError(f"trig must be 'cos' or 'sin', got {trig!r}")
        if isinstance(a, VectorField):
            c = np.stack((a.comp1.coeffs, a.comp2.coeffs))
        else:
            c = a.coeffs[None]
        p = (int(p[0]), int(p[1]))
        m = (-p[0], -p[1])
        if trig == "cos":
            half = c * 0.5
            return cls({p: half}) + cls({m: half})
        return cls({p: c / 2j}) + cls({m: -c / 2j})

    @classmethod
    def pair(cls, x: "ModulatedField", y: "ModulatedField") -> "ModulatedField":
        """The vector field (x, y) of two scalar factored fields that ride
        the same carriers."""
        if list(x.blocks) != list(y.blocks):
            raise ValueError("pair needs components on the same carriers")
        blocks = {}
        for p, bx in x.blocks.items():
            by = y.blocks[p]
            K = max(bx.shape[-1], by.shape[-1]) // 2
            blocks[p] = np.concatenate((_pad(bx, K), _pad(by, K)))
        return cls(blocks, x.mean_zero and y.mean_zero)

    def __add__(self, other):
        if not isinstance(other, ModulatedField):
            return NotImplemented
        blocks = dict(self.blocks)
        for p, b in other.blocks.items():
            if p in blocks:
                K = max(b.shape[-1], blocks[p].shape[-1]) // 2
                b = _pad(blocks[p], K) + _pad(b, K)
            blocks[p] = b
        return ModulatedField(blocks, self.mean_zero and other.mean_zero)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ModulatedField({p: -b for p, b in self.blocks.items()}, self.mean_zero)

    def __mul__(self, scalar):
        s = float(scalar)
        return ModulatedField({p: b * s for p, b in self.blocks.items()}, self.mean_zero)

    __rmul__ = __mul__

    def inv_div(self) -> "ModulatedField":
        """Scalar p with Laplacian(p) = div F, carrier by carrier. The
        mean of each component, the sum of the blocks that cover k = 0,
        must be negligible against the component's l2 mass."""
        if not self.mean_zero:
            c0, mass2, covered = np.zeros(2, dtype=np.complex128), np.zeros(2), False
            for p, b in self.blocks.items():
                K = b.shape[-1] // 2
                if max(abs(p[0]), abs(p[1])) <= K:
                    c0 = c0 + b[:, K - p[0], K - p[1]]
                    covered = True
                mass2 += np.sum(np.abs(b) ** 2, axis=(1, 2))
            for j in (0, 1):
                if covered and abs(c0[j]) > MEAN_RTOL * np.sqrt(mass2[j]):
                    raise NonZeroMean(f"inv_div component {j + 1}: mean coefficient "
                                      f"{abs(c0[j]):.3e} is not negligible")
        return ModulatedField({p: _inv_div_block(b[0], b[1], p)[None]
                               for p, b in self.blocks.items()}, mean_zero=True)

    def to_dense(self):
        """The field on one coefficient box (a TorusField, or a
        VectorField for vector blocks) of band max_p (K_p + |p|_inf), the
        band the dense `modulate` gives. Blocks are added at their
        carriers' offsets. Where three blocks meet, the sum at k need not
        mirror the sum at -k, so a box with overlapping blocks is
        symmetrised to stay Hermitian bit for bit."""
        reach = [(p, b.shape[-1] // 2) for p, b in self.blocks.items()]
        Kout = max(K + max(abs(p[0]), abs(p[1])) for p, K in reach)
        n = 2 * Kout + 1
        m = next(iter(self.blocks.values())).shape[0]
        boxes = [np.zeros((n, n), dtype=np.complex128) for _ in range(m)]
        for (p, K), b in zip(reach, self.blocks.values()):
            lo1, lo2 = Kout + p[0] - K, Kout + p[1] - K
            for box, bj in zip(boxes, b):
                box[lo1:lo1 + 2 * K + 1, lo2:lo2 + 2 * K + 1] += bj
        overlap = any(max(abs(p[0] - r[0]), abs(p[1] - r[1])) <= K + J
                      for i, (p, K) in enumerate(reach) for r, J in reach[:i])
        out = []
        for box in boxes:
            if overlap:
                box += np.conj(box[::-1, ::-1])
                box *= 0.5
            out.append(TorusField._exact(box, mean_zero=self.mean_zero))
        return out[0] if m == 1 else VectorField(*out)


def modulate(a: TorusField, p, trig: str) -> TorusField:
    """a(x) * cos(p.x) or a(x) * sin(p.x) for a lattice vector p,
    computed as exact coefficient shifts:

        cos: c_out(k) = (c(k-p) + c(k+p)) / 2
        sin: c_out(k) = (c(k-p) - c(k+p)) / (2i)

    Band grows by max(|p1|, |p2|).
    """
    return ModulatedField.wave(a, p, trig).to_dense()
