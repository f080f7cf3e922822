"""Fourier multipliers and commutators.

Everything here acts coefficientwise on TorusField spectra:

    lambda_s     |k|^s (fractional Laplacian powers)
    riesz        i k_j / |k|
    riesz_odd    the even rational pair
                 m1(k) = 25 (k2^2 - k1^2) / (12 |k|^2)
                 m2(k) =  7 (k2^2 - k1^2) / (12 |k|^2) + 4 k1 k2 / |k|^2
    t_ops        the pair (T1 f, T2 f) of shifted-norm symbols attached
                 to a direction l, from one symbol build:
                 T1: (|lam*l + k| + |lam*l - k|)/2 - lam   (real even)
                 T2: i ((|lam*l + k| - |lam*l - k|)/2 - l.k)  (imag odd)
    lowpass      psi(|k|/mu) with the exponential-glue cutoff psi
    inv_div      p with Laplacian(p) = div v, i.e. p^(k) = i k.v^(k)/(-|k|^2)

plus `directional_grad` (l . grad), `grad_perp` (-d2, d1), and the
Riesz commutator [R_j, phi] theta = R_j(phi theta) - phi R_j theta for
a general phi (products computed exactly; against a single test wave
the commutator is a shifted-symbol difference, which
`verify.weak_residual` evaluates per carrier).

ModulatedField keeps a scalar field factored by carrier, sum_p A_p
e^{i p.x} with small amplitudes A_p; sums and scalar multiples act on
the amplitude grids. `ModulatedField.wave` is the one place a field is
multiplied by cos(p.x) or sin(p.x), exactly, as a shift of carriers: a
product of waves is nested `wave` calls, and `to_dense` gives the dense
view, its k2 = 0 column checked and symmetrised as a transform read's
is. A factored vector field is a VectorField of two ModulatedFields,
and `inv_div` inverts it carrier by carrier.

`require_mean_zero` is the one mean check, for dense and factored
fields alike, ahead of every negative-order operator (Lambda^s for
s < 0, riesz, riesz_odd, inv_div, the commutator's theta).
Every symbol with |k| in a denominator divides only where |k| > 0
(`np.divide` or `np.power` with `where=`), so nothing divides by zero;
only `_inv_div_block` writes k = 0 afterwards, to keep its sign +0.

A dense field stores the k2 >= 0 half of its box, so every symbol grid
is built on k2 = 0..K alone, fresh for the call that needs it: no
k-grid is cached. `norms.x_norm` passes `riesz_odd_symbol` to the
sampler instead of building an image. Real-even symbols map real
fields to real fields, imaginary-odd ones likewise, and the grids keep
the k2 = 0 column Hermitian to the last bit. ModulatedField blocks are
complex amplitudes, not real fields, and keep their whole boxes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BandExceedsLambda, NonZeroMean
from .fields import TorusField, VectorField, _computed_half, _half_vdot, multiply
from .kernels import cutoff_profile, t_symbols

# require_mean_zero compares |c(0)| with the coefficient l2 mass: transform
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
    def perp(self):
        """Rotate by +90 degrees: (-l2, l1)."""
        return Direction(-self.n2, self.n1, self.d)

    def wave(self, scale):
        """Integer wave vector scale*l; scale must clear the denominator."""
        w1, r1 = divmod(int(scale) * self.n1, self.d)
        w2, r2 = divmod(int(scale) * self.n2, self.d)
        if r1 or r2:
            raise ValueError(f"{scale}*l is not a lattice vector for l = "
                             f"{(self.n1 / self.d, self.n2 / self.d)}")
        return (w1, w2)


L1 = Direction(3, 4, 5)
L2 = Direction(1, 0, 1)
DIRECTIONS = (L1, L2)


def _kgrids(K):
    """Broadcastable k1 = -K..K (a column) and k2 = 0..K (a row) over the
    half of the band-K box, views of one fresh vector."""
    k = np.arange(-K, K + 1, dtype=np.float64)
    return k[:, None], k[None, K:]


def _knorm(K):
    """The |k| grid on the half of the band-K box, built fresh on every
    call; the caller owns it."""
    return np.hypot(*_kgrids(K))


def require_mean_zero(f: TorusField | ModulatedField, what: str, outside: float = 0.0):
    """Raise NonZeroMean unless the mean of f, a TorusField or a
    ModulatedField, is negligible: c0, the sum of the blocks that cover
    k = 0 (a TorusField's c(0)), is exactly 0 or at most MEAN_RTOL times
    the coefficient l2 mass. When f holds only the window about k = 0 of
    a larger field, `outside` is the squared mass of the rest."""
    factored = isinstance(f, ModulatedField)
    if factored:
        c0 = 0j
        for p, b in f.blocks.items():
            K = b.shape[0] // 2
            if max(abs(p[0]), abs(p[1])) <= K:
                c0 = c0 + b[K - p[0], K - p[1]]
    else:
        c0 = f.coeffs[f.band, 0]
    if c0 == 0:
        return
    mass2 = (sum(np.vdot(b, b).real for b in f.blocks.values()) if factored
             else _half_vdot(f.coeffs, f.coeffs))
    if abs(c0) > MEAN_RTOL * np.sqrt(mass2 + outside):
        raise NonZeroMean(f"{what}: mean coefficient {abs(c0):.3e} is not negligible")


def lambda_s(f: TorusField, s: float) -> TorusField:
    """|k|^s multiplier. s = 0 is the identity (mean kept); s > 0 sends
    the mean to zero; s < 0 requires a mean-zero input."""
    s = float(s)
    if s == 0.0:
        return f
    if s < 0:
        require_mean_zero(f, f"Lambda^{s:g}")
    kn = _knorm(f.band)
    return TorusField._exact(f.coeffs * np.power(kn, s, out=np.zeros_like(kn), where=kn > 0))


def _riesz_raw(f: TorusField, j: int) -> TorusField:
    """Riesz multiplier with m(0) = 0; tolerates a mean (drops it)."""
    if j not in (1, 2):
        raise ValueError(f"Riesz index must be 1 or 2, got {j}")
    K = f.band
    k1, k2 = _kgrids(K)
    kn = np.hypot(k1, k2)
    m = np.divide(k1 if j == 1 else k2, kn, out=np.zeros_like(kn), where=kn > 0)
    return TorusField._exact(f.coeffs * (1j * m))


def riesz(f: TorusField, j: int) -> TorusField:
    """R_j f, symbol i k_j/|k|. Input must be mean-zero."""
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
    nz = n2 > 0
    # in place, in the order of 25(k2^2-k1^2)/(12|k|^2) and
    # 7(k2^2-k1^2)/(12|k|^2) + 4 k1 k2/|k|^2; at k = 0 m keeps its +0 numerator
    m = np.asarray(k2 * k2 - k1 * k1)
    m *= 25.0 if j == 1 else 7.0
    np.divide(m, 12.0 * n2, out=m, where=nz)
    if j == 2:
        t = np.asarray(4.0 * k1 * k2)
        np.divide(t, n2, out=t, where=nz)
        m += t
    return m


def riesz_odd(f: TorusField, j: int) -> TorusField:
    """Apply the even rational multiplier m_j, its symbol built fresh on
    f's half. Input must be mean-zero."""
    require_mean_zero(f, "riesz_odd")
    return TorusField._exact(f.coeffs * riesz_odd_symbol(j, *_kgrids(f.band)))


def t_ops(f: TorusField, lam: int, l: Direction) -> tuple:
    """(T1 f, T2 f), the shifted-norm multipliers at frequency lam along
    l, from one build of their symbols.

    The symbols are smooth only inside |k| < lam, so the band of f must
    stay strictly below lam (BandExceedsLambda otherwise). Both symbols
    vanish at k = 0.
    """
    lam = int(lam)
    if f.band >= lam:
        raise BandExceedsLambda(f"band {f.band} >= lambda {lam}")
    t1, t2f = t_symbols(lam, l.n1, l.n2, l.d, f.band)
    return TorusField._exact(f.coeffs * t1), TorusField._exact(f.coeffs * (1j * t2f))


def lowpass(f: TorusField, mu: float) -> TorusField:
    """Smooth projection psi(|k|/mu): identity for |k| <= mu/2, zero for
    |k| >= mu. Requires mu >= 1."""
    if mu < 1.0:
        raise ValueError(f"lowpass cutoff must be >= 1, got {mu}")
    m = cutoff_profile(_knorm(f.band) / mu)
    return TorusField._exact(f.coeffs * m).trim()


def _inv_div_block(c1, c2, k1, k2):
    """inv_div coefficients of the pair (c1, c2) held at the wave vectors
    (k1, k2): k1 a column and k2 a row of consecutive integers, as
    floats. The symbol is i k.v / (-|k|^2), 0 at k = 0; it acts
    coefficient by coefficient, so a field's half gives the half of its
    box's result bit for bit."""
    # 1j * (k1 c1 + k2 c2) / den with the same ufuncs in the same order,
    # in one buffer
    num = k1 * c1
    num += k2 * c2
    num *= 1j
    den = -(k1 * k1 + k2 * k2)
    np.divide(num, den, out=num, where=den < 0)
    origin = (-int(k1[0, 0]), -int(k2[0, 0]))
    if 0 <= origin[0] < den.shape[0] and 0 <= origin[1] < den.shape[1]:
        num[origin] = 0.0  # 1j * (0 c1 + 0 c2) takes the signs of c's zeros
    return num


def inv_div(v: VectorField) -> TorusField | ModulatedField:
    """Solve Laplacian(p) = div v for mean-zero p:
    p^(k) = (i k.v^(k)) / (-|k|^2). Both components must be mean-zero.
    Dense components give a TorusField; ModulatedField components on
    the same carriers are inverted carrier by carrier and give a
    ModulatedField."""
    x, y = v.comp1, v.comp2
    factored = isinstance(x, ModulatedField)
    if factored and x.blocks.keys() != y.blocks.keys():
        raise ValueError("inv_div needs components on the same carriers")
    require_mean_zero(x, "inv_div component 1")
    require_mean_zero(y, "inv_div component 2")
    if factored:
        blocks = {}
        for p, bx in x.blocks.items():
            K = max(bx.shape[0], y.blocks[p].shape[0]) // 2
            k = _kgrids(K)[0]  # k.T is the k2 row of a whole block
            blocks[p] = _inv_div_block(_pad(bx, K), _pad(y.blocks[p], K), k + p[0], k.T + p[1])
        return ModulatedField(blocks)
    K = max(x.band, y.band)
    return TorusField._exact(_inv_div_block(x.pad_to(K).coeffs, y.pad_to(K).coeffs,
                                            *_kgrids(K)))


def grad_perp(f: TorusField) -> VectorField:
    """(-d2 f, d1 f): L2 is e1 and L2.perp is e2."""
    return VectorField(-1.0 * directional_grad(f, L2.perp), directional_grad(f, L2))


def directional_grad(f: TorusField, l: Direction) -> TorusField:
    """(l . grad) f, exact rational symbol i (n1 k1 + n2 k2)/d."""
    k1, k2 = _kgrids(f.band)
    m = 1j * ((l.n1 * k1 + l.n2 * k2) / l.d)
    # the product goes into the symbol's grid, so no second half is held
    return TorusField._exact(np.multiply(f.coeffs, m, out=m))


def riesz_commutator(psi: TorusField, theta: TorusField, j: int) -> TorusField:
    """[R_j, psi] theta = R_j(psi theta) - psi R_j(theta), products exact.
    theta must be mean-zero; psi theta may carry a mean (R_j drops it)."""
    require_mean_zero(theta, "riesz_commutator theta")
    second = multiply(psi, _riesz_raw(theta, j))  # a bad j raises before any product
    first = _riesz_raw(multiply(psi, theta), j)
    return first - second


def _pad(b, K):
    """Block b zero-padded to band K."""
    w = K - b.shape[0] // 2
    return b if w == 0 else np.pad(b, w)


class ModulatedField:
    """A scalar field kept factored by carrier,

        F(x) = sum_p A_p(x) exp(i p.x),

    as a map from lattice carriers p = (p1, p2) to the coefficients of
    small complex amplitudes A_p at their own band K_p, each block a
    (2K_p+1, 2K_p+1) array. A block alone is not a real field; the
    blocks at p and -p are mirror conjugates, so F is. A factored vector
    field is a VectorField of two ModulatedFields on the same carriers.

    Sums and scalar multiples act per carrier on the small amplitude
    grids, with the float operations the dense box would apply to each
    coefficient; so does `inv_div` on a factored pair. Only `to_dense`
    places blocks into one field, whose c(0) says, as for any field,
    whether F is mean-zero.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        for b in blocks.values():
            b.flags.writeable = False
        self.blocks = blocks  # dict carrier -> block

    @classmethod
    def wave(cls, a, p, trig: str):
        """a(x) cos(p.x) or a(x) sin(p.x) for a lattice vector p, with
        cos(p.x) = (e^{ip.x} + e^{-ip.x})/2 and
        sin(p.x) = (e^{ip.x} - e^{-ip.x})/(2i). Each block A at carrier
        q of a goes to q + p and q - p:

            cos: A/2 at q + p and at q - p
            sin: A/(2i) at q + p and -A/(2i) at q - p

        Blocks landing on one carrier are added. A TorusField a is the
        one block at carrier 0, so a product of two waves is two nested
        calls. A VectorField a maps component by component to a
        VectorField of ModulatedFields.
        """
        if isinstance(a, VectorField):
            return VectorField(cls.wave(a.comp1, p, trig), cls.wave(a.comp2, p, trig))
        if trig not in ("cos", "sin"):
            raise ValueError(f"trig must be 'cos' or 'sin', got {trig!r}")
        p = (int(p[0]), int(p[1]))
        blocks = a.blocks if isinstance(a, ModulatedField) else {(0, 0): a.box()}
        out = cls({})
        for q, b in blocks.items():
            if trig == "cos":
                up = down = b * 0.5
            else:
                up, down = b / 2j, -b / 2j
            out = (out + cls({(q[0] + p[0], q[1] + p[1]): up})
                   + cls({(q[0] - p[0], q[1] - p[1]): down}))
        return out

    def __add__(self, other):
        if not isinstance(other, ModulatedField):
            return NotImplemented
        blocks = dict(self.blocks)
        for p, b in other.blocks.items():
            if p in blocks:
                K = max(b.shape[0], blocks[p].shape[0]) // 2
                b = _pad(blocks[p], K) + _pad(b, K)
            blocks[p] = b
        return ModulatedField(blocks)

    def __mul__(self, scalar):
        s = float(scalar)
        return ModulatedField({p: b * s for p, b in self.blocks.items()})

    __rmul__ = __mul__

    def to_dense(self) -> TorusField:
        """The field at band max_p (K_p + |p|_inf), the smallest box that
        holds every block, each added once at its carrier's offset into
        the half. Its k2 = 0 column, c(k) and c(-k) summed in different
        orders, goes to `_computed_half` at the scale sum_p max|A_p|: a
        field that is not real raises ValueError, as a bad transform read
        does."""
        Kout = max(b.shape[0] // 2 + max(abs(p[0]), abs(p[1]))
                   for p, b in self.blocks.items())
        half = np.zeros((2 * Kout + 1, Kout + 1), dtype=np.complex128)
        for p, b in self.blocks.items():
            K = b.shape[0] // 2
            lo1, lo2 = Kout + p[0] - K, p[1] - K
            skip = min(max(-lo2, 0), 2 * K + 1)  # the block's k2 < 0 columns
            half[lo1:lo1 + 2 * K + 1, lo2 + skip:lo2 + 2 * K + 1] += b[:, skip:]
        return _computed_half(half, sum(float(np.abs(b).max()) for b in self.blocks.values()))
