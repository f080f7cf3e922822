"""Band-limited real fields on the 2-torus [-pi, pi]^2.

A TorusField stores the Fourier coefficients c(k) of

    f(x) = sum_{|k|_inf <= K} c(k) exp(i k.x)

densely as a (2K+1) x (2K+1) complex array indexed [k1+K, k2+K]. Every
field is real-valued, so c(-k) = conj(c(k)), and its array is frozen.

Construction depends on where coefficients come from. Outside data
(user arrays, `from_modes`, `constant`, SQF1 reads) and FFT output in
`from_grid` go through the checked constructor `TorusField(coeffs,
mean_zero)`: copy, finite and Hermitian checks (1e-13 relative to the
largest coefficient, or for an FFT read to the largest sample if that
is larger), exact symmetrisation. Arrays that exact operations
produce (multipliers, lattice shifts, sums, scalar multiples, pad, trim)
are Hermitian bit for bit; `TorusField._exact` freezes them unchecked.

Collocation uses the nodes x_ij = 2*pi*(i, j)/N - (pi, pi) and real
transforms. Products of band-limited fields are band-limited, so they
are computed exactly by zero-padding to a grid that holds the full
product band (N >= 2*(Kf+Kg)+2); the 3/2 rule is never used.

The binary field format SQF1 is implemented here:

    bytes 0-3   magic ASCII "SQF1"
    u32 LE      version = 1
    u32 LE      band K
    i64 LE      meanZero flag (0 or 1)
    then (2K+1)^2 coefficients as (re, im) f64 LE pairs, row-major,
    k1 = -K..K outer, k2 = -K..K inner.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import GridTooSmall, NonZeroMean, NotPositive, ParseError
from .kernels import hermitian_violation

HERMITIAN_RTOL = 1e-13

_SQF1_MAGIC = b"SQF1"
_SQF1_VERSION = 1


class TorusField:
    """Immutable band-limited real scalar field, built by the checked
    constructor from a (2K+1, 2K+1) complex array indexed [k1+K, k2+K].
    mean_zero declares a vanishing mean: c(0) must be negligible and is
    then zeroed exactly."""

    __slots__ = ("coeffs", "band", "mean_zero")

    def __init__(self, coeffs, mean_zero=False):
        c = np.array(coeffs, dtype=np.complex128)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] % 2 != 1:
            raise ValueError(f"coefficient array must be square odd-sized, got {c.shape}")
        self._check_and_freeze(c, mean_zero)

    def _check_and_freeze(self, c, mean_zero, samples=None):
        """Check, symmetrise and freeze the owned array c in place.
        `samples` are the real grid values c was read from, if any."""
        K = c.shape[0] // 2
        maxc = float(np.abs(c).max())
        # 2*maxc bounds every entry of the symmetrization below
        if not np.isfinite(2.0 * maxc):
            raise ValueError(f"non-finite or overflowing coefficient (max |c| = {maxc})")
        if maxc > 0.0:
            viol = hermitian_violation(c)
            scale = maxc
            if viol > HERMITIAN_RTOL * scale and samples is not None:
                # a transform rounds relative to its input, which bounds
                # every bin (forward norm), not to the modes kept
                scale = max(maxc, float(np.abs(samples).max()))
            if viol > HERMITIAN_RTOL * scale:
                raise ValueError(f"Hermitian symmetry violated: {viol:.3e} > "
                                 f"{HERMITIAN_RTOL:g} * {scale:.3e}")
        # enforce exactly so realness never drifts
        c += np.conj(c[::-1, ::-1])
        c *= 0.5
        if mean_zero:
            if maxc > 0.0 and abs(c[K, K]) > HERMITIAN_RTOL * maxc:
                raise NonZeroMean(f"declared mean-zero but c(0) = {c[K, K]:.3e} "
                                  f"(max {maxc:.3e})")
            c[K, K] = 0.0
        self._freeze(c, mean_zero)

    def _freeze(self, c, mean_zero):
        c.flags.writeable = False
        self.coeffs, self.band, self.mean_zero = c, c.shape[0] // 2, bool(mean_zero)

    @classmethod
    def _read(cls, c, samples):
        """Checked constructor for a fresh array c read off the forward
        transform of the real grid values `samples`; c is not copied."""
        f = cls.__new__(cls)
        f._check_and_freeze(c, False, samples)
        return f

    @classmethod
    def _exact(cls, c, mean_zero):
        """Wrap a fresh array that is Hermitian by construction, with
        c(0) == 0 when mean_zero; c is frozen in place, not copied."""
        f = cls.__new__(cls)
        f._freeze(c, mean_zero)
        return f

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, band=0, mean_zero=True):
        n = 2 * band + 1
        return cls._exact(np.zeros((n, n), dtype=np.complex128), mean_zero=mean_zero)

    @classmethod
    def constant(cls, value):
        return cls(np.array([[complex(value)]]))

    @classmethod
    def from_modes(cls, band, modes, mean_zero=False):
        """Build from {(k1, k2): amplitude}; the conjugate mode is filled
        in automatically."""
        n = 2 * band + 1
        c = np.zeros((n, n), dtype=np.complex128)
        for (k1, k2), amp in modes.items():
            if max(abs(k1), abs(k2)) > band:
                raise ValueError(f"mode {(k1, k2)} outside band {band}")
            c[k1 + band, k2 + band] += amp
            if (k1, k2) != (0, 0):
                c[-k1 + band, -k2 + band] += np.conj(amp)
        return cls(c, mean_zero=mean_zero)

    # -- basic accessors ----------------------------------------------

    def coeff(self, k1, k2):
        K = self.band
        if max(abs(k1), abs(k2)) > K:
            return 0.0 + 0.0j
        return complex(self.coeffs[k1 + K, k2 + K])

    @property
    def mean(self):
        return float(self.coeffs[self.band, self.band].real)

    def max_abs_coeff(self):
        return float(np.abs(self.coeffs).max())

    def pad_to(self, band):
        """Same field viewed at a larger band."""
        if band < self.band:
            raise ValueError(f"cannot pad band {self.band} down to {band}")
        if band == self.band:
            return self
        return TorusField._exact(np.pad(self.coeffs, band - self.band), mean_zero=self.mean_zero)

    def trim(self):
        """Smallest band holding all nonzero coefficients. The slice is
        copied, so the result never keeps this field's box alive."""
        nz = np.argwhere(self.coeffs != 0)
        if nz.size == 0:
            return TorusField.zero(0, mean_zero=self.mean_zero)
        K = self.band
        b = int(np.abs(nz - K).max())
        if b == K:
            return self
        return TorusField._exact(self.coeffs[K - b:K + b + 1, K - b:K + b + 1].copy(),
                                 mean_zero=self.mean_zero)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TorusField):
            return NotImplemented
        big, small = (self, other) if self.band >= other.band else (other, self)
        c = big.coeffs.copy()
        lo, hi = big.band - small.band, big.band + small.band + 1
        c[lo:hi, lo:hi] += small.coeffs
        return TorusField._exact(c, mean_zero=self.mean_zero and other.mean_zero)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TorusField._exact(-self.coeffs, mean_zero=self.mean_zero)

    def __mul__(self, scalar):
        s = float(scalar)
        return TorusField._exact(self.coeffs * s, mean_zero=self.mean_zero)

    __rmul__ = __mul__

    def __repr__(self):
        return (f"TorusField(band={self.band}, mean_zero={self.mean_zero}, "
                f"max|c|={self.max_abs_coeff():.3e})")


@dataclass
class VectorField:
    """Pair of scalar fields sharing a band."""

    comp1: TorusField
    comp2: TorusField

    def __post_init__(self):
        K = max(self.comp1.band, self.comp2.band)
        self.comp1 = self.comp1.pad_to(K)
        self.comp2 = self.comp2.pad_to(K)

    @property
    def band(self):
        return self.comp1.band

    def __add__(self, other):
        return VectorField(self.comp1 + other.comp1, self.comp2 + other.comp2)

    def __sub__(self, other):
        return VectorField(self.comp1 - other.comp1, self.comp2 - other.comp2)

    def __mul__(self, scalar):
        return VectorField(self.comp1 * scalar, self.comp2 * scalar)

    __rmul__ = __mul__


@dataclass
class GridSamples:
    """Real samples at the N x N collocation nodes
    x_ij = 2*pi*(i, j)/N - (pi, pi)."""

    N: int
    values: np.ndarray


@dataclass(frozen=True)
class AliasReport:
    """Truncation diagnostics from a pointwise nonlinear evaluation."""

    tail: float      # l2 mass in the top dyadic shell of the sampling grid
    grid: int        # sampling grid size actually used
    kout: int        # truncation band of the returned field


# Grid side from which the transforms split their lines over every CPU
# the process may use. Timing the FFT passes alone on a 2-core box, two
# workers took 1.1-1.5x the one-worker time at N = 160-300, were mixed
# at N = 320-400, mostly faster at N = 432-600 and took 0.55-0.7x of it
# from N = 640 on.
THREADED_GRID_MIN = 432


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _workers(N):
    """FFT worker count for an N x N grid. pocketfft's threads split the
    lines of a pass, so each line's arithmetic and the output bits do
    not depend on it."""
    return _cpu_count() if N >= THREADED_GRID_MIN else 1


def _phase(out, c, k1_first, sgn):
    """out = c * (-1)^(k1+k2), the phase translating between x in
    [-pi,pi)^2 and the FFT's [0,2pi)^2 origin. Row i of c has
    k1 = k1_first + i; sgn holds (-1)^k2 over c's columns. Each entry is
    multiplied once, by sgn on even-k1 rows and by -sgn on odd ones, so
    the bits (signed zeros included) are those of c times the phase grid."""
    e = k1_first % 2
    np.multiply(c[e::2], sgn, out=out[e::2])
    np.multiply(c[1 - e::2], -sgn, out=out[1 - e::2])


def _signs(K):
    """(-1)^k for k = -K..K."""
    return np.where(np.arange(-K, K + 1) % 2 == 0, 1.0, -1.0)


def good_grid(n):
    """Smallest FFT-friendly size >= n (real transforms)."""
    return scipy.fft.next_fast_len(int(n), real=True)


def to_grid(f: TorusField, N: int) -> GridSamples:
    """Evaluate f at the N x N collocation nodes.

    Requires N >= 2*band+2 so every mode is represented without
    aliasing (raises GridTooSmall otherwise).
    """
    K = f.band
    if N < 2 * K + 2:
        raise GridTooSmall(f"grid {N} < 2*{K}+2 required for band {K}")
    sgn = _signs(K)[K:]
    w = _workers(N)
    # Only half-spectrum columns 0..K hold coefficients: run the axis-0
    # pass on those, then the real pass along axis 1 (irfft2 makes the
    # same two passes, over every column).
    A = np.zeros((N, K + 1), dtype=np.complex128)
    _phase(A[:K + 1], f.coeffs[K:, K:], 0, sgn)
    _phase(A[N - K:], f.coeffs[:K, K:], -K, sgn)
    H = np.zeros((N, N // 2 + 1), dtype=np.complex128)
    H[:, :K + 1] = scipy.fft.ifft(A, axis=0, norm="forward", workers=w, overwrite_x=True)
    vals = scipy.fft.irfft(H, n=N, axis=1, norm="forward", workers=w)
    return GridSamples(N=N, values=vals)


def from_grid(s: GridSamples, K: int) -> TorusField:
    """Band-K truncation of the discrete transform of the samples.

    Exact (to rounding) when the samples came from a band-K field; the
    transform is Hermitian only to rounding, relative to the samples, so
    the result goes through the checked constructor at that scale.
    Requires N >= 2K+2 so the requested modes occupy distinct bins.
    """
    N = s.N
    if N < 2 * K + 2:
        raise GridTooSmall(f"grid {N} < 2*{K}+2 required to read band {K}")
    H = scipy.fft.rfft2(s.values, norm="forward", workers=_workers(N))
    # k2 >= 0 sits in half-spectrum column k2; k2 < 0 is the conjugate of
    # the bin at -k, row (-k1) mod N, column -k2
    rows = np.arange(-K, K + 1) % N
    cols = np.arange(K + 1)
    c = np.empty((2 * K + 1, 2 * K + 1), dtype=np.complex128)
    c[:, K:] = H[rows[:, None], cols]
    c[:, :K] = np.conj(H[rows[::-1, None], cols[K:0:-1]])
    _phase(c, c, -K, _signs(K))
    return TorusField._read(c, s.values)


def multiply(f: TorusField, g: TorusField) -> TorusField:
    """Exact product; band(fg) = band(f) + band(g).

    Computed by collocation on a grid holding the full product band, so
    no aliasing can occur.
    """
    if f.band == 0:
        return g * f.coeffs[0, 0].real
    if g.band == 0:
        return f * g.coeffs[0, 0].real
    Kout = f.band + g.band
    N = good_grid(2 * Kout + 2)
    vf = to_grid(f, N).values
    vg = to_grid(g, N).values
    return from_grid(GridSamples(N=N, values=vf * vg), Kout)


def sqrt_pointwise(f: TorusField, oversample: int = 4, kout: int | None = None):
    """Band-limited pointwise square root.

    Samples f on a grid of size >= oversample*(2*band+2) (and large
    enough to read kout coefficients back), takes the square root, and
    truncates at kout. The returned AliasReport carries the l2 mass in
    the top dyadic shell of the sampled transform as the tail estimate.

    Raises NotPositive if the sampled minimum is <= 0.
    """
    if kout is None:
        kout = f.band
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    N = good_grid(max(oversample * (2 * f.band + 2), 2 * kout + 2))
    g = to_grid(f, N)
    m = float(g.values.min())
    if m <= 0.0:
        raise NotPositive(f"grid minimum {m:.6e} <= 0 on {N}x{N} grid")
    vals = np.sqrt(g.values)
    H = scipy.fft.rfft2(vals, norm="forward", workers=_workers(N))
    # energy in the top dyadic shell (N/4, N/2] of the sampling grid;
    # columns 1..N//2-1 of the half-spectrum stand for a mirrored pair
    b1 = np.arange(N)
    k1 = (b1 + N // 2) % N - N // 2
    k2 = np.arange(N // 2 + 1)
    norm2 = k1[:, None] ** 2 + k2[None, :] ** 2
    w = np.full(N // 2 + 1, 2.0)
    w[0] = 1.0
    if N % 2 == 0:
        w[-1] = 1.0
    shell = norm2 > (N / 4.0) ** 2
    tail = float(np.sqrt(np.sum((np.abs(H) ** 2 * w[None, :])[shell])))
    root = from_grid(GridSamples(N=N, values=vals), kout)
    return root, AliasReport(tail=tail, grid=N, kout=kout)


def inner(f: TorusField, g: TorusField) -> float:
    """L2 pairing <f, g> = int f g dx = (2 pi)^2 sum_k c_f(k) conj(c_g(k)),
    summed over the modes both fields hold."""
    K = min(f.band, g.band)
    a = f.coeffs[f.band - K:f.band + K + 1, f.band - K:f.band + K + 1]
    b = g.coeffs[g.band - K:g.band + K + 1, g.band - K:g.band + K + 1]
    return float((2.0 * np.pi) ** 2 * np.sum(a * np.conj(b)).real)


def random_field(band, rng, mean_zero=True):
    """Seeded Gaussian random field: independent complex normal
    coefficients, flat over the Euclidean ball |k| <= band, Hermitian
    symmetrized. `rng` is a numpy Generator (pass default_rng(seed) for
    reproducibility)."""
    n = 2 * band + 1
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = np.arange(-band, band + 1)
    outside = (k[:, None] ** 2 + k[None, :] ** 2) > band * band
    z[outside] = 0.0
    z = 0.5 * (z + np.conj(z[::-1, ::-1]))  # this leaves c(0) real
    if mean_zero:
        z[band, band] = 0.0
    return TorusField._exact(z, mean_zero=mean_zero)


# -- SQF1 serialization -----------------------------------------------

def _write_atomic(path, *chunks):
    """Write the byte chunks to path atomically: a temp file in the same
    directory, then a rename. The temp file is removed on any error."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".part.")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_sqf1(f: TorusField, path):
    """Write the field in the SQF1 layout (atomic: temp file + rename)."""
    header = struct.pack("<4sIIq", _SQF1_MAGIC, _SQF1_VERSION, f.band,
                         1 if f.mean_zero else 0)
    _write_atomic(path, header, np.ascontiguousarray(f.coeffs, dtype="<c16"))


def read_sqf1(path) -> TorusField:
    """Read an SQF1 field; verifies magic, version and size, and, through
    the checked constructor, finite and Hermitian-symmetric coefficients
    and the meanZero flag against c(0) (ParseError on any mismatch)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 20:
        raise ParseError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, band, mz = struct.unpack("<4sIIq", raw[:20])
    if magic != _SQF1_MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    if version != _SQF1_VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
    if mz not in (0, 1):
        raise ParseError(f"{path}: meanZero flag must be 0/1, got {mz}")
    n = 2 * band + 1
    want = 20 + 16 * n * n
    if len(raw) != want:
        raise ParseError(f"{path}: expected {want} bytes for band {band}, got {len(raw)}")
    c = np.frombuffer(raw, dtype="<c16", offset=20).reshape(n, n)
    try:
        return TorusField(c, mean_zero=bool(mz))
    except ValueError as e:  # NonZeroMean included
        raise ParseError(f"{path}: {e}") from None
