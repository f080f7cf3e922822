"""Band-limited real fields on the 2-torus [-pi, pi]^2.

A TorusField holds the Fourier coefficients c(k) of

    f(x) = sum_{|k|_inf <= K} c(k) exp(i k.x).

Every field is real-valued, so c(-k) = conj(c(k)) and the k2 < 0 half
of the (2K+1) x (2K+1) coefficient box is redundant: a field stores
only its k2 >= 0 half, a frozen (2K+1) x (K+1) complex array indexed
[k1+K, k2], whose k2 = 0 column is Hermitian in itself. `coeff` reads
any k, and `box_rows` rebuilds rows of the box, their k2 < 0 half as
the mirror conjugate: a few rows at a time for SQF1 writes and the
spectrum export, and all of them, `box()`, only for a dense field's
block in `ModulatedField.wave`; `support()` lists the half's nonzero
rows and columns. Sums over the box (`inner`, Sobolev norms, shell
energies) count a k2 > 0 column of the half twice. A field is
mean-zero when c(0) is exactly 0, a fact read off the array.

One Hermitian rule, two doors. Whole boxes from outside (user arrays,
`from_modes`, `constant`) go through the checked constructor
`TorusField(coeffs, mean_zero)`: copy, finite check, Hermitian check
of the defect max |c(k) - conj(c(-k))| (1e-13 relative to the largest
coefficient), and then only the half is kept, each entry that differs
from its mirror's conjugate averaged with it (`_symmetrise`); a
declared mean-zero c(0) must be negligible and is then zeroed. SQF1
reads apply the same checks and rule, in the same order and with the
same messages, to a box read once from the file: both doors read it
with one scan, `_scan_box`, which holds no whole-box temporary. Every
entry that agrees with its mirror keeps its bits, signed zeros
included, so a Hermitian box is kept as it stands and SQF1 round trips
are bit for bit.
Computed halves, transform reads and factored fields
(`ModulatedField.to_dense`), go through `_computed_half`, which checks
their k2 = 0 column (1e-13 relative to a bound on every coefficient)
and symmetrises it. Exact operations
(multipliers, lattice shifts, sums, scalar multiples, pad, trim) act
coefficient by coefficient on the half, frozen by `TorusField._exact`.

Collocation uses the nodes x_ij = 2*pi*(i, j)/N - (pi, pi) and real
transforms, which read and write only the k2 >= 0 half. `to_grid`
writes the half straight into the spectrum and runs the axis-0 pass in
place on the runs of non-empty columns only (a zero sample may differ
from the full pass in its sign); it is the one home of the inverse
transform. `_truncate` reads the half off the forward transform by
slices. Products of band-limited fields are band-limited, so they are
computed exactly by zero-padding to a grid that holds the full product
band (N >= 2*(Kf+Kg)+2); the 3/2 rule is never used. `products`
transforms a factor shared by several products once.

One rule threads the module: a loop or transform over an N x N grid
uses `_threads(N)` threads, every CPU of `_cpu_count()` from a grid side
of THREADED_GRID_MIN on and one below it. Transforms pass it to
pocketfft as `workers`; `_row_blocks` runs three loops over GRID_BLOCK
rows in that many chunks on the module's one thread pool: the phasing
of a half into the spectrum, the max-abs axis-1 pass (one worker per
block) and `products`' multiply. pocketfft's threads split the lines of
a pass, each block writes only its own rows and every maximum is exact,
so the bits do not depend on the thread count, and under `taskset -c 0`
no transform or loop here uses a second thread.

`Sum` builds a chain of `+` and `-` in one half, with the same bits.
A half is written only before `_exact` freezes it.

The binary field format SQF1 is implemented here. The file holds the
whole box, and neither side holds it: a write rebuilds it from the half
GRID_BLOCK rows at a time, and a read streams it once straight into the
half it keeps, in pairs of GRID_BLOCK rows k1 <= 0 and their mirrors -k1.

    bytes 0-3   magic ASCII "SQF1"
    u32 LE      version = 1
    u32 LE      band K
    i64 LE      meanZero flag: 1 when c(0) == 0, else 0; a set flag
                is checked against c(0) on read
    then (2K+1)^2 coefficients as (re, im) f64 LE pairs, row-major,
    k1 = -K..K outer, k2 = -K..K inner.
"""

from __future__ import annotations

import os
import struct
import tempfile
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import GridBudgetExceeded, GridTooSmall, NonZeroMean, NotPositive, ParseError

HERMITIAN_RTOL = 1e-13

_SQF1_MAGIC = b"SQF1"
_SQF1_VERSION = 1


class TorusField:
    """Immutable band-limited real scalar field, built by the checked
    constructor from a (2K+1, 2K+1) complex array indexed [k1+K, k2+K],
    of which it keeps the k2 >= 0 half, `coeffs`, indexed [k1+K, k2].
    mean_zero declares a vanishing mean: c(0) must be negligible and is
    then zeroed exactly."""

    __slots__ = ("coeffs", "band")

    def __init__(self, coeffs, mean_zero=False):
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] % 2 != 1:
            raise ValueError(f"coefficient array must be square odd-sized, got {c.shape}")
        h, maxc, viol = _scan_box(c.shape[0], lambda out, a: np.copyto(out, c[a:a + len(out)]))
        self._freeze(_checked(h, maxc, viol, mean_zero))

    def _freeze(self, c):
        c.flags.writeable = False
        self.coeffs, self.band = c, c.shape[1] - 1

    @classmethod
    def _exact(cls, c):
        """Wrap a fresh k2 >= 0 half whose k2 = 0 column is Hermitian by
        construction; c is frozen in place, not copied."""
        f = cls.__new__(cls)
        f._freeze(c)
        return f

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, band=0):
        return cls._exact(np.zeros((2 * band + 1, band + 1), dtype=np.complex128))

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
        """c(k); for k2 < 0 the conjugate of c(-k), and 0 outside the band."""
        K = self.band
        if max(abs(k1), abs(k2)) > K:
            return 0.0 + 0.0j
        if k2 < 0:
            return complex(self.coeffs[K - k1, -k2]).conjugate()
        return complex(self.coeffs[k1 + K, k2])

    def box(self):
        """The whole (2K+1, 2K+1) coefficient box, indexed [k1+K, k2+K],
        as a fresh array. Only `ModulatedField.wave` reads it, for a
        dense field's block; SQF1 writes and the spectrum export take the
        box a few rows at a time from `box_rows`."""
        return self.box_rows(0, 2 * self.band + 1)

    def box_rows(self, a, b):
        """Rows a..b-1 of the box (k1 = a-K..b-1-K) as a fresh
        (b-a, 2K+1) array: the stored half's rows, and their k2 < 0 half
        as the conjugate of the mirror rows -k1."""
        h, K = self.coeffs, self.band
        c = np.empty((b - a, 2 * K + 1), dtype=np.complex128)
        c[:, K:] = h[a:b]
        np.conjugate(h[::-1][a:b, K:0:-1], out=c[:, :K])
        return c

    @property
    def mean_zero(self):
        """Whether c(0) is exactly 0."""
        return bool(self.coeffs[self.band, 0] == 0)

    def max_abs_coeff(self):
        return float(np.abs(self.coeffs).max())

    def pad_to(self, band):
        """Same field viewed at a larger band."""
        if band < self.band:
            raise ValueError(f"cannot pad band {self.band} down to {band}")
        if band == self.band:
            return self
        w = band - self.band
        return TorusField._exact(np.pad(self.coeffs, ((w, w), (0, w))))

    def support(self):
        """k1 of the half's nonzero rows and k2 of its nonzero columns, ascending."""
        nz = self.coeffs != 0
        return np.flatnonzero(nz.any(axis=1)) - self.band, np.flatnonzero(nz.any(axis=0))

    def trim(self):
        """Smallest band holding all nonzero coefficients. The slice is
        copied, so the result never keeps this field's half alive."""
        rows, cols = self.support()
        if cols.size == 0:
            return TorusField.zero(0)
        b = max(-int(rows[0]), int(rows[-1]), int(cols[-1]))
        if b == self.band:
            return self
        return TorusField._exact(_window(self.coeffs, b).copy())

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TorusField):
            return NotImplemented
        big, small = (self, other) if self.band >= other.band else (other, self)
        return Sum(big).add(small).field()

    def __sub__(self, other):
        if not isinstance(other, TorusField):
            return NotImplemented
        return Sum(self).sub(other).field()

    def __neg__(self):
        return TorusField._exact(-self.coeffs)

    def __mul__(self, scalar):
        s = float(scalar)
        return TorusField._exact(self.coeffs * s)

    __rmul__ = __mul__

    def __repr__(self):
        return (f"TorusField(band={self.band}, mean_zero={self.mean_zero}, "
                f"max|c|={self.max_abs_coeff():.3e})")


def _check_hermitian(viol, maxc):
    if viol > HERMITIAN_RTOL * maxc:
        raise ValueError(f"Hermitian symmetry violated: {viol:.3e} > "
                         f"{HERMITIAN_RTOL:g} * {maxc:.3e}")


def _checked(h, maxc, viol, mean_zero):
    """h, a half read by `_scan_box`, after the checked constructor's
    tests in order: finite coefficients, the Hermitian defect, mean_zero."""
    # 2*maxc bounds every entry of the symmetrization
    if not np.isfinite(2.0 * maxc):
        raise ValueError(f"non-finite or overflowing coefficient (max |c| = {maxc})")
    _check_hermitian(viol, maxc)
    if mean_zero:
        _zero_mean(h, maxc)
    return h


def _symmetrise(out, x, y):
    """Average out, a copy of x, with y's conjugate where the two
    differ: there out = (x + conj(y)) * 0.5, and elsewhere it keeps x's
    bits, signed zeros included, so a box Hermitian already is kept as
    it stands and an SQF1 read returns the field that was written. y is
    x's mirror, read from a buffer out does not share."""
    y = np.conj(y)
    d = x != y
    out[d] = (x[d] + y[d]) * 0.5


def _scan_box(n, rows):
    """The k2 >= 0 half of an (n, n) box from outside, n = 2K+1, its max
    |c| and its Hermitian defect max |c(k) - conj(c(-k))|, NaN
    propagating. rows(out, a) fills out with box rows a.., each read
    once, in pairs of GRID_BLOCK rows k1 <= 0 and their mirrors -k1; a
    pair with a defect and finite entries is written by `_symmetrise`."""
    K = n // 2
    buf = np.empty((min(2 * GRID_BLOCK, n), n), dtype="<c16")
    h = np.empty((n, K + 1), dtype=np.complex128)
    maxc = viol = 0.0
    for a in range(0, K + 1, GRID_BLOCK):
        b = min(a + GRID_BLOCK, K + 1)
        m = b - a
        if b <= K:
            pair = buf[:2 * m]
            rows(pair[:m], a)
            rows(pair[m:], n - b)
        else:  # the last pair's rows a..n-1-a lie together
            pair = buf[:2 * m - 1]
            rows(pair, a)
        # top holds rows a..b-1 and mirror rows n-b..n-a, so
        # mirror[::-1] holds -k1 in top's order; in the last pair both
        # hold the k1 = 0 row, read once
        top, mirror = pair[:m], pair[-m:]
        pmax = float(np.abs(pair).max())
        # every pair {k, -k} has a member in top, and |b - conj(a)| is
        # |a - conj(b)|, so this is the defect over the whole box
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf
            defect = float(np.abs(top - np.conj(mirror[::-1, ::-1])).max())
        h[a:b], h[n - b:n - a] = top[:, K:], mirror[:, K:]
        if defect > 0.0 and np.isfinite(2.0 * pmax):  # a non-finite pair is refused later
            _symmetrise(h[a:b], top[:, K:], mirror[::-1, K::-1])
            _symmetrise(h[n - b:n - a], mirror[:, K:], top[::-1, K::-1])
        maxc, viol = np.maximum(maxc, pmax), np.maximum(viol, defect)  # NaN propagates
    return h, float(maxc), float(viol)  # viol is 0 when maxc is


def _zero_mean(h, maxc):
    """Zero c(0) of the half h, declared mean-zero, after checking it
    negligible against maxc (NonZeroMean otherwise)."""
    K = h.shape[1] - 1
    if maxc > 0.0 and abs(h[K, 0]) > HERMITIAN_RTOL * maxc:
        raise NonZeroMean(f"declared mean-zero but c(0) = {h[K, 0]:.3e} "
                          f"(max {maxc:.3e})")
    if h[K, 0] != 0:
        h[K, 0] = 0.0


def _window(c, band):
    """The band-`band` window of the k2 >= 0 half c (a view)."""
    K = c.shape[0] // 2
    return c[K - band:K + band + 1, :band + 1]


class Sum:
    """A running sum of fields in one k2 >= 0 half.

    `add(f)` and `sub(f)` give the bits of TorusField's `+` and `-`: the
    smaller half goes into the window of the larger, and a larger
    subtrahend is negated first (IEEE a - b is a + (-b)). While the
    sum's half is the larger, each term goes in place. A term is a
    field, or a running Sum read as it stands. `negate()` flips the sign
    in place; `field()` freezes the half and spends the sum, giving a
    TorusField.
    """

    __slots__ = ("_c",)

    def __init__(self, start):
        """Start from a copy of a field's half, or take over a fresh
        half whose k2 = 0 column is Hermitian."""
        self._c = start.coeffs.copy() if isinstance(start, TorusField) else start

    def _take(self, c):
        """Take over c, a fresh half of larger band, adding the sum into it."""
        w = _window(c, self._c.shape[0] // 2)
        w += self._c
        self._c = c
        return self

    def add(self, f):
        c = f._c if isinstance(f, Sum) else f.coeffs
        if c.shape[0] > self._c.shape[0]:
            return self._take(c.copy())
        w = _window(self._c, c.shape[0] // 2)
        w += c
        return self

    def sub(self, f):
        c = f._c if isinstance(f, Sum) else f.coeffs
        if c.shape[0] > self._c.shape[0]:
            return self._take(-c)
        w = _window(self._c, c.shape[0] // 2)
        w -= c
        return self

    def negate(self):
        np.negative(self._c, out=self._c)
        return self

    def field(self):
        c, self._c = self._c, None
        return TorusField._exact(c)


@dataclass
class VectorField:
    """Pair of scalar fields, dense (TorusField) or factored by carrier
    (multipliers.ModulatedField); sums and scalar multiples act
    component by component."""

    comp1: TorusField
    comp2: TorusField

    def __add__(self, other):
        return VectorField(self.comp1 + other.comp1, self.comp2 + other.comp2)

    def __mul__(self, scalar):
        return VectorField(self.comp1 * scalar, self.comp2 * scalar)

    __rmul__ = __mul__


# Grid side from which every loop and transform over an N x N grid runs
# on `_cpu_count()` threads. On a 2-core box, single calls on the pool
# took 1.06-1.14x their inline time up to N = 1500, where `_fill` has too
# few rows to pay for the dispatch, and 0.65-1.06x from N = 1600 on;
# pocketfft's threads below it gained no workload a measurable step.
THREADED_GRID_MIN = 1600


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _threads(N):
    """Threads for a loop or transform over an N x N grid: `_cpu_count()`
    from THREADED_GRID_MIN on, else 1."""
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
    """(-1)^k2 for k2 = 0..K."""
    return np.where(np.arange(K + 1) % 2 == 0, 1.0, -1.0)


def good_grid(n):
    """Smallest FFT-friendly size >= n (real transforms)."""
    return scipy.fft.next_fast_len(int(n), real=True)


# Rows of the spectrum that `to_grid`'s max-abs mode runs the axis-1
# pass over at a time, and rows of a field's half that `_fill` phases
# at a time. A block of samples is 8 * GRID_BLOCK * N bytes.
GRID_BLOCK = 64


# The pool `_row_blocks` runs on. Its threads start on the first submit,
# so importing the module starts none.
_POOL = ThreadPoolExecutor(max_workers=_cpu_count(), thread_name_prefix="sqgci-fields")


def _row_blocks(fn, n, N):
    """[fn(a, b) for each GRID_BLOCK rows a..b-1 of n rows], in order, for
    a loop over an N x N grid, run on the pool in `_threads(N)`
    contiguous chunks, or inline when that is one. fn(a, b) must write
    only rows a..b-1 of its arrays, so the bits do not depend on the
    chunks, and must not use the pool itself, which could then wait on
    its own threads. An exception is raised from the first chunk that
    raises, once every chunk has finished."""
    bounds = [(a, min(a + GRID_BLOCK, n)) for a in range(0, n, GRID_BLOCK)]
    chunks = min(_threads(N), len(bounds))
    if chunks <= 1:
        return [fn(a, b) for a, b in bounds]
    size = -(-len(bounds) // chunks)
    futures = [_POOL.submit(lambda part: [fn(a, b) for a, b in part], bounds[i:i + size])
               for i in range(0, len(bounds), size)]
    wait(futures)
    return [r for fut in futures for r in fut.result()]


def _fill(H, h, k1_first, sgn, symbol, N):
    """Phase the rows of the half h, row i at k1 = k1_first + i, into
    the rows of H, GRID_BLOCK rows at a time (`_row_blocks` of an N x N
    grid). With a symbol, each block is multiplied by symbol(k1, k2) (k1
    a column, k2 = 0..K a row, as floats) on its way in, with the bits
    of m * h phased. Returns, per block, which columns of H it filled
    with a nonzero entry."""
    k2 = np.arange(h.shape[1], dtype=np.float64)[None, :]

    def block(a, b):
        rows = h[a:b]
        if symbol is not None:
            k1 = np.arange(k1_first + a, k1_first + b, dtype=np.float64)[:, None]
            rows = rows * symbol(k1, k2)
        _phase(H[a:b], rows, k1_first + a, sgn)
        return np.any(H[a:b], axis=0)

    return _row_blocks(block, h.shape[0], N)


def to_grid(f: TorusField, N: int, symbol=None, max_abs: bool = False):
    """Real samples of the band-K field f at the N x N collocation nodes
    x_ij = 2*pi*(i, j)/N - (pi, pi).

    f's half is phased straight into the first K+1 columns of the zeroed
    half spectrum, and the axis-0 pass runs in place on each run of
    columns holding a nonzero coefficient; the real pass along axis 1
    then runs over the whole spectrum (irfft2 makes the same two passes,
    over every column). A skipped column holds only zeros, so every
    nonzero sample has irfft2's bits; a zero sample may differ in its
    sign.

    symbol, a real-even multiplier m(k1, k2) such as
    `multipliers.riesz_odd_symbol`, samples m f instead, with the bits
    of sampling the image f.coeffs * m: it is evaluated on blocks of the
    half's rows as they are written, so neither the image nor a
    whole-band symbol grid is built. max_abs returns the largest |sample|
    (NaN if any sample is NaN) instead of the grid: the axis-1 pass runs
    over GRID_BLOCK rows of the spectrum at a time, so no N x N sample
    grid is held.

    Requires N >= 2K+2 so every mode is represented without aliasing
    (raises GridTooSmall otherwise).
    """
    h, K = f.coeffs, f.band
    if N < 2 * K + 2:
        raise GridTooSmall(f"grid {N} < 2*{K}+2 required for band {K}")
    sgn = _signs(K)
    H = np.zeros((N, N // 2 + 1), dtype=np.complex128)
    # column k2 is nonempty when filled[k2 + 1]; the edges of its runs of
    # nonempty columns alternate between starts and stops
    filled = np.zeros(K + 3, dtype=bool)
    for nonzero in (_fill(H[:K + 1, :K + 1], h[K:], 0, sgn, symbol, N)
                    + _fill(H[N - K:, :K + 1], h[:K], -K, sgn, symbol, N)):
        filled[1:-1] |= nonzero
    edges = np.flatnonzero(filled[1:] != filled[:-1]).tolist()
    for a, b in zip(edges[::2], edges[1::2]):
        run = H[:, a:b]
        out = scipy.fft.ifft(run, axis=0, norm="forward", workers=_threads(N),
                             overwrite_x=True)
        if not np.may_share_memory(out, run):  # scipy may decline to work in place
            run[...] = out
    if not max_abs:
        return scipy.fft.irfft(H, n=N, axis=1, norm="forward", workers=_threads(N))
    # np.max propagates NaN; a pooled block keeps to its own thread
    return float(np.max(_row_blocks(lambda a, b: _max_abs(
        scipy.fft.irfft(H[a:b], n=N, axis=1, norm="forward", workers=1)), N, N)))


def _max_abs(g) -> float:
    # np.abs(g).max() with no |g| grid: max and min propagate NaN
    return float(np.abs([g.max(), g.min()]).max())


def _truncate(H, scale, K):
    """Band-K field read off H = rfft2(values, norm="forward"), scale
    being _max_abs(values).

    The k2 >= 0 half is read off H by slices, with no gathers, and
    phased as it is read. Its k2 = 0 column goes to `_computed_half` at
    the scale of the samples, which bound every bin.
    """
    N = H.shape[0]
    # no partial sum of the transform can overflow below this bound
    if not np.isfinite(2.0 * N * N * scale):
        raise ValueError(f"non-finite or overflowing sample (max |x| = {scale})")
    sgn = _signs(K)
    c = np.empty((2 * K + 1, K + 1), dtype=np.complex128)
    # the k1 < 0 rows sit at the bottom of H, the k1 >= 0 rows at its top
    _phase(c[:K], H[N - K:, :K + 1], -K, sgn)
    _phase(c[K:], H[:K + 1, :K + 1], 0, sgn)
    return _computed_half(c, scale)


def _computed_half(c, scale):
    """Freeze c, a fresh computed half, after checking its k2 = 0 column
    Hermitian to HERMITIAN_RTOL * scale, scale bounding every coefficient
    (ValueError otherwise), and symmetrising it in place."""
    col = c[:, 0]
    _check_hermitian(float(np.abs(col - np.conj(col[::-1])).max()), scale)
    col += np.conj(col[::-1])
    col *= 0.5
    return TorusField._exact(c)


def products(f: TorusField, gs) -> list:
    """Exact products f g for each g in gs; band(fg) = band(f) + band(g).

    Each is computed by collocation on a grid holding its full product
    band, so no aliasing can occur, and f is transformed once per grid
    size, however many factors share it. f's grid is dropped after the
    last factor that uses it, and each product's samples once their
    forward transform is taken.
    """
    sides = [good_grid(2 * (f.band + g.band) + 2) if f.band and g.band else None
             for g in gs]
    last = {N: i for i, N in enumerate(sides)}
    out, grids = [], {}
    for i, (g, N) in enumerate(zip(gs, sides)):
        if f.band == 0:
            out.append(g * f.coeffs[0, 0].real)
        elif g.band == 0:
            out.append(f * g.coeffs[0, 0].real)
        else:
            fvals = grids.pop(N) if N in grids else to_grid(f, N)
            if last[N] > i:
                grids[N] = fvals
            vals = to_grid(g, N)
            scale = float(np.max(_row_blocks(lambda a, b: _max_abs(
                np.multiply(fvals[a:b], vals[a:b], out=vals[a:b])), N, N)))
            del fvals
            H = scipy.fft.rfft2(vals, norm="forward", workers=_threads(N))
            del vals
            out.append(_truncate(H, scale, f.band + g.band))
            del H
    return out


def multiply(f: TorusField, g: TorusField) -> TorusField:
    """Exact product; band(fg) = band(f) + band(g). The one-factor case
    of `products`."""
    return products(f, (g,))[0]


def sqrt_grid(band: int, oversample: int, kout: int, grid_cap: int | None = None) -> int:
    """Side of the grid `sqrt_pointwise` samples a band-`band` field on
    to read kout coefficients back: the smallest FFT-friendly size
    >= oversample*(2*band+2) and >= 2*kout+2. Raises GridBudgetExceeded
    if it exceeds grid_cap."""
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    N = good_grid(max(oversample * (2 * band + 2), 2 * kout + 2))
    if grid_cap is not None and N > grid_cap:
        raise GridBudgetExceeded(f"sqrt sampling of band {band} needs a {N}-point "
                                 f"axis, cap is {grid_cap}")
    return N


def sqrt_pointwise(f: TorusField, oversample: int = 4, kout: int | None = None,
                   grid_cap: int | None = None):
    """Band-limited pointwise square root.

    Samples f on the `sqrt_grid` of its band, oversample and kout,
    takes the square root, and truncates its transform at kout. Returns
    (root, tail): tail, the alias estimate, is the l2 mass in the top
    dyadic shell (N/4, N/2] of that transform.

    Raises GridBudgetExceeded if that grid's side exceeds grid_cap, and
    NotPositive if the sampled minimum is <= 0.
    """
    if kout is None:
        kout = f.band
    N = sqrt_grid(f.band, oversample, kout, grid_cap)
    g = to_grid(f, N)
    m = float(g.min())
    if m <= 0.0:
        raise NotPositive(f"grid minimum {m:.6e} <= 0 on {N}x{N} grid")
    vals = np.sqrt(g)
    H = scipy.fft.rfft2(vals, norm="forward", workers=_threads(N))
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
    return _truncate(H, _max_abs(vals), kout), tail


def _half_vdot(a, b) -> float:
    """Re sum over the whole box of conj(a(k)) b(k) for the k2 >= 0 halves
    a and b: a k2 > 0 column stands for itself and its mirror."""
    return 2.0 * np.vdot(a, b).real - np.vdot(a[:, 0], b[:, 0]).real


def inner(f: TorusField, g: TorusField) -> float:
    """L2 pairing <f, g> = int f g dx = (2 pi)^2 sum_k c_f(k) conj(c_g(k)),
    summed over the half of the modes both fields hold."""
    K = min(f.band, g.band)
    return float((2.0 * np.pi) ** 2 * _half_vdot(_window(g.coeffs, K), _window(f.coeffs, K)))


def random_field(band, rng, mean_zero=True):
    """Seeded Gaussian random field: independent complex normal
    coefficients, flat over the Euclidean ball |k| <= band, Hermitian
    symmetrized on the half that is kept. `rng` is a numpy Generator
    (pass default_rng(seed) for reproducibility)."""
    n = 2 * band + 1
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = np.arange(-band, band + 1)
    outside = (k[:, None] ** 2 + k[None, :] ** 2) > band * band
    z[outside] = 0.0
    h = 0.5 * (z[:, band:] + np.conj(z[::-1, band::-1]))  # this leaves c(0) real
    if mean_zero:
        h[band, 0] = 0.0
    return TorusField._exact(h)


# -- SQF1 serialization -----------------------------------------------

def _write_atomic(path, chunks):
    """Write an iterable of byte chunks to path atomically, drawing one at
    a time: a temp file in the same directory, then a rename. The temp
    file is removed on any error."""
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
    """Write the field's whole box in the SQF1 layout (atomic: temp file
    + rename), rebuilding it from the half GRID_BLOCK rows at a time."""
    n = 2 * f.band + 1

    def chunks():
        yield struct.pack("<4sIIq", _SQF1_MAGIC, _SQF1_VERSION, f.band,
                          1 if f.mean_zero else 0)
        for a in range(0, n, GRID_BLOCK):
            yield np.ascontiguousarray(f.box_rows(a, min(a + GRID_BLOCK, n)), dtype="<c16")

    _write_atomic(path, chunks())


def read_sqf1(path) -> TorusField:
    """Read an SQF1 field; verifies magic, version and, before the box is
    read, the file's size, and then the checked constructor's tests, in
    its order and with its messages: finite coefficients, Hermitian
    symmetry to HERMITIAN_RTOL, and the meanZero flag against c(0)
    (ParseError on any mismatch).

    The box is read in one pass, each byte once, by the constructor's
    own reader, `_scan_box`, straight into the k2 >= 0 half that the
    field keeps, so no whole box is held and the half holds the
    constructor's bits."""
    with open(path, "rb") as fh:
        head = fh.read(20)
        if len(head) < 20:
            raise ParseError(f"{path}: truncated header ({len(head)} bytes)")
        magic, version, K, mz = struct.unpack("<4sIIq", head)
        if magic != _SQF1_MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r}")
        if version != _SQF1_VERSION:
            raise ParseError(f"{path}: unsupported version {version}")
        if mz not in (0, 1):
            raise ParseError(f"{path}: meanZero flag must be 0/1, got {mz}")
        n = 2 * K + 1
        want = 20 + 16 * n * n

        def wrong_size(got):
            return ParseError(f"{path}: expected {want} bytes for band {K}, got {got}")

        size = os.fstat(fh.fileno()).st_size
        if size != want:
            raise wrong_size(size)

        def rows(out, a):
            fh.seek(20 + 16 * n * a)
            if fh.readinto(out) < out.nbytes:  # the file shrank since the fstat
                raise wrong_size(fh.seek(0, os.SEEK_END))

        h, maxc, viol = _scan_box(n, rows)
        fh.seek(want)
        if fh.read(1):  # one byte past the box shows a file that grew since the fstat
            raise wrong_size(want + 1)
    try:
        return TorusField._exact(_checked(h, maxc, viol, mz))
    except ValueError as e:  # NonZeroMean included
        raise ParseError(f"{path}: {e}") from None
