"""Field container, exact products, grids, and SQF1 round-trips.

The two oracles everything leans on: direct summation of the Fourier
series at the grid nodes, and a dictionary convolution for products.
Both are O(slow) on purpose.
"""

from __future__ import annotations

import functools
import io
import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqgci import fields
from sqgci.errors import GridTooSmall, NonZeroMean, NotPositive, ParseError
from sqgci.fields import (
    GRID_BLOCK,
    THREADED_GRID_MIN,
    Sum,
    TorusField,
    VectorField,
    good_grid,
    inner,
    multiply,
    products,
    random_field,
    read_sqf1,
    sqrt_pointwise,
    to_grid,
    write_sqf1,
)
from sqgci.multipliers import (
    DIRECTIONS,
    L2,
    ModulatedField,
    directional_grad,
    inv_div,
    lambda_s,
    lowpass,
    riesz,
    riesz_odd,
    riesz_odd_symbol,
    t_ops,
)


def _direct_sum(f: TorusField, N: int) -> np.ndarray:
    """Evaluate sum_k c_k exp(i k.x) by brute force at the N x N nodes."""
    K = f.band
    x = 2.0 * np.pi * np.arange(N) / N - np.pi
    out = np.zeros((N, N), dtype=np.complex128)
    for k1 in range(-K, K + 1):
        for k2 in range(-K, K + 1):
            c = f.coeff(k1, k2)
            if c == 0.0:
                continue
            out += c * np.exp(1j * (k1 * x[:, None] + k2 * x[None, :]))
    return out.real


def _conv_oracle(f: TorusField, g: TorusField) -> TorusField:
    """Dictionary convolution (fg)_k = sum_m f_m g_{k-m}."""
    Kout = f.band + g.band
    n = 2 * Kout + 1
    acc = np.zeros((n, n), dtype=np.complex128)
    for m1 in range(-f.band, f.band + 1):
        for m2 in range(-f.band, f.band + 1):
            cf = f.coeff(m1, m2)
            if cf == 0.0:
                continue
            for p1 in range(-g.band, g.band + 1):
                for p2 in range(-g.band, g.band + 1):
                    cg = g.coeff(p1, p2)
                    if cg != 0.0:
                        acc[Kout + m1 + p1, Kout + m2 + p2] += cf * cg
    return TorusField(acc)


def test_to_grid_matches_direct_summation():
    rng = np.random.default_rng(11)
    for band, N in ((3, 16), (5, 18), (1, 4)):
        f = random_field(band, rng)
        got = to_grid(f, N)
        want = _direct_sum(f, N)
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_cosine_exact_on_nodes():
    f = TorusField.from_modes(3, {(3, -1): 0.5})
    N = 32
    x = 2.0 * np.pi * np.arange(N) / N - np.pi
    want = np.cos(3 * x[:, None] - x[None, :])
    np.testing.assert_allclose(to_grid(f, N), want, atol=1e-14)


def _read(values, K):
    """Band-K read of N x N samples, made as `products` and
    `sqrt_pointwise` make theirs."""
    H = scipy.fft.rfft2(values, norm="forward", workers=1)
    return fields._truncate(H, fields._max_abs(values), K)


def test_grid_roundtrip():
    rng = np.random.default_rng(2)
    for band in (1, 4, 9):
        f = random_field(band, rng)
        N = good_grid(2 * band + 2)
        back = _read(to_grid(f, N), band)
        np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-14)


def test_grid_too_small_raises():
    f = TorusField.from_modes(4, {(4, 0): 1.0})
    with pytest.raises(GridTooSmall):
        to_grid(f, 9)


def _phase_grid(K):
    s = np.where(np.arange(-K, K + 1) % 2 == 0, 1.0, -1.0)
    return s[:, None] * s[None, :]


def _irfft2_oracle(f: TorusField, N: int) -> np.ndarray:
    """Inverse transform over the whole half spectrum: the coefficients
    placed by a fancy index, then one irfft2."""
    K = f.band
    H = np.zeros((N, N // 2 + 1), dtype=np.complex128)
    rows = np.arange(-K, K + 1) % N
    H[rows[:, None], np.arange(K + 1)[None, :]] = (f.box() * _phase_grid(K))[:, K:]
    return scipy.fft.irfft2(H, s=(N, N), norm="forward")


def _rfft2_oracle(values: np.ndarray, K: int) -> np.ndarray:
    """Band-K read of one rfft2, mode by mode, with the whole box
    symmetrised."""
    N = values.shape[0]
    H = scipy.fft.rfft2(values, norm="forward")
    c = np.empty((2 * K + 1, 2 * K + 1), dtype=np.complex128)
    for k2 in range(-K, K + 1):
        for k1 in range(-K, K + 1):
            h = H[k1 % N, k2] if k2 >= 0 else np.conj(H[-k1 % N, -k2])
            c[k1 + K, k2 + K] = h
    c *= _phase_grid(K)
    c += np.conj(c[::-1, ::-1])
    c *= 0.5
    return c


# The crossover kinds sample grids around this side, with
# fields.THREADED_GRID_MIN monkeypatched to it: grids at the real one
# would cost tier-1 time and test nothing more.
CROSSOVER = 432


def _grid_side(band, kind, extra):
    return {"minimal": 2 * band + 2,
            "oversampled": 2 * band + 2 + 2 * extra,
            "odd": 2 * band + 3 + 2 * extra,
            "below_crossover": CROSSOVER - 1,
            "at_crossover": CROSSOVER,
            "above_crossover": CROSSOVER + 1 + 2 * extra}[kind]


def _test_field(fill, band, rng, mean_zero):
    """A band-`band` field whose k2 >= 0 half is disc-filled ("disc") or
    holds runs of empty columns: a random column mask with the k2 = 0
    and k2 = band columns empty ("columns"), one cosine carrier of a
    small amplitude ("wave"), or nothing at all ("zero")."""
    if fill == "disc":
        return random_field(band, rng, mean_zero=mean_zero)
    if fill == "zero":
        return TorusField.zero(band)
    if fill == "columns":
        keep = rng.random(band + 1) < 0.5  # over k2 = 0..band
        keep[0] = keep[-1] = False
        c = random_field(band, rng, mean_zero=mean_zero).coeffs
        return TorusField._exact(np.where(keep, c, 0.0))
    b = band // 4
    reach = band - b
    p = (int(rng.integers(-reach, reach + 1)), reach)
    return ModulatedField.wave(random_field(b, rng, mean_zero=False), p, "cos").to_dense()


@settings(max_examples=100, deadline=None)
@given(band=st.integers(0, 40),
       kind=st.sampled_from(["minimal", "oversampled", "odd", "below_crossover",
                             "at_crossover", "above_crossover"]),
       extra=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1),
       fill=st.sampled_from(["disc", "columns", "wave", "zero"]))
# N = 431 is prime, so the axis-0 pass rounds c(0) off the real axis by
# 2e-18 while the samples' mean is 2.8e-6
@example(band=0, kind="below_crossover", extra=1, seed=0, fill="disc")
@example(band=40, kind="above_crossover", extra=3, seed=1, fill="columns")
@example(band=37, kind="odd", extra=2, seed=2, fill="wave")
@example(band=9, kind="at_crossover", extra=1, seed=3, fill="zero")
# cos(p.x) on the 4-point grid is exactly zero at half its nodes, and
# there the pruned pass gives -0.0 where the full one gives +0.0
@example(band=1, kind="minimal", extra=1, seed=1, fill="wave")
def test_transforms_equal_the_full_spectrum_oracles(band, kind, extra, seed, fill):
    rng = np.random.default_rng(seed)
    f = _test_field(fill, band, rng, bool(seed % 2))
    assert f.band == band
    N = _grid_side(band, kind, extra)
    values = rng.standard_normal((N, N))
    want_grid = _irfft2_oracle(f, N)
    want_read = _rfft2_oracle(values, band)
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields, "_cpu_count", lambda: cpus)
            mp.setattr(fields, "THREADED_GRID_MIN", CROSSOVER)
            got = to_grid(f, N)
            # the axis-0 pass skips empty columns, so a zero sample may
            # differ from the oracle's in its sign, and only there
            assert np.array_equal(got, want_grid)
            nonzero = want_grid != 0
            assert np.array_equal(got.view(np.uint64)[nonzero],
                                  want_grid.view(np.uint64)[nonzero])
            # a read keeps the k2 >= 0 half of the symmetrised box
            read = _read(values, band).coeffs
            assert read.shape == (2 * band + 1, band + 1)
            assert np.array_equal(read.view(np.uint64), want_read[:, band:].view(np.uint64))
            with pytest.raises(GridTooSmall):
                to_grid(f, 2 * band + 1)


def _odd_image(f: TorusField, j: int) -> TorusField:
    """m_j f as a field, built on f's half whatever f's mean (m_j(0) = 0)."""
    k = np.arange(-f.band, f.band + 1, dtype=np.float64)
    return TorusField._exact(f.coeffs * riesz_odd_symbol(j, k[:, None], k[None, f.band:]))


@settings(max_examples=100, deadline=None)
@given(band=st.integers(0, 40),
       kind=st.sampled_from(["minimal", "oversampled", "odd", "below_crossover",
                             "at_crossover", "above_crossover"]),
       extra=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1),
       fill=st.sampled_from(["disc", "columns", "wave", "zero"]),
       scale=st.sampled_from([1.0, 0.0, -0.0, 1e-300]))
# N = 64 is one whole block; N = 432 ends on a partial one
@example(band=31, kind="minimal", extra=1, seed=0, fill="disc", scale=1.0)
@example(band=40, kind="at_crossover", extra=1, seed=1, fill="columns", scale=1e-300)
@example(band=1, kind="minimal", extra=1, seed=1, fill="wave", scale=-0.0)
@example(band=0, kind="odd", extra=3, seed=2, fill="disc", scale=1.0)
def test_block_reduced_samples_equal_the_grid_maximum(band, kind, extra, seed, fill, scale):
    # max_abs runs the axis-1 pass over blocks of rows and keeps only the
    # maximum; a symbol samples m f from f's half. Both give the bits of
    # the whole grid and of the image, inline and, with the crossover at
    # N, on the pool
    rng = np.random.default_rng(seed)
    f = _test_field(fill, band, rng, bool(seed % 2)) * scale
    N = _grid_side(band, kind, extra)
    for cpus, crossover in ((1, N), (2, N), (2, N + 1)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields, "_cpu_count", lambda: cpus)
            mp.setattr(fields, "THREADED_GRID_MIN", crossover)
            want = fields._max_abs(to_grid(f, N))
            assert to_grid(f, N, max_abs=True).hex() == want.hex()
            for j in (1, 2):
                symbol = functools.partial(riesz_odd_symbol, j)
                image = to_grid(_odd_image(f, j), N)
                assert to_grid(f, N, symbol=symbol).tobytes() == image.tobytes()
                assert (to_grid(f, N, symbol=symbol, max_abs=True).hex()
                        == fields._max_abs(image).hex())
    if f.mean_zero:
        for j in (1, 2):
            assert _odd_image(f, j).coeffs.tobytes() == riesz_odd(f, j).coeffs.tobytes()


def test_block_reduced_maximum_propagates_nan(monkeypatch):
    c = np.zeros((7, 4), dtype=np.complex128)
    c[4, 2] = np.nan
    # on the pool, the NaN sits in the last row block of a band-100 half
    pooled = np.zeros((201, 101), dtype=np.complex128)
    pooled[-1, 5] = np.nan
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)
    for f, N in ((TorusField._exact(c), 8), (TorusField._exact(c), 200),
                 (TorusField._exact(pooled), THREADED_GRID_MIN)):
        assert np.isnan(to_grid(f, N, max_abs=True))
        assert np.isnan(to_grid(f, N, symbol=functools.partial(riesz_odd_symbol, 1),
                                max_abs=True))
    # an exception in a pooled block reaches the caller
    with pytest.raises(ValueError, match="index must be 1 or 2, got 3"):
        to_grid(random_field(100, np.random.default_rng(0)), THREADED_GRID_MIN,
                symbol=functools.partial(riesz_odd_symbol, 3), max_abs=True)


def test_one_rule_threads_every_transform_and_block_loop(monkeypatch):
    # every call samples or reads on the same 162-point grid: below the
    # crossover each transform passes one worker and no loop reaches the
    # pool; from it on, the transforms pass every CPU and the loops run
    # pooled, each pooled block's transform on one worker
    rng = np.random.default_rng(7)
    f, g = random_field(40, rng), random_field(40, rng)
    positive = TorusField.constant(4.0) + f * 0.01
    N = good_grid(2 * (f.band + g.band) + 2)
    assert N == 162
    calls, submits = [], []
    for name in ("ifft", "irfft", "rfft2"):
        monkeypatch.setattr(scipy.fft, name, lambda *a, _fn=getattr(scipy.fft, name), _name=name,
                            **k: calls.append((_name, k["workers"])) or _fn(*a, **k))
    submit = fields._POOL.submit
    monkeypatch.setattr(fields._POOL, "submit", lambda *a: submits.append(a) or submit(*a))
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)
    for crossover, threaded in ((N + 1, False), (N, True)):
        monkeypatch.setattr(fields, "THREADED_GRID_MIN", crossover)
        calls.clear()
        submits.clear()
        to_grid(f, N)
        to_grid(f, N, max_abs=True)
        products(f, (g,))
        sqrt_pointwise(positive, oversample=1, kout=80)
        if threaded:
            assert {"ifft", "irfft", "rfft2"} <= {name for name, w in calls if w == 2}
            assert {w for _, w in calls} == {1, 2} and submits
        else:
            assert {w for _, w in calls} == {1} and not submits


def _traced_peak(fn):
    """Peak tracemalloc bytes above the start while fn runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_products_drop_each_grid_once_spent():
    # two band-300 products on a 625-point grid: at most f's grid, the
    # second factor's spectrum and samples and the first product's half
    # are alive at once. Keeping the first product's samples (or its
    # spectrum) until the second factor's are built holds one grid more
    rng = np.random.default_rng(0)
    f, g1, g2 = (random_field(150, rng, mean_zero=False) for _ in range(3))
    N = good_grid(2 * 300 + 2)
    grid, spectrum, half = 8 * N * N, 16 * N * (N // 2 + 1), 16 * 601 * 301
    peak = _traced_peak(lambda: products(f, (g1, g2)))
    assert peak <= 2 * grid + spectrum + half + grid / 8, peak / grid


def test_multiply_matches_convolution_oracle():
    rng = np.random.default_rng(3)
    for ba, bb in ((3, 4), (1, 7), (5, 5)):
        f = random_field(ba, rng)
        g = random_field(bb, rng, mean_zero=False)
        want = _conv_oracle(f, g)
        got = multiply(f, g)
        assert got.band == ba + bb
        np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(band_f=st.integers(0, 4), band_g=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1),
       mean_zero=st.booleans())
def test_multiply_matches_convolution_oracle_at_small_bands(band_f, band_g, seed, mean_zero):
    rng = np.random.default_rng(seed)
    f = random_field(band_f, rng, mean_zero=mean_zero)
    g = random_field(band_g, rng, mean_zero=False)
    got = multiply(f, g)
    want = _conv_oracle(f, g)
    assert got.band == band_f + band_g
    scale = max(f.max_abs_coeff() * g.max_abs_coeff(), 1e-300)
    np.testing.assert_allclose(got.pad_to(want.band).coeffs, want.coeffs,
                               rtol=0, atol=1e-13 * scale * (2 * band_f + 1) ** 2)


def _product_oracle(f: TorusField, g: TorusField) -> np.ndarray:
    """One product as two transforms, one pointwise product and one read,
    with the constant-factor shortcuts."""
    if f.band == 0:
        return (g * f.coeffs[0, 0].real).coeffs
    if g.band == 0:
        return (f * g.coeffs[0, 0].real).coeffs
    Kout = f.band + g.band
    N = good_grid(2 * Kout + 2)
    return _read(to_grid(f, N) * to_grid(g, N), Kout).coeffs


@settings(max_examples=40, deadline=None)
@given(band_f=st.integers(0, 10), bands=st.lists(st.integers(0, 10), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_shared_factor_products_equal_separate_products_bit_for_bit(band_f, bands, seed):
    # every grid is above the crossover, on 1 and 2 CPUs
    rng = np.random.default_rng(seed)
    f = random_field(band_f, rng, mean_zero=False)
    gs = [random_field(b, rng, mean_zero=False) for b in bands]
    wants = [_product_oracle(f, g) for g in gs]
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields, "_cpu_count", lambda: cpus)
            mp.setattr(fields, "THREADED_GRID_MIN", 0)
            got = products(f, gs)
            assert len(got) == len(gs)
            for g, fg, want in zip(gs, got, wants):
                assert fg.coeffs.tobytes() == want.tobytes()
                assert multiply(f, g).coeffs.tobytes() == want.tobytes()
                assert not fg.coeffs.flags.writeable


def test_multiply_product_to_sum():
    # cos(a.x) cos(b.x) = (cos((a+b).x) + cos((a-b).x)) / 2
    f = TorusField.from_modes(2, {(2, 1): 0.5})
    g = TorusField.from_modes(1, {(1, -1): 0.5})
    h = multiply(f, g)
    assert abs(h.coeff(3, 0) - 0.25) < 1e-15
    assert abs(h.coeff(1, 2) - 0.25) < 1e-15
    assert abs(h.coeff(2, 1)) < 1e-15


def test_multiply_constant_shortcut():
    f = TorusField.constant(3.0)
    g = TorusField.from_modes(1, {(1, 0): 0.5})
    h = multiply(f, g)
    assert h.band == 1
    assert abs(h.coeff(1, 0) - 1.5) < 1e-15


def test_sqrt_squares_back():
    rng = np.random.default_rng(5)
    bump = random_field(3, rng)
    sup = float(np.abs(to_grid(bump, 32)).max())
    f = TorusField.constant(2.0) + bump * (0.5 / sup)
    root, tail = sqrt_pointwise(f, oversample=4, kout=24)
    sq = multiply(root, root)
    np.testing.assert_allclose(sq.pad_to(48).coeffs, f.pad_to(48).coeffs,
                               atol=1e-12)
    assert root.band == 24
    assert 0.0 < tail < 1e-6


def test_sqrt_rejects_sign_change():
    f = TorusField.from_modes(1, {(1, 0): 0.5})  # hits -1
    with pytest.raises(NotPositive):
        sqrt_pointwise(f)
    with pytest.raises(ValueError, match="oversample must be >= 1"):
        sqrt_pointwise(TorusField.constant(1.0), oversample=0)


def test_hermitian_symmetrization_and_rejection():
    c = np.zeros((3, 3), dtype=np.complex128)
    c[2, 1] = 1.0 + 2.0j  # mode (1, 0) without its mirror
    with pytest.raises(ValueError):
        TorusField(c)
    sym = TorusField(0.5 * (c + np.conj(c[::-1, ::-1])))
    assert sym.coeff(-1, 0) == np.conj(sym.coeff(1, 0))
    for shape in ((3, 5), (4, 4), (3,)):
        with pytest.raises(ValueError, match="must be square odd-sized"):
            TorusField(np.zeros(shape))


def _read_spoiled(monkeypatch, samples, K, bins):
    """_read(samples, K) with the rfft2 bins (k1, k2), k2 >= 0, set
    to the values `bins` maps them to."""
    N = samples.shape[0]
    rfft2 = scipy.fft.rfft2

    def spoiled(x, *args, **kwargs):
        H = rfft2(x, *args, **kwargs)
        for (k1, k2), v in bins.items():
            H[k1 % N, k2] = v
        return H

    monkeypatch.setattr(scipy.fft, "rfft2", spoiled)
    return _read(samples, K)


def test_grid_read_is_checked_at_the_scale_of_its_samples(monkeypatch):
    # a rounding-sized imaginary part of c(0) is far above 1e-13 of the
    # largest coefficient, but not of the largest sample
    ones = np.ones((4, 4))
    rounded = np.array([[1e-6 + 1e-18j]])
    with pytest.raises(ValueError):
        TorusField(rounded)
    read = _read_spoiled(monkeypatch, ones, 0, {(0, 0): 1e-6 + 1e-18j})
    assert read.coeff(0, 0) == 1e-6
    for bins in ({(0, 0): 1.0 + 1e-12j}, {(1, 0): 1e-12}, {(-1, 0): 1e-12j}):
        with pytest.raises(ValueError, match="Hermitian"):
            _read_spoiled(monkeypatch, ones, 1, bins)
    # a product multiplied on the pool is read at the largest of all its
    # samples, which here lies in the last row block
    monkeypatch.undo()
    rng = np.random.default_rng(5)
    f, g = random_field(40, rng), random_field(60, rng)
    N = good_grid(2 * 100 + 2)
    samples = to_grid(f, N) * to_grid(g, N)
    assert fields._max_abs(samples[:-GRID_BLOCK]) < fields._max_abs(samples)
    truncate, scales = fields._truncate, []
    monkeypatch.setattr(fields, "_truncate",
                        lambda H, scale, K: scales.append(scale) or truncate(H, scale, K))
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)
    monkeypatch.setattr(fields, "THREADED_GRID_MIN", 0)
    multiply(f, g)
    assert scales == [fields._max_abs(samples)]


def test_grid_read_rejects_non_finite_samples(monkeypatch):
    for bad in (np.nan, np.inf, -np.inf, 1e307):
        values = np.ones((8, 8))
        values[3, 5] = bad
        with pytest.raises(ValueError, match="non-finite or overflowing"):
            _read(values, 2)
    # a product whose samples overflow, multiplied on the pool
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)
    monkeypatch.setattr(fields, "THREADED_GRID_MIN", 0)
    f = random_field(40, np.random.default_rng(0)) * 1e200
    with pytest.raises(ValueError, match="non-finite or overflowing"):
        with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
            multiply(f, f)


def test_checked_construction_rejects_non_finite():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf), 1.7e308):
        c = np.zeros((3, 3), dtype=np.complex128)
        c[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite or overflowing"):
            TorusField(c)


def test_mean_zero_flag_enforced():
    c = np.zeros((3, 3), dtype=np.complex128)
    c[1, 1] = 0.7
    with pytest.raises(NonZeroMean):
        TorusField(c, mean_zero=True)
    f = TorusField(c)
    assert f.coeffs[1, 0].real == 0.7


def test_from_modes_autoconjugates():
    f = TorusField.from_modes(2, {(1, 2): 0.25 - 0.5j})
    assert f.coeff(-1, -2) == 0.25 + 0.5j
    g = to_grid(f, 16)
    assert np.max(np.abs(np.imag(g))) == 0.0  # real by construction
    with pytest.raises(ValueError, match=r"mode \(3, 0\) outside band 2"):
        TorusField.from_modes(2, {(3, 0): 1.0})


def test_pad_and_trim():
    f = TorusField.from_modes(2, {(1, 0): 0.5})
    p = f.pad_to(6)
    assert p.band == 6 and p.coeff(1, 0) == 0.5
    assert p.trim().band == 1
    with pytest.raises(ValueError):
        p.pad_to(3)


@settings(max_examples=80, deadline=None)
@given(band=st.integers(0, 10),
       modes=st.lists(st.tuples(st.integers(-10, 10), st.integers(-10, 10)), max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(band=5, modes=[(-3, 0)], seed=0)  # one k1 < 0 mode on the k2 = 0 column
@example(band=5, modes=[(2, 5), (-4, -5)], seed=1)  # the half's last column only
@example(band=5, modes=[], seed=2)  # the zero field
def test_trim_is_the_smallest_band_holding_every_nonzero(band, modes, seed):
    rng = np.random.default_rng(seed)
    amps = {k: complex(*rng.standard_normal(2)) if k != (0, 0) else rng.standard_normal()
            for k in modes if max(abs(k[0]), abs(k[1])) <= band}
    f = TorusField.from_modes(band, amps)
    box = f.box()
    nz = np.argwhere(box != 0) - band
    t = f.trim()
    assert t.band == (int(np.abs(nz).max()) if nz.size else 0)
    assert np.array_equal(t.pad_to(band).box(), box)
    rows, cols = f.support()
    half = f.coeffs != 0
    assert rows.tolist() == [k1 - band for k1 in range(2 * band + 1) if half[k1].any()]
    assert cols.tolist() == [k2 for k2 in range(band + 1) if half[:, k2].any()]


def test_arithmetic_and_mean_zero_propagation():
    rng = np.random.default_rng(8)
    f = random_field(2, rng, mean_zero=True)
    g = random_field(4, rng, mean_zero=True)
    s = f + g
    assert s.mean_zero and s.band == 4
    d = s - g
    np.testing.assert_allclose(d.pad_to(4).coeffs, f.pad_to(4).coeffs, atol=1e-15)
    h = f * -2.0
    np.testing.assert_allclose(h.coeffs, -2.0 * f.coeffs, atol=0)
    np.testing.assert_allclose((-f).coeffs, -f.coeffs, atol=0)
    const = TorusField.constant(1.5) + f
    assert not const.mean_zero


def test_inner_matches_grid_quadrature():
    rng = np.random.default_rng(13)
    f = random_field(5, rng)
    g = random_field(3, rng, mean_zero=False)
    N = good_grid(2 * (5 + 3) + 2)
    quad = (2.0 * np.pi / N) ** 2 * np.sum(
        to_grid(f, N) * to_grid(g, N))
    assert abs(inner(f, g) - quad) < 1e-12 * max(1.0, abs(quad))


@settings(max_examples=40, deadline=None)
@given(band_f=st.integers(0, 12), band_g=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_inner_sums_common_modes_and_is_symmetric(band_f, band_g, seed):
    rng = np.random.default_rng(seed)
    f = random_field(band_f, rng, mean_zero=False)
    g = random_field(band_g, rng, mean_zero=False)
    K = max(band_f, band_g)
    padded = (2.0 * np.pi) ** 2 * np.sum(f.pad_to(K).box() * np.conj(g.pad_to(K).box())).real
    # relative to the Cauchy-Schwarz bound: the pairing itself may cancel
    scale = np.sqrt(inner(f, f) * inner(g, g))
    assert abs(inner(f, g) - padded) <= 1e-14 * max(scale, 1e-300)
    assert inner(f, g) == inner(g, f)


@settings(max_examples=60, deadline=None)
@given(band_a=st.integers(0, 8), band_b=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1),
       scale_a=st.sampled_from([1.0, -1.0, 0.0, -0.0]),
       scale_b=st.sampled_from([1.0, -1.0, 0.0, -0.0]))
def test_difference_is_sum_with_negation_bit_for_bit(band_a, band_b, seed, scale_a, scale_b):
    # the scales put zeros of both signs in the boxes, inside and outside the ball
    rng = np.random.default_rng(seed)
    a = random_field(band_a, rng, mean_zero=False) * scale_a
    b = random_field(band_b, rng, mean_zero=False) * scale_b
    got, want = a - b, a + (-b)
    assert got.band == want.band
    assert got.coeffs.tobytes() == want.coeffs.tobytes()


def _add_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b of two whole boxes: the larger copied, the smaller added
    into its window."""
    big, small = (a, b) if a.shape[0] >= b.shape[0] else (b, a)
    c = big.copy()
    lo, hi = (big.shape[0] - small.shape[0]) // 2, (big.shape[0] + small.shape[0]) // 2
    c[lo:hi, lo:hi] += small
    return c


def _sub_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b of two whole boxes: the subtrahend subtracted in a's copy,
    or, when it is the larger, negated and a added into its window."""
    lo, hi = abs(a.shape[0] - b.shape[0]) // 2, (a.shape[0] + b.shape[0]) // 2
    if a.shape[0] >= b.shape[0]:
        c = a.copy()
        c[lo:hi, lo:hi] -= b
    else:
        c = -b
        c[lo:hi, lo:hi] += a
    return c


def _half(box: np.ndarray) -> np.ndarray:
    """The k2 >= 0 half of a whole box."""
    return box[:, box.shape[0] // 2:]


_SIGNED_SCALES = st.sampled_from([1.0, -1.0, 0.0, -0.0])


@settings(max_examples=80, deadline=None)
@given(bands=st.lists(st.integers(0, 8), min_size=2, max_size=5),
       scales=st.lists(_SIGNED_SCALES, min_size=5, max_size=5),
       minus=st.lists(st.booleans(), min_size=5, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1), fresh=st.booleans())
def test_sum_chains_equal_the_operator_oracles_bit_for_bit(bands, scales, minus, seed, fresh):
    # the scales put zeros of both signs in the boxes; the chain ends in a
    # band-0 zero term, which still turns -0.0 into +0.0 where it lands
    rng = np.random.default_rng(seed)
    terms = [random_field(b, rng, mean_zero=False) * s for b, s in zip(bands, scales)]
    terms.append(TorusField.zero())
    before = [t.coeffs.tobytes() for t in terms]
    want = terms[0].box()
    acc = Sum(terms[0].coeffs.copy() if fresh else terms[0])
    ops = terms[0]
    for t, m in zip(terms[1:], minus):
        want = _sub_oracle(want, t.box()) if m else _add_oracle(want, t.box())
        acc = acc.sub(t) if m else acc.add(t)
        ops = ops - t if m else ops + t
    got = acc.field()
    assert got.coeffs.tobytes() == _half(want).tobytes()
    assert ops.coeffs.tobytes() == _half(want).tobytes()
    assert not got.coeffs.flags.writeable
    assert [t.coeffs.tobytes() for t in terms] == before


@settings(max_examples=60, deadline=None)
@given(band_a=st.integers(0, 8), band_b=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1),
       scale_a=_SIGNED_SCALES, scale_b=_SIGNED_SCALES, fresh=st.booleans())
def test_negated_sum_plus_a_field_is_the_difference_bit_for_bit(band_a, band_b, seed,
                                                               scale_a, scale_b, fresh):
    rng = np.random.default_rng(seed)
    a = random_field(band_a, rng, mean_zero=False) * scale_a
    b = random_field(band_b, rng, mean_zero=False) * scale_b
    got = Sum(b.coeffs.copy() if fresh else b).negate().add(a).field()
    assert got.coeffs.tobytes() == _half(_sub_oracle(a.box(), b.box())).tobytes()


@settings(max_examples=80, deadline=None)
@given(bands=st.lists(st.integers(0, 8), min_size=2, max_size=5),
       scales=st.lists(_SIGNED_SCALES, min_size=5, max_size=5),
       minus=st.lists(st.booleans(), min_size=5, max_size=5),
       negate=st.lists(st.booleans(), min_size=5, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1), fresh=st.booleans())
# a term wider than the sum (taken over), then one as wide as the box
@example(bands=[2, 5, 5], scales=[1.0, -1.0, -0.0, 1.0, 1.0], minus=[True, False] * 2 + [True],
         negate=[False, True, False, False, False], seed=0, fresh=False)
def test_half_sum_is_the_half_of_the_box_sum_bit_for_bit(bands, scales, minus, negate,
                                                         seed, fresh):
    # the oracle runs the chain on whole boxes: copies, window adds and
    # subtractions, in-place negations, and a wider term taken over
    rng = np.random.default_rng(seed)
    terms = [random_field(b, rng, mean_zero=False) * s for b, s in zip(bands, scales)]
    terms.append(TorusField.zero())
    first = terms[0]
    box = first.box()
    half = Sum(first.coeffs.copy() if fresh else first)
    for t, m, n in zip(terms[1:], minus, negate):
        if n:
            np.negative(box, out=box)
            half.negate()
        box = _sub_oracle(box, t.box()) if m else _add_oracle(box, t.box())
        half = half.sub(t) if m else half.add(t)
    got = half.field()
    K = box.shape[0] // 2
    assert got.band == K and got.coeffs.shape == (2 * K + 1, K + 1)
    assert got.coeffs.tobytes() == _half(box).tobytes()
    assert not got.coeffs.flags.writeable


def test_a_running_sum_is_a_term_as_it_stands():
    rng = np.random.default_rng(5)
    a, b, c = (random_field(k, rng, mean_zero=False) for k in (6, 3, 8))
    run = Sum(a).add(b)
    wider = Sum(c).sub(run).field()      # the sum goes into c's window
    taken = Sum(b).add(run).field()      # the running sum is taken over
    assert wider.coeffs.tobytes() == (c - (a + b)).coeffs.tobytes()
    assert taken.coeffs.tobytes() == (b + (a + b)).coeffs.tobytes()
    # reading the running sum left it as it was
    assert run.add(c).field().coeffs.tobytes() == ((a + b) + c).coeffs.tobytes()


def test_sqf1_header_layout(tmp_path):
    f = TorusField.from_modes(1, {(1, 0): 0.25 - 0.125j}, mean_zero=True)
    path = str(tmp_path / "one.sqf1")
    write_sqf1(f, path)
    raw = open(path, "rb").read()
    magic, version, band, mz = struct.unpack("<4sIIq", raw[:20])
    assert magic == b"SQF1" and version == 1 and band == 1 and mz == 1
    assert len(raw) == 20 + 16 * 9
    back = read_sqf1(path)
    assert back.mean_zero
    np.testing.assert_array_equal(back.coeffs, f.coeffs)
    # the flag is written as c(0) == 0, declared or not
    for modes, flag in (({(1, 1): 0.5}, 1), ({(0, 0): 0.25, (1, 1): 0.5}, 0)):
        g = TorusField.from_modes(1, modes)
        write_sqf1(g, path)
        assert struct.unpack("<q", open(path, "rb").read()[12:20]) == (flag,)
        back = read_sqf1(path)
        assert back.mean_zero == bool(flag)
        np.testing.assert_array_equal(back.coeffs, g.coeffs)


def test_sqf1_bit_identical_rewrite(tmp_path):
    rng = np.random.default_rng(21)
    f = random_field(6, rng)
    p1, p2 = str(tmp_path / "a.sqf1"), str(tmp_path / "b.sqf1")
    write_sqf1(f, p1)
    write_sqf1(read_sqf1(p1), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.fixture(scope="module")
def sqf1_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sqf1")


@settings(max_examples=60, deadline=None)
@given(band=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1), mean=st.booleans(),
       scale=st.floats(-1e300, 1e300, allow_subnormal=True))
def test_sqf1_round_trip_is_bit_exact(sqf1_dir, band, seed, mean, scale):
    f = random_field(band, np.random.default_rng(seed), mean_zero=not mean) * scale
    p1, p2 = str(sqf1_dir / "a.sqf1"), str(sqf1_dir / "b.sqf1")
    write_sqf1(f, p1)
    back = read_sqf1(p1)
    assert back.band == band and back.mean_zero == f.mean_zero
    assert np.array_equal(back.coeffs.view(np.uint64), f.coeffs.view(np.uint64))
    write_sqf1(back, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def _computed_fields(seed):
    """Fields the program computes, not read: transform reads, exact
    products, a factored wave, a symbol image and a sum."""
    rng = np.random.default_rng(seed)
    f = random_field(5, rng, mean_zero=True)
    g = random_field(3, rng, mean_zero=False)
    return [_read(rng.standard_normal((16, 16)), 6), multiply(f, g),
            ModulatedField.wave(g, (4, -3), "sin").to_dense(), riesz(f, 2),
            inv_div(VectorField(f, g - TorusField.constant(g.coeff(0, 0).real))),
            f - g * 0.0, TorusField.zero(2)]


@pytest.mark.parametrize("seed", [0, 1])
def test_sqf1_write_read_write_of_computed_fields_is_byte_identical(tmp_path, seed):
    # the file holds the whole box, rebuilt from the half; a read keeps
    # the half, signed zeros included, so a rewrite gives the same bytes
    for i, f in enumerate(_computed_fields(seed)):
        p1, p2 = str(tmp_path / f"{i}a.sqf1"), str(tmp_path / f"{i}b.sqf1")
        write_sqf1(f, p1)
        back = read_sqf1(p1)
        assert np.array_equal(back.coeffs.view(np.uint64), f.coeffs.view(np.uint64)), i
        write_sqf1(back, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read(), i


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_box_of_a_computed_field_is_hermitian_bit_for_bit(seed):
    # c(-k) == conj(c(k)) everywhere, with the same bits wherever a part
    # is nonzero; on the k2 = 0 column x - x gives +0.0 from both sides,
    # so only there may a zero part's sign differ from its conjugate's
    for f in _computed_fields(seed):
        c = f.box()
        K = f.band
        assert c.shape == (2 * K + 1, 2 * K + 1)
        a, b = c.view(np.float64), np.conj(c[::-1, ::-1]).view(np.float64)
        assert np.array_equal(a, b)
        nz = a != 0
        assert np.array_equal(a.view(np.uint64)[nz], b.view(np.uint64)[nz])
        assert np.array_equal(c[:, :K].view(np.uint64),
                              np.conj(c[::-1, 2 * K:K:-1]).view(np.uint64))
        assert np.array_equal(c[:, K:].view(np.uint64), f.coeffs.view(np.uint64))
        assert not np.shares_memory(c, f.coeffs)  # a fresh array


def test_coeff_reads_the_mirror_conjugate_below_k2_zero_and_zero_outside():
    f = TorusField.from_modes(3, {(2, 1): 0.25 - 0.5j, (-1, 3): 1.5j, (3, 0): 2.0 + 1.0j,
                                  (0, 0): 0.75})
    box = f.box()
    for k1 in range(-5, 6):
        for k2 in range(-5, 6):
            want = box[k1 + 3, k2 + 3] if max(abs(k1), abs(k2)) <= 3 else 0j
            got = f.coeff(k1, k2)
            assert isinstance(got, complex)
            assert got == want, (k1, k2)
            if k2 < 0 and max(abs(k1), abs(k2)) <= 3:
                assert got == f.coeffs[3 - k1, -k2].conjugate()
    assert f.coeff(-2, -1) == 0.25 + 0.5j and f.coeff(1, -3) == -1.5j
    assert f.coeff(-3, 0) == 2.0 - 1.0j and f.coeff(0, 0) == 0.75
    assert f.coeff(4, 0) == 0j and f.coeff(0, -4) == 0j and f.coeff(-9, 9) == 0j


def test_sqf1_corruption_detected(tmp_path):
    f = TorusField.from_modes(1, {(1, 0): 0.5}, mean_zero=True)
    path = str(tmp_path / "f.sqf1")
    write_sqf1(f, path)
    raw = bytearray(open(path, "rb").read())

    def _expect_fail(blob):
        bad = str(tmp_path / "bad.sqf1")
        with open(bad, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ParseError):
            read_sqf1(bad)

    _expect_fail(b"QF1S" + bytes(raw[4:]))          # magic
    _expect_fail(raw[:4] + struct.pack("<I", 2) + bytes(raw[8:]))  # version
    _expect_fail(bytes(raw[:-8]))                    # truncated payload
    broken = bytearray(raw)
    broken[20:36] = struct.pack("<dd", 9.0, 9.0)     # breaks symmetry
    _expect_fail(bytes(broken))
    flag = raw[:12] + struct.pack("<q", 5) + bytes(raw[20:])
    _expect_fail(flag)                               # meanZero flag
    for value in (np.nan, 1.7e308):                  # non-finite, overflowing
        big = bytearray(raw)
        for off in (36, 132):                        # modes (-1, 0) and (1, 0)
            big[off:off + 16] = struct.pack("<dd", value, 0.0)
        _expect_fail(bytes(big))


def test_sqf1_size_is_checked_before_the_box_is_read(tmp_path):
    # a band-1 header with 8 MiB behind it: the file's size already
    # disagrees with the header, so the 8 MiB are never read
    path = str(tmp_path / "long.sqf1")
    write_sqf1(TorusField.from_modes(1, {(1, 0): 0.5}, mean_zero=True), path)
    with open(path, "ab") as fh:
        fh.write(bytes(8 << 20))

    def read():
        with pytest.raises(ParseError, match="expected 164 bytes for band 1, got 8388772$"):
            read_sqf1(path)

    assert _traced_peak(read) < 1 << 20


@st.composite
def _sqf1_blobs(draw):
    """A valid header with an arbitrary payload of the right length, or
    arbitrary short bytes (optionally behind the magic)."""
    if draw(st.booleans()):
        band = draw(st.integers(0, 2))
        n = 2 * band + 1
        header = struct.pack("<4sIIq", b"SQF1", 1, band, draw(st.integers(0, 1)))
        return header + draw(st.binary(min_size=16 * n * n, max_size=16 * n * n))
    return draw(st.sampled_from([b"", b"SQF1"])) + draw(st.binary(max_size=64))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "f.sqf1")


@settings(max_examples=200, deadline=None)
@given(blob=_sqf1_blobs())
def test_read_sqf1_fuzz_field_or_parse_error(fuzz_path, blob):
    with open(fuzz_path, "wb") as fh:
        fh.write(blob)
    with np.errstate(all="ignore"):
        try:
            f = read_sqf1(fuzz_path)
        except ParseError:
            return
    assert np.all(np.isfinite(f.coeffs))


# bands whose K+1 rows k1 <= 0 fill GRID_BLOCK-row pairs exactly (63),
# or spill one row (64), two rows (65, 129) into the next pair
SQF1_BANDS = (0, 1, 63, 64, 65, 129)


def _sqf1_file(path, box, flag):
    """An SQF1 file holding box as it stands, under a meanZero flag."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIq", b"SQF1", 1, box.shape[0] // 2, int(flag)))
        fh.write(np.ascontiguousarray(box, dtype="<c16").tobytes())


def _read_or_error(path):
    """read_sqf1's coefficient bytes, or its ParseError text."""
    try:
        return read_sqf1(path).coeffs.tobytes()
    except ParseError as e:
        return str(e)


def _construct_or_error(path, box, flag):
    """The checked constructor's bytes for the same box, or the text
    read_sqf1 gives its ValueError."""
    try:
        return TorusField(box, mean_zero=flag).coeffs.tobytes()
    except ValueError as e:
        return f"{path}: {e}"


def _signed_zero(bits):
    return complex(-0.0 if bits & 1 else 0.0, -0.0 if bits & 2 else 0.0)


@st.composite
def _hostile_boxes(draw, band):
    """A Hermitian box with, each drawn or not: signed zeros as mirror
    pairs, a defect (rounding to large) at one entry, so in one block
    pair, a non-finite or overflowing entry in the last block pair, a
    c(0) off zero; and a meanZero flag."""
    n = 2 * band + 1
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    box = random_field(band, rng, mean_zero=False).box()
    box *= draw(st.sampled_from([1.0, 1e-310, 1e300]))
    maxc = float(np.abs(box).max())
    index = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i1, i2 in draw(st.lists(index, max_size=6)):
        box[i1, i2] = _signed_zero(draw(st.integers(0, 3)))
        box[n - 1 - i1, n - 1 - i2] = _signed_zero(draw(st.integers(0, 3)))
    if draw(st.booleans()):
        i1, i2 = draw(index)
        box[i1, i2] += draw(st.sampled_from([2.0 ** -50, 1e-14, 1e-12, 1e-3])) * maxc
    if draw(st.booleans()):
        last = draw(st.integers(band // GRID_BLOCK * GRID_BLOCK, band))
        i1 = draw(st.sampled_from([last, n - 1 - last]))
        box[i1, draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            [complex(np.nan, 0.0), complex(0.0, np.inf), -np.inf, 1.7e308, 1e308 + 1e308j]))
    if draw(st.booleans()):
        box[band, band] = draw(st.sampled_from([0.0, -0.0, 1e-15, 1.0, 1e-15j])) * maxc
    return box, draw(st.booleans())


@pytest.mark.parametrize("band", SQF1_BANDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_read_sqf1_is_the_checked_constructor(sqf1_dir, band, data):
    # streamed by block pairs, the read gives the constructor's bits or
    # its error text, whatever the file holds
    box, flag = data.draw(_hostile_boxes(band))
    path = str(sqf1_dir / "hostile.sqf1")
    _sqf1_file(path, box, flag)
    with np.errstate(all="ignore"):
        want = _construct_or_error(path, box, flag)
        assert _read_or_error(path) == want


@pytest.mark.parametrize("band", [65, 129])
def test_read_sqf1_symmetrises_every_pair_like_the_constructor(tmp_path, band):
    # a rounding defect on the k2 = 0 column of the last pair averages
    # that entry and its mirror, and nothing else: the -0 in the first
    # pair, whose mirror conjugate +0 agrees with it, keeps its sign
    box = random_field(band, np.random.default_rng(band), mean_zero=False).box()
    n = 2 * band + 1
    # c(k2 = K-3) = -0 in the half, its mirror conjugate +0
    box[n - 3, n - 4], box[2, 3] = complex(-0.0, 0.0), complex(0.0, 0.0)
    box[band - 1, band] *= 1.0 + 2.0 ** -50
    want = box[:, band:].copy()
    x, y = box[band - 1, band], box[band + 1, band]
    want[band - 1, 0], want[band + 1, 0] = (x + np.conj(y)) * 0.5, (y + np.conj(x)) * 0.5
    assert np.count_nonzero(want != box[:, band:]) == 2
    path = str(tmp_path / "f.sqf1")
    _sqf1_file(path, box, False)
    for got in (read_sqf1(path), TorusField(box)):
        assert got.coeffs.tobytes() == want.tobytes()
        assert np.signbit(got.coeffs[n - 3, band - 3].real)


def test_read_sqf1_refuses_a_non_finite_pair_without_a_warning(tmp_path):
    # an inf and a rounding defect in one pair: the pair is not averaged,
    # so no arithmetic warning comes before the constructor's ParseError
    box = random_field(70, np.random.default_rng(70), mean_zero=False).box()
    box[69, 72] = np.inf
    box[69, 70] *= 1.0 + 2.0 ** -50
    path = str(tmp_path / "f.sqf1")
    _sqf1_file(path, box, False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = _construct_or_error(path, box, False)
        assert want == f"{path}: non-finite or overflowing coefficient (max |c| = inf)"
        assert _read_or_error(path) == want


class _CountingFile(io.BufferedReader):
    """A file whose readinto calls add up the bytes they read."""

    read_into = 0

    def readinto(self, buf):
        got = super().readinto(buf)
        self.read_into += got
        return got


@pytest.mark.parametrize("band", SQF1_BANDS)
def test_read_sqf1_reads_the_box_once(tmp_path, monkeypatch, band):
    # exact or Hermitian only to rounding, the box's bytes are read once
    f = random_field(band, np.random.default_rng(band), mean_zero=False)
    box = f.box()
    box[band, band] += 1j * 2.0 ** -50 * abs(box[band, band])
    exact, rounded = str(tmp_path / "f.sqf1"), str(tmp_path / "g.sqf1")
    write_sqf1(f, exact)
    _sqf1_file(rounded, box, False)
    opened = []

    def counting_open(*args):
        opened.append(_CountingFile(io.FileIO(*args)))
        return opened[-1]

    monkeypatch.setattr(fields, "open", counting_open, raising=False)
    assert read_sqf1(exact).coeffs.tobytes() == f.coeffs.tobytes()
    assert read_sqf1(rounded).coeffs.tobytes() == TorusField(box).coeffs.tobytes()
    assert read_sqf1(rounded).coeffs[band, 0].imag == 0.0
    assert [fh.read_into for fh in opened] == [16 * (2 * band + 1) ** 2] * 3


@pytest.mark.parametrize("band", SQF1_BANDS)
def test_write_sqf1_writes_the_header_and_the_box(tmp_path, band):
    f = random_field(band, np.random.default_rng(band), mean_zero=band % 2 == 0)
    path = str(tmp_path / "f.sqf1")
    write_sqf1(f, path)
    header = struct.pack("<4sIIq", b"SQF1", 1, band, int(f.mean_zero))
    assert open(path, "rb").read() == header + f.box().astype("<c16").tobytes()


def test_sqf1_io_holds_no_whole_box(tmp_path):
    # at band 400 the box takes 9.8 MiB and the half 4.9 MiB: a write
    # holds a few rows of the box, and a read the half it keeps and one
    # pair of GRID_BLOCK rows, whether the file is Hermitian exactly or
    # only to rounding
    f = random_field(400, np.random.default_rng(40), mean_zero=False)
    path, rounded = str(tmp_path / "f.sqf1"), str(tmp_path / "g.sqf1")
    assert _traced_peak(lambda: write_sqf1(f, path)) <= 8 << 20
    box = f.box()
    box[399, 401] *= 1.0 + 2.0 ** -50
    _sqf1_file(rounded, box, False)
    del box
    for p in (path, rounded):
        assert _traced_peak(lambda: read_sqf1(p)) <= f.coeffs.nbytes + (8 << 20)
    assert read_sqf1(path).coeffs.tobytes() == f.coeffs.tobytes()
    assert read_sqf1(rounded).coeffs.tobytes() != f.coeffs.tobytes()


def test_checked_construction_holds_no_whole_box_temporary():
    # the constructor reads its box with the SQF1 reader's scan: beside
    # the box it was given, it holds the half it keeps (4.9 MiB at band
    # 400) and one pair of GRID_BLOCK rows with its temporaries (3.2
    # MiB), whether the box is Hermitian exactly or only to rounding
    f = random_field(400, np.random.default_rng(41), mean_zero=False)
    box = f.box()
    assert _traced_peak(lambda: TorusField(box)) <= f.coeffs.nbytes + (4 << 20)
    box[399, 401] *= 1.0 + 2.0 ** -50
    assert _traced_peak(lambda: TorusField(box)) <= f.coeffs.nbytes + (4 << 20)


@pytest.mark.parametrize("new", [20, 20 + 16 * 131 * 10, 20 + 16 * 131 * 128, 20 + 16 * 131 ** 2 - 1,
                                 20 + 16 * 131 ** 2 + 1, 20 + 16 * 131 ** 2 + 4096],
                         ids=["header", "first pair", "mirror", "last byte", "grown by one",
                              "grown"])
def test_read_sqf1_sees_a_file_that_changes_size_after_its_fstat(tmp_path, monkeypatch, new):
    # a shrunk file reports its size at the short read; a grown one the
    # byte past the box that showed it
    path = str(tmp_path / "f.sqf1")
    write_sqf1(random_field(65, np.random.default_rng(65)), path)
    want = 20 + 16 * 131 ** 2
    fstat = os.fstat

    def resized_after(fd):
        st = fstat(fd)
        os.truncate(path, new)
        return st

    monkeypatch.setattr(fields.os, "fstat", resized_after)
    got = min(new, want + 1)
    with pytest.raises(ParseError, match=f"expected {want} bytes for band 65, got {got}$"):
        read_sqf1(path)


@pytest.mark.parametrize("seed", [0, 1])
def test_box_rows_are_rows_of_the_box(seed):
    for f in _computed_fields(seed) + [random_field(70, np.random.default_rng(seed))]:
        box = f.box()
        n = box.shape[0]
        for a, b in ((0, n), (0, 1), (n - 1, n), (n // 2, n // 2 + 1), (1, n - 1), (n // 2, n // 2)):
            rows = f.box_rows(a, b)
            assert rows.shape == (b - a, n)
            assert rows.tobytes() == box[a:b].tobytes()


def test_sqf1_atomic_write_leaves_no_temp(tmp_path):
    f = TorusField.from_modes(1, {(1, 0): 0.5}, mean_zero=True)
    path = str(tmp_path / "g.sqf1")
    write_sqf1(f, path)
    write_sqf1(f, path)  # overwrite in place
    assert os.listdir(tmp_path) == ["g.sqf1"]


def test_atomic_write_whose_chunks_fail_partway_leaves_nothing(tmp_path):
    def chunks():
        yield b"k1,k2\n"
        yield b"1,0\n"
        raise RuntimeError("row 2 failed")

    with pytest.raises(RuntimeError, match="row 2 failed"):
        fields._write_atomic(str(tmp_path / "s.csv"), chunks())
    assert os.listdir(tmp_path) == []


def test_random_field_reproducible_and_banded():
    a = random_field(5, np.random.default_rng(42))
    b = random_field(5, np.random.default_rng(42))
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    assert a.mean_zero
    k = np.arange(-5, 6)
    outside = (k[:, None] ** 2 + k[None, :] ** 2) > 25
    assert np.all(a.box()[outside] == 0.0)


@pytest.mark.parametrize("band", [0, 1, 5, 12])
@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("mean_zero", [False, True])
def test_random_field_is_the_half_of_the_symmetrised_box_bit_for_bit(band, seed, mean_zero):
    # the whole box drawn, masked and symmetrised, then its half kept
    rng = np.random.default_rng(seed)
    n = 2 * band + 1
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = np.arange(-band, band + 1)
    z[(k[:, None] ** 2 + k[None, :] ** 2) > band * band] = 0.0
    z = 0.5 * (z + np.conj(z[::-1, ::-1]))
    if mean_zero:
        z[band, band] = 0.0
    f = random_field(band, np.random.default_rng(seed), mean_zero=mean_zero)
    assert f.coeffs.tobytes() == np.ascontiguousarray(z[:, band:]).tobytes()


def _carriers(band, p):
    """p, then carriers that cover k = 0 and that clear a band-`band` amplitude."""
    return [p, (band, -band), (band + 1, 0), (-2, band + 1)]


def _exact_outputs(band, seed, p, trig, lam_gap, scale):
    """(name, field) for every producer that builds its field through the
    exact path, applied to seeded random fields of the given band."""
    rng = np.random.default_rng(seed)
    f = random_field(band, rng, mean_zero=True)
    g = random_field(band + 1, rng, mean_zero=True)
    h = random_field(band, rng, mean_zero=False)
    lam = band + lam_gap
    N = 2 * band + 2 + lam_gap
    # the Wiener bound keeps this radicand at least 1
    radicand = TorusField.constant(2.0) + f * (1.0 / max(np.abs(f.coeffs).sum(), 1.0))
    out = [("zero", TorusField.zero(band)), ("random_field", f),
           ("random_field mean", h), ("add", h + g), ("add mean-zero", f + g),
           ("sub", f - g), ("neg", -h), ("mul", h * scale),
           ("pad_to", h.pad_to(band + 2)), ("trim", h.pad_to(band + 2).trim()),
           ("inv_div", inv_div(VectorField(f, g))),
           ("grid read", _read(rng.standard_normal((N, N)), band)),
           ("multiply", multiply(h, g)),
           ("sqrt_pointwise", sqrt_pointwise(radicand, kout=band + 2)[0])]
    out += [(f"wave {q}", ModulatedField.wave(h, q, trig).to_dense())
            for q in _carriers(band, p)]
    out += [(f"lambda_s {s}", lambda_s(f, s)) for s in (-0.5, 0.5, 1.0)]
    for j in (1, 2):
        out += [(f"riesz {j}", riesz(f, j)), (f"riesz_odd {j}", riesz_odd(f, j))]
    for l in DIRECTIONS:
        out += [(f"t_ops {k} {l}", t) for k, t in zip((1, 2), t_ops(f, lam, l))]
        out.append((f"directional_grad {l}", directional_grad(h, l)))
    out.append(("directional_grad L2.perp", directional_grad(h, L2.perp)))
    out += [("lowpass", lowpass(h, 1.0 + band / 2)),
            ("lowpass 4 mu", lowpass(h, 4.0 * (1.0 + band / 8)))]
    return out


@settings(max_examples=60, deadline=None)
@given(band=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1),
       p=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
       trig=st.sampled_from(["cos", "sin"]), lam_gap=st.integers(1, 20),
       scale=st.floats(-1e3, 1e3))
def test_exact_producers_are_hermitian_and_frozen(band, seed, p, trig, lam_gap, scale):
    outputs = _exact_outputs(band, seed, p, trig, lam_gap, scale)
    # mean-zero by construction: the symbol vanishes at k = 0, the inputs
    # are mean-zero, or the wave's carrier clears the band of its amplitude
    mean_free = {"zero", "random_field", "add mean-zero", "sub", "inv_div"}
    mean_free |= {f"wave {q}" for q in _carriers(band, p)[2:]}
    symbols = ("lambda_s", "riesz", "t_ops", "directional_grad")
    for name, fld in outputs:
        c = fld.coeffs
        K = fld.band
        # the half is stored; its k2 = 0 column is Hermitian in itself
        assert c.shape == (2 * K + 1, K + 1), name
        assert np.array_equal(c[:, 0], np.conj(c[::-1, 0])), name
        with pytest.raises(ValueError):  # frozen
            c[0, 0] = 1.0
        if name in mean_free or name.startswith(symbols):
            assert c[K, 0] == 0 and fld.mean_zero, name


def test_checked_construction_copies_its_input():
    c = np.zeros((3, 3), dtype=np.complex128)
    c[2, 1] = c[0, 1] = 0.5
    f = TorusField(c)
    c[2, 1] = c[0, 1] = 7.0
    assert f.coeff(1, 0) == 0.5 and f.coeff(-1, 0) == 0.5
    assert not np.shares_memory(f.coeffs, c)


def test_trim_does_not_view_its_parent():
    f = TorusField.from_modes(2, {(1, 0): 0.5}).pad_to(9)
    t = f.trim()
    assert t.band == 1
    assert not np.shares_memory(t.coeffs, f.coeffs)

