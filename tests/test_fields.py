"""Field container, exact products, grids, and SQF1 round-trips.

The two oracles everything leans on: direct summation of the Fourier
series at the grid nodes, and a dictionary convolution for products.
Both are O(slow) on purpose.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqgci import fields
from sqgci.errors import GridTooSmall, NonZeroMean, NotPositive, ParseError
from sqgci.fields import (
    THREADED_GRID_MIN,
    GridSamples,
    TorusField,
    VectorField,
    from_grid,
    good_grid,
    inner,
    multiply,
    random_field,
    read_sqf1,
    sqrt_pointwise,
    to_grid,
    write_sqf1,
)
from sqgci.multipliers import (
    DIRECTIONS,
    directional_grad,
    fat_lowpass,
    inv_div,
    lambda_s,
    lowpass,
    modulate,
    partial,
    riesz,
    riesz_odd,
    t_op,
)
from sqgci.norms import dyadic_blocks


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
        got = to_grid(f, N).values
        want = _direct_sum(f, N)
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_cosine_exact_on_nodes():
    f = TorusField.from_modes(3, {(3, -1): 0.5})
    N = 32
    x = 2.0 * np.pi * np.arange(N) / N - np.pi
    want = np.cos(3 * x[:, None] - x[None, :])
    np.testing.assert_allclose(to_grid(f, N).values, want, atol=1e-14)


def test_grid_roundtrip():
    rng = np.random.default_rng(2)
    for band in (1, 4, 9):
        f = random_field(band, rng)
        N = good_grid(2 * band + 2)
        back = from_grid(to_grid(f, N), band)
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
    H[rows[:, None], np.arange(K + 1)[None, :]] = (f.coeffs * _phase_grid(K))[:, K:]
    return scipy.fft.irfft2(H, s=(N, N), norm="forward")


def _rfft2_oracle(values: np.ndarray, K: int) -> TorusField:
    """Band-K read of one rfft2, mode by mode, checked at the scale of
    the samples as `from_grid` is."""
    N = values.shape[0]
    H = scipy.fft.rfft2(values, norm="forward")
    c = np.empty((2 * K + 1, 2 * K + 1), dtype=np.complex128)
    for k2 in range(-K, K + 1):
        for k1 in range(-K, K + 1):
            h = H[k1 % N, k2] if k2 >= 0 else np.conj(H[-k1 % N, -k2])
            c[k1 + K, k2 + K] = h
    return TorusField._read(c * _phase_grid(K), values)


def _grid_side(band, kind, extra):
    return {"minimal": 2 * band + 2,
            "oversampled": 2 * band + 2 + 2 * extra,
            "odd": 2 * band + 3 + 2 * extra,
            "below_crossover": THREADED_GRID_MIN - 1,
            "at_crossover": THREADED_GRID_MIN,
            "above_crossover": THREADED_GRID_MIN + 1 + 2 * extra}[kind]


@settings(max_examples=60, deadline=None)
@given(band=st.integers(0, 40),
       kind=st.sampled_from(["minimal", "oversampled", "odd", "below_crossover",
                             "at_crossover", "above_crossover"]),
       extra=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1))
# N = 431 is prime, so the axis-0 pass rounds c(0) off the real axis by
# 2e-18 while the samples' mean is 2.8e-6
@example(band=0, kind="below_crossover", extra=1, seed=0)
def test_transforms_equal_the_full_spectrum_oracles(band, kind, extra, seed):
    rng = np.random.default_rng(seed)
    f = random_field(band, rng, mean_zero=bool(seed % 2))
    N = _grid_side(band, kind, extra)
    values = rng.standard_normal((N, N))
    want_grid = _irfft2_oracle(f, N)
    want_read = _rfft2_oracle(values, band)
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields, "_cpu_count", lambda: cpus)
            assert np.array_equal(to_grid(f, N).values, want_grid)
            got = from_grid(GridSamples(N=N, values=values), band)
            assert np.array_equal(got.coeffs, want_read.coeffs)
            with pytest.raises(GridTooSmall):
                to_grid(f, 2 * band + 1)
            with pytest.raises(GridTooSmall):
                from_grid(GridSamples(N=2 * band + 1, values=values[:2 * band + 1,
                                                                   :2 * band + 1]), band)


def test_multiply_matches_convolution_oracle():
    rng = np.random.default_rng(3)
    for ba, bb in ((3, 4), (1, 7), (5, 5)):
        f = random_field(ba, rng)
        g = random_field(bb, rng, mean_zero=False)
        want = _conv_oracle(f, g)
        got = multiply(f, g)
        assert got.band == ba + bb
        np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-13)


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
    sup = float(np.abs(to_grid(bump, 32).values).max())
    f = TorusField.constant(2.0) + bump * (0.5 / sup)
    root, rep = sqrt_pointwise(f, oversample=4, kout=24)
    sq = multiply(root, root)
    np.testing.assert_allclose(sq.pad_to(48).coeffs, f.pad_to(48).coeffs,
                               atol=1e-12)
    assert rep.kout == 24
    assert rep.tail < 1e-6


def test_sqrt_rejects_sign_change():
    f = TorusField.from_modes(1, {(1, 0): 0.5})  # hits -1
    with pytest.raises(NotPositive):
        sqrt_pointwise(f)


def test_hermitian_symmetrization_and_rejection():
    c = np.zeros((3, 3), dtype=np.complex128)
    c[2, 1] = 1.0 + 2.0j  # mode (1, 0) without its mirror
    with pytest.raises(ValueError):
        TorusField(c)
    sym = TorusField(0.5 * (c + np.conj(c[::-1, ::-1])))
    assert sym.coeff(-1, 0) == np.conj(sym.coeff(1, 0))


def test_grid_read_is_checked_at_the_scale_of_its_samples():
    samples = np.ones((4, 4))
    rounded = np.array([[1e-6 + 1e-18j]])
    with pytest.raises(ValueError):
        TorusField(rounded)
    read = TorusField._read(rounded.copy(), samples)
    assert read.coeff(0, 0) == 1e-6
    with pytest.raises(ValueError):
        TorusField._read(np.array([[1e-6 + 1e-12j]]), samples)


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
    assert f.mean == 0.7


def test_from_modes_autoconjugates():
    f = TorusField.from_modes(2, {(1, 2): 0.25 - 0.5j})
    assert f.coeff(-1, -2) == 0.25 + 0.5j
    g = to_grid(f, 16).values
    assert np.max(np.abs(np.imag(g))) == 0.0  # real by construction


def test_pad_and_trim():
    f = TorusField.from_modes(2, {(1, 0): 0.5})
    p = f.pad_to(6)
    assert p.band == 6 and p.coeff(1, 0) == 0.5
    assert p.trim().band == 1
    with pytest.raises(ValueError):
        p.pad_to(3)


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
        to_grid(f, N).values * to_grid(g, N).values)
    assert abs(inner(f, g) - quad) < 1e-12 * max(1.0, abs(quad))


@settings(max_examples=40, deadline=None)
@given(band_f=st.integers(0, 12), band_g=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_inner_sums_common_modes_and_is_symmetric(band_f, band_g, seed):
    rng = np.random.default_rng(seed)
    f = random_field(band_f, rng, mean_zero=False)
    g = random_field(band_g, rng, mean_zero=False)
    K = max(band_f, band_g)
    padded = (2.0 * np.pi) ** 2 * np.sum(f.pad_to(K).coeffs * np.conj(g.pad_to(K).coeffs)).real
    # relative to the Cauchy-Schwarz bound: the pairing itself may cancel
    scale = np.sqrt(inner(f, f) * inner(g, g))
    assert abs(inner(f, g) - padded) <= 1e-14 * max(scale, 1e-300)
    assert inner(f, g) == inner(g, f)


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


def test_sqf1_bit_identical_rewrite(tmp_path):
    rng = np.random.default_rng(21)
    f = random_field(6, rng)
    p1, p2 = str(tmp_path / "a.sqf1"), str(tmp_path / "b.sqf1")
    write_sqf1(f, p1)
    write_sqf1(read_sqf1(p1), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


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


def test_sqf1_atomic_write_leaves_no_temp(tmp_path):
    f = TorusField.from_modes(1, {(1, 0): 0.5}, mean_zero=True)
    path = str(tmp_path / "g.sqf1")
    write_sqf1(f, path)
    write_sqf1(f, path)  # overwrite in place
    assert os.listdir(tmp_path) == ["g.sqf1"]


def test_random_field_reproducible_and_banded():
    a = random_field(5, np.random.default_rng(42))
    b = random_field(5, np.random.default_rng(42))
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    assert a.mean_zero
    k = np.arange(-5, 6)
    outside = (k[:, None] ** 2 + k[None, :] ** 2) > 25
    assert np.all(a.coeffs[outside] == 0.0)


def _exact_outputs(band, seed, p, trig, lam_gap, scale):
    """(name, field) for every producer that builds its field through the
    exact path, applied to seeded random fields of the given band."""
    rng = np.random.default_rng(seed)
    f = random_field(band, rng, mean_zero=True)
    g = random_field(band + 1, rng, mean_zero=True)
    h = random_field(band, rng, mean_zero=False)
    lam = band + lam_gap
    out = [("zero", TorusField.zero(band)), ("random_field", f),
           ("random_field mean", h), ("add", h + g), ("add mean-zero", f + g),
           ("sub", f - g), ("neg", -h), ("mul", h * scale),
           ("pad_to", h.pad_to(band + 2)), ("trim", h.pad_to(band + 2).trim()),
           ("modulate", modulate(h, p, trig)),
           ("inv_div", inv_div(VectorField(f, g)))]
    out += [(f"lambda_s {s}", lambda_s(f, s)) for s in (-0.5, 0.5, 1.0)]
    for j in (1, 2):
        out += [(f"riesz {j}", riesz(f, j)), (f"riesz_odd {j}", riesz_odd(f, j)),
                (f"partial {j}", partial(h, j))]
    for l in DIRECTIONS:
        out += [(f"t_op {k} {l}", t_op(f, k, lam, l)) for k in (1, 2)]
        out.append((f"directional_grad {l}", directional_grad(h, l)))
    out += [("lowpass", lowpass(h, 1.0 + band / 2)),
            ("fat_lowpass", fat_lowpass(h, 1.0 + band / 8))]
    out += [(f"dyadic block {b.j}", b.part) for b in dyadic_blocks(h)]
    return out


@settings(max_examples=60, deadline=None)
@given(band=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1),
       p=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
       trig=st.sampled_from(["cos", "sin"]), lam_gap=st.integers(1, 20),
       scale=st.floats(-1e3, 1e3))
def test_exact_producers_are_hermitian_and_frozen(band, seed, p, trig, lam_gap, scale):
    for name, fld in _exact_outputs(band, seed, p, trig, lam_gap, scale):
        c = fld.coeffs
        assert np.array_equal(c, np.conj(c[::-1, ::-1])), name
        with pytest.raises(ValueError):  # frozen
            c[0, 0] = 1.0
        if fld.mean_zero:
            assert c[fld.band, fld.band] == 0, name


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


def test_from_grid_rejects_non_representable():
    vals = np.zeros((8, 8))
    with pytest.raises(GridTooSmall):
        from_grid(GridSamples(N=8, values=vals), 4)
