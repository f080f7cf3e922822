"""Norms: hand values, Parseval, the sampling grid, Besov-type sup."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqgci import norms
from sqgci.errors import GridBudgetExceeded, NonZeroMean
from sqgci.fields import GRID_BLOCK, TorusField, good_grid, random_field, to_grid
from sqgci.multipliers import ModulatedField, lambda_s, lowpass, riesz_odd, riesz_odd_symbol
from sqgci.norms import (
    _grid_side,
    holder_besov,
    linf,
    sobolev,
    x_norm,
)

from test_fields import _traced_peak


def _cos(k1, k2):
    band = max(abs(k1), abs(k2))
    return TorusField.from_modes(band, {(k1, k2): 0.5}, mean_zero=True)


def test_sobolev_hand_values():
    f = _cos(1, 0)
    assert abs(sobolev(f, 0.0) - np.sqrt(0.5)) < 1e-15
    g = _cos(3, 4)  # |k| = 5
    assert abs(sobolev(g, -0.5) - np.sqrt(0.5 / 5.0)) < 1e-15
    # |k|^-1 is formed only where |k| > 0, so k = 0 adds nothing
    with np.errstate(divide="raise", invalid="raise"):
        assert np.isfinite(sobolev(random_field(6, np.random.default_rng(2)), -0.5))
    assert abs(sobolev(g, 1.0) - 5.0 * np.sqrt(0.5)) < 1e-14


def test_sobolev_shift_property():
    rng = np.random.default_rng(3)
    f = random_field(6, rng)
    for s, t in ((0.5, -0.5), (1.0, 0.25), (-0.5, 3.0)):
        a = sobolev(lambda_s(f, s), t)
        b = sobolev(f, s + t)
        assert abs(a - b) < 1e-12 * max(1.0, b)


def _whole_box_sobolev(f, s):
    """Oracle: the Sobolev sum over the whole box, k != 0."""
    k = np.arange(-f.band, f.band + 1, dtype=np.float64)
    kn = np.hypot(k[:, None], k[None, :])
    mask = kn > 0
    return float(np.sqrt(np.sum(kn[mask] ** (2.0 * s) * np.abs(f.box()[mask]) ** 2)))


@pytest.mark.parametrize("band", [0, 1, 7, 40])
@pytest.mark.parametrize("s, mean", [(-0.5, False), (0.0, False), (0.5, False), (3.0, False),
                                     (0.0, True), (0.5, True), (3.0, True)])
def test_sobolev_equals_the_whole_box_formula(band, s, mean):
    # the half, its k2 > 0 columns counted twice, against the whole box;
    # a mean is left out of the sum, and a negative s refuses it
    f = random_field(band, np.random.default_rng(band), mean_zero=not mean)
    want = _whole_box_sobolev(f, s)
    assert abs(sobolev(f, s) - want) <= 1e-14 * want
    if mean and band > 0:
        assert f.coeff(0, 0) != 0
        with pytest.raises(NonZeroMean):
            sobolev(f, -0.5)


def test_linf_exact_at_nodes():
    assert abs(linf(_cos(1, 0)) - 1.0) < 1e-14
    two = _cos(1, 0) + _cos(2, 0)  # both peak at x = 0
    assert abs(linf(two) - 2.0) < 1e-13


def test_x_norm_hand_value():
    # q = cos(x1+x2): m1 vanishes on the diagonal, m2(1,1) = 2
    q = _cos(1, 1)
    assert abs(x_norm(q) - 3.0) < 1e-13


def test_x_norm_homogeneous():
    rng = np.random.default_rng(7)
    q = random_field(5, rng)
    a = x_norm(q * -3.0)
    b = 3.0 * x_norm(q)
    assert abs(a - b) < 1e-12 * max(1.0, b)


def test_parseval_against_quadrature():
    rng = np.random.default_rng(11)
    f = random_field(7, rng)
    N = good_grid(2 * 7 + 2)
    vals = to_grid(f, N)
    quad = np.sqrt(np.sum(vals * vals)) / N
    assert abs(sobolev(f, 0.0) - quad) < 1e-12 * max(1.0, quad)


def _holder_oracle(f: TorusField, alpha: float, oversample: int, grid_cap) -> float:
    """holder_besov by its full-box definition: each dyadic shell is
    masked on f's whole box, trimmed to its band and measured by linf.
    The shells must partition the box."""
    K = f.band
    k = np.arange(-K, K + 1, dtype=np.float64)
    kn = np.hypot(k[:, None], k[None, :])
    jmax = 0 if K == 0 else max(0, math.ceil(math.log2(math.hypot(K, K))))
    cover = np.zeros(kn.shape, dtype=int)
    best = 0.0
    for j in range(jmax + 1):
        if j == 0:
            mask = kn <= 1.0
        else:
            mask = (kn > 2.0 ** (j - 1)) & (kn <= 2.0 ** j)
        cover += mask
        c = np.where(mask, f.box(), 0.0)
        if np.any(c):
            best = max(best, 2.0 ** (j * alpha)
                       * linf(TorusField(c).trim(), oversample, grid_cap))
    assert np.all(cover == 1)
    return best


@pytest.mark.parametrize("band, grid_cap", [(0, None), (1, None), (9, None),
                                            (40, 128), (70, 256), (200, 512)])
def test_holder_besov_equals_the_full_box_oracle(band, grid_cap):
    # the three capped cases sample their outer shells below 4x
    f = random_field(band, np.random.default_rng(13 + band), mean_zero=band > 0)
    assert holder_besov(f, 0.45, 4, grid_cap) == _holder_oracle(f, 0.45, 4, grid_cap)


@settings(max_examples=40, deadline=None)
@given(band=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["random", "wave", "zero"]),
       p=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
       trig=st.sampled_from(["cos", "sin"]), oversample=st.integers(2, 5),
       grid_cap=st.sampled_from([None, 32, 64]), alpha=st.floats(0.05, 0.95))
def test_holder_besov_matches_the_oracle_on_carrier_fields(
        band, seed, kind, p, trig, oversample, grid_cap, alpha):
    f = random_field(band, np.random.default_rng(seed), mean_zero=False)
    if kind == "wave":
        f = ModulatedField.wave(f, p, trig).to_dense()
    elif kind == "zero":
        f = TorusField.zero(band)
    try:
        want = _holder_oracle(f, alpha, oversample, grid_cap)
    except GridBudgetExceeded:
        with pytest.raises(GridBudgetExceeded):
            holder_besov(f, alpha, oversample, grid_cap)
        return
    assert holder_besov(f, alpha, oversample, grid_cap).hex() == want.hex()


def test_holder_besov_single_block():
    f = _cos(4, 0)  # |k| = 4 sits in block j = 2
    assert abs(holder_besov(f, 0.5) - 2.0) < 1e-13
    assert abs(holder_besov(_cos(1, 0), 0.3) - 1.0) < 1e-13
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            holder_besov(f, alpha)


def test_holder_besov_lowpass_monotone():
    rng = np.random.default_rng(17)
    f = random_field(8, rng)
    full = holder_besov(f, 0.4)
    cut = holder_besov(lowpass(f, 6.0), 0.4)
    assert cut <= full * (1.0 + 1e-9)


def test_holder_besov_triangle():
    rng = np.random.default_rng(19)
    f = random_field(6, rng)
    g = random_field(6, rng)
    assert holder_besov(f + g, 0.55) <= (
        holder_besov(f, 0.55) + holder_besov(g, 0.55)) * (1.0 + 1e-9)


def test_grid_budget_cap():
    f = TorusField.from_modes(100, {(100, 0): 0.5}, mean_zero=True)
    with pytest.raises(GridBudgetExceeded):
        linf(f, oversample=4, grid_cap=64)
    # generous cap falls back to the largest fitting grid
    assert abs(linf(f, oversample=4, grid_cap=256) - 1.0) < 1e-13
    with pytest.raises(ValueError, match="oversample must be >= 2, got 1"):
        linf(f, oversample=1)


def _eager_grid_side(K: int, oversample: int, grid_cap):
    """The first fitting grid of good_grid(oversample, ..., 1 times the
    minimal one), then the minimal one, from the whole list of
    candidates."""
    minimal = 2 * K + 2
    for N in [good_grid(s * minimal) for s in range(oversample, 0, -1)] + [minimal]:
        if grid_cap is None or N <= grid_cap:
            return N
    return None


def test_grid_side_searches_only_grids_that_can_fit(monkeypatch):
    # from K = 6 on, good_grid(2K+2) can exceed 2K+2 (14 -> 15)
    for K in range(10):
        for oversample in range(2, 9):
            for grid_cap in (None, 1, 2, 11, 12, 14, 15, 16, 22, 30, 64, 100):
                want = _eager_grid_side(K, oversample, grid_cap)
                if want is None:
                    with pytest.raises(GridBudgetExceeded):
                        _grid_side(K, oversample, grid_cap)
                else:
                    assert _grid_side(K, oversample, grid_cap) == want
    # the last resort is FFT-friendly whenever it fits: band 986 under the
    # 2048 cap samples 2000 = 2^4 5^3 points, not 1974 = 2 3 7 47; the
    # raw 2K+2 is left only when good_grid(2K+2) is over the cap
    assert _grid_side(986, 4, 2048) == 2000
    assert _grid_side(6, 4, 15) == 15
    assert _grid_side(6, 4, 14) == 14
    calls = []

    def counted(n):
        calls.append(n)
        return good_grid(n)

    monkeypatch.setattr(norms, "good_grid", counted)
    # good_grid(n) >= n, so no oversampling above cap // (2K+2) can fit
    assert _grid_side(16, 10 ** 6, 1024) == _eager_grid_side(16, 40, 1024)
    assert len(calls) <= 1024 // 34
    calls.clear()
    assert _grid_side(16, 10 ** 6, None) == good_grid(10 ** 6 * 34)
    assert len(calls) == 1


@settings(max_examples=30, deadline=None)
@given(c=st.floats(-1e300, 1e300), oversample=st.integers(2, 5))
@example(c=-0.0, oversample=2)
@example(c=-5e-324, oversample=3)
def test_linf_of_a_constant_is_its_modulus(c, oversample):
    # a band-0 grid holds c at every node, so linf needs no branch for it
    f = TorusField.constant(c)
    assert linf(f, oversample).hex() == abs(c).hex()


def _linf_oracle(f: TorusField, oversample: int, grid_cap) -> float:
    """Max of |f| on the `_eager_grid_side` grid, from a full |g| grid."""
    K = f.band
    if K == 0:
        return abs(f.coeffs[0, 0].real)
    N = _eager_grid_side(K, oversample, grid_cap)
    if N is None:
        raise GridBudgetExceeded(f"band {K}")
    return float(np.abs(to_grid(f, N)).max())


@settings(max_examples=40, deadline=None)
@given(band=st.integers(0, 24), seed=st.integers(0, 2 ** 32 - 1),
       oversample=st.integers(2, 5), grid_cap=st.sampled_from([None, 64, 128]),
       scale=st.sampled_from([1.0, -1.0, 0.0, -0.0, 1e-300]))
def test_x_norm_equals_the_riesz_box_oracle_bit_for_bit(band, seed, oversample, grid_cap, scale):
    # the oracle applies m_j to q's whole box and reads the image back
    # through the checked constructor
    rng = np.random.default_rng(seed)
    q = random_field(band, rng, mean_zero=True) * scale
    k = np.arange(-band, band + 1, dtype=np.float64)
    try:
        want = _linf_oracle(q, oversample, grid_cap)
        for j in (1, 2):
            image = TorusField(q.box() * riesz_odd_symbol(j, k[:, None], k[None, :]))
            assert image.coeffs.tobytes() == riesz_odd(q, j).coeffs.tobytes()
            want += _linf_oracle(image, oversample, grid_cap)
    except GridBudgetExceeded:
        with pytest.raises(GridBudgetExceeded):
            x_norm(q, oversample, grid_cap)
        return
    # float.hex tells -0.0 from 0.0
    sup = linf(q, oversample, grid_cap)
    assert sup.hex() == _linf_oracle(q, oversample, grid_cap).hex()
    assert x_norm(q, oversample, grid_cap).hex() == want.hex()
    assert x_norm(q, oversample, grid_cap, sup=sup).hex() == want.hex()


def test_linf_and_x_norm_hold_no_sample_grid_and_no_image():
    # band 200 at 2x samples on an 810-point grid. linf holds the half
    # spectrum and one block of samples: the whole sample grid took
    # 8 N^2 bytes more. x_norm samples m_j q from q's half: an image of
    # the half would add its bytes
    q = random_field(200, np.random.default_rng(0), mean_zero=True)
    N = _grid_side(200, 2, None)
    assert N == 810
    spectrum, block = 16 * N * (N // 2 + 1), 8 * GRID_BLOCK * N
    assert _traced_peak(lambda: linf(q, 2)) < spectrum + 1.25 * block
    assert _traced_peak(lambda: x_norm(q, 2)) < spectrum + q.coeffs.nbytes
