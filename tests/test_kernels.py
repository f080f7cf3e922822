"""Cutoff profile, carrier symbol grids, and the Hermitian scan of the
checked constructor."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgci import fields
from sqgci.fields import TorusField
from sqgci.kernels import cutoff_profile, t_symbols


def test_cutoff_plateau_and_tail():
    r = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 7.0])
    got = cutoff_profile(r)
    np.testing.assert_array_equal(got, [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def test_cutoff_midpoint_symmetry():
    # the glue is symmetric about r = 3/4
    assert cutoff_profile(np.array([0.75]))[0] == pytest.approx(0.5)
    eps = 0.13
    lo = cutoff_profile(np.array([0.75 - eps]))[0]
    hi = cutoff_profile(np.array([0.75 + eps]))[0]
    assert lo + hi == pytest.approx(1.0, abs=1e-15)


def test_cutoff_monotone_on_ramp():
    r = np.linspace(0.5, 1.0, 401)
    v = cutoff_profile(r)
    assert np.all(np.diff(v) <= 0.0)
    assert np.all((v >= 0.0) & (v <= 1.0))


def test_cutoff_accepts_scalar_and_2d():
    assert cutoff_profile(0.3) == 1.0
    assert cutoff_profile(np.float64(2.0)) == 0.0
    grid = np.array([[0.1, 0.75], [0.9, 1.2]])
    out = cutoff_profile(grid)
    assert out.shape == (2, 2)
    assert out[0, 1] == pytest.approx(0.5)


def test_t_symbols_match_direct_formula():
    lam, n1, n2, d, K = 8, 1, 0, 1, 4
    t1, t2f = t_symbols(lam, n1, n2, d, K)
    assert t1.shape == t2f.shape == (2 * K + 1, K + 1)  # k2 = 0..K
    for i in range(2 * K + 1):
        for j in range(K + 1):
            k1, k2 = i - K, j
            a = math.hypot(lam * n1 / d + k1, lam * n2 / d + k2)
            b = math.hypot(lam * n1 / d - k1, lam * n2 / d - k2)
            lk = (n1 * k1 + n2 * k2) / d
            assert t1[i, j] == pytest.approx((a + b) / 2 - lam, abs=1e-9)
            assert t2f[i, j] == pytest.approx((a - b) / 2 - lk, abs=1e-9)


def test_t_symbols_rational_direction():
    lam, n1, n2, d, K = 40, 3, 4, 5, 4
    t1, t2f = t_symbols(lam, n1, n2, d, K)
    # center: k = 0 makes both shifts equal lam
    assert t1[K, 0] == 0.0
    assert t2f[K, 0] == 0.0
    # collinear k = l*d = (3, 4): |lam l +- k| = lam +- d exactly
    assert t1[K + 3, 4] == pytest.approx(0.0, abs=1e-12)
    assert t2f[K + 3, 4] == pytest.approx(0.0, abs=1e-12)


def test_t_symbols_parity():
    # k and -k both lie in the k2 >= 0 half only on its k2 = 0 column,
    # where t1 is even and t2f odd to the last bit, as a real field's
    # Hermitian column needs
    for n1, n2, d in ((1, 0, 1), (3, 4, 5), (-4, 3, 5)):
        t1, t2f = t_symbols(64, n1, n2, d, 5)
        np.testing.assert_array_equal(t1[:, 0], t1[::-1, 0])
        np.testing.assert_array_equal(t2f[:, 0], -t2f[::-1, 0])


def test_t_symbols_decay_with_lambda():
    # t1 = O(|k|^2 / lam): doubling lam roughly halves the symbol
    a, _ = t_symbols(256, 1, 0, 1, 4)
    b, _ = t_symbols(512, 1, 0, 1, 4)
    mask = np.ones_like(a, dtype=bool)
    mask[4, 0] = False
    assert np.max(np.abs(b[mask])) < 0.6 * np.max(np.abs(a[mask]))


def test_hermitian_violation_detects_perturbation():
    rng = np.random.default_rng(3)
    K = 6
    raw = rng.normal(size=(2 * K + 1, 2 * K + 1)) \
        + 1j * rng.normal(size=(2 * K + 1, 2 * K + 1))
    sym = 0.5 * (raw + np.conj(raw[::-1, ::-1]))
    assert TorusField(sym).coeffs.tobytes() == sym[:, K:].tobytes()
    sym[2, 3] += 4e-7
    # the (2,3)/(−2,−3) pair now disagrees by exactly the bump
    with pytest.raises(ValueError, match=r"^Hermitian symmetry violated: 4\.000e-07 > 1e-13 \* "):
        TorusField(sym)


def _full_box_violation(c):
    return float(np.abs(c - np.conj(c[::-1, ::-1])).max())


@settings(max_examples=100, deadline=None)
@given(K=st.integers(0, 20), kind=st.sampled_from(["exact", "perturbed", "k1=0 row"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_half_scan_equals_the_full_box_oracle_bit_for_bit(K, kind, seed):
    # the constructor scans its own half: each pair {k, -k} meets itself
    # there, so its defect is the whole box's, and so is its decision
    rng = np.random.default_rng(seed)
    n = 2 * K + 1
    c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    c = 0.5 * (c + np.conj(c[::-1, ::-1]))
    if kind == "perturbed":
        bump = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        c += bump * 10.0 ** rng.uniform(-17, -3, size=(n, n))
    elif kind == "k1=0 row":
        c[K, rng.integers(n)] += complex(*rng.normal(size=2)) * 1e-9
    want, maxc = _full_box_violation(c), float(np.abs(c).max())
    seen = []
    check = fields._check_hermitian

    def recording(viol, m):
        seen.append(viol)
        check(viol, m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_check_hermitian", recording)
        if want > 1e-13 * maxc:
            with pytest.raises(ValueError) as refused:
                TorusField(c)
            assert str(refused.value) == (f"Hermitian symmetry violated: {want:.3e} > "
                                          f"1e-13 * {maxc:.3e}")
        else:
            TorusField(c)
    assert np.float64(seen[0]).view(np.uint64) == np.float64(want).view(np.uint64)
