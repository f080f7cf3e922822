"""Fourier multipliers: hand values, adjoint identities, commutators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sqgci.errors import BandExceedsLambda, NegativePowerOnMean, NonZeroMean
from sqgci.fields import TorusField, inner, multiply, random_field
from sqgci.multipliers import (
    DIRECTIONS,
    L1,
    L2,
    Direction,
    directional_grad,
    fat_lowpass,
    grad,
    grad_perp,
    inv_div,
    lambda_s,
    lowpass,
    modulate,
    partial,
    riesz,
    riesz_commutator,
    riesz_odd,
    riesz_odd_symbol,
    rperp_grad_commutator,
    t_op,
)


def test_directions_pythagorean():
    for l in DIRECTIONS:
        assert l.n1 ** 2 + l.n2 ** 2 == l.d ** 2
    assert (L1.n1, L1.n2, L1.d) == (3, 4, 5)
    assert (L2.n1, L2.n2, L2.d) == (1, 0, 1)
    p = L1.perp
    assert (p.n1, p.n2, p.d) == (-4, 3, 5)
    assert L2.wave(40) == (40, 0)


def test_direction_rejects_non_triple():
    with pytest.raises(ValueError):
        Direction(1, 1, 2)


def test_lambda_power_single_mode():
    f = TorusField.from_modes(5, {(3, 4): 0.5}, mean_zero=True)
    g = lambda_s(f, -1.0)
    assert abs(g.coeff(3, 4) - 0.1) < 1e-16
    h = lambda_s(f, 1.0)
    assert abs(h.coeff(3, 4) - 2.5) < 1e-15
    assert lambda_s(f, 0.0) is f


def test_lambda_power_composes():
    rng = np.random.default_rng(4)
    f = random_field(6, rng)
    a = lambda_s(lambda_s(f, 0.7), -0.2)
    b = lambda_s(f, 0.5)
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-14)


def test_lambda_negative_power_needs_mean_zero():
    f = TorusField.constant(1.0) + TorusField.from_modes(1, {(1, 0): 0.5})
    with pytest.raises(NegativePowerOnMean):
        lambda_s(f, -0.5)


def test_riesz_single_mode_and_skew_symmetry():
    f = TorusField.from_modes(2, {(2, 0): 0.5}, mean_zero=True)
    g = riesz(f, 1)  # symbol i k1/|k|: cos -> -sin
    assert abs(g.coeff(2, 0) - 0.5j) < 1e-16
    rng = np.random.default_rng(17)
    for j in (1, 2):
        a = random_field(5, rng)
        b = random_field(5, rng)
        s = abs(inner(riesz(a, j), b) + inner(a, riesz(b, j)))
        assert s < 1e-12 * max(1.0, abs(inner(a, a)))


def test_riesz_requires_mean_zero():
    f = TorusField.constant(2.0)
    with pytest.raises(NonZeroMean):
        riesz(f, 1)


def test_riesz_odd_symbol_hand_values():
    # m1 = 25(k2^2-k1^2)/(12|k|^2), m2 = 7(k2^2-k1^2)/(12|k|^2) + 4k1k2/|k|^2
    assert abs(riesz_odd_symbol(1, 1.0, 0.0) + 25.0 / 12.0) < 1e-15
    assert abs(riesz_odd_symbol(1, 0.0, 1.0) - 25.0 / 12.0) < 1e-15
    assert abs(riesz_odd_symbol(1, 1.0, 1.0)) < 1e-15
    assert abs(riesz_odd_symbol(2, 1.0, 0.0) + 7.0 / 12.0) < 1e-15
    assert abs(riesz_odd_symbol(2, 1.0, 1.0) - 2.0) < 1e-15
    assert riesz_odd_symbol(1, 0.0, 0.0) == 0.0


def _riesz_odd_symbol_oracle(j, k1, k2):
    """The symbol as one expression per index, masked by np.where."""
    n2 = k1 * k1 + k2 * k2
    with np.errstate(invalid="ignore", divide="ignore"):
        if j == 1:
            m = 25.0 * (k2 * k2 - k1 * k1) / (12.0 * n2)
        else:
            m = 7.0 * (k2 * k2 - k1 * k1) / (12.0 * n2) + 4.0 * k1 * k2 / n2
    return np.where(n2 == 0.0, 0.0, m)


@pytest.mark.parametrize("j", [1, 2])
def test_riesz_odd_symbol_equals_the_oracle_bit_for_bit(j):
    for K in (0, 1, 2, 7, 40, 137):
        k = np.arange(-K, K + 1, dtype=np.float64)
        for k1, k2 in ((k[:, None], k[None, :]),
                       tuple(np.meshgrid(k, k, indexing="ij"))):
            got = riesz_odd_symbol(j, k1, k2)
            want = _riesz_odd_symbol_oracle(j, k1, k2)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), K
    k1, k2 = np.float64(3.0), np.float64(-2.0)
    assert riesz_odd_symbol(j, k1, k2) == _riesz_odd_symbol_oracle(j, k1, k2)
    with pytest.raises(ValueError):
        riesz_odd_symbol(3, k1, k2)


def test_riesz_odd_field_real_even():
    rng = np.random.default_rng(23)
    q = random_field(6, rng)
    for j in (1, 2):
        g = riesz_odd(q, j)
        # even real symbol: coefficient at k is symbol(k) * coeff(k)
        for k1, k2 in ((1, 0), (2, 3), (-1, 4)):
            want = riesz_odd_symbol(j, float(k1), float(k2)) * q.coeff(k1, k2)
            assert abs(g.coeff(k1, k2) - want) < 1e-15


def test_t_op_hand_values():
    f = TorusField.from_modes(1, {(0, 1): 0.5}, mean_zero=True)
    g = t_op(f, 1, 10, L2)
    want = 0.5 * (math.sqrt(101.0) - 10.0)
    assert abs(g.coeff(0, 1) - want) < 1e-14

    # order 2 vanishes on collinear modes: (|lam l + k| - |lam l - k|)/2 = l.k
    h = t_op(TorusField.from_modes(1, {(1, 0): 0.5}, mean_zero=True), 2, 10, L2)
    assert h.max_abs_coeff() < 1e-14

    f2 = TorusField.from_modes(1, {(1, 1): 0.5}, mean_zero=True)
    g2 = t_op(f2, 2, 10, L2)
    want2 = 0.5j * ((math.sqrt(122.0) - math.sqrt(82.0)) / 2.0 - 1.0)
    assert abs(g2.coeff(1, 1) - want2) < 1e-14


def test_t_op_band_guard():
    f = TorusField.from_modes(8, {(8, 0): 0.5}, mean_zero=True)
    with pytest.raises(BandExceedsLambda):
        t_op(f, 1, 8, L2)


def test_lowpass_flat_and_kill():
    rng = np.random.default_rng(31)
    f = random_field(4, rng)
    # cutoff is 1 for |k| <= mu/2: with mu = 16 a band-4 field passes whole
    np.testing.assert_allclose(lowpass(f, 16.0).pad_to(4).coeffs, f.coeffs,
                               atol=0)
    g = lowpass(f, 4.0)
    assert g.band < 4  # modes at |k| >= mu are gone
    for k1, k2 in ((1, 0), (0, 1), (1, 1)):
        assert g.coeff(k1, k2) == f.coeff(k1, k2)  # |k| <= mu/2 untouched


def test_fat_lowpass_identity_on_truncated_square():
    rng = np.random.default_rng(37)
    mu = 6.0
    a = lowpass(random_field(9, rng), mu)
    sq = multiply(a, a)  # band <= 2 mu, inside the fat pass-through zone
    np.testing.assert_allclose(fat_lowpass(sq, mu).pad_to(sq.band).coeffs,
                               sq.coeffs, atol=1e-13)


def test_inv_div_forward_oracle():
    rng = np.random.default_rng(41)
    v1 = random_field(5, rng)
    v2 = random_field(5, rng)
    from sqgci.fields import VectorField
    p = inv_div(VectorField(v1, v2))
    lhs = lambda_s(p, 2.0) * -1.0  # Laplacian of p
    rhs = partial(v1, 1) + partial(v2, 2)
    np.testing.assert_allclose(lhs.pad_to(5).coeffs, rhs.pad_to(5).coeffs,
                               atol=1e-13)


def test_inv_div_kills_perp_gradients():
    rng = np.random.default_rng(43)
    g = random_field(6, rng)
    p = inv_div(grad_perp(g))
    assert p.max_abs_coeff() < 1e-15


def test_grad_and_directional():
    f = TorusField.from_modes(1, {(1, 0): 0.5}, mean_zero=True)  # cos x1
    gx = grad(f)
    assert abs(gx.comp1.coeff(1, 0) - 0.5j) < 1e-16  # -sin x1
    assert gx.comp2.max_abs_coeff() == 0.0
    gp = grad_perp(f)
    assert gp.comp1.max_abs_coeff() == 0.0
    assert abs(gp.comp2.coeff(1, 0) - 0.5j) < 1e-16
    d = directional_grad(f, L1)  # (3/5) d1
    assert abs(d.coeff(1, 0) - 0.3j) < 1e-16


def test_modulate_shifts_coefficients():
    a = TorusField.from_modes(1, {(1, 0): 0.5}, mean_zero=True)
    m = modulate(a, (10, 0), "cos")
    for k, want in (((11, 0), 0.25), ((9, 0), 0.25), ((-9, 0), 0.25),
                    ((-11, 0), 0.25)):
        assert abs(m.coeff(*k) - want) < 1e-16
    s = modulate(TorusField.constant(1.0), (0, 7), "sin")
    assert abs(s.coeff(0, 7) + 0.5j) < 1e-16
    assert abs(s.coeff(0, -7) - 0.5j) < 1e-16


def test_modulate_matches_product():
    rng = np.random.default_rng(47)
    a = random_field(3, rng)
    w = TorusField.from_modes(12, {(12, 0): 0.5}, mean_zero=True)
    np.testing.assert_allclose(
        modulate(a, (12, 0), "cos").pad_to(15).coeffs,
        multiply(a, w).pad_to(15).coeffs, atol=1e-13)


def test_riesz_commutator_collinear_vanishes():
    phi = TorusField.from_modes(1, {(1, 0): 0.5})
    theta = TorusField.from_modes(2, {(2, 0): 0.5}, mean_zero=True)
    com = riesz_commutator(phi, theta, 1)
    assert com.max_abs_coeff() < 1e-15


def test_rperp_grad_commutator_hand_value():
    # psi = cos x1, theta = cos x2: coefficient at (1,1) is
    # (1/(2 sqrt 2) - 1/2)/2 from the two-term convolution
    psi = TorusField.from_modes(1, {(1, 0): 0.5})
    theta = TorusField.from_modes(1, {(0, 1): 0.5}, mean_zero=True)
    com = rperp_grad_commutator(psi, theta)
    want = (0.5 / math.sqrt(2.0) - 0.5) / 2.0
    assert abs(com.coeff(1, 1) - want) < 1e-14
    assert abs(com.coeff(1, -1) + want) < 1e-14


def test_rperp_grad_commutator_matches_primitive_assembly():
    rng = np.random.default_rng(53)
    psi = random_field(3, rng, mean_zero=False)
    theta = random_field(4, rng)
    d1, d2 = partial(psi, 1), partial(psi, 2)
    want = (riesz_commutator(d1, theta, 2) * -1.0
            + riesz_commutator(d2, theta, 1))
    got = rperp_grad_commutator(psi, theta)
    np.testing.assert_allclose(got.pad_to(7).coeffs, want.pad_to(7).coeffs,
                               atol=1e-14)


def test_riesz_pairing_identity():
    # <theta R_j theta, phi> = -(1/2) <theta, [R_j, phi] theta>
    rng = np.random.default_rng(59)
    for _ in range(5):
        theta = random_field(5, rng)
        phi = random_field(4, rng, mean_zero=False)
        scale = max(inner(theta, theta) * max(1.0, abs(phi.mean)), 1e-30)
        for j in (1, 2):
            lhs = inner(multiply(theta, riesz(theta, j)), phi)
            rhs = -0.5 * inner(theta, riesz_commutator(phi, theta, j))
            assert abs(lhs - rhs) < 1e-11 * scale
