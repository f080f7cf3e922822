"""Fourier multipliers: hand values, adjoint identities, commutators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgci.errors import BandExceedsLambda, NonZeroMean
from sqgci.fields import TorusField, VectorField, _half_vdot, inner, multiply, random_field
from sqgci.multipliers import (
    DIRECTIONS,
    L1,
    L2,
    MEAN_RTOL,
    Direction,
    ModulatedField,
    _inv_div_block,
    directional_grad,
    grad_perp,
    inv_div,
    lambda_s,
    lowpass,
    require_mean_zero,
    riesz,
    riesz_commutator,
    riesz_odd,
    riesz_odd_symbol,
    t_ops,
)
from sqgci.norms import x_norm


def _positive_zero(z):
    """Whether z is +0 + 0j, both parts with a clear sign bit."""
    z = complex(z)
    return z == 0 and not np.signbit(z.real) and not np.signbit(z.imag)


def test_directions_pythagorean():
    for l in DIRECTIONS:
        assert l.n1 ** 2 + l.n2 ** 2 == l.d ** 2
    assert (L1.n1, L1.n2, L1.d) == (3, 4, 5)
    assert (L2.n1, L2.n2, L2.d) == (1, 0, 1)
    p = L1.perp
    assert (p.n1, p.n2, p.d) == (-4, 3, 5)
    assert L2.wave(40) == (40, 0)
    with pytest.raises(ValueError, match="not a lattice vector"):
        L1.wave(3)


def test_direction_rejects_non_triple():
    with pytest.raises(ValueError):
        Direction(1, 1, 2)


def test_lambda_power_single_mode():
    f = TorusField.from_modes(5, {(3, 4): 0.5}, mean_zero=True)
    g = lambda_s(f, -1.0)
    assert abs(g.coeff(3, 4) - 0.1) < 1e-16
    h = lambda_s(f, 1.0)
    assert abs(h.coeff(3, 4) - 2.5) < 1e-15
    # s > 0 sends a mean to +0
    assert _positive_zero(lambda_s(f + TorusField.constant(2.0), 0.5).coeff(0, 0))
    assert lambda_s(f, 0.0) is f


def test_lambda_power_composes():
    rng = np.random.default_rng(4)
    f = random_field(6, rng)
    a = lambda_s(lambda_s(f, 0.7), -0.2)
    b = lambda_s(f, 0.5)
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-14)
    # either sign: the bits of the half times |k|^s, set to 0 at k = 0
    k = np.arange(-6, 7, dtype=np.float64)
    for s in (-0.7, 0.5):
        with np.errstate(divide="ignore"):
            m = np.hypot(k[:, None], k[None, 6:]) ** s
        m[6, 0] = 0.0
        with np.errstate(divide="raise", invalid="raise"):
            g = lambda_s(f, s)
        assert g.coeffs.tobytes() == (f.coeffs * m).tobytes()
        assert _positive_zero(g.coeff(0, 0))


def test_lambda_negative_power_needs_mean_zero():
    f = TorusField.constant(1.0) + TorusField.from_modes(1, {(1, 0): 0.5})
    with pytest.raises(NonZeroMean, match=r"^Lambda\^-0\.5: mean coefficient"):
        lambda_s(f, -0.5)


@pytest.mark.parametrize("rho", [0.5, 2.0])
def test_every_mean_check_trips_at_the_threshold(rho):
    # a mean of rho * MEAN_RTOL times the l2 mass: below the threshold at
    # rho = 1/2, above it at rho = 2, with one verdict for every caller
    # (a field, its whole box as a factored block, and its band-2 window
    # with the mass outside passed on)
    r = random_field(6, np.random.default_rng(61))
    t = r + TorusField.constant(rho * MEAN_RTOL * np.linalg.norm(r.box()))
    assert t.coeff(0, 0) != 0
    window = TorusField._exact(t.coeffs[4:9, :3].copy())
    assert window.band == 2
    outside = _half_vdot(t.coeffs, t.coeffs) - _half_vdot(window.coeffs, window.coeffs)
    assert outside == pytest.approx(np.vdot(t.box(), t.box()).real
                                    - np.vdot(window.box(), window.box()).real, rel=1e-12)
    checks = (lambda: require_mean_zero(t, "t"),
              lambda: require_mean_zero(ModulatedField({(0, 0): t.box()}), "t"),
              lambda: require_mean_zero(window, "t", outside=outside),
              lambda: lambda_s(t, -0.5),
              lambda: riesz(t, 1),
              lambda: inv_div(VectorField(t, t)),
              lambda: x_norm(t))
    for check in checks:
        if rho > 1:
            with pytest.raises(NonZeroMean):
                check()
        else:
            check()
    # the window alone holds too little mass to excuse the mean
    with pytest.raises(NonZeroMean):
        require_mean_zero(window, "t")


def test_factored_mean_is_the_sum_of_the_blocks_at_the_origin():
    # sin(x1) cos(x1) = sin(2 x1)/2: the blocks at (1, 0) and (-1, 0) both
    # cover k = 0 and cancel there; cos(x1)^2 keeps the mean 1/2
    sin = TorusField.from_modes(1, {(1, 0): -0.5j})
    cos = TorusField.from_modes(1, {(1, 0): 0.5})
    odd = ModulatedField.wave(sin, (1, 0), "cos")
    assert all(b[1 - p[0], 1 - p[1]] != 0 for p, b in odd.blocks.items())
    require_mean_zero(odd, "sin cos")
    with pytest.raises(NonZeroMean):
        require_mean_zero(ModulatedField.wave(cos, (1, 0), "cos"), "cos cos")


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
        with np.errstate(divide="raise", invalid="raise"):
            assert _positive_zero(riesz(a, j).coeff(0, 0))
    with pytest.raises(ValueError, match="Riesz index must be 1 or 2, got 3"):
        riesz(f, 3)


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
    with np.errstate(divide="raise", invalid="raise"):
        for j in (1, 2):
            for k1 in (0.0, -0.0):
                assert _positive_zero(riesz_odd_symbol(j, k1, 0.0))


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
            with np.errstate(divide="raise", invalid="raise"):
                got = riesz_odd_symbol(j, k1, k2)
            want = _riesz_odd_symbol_oracle(j, k1, k2)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), K
            assert _positive_zero(got[K, K])
    # scalars, the origin with either sign of zero among them
    for k1, k2 in ((3.0, -2.0), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)):
        k1, k2 = np.float64(k1), np.float64(k2)
        got = riesz_odd_symbol(j, k1, k2)
        assert got.tobytes() == _riesz_odd_symbol_oracle(j, k1, k2).tobytes()
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
        with np.errstate(divide="raise", invalid="raise"):
            assert _positive_zero(riesz_odd(q, j).coeff(0, 0))
    with pytest.raises(ValueError, match="index must be 1 or 2, got 3"):
        riesz_odd(q, 3)


def test_t_op_hand_values():
    f = TorusField.from_modes(1, {(0, 1): 0.5}, mean_zero=True)
    g = t_ops(f, 10, L2)[0]
    want = 0.5 * (math.sqrt(101.0) - 10.0)
    assert abs(g.coeff(0, 1) - want) < 1e-14

    # order 2 vanishes on collinear modes: (|lam l + k| - |lam l - k|)/2 = l.k
    h = t_ops(TorusField.from_modes(1, {(1, 0): 0.5}, mean_zero=True), 10, L2)[1]
    assert h.max_abs_coeff() < 1e-14

    f2 = TorusField.from_modes(1, {(1, 1): 0.5}, mean_zero=True)
    g2 = t_ops(f2, 10, L2)[1]
    want2 = 0.5j * ((math.sqrt(122.0) - math.sqrt(82.0)) / 2.0 - 1.0)
    assert abs(g2.coeff(1, 1) - want2) < 1e-14


def test_t_op_band_guard():
    f = TorusField.from_modes(8, {(8, 0): 0.5}, mean_zero=True)
    with pytest.raises(BandExceedsLambda):
        t_ops(f, 8, L2)


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
    with pytest.raises(ValueError, match="lowpass cutoff must be >= 1, got 0.5"):
        lowpass(f, 0.5)


def test_fat_lowpass_identity_on_truncated_square():
    rng = np.random.default_rng(37)
    mu = 6.0
    a = lowpass(random_field(9, rng), mu)
    sq = multiply(a, a)  # band <= 2 mu, inside the pass-through zone of lowpass at 4 mu
    np.testing.assert_allclose(lowpass(sq, 4.0 * mu).pad_to(sq.band).coeffs,
                               sq.coeffs, atol=1e-13)


def test_inv_div_forward_oracle():
    rng = np.random.default_rng(41)
    from sqgci.fields import VectorField
    # equal bands, then unequal ones: inv_div pads the smaller component
    for b1, b2 in ((5, 5), (3, 7), (7, 3)):
        v1 = random_field(b1, rng)
        v2 = random_field(b2, rng)
        p = inv_div(VectorField(v1, v2))
        assert p.band == max(b1, b2)
        lhs = lambda_s(p, 2.0) * -1.0  # Laplacian of p
        rhs = directional_grad(v1, L2) + directional_grad(v2, L2.perp)
        np.testing.assert_allclose(lhs.pad_to(rhs.band).coeffs, rhs.coeffs,
                                   atol=1e-13)
    # factored components must sit on the same carriers
    a = ModulatedField.wave(random_field(1, rng), (4, 0), "cos")
    b = ModulatedField.wave(random_field(1, rng), (0, 4), "cos")
    with pytest.raises(ValueError, match="inv_div needs components on the same carriers"):
        inv_div(VectorField(a, b))


@settings(max_examples=40, deadline=None)
@given(band=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_inv_div_inverts_the_gradient(band, seed):
    p = random_field(band, np.random.default_rng(seed), mean_zero=True)
    got = inv_div(VectorField(directional_grad(p, L2), directional_grad(p, L2.perp)))
    assert got.band == band
    np.testing.assert_allclose(got.coeffs, p.coeffs, rtol=0,
                               atol=1e-15 * p.max_abs_coeff())


def _inv_div_block_oracle(c1, c2, p):
    """i (p+k).v / (-|p+k|^2) as one expression, 0 at p + k = 0."""
    K = max(c1.shape[0], c2.shape[0]) // 2
    c1, c2 = (np.pad(c, K - c.shape[0] // 2) for c in (c1, c2))
    k = np.arange(-K, K + 1, dtype=np.float64)
    k1, k2 = k[:, None] + p[0], k[None, :] + p[1]
    num = 1j * (k1 * c1 + k2 * c2)
    den = -(k1 * k1 + k2 * k2)
    covers_origin = max(abs(p[0]), abs(p[1])) <= K
    if covers_origin:
        den[K - p[0], K - p[1]] = 1.0
    c = num / den
    if covers_origin:
        c[K - p[0], K - p[1]] = 0.0
    return c


@settings(max_examples=60, deadline=None)
@given(b1=st.integers(0, 6), b2=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1),
       p=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
       s1=st.sampled_from([1.0, -1.0, 0.0, -0.0]), s2=st.sampled_from([1.0, -1.0, 0.0, -0.0]))
def test_inv_div_block_equals_the_one_expression_oracle_bit_for_bit(b1, b2, seed, p, s1, s2):
    rng = np.random.default_rng(seed)

    def block(b, s):
        n = 2 * b + 1
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * s

    c1, c2 = block(b1, s1), block(b2, s2)
    K = max(b1, b2)
    k = np.arange(-K, K + 1, dtype=np.float64)
    c1p, c2p = (np.pad(c, K - c.shape[0] // 2) for c in (c1, c2))
    got = _inv_div_block(c1p, c2p, k[:, None] + p[0], k[None, :] + p[1])
    assert got.tobytes() == _inv_div_block_oracle(c1, c2, p).tobytes()
    # the factored path pads and shifts the same way
    if max(abs(p[0]), abs(p[1])) > K:  # no block covers k = 0, so no mean
        blocks = inv_div(VectorField(ModulatedField({p: c1}), ModulatedField({p: c2}))).blocks
        assert blocks[p].tobytes() == got.tobytes()


@settings(max_examples=60, deadline=None)
@given(b1=st.integers(0, 6), b2=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1),
       s1=st.sampled_from([1.0, -1.0, 0.0, -0.0]), s2=st.sampled_from([1.0, -1.0, 0.0, -0.0]))
def test_inv_div_block_on_halves_is_the_half_of_the_box_result(b1, b2, seed, s1, s2):
    # dense fields hold the k2 >= 0 halves of their boxes; the oracle
    # inverts the whole boxes, padded to one band
    rng = np.random.default_rng(seed)
    f = random_field(b1, rng, mean_zero=True) * s1
    g = random_field(b2, rng, mean_zero=True) * s2
    K = max(b1, b2)
    with np.errstate(divide="raise", invalid="raise"):
        got = inv_div(VectorField(f, g))
    want = _inv_div_block_oracle(f.box(), g.box(), (0, 0))
    assert got.band == K and got.coeffs.shape == (2 * K + 1, K + 1)
    assert got.coeffs.tobytes() == np.ascontiguousarray(want[:, K:]).tobytes()
    assert _positive_zero(got.coeff(0, 0))


@pytest.mark.parametrize("p", [(1, 0), (0, -2), (5, 3)])
def test_factored_inv_div_keeps_a_positive_zero_at_the_origin(p):
    # a band-2 amplitude with no mode at +-p puts no mean on its waves;
    # a's and b's zeros are -0, so each numerator's origin entry takes
    # their signs
    a = TorusField.from_modes(2, {(1, 1): 0.5, (2, -1): -0.25j}, mean_zero=True) * -1.0
    b = TorusField.from_modes(2, {(0, 1): 0.75}, mean_zero=True) * -0.0
    with np.errstate(divide="raise", invalid="raise"):
        q = inv_div(ModulatedField.wave(VectorField(a, b), p, "cos"))
    if max(abs(p[0]), abs(p[1])) <= 2:  # the blocks at +-p cover k = 0
        for c in (1, -1):
            assert _positive_zero(q.blocks[(c * p[0], c * p[1])][2 - c * p[0], 2 - c * p[1]])
    assert _positive_zero(q.to_dense().coeff(0, 0))


def test_inv_div_kills_perp_gradients():
    rng = np.random.default_rng(43)
    g = random_field(6, rng)
    p = inv_div(grad_perp(g))
    assert p.max_abs_coeff() < 1e-15


def test_grad_and_directional():
    f = TorusField.from_modes(1, {(1, 0): 0.5}, mean_zero=True)  # cos x1
    gx = VectorField(directional_grad(f, L2), directional_grad(f, L2.perp))
    assert abs(gx.comp1.coeff(1, 0) - 0.5j) < 1e-16  # -sin x1
    assert gx.comp2.max_abs_coeff() == 0.0
    gp = grad_perp(f)
    assert gp.comp1.max_abs_coeff() == 0.0
    assert abs(gp.comp2.coeff(1, 0) - 0.5j) < 1e-16
    d = directional_grad(f, L1)  # (3/5) d1
    assert abs(d.coeff(1, 0) - 0.3j) < 1e-16


def test_modulate_shifts_coefficients():
    a = TorusField.from_modes(1, {(1, 0): 0.5}, mean_zero=True)
    m = ModulatedField.wave(a, (10, 0), "cos").to_dense()
    for k, want in (((11, 0), 0.25), ((9, 0), 0.25), ((-9, 0), 0.25),
                    ((-11, 0), 0.25)):
        assert abs(m.coeff(*k) - want) < 1e-16
    s = ModulatedField.wave(TorusField.constant(1.0), (0, 7), "sin").to_dense()
    assert abs(s.coeff(0, 7) + 0.5j) < 1e-16
    assert abs(s.coeff(0, -7) - 0.5j) < 1e-16
    with pytest.raises(ValueError, match="trig must be 'cos' or 'sin', got 'tan'"):
        ModulatedField.wave(a, (10, 0), "tan")


def test_modulate_matches_product():
    rng = np.random.default_rng(47)
    a = random_field(3, rng)
    w = TorusField.from_modes(12, {(12, 0): 0.5}, mean_zero=True)
    np.testing.assert_allclose(
        ModulatedField.wave(a, (12, 0), "cos").to_dense().pad_to(15).coeffs,
        multiply(a, w).pad_to(15).coeffs, atol=1e-13)


def _placed_box(blocks):
    """The whole box of the blocks added, in order, at their carriers'
    offsets."""
    reach = [(p, b.shape[0] // 2) for p, b in blocks.items()]
    Kout = max(K + max(abs(p[0]), abs(p[1])) for p, K in reach)
    box = np.zeros((2 * Kout + 1, 2 * Kout + 1), dtype=np.complex128)
    for (p, K), b in zip(reach, blocks.values()):
        lo1, lo2 = Kout + p[0] - K, Kout + p[1] - K
        box[lo1:lo1 + 2 * K + 1, lo2:lo2 + 2 * K + 1] += b
    return box


def _to_dense_box_oracle(blocks):
    """The k2 >= 0 half of the placed box, its k2 = 0 column then
    symmetrised."""
    box = _placed_box(blocks)
    half = box[:, box.shape[0] // 2:].copy()
    col = half[:, 0]
    col += np.conj(col[::-1])
    col *= 0.5
    return half


@settings(max_examples=80, deadline=None)
@given(bands=st.lists(st.integers(0, 4), min_size=1, max_size=3),
       carriers=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                         min_size=3, max_size=3),
       trigs=st.lists(st.sampled_from(["cos", "sin"]), min_size=3, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_to_dense_is_the_half_of_the_box_oracle_bit_for_bit(bands, carriers, trigs, seed):
    # sums of waves put blocks apart, side by side, across k2 = 0 and on
    # top of each other
    rng = np.random.default_rng(seed)
    m = ModulatedField({})
    for b, p, trig in zip(bands, carriers, trigs):
        m = m + ModulatedField.wave(random_field(b, rng, mean_zero=False), p, trig)
    got = m.to_dense()
    want = _to_dense_box_oracle(m.blocks)
    K = want.shape[1] - 1
    assert got.band == K
    assert got.coeffs.tobytes() == want.tobytes()
    # where blocks overlap, the direct sums stay within rounding of the
    # symmetrised box, the average of the sums at k and -k
    box = _placed_box(m.blocks)
    box += np.conj(box[::-1, ::-1])
    box *= 0.5
    scale = sum(float(np.abs(b).max()) for b in m.blocks.values())
    assert np.abs(got.coeffs - box[:, K:]).max() <= 4.0 * np.finfo(float).eps * scale


def test_to_dense_of_a_field_that_is_not_real_raises():
    # one complex block at carrier (1, 0) has no mirror at (-1, 0), so the
    # k2 = 0 column of its half is not Hermitian, as in a bad transform read
    rng = np.random.default_rng(5)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    with pytest.raises(ValueError, match="Hermitian symmetry violated"):
        ModulatedField({(1, 0): b}).to_dense()
    # with its mirror conjugate at (-1, 0) the field is real
    real = ModulatedField({(1, 0): b, (-1, 0): np.conj(b[::-1, ::-1])}).to_dense()
    assert real.band == 2
    assert real.coeff(2, 1) == b[2, 2]


def test_riesz_commutator_collinear_vanishes():
    phi = TorusField.from_modes(1, {(1, 0): 0.5})
    theta = TorusField.from_modes(2, {(2, 0): 0.5}, mean_zero=True)
    com = riesz_commutator(phi, theta, 1)
    assert com.max_abs_coeff() < 1e-15
    # theta^2 carries a mean, which R_1 drops: the symbol is 0 at k = 0
    assert riesz_commutator(theta, theta, 1).max_abs_coeff() < 1e-15
    with pytest.raises(ValueError, match="Riesz index must be 1 or 2, got 3"):
        riesz_commutator(phi, theta, 3)


def test_riesz_pairing_identity():
    # <theta R_j theta, phi> = -(1/2) <theta, [R_j, phi] theta>
    rng = np.random.default_rng(59)
    for _ in range(5):
        theta = random_field(5, rng)
        phi = random_field(4, rng, mean_zero=False)
        scale = max(inner(theta, theta) * max(1.0, abs(phi.coeff(0, 0).real)), 1e-30)
        for j in (1, 2):
            lhs = inner(multiply(theta, riesz(theta, j)), phi)
            rhs = -0.5 * inner(theta, riesz_commutator(phi, theta, j))
            assert abs(lhs - rhs) < 1e-11 * scale
