"""Cross-module verifiers: algebraic identity, weak-solution pairing,
feasibility arithmetic, statistical estimate monitors."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgci import fields, multipliers, verify
from sqgci.errors import NonZeroMean
from sqgci.fields import TorusField, inner, random_field
from sqgci.iteration import IterationParams, check_support, make_base, nonlinear_flux, step
from sqgci.multipliers import (
    DIRECTIONS,
    L1,
    L2,
    ModulatedField,
    directional_grad,
    inv_div,
    lambda_s,
    riesz_commutator,
    riesz_odd_symbol,
)
from sqgci.verify import (
    check_algebraic,
    commutator_ratio,
    feasibility,
    leibniz_residual,
    report,
    weak_residual,
)

from test_acceptance import log_bound_ratio, t_bound_ratios


def test_algebraic_identity_hand_values():
    # sum_j (l_j.k)(l_j_perp.k) m_j(k) = |k|^2; at (1,0) only the first
    # direction contributes, at (1,1) only the second
    k = (1.0, 0.0)
    t1 = (3.0 / 5.0) * (-4.0 / 5.0) * riesz_odd_symbol(1, *k)
    t2 = 1.0 * 0.0 * riesz_odd_symbol(2, *k)
    assert abs(t1 + t2 - 1.0) < 1e-15
    k = (1.0, 1.0)
    t1 = ((3.0 + 4.0) / 5.0) * ((-4.0 + 3.0) / 5.0) * riesz_odd_symbol(1, *k)
    t2 = 1.0 * 1.0 * riesz_odd_symbol(2, *k)
    assert abs(t1 + t2 - 2.0) < 1e-15


def test_check_algebraic_exhaustive():
    assert check_algebraic(1) < 1e-14
    assert check_algebraic(64) < 1e-10
    with pytest.raises(ValueError):
        check_algebraic(0)


def test_check_support_examples():
    one = TorusField.from_modes(1, {(1, 0): 0.5}, mean_zero=True)
    assert check_support(one, 2.0) == 0.0
    three = TorusField.from_modes(3, {(3, 0): 0.5}, mean_zero=True)
    assert check_support(three, 2.0) == 0.5
    assert check_support(three, 3.0) == 0.0


@settings(max_examples=40, deadline=None)
@given(band=st.integers(0, 40), eighths=st.integers(0, 8 * 60), seed=st.integers(0, 2 ** 32 - 1))
def test_check_support_equals_the_hypot_grid_oracle(band, eighths, seed):
    # dyadic radii, the step's integer ones among them, square exactly
    f = random_field(band, np.random.default_rng(seed), mean_zero=False)
    radius = eighths / 8.0
    k = np.arange(-band, band + 1, dtype=np.float64)
    outside = np.hypot(k[:, None], k[None, :]) > radius
    want = float(np.abs(f.box()[outside]).max()) if outside.any() else 0.0
    assert check_support(f, radius) == want


def test_weak_residual_plane_wave_flux_free():
    # a single modulated mode is a Lambda-eigenfunction: no flux at all
    wave = TorusField.from_modes(40, {(24, 32): 0.5}, mean_zero=True)
    theta = lambda_s(wave, 1.0)
    reps = weak_residual(theta, None, 0.0, 1.0, [(1, 0), (1, 1), (2, 1)])
    scale = 40.0 ** 2
    for r in reps:
        assert abs(r.nonlinear) < 1e-12 * scale
        assert r.dissipation == 0.0 and r.pressure == 0.0


def test_weak_residual_two_mode_frozen_example():
    # f = cos x1 + cos 2x2, theta = Lambda f, q = invdiv(Lambda f grad_perp f):
    # for psi = cos(x1 + 2x2) the pairing gives -(2pi)^2/2 + (2pi)^2/2 = 0
    f = TorusField.from_modes(2, {(1, 0): 0.5, (0, 2): 0.5}, mean_zero=True)
    theta = lambda_s(f, 1.0)
    q = inv_div(nonlinear_flux(f, f))
    assert abs(q.coeff(1, 2) - 0.1) < 1e-14
    assert abs(q.coeff(1, -2) + 0.1) < 1e-14
    rep_cos, rep_sin = weak_residual(theta, q, 0.0, 1.0, [(1, 2)])
    half = (2.0 * math.pi) ** 2 / 2.0
    assert abs(rep_cos.nonlinear + half) < 1e-12 * half
    assert abs(rep_cos.pressure - half) < 1e-12 * half
    assert abs(rep_cos.total) < 1e-12 * half
    assert abs(rep_sin.total) < 1e-12 * half


def test_weak_residual_dissipation_term():
    theta = TorusField.from_modes(1, {(1, 0): 0.5}, mean_zero=True)
    reps = weak_residual(theta, None, 1.0, 1.0, [(1, 0), (1, 1), (0, 0)])
    by_mode = {(r.test_mode, r.phase): r for r in reps}
    half = (2.0 * math.pi) ** 2 / 2.0
    # <Lambda^{-1/2} theta, Lambda^{3/2} psi> = <theta, Lambda psi>
    assert abs(by_mode[((1, 0), "cos")].dissipation - half) < 1e-12 * half
    assert abs(by_mode[((1, 1), "cos")].dissipation) < 1e-14
    assert by_mode[((0, 0), "sin")].total == 0.0


def test_weak_residual_cancels_after_a_step():
    # gate 6 at lambda1 = 32: the pairings of a stepped state against
    # band-8 test modes (q has band 384) cancel to rounding
    p = IterationParams(lambda0=2, b=5.0, beta=0.25, nu=0.0, gamma=1.0)
    state, row = step(make_base(p, seed=0, kind="synthetic"), p, grid_cap=1024)
    theta = lambda_s(state.f_leq, 1.0)
    modes = [(k1, k2) for k1 in range(0, 9) for k2 in range(-8, 9)
             if (k1 > 0 or k2 > 0) and k1 * k1 + k2 * k2 <= 64]
    reps = weak_residual(theta, state.q, p.nu, p.gamma, modes)
    assert state.q.band > 300
    assert max(abs(r.total) for r in reps) / row["r_next"] < 1e-8
    assert max(abs(r.pressure) for r in reps) < row["r_next"]


def rperp_grad_commutator(psi: TorusField, theta: TorusField) -> TorusField:
    """Oracle: [Rperp, grad psi] theta = [R_1, d2 psi] theta - [R_2, d1 psi] theta
    from exact FFT products."""
    d1 = directional_grad(psi, L2)
    d2 = directional_grad(psi, L2.perp)
    return riesz_commutator(d2, theta, 1) - riesz_commutator(d1, theta, 2)


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
    d1, d2 = directional_grad(psi, L2), directional_grad(psi, L2.perp)
    want = (riesz_commutator(d1, theta, 2) * -1.0
            + riesz_commutator(d2, theta, 1))
    got = rperp_grad_commutator(psi, theta)
    np.testing.assert_allclose(got.pad_to(7).coeffs, want.pad_to(7).coeffs,
                               atol=1e-14)


def _pairing_theta(kind, band, rng):
    """A mean-zero theta of the given band: disc-filled, a single mode, or
    a carrier field whose box is empty away from its two blocks."""
    if kind == "disc":
        return random_field(band, rng)
    if kind == "mode":
        k = (0, 0)
        while k == (0, 0):
            k = tuple(int(v) for v in rng.integers(-band, band + 1, size=2))
        amp = complex(rng.standard_normal(), rng.standard_normal())
        return TorusField.from_modes(band, {k: amp}, mean_zero=True)
    # blocks of band < |p|_inf miss k = 0, so theta is mean-zero exactly;
    # |p|_inf + band(amp) <= band
    reach = int(rng.integers(1, band + 1))
    p = [reach, int(rng.integers(-reach, reach + 1))]
    rng.shuffle(p)
    amp = random_field(int(rng.integers(0, min(reach - 1, band - reach) + 1)), rng,
                       mean_zero=False)
    return ModulatedField.wave(amp, p, ("cos", "sin")[int(rng.integers(2))]).to_dense()


# |nonlinear - oracle| <= PAIRING_RTOL (2 pi)^2 |theta^|^2 (1 + |k|); the
# worst seen over 2000 seeded draws like the ones below was 4.7e-17
PAIRING_RTOL = 1e-14


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["disc", "mode", "carrier"]), band=st.integers(1, 24),
       seed=st.integers(0, 2 ** 32 - 1), modes=st.integers(1, 4))
def test_weak_residual_nonlinear_equals_the_product_oracle(kind, band, seed, modes):
    rng = np.random.default_rng(seed)
    theta = _pairing_theta(kind, band, rng)
    ks = [tuple(int(v) for v in rng.integers(-band - 3, band + 4, size=2))
          for _ in range(modes)]
    half = lambda_s(theta, -0.5)
    scale = (2.0 * np.pi) ** 2 * float(np.sum(np.abs(theta.box()) ** 2))
    for rep in weak_residual(theta, None, 0.0, 1.0, ks):
        k = rep.test_mode
        if k == (0, 0):
            psi = TorusField.constant(1.0 if rep.phase == "cos" else 0.0)
        else:
            amp = 0.5 if rep.phase == "cos" else -0.5j
            psi = TorusField.from_modes(max(abs(k[0]), abs(k[1])), {k: amp})
        want = 0.5 * inner(half, lambda_s(rperp_grad_commutator(psi, theta), 0.5))
        tol = PAIRING_RTOL * scale * (1.0 + math.hypot(*k))
        assert abs(rep.nonlinear - want) <= tol, (rep, want)


def test_weak_residual_runs_without_transforms_or_products(monkeypatch):
    rng = np.random.default_rng(61)
    theta = random_field(40, rng)
    q = random_field(40, rng)
    modes = [(k1, k2) for k1 in range(0, 9) for k2 in range(-8, 9)]
    want = weak_residual(theta, q, 1.0, 0.5, modes)

    def boom(*args, **kwargs):
        raise AssertionError("weak_residual reached a transform, a product, "
                             "a dense test wave, a weight, a dense pairing "
                             "or a k-grid cache")

    for name in ("rfft2", "irfft", "ifft"):
        monkeypatch.setattr(scipy.fft, name, boom)
    monkeypatch.setattr(fields, "products", boom)
    monkeypatch.setattr(ModulatedField, "to_dense", boom)
    for name in ("_knorm", "_kgrids"):
        monkeypatch.setattr(multipliers, name, boom)
    for name in ("inner", "lambda_s"):
        for mod in (fields, multipliers, verify):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, boom)
    boxes = []
    box = TorusField.box
    monkeypatch.setattr(TorusField, "box", lambda f: boxes.append(f) or box(f))
    assert weak_residual(theta, q, 1.0, 0.5, modes) == want
    assert boxes == []  # theta's support is read off its half
    assert any(abs(r.nonlinear) > 0.0 for r in want)


def test_weak_residual_needs_a_mean_zero_theta():
    theta = random_field(4, np.random.default_rng(67), mean_zero=False)
    assert theta.coeff(0, 0) != 0
    with pytest.raises(NonZeroMean, match="^weak_residual theta"):
        weak_residual(theta, None, 0.0, 1.0, [(1, 0)])


def _box_symbol(n, p):
    """Oracle pieces on the whole n x n box: the slices src and dst of the
    kappa and kappa + p that both lie in it, w_p(kappa) (as in
    verify._carrier_pairing) on src, and |k| on the box; None when the
    shift by p leaves the box."""
    if max(abs(p[0]), abs(p[1])) >= n:
        return None
    k = np.arange(-(n // 2), n // 2 + 1, dtype=np.float64)[:, None]
    kn = np.hypot(k, k.T)
    with np.errstate(divide="ignore"):
        inv_kn = 1.0 / kn
    inv_kn[n // 2, n // 2] = 0.0
    src = tuple(slice(max(0, -s), n - max(0, s)) for s in p)
    dst = tuple(slice(max(0, s), n + min(0, s)) for s in p)
    w = p[1] * k[src[0]] - p[0] * k.T[:, src[1]]
    w *= inv_kn[dst] - inv_kn[src]
    return src, dst, w, kn


def _box_carrier_pairing(theta, p):
    """Oracle: the carrier sum of verify._carrier_pairing over theta's
    whole box, sum over kappa of w_p(kappa) conj(c(kappa)) c(kappa + p),
    and its scale, the same sum of |w_p| |c(kappa)| |c(kappa + p)|."""
    c = theta.box()
    sym = _box_symbol(c.shape[0], p)
    if sym is None:
        return 0j, 0.0
    src, dst, w, _ = sym
    scale = float(np.sum(np.abs(w) * np.abs(c[src]) * np.abs(c[dst])))
    return complex(np.vdot(c[src], w * c[dst])), scale


def _weighted_carrier_sum(theta, p):
    """Oracle: the nonlinear carrier sum with the Lambda^{-/+1/2} weights
    kept, sum over kappa of h(kappa + p) |kappa + p|^{1/2} w_p(kappa)
    conj(c(kappa)) with h = Lambda^{-1/2} theta, on whole boxes."""
    c, h = theta.box(), lambda_s(theta, -0.5).box()
    sym = _box_symbol(c.shape[0], p)
    if sym is None:
        return 0j
    src, dst, w, kn = sym
    w *= np.sqrt(kn)[dst]
    return complex(np.vdot(c[src], w * h[dst]))


def _gapped_theta(band, rng):
    """theta on two carrier pairs whose blocks leave empty rows and
    columns between them and about k = 0, in both halves of the box."""
    amp = random_field(1, rng, mean_zero=False)
    return (ModulatedField.wave(amp, (band - 1, 2), "cos")
            + ModulatedField.wave(amp, (2, 1 - band), "sin")).to_dense()


@pytest.mark.parametrize("kind", ["disc", "gapped", "carrier", "mode", "axis mode",
                                  "lower mode", "zero"])
@pytest.mark.parametrize("seed", range(2))
def test_support_pairing_equals_the_box_pairing(kind, seed):
    # every carrier that reaches theta's box, on it and shifted partly or
    # wholly off it, and |p|_inf >= 2K+1
    rng = np.random.default_rng(seed)
    band = 9 + seed
    if kind in ("disc", "carrier", "mode"):
        theta = _pairing_theta(kind, band, rng)
    elif kind == "gapped":
        theta = _gapped_theta(band, rng)
    elif kind == "zero":
        theta = TorusField.zero(band)
    elif kind == "axis mode":  # k1 < 0 on the k2 = 0 column
        theta = TorusField.from_modes(band, {(-3, 0): 1.0 - 2.0j}, mean_zero=True)
    else:  # one mode at k2 < 0
        theta = TorusField.from_modes(band, {(4, -5): 0.5 + 1.5j}, mean_zero=True)
    grid = verify._support_grid(theta)
    reach = 2 * theta.band + 3
    ps = [(p1, p2) for p1 in range(-reach, reach + 1) for p2 in range(-reach, reach + 1)
          if (p1, p2) != (0, 0)]
    for p in ps:
        want, scale = _box_carrier_pairing(theta, p)
        got = verify._carrier_pairing(*grid, p)
        assert abs(got - want) <= 1e-14 * scale, (p, got, want, scale)


@pytest.mark.parametrize("nu, gamma", [(0.0, 1.0), (1.0, 1.0), (1.0, 0.5), (0.0, 0.5)])
@pytest.mark.parametrize("kind", ["disc", "mode", "carrier"])
def test_weak_residual_equals_the_weighted_pairings(kind, nu, gamma):
    # the weighted forms the weights cancel out of: the nonlinear carrier
    # sum against Lambda^{-1/2} theta, nu <Lambda^{-1/2} theta,
    # Lambda^{gamma+1/2} psi> and <q, Lambda^2 psi> with psi dense; modes
    # with k2 < 0, beyond theta's band (partly and wholly outside its
    # box), beyond q's band, and k = 0
    band = 7
    rng = np.random.default_rng(71 + band)
    theta = _pairing_theta(kind, band, rng)
    q = random_field(5, rng, mean_zero=False)
    modes = [(0, 0), (1, 0), (2, -3), (-1, -4), (6, 5), (band + 2, -1),
             (3, -(band + 5)), (2 * band + 1, 0)]
    scale = (2.0 * np.pi) ** 2 * float(np.sum(np.abs(theta.box()) ** 2))
    half = lambda_s(theta, -0.5)
    for rep in weak_residual(theta, q, nu, gamma, modes):
        k = rep.test_mode
        wave = ModulatedField.wave(TorusField.constant(1.0), k, rep.phase)
        terms = [complex(a[0, 0]).conjugate() * _weighted_carrier_sum(theta, p)
                 for p, a in wave.blocks.items()]
        nl = -0.5 * (2.0 * np.pi) ** 2 * sum(terms).real
        psi = wave.to_dense()
        diss = nu * inner(half, lambda_s(psi, gamma + 0.5))
        pres = inner(q, lambda_s(psi, 2.0))
        assert abs(rep.nonlinear - nl) <= PAIRING_RTOL * scale * (1.0 + math.hypot(*k))
        assert abs(rep.dissipation - diss) <= 1e-14 * abs(diss)
        assert abs(rep.pressure - pres) <= 1e-14 * abs(pres)
        assert rep.total == rep.nonlinear + rep.dissipation + rep.pressure


def test_leibniz_residual_bound():
    rng = np.random.default_rng(7)
    for l, lam5 in ((L1, 40), (L2, 48)):
        a = random_field(5, rng)
        assert leibniz_residual(a, lam5, l) < 1e-13


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_leibniz_splitting_holds_for_every_band_below_lambda(data):
    # lam5 a multiple of d puts lam5 l on the lattice; gate 2's bound
    l = data.draw(st.sampled_from(DIRECTIONS), label="l")
    lam5 = l.d * data.draw(st.integers(1, 120 // l.d), label="lam5 / d")
    band = data.draw(st.integers(0, lam5 - 1), label="band")
    a = random_field(band, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))),
                     mean_zero=data.draw(st.booleans(), label="mean_zero"))
    assert leibniz_residual(a, lam5, l) < 1e-11


def test_feasibility_worked_examples():
    p = IterationParams(lambda0=2, b=1.001, beta=0.3, nu=1.0, gamma=1.0,
                        eps0=0.001)
    fz = feasibility(p)
    assert abs(fz.exponents["mismatch"] - (1.001 - 1.0) * (0.3 - 1.0)) < 1e-15
    assert abs(fz.exponents["mismatch"] + 0.0007) < 1e-12
    assert fz.verdicts["mismatch"] is True
    want_diss = 1.0 - 1.5 + 0.3 - 0.3 / (2.0 * 1.001)
    assert abs(fz.exponents["dissipation"] - want_diss) < 1e-15
    assert abs(fz.exponents["dissipation"] + 0.34985) < 1e-4
    assert fz.verdicts["dissipation"] is True
    assert abs(fz.exponents["regularity"] + p.eps0) < 1e-15
    assert all(fz.constraints.values())  # the four range checks all hold

    bad = feasibility(IterationParams(lambda0=2, b=1.2, beta=0.4, nu=1.0,
                                      gamma=1.4))
    assert bad.constraints["beta_range"] is False  # beta >= 3 - 2 gamma
    assert bad.all_pass is False


def test_feasibility_pure():
    p = IterationParams(lambda0=2, b=1.3, beta=0.25, nu=0.5, gamma=1.1)
    a, b = feasibility(p), feasibility(p)
    assert a == b
    assert a.all_pass is True


def test_commutator_single_mode_oracle():
    # collinear: R1 acts as i sign(k1) along the x1 line, so it commutes
    # with multiplication that stays on the line
    phi = TorusField.from_modes(1, {(1, 0): 0.5})
    theta = TorusField.from_modes(2, {(2, 0): 0.5}, mean_zero=True)
    assert riesz_commutator(phi, theta, 1).max_abs_coeff() < 1e-14

    # crossed: phi theta has modes (+-1, +-2) at 1/4; R1 theta = 0 since
    # k1 = 0, so the commutator is R1(phi theta) alone
    theta = TorusField.from_modes(2, {(0, 2): 0.5}, mean_zero=True)
    com = riesz_commutator(phi, theta, 1)
    want = 0.25j / math.sqrt(5.0)
    assert abs(com.coeff(1, 2) - want) < 1e-15
    assert abs(com.coeff(-1, 2) + want) < 1e-15


def test_commutator_ratio_finite():
    stats = commutator_ratio(1, 1, 2, seed=0)
    assert math.isfinite(stats["max"])
    with pytest.raises(ValueError, match="trials must be >= 1"):
        commutator_ratio(0, 1, 2)


def test_commutator_ratio_statistics_shape():
    stats = commutator_ratio(10, 4, 8, seed=1)
    assert stats["trials"] == 10
    assert 0.0 < stats["median"] <= stats["max"] < 1.0


def test_log_bound_ratio_bounded():
    r = log_bound_ratio(16, trials=10, seed=2)
    assert 0.0 < r < 2.0


def test_t_bound_ratios_bounded():
    r1, r2 = t_bound_ratios(128, 16, trials=10, seed=3)
    assert 0.0 < r1 < 2.0
    assert 0.0 < r2 < 2.0


def test_report_dict():
    rep = report("demo", {"kmax": 4}, 1e-12, 1e-10)
    assert rep["check"] == "demo"
    assert rep["params"] == {"kmax": 4}
    assert rep["maxDefect"] == 1e-12
    assert rep["tolerance"] == 1e-10
    assert rep["pass"] is True
    assert report("demo", {}, 1.0, 1e-10)["pass"] is False
