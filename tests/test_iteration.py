"""Iteration layer: frequency ladder, amplitudes, channels, step.

The workhorse configuration is lambda0=2, b=5 (lambda1=32, mu=8): small
enough to run in milliseconds, large enough that band(q0) <= 2 mu keeps
every projection identity exact.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sqgci import iteration
from sqgci.errors import GridBudgetExceeded, NonZeroMean, NotPositive, SeparationViolated
from sqgci.fields import TorusField, VectorField, multiply, random_field, to_grid
from sqgci.iteration import (
    IterationParams,
    _scaled_perp,
    assemble_nonosc,
    assemble_osc,
    build_f_next,
    check_support,
    lambda_at,
    make_base,
    nonlinear_flux,
    params_hash,
    perfect_amplitude,
    q_d,
    q_m1,
    q_m2,
    q_m3,
    q_t,
    scales_for,
    step,
)
from sqgci.multipliers import (
    DIRECTIONS,
    L1,
    L2,
    ModulatedField,
    directional_grad,
    grad_perp,
    inv_div,
    lambda_s,
    lowpass,
    riesz_odd,
    t_ops,
)
from sqgci.norms import linf

from test_acceptance import assemble_main
from test_fields import _traced_peak

WORKHORSE = IterationParams(lambda0=2, b=5.0, beta=0.25, nu=0.0, gamma=1.0)


def _seeded_state():
    return make_base(WORKHORSE, seed=0, kind="synthetic"), scales_for(WORKHORSE, 0)


# ladders pinned from a 50-digit evaluation
LADDERS = [
    (4, 1.35, [4, 7, 13, 31, 100, 501, 4412, 83201, 4387013]),
    (2, math.log2(96.0), [2, 96, 11302687904889]),
    (2, math.log2(192.0), [2, 192, 208331143462919589]),
    (2, 5.0, [2, 32, 33554432, 2 ** 125]),
    (3, 2.0, [3, 9, 81, 6561, 43046721]),
]


def test_lambda_ladder_snaps_to_integers():
    # 2^6.585 = 96.0000000...4 must ceil to 97, log2(96) must give 96
    assert lambda_at(2, 6.585, 1) == 97
    for lambda0, b, ladder in LADDERS:
        assert [lambda_at(lambda0, b, n) for n in range(len(ladder))] == ladder, (lambda0, b)


def test_lambda_beyond_the_float_range_names_its_index():
    # 2^(2^22) is beyond decimal's exponent range, 2^(2^10) = 2^1024 only
    # beyond the float range every scale of the ladder lives in
    for n in (22, 10):
        with pytest.raises(OverflowError, match=f"lambda_{n} "):
            lambda_at(2, 2.0, n)
    assert math.isfinite(float(lambda_at(2, 2.0, 9)))


def test_scales_arithmetic():
    p = IterationParams(lambda0=2, b=math.log2(96.0), beta=0.25, nu=0.0,
                        gamma=1.0)
    sc = scales_for(p, 0)
    assert sc.lambda_n == 2 and sc.lambda_next == 96
    assert abs(sc.r_n - 2.0 ** -0.25) < 1e-15
    assert abs(sc.r_next - 96.0 ** -0.25) < 1e-15
    assert abs(sc.mu_next - math.sqrt(2.0 * 96.0)) < 1e-12
    assert abs(p.alpha - (0.5 + 0.25 / (2.0 * p.b) - 0.01)) < 1e-15
    assert sc.lam5 == 480 and sc.amp_band == 56  # ceil(4 sqrt(192)), 4 sqrt(192) = 55.4...


def test_validate_collects_every_problem():
    bad = IterationParams(lambda0=1, b=0.5, beta=0.9, nu=-1.0, gamma=2.0,
                          c0=1.0, eps0=0.5, steps=-1, oversample=1,
                          separation="maybe")
    problems = bad.validate()
    assert len(problems) >= 8
    assert WORKHORSE.validate() == []


def test_validate_eps0_window():
    p = IterationParams(lambda0=2, b=2.0, beta=0.2, nu=0.0, gamma=1.0,
                        eps0=0.06)  # beta/(2b) = 0.05
    assert any("eps0" in s for s in p.validate())
    assert "eps0 must be > 0, got 0.0" in dataclasses.replace(p, eps0=0.0).validate()


def test_perfect_amplitude_constant_for_zero_stress():
    a, tail = perfect_amplitude(TorusField.zero(), 0.5, 32, 2.0, 1, kout=16)
    want = 2.0 * math.sqrt(0.5 / (5.0 * 32.0)) * math.sqrt(2.0)
    assert abs(a.coeff(0, 0) - want) < 1e-14
    assert a.band == 16 and a.trim().band == 0
    assert tail == 0.0


def test_perfect_amplitude_squares_back():
    st, sc = _seeded_state()
    from sqgci.multipliers import riesz_odd
    for j in (1, 2):
        a, _ = perfect_amplitude(st.q, sc.r_n, sc.lambda_next, 2.0, j, kout=64)
        sq = multiply(a, a) * (5.0 * sc.lambda_next / 4.0)
        want = TorusField.constant(2.0 * sc.r_n) + riesz_odd(st.q, j)
        assert linf(sq - want) < 1e-9 * max(1.0, linf(want))


def test_matching_identity_and_lambda_independence():
    st, sc = _seeded_state()
    for lam1 in (sc.lambda_next, 2 * sc.lambda_next):
        a1, _ = perfect_amplitude(st.q, sc.r_n, lam1, 2.0, 1, kout=64)
        a2, _ = perfect_amplitude(st.q, sc.r_n, lam1, 2.0, 2, kout=64)
        m = inv_div(assemble_main(a1, a2, 5 * lam1))
        assert linf(m + st.q) / linf(st.q) < 1e-10


def test_qm1_defining_identity():
    st, sc = _seeded_state()
    ap1, _ = perfect_amplitude(st.q, sc.r_n, sc.lambda_next, 2.0, 1, kout=64)
    ap2, _ = perfect_amplitude(st.q, sc.r_n, sc.lambda_next, 2.0, 2, kout=64)
    qm1 = q_m1(ap1, ap2, sc)
    trunc = inv_div(assemble_main(lowpass(ap1, sc.mu_next),
                                  lowpass(ap2, sc.mu_next),
                                  5 * sc.lambda_next))
    assert linf(trunc + st.q - qm1) / linf(st.q) < 1e-10


def test_qm1_zero_when_stress_zero():
    sc = scales_for(WORKHORSE, 0)
    ap = TorusField.constant(0.3)
    qm1 = q_m1(ap, ap, sc)
    assert qm1.max_abs_coeff() == 0.0


def test_decomposition_closure_generic_amplitudes():
    # invdiv of the quadratic flux must equal invdiv(main+nonosc+osc)
    # for any band-limited pair, not only perfect amplitudes
    rng = np.random.default_rng(9)
    lam5 = 40
    a1 = random_field(4, rng)
    a2 = random_field(4, rng)
    f = (_wave(a1, L1.wave(lam5), "cos")
         + _wave(a2, L2.wave(lam5), "cos"))
    lhs = inv_div(nonlinear_flux(f, f))
    rhs = inv_div(assemble_main(a1, a2, lam5)
                  + assemble_nonosc(a1, a2, lam5)
                  + _dense(assemble_osc(a1, a2, lam5)))
    scale = max(linf(lhs), 1e-30)
    assert linf(lhs - rhs) / scale < 1e-10


def _dense(v):
    """A factored vector field on dense boxes, component by component."""
    return VectorField(v.comp1.to_dense(), v.comp2.to_dense())


def _wave(g, p, trig):
    """g(x) trig(p.x) on dense boxes: one wave, densified."""
    w = ModulatedField.wave(g, p, trig)
    return _dense(w) if isinstance(w, VectorField) else w.to_dense()


def _dense_mod2(g, pa, pb, ta, tb):
    """g(x) trig_a(pa.x) trig_b(pb.x) on dense boxes (oracle); a
    difference is a sum with the negated term, the same floats."""
    ps = (pa[0] + pb[0], pa[1] + pb[1])
    pd = (pa[0] - pb[0], pa[1] - pb[1])
    if (ta, tb) == ("sin", "sin"):
        return 0.5 * (_wave(g, pd, "cos") + -1.0 * _wave(g, ps, "cos"))
    if (ta, tb) == ("sin", "cos"):
        return 0.5 * (_wave(g, ps, "sin") + _wave(g, pd, "sin"))
    if (ta, tb) == ("cos", "sin"):
        return 0.5 * (_wave(g, ps, "sin") + -1.0 * _wave(g, pd, "sin"))
    return 0.5 * (_wave(g, ps, "cos") + _wave(g, pd, "cos"))


def _dense_assemble_osc(a1, a2, lam5):
    """The oscillatory families summed term by term on dense boxes: the
    assembly `assemble_osc` keeps factored by carrier (oracle)."""
    amps = (a1, a2)
    waves = tuple(l.wave(lam5) for l in DIRECTIONS)
    ts = [t_ops(a, lam5, l) for a, l in zip(amps, DIRECTIONS)]
    s = [directional_grad(a, l) + t[1] for a, l, t in zip(amps, DIRECTIONS, ts)]
    c = [t[0] for t in ts]
    out = VectorField(TorusField.zero(), TorusField.zero())
    for i, l in enumerate(DIRECTIONS):
        a = amps[i]
        p2 = (2 * waves[i][0], 2 * waves[i][1])
        gp = grad_perp(a)
        out = out + _scaled_perp(_wave(multiply(s[i], a), p2, "cos"), l, 0.5 * lam5)
        out = out + VectorField(_wave(multiply(s[i], gp.comp1), p2, "sin") * 0.5,
                                _wave(multiply(s[i], gp.comp2), p2, "sin") * 0.5)
        out = out + _scaled_perp(_wave(multiply(c[i], a), p2, "sin"), l, -0.5 * lam5)
        out = out + VectorField(_wave(multiply(c[i], gp.comp1), p2, "cos") * 0.5,
                                _wave(multiply(c[i], gp.comp2), p2, "cos") * 0.5)
    for i, ip in ((0, 1), (1, 0)):
        lq = DIRECTIONS[ip]
        pa, pb = waves[i], waves[ip]
        gpp = grad_perp(amps[ip])
        out = out + _scaled_perp(_dense_mod2(multiply(s[i], amps[ip]), pa, pb, "sin", "sin"),
                                 lq, -float(lam5))
        out = out + VectorField(_dense_mod2(multiply(s[i], gpp.comp1), pa, pb, "sin", "cos"),
                                _dense_mod2(multiply(s[i], gpp.comp2), pa, pb, "sin", "cos"))
        out = out + _scaled_perp(_dense_mod2(multiply(c[i], amps[ip]), pa, pb, "cos", "sin"),
                                 lq, -float(lam5))
        out = out + VectorField(_dense_mod2(multiply(c[i], gpp.comp1), pa, pb, "cos", "cos"),
                                _dense_mod2(multiply(c[i], gpp.comp2), pa, pb, "cos", "cos"))
    return out


_TRIGS = st.sampled_from(["cos", "sin"])
_CARRIERS = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


@settings(max_examples=100, deadline=None)
@given(band=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1), pair=st.booleans(),
       pa=_CARRIERS, pb=_CARRIERS, ta=_TRIGS, tb=_TRIGS)
@example(band=2, seed=0, pair=False, pa=(7, 0), pb=(0, 7), ta="sin", tb="sin")
@example(band=2, seed=1, pair=True, pa=(3, 4), pb=(3, 4), ta="cos", tb="sin")
@example(band=1, seed=2, pair=False, pa=(0, 0), pb=(5, 0), ta="sin", tb="cos")
@example(band=3, seed=3, pair=True, pa=(2, 1), pb=(1, -2), ta="sin", tb="sin")
def test_nested_waves_match_the_product_to_sum_oracle(band, seed, pair, pa, pb, ta, tb):
    # g trig_a(pa.x) trig_b(pb.x) as two nested waves, blocks at +-pa +-pb,
    # against the sum of two dense single waves at pa + pb and pa - pb.
    # Carriers that lie apart give the same floats; blocks that share a
    # mode (coincident or zero carriers included) are added, and a box
    # where they meet is symmetrised, in another order: a few roundings
    # of terms no larger than max|g^|
    rng = np.random.default_rng(seed)
    g = random_field(band, rng, mean_zero=False)
    if pair:
        g = VectorField(g, random_field(band, rng, mean_zero=False) * 3.0)
    got = _wave(ModulatedField.wave(g, pa, ta), pb, tb)
    want = _dense_mod2(g, pa, pb, ta, tb)
    carriers = [(sa * pa[0] + sb * pb[0], sa * pa[1] + sb * pb[1])
                for sa in (1, -1) for sb in (1, -1)]
    apart = all(max(abs(p[0] - r[0]), abs(p[1] - r[1])) > 2 * band
                for i, p in enumerate(carriers) for r in carriers[:i])
    pairs = ([(got.comp1, want.comp1, g.comp1), (got.comp2, want.comp2, g.comp2)]
             if pair else [(got, want, g)])
    for x, y, src in pairs:
        assert x.band == y.band
        if apart:
            assert np.array_equal(x.coeffs, y.coeffs)
        else:
            tol = 4 * np.finfo(np.float64).eps * src.max_abs_coeff()
            assert np.abs(x.coeffs - y.coeffs).max() <= tol


def _amplitudes(band1, band2, seed):
    rng = np.random.default_rng(seed)
    return (random_field(band1, rng, mean_zero=False),
            random_field(band2, rng, mean_zero=False))


def _blocks_separated(a1, a2, lam5):
    """True when no two carrier blocks of the oscillatory channel share a
    mode and none covers k = 0."""
    spans = [(p, b.shape[-1] // 2)
             for p, b in assemble_osc(a1, a2, lam5).comp1.blocks.items()]
    spans.append(((0, 0), 0))
    return all(max(abs(p[0] - r[0]), abs(p[1] - r[1])) > K + J
               for i, (p, K) in enumerate(spans) for r, J in spans[:i])


@settings(max_examples=25, deadline=None)
@given(band1=st.integers(0, 6), band2=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1),
       lam=st.integers(7, 12))
def test_factored_qm3_equals_dense_oracle_when_carriers_separate(band1, band2, seed, lam):
    a1, a2 = _amplitudes(band1, band2, seed)
    lam5 = 5 * lam
    assert _blocks_separated(a1, a2, lam5)
    got = q_m3(a1, a2, lam5)
    want = inv_div(_dense_assemble_osc(a1, a2, lam5))
    assert got.band == want.band
    assert got.mean_zero and want.mean_zero
    assert np.array_equal(got.coeffs, want.coeffs)


@settings(max_examples=40, deadline=None)
@given(band1=st.integers(1, 6), band2=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       lam=st.integers(2, 6))
@example(band1=6, band2=6, seed=662, lam=2)  # three blocks meet: symmetrised
def test_factored_qm3_matches_dense_oracle_when_blocks_overlap(band1, band2, seed, lam):
    a1, a2 = _amplitudes(band1, band2, seed)
    lam5 = 5 * lam
    assume(not _blocks_separated(a1, a2, lam5))
    try:
        want = inv_div(_dense_assemble_osc(a1, a2, lam5))
    except NonZeroMean:  # a block covers k = 0 and leaves a mean there
        with pytest.raises(NonZeroMean):
            q_m3(a1, a2, lam5)
        return
    got = q_m3(a1, a2, lam5)
    assert got.band == want.band
    assert got.mean_zero and got.coeff(0, 0) == 0.0
    c = got.coeffs
    assert np.array_equal(c[:, 0], np.conj(c[::-1, 0]))
    scale = max(np.abs(want.coeffs).max(), 1e-300)
    assert np.abs(c - want.coeffs).max() <= 1e-13 * scale


@settings(max_examples=40, deadline=None)
@given(band=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       p=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
       trig=st.sampled_from(["cos", "sin"]))
def test_factored_inv_div_rejects_a_mean_at_the_origin(band, seed, p, trig):
    # plant the mode p: the blocks at p and -p then meet at k = 0 with
    # mean Re c(p) = 1 (cos) or -Im c(p) = -1 (sin)
    rng = np.random.default_rng(seed)
    p = (max(-band, min(band, p[0])), max(-band, min(band, p[1])))
    if p == (0, 0) and trig == "sin":
        p = (band, 0)
    amp = 1.0 if trig == "cos" else 1.0j
    planted = TorusField.from_modes(band, {p: amp}) if p != (0, 0) else TorusField.constant(2.0)
    a = random_field(band, rng, mean_zero=True) * 1e-3 + planted
    v = VectorField(a, a * 0.5)
    f = ModulatedField.wave(v, p, trig)
    with pytest.raises(NonZeroMean):
        inv_div(f)
    with pytest.raises(NonZeroMean):
        inv_div(_dense(f))
    # the same amplitude on a far carrier has no mean to reject
    far = inv_div(ModulatedField.wave(v, (3 * band + 1, 0), trig)).to_dense()
    assert far.mean_zero and far.coeff(0, 0) == 0.0


def test_channel_zero_cases():
    st, sc = _seeded_state()
    pert = build_f_next(st.q, sc)
    f1 = pert.f_next
    assert q_d(f1, 0.0, 1.0).max_abs_coeff() == 0.0
    assert q_t(f1, TorusField.zero())[0].max_abs_coeff() == 0.0
    # gamma = 1 makes the dissipation channel -nu f1 exactly
    qd = q_d(f1, 1.0, 1.0)
    np.testing.assert_allclose(qd.coeffs, -f1.coeffs, atol=1e-15)


def test_channels_are_mean_zero():
    st, sc = _seeded_state()
    pert = build_f_next(st.q, sc)
    qm1 = q_m1(pert.a_perfect[0], pert.a_perfect[1], sc)
    from sqgci.iteration import q_m2
    a1, a2 = pert.a
    lam5 = 5 * sc.lambda_next
    for ch in (qm1, q_m2(a1, a2, lam5), q_m3(a1, a2, lam5),
               q_t(pert.f_next, st.f_leq)[0], q_d(pert.f_next, 1.0, 1.5)):
        assert ch.coeff(0, 0) == 0.0


def test_f_next_annulus_support():
    st, sc = _seeded_state()
    pert = build_f_next(st.q, sc)
    f1 = pert.f_next
    assert f1.mean_zero and f1.coeff(0, 0) == 0.0
    lam5 = 5 * sc.lambda_next
    hi = lam5 + sc.mu_next
    lo = lam5 - sc.mu_next
    assert check_support(f1, hi) == 0.0
    # nothing below the inner radius either
    K = f1.band
    for k1 in range(-K, K + 1):
        for k2 in range(-K, K + 1):
            if k1 * k1 + k2 * k2 < lo * lo:
                assert f1.coeff(k1, k2) == 0.0


def test_step_full_bookkeeping(monkeypatch):
    st, sc = _seeded_state()
    new, row = step(st, WORKHORSE, grid_cap=1024)
    assert new.n == 1
    assert row["lambda_next"] == 32
    assert row["master_residual"] < 1e-10
    assert row["decomp_residual"] < 1e-10
    assert row["alias_tail"] < 1e-12
    assert row["separation_ok"] is False  # 48*2 > 32
    assert row["ratio_q_over_r"] == row["xnorm"]["q_next"] / row["r_next"]
    assert list(row) == ["n", "lambda_n", "lambda_next", "r_n", "r_next",
                         "mu_next", "alpha", "xnorm", "ratio_q_over_r",
                         "master_residual", "decomp_residual",
                         "holder_besov_f", "partial_sum_reg",
                         "separation_ok", "alias_tail"]
    assert list(row["xnorm"]) == ["qM1", "qM2", "qM3", "qT", "qD", "q_next"]
    assert check_support(new.f_leq, 6.0 * 32) == 0.0
    assert check_support(new.q, 12.0 * 32) == 0.0
    monkeypatch.setattr(iteration, "check_support", lambda f, radius: f.max_abs_coeff())
    with pytest.raises(ArithmeticError, match=r"^f support leak .* beyond \|k\| <= 192 "):
        step(st, WORKHORSE, grid_cap=1024)


@pytest.mark.parametrize("nu", [0.0, 1.0])
def test_step_leaves_its_input_alone_and_returns_frozen_fields(nu):
    params = dataclasses.replace(WORKHORSE, nu=nu)
    st = make_base(params, seed=0, kind="synthetic")
    before = [st.q.coeffs.tobytes(), st.f_leq.coeffs.tobytes()]
    new, _ = step(st, params, grid_cap=1024)
    assert [st.q.coeffs.tobytes(), st.f_leq.coeffs.tobytes()] == before
    for fld in (new.q, new.f_leq, st.q, st.f_leq):
        assert not fld.coeffs.flags.writeable


def test_step_checks_only_outside_data(monkeypatch):
    # every field a step computes is frozen unchecked; the checked
    # constructor runs only on the radicand constants c0 of the two
    # amplitudes
    st, _ = _seeded_state()
    checked = []
    init = TorusField.__init__

    def counting(self, coeffs, mean_zero=False):
        checked.append(np.shape(coeffs))
        init(self, coeffs, mean_zero)

    monkeypatch.setattr(TorusField, "__init__", counting)
    step(st, WORKHORSE, grid_cap=1024)
    assert checked == [(1, 1), (1, 1)]


def _box_chain(first, *terms):
    """first, then each (sign, term) added (+1) or subtracted (-1), on
    whole boxes (a term is a field or a box), with the bits of
    TorusField's + and -: the smaller box goes into the window of the
    larger, and a larger subtrahend is negated first."""
    acc = first.box() if isinstance(first, TorusField) else first.copy()
    for sign, t in terms:
        b = t.box() if isinstance(t, TorusField) else t
        if b.shape[0] > acc.shape[0]:
            acc, b, sign = (b.copy() if sign > 0 else -b), acc, 1
        w = (acc.shape[0] - b.shape[0]) // 2
        win = acc[w:acc.shape[0] - w, w:acc.shape[0] - w]
        if sign > 0:
            win += b
        else:
            win -= b
    return acc


def _box_inv_div(c1, c2):
    """inv_div of two whole boxes of one band: i k.v / (-|k|^2), 0 at k = 0."""
    K = c1.shape[0] // 2
    k = np.arange(-K, K + 1, dtype=np.float64)
    k1, k2 = k[:, None], k[None, :]
    num = k1 * c1
    num += k2 * c2
    num *= 1j
    den = -(k1 * k1 + k2 * k2)
    den[K, K] = 1.0
    np.divide(num, den, out=num)
    num[K, K] = 0.0
    return num


def _box_field(c):
    """The field whose whole box is c, sampled by linf through its half."""
    return TorusField._exact(c[:, c.shape[0] // 2:].copy())


def _full_box_residuals(state, params, grid_cap):
    """The step's two residuals and q_next, with every flux, sum and
    inversion on whole boxes: the direct flux S + L + N formed in full,
    each flux inverted as a box, and every numerator sampled as a
    field."""
    sc = scales_for(params, state.n)
    lam5 = 5 * sc.lambda_next
    pert = build_f_next(state.q, sc, params.c0, params.oversample, grid_cap=grid_cap)
    f1 = pert.f_next
    self_flux = nonlinear_flux(f1, f1)
    qt, nl, ln = q_t(f1, state.f_leq)
    flux = [_box_chain(s, (1, l), (1, n)) for s, l, n in
            zip((self_flux.comp1, self_flux.comp2), (ln.comp1, ln.comp2), (nl.comp1, nl.comp2))]
    direct_all = _box_inv_div(*flux)
    direct_new = _box_inv_div(self_flux.comp1.box(), self_flux.comp2.box())
    qd = q_d(f1, params.nu, params.gamma)
    qm = _box_chain(q_m1(pert.a_perfect[0], pert.a_perfect[1], sc),
                    (1, q_m2(*pert.a, lam5)), (1, q_m3(*pert.a, lam5)))
    q_next = _box_field(_box_chain(qm, (1, qt), (1, qd)))
    os = params.oversample
    denom = max(linf(state.q, os, grid_cap), linf(q_next, os, grid_cap))
    if denom == 0.0:
        gp = grad_perp(f1)
        denom = linf(lambda_s(f1, 1.0), os, grid_cap) * max(
            linf(gp.comp1, os, grid_cap), linf(gp.comp2, os, grid_cap))
    master = _box_chain(direct_all, (1, state.q), (-1, q_next), (1, qd))
    decomp = _box_chain(direct_new, (1, state.q))
    decomp = _box_chain(np.negative(decomp, out=decomp), (1, qm))
    return (linf(_box_field(master), os, grid_cap) / denom,
            linf(_box_field(decomp), os, grid_cap) / denom, q_next)


def _wide_f_leq(band):
    """The seeded state with f_leq replaced by a small band-`band` field,
    so the window of L and N reaches the self flux's band (168 here) or
    beyond it."""
    st, _ = _seeded_state()
    f = random_field(band, np.random.default_rng(band), mean_zero=True) * 1e-3
    return dataclasses.replace(st, f_leq=f)


@pytest.mark.parametrize("nu", [0.0, 1.0])
@pytest.mark.parametrize("base", ["synthetic", "zero", "wide168", "wide180"])
def test_half_box_residuals_equal_the_full_box_oracle(nu, base):
    # the zero base at nu = 0 takes the flux-scale denominator
    params = dataclasses.replace(WORKHORSE, nu=nu)
    if base.startswith("wide"):
        st = _wide_f_leq(int(base[4:]))
    else:
        st = make_base(params, seed=0, kind=base)
    new, row = step(st, params, grid_cap=1024)
    master, decomp, q_next = _full_box_residuals(st, params, 1024)
    assert row["master_residual"] == master
    assert row["decomp_residual"] == decomp
    assert new.q.coeffs.tobytes() == q_next.coeffs.tobytes()
    if base == "zero" and nu == 0.0:
        assert linf(q_next) == 0.0


def test_the_direct_flux_keeps_its_mean_check(monkeypatch):
    # N = Lambda(f_next) grad_perp(f_leq) carries a mean that S does not
    real = iteration.q_t

    def with_a_mean(f_next, f_leq):
        qt, nl, ln = real(f_next, f_leq)
        c = nl.comp1.box()
        K = nl.comp1.band
        c[K, K] = 1e-3 * np.abs(c).max()
        return qt, VectorField(TorusField(c), nl.comp2), ln

    monkeypatch.setattr(iteration, "q_t", with_a_mean)
    st, _ = _seeded_state()
    with pytest.raises(NonZeroMean, match=r"^inv_div component 1: mean coefficient 5\.054e-04 "):
        step(st, WORKHORSE, grid_cap=1024)


@pytest.mark.parametrize("nu", [0.0, 1.0])
def test_step_peak_memory_in_band_2b_boxes(nu):
    # tracemalloc counts numpy's buffers, not the heap's fragmentation, so
    # the peak is the same on every run; the self flux and the checks'
    # sums are band 2 * band_f1 = 336 here. Summing the direct flux and
    # both numerators on whole boxes peaked at 7.62 boxes
    params = dataclasses.replace(WORKHORSE, nu=nu)
    st = make_base(params, seed=0, kind="synthetic")
    box = 16 * (4 * 168 + 1) ** 2
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        step(st, params, grid_cap=1024)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * box, peak / box


@pytest.mark.parametrize("nu", [0.0, 1.0])
def test_step_peak_memory_without_sample_grids(nu):
    # the monitors reduce their samples block by block and build no m_j
    # image, and a product's grids go once spent: the step peaks inside
    # the self flux's product, at 2.51 boxes (nu = 0) and 2.56 (nu = 1).
    # With a whole sample grid per norm it peaked at 3.41 and 3.65 boxes
    params = dataclasses.replace(WORKHORSE, nu=nu)
    st = make_base(params, seed=0, kind="synthetic")
    box = 16 * (4 * 168 + 1) ** 2
    peak = _traced_peak(lambda: step(st, params, grid_cap=1024))
    assert peak <= 2.75 * box, peak / box


def test_step_respects_strict_separation():
    p = IterationParams(lambda0=2, b=5.0, beta=0.25, nu=0.0, gamma=1.0,
                        separation="strict48")
    st = make_base(p, seed=0, kind="synthetic")
    with pytest.raises(SeparationViolated):
        step(st, p)


def test_step_grid_budget():
    st, _ = _seeded_state()
    with pytest.raises(GridBudgetExceeded):
        step(st, WORKHORSE, grid_cap=256)


def test_step_checks_the_sqrt_sampling_grid_before_any_stage(monkeypatch):
    # a band-100 q samples its amplitudes on an 810-point grid, over a cap
    # that the 674-point master-residual product grid fits
    st, _ = _seeded_state()
    st = dataclasses.replace(st, q=random_field(100, np.random.default_rng(0)))

    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran before the grid check")

    monkeypatch.setattr(iteration, "build_f_next", no_stage)
    with pytest.raises(GridBudgetExceeded, match="needs a 810-point axis, cap is 700"):
        step(st, WORKHORSE, grid_cap=700)


def test_step_checks_the_self_flux_grid_it_samples_before_any_stage(monkeypatch):
    # band_f1 = 168 asks for 4 * 168 + 2 = 674 points, and the product
    # samples on good_grid(674) = 675: a cap of 674 must refuse the step
    st, _ = _seeded_state()

    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran before the grid check")

    monkeypatch.setattr(iteration, "build_f_next", no_stage)
    with pytest.raises(GridBudgetExceeded, match="needs a 675-point axis for band 336, "
                                                 "cap is 674"):
        step(st, WORKHORSE, grid_cap=674)


def test_a_radicand_below_zero_names_its_step_and_direction():
    # the seeded q scaled until c0 + m_1 q / r_n dips below zero on the
    # sampling grid; then a q of the one mode (1, 1), where m_1 vanishes
    # and m_2 = 2, which leaves direction 1 positive and sinks direction 2
    st, sc = _seeded_state()
    low = float(to_grid(riesz_odd(st.q, 1), 64).min())
    q = st.q * (-4.0 * WORKHORSE.c0 * sc.r_n / low)
    with pytest.raises(NotPositive, match=r"^step 0, direction 1: grid minimum -"):
        step(dataclasses.replace(st, q=q), WORKHORSE)
    q = TorusField.from_modes(1, {(1, 1): -2.0 * WORKHORSE.c0 * sc.r_n}, mean_zero=True)
    with pytest.raises(NotPositive, match=r"^step 0, direction 2: grid minimum -"):
        step(dataclasses.replace(st, q=q), WORKHORSE)


def test_make_base_kinds():
    z = make_base(WORKHORSE, seed=0, kind="zero")
    assert z.f_leq.max_abs_coeff() == 0.0 and z.q.max_abs_coeff() == 0.0
    s = make_base(WORKHORSE, seed=0, kind="synthetic")
    sc = scales_for(WORKHORSE, 0)
    from sqgci.norms import x_norm
    assert 0.0 < x_norm(s.q) <= sc.r_n / 16.0
    assert s.f_leq.band <= 2 * WORKHORSE.lambda0
    with pytest.raises(ValueError):
        make_base(WORKHORSE, seed=0, kind="bogus")
    # a dissipation no halving of the base brings under r0/16
    with pytest.raises(ArithmeticError, match="could not scale the synthetic base"):
        make_base(dataclasses.replace(WORKHORSE, nu=1e300), seed=0, kind="synthetic")


def test_make_base_measures_at_the_configured_oversample(monkeypatch):
    calls, real = [], iteration.x_norm

    def spy(q, *args, **kwargs):
        calls.append((args, kwargs))
        return real(q, *args, **kwargs)

    monkeypatch.setattr(iteration, "x_norm", spy)
    make_base(dataclasses.replace(WORKHORSE, oversample=2), seed=0, kind="synthetic",
              grid_cap=512)
    assert calls and all(c == ((2, 512), {}) for c in calls)


def test_params_hash_sensitivity():
    h0 = params_hash(WORKHORSE, 0, "zero", 4096)
    assert h0 == params_hash(WORKHORSE, 0, "zero", 4096)
    assert h0 != params_hash(WORKHORSE, 1, "zero", 4096)
    assert h0 != params_hash(WORKHORSE, 0, "synthetic", 4096)
    assert h0 != params_hash(WORKHORSE, 0, "zero", 1024)  # linf's grids depend on it
    p2 = IterationParams(lambda0=2, b=5.0, beta=0.25, nu=0.0, gamma=1.0,
                         steps=7)
    assert h0 == params_hash(p2, 0, "zero", 4096)  # steps does not enter
    assert h0 == "b703505041cc093c"  # checkpoints on disk carry this digest


def test_params_hash_covers_every_field_but_steps():
    h0 = params_hash(WORKHORSE, 0, "zero", 4096)
    for f in dataclasses.fields(IterationParams):
        v = getattr(WORKHORSE, f.name)
        v += "x" if isinstance(v, str) else 1
        changed = dataclasses.replace(WORKHORSE, **{f.name: v})
        assert (params_hash(changed, 0, "zero", 4096) == h0) == (f.name == "steps"), f.name
