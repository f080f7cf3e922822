"""The iteration: amplitudes, perturbation, error channels, step.

Each step takes a state (f_leq, q) satisfying the relaxed relation

    Lambda(f_leq) grad_perp(f_leq) = nu Lambda^{gamma-1} grad(f_leq)
                                     + grad(q) + perp-gradient part

and adds a modulated two-direction perturbation

    f_next = sum_j lowpass(a_j_perfect, mu) cos(5 lambda_next l_j . x)

whose quadratic self-interaction cancels grad(q) to leading order. The
new stress splits into five channels (two projection mismatches, the
oscillatory remainder, the transport cross terms, and dissipation),
each band-limited and evaluated exactly; only the pointwise square root
inside the amplitudes leaves a spectral tail, which is logged.

All equalities modulo perp-gradients are checked after applying the
inverse divergence, where they become exact identities of scalar
fields.

Frequency ladder: lambda_n = ceil(lambda0^(b^n)) evaluated in extended
precision (values within 1e-9 relative of an integer snap to it before
the ceiling), r_n = lambda_n^(-beta), mu_next = sqrt(lambda_n *
lambda_next).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from decimal import ROUND_CEILING, Decimal, Overflow, localcontext

import numpy as np

from .errors import NotPositive, SeparationViolated
from .fields import (Sum, TorusField, VectorField, _half_vdot, _window, multiply,
                     product_grid, products, random_field, sqrt_grid, sqrt_pointwise)
from .multipliers import (
    DIRECTIONS,
    L1,
    L2,
    ModulatedField,
    _inv_div_block,
    _kgrids,
    directional_grad,
    grad_perp,
    inv_div,
    lambda_s,
    lowpass,
    require_mean_zero,
    riesz_odd,
    t_ops,
)
from .norms import holder_besov, linf, x_norm

SUPPORT_RTOL = 1e-13
_FLOAT_MAX = Decimal(sys.float_info.max)


@dataclass(frozen=True)
class IterationParams:
    lambda0: int
    b: float
    beta: float
    nu: float
    gamma: float
    c0: float = 2.0
    eps0: float = 0.01
    steps: int = 1
    oversample: int = 4
    separation: str = "warn"

    def validate(self) -> list:
        """Collect every violated constraint (empty list = valid)."""
        p = []
        if int(self.lambda0) != self.lambda0 or self.lambda0 < 2:
            p.append(f"lambda0 must be an integer >= 2, got {self.lambda0}")
        if not self.b > 1.0:
            p.append(f"b must be > 1, got {self.b}")
        if not 0.0 < self.gamma < 1.5:
            p.append(f"gamma must lie in (0, 3/2), got {self.gamma}")
        beta_cap = min(1.0 / 3.0, 3.0 - 2.0 * self.gamma)
        if not 0.0 < self.beta < beta_cap:
            p.append(f"beta must lie in (0, min(1/3, 3-2*gamma)) = (0, {beta_cap:g}), "
                     f"got {self.beta}")
        for name in ("b", "beta", "nu", "gamma", "c0", "eps0"):
            v = getattr(self, name)
            if not math.isfinite(v):
                p.append(f"{name} must be finite, got {v}")
        if self.nu < 0.0:
            p.append(f"nu must be >= 0, got {self.nu}")
        if self.c0 < 2.0:
            p.append(f"c0 must be >= 2, got {self.c0}")
        if self.eps0 <= 0.0:
            p.append(f"eps0 must be > 0, got {self.eps0}")
        elif self.b > 1.0 and not self.eps0 < self.beta / (2.0 * self.b):
            p.append(f"need alpha > 1/2, i.e. eps0 < beta/(2b) = "
                     f"{self.beta / (2.0 * self.b):g}, got eps0 = {self.eps0}")
        if self.steps < 0:
            p.append(f"steps must be >= 0, got {self.steps}")
        if self.oversample < 2:
            p.append(f"oversample must be >= 2, got {self.oversample}")
        if self.separation not in ("strict48", "warn"):
            p.append(f"separation must be strict48 or warn, got {self.separation!r}")
        if (int(self.lambda0) == self.lambda0 and self.lambda0 >= 2
                and math.isfinite(self.b) and self.b > 1.0):
            try:
                # mu_1 = sqrt(lambda0 lambda_1) is the largest float scale of step 0
                math.sqrt(self.lambda0 * lambda_at(self.lambda0, self.b, 1))
            except OverflowError:
                p.append(f"lambda_1 = ceil(lambda0^b) cannot be represented as a float "
                         f"for lambda0 = {self.lambda0}, b = {self.b}")
        return p

    @property
    def alpha(self) -> float:
        return 0.5 + self.beta / (2.0 * self.b) - self.eps0


def lambda_at(lambda0: int, b: float, n: int) -> int:
    """lambda_n = ceil(lambda0^(b^n)); 50-digit evaluation, values within
    1e-9 relative of an integer snap down before the ceiling. Every
    scale derived from lambda_n is a float, so a lambda_n beyond the
    float range raises OverflowError naming n."""
    if n == 0:
        return int(lambda0)
    with localcontext() as ctx:
        ctx.prec = 50
        try:
            x = Decimal(lambda0) ** (Decimal(b) ** n)
        except Overflow:
            x = None
        if x is None or x > _FLOAT_MAX:
            raise OverflowError(f"lambda_{n} = ceil({lambda0}^({b}^{n})) is beyond "
                                f"the float range")
        near = x.to_integral_value()
        if near >= 1 and abs(x - near) <= Decimal("1e-9") * x:
            return int(near)
        return int(x.to_integral_value(ROUND_CEILING))


@dataclass(frozen=True)
class DerivedScales:
    lambda_n: int
    lambda_next: int
    r_n: float
    r_next: float
    mu_next: float
    lam5: int       # the carrier frequency 5 lambda_next
    amp_band: int   # the amplitudes' band ceil(4 mu_next), what q_m1 needs


def scales_for(params: IterationParams, n: int) -> DerivedScales:
    lam_n = lambda_at(params.lambda0, params.b, n)
    lam_1 = lambda_at(params.lambda0, params.b, n + 1)
    mu = math.sqrt(lam_n * lam_1)
    return DerivedScales(
        lambda_n=lam_n,
        lambda_next=lam_1,
        r_n=lam_n ** (-params.beta),
        r_next=lam_1 ** (-params.beta),
        mu_next=mu,
        lam5=5 * lam_1,
        amp_band=math.ceil(4.0 * mu),
    )


@dataclass
class StepState:
    n: int
    f_leq: TorusField
    q: TorusField


def perfect_amplitude(q: TorusField, r_n: float, lambda_next: int, c0: float,
                      j: int, oversample: int = 4, kout=None, grid_cap=None):
    """Amplitude 2 sqrt(r_n/(5 lambda_next)) sqrt(c0 + m_j q / r_n) for
    direction j, truncated at kout (band of q by default). Returns the
    field and the sqrt's alias tail. NotPositive propagates when the
    radicand dips below zero, i.e. the induction bound ‖q‖_X <= r_n
    failed, and GridBudgetExceeded when its sampling grid exceeds
    grid_cap."""
    radicand = TorusField.constant(c0) + riesz_odd(q, j) * (1.0 / r_n)
    root, tail = sqrt_pointwise(radicand, oversample=oversample, kout=kout,
                                grid_cap=grid_cap)
    scale = 2.0 * math.sqrt(r_n / (5.0 * lambda_next))
    return root * scale, tail


@dataclass
class Perturbation:
    f_next: TorusField
    a: tuple            # truncated amplitudes, one per direction
    a_perfect: tuple    # pre-truncation amplitudes (band kout)
    alias_tail: float


def build_f_next(q: TorusField, scales: DerivedScales, c0: float = 2.0,
                 oversample: int = 4, grid_cap=None) -> Perturbation:
    """Perturbation at frequency 5*lambda_next along both directions.

    The amplitudes are computed out to band 4*mu_next (what q_m1 needs)
    and keep only frequencies below mu_next, so the result is supported
    in the annulus 5*lambda_next -/+ mu_next. A radicand that dips below
    zero raises NotPositive naming its direction j.
    """
    ap = []
    tails = []
    for j in (1, 2):
        try:
            amp, tail = perfect_amplitude(q, scales.r_n, scales.lambda_next, c0,
                                          j, oversample, scales.amp_band, grid_cap)
        except NotPositive as e:
            raise NotPositive(f"direction {j}: {e}") from None
        ap.append(amp)
        tails.append(tail)
    a = tuple(lowpass(amp, scales.mu_next) for amp in ap)
    # the four blocks sit 4 lambda_next apart with bands below mu_next,
    # so each lands on zeros, as separate dense waves would place it
    w1, w2 = (ModulatedField.wave(amp, l.wave(scales.lam5), "cos")
              for amp, l in zip(a, DIRECTIONS))
    return Perturbation(f_next=(w1 + w2).to_dense(), a=a, a_perfect=tuple(ap),
                        alias_tail=max(tails))


def _scaled_perp(f, l, scale: float) -> VectorField:
    """(scale f) l_perp for a TorusField or a ModulatedField f."""
    lp = l.perp
    return VectorField(f * (scale * lp.n1 / lp.d), f * (scale * lp.n2 / lp.d))


def _times(s: TorusField, v: VectorField) -> VectorField:
    return VectorField(*products(s, (v.comp1, v.comp2)))


def nonlinear_flux(f: TorusField, g: TorusField) -> VectorField:
    """Lambda(f) grad_perp(g), products exact."""
    return _times(lambda_s(f, 1.0), grad_perp(g))


def assemble_nonosc(a1: TorusField, a2: TorusField, lam5: int) -> VectorField:
    """-(lam5/2) sum_l (T2 a_l) a_l l_perp + (1/2) sum_l (T1 a_l) grad_perp(a_l)."""
    out = VectorField(TorusField.zero(), TorusField.zero())
    for a, l in ((a1, L1), (a2, L2)):
        t1a, t2a = t_ops(a, lam5, l)
        out = out + _scaled_perp(multiply(t2a, a), l, -0.5 * lam5)
        out = out + _times(t1a, grad_perp(a)) * 0.5
    return out


def assemble_osc(a1: TorusField, a2: TorusField, lam5: int) -> VectorField:
    """The six oscillatory families left after removing the mean
    (non-oscillatory) part of the quadratic self-interaction: a pair of
    ModulatedFields, factored by carrier (2 p_l and p_1 +/- p_2, with
    their negatives).

    With s_l = (l.grad)a_l + T2 a_l and c_l = T1 a_l, p_l = lam5*l:

        (1/2) sum_l s_l (lam5 a_l l_perp cos(2 p_l.x) + grad_perp(a_l) sin(2 p_l.x))
      - (1/2) sum_l c_l (lam5 a_l l_perp sin(2 p_l.x) - grad_perp(a_l) cos(2 p_l.x))
      - lam5 sum_{l != l'} s_l a_l' l'_perp sin(p_l.x) sin(p_l'.x)
      +      sum_{l != l'} s_l grad_perp(a_l') sin(p_l.x) cos(p_l'.x)
      - lam5 sum_{l != l'} c_l a_l' l'_perp cos(p_l.x) sin(p_l'.x)
      +      sum_{l != l'} c_l grad_perp(a_l') cos(p_l.x) cos(p_l'.x)
    """
    wave = ModulatedField.wave
    amps = (a1, a2)
    waves = tuple(l.wave(lam5) for l in DIRECTIONS)
    s = []
    c = []
    for a, l in zip(amps, DIRECTIONS):
        t1a, t2a = t_ops(a, lam5, l)
        s.append(directional_grad(a, l) + t2a)
        c.append(t1a)
    terms = []
    for i, l in enumerate(DIRECTIONS):
        a = amps[i]
        p2 = (2 * waves[i][0], 2 * waves[i][1])
        gp = grad_perp(a)
        terms += [_scaled_perp(wave(multiply(s[i], a), p2, "cos"), l, 0.5 * lam5),
                  wave(_times(s[i], gp), p2, "sin") * 0.5,
                  _scaled_perp(wave(multiply(c[i], a), p2, "sin"), l, -0.5 * lam5),
                  wave(_times(c[i], gp), p2, "cos") * 0.5]
    for i, ip in ((0, 1), (1, 0)):
        lq = DIRECTIONS[ip]
        pa, pb = waves[i], waves[ip]
        gpp = grad_perp(amps[ip])
        terms += [_scaled_perp(wave(wave(multiply(s[i], amps[ip]), pa, "sin"), pb, "sin"),
                               lq, -float(lam5)),
                  wave(wave(_times(s[i], gpp), pa, "sin"), pb, "cos"),
                  _scaled_perp(wave(wave(multiply(c[i], amps[ip]), pa, "cos"), pb, "sin"),
                               lq, -float(lam5)),
                  wave(wave(_times(c[i], gpp), pa, "cos"), pb, "cos")]
    return sum(terms[1:], terms[0])


def q_m1(a1p: TorusField, a2p: TorusField, scales: DerivedScales) -> TorusField:
    """Projection-mismatch stress from truncating the amplitudes at
    mu_next. Needs the pre-truncation amplitudes out to band 4*mu_next.

        -(5/4) lambda_next sum_j invdiv( l_j_perp (l_j.grad)
            lowpass( -2 a_j_p * hi_j + hi_j^2, 4 mu ) ),
        hi_j = a_j_p - lowpass(a_j_p, mu).

    The defining identity invdiv(main on truncated a) + q - q_m1 = 0
    holds exactly (sqrt tail aside) when band(q) <= 2*mu_next.
    """
    mu = scales.mu_next
    out = VectorField(TorusField.zero(), TorusField.zero())
    for ap, l in ((a1p, L1), (a2p, L2)):
        hi = ap - lowpass(ap, mu)
        g = multiply(ap, hi) * (-2.0) + multiply(hi, hi)
        g = lowpass(g, 4.0 * mu)
        out = out + _scaled_perp(directional_grad(g, l), l, 1.0)
    return inv_div(out * (-1.25 * scales.lambda_next))


def q_m2(a1: TorusField, a2: TorusField, lam5: int) -> TorusField:
    return inv_div(assemble_nonosc(a1, a2, lam5))


def q_m3(a1: TorusField, a2: TorusField, lam5: int) -> TorusField:
    """Oscillatory stress, inverted per carrier on the amplitude grids."""
    return inv_div(assemble_osc(a1, a2, lam5)).to_dense()


def q_t(f_next: TorusField, f_leq: TorusField):
    """Transport stress invdiv(nl + ln) from the cross fluxes
    nl = Lambda(f_next) grad_perp(f_leq) and ln = Lambda(f_leq)
    grad_perp(f_next). Returns (stress, nl, ln), so that `step` can
    reuse the fluxes in its master check."""
    nl = nonlinear_flux(f_next, f_leq)
    ln = nonlinear_flux(f_leq, f_next)
    return inv_div(nl + ln), nl, ln


def q_d(f_next: TorusField, nu: float, gamma: float) -> TorusField:
    """Dissipation stress -nu Lambda^(gamma-1) f_next."""
    if nu == 0.0:
        return TorusField.zero()
    return lambda_s(f_next, gamma - 1.0) * (-nu)


def make_base(params: IterationParams, seed: int = 0, kind: str = "zero",
              grid_cap: int = 4096) -> StepState:
    """Base state at n = 0.

    "zero" is the trivial pair. "synthetic" draws a seeded random f0 at
    band 2*lambda0 and pairs it with the exactly consistent stress
    q0 = invdiv(Lambda f0 grad_perp f0) - nu Lambda^(gamma-1) f0,
    rescaling f0 by halves until ‖q0‖_X <= r0/16 so the first step has
    a genuinely nonconstant amplitude problem to solve. Raises
    GridBudgetExceeded, before any draw, when the flux's product grid
    exceeds grid_cap; the X-norms sample under the same cap.
    """
    if kind == "zero":
        return StepState(n=0, f_leq=TorusField.zero(), q=TorusField.zero())
    if kind != "synthetic":
        raise ValueError(f"base kind must be zero or synthetic, got {kind!r}")
    band = 2 * int(params.lambda0)
    product_grid(2 * band, grid_cap, "synthetic base")  # Lambda f0 grad_perp f0
    rng = np.random.default_rng(seed)
    f0 = random_field(band, rng, mean_zero=True)
    f0 = f0 * (1.0 / max(f0.max_abs_coeff(), 1e-300))
    flux_part = inv_div(nonlinear_flux(f0, f0))
    diss_part = lambda_s(f0, params.gamma - 1.0)
    r0 = float(params.lambda0) ** (-params.beta)
    h = 1.0
    for _ in range(200):
        q0 = flux_part * (h * h) - diss_part * (params.nu * h)
        if x_norm(q0, params.oversample, grid_cap) <= r0 / 16.0:
            break
        h *= 0.5
    else:
        raise ArithmeticError("could not scale the synthetic base into budget")
    return StepState(n=0, f_leq=f0 * h, q=q0)


def check_support(f: TorusField, radius: float) -> float:
    """Largest coefficient magnitude beyond |k| > radius."""
    k = np.arange(-f.band, f.band + 1)
    # |k| > radius as k2^2 > radius^2 - k1^2 over the half: no |k| grid
    # is built
    outside = (k * k)[None, f.band:] > (radius * radius - k * k)[:, None]
    if not outside.any():
        return 0.0
    return float(np.abs(f.coeffs[outside]).max())


def _rel_linf(num: TorusField, denom: float, oversample: int, grid_cap) -> float:
    top = linf(num, oversample, grid_cap)
    if denom == 0.0:
        return 0.0 if top == 0.0 else math.inf
    return top / denom


def step(state: StepState, params: IterationParams, grid_cap: int = 4096):
    """One full iteration step. Returns (new state, ledger row dict).

    The row records the X-norm of every channel, two residuals,
    regularity monitors and the sqrt alias tail. Let S be the self flux
    of f_next, and L = Lambda(f_leq) grad_perp(f_next) and
    N = Lambda(f_next) grad_perp(f_leq) its cross fluxes with f_leq.
    The decomposition residual is qM1 + qM2 + qM3 - inv_div(S) - q, the
    channel sum against the directly evaluated quadratic flux. The
    master residual is inv_div(S + L + N) + q - q_next + qD: the
    decomposition numerator negated plus inv_div's linearity defect, so
    the two agree to rounding. Neither re-evaluates the relaxed relation
    on f_leq + f_next from scratch. S + L + N differs from S only in the
    window of L and N, so the direct flux is formed there alone. Like
    every field, each flux and numerator is held as the k2 >= 0 half of
    its box.
    """
    sc = scales_for(params, state.n)
    sep_ok = 48 * sc.lambda_n <= sc.lambda_next
    if not sep_ok and params.separation == "strict48":
        raise SeparationViolated(
            f"48*lambda_n = {48 * sc.lambda_n} > lambda_next = {sc.lambda_next}")

    # the self flux of f_next, of band lam5 + ceil(mu_next)
    product_grid(2 * (sc.lam5 + math.ceil(sc.mu_next)), grid_cap, f"step {state.n}")
    # the amplitudes sample each radicand c0 + m_j q / r_n, of q's band
    sqrt_grid(state.q.band, params.oversample, sc.amp_band, grid_cap)

    try:
        pert = build_f_next(state.q, sc, params.c0, params.oversample, grid_cap=grid_cap)
    except NotPositive as e:
        raise NotPositive(f"step {state.n}, {e}") from None
    f1 = pert.f_next
    a1, a2 = pert.a
    # The self flux S is the step's largest product. It is formed while
    # few fields are alive and released once it is inverted and the
    # window that L and N reach is copied. Each sum below is built in
    # one half (fields.Sum), with the bits of the chained operators;
    # x + 0.0 turns -0.0 into +0.0, so a zero term such as qd at nu = 0
    # is still added.
    self_flux = nonlinear_flux(f1, f1)
    S = (self_flux.comp1, self_flux.comp2)
    require_mean_zero(S[0], "inv_div component 1")
    require_mean_zero(S[1], "inv_div component 2")
    base = _inv_div_block(S[0].coeffs, S[1].coeffs, *_kgrids(S[0].band))  # inv_div(S)
    # L and N reach band(f_leq) + band(f_next); beyond, S + L + N is S
    w = min(f1.band + state.f_leq.band, S[0].band)
    window = [_window(s.coeffs, w).copy() for s in S]
    outside = [_half_vdot(s.coeffs, s.coeffs) - _half_vdot(c, c) for s, c in zip(S, window)]
    del self_flux, S

    qt, nl, ln = q_t(f1, state.f_leq)
    flux = [Sum(c).add(l).add(n).field()
            for c, l, n in zip(window, (ln.comp1, ln.comp2), (nl.comp1, nl.comp2))]
    del window, nl, ln
    # the direct flux keeps its mean check: c(0) lies in the window, and
    # S outside it counts toward the mass
    require_mean_zero(flux[0], "inv_div component 1", outside=outside[0])
    require_mean_zero(flux[1], "inv_div component 2", outside=outside[1])
    # inv_div(S + L + N) in the window, or wider when L and N reach past S
    direct_all = _inv_div_block(flux[0].coeffs, flux[1].coeffs, *_kgrids(flux[0].band))
    del flux

    qm1 = q_m1(pert.a_perfect[0], pert.a_perfect[1], sc)
    qm2 = q_m2(a1, a2, sc.lam5)
    qm3 = q_m3(a1, a2, sc.lam5)
    qd = q_d(f1, params.nu, params.gamma)
    os = params.oversample
    x_qm3 = x_norm(qm3, os, grid_cap)
    qm = Sum(qm1).add(qm2).add(qm3)  # continued into q_next
    del qm3
    decomp_num = Sum(base.copy()).add(state.q).negate().add(qm).field()
    q_next = qm.add(qt).add(qd).field()
    # outside the window inv_div(S + L + N) is inv_div(S); a window as
    # wide as the box holds the whole direct flux
    if direct_all.shape[0] < base.shape[0]:
        _window(base, direct_all.shape[0] // 2)[...] = direct_all
        direct_all = base
    del base
    master_num = Sum(direct_all).add(state.q).sub(q_next).add(qd).field()
    del direct_all

    f_total = state.f_leq + f1
    for fld, radius, name in ((f_total, 6.0 * sc.lambda_next, "f"),
                              (q_next, 12.0 * sc.lambda_next, "q")):
        leak = check_support(fld, radius)
        top = fld.max_abs_coeff()
        if top > 0.0 and leak > SUPPORT_RTOL * top:
            raise ArithmeticError(
                f"{name} support leak {leak:.3e} beyond |k| <= {radius:g} "
                f"(max coeff {top:.3e})")

    sup_q_next = linf(q_next, os, grid_cap)
    denom = max(linf(state.q, os, grid_cap), sup_q_next)
    if denom == 0.0:
        # zero-stress step (free-wave stacking): measure cancellation
        # against the flux product scale instead of 0/0
        gp = grad_perp(f1)
        denom = linf(lambda_s(f1, 1.0), os, grid_cap) * max(
            linf(gp.comp1, os, grid_cap), linf(gp.comp2, os, grid_cap))
    master = _rel_linf(master_num, denom, os, grid_cap)
    decomp = _rel_linf(decomp_num, denom, os, grid_cap)
    del master_num, decomp_num

    xq = x_norm(q_next, os, grid_cap, sup=sup_q_next)
    row = {
        "n": state.n,
        "lambda_n": sc.lambda_n,
        "lambda_next": sc.lambda_next,
        "r_n": sc.r_n,
        "r_next": sc.r_next,
        "mu_next": sc.mu_next,
        "alpha": params.alpha,
        "xnorm": {
            "qM1": x_norm(qm1, os, grid_cap),
            "qM2": x_norm(qm2, os, grid_cap),
            "qM3": x_qm3,
            "qT": x_norm(qt, os, grid_cap),
            "qD": x_norm(qd, os, grid_cap),
            "q_next": xq,
        },
        "ratio_q_over_r": xq / sc.r_next,
        "master_residual": master,
        "decomp_residual": decomp,
        "holder_besov_f": holder_besov(f_total, params.alpha, os, grid_cap),
        "partial_sum_reg": _partial_sum_reg(params, state.n + 1),
        "separation_ok": sep_ok,
        "alias_tail": pert.alias_tail,
    }
    return StepState(n=state.n + 1, f_leq=f_total, q=q_next), row


def _partial_sum_reg(params: IterationParams, upto: int) -> float:
    """sum over m = 1..upto of lambda_m^(alpha - 1/2 - beta/(2b)),
    the regularity budget (exponent = -eps0)."""
    e = params.alpha - 0.5 - params.beta / (2.0 * params.b)
    return sum(lambda_at(params.lambda0, params.b, m) ** e
               for m in range(1, upto + 1))


def params_hash(params: IterationParams, seed: int, base: str, grid_cap: int) -> str:
    """Stable digest of everything that determines a run's outputs
    (excluding steps, which resume may extend). grid_cap enters because
    linf picks its sampling grid under it."""
    payload = asdict(params)
    del payload["steps"]
    blob = json.dumps({**payload, "seed": seed, "base": base, "grid_cap": grid_cap},
                      sort_keys=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]
