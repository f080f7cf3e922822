"""Standalone verifiers for the identities behind the construction.

Five groups:

* the stationarity pairing against single-mode test functions (the
  bookkeeping identity relating the quadratic flux, dissipation, and
  the stress against the Laplacian of the test function), with the
  test wave built by `ModulatedField.wave` and the commutator against
  it paired per carrier with theta on theta's support, without boxes,
  products, transforms or Lambda^{-1/2} weights,
* the exact per-wavenumber symbol identity
      sum_j (l_j.k)(l_j_perp.k) m_j(k) = |k|^2,
* a measured-constant monitor for the commutator Sobolev bound,
  reported as an empirical ratio, never asserted as a theorem,
* the feasibility arithmetic on the parameter exponents,
* the `sqgci verify` suite, `identity_checks`: which of the checks
  above run, on which seeded inputs and at which tolerances, one
  `report` each.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .fields import TorusField, inner, multiply, random_field
from .multipliers import (
    DIRECTIONS,
    L1,
    L2,
    ModulatedField,
    directional_grad,
    lambda_s,
    require_mean_zero,
    riesz,
    riesz_commutator,
    riesz_odd_symbol,
    t_ops,
)
from .norms import sobolev


@dataclass(frozen=True)
class ResidualReport:
    """Stationarity pairing against one test mode.

    total = nonlinear + dissipation + pressure; for an iteration state
    this vanishes, and the distance to a true weak solution is exactly
    |pressure|.
    """

    test_mode: tuple
    phase: str
    nonlinear: float
    dissipation: float
    pressure: float
    total: float


def _support_grid(theta: TorusField):
    """(c, k1, k2, inv_kn): theta's coefficients, read off its half, and 1/|k|
    (0 at k = 0) on its nonzero rows k1 x columns k2, mirrored and sorted."""
    rows, cols = theta.support()
    k1, k2 = np.union1d(rows, -rows), np.union1d(cols, -cols)
    h = theta.coeffs[np.ix_(k1 + theta.band, cols)]
    c = np.concatenate((np.conj(h[::-1, ::-1][:, :k2.size - cols.size]), h), axis=1)
    kn = np.hypot(k1[:, None], k2)
    return c, k1, k2, np.divide(1.0, kn, out=np.zeros_like(kn), where=kn > 0)


def _carrier_pairing(c, k1, k2, inv_kn, p) -> complex:
    """sum over kappa of w_p(kappa) conj(c(kappa)) c(kappa + p),

        w_p(kappa) = (p2 kappa1 - p1 kappa2) (1/|kappa + p| - 1/|kappa|),

    over the `_support_grid` rows and columns where kappa and kappa + p
    both lie (c is 0 off it); w_p is 0 at kappa = 0 and kappa = -p."""
    src = np.ix_(np.isin(k1 + p[0], k1), np.isin(k2 + p[1], k2))
    dst = np.ix_(np.isin(k1 - p[0], k1), np.isin(k2 - p[1], k2))
    w = (p[1] * k1[src[0]] - p[0] * k2[src[1]]) * (inv_kn[dst] - inv_kn[src])
    return complex(np.vdot(c[src], w * c[dst]))


def weak_residual(theta: TorusField, q, nu: float, gamma: float,
                  psi_modes) -> list:
    """Pairings for each requested mode, cos and sin phases.

        nonlinear   = (1/2) <Lambda^{-1/2} theta, Lambda^{1/2} [Rperp, grad psi] theta>
        dissipation = nu <Lambda^{-1/2} theta, Lambda^{gamma+1/2} psi>
        pressure    = <q, Lambda^2 psi>    (0 when no stress is supplied)

    q enters through Lambda^2 = -Laplacian, so a state carrying the
    relaxed relation exactly has total = 0 for every mode. theta must
    be mean-zero.

    The weights cancel: theta is band-limited, so a pairing
    <Lambda^{-1/2} theta, Lambda^{1/2} g> is a finite sum over k != 0 of
    theta^(k) conj(g^(k)) |k|^{-1/2} |k|^{1/2}, term by term <theta, g>
    when g^(0) = 0 (and Lambda^gamma psi taken off k = 0 for the
    dissipation). No weight is formed, so none is rounded.

    The commutator needs no product: with R_j of symbol i k_j/|k|,
    [R_j, e^{ip.x}] theta has coefficient (m_j(kappa + p) - m_j(kappa))
    theta^(kappa) at kappa + p, so for the test wave
    psi = ModulatedField.wave(1, k, phase) = sum_p a_p e^{ip.x}, whose
    1x1 blocks a_p sit at p = +-k (one block when k = 0),

        g = [Rperp, grad psi] theta = [R_1, d2 psi] theta - [R_2, d1 psi] theta

    is one block per carrier p, -a_p w_p(kappa) theta^(kappa) at
    kappa + p (w_p as in `_carrier_pairing`); w_p(-p) = 0, so g^(0) = 0.
    Each block is paired with theta on its `_support_grid`, both phases
    sharing the carrier sums, and theta and q are read at the carriers
    for the other terms. Every term vanishes at p = 0.
    """
    require_mean_zero(theta, "weak_residual theta")
    grid = _support_grid(theta)
    one = ModulatedField({(0, 0): np.ones((1, 1), dtype=np.complex128)})
    tau = (2.0 * np.pi) ** 2
    reports = []
    for k in psi_modes:
        k = (int(k[0]), int(k[1]))
        sums = {}
        for phase in ("cos", "sin"):
            # <h, g> = (2 pi)^2 Re sum h conj(g), by carrier
            nl = diss = pres = 0.0
            for p, a in ModulatedField.wave(one, k, phase).blocks.items():
                if p == (0, 0):
                    continue
                a = complex(a[0, 0]).conjugate()
                if p not in sums:
                    sums[p] = _carrier_pairing(*grid, p)
                nl += (a * sums[p]).real  # g's block at p carries -a_p
                diss += math.hypot(*p) ** gamma * (a * theta.coeff(*p)).real
                if q is not None:
                    pres += (p[0] * p[0] + p[1] * p[1]) * (a * q.coeff(*p)).real
            nl *= -0.5 * tau
            diss *= nu * tau
            pres *= tau
            reports.append(ResidualReport(k, phase, nl, diss, pres,
                                          nl + diss + pres))
    return reports


def check_algebraic(kmax: int) -> float:
    """Max over 0 < |k|_inf <= kmax of
    |sum_j (l_j.k)(l_j_perp.k) m_j(k) - |k|^2|."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    k = np.arange(-kmax, kmax + 1, dtype=np.float64)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    total = np.zeros_like(k1)
    for j, l in ((1, L1), (2, L2)):
        ldk = (l.n1 * k1 + l.n2 * k2) / l.d
        lp = l.perp
        lpdk = (lp.n1 * k1 + lp.n2 * k2) / lp.d
        total = total + ldk * lpdk * riesz_odd_symbol(j, k1, k2)
    return float(np.abs(total - (k1 * k1 + k2 * k2)).max())


def leibniz_residual(a: TorusField, lam5: int, l) -> float:
    """Relative defect of the splitting of Lambda applied to a
    modulated wave:

        Lambda(a cos(p.x)) = lam5 a cos + ((l.grad)a) sin
                             + (T1 a) cos + (T2 a) sin,  p = lam5 l.
    """
    wave = ModulatedField.wave
    p = l.wave(lam5)
    g = wave(a, p, "cos")
    direct = lambda_s(g.to_dense(), 1.0)
    t1a, t2a = t_ops(a, lam5, l)
    rebuilt = (float(lam5) * g
               + wave(directional_grad(a, l), p, "sin")
               + wave(t1a, p, "cos")
               + wave(t2a, p, "sin")).to_dense()
    scale = direct.max_abs_coeff()
    if scale == 0.0:
        return 0.0
    return (direct - rebuilt).max_abs_coeff() / scale


def commutator_ratio(trials: int, band_phi: int, band_theta: int,
                     seed: int = 0) -> dict:
    """Empirical constant in the commutator smoothing bound

        ‖[R_j, phi] theta‖_{H^{1/2}} <= C ‖phi‖_{H^3} ‖theta‖_{H^{-1/2}}

    over seeded random pairs; returns max and median of the observed
    ratios (both j)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        phi = random_field(band_phi, rng, mean_zero=True)
        theta = random_field(band_theta, rng, mean_zero=True)
        denom = sobolev(phi, 3.0) * sobolev(theta, -0.5)
        if denom == 0.0:
            continue
        best = max(sobolev(riesz_commutator(phi, theta, j), 0.5) for j in (1, 2))
        ratios.append(best / denom)
    return {
        "max": max(ratios) if ratios else 0.0,
        "median": statistics.median(ratios) if ratios else 0.0,
        "trials": len(ratios),
    }


@dataclass(frozen=True)
class FeasibilityReport:
    """Sign checks on the channel exponents and the parameter windows."""

    alpha: float | None
    exponents: dict
    verdicts: dict
    constraints: dict

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values()) and all(self.constraints.values())


def feasibility(params) -> FeasibilityReport:
    """Pure exponent arithmetic; invalid parameters yield fail verdicts,
    never exceptions. An alpha or exponent that is not a finite float
    (b = 0, inf or nan, or so small that beta/(2b) overflows) is reported
    as None, and its verdict fails, as does every window that reads a
    value that is not finite. `params` needs attributes b, beta, gamma,
    eps0."""
    b = float(params.b)
    beta = float(params.beta)
    gamma = float(params.gamma)
    eps0 = float(params.eps0)
    ratio = beta / (2.0 * b) if b else math.nan
    alpha = 0.5 + ratio - eps0
    exps = {
        "mismatch": (b - 1.0) * (beta - 1.0),
        "transport": 1.0 - alpha - beta / 2.0 - b / 2.0 + b * beta,
        "dissipation": gamma - 1.5 + beta - ratio,
        "regularity": alpha - 0.5 - ratio,
    }
    exps = {name: val if math.isfinite(val) else None for name, val in exps.items()}
    verdicts = {name: val is not None and val < 0.0 for name, val in exps.items()}
    constraints = {
        # chained, not min(): a nan bound must fail, not drop out
        "beta_range": 0.0 < beta < 1.0 / 3.0 and beta < 3.0 - 2.0 * gamma,
        "gamma_range": 0.0 < gamma < 1.5,
        "b_range": 1.0 < b < math.inf,
        "alpha_window": 0.5 <= alpha < 0.5 + 1.0 / 6.0 and alpha < 0.5 + (1.5 - gamma),
    }
    return FeasibilityReport(alpha=alpha if math.isfinite(alpha) else None,
                             exponents=exps, verdicts=verdicts,
                             constraints=constraints)


def report(check: str, params: dict, max_defect: float, tolerance: float) -> dict:
    """Uniform check-report shape for JSON emission."""
    return {
        "check": check,
        "params": params,
        "maxDefect": max_defect,
        "tolerance": tolerance,
        "pass": bool(max_defect <= tolerance),
    }


def identity_checks(params, seed: int) -> list:
    """The `sqgci verify` suite: one `report` per check, in a fixed order,
    every random input drawn from one generator seeded by seed. `params`
    needs lambda0 and b, which set the Leibniz check's wave scale."""
    from .iteration import lambda_at  # on use: the pairings alone load no iteration
    rng = np.random.default_rng(seed)
    checks = []

    checks.append(report("algebraic", {"kmax": 64}, check_algebraic(64), 1e-10))

    lam1 = lambda_at(params.lambda0, params.b, 1)
    lam5 = 5 * lam1 if 5 * lam1 <= 640 else 160
    worst = 0.0
    for l in DIRECTIONS:
        for band in (4, min(16, lam5 // 8)):
            a = random_field(band, rng, mean_zero=True)
            worst = max(worst, leibniz_residual(a, lam5, l))
    checks.append(report("leibniz", {"lambda5": lam5}, worst, 1e-11))

    worst = 0.0
    for _ in range(5):
        th = random_field(6, rng, mean_zero=True)
        ph = random_field(6, rng, mean_zero=True)
        scale = sobolev(th, 0.0) ** 2 * sobolev(ph, 0.0)
        if scale == 0.0:
            continue
        for j in (1, 2):
            lhs = inner(multiply(th, riesz(th, j)), ph)
            rhs = -0.5 * inner(th, riesz_commutator(ph, th, j))
            worst = max(worst, abs(lhs - rhs) / scale)
    checks.append(report("riesz_pairing", {"band": 6, "trials": 5}, worst, 1e-11))

    wave = ModulatedField.wave(TorusField.constant(1.0), L1.wave(5 * 8), "cos").to_dense()
    th = lambda_s(wave, 1.0)
    reps = weak_residual(th, None, 0.0, 1.0,
                         [(1, 0), (0, 1), (1, 1), (2, 1)])
    scale = max(sobolev(th, 0.0) ** 2, 1e-30)
    worst = max(abs(r.nonlinear) for r in reps) / scale
    checks.append(report("plane_wave_flux", {"lambda5": 40}, worst, 1e-10))

    stats = commutator_ratio(20, 6, 12, seed)
    checks.append(report("commutator_ratio_finite",
                         {"trials": 20, "band_phi": 6, "band_theta": 12,
                          "max_ratio": stats["max"]},
                         0.0 if math.isfinite(stats["max"]) else math.inf, 1.0))
    return checks
