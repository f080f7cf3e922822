"""Norms: hand values, Parseval, dyadic blocks, Besov-type sup."""

from __future__ import annotations

import numpy as np
import pytest

from sqgci.errors import GridBudgetExceeded
from sqgci.fields import TorusField, good_grid, random_field, to_grid
from sqgci.multipliers import lambda_s, lowpass
from sqgci.norms import (
    dyadic_blocks,
    holder_besov,
    linf,
    sobolev,
    x_norm,
)


def _cos(k1, k2):
    band = max(abs(k1), abs(k2))
    return TorusField.from_modes(band, {(k1, k2): 0.5}, mean_zero=True)


def test_sobolev_hand_values():
    f = _cos(1, 0)
    assert abs(sobolev(f, 0.0) - np.sqrt(0.5)) < 1e-15
    g = _cos(3, 4)  # |k| = 5
    assert abs(sobolev(g, -0.5) - np.sqrt(0.5 / 5.0)) < 1e-15
    assert abs(sobolev(g, 1.0) - 5.0 * np.sqrt(0.5)) < 1e-14


def test_sobolev_shift_property():
    rng = np.random.default_rng(3)
    f = random_field(6, rng)
    for s, t in ((0.5, -0.5), (1.0, 0.25), (-0.5, 3.0)):
        a = sobolev(lambda_s(f, s), t)
        b = sobolev(f, s + t)
        assert abs(a - b) < 1e-12 * max(1.0, b)


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


def test_dyadic_blocks_partition_and_support():
    rng = np.random.default_rng(13)
    f = random_field(9, rng)
    blocks = dyadic_blocks(f)
    total = TorusField.zero()
    energy = 0.0
    for blk in blocks:
        total = total + blk.part
        energy += sobolev(blk.part, 0.0) ** 2
        K = blk.part.band
        lo = 0.0 if blk.j == 0 else 2.0 ** (blk.j - 1)
        hi = 2.0 ** blk.j
        for k1 in range(-K, K + 1):
            for k2 in range(-K, K + 1):
                if blk.part.coeff(k1, k2) != 0.0:
                    r = np.hypot(k1, k2)
                    assert lo < r <= hi or (blk.j == 0 and r <= 1.0)
    np.testing.assert_allclose(total.pad_to(9).coeffs, f.coeffs, atol=1e-15)
    assert abs(energy - sobolev(f, 0.0) ** 2) < 1e-12


def test_holder_besov_single_block():
    f = _cos(4, 0)  # |k| = 4 sits in block j = 2
    assert abs(holder_besov(f, 0.5) - 2.0) < 1e-13
    assert abs(holder_besov(_cos(1, 0), 0.3) - 1.0) < 1e-13


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
