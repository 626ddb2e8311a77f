"""Acceptance gates. Each test covers one numbered criterion and prints a
pass/fail line (visible with pytest -s)."""

import time
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

import heatforms.heatmatrix as hm
from heatforms.asymptotics import (
    aggregate_bound,
    asymptotic_bound,
    asymptotic_constant,
    random_direction,
    sigma_block,
    sigma_dot_matrix,
    sphere_coordinate_lp_norm,
)
from heatforms.exterior import enumerate_all, enumerate_grade
from heatforms.fields import FormField, cosine_field, lp_norm, random_band_limited
from heatforms.fourier import (
    apply_beurling_ahlfors,
    beurling_ahlfors_symbol,
    psw_integral,
    symbol_from_heat_matrix,
    symbol_norms_on_grid,
)
from heatforms.multipliers import (
    imaginary_power_constant,
    imaginary_power_symbol,
    laplace_symbol_eval,
)
from heatforms.stochastic import (
    TRANSFORMS,
    ito_convergence_study,
    markov_identity_check,
    martingale_transform_experiment,
    simulate_paths,
)


def report(number, name, ok):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_bound_constants():
    start = time.time()
    expected = {
        2: Fraction(2),
        3: Fraction(7, 3),
        4: Fraction(3),
        5: Fraction(17, 5),
        6: Fraction(4),
        10: Fraction(6),
    }
    ok = True
    for n, want in expected.items():
        b = hm.bound_constants(n, 2.0)
        ok &= b.overall_constant == want
        ok &= abs(float(b.overall_constant) - float(want)) <= 1e-15
        for g in b.per_grade:
            ok &= g.constant == Fraction(2 * g.r * (n - g.r), n) + 1
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    report(1, "bound constants", ok)


def test_criterion_2_block_spectra():
    start = time.time()
    alphas = np.linspace(0.0, 1.0, 21)
    ok = True
    worst_norm = 0.0
    worst_spec = 0.0
    for n in range(2, 9):
        for r in range(n + 1):
            for a in alphas:
                a = float(a)
                spec = hm.HeatMatrixSpec(n, tuple([0.5] * r + [a] + [0.5] * (n - r)))
                numeric = hm.spectral_norm(hm.build_grade_matrix(spec, r))
                worst_norm = max(
                    worst_norm, abs(numeric - hm.grade_norm_closed_form(n, r, a))
                )
                if r < n:
                    ref = hm.closed_form_spectrum("out", n, r, a)
                    for i_tilde in enumerate_grade(n, r + 1):
                        eig = np.sort(np.linalg.eigvalsh(hm.out_block(i_tilde, a)))
                        worst_spec = max(worst_spec, float(np.max(np.abs(eig - ref))))
                if r > 0:
                    ref = hm.closed_form_spectrum("in", n, r, a)
                    for i_tilde in enumerate_grade(n, r - 1):
                        eig = np.sort(np.linalg.eigvalsh(hm.in_block(i_tilde, a)))
                        worst_spec = max(worst_spec, float(np.max(np.abs(eig - ref))))
    elapsed = time.time() - start
    ok &= worst_norm < 1e-9 and worst_spec < 1e-10 and elapsed < 60.0
    print(
        f"\n  criterion 2 detail: max norm dev {worst_norm:.2e}, "
        f"max spectrum dev {worst_spec:.2e}, {elapsed:.1f}s"
    )
    report(2, "block-spectrum equivalence", ok)


def test_criterion_3_alpha_optimality():
    ok = True
    for n in range(2, 9):
        for r in range(n + 1):
            a_star = 1.0 - r / n
            spec = hm.HeatMatrixSpec(n, (a_star,) * (n + 1))
            best = hm.spectral_norm(hm.build_grade_matrix(spec, r))
            for a in np.linspace(0.0, 1.0, 21):
                other = hm.spectral_norm(
                    hm.build_grade_matrix(hm.HeatMatrixSpec(n, (float(a),) * (n + 1)), r)
                )
                ok &= other - best >= -1e-9
    report(3, "optimal alpha within constant family", ok)


def test_criterion_4_alpha_independence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(1000):
            xi = rng.standard_normal(n)
            while float(xi @ xi) < 1e-6:
                xi = rng.standard_normal(n)
            alpha = tuple(float(a) for a in rng.uniform(0.0, 1.0, n + 1))
            diff = (
                symbol_from_heat_matrix(hm.HeatMatrixSpec(n, alpha), xi).matrix
                - beurling_ahlfors_symbol(xi, n).matrix
            )
            worst = max(worst, float(np.max(np.abs(diff))))
    print(f"\n  criterion 4 detail: max entry difference {worst:.2e}")
    report(4, "alpha independence of the symbol", worst < 1e-12)


def _extremal_ratio(n, dims, L, norms):
    """Single extremal frequency with the top eigenvector as coefficients."""
    idx = np.unravel_index(np.argmax(norms), dims)
    k = [np.fft.fftfreq(d)[i] * d for d, i in zip(dims, idx)]
    m = beurling_ahlfors_symbol(np.array(k) / L, n).matrix
    eigvals, eigvecs = np.linalg.eigh(m)
    top = int(np.argmax(np.abs(eigvals)))
    f = FormField.zeros(n, dims, L)
    for mask in f.masks:
        f.components[mask][:] = cosine_field(
            n, dims, L, k, mask, amplitude=float(eigvecs[mask, top])
        ).components[mask]
    return lp_norm(apply_beurling_ahlfors(f), 2) / lp_norm(f, 2)


def test_criterion_5_l2_ceiling():
    ok = True
    norms2 = symbol_norms_on_grid(2, (256, 256), 1.0)
    sup2 = float(norms2.max())
    ok &= abs(sup2 - 1.0) < 1e-12
    rng = np.random.default_rng(5)
    for _ in range(200):
        f = random_band_limited(2, (64, 64), 1.0, rng, kmax=8)
        ok &= lp_norm(apply_beurling_ahlfors(f), 2) / lp_norm(f, 2) <= 1.0 + 1e-9

    norms3 = symbol_norms_on_grid(3, (32, 32, 32), 1.0)
    sup3 = float(norms3.max())
    best = 0.0
    for _ in range(200):
        f = random_band_limited(3, (32, 32, 32), 1.0, rng, kmax=4)
        ratio = lp_norm(apply_beurling_ahlfors(f), 2) / lp_norm(f, 2)
        best = max(best, ratio)
        ok &= ratio <= sup3 + 1e-9 and ratio <= 7.0 / 3.0
    best = max(best, _extremal_ratio(3, (32, 32, 32), 1.0, norms3))
    ok &= abs(best - sup3) < 1e-9 and best <= 7.0 / 3.0
    print(f"\n  criterion 5 detail: sup n=2 {sup2:.15f}, sup n=3 {sup3:.15f}, best ratio n=3 {best:.15f}")
    report(5, "L2 ceiling", ok)


def test_criterion_6_lp_ceiling():
    start = time.time()
    ok = True
    best = {}
    cases = [(2, (256, 256), 8), (3, (64, 64, 64), 4)]
    rng = np.random.default_rng(6)
    for n, dims, kmax in cases:
        for p in (4.0 / 3.0, 2.0, 4.0):
            ceiling = hm.bound_constants(n, p).overall_bound
            top = 0.0
            for _ in range(200):
                f = random_band_limited(n, dims, 1.0, rng, kmax=kmax)
                ratio = lp_norm(apply_beurling_ahlfors(f), p) / lp_norm(f, p)
                top = max(top, ratio)
                ok &= ratio <= ceiling
            best[(n, p)] = (top, ceiling)
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    for (n, p), (top, ceiling) in best.items():
        print(f"\n  criterion 6 detail: n={n} p={p:.4g} best ratio {top:.6f} ceiling {ceiling:.6f}")
    print(f"  criterion 6 runtime {elapsed:.1f}s")
    report(6, "Lp ceiling (property-based)", ok)


def test_criterion_7_psw_inequality():
    ok = True
    rng = np.random.default_rng(7)
    for _ in range(50):
        f = random_band_limited(2, (32, 32), 1.0, rng, kmax=3)
        g = random_band_limited(2, (32, 32), 1.0, rng, kmax=3)
        p = float(rng.uniform(1.3, 4.5))
        res = psw_integral(f, g, p, t_max=1.0)
        ok &= res.lhs <= res.rhs + res.tail_bound + 1e-6
    mode = cosine_field(2, (32, 32), 1.0, [1, 0], mask=1)
    eq = psw_integral(mode, mode, 2.0, t_max=1.0)
    gap = abs(eq.lhs - eq.rhs)
    ok &= gap < 1e-6
    print(f"\n  criterion 7 detail: equality gap {gap:.2e}")
    report(7, "bilinear gradient inequality", ok)


def test_criterion_8_imaginary_powers():
    ok = True
    for s in (0.5, 1.0, 2.0):
        sym = imaginary_power_symbol(s)
        for lam in (0.1, 1.0, 10.0):
            got = laplace_symbol_eval(sym, lam)
            ok &= abs(got - lam ** (1j * s)) / abs(lam ** (1j * s)) < 1e-6
    for s in (1e-4, 0.5, 1.0, 2.0):
        for p in (1.5, 2.0, 4.0):
            p_star = max(p, p / (p - 1.0))
            closed = (p_star - 1.0) * sqrt(np.sinh(np.pi * s) / (np.pi * s))
            ok &= abs(imaginary_power_constant(s, p) - closed) <= 1e-10 * closed
    for p in (2.0, 3.0):
        p_star = max(p, p / (p - 1.0))
        ok &= abs(imaginary_power_constant(1e-4, p) - (p_star - 1.0)) < 1e-6
    report(8, "imaginary powers", ok)


def test_criterion_9_asymptotics():
    ok = True
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        for _ in range(100):
            d = random_direction(n, rng)
            for J in enumerate_all(n):
                block, claimed = sigma_block(d, J)
                numeric = float(np.linalg.svd(block, compute_uv=False)[0])
                ok &= abs(numeric - claimed) < 1e-12
            ok &= hm.spectral_norm(sigma_dot_matrix(d)) <= aggregate_bound(d) + 1e-10
    ok &= asymptotic_constant(2) == sqrt(2.0)
    ok &= asymptotic_constant(3) == sqrt(3.0)
    ok &= asymptotic_constant(4) == sqrt(5.0)
    for n in (2, 3):
        c = asymptotic_constant(n)
        ok &= abs(asymptotic_bound(n, 1000.0) / 999.0 - c) < 0.03 * c
    # closed-form sphere norm against a 1e6-sample Monte Carlo oracle
    samples = 1_000_000
    for N, p in ((4, 3.0), (8, 4.0)):
        x = rng.standard_normal((samples, N))
        obs = np.abs(x[:, 0] / np.linalg.norm(x, axis=1)) ** p
        se = obs.std(ddof=1) / sqrt(samples)
        ok &= abs(sphere_coordinate_lp_norm(N, p) ** p - obs.mean()) < 4 * se
    report(9, "projection asymptotics", ok)


def test_criterion_10_stochastic_gates():
    start = time.time()
    ok = True
    passes = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = random_band_limited(2, (16, 16), 1.0, rng, kmax=2, mean_zero=False)
        ens = simulate_paths(2, 0.02, 20, 20000, seed=seed)
        chk = markov_identity_check(g.components[0], 1.0, 0.4, ens)
        if abs(chk.z_score) <= 4.0:
            passes += 1
    ok &= passes >= 19

    f = cosine_field(2, (16, 16), 1.0, [1, 0], mask=1)
    _, _, slope = ito_convergence_study(
        f, 0.5, [32, 64, 128], paths=1500, seed=123, seeds_per_h=10
    )
    ok &= 0.3 <= slope <= 0.7

    worst_margin = np.inf
    for p in (1.5, 2.0, 3.0, 4.0):
        for name in TRANSFORMS:
            res = martingale_transform_experiment(p, 64, 100_000, name, seed=10)
            # subordination is asserted pathwise with zero tolerance inside
            limit = res.ceiling * (1.0 + 3.0 * res.rel_ci_half_width)
            worst_margin = min(worst_margin, limit - res.ratio)
            ok &= res.ratio <= limit
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    print(
        f"\n  criterion 10 detail: markov passes {passes}/20, ito slope {slope:.3f}, "
        f"min transform margin {worst_margin:.3f}, {elapsed:.1f}s"
    )
    report(10, "stochastic gates", ok)
