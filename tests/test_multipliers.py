import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heatforms import multipliers
from heatforms.errors import AccuracyError
from heatforms.fields import cosine_field, lp_norm, random_band_limited
from heatforms.multipliers import (
    _H_START,
    _MAX_HALVINGS,
    _TARGET,
    _V_HI,
    _V_LO,
    SpectralSymbol,
    _grid,
    _left_end,
    apply_spectral_multiplier,
    imaginary_power_constant,
    imaginary_power_symbol,
    laplace_symbol_eval,
    laplace_symbol_eval_many,
)

ROOT = Path(__file__).resolve().parents[1]


def identity_symbol():
    """Profile 1; the multiplier is identically 1."""
    return SpectralSymbol(profile=np.ones_like, sup_profile=1.0, zero_limit=1.0)


def closed_form_power_constant(s, p):
    # |Gamma(1 + it)|^2 = pi t / sinh(pi t)
    p_star = max(p, p / (p - 1.0))
    if s == 0.0:
        return p_star - 1.0
    return (p_star - 1.0) * np.sqrt(np.sinh(np.pi * s) / (np.pi * s))


def full_reevaluation(sym, lams):
    """The halving loop evaluating the profile on every node of every step.

    Returns the values and the number of halvings taken.
    """
    v_lo = _left_end(sym.sup_profile)
    h = _H_START
    v, weight = _grid(h, v_lo)
    prev = sym.profile(np.exp(v)[None, :] / lams[:, None]) @ weight.astype(complex)
    for halving in range(1, _MAX_HALVINGS + 1):
        h *= 0.5
        v, weight = _grid(h, v_lo)
        cur = sym.profile(np.exp(v)[None, :] / lams[:, None]) @ weight.astype(complex)
        done = np.max(np.abs(cur - prev) / np.maximum(np.abs(cur), 1e-30)) <= _TARGET
        prev = cur
        if done:
            return cur, halving
    raise AssertionError("no convergence")


class TestQuadrature:
    def test_constant_profile(self):
        sym = identity_symbol()
        for lam in (0.05, 1.0, 40.0):
            assert abs(laplace_symbol_eval(sym, lam) - 1.0) < 1e-9

    def test_linear_profile(self):
        # integral of lambda * t * exp(-lambda t) is 1/lambda
        sym = SpectralSymbol(profile=lambda t: t, sup_profile=None)
        for lam in (0.5, 2.0, 7.0):
            got = laplace_symbol_eval(sym, lam)
            assert abs(got - 1.0 / lam) < 1e-8 / lam

    def test_imaginary_powers(self):
        for s in (0.5, 1.0, 2.0):
            sym = imaginary_power_symbol(s)
            for lam in (0.1, 1.0, 10.0):
                got = laplace_symbol_eval(sym, lam)
                want = lam ** (1j * s)
                assert abs(got - want) < 1e-6
                assert abs(abs(got) - 1.0) < 1e-6

    def test_bounded_by_sup(self):
        rng = np.random.default_rng(0)
        sym = imaginary_power_symbol(1.5)
        lams = rng.uniform(0.01, 50.0, 30)
        values, errs = laplace_symbol_eval_many(sym, lams)
        assert np.all(np.abs(values) <= sym.sup_profile + errs + 1e-9)

    @pytest.mark.parametrize(
        "sym, lams, exact",
        [
            (identity_symbol(), [1e-3, 1.0, 1e6], lambda lam: np.ones_like(lam)),
            (imaginary_power_symbol(1.0), [0.1, 1.0, 10.0], lambda lam: lam ** 1j),
        ],
        ids=["identity", "power"],
    )
    def test_error_estimate_covers_truncation(self, sym, lams, exact):
        # the step-halving change alone was ~3e-14 against a true 1.03e-10
        lams = np.array(lams)
        values, errs = laplace_symbol_eval_many(sym, lams)
        assert np.all(errs >= np.abs(values - exact(lams)) / np.abs(values))

    @pytest.mark.parametrize("halvings", range(8))
    def test_grid_ends_fixed_and_nodes_nested(self, halvings):
        # every halving's sum covers [v_lo, _V_HI] and keeps the old nodes
        h = _H_START / 2**halvings
        for v_lo in (_V_LO, _V_LO - 27 * _H_START):
            v, _ = _grid(h, v_lo)
            assert v[0] == v_lo and v[-1] == _V_HI
            assert np.array_equal(_grid(h / 2, v_lo)[0][::2], v)

    @pytest.mark.parametrize(
        "sym",
        [
            identity_symbol(),
            SpectralSymbol(profile=lambda t: 1.0 / (1.0 + t), sup_profile=None),
            *(imaginary_power_symbol(s) for s in (0.5, 1.0, 2.0, 8.0)),
        ],
        ids=["identity", "undeclared-sup", "power-0.5", "power-1", "power-2", "power-8"],
    )
    def test_node_reuse_matches_full_reevaluation(self, sym, monkeypatch):
        lams = np.geomspace(1e-3, 1e4, 40)
        want, halvings = full_reevaluation(sym, lams)
        calls = []
        profile_at = multipliers._profile_at

        def counted(profile, lams, v):
            calls.append(v.size)
            return profile_at(profile, lams, v)

        monkeypatch.setattr(multipliers, "_profile_at", counted)
        got, _ = laplace_symbol_eval_many(sym, lams)
        # the sums cancel a profile of modulus up to sup to a value of modulus ~1,
        # so their rounding scales with sup (5e-13 at s = 8, sup ~ 4e4)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14 * max(1.0, sym.sup_profile or 1.0)
        assert len(calls) == 1 + halvings  # the same step; no node evaluated twice
        assert sum(calls) == _grid(_H_START / 2**halvings, _left_end(sym.sup_profile))[0].size

    def test_left_end(self):
        # lowered in whole steps to sup e^{v_lo} <= _TARGET / 2, and only then
        assert _left_end(None) == _left_end(1.0) == _V_LO
        for s in (0.5, 1.0, 2.0, 3.0):  # criterion 8's and the benchmark's s keep the grid
            assert _left_end(imaginary_power_symbol(s).sup_profile) == _V_LO
        sup = imaginary_power_symbol(8.0).sup_profile
        v_lo = _left_end(sup)
        assert v_lo == _V_LO - 27 * _H_START
        assert sup * np.exp(v_lo) <= _TARGET / 2 < sup * np.exp(v_lo + _H_START)
        # e^{v_lo} below the double epsilon is not resolved by the weight sum
        assert np.exp(_left_end(np.inf)) < np.finfo(float).eps < np.exp(_left_end(np.inf) + _H_START)

    def test_truncation_estimate_meets_the_target_at_s_8(self):
        # at _V_LO the bound read 4.2e-6 against a true error of 5.1e-7
        sym = imaginary_power_symbol(8.0)
        lams = np.array([0.1, 1.0, 10.0])
        values, errs = laplace_symbol_eval_many(sym, lams)
        true = np.abs(values - lams ** 8j)
        assert np.all(true <= errs) and np.all(errs < 1e-8)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            laplace_symbol_eval(identity_symbol(), 0.0)
        with pytest.raises(ValueError):  # nan fails lams > 0 too
            laplace_symbol_eval_many(identity_symbol(), [1.0, np.nan])

    def test_accuracy_error_on_impossible_target(self, monkeypatch):
        # a rough profile defeats the node cap at an extreme target
        rng = np.random.default_rng(1)

        def noisy(t):
            return 1.0 + 0.5 * np.sin(40.0 / (t + 1e-9))

        sym = SpectralSymbol(profile=noisy, sup_profile=1.5)
        monkeypatch.setattr("heatforms.multipliers._TARGET", 1e-14)
        with pytest.raises(AccuracyError) as info:
            laplace_symbol_eval(sym, 1.0)
        assert info.value.achieved is not None


class TestApplyMultiplier:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_fields(self, bad):
        f = random_band_limited(2, (16, 16), 1.0, np.random.default_rng(3), kmax=4)
        f.data[2, 5, 9] = bad
        with pytest.raises(ValueError, match="non-finite"):
            apply_spectral_multiplier(imaginary_power_symbol(1.0), f)

    @pytest.mark.filterwarnings("error")
    def test_rejects_an_overflowing_spectrum(self):
        f = random_band_limited(2, (16, 16), 1.0, np.random.default_rng(3), kmax=4)
        with pytest.raises(ValueError, match="non-finite"):
            apply_spectral_multiplier(imaginary_power_symbol(1.0), f.like(f.data * 1e307))

    def test_identity_round_trip(self):
        rng = np.random.default_rng(2)
        f = random_band_limited(2, (16, 16), 1.0, rng, mean_zero=False)
        g = apply_spectral_multiplier(identity_symbol(), f)
        for m in f.masks:
            assert np.allclose(g.components[m], f.components[m], atol=1e-8)

    def test_identity_keeps_complex_fields(self):
        # a(f + ig) = a f + i a g: the imaginary part is not dropped. The
        # identity's quadrature value is 1 - 1.03e-10 off the origin.
        rng = np.random.default_rng(4)
        f = random_band_limited(2, (16, 16), 1.3, rng, kmax=8, mean_zero=False)
        g = random_band_limited(2, (16, 16), 1.3, rng, kmax=8, mean_zero=False)
        h = f.like(f.data + 1j * g.data)
        out = apply_spectral_multiplier(identity_symbol(), h).data
        split = (
            apply_spectral_multiplier(identity_symbol(), f).data
            + 1j * apply_spectral_multiplier(identity_symbol(), g).data
        )
        assert np.iscomplexobj(out)
        assert np.max(np.abs(out - split)) < 1e-14
        assert np.max(np.abs(out - h.data)) < 1e-9 * np.max(np.abs(h.data))

    def test_imaginary_power_single_mode(self):
        s = 1.0
        L = 1.0
        f = cosine_field(2, (16, 16), L, [2, 1], mask=1)
        g = apply_spectral_multiplier(imaginary_power_symbol(s), f)
        lam = 4 * np.pi**2 * (4 + 1) / L**2
        scale = lam ** (1j * s)
        chat = np.fft.fftn(f.components[1])
        want = np.fft.ifftn(chat * scale)  # both conjugate modes share |xi|
        assert np.allclose(g.components[1], want, atol=1e-6)
        # modulus of the coefficient pair is preserved
        assert abs(lp_norm(g, 2) - lp_norm(f, 2)) < 1e-6

    def test_unimodular_preserves_l2(self):
        rng = np.random.default_rng(3)
        f = random_band_limited(2, (16, 16), 1.0, rng)
        for s in (0.5, 2.0):
            g = apply_spectral_multiplier(imaginary_power_symbol(s), f)
            assert abs(lp_norm(g, 2) - lp_norm(f, 2)) < 1e-8

    def test_real_profile_gives_real_field(self):
        # an undeclared real profile has real multiplier values, so the
        # imaginary pass is skipped and a real field stays real
        sym = SpectralSymbol(profile=lambda t: np.exp(-t))
        f = random_band_limited(2, (16, 16), 1.0, np.random.default_rng(5))
        g = apply_spectral_multiplier(sym, f)
        assert not np.iscomplexobj(g.data)

    def test_quadrature_sees_only_the_box(self, monkeypatch):
        # a 64^2 kmax-8 draw holds |k_a| <= 8: 41 distinct positive lambda,
        # against 456 on the whole half lattice
        asked = []

        def counted(sym, lams, _fn=multipliers.laplace_symbol_eval_many):
            asked.append(np.size(lams))
            return _fn(sym, lams)

        monkeypatch.setattr(multipliers, "laplace_symbol_eval_many", counted)
        f = random_band_limited(2, (64, 64), 1.0, np.random.default_rng(6), kmax=8)
        apply_spectral_multiplier(imaginary_power_symbol(1.3), f)
        assert asked == [41]

    def test_independent_of_blas_thread_count(self):
        # the box is inverted by band products that run on one OpenBLAS
        # thread (dense axes) and by FFT passes (a wide one), so a
        # single-threaded process gets the same bits as this one
        cases = [((256, 256), 8), ((64, 64), 30)]
        code = (
            "import hashlib, numpy as np\n"
            "from heatforms.fields import random_band_limited\n"
            "from heatforms.multipliers import apply_spectral_multiplier, imaginary_power_symbol\n"
            f"for dims, kmax in {cases!r}:\n"
            "    f = random_band_limited(2, dims, 1.0, np.random.default_rng(3), kmax=kmax)\n"
            "    g = apply_spectral_multiplier(imaginary_power_symbol(1.0), f)\n"
            "    print(hashlib.sha256(g.data).hexdigest())\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr

        def digest(dims, kmax):
            f = random_band_limited(2, dims, 1.0, np.random.default_rng(3), kmax=kmax)
            return hashlib.sha256(apply_spectral_multiplier(imaginary_power_symbol(1.0), f).data).hexdigest()

        assert proc.stdout.split() == [digest(*case) for case in cases]

    def test_zero_limit_convention(self):
        f = cosine_field(2, (8, 8), 1.0, [0, 0], mask=0, amplitude=3.0)  # constant
        kept = apply_spectral_multiplier(identity_symbol(), f)
        assert np.allclose(kept.components[0], 3.0, atol=1e-10)
        killed = apply_spectral_multiplier(imaginary_power_symbol(1.0), f)
        assert np.allclose(np.abs(killed.components[0]), 0.0, atol=1e-10)


class TestPowerConstant:
    def test_s_zero_exact(self):
        assert imaginary_power_constant(0.0, 2.0) == 1.0
        assert imaginary_power_constant(0.0, 4.0) == 3.0

    def test_frozen_value(self):
        # mpmath: 1/|Gamma(1-i)| = sqrt(sinh(pi)/pi) = 1.91731007152598500...
        assert abs(imaginary_power_constant(1.0, 2.0) - 1.917310071525985) < 1e-12

    def test_matches_closed_form(self):
        for s in (1e-4, 0.5, 1.0, 2.0, 5.0):
            for p in (1.5, 2.0, 3.0):
                got = imaginary_power_constant(s, p)
                want = closed_form_power_constant(s, p)
                assert abs(got - want) < 1e-10 * want

    def test_small_s_limit(self):
        assert abs(imaginary_power_constant(1e-4, 2.0) - 1.0) < 1e-6

    def test_monotone_in_s(self):
        values = [imaginary_power_constant(s, 3.0) for s in np.linspace(0, 10, 41)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            imaginary_power_constant(1.0, 1.0)

    def test_finite_where_sinh_overflows(self):
        # |Gamma(1 - 300i)| ~ 1e-203 is a normal double; sinh(300 pi) is not
        want = 2.0 * np.exp(0.5 * (300 * np.pi - np.log(600 * np.pi)))
        assert imaginary_power_constant(300.0, 3.0) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("s", [12.8, 30.0, 300.0, -300.0])
    def test_power_symbol_refuses_past_the_rounding_floor(self, s):
        # eps / |Gamma(1 - is)| passes _TARGET at s ~ 12.7: at s = 300 the
        # quadrature used to return |a| ~ 2.7e202 with a 4e-10 error estimate
        with pytest.raises(AccuracyError) as info:
            imaginary_power_symbol(s)
        assert info.value.achieved > 1e-8
        assert np.isfinite(imaginary_power_constant(s, 2.0))

    def test_power_symbol_builds_below_the_rounding_floor(self):
        sym = imaginary_power_symbol(12.6)
        assert np.finfo(float).eps * sym.sup_profile < 1e-8

    @pytest.mark.parametrize("s", [470.0, 1e3, -1e3])
    def test_rejects_underflowing_gamma(self, s):
        with pytest.raises(ValueError, match="underflows"):
            imaginary_power_constant(s, 2.0)
        with pytest.raises(ValueError, match="underflows"):
            imaginary_power_symbol(s)
