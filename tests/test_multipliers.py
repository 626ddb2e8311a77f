import numpy as np
import pytest

from heatforms.errors import AccuracyError
from heatforms.fields import cosine_field, lp_norm, random_band_limited
from heatforms.multipliers import (
    _H_START,
    _V_HI,
    _V_LO,
    SpectralSymbol,
    _grid,
    apply_spectral_multiplier,
    identity_symbol,
    imaginary_power_constant,
    imaginary_power_symbol,
    laplace_symbol_eval,
    laplace_symbol_eval_many,
)


def closed_form_power_constant(s, p):
    # |Gamma(1 + it)|^2 = pi t / sinh(pi t)
    p_star = max(p, p / (p - 1.0))
    if s == 0.0:
        return p_star - 1.0
    return (p_star - 1.0) * np.sqrt(np.sinh(np.pi * s) / (np.pi * s))


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
        # every halving's sum covers [_V_LO, _V_HI] and keeps the old nodes
        h = _H_START / 2**halvings
        v, _ = _grid(h)
        assert v[0] == _V_LO and v[-1] == _V_HI
        assert np.array_equal(_grid(h / 2)[0][::2], v)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            laplace_symbol_eval(identity_symbol(), 0.0)

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
