import numpy as np
import pytest

from heatforms.errors import StatisticalPowerError
from heatforms.fields import FormField, TrigSeries, cosine_field, random_band_limited
from heatforms.stochastic import (
    _DRAW_PATHS,
    STEP_BLOCK,
    TRANSFORMS,
    _philox,
    _standard_normal_step_major,
    alternating_transform,
    identity_transform,
    ito_convergence_study,
    ito_terminal_check,
    markov_identity_check,
    martingale_transform_experiment,
    sign_transform,
    simulate_paths,
    transform_walk,
)
from test_fields import lattice_oracle


class TestSimulatePaths:
    def test_bit_reproducible(self):
        a = simulate_paths(2, 0.01, 20, 9000, seed=7)
        b = simulate_paths(2, 0.01, 20, 9000, seed=7)
        assert np.array_equal(a.increments, b.increments)
        assert np.array_equal(a.starts, b.starts)

    def test_different_seed_differs(self):
        a = simulate_paths(2, 0.01, 20, 100, seed=7)
        b = simulate_paths(2, 0.01, 20, 100, seed=8)
        assert not np.array_equal(a.increments, b.increments)

    def test_prefix_stable_in_path_count(self):
        # block-keyed streams: the first paths of a larger ensemble match
        small = simulate_paths(2, 0.01, 20, 3000, seed=3)
        large = simulate_paths(2, 0.01, 20, 5000, seed=3)
        assert np.array_equal(small.increments, large.increments[:, :3000])

    def test_prefix_stable_across_a_partial_block(self):
        # 4100 paths fill one block and 4 paths of the next, whose normals
        # are drawn for the kept paths only
        small = simulate_paths(2, 0.01, 20, 4100, seed=3)
        large = simulate_paths(2, 0.01, 20, 9000, seed=3)
        assert np.array_equal(small.increments, large.increments[:, :4100])
        assert np.array_equal(small.starts, large.starts[:4100])

    def test_increment_moments(self):
        ens = simulate_paths(3, 0.04, 25, 40000, seed=1)
        flat = ens.increments.reshape(-1, 3)
        mean, cov = flat.mean(axis=0), np.cov(flat, rowvar=False)
        draws = ens.paths * ens.steps
        se_mean = np.sqrt(0.04 / draws)
        assert np.all(np.abs(mean) < 4 * se_mean)
        se_var = 0.04 * np.sqrt(2.0 / draws)
        assert np.all(np.abs(np.diag(cov) - 0.04) < 4 * se_var)
        off = cov[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 4 * 0.04 / np.sqrt(draws))

    def test_terminal_displacement_variance(self):
        ens = simulate_paths(2, 0.005, 80, 30000, seed=2)
        tau = 0.005 * 80
        disp = ens.increments.sum(axis=0)
        assert np.all(np.abs(disp.mean(axis=0)) < 4 * np.sqrt(tau / ens.paths))
        var = disp.var(axis=0, ddof=1)
        assert np.all(np.abs(var - tau) < 4 * tau * np.sqrt(2.0 / ens.paths))

    def test_positions_wrap(self):
        ens = simulate_paths(2, 0.5, 10, 100, seed=0)
        pos = ens.positions(10)
        assert np.all(pos >= 0.0) and np.all(pos < 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_paths(2, -0.1, 10, 10, 0)
        with pytest.raises(ValueError):
            simulate_paths(2, 0.1, 0, 10, 0)


class TestStepMajorDraw:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_one_path_major_draw(self, d):
        # two full draw chunks and a partial one
        paths, steps = 2 * _DRAW_PATHS + 100, 13
        out = np.empty((steps, paths, d))
        _standard_normal_step_major(_philox(d, 0), out)
        want = _philox(d, 0).standard_normal((paths, steps, d)).swapaxes(0, 1)
        assert np.array_equal(out, want)

    def test_fewer_paths_than_one_chunk(self):
        out = np.empty((5, 7, 2))
        _standard_normal_step_major(_philox(1, 0), out)
        want = _philox(1, 0).standard_normal((7, 5, 2)).swapaxes(0, 1)
        assert np.array_equal(out, want)

    def test_ensemble_layout_is_step_major(self):
        ens = simulate_paths(3, 0.01, 11, 50, seed=4)
        assert ens.increments.shape == (11, 50, 3)
        assert ens.increments.flags.c_contiguous


class TestMarkovIdentity:
    def test_constant_function_exact(self):
        ens = simulate_paths(2, 0.02, 10, 500, seed=0)
        chk = markov_identity_check(np.full((8, 8), 1.0), 1.0, 0.2, ens)
        assert chk.mc_value == chk.exact_value == 1.0
        assert chk.std_error == 0.0

    def test_single_path_has_no_standard_error(self):
        # one path would give std_error 0 and so z_score 0: a pass that checked nothing
        ens = simulate_paths(2, 0.02, 10, 1, seed=0)
        x = np.arange(8) / 8
        g = np.cos(2 * np.pi * x)[:, None] * np.ones((1, 8))
        with pytest.raises(StatisticalPowerError, match="two paths"):
            markov_identity_check(g, 1.0, 0.2, ens)

    def test_mean_zero_mode(self):
        ens = simulate_paths(2, 0.02, 25, 20000, seed=1)
        x = np.arange(16) / 16
        g = np.cos(2 * np.pi * x)[:, None] * np.ones((1, 16))
        chk = markov_identity_check(g, 1.0, 0.5, ens)
        assert abs(chk.exact_value) < 1e-15  # the grid mean: zero up to rounding
        assert abs(chk.z_score) < 4.0

    def test_exact_value_is_grid_mean(self):
        # the grid mean is the zero-frequency coefficient of the series
        ens = simulate_paths(2, 0.02, 10, 100, seed=0)
        g = random_band_limited(2, (16, 16), 1.0, np.random.default_rng(2), mean_zero=False)
        chk = markov_identity_check(g.components[0], 1.0, 0.2, ens)
        assert chk.exact_value == np.mean(g.components[0]) != 0.0

    def test_random_trig_polynomials_over_seeds(self):
        passes = 0
        seeds = 20
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            f = random_band_limited(2, (16, 16), 1.0, rng, kmax=2, mean_zero=False)
            ens = simulate_paths(2, 0.02, 20, 20000, seed=seed)
            chk = markov_identity_check(f.components[0], 1.0, 0.4, ens)
            if abs(chk.z_score) <= 4.0:
                passes += 1
        assert passes >= 19

    def test_time_validation(self):
        ens = simulate_paths(2, 0.02, 10, 100, seed=0)
        with pytest.raises(ValueError):
            markov_identity_check(np.ones((8, 8)), 1.0, 0.03, ens)
        with pytest.raises(ValueError):
            markov_identity_check(np.ones((8, 8)), 1.0, 0.4, ens)


class TestItoTerminal:
    def test_constant_field_zero_gap(self):
        f = FormField.zeros(2, (8, 8), grades=[0])
        f.components[0][:] = 2.0
        ens = simulate_paths(2, 0.01, 30, 200, seed=0)
        assert ito_terminal_check(f, 0.3, ens) < 1e-12

    def test_rms_shrinks_with_h(self):
        f = cosine_field(2, (16, 16), 1.0, [1, 0], mask=1)
        hs, rmss, slope = ito_convergence_study(
            f, 0.5, [32, 64, 128], paths=1500, seed=0, seeds_per_h=10
        )
        ratios = rmss[1:] / rmss[:-1]
        assert np.all(ratios > 0.55) and np.all(ratios < 0.90)
        assert 0.3 <= slope <= 0.7

    def test_smoothed_start_term_decays(self):
        # computed threshold: exp(-2 pi^2 tau) < 1e-3 needs tau > 0.35
        tau = 0.4
        assert np.exp(-2 * np.pi**2 * tau) < 1e-3
        f = cosine_field(2, (16, 16), 1.0, [1, 0], mask=1)
        from heatforms.fields import TrigSeries, lp_norm

        series = TrigSeries(f.data, 1.0)
        pts = np.random.default_rng(0).uniform(0, 1, (200, 2))
        assert np.max(np.abs(series.value(pts, t=tau))) < 1e-3 * lp_norm(f, 2)

    @pytest.mark.parametrize(
        "n, dims, kmax, paths",
        [(2, (16, 16), 3, 300), (3, (8, 8, 8), 2, 200)],
        ids=["n2", "n3"],
    )
    def test_matches_per_step_loop(self, n, dims, kmax, paths):
        # the per-step loop the step-block evaluation replaced, with the
        # full-lattice oracle's gradient and values as the reference
        f = random_band_limited(n, dims, 1.0, np.random.default_rng(5), kmax=kmax)
        tau, steps = 0.05, 20
        ens = simulate_paths(n, tau / steps, steps, paths, seed=6)
        accum = np.zeros((ens.paths, len(f.data)))
        pos = ens.starts.copy()
        for k in range(ens.steps):
            step = ens.increments[k]
            grad = lattice_oracle(f.data, f.L, pos, tau - k * ens.h)[1]
            accum += np.einsum("pca,pa->pc", grad, step)
            pos = np.mod(pos + step, f.L)
        closed = lattice_oracle(f.data, f.L, pos, 0.0)[0]
        closed -= lattice_oracle(f.data, f.L, ens.starts, tau)[0]
        want = np.sqrt(np.sum((accum - closed) ** 2, axis=1).mean())
        assert len(f.data) == 2**n
        assert ito_terminal_check(f, tau, ens) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("steps", [1, 8, 20])
    def test_one_gradient_call_per_step_block(self, steps, monkeypatch):
        # all components share one evaluation per block, whatever their count
        calls = []
        gradient = TrigSeries.gradient

        def counted(self, points, t=0.0):
            calls.append(1)
            return gradient(self, points, t)

        monkeypatch.setattr(TrigSeries, "gradient", counted)
        f = random_band_limited(3, (8, 8, 8), 1.0, np.random.default_rng(1), kmax=1)
        ens = simulate_paths(3, 0.01, steps, 50, seed=2)
        ito_terminal_check(f, steps * 0.01, ens)
        assert len(f.data) == 8
        assert len(calls) == -(-steps // STEP_BLOCK)

    def test_tau_validation(self):
        f = cosine_field(2, (8, 8), 1.0, [1, 0], mask=1)
        ens = simulate_paths(2, 0.01, 30, 50, seed=0)
        with pytest.raises(ValueError):
            ito_terminal_check(f, 0.5, ens)


class TestMartingalePair:
    def test_base_variation_dominates(self):
        for d in (1, 3):
            for name in TRANSFORMS:
                pair = transform_walk(64, 500, name, seed=0, d=d)
                assert np.all(pair.base_qv >= pair.transformed_qv)

    def test_identity_gap_is_zero(self):
        pair = transform_walk(16, 100, identity_transform, seed=1)
        assert np.array_equal(pair.base_qv, pair.transformed_qv)
        assert np.array_equal(pair.base, pair.transformed)

    def test_oversized_coefficient_at_one_step_raises(self):
        # the modulus is checked at every step, not only on the first call
        def late(k, u_prev):
            return 1.5 if k == 5 else 1.0

        with pytest.raises(ValueError):
            transform_walk(16, 100, late, seed=0)

    def test_terminal_qv_matches_increment_sums(self):
        pair = transform_walk(8, 50, alternating_transform, seed=2)
        # alternating +-1 keeps both variations identical
        assert np.array_equal(pair.base_qv, pair.transformed_qv)

    def test_vector_walk(self):
        pair = transform_walk(16, 200, sign_transform, seed=3, d=3)
        assert pair.base.shape == (200, 3)
        assert pair.transformed.shape == (200, 3)

    @pytest.mark.parametrize("steps, trials", [(0, 10), (8, 0), (-1, 10)])
    def test_rejects_empty_counts(self, steps, trials):
        # an empty walk would divide 0 by 0 in the moment ratio
        with pytest.raises(ValueError, match="at least 1"):
            transform_walk(steps, trials, "identity", seed=0)


class TestTransformExperiment:
    def test_identity_ratio_one(self):
        res = martingale_transform_experiment(3.0, 32, 20000, identity_transform, seed=0)
        assert res.ratio == pytest.approx(1.0)
        assert res.passed

    def test_p2_orthogonality(self):
        for name in TRANSFORMS:
            res = martingale_transform_experiment(2.0, 32, 30000, name, seed=1)
            assert res.ratio <= 1.0 + 3 * res.rel_ci_half_width

    def test_p4_alternating_below_ceiling(self):
        res = martingale_transform_experiment(
            4.0, 64, 100_000, alternating_transform, seed=2
        )
        assert res.ceiling == 3.0
        assert res.ratio < 3.0
        assert res.passed

    def test_sign_transform_is_predictable_and_bounded(self):
        res = martingale_transform_experiment(3.0, 64, 50_000, sign_transform, seed=3)
        assert res.passed

    def test_rejects_oversized_transform(self):
        with pytest.raises(ValueError):
            martingale_transform_experiment(2.0, 8, 100, lambda k, u: 1.5, seed=0)

    def test_statistical_power_error(self):
        # 40 trials give a relative half-width near 0.1, above MAX_REL_CI
        with pytest.raises(StatisticalPowerError):
            martingale_transform_experiment(4.0, 32, 40, sign_transform, seed=0)

    def test_one_trial_is_undecided(self):
        # every bootstrap resample of one trial is that trial: a zero-width
        # interval around the identity's exact ratio 1 would pass at p = 2
        with pytest.raises(StatisticalPowerError, match="two trials"):
            martingale_transform_experiment(2.0, 8, 1, "identity", seed=0)

    def test_rejects_infinite_exponent(self):
        with pytest.raises(ValueError, match=r"\(1, inf\)"):
            martingale_transform_experiment(np.inf, 8, 2000, "identity", seed=0)

    def test_rejects_overflowing_moments(self):
        # |U|^p overflows for every |U| > 1; a RuntimeWarning would fail the suite
        with pytest.raises(ValueError, match="overflows"):
            martingale_transform_experiment(1e308, 8, 2000, "identity", seed=0)

    def test_p_star_ceilings(self):
        assert martingale_transform_experiment(1.5, 8, 2000, "identity", seed=0).ceiling == 2.0
        assert martingale_transform_experiment(3.0, 8, 2000, "identity", seed=0).ceiling == 2.0
        assert martingale_transform_experiment(4.0, 8, 2000, "identity", seed=0).ceiling == 3.0
