import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatforms import stochastic
from heatforms.errors import StatisticalPowerError
from heatforms.fields import FormField, TrigSeries, cosine_field, random_band_limited
from heatforms.stochastic import (
    _DRAW_PATHS,
    _N_BOOT,
    PATH_BLOCK,
    STEP_BLOCK,
    TRANSFORMS,
    _bootstrap_counts,
    _philox,
    _standard_normal_step_major,
    _on_helper,
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

    @pytest.mark.parametrize(
        "n, h, L, match",
        [
            (0, 0.1, 1.0, "dimension"),
            (-1, 0.1, 1.0, "dimension"),
            (2, np.nan, 1.0, "step size"),
            (2, np.inf, 1.0, "step size"),
            (2, 0.1, np.nan, "torus length"),
            (2, 0.1, 0.0, "torus length"),
            (2, 0.1, -1.0, "torus length"),
        ],
    )
    def test_rejects_before_drawing(self, n, h, L, match, monkeypatch):
        # n = 0 and h = nan once returned an empty or all-nan ensemble, n < 1
        # leaked numpy's "negative dimensions" error, and a nan or negative L
        # numpy's OverflowError or "high - low < 0"
        monkeypatch.setattr(stochastic, "_philox", _no_draw)
        monkeypatch.setattr(stochastic, "_on_helper", _no_draw)
        with pytest.raises(ValueError, match=match):
            simulate_paths(n, h, 10, 3 * PATH_BLOCK, 0, L=L)

    @pytest.mark.parametrize("n, steps, paths", [(2, 7, 2 * PATH_BLOCK + 100), (1, 3, 4 * PATH_BLOCK)])
    def test_matches_serial_block_draw(self, n, steps, paths):
        # three blocks with a partial one, and four full ones: the helper
        # thread's blocks are bitwise the ones one thread draws in order
        h, seed, L = 0.03, 11, 2.0
        ens = simulate_paths(n, h, steps, paths, seed, L=L)
        for block, lo in enumerate(range(0, paths, PATH_BLOCK)):
            hi = min(lo + PATH_BLOCK, paths)
            rng = _philox(seed, block)
            starts = rng.uniform(0.0, L, size=(PATH_BLOCK, n))[: hi - lo]
            incs = rng.standard_normal((hi - lo, steps, n)).swapaxes(0, 1) * np.sqrt(h)
            assert np.array_equal(ens.starts[lo:hi], starts)
            assert np.array_equal(ens.increments[:, lo:hi], incs)


def _no_draw(*args):
    raise AssertionError("drew or queued a job before validating")


class TestHelperThread:
    def test_helper_exception_reaches_the_caller_unchanged(self, monkeypatch):
        # an error on the helper is the caller's error, and the helper
        # thread survives it
        error = RuntimeError("helper failed")
        want = simulate_paths(2, 0.01, 5, 2 * PATH_BLOCK, seed=1)
        draw_blocks = stochastic._draw_blocks

        def fail_off_main(*args):
            if threading.current_thread() is not threading.main_thread():
                raise error
            draw_blocks(*args)

        monkeypatch.setattr(stochastic, "_draw_blocks", fail_off_main)
        with pytest.raises(RuntimeError) as info:
            simulate_paths(2, 0.01, 5, 2 * PATH_BLOCK, seed=1)
        assert info.value is error
        monkeypatch.undo()
        got = simulate_paths(2, 0.01, 5, 2 * PATH_BLOCK, seed=1)
        assert np.array_equal(got.increments, want.increments)
        assert np.array_equal(got.starts, want.starts)

    def test_body_exception_wins_and_waits_for_the_job(self):
        done = []
        with pytest.raises(KeyError):
            with _on_helper(done.append, 1):
                raise KeyError("body")
        assert done == [1]  # the exit waited for the job
        with pytest.raises(ZeroDivisionError):
            with _on_helper(lambda: 1 / 0):
                pass

    def test_idle_helper_keeps_no_array_alive(self):
        # the helper once held its last job, and with it a whole ensemble or
        # the bootstrap counts, until the next job came
        out = np.zeros(3)
        ref = weakref.ref(out)
        with _on_helper(np.copyto, out, 1.0):
            pass
        del out
        for _ in range(200):
            if ref() is None:
                break
            time.sleep(0.005)
        assert ref() is None

    def test_concurrent_callers_share_the_helper(self):
        # more caller threads than cores queue jobs on the one helper; each
        # ensemble stays the one a lone caller draws
        want = simulate_paths(1, 0.01, 3, 2 * PATH_BLOCK + 10, seed=7)
        results = []

        def call():
            for _ in range(5):
                results.append(simulate_paths(1, 0.01, 3, 2 * PATH_BLOCK + 10, seed=7))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call) for _ in range(4)]
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(c.is_alive() for c in callers)
        assert len(results) == 20
        for got in results:
            assert np.array_equal(got.increments, want.increments)
            assert np.array_equal(got.starts, want.starts)

    def test_one_helper_thread(self):
        simulate_paths(2, 0.01, 3, 3 * PATH_BLOCK, seed=0)
        martingale_transform_experiment(2.0, 8, 2000, "identity", seed=0)
        helpers = [t for t in threading.enumerate() if t.name.startswith("heatforms-draws")]
        assert len(helpers) == 1

    def test_exit_does_not_hang_on_the_idle_helper(self):
        # the helper is no daemon thread: the interpreter joins it at exit
        code = (
            "from heatforms.stochastic import PATH_BLOCK, martingale_transform_experiment, simulate_paths\n"
            "simulate_paths(2, 0.01, 3, 2 * PATH_BLOCK, seed=5)\n"
            "martingale_transform_experiment(2.0, 8, 2000, 'identity', seed=0)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr

    def test_public_functions_run_on_the_main_thread(self, monkeypatch):
        # a span recorder wraps public functions and its stack is not
        # thread-safe, so the helper may call none of them
        threads = []

        def on_main(fn):
            def wrapped(*args, **kwargs):
                threads.append(threading.current_thread())
                return fn(*args, **kwargs)

            return wrapped

        for name in ("simulate_paths", "ito_terminal_check", "transform_walk"):
            monkeypatch.setattr(stochastic, name, on_main(getattr(stochastic, name)))
        for name in ("gradient", "value"):
            monkeypatch.setattr(TrigSeries, name, on_main(getattr(TrigSeries, name)))
        f = cosine_field(2, (8, 8), 1.0, [1, 0], mask=1)
        ens = stochastic.simulate_paths(2, 0.05, 4, 3 * PATH_BLOCK, seed=2)
        markov_identity_check(np.ones((8, 8)), 1.0, 0.2, ens)
        ito_convergence_study(f, 0.2, [4, 8], 200, seed=3, seeds_per_h=2)
        martingale_transform_experiment(3.0, 16, 3000, "sign", seed=4)
        assert len(threads) > 10
        assert all(t is threading.main_thread() for t in threads)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_forked_child_starts_its_own_helper(self):
        # the parent's helper thread does not exist in a forked child
        code = (
            "import os, sys\n"
            "from heatforms.stochastic import PATH_BLOCK, simulate_paths\n"
            "a = simulate_paths(2, 0.01, 3, 2 * PATH_BLOCK, seed=5)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    b = simulate_paths(2, 0.01, 3, 2 * PATH_BLOCK, seed=5)\n"
            "    os._exit(0 if (a.increments == b.increments).all() else 1)\n"
            "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr


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

    def test_grid_period_must_be_the_ensembles_torus_length(self):
        # the paths are uniform only on their own torus: a unit-torus ensemble read with L = 2
        # gave z = 37.1 on a field where L = 1 gave -1.7
        g = random_band_limited(2, (16, 16), 1.0, np.random.default_rng(2), mean_zero=False).components[0]
        with pytest.raises(ValueError, match="torus length"):
            markov_identity_check(g, 2.0, 0.2, simulate_paths(2, 0.02, 10, 100, seed=0))
        chk = markov_identity_check(g, 2.0, 0.2, simulate_paths(2, 0.02, 10, 20000, seed=0, L=2.0))
        assert abs(chk.z_score) < 4.0

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


class TestItoStudy:
    @pytest.mark.parametrize("tau", [np.nan, np.inf, 0.0, -0.5])
    def test_rejects_bad_tau_before_drawing(self, tau, monkeypatch):
        # tau = nan once escaped as LinAlgError after LAPACK wrote to stderr
        monkeypatch.setattr(stochastic, "_philox", _no_draw)
        monkeypatch.setattr(stochastic, "_on_helper", _no_draw)
        f = cosine_field(2, (8, 8), 1.0, [1, 0], mask=1)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            ito_convergence_study(f, tau, [8, 16], 100, seed=0)

    @pytest.mark.parametrize("paths", [300, PATH_BLOCK + 50])
    def test_matches_serial_loop(self, paths):
        # each ensemble drawn one ahead on the helper is the one the serial
        # simulate_paths draws, and the pooling order is the loop's
        f = cosine_field(2, (16, 16), 1.0, [1, 0], mask=1)
        tau, counts, seed, reps = 0.3, [6, 12, 24], 9, 2
        hs, rmss, slope = ito_convergence_study(f, tau, counts, paths, seed, seeds_per_h=reps)
        want_h, want_rms = [], []
        for idx, steps in enumerate(counts):
            h = tau / steps
            pooled = 0.0
            for rep in range(reps):
                ens = simulate_paths(f.n, h, steps, paths, seed + 1000 * idx + rep, L=f.L)
                pooled += ito_terminal_check(f, tau, ens) ** 2
            want_h.append(h)
            want_rms.append(np.sqrt(pooled / reps))
        assert np.array_equal(hs, want_h)
        assert np.array_equal(rmss, want_rms)
        assert slope == float(np.polyfit(np.log(want_h), np.log(want_rms), 1)[0])


class TestMartingalePair:
    def test_base_variation_dominates(self):
        # subordination: every transformed step has at most the base step's square
        for d in (1, 3):
            for name in TRANSFORMS:
                _, _, inc_u, inc_y = _replayed_walk(64, 500, name, 0, d)
                assert np.all(inc_u >= inc_y)

    def test_identity_gap_is_zero(self):
        # +-1 coefficients keep every step's square, so both variations agree
        for d in (1, 3):
            for transform in (identity_transform, alternating_transform):
                _, _, inc_u, inc_y = _replayed_walk(16, 100, transform, 1, d)
                assert np.array_equal(inc_u, inc_y)
        pair = transform_walk(16, 100, identity_transform, seed=1)
        assert np.array_equal(pair.base, pair.transformed)

    def test_terminal_qv_matches_increment_sums(self):
        # the replay that the variation tests read is the walk itself, bit for bit
        for d in (1, 3):
            for name in TRANSFORMS:
                u, y, inc_u, inc_y = _replayed_walk(8, 50, name, 2, d)
                pair = transform_walk(8, 50, name, seed=2, d=d)
                assert np.array_equal(pair.base, u)
                assert np.array_equal(pair.transformed, y)
                if name != "sign":
                    assert np.array_equal(inc_u.sum(axis=0), inc_y.sum(axis=0))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3))
    def test_scaled_square_never_exceeds_the_base_square(self, data, d):
        # |fl(c s)| <= |s| for |c| <= 1, and squares and equal-order sums are monotone
        trials = data.draw(st.integers(1, 8))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        s = np.array(data.draw(st.lists(finite, min_size=trials * d, max_size=trials * d))).reshape(trials, d)
        c = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=trials, max_size=trials)))
        scaled = c[:, None] * s
        with np.errstate(over="ignore"):
            assert np.all(np.einsum("td,td->t", scaled, scaled) <= np.einsum("td,td->t", s, s))

    def test_oversized_coefficient_at_one_step_raises(self):
        # the modulus is checked at every step, not only on the first call
        def late(k, u_prev):
            return 1.5 if k == 5 else 1.0

        with pytest.raises(ValueError):
            transform_walk(16, 100, late, seed=0)

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

    def test_one_trial_is_undecided(self, monkeypatch):
        # every bootstrap resample of one trial is that trial: a zero-width
        # interval around the identity's exact ratio 1 would pass at p = 2;
        # it is rejected before the walk runs or a job is queued
        monkeypatch.setattr(stochastic, "transform_walk", _no_draw)
        monkeypatch.setattr(stochastic, "_on_helper", _no_draw)
        with pytest.raises(StatisticalPowerError, match="two trials"):
            martingale_transform_experiment(2.0, 8, 1, "identity", seed=0)
        with pytest.raises(ValueError, match="at least 1"):
            martingale_transform_experiment(2.0, 0, 100, "identity", seed=0)

    @pytest.mark.parametrize(
        "p, transform, trials", [(3.0, "sign", 3000), (4.0, "alternating", 5000), (1.5, "identity", 700)]
    )
    def test_matches_per_resample_loop(self, p, transform, trials):
        # the loop the uint8 counts replaced: one int64 bincount per resample
        steps, seed = 16, 21
        res = martingale_transform_experiment(p, steps, trials, transform, seed)
        ratio, rel_half = _reference_experiment(p, steps, trials, transform, seed, _philox(seed, 1))
        assert res.ratio == ratio
        assert res.rel_ci_half_width == rel_half

    def test_wide_counts_fallback_is_exact(self, monkeypatch):
        # a resample that takes index 0 trials times overflows uint8
        trials, steps, seed = 3000, 16, 4
        monkeypatch.setattr(stochastic, "_philox", _philox_piling_up_resample(3))
        res = martingale_transform_experiment(2.0, steps, trials, "sign", seed)
        ratio, rel_half = _reference_experiment(2.0, steps, trials, "sign", seed, stochastic._philox(seed, 1))
        assert res.ratio == ratio
        assert res.rel_ci_half_width == rel_half
        counts, wide = np.empty((_N_BOOT, trials), np.uint8), {}
        _bootstrap_counts(stochastic._philox(seed, 1), trials, counts, wide)
        assert list(wide) == [3]
        assert wide[3][0] == trials
        ref = stochastic._philox(seed, 1)
        for b in range(_N_BOOT):
            want = np.bincount(ref.integers(0, trials, trials), minlength=trials)
            assert np.array_equal(wide.get(b, counts[b]), want)

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


def _replayed_walk(steps, trials, transform, seed, d):
    """Terminal (U, Y) and per-step squared increments (steps, trials) of both walks, redrawn."""
    fn = transform if callable(transform) else TRANSFORMS[transform]
    incs = np.empty((steps, trials, d))
    _standard_normal_step_major(_philox(seed, 0), incs)
    u, y = np.zeros((trials, d)), np.zeros((trials, d))
    inc_u, inc_y = np.empty((steps, trials)), np.empty((steps, trials))
    for k, step in enumerate(incs):
        scaled = np.asarray(fn(k, u), dtype=float)[..., None] * step
        inc_u[k] = np.einsum("td,td->t", step, step)
        inc_y[k] = np.einsum("td,td->t", scaled, scaled)
        u += step
        y += scaled
    return u, y, inc_u, inc_y


def _reference_experiment(p, steps, trials, transform, seed, boot_rng):
    """Ratio and relative CI half-width by the per-resample int64 loop."""
    pair = transform_walk(steps, trials, transform, seed)
    u_p = np.sum(pair.base**2, axis=1) ** (p / 2.0)
    y_p = np.sum(pair.transformed**2, axis=1) ** (p / 2.0)
    ratio = float((y_p.mean() / u_p.mean()) ** (1.0 / p))
    moments = np.stack([y_p, u_p], axis=1)
    boots = np.empty(_N_BOOT)
    for b in range(_N_BOOT):
        counts = np.bincount(boot_rng.integers(0, trials, trials), minlength=trials)
        y_sum, u_sum = counts @ moments
        boots[b] = (y_sum / u_sum) ** (1.0 / p)
    half = float((np.quantile(boots, 0.975) - np.quantile(boots, 0.025)) / 2.0)
    return ratio, half / ratio


def burkholder_u(p, x, y):
    """Burkholder's majorant p(1 - 1/p*)^(p-1) (|y| - (p*-1)|x|) (|x| + |y|)^(p-1)."""
    p_star = max(p, p / (p - 1.0))
    x, y = np.abs(x), np.abs(y)
    return p * (1.0 - 1.0 / p_star) ** (p - 1.0) * (y - (p_star - 1.0) * x) * (x + y) ** (p - 1.0)


class TestBurkholderMajorant:
    """The upper side of Burkholder's inequality E|g|^p <= (p*-1)^p E|f|^p for transforms with |eps| <= 1.

    U majorizes V = |y|^p - (p*-1)^p |x|^p, is concave along every line with |dy| <= |dx|
    (the moves of a transform's pair (f, g)) and is at most 0 where |y| <= |x|, so E V(f, g) <= 0.
    Checked on a 601^2 grid over [-3, 3]^2; the margins sit above the measured rounding.
    """

    GRID = np.linspace(-3.0, 3.0, 601)

    @pytest.fixture(params=[4.0 / 3.0, 1.5, 3.0, 4.0], ids=["p=4/3", "p=1.5", "p=3", "p=4"])
    def case(self, request):
        p = request.param
        x, y = np.meshgrid(self.GRID, self.GRID, indexing="ij")
        u = burkholder_u(p, x, y)
        return p, x, y, u, np.abs(u).max()

    def test_majorizes_v(self, case):
        p, x, y, u, top = case
        p_star = max(p, p / (p - 1.0))
        v = np.abs(y) ** p - (p_star - 1.0) ** p * np.abs(x) ** p
        assert (u - v).min() / top >= -1e-15  # measured >= -6e-17

    def test_concave_along_s_and_t(self, case):
        _, _, _, u, top = case
        along_s = u[2:, 2:] - 2.0 * u[1:-1, 1:-1] + u[:-2, :-2]  # steps of (h, h)
        along_t = u[2:, :-2] - 2.0 * u[1:-1, 1:-1] + u[:-2, 2:]  # steps of (h, -h)
        assert max(along_s.max(), along_t.max()) / top <= 1e-14  # measured <= 1.9e-15

    def test_concave_along_every_line_with_dy_at_most_dx(self, case):
        p, x, y, u, top = case
        h = self.GRID[1] - self.GRID[0]
        for theta in np.linspace(-np.pi / 4.0, np.pi / 4.0, 41):
            dx, dy = h * np.cos(theta), h * np.sin(theta)
            second = burkholder_u(p, x + dx, y + dy) - 2.0 * u + burkholder_u(p, x - dx, y - dy)
            assert second.max() / top <= 1e-14  # measured <= 9.4e-16

    def test_at_most_zero_where_y_is_at_most_x(self, case):
        p, x, y, u, _ = case
        inside = np.abs(y) <= np.abs(x)
        assert u[inside].max() == 0.0 == burkholder_u(p, 0.0, 0.0)
        assert burkholder_u(p, 1.0, 1.0) < 0.0 and burkholder_u(p, 1.0, -1.0) < 0.0


def _philox_piling_up_resample(pile):
    """_philox whose bootstrap stream draws only index 0 for resample `pile`."""
    real = stochastic._philox

    class Piled:
        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def integers(self, low, high, size):
            draw = self.rng.integers(low, high, size)
            self.calls += 1
            return np.zeros_like(draw) if self.calls == pile + 1 else draw

    def philox(seed, stream):
        rng = real(seed, stream)
        return Piled(rng) if stream == 1 else rng

    return philox
