import contextlib
import sys
import threading

import numpy as np
import pytest

from heatforms import normsearch, stochastic
from heatforms.errors import SearchError
from heatforms.fields import lp_norm, random_band_limited
from heatforms.fourier import apply_beurling_ahlfors
from heatforms.normsearch import DEGENERATE_NORM, MUTATION_SCALE, norm_search


def per_candidate_search(n, p, dims, budget, seed, kmax):
    """The probe one candidate at a time: draw, apply, lp_norm, mutate as best + c fresh.

    Returns (best_ratio, best_index, best_kind, degenerate).
    """
    rng = np.random.default_rng(seed)
    best_ratio, best_field, best_index, best_kind, degenerate = -np.inf, None, -1, "fresh", 0
    for i in range(budget):
        mutate = i % 4 == 3 and best_field is not None
        fresh = random_band_limited(n, dims, 1.0, rng, kmax=kmax)
        candidate, kind = fresh, "fresh"
        if mutate:
            norm_best, norm_fresh = lp_norm(best_field, 2), lp_norm(fresh, 2)
            if norm_fresh <= DEGENERATE_NORM:
                degenerate += 1
                continue
            candidate = best_field.like(best_field.data + (MUTATION_SCALE * norm_best / norm_fresh) * fresh.data)
            kind = "mutation"
        denom = lp_norm(candidate, p)
        if denom <= DEGENERATE_NORM:
            degenerate += 1
            continue
        ratio = lp_norm(apply_beurling_ahlfors(candidate), p) / denom
        if ratio > best_ratio:
            best_ratio, best_field, best_index, best_kind = ratio, candidate, i, kind
    return best_ratio, best_index, best_kind, degenerate


class TestNormSearch:
    def test_l2_ratio_at_most_one_for_n2(self):
        r = norm_search(2, 2.0, dims=(32, 32), budget=40, seed=0)
        assert r.best_ratio <= 1.0 + 1e-6
        assert r.best_ratio > 0.9  # mean-zero candidates sit near the sup

    def test_ceiling_respected(self):
        for p in (4 / 3, 4.0):
            r = norm_search(2, p, dims=(32, 32), budget=40, seed=1)
            assert r.best_ratio <= r.ceiling + 1e-9
        assert norm_search(2, 4.0, dims=(16, 16), budget=20, seed=2).ceiling == 6.0

    def test_deterministic_in_seed(self):
        a = norm_search(2, 3.0, dims=(16, 16), budget=30, seed=5)
        b = norm_search(2, 3.0, dims=(16, 16), budget=30, seed=5)
        assert a.best_ratio == b.best_ratio and a.best_index == b.best_index

    def test_scaling_invariance_of_ratio(self):
        rng = np.random.default_rng(0)
        f = random_band_limited(2, (16, 16), 1.0, rng)
        r1 = lp_norm(apply_beurling_ahlfors(f), 3.0) / lp_norm(f, 3.0)
        g = f.like(17.5 * f.data)
        r2 = lp_norm(apply_beurling_ahlfors(g), 3.0) / lp_norm(g, 3.0)
        assert np.isclose(r1, r2, rtol=1e-12)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            norm_search(2, 2.0, dims=(16, 16), budget=0)

    def test_degenerate_candidates_raise(self):
        # kmax=0 with mean_zero leaves only the zero field
        with pytest.raises(SearchError):
            norm_search(2, 2.0, dims=(8, 8), budget=5, seed=0, kmax=0)

    def test_mutations_occur(self):
        r = norm_search(2, 4.0, dims=(16, 16), budget=200, seed=3)
        assert r.evaluations == 200
        assert r.best_kind == "mutation" and r.best_index % 4 == 3


CHUNKED_CASES = [
    (2, 4.0, (64, 64), 100, 3),
    (2, 4.0 / 3.0, (64, 64), 100, 3),
    (3, 4.0, (16, 16, 16), 60, 3),
    # a chunk (CHUNK_SAMPLES = 2^17 samples of f and Tf) holds 4 candidates at 64^2,
    # so this budget ends mid-chunk
    (2, 4.0, (64, 64), 13, 3),
    # one candidate fills a chunk exactly (2 x 4 rows x 2^14 points), and overfills one
    (2, 4.0, (128, 128), 9, 3),
    (2, 4.0, (256, 256), 6, 3),
    # kmax >= d/2 holds the Nyquist points; kmax 30 makes both 64-point axes wide
    (2, 4.0, (32, 32), 40, 16),
    (2, 4.0, (64, 64), 40, 30),
    (2, 4.0, (64, 64), 20, 32),
]


class TestChunkedSearch:
    @pytest.mark.parametrize("n, p, dims, budget, kmax", CHUNKED_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_candidate_search(self, n, p, dims, budget, kmax, seed):
        want_ratio, *want = per_candidate_search(n, p, dims, budget, seed, kmax)
        got = norm_search(n, p, dims, budget=budget, seed=seed, kmax=kmax)
        assert [got.best_index, got.best_kind, got.degenerate] == want
        assert abs(got.best_ratio / want_ratio - 1.0) <= 1e-12


def _search(budget=100, seed=4):
    return norm_search(2, 4.0, (64, 64), budget=budget, seed=seed)


class TestDrawAhead:
    # the helper thread draws chunk c + 1's noise while the caller filters chunk c

    @pytest.mark.parametrize("n, p, dims, budget, kmax", CHUNKED_CASES + [(2, 4.0, (64, 64), 1, 3)])
    def test_bitwise_the_serial_draw(self, n, p, dims, budget, kmax, monkeypatch):
        # a job run inline before the with-body draws the stream the way one thread does
        want = norm_search(n, p, dims, budget=budget, seed=1, kmax=kmax)
        jobs = []

        @contextlib.contextmanager
        def inline(fn, *args):
            jobs.append(fn)
            fn(*args)
            yield

        monkeypatch.setattr(stochastic, "_on_helper", inline)
        assert norm_search(n, p, dims, budget=budget, seed=1, kmax=kmax) == want
        chunk = max(1, normsearch.CHUNK_SAMPLES // (2 * 2**n * int(np.prod(dims))))
        assert len(jobs) == -(-budget // chunk) - 1  # every chunk but the first

    def test_body_error_reaches_the_caller_and_the_helper_survives(self, monkeypatch):
        want = _search()
        error = RuntimeError("chunk 2 failed")
        lp_norms, chunk_calls = normsearch._lp_norms, []

        def fail_in_chunk_2(stack, *args):
            if stack.ndim == 4:  # a chunk's (f, Tf) stack; a mutation passes one pair
                chunk_calls.append(stack.shape)
                if len(chunk_calls) == 3:
                    raise error
            return lp_norms(stack, *args)

        monkeypatch.setattr(normsearch, "_lp_norms", fail_in_chunk_2)
        with pytest.raises(RuntimeError) as info:
            _search()
        assert info.value is error
        monkeypatch.undo()
        helpers = [t for t in threading.enumerate() if t.name.startswith("heatforms-draws")]
        assert len(helpers) == 1
        assert _search() == want

    def test_concurrent_callers_get_the_lone_result(self):
        want = _search(budget=40)
        results = []

        def call():
            for _ in range(3):
                results.append(_search(budget=40))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call) for _ in range(3)]
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(c.is_alive() for c in callers)
        assert results == [want] * 9
