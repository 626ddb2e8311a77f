from math import sqrt

import numpy as np
import pytest

from heatforms.asymptotics import (
    UnitDirection,
    aggregate_bound,
    asymptotic_bound,
    asymptotic_constant,
    random_direction,
    sigma_block,
    sigma_dot_matrix,
    sphere_coordinate_lp_norm,
)
from heatforms.exterior import MultiIndex, enumerate_all
from heatforms.heatmatrix import HeatMatrixSpec, build_full_matrix, spectral_norm


class TestUnitDirection:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            UnitDirection(np.ones(4), 2)

    def test_normalized(self):
        # random_direction divides its normal draw by the draw's length
        vec = np.random.default_rng(4).standard_normal(4)
        d = random_direction(2, np.random.default_rng(4))
        assert np.array_equal(d.sigma, vec / np.linalg.norm(vec))


class TestSigmaDotMatrix:
    def test_concentrated_on_empty_set(self):
        d = UnitDirection(np.eye(4)[0], 2)
        m = sigma_dot_matrix(d)
        assert np.array_equal(m[:, 0:2], -np.eye(2))
        assert np.allclose(m[:, 2:], 0.0)
        assert np.isclose(spectral_norm(m), 1.0)
        assert np.isclose(aggregate_bound(d), 1.0)

    def test_concentrated_block_is_signature(self):
        for n in (2, 3):
            for J in enumerate_all(n):
                d = UnitDirection(np.eye(1 << n)[J.mask], n)
                block, norm = sigma_block(d, J)
                want = np.diag([1.0 if i in J else -1.0 for i in range(1, n + 1)])
                assert np.array_equal(block, want)
                assert norm == 1.0

    def test_uniform_direction_n2(self):
        d = UnitDirection(np.full(4, 0.5), 2)
        assert np.isclose(aggregate_bound(d), sqrt(1.5))
        assert spectral_norm(sigma_dot_matrix(d)) <= sqrt(1.5) + 1e-12

    def test_matches_full_matrix_contraction(self):
        # independent route: contract the symmetric-weight heat matrix
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            full = build_full_matrix(HeatMatrixSpec(n, (0.5,) * (n + 1)))
            full4 = full.reshape(1 << n, n, 1 << n, n)
            for _ in range(10):
                d = random_direction(n, rng)
                ref = np.einsum("I,IiJj->iJj", d.sigma, full4).reshape(n, -1)
                assert np.allclose(sigma_dot_matrix(d), ref, atol=1e-13)

    def test_two_axis_cross_block(self):
        d = UnitDirection(np.array([0.0, 1.0, 1.0, 0.0]) / sqrt(2.0), 2)
        block, norm = sigma_block(d, MultiIndex.from_elements([1], 2))
        assert np.isclose(block[0, 1], 1 / sqrt(2.0))
        assert np.isclose(norm, 1.0)


class TestBlockIdentity:
    def test_norm_identity_random(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            for _ in range(30):
                d = random_direction(n, rng)
                for J in enumerate_all(n):
                    block, claimed = sigma_block(d, J)
                    numeric = np.linalg.svd(block, compute_uv=False)[0]
                    assert abs(numeric - claimed) < 1e-12

    def test_aggregate_dominates_norm(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 4):
            for _ in range(30):
                d = random_direction(n, rng)
                numeric = spectral_norm(sigma_dot_matrix(d))
                assert numeric <= aggregate_bound(d) + 1e-10

    def test_aggregate_never_exceeds_constant(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5):
            c = asymptotic_constant(n)
            for _ in range(50):
                assert aggregate_bound(random_direction(n, rng)) <= c + 1e-12

    def test_constant_attained_on_middle_grade(self):
        for n in (2, 3, 4):
            r = n // 2
            mask = (1 << r) - 1
            d = UnitDirection(np.eye(1 << n)[mask], n)
            assert np.isclose(aggregate_bound(d), asymptotic_constant(n))


class TestAsymptoticConstants:
    def test_exact_values(self):
        assert asymptotic_constant(2) == sqrt(2.0)
        assert asymptotic_constant(3) == sqrt(3.0)
        assert asymptotic_constant(4) == sqrt(5.0)
        assert asymptotic_constant(5) == sqrt(1 + 6.0)
        assert asymptotic_constant(6) == sqrt(10.0)

    def test_bound_over_p_minus_1_converges(self):
        for n in (2, 3):
            ratio = asymptotic_bound(n, 1000.0) / 999.0
            assert abs(ratio - asymptotic_constant(n)) < 0.03 * asymptotic_constant(n)

    def test_domain(self):
        with pytest.raises(ValueError):
            asymptotic_constant(1)
        with pytest.raises(ValueError):
            asymptotic_bound(2, 1.0)


class TestSphereNorm:
    def test_p2_closed_form(self):
        for N in (2, 3, 8, 50):
            assert np.isclose(sphere_coordinate_lp_norm(N, 2.0), 1 / sqrt(N))

    def test_circle_p4(self):
        # mean of cos^4 over the circle is 3/8
        assert np.isclose(sphere_coordinate_lp_norm(2, 4.0), (3.0 / 8.0) ** 0.25)

    def test_monotone_to_one(self):
        for N in (4, 8):
            vals = [sphere_coordinate_lp_norm(N, p) for p in (2, 10, 100, 10000)]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert vals[-1] > 0.99 * sphere_coordinate_lp_norm(N, 1e6)
            assert sphere_coordinate_lp_norm(N, 1e8) < 1.0

    def test_rejects_log_gamma_overflow(self):
        # log-Gamma is inf at p = 1e308, and the moment would be inf - inf
        with pytest.raises(ValueError, match="overflows"):
            sphere_coordinate_lp_norm(4, 1e308)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(4)
        samples = 200_000
        for N, p in [(4, 3.0), (8, 2.5)]:
            x = rng.standard_normal((samples, N))
            coord = np.abs(x[:, 0] / np.linalg.norm(x, axis=1)) ** p
            mc = coord.mean()
            se = coord.std(ddof=1) / sqrt(samples)
            assert abs(sphere_coordinate_lp_norm(N, p) ** p - mc) < 4 * se
