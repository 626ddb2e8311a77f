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
from heatforms.errors import CapError
from heatforms.exterior import MultiIndex, enumerate_all, substitutions
from heatforms.heatmatrix import HeatMatrixSpec, build_full_matrix, spectral_norm


def column_group_oracle(sigma, J):
    """The column group of J, entry by entry from substitutions (the loop the plan replaced)."""
    block = np.diag([sigma[J.mask] * (1.0 if i in J else -1.0) for i in range(1, J.n + 1)])
    for k, l, T, sign in substitutions(J):
        block[k - 1, l - 1] = block[l - 1, k - 1] = sigma[T.mask] * sign
    return block


class TestUnitDirection:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            UnitDirection(np.ones(4), 2)

    def test_rejects_nan(self):
        # abs(nan - 1) > 1e-12 is False, so a nan length used to pass
        with pytest.raises(ValueError):
            UnitDirection(np.full(4, np.nan), 2)

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

    @pytest.mark.parametrize("n", range(2, 7))
    def test_plan_matches_substitution_oracle(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            d = random_direction(n, rng)
            oracle = [column_group_oracle(d.sigma, J) for J in enumerate_all(n)]
            assert np.array_equal(sigma_dot_matrix(d), np.hstack(oracle))
            for J, want in zip(enumerate_all(n), oracle):
                assert np.array_equal(sigma_block(d, J)[0], want)

    def test_refused_past_the_full_matrix_cap(self):
        d = random_direction(11, np.random.default_rng(11))
        with pytest.raises(CapError, match="n<=10"):
            sigma_dot_matrix(d)
        with pytest.raises(CapError, match="n<=10"):
            sigma_block(d, MultiIndex(0, 11))

    def test_block_rejects_a_subset_of_another_dimension(self):
        d = random_direction(3, np.random.default_rng(6))
        for J in (MultiIndex(1, 2), MultiIndex(0b1000, 4)):
            with pytest.raises(ValueError, match="dimension 3"):
                sigma_block(d, J)

    def test_two_axis_cross_block(self):
        d = UnitDirection(np.array([0.0, 1.0, 1.0, 0.0]) / sqrt(2.0), 2)
        block, norm = sigma_block(d, MultiIndex.from_elements([1], 2))
        assert np.isclose(block[0, 1], 1 / sqrt(2.0))
        assert np.isclose(norm, 1.0)


class TestBlockIdentity:
    def test_norm_identity_random(self):
        # n = 5 and 6 reach cross blocks of 2 x 3 and 3 x 3, past criterion 9's n <= 4
        rng = np.random.default_rng(1)
        for n in range(2, 7):
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
        # log-Gamma overflows at p = 1e308; the moment would be inf - inf
        with pytest.raises(ValueError, match="overflows"):
            sphere_coordinate_lp_norm(4, 1e308)

    # mpmath at 60+ digits; the log-Gamma difference of N/2 and (N + p)/2 once lost ~N/2 ulps
    @pytest.mark.parametrize(
        "n, p, value",
        [
            (20, 4.0, 0.0012852279154299299),
            (30, 4.0 / 3.0, 2.6558058072483858e-5),
            (40, 4.0, 1.2551059846419277e-6),
            (60, 4.0, 1.2256894381274399e-9),
            (60, 1000.0, 1.7869128335611027e-8),
            (1000, 4.0, 4.0205223592254189e-151),
            (1023, 1000.0, 2.0237667474409904e-153),
        ],
    )
    def test_large_dimensions_match_mpmath(self, n, p, value):
        assert sphere_coordinate_lp_norm(2**n, p) == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("n", [1024, 1100])
    def test_rejects_a_dimension_past_the_largest_double(self, n):
        with pytest.raises(ValueError, match=f"ambient dimension N >= 2\\*\\*{n} "):
            sphere_coordinate_lp_norm(2**n, 4.0)
        with pytest.raises(ValueError, match="ambient dimension"):
            asymptotic_bound(n, 4.0)
        assert 0.0 < asymptotic_bound(1023, 4.0) < np.inf

    @pytest.mark.parametrize("n", [10**30, 10**200])
    def test_bound_refuses_a_huge_dimension_before_building_it(self, n):
        # 1 << 10**30 and sqrt(10**400) raise OverflowError; a smaller huge n would fill n/8 bytes
        with pytest.raises(ValueError, match=f"ambient dimension 2\\*\\*{n} "):
            asymptotic_bound(n, 4.0)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(4)
        samples = 200_000
        for N, p in [(4, 3.0), (8, 2.5)]:
            x = rng.standard_normal((samples, N))
            coord = np.abs(x[:, 0] / np.linalg.norm(x, axis=1)) ** p
            mc = coord.mean()
            se = coord.std(ddof=1) / sqrt(samples)
            assert abs(sphere_coordinate_lp_norm(N, p) ** p - mc) < 4 * se
