from fractions import Fraction

import numpy as np
import pytest

from heatforms.errors import CapError
from heatforms.exterior import MultiIndex, enumerate_grade
from heatforms.heatmatrix import (
    HeatMatrixSpec,
    _grade_structure,
    bound_constants,
    build_full_matrix,
    build_grade_matrix,
    closed_form_spectrum,
    conjugate_exponent,
    entry,
    grade_norm_closed_form,
    grade_pairs,
    in_block,
    out_block,
    spectral_norm,
)


def mi(elements, n):
    return MultiIndex.from_elements(elements, n)


class TestEntry:
    def test_diagonal_signs(self):
        I = mi([1], 2)
        assert entry(I, 1, I, 1, 0.7) == 1.0
        assert entry(I, 2, I, 2, 0.7) == -1.0

    def test_substitution_term(self):
        # one element moved out of J, one interior element flips the sign
        assert entry(mi([2, 3], 3), 1, mi([1, 2], 3), 3, 0.3) == -2 * 0.3

    def test_zero_across_grades(self):
        assert entry(mi([1], 2), 1, mi([1, 2], 2), 1, 0.5) == 0.0

    def test_grade_matrix_matches_entry(self):
        for n in (2, 3, 4, 5):
            for r in range(n + 1):
                for a in (0.0, 0.37, 1.0):
                    weights = [0.5] * (n + 1)
                    weights[r] = a
                    spec = HeatMatrixSpec(n, tuple(weights))
                    M = build_grade_matrix(spec, r)
                    pairs = grade_pairs(n, r)
                    ref = np.array(
                        [[entry(I, i, J, j, a) for J, j in pairs] for I, i in pairs]
                    )
                    assert np.array_equal(M, ref)


class TestGradeMatrix:
    def test_n2_r1_half(self):
        M = build_grade_matrix(HeatMatrixSpec(2, (0.5,) * 3), 1)
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 1.0],
                [0.0, -1.0, 1.0, 0.0],
                [0.0, 1.0, -1.0, 0.0],
                [1.0, 0.0, 0.0, 1.0],
            ]
        )
        assert np.array_equal(M, expected)

    def test_grade_zero_is_minus_identity(self):
        M = build_grade_matrix(HeatMatrixSpec(2, (0.5,) * 3), 0)
        assert np.array_equal(M, -np.eye(2))

    def test_top_grade_is_identity(self):
        for n in (2, 3, 4):
            M = build_grade_matrix(HeatMatrixSpec(n, (0.5,) * (n + 1)), n)
            assert np.array_equal(M, np.eye(n))

    def test_symmetric_for_every_alpha(self):
        # the substitution patterns are closed under transposition
        for n in (2, 3, 4):
            for a in np.linspace(0, 1, 5):
                spec = HeatMatrixSpec(n, (float(a),) * (n + 1))
                for r in range(n + 1):
                    M = build_grade_matrix(spec, r)
                    assert np.array_equal(M, M.T)

    def test_cap(self):
        # n = 14, r = 7 has 48048 rows; the cap refuses before allocating
        with pytest.raises(CapError):
            build_grade_matrix(HeatMatrixSpec(14, (0.5,) * 15), 7)

    def test_structure_is_sparse(self):
        # the cached skeleton is index arrays, not dense size x size patterns
        nbytes = sum(arr.nbytes for arr in _grade_structure(8, 4))
        assert nbytes < np.zeros((560, 560)).nbytes


class TestBlocks:
    def test_out_block_examples(self):
        assert np.array_equal(
            out_block(mi([1, 2], 2), 0.5), np.array([[-1.0, 1.0], [1.0, -1.0]])
        )
        assert np.array_equal(
            out_block(mi([1, 2, 3], 3), 1.0),
            np.array([[-1.0, 2.0, -2.0], [2.0, -1.0, 2.0], [-2.0, 2.0, -1.0]]),
        )
        assert np.array_equal(out_block(mi([2, 3, 5], 5), 0.0), -np.eye(3))

    def test_in_block_examples(self):
        assert np.array_equal(
            in_block(mi([], 2), 0.5), np.array([[1.0, 1.0], [1.0, 1.0]])
        )
        assert np.array_equal(
            in_block(mi([2], 3), 0.5), np.array([[1.0, -1.0], [-1.0, 1.0]])
        )
        assert np.array_equal(in_block(mi([2, 4], 5), 1.0), np.eye(3))

    def test_blocks_embed_in_grade_matrix(self):
        # extract the pair rows/columns of each block from the big matrix
        n = 4
        for a in (0.0, 0.31, 0.5, 1.0):
            spec = HeatMatrixSpec(n, (a,) * (n + 1))
            for r in range(n + 1):
                M = build_grade_matrix(spec, r)
                pairs = grade_pairs(n, r)
                index = {(I.mask, i): t for t, (I, i) in enumerate(pairs)}
                if r < n:
                    for i_tilde in enumerate_grade(n, r + 1):
                        rows = [
                            index[(i_tilde.mask & ~(1 << (e - 1)), e)]
                            for e in i_tilde.elements()
                        ]
                        sub = M[np.ix_(rows, rows)]
                        assert np.array_equal(sub, out_block(i_tilde, a))
                if r > 0:
                    for i_tilde in enumerate_grade(n, r - 1):
                        cols = [
                            index[(i_tilde.mask | (1 << (e - 1)), e)]
                            for e in range(1, n + 1)
                            if e not in i_tilde
                        ]
                        sub = M[np.ix_(cols, cols)]
                        assert np.array_equal(sub, in_block(i_tilde, a))

    def test_sign_conjugation_to_one_signed_forms(self):
        # out block ~ -2a J + (2a-1) I, in block ~ 2(1-a) J + (2a-1) I
        a = 0.4
        i_tilde = mi([1, 3, 4], 5)
        m = i_tilde.grade
        d = np.diag([(-1.0) ** t for t in range(m)])
        target = -2 * a * np.ones((m, m)) + (2 * a - 1) * np.eye(m)
        assert np.allclose(d @ out_block(i_tilde, a) @ d, target)

        i_tilde = mi([2, 5], 6)
        outside = [e for e in range(1, 7) if e not in i_tilde]
        parity = [sum(1 for x in i_tilde.elements() if x < e) for e in outside]
        d = np.diag([(-1.0) ** c for c in parity])
        k = len(outside)
        target = 2 * (1 - a) * np.ones((k, k)) + (2 * a - 1) * np.eye(k)
        assert np.allclose(d @ in_block(i_tilde, a) @ d, target)


class TestSpectra:
    def test_out_examples(self):
        assert np.allclose(closed_form_spectrum("out", 3, 1, 0.5), [-2.0, 0.0])
        eig = np.sort(np.linalg.eigvalsh(np.array([[-1.0, 1.0], [1.0, -1.0]])))
        assert np.allclose(eig, closed_form_spectrum("out", 3, 1, 0.5))

    def test_in_examples(self):
        assert np.allclose(closed_form_spectrum("in", 2, 1, 0.5), [0.0, 2.0])
        eig = np.sort(np.linalg.eigvalsh(np.array([[1.0, 1.0], [1.0, 1.0]])))
        assert np.allclose(eig, closed_form_spectrum("in", 2, 1, 0.5))

    def test_trace_consistency(self):
        for r in range(5):
            spec = closed_form_spectrum("out", 6, r, 0.5)
            assert np.isclose(spec.sum(), -(r + 1))

    def test_spectra_match_blocks_any_indexing_subset(self):
        n = 5
        for a in (0.0, 0.2, 0.8, 1.0):
            for r in range(n):
                ref = closed_form_spectrum("out", n, r, a)
                for i_tilde in enumerate_grade(n, r + 1):
                    eig = np.sort(np.linalg.eigvalsh(out_block(i_tilde, a)))
                    assert np.max(np.abs(eig - ref)) < 1e-10
            for r in range(1, n + 1):
                ref = closed_form_spectrum("in", n, r, a)
                for i_tilde in enumerate_grade(n, r - 1):
                    eig = np.sort(np.linalg.eigvalsh(in_block(i_tilde, a)))
                    assert np.max(np.abs(eig - ref)) < 1e-10

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            closed_form_spectrum("sideways", 3, 1, 0.5)
        with pytest.raises(ValueError):
            closed_form_spectrum("out", 3, 3, 0.5)
        with pytest.raises(ValueError):
            closed_form_spectrum("in", 3, 0, 0.5)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(7)) == 1.0

    def test_rank_one_shift(self):
        assert np.isclose(spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])), 2.0)

    def test_out_block_norm(self):
        blk = out_block(mi([1, 2, 3], 4), 0.5)
        assert np.isclose(spectral_norm(blk), 3.0)  # 2*a*r + 1 at a=1/2, r=2

    def test_matches_svd_on_random(self):
        rng = np.random.default_rng(7)
        for shape in [(5, 5), (3, 8), (8, 3)]:
            m = rng.standard_normal(shape)
            ref = np.linalg.svd(m, compute_uv=False)[0]
            assert abs(spectral_norm(m) - ref) < 1e-9 * ref

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 6))) == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            spectral_norm(np.ones(3))

    def test_non_symmetric_top_direction_orthogonal_to_ones(self):
        # the all-ones vector spans the null space of the Gram matrix m m^T,
        # so a power iteration started there returns 0
        assert np.isclose(spectral_norm([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]]), 2.0)

    def test_non_symmetric_lower_singular_value_not_returned(self):
        # singular values 4 and 2; the all-ones vector is the Gram
        # eigenvector of the lower one, so a power iteration from it gives 2
        assert np.isclose(spectral_norm([[3.0, 1.0, 0.0], [-1.0, -3.0, 0.0]]), 4.0)


class TestNormSweep:
    def test_numeric_matches_closed_form(self):
        for n in (2, 3, 4, 5):
            for r in range(n + 1):
                for a in np.linspace(0.0, 1.0, 11):
                    weights = [0.5] * (n + 1)
                    weights[r] = float(a)
                    spec = HeatMatrixSpec(n, tuple(weights))
                    numeric = spectral_norm(build_grade_matrix(spec, r))
                    assert abs(numeric - grade_norm_closed_form(n, r, float(a))) < 1e-9

    def test_optimal_alpha_minimizes(self):
        for n in (2, 3, 4, 5):
            for r in range(n + 1):
                best = grade_norm_closed_form(n, r, 1.0 - r / n)
                assert np.isclose(best, 2 * r * (n - r) / n + 1)
                for a in np.linspace(0.0, 1.0, 21):
                    assert best <= grade_norm_closed_form(n, r, float(a)) + 1e-12

    def test_full_matrix_norm_is_max_over_grades(self):
        for n in (2, 3, 4):
            spec = HeatMatrixSpec(n, tuple(1.0 - r / n for r in range(n + 1)))
            full = spectral_norm(build_full_matrix(spec))
            per_grade = max(
                spectral_norm(build_grade_matrix(spec, r)) for r in range(n + 1)
            )
            assert abs(full - per_grade) < 1e-10

    def test_full_matrix_cap(self):
        with pytest.raises(CapError):
            build_full_matrix(HeatMatrixSpec(11, (0.5,) * 12))


class TestBoundConstants:
    def test_overall_table(self):
        expected = {
            2: Fraction(2),
            3: Fraction(7, 3),
            4: Fraction(3),
            5: Fraction(17, 5),
            6: Fraction(4),
            10: Fraction(6),
        }
        for n, c in expected.items():
            assert bound_constants(n, 2.0).overall_constant == c

    def test_examples(self):
        b = bound_constants(2, 2.0)
        assert [float(g.constant) for g in b.per_grade] == [1.0, 2.0, 1.0]
        assert b.overall_bound == 2.0

        b = bound_constants(3, 4.0)
        assert b.overall_constant == Fraction(7, 3)
        assert np.isclose(b.overall_bound, 7.0)

        g1 = bound_constants(4, 2.0).per_grade[1]
        assert g1.alpha_star == Fraction(3, 4)
        assert g1.constant == Fraction(5, 2)

    def test_p_star(self):
        assert bound_constants(2, 2.0).p_star == 2.0
        assert np.isclose(bound_constants(2, 4 / 3).p_star, 4.0)
        assert bound_constants(2, 4.0).p_star == 4.0

    def test_domain(self):
        with pytest.raises(ValueError):
            bound_constants(2, 1.0)
        with pytest.raises(ValueError):
            bound_constants(1, 2.0)

    def test_grade_constant_formula(self):
        for n in (2, 5, 9):
            b = bound_constants(n, 3.0)
            for g in b.per_grade:
                assert g.constant == Fraction(2 * g.r * (n - g.r), n) + 1


class TestConjugateExponent:
    def test_values(self):
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(4.0) == 4.0
        assert conjugate_exponent(1.5) == 3.0
        assert conjugate_exponent(4 / 3) == pytest.approx(4.0, rel=1e-15)
        assert conjugate_exponent(3) == 3.0

    @pytest.mark.parametrize("p", [1.0, 0.5, np.inf, -np.inf, np.nan])
    def test_rejects_outside_open_interval(self, p):
        with pytest.raises(ValueError, match=r"\(1, inf\)"):
            conjugate_exponent(p)
