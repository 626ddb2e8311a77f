from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from heatforms.errors import CapError
from heatforms.exterior import MultiIndex, enumerate_grade, interval_count
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
    in_block,
    out_block,
    spectral_norm,
)


def mi(elements, n):
    return MultiIndex.from_elements(elements, n)


def block_pairs(n, r):  # build_grade_matrix's row order: I ascending by mask, then axis i
    return [(I, i) for I in enumerate_grade(n, r) for i in range(1, n + 1)]


class TestInputChecks:
    def test_spec(self):
        with pytest.raises(ValueError, match="at least 2"):
            HeatMatrixSpec(1, (0.5, 0.5))
        with pytest.raises(ValueError, match="need 4 weights, got 3"):
            HeatMatrixSpec(3, (0.5,) * 3)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            HeatMatrixSpec(2, (0.5, 1.5, 0.5))

    def test_entry(self):
        with pytest.raises(ValueError, match="different ambient dimensions"):
            entry(mi([1], 2), 1, mi([1], 3), 1, 0.5)
        for i, j in ((0, 1), (1, 3)):
            with pytest.raises(ValueError, match="axis index out of range"):
                entry(mi([1], 2), i, mi([2], 2), j, 0.5)

    @pytest.mark.parametrize("r", [-1, 4])
    def test_grade_outside_range(self, r):
        with pytest.raises(ValueError, match=f"grade {r} outside"):
            build_grade_matrix(HeatMatrixSpec(3, (0.5,) * 4), r)

    def test_out_block_of_grade_0(self):
        with pytest.raises(ValueError, match="grade >= 1"):
            out_block(mi([], 3), 0.5)

    def test_spectral_norm_of_an_empty_matrix(self):
        assert spectral_norm(np.zeros((0, 0))) == 0.0


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
                    pairs = block_pairs(n, r)
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
        # every grade of n = 30 is refused: its structure would be read from a table of 2^30 subsets
        with pytest.raises(CapError, match="largest grade block"):
            build_grade_matrix(HeatMatrixSpec(30, (0.5,) * 31), 1)

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

    def test_parity_vectors_match_entry_loops(self):
        # the per-entry sign loops the blocks were first written with
        def out_loops(i_tilde, alpha):
            m = i_tilde.grade
            block = np.empty((m, m))
            for t in range(m):
                block[t, t] = -1.0
                for s in range(t + 1, m):
                    v = 2.0 * alpha * (1.0 if (s + t + 1) % 2 == 0 else -1.0)
                    block[t, s] = v
                    block[s, t] = v
            return block

        def in_loops(i_tilde, alpha):
            outside = [e for e in range(1, i_tilde.n + 1) if e not in i_tilde]
            m = len(outside)
            block = np.eye(m)
            for a in range(m):
                for b in range(a + 1, m):
                    odd = interval_count(i_tilde, outside[a], outside[b]) & 1
                    v = 2.0 * (1.0 - alpha) * (-1.0 if odd else 1.0)
                    block[a, b] = v
                    block[b, a] = v
            return block

        for n in range(2, 7):
            for alpha in (0.0, 0.3, 1.0):
                for grade in range(n + 1):
                    for i_tilde in enumerate_grade(n, grade):
                        if grade >= 1:
                            assert np.array_equal(out_block(i_tilde, alpha), out_loops(i_tilde, alpha))
                        assert np.array_equal(in_block(i_tilde, alpha), in_loops(i_tilde, alpha))

    def test_blocks_embed_in_grade_matrix(self):
        # extract the pair rows/columns of each block from the big matrix
        n = 4
        for a in (0.0, 0.31, 0.5, 1.0):
            spec = HeatMatrixSpec(n, (a,) * (n + 1))
            for r in range(n + 1):
                M = build_grade_matrix(spec, r)
                pairs = block_pairs(n, r)
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


def permuted_block_diagonal(rng, sizes, symmetric):
    """Random blocks of the given sizes, placed on the diagonal and permuted.

    A non-symmetric block is scaled up, so that it carries the norm.
    """
    total = sum(sizes)
    m = np.zeros((total, total))
    start = 0
    for size, sym in zip(sizes, symmetric):
        b = rng.standard_normal((size, size))
        m[start : start + size, start : start + size] = b + b.T if sym else 10.0 * b
        start += size
    perm = rng.permutation(total)
    return m[np.ix_(perm, perm)]


def assert_matches_svd(m):
    ref = np.linalg.svd(m, compute_uv=False)[0]
    assert abs(spectral_norm(m) - ref) <= 1e-12 * ref


@pytest.fixture
def solved_shapes(monkeypatch):
    """Shapes of the batches that spectral_norm hands to np.linalg.svd, in call order.

    Only 3-d (batched) calls are recorded: assert_matches_svd's reference is one 2-d SVD.
    """
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        if np.ndim(a) == 3:
            shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


class TestSpectralNormByComponents:
    SIZES = [1, 2, 2, 3, 5, 5, 5, 8, 13, 1, 4]

    def test_permuted_symmetric_blocks(self):
        rng = np.random.default_rng(11)
        m = permuted_block_diagonal(rng, self.SIZES, [True] * len(self.SIZES))
        assert_matches_svd(m)

    def test_one_non_symmetric_block(self):
        rng = np.random.default_rng(12)
        for odd in range(len(self.SIZES)):
            symmetric = [k != odd for k in range(len(self.SIZES))]
            m = permuted_block_diagonal(rng, self.SIZES, symmetric)
            assert_matches_svd(m)

    def test_components_are_the_blocks(self, solved_shapes):
        rng = np.random.default_rng(13)
        sizes = [3, 1, 4, 2, 6]
        assert_matches_svd(permuted_block_diagonal(rng, sizes, [True] * len(sizes)))
        assert solved_shapes == [(1, 1, 1), (1, 2, 2), (1, 3, 3), (1, 4, 4), (1, 6, 6)]

    def test_long_path(self, solved_shapes):
        # a permuted tridiagonal matrix is one block that is not dense, so it is solved whole
        rng = np.random.default_rng(14)
        n = 2000
        m = np.diag(rng.standard_normal(n)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        perm = rng.permutation(n)
        assert_matches_svd(m[np.ix_(perm, perm)])
        assert solved_shapes == [(1, n, n)]

    def test_blocks_that_are_not_dense_are_solved_whole(self, solved_shapes):
        rng = np.random.default_rng(17)
        sizes = [5, 7, 3, 9]
        total = sum(sizes)
        off = np.ones(total - 1)
        off[np.cumsum(sizes)[:-1] - 1] = 0.0  # no coupling across blocks
        m = np.diag(rng.standard_normal(total)) + np.diag(off, 1) + np.diag(off, -1)
        perm = rng.permutation(total)
        assert_matches_svd(m[np.ix_(perm, perm)])
        assert solved_shapes == [(1, total, total)]

    def test_zero_diagonal_clique_is_one_block(self, solved_shapes):
        clique = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert spectral_norm(clique) == pytest.approx(1.0, rel=1e-12)
        assert solved_shapes == [(1, 2, 2)]
        # each vertex's closed neighbourhood holds the vertex itself, so two cliques are two blocks
        assert spectral_norm(np.kron(np.eye(2), clique)) == pytest.approx(1.0, rel=1e-12)
        assert solved_shapes[1:] == [(2, 2, 2)]

    def test_zero_rows_and_columns(self):
        rng = np.random.default_rng(15)
        m = rng.standard_normal((40, 40)) * (rng.random((40, 40)) < 0.06)
        m[[3, 17, 30], :] = 0.0
        m[:, [5, 17, 22]] = 0.0
        assert_matches_svd(m)
        assert_matches_svd(m + m.T)
        assert spectral_norm(np.zeros((5, 5))) == 0.0

    def test_random_sparse_patterns(self):
        rng = np.random.default_rng(16)
        for density in (0.01, 0.03, 0.1, 0.5):
            for _ in range(5):
                m = rng.standard_normal((60, 60)) * (rng.random((60, 60)) < density)
                assert_matches_svd(m)
                assert_matches_svd(m + m.T)

    def test_grade_blocks_at_the_ends_of_alpha(self):
        # at alpha = 0 the out blocks, at alpha = 1 the in blocks are diagonal
        for n in (3, 4, 5):
            for a in (0.0, 1.0):
                spec = HeatMatrixSpec(n, (a,) * (n + 1))
                for r in range(n + 1):
                    assert_matches_svd(build_grade_matrix(spec, r))

    def test_grade_block_is_solved_as_its_out_and_in_blocks(self, solved_shapes):
        block = build_grade_matrix(HeatMatrixSpec(8, (0.5,) * 9), 4)
        assert block.shape == (560, 560)
        assert spectral_norm(block) == pytest.approx(grade_norm_closed_form(8, 4, 0.5), rel=1e-12)
        assert solved_shapes == [(112, 5, 5)]

    @pytest.mark.parametrize("a", [0.0, 0.37, 1.0])
    def test_every_grade_block_is_solved_as_its_closed_form_blocks(self, solved_shapes, a):
        # C(n, r + 1) out blocks of size r + 1 and C(n, r - 1) in blocks of size n - r + 1;
        # the out blocks are diagonal at alpha = 0 and the in blocks at alpha = 1, so they split into 1x1 blocks
        for n in range(2, 9):
            for r in range(n + 1):
                solved_shapes.clear()
                norm = spectral_norm(build_grade_matrix(HeatMatrixSpec(n, (a,) * (n + 1)), r))
                out = [1] * (r + 1) if a == 0.0 else [r + 1]
                inside = [1] * (n - r + 1) if a == 1.0 else [n - r + 1]
                expected = out * comb(n, r + 1) + (inside * comb(n, r - 1) if r else [])
                assert sorted(size for count, size, _ in solved_shapes for _ in range(count)) == sorted(expected)
                assert norm == pytest.approx(grade_norm_closed_form(n, r, a), rel=1e-12)


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

    @pytest.mark.parametrize("n", range(2, 7))
    def test_full_matrix_is_the_grade_blocks_scattered(self, n):
        # the per-grade np.ix_ scatter the cached full structure replaced
        rng = np.random.default_rng(n)
        spec = HeatMatrixSpec(n, tuple(rng.uniform(0.0, 1.0, n + 1)))
        want = np.zeros((n << n, n << n))
        for r in range(n + 1):
            idx = [I.mask * n + i - 1 for I, i in block_pairs(n, r)]
            want[np.ix_(idx, idx)] = build_grade_matrix(spec, r)
        assert np.array_equal(build_full_matrix(spec), want)

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

    def test_overflowing_bound_names_the_exponent(self):
        # 2 (p* - 1) is finite at p = 8e307 and overflows at 1e308
        assert bound_constants(2, 8e307).overall_bound == 1.6e308
        with pytest.raises(ValueError, match=r"overflows at p = 1e\+308"):
            bound_constants(2, 1e308)

    def test_p_star(self):
        assert bound_constants(2, 2.0).p_star == 2.0
        assert np.isclose(bound_constants(2, 4 / 3).p_star, 4.0)
        assert bound_constants(2, 4.0).p_star == 4.0

    def test_domain(self):
        with pytest.raises(ValueError):
            bound_constants(2, 1.0)
        with pytest.raises(ValueError):
            bound_constants(1, 2.0)

    def test_overall_closed_form(self):
        # the largest grade constant, at r = n // 2: n/2 + 1, less 1/(2n) for odd n
        for n in range(2, 65):
            closed = Fraction(n, 2) + 1 - Fraction(n % 2, 2 * n)
            assert bound_constants(n, 3.0).overall_constant == closed

    def test_grade_constant_formula(self):
        for n in (2, 5, 9):
            b = bound_constants(n, 3.0)
            for g in b.per_grade:
                assert g.constant == Fraction(2 * g.r * (n - g.r), n) + 1


def scaled_grade_block(n, r):
    """n A_r(1 - r/n) as a matrix of Python ints: n times D, 2(n - r) on P_r's entries, 2r on Q_r's."""
    diag, out_at, in_at, signs = _grade_structure(n, r)
    block = np.zeros((len(diag), len(diag)), dtype=object)
    block.flat[:: len(diag) + 1] = [n * int(d) for d in diag]
    block.flat[out_at] = [2 * (n - r) * int(s) for s in signs]
    block.flat[in_at] = [2 * r * int(s) for s in signs]
    return block


def optimal_spec(n):
    return HeatMatrixSpec(n, tuple(1.0 - s / n for s in range(n + 1)))


def swap_axes(z, n):
    """z with the two axis indices swapped: [(I, i), (J, j)] -> [(I, j), (J, i)]."""
    m = len(z) // n
    return z.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(z.shape)


class TestRepresentationOptimal:
    """No matrix with the symbol of A_r has a smaller norm than c_r = 2r(n - r)/n + 1.

    A_r = A_r(1 - r/n) has the three eigenvalues -c_r, mu = (n - 2r)/n and
    c_r. With P+ and P- its projectors on c_r and -c_r (by Lagrange
    interpolation on the three), Z = (r/n) P+ / C(n, r-1) - ((n-r)/n) P- /
    C(n, r+1) has nuclear norm 1 and <Z, A_r> = c_r, and it is symmetric
    under swapping the two axis indices. A matrix B whose symbol sum_{i,j}
    B[(I,i),(J,j)] xi_i xi_j vanishes is antisymmetric under that swap, so
    <Z, B> = 0, and trace duality gives ||A_r + B|| >= <Z, A_r + B> = c_r.
    """

    @pytest.mark.parametrize("n, r", [(n, r) for n in range(2, 6) for r in range(1, n)])
    def test_exact_certificate(self, n, r):
        c = bound_constants(n, 2.0).per_grade[r].constant
        a = scaled_grade_block(n, r)  # n A_r, so the products stay integers
        assert np.max(np.abs(a.astype(float) / n - build_grade_matrix(optimal_spec(n), r))) <= 1e-15
        assert (a == a.T).all()  # so the projectors are orthogonal
        eye = np.eye(len(a), dtype=int).astype(object)
        top, mid = int(n * c), n - 2 * r  # n c_r and n mu, both integers
        assert top == n * c
        up, down = (a + top * eye) @ (a - mid * eye), (a - top * eye) @ (a - mid * eye)
        assert not (up @ (a - top * eye)).any()  # no eigenvalue outside {-c_r, mu, c_r}
        # P+ = up / d_plus and P- = down / d_minus: Lagrange's weights, times n^2
        d_plus, d_minus = 2 * top * (top - mid), 2 * top * (top + mid)
        assert (up @ up == d_plus * up).all() and (down @ down == d_minus * down).all()
        assert not (up @ down).any()
        assert np.trace(up) == comb(n, r - 1) * d_plus
        assert np.trace(down) == comb(n, r + 1) * d_minus
        z = up * Fraction(r, n * comb(n, r - 1) * d_plus) - down * Fraction(n - r, n * comb(n, r + 1) * d_minus)
        assert (z == swap_axes(z, n)).all()
        # the nuclear norm: the weights of two orthogonal projectors times their ranks
        assert Fraction(r, n) + Fraction(n - r, n) == 1
        assert np.sum(z * a) / n == c

    @pytest.mark.parametrize("n", range(2, 9))
    def test_float_certificate(self, n):
        rng = np.random.default_rng(n)
        for r in range(1, n):
            c = float(bound_constants(n, 2.0).per_grade[r].constant)
            mu = (n - 2 * r) / n
            a = build_grade_matrix(optimal_spec(n), r)
            eye = np.eye(len(a))
            up, down = (a + c * eye) @ (a - mu * eye), (a - c * eye) @ (a - mu * eye)
            assert np.max(np.abs(up @ (a - c * eye))) <= 1e-12
            p_plus, p_minus = up / (2 * c * (c - mu)), down / (2 * c * (c + mu))
            assert abs(np.trace(p_plus) - comb(n, r - 1)) <= 1e-12 * comb(n, r - 1)
            assert abs(np.trace(p_minus) - comb(n, r + 1)) <= 1e-12 * comb(n, r + 1)
            z = (r / n) * p_plus / comb(n, r - 1) - ((n - r) / n) * p_minus / comb(n, r + 1)
            assert np.max(np.abs(z - swap_axes(z, n))) <= 1e-15
            assert abs(np.linalg.svd(z, compute_uv=False).sum() - 1.0) <= 1e-12
            assert abs(np.sum(z * a) - c) <= 1e-12 * c
            # a random zero-symbol B does not lower the norm
            g = rng.standard_normal(a.shape)
            b = g - swap_axes(g, n)
            assert abs(np.sum(z * b)) <= 1e-12 * np.max(np.abs(b)) * len(b)
            assert spectral_norm(a + b) >= c * (1.0 - 1e-12)


class TestConjugateExponent:
    def test_values(self):
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(4.0) == 4.0
        assert conjugate_exponent(1.5) == 3.0
        assert conjugate_exponent(4 / 3) == pytest.approx(4.0, rel=1e-15)
        assert conjugate_exponent(3) == 3.0

    @given(st.floats(1.0, 1e300, exclude_min=True))
    @example(float(np.nextafter(1.0, 2.0)))
    @example(float(np.nextafter(2.0, 1.0)))
    @example(2.0)
    @example(float(np.nextafter(2.0, 3.0)))
    def test_at_least_two(self, p):
        assert conjugate_exponent(p) >= 2.0

    @pytest.mark.parametrize("p", [1.0, 0.5, np.inf, -np.inf, np.nan])
    def test_rejects_outside_open_interval(self, p):
        with pytest.raises(ValueError, match=r"\(1, inf\)"):
            conjugate_exponent(p)
