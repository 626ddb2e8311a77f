"""Heat-representation matrix of the Beurling-Ahlfors operator.

The operator on form-valued fields admits a bilinear representation
against gradients of heat extensions; the representing object is a single
constant matrix acting on pairs (subset I, axis i). The matrix splits into
independent blocks per grade r, each block a combination

    A_r(alpha) = D + 2*alpha*P_r + 2*(1 - alpha)*Q_r,

where D is the diagonal (+1 on pairs with i in I, -1 otherwise) and P_r,
Q_r are signed substitution patterns: each substitution J -> J\\k+l of
exterior.substitutions puts its sign into P_r at (J\\k+l, k; J, l) and
into Q_r at (J\\k+l, l; J, k). A block, and the full matrix, is cached as
those positions and signs, read from exterior's table of every
substitution, and only the dense matrix for given weights is
materialized. The weight alpha in [0, 1] is free: every choice
represents the same operator.

Up to a permutation each grade block is a direct sum of small blocks:
one out block of size r + 1 per subset of grade r + 1 (the pairs with
i outside I) and one in block of size n - r + 1 per subset of grade
r - 1 (the pairs with i in I). spectral_norm reads such a splitting off
the closed neighbourhoods of a matrix's nonzero pattern and solves the
blocks instead of the whole matrix (any other square matrix is solved
whole). This module builds the blocks, knows their closed-form spectra,
and derives the p-norm bound constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .errors import CapError
from .exterior import MultiIndex, _substitution_table, enumerate_grade, substitute_with_sign
from .fields import _frozen

GRADE_BLOCK_CAP = 10_000  # max rows of one grade block
FULL_MATRIX_CAP_N = 10  # max dimension for materializing the full matrix


@dataclass(frozen=True)
class HeatMatrixSpec:
    """Dimension n plus one coupling weight per grade."""

    n: int
    alpha: tuple[float, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        if len(self.alpha) != self.n + 1:
            raise ValueError(f"need {self.n + 1} weights, got {len(self.alpha)}")
        if any(not 0.0 <= a <= 1.0 for a in self.alpha):
            raise ValueError("every weight must lie in [0, 1]")


def entry(I: MultiIndex, i: int, J: MultiIndex, j: int, alpha: float) -> float:
    """Single matrix entry at position (I, i; J, j).

    Diagonal pairs contribute +1 when i is in I and -1 otherwise. A pair of
    subsets one substitution apart contributes 2*alpha (element moved out
    of J) or 2*(1 - alpha) (element moved into J), times the reordering
    sign. alpha is per call, so a caller may vary it per triplet; the rest
    of the package only ever uses one alpha per grade.
    """
    if I.n != J.n:
        raise ValueError("subsets live in different ambient dimensions")
    if not (1 <= i <= I.n and 1 <= j <= J.n):
        raise ValueError("axis index out of range")
    val = 0.0
    if I == J and i == j:
        val += 1.0 if i in I else -1.0
    if i in J and j not in J:
        target, sign = substitute_with_sign(J, i, j)
        if I == target:
            val += 2.0 * alpha * sign
    if i not in J and j in J:
        target, sign = substitute_with_sign(J, j, i)
        if I == target:
            val += 2.0 * (1.0 - alpha) * sign
    return val


@lru_cache(maxsize=64)
def _grade_structure(n: int, r: int):
    """Alpha-free skeleton of the grade-r block as index arrays.

    Returns (diag, out_at, in_at, signs): the diagonal D, and for each
    substitution J -> T = J\\k+l the flat positions in the block of its
    P entry (row (T, k), column (J, l)) and its Q entry (row (T, l),
    column (J, k)), both carrying its reordering sign.
    """
    source, k, l, target, signs = _substitution_table(n)
    in_grade = np.bitwise_count(np.arange(1 << n)) == r
    rank = np.cumsum(in_grade) - 1  # a grade-r mask's position among them
    masks = np.flatnonzero(in_grade)
    size = len(masks) * n
    diag = (2.0 * (masks[:, None] >> np.arange(n) & 1) - 1.0).reshape(-1)
    sub = in_grade[source]
    row_s, col_s, k, l = rank[target[sub]], rank[source[sub]], k[sub], l[sub]
    out_at = (row_s * n + k) * size + col_s * n + l
    in_at = (row_s * n + l) * size + col_s * n + k
    return tuple(_frozen(a) for a in (diag, out_at, in_at, signs[sub].astype(float)))


def build_grade_matrix(spec: HeatMatrixSpec, r: int) -> np.ndarray:
    """Dense grade-r block, rows (I, i) by ascending mask of I, then axis i; refused past the cap for every r."""
    if not 0 <= r <= spec.n:
        raise ValueError(f"grade {r} outside [0, {spec.n}]")
    size = spec.n * comb(spec.n, spec.n // 2)
    if size > GRADE_BLOCK_CAP:
        raise CapError(f"largest grade block of size {size} exceeds cap {GRADE_BLOCK_CAP}")
    diag, out_at, in_at, signs = _grade_structure(spec.n, r)
    a = spec.alpha[r]
    block = np.diag(diag)
    np.put(block, out_at, 2.0 * a * signs)
    np.put(block, in_at, 2.0 * (1.0 - a) * signs)
    return block


@lru_cache(maxsize=16)
def _full_structure(n: int):
    """(at, scale, signs): every substitution's P and Q entries in the full matrix.

    Entry e is signs[e] times [2 alpha_0 .. 2 alpha_n, 2 (1 - alpha_0) .. 2 (1 - alpha_n)][scale[e]].
    """
    source, k, l, target, signs = _substitution_table(n)
    grade = np.bitwise_count(source).astype(int)
    rows, cols = target * n, source * n
    at = np.concatenate([(rows + k) * (n << n) + cols + l, (rows + l) * (n << n) + cols + k])
    return tuple(_frozen(a) for a in (at, np.concatenate([grade, n + 1 + grade]), np.concatenate([signs, signs])))


def build_full_matrix(spec: HeatMatrixSpec) -> np.ndarray:
    """Full matrix on all pairs, global index = mask * n + (axis - 1).

    Exponential in n; refuses to materialize past FULL_MATRIX_CAP_N.
    """
    n = spec.n
    if n > FULL_MATRIX_CAP_N:
        raise CapError(f"full matrix for n={n} exceeds cap n<={FULL_MATRIX_CAP_N}")
    at, scale, signs = _full_structure(n)
    scales = 2.0 * np.array([*spec.alpha, *(1.0 - a for a in spec.alpha)], dtype=float)
    full = np.diag(2.0 * (np.arange(1 << n)[:, None] >> np.arange(n) & 1).reshape(-1) - 1.0)
    np.put(full, at, scales[scale] * signs)
    return full


@lru_cache(maxsize=1024)
def _parity_outer(exponents: tuple[int, ...]) -> np.ndarray:
    """e e^T with e_a = (-1)**exponents[a]; read-only, callers scale a copy."""
    e = (-1.0) ** np.array(exponents, dtype=float)
    return _frozen(np.outer(e, e))


def out_block(i_tilde: MultiIndex, alpha: float) -> np.ndarray:
    """Block on the pairs (I_k, i_k) with I_k = i_tilde minus its k-th element.

    For ascending elements the open interval between the s-th and t-th one
    contains |t-s|-1 of them, so the off-diagonal entry at (t, s) is
    -2*alpha*e_t*e_s with e_t = (-1)**t; the diagonal is -1.
    """
    m = i_tilde.grade
    if m < 1:
        raise ValueError("indexing subset must have grade >= 1")
    block = (-2.0 * alpha) * _parity_outer(tuple(range(m)))
    np.fill_diagonal(block, -1.0)
    return block


def in_block(i_tilde: MultiIndex, alpha: float) -> np.ndarray:
    """Block on the pairs (i_tilde + i, i) for i outside i_tilde, ascending.

    Diagonal +1; off-diagonal 2*(1 - alpha)*e_a*e_b. The elements of i_tilde
    between the a-th and b-th outside axes number outside[b] - outside[a]
    - (b - a), so e_a = (-1)**(outside[a] - a) carries their parity, and
    conjugation by diag(e) turns the block into the all-plus rank-one form.
    """
    outside = [x for x in range(1, i_tilde.n + 1) if not i_tilde.mask >> (x - 1) & 1]
    block = (2.0 * (1.0 - alpha)) * _parity_outer(tuple(x - a for a, x in enumerate(outside)))
    np.fill_diagonal(block, 1.0)
    return block


def closed_form_spectrum(kind: str, n: int, r: int, alpha: float) -> np.ndarray:
    """Eigenvalue multiset of an out/in block, sorted ascending.

    out (size r+1): -(2*alpha*r + 1) once, 2*alpha - 1 with multiplicity r.
    in (size n-r+1): 2*(1-alpha)*(n-r) + 1 once, 2*alpha - 1 otherwise.
    """
    if kind == "out":
        if not 0 <= r <= n - 1:
            raise ValueError("out blocks exist for grades 0..n-1")
        vals = [-(2.0 * alpha * r + 1.0)] + [2.0 * alpha - 1.0] * r
    elif kind == "in":
        if not 1 <= r <= n:
            raise ValueError("in blocks exist for grades 1..n")
        vals = [2.0 * (1.0 - alpha) * (n - r) + 1.0] + [2.0 * alpha - 1.0] * (n - r)
    else:
        raise ValueError(f"unknown block kind {kind!r}")
    return np.sort(np.asarray(vals))


def grade_norm_closed_form(n: int, r: int, alpha: float) -> float:
    """Spectral norm of the grade-r block.

    Equals max(2*alpha*r + 1, 2*(1-alpha)*(n-r) + 1) when both block types
    occur (0 < r < n); at the edge grades only one type exists and the
    other expression does not apply.
    """
    vals = []
    if r < n:
        vals.append(2.0 * alpha * r + 1.0)
    if r > 0:
        vals.append(2.0 * (1.0 - alpha) * (n - r) + 1.0)
    return max(vals)


def spectral_norm(matrix) -> float:
    """Largest singular value, exact to rounding.

    A square matrix that is a permuted direct sum of dense blocks is
    solved by its blocks: each vertex of the pattern of m + m^T + I is
    labelled by the first vertex of its closed neighbourhood, which is its
    block exactly when every neighbourhood equals its label's. The blocks
    of one size are solved together by one batched SVD. Any other square
    matrix (a tridiagonal one, say) is solved whole: exact, but at full
    size. A non-square matrix goes through one SVD.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if m.size == 0:
        return 0.0
    if m.shape[0] != m.shape[1]:
        return float(np.linalg.norm(m, 2))
    pattern = m != 0.0
    pattern = pattern | pattern.T
    np.fill_diagonal(pattern, True)
    label = pattern.argmax(axis=1)  # the first vertex of each closed neighbourhood
    if not np.array_equal(pattern[label], pattern):
        label[:] = 0  # some block is not dense: one block
    del pattern
    size_of = np.bincount(label)[label]
    order = np.lexsort((label, size_of))  # by block size, then block; rows ascending within
    per_size = np.bincount(size_of)
    best = 0.0
    start = 0
    for size in np.flatnonzero(per_size):
        idx = order[start : start + per_size[size]].reshape(-1, size)
        start += per_size[size]
        blocks = m[idx[:, :, None], idx[:, None, :]]
        best = max(best, np.max(np.linalg.svd(blocks, compute_uv=False)[:, 0]))
    return float(best)


def conjugate_exponent(p: float) -> float:
    """p* = max(p, p/(p-1)), the exponent every p-norm bound scales with.

    Raises ValueError for p outside (1, inf), including inf and nan.
    """
    p = float(p)
    if not 1.0 < p < np.inf:
        raise ValueError("exponent must lie in (1, inf)")
    return max(p, p / (p - 1.0))


@dataclass(frozen=True)
class GradeBound:
    """Optimal weight and norm constant of one grade."""

    r: int
    alpha_star: Fraction
    constant: Fraction


@dataclass(frozen=True)
class BoundReport:
    """Norm-bound constants for dimension n and exponent p."""

    p_star: float
    per_grade: tuple[GradeBound, ...]
    overall_constant: Fraction
    overall_bound: float


def bound_constants(n: int, p: float) -> BoundReport:
    """Per-grade and overall bound constants, exact as rationals.

    Each block norm max(2ar+1, 2(1-a)(n-r)+1) is minimized where the two
    expressions meet, a = 1 - r/n, giving the grade constant
    2r(n-r)/n + 1. No other representation does better: A_r + B, for any
    B whose symbol sum_{i,j} B[(I,i),(J,j)] xi_i xi_j vanishes, has norm
    at least 2r(n-r)/n + 1, by a dual certificate symmetric in the two
    axis indices (tests/test_heatmatrix.py::TestRepresentationOptimal,
    exact for n <= 5). The overall constant is the maximum over grades:
    n/2 + 1 for even n, n/2 + 1 - 1/(2n) for odd n. The operator norm is
    then bounded by constant * (p* - 1) with p* = max(p, p/(p-1)); a
    ValueError names p when that product overflows.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    p_star = conjugate_exponent(p)
    per_grade = tuple(
        GradeBound(r, Fraction(n - r, n), Fraction(2 * r * (n - r), n) + 1)
        for r in range(n + 1)
    )
    overall = max(g.constant for g in per_grade)
    overall_bound = float(overall) * (p_star - 1.0)
    if overall_bound == np.inf:
        raise ValueError(f"the bound {overall} * (p* - 1) overflows at p = {p}")
    return BoundReport(p_star=p_star, per_grade=per_grade, overall_constant=overall, overall_bound=overall_bound)
