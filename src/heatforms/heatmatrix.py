"""Heat-representation matrix of the Beurling-Ahlfors operator.

The operator on form-valued fields admits a bilinear representation
against gradients of heat extensions; the representing object is a single
constant matrix acting on pairs (subset I, axis i). The matrix splits into
independent blocks per grade r, each block a combination

    A_r(alpha) = D + 2*alpha*P_r + 2*(1 - alpha)*Q_r,

where D is the diagonal (+1 on pairs with i in I, -1 otherwise) and P_r,
Q_r are signed substitution patterns: each substitution J -> J\\k+l of
exterior.substitutions puts its sign into P_r at (J\\k+l, k; J, l) and
into Q_r at (J\\k+l, l; J, k). A block is cached as those positions and
signs, a few per row, and only the dense block for a given alpha is
materialized. The weight alpha in [0, 1] is free: every choice
represents the same operator.

Up to a permutation each grade block is a direct sum of small blocks:
one out block of size r + 1 per subset of grade r + 1 (the pairs with
i outside I) and one in block of size n - r + 1 per subset of grade
r - 1 (the pairs with i in I). spectral_norm finds such a splitting in
any square matrix, as the connected components of its nonzero pattern,
and solves the blocks instead of the whole matrix. This module builds
the blocks, knows their closed-form spectra, and derives the p-norm
bound constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .errors import CapError
from .exterior import MultiIndex, enumerate_grade, substitute_with_sign, substitutions
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


def grade_pairs(n: int, r: int) -> list[tuple[MultiIndex, int]]:
    """Row/column order of a grade block: subsets ascending, then axis."""
    return [(I, i) for I in enumerate_grade(n, r) for i in range(1, n + 1)]


@lru_cache(maxsize=64)
def _grade_structure(n: int, r: int):
    """Alpha-free skeleton of the grade-r block as index arrays.

    Returns (diag, out_at, in_at, signs): the diagonal D, and for each
    substitution J -> T = J\\k+l the flat positions in the block of its
    P entry (row (T, k), column (J, l)) and its Q entry (row (T, l),
    column (J, k)), both carrying its reordering sign.
    """
    subsets = enumerate_grade(n, r)
    pos = {I.mask: idx for idx, I in enumerate(subsets)}
    size = len(subsets) * n
    diag = np.array([1.0 if i in J else -1.0 for J in subsets for i in range(1, n + 1)])
    subs = [(pos[T.mask], pos[J.mask], k, l, sign) for J in subsets for k, l, T, sign in substitutions(J)]
    row_s, col_s, k, l, signs = np.array(subs, dtype=int).reshape(-1, 5).T
    out_at = (row_s * n + k - 1) * size + col_s * n + l - 1
    in_at = (row_s * n + l - 1) * size + col_s * n + k - 1
    return tuple(_frozen(a) for a in (diag, out_at, in_at, signs.astype(float)))


def build_grade_matrix(spec: HeatMatrixSpec, r: int) -> np.ndarray:
    """Dense grade-r block, rows/columns in grade_pairs order."""
    if not 0 <= r <= spec.n:
        raise ValueError(f"grade {r} outside [0, {spec.n}]")
    size = spec.n * comb(spec.n, r)
    if size > GRADE_BLOCK_CAP:
        raise CapError(f"grade block of size {size} exceeds cap {GRADE_BLOCK_CAP}")
    diag, out_at, in_at, signs = _grade_structure(spec.n, r)
    a = spec.alpha[r]
    block = np.diag(diag)
    np.put(block, out_at, 2.0 * a * signs)
    np.put(block, in_at, 2.0 * (1.0 - a) * signs)
    return block


@lru_cache(maxsize=16)
def _full_structure(n: int):
    """(at, scale, signs): every grade structure's P and Q entries in the full matrix.

    Entry e is signs[e] times [2 alpha_0 .. 2 alpha_n, 2 (1 - alpha_0) .. 2 (1 - alpha_n)][scale[e]].
    """
    parts = []
    for r in range(n + 1):
        _, out_at, in_at, signs = _grade_structure(n, r)
        idx = np.array([I.mask * n + i - 1 for I, i in grade_pairs(n, r)])
        for local, scale in ((out_at, r), (in_at, n + 1 + r)):
            rows, cols = np.divmod(local, len(idx))
            parts.append((idx[rows] * (n << n) + idx[cols], np.full(len(local), scale), signs))
    return tuple(_frozen(np.concatenate(a)) for a in zip(*parts))


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
    signs = np.outer(e, e)
    signs.flags.writeable = False
    return signs


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


def _components(pattern: np.ndarray) -> np.ndarray:
    """Component label of every vertex of a symmetric boolean adjacency.

    The nonzero pairs are listed once (a flat nonzero, which is far
    cheaper than a 2-d one). Each round gives every vertex the smallest
    label in its closed neighbourhood (its own label included, so the
    diagonal need not be set), hooks its old root onto that label and
    jumps pointers until every vertex points at a root. Labels only
    decrease and always name a vertex of the same component, so at the
    fixed point each component carries the index of its first vertex.
    """
    rows, cols = np.divmod(np.flatnonzero(pattern), pattern.shape[0])
    label = np.arange(pattern.shape[0])
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        if np.array_equal(low, label):
            return label
        np.minimum.at(label, label.copy(), low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def spectral_norm(matrix) -> float:
    """Largest singular value, exact to rounding.

    A square matrix is solved by components: rows and columns are grouped
    into the connected components of the nonzero pattern of m + m^T, which
    makes the permuted matrix block diagonal, so its singular values are
    the union of its diagonal blocks'. The blocks of one size are solved
    together: those symmetric within 1e-12 entrywise by a batched
    symmetric eigensolve, the others by a batched SVD. A non-square
    matrix goes through one SVD.
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
    label = _components(pattern)
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
        sym = np.max(np.abs(blocks - blocks.transpose(0, 2, 1)), axis=(1, 2)) <= 1e-12
        if np.any(sym):
            best = max(best, np.max(np.abs(np.linalg.eigvalsh(blocks[sym]))))
        if not np.all(sym):
            best = max(best, np.max(np.linalg.svd(blocks[~sym], compute_uv=False)[:, 0]))
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

    n: int
    p: float
    p_star: float
    per_grade: tuple[GradeBound, ...]
    overall_constant: Fraction
    overall_bound: float


def bound_constants(n: int, p: float) -> BoundReport:
    """Per-grade and overall bound constants, exact as rationals.

    Each block norm max(2ar+1, 2(1-a)(n-r)+1) is minimized where the two
    expressions meet, a = 1 - r/n, giving the grade constant
    2r(n-r)/n + 1. The overall constant is the maximum over grades:
    n/2 + 1 for even n, n/2 + 1 - 1/(2n) for odd n. The operator norm is
    then bounded by constant * (p* - 1) with p* = max(p, p/(p-1)).
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    p = float(p)
    p_star = conjugate_exponent(p)
    if not p_star >= 2.0:
        raise RuntimeError(f"conjugate exponent {p_star} below 2 for p={p}")
    per_grade = tuple(
        GradeBound(r, Fraction(n - r, n), Fraction(2 * r * (n - r), n) + 1)
        for r in range(n + 1)
    )
    overall = max(g.constant for g in per_grade)
    closed = Fraction(n, 2) + 1 - (Fraction(1, 2 * n) if n % 2 else 0)
    if overall != closed:
        raise RuntimeError(f"overall constant {overall} differs from the closed form {closed}")
    return BoundReport(
        n=n,
        p=p,
        p_star=p_star,
        per_grade=per_grade,
        overall_constant=overall,
        overall_bound=float(overall) * (p_star - 1.0),
    )
