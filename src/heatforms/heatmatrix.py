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
represents the same operator. This module builds the blocks, knows their
closed-form spectra, and derives the p-norm bound constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .errors import CapError
from .exterior import MultiIndex, enumerate_grade, interval_count, substitute_with_sign, substitutions

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
    subs = np.array(
        [(pos[T.mask], pos[J.mask], k, l, sign) for J in subsets for k, l, T, sign in substitutions(J)],
        dtype=int,
    ).reshape(-1, 5)
    row_s, col_s, k, l, signs = subs.T
    out_at = (row_s * n + k - 1) * size + col_s * n + l - 1
    in_at = (row_s * n + l - 1) * size + col_s * n + k - 1
    signs = signs.astype(float)
    for arr in (diag, out_at, in_at, signs):
        arr.flags.writeable = False
    return diag, out_at, in_at, signs


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


def build_full_matrix(spec: HeatMatrixSpec) -> np.ndarray:
    """Full matrix on all pairs, global index = mask * n + (axis - 1).

    Exponential in n; refuses to materialize past FULL_MATRIX_CAP_N.
    """
    n = spec.n
    if n > FULL_MATRIX_CAP_N:
        raise CapError(f"full matrix for n={n} exceeds cap n<={FULL_MATRIX_CAP_N}")
    size = n * (1 << n)
    full = np.zeros((size, size))
    for r in range(n + 1):
        block = build_grade_matrix(spec, r)
        idx = [I.mask * n + i - 1 for I, i in grade_pairs(n, r)]
        full[np.ix_(idx, idx)] = block
    return full


def out_block(i_tilde: MultiIndex, alpha: float) -> np.ndarray:
    """Block on the pairs (I_k, i_k) with I_k = i_tilde minus its k-th element.

    For ascending elements the open interval between the s-th and t-th one
    contains |t-s|-1 of them, so the off-diagonal entry at (t, s) is
    2*alpha*(-1)**(s+t+1); the diagonal is -1.
    """
    m = i_tilde.grade
    if m < 1:
        raise ValueError("indexing subset must have grade >= 1")
    block = np.empty((m, m))
    for t in range(m):
        block[t, t] = -1.0
        for s in range(t + 1, m):
            v = 2.0 * alpha * (1.0 if (s + t + 1) % 2 == 0 else -1.0)
            block[t, s] = v
            block[s, t] = v
    return block


def in_block(i_tilde: MultiIndex, alpha: float) -> np.ndarray:
    """Block on the pairs (i_tilde + i, i) for i outside i_tilde, ascending.

    Diagonal +1; off-diagonal 2*(1 - alpha) with the sign counting the
    elements of i_tilde between the two axes. Conjugation by the diagonal
    matrix of those parities turns it into the all-plus rank-one form.
    """
    n = i_tilde.n
    outside = [e for e in range(1, n + 1) if e not in i_tilde]
    m = len(outside)
    block = np.eye(m)
    for a in range(m):
        for b in range(a + 1, m):
            sign = -1.0 if interval_count(i_tilde, outside[a], outside[b]) & 1 else 1.0
            v = 2.0 * (1.0 - alpha) * sign
            block[a, b] = v
            block[b, a] = v
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

    Symmetric matrices (within 1e-12 entrywise) go through a symmetric
    eigensolve, every other matrix through an SVD.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if m.size == 0:
        return 0.0
    if m.shape[0] == m.shape[1] and np.max(np.abs(m - m.T)) <= 1e-12:
        return float(np.max(np.abs(np.linalg.eigvalsh(m))))
    return float(np.linalg.norm(m, 2))


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
