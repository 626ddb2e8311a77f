"""Direction-projected matrices and large-p asymptotic constants.

Projecting the form index of the heat matrix onto a unit vector sigma of
the 2^n-dimensional coefficient space leaves an n x (n 2^n) matrix whose
norm stays bounded by sqrt(sum_I sigma_I^2 (1 + #I * #I^c)), at most
sqrt((n/2)^2 + 1) for even n and sqrt((n/2)^2 + 3/4) for odd n. Dividing
by the p-norm of a sphere coordinate converts this into an asymptotic
operator bound of order that constant times (p - 1).

The symmetric weight 1/2 is hard-wired here; projection makes the weight
split collapse anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, sqrt

import numpy as np

from .exterior import MultiIndex, substitutions
from .heatmatrix import conjugate_exponent


@dataclass(frozen=True)
class UnitDirection:
    """Unit vector over all subsets, indexed by ascending mask."""

    sigma: np.ndarray
    n: int

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "sigma", sigma)
        if sigma.shape != (1 << self.n,):
            raise ValueError(f"need 2^{self.n} coefficients")
        if abs(float(sigma @ sigma) - 1.0) > 1e-12:
            raise ValueError("coefficients must have unit length")


def random_direction(n, rng) -> UnitDirection:
    vec = rng.standard_normal(1 << n)
    return UnitDirection(vec / np.linalg.norm(vec), n)


def _column_group(sigma, J: MultiIndex) -> np.ndarray:
    """The n x n block of the projection on the columns (J, 1..n).

    sigma_J times +1 (axis in J) or -1 on the diagonal, and for each
    substitution J -> T = J\\k+l the entry sigma_T * sign at (k, l) and
    at (l, k).
    """
    block = np.diag([sigma[J.mask] * (1.0 if i in J else -1.0) for i in range(1, J.n + 1)])
    for k, l, T, sign in substitutions(J):
        block[k - 1, l - 1] = block[l - 1, k - 1] = sigma[T.mask] * sign
    return block


def sigma_dot_matrix(direction: UnitDirection) -> np.ndarray:
    """n x (n 2^n) projection; columns ordered (mask ascending, then axis)."""
    n = direction.n
    return np.hstack([_column_group(direction.sigma, MultiIndex(mask, n)) for mask in range(1 << n)])


def sigma_block(direction: UnitDirection, J: MultiIndex):
    """The n x n sub-matrix of one column group and its exact norm.

    In the basis that lists the axes inside J first, the block is
    [[sigma_J I, S], [S^T, -sigma_J I]] with S the substitution pattern;
    squaring it shows the norm is sqrt(sigma_J^2 + ||S||^2) exactly.
    Returns the block in natural axis order together with that value.
    """
    n = direction.n
    sigma = direction.sigma
    block = _column_group(sigma, J)
    inside = [e - 1 for e in J.elements()]
    outside = [e for e in range(n) if e + 1 not in J]
    cross = block[np.ix_(inside, outside)]
    cross_norm = np.linalg.svd(cross, compute_uv=False)[0] if cross.size else 0.0
    norm = sqrt(float(sigma[J.mask]) ** 2 + float(cross_norm) ** 2)
    return block, norm


def aggregate_bound(direction: UnitDirection) -> float:
    """sqrt(sum_I sigma_I^2 (1 + #I * #I^c)), an upper bound on the norm."""
    n = direction.n
    weights = np.array([m.bit_count() * (n - m.bit_count()) for m in range(1 << n)])
    return float(np.sqrt(np.sum(direction.sigma**2 * (1.0 + weights))))


def asymptotic_constant(n: int) -> float:
    """Largest aggregate bound: sqrt(1 + floor(n/2) * ceil(n/2))."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return sqrt(1.0 + (n // 2) * ((n + 1) // 2))


def sphere_coordinate_lp_norm(N: int, p: float) -> float:
    """L^p norm of one coordinate on the unit sphere of R^N.

    The squared coordinate is Beta(1/2, (N-1)/2) distributed, so the p-th
    moment is a ratio of Gamma values; evaluated through log-Gamma to stay
    finite for large p. Increases to 1 as p grows.
    """
    if N < 2:
        raise ValueError("need an ambient dimension of at least 2")
    p = float(p)
    if p < 1:
        raise ValueError("exponent must be >= 1")
    try:
        log_moment = lgamma((p + 1.0) / 2.0) + lgamma(N / 2.0) - lgamma((N + p) / 2.0) - lgamma(0.5)
    except OverflowError:
        raise ValueError(f"exponent {p} overflows log-Gamma") from None
    return float(np.exp(log_moment / p))


def asymptotic_bound(n: int, p: float) -> float:
    """Large-p operator bound: constant * (p* - 1) / sphere coordinate norm."""
    p_star = conjugate_exponent(p)
    return asymptotic_constant(n) * (p_star - 1.0) / sphere_coordinate_lp_norm(1 << n, p)
