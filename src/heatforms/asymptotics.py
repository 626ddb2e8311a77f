"""Direction-projected matrices and large-p asymptotic constants.

Projecting the form index of the heat matrix onto a unit vector sigma of
the 2^n-dimensional coefficient space leaves an n x (n 2^n) matrix whose
norm stays bounded by sqrt(sum_I sigma_I^2 (1 + #I * #I^c)), at most
sqrt((n/2)^2 + 1) for even n and sqrt((n/2)^2 + 3/4) for odd n. Dividing
by the p-norm of a sphere coordinate converts this into an asymptotic
operator bound of order that constant times (p - 1).

The symmetric weight 1/2 is hard-wired here; projection makes the weight
split collapse anyway.

One index plan per n (_projection_plan), read from exterior's table of
every substitution, places every entry sigma[source] * sign; grouped by
column group, it makes the projection one flat assignment and a group's
block one slice. It spans the full matrix's columns and shares its cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, log, log1p, sqrt

import numpy as np

from .errors import CapError
from .exterior import MultiIndex, _substitution_table
from .fields import _frozen
from .heatmatrix import FULL_MATRIX_CAP_N, conjugate_exponent


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
        if not abs(float(sigma @ sigma) - 1.0) <= 1e-12:  # nan fails this too
            raise ValueError("coefficients must have unit length")


def random_direction(n, rng) -> UnitDirection:
    vec = rng.standard_normal(1 << n)
    return UnitDirection(vec / np.linalg.norm(vec), n)


@lru_cache(maxsize=16)
def _projection_plan(n: int):
    """(at, local, src, signs, start): sigma[src] * signs at flat positions at
    (local in a group's block); group J is start[J]:start[J + 1], its diagonal,
    then (k, l) per substitution J -> J\\k+l (S row by row), then (l, k)."""
    if n > FULL_MATRIX_CAP_N:
        raise CapError(f"projection for n={n} exceeds cap n<={FULL_MATRIX_CAP_N}")
    source, k, l, target, sign = _substitution_table(n)
    mask, axis = np.divmod(np.arange(n << n), n)
    diagonal = (axis, axis, mask, mask, 2 * (mask >> axis & 1) - 1)
    entries = np.concatenate([diagonal, (k, l, source, target, sign), (l, k, source, target, sign)], axis=1)
    row, col, group, src, signs = entries[:, np.argsort(entries[2], kind="stable")]
    at = row * (n << n) + group * n + col
    start = np.searchsorted(group, np.arange((1 << n) + 1))
    return tuple(_frozen(a) for a in (at, row * n + col, src, signs.astype(float), start))


def sigma_dot_matrix(direction: UnitDirection) -> np.ndarray:
    """n x (n 2^n) projection; columns ordered (mask ascending, then axis)."""
    at, _, src, signs, _ = _projection_plan(direction.n)
    m = np.zeros((direction.n, direction.n << direction.n))
    np.put(m, at, direction.sigma[src] * signs)
    return m


def sigma_block(direction: UnitDirection, J: MultiIndex):
    """The n x n sub-matrix of one column group and its exact norm.

    In the basis that lists the axes inside J first, the block is
    [[sigma_J I, S], [S^T, -sigma_J I]] with S the substitution pattern;
    squaring it shows the norm is sqrt(sigma_J^2 + ||S||^2) exactly.
    ||S|| is 0 for an empty S and the length of a single row or column.
    Returns the block in natural axis order together with that value.
    """
    n = direction.n
    if J.n != n:
        raise ValueError(f"subset of {{1, ..., {J.n}}} for a direction in dimension {n}")
    _, local, src, signs, start = _projection_plan(n)
    group = slice(start[J.mask], start[J.mask + 1])
    values = direction.sigma[src[group]] * signs[group]
    block = np.zeros((n, n))
    np.put(block, local[group], values)
    m = J.grade
    cross = values[n : n + m * (n - m)].reshape(m, n - m)
    cross_norm = np.linalg.svd(cross, compute_uv=False)[0] if min(m, n - m) > 1 else np.linalg.norm(cross)
    return block, sqrt(float(direction.sigma[J.mask]) ** 2 + float(cross_norm) ** 2)


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
    finite for large p. Past N/2 = 256 the difference of lgamma(N/2) and
    lgamma((N+p)/2), which would lose about N/2 ulps, is taken from
    Stirling's series with log1p, exact to rounding there. Increases to 1
    as p grows.
    """
    if N < 2:
        raise ValueError("need an ambient dimension of at least 2")
    p = float(p)
    if p < 1:
        raise ValueError("exponent must be >= 1")
    try:
        a, b = N / 2.0, p / 2.0
    except OverflowError:
        raise ValueError(f"ambient dimension N >= 2**{N.bit_length() - 1} is not a finite double") from None
    try:
        if a < 256.0:
            log_moment = lgamma((p + 1.0) / 2.0) + lgamma(a) - lgamma(a + b) - lgamma(0.5)
        else:  # lgamma(x) = (x - 1/2) log x - x + log(2 pi) / 2 + 1/(12x) - 1/(360x^3) + ...
            tail = [(1.0 - 1.0 / (30.0 * x * x)) / (12.0 * x) for x in (a, a + b)]
            gap = b - (a - 0.5) * log1p(b / a) - b * log(a + b) + tail[0] - tail[1]
            log_moment = lgamma((p + 1.0) / 2.0) + gap - lgamma(0.5)
    except OverflowError:
        raise ValueError(f"exponent {p} overflows log-Gamma") from None
    return float(np.exp(log_moment / p))


def asymptotic_bound(n: int, p: float) -> float:
    """Large-p operator bound: constant * (p* - 1) / sphere coordinate norm."""
    p_star = conjugate_exponent(p)
    if n >= 1024:  # 2^n is no double; checked before 1 << n, which fills n/8 bytes or overflows
        raise ValueError(f"ambient dimension 2**{n} is not a finite double")
    return asymptotic_constant(n) * (p_star - 1.0) / sphere_coordinate_lp_norm(1 << n, p)
