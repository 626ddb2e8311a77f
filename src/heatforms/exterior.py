"""Subset calculus for exterior-algebra basis indexing.

Basis vectors of the exterior algebra over R^n are labelled by subsets of
{1, ..., n}. A subset is stored as a bit mask: bit b set means element b+1
is present. All enumeration is in ascending mask order, which fixes the
row/column layout of every matrix built elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .fields import _frozen


@dataclass(frozen=True)
class MultiIndex:
    """A subset of {1, ..., n} naming one basis vector."""

    mask: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ambient dimension must be nonnegative")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(
                f"mask {self.mask:#b} has elements outside {{1, ..., {self.n}}}"
            )

    @classmethod
    def from_elements(cls, elements, n):
        mask = 0
        for e in elements:
            _check_element(n, e)
            mask |= 1 << (e - 1)
        return cls(mask, n)

    @property
    def grade(self) -> int:
        return self.mask.bit_count()

    def elements(self) -> tuple[int, ...]:
        return tuple(b + 1 for b in range(self.n) if self.mask >> b & 1)

    def __contains__(self, element) -> bool:
        return 1 <= element <= self.n and bool(self.mask >> (element - 1) & 1)

    def __repr__(self):
        return f"MultiIndex({{{', '.join(map(str, self.elements()))}}}, n={self.n})"


@lru_cache(maxsize=128)
def _subsets(n: int, r: int | None) -> tuple[MultiIndex, ...]:
    """Grade-r subsets from their C(n, r) combinations (all 2^n for r None), ascending mask; cached, frozen."""
    masks = range(1 << n) if r is None else sorted(sum(1 << b for b in c) for c in combinations(range(n), r))
    return tuple(MultiIndex(m, n) for m in masks)


def enumerate_grade(n: int, r: int) -> list[MultiIndex]:
    """All grade-r subsets of {1, ..., n}, in ascending mask order (a new list per call)."""
    if not 0 <= r <= n:
        raise ValueError(f"grade {r} outside [0, {n}]")
    return list(_subsets(n, r))


def enumerate_all(n: int) -> list[MultiIndex]:
    """All 2^n subsets in ascending mask order (mixed grades; a new list per call)."""
    return list(_subsets(n, None))


def interval_count(K: MultiIndex, k: int, l: int) -> int:
    """Number of elements of K strictly between k and l."""
    _check_element(K.n, k)
    _check_element(K.n, l)
    if k == l:
        raise ValueError("endpoints must differ")
    lo, hi = min(k, l), max(k, l)
    # bits for elements lo+1 .. hi-1
    between = ((1 << (hi - 1)) - 1) & ~((1 << lo) - 1)
    return (K.mask & between).bit_count()


def substitute_with_sign(K: MultiIndex, k: int, l: int) -> tuple[MultiIndex, int]:
    """Replace k by l inside K, with the reordering sign.

    The wedge factor e_l lands in the slot of e_k; sorting it into place
    costs one transposition per element of K strictly between k and l, so
    the sign is (-1)**interval_count(K, k, l).
    """
    if k not in K:
        raise ValueError(f"element {k} not in {K}")
    if l in K:
        raise ValueError(f"element {l} already in {K}")
    sign = -1 if interval_count(K, k, l) & 1 else 1
    new_mask = (K.mask & ~(1 << (k - 1))) | (1 << (l - 1))
    return MultiIndex(new_mask, K.n), sign


def substitutions(K: MultiIndex) -> list[tuple[int, int, MultiIndex, int]]:
    """Every single substitution out of K, as (k, l, K\\k+l, sign).

    One entry per k in K and l outside K, k ascending, then l ascending;
    target and sign come from substitute_with_sign. Every structured
    matrix of the package (heat-matrix blocks, the dense symbol, the
    sigma-projection) reads its off-diagonal entries from _substitution_table.
    """
    outside = [l for l in range(1, K.n + 1) if l not in K]
    return [(k, l, *substitute_with_sign(K, k, l)) for k in K.elements() for l in outside]


@lru_cache(maxsize=16)
def _substitution_table(n: int) -> tuple[np.ndarray, ...]:
    """(source, k - 1, l - 1, target, sign) read-only int arrays: substitutions(K), K ascending by mask."""
    rows = [(K.mask, k - 1, l - 1, T.mask, sign) for K in _subsets(n, None) for k, l, T, sign in substitutions(K)]
    return tuple(_frozen(a) for a in np.array(rows, dtype=int).reshape(-1, 5).T)


def wedge_reorder_oracle(seq, n: int) -> tuple[MultiIndex, int]:
    """Sort a wedge of distinct factors; sign is the inversion parity.

    Brute-force reference used by the tests against substitute_with_sign.
    A repeated factor makes the wedge zero and is rejected here.
    """
    elems = list(seq)
    if len(set(elems)) != len(elems):
        raise ValueError("repeated wedge factor (degenerate wedge)")
    inversions = sum(
        1
        for a in range(len(elems))
        for b in range(a + 1, len(elems))
        if elems[a] > elems[b]
    )
    return MultiIndex.from_elements(elems, n), (-1 if inversions & 1 else 1)


def _check_element(n, e):
    if not 1 <= e <= n:
        raise ValueError(f"element {e} outside {{1, ..., {n}}}")
