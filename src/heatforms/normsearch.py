"""Randomized lower probe of the operator's L^p -> L^p norm.

Random band-limited fields plus hill climbing give an empirical ratio
||Tf||_p / ||f||_p; the bound constants supply the proven ceiling, so the
probe only brackets the norm from below. Three out of four evaluations
draw fresh fields on the unit torus, every fourth perturbs the incumbent
by a fresh field scaled to MUTATION_SCALE of its L^2 norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SearchError
from .fields import lp_norm, random_band_limited
from .fourier import apply_beurling_ahlfors
from .heatmatrix import bound_constants

DEGENERATE_NORM = 1e-12
MUTATION_SCALE = 0.25


@dataclass(frozen=True)
class SearchResult:
    best_ratio: float
    best_index: int
    best_kind: str  # "fresh" or "mutation"
    evaluations: int
    degenerate: int
    ceiling: float


def norm_search(n, p, dims, budget=200, seed=0, kmax=3) -> SearchResult:
    """Best observed ratio over the candidate schedule, deterministic in seed."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    rng = np.random.default_rng(seed)
    report = bound_constants(n, p)
    best_ratio = -np.inf
    best_field = None
    best_index = -1
    best_kind = "fresh"
    degenerate = 0
    for i in range(budget):
        mutate = i % 4 == 3 and best_field is not None
        fresh = random_band_limited(n, dims, 1.0, rng, kmax=kmax)
        if mutate:
            norm_best = lp_norm(best_field, 2)
            norm_fresh = lp_norm(fresh, 2)
            if norm_fresh <= DEGENERATE_NORM:
                degenerate += 1
                continue
            candidate = best_field + (MUTATION_SCALE * norm_best / norm_fresh) * fresh
            kind = "mutation"
        else:
            candidate = fresh
            kind = "fresh"
        denom = lp_norm(candidate, p)
        if denom <= DEGENERATE_NORM:
            degenerate += 1
            continue
        ratio = lp_norm(apply_beurling_ahlfors(candidate), p) / denom
        if ratio > best_ratio:
            best_ratio = ratio
            best_field = candidate
            best_index = i
            best_kind = kind
    if best_field is None:
        raise SearchError("all candidates were numerically degenerate")
    return SearchResult(
        best_ratio=float(best_ratio),
        best_index=best_index,
        best_kind=best_kind,
        evaluations=budget,
        degenerate=degenerate,
        ceiling=report.overall_bound,
    )
