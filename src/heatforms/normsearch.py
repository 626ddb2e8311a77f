"""Randomized lower probe of the operator's L^p -> L^p norm.

Random band-limited fields plus hill climbing give an empirical ratio
||Tf||_p / ||f||_p; the bound constants supply the proven ceiling, so the
probe only brackets the norm from below. Three out of four evaluations
draw fresh fields on the unit torus, every fourth perturbs the incumbent
by a fresh field scaled to MUTATION_SCALE of its L^2 norm.

Candidates come in chunks whose f and Tf hold at most fields.CHUNK_SAMPLES
samples (at least one candidate; psw_integral's node batches share the
cap): twice it raised peak RSS by 2 MB at 64^2 and was no faster. Band
spectra (fields._band_spectrum) and a reflected copy (fourier._reflect_box)
give f and Tf with no forward transform; a mutation takes T by linearity.

A chunk's noise is one normal draw in the stream's per-candidate order.
The package's helper thread draws it one chunk ahead (fields._one_ahead,
as random_band_limited draws its rows) while the caller filters the chunk
before; one thread at a time draws, in order, so every result is bitwise
the one-thread search's. The price is one more buffer of a chunk's f: the
f of even and of odd chunks take turns in two slots around Tf's, 1.5 MiB
at the cap where one chunk took 1 MiB.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import partial
from math import prod

import numpy as np

from .errors import SearchError
from .fields import CHUNK_SAMPLES, _band_inverse, _band_spectrum, _draw_band, _lp_norms, _one_ahead
from .fields import masks_for_grades
from .fourier import _reflect_box
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
    dims, band = _draw_band(n, dims, kmax)
    masks = masks_for_grades(n, range(n + 1))
    cell = prod(1.0 / d for d in dims)  # the unit torus
    best_ratio, best, best_index, best_kind, degenerate = -np.inf, None, -1, "fresh", 0  # best: (f, Tf)
    chunk = min(budget, max(1, CHUNK_SAMPLES // (2 * len(masks) * prod(dims))))
    ring = np.empty((3, chunk, len(masks)) + dims)  # f of even chunks, Tf, f of odd chunks
    starts = range(0, budget, chunk)
    slots = (ring[0:2], ring[2:0:-1])  # (f, Tf) of even and of odd chunks
    chunks = [slots[c % 2][:, : min(chunk, budget - start)] for c, start in enumerate(starts)]
    jobs = ((pairs, partial(rng.standard_normal, out=pairs[0])) for pairs in chunks)
    with contextlib.closing(_one_ahead(jobs)) as drawn:
        for start, pairs in zip(starts, drawn):
            spectra = _band_spectrum(pairs[0], dims, band, mean_zero=True)
            _band_inverse(_reflect_box(spectra.copy(), dims, band, masks), dims, band, pairs[1])
            _band_inverse(spectra, dims, band, pairs[0])  # f overwrites its noise
            norms = _lp_norms(pairs.reshape(pairs.shape[:3] + (-1,)), (p, 2.0), cell)
            for j, i in enumerate(range(start, start + pairs.shape[1])):
                pair, (f_p, tf_p), f_2, kind = pairs[:, j], norms[0, :, j], norms[1, 0, j], "fresh"
                if i % 4 == 3 and best is not None:
                    if f_2 <= DEGENERATE_NORM:
                        degenerate += 1
                        continue
                    pair = best + pair * (MUTATION_SCALE * best_norm / f_2)  # T by linearity
                    (f_p, tf_p), (f_2, _) = _lp_norms(pair.reshape(2, len(masks), -1), (p, 2.0), cell)
                    kind = "mutation"
                if f_p <= DEGENERATE_NORM:
                    degenerate += 1
                    continue
                ratio = tf_p / f_p
                if ratio > best_ratio:
                    best_ratio, best_index, best_kind = ratio, i, kind
                    best, best_norm = pair.copy(), f_2
    if best is None:
        raise SearchError("all candidates were numerically degenerate")
    return SearchResult(
        best_ratio=float(best_ratio),
        best_index=best_index,
        best_kind=best_kind,
        evaluations=budget,
        degenerate=degenerate,
        ceiling=report.overall_bound,
    )
