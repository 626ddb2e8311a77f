"""Monte Carlo checks of the probabilistic machinery.

Torus-wrapped Brownian paths make the integral identities finite: with a
uniform start the walk stays uniform, so space averages of a function
along paths must match its grid mean. The discrete stochastic integral of
a heat-extension gradient telescopes to the terminal-minus-smoothed-start
difference up to an Euler error of strong order ~ 1/2. The transform
experiment checks the (p* - 1) moment domination for subordinated
martingale transforms.

Randomness comes from counter-based Philox streams keyed by
(seed, block index) over fixed-size path blocks, so ensembles are
bit-reproducible no matter how the path loop is scheduled. Each block
draws the uniform starts of all PATH_BLOCK paths and then the normal
increments of only the paths kept; a normal draw is a bitwise prefix of
any longer draw from the same stream position, so an ensemble is a prefix
of every larger one with the same seed.

Increments are drawn path-major and stored step-major, (steps, paths, d),
so each step is one contiguous row for the step loops. The Ito check
builds one TrigSeries for the field's whole component stack and takes
STEP_BLOCK steps at a time: one cumulative sum gives the positions before
them, unwrapped since the series is periodic, and one gradient evaluation
the terms of every component, added in step order (see TrigSeries for how
its modes and waves are built). The bootstrap turns each resample into a
count vector and takes both moment sums with one product.

The draws run on two threads: the caller's and the package's one helper,
the worker of a one-thread executor (fields._on_helper) that the
band-limited draw and normsearch share. Each stream is drawn by one
thread at a time, in order, into arrays the caller allocated, so every
result is bitwise what one thread would draw. simulate_paths gives the helper every other
PATH_BLOCK block; the transform experiment has it draw the bootstrap
counts, stream (seed, 1), while the caller runs the walk on stream
(seed, 0). fields._one_ahead has it draw each of the Ito study's ensembles
after the first while the caller checks the one before. The helper calls
no public function. No step of these checks calls a threaded BLAS routine
either (TrigSeries contracts with einsum; the band-matrix products run in
blocks that BLAS keeps on one thread): an OpenBLAS worker keeps spinning
on the second core after a call and would take it from the helper.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import StatisticalPowerError
from .fields import FormField, TrigSeries, _on_helper, _one_ahead
from .heatmatrix import conjugate_exponent

PATH_BLOCK = 4096
STEP_BLOCK = 8  # steps per gradient evaluation of the Ito check
_DRAW_PATHS = 256  # paths per draw chunk: its buffer is the only memory the draw adds
_N_BOOT = 200  # bootstrap resamples in martingale_transform_experiment
MAX_REL_CI = 0.05  # widest relative CI half-width a ceiling comparison accepts


def _philox(seed: int, stream: int) -> np.random.Generator:
    mask = (1 << 64) - 1
    key = np.array([seed & mask, stream & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class PathEnsemble:
    """Gaussian increments and uniform torus starts for many paths."""

    h: float
    steps: int
    paths: int
    L: float
    starts: np.ndarray  # (paths, n)
    increments: np.ndarray  # (steps, paths, n)

    def positions(self, step: int) -> np.ndarray:
        """Torus position of every path after `step` increments."""
        if not 0 <= step <= self.steps:
            raise ValueError("step out of range")
        pos = self.starts + self.increments[:step].sum(axis=0)
        return np.mod(pos, self.L)


def _standard_normal_step_major(rng, out, scale=1.0):
    """Fill out, shaped (steps, paths, d), with a (paths, steps, d) normal draw times scale.

    Chunks of paths read the stream in one draw's order, so out is bitwise
    standard_normal((paths, steps, d)).swapaxes(0, 1) * scale.
    """
    steps, paths, d = out.shape
    buf = np.empty((min(paths, _DRAW_PATHS), steps, d))
    for p0 in range(0, paths, _DRAW_PATHS):
        chunk = buf[: paths - p0]
        rng.standard_normal(out=chunk)
        np.multiply(chunk.swapaxes(0, 1), scale, out=out[:, p0 : p0 + len(chunk)])


def _empty_ensemble(n, h, steps, paths, L) -> PathEnsemble:
    return PathEnsemble(h, steps, paths, L, np.empty((paths, n)), np.empty((steps, paths, n)))


def _draw_blocks(ens: PathEnsemble, seed, first=0, stride=1):
    """Draw the starts and increments of blocks first, first + stride, ... of ens."""
    for block in range(first, -(-ens.paths // PATH_BLOCK), stride):
        lo, hi = block * PATH_BLOCK, min((block + 1) * PATH_BLOCK, ens.paths)
        rng = _philox(seed, block)
        # draw the starts of the full block even when only part is used, so
        # the normals start at the same stream position for every path
        # count; they are then a prefix of the full block's normals, and the
        # ensemble a bitwise prefix of any larger one with the same seed
        ens.starts[lo:hi] = rng.uniform(0.0, ens.L, size=(PATH_BLOCK, ens.starts.shape[1]))[: hi - lo]
        _standard_normal_step_major(rng, ens.increments[:, lo:hi], np.sqrt(ens.h))


def simulate_paths(n, h, steps, paths, seed, L=1.0) -> PathEnsemble:
    """Euler ensemble: N(0, h I) increments, uniform starts, torus wrap.

    The helper thread draws every other PATH_BLOCK block, from the second.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not 0 < h < np.inf:
        raise ValueError("step size must be positive and finite")
    if not 0 < L < np.inf:
        raise ValueError("torus length must be positive and finite")
    if steps < 1 or paths < 1:
        raise ValueError("counts must be at least 1")
    ens = _empty_ensemble(n, h, steps, paths, L)
    with _on_helper(_draw_blocks, ens, seed, 1, 2):
        _draw_blocks(ens, seed, 0, 2)
    return ens


@dataclass(frozen=True)
class MarkovCheck:
    mc_value: float
    exact_value: float
    std_error: float

    @property
    def z_score(self) -> float:
        if self.std_error == 0.0:
            return 0.0
        return (self.mc_value - self.exact_value) / self.std_error


def markov_identity_check(grid, L, t, ensemble: PathEnsemble) -> MarkovCheck:
    """Space-averaged path expectation of g versus the grid mean of g.

    The grid mean is the zero-frequency coefficient of g's series, so it
    is the exact value of the space average at every time.

    Raises StatisticalPowerError for fewer than two paths, which leave the
    standard error undefined, and ValueError unless L is the ensemble's
    torus length: the paths are uniform only on their own torus.
    """
    if L != ensemble.L:
        raise ValueError(f"grid period {L} differs from the ensemble's torus length {ensemble.L}")
    k = round(t / ensemble.h)
    if abs(k * ensemble.h - t) > 1e-9 * max(t, ensemble.h):
        raise ValueError("t must be an integer multiple of the step size")
    if k > ensemble.steps:
        raise ValueError("t exceeds the simulated horizon")
    if ensemble.paths < 2:
        raise StatisticalPowerError("a standard error needs at least two paths")
    values = TrigSeries(np.asarray(grid)[None], L).value(ensemble.positions(k))[:, 0]
    se = float(values.std(ddof=1) / np.sqrt(len(values)))
    return MarkovCheck(float(values.mean()), float(np.mean(grid)), se)


def ito_terminal_check(field: FormField, tau, ensemble: PathEnsemble) -> float:
    """RMS gap between the Euler stochastic integral and its closed form.

    Along each path, accumulate grad u(X_k, tau - t_k) . dX_k for every
    component at once, where u is the heat extension of the field; the
    limit is f(X_tau) - (heat extension at tau)(X_0). The gap's squared
    length is summed over components. Decays like sqrt(h).
    """
    if abs(ensemble.steps * ensemble.h - tau) > 1e-9 * max(tau, ensemble.h):
        raise ValueError("tau must equal steps * h")
    series = TrigSeries(field.data, field.L)
    accum = np.zeros((ensemble.paths, len(field.data)))
    pos = ensemble.starts
    for lo in range(0, ensemble.steps, STEP_BLOCK):
        block = ensemble.increments[lo : lo + STEP_BLOCK]
        at = np.concatenate((pos[None], block[:-1])).cumsum(axis=0)  # unwrapped, before each step
        pos = np.mod(at[-1] + block[-1], field.L)
        grad = series.gradient(at, t=tau - np.arange(lo, lo + len(block)) * ensemble.h)
        contrib = np.einsum("spca,spa->spc", grad, block)
        contrib[0] += accum  # so the sum runs in step order
        np.add.reduce(contrib, axis=0, out=accum)
    gap = accum - (series.value(pos) - series.value(ensemble.starts, t=tau))
    return float(np.sqrt(np.sum(gap**2, axis=1).mean()))


def ito_convergence_study(field, tau, step_counts, paths, seed, seeds_per_h=10):
    """Pooled RMS per step size and the log-log slope across them.

    The helper thread draws each ensemble after the first while the check
    of the one before runs (_one_ahead). Raises StatisticalPowerError for
    fewer than two paths, whose RMS is one path's gap and cannot decide
    the slope.
    """
    if not 0 < tau < np.inf:
        raise ValueError("tau must be positive and finite")
    if len(set(step_counts)) < 2:
        raise ValueError("a slope needs at least two distinct step counts")
    if min(step_counts) < 1:
        raise ValueError("step counts must be positive")
    if seeds_per_h < 1 or paths < 1:
        raise ValueError("seeds per step size and paths must be at least 1")
    if paths < 2:
        raise StatisticalPowerError("a pooled RMS needs at least two paths")
    runs = [
        (steps, seed + 1000 * idx + rep)
        for idx, steps in enumerate(step_counts)
        for rep in range(seeds_per_h)
    ]
    ensembles = (_empty_ensemble(field.n, tau / steps, steps, paths, field.L) for steps, _ in runs)
    jobs = ((ens, partial(_draw_blocks, ens, s)) for ens, (_, s) in zip(ensembles, runs))
    hs, rmss = [], []
    with contextlib.closing(_one_ahead(jobs)) as drawn:
        for steps in step_counts:
            pooled = 0.0
            for _ in range(seeds_per_h):
                pooled += ito_terminal_check(field, tau, next(drawn)) ** 2
            hs.append(tau / steps)
            rmss.append(np.sqrt(pooled / seeds_per_h))
    slope = float(np.polyfit(np.log(hs), np.log(rmss), 1)[0])
    return np.array(hs), np.array(rmss), slope


# Predictable transforms. Each is called as transform(k, u_prev) with the
# running sum before step k (shape (trials, d)) and must return per-trial
# scalars in [-1, 1] (or a constant), so the subordination check below is
# exact in floating point.


def identity_transform(k, u_prev):
    return 1.0


def alternating_transform(k, u_prev):
    return -1.0 if k % 2 else 1.0


def sign_transform(k, u_prev):
    s = np.sign(u_prev[:, 0])
    s[s == 0.0] = 1.0
    return s


TRANSFORMS = {
    "identity": identity_transform,
    "alternating": alternating_transform,
    "sign": sign_transform,
}


@dataclass
class MartingalePair:
    """Terminal values of a walk and of its predictable transform, subordinate to it."""

    base: np.ndarray  # (trials, d) terminal U
    transformed: np.ndarray  # (trials, d) terminal Y


def transform_walk(steps, trials, transform, seed, d=1) -> MartingalePair:
    """Run a Gaussian walk through a predictable transform.

    The transform is called per step with the running sum so far and must
    return coefficients of modulus <= 1; that check, made at every step, is
    the subordination test of Burkholder's inequality.
    """
    if steps < 1 or trials < 1:
        raise ValueError("counts must be at least 1")
    fn = transform if callable(transform) else TRANSFORMS[transform]
    incs = np.empty((steps, trials, d))
    _standard_normal_step_major(_philox(seed, 0), incs)
    u = np.zeros((trials, d))
    y = np.zeros((trials, d))
    for k, step in enumerate(incs):
        coeff = np.asarray(fn(k, u), dtype=float)
        if np.any(np.abs(coeff) > 1.0):
            raise ValueError("transform coefficients must have modulus <= 1")
        u += step
        y += coeff[..., None] * step
    return MartingalePair(u, y)


@dataclass(frozen=True)
class TransformResult:
    ratio: float
    rel_ci_half_width: float
    ceiling: float  # p* - 1

    @property
    def passed(self) -> bool:
        return self.ratio <= self.ceiling * (1.0 + 3.0 * self.rel_ci_half_width)


def _bootstrap_counts(rng, trials, counts, wide):
    """Fill each uint8 row of counts with one resample's index multiplicities.

    A resample with a multiplicity above 255 goes whole into wide[row]
    instead, so every row is exact.
    """
    for b, row in enumerate(counts):
        # one draw per resample: a single (_N_BOOT, trials) draw is another stream
        mult = np.bincount(rng.integers(0, trials, trials), minlength=trials)
        if mult.max() > 255:
            wide[b] = mult
        else:
            row[...] = mult


def martingale_transform_experiment(p, steps, trials, transform, seed) -> TransformResult:
    """Moment ratio of a transformed walk against the (p* - 1) ceiling.

    Builds a scalar pair via transform_walk (which enforces subordination
    pathwise) and bootstraps a confidence interval for
    (E|Y|^p / E|U|^p)^(1/p); the helper thread draws the resamples'
    counts while the walk runs. Raises StatisticalPowerError when the
    relative half-width exceeds MAX_REL_CI, too wide to support a ceiling
    comparison, and for fewer than two trials, whose every resample is the
    one trial itself.
    """
    p = float(p)
    p_star = conjugate_exponent(p)
    if steps < 1 or trials < 1:
        raise ValueError("counts must be at least 1")
    if trials < 2:
        raise StatisticalPowerError("a bootstrap interval needs at least two trials")
    counts = np.empty((_N_BOOT, trials), np.uint8)
    wide = {}
    with _on_helper(_bootstrap_counts, _philox(seed, 1), trials, counts, wide):
        pair = transform_walk(steps, trials, transform, seed)
    with np.errstate(over="ignore"):
        u_p = np.sum(pair.base**2, axis=1) ** (p / 2.0)
        y_p = np.sum(pair.transformed**2, axis=1) ** (p / 2.0)
    if trials * float(max(u_p.max(), y_p.max())) == np.inf:  # bounds every resampled sum
        raise ValueError(f"exponent {p} overflows the walk's p-th moments")
    ratio = float((y_p.mean() / u_p.mean()) ** (1.0 / p))
    moments = np.stack([y_p, u_p], axis=1)
    boots = np.empty(_N_BOOT)
    for b in range(_N_BOOT):
        y_sum, u_sum = wide.get(b, counts[b]) @ moments
        boots[b] = (y_sum / u_sum) ** (1.0 / p)
    half = float((np.quantile(boots, 0.975) - np.quantile(boots, 0.025)) / 2.0)
    rel_half = half / ratio if ratio > 0 else np.inf
    if rel_half > MAX_REL_CI:
        raise StatisticalPowerError(
            f"relative CI half-width {rel_half:.3e} exceeds {MAX_REL_CI}; raise trials"
        )
    return TransformResult(ratio, rel_half, p_star - 1.0)
