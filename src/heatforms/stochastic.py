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

The increments are stored path-major; the step loops read them through
step-major contiguous copies of STEP_BLOCK steps at a time. The Ito check
walks the positions one step at a time and then evaluates the gradient
once per block, adding the block's terms in step order. The bootstrap
turns each resample's indices into a count vector and takes both moment
sums with one product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StatisticalPowerError
from .fields import FormField, TrigSeries
from .heatmatrix import conjugate_exponent

PATH_BLOCK = 4096
STEP_BLOCK = 8  # steps per step-major copy of the increments
_COPY_PATHS = 1024  # paths per copy pass: their cache lines serve every step of a block
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
    increments: np.ndarray  # (paths, steps, n)

    def positions(self, step: int) -> np.ndarray:
        """Torus position of every path after `step` increments."""
        if not 0 <= step <= self.steps:
            raise ValueError("step out of range")
        pos = self.starts + np.einsum("psa->pa", self.increments[:, :step, :])
        return np.mod(pos, self.L)


def simulate_paths(n, h, steps, paths, seed, L=1.0) -> PathEnsemble:
    """Euler ensemble: N(0, h I) increments, uniform starts, torus wrap."""
    if h <= 0:
        raise ValueError("step size must be positive")
    if steps < 1 or paths < 1:
        raise ValueError("counts must be at least 1")
    starts = np.empty((paths, n))
    increments = np.empty((paths, steps, n))
    for block_idx, lo in enumerate(range(0, paths, PATH_BLOCK)):
        hi = min(lo + PATH_BLOCK, paths)
        rng = _philox(seed, block_idx)
        # draw the starts of the full block even when only part is used, so
        # the normals start at the same stream position for every path
        # count; they are then a prefix of the full block's normals, and the
        # ensemble a bitwise prefix of any larger one with the same seed
        starts[lo:hi] = rng.uniform(0.0, L, size=(PATH_BLOCK, n))[: hi - lo]
        rng.standard_normal(out=increments[lo:hi])
    increments *= np.sqrt(h)
    return PathEnsemble(h, steps, paths, L, starts, increments)


def _step_blocks(increments):
    """Yield (first step, step-major copy) for each STEP_BLOCK of steps.

    increments has shape (paths, steps, d); each copy has shape
    (block, paths, d) and is contiguous, so one step is one contiguous
    row. All copies share one buffer, valid until the next is yielded.
    """
    paths, steps, d = increments.shape
    buf = np.empty((STEP_BLOCK, paths, d))
    # Each d-vector is copied as one opaque element: copying the doubles
    # themselves runs an inner loop only d long per vector.
    vector = f"V{8 * d}"
    src, dst = increments.view(vector)[..., 0], buf.view(vector)[..., 0]
    for lo in range(0, steps, STEP_BLOCK):
        size = min(STEP_BLOCK, steps - lo)
        for p0 in range(0, paths, _COPY_PATHS):
            rows = src[p0 : p0 + _COPY_PATHS, lo : lo + size]
            dst[:size, p0 : p0 + _COPY_PATHS] = rows.swapaxes(0, 1)
        yield lo, buf[:size]


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

    Raises StatisticalPowerError for fewer than two paths, which leave the
    standard error undefined.
    """
    k = round(t / ensemble.h)
    if abs(k * ensemble.h - t) > 1e-9 * max(t, ensemble.h):
        raise ValueError("t must be an integer multiple of the step size")
    if k > ensemble.steps:
        raise ValueError("t exceeds the simulated horizon")
    if ensemble.paths < 2:
        raise StatisticalPowerError("a standard error needs at least two paths")
    series = TrigSeries.from_grid(grid, L)
    values = series.value(ensemble.positions(k))
    se = float(values.std(ddof=1) / np.sqrt(len(values)))
    return MarkovCheck(
        mc_value=float(values.mean()), exact_value=series.mean(), std_error=se
    )


def ito_terminal_check(field: FormField, tau, ensemble: PathEnsemble) -> float:
    """RMS gap between the Euler stochastic integral and its closed form.

    Along each path, accumulate grad u(X_k, tau - t_k) . dX_k per
    component, where u is the heat extension of the field; the limit is
    f(X_tau) - (heat extension at tau)(X_0). Decays like sqrt(h).
    """
    if abs(ensemble.steps * ensemble.h - tau) > 1e-9 * max(tau, ensemble.h):
        raise ValueError("tau must equal steps * h")
    series = [TrigSeries.from_grid(row, field.L) for row in field.data]
    accum = np.zeros((len(series), ensemble.paths))
    pos = ensemble.starts
    for lo, block in _step_blocks(ensemble.increments):
        at = np.empty_like(block)  # position before each step of the block
        for j, step in enumerate(block):
            at[j] = pos
            pos = np.mod(pos + step, field.L)
        remaining = tau - np.arange(lo, lo + len(block)) * ensemble.h
        for idx, s in enumerate(series):
            grad = s.gradient(at, t=remaining[:, None])
            contrib = np.einsum("spa,spa->sp", grad, block)
            contrib[0] += accum[idx]  # so the sum runs in step order
            np.add.reduce(contrib, axis=0, out=accum[idx])
    closed = np.stack(
        [s.value(pos) - s.value(ensemble.starts, t=tau) for s in series]
    )
    gap_sq = np.sum((accum - closed) ** 2, axis=0)
    return float(np.sqrt(gap_sq.mean()))


def ito_convergence_study(field, tau, step_counts, paths, seed, seeds_per_h=10):
    """Pooled RMS per step size and the log-log slope across them."""
    if len(set(step_counts)) < 2:
        raise ValueError("a slope needs at least two distinct step counts")
    if min(step_counts) < 1:
        raise ValueError("step counts must be positive")
    hs, rmss = [], []
    for idx, steps in enumerate(step_counts):
        h = tau / steps
        pooled = 0.0
        for rep in range(seeds_per_h):
            ensemble = simulate_paths(
                field.n, h, steps, paths, seed + 1000 * idx + rep, L=field.L
            )
            pooled += ito_terminal_check(field, tau, ensemble) ** 2
        hs.append(h)
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
    """A walk and its predictable transform with running variations.

    base/transformed hold the terminal values U_T, Y_T; the quadratic
    variation gap <U> - <Y> is accumulated per step and every increment is
    checked to be nonnegative with zero tolerance while the pair is
    built.
    """

    base: np.ndarray  # (trials, d) terminal U
    transformed: np.ndarray  # (trials, d) terminal Y
    base_qv: np.ndarray  # (trials,) <U>_T
    transformed_qv: np.ndarray  # (trials,) <Y>_T


def transform_walk(steps, trials, transform, seed, d=1) -> MartingalePair:
    """Run a Gaussian walk through a predictable transform.

    The transform is called per step with the running sum so far and must
    return coefficients of modulus <= 1; any quadratic-variation increment
    of the transformed walk exceeding the base one aborts the run.
    """
    if callable(transform):
        fn = transform
    else:
        fn = TRANSFORMS[transform]
    rng = _philox(seed, 0)
    incs = rng.standard_normal((trials, steps, d))
    u = np.zeros((trials, d))
    y = np.zeros((trials, d))
    qv_u = np.zeros(trials)
    qv_y = np.zeros(trials)
    for lo, block in _step_blocks(incs):
        for k, step in enumerate(block, start=lo):
            coeff = np.asarray(fn(k, u), dtype=float)
            if np.any(np.abs(coeff) > 1.0):
                raise ValueError("transform coefficients must have modulus <= 1")
            scaled = coeff[..., None] * step if coeff.ndim else coeff * step
            inc_u = np.einsum("td,td->t", step, step)
            inc_y = np.einsum("td,td->t", scaled, scaled)
            if np.any(inc_u - inc_y < 0.0):
                raise AssertionError("quadratic variation domination violated")
            qv_u += inc_u
            qv_y += inc_y
            u += step
            y += scaled
    return MartingalePair(u, y, qv_u, qv_y)


@dataclass(frozen=True)
class TransformResult:
    ratio: float
    rel_ci_half_width: float
    ceiling: float  # p* - 1
    trials: int

    @property
    def passed(self) -> bool:
        return self.ratio <= self.ceiling * (1.0 + 3.0 * self.rel_ci_half_width)


def martingale_transform_experiment(p, steps, trials, transform, seed) -> TransformResult:
    """Moment ratio of a transformed walk against the (p* - 1) ceiling.

    Builds a scalar pair via transform_walk (which enforces subordination
    pathwise) and bootstraps a confidence interval for
    (E|Y|^p / E|U|^p)^(1/p). Raises StatisticalPowerError when the
    relative half-width exceeds MAX_REL_CI, too wide to support a ceiling
    comparison.
    """
    p = float(p)
    p_star = conjugate_exponent(p)
    pair = transform_walk(steps, trials, transform, seed)
    u_p = np.sum(pair.base**2, axis=1) ** (p / 2.0)
    y_p = np.sum(pair.transformed**2, axis=1) ** (p / 2.0)
    ratio = float((y_p.mean() / u_p.mean()) ** (1.0 / p))
    moments = np.stack([y_p, u_p], axis=1)
    boot_rng = _philox(seed, 1)
    boots = np.empty(_N_BOOT)
    for b in range(_N_BOOT):
        # one draw per resample: a single (_N_BOOT, trials) draw is another stream
        counts = np.bincount(boot_rng.integers(0, trials, trials), minlength=trials)
        y_sum, u_sum = counts @ moments
        boots[b] = (y_sum / u_sum) ** (1.0 / p)
    half = float((np.quantile(boots, 0.975) - np.quantile(boots, 0.025)) / 2.0)
    rel_half = half / ratio if ratio > 0 else np.inf
    if rel_half > MAX_REL_CI:
        raise StatisticalPowerError(
            f"relative CI half-width {rel_half:.3e} exceeds {MAX_REL_CI}; raise trials"
        )
    return TransformResult(
        ratio=ratio, rel_ci_half_width=rel_half, ceiling=p_star - 1.0, trials=trials
    )
