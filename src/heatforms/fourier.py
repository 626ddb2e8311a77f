"""Fourier engine on the periodic grid.

The frequency-domain matrix of the Beurling-Ahlfors operator, its
application to fields, and the bilinear gradient integral that pairs two
heat extensions, summed over a cached plan of time nodes (t = 0, for the
tail, last) in batches of at most fields.CHUNK_SAMPLES output samples.

Every symbol takes one path. The operator, psw_integral and the
Laplace-type multipliers in multipliers.py take one held forward
transform (fields._held_spectra): a real FFT of the component stack, cut
to the box of the modes the field holds. The symbol is applied on that
box, and fields._band_inverse, the draw's inverse, returns the grids.
Half spectra determine a real field only under a Hermitian multiplier,
m(-k) = conj(m(k)) on the full lattice; real even symbols and i times
real odd ones are, and a complex even symbol is applied as its real and
imaginary parts. Complex fields go through as a batch of their real and
imaginary parts (_real_batch), so every multiplier acts on them
complex-linearly.

The operator acts per frequency xi by the reflection

    M(xi) = I - 2 (u ^)(u _|),    u = xi / |xi|,

on the coefficient vector indexed by subsets: u _| lowers the grade by
contracting with u, u ^ raises it again by wedging with u. Since
u _| u ^ + u ^ u _| = |u|^2 = 1, P = (u ^)(u _|) is an orthogonal
projection, so M is a symmetric involution: T^2 = id and T is an L^2
isometry on mean-zero fields. Grades 0 and n are eigen-grades: u _| kills
grade 0 and (u ^)(u _|) is the identity on grade n, so M = +I on the
scalar row and -I on the top-grade row, and only the middle grades need
a transform. Written out, M has the diagonal
(sum_{l not in K} xi_l^2 - sum_{k in K} xi_k^2)/|xi|^2 and, for each
substitution K -> K\\k+l, the entry -2 xi_k xi_l / |xi|^2 times the
reordering sign; beurling_ahlfors_symbol builds that form entry by entry
and serves as the independent check of the reflection path. M depends
only on the direction of xi; the zero frequency is annihilated by
convention (a homogeneous symbol has no value at the origin, and
constants carry no L^p content on the plane anyway). On the grid, a
point with m Nyquist coordinates stands for 2^m lattice vectors. The
symbol there is the mean of two of their symbols, the point's and that
of the vector with every Nyquist coordinate negated (_directions): for
m = 1 the mean over both, which a real field sees, and for m >= 2 over
2 of the 2^m. It is a contraction rather than a reflection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exterior import _substitution_table
from .fields import CHUNK_SAMPLES, FormField, _band_axes, _band_inverse, _frozen
from .fields import _held_points, _held_spectra, lp_norm
from .heatmatrix import HeatMatrixSpec, build_full_matrix, conjugate_exponent

GL_ORDER = 16  # Gauss-Legendre nodes per time panel
_MIN_PANELS = 4  # fewest time panels in psw_integral
_EXP_UNDERFLOW = 745.0  # exp(-x) is at most the smallest subnormal double for x >= this
_EIG_CHUNK = 65536  # symbol matrices per batched eigensolve


@lru_cache(maxsize=8)
def _directions(dims: tuple, kmax: tuple):
    """(u, nyquist, u_alias) on the points fields._band_axes holds for the box kmax.

    Callers key a box by fields._held_points, so boxes that hold the same
    points share one entry.

    u = k/|k| per axis (0 at the origin); nyquist, the flat indices of points
    with a Nyquist coordinate; u_alias, the direction there of the lattice
    vector with every Nyquist coordinate negated, which the point also is.
    """
    ks = np.meshgrid(*(k for _, k in _band_axes(dims, kmax)), indexing="ij", sparse=True)
    norm = np.sqrt(np.maximum(sum(k**2 for k in ks), 1))  # integer k: only the origin is raised
    u = tuple(_frozen((k / norm).astype(complex)) for k in ks)
    at_nyquist = [np.abs(k) == d // 2 for k, d in zip(ks, dims)]
    nyquist = np.flatnonzero(np.logical_or.reduce(np.broadcast_arrays(*at_nyquist)))
    u_alias = tuple(_frozen(np.where(nyq, -ua, ua).reshape(-1)[nyquist]) for ua, nyq in zip(u, at_nyquist))
    return u, _frozen(nyquist), u_alias


@lru_cache(maxsize=32)
def _multipliers(dims: tuple, L: float, kmax: tuple):
    """|xi|^2 and the gradient multipliers i 2 pi k_a / L on the points held for the box kmax.

    The points are those fields._band_axes holds, keyed like _directions.
    The gradient multipliers form one (n, *points) array; each is zeroed at
    the Nyquist index (k = -N/2), where i 2 pi k_a / L has no Hermitian
    partner, so that real fields keep real derivatives. Raises ValueError
    if 4 pi^2 / L^2 is below the smallest normal double or 4 pi^2 max|xi|^2 overflows.
    """
    ks = np.meshgrid(*(k for _, k in _band_axes(dims, kmax)), indexing="ij", sparse=True)
    with np.errstate(over="ignore", under="ignore"):
        xi_sq = sum((k / L) ** 2 for k in ks)
        if not (np.square(2.0 * np.pi / L) >= np.finfo(float).tiny and np.isfinite(4.0 * np.pi**2 * xi_sq.max())):
            raise ValueError(f"period L = {L!r} puts the decay rates 4 pi^2 |xi|^2 outside the double range")
    grads = (np.where(np.abs(k) == d // 2, 0.0, 1j * 2.0 * np.pi / L * k) for k, d in zip(ks, dims))
    grad_mult = np.stack(np.broadcast_arrays(*grads))
    return _frozen(xi_sq), _frozen(grad_mult)


def _real_batch(data: np.ndarray) -> np.ndarray:
    """A stack as a batch of real stacks: itself, or its real and imaginary parts."""
    return np.stack([data.real, data.imag]) if np.iscomplexobj(data) else data[None]


def _batch_parts(out: np.ndarray) -> np.ndarray:
    """out as a batch of real grids: itself, or strided views of its real and imaginary parts."""
    pairs = out.view(float).reshape(out.shape + (2,)) if np.iscomplexobj(out) else out[..., None]
    return np.moveaxis(pairs, -1, 0)


@dataclass(frozen=True)
class SymbolMatrix:
    """Frequency-domain matrix of the operator at one frequency."""

    matrix: np.ndarray


@lru_cache(maxsize=16)
def _symbol_structure(n: int):
    """Frequency-independent skeleton of the symbol matrix.

    Returns (diag_signs, entries, a, b, signs): diag_signs[K][a] is the
    sign of xi_{a+1}^2 in the diagonal entry of subset K; for each
    substitution, entries holds the flat index row * 2^n + col of the
    entry -2 * signs * xi_{a+1} xi_{b+1} / |xi|^2.
    """
    diag_signs = 1.0 - 2.0 * (np.arange(1 << n)[:, None] >> np.arange(n) & 1)
    mask, a, b, target, signs = _substitution_table(n)
    return tuple(_frozen(arr) for arr in (diag_signs, (target << n) + mask, a, b, signs.astype(float)))


def _dense_symbols(xi: np.ndarray) -> np.ndarray:
    """Dense 2^n x 2^n matrices M(xi) at the rows of a (points, n) array.

    Built from _symbol_structure; a zero row gets the zero matrix.
    """
    n = xi.shape[1]
    norm_sq = np.vecdot(xi, xi)
    norm_sq[norm_sq == 0.0] = 1.0
    diag_signs, entries, a, b, signs = _symbol_structure(n)
    m = np.zeros((len(xi), 1 << 2 * n))
    m[:, :: (1 << n) + 1] = xi**2 @ diag_signs.T / norm_sq[:, None]
    cols = xi.T
    m.T[entries] = -2.0 * signs[:, None] * cols[a] * cols[b] / norm_sq
    return m.reshape(len(xi), 1 << n, 1 << n)


def _frequency(xi, n: int) -> np.ndarray:
    """xi as a float vector, checked to be a nonzero frequency in n dimensions."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (n,):
        raise ValueError("frequency vector has wrong length")
    if float(xi @ xi) == 0.0:
        raise ValueError("symbol is undefined at the zero frequency")
    return xi


def beurling_ahlfors_symbol(xi, n: int) -> SymbolMatrix:
    """Dense 2^n x 2^n multiplier matrix at a single nonzero frequency."""
    xi = _frequency(xi, n)
    return SymbolMatrix(_dense_symbols(xi[None])[0])


def symbol_from_heat_matrix(spec: HeatMatrixSpec, xi) -> SymbolMatrix:
    """Multiplier matrix obtained by contracting the heat matrix with xi.

    M[I, J] = -sum_{i,j} A[(I,i),(J,j)] xi_i xi_j / |xi|^2. The symmetric
    contraction cancels the alpha split, so the result agrees with
    beurling_ahlfors_symbol for every weight choice.
    """
    n = spec.n
    xi = _frequency(xi, n)
    full = build_full_matrix(spec).reshape(1 << n, n, 1 << n, n)
    m = -np.einsum("aibj,i,j->ab", full, xi, xi) / float(xi @ xi)
    return SymbolMatrix(m)


@lru_cache(maxsize=64)
def _reflection_plan(n: int, masks: tuple):
    """Index plan of the contraction u _| on a stack of components.

    One entry (a, row, lowered_row, sign) per stack row K containing the
    element a+1: (u _| f)[K minus a+1] gets sign * u_a * f[K], where sign
    is (-1)^(number of elements of K below a+1). The wedge u ^ is the
    transpose: f[K] gets sign * u_a * (lowered)[K minus a+1]. Returns the
    number of grade-lowered rows and the entries.
    """
    lowered = sorted({m & ~(1 << a) for m in masks for a in range(n) if m >> a & 1})
    pos = {m: i for i, m in enumerate(lowered)}
    plan = tuple(
        (a, row, pos[m ^ (1 << a)], -1 if (m & ((1 << a) - 1)).bit_count() & 1 else 1)
        for a in range(n)
        for row, m in enumerate(masks)
        if m >> a & 1
    )
    return len(lowered), plan


def _reflect(spectra: np.ndarray, u, plan, lowered: int) -> np.ndarray:
    """Overwrite a (batch, component, *points) stack with spectra - 2 u^(u _| spectra)."""
    contracted = np.zeros(spectra.shape[:1] + (lowered,) + spectra.shape[2:], spectra.dtype)
    term = np.empty(spectra.shape[:1] + spectra.shape[2:], spectra.dtype)
    for a, row, low, sign in plan:
        np.multiply(spectra[:, row], u[a], out=term)
        (np.add if sign > 0 else np.subtract)(contracted[:, low], term, out=contracted[:, low])
    contracted *= -2.0
    for a, row, low, sign in plan:
        np.multiply(contracted[:, low], u[a], out=term)
        (np.add if sign > 0 else np.subtract)(spectra[:, row], term, out=spectra[:, row])
    return spectra


def _reflect_box(spectra: np.ndarray, dims: tuple, box: tuple, masks) -> np.ndarray:
    """M(xi) applied in place to contiguous (batch, rows, *points) spectra, which it returns.

    Points as fields._band_axes holds them for the box, a row per ascending
    mask: scalar rows kept, top-grade rows negated, the others reflected,
    and the origin zeroed.
    """
    lo, hi = int(masks[0] == 0), len(masks) - int(masks[-1] == (1 << len(dims)) - 1)
    if lo < hi:
        u, nyquist, u_alias = _directions(dims, _held_points(dims, box))
        lowered, plan = _reflection_plan(len(dims), tuple(masks[lo:hi]))
        # A Nyquist point takes the mean of its symbol and that of the lattice
        # vector with every Nyquist coordinate negated (see the module docstring).
        flat = spectra.reshape(spectra.shape[:2] + (-1,))[:, lo:hi]
        aliased = _reflect(flat[..., nyquist], u_alias, plan, lowered) if len(nyquist) else None
        _reflect(spectra[:, lo:hi], u, plan, lowered)
        if aliased is not None:
            flat[..., nyquist] = 0.5 * (flat[..., nyquist] + aliased)
    np.negative(spectra[:, hi:], out=spectra[:, hi:])
    spectra[(Ellipsis,) + (0,) * len(dims)] = 0.0
    return spectra


def apply_beurling_ahlfors(field: FormField) -> FormField:
    """Apply the operator as the reflection f^ - 2 u^(u _| f^) per frequency.

    Grades 0 and n are eigen-grades, M = +I and -I at every nonzero
    frequency (Nyquist points too), so those rows are f_0 - mean(f_0) and
    mean(f_n) - f_n, with no transform. The middle grades take the held
    forward transform, a real FFT cut to the box of the modes they hold
    (fields._held_spectra: a dense axis drops the modes below
    fields._MODE_TOL of their row's largest, a wide one keeps all), the
    reflection there (_reflect_box) and fields._band_inverse. The symbol
    couples only components of equal grade, so a single-grade field stays
    single-grade. The mean of every component is annihilated. Raises
    ValueError on a non-finite sample or an overflowing spectrum: the
    held transform checks the middle rows, and the means the edge rows.
    """
    n, dims, masks, data = field.n, field.dims, field.masks, field.data
    # masks ascend, so the scalar row comes first and the top-grade row last
    lo = int(0 in masks)
    hi = len(masks) - int((1 << n) - 1 in masks)
    with np.errstate(over="ignore", invalid="ignore"):
        means = [data[row].mean() for row in [0] * lo + [-1] * (len(masks) - hi)]
    if not np.isfinite(means).all():
        raise ValueError("field has non-finite samples or its spectrum overflows")
    if lo < hi:
        kmax, spectra = _held_spectra(_real_batch(data[lo:hi]), dims)
        _reflect_box(spectra, dims, kmax, masks[lo:hi])
    # allocated only now: allocated before the rfftn, the output raised peak
    # RSS over 30 repeated n=3 64^3 draw-apply-norm items from 91 to 104 MB
    out = np.empty(data.shape, complex if np.iscomplexobj(data) else float)
    if lo < hi:
        for part, s in zip(_batch_parts(out[lo:hi]), spectra):
            _band_inverse(s, dims, kmax, part)
    if lo:
        np.subtract(data[0], means[0], out=out[0])
    if hi < len(masks):
        np.subtract(means[-1], data[-1], out=out[-1])
    return field.like(out)


def symbol_norms_on_grid(n, dims, L) -> np.ndarray:
    """Spectral norm of M(xi) at every lattice frequency (0 at the origin)."""
    dims = tuple(dims)
    if len(dims) != n:
        raise ValueError("need one grid size per axis")
    grids = np.meshgrid(*(np.fft.fftfreq(d) * d / L for d in dims), indexing="ij")
    xi = np.stack([g.reshape(-1) for g in grids], axis=1)
    norms = np.empty(len(xi))
    for start in range(0, len(xi), _EIG_CHUNK):
        mats = _dense_symbols(xi[start : start + _EIG_CHUNK])
        norms[start : start + _EIG_CHUNK] = np.max(np.abs(np.linalg.eigvalsh(mats)), axis=1)
    return norms.reshape(dims)


@dataclass(frozen=True)
class PswResult:
    """Both sides of the bilinear gradient inequality plus the time tail."""

    lhs: float
    rhs: float
    tail_bound: float


@lru_cache(maxsize=32)
def _psw_plan(L: float, kmax: tuple, t_max: float):
    """(times, halves, weights, exp(-r T) / r) of psw_integral's time quadrature on [0, T].

    A GL_ORDER-point Gauss-Legendre rule, built once per plan, on panels halved toward t = 0, where fast
    modes matter: node j of panel i is times[i * GL_ORDER + j], weighted halves[i] * weights[j]; t = 0,
    for the tail, is last.
    """
    rate_min = 4.0 * np.pi**2 / L**2
    rate_max = 4.0 * np.pi**2 * sum((K / L) * (K / L) for K in kmax)  # the box's fastest mode
    t_end = min(t_max, _EXP_UNDERFLOW / rate_min)
    n_panels = max(int(np.ceil(np.log2(max(rate_max * t_end, 4.0)))), _MIN_PANELS)
    breaks = np.array([0.0] + [t_end * 2.0 ** (j - n_panels + 1) for j in range(n_panels)])
    nodes, weights = np.polynomial.legendre.leggauss(GL_ORDER)
    halves = 0.5 * np.diff(breaks)
    times = np.append(0.5 * (breaks[1:] + breaks[:-1])[:, None] + halves[:, None] * nodes, 0.0)
    return _frozen(times), _frozen(halves), _frozen(weights), np.exp(-rate_min * t_end) / rate_min


def _psw_norms(spectra, xi_sq, grad_mult, dims: tuple, kmax: tuple, split: int, times) -> tuple:
    """(times, *dims) gradient lengths of the heat extensions of rows < split (f) and the rest (g)."""
    damp = np.exp(-2.0 * np.pi**2 * xi_sq * times.reshape((-1,) + (1,) * len(dims)))
    grads = (spectra * damp[:, None])[:, :, None] * grad_mult  # (times, rows, n, *box)
    sq = _band_inverse(grads, dims, kmax, np.empty(grads.shape[:3] + dims))
    sq *= sq
    return np.sqrt(sq[:, :split].sum(axis=(1, 2))), np.sqrt(sq[:, split:].sum(axis=(1, 2)))


def psw_integral(field_f: FormField, field_g: FormField, p: float, t_max: float) -> PswResult:
    """Bilinear integral of gradient lengths of two heat extensions.

    lhs integrates ||grad u(., t)|| ||grad v(., t)|| over the torus and
    t in [0, T], T = min(t_max, _EXP_UNDERFLOW / r) with r = 4 pi^2 / L^2,
    past which every mode has underflowed; rhs = (p* - 1) ||f||_p ||g||_p'.
    The discarded (T, inf) part is bounded by Cauchy-Schwarz and the
    slowest nonzero mode decay: exp(-r T)/r * ||grad f||_2 ||grad g||_2.
    Both fields must be real; one held forward transform of both
    (fields._held_spectra) gives the box of the modes they hold. _psw_norms
    takes the nodes of _psw_plan, t = 0 last, in batches of at most
    fields.CHUNK_SAMPLES output samples; no bit depends on the batch or on
    the BLAS thread count. Raises ValueError on a non-finite sample or an
    overflowing spectrum, and when lhs, the tail's energy or rhs overflows.
    """
    if (field_f.n, field_f.dims, field_f.L) != (field_g.n, field_g.dims, field_g.L):
        raise ValueError("fields live on different grids")
    if not 0 < t_max < np.inf:
        raise ValueError("t_max must be positive and finite")
    p = float(p)
    p_star = conjugate_exponent(p)
    if np.iscomplexobj(field_f.data) or np.iscomplexobj(field_g.data):
        raise ValueError("psw_integral takes real fields only")
    n, dims, cell, split = field_f.n, field_f.dims, field_f.cell_volume, len(field_f.masks)
    kmax, spectra = _held_spectra(np.concatenate([field_f.data, field_g.data]), dims)
    xi_sq, grad_mult = _multipliers(dims, field_f.L, _held_points(dims, kmax))
    times, halves, weights, tail_factor = _psw_plan(field_f.L, kmax, float(t_max))
    batch = max(1, CHUNK_SAMPLES // (n * (field_f.data.size + field_g.data.size)))
    values = np.empty(len(times))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(times), batch):
            norm_f, norm_g = _psw_norms(spectra, xi_sq, grad_mult, dims, kmax, split, times[i : i + batch])
            values[i : i + batch] = cell * np.multiply(norm_f, norm_g).reshape(len(norm_f), -1).sum(axis=1)
        lhs = sum(half * sum(weights * v) for half, v in zip(halves, values[:-1].reshape(-1, GL_ORDER)))
        energy = cell * np.sqrt(np.sum(norm_f[-1] ** 2) * np.sum(norm_g[-1] ** 2))  # t = 0
        rhs = (p_star - 1.0) * lp_norm(field_f, p) * lp_norm(field_g, p / (p - 1.0))
    if not np.isfinite([lhs, energy, rhs]).all():
        raise ValueError("lhs, the tail's gradient energy or rhs overflows")
    return PswResult(lhs=float(lhs), rhs=float(rhs), tail_bound=float(tail_factor * energy))
