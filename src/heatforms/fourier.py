"""Fourier engine on the periodic grid.

Heat extensions, spectral gradients, the frequency-domain matrix of the
Beurling-Ahlfors operator, its application to fields, and the bilinear
gradient integral that pairs two heat extensions.

Every grid multiplier (heat damping, gradients, the operator, and the
Laplace-type multipliers in multipliers.py) takes one path: a real FFT
of the field's component stack onto the half lattice that rfftn stores,
the multiplier applied to those half spectra, and the inverse passes of
_inverse. Half spectra determine a real field only under a Hermitian
multiplier, m(-k) = conj(m(k)) on the full lattice; real even symbols
and i times real odd ones are, and a complex even symbol is applied as
its real and imaginary parts. Complex fields go through as a batch of
their real and imaginary parts, so every multiplier acts on them
complex-linearly.

The operator acts per frequency xi by the reflection

    M(xi) = I - 2 (u ^)(u _|),    u = xi / |xi|,

on the coefficient vector indexed by subsets: u _| lowers the grade by
contracting with u, u ^ raises it again by wedging with u. Since
u _| u ^ + u ^ u _| = |u|^2 = 1, P = (u ^)(u _|) is an orthogonal
projection, so M is a symmetric involution: T^2 = id and T is an L^2
isometry on mean-zero fields. Written out, M has the diagonal
(sum_{l not in K} xi_l^2 - sum_{k in K} xi_k^2)/|xi|^2 and, for each
substitution K -> K\\k+l, the entry -2 xi_k xi_l / |xi|^2 times the
reordering sign; beurling_ahlfors_symbol builds that form entry by entry
and serves as the independent check of the reflection path. M depends
only on the direction of xi; the zero frequency is annihilated by
convention (a homogeneous symbol has no value at the origin, and
constants carry no L^p content on the plane anyway). On the grid, a
point with a Nyquist coordinate also stands for the lattice vector with
that coordinate negated, and a real field sees the mean of the two
symbols there, which is a contraction rather than a reflection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exterior import MultiIndex, substitutions
from .fields import FormField, lp_norm
from .heatmatrix import HeatMatrixSpec, build_full_matrix, conjugate_exponent

GL_ORDER = 16  # Gauss-Legendre nodes per time panel
_MIN_PANELS, _MAX_PANELS = 4, 48  # bounds on psw_integral's time panels
_EIG_CHUNK = 65536  # symbol matrices per batched eigensolve


@lru_cache(maxsize=32)
def _half_lattice(dims: tuple):
    """Frequencies and unit directions u = k/|k| on the real-FFT half lattice.

    The last axis keeps the indices 0..N/2 that rfftn stores, the others
    all N; every axis labels its Nyquist index k = -N/2, as fftfreq does.
    Returns (ks, u, nyquist, u_alias): the integer frequencies k_a, one
    array per axis shaped to broadcast over the half lattice; n direction
    grids (zero at the origin); the flat half-lattice indices of points
    with a Nyquist coordinate on any axis; and at those points the
    direction of the other lattice vector the point stands for, with
    every Nyquist coordinate negated.
    """
    n = len(dims)
    half = dims[:-1] + (dims[-1] // 2 + 1,)
    ks = []
    for a, d in enumerate(dims):
        shape = [1] * n
        shape[a] = half[a]
        ks.append((np.fft.fftfreq(d)[: half[a]] * d).reshape(shape))
    norm = np.sqrt(sum(k**2 for k in ks))
    norm[(0,) * n] = 1.0
    u = tuple(np.broadcast_to(k / norm, half).copy() for k in ks)
    at_nyquist = [np.broadcast_to(np.abs(k) == d // 2, half) for k, d in zip(ks, dims)]
    nyquist = np.flatnonzero(np.logical_or.reduce(at_nyquist))
    u_alias = tuple(
        np.where(nyq.reshape(-1)[nyquist], -1.0, 1.0) * ua.reshape(-1)[nyquist]
        for ua, nyq in zip(u, at_nyquist)
    )
    for arr in tuple(ks) + u + u_alias + (nyquist,):
        arr.flags.writeable = False
    return tuple(ks), u, nyquist, u_alias


@lru_cache(maxsize=32)
def _multipliers(dims: tuple, L: float):
    """|xi|^2 and the gradient multipliers i 2 pi k_a / L on the half lattice.

    The gradient multipliers form one (n, *half) array; each is zeroed at
    the Nyquist index (k = -N/2), where i 2 pi k_a / L has no Hermitian
    partner, so that real fields keep real derivatives.
    """
    ks = _half_lattice(dims)[0]
    xi_sq = sum((k / L) ** 2 for k in ks)
    grad_mult = np.stack(
        np.broadcast_arrays(
            *(np.where(np.abs(k) == d // 2, 0.0, 1j * 2.0 * np.pi / L * k) for k, d in zip(ks, dims))
        )
    )
    xi_sq.flags.writeable = False
    grad_mult.flags.writeable = False
    return xi_sq, grad_mult


def _inverse(spectra: np.ndarray, dims: tuple) -> np.ndarray:
    """Inverse real FFT of half spectra over the trailing len(dims) axes.

    These are numpy irfftn's passes in its order, but the ifft passes run
    in place: irfftn would allocate a new array for each of them.
    """
    for axis in range(spectra.ndim - len(dims), spectra.ndim - 1):
        np.fft.ifft(spectra, axis=axis, out=spectra)
    return np.fft.irfft(spectra, n=dims[-1])


def _through_spectrum(data: np.ndarray, dims: tuple, act) -> np.ndarray:
    """Hermitian Fourier multiplier act over the trailing len(dims) axes of a stack.

    One rfftn into a new (batch, *rows, *half) buffer, act on it, one
    _inverse. The batch axis holds real data alone, or the real and
    imaginary parts of complex data. act may work in place and may insert
    axes after the batch axis.
    """
    complex_in = np.iscomplexobj(data)
    batch = np.stack([data.real, data.imag]) if complex_in else data[None]
    spectra = np.empty(batch.shape[:-1] + (dims[-1] // 2 + 1,), complex)
    np.fft.rfftn(batch, axes=tuple(range(batch.ndim - len(dims), batch.ndim)), out=spectra)
    out = _inverse(act(spectra), dims)
    return out[0] + 1j * out[1] if complex_in else out[0]


def heat_extension(field: FormField, t: float) -> FormField:
    """Damp every Fourier mode by exp(-2 pi^2 |xi|^2 t)."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0.0:
        return field.copy()
    xi_sq, _ = _multipliers(field.dims, field.L)
    damp = np.exp(-2.0 * np.pi**2 * xi_sq * t)
    return field.like(_through_spectrum(field.data, field.dims, lambda s: s * damp))


def spectral_gradient(field: FormField) -> np.ndarray:
    """Exact spectral derivative along every axis of every component.

    Returns an array of shape (len(field.masks), n, *dims): entry [c, a]
    is the derivative of component row c along axis a.
    """
    _, grad_mult = _multipliers(field.dims, field.L)
    return _through_spectrum(field.data, field.dims, lambda s: s[:, :, None] * grad_mult)


@dataclass(frozen=True)
class SymbolMatrix:
    """Frequency-domain matrix of the operator at one frequency."""

    xi: np.ndarray
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
    offdiag = np.array(
        [
            ((T.mask << n) + mask, k - 1, l - 1, sign)
            for mask in range(1 << n)
            for k, l, T, sign in substitutions(MultiIndex(mask, n))
        ],
        dtype=int,
    ).reshape(-1, 4)
    entries, a, b, signs = offdiag.T
    signs = signs.astype(float)
    for arr in (diag_signs, entries, a, b, signs):
        arr.flags.writeable = False
    return diag_signs, entries, a, b, signs


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
    return SymbolMatrix(xi=xi, matrix=_dense_symbols(xi[None])[0])


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
    return SymbolMatrix(xi=xi, matrix=m)


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


def apply_beurling_ahlfors(field: FormField) -> FormField:
    """Apply the operator as the reflection f^ - 2 u^(u _| f^) per frequency.

    One real FFT of the component stack, n contractions and n wedge
    products with the unit-direction grids, one inverse real FFT. The
    symbol couples only components of equal grade, so a single-grade
    field stays single-grade. The mean of every component is annihilated.
    """
    if not field.is_finite():
        raise ValueError("field has non-finite samples")
    n, dims, masks = field.n, field.dims, field.masks
    if not masks:
        return field.copy()
    def reflect(spectra):
        # Cached after the spectra buffer: grids cached before it pinned the
        # heap and raised peak RSS by ~2 MB over repeated 256^2 applies.
        _, u, nyquist, u_alias = _half_lattice(dims)
        lowered, plan = _reflection_plan(n, tuple(masks))
        # A Nyquist point also stands for the lattice vector with its Nyquist
        # coordinates negated; a real field sees the mean of both symbols.
        flat = spectra.reshape(spectra.shape[:2] + (-1,))
        aliased = _reflect(flat[..., nyquist], u_alias, plan, lowered)
        _reflect(spectra, u, plan, lowered)
        flat[..., nyquist] = 0.5 * (flat[..., nyquist] + aliased)
        spectra[(Ellipsis,) + (0,) * n] = 0.0
        return spectra

    return field.like(_through_spectrum(field.data, dims, reflect))


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


def psw_integral(
    field_f: FormField,
    field_g: FormField,
    p: float,
    t_max: float,
) -> PswResult:
    """Bilinear integral of gradient lengths of two heat extensions.

    lhs integrates ||grad u(., t)|| ||grad v(., t)|| over the torus and
    t in [0, t_max] (composite Gauss-Legendre on panels refined
    geometrically toward t = 0, where fast modes still matter);
    rhs = (p* - 1) ||f||_p ||g||_p'. The discarded (t_max, inf) part is
    bounded by Cauchy-Schwarz and the slowest nonzero mode decay:
    exp(-r t_max)/r * ||grad f||_2 ||grad g||_2 with r = 4 pi^2 / L^2.
    Both fields must be real: one real FFT of their stacked components,
    then one inverse real FFT of all damped gradients per time node, and
    one more at t = 0 for the tail.
    """
    if (field_f.n, field_f.dims, field_f.L) != (field_g.n, field_g.dims, field_g.L):
        raise ValueError("fields live on different grids")
    if not 0 < t_max < np.inf:
        raise ValueError("t_max must be positive and finite")
    p = float(p)
    p_star = conjugate_exponent(p)
    if not (field_f.is_finite() and field_g.is_finite()):
        raise ValueError("field has non-finite samples")
    if np.iscomplexobj(field_f.data) or np.iscomplexobj(field_g.data):
        raise ValueError("psw_integral takes real fields only")
    n, dims, L = field_f.n, field_f.dims, field_f.L
    cell = field_f.cell_volume
    xi_sq, grad_mult = _multipliers(dims, L)
    stack = np.concatenate([field_f.data, field_g.data])
    spectra = np.fft.rfftn(stack, axes=tuple(range(1, n + 1)))
    split = len(field_f.masks)

    def grad_norms_at(t):
        """Pointwise gradient lengths of the heat extensions of f and of g."""
        damped = spectra * np.exp(-2.0 * np.pi**2 * xi_sq * t)
        grads = _inverse(damped[:, None] * grad_mult, dims)
        sq = grads**2
        return np.sqrt(sq[:split].sum(axis=(0, 1))), np.sqrt(sq[split:].sum(axis=(0, 1)))

    def integrand(t):
        norm_f, norm_g = grad_norms_at(t)
        return cell * float(np.sum(norm_f * norm_g))

    rate_max = 4.0 * np.pi**2 * float(np.max(xi_sq))
    n_panels = int(np.clip(np.ceil(np.log2(max(rate_max * t_max, 4.0))), _MIN_PANELS, _MAX_PANELS))
    breaks = [0.0] + [t_max * 2.0 ** (j - n_panels + 1) for j in range(n_panels)]
    nodes, weights = np.polynomial.legendre.leggauss(GL_ORDER)
    lhs = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        lhs += half * sum(w * integrand(mid + half * x) for x, w in zip(nodes, weights))

    rate_min = 4.0 * np.pi**2 / L**2
    norm_f, norm_g = grad_norms_at(0.0)
    energy = cell * np.sqrt(np.sum(norm_f**2) * np.sum(norm_g**2))
    tail = float(np.exp(-rate_min * t_max) / rate_min * energy)

    rhs = (p_star - 1.0) * lp_norm(field_f, p) * lp_norm(field_g, p / (p - 1.0))
    return PswResult(lhs=float(lhs), rhs=float(rhs), tail_bound=tail)
