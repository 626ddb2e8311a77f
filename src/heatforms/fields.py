"""Form-valued fields on periodic grids, their norms, and FFLD files.

Conventions used package-wide:

* The domain is the torus [0, L)^n sampled on a regular grid with dims[a]
  points along axis a (powers of two). Grid point j has coordinate
  j * L / dims[a].
* A field takes values in the exterior algebra: one scalar grid per subset
  of {1, ..., n}, the subset written as a bit mask. It is stored as one
  array `data` of shape (len(masks), *dims) with the ascending `masks`
  naming its rows; the set of subsets present is determined by the grades
  of the field (all grades, one grade, or any non-empty subset of grades).
  `components` is a read-only mask -> row view of `data`.
* Fourier coefficients follow f(x) = sum_k c_k exp(i 2 pi k.x / L) with
  c_k = fftn(samples) / prod(dims), so the frequency of lattice index k is
  xi = k / L.

The package has one helper thread, the worker of a one-thread executor
made on first use (_on_helper). It lives here, in the lowest layer, so
every layer above can share it: random_band_limited, norm_search and the
Ito study hand it the next of a sequence of draws (_one_ahead), and the
stochastic module the other half of its path and bootstrap draws. It runs
only draws into arrays the caller allocated and calls no public function.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from math import isqrt, prod, sqrt
from types import MappingProxyType

import numpy as np

from .errors import FFLDError

FFLD_MAGIC = "FFLD1 "
FFLD_ORDER = "ascending-mask"
FFLD_LAYOUT = "component-major,row-major"
FFLD_DTYPE = "f64le"
_MODE_TOL = 1e-12  # a mode is held when some row's |c_k| exceeds this times that row's max |c_k| (_held)
_GEMM_SIZE = 1 << 18  # OpenBLAS runs a product with m * n * k at most this on one thread; bounds a band matrix (_dense)
_DENSE_SPAN = 8  # a dense axis has 2K + 1 <= this * log2(d) (_dense), as measured on one core
_BLOCK = 1 << 15  # points per block of lp_norm's sum and of _held_spectra's rffts, so they work in cache
CHUNK_SAMPLES = 1 << 17  # samples per batch: random_band_limited's rows, the probe's f and Tf, psw's node gradients


def _grid(n: int, dims) -> tuple[int, ...]:
    """dims as a tuple of ints, checked to be one power-of-two size per axis, n >= 1."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    dims = tuple(int(d) for d in dims)
    if len(dims) != n:
        raise ValueError("need one grid size per axis")
    if not all(d >= 2 and d & (d - 1) == 0 for d in dims):
        raise ValueError("grid sizes must be powers of two (>= 2)")
    return dims


def masks_for_grades(n: int, grades) -> list[int]:
    """Ascending masks whose popcount lies in the given grade set; ValueError if there are none."""
    gset = set(grades)
    masks = [m for m in range(1 << n) if m.bit_count() in gset]
    if not masks:
        raise ValueError("a field needs at least one component")
    return masks


@dataclass(eq=False)
class FormField:
    """Periodic grid field stored as one stack of components, a row per mask."""

    n: int
    dims: tuple[int, ...]
    L: float
    masks: list[int]
    data: np.ndarray

    def __post_init__(self):
        self.dims = _grid(self.n, self.dims)
        if not 0 < self.L < np.inf:
            raise ValueError("period length must be positive and finite")
        self.masks = [int(m) for m in self.masks]
        if not self.masks:
            raise ValueError("a field needs at least one component")
        for mask in self.masks:
            if mask < 0 or mask >> self.n:
                raise ValueError(f"component mask {mask} invalid for n={self.n}")
        if any(a >= b for a, b in zip(self.masks, self.masks[1:])):
            raise ValueError("component masks must be strictly ascending")
        self.data = np.asarray(self.data)
        if self.data.shape != (len(self.masks),) + self.dims:
            raise ValueError("data shape does not match (len(masks), *dims)")

    @classmethod
    def zeros(cls, n, dims, L=1.0, grades=None) -> "FormField":
        if grades is None:
            grades = range(n + 1)
        masks = masks_for_grades(n, grades)
        return cls(n, tuple(dims), L, masks, np.zeros((len(masks),) + tuple(dims)))

    @property
    def components(self) -> MappingProxyType:
        """Read-only mapping from mask to that component's row view of data."""
        return MappingProxyType(dict(zip(self.masks, self.data)))

    @property
    def grades(self) -> frozenset:
        return frozenset(m.bit_count() for m in self.masks)

    @property
    def cell_volume(self) -> float:
        return prod(self.L / d for d in self.dims)

    def like(self, data) -> "FormField":
        """Field on the same grid and masks holding the given data."""
        return FormField(self.n, self.dims, self.L, self.masks, data)


def lp_norm(field: FormField, p: float) -> float:
    """Riemann-sum L^p norm of the pointwise Euclidean length, finite p >= 1."""
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"exponent must be finite and >= 1, got {p}")
    return float(_lp_norms(field.data.reshape(len(field.masks), -1), (p,), field.cell_volume)[0])


def _lp_norms(stack: np.ndarray, exponents, cell: float) -> np.ndarray:
    """(cell * sum_x |f(x)|^p)^(1/p), |f(x)|^2 = sum_I |f_I(x)|^2, per p and field of a (..., rows, points) stack.

    Shape (len(exponents), ...). Each block of _BLOCK points is read once
    and summed to every power in cache. A field whose sum over- or
    underflows is summed again, over all its points at once, as |f(x)|
    (np.hypot, which does not overflow) divided by its largest value.
    Raises ValueError when a norm is not finite, or is 0 for a nonzero field
    (a cell volume that underflows, say).
    """
    sums = [0.0] * len(exponents)
    with np.errstate(over="ignore"):
        for start in range(0, stack.shape[-1], _BLOCK):
            block = stack[..., start : start + _BLOCK]
            block = np.abs(block) if np.iscomplexobj(block) else block
            density = np.einsum("...ij,...ij->...j", block, block)  # sum_I |f_I(x)|^2
            sums = [total + np.sum(density ** (p / 2.0), axis=-1) for total, p in zip(sums, exponents)]
        totals = cell * np.array(sums)
    norms = np.array([total ** (1.0 / p) for total, p in zip(totals, exponents)])
    redo = (totals == 0.0) | ~np.isfinite(totals)
    if redo.any():
        with np.errstate(over="ignore", invalid="ignore"):  # a norm that over- or underflows raises below
            length = np.hypot.reduce(np.abs(stack), axis=-2)
            peak = length.max(axis=-1)
            length /= np.where(peak > 0.0, peak, 1.0)[..., None]
            norms[redo] = np.array([peak * (cell * np.sum(length**p, axis=-1)) ** (1.0 / p) for p in exponents])[redo]
        for p, norm in zip(exponents, norms):
            if not (np.isfinite(norm) & ((norm > 0.0) | (peak == 0.0))).all():
                raise ValueError(f"exponent {p}: the L^p norm of a nonzero field over- or underflows a double")
    return norms


def cosine_field(n, dims, L, kvec, mask, amplitude=1.0) -> FormField:
    """amplitude * cos(2 pi k.x / L) placed in one component."""
    dims = _grid(n, dims)
    grids = np.meshgrid(*[np.arange(d) * (L / d) for d in dims], indexing="ij", sparse=True)
    arg = sum(2.0 * np.pi * kvec[a] / L * grids[a] for a in range(n))
    comp = amplitude * np.cos(arg)
    return FormField(n, dims, L, [mask], np.broadcast_to(comp, (1,) + dims).copy())


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _unit_rows(d: int, ks) -> np.ndarray:
    """One row of length d per frequency k, with a 1 at index k mod d."""
    rows = np.zeros((len(ks), d))
    rows[np.arange(len(ks)), np.asarray(ks) % d] = 1.0
    return rows


@lru_cache(maxsize=32)
def _real_band(d: int, keep: int):
    """Real DFT matrices between d samples and the rfft bins k = 0..keep-1.

    Built by transforming unit vectors (the DFT matrix is symmetric), so
    they carry the FFT's twiddles and irfft's conventions, with no d x d
    temporary. forward is (d, 2 keep): x @ forward holds rfft(x)[..., :keep]
    as interleaved (re, im) pairs, whose complex view is the band. back is
    (2 keep, d): the interleaved band times back is irfft(band, n=d),
    which weights k = 0 and Nyquist by 1/d and the other bins by 2/d, and
    drops Im at k = 0 and Nyquist.
    """
    units = np.stack([np.eye(keep), 1j * np.eye(keep)], axis=1).reshape(2 * keep, keep)
    forward = np.fft.fft(_unit_rows(d, range(keep))).T
    return _frozen(forward).view(float), _frozen(np.fft.irfft(units, n=d))


@lru_cache(maxsize=32)
def _complex_band(d: int, kmax: int):
    """DFT matrices between d samples and the band |k| <= kmax, in fftfreq's order.

    forward is (B, d) and gives fft(x)[band]; back is (d, B) and gives the
    ifft of a spectrum that is zero outside the band.
    """
    units = _unit_rows(d, np.flatnonzero(np.abs(np.fft.fftfreq(d) * d) <= kmax))
    return _frozen(np.fft.fft(units)), _frozen(np.fft.ifft(units).T)


def _blocks(outer: int, inner: int, lines: int):
    """Near-square block sizes (matrix side, lines side) for an (outer x inner) matrix times lines.

    Each block product has m * n * k at most _GEMM_SIZE (inner is: _dense
    bounds every band matrix): a gemm OpenBLAS runs on one thread, so its
    bits do not depend on the thread count. A block of one row or one line
    is a gemv or a dot, which OpenBLAS threads from far fewer entries.
    """
    side = min(outer, isqrt(_GEMM_SIZE // inner))
    return side, min(lines, _GEMM_SIZE // (inner * side))


def _last_axis(x: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = x @ m over the last axis of x, in blocks that BLAS runs on one thread."""
    rows = x.reshape(-1, m.shape[0])
    flat = out.reshape(len(rows), m.shape[1])
    width, step = _blocks(m.shape[1], m.shape[0], len(rows))
    for j in range(0, m.shape[1], width):
        cols = slice(j, j + width)
        for i in range(0, len(rows), step):
            np.matmul(rows[i : i + step], m[:, cols], out=flat[i : i + step, cols])
    return out


def _middle_axis(m: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """m @ x over one axis of x, in blocks that BLAS runs on one thread."""
    lines = x.reshape(prod(x.shape[:axis]), x.shape[axis], -1)
    out = np.empty((len(lines), m.shape[0], lines.shape[2]), np.result_type(m, x))
    height, step = _blocks(m.shape[0], m.shape[1], lines.shape[2])
    for i in range(0, m.shape[0], height):
        rows = slice(i, i + height)
        for j in range(0, lines.shape[2], step):
            np.matmul(m[rows], lines[..., j : j + step], out=out[:, rows, j : j + step])
    return out.reshape(x.shape[:axis] + (m.shape[0],) + x.shape[axis + 1 :])


def _dense(d: int, K: int) -> bool:
    """Per-axis rule: a d-point axis is dense for |k| <= K while b = 2K + 1 <= _DENSE_SPAN log2 d, b d <= _GEMM_SIZE."""
    b = 2 * min(K, d // 2) + 1
    return b <= _DENSE_SPAN * (d.bit_length() - 1) and b * d <= _GEMM_SIZE


@lru_cache(maxsize=64)
def _band_axes(dims: tuple, kmax: tuple) -> tuple:
    """Per axis, (index, k): the half-lattice points held for the box |k_a| <= kmax[a].

    An axis _dense calls dense holds its band (index, in _complex_band's
    order; rfft bins 0..K on the last axis) and is transformed by the band
    matrices; a wide one holds every point (index None) and is transformed
    by in-place FFT passes. k holds the integer frequencies held.
    """
    axes = []
    for a, (d, K) in enumerate(zip(dims, kmax)):
        k = np.rint(np.fft.fftfreq(d) * d).astype(int)[: d // 2 + 1 if a == len(dims) - 1 else d]
        index = _frozen(np.flatnonzero(np.abs(k) <= K)) if _dense(d, K) else None
        axes.append((index, _frozen(k if index is None else k[index])))
    return tuple(axes)


def _held_points(dims: tuple, kmax) -> tuple:
    """kmax with every wide axis set to d // 2: boxes that hold the same points share one cache key."""
    return tuple(K if _dense(d, K) else d // 2 for d, K in zip(dims, kmax))


def _band_inverse(spectra: np.ndarray, dims: tuple, kmax, out: np.ndarray) -> np.ndarray:
    """Real grids, written into out, from spectra on the points _band_axes holds for kmax.

    Passes in irfftn's order, the last axis last: a dense axis takes
    _complex_band's back matrix (_real_band's on the last) in _blocks, a
    wide one an ifft pass in place (an irfft into out on the last).
    """
    lead = spectra.ndim - len(dims)
    axes = _band_axes(dims, tuple(kmax))
    for a, ((index, _), d, k) in enumerate(zip(axes[:-1], dims, kmax)):
        if index is None:
            np.fft.ifft(spectra, axis=lead + a, out=spectra)
        else:
            spectra = _middle_axis(_complex_band(d, k)[1], spectra, lead + a)
    if axes[-1][0] is None:
        return np.fft.irfft(spectra, n=dims[-1], out=out)
    return _last_axis(spectra.view(float), _real_band(dims[-1], kmax[-1] + 1)[1], out)


def _held(spectra: np.ndarray) -> np.ndarray:
    """Modes some row (axis 0) holds: |c| > _MODE_TOL * that row's max |c|; a zero row holds none.

    Raises ValueError when some |c| is not finite: a non-finite coefficient,
    or one whose magnitude overflows although its parts do not.
    """
    mags = np.abs(spectra)
    peak = mags.max(axis=tuple(range(1, mags.ndim)), keepdims=True)
    if not np.isfinite(peak).all():
        raise ValueError("field has non-finite samples or its spectrum overflows")
    return np.any(mags > _MODE_TOL * peak, axis=0)


def _held_band(spectra: np.ndarray, dims: tuple) -> tuple:
    """(kmax, spectra cut to the points _band_axes holds for kmax), kmax the held modes' box.

    The leading axes of the half spectra index rows. K_a is the largest
    |k_a| of a mode _held keeps (0 for none); a wide axis is not cut.
    """
    n = len(dims)
    held = _held(spectra.reshape((-1,) + spectra.shape[-n:]))
    kmax = []
    for a, d in enumerate(dims):
        i = np.flatnonzero(held.any(axis=tuple(b for b in range(n) if b != a)))
        kmax.append(int(np.minimum(i, d - i).max(initial=0)))  # |k_a| at index i in fftfreq's order
    for a, (index, _) in enumerate(_band_axes(dims, tuple(kmax))):
        if index is not None:
            spectra = spectra.take(index, axis=spectra.ndim - n + a)
    return tuple(kmax), spectra


def _rfft_sums(stack: np.ndarray, points: int) -> tuple:
    """Last-axis rffts of a real stack, and per bin the sums of |Re| and |Im| over runs of points lines.

    The sums come interleaved, one row per run. The rffts go in blocks of
    about _BLOCK samples, each summed while it is in cache.
    """
    d = stack.shape[-1]
    lines = stack.reshape(-1, d)
    spectra = np.empty(stack.shape[:-1] + (d // 2 + 1,), complex)
    out = spectra.reshape(len(lines), -1)
    step = max(1, _BLOCK // d)  # both powers of two: a block holds whole runs or an equal part of one
    parts = np.zeros((len(lines) // points, 2 * out.shape[1]))
    mags = np.empty((min(step, len(lines)), parts.shape[1]))
    for start in range(0, len(lines), step):
        block = np.fft.rfft(lines[start : start + step], out=out[start : start + step]).view(float)
        count = len(block)
        sums = np.abs(block, out=mags[:count]).reshape(-1, min(count, points), parts.shape[1]).sum(axis=1)
        parts[start // points : (start + count - 1) // points + 1] += sums
    return spectra, parts


def _last_live(parts: np.ndarray, points: int) -> int:
    """The last last-axis bin that may hold a mode _held keeps, from _rfft_sums' parts.

    parts holds, per row r and bin k, sum_x' |Re P_r(x', k)| and |Im P_r(x',
    k)| over the points x' of the other axes. Their sum S_r(k) bounds every
    coefficient of bin k in row r, and by Parseval and Cauchy-Schwarz
    floor_r = max_k S_r(k) / sqrt(2 points) is at most that row's largest
    |c|, so a bin with S_r(k) <= _MODE_TOL / 2 * floor_r in every row (zero
    rows included) holds no mode; the half covers rounding. A row whose
    sums are not all finite keeps every bin, so no overflowed coefficient
    is dropped unseen.
    """
    bound = parts[:, 0::2] + parts[:, 1::2]
    peak = bound.max(axis=1, keepdims=True)
    if not peak.max() < np.inf:  # an inf or nan sum
        return bound.shape[1] - 1
    cut = peak * (0.5 * _MODE_TOL / sqrt(2 * points))  # _MODE_TOL / 2 * floor_r
    live = np.flatnonzero((bound > cut).any(axis=0))
    return int(live[-1]) if len(live) else 0


def _held_spectra(stack: np.ndarray, dims: tuple) -> tuple:
    """_held_band of the rfftn of a real stack over its trailing len(dims) axes, bitwise.

    The last-axis rffts come with _last_live's bound. The bins past the
    last live one are dropped when the rest leave the last axis dense, and
    the other axes' fft passes run on the kept bins only, in rfftn's
    order; every line is transformed on its own, so the box and the cut
    spectra are those of the whole rfftn. It is also every caller's input
    check: _held sees every coefficient left before the cut to the box, and
    a non-finite sample leaves bin 0 of its line non-finite, a bin never
    dropped. Raises ValueError on a non-finite sample or an overflowed
    spectrum.
    """
    n, d = len(dims), dims[-1]
    points = prod(dims[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        spectra, parts = _rfft_sums(stack, points)
        last = _last_live(parts, points)
        if _dense(d, last):
            spectra = np.ascontiguousarray(spectra[..., : last + 1])
        for axis in reversed(range(spectra.ndim - n, spectra.ndim - 1)):
            np.fft.fft(spectra, axis=axis, out=spectra)
        return _held_band(spectra, dims)


def _band_spectrum(noise: np.ndarray, dims: tuple, band: tuple, mean_zero: bool) -> np.ndarray:
    """Spectra of a real (..., rows, *dims) stack on the points _band_axes holds for band.

    A real DFT over the last axis, then a complex DFT over each other axis,
    last to first: a band-matrix product on a dense axis, an FFT pass
    zeroed outside the band on a wide one. _band_inverse returns.
    """
    n, lead = len(dims), noise.ndim - len(dims)
    axes = _band_axes(dims, band)
    if axes[-1][0] is None:
        spectrum = np.fft.rfft(noise)
    else:
        forward = _real_band(dims[-1], band[-1] + 1)[0]
        spectrum = _last_axis(noise, forward, np.empty(noise.shape[:-1] + forward.shape[1:])).view(complex)
    for a in reversed(range(n - 1)):
        if axes[a][0] is None:
            np.fft.fft(spectrum, axis=lead + a, out=spectrum)
        else:
            spectrum = _middle_axis(_complex_band(dims[a], band[a])[0], spectrum, lead + a)
    for a, (_, k) in enumerate(axes):  # zero a wide axis outside the band; a dense one holds no more
        spectrum[(slice(None),) * (lead + a) + (np.abs(k) > band[a],)] = 0.0
    if mean_zero:
        spectrum[(Ellipsis,) + (0,) * n] = 0.0
    return spectrum


def _draw_band(n, dims, kmax) -> tuple:
    """(dims, band) of a draw: dims checked by _grid, band[a] = min(kmax, dims[a] // 2)."""
    dims = _grid(n, dims)
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    return dims, tuple(min(kmax, d // 2) for d in dims)


def _forget_helper():
    """A forked child has no helper thread; it starts its own."""
    global _lock, _helper
    _lock, _helper = threading.Lock(), None


_forget_helper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


@contextlib.contextmanager
def _on_helper(fn, *args):
    """Run fn(*args) on the helper thread during the with-body.

    The helper is the one worker of a concurrent.futures executor made on
    first use, and anew in a forked child; the interpreter joins it at
    exit. The exit of the with waits for the call and re-raises its
    exception, the same object, unless the body raised one of its own.
    """
    global _helper
    with _lock:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor  # off the package import

            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="heatforms-draws")
    job = _helper.submit(fn, *args)
    try:
        yield
    finally:
        job.exception()  # waits for the call
    job.result()


def _one_ahead(jobs):
    """Yield the out of each (out, fill) in jobs, in order, once fill() has filled it.

    The caller runs the first fill; the helper runs each later one while
    the caller works on the out before it, so the fills still run one at
    a time in order and may share a stream. jobs is read one ahead: a
    generator of jobs keeps at most two outs alive. Close the generator
    when the caller's work may raise, so the exit waits for the fill.
    """
    jobs = iter(jobs)
    out, fill = next(jobs)
    fill()
    for ahead, fill in jobs:
        with _on_helper(fill):
            yield out
        out = ahead
    yield out


def random_band_limited(n, dims, L, rng, kmax=3, grades=None, mean_zero=True) -> FormField:
    """Gaussian field filtered to lattice frequencies |k_a| <= kmax.

    One normal draw from rng fills every component, in ascending-mask
    order. rng must be a numpy Generator: its standard_normal fills the
    field's own array through out=. The rows go in chunks of at most
    CHUNK_SAMPLES samples (at least one row): the helper thread draws
    chunk c + 1 while the caller filters chunk c (_band_spectrum) and
    returns it (_band_inverse) into chunk c's own rows. The stream is read
    in one draw's order, so the noise is bitwise one standard_normal of
    the whole shape. A field of one chunk runs no helper job; in one of
    several, the last-axis block products break at chunk edges, which
    moves the field by rounding only (up to 4e-16 of max |f| at 64^3). It
    equals a full rfftn, filter and irfftn to rounding, not bitwise. Its
    band matrices hold at most _GEMM_SIZE entries (_dense), so it needs a
    few times the field's memory; on the BLAS thread count see _blocks.
    """
    dims, band = _draw_band(n, dims, kmax)
    masks = masks_for_grades(n, range(n + 1) if grades is None else grades)
    # the field overwrites the noise: no second grid-sized array, and no
    # grid-sized hole left in the heap under the caches a first call builds
    noise = np.empty((len(masks),) + dims)
    rows = max(1, CHUNK_SAMPLES // prod(dims))
    chunks = (noise[start : start + rows] for start in range(0, len(masks), rows))
    jobs = ((chunk, partial(rng.standard_normal, out=chunk)) for chunk in chunks)
    with contextlib.closing(_one_ahead(jobs)) as drawn:
        for chunk in drawn:
            _band_inverse(_band_spectrum(chunk, dims, band, mean_zero), dims, band, chunk)
    return FormField(n, dims, L, masks, noise)


def write_ffld(field: FormField, path) -> None:
    """Write the FFLD v1 container (header line + little-endian doubles)."""
    grades = sorted(field.grades)
    expected = masks_for_grades(field.n, grades)
    if expected != field.masks:
        raise FFLDError("component set is not a full union of grades")
    if np.iscomplexobj(field.data):
        raise FFLDError("FFLD stores real fields only")
    header = {
        "n": field.n,
        "dims": list(field.dims),
        "L": field.L,
        "grades": grades,
        "order": FFLD_ORDER,
        "layout": FFLD_LAYOUT,
        "dtype": FFLD_DTYPE,
    }
    with open(path, "wb") as fh:
        fh.write(FFLD_MAGIC.encode("ascii"))
        fh.write(json.dumps(header).encode("ascii"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(field.data, dtype="<f8"))  # no bytes copy


def read_ffld(path) -> FormField:
    """Read an FFLD v1 file, rejecting any inconsistent header or payload.

    The payload is read straight into the field's array, which the checked
    header sizes; pages past a short payload are never touched.
    """
    with open(path, "rb") as fh:
        n, dims, length, masks = _ffld_header(fh.readline())
        expected_bytes = len(masks) * prod(dims) * 8
        try:
            data = np.empty((len(masks),) + dims, "<f8")
        except (MemoryError, ValueError) as exc:  # a header no array can hold
            raise FFLDError(f"payload of {expected_bytes} bytes cannot be held: {exc}") from exc
        got = fh.readinto(data)
        got += len(fh.read())  # anything past the expected payload
    if got != expected_bytes:
        raise FFLDError(f"payload length {got} != expected {expected_bytes}")
    try:
        return FormField(n, dims, length, masks, data.astype(float, copy=False))
    except ValueError as exc:
        raise FFLDError(str(exc)) from exc


def _ffld_header(line: bytes) -> tuple:
    """(n, dims, L, masks) from an FFLD header line, every field checked."""
    if not line.startswith(FFLD_MAGIC.encode("ascii")):
        raise FFLDError("missing FFLD1 magic")
    try:
        header = json.loads(line[len(FFLD_MAGIC):].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FFLDError(f"unparseable header: {exc}") from exc
    try:
        n = int(header["n"])
        dims = tuple(int(d) for d in header["dims"])
        length = float(header["L"])
        grades = [int(g) for g in header["grades"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FFLDError(f"bad header field: {exc}") from exc
    if header.get("order") != FFLD_ORDER:
        raise FFLDError(f"unsupported order {header.get('order')!r}")
    if header.get("layout") != FFLD_LAYOUT:
        raise FFLDError(f"unsupported layout {header.get('layout')!r}")
    if header.get("dtype") != FFLD_DTYPE:
        raise FFLDError(f"unsupported dtype {header.get('dtype')!r}")
    if n < 1 or len(dims) != n or not length > 0:
        raise FFLDError("inconsistent n/dims/L")
    if n > 16:  # 2^n components; refuse absurd headers before allocating
        raise FFLDError(f"dimension n={n} exceeds the supported cap 16")
    if any(not 0 <= g <= n for g in grades) or len(set(grades)) != len(grades):
        raise FFLDError("invalid grade list")
    try:
        return n, _grid(n, dims), length, masks_for_grades(n, grades)
    except ValueError as exc:
        raise FFLDError(str(exc)) from exc


class TrigSeries:
    """Sparse trigonometric form of a stack of periodic scalar grids.

    Evaluates every row of an (ncomp, *dims) stack, its heat extension and
    its gradient at arbitrary (off-grid) points; used by the path-simulation
    checks where positions do not sit on the grid. All rows share one mode
    list, the modes _held keeps. Only real parts are returned, and
    Re(a e^{i theta} + b e^{-i theta}) = Re((a + conj b) e^{i theta}), so
    when both k and -k are kept the one first in fftn order stays with
    coefficient c_k + conj(c_{-k}); the zero mode, Nyquist modes (whose -k
    is not on the lattice) and modes whose partner is not held stay as they
    are. The waves are built per axis: one complex exponential per point
    and distinct nonzero |k_a|, the negative k_a by conjugation, and each
    mode's wave as the product of its axes' factors.
    """

    def __init__(self, stack, L):
        stack = np.asarray(stack, dtype=float)
        self.L = float(L)
        dims = stack.shape[1:]
        coeff = (np.fft.fftn(stack, axes=range(1, stack.ndim)) / prod(dims)).reshape(len(stack), -1)
        keep = np.flatnonzero(_held(coeff))
        index = np.unravel_index(keep, dims)
        # integer wavenumbers in fftfreq's order; fftfreq(d) * d is off by an
        # ulp for some d (0.9999999999999999 at d = 49)
        kvecs = np.stack([np.where(i < (d + 1) // 2, i, i - d) for i, d in zip(index, dims)], axis=1)
        coeffs = coeff[:, keep].T
        # the kept slot of each mode's lattice negative, where that is -k itself
        neg = np.ravel_multi_index([-i % d for i, d in zip(index, dims)], dims)
        slot = np.minimum(np.searchsorted(keep, neg), len(keep) - 1)
        paired = (keep[slot] == neg) & np.all(kvecs[slot] == -kvecs, axis=1)
        own = np.arange(len(keep))
        lead = paired & (own < slot)
        coeffs[lead] += coeffs[slot[lead]].conj()
        stay = ~paired | (own <= slot)
        kvecs = kvecs[stay]
        self.kvecs = kvecs.astype(float)  # (modes, n)
        self.coeffs = coeffs[stay]  # (modes, ncomp)
        self.ksq = np.sum(self.kvecs**2, axis=1) / self.L**2
        # per axis with a nonzero k_a: the distinct |k_a| > 0 and each mode's
        # column in [1, e^{i theta_j}..., e^{-i theta_j}...]
        self._axes = []
        for a, k in enumerate(kvecs.T):
            absk = np.abs(k)
            present = np.bincount(absk, minlength=1) > 0
            present[0] = False
            freqs = np.flatnonzero(present)
            if len(freqs):
                column = np.cumsum(present)[absk]
                column[k < 0] += len(freqs)
                self._axes.append((a, freqs, column))

    def _waves(self, points) -> np.ndarray:
        """exp(2 pi i k.x / L) per mode and point, shape (modes, *points.shape[:-1]).

        Mode-major, so each axis's factors are gathered as whole rows.
        """
        lead = points.shape[:-1]
        if not self._axes:
            return np.ones((len(self.kvecs),) + lead, complex)
        waves = None
        for a, freqs, column in self._axes:
            table = np.empty((2 * len(freqs) + 1,) + lead, complex)
            table[0] = 1.0
            turns = table[1 : len(freqs) + 1]
            np.exp(1j * np.multiply.outer(2.0 * np.pi / self.L * freqs, points[..., a]), out=turns)
            np.conjugate(turns, out=table[len(freqs) + 1 :])
            factor = table.take(column, axis=0)
            waves = factor if waves is None else np.multiply(waves, factor, out=waves)
        return waves

    def _evaluate(self, points, t, weights) -> np.ndarray:
        """sum_k exp(2 pi i k.x / L - 2 pi^2 |k|^2 t / L^2) weights[k], real part.

        weights has shape (modes, m) and the result (*points.shape[:-1], m).
        t is a scalar or one time per leading index of points. The sum is
        an einsum, not a matmul: BLAS would hand it to a worker thread that
        keeps a core after the call (see the stochastic module).
        """
        t = np.asarray(t)
        t = t.reshape(t.shape + (1,) * (points.ndim - 1 - t.ndim))  # broadcasts over points
        decay = np.exp(-2.0 * np.pi**2 * np.multiply.outer(t, self.ksq))
        return np.einsum("m...,...mc->...c", self._waves(points), decay[..., None] * weights).real

    def value(self, points, t=0.0) -> np.ndarray:
        """Heat extension at time t at points of shape (..., n); shape (..., ncomp)."""
        return self._evaluate(points, t, self.coeffs)

    def gradient(self, points, t=0.0) -> np.ndarray:
        """Spatial gradient of the heat extension; shape (..., ncomp, n)."""
        factors = 1j * 2.0 * np.pi / self.L * self.kvecs  # (modes, n)
        weights = self.coeffs[:, :, None] * factors[:, None, :]
        out = self._evaluate(points, t, weights.reshape(len(factors), -1))
        return out.reshape(out.shape[:-1] + weights.shape[1:])
