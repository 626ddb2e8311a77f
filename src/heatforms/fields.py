"""Form-valued fields on periodic grids, their norms, and FFLD files.

Conventions used package-wide:

* The domain is the torus [0, L)^n sampled on a regular grid with dims[a]
  points along axis a (powers of two). Grid point j has coordinate
  j * L / dims[a].
* A field takes values in the exterior algebra: one scalar grid per subset
  of {1, ..., n}, the subset written as a bit mask. It is stored as one
  array `data` of shape (len(masks), *dims) with the ascending `masks`
  naming its rows; the set of subsets present is determined by the grades
  of the field (all grades, one grade, or any subset of grades).
  `components` is a read-only mask -> row view of `data`.
* Fourier coefficients follow f(x) = sum_k c_k exp(i 2 pi k.x / L) with
  c_k = fftn(samples) / prod(dims), so the frequency of lattice index k is
  xi = k / L.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod
from types import MappingProxyType

import numpy as np

from .errors import FFLDError

FFLD_MAGIC = "FFLD1 "
FFLD_ORDER = "ascending-mask"
FFLD_LAYOUT = "component-major,row-major"
FFLD_DTYPE = "f64le"
_MODE_TOL = 1e-12  # TrigSeries.from_grid drops |c_k| <= this * max(max |c_k|, 1)


def _is_pow2(v: int) -> bool:
    return v >= 2 and (v & (v - 1)) == 0


def masks_for_grades(n: int, grades) -> list[int]:
    """Ascending masks whose popcount lies in the given grade set."""
    gset = set(grades)
    return [m for m in range(1 << n) if m.bit_count() in gset]


@dataclass(eq=False)
class FormField:
    """Periodic grid field stored as one stack of components, a row per mask."""

    n: int
    dims: tuple[int, ...]
    L: float
    masks: list[int]
    data: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.dims) != self.n:
            raise ValueError("need one grid size per axis")
        if not all(_is_pow2(d) for d in self.dims):
            raise ValueError("grid sizes must be powers of two (>= 2)")
        if not 0 < self.L < np.inf:
            raise ValueError("period length must be positive and finite")
        self.masks = [int(m) for m in self.masks]
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

    def copy(self) -> "FormField":
        return self.like(self.data.copy())

    def _check_compatible(self, other):
        if (self.n, self.dims, self.masks) != (other.n, other.dims, other.masks) or (
            self.L != other.L
        ):
            raise ValueError("fields have different grids or components")

    def __add__(self, other):
        self._check_compatible(other)
        return self.like(self.data + other.data)

    def __mul__(self, scalar):
        return self.like(self.data * scalar)

    __rmul__ = __mul__

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.data)))


def lp_norm(field: FormField, p: float) -> float:
    """Riemann-sum L^p norm of the pointwise Euclidean length, finite p >= 1."""
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"exponent must be finite and >= 1, got {p}")
    d = np.abs(field.data) if np.iscomplexobj(field.data) else field.data
    density = np.einsum("i...,i...->...", d, d)  # sum_I |f_I(x)|^2
    return float((field.cell_volume * np.sum(density ** (p / 2.0))) ** (1.0 / p))


def cosine_field(n, dims, L, kvec, mask, amplitude=1.0) -> FormField:
    """amplitude * cos(2 pi k.x / L) placed in one component."""
    grids = np.meshgrid(
        *[np.arange(d) * (L / d) for d in dims], indexing="ij", sparse=True
    )
    arg = sum(2.0 * np.pi * kvec[a] / L * grids[a] for a in range(n))
    comp = amplitude * np.cos(arg)
    return FormField(n, tuple(dims), L, [mask], np.broadcast_to(comp, (1,) + tuple(dims)).copy())


def random_band_limited(
    n, dims, L, rng, kmax=3, grades=None, mean_zero=True
) -> FormField:
    """Gaussian field filtered to lattice frequencies |k_a| <= kmax.

    One normal draw fills every component, in ascending-mask order. The
    real FFT runs axis by axis in rfftn's order (last axis first), and
    after each pass only the band |k_a| <= kmax is kept; the inverse runs
    irfftn's passes on the band alone. Lines outside the band would
    transform to exact zeros, so this gives the numbers of a full
    rfftn, filter and irfftn.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if grades is None:
        grades = range(n + 1)
    dims = tuple(dims)
    masks = masks_for_grades(n, grades)
    band = [np.flatnonzero(np.abs(np.fft.fftfreq(d) * d) <= kmax) for d in dims[:-1]]
    spectrum = np.fft.rfft(rng.standard_normal((len(masks),) + dims))
    spectrum = spectrum[..., : min(kmax, dims[-1] // 2) + 1]
    for a in reversed(range(n - 1)):
        spectrum = np.fft.fft(spectrum, axis=a + 1).take(band[a], axis=a + 1)
    if mean_zero:
        spectrum[(slice(None),) + (0,) * n] = 0.0
    for a in range(n - 1):
        padded = np.zeros(spectrum.shape[: a + 1] + (dims[a],) + spectrum.shape[a + 2 :], complex)
        padded[(slice(None),) * (a + 1) + (band[a],)] = spectrum
        spectrum = np.fft.ifft(padded, axis=a + 1)
    return FormField(n, dims, L, masks, np.fft.irfft(spectrum, n=dims[-1]))


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
        fh.write(field.data.astype("<f8", copy=False).tobytes())


def read_ffld(path) -> FormField:
    """Read an FFLD v1 file, rejecting any inconsistent header or payload."""
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
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
    masks = masks_for_grades(n, grades)
    expected_bytes = len(masks) * prod(dims) * 8
    if len(payload) != expected_bytes:
        raise FFLDError(
            f"payload length {len(payload)} != expected {expected_bytes}"
        )
    try:
        data = np.frombuffer(payload, dtype="<f8").reshape((len(masks),) + dims)
        return FormField(n, dims, length, masks, data.astype(float))
    except ValueError as exc:
        raise FFLDError(str(exc)) from exc


class TrigSeries:
    """Sparse trigonometric form of one periodic scalar grid.

    Supports exact evaluation of the function, its heat extension, and its
    gradient at arbitrary (off-grid) points; used by the path-simulation
    checks where positions do not sit on the grid.
    """

    def __init__(self, n, L, modes):
        self.n = n
        self.L = float(L)
        items = sorted(modes.items())
        self.kvecs = np.array([k for k, _ in items], dtype=float).reshape(-1, n)
        self.coeffs = np.array([c for _, c in items], dtype=complex)
        self.ksq = np.sum(self.kvecs**2, axis=1) / self.L**2

    @classmethod
    def from_grid(cls, grid, L) -> "TrigSeries":
        grid = np.asarray(grid, dtype=float)
        n = grid.ndim
        coeff = np.fft.fftn(grid) / grid.size
        cutoff = _MODE_TOL * max(np.max(np.abs(coeff)), 1.0)
        modes = {}
        axes_k = [np.fft.fftfreq(d) * d for d in grid.shape]
        for idx in zip(*np.nonzero(np.abs(coeff) > cutoff)):
            k = tuple(axes_k[a][idx[a]] for a in range(n))
            modes[k] = complex(coeff[idx])
        return cls(n, L, modes)

    def mean(self) -> float:
        zero = np.all(self.kvecs == 0.0, axis=1)
        return float(np.sum(self.coeffs[zero]).real)

    def _terms(self, points, t):
        """Weighted modes c_k exp(2 pi i k.x / L - 2 pi^2 |k|^2 t / L^2).

        Shape (*points.shape[:-1], nmodes); t is a scalar or an array that
        broadcasts to points.shape[:-1] (one time per step, say).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        terms = 1j * (pts @ self.kvecs.T * (2.0 * np.pi / self.L))
        np.exp(terms, out=terms)  # in place: the largest array is allocated once
        t = np.asarray(t, dtype=float)[..., None]
        terms *= self.coeffs * np.exp(-2.0 * np.pi**2 * self.ksq * t)
        return terms

    def value(self, points, t=0.0) -> np.ndarray:
        """Heat extension at time t evaluated at points of shape (..., n)."""
        return (self._terms(points, t) @ np.ones(len(self.coeffs))).real

    def gradient(self, points, t=0.0) -> np.ndarray:
        """Spatial gradient of the heat extension; shape (..., n)."""
        factors = 1j * 2.0 * np.pi / self.L * self.kvecs  # (nmodes, n)
        return (self._terms(points, t) @ factors).real
