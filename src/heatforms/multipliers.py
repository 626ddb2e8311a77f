"""Radial spectral multipliers of the Laplacian of Laplace-transform type.

A bounded profile A(t) on t > 0 induces the multiplier
a(lambda) = integral_0^inf lambda A(t) exp(-lambda t) dt, i.e. an average
of A against a probability density; hence |a| <= sup |A| and the operator
a(-Laplacian) is bounded on L^p by (p* - 1) sup |A|. Imaginary powers of
the Laplacian arise from A(t) = t^{-is} / Gamma(1 - is), with the complex
Gamma from Stirling's series (_gamma_one_minus_is): the module needs numpy
only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError
from .fields import FormField, _band_inverse, _held_points, _held_spectra
from .fourier import _batch_parts, _multipliers, _real_batch
from .heatmatrix import conjugate_exponent

# Substituting t = e^v / lambda turns the defining integral into
#   a(lambda) = integral_R A(e^v / lambda) exp(v - e^v) dv
# with a lambda-independent weight, so one trapezoid grid in v serves every
# lambda at once. The weight integrates to 1 over R; the grid's trapezoid
# weights miss about e^{V_LO} of it on the left and exp(-e^{V_HI}) on the
# right, and the profile can turn that missed weight into an error of at
# most sup|A| times it. A declared sup|A| lowers the left end (_left_end);
# below e^{V_LO} = eps the weight sum no longer resolves the missed weight.
_V_LO = -23.0
_V_HI = 3.5
_H_START = 0.25
_MAX_HALVINGS = 8
_TARGET = 1e-8  # relative change between halvings at which the quadrature stops
_CHUNK = 2048  # lambdas per vectorized quadrature block
# B_2k / (2k (2k - 1)) for k = 1..10, the coefficients of Stirling's series
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
    -691 / 360360, 1 / 156, -3617 / 122400, 43867 / 244188, -174611 / 125400,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_TINY = math.log(np.finfo(float).tiny)  # log of the least normal double


@dataclass(frozen=True)
class SpectralSymbol:
    """Laplace-transform-type multiplier described by its time profile."""

    profile: Callable[[np.ndarray], np.ndarray]
    sup_profile: float | None = None
    zero_limit: complex | None = None  # value used at the zero frequency


def _gamma_one_minus_is(s: float) -> complex:
    """Gamma(1 - is); ValueError once its modulus sqrt(pi s / sinh(pi s)) is subnormal.

    Gamma(z) = Gamma(w) / (z (z + 1) ... (w - 1)) with z = 1 + i|s| shifted
    to |w| >= 10, where Stirling's series for log Gamma(w) (DLMF 5.11.1)
    through B_20 leaves a remainder below 3e-17 on Re w > 0 (DLMF 5.11(ii));
    Gamma(1 - is) is its conjugate for s > 0. s = 0 gives exactly 1.
    """
    if s == 0.0:
        return 1.0 + 0.0j
    w = complex(1.0, abs(s))
    shifted = 1.0 + 0.0j
    while abs(w) < 10.0:
        shifted *= w
        w += 1.0
    series = 0.0j
    for c in reversed(_STIRLING):  # Horner in 1 / w^2
        series = series / (w * w) + c
    log_g = (w - 0.5) * cmath.log(w) - w + _HALF_LOG_2PI + series / w - cmath.log(shifted)
    if not log_g.real >= _LOG_TINY:  # nan included; exp would underflow, or raise at s = inf
        raise ValueError(f"|Gamma(1 - is)| underflows at s = {s}")
    g = cmath.exp(log_g)
    return g.conjugate() if s > 0 else g


def imaginary_power_symbol(s: float) -> SpectralSymbol:
    """Profile t^{-is} / Gamma(1 - is), giving the multiplier lambda^{is}.

    The quadrature sums a profile of modulus 1/|Gamma(1 - is)| to a value of
    modulus 1, so rounding alone leaves a relative error of about
    eps / |Gamma(1 - is)|; once that exceeds _TARGET (past s ~ 12.7) no
    step can meet the target, and AccuracyError is raised up front.
    """
    g = _gamma_one_minus_is(s)
    floor = np.finfo(float).eps / abs(g)
    if floor > _TARGET:
        raise AccuracyError(
            f"rounding floor {floor:.3e} of the s = {s} profile exceeds the target {_TARGET:g}",
            achieved=floor,
        )
    return SpectralSymbol(
        profile=lambda t: t ** (-1j * s) / g,
        sup_profile=float(1.0 / abs(g)),
        zero_limit=None if s != 0.0 else 1.0,
    )


def _left_end(sup) -> float:
    """_V_LO lowered in _H_START steps while sup e^{V_LO} > _TARGET / 2 and e^{V_LO} > eps."""
    v_lo = _V_LO
    while sup is not None and sup * np.exp(v_lo) > _TARGET / 2 and np.exp(v_lo) > np.finfo(float).eps:
        v_lo -= _H_START
    return v_lo


def _grid(h, v_lo):
    """Trapezoid nodes v and weights exp(v - e^v) h at step h.

    The nodes run from v_lo to _V_HI exactly for every step that divides
    the interval, and each halving keeps the previous nodes, so successive
    sums in the halving loop, which evaluates only the new odd-indexed
    nodes, cover the same interval.
    """
    v = v_lo + h * np.arange(round((_V_HI - v_lo) / h) + 1)
    weight = np.exp(v - np.exp(v)) * h
    weight[0] *= 0.5
    weight[-1] *= 0.5
    return v, weight


def _profile_at(profile, lams, v):
    """A(e^v / lambda), one row per lambda."""
    return profile(np.exp(v)[None, :] / lams[:, None])


def laplace_symbol_eval_many(sym: SpectralSymbol, lams):
    """Vectorized quadrature of the multiplier at many positive lambdas.

    Trapezoid in v = log(lambda t), halving the step until the change is
    below _TARGET (relative); each halving adds its new nodes to half the
    previous sum (Numerical Recipes' trapzd). The returned relative error
    estimate is the last change plus the truncation bound sup|A| * (1 -
    sum of the final trapezoid weights) / |a|, with sup|A| the declared
    sup_profile or else the largest |A| on the final grid. Raises
    AccuracyError with the last change if the halving cap is hit.
    """
    lams = np.asarray(lams, dtype=float)
    if not np.all(lams > 0):  # nan included
        raise ValueError("lambda must be positive")
    flat = lams.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    errs = np.empty(flat.shape)
    v_lo = _left_end(sym.sup_profile)
    for start in range(0, flat.size, _CHUNK):
        block = flat[start : start + _CHUNK]
        h = _H_START
        v, weight = _grid(h, v_lo)
        values = _profile_at(sym.profile, block, v)
        sup = sym.sup_profile if sym.sup_profile is not None else np.max(np.abs(values), axis=1)
        cur = np.einsum("lv,v->l", values, weight)  # no BLAS thread pool
        for _ in range(_MAX_HALVINGS):
            h *= 0.5
            v, weight = _grid(h, v_lo)
            values = _profile_at(sym.profile, block, v[1::2])
            if sym.sup_profile is None:
                sup = np.maximum(sup, np.max(np.abs(values), axis=1))
            prev, cur = cur, 0.5 * cur + np.einsum("lv,v->l", values, weight[1::2])
            scale = np.maximum(np.abs(cur), 1e-30)
            err = np.abs(cur - prev) / scale
            if np.max(err) <= _TARGET:
                break
        else:
            raise AccuracyError(
                f"quadrature stalled at relative error {np.max(err):.3e}",
                achieved=float(np.max(err)),
            )
        out[start : start + _CHUNK] = cur
        errs[start : start + _CHUNK] = err + sup * (1.0 - weight.sum()) / scale
    return out.reshape(lams.shape), errs.reshape(lams.shape)


def laplace_symbol_eval(sym: SpectralSymbol, lam: float) -> complex:
    """Quadrature value of the multiplier at a single lambda > 0."""
    values, _ = laplace_symbol_eval_many(sym, np.array([lam]))
    return complex(values[0])


def apply_spectral_multiplier(sym: SpectralSymbol, field: FormField) -> FormField:
    """Multiply every Fourier mode by a(4 pi^2 |xi|^2).

    The operator's route: one held forward transform of the field's real
    batch (fields._held_spectra), the product on the box of the modes it
    holds, and fields._band_inverse; the quadrature sees only the box's
    distinct lambda. The zero frequency, the box's first point, is scaled
    by the symbol's declared zero limit, or annihilated when none is
    declared. a is even in xi but may be complex, and half spectra carry
    only Hermitian multipliers, so its real and imaginary parts go as two
    real multipliers stacked on the one forward transform; the imaginary
    part joins only when some value has a nonzero imaginary part. The
    output is real for a real field and real multiplier values, complex
    otherwise; a complex field keeps its imaginary part. Raises ValueError
    on a non-finite sample or an overflowing spectrum (fields._held_spectra).
    """
    dims, data = field.dims, field.data
    kmax, spectra = _held_spectra(_real_batch(data), dims)
    xi_sq, _ = _multipliers(dims, field.L, _held_points(dims, kmax))
    lam = 4.0 * np.pi**2 * xi_sq.reshape(-1)
    unique, inverse = np.unique(lam[1:], return_inverse=True)  # the origin is the box's first point
    mult = np.empty(lam.shape, complex)
    mult[0] = 0.0 if sym.zero_limit is None else sym.zero_limit
    mult[1:] = laplace_symbol_eval_many(sym, unique)[0][inverse]
    mult = mult.reshape(xi_sq.shape)
    two_parts = bool(np.any(mult.imag))
    if two_parts:
        spectra = spectra[:, None] * np.stack([mult.real, mult.imag])[:, None]
    else:
        spectra *= mult.real
    out = np.empty(spectra.shape[1:-len(dims)] + dims, complex if np.iscomplexobj(data) else float)
    for part, s in zip(_batch_parts(out), spectra):
        _band_inverse(s, dims, kmax, part)
    return field.like(out[0] + 1j * out[1] if two_parts else out)


def imaginary_power_constant(s: float, p: float) -> float:
    """Operator-norm bound (p* - 1) / |Gamma(1 - is)| for the power is."""
    value = (conjugate_exponent(p) - 1.0) / abs(_gamma_one_minus_is(s))
    if value == np.inf:
        raise ValueError(f"the constant overflows at s = {s}, p = {p}")
    return value
