"""Radial spectral multipliers of the Laplacian of Laplace-transform type.

A bounded profile A(t) on t > 0 induces the multiplier
a(lambda) = integral_0^inf lambda A(t) exp(-lambda t) dt, i.e. an average
of A against a probability density; hence |a| <= sup |A| and the operator
a(-Laplacian) is bounded on L^p by (p* - 1) sup |A|. Imaginary powers of
the Laplacian arise from A(t) = t^{-is} / Gamma(1 - is).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gamma as complex_gamma

from .errors import AccuracyError
from .fields import FormField
from .fourier import _multipliers, _through_spectrum
from .heatmatrix import conjugate_exponent

# Substituting t = e^v / lambda turns the defining integral into
#   a(lambda) = integral_R A(e^v / lambda) exp(v - e^v) dv
# with a lambda-independent weight, so one trapezoid grid in v serves every
# lambda at once. The weight integrates to 1 over R; the grid's trapezoid
# weights miss about e^{V_LO} of it on the left and exp(-e^{V_HI}) on the
# right, and the profile can turn that missed weight into an error of at
# most sup|A| times it.
_V_LO = -23.0
_V_HI = 3.5
_H_START = 0.25
_MAX_HALVINGS = 8
_TARGET = 1e-8  # relative change between halvings at which the quadrature stops
_CHUNK = 2048  # lambdas per vectorized quadrature block


@dataclass(frozen=True)
class SpectralSymbol:
    """Laplace-transform-type multiplier described by its time profile."""

    profile: Callable[[np.ndarray], np.ndarray]
    sup_profile: float | None = None
    zero_limit: complex | None = None  # value used at the zero frequency


def identity_symbol() -> SpectralSymbol:
    """Profile 1; the multiplier is identically 1."""
    return SpectralSymbol(
        profile=lambda t: np.ones_like(t),
        sup_profile=1.0,
        zero_limit=1.0,
    )


def imaginary_power_symbol(s: float) -> SpectralSymbol:
    """Profile t^{-is} / Gamma(1 - is), giving the multiplier lambda^{is}."""
    g = complex(complex_gamma(1.0 - 1j * s))
    return SpectralSymbol(
        profile=lambda t: t ** (-1j * s) / g,
        sup_profile=float(1.0 / abs(g)),
        zero_limit=None if s != 0.0 else 1.0,
    )


def _grid(h):
    """Trapezoid nodes v and weights exp(v - e^v) h at step h.

    The nodes run from _V_LO to _V_HI exactly for every step that divides
    the interval, and each halving keeps the previous nodes, so successive
    sums in the halving loop cover the same interval.
    """
    v = _V_LO + h * np.arange(round((_V_HI - _V_LO) / h) + 1)
    weight = np.exp(v - np.exp(v)) * h
    weight[0] *= 0.5
    weight[-1] *= 0.5
    return v, weight


def _profile_at(profile, lams, v):
    """A(e^v / lambda), one row per lambda."""
    return profile(np.exp(v)[None, :] / lams[:, None])


def _trapezoid_values(profile, lams, h):
    v, weight = _grid(h)
    return _profile_at(profile, lams, v) @ weight.astype(complex)


def laplace_symbol_eval_many(sym: SpectralSymbol, lams):
    """Vectorized quadrature of the multiplier at many positive lambdas.

    Trapezoid in v = log(lambda t), halving the step until the change is
    below _TARGET (relative). The returned relative error estimate is the
    last change plus the truncation bound sup|A| * (1 - sum of the final
    trapezoid weights) / |a|, with sup|A| the declared sup_profile or
    else the largest |A| on the final grid. Raises AccuracyError with the
    last change if the halving cap is hit.
    """
    lams = np.asarray(lams, dtype=float)
    if np.any(lams <= 0):
        raise ValueError("lambda must be positive")
    flat = lams.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    errs = np.empty(flat.shape)
    for start in range(0, flat.size, _CHUNK):
        block = flat[start : start + _CHUNK]
        h = _H_START
        prev = _trapezoid_values(sym.profile, block, h)
        for _ in range(_MAX_HALVINGS):
            h *= 0.5
            cur = _trapezoid_values(sym.profile, block, h)
            scale = np.maximum(np.abs(cur), 1e-30)
            err = np.abs(cur - prev) / scale
            prev = cur
            if np.max(err) <= _TARGET:
                break
        else:
            raise AccuracyError(
                f"quadrature stalled at relative error {np.max(err):.3e}",
                achieved=float(np.max(err)),
            )
        v, weight = _grid(h)
        sup = sym.sup_profile
        if sup is None:
            sup = np.max(np.abs(_profile_at(sym.profile, block, v)), axis=1)
        out[start : start + _CHUNK] = cur
        errs[start : start + _CHUNK] = err + sup * (1.0 - weight.sum()) / scale
    return out.reshape(lams.shape), errs.reshape(lams.shape)


def laplace_symbol_eval(sym: SpectralSymbol, lam: float) -> complex:
    """Quadrature value of the multiplier at a single lambda > 0."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    values, _ = laplace_symbol_eval_many(sym, np.array([lam]))
    return complex(values[0])


def apply_spectral_multiplier(sym: SpectralSymbol, field: FormField) -> FormField:
    """Multiply every Fourier mode by a(4 pi^2 |xi|^2).

    The zero frequency is scaled by the symbol's declared zero limit, or
    annihilated when none is declared. a is even in xi but may be complex,
    so its real and imaginary parts go through the real-FFT path as two
    real multipliers; the imaginary pass runs only when some value has a
    nonzero imaginary part. The output is real for a real field and
    real multiplier values, complex otherwise; a complex field keeps its
    imaginary part.
    """
    if not field.is_finite():
        raise ValueError("field has non-finite samples")
    xi_sq, _ = _multipliers(field.dims, field.L)
    flat = (4.0 * np.pi**2 * xi_sq).reshape(-1)
    positive = flat > 0.0
    unique, inverse = np.unique(flat[positive], return_inverse=True)
    values, _ = laplace_symbol_eval_many(sym, unique)
    mult = np.empty(flat.shape, dtype=complex)
    mult[positive] = values[inverse]
    mult[~positive] = 0.0 if sym.zero_limit is None else sym.zero_limit
    mult = mult.reshape(xi_sq.shape)
    out = _through_spectrum(field.data, field.dims, lambda s: s * mult.real)
    if np.any(mult.imag):
        out = out + 1j * _through_spectrum(field.data, field.dims, lambda s: s * mult.imag)
    return field.like(out)


def imaginary_power_constant(s: float, p: float) -> float:
    """Operator-norm bound (p* - 1) / |Gamma(1 - is)| for the power is."""
    p_star = conjugate_exponent(p)
    return float((p_star - 1.0) / abs(complex_gamma(1.0 - 1j * s)))
