import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heatforms import fourier
from heatforms.fields import (
    FormField,
    _band_inverse,
    _band_spectrum,
    _held_band,
    _held_points,
    _held_spectra,
    cosine_field,
    lp_norm,
    random_band_limited,
)
from heatforms.fourier import (
    GL_ORDER,
    _batch_parts,
    _real_batch,
    _reflect_box,
    apply_beurling_ahlfors,
    beurling_ahlfors_symbol,
    psw_integral,
    symbol_from_heat_matrix,
    symbol_norms_on_grid,
)
from heatforms.heatmatrix import HeatMatrixSpec, conjugate_exponent
from heatforms.multipliers import (
    SpectralSymbol,
    apply_spectral_multiplier,
    imaginary_power_symbol,
    laplace_symbol_eval_many,
)

ROOT = Path(__file__).resolve().parents[1]


def identity_symbol():
    """Profile 1; the multiplier is identically 1."""
    return SpectralSymbol(profile=np.ones_like, sup_profile=1.0, zero_limit=1.0)


def dense_route(f):
    """Complex ifftn of M(xi) f^(xi) with M assembled at every lattice frequency.

    Independent of the operator's reflection path: full complex FFTs and
    beurling_ahlfors_symbol, one dense matrix-vector product per frequency.
    """
    n, dims = f.n, f.dims
    hats = np.stack([np.fft.fftn(f.components[m]) for m in f.masks])
    out = np.zeros_like(hats)
    axes = [np.fft.fftfreq(d) * d for d in dims]
    rows = np.ix_(f.masks, f.masks)
    for idx in np.ndindex(*dims):
        xi = np.array([axes[a][idx[a]] for a in range(n)]) / f.L
        if not xi.any():
            continue
        m = beurling_ahlfors_symbol(xi, n).matrix[rows]
        out[(slice(None),) + idx] = m @ hats[(slice(None),) + idx]
    return np.stack([np.fft.ifftn(o) for o in out])


def full_lattice_route(data, mult, n):
    """ifftn(mult * fftn(data)) over the trailing n axes, on the full complex lattice."""
    axes = tuple(range(data.ndim - n, data.ndim))
    out = np.fft.ifftn(mult * np.fft.fftn(data, axes=axes), axes=axes)
    return out if np.iscomplexobj(data) else out.real


def full_lattice_multipliers(dims, L):
    """|xi|^2 and the gradient multipliers, zeroed at the Nyquist index, on every lattice point."""
    ks = np.meshgrid(*(np.fft.fftfreq(d) * d for d in dims), indexing="ij")
    xi_sq = sum((k / L) ** 2 for k in ks)
    grad = np.stack([np.where(np.abs(k) == d // 2, 0.0, 1j * 2.0 * np.pi / L * k) for k, d in zip(ks, dims)])
    return xi_sq, grad


def full_lattice_symbol(sym, dims, L):
    """a(4 pi^2 |xi|^2) on every lattice point, the zero frequency by the symbol's zero limit."""
    xi_sq, _ = full_lattice_multipliers(dims, L)
    lam = (4.0 * np.pi**2 * xi_sq).reshape(-1)
    positive = lam > 0.0
    unique, inverse = np.unique(lam[positive], return_inverse=True)
    mult = np.full(lam.shape, 0.0 if sym.zero_limit is None else sym.zero_limit, dtype=complex)
    mult[positive] = laplace_symbol_eval_many(sym, unique)[0][inverse]
    return mult.reshape(dims)


# Real and complex fields with content on the Nyquist planes (kmax = N/2),
# uneven grids and L != 1; the last two hold a wide 64-point axis, which
# the band inverse transforms by FFT passes, next to dense ones.
ORACLE_CASES = [
    (2, (4, 8), 0.7, 4),
    (2, (16, 16), 1.3, 8),
    (3, (4, 8, 4), 1.7, 4),
    (2, (64, 16), 0.9, 32),
    (3, (8, 64, 8), 1.1, 32),
]


def oracle_fields(n, dims, L, kmax, seed):
    rng = np.random.default_rng(seed)
    f = random_band_limited(n, dims, L, rng, kmax=kmax, mean_zero=False)
    g = random_band_limited(n, dims, L, rng, kmax=kmax, mean_zero=False)
    return f, f.like(f.data + 1j * g.data)


def assert_rel_close(got, want, rel=1e-13):
    assert got.shape == want.shape and np.iscomplexobj(got) == np.iscomplexobj(want)
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def held_route(data, dims, L, act):
    """psw_integral's route: _held_spectra, act(spectra, xi_sq, grad_mult) on the box, _band_inverse."""
    kmax, spectra = _held_spectra(_real_batch(data), dims)
    spectra = act(spectra, *fourier._multipliers(dims, L, _held_points(dims, kmax)))
    out = np.empty(spectra.shape[1 : -len(dims)] + dims, data.dtype)
    for part, s in zip(_batch_parts(out), spectra):
        _band_inverse(s, dims, kmax, part)
    return out


class TestFullLatticeOracle:
    # the held box against full complex fftn/ifftn of the same multipliers:
    # heat damping (real even), the gradient (i times real odd) and the
    # Laplace-type multipliers

    @pytest.mark.parametrize("n, dims, L, kmax", ORACLE_CASES)
    def test_heat_extension(self, n, dims, L, kmax):
        xi_sq, _ = full_lattice_multipliers(dims, L)

        def damp(s, box_xi_sq, _):
            return s * np.exp(-2.0 * np.pi**2 * box_xi_sq * 0.01)

        for field in oracle_fields(n, dims, L, kmax, 21):
            want = full_lattice_route(field.data, np.exp(-2.0 * np.pi**2 * xi_sq * 0.01), n)
            assert_rel_close(held_route(field.data, dims, L, damp), want)

    @pytest.mark.parametrize("n, dims, L, kmax", ORACLE_CASES)
    def test_spectral_gradient(self, n, dims, L, kmax):
        _, grad = full_lattice_multipliers(dims, L)
        for field in oracle_fields(n, dims, L, kmax, 22):
            got = held_route(field.data, dims, L, lambda s, _, grad_mult: s[:, :, None] * grad_mult)
            assert_rel_close(got, full_lattice_route(field.data[:, None], grad, n))

    @pytest.mark.parametrize("n, dims, L, kmax", ORACLE_CASES)
    @pytest.mark.parametrize("sym", [identity_symbol(), imaginary_power_symbol(1.0)], ids=["identity", "power"])
    def test_spectral_multiplier(self, n, dims, L, kmax, sym):
        mult = full_lattice_symbol(sym, dims, L)
        for field in oracle_fields(n, dims, L, kmax, 23):
            want = full_lattice_route(field.data.astype(complex), mult, n)
            if not (np.any(mult.imag) or np.iscomplexobj(field.data)):
                want = want.real
            assert_rel_close(apply_spectral_multiplier(sym, field).data, want)

    def test_no_full_complex_transforms(self, monkeypatch):
        f, h = oracle_fields(2, (8, 8), 1.0, 4, 24)

        def refuse(*args, **kwargs):
            raise AssertionError("full complex transform called")

        monkeypatch.setattr(np.fft, "fftn", refuse)
        monkeypatch.setattr(np.fft, "ifftn", refuse)
        for field in (f, h):
            apply_beurling_ahlfors(field)
            apply_spectral_multiplier(imaginary_power_symbol(1.0), field)
        psw_integral(f, f, 2.0, t_max=0.1)


class TestSymbolMatrix:
    def test_axis_frequency(self):
        m = beurling_ahlfors_symbol([1.0, 0.0], 2).matrix
        assert m[0, 0] == 1.0  # empty set
        assert m[3, 3] == -1.0  # full set
        assert m[1, 1] == -1.0 and m[2, 2] == 1.0
        assert m[1, 2] == m[2, 1] == 0.0

    def test_diagonal_frequency(self):
        m = beurling_ahlfors_symbol(np.array([1.0, 1.0]) / np.sqrt(2), 2).matrix
        grade1 = m[np.ix_([1, 2], [1, 2])]
        assert np.allclose(grade1, [[0.0, -1.0], [-1.0, 0.0]])
        assert np.isclose(np.max(np.abs(np.linalg.eigvalsh(m))), 1.0)

    def test_homogeneous_even_symmetric_blockdiag(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            grades = np.array([m.bit_count() for m in range(1 << n)])
            cross_grade = grades[:, None] != grades[None, :]
            for _ in range(1000):
                xi = rng.standard_normal(n)
                m = beurling_ahlfors_symbol(xi, n).matrix
                assert np.allclose(m, m.T, atol=1e-14)
                assert np.allclose(
                    m, beurling_ahlfors_symbol(-xi, n).matrix, atol=1e-14
                )
                assert np.allclose(
                    m, beurling_ahlfors_symbol(3.7 * xi, n).matrix, atol=1e-13
                )
                assert np.all(m[cross_grade] == 0.0)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            beurling_ahlfors_symbol([0.0, 0.0], 2)

    def test_grid_norms_reject_dimension_mismatch(self):
        for n, dims in ((1, (8, 8)), (3, (8, 8))):
            with pytest.raises(ValueError, match="one grid size per axis"):
                symbol_norms_on_grid(n, dims, 1.0)

    def test_contraction_identity(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4):
            for _ in range(20):
                xi = rng.standard_normal(n)
                alpha = tuple(rng.uniform(0.0, 1.0, n + 1))
                diff = symbol_from_heat_matrix(
                    HeatMatrixSpec(n, alpha), xi
                ).matrix - beurling_ahlfors_symbol(xi, n).matrix
                assert np.max(np.abs(diff)) < 1e-13

    def test_involution(self):
        # M(xi) = I - 2 (u^)(u_|) is a reflection: M^2 = I
        rng = np.random.default_rng(12)
        for n in (2, 3, 4, 5):
            for _ in range(200):
                m = beurling_ahlfors_symbol(rng.standard_normal(n), n).matrix
                assert np.max(np.abs(m @ m - np.eye(1 << n))) < 1e-14

    def test_coordinate_symmetry(self):
        m10 = beurling_ahlfors_symbol([1.0, 0.0], 2).matrix
        m01 = beurling_ahlfors_symbol([0.0, 1.0], 2).matrix
        assert m01[1, 1] == m10[2, 2] and m01[2, 2] == m10[1, 1]


class TestApply:
    def test_constant_maps_to_zero(self):
        f = FormField.zeros(2, (8, 8))
        for m in f.masks:
            f.components[m][:] = 1.0
        out = apply_beurling_ahlfors(f)
        for m in out.masks:
            assert np.allclose(out.components[m], 0.0, atol=1e-13)

    def test_single_mode_grade1(self):
        f = cosine_field(2, (16, 16), 1.0, [1, 0], mask=1)
        out = apply_beurling_ahlfors(f)
        assert np.allclose(out.components[1], -f.components[1], atol=1e-12)

    def test_single_mode_scalar(self):
        f = cosine_field(2, (16, 16), 1.0, [1, 0], mask=0)
        out = apply_beurling_ahlfors(f)
        assert np.allclose(out.components[0], f.components[0], atol=1e-12)

    @pytest.mark.parametrize(
        "n, dims, kmax, grades",
        [
            (2, (64, 64), 3, None),  # dense
            (2, (64, 64), 30, None),  # wide
            (2, (32, 32), 16, None),  # dense, with the Nyquist points
            (2, (64, 64), 32, [1]),  # wide, with the Nyquist points
            (3, (16, 16, 16), 3, None),
            (3, (64, 16, 16), 30, [1, 2]),
            (3, (8, 8, 8), 4, None),
        ],
    )
    def test_reflect_box_on_the_draw_spectrum_matches_apply(self, n, dims, kmax, grades):
        # the probe's path: reflect the draw's band spectra in place of a
        # forward transform of the drawn field; a stack of two draws
        f = random_band_limited(n, dims, 1.0, np.random.default_rng(21), kmax, grades)
        noise = np.random.default_rng(21).standard_normal((2,) + f.data.shape)
        band = tuple(min(kmax, d // 2) for d in dims)
        spectra = _reflect_box(_band_spectrum(noise, dims, band, True), n, dims, band, f.masks)
        got = _band_inverse(spectra, dims, band, np.empty(noise.shape))
        want = apply_beurling_ahlfors(f).data
        assert np.max(np.abs(got[0] - want)) <= 1e-13 * np.max(np.abs(f.data))
        g = f.like(_band_inverse(_band_spectrum(noise, dims, band, True), dims, band, noise)[1])
        assert np.max(np.abs(got[1] - apply_beurling_ahlfors(g).data)) <= 1e-13 * np.max(np.abs(g.data))

    def test_real_output(self):
        # the full-lattice symbol maps real fields to real fields, and the
        # operator returns that real part
        rng = np.random.default_rng(5)
        for n in (2, 3):
            f = random_band_limited(n, (16,) * n, 1.0, rng)
            dense = dense_route(f)
            assert np.max(np.abs(dense.imag)) < 1e-10
            got = apply_beurling_ahlfors(f)
            for c, mask in enumerate(f.masks):
                assert got.components[mask].dtype == np.float64
                assert np.allclose(got.components[mask], dense[c].real, atol=1e-12)

    @pytest.mark.parametrize("kmax", [5, 8])
    def test_complex_field_splits_into_real_and_imaginary_parts(self, kmax):
        # T is real-linear: T(f + ig) = Tf + i Tg. Without Nyquist content
        # (kmax < N/2) that is the complex dense route; with it (kmax = N/2)
        # each part sees the mean of the two aliased symbols there, i.e.
        # the real part of the dense route applied to f and to g.
        rng = np.random.default_rng(13)
        f = random_band_limited(2, (16, 16), 1.0, rng, kmax=kmax)
        g = random_band_limited(2, (16, 16), 1.0, rng, kmax=kmax)
        h = FormField(2, (16, 16), 1.0, f.masks, f.data + 1j * g.data)
        th, tf, tg = (apply_beurling_ahlfors(x) for x in (h, f, g))
        if kmax < 8:
            want = dense_route(h)
        else:
            want = dense_route(f).real + 1j * dense_route(g).real
        for c, m in enumerate(h.masks):
            assert np.iscomplexobj(th.components[m])
            assert np.allclose(th.components[m], tf.components[m] + 1j * tg.components[m], atol=1e-14)
            assert np.allclose(th.components[m], want[c], atol=1e-12)

    def test_single_grade_field_stays_single_grade(self):
        rng = np.random.default_rng(6)
        f = random_band_limited(3, (8, 8, 8), 1.0, rng, grades=[1])
        out = apply_beurling_ahlfors(f)
        assert out.masks == [1, 2, 4]

    def test_rejects_nonfinite(self):
        f = FormField.zeros(2, (4, 4))
        f.components[0][0, 0] = np.inf
        with pytest.raises(ValueError):
            apply_beurling_ahlfors(f)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 1, -1], ids=["scalar", "middle-grade", "top-grade"])
    def test_rejects_nonfinite_transformed_rows(self, row, bad):
        # the middle rows go through the held transform, the edge rows through their means
        f = random_band_limited(2, (8, 8), 1.0, np.random.default_rng(2))
        f.data[row, 3, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            apply_beurling_ahlfors(f)

    @pytest.mark.filterwarnings("error")
    def test_rejects_an_overflowing_spectrum(self):
        # every sample is finite, but the sums of the transform are not
        f = random_band_limited(2, (16, 16), 1.0, np.random.default_rng(2))
        with pytest.raises(ValueError, match="non-finite samples or its spectrum overflows"):
            apply_beurling_ahlfors(f.like(f.data * 1e307))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mask", [0, 3], ids=["scalar", "top-grade"])
    def test_rejects_an_overflowing_mean(self, mask):
        # the edge rows take no transform; their mean overflows to inf
        f = FormField.zeros(2, (8, 8), grades=[mask.bit_count()])
        f.data[:] = 1.5e308
        with pytest.raises(ValueError, match="non-finite samples or its spectrum overflows"):
            apply_beurling_ahlfors(f)

    def test_matches_per_frequency_dense_multiply(self):
        # independent route: assemble M(xi) at every lattice frequency and
        # multiply the stacked coefficient vector directly; kmax >= N/2 puts
        # content on the Nyquist planes, where a real field sees the mean of
        # the two aliased symbols
        rng = np.random.default_rng(11)
        cases = [
            (2, (8, 8), 1.5, 2, None),
            (3, (4, 4, 4), 1.5, 2, None),
            (2, (4, 8), 0.7, 4, [1]),
            (3, (4, 2, 4), 0.7, 4, [1, 2]),
            (4, (2, 4, 2, 4), 0.7, 4, [2]),
            (3, (4, 2, 4), 0.7, 4, [0, 3]),
        ]
        for n, dims, L, kmax, grades in cases:
            f = random_band_limited(n, dims, L, rng, kmax=kmax, grades=grades, mean_zero=False)
            got = apply_beurling_ahlfors(f)
            want = dense_route(f).real
            for c, mask in enumerate(f.masks):
                assert np.allclose(got.components[mask], want[c], atol=1e-12)

    @pytest.mark.parametrize("grades", [None, [1], [2]], ids=["all-grades", "grade-1", "grade-2"])
    @pytest.mark.parametrize("dims, kmax", [((16, 32), 8), ((8, 16, 32), 4)])
    def test_box_reaching_nyquist_on_one_axis(self, dims, kmax, grades):
        # the box reaches N/2 on the first axis only: it holds that axis's
        # Nyquist points, where each real part sees the mean of the two
        # aliased symbols, and cuts the other axes to |k_a| <= kmax
        n = len(dims)
        rng = np.random.default_rng(35)
        f, g = (random_band_limited(n, dims, 1.3, rng, kmax=kmax, grades=grades, mean_zero=False) for _ in "fg")
        box, _ = _held_band(np.fft.rfftn(f.data, axes=tuple(range(1, n + 1))), dims)
        assert box == (kmax,) * n and dims[0] == 2 * kmax
        want_f, want_g = dense_route(f).real, dense_route(g).real
        assert np.allclose(apply_beurling_ahlfors(f).data, want_f, rtol=0.0, atol=1e-12)
        got = apply_beurling_ahlfors(f.like(f.data + 1j * g.data)).data
        assert np.allclose(got, want_f + 1j * want_g, rtol=0.0, atol=1e-12)

    def test_white_noise_fills_the_box(self):
        # every mode of 16^3 white noise is held: the box is the whole grid
        rng = np.random.default_rng(36)
        f, g = (FormField(3, (16,) * 3, 1.0, list(range(8)), rng.standard_normal((8, 16, 16, 16))) for _ in "fg")
        want_f, want_g = dense_route(f).real, dense_route(g).real
        assert np.allclose(apply_beurling_ahlfors(f).data, want_f, rtol=0.0, atol=1e-12)
        got = apply_beurling_ahlfors(f.like(f.data + 1j * g.data)).data
        assert np.allclose(got, want_f + 1j * want_g, rtol=0.0, atol=1e-12)

    def test_wide_boxes_share_one_direction_grid(self):
        # at 64^3 an axis is wide from K = 24 on and then holds every point,
        # so the boxes of kmax 31 and 32 share one cache entry
        fourier._directions.cache_clear()
        for kmax in (31, 32):
            f = random_band_limited(3, (64, 64, 64), 1.0, np.random.default_rng(kmax), kmax=kmax)
            apply_beurling_ahlfors(f)
        assert fourier._directions.cache_info().currsize == 1

    def test_independent_of_blas_thread_count(self):
        # a dense box (64^3, kmax 4) and a wide one (256^2, kmax 127): band
        # products run on one OpenBLAS thread and FFT passes on one thread,
        # so a single-threaded process applies the operator to the same bits
        cases = [(3, (64, 64, 64), 4), (2, (256, 256), 127)]
        code = (
            "import hashlib, numpy as np\n"
            "from heatforms.fields import random_band_limited\n"
            "from heatforms.fourier import apply_beurling_ahlfors\n"
            f"for n, dims, kmax in {cases!r}:\n"
            "    f = random_band_limited(n, dims, 1.0, np.random.default_rng(14), kmax=kmax)\n"
            "    print(hashlib.sha256(apply_beurling_ahlfors(f).data.tobytes()).hexdigest())\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr

        def digest(n, dims, kmax):
            f = random_band_limited(n, dims, 1.0, np.random.default_rng(14), kmax=kmax)
            return hashlib.sha256(apply_beurling_ahlfors(f).data.tobytes()).hexdigest()

        assert proc.stdout.split() == [digest(*case) for case in cases]

    @pytest.mark.parametrize("n, dims, kmax", [(2, (32, 32), 6), (3, (16, 16, 16), 3), (4, (8, 8, 8, 8), 3)])
    def test_involution_and_l2_isometry(self, n, dims, kmax):
        # off the Nyquist planes T is a reflection per frequency: T(Tf) = f
        # and ||Tf||_2 = ||f||_2 for mean-zero f
        rng = np.random.default_rng(15)
        for grades in (None, [1], [0, n]):
            f = random_band_limited(n, dims, 1.3, rng, kmax=kmax, grades=grades)
            tf = apply_beurling_ahlfors(f)
            ttf = apply_beurling_ahlfors(tf)
            for m in f.masks:
                assert np.max(np.abs(ttf.components[m] - f.components[m])) < 1e-12
            assert abs(lp_norm(tf, 2) / lp_norm(f, 2) - 1.0) < 1e-12

    def test_l2_contraction_for_n2(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = random_band_limited(2, (32, 32), 1.0, rng, kmax=6)
            ratio = lp_norm(apply_beurling_ahlfors(f), 2) / lp_norm(f, 2)
            assert ratio <= 1.0 + 1e-9

    def test_l2_ratio_reaches_frequency_sup(self):
        # a single extremal mode with the top eigenvector as coefficients
        n, dims, L = 2, (16, 16), 1.0
        norms = symbol_norms_on_grid(n, dims, L)
        idx = np.unravel_index(np.argmax(norms), dims)
        k = [np.fft.fftfreq(d)[i] * d for d, i in zip(dims, idx)]
        m = beurling_ahlfors_symbol(np.array(k) / L, n).matrix
        eigvals, eigvecs = np.linalg.eigh(m)
        top = np.argmax(np.abs(eigvals))
        f = FormField.zeros(n, dims, L)
        for mask in f.masks:
            f.components[mask][:] = (
                cosine_field(n, dims, L, k, mask, amplitude=eigvecs[mask, top]).components[mask]
            )
        ratio = lp_norm(apply_beurling_ahlfors(f), 2) / lp_norm(f, 2)
        assert abs(ratio - np.max(norms)) < 1e-10


FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft")


class TestEigenGrades:
    # M(xi) = +I on grade 0 and -I on grade n at every nonzero frequency,
    # Nyquist points included, so those rows are f - mean and mean - f

    @pytest.mark.parametrize("n, dims", [(1, (16,)), (2, (8, 16)), (3, (8, 4, 8)), (4, (4, 4, 4, 4))])
    @pytest.mark.parametrize("which", ["scalar", "top", "both", "all"])
    def test_edge_rows_are_plus_minus_f_minus_mean(self, n, dims, which):
        grades = {"scalar": [0], "top": [n], "both": [0, n], "all": None}[which]
        rng = np.random.default_rng(30 + n)
        f = random_band_limited(n, dims, 1.3, rng, kmax=4, grades=grades, mean_zero=False)
        g = random_band_limited(n, dims, 1.3, rng, kmax=4, grades=grades, mean_zero=False)
        for field in (f, f.like(f.data + 1j * g.data)):
            out = apply_beurling_ahlfors(field)
            for sign, mask in ((1.0, 0), (-1.0, (1 << n) - 1)):
                if mask in field.masks:
                    row = field.components[mask]
                    assert_rel_close(out.components[mask], sign * (row - row.mean()), rel=1e-14)

    @pytest.mark.parametrize("n, dims", [(2, (8, 8)), (3, (4, 8, 4))])
    def test_forward_transform_sees_only_the_middle_rows(self, monkeypatch, n, dims):
        rng = np.random.default_rng(32)
        f = random_band_limited(n, dims, 1.0, rng, kmax=2)
        g = random_band_limited(n, dims, 1.0, rng, kmax=2)
        edges = random_band_limited(n, dims, 1.0, rng, kmax=2, grades=[0, n])
        seen = []

        def recorded(a, *args, _fn=np.fft.rfft, **kwargs):
            seen.append(np.array(a))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recorded)
        apply_beurling_ahlfors(f)
        apply_beurling_ahlfors(f.like(f.data + 1j * g.data))
        assert len(seen) == 2  # one block of lines each
        assert np.array_equal(seen[0], f.data[None, 1:-1].reshape(-1, dims[-1]))
        assert np.array_equal(seen[1], np.stack([f.data[1:-1], g.data[1:-1]]).reshape(-1, dims[-1]))
        seen.clear()
        apply_beurling_ahlfors(edges)
        assert seen == []

    def test_one_dimension_makes_no_transform(self, monkeypatch):
        rng = np.random.default_rng(33)
        f = random_band_limited(1, (16,), 1.0, rng, kmax=8, mean_zero=False)
        h = f.like(f.data + 1j * random_band_limited(1, (16,), 1.0, rng, kmax=8).data)

        def refuse(*args, **kwargs):
            raise AssertionError("FFT called")

        for name in FFT_NAMES:
            monkeypatch.setattr(np.fft, name, refuse)
        for field in (f, h):
            out = apply_beurling_ahlfors(field)
            assert out.masks == [0, 1]
            assert np.array_equal(out.data[0], field.data[0] - field.data[0].mean())
            assert np.array_equal(out.data[1], field.data[1].mean() - field.data[1])


def fft_psw(f, g, p, t_max):
    """(lhs, rhs, tail) of psw_integral, every node inverted by irfftn on the whole half lattice.

    The per-node FFT evaluation the band inverse replaced, on the same
    panels, nodes and summation order. The panels follow the largest
    |xi|^2 on the box |k_a| <= K_a of the held modes: those with some
    row's |c| above 1e-12 times that row's largest |c|.
    """
    n, dims, L = f.n, f.dims, f.L
    rfft_bins = (Ellipsis, slice(0, dims[-1] // 2 + 1))
    xi_sq, grad = (arr[rfft_bins] for arr in full_lattice_multipliers(dims, L))
    spectra = np.fft.rfftn(np.concatenate([f.data, g.data]), axes=tuple(range(1, n + 1)))
    split = len(f.masks)
    mags = np.abs(spectra).reshape(len(spectra), -1)
    held = np.any(mags > 1e-12 * mags.max(axis=1, keepdims=True), axis=0)
    ks = np.meshgrid(*[np.rint(np.fft.fftfreq(d) * d) for d in dims], indexing="ij")
    box_k = [np.abs(k[rfft_bins]).reshape(-1)[held].max(initial=0.0) for k in ks]

    def norms(t):
        damped = spectra * np.exp(-2.0 * np.pi**2 * xi_sq * t)
        grads = np.fft.irfftn(damped[:, None] * grad, s=dims, axes=tuple(range(2, n + 2)))
        sq = grads**2
        return np.sqrt(sq[:split].sum(axis=(0, 1))), np.sqrt(sq[split:].sum(axis=(0, 1)))

    def integrand(t):
        norm_f, norm_g = norms(t)
        return f.cell_volume * float(np.sum(norm_f * norm_g))

    rate_min = 4.0 * np.pi**2 / L**2
    t_end = min(t_max, fourier._EXP_UNDERFLOW / rate_min)
    rate_max = 4.0 * np.pi**2 * sum((k / L) ** 2 for k in box_k)
    n_panels = max(int(np.ceil(np.log2(max(rate_max * t_end, 4.0)))), fourier._MIN_PANELS)
    breaks = [0.0] + [t_end * 2.0 ** (j - n_panels + 1) for j in range(n_panels)]
    nodes, weights = np.polynomial.legendre.leggauss(GL_ORDER)
    lhs = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        lhs += half * sum(w * integrand(mid + half * x) for x, w in zip(nodes, weights))
    norm_f, norm_g = norms(0.0)
    energy = f.cell_volume * np.sqrt(np.sum(norm_f**2) * np.sum(norm_g**2))
    tail = float(np.exp(-rate_min * t_end) / rate_min * energy)
    rhs = (conjugate_exponent(p) - 1.0) * lp_norm(f, p) * lp_norm(g, p / (p - 1.0))
    return lhs, rhs, tail


def assert_psw_matches_fft(f, g, p):
    res = psw_integral(f, g, p, 1.0)
    for got, want in zip((res.lhs, res.rhs, res.tail_bound), fft_psw(f, g, p, 1.0)):
        assert abs(got - want) <= 1e-14 * abs(want)


# n = 1, 2 and 3, square and uneven grids, narrow bands up to the full band
PSW_CASES = [
    ((64,), 2),
    ((64,), 32),
    ((4, 4), 2),
    ((16, 32), 3),
    ((32, 16), 5),
    ((32, 32), 2),
    ((32, 32), 16),
    ((64, 64), 3),
    ((16, 16, 16), 2),
    ((8, 16, 8), 8),
]


class TestPswBandInverse:
    # the band inverse against the per-node irfftn of the whole half lattice

    @pytest.mark.parametrize("dims, kmax", PSW_CASES)
    def test_matches_fft_oracle(self, dims, kmax):
        rng = np.random.default_rng(30 + kmax)
        f = random_band_limited(len(dims), dims, 1.3, rng, kmax=kmax)
        g = random_band_limited(len(dims), dims, 1.3, rng, kmax=kmax, mean_zero=False)
        p = float(rng.uniform(1.3, 4.0))
        assert_psw_matches_fft(f, g, p)
        assert_psw_matches_fft(g, f.like(1e-20 * f.data), p)

    def test_cosine_mode(self):
        mode = cosine_field(2, (32, 32), 1.0, [1, 0], mask=1)
        assert_psw_matches_fft(mode, mode, 2.0)

    def test_field_with_a_zero_row(self):
        rng = np.random.default_rng(31)
        f = random_band_limited(2, (16, 16), 1.0, rng, kmax=3)
        g = random_band_limited(2, (16, 16), 1.0, rng, kmax=2)
        f.data[1] = 0.0
        assert_psw_matches_fft(f, g, 3.0)

    def test_zero_fields(self):
        zero = FormField.zeros(2, (8, 8))
        g = random_band_limited(2, (8, 8), 1.0, np.random.default_rng(32), kmax=2)
        assert psw_integral(zero, zero, 2.0, 1.0) == fourier.PswResult(0.0, 0.0, 0.0)
        assert psw_integral(zero, g, 2.0, 1.0) == fourier.PswResult(0.0, 0.0, 0.0)

    def test_lhs_scales_with_the_field(self):
        # the band's cutoff is relative to each row, so a tiny field keeps its modes
        rng = np.random.default_rng(33)
        f = random_band_limited(2, (32, 32), 1.0, rng, kmax=2)
        g = random_band_limited(2, (32, 32), 1.0, rng, kmax=2)
        c = 1e-20
        lhs = psw_integral(f, g, 2.5, 1.0).lhs
        assert abs(psw_integral(f.like(c * f.data), g, 2.5, 1.0).lhs - c * lhs) <= 1e-14 * c * lhs

    def test_independent_of_blas_thread_count(self):
        # every band product runs on one OpenBLAS thread, so a
        # single-threaded process gets the same bits as this one
        cases = [((32, 32), 2), ((32, 32), 16)]
        code = (
            "import numpy as np\n"
            "from heatforms.fields import random_band_limited\n"
            "from heatforms.fourier import psw_integral\n"
            f"for dims, kmax in {cases!r}:\n"
            "    rng = np.random.default_rng(12)\n"
            "    f, g = (random_band_limited(2, dims, 1.0, rng, kmax=kmax) for _ in range(2))\n"
            "    res = psw_integral(f, g, 2.5, 1.0)\n"
            "    print(*(float.hex(v) for v in (res.lhs, res.rhs, res.tail_bound)))\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr

        def result(dims, kmax):
            rng = np.random.default_rng(12)
            f, g = (random_band_limited(2, dims, 1.0, rng, kmax=kmax) for _ in range(2))
            res = psw_integral(f, g, 2.5, 1.0)
            return [float.hex(v) for v in (res.lhs, res.rhs, res.tail_bound)]

        assert proc.stdout.split() == [h for case in cases for h in result(*case)]


class TestPsw:
    def test_equality_case(self):
        f = cosine_field(2, (32, 32), 1.0, [1, 0], mask=1)
        res = psw_integral(f, f, 2.0, t_max=1.0)
        assert np.isclose(res.rhs, 0.5, atol=1e-10)
        assert abs(res.lhs - 0.5) < 1e-7
        assert res.lhs <= res.rhs + res.tail_bound + 1e-9

    def test_constant_lhs_zero(self):
        f = FormField.zeros(2, (8, 8), grades=[0])
        f.components[0][:] = 2.0
        res = psw_integral(f, f, 2.0, t_max=0.5)
        assert abs(res.lhs) < 1e-12
        assert res.rhs > 0

    def test_random_fields_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            f = random_band_limited(2, (16, 16), 1.0, rng, kmax=2)
            g = random_band_limited(2, (16, 16), 1.0, rng, kmax=2)
            p = float(rng.uniform(1.4, 4.0))
            res = psw_integral(f, g, p, t_max=1.0)
            assert res.lhs <= res.rhs + res.tail_bound + 1e-6

    def test_tail_bound_covers_truncation(self):
        f = cosine_field(2, (16, 16), 1.0, [1, 0], mask=1)
        short = psw_integral(f, f, 2.0, t_max=0.02)
        long = psw_integral(f, f, 2.0, t_max=1.0)
        assert long.lhs - short.lhs <= short.tail_bound + 1e-9

    def test_rejects_complex_fields(self):
        # lhs would integrate only the real part's gradients while rhs uses |f|
        rng = np.random.default_rng(9)
        f = random_band_limited(2, (16, 16), 1.0, rng, kmax=2)
        g = random_band_limited(2, (16, 16), 1.0, rng, kmax=2)
        h = f.like(f.data + 1j * g.data)
        for pair in ((h, f), (f, h), (h, h)):
            with pytest.raises(ValueError, match="real fields"):
                psw_integral(*pair, 2.0, t_max=1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["f", "g"])
    def test_rejects_nonfinite_fields(self, side, bad):
        rng = np.random.default_rng(10)
        pair = {s: random_band_limited(2, (16, 16), 1.0, rng, kmax=2) for s in ("f", "g")}
        pair[side].data[1, 4, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            psw_integral(pair["f"], pair["g"], 2.0, t_max=1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side", ["f", "g"])
    def test_rejects_an_overflowing_spectrum(self, side):
        rng = np.random.default_rng(10)
        pair = {s: random_band_limited(2, (16, 16), 1.0, rng, kmax=2) for s in ("f", "g")}
        pair[side] = pair[side].like(pair[side].data * 1e307)
        with pytest.raises(ValueError, match="non-finite"):
            psw_integral(pair["f"], pair["g"], 2.0, t_max=1.0)

    @pytest.mark.parametrize("t_max", [0.0, np.inf, np.nan])
    def test_rejects_bad_t_max(self, t_max):
        f = cosine_field(2, (8, 8), 1.0, [1, 0], mask=1)
        with pytest.raises(ValueError, match="t_max"):
            psw_integral(f, f, 2.0, t_max=t_max)

    def test_large_t_max_stops_where_every_mode_has_underflowed(self):
        # the 745 / r end of the time axis, r = 4 pi^2 / L^2: past it every
        # mode is below the smallest subnormal double, so nothing changes
        f = cosine_field(2, (8, 8), 1.0, [1, 0], mask=1)
        end = psw_integral(f, f, 2.0, t_max=745.0 / (4.0 * np.pi**2))
        huge = psw_integral(f, f, 2.0, t_max=1e300)
        assert huge == end
        assert abs(huge.lhs + huge.tail_bound - huge.rhs) < 1e-9

    def test_panel_count_bounded_by_the_underflow_time(self, monkeypatch):
        # at most log2(745 max|k|^2) panels, max|k|^2 over the box the fields
        # hold: 10 for the (1, 0) cosine at 8^2, where max|k|^2 = 1 and the
        # grid's is 32; each node evaluation is one band inverse
        calls = []

        def counted(*args, _fn=fourier._band_inverse):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(fourier, "_band_inverse", counted)
        f = cosine_field(2, (8, 8), 1.0, [1, 0], mask=1)
        psw_integral(f, f, 2.0, t_max=1e300)
        assert len(calls) == 10 * GL_ORDER + 1  # every node, plus t = 0 for the tail

    def test_one_forward_fft_and_no_inverse_fft(self, monkeypatch):
        # two all-grade 32^2 fields, t_max 1: the forward transform of the
        # stacked fields (one rfft, then one fft pass over the bins it
        # keeps), and every node inverted with the cached band matrices
        rng = np.random.default_rng(10)
        f = random_band_limited(2, (32, 32), 1.0, rng, kmax=2)
        g = random_band_limited(2, (32, 32), 1.0, rng, kmax=2)
        psw_integral(f, g, 2.5, t_max=1.0)  # builds the band matrices
        calls = {}
        for name in FFT_NAMES:
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        psw_integral(f, g, 2.5, t_max=1.0)
        assert calls == {"rfft": 1, "fft": 1}

    def test_wide_boxes_share_one_multiplier_grid(self):
        # at 64^2 the boxes of kmax 30 and 31 are wide on both axes: one entry
        fourier._multipliers.cache_clear()
        for kmax in (30, 31):
            f = random_band_limited(2, (64, 64), 1.0, np.random.default_rng(kmax), kmax=kmax, grades=[1])
            psw_integral(f, f, 2.0, t_max=1.0)
        assert fourier._multipliers.cache_info().currsize == 1

    def test_grid_mismatch_rejected(self):
        f = FormField.zeros(2, (8, 8))
        g = FormField.zeros(2, (16, 16))
        with pytest.raises(ValueError):
            psw_integral(f, g, 2.0, 1.0)
