import hashlib
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatforms.errors import FFLDError
from heatforms.fields import (
    FormField,
    TrigSeries,
    _band_axes,
    _band_inverse,
    _band_spectrum,
    _blocks,
    _complex_band,
    _held_band,
    _held_spectra,
    _MODE_TOL,
    _lp_norms,
    _real_band,
    cosine_field,
    lp_norm,
    masks_for_grades,
    random_band_limited,
    read_ffld,
    write_ffld,
)

ROOT = Path(__file__).resolve().parents[1]


def lattice_oracle(stack, L, points, t):
    """Heat-extension value and gradient of a stack summed over its full fftn lattice.

    Every lattice mode, +k and -k alike, gets its own fftn coefficient and
    one exp(i 2 pi k.x / L), so nothing here depends on how TrigSeries
    folds or builds its modes. t is a scalar or one time per leading index
    of points. Returns (..., ncomp) and (..., ncomp, n).
    """
    dims = stack.shape[1:]
    coeff = np.fft.fftn(stack, axes=range(1, stack.ndim)).reshape(len(stack), -1) / prod(dims)
    axes_k = np.meshgrid(*[np.rint(np.fft.fftfreq(d) * d) for d in dims], indexing="ij")
    k = np.stack([a.reshape(-1) for a in axes_k], axis=1)  # (modes, n)
    decay = np.exp(-2.0 * np.pi**2 * np.multiply.outer(t, np.sum(k**2, axis=1)) / L**2)
    if np.ndim(t):
        decay = decay.reshape(decay.shape[:1] + (1,) * (points.ndim - 2) + decay.shape[1:])
    terms = np.exp(1j * (points @ k.T) * (2.0 * np.pi / L)) * decay  # (..., modes)
    value = (terms @ coeff.T).real
    grad = np.einsum("...m,cm,ma->...ca", terms, coeff, 1j * 2.0 * np.pi / L * k).real
    return value, grad


class TestFormField:
    def test_zeros_full(self):
        f = FormField.zeros(2, (4, 4))
        assert f.masks == [0, 1, 2, 3]
        assert f.grades == frozenset({0, 1, 2})

    def test_zeros_single_grade(self):
        f = FormField.zeros(3, (4, 4, 4), grades=[1])
        assert f.masks == [1, 2, 4]

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            FormField.zeros(2, (4, 5))
        with pytest.raises(ValueError):
            FormField.zeros(2, (4,))

    def test_rejects_bad_mask(self):
        with pytest.raises(ValueError, match="mask 5"):
            FormField(2, (4, 4), 1.0, [5], np.zeros((1, 4, 4)))

    def test_rejects_unordered_masks(self):
        for masks in ([2, 1], [1, 1]):
            with pytest.raises(ValueError, match="ascending"):
                FormField(2, (4, 4), 1.0, masks, np.zeros((2, 4, 4)))

    @pytest.mark.parametrize("L", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_period(self, L):
        with pytest.raises(ValueError, match="period length"):
            FormField(2, (4, 4), L, [0], np.zeros((1, 4, 4)))

    def test_rejects_no_components(self):
        with pytest.raises(ValueError, match="at least one component"):
            FormField.zeros(2, (8, 8), grades=[])
        with pytest.raises(ValueError, match="at least one component"):
            FormField.zeros(2, (8, 8), grades=[3])  # no subset of {1, 2} has grade 3
        # the zero-component field that write_ffld once accepted can no longer be made
        with pytest.raises(ValueError, match="at least one component"):
            FormField(2, (8, 8), 1.0, [], np.zeros((0, 8, 8)))

    def test_rejects_data_shape_mismatch(self):
        for shape in ((2, 4, 4), (1, 4, 2), (4, 4)):
            with pytest.raises(ValueError, match="data shape"):
                FormField(2, (4, 4), 1.0, [1], np.zeros(shape))

    def test_components_are_read_only_row_views(self):
        f = FormField.zeros(2, (4, 4), grades=[1])
        with pytest.raises(TypeError):
            f.components[1] = np.ones((4, 4))
        f.components[2][:] = 7.0  # a view: writes land in data
        assert np.array_equal(f.data[1], np.full((4, 4), 7.0))
        assert list(f.components) == f.masks == [1, 2]

    def test_equality_is_identity(self):
        # fields hold arrays, so == compares identity and never raises
        f = FormField.zeros(2, (4, 4))
        assert (f == f) is True
        assert (f == f.like(f.data.copy())) is False
        assert (f != f.like(f.data.copy())) is True


class TestRandomBandLimited:
    def test_rejects_no_components_before_drawing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="at least one component"):
            random_band_limited(2, (8, 8), 1.0, rng, grades=[])
        assert rng.bit_generator.state == state

    def test_matches_per_component_full_fft_filter(self):
        # reference: one draw per component in ascending-mask order, full
        # complex FFT, filter |k_a| <= kmax, real part of the inverse
        for n, dims, kmax, grades, mean_zero in [
            (2, (16, 8), 3, None, True),
            (3, (8, 8, 4), 2, [1, 3], False),
            (2, (8, 8), 4, [1], True),
            # n = 1, and kept Nyquist columns at (16,) kmax 8 and (4, 16) kmax 9
            (1, (16,), 8, None, True),
            (2, (4, 16), 9, None, False),
            (1, (8,), 2, [1], False),
            # wide axes (FFT passes, zeroed outside the band) and a dense 16
            (2, (256, 64), 100, None, True),
            (2, (16, 256), 128, [0, 1], False),
            # dense bands whose block products do not divide the band or the lines
            (2, (64, 256), 23, None, True),
            (2, (256, 64), 31, [1], False),
        ]:
            f = random_band_limited(n, dims, 1.0, np.random.default_rng(5), kmax, grades, mean_zero)
            rng = np.random.default_rng(5)
            ks = np.meshgrid(*[np.fft.fftfreq(d) * d for d in dims], indexing="ij")
            keep = np.all([np.abs(k) <= kmax for k in ks], axis=0)
            for m in f.masks:
                spectrum = np.fft.fftn(rng.standard_normal(dims)) * keep
                if mean_zero:
                    spectrum[(0,) * n] = 0.0
                want = np.fft.ifftn(spectrum).real
                assert np.max(np.abs(f.components[m] - want)) < 1e-14

    def test_blocks(self):
        # every block product fits one OpenBLAS thread
        shapes = [(10, 64, 32768), (258, 256, 1024), (256, 256, 129), (9, 64, 45), (2, 1 << 20, 8)]
        for outer, inner, lines in shapes:
            side, step = _blocks(outer, inner, lines)
            assert 1 <= side <= outer and 1 <= step <= lines
            assert side * step * inner <= 1 << 18 or side == step == 1
        # blocks that do not divide their side: 201 band rows over 256 points
        # split 6 x 32 + 9 and 33 lines 32 + 1; 66 band columns over 64
        # points split 64 + 2; 48 rows split 32 + 16, 258 columns 8 x 32 + 2
        assert _blocks(201, 256, 33) == (32, 32)
        assert _blocks(66, 64, 1024) == (64, 64)
        assert _blocks(258, 256, 48) == (32, 32)

    @pytest.mark.parametrize("d", [2, 4, 8, 64, 256])
    def test_band_matrices_match_numpy_fft(self, d):
        def rel(got, want):
            return np.max(np.abs(got - want)) / np.max(np.abs(want))

        rng = np.random.default_rng(d)
        x = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
        for keep in range(1, d // 2 + 2):
            forward, back = _real_band(d, keep)
            assert forward.shape == (d, 2 * keep) and back.shape == (2 * keep, d)
            assert not forward.flags.writeable and not back.flags.writeable
            assert rel((x.real @ forward).view(complex), np.fft.rfft(x.real)[:, :keep]) < 1e-14
            band = np.ascontiguousarray(x[:, :keep])
            assert rel(band.view(float) @ back, np.fft.irfft(band, n=d)) < 1e-14
        ks = np.rint(np.fft.fftfreq(d) * d)
        for kmax in range(d // 2 + 1):
            forward, back = _complex_band(d, kmax)
            idx = np.flatnonzero(np.abs(ks) <= kmax)
            assert forward.shape == (len(idx), d) and back.shape == (d, len(idx))
            assert not forward.flags.writeable and not back.flags.writeable
            assert rel(x @ forward.T, np.fft.fft(x)[:, idx]) < 1e-14
            spectrum = np.zeros_like(x)
            spectrum[:, idx] = x[:, idx]
            assert rel(x[:, idx] @ back.T, np.fft.ifft(spectrum)) < 1e-14

    def test_independent_of_blas_thread_count(self):
        # every product is small enough for one OpenBLAS thread, so a
        # single-threaded process draws the same bits as this one
        cases = [(3, (64, 64, 64), 4), (2, (256, 256), 8), (2, (256, 256), 128)]
        code = (
            "import hashlib, numpy as np\n"
            "from heatforms.fields import random_band_limited\n"
            f"for n, dims, kmax in {cases!r}:\n"
            "    f = random_band_limited(n, dims, 1.0, np.random.default_rng(11), kmax=kmax)\n"
            "    print(hashlib.sha256(f.data.tobytes()).hexdigest())\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr

        def digest(n, dims, kmax):
            f = random_band_limited(n, dims, 1.0, np.random.default_rng(11), kmax=kmax)
            return hashlib.sha256(f.data.tobytes()).hexdigest()

        assert proc.stdout.split() == [digest(*case) for case in cases]

    @pytest.mark.parametrize(
        "n, dims, kmax, grades, mean_zero",
        [
            (2, (64, 64), 3, None, True),
            (3, (16, 16, 16), 3, [1, 2], False),
            (2, (64, 64), 30, None, True),  # wide axes
            (2, (32, 32), 16, [1], False),  # dense, with the Nyquist points
        ],
    )
    def test_is_band_inverse_of_band_spectrum(self, n, dims, kmax, grades, mean_zero):
        f = random_band_limited(n, dims, 1.0, np.random.default_rng(5), kmax, grades, mean_zero)
        noise = np.random.default_rng(5).standard_normal((3,) + f.data.shape)
        band = tuple(min(kmax, d // 2) for d in dims)
        spectra = _band_spectrum(noise[0], dims, band, mean_zero)
        assert np.array_equal(_band_inverse(spectra, dims, band, np.empty(f.data.shape)), f.data)
        # a stack of three draws: each one's spectrum to rounding
        stacked = _band_spectrum(noise, dims, band, mean_zero)
        for one, x in zip(stacked, noise):
            want = _band_spectrum(x, dims, band, mean_zero)
            assert np.max(np.abs(one - want)) <= 1e-13 * np.max(np.abs(want))

    def test_rejects_negative_kmax(self):
        with pytest.raises(ValueError, match="kmax"):
            random_band_limited(2, (8, 8), 1.0, np.random.default_rng(0), kmax=-1)

    @pytest.mark.parametrize(
        "n, dims, message",
        [
            (0, (), "dimension"),
            (-1, (), "dimension"),
            (2, (0, 0), "powers of two"),
            (2, (8, 12), "powers of two"),
            (2, (8,), "one grid size"),
        ],
    )
    def test_rejects_a_bad_grid_before_drawing(self, n, dims, message):
        with pytest.raises(ValueError, match=message):
            random_band_limited(n, dims, 1.0, np.random.default_rng(0), kmax=2)


class TestBandInverse:
    # the draw's and psw_integral's inverse against irfftn of the zero-filled half spectrum

    @pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=["one-lead-axis", "two-lead-axes"])
    @pytest.mark.parametrize("dims", [(16,), (8, 8), (16, 32), (32, 16), (8, 16, 8)])
    def test_matches_irfftn(self, lead, dims):
        rng = np.random.default_rng(len(lead) + len(dims))
        half = dims[:-1] + (dims[-1] // 2 + 1,)
        axes = tuple(range(len(lead), len(lead) + len(dims)))
        for K in range(max(dims) // 2 + 1):  # from the zero mode to every Nyquist bin
            kmax = [min(K, d // 2) for d in dims]
            box = [np.flatnonzero(np.abs(np.rint(np.fft.fftfreq(d) * d)) <= k) for d, k in zip(dims, kmax)]
            box[-1] = np.arange(kmax[-1] + 1)
            shape = lead + tuple(len(b) for b in box)
            spectra = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            full = np.zeros(lead + half, complex)
            full[(Ellipsis,) + np.ix_(*box)] = spectra
            want = np.fft.irfftn(full, s=dims, axes=axes)
            out = np.empty(lead + dims)
            assert _band_inverse(spectra, dims, kmax, out) is out
            assert np.max(np.abs(out - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "dims, kmax",
        [
            ((256, 256), (31, 31)),
            ((256, 256), (31, 32)),
            ((256, 256), (32, 31)),
            ((256, 256), (100, 128)),
            ((256, 8, 256), (32, 4, 31)),
            ((256, 8, 256), (31, 2, 32)),
        ],
    )
    def test_matches_irfftn_across_the_dense_wide_threshold(self, dims, kmax):
        # at d = 256 an axis is dense up to K = 31 (2K + 1 <= 8 log2 d) and
        # wide, holding every point, from K = 32; the 8-point axis is dense
        axes = _band_axes(dims, kmax)
        assert [index is None for index, _ in axes] == [k >= 32 for k in kmax]
        rng = np.random.default_rng(sum(kmax))
        half = dims[:-1] + (dims[-1] // 2 + 1,)
        box = [np.arange(h) if index is None else index for (index, _), h in zip(axes, half)]
        shape = (2,) + tuple(len(b) for b in box)
        spectra = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = np.zeros((2,) + half, complex)
        full[(slice(None),) + np.ix_(*box)] = spectra
        want = np.fft.irfftn(full, s=dims, axes=tuple(range(1, len(dims) + 1)))
        out = np.empty((2,) + dims)
        assert _band_inverse(spectra, dims, kmax, out) is out
        assert np.max(np.abs(out - want)) <= 1e-14 * np.max(np.abs(want))

    def test_per_axis_rule(self):
        # dense while 2K + 1 <= 8 log2(d): every K up to N/2 for d <= 32,
        # K <= 23 at d = 64 and K <= 31 at d = 256
        for d, densest in ((2, 1), (8, 4), (32, 16), (64, 23), (256, 31)):
            labels = list(np.rint(np.fft.fftfreq(d) * d).astype(int))
            for K in range(d // 2 + 1):
                (index, k), (last_index, last_k) = _band_axes((d, d), (K, K))
                assert (index is not None) == (last_index is not None) == (K <= densest)
                # a dense axis holds its band in fftfreq's order, a wide one every point
                assert list(k) == [j for j in labels if abs(j) <= K or index is None]
                assert list(last_k) == [j for j in labels[: d // 2 + 1] if abs(j) <= K or index is None]


def held_band_of_rfftn(stack, dims):
    """_held_band of the whole rfftn over the trailing len(dims) axes, the held forward's reference."""
    return _held_band(np.fft.rfftn(stack, axes=tuple(range(stack.ndim - len(dims), stack.ndim))), dims)


class TestHeldSpectra:
    # the held forward transform against _held_band of the whole rfftn:
    # the same box and the same bits, whatever last-axis bins it skips

    @pytest.mark.parametrize(
        "dims, kmax",
        [((64, 64, 64), 4), ((256, 256), 8), ((256, 256), 127), ((32, 32, 32), 4), ((16, 32), 8)],
    )
    @pytest.mark.parametrize("kind", ["real", "complex", "noise", "zero-row", "zeros"])
    def test_matches_held_band_of_rfftn(self, dims, kmax, kind):
        # (16, 32) at kmax 8 reaches Nyquist on its first axis only
        n = len(dims)
        rng = np.random.default_rng(kmax + n)
        f, g = (random_band_limited(n, dims, 1.0, rng, kmax=kmax, mean_zero=False).data for _ in "fg")
        stack = {
            "real": f[None],
            "complex": np.stack([f, g]),  # a complex field goes as its real and imaginary parts
            "noise": rng.standard_normal(f.shape),
            "zero-row": np.concatenate([f[:1], np.zeros_like(f[:1]), f[1:]]),
            "zeros": np.zeros(f.shape),
        }[kind]
        box, spectra = _held_spectra(stack, dims)
        want_box, want = held_band_of_rfftn(stack, dims)
        assert box == want_box
        assert spectra.shape == want.shape and np.array_equal(spectra, want)

    @pytest.mark.parametrize(
        "scale, box, bins",
        [(1.01, (3, 20), 21), (0.99, (1, 1), 21), (0.01, (1, 1), 2)],
        ids=["above-the-cut", "below-the-cut", "below-the-bound"],
    )
    def test_a_high_bin_mode_near_the_cut(self, monkeypatch, scale, box, bins):
        # cos(2 pi (x + y)) on 64^2 plus a mode at k = (3, 20) whose |c| is
        # scale * _MODE_TOL times the row's largest: it is held above the
        # cut and not below, as the whole rfftn decides. Bin 20 is left out
        # of the other axis's pass only where its bound, sum_x |Re| + |Im|,
        # clears _MODE_TOL / 2 of the floor on the row's largest |c|.
        x = np.arange(64) / 64
        small = scale * _MODE_TOL * np.cos(2 * np.pi * (3 * x[:, None] + 20 * x))
        row = np.cos(2 * np.pi * (x[:, None] + x)) + small
        seen = []

        def recorded(a, *args, _fn=np.fft.fft, **kwargs):
            seen.append(a.shape[-1])
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", recorded)
        got_box, got = _held_spectra(row[None], (64, 64))
        assert seen == [bins]
        monkeypatch.undo()
        want_box, want = held_band_of_rfftn(row[None], (64, 64))
        assert got_box == want_box == box
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "n, dims, kmax, bins",
        [
            (3, (64, 64, 64), 4, 5),
            (2, (256, 256), 8, 9),
            (2, (256, 256), 127, 129),
            (3, (64, 64, 64), 31, 33),
        ],
    )
    def test_other_axes_see_only_the_live_bins(self, monkeypatch, n, dims, kmax, bins):
        # a band-limited draw leaves the last-axis bins past kmax empty: they
        # skip the other axes' passes while the last axis stays dense (K <= 23
        # at d = 64, K <= 31 at d = 256), and a wide box transforms them all
        f = random_band_limited(n, dims, 1.0, np.random.default_rng(kmax), kmax=kmax)
        seen = []

        def recorded(a, *args, _fn=np.fft.fft, **kwargs):
            seen.append(a.shape[-1])
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", recorded)
        box, _ = _held_spectra(f.data[None], dims)
        assert box == (kmax,) * n
        assert seen == [bins] * (n - 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["past-the-cut", "magnitude"])
    def test_an_overflowed_coefficient_is_seen(self, kind):
        # past-the-cut: 1e308 next to -1e308, so bin 0 is exactly 0 and the high
        # bins overflow; the row's sums are not finite and it keeps every bin.
        # magnitude: bin 1 of a 5e307 cosine has finite parts but |c| > 1.8e308.
        stack = np.zeros((1, 4, 256))
        if kind == "past-the-cut":
            stack[0, 0, :2] = 1e308, -1e308
        else:
            stack[0, 0] = 5e307 * np.cos(2 * np.pi * np.arange(256) / 256 - np.pi / 4)
        with pytest.raises(ValueError, match="spectrum overflows"):
            _held_spectra(stack, (4, 256))


class TestLpNorm:
    def test_zero_field(self):
        assert lp_norm(FormField.zeros(2, (8, 8)), 3.0) == 0.0

    def test_constant_normalization(self):
        for p in (1.0, 2.0, 3.5):
            f = FormField.zeros(2, (8, 8), L=1.0, grades=[0])
            f.components[0][:] = -2.5
            assert np.isclose(lp_norm(f, p), 2.5)

    def test_cosine_l2(self):
        f = cosine_field(2, (16, 16), 1.0, [1, 0], mask=1)
        assert abs(lp_norm(f, 2.0) - 1.0 / np.sqrt(2.0)) < 1e-10

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(FormField.zeros(2, (4, 4)), 0.5)

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_rejects_non_finite_p(self, p):
        # p = inf used to return 1.0 for every field, p = nan returned nan
        f = random_band_limited(2, (16, 16), 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            lp_norm(f, p)

    def test_rejects_overflowing_power_sum(self):
        # |f|^p overflows where |f| > 1, but only a norm past the largest double is rejected;
        # a RuntimeWarning would fail the suite
        f = FormField.zeros(2, (8, 8), grades=[0])
        f.components[0][:] = 2.0
        assert lp_norm(f, 1e308) == 2.0
        assert lp_norm(f, 1000.0) == pytest.approx(2.0)
        # at p = 2 the density itself overflows, and the field is summed again as its length
        assert lp_norm(f.like(np.full(f.data.shape, 1e160)), 2.0) == pytest.approx(1e160, rel=1e-15)
        with pytest.raises(ValueError, match="exponent 2.0: the L\\^p norm of a nonzero field over- or underflows"):
            lp_norm(FormField.zeros(2, (8, 8)).like(np.full((4, 8, 8), 1e308)), 2.0)  # 2e308

    def test_rejects_underflowing_power_sum(self):
        # 0.5^2000 underflows to 0, but the norm is 0.5, not 0: the field is summed again
        f = FormField.zeros(2, (8, 8), grades=[0])
        f.components[0][:] = 0.5
        assert lp_norm(f, 2000.0) == 0.5
        assert lp_norm(f, 1000.0) == pytest.approx(0.5)
        assert lp_norm(FormField.zeros(2, (8, 8)), 2000.0) == 0.0
        # on a torus of length 1e-170 the cell volume itself is 0, so no sum can give the norm
        with pytest.raises(ValueError, match="exponent 2.0: the L\\^p norm of a nonzero field over- or underflows"):
            lp_norm(FormField(2, (8, 8), 1e-170, [0], f.data), 2.0)

    def test_is_the_one_field_power_sum(self):
        rng = np.random.default_rng(12)
        for n, dims in [(1, (16,)), (2, (64, 64)), (3, (64, 32, 32))]:  # the last has two blocks
            f = random_band_limited(n, dims, 1.5, rng)
            for field in (f, f.like(f.data + 0.5j * f.data[::-1])):
                rows = field.data.reshape(1, len(field.masks), -1)
                for p in (1.0, 4.0 / 3.0, 2.0, 4.0, 7.5):
                    norm = _lp_norms(rows, (p,), field.cell_volume)[0, 0]
                    assert lp_norm(field, p) == pytest.approx(float(norm), rel=4 * np.finfo(float).eps)

    def test_power_sums_of_a_stack_match_each_field(self):
        rng = np.random.default_rng(13)
        stack = rng.standard_normal((2, 3, 4, 64 * 32 * 32))  # two blocks of points
        exponents = (4.0, 1.0, 2.0, 4.0 / 3.0)
        norms = _lp_norms(stack, exponents, 0.5)  # the cell volume at L = 32
        assert norms.shape == (4, 2, 3)
        for index in np.ndindex(2, 3):
            field = FormField(3, (64, 32, 32), 32.0, [1, 2, 4, 7], stack[index].reshape(4, 64, 32, 32))
            for p, norm in zip(exponents, norms[(slice(None),) + index]):
                assert lp_norm(field, p) == pytest.approx(float(norm), rel=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("value, trips", [(1e3, "overflows"), (1e-3, "underflows")])
    def test_power_sums_blame_one_field_of_a_stack(self, value, trips):
        # one field of three trips the exponent 300 and alone is summed again: its norms are
        # value times those of the all-ones field, and the others keep their bits
        stack = np.ones((3, 2, 64))
        ones = _lp_norms(stack, (2.0, 300.0), 1.0 / 64)
        stack[1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the sum that trips warns nothing
            norms = _lp_norms(stack, (2.0, 300.0), 1.0 / 64)
            assert np.array_equal(norms[:, [0, 2]], ones[:, [0, 2]])
            assert norms[:, 1] == pytest.approx(value * ones[:, 1], rel=4 * np.finfo(float).eps)
            stack[1] = 0.0  # a zero field sums to 0
            assert np.array_equal(_lp_norms(stack, (2.0, 300.0), 1.0 / 64)[:, 1], [0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e-3, 1e200])
    @pytest.mark.parametrize("p", [4.0, 100.0, 1000.0])
    def test_scale_identity_where_power_sums_over_or_underflow(self, scale, p):
        # a 64^2 kmax-3 draw has |f| < 1.4, so f's sums underflow at p = 1000 and 1e-3 f's at p = 100
        f = random_band_limited(2, (64, 64), 1.0, np.random.default_rng(0))
        assert lp_norm(f.like(scale * f.data), p) / scale == pytest.approx(lp_norm(f, p), rel=4 * np.finfo(float).eps)
        assert lp_norm(f, 1000.0) == pytest.approx(0.4685, abs=1e-4)

    @given(st.floats(0.1, 10.0), st.floats(1.0, 6.0))
    @settings(max_examples=20, deadline=None)
    def test_homogeneous(self, scale, p):
        rng = np.random.default_rng(42)
        f = random_band_limited(2, (8, 8), 1.0, rng)
        assert np.isclose(lp_norm(f.like(scale * f.data), p), scale * lp_norm(f, p), rtol=1e-10)

    def test_blocks_match_one_sum_over_the_grid(self):
        # 64^3 holds eight blocks of points; the norm stays within 1e-15 of
        # one sum over a grid-sized density
        rng = np.random.default_rng(8)
        f, g = (random_band_limited(3, (64, 64, 64), 1.0, rng, kmax=4) for _ in "fg")
        for field in (f, f.like(f.data + 1j * g.data)):
            d = np.abs(field.data)
            density = np.einsum("i...,i...->...", d, d)
            for p in (1.0, 4.0 / 3.0, 2.0, 4.0, 7.5):
                want = (field.cell_volume * np.sum(density ** (p / 2.0))) ** (1.0 / p)
                assert abs(lp_norm(field, p) / want - 1.0) <= 1e-15

    def test_no_grid_sized_array(self):
        # a 1024^2 grade-1 field, whose density alone takes 8 MiB: the
        # blocks' arrays stay under a quarter of that, complex fields too
        rng = np.random.default_rng(9)
        f = FormField(2, (1024, 1024), 1.0, [1, 2], rng.standard_normal((2, 1024, 1024)))
        for field in (f, f.like(f.data + 1j * f.data[::-1])):
            for p in (1.0, 3.5):
                tracemalloc.start()
                lp_norm(field, p)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                assert peak < (8 << 20) // 4

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_density_matches_row_loop(self, complex_data):
        # the row-by-row sum lp_norm used before its einsum, as the reference
        def row_loop_norm(field, p):
            density = np.zeros(field.dims)
            for row in field.data:
                density += np.abs(row) ** 2 if np.iscomplexobj(row) else row**2
            return float((field.cell_volume * np.sum(density ** (p / 2.0))) ** (1.0 / p))

        rng = np.random.default_rng(7)
        for n, dims, grades in [(1, (16,), None), (2, (8, 16), [1]), (3, (8, 4, 8), None)]:
            f = random_band_limited(n, dims, 1.5, rng, grades=grades)
            if complex_data:
                g = random_band_limited(n, dims, 1.5, rng, grades=grades)
                f = f.like(f.data + 1j * g.data)
            for p in (1.0, 2.0, 3.7):
                assert lp_norm(f, p) == row_loop_norm(f, p)


@st.composite
def form_fields(draw):
    """Random real fields: n in 1..3, any grade subset, power-of-two dims."""
    n = draw(st.integers(1, 3))
    grades = draw(st.sets(st.integers(0, n), min_size=1))  # a field needs at least one component
    dims = tuple(draw(st.sampled_from([2, 4, 8])) for _ in range(n))
    L = draw(st.floats(0.1, 10.0))
    masks = masks_for_grades(n, grades)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return FormField(n, dims, L, masks, rng.standard_normal((len(masks),) + dims))


class TestFFLD:
    @given(form_fields())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, f):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.ffld"
            write_ffld(f, path)
            payload = path.read_bytes().split(b"\n", 1)[1]
            g = read_ffld(path)
        assert payload == f.data.astype("<f8").tobytes()
        assert (g.n, g.dims, g.L, g.masks) == (f.n, f.dims, f.L, f.masks)
        assert g.data.shape == f.data.shape
        assert g.data.tobytes() == f.data.tobytes()

    @pytest.mark.parametrize("layout", ["fortran", "strided", "big-endian"])
    def test_payload_is_c_order_little_endian(self, tmp_path, layout):
        # the payload is written from the array's buffer, so every layout
        # must first become one C-ordered little-endian block
        data = np.random.default_rng(3).standard_normal((4, 8, 8))
        stored = {
            "fortran": np.asfortranarray(data),
            "strided": np.repeat(data, 2, axis=2)[..., ::2],
            "big-endian": data.astype(">f8"),
        }[layout]
        path = tmp_path / "layout.ffld"
        write_ffld(FormField(2, (8, 8), 1.0, [0, 1, 2, 3], stored), path)
        assert path.read_bytes().split(b"\n", 1)[1] == data.astype("<f8").tobytes()

    def test_round_trip_full(self, tmp_path):
        rng = np.random.default_rng(1)
        f = random_band_limited(2, (8, 4), 2.0, rng)
        path = tmp_path / "field.ffld"
        write_ffld(f, path)
        g = read_ffld(path)
        assert (g.n, g.dims, g.L) == (2, (8, 4), 2.0)
        assert g.masks == f.masks
        for m in f.masks:
            assert np.array_equal(g.components[m], f.components[m])

    def test_round_trip_single_grade(self, tmp_path):
        rng = np.random.default_rng(2)
        f = random_band_limited(3, (4, 4, 4), 1.0, rng, grades=[2])
        path = tmp_path / "grade2.ffld"
        write_ffld(f, path)
        g = read_ffld(path)
        assert g.masks == masks_for_grades(3, [2]) == [3, 5, 6]

    def test_header_format(self, tmp_path):
        f = FormField.zeros(2, (4, 4), L=1.5, grades=[0])
        path = tmp_path / "h.ffld"
        write_ffld(f, path)
        first = path.read_bytes().split(b"\n", 1)[0].decode()
        assert first.startswith("FFLD1 {")
        assert '"n": 2' in first and '"dims": [4, 4]' in first
        assert '"order": "ascending-mask"' in first
        assert '"dtype": "f64le"' in first

    def test_rejects_truncated_payload(self, tmp_path):
        f = FormField.zeros(2, (4, 4))
        path = tmp_path / "t.ffld"
        write_ffld(f, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FFLDError, match="payload length"):
            read_ffld(path)

    def test_rejects_extra_payload(self, tmp_path):
        f = FormField.zeros(2, (4, 4))
        path = tmp_path / "x.ffld"
        write_ffld(f, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(FFLDError, match="payload length"):
            read_ffld(path)

    @pytest.mark.parametrize("change", [0, -8, 8, "huge"], ids=["exact", "short", "long", "huge"])
    def test_payload_length_from_a_pipe(self, tmp_path, change):
        # a pipe's length is known only once it is read, and a header whose
        # payload no array can hold is refused before reading
        f = random_band_limited(2, (4, 4), 1.0, np.random.default_rng(4))
        path = tmp_path / "f.ffld"
        write_ffld(f, path)
        data = path.read_bytes()
        if change == "huge":
            data = data.replace(b'"dims": [4, 4]', b'"dims": [1073741824, 1073741824]')
        else:
            data = data[:change] if change < 0 else data + b"\0" * change
        read_end, write_end = os.pipe()
        with open(write_end, "wb") as fh:  # ~600 bytes: fits in the pipe's buffer
            fh.write(data)
        try:
            if change:
                with pytest.raises(FFLDError, match="payload"):
                    read_ffld(f"/dev/fd/{read_end}")
            else:
                assert read_ffld(f"/dev/fd/{read_end}").data.tobytes() == f.data.tobytes()
        finally:
            os.close(read_end)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ffld"
        path.write_bytes(b'XXXX {"n": 2}\n')
        with pytest.raises(FFLDError, match="magic"):
            read_ffld(path)

    def test_rejects_bad_header_json(self, tmp_path):
        path = tmp_path / "bad2.ffld"
        path.write_bytes(b"FFLD1 {not json}\n")
        with pytest.raises(FFLDError, match="header"):
            read_ffld(path)

    def test_rejects_wrong_dtype(self, tmp_path):
        f = FormField.zeros(2, (4, 4))
        path = tmp_path / "d.ffld"
        write_ffld(f, path)
        data = path.read_bytes().replace(b"f64le", b"f32le")
        path.write_bytes(data)
        with pytest.raises(FFLDError, match="dtype"):
            read_ffld(path)

    def test_rejects_infinite_period(self, tmp_path):
        path = tmp_path / "inf.ffld"
        write_ffld(FormField.zeros(2, (4, 4)), path)
        path.write_bytes(path.read_bytes().replace(b'"L": 1.0', b'"L": Infinity'))
        with pytest.raises(FFLDError, match="period length"):
            read_ffld(path)

    def test_rejects_no_components(self, tmp_path):
        path = tmp_path / "empty.ffld"
        write_ffld(FormField.zeros(2, (8, 8), grades=[1]), path)
        header = path.read_bytes().split(b"\n", 1)[0]
        path.write_bytes(header.replace(b'"grades": [1]', b'"grades": []') + b"\n")
        with pytest.raises(FFLDError, match="at least one component"):
            read_ffld(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (b'"order": "ascending-mask"', b'"order": "descending"', "unsupported order"),
            (b'"layout": "component-major,row-major"', b'"layout": "point-major"', "unsupported layout"),
            (b'"dims": [4, 4]', b'"dims": [4]', "inconsistent n/dims/L"),
            (b'"L": 1.0', b'"L": -1.0', "inconsistent n/dims/L"),
            (b'"n": 2, "dims": [4, 4]', b'"n": 17, "dims": [' + b", ".join([b"4"] * 17) + b"]", "cap 16"),
            (b'"grades": [1]', b'"grades": [3]', "invalid grade list"),
            (b'"grades": [1]', b'"grades": [1, 1]', "invalid grade list"),
        ],
    )
    def test_rejects_a_bad_header_field(self, tmp_path, old, new, message):
        path = tmp_path / "h.ffld"
        write_ffld(FormField.zeros(2, (4, 4), grades=[1]), path)
        data = path.read_bytes()
        assert old in data
        path.write_bytes(data.replace(old, new))
        with pytest.raises(FFLDError, match=message):
            read_ffld(path)

    def test_write_rejects_a_partial_grade(self, tmp_path):
        f = FormField(2, (4, 4), 1.0, [1], np.zeros((1, 4, 4)))  # dx_1 without dx_2
        with pytest.raises(FFLDError, match="not a full union of grades"):
            write_ffld(f, tmp_path / "p.ffld")
        assert not (tmp_path / "p.ffld").exists()

    def test_write_rejects_a_complex_field(self, tmp_path):
        f = FormField(2, (4, 4), 1.0, [1, 2], np.zeros((2, 4, 4), complex))
        with pytest.raises(FFLDError, match="real fields only"):
            write_ffld(f, tmp_path / "c.ffld")
        assert not (tmp_path / "c.ffld").exists()

    def test_payload_is_little_endian_component_major(self, tmp_path):
        f = FormField.zeros(2, (2, 2), grades=[0, 1])
        f.components[0][:] = [[1.0, 2.0], [3.0, 4.0]]  # axis 1 slowest
        f.components[1][0, 0] = 5.0
        path = tmp_path / "payload.ffld"
        write_ffld(f, path)
        _, payload = path.read_bytes().split(b"\n", 1)
        vals = np.frombuffer(payload, dtype="<f8")
        assert vals[:4].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert vals[4] == 5.0


class TestTrigSeries:
    def test_rejects_nonfinite_samples(self):
        stack = np.ones((2, 8, 8))
        stack[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            TrigSeries(stack, 1.0)

    def test_single_mode_value_and_gradient(self):
        L = 2.0
        f = cosine_field(2, (16, 16), L, [1, 0], mask=0)
        series = TrigSeries(f.data, L)
        pts = np.array([[0.3, 0.9], [1.1, 0.2], [0.0, 0.0]])
        want = np.cos(2 * np.pi * pts[:, 0] / L)
        assert np.allclose(series.value(pts)[:, 0], want, atol=1e-12)
        grad = series.gradient(pts)[:, 0]
        assert np.allclose(grad[:, 0], -2 * np.pi / L * np.sin(2 * np.pi * pts[:, 0] / L))
        assert np.allclose(grad[:, 1], 0.0, atol=1e-12)

    def test_heat_time_scaling(self):
        L = 1.0
        f = cosine_field(2, (8, 8), L, [0, 2], mask=0)
        series = TrigSeries(f.data, L)
        pts = np.array([[0.1, 0.7]])
        t = 0.05
        decay = np.exp(-2 * np.pi**2 * 4 * t)
        assert np.allclose(series.value(pts, t), decay * series.value(pts), rtol=1e-12)

    @pytest.mark.parametrize("per_step", [False, True], ids=["scalar_t", "array_t"])
    def test_matches_broadcast_formulas(self, per_step):
        # against every mode of the unfolded lattice, on all-grade stacks;
        # kmax = dims / 2 keeps the Nyquist modes, whose -k is off the lattice
        cases = [
            (1, (16,), 8),
            (2, (8, 8), 4),
            (2, (16, 16), 3),
            (3, (4, 8, 4), 4),
            (3, (8, 8, 8), 3),
        ]
        stacks = []
        for n, dims, kmax in cases:
            rng = np.random.default_rng(4)
            stacks.append(random_band_limited(n, dims, 0.7, rng, kmax=kmax, mean_zero=False).data)
        # grids off the powers of two, where fftfreq(d) * d is not exact (d = 49)
        # and an even axis (6) still has a Nyquist mode; |k_a| <= 6 keeps the
        # large phases of the unfolded sum from rounding past the tolerance
        for dims in [(49,), (6, 49)]:
            axes = range(1, len(dims) + 1)
            spectrum = np.fft.fftn(np.random.default_rng(4).standard_normal((2,) + dims), axes=axes)
            ks = np.meshgrid(*[np.rint(np.fft.fftfreq(d) * d) for d in dims], indexing="ij")
            spectrum[:, np.max(np.abs(ks), axis=0) > 6] = 0.0
            stacks.append(np.fft.ifftn(spectrum, axes=axes).real)
        for stack in stacks:
            n = stack.ndim - 1
            series = TrigSeries(stack, 0.7)
            pts = np.random.default_rng(5).uniform(-1.0, 1.0, (6, 50, n))
            ts = 0.002 * np.arange(6) if per_step else 0.003
            value, grad = series.value(pts, ts), series.gradient(pts, ts)
            assert value.shape == (6, 50, len(stack)) and grad.shape == (6, 50, len(stack), n)
            want_value, want_grad = lattice_oracle(stack, 0.7, pts, ts)
            assert np.max(np.abs(value - want_value)) <= 1e-14 * np.max(np.abs(want_value))
            assert np.max(np.abs(grad - want_grad)) <= 1e-14 * np.max(np.abs(want_grad))

    @pytest.mark.parametrize("n, dims, kmax", [(1, (8,), 4), (2, (8, 8), 4), (3, (4, 8, 4), 2)])
    def test_no_kept_mode_has_its_negative_kept(self, n, dims, kmax):
        f = random_band_limited(n, dims, 1.0, np.random.default_rng(6), kmax=kmax, mean_zero=False)
        series = TrigSeries(f.data, f.L)
        kept = {tuple(k) for k in series.kvecs}
        assert len(kept) == len(series.kvecs)
        assert all(tuple(-k) not in kept for k in series.kvecs if np.any(k))
        assert (0.0,) * n in kept

    @pytest.mark.parametrize(
        "dims, kmax, modes", [((16, 16), 2, 13), ((8, 8), 4, 1 + 15 + 24)], ids=["markov", "nyquist"]
    )
    def test_folded_mode_count(self, dims, kmax, modes):
        # 16^2 at kmax 2 is the Markov check's grid: the mean and 12 folded
        # pairs. On 8^2 -4 is on the lattice and +4 is not, so the 15 modes
        # on a Nyquist line stay as they are and only the other 48 fold
        g = random_band_limited(2, dims, 1.0, np.random.default_rng(7), kmax=kmax, mean_zero=False)
        assert len(TrigSeries(g.components[0][None], 1.0).kvecs) == modes

    def test_mode_set_does_not_depend_on_scale(self):
        # each row's cutoff is relative to its largest coefficient, so a tiny
        # field keeps its modes
        f = random_band_limited(2, (16, 16), 1.0, np.random.default_rng(8), kmax=3, mean_zero=False)
        series, tiny = TrigSeries(f.data, 1.0), TrigSeries(1e-20 * f.data, 1.0)
        assert np.array_equal(tiny.kvecs, series.kvecs)
        pts = np.random.default_rng(9).uniform(0.0, 1.0, (40, 2))
        want = 1e-20 * series.value(pts, 0.01)
        assert np.max(np.abs(tiny.value(pts, 0.01) - want)) <= 1e-14 * np.max(np.abs(want))

    def test_reproduces_grid_samples(self):
        rng = np.random.default_rng(3)
        f = random_band_limited(2, (8, 8), 1.0, rng, kmax=3)
        series = TrigSeries(f.data, 1.0)
        xs = np.array(
            [[i / 8, j / 8] for i in range(8) for j in range(8)]
        )
        assert np.allclose(series.value(xs).T.reshape(f.data.shape), f.data, atol=1e-10)
