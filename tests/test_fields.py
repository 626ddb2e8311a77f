import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatforms.errors import FFLDError
from heatforms.fields import (
    FormField,
    TrigSeries,
    cosine_field,
    lp_norm,
    masks_for_grades,
    random_band_limited,
    read_ffld,
    write_ffld,
)


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
        assert (f == f.copy()) is False
        assert (f != f.copy()) is True

    def test_arithmetic(self):
        rng = np.random.default_rng(0)
        f = random_band_limited(2, (8, 8), 1.0, rng)
        g = random_band_limited(2, (8, 8), 1.0, rng)
        h = f + 2.0 * g
        for m in f.masks:
            assert np.array_equal(h.components[m], f.components[m] + 2.0 * g.components[m])


class TestRandomBandLimited:
    def test_matches_per_component_full_fft_filter(self):
        # reference: one draw per component in ascending-mask order, full
        # complex FFT, filter |k_a| <= kmax, real part of the inverse
        for n, dims, kmax, grades, mean_zero in [
            (2, (16, 8), 3, None, True),
            (3, (8, 8, 4), 2, [1, 3], False),
            (2, (8, 8), 4, [1], True),
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

    def test_rejects_negative_kmax(self):
        with pytest.raises(ValueError, match="kmax"):
            random_band_limited(2, (8, 8), 1.0, np.random.default_rng(0), kmax=-1)


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

    @given(st.floats(0.1, 10.0), st.floats(1.0, 6.0))
    @settings(max_examples=20, deadline=None)
    def test_homogeneous(self, scale, p):
        rng = np.random.default_rng(42)
        f = random_band_limited(2, (8, 8), 1.0, rng)
        assert np.isclose(lp_norm(scale * f, p), scale * lp_norm(f, p), rtol=1e-10)

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
    grades = draw(st.sets(st.integers(0, n)))
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
    def test_single_mode_value_and_gradient(self):
        L = 2.0
        f = cosine_field(2, (16, 16), L, [1, 0], mask=0)
        series = TrigSeries.from_grid(f.components[0], L)
        pts = np.array([[0.3, 0.9], [1.1, 0.2], [0.0, 0.0]])
        want = np.cos(2 * np.pi * pts[:, 0] / L)
        assert np.allclose(series.value(pts), want, atol=1e-12)
        grad = series.gradient(pts)
        assert np.allclose(grad[:, 0], -2 * np.pi / L * np.sin(2 * np.pi * pts[:, 0] / L))
        assert np.allclose(grad[:, 1], 0.0, atol=1e-12)

    def test_heat_time_scaling(self):
        L = 1.0
        f = cosine_field(2, (8, 8), L, [0, 2], mask=0)
        series = TrigSeries.from_grid(f.components[0], L)
        pts = np.array([[0.1, 0.7]])
        t = 0.05
        decay = np.exp(-2 * np.pi**2 * 4 * t)
        assert np.allclose(series.value(pts, t), decay * series.value(pts), rtol=1e-12)

    def test_mean(self):
        grid = np.full((4, 4), 3.25)
        assert TrigSeries.from_grid(grid, 1.0).mean() == pytest.approx(3.25)

    @pytest.mark.parametrize("per_step", [False, True], ids=["scalar_t", "array_t"])
    def test_matches_broadcast_formulas(self, per_step):
        # the broadcast-and-sum formulas the mode matmul replaced, one
        # leading index (step) at a time
        f = random_band_limited(2, (16, 16), 1.0, np.random.default_rng(4), kmax=3)
        series = TrigSeries.from_grid(f.components[1], 1.0)
        pts = np.random.default_rng(5).uniform(0.0, 1.0, (6, 50, 2))
        ts = 0.01 * np.arange(6)[:, None] if per_step else 0.03
        value, grad = series.value(pts, ts), series.gradient(pts, ts)
        factors = 1j * 2.0 * np.pi / series.L * series.kvecs
        for k in range(len(pts)):
            t = ts[k, 0] if per_step else ts
            phase = pts[k] @ series.kvecs.T * (2.0 * np.pi / series.L)
            terms = np.exp(1j * phase) * series.coeffs * np.exp(
                -2.0 * np.pi**2 * series.ksq * t
            )
            want_value = terms.sum(axis=1).real
            want_grad = (terms[:, :, None] * factors[None, :, :]).sum(axis=1).real
            assert np.max(np.abs(value[k] - want_value)) <= 1e-14 * np.max(np.abs(want_value))
            assert np.max(np.abs(grad[k] - want_grad)) <= 1e-14 * np.max(np.abs(want_grad))

    def test_reproduces_grid_samples(self):
        rng = np.random.default_rng(3)
        f = random_band_limited(2, (8, 8), 1.0, rng, kmax=3)
        series = TrigSeries.from_grid(f.components[1], 1.0)
        xs = np.array(
            [[i / 8, j / 8] for i in range(8) for j in range(8)]
        )
        assert np.allclose(series.value(xs).reshape(8, 8), f.components[1], atol=1e-10)
