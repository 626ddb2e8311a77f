import numpy as np
import pytest

from heatforms.fields import FormField, cosine_field, lp_norm, random_band_limited
from heatforms.fourier import (
    GL_ORDER,
    apply_beurling_ahlfors,
    beurling_ahlfors_symbol,
    heat_extension,
    psw_integral,
    spectral_gradient,
    symbol_from_heat_matrix,
    symbol_norms_on_grid,
)
from heatforms.heatmatrix import HeatMatrixSpec
from heatforms.multipliers import (
    apply_spectral_multiplier,
    identity_symbol,
    imaginary_power_symbol,
    laplace_symbol_eval_many,
)


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
# uneven grids and L != 1.
ORACLE_CASES = [
    (2, (4, 8), 0.7, 4),
    (2, (16, 16), 1.3, 8),
    (3, (4, 8, 4), 1.7, 4),
]


def oracle_fields(n, dims, L, kmax, seed):
    rng = np.random.default_rng(seed)
    f = random_band_limited(n, dims, L, rng, kmax=kmax, mean_zero=False)
    g = random_band_limited(n, dims, L, rng, kmax=kmax, mean_zero=False)
    return f, f.like(f.data + 1j * g.data)


def assert_rel_close(got, want, rel=1e-13):
    assert got.shape == want.shape and np.iscomplexobj(got) == np.iscomplexobj(want)
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestFullLatticeOracle:
    # the half-spectrum path against full complex fftn/ifftn of the same multipliers

    @pytest.mark.parametrize("n, dims, L, kmax", ORACLE_CASES)
    def test_heat_extension(self, n, dims, L, kmax):
        xi_sq, _ = full_lattice_multipliers(dims, L)
        for field in oracle_fields(n, dims, L, kmax, 21):
            want = full_lattice_route(field.data, np.exp(-2.0 * np.pi**2 * xi_sq * 0.01), n)
            assert_rel_close(heat_extension(field, 0.01).data, want)

    @pytest.mark.parametrize("n, dims, L, kmax", ORACLE_CASES)
    def test_spectral_gradient(self, n, dims, L, kmax):
        _, grad = full_lattice_multipliers(dims, L)
        for field in oracle_fields(n, dims, L, kmax, 22):
            assert_rel_close(spectral_gradient(field), full_lattice_route(field.data[:, None], grad, n))

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
            heat_extension(field, 0.1)
            spectral_gradient(field)
            apply_beurling_ahlfors(field)
            apply_spectral_multiplier(imaginary_power_symbol(1.0), field)
        psw_integral(f, f, 2.0, t_max=0.1)


class TestHeatExtension:
    def test_single_mode_decay(self):
        L = 2.0
        f = cosine_field(2, (16, 16), L, [1, 0], mask=1)
        t = 0.3
        u = heat_extension(f, t)
        assert np.allclose(
            u.components[1], np.exp(-2 * np.pi**2 * t / L**2) * f.components[1]
        )

    def test_time_zero_identity(self):
        rng = np.random.default_rng(0)
        f = random_band_limited(2, (8, 8), 1.0, rng)
        u = heat_extension(f, 0.0)
        for m in f.masks:
            assert np.array_equal(u.components[m], f.components[m])

    def test_constant_unchanged(self):
        f = FormField.zeros(2, (8, 8), grades=[0])
        f.components[0][:] = 4.2
        u = heat_extension(f, 1.7)
        assert np.allclose(u.components[0], 4.2)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            heat_extension(FormField.zeros(2, (4, 4)), -0.1)

    def test_semigroup(self):
        rng = np.random.default_rng(1)
        f = random_band_limited(2, (16, 16), 1.0, rng)
        a = heat_extension(heat_extension(f, 0.1), 0.2)
        b = heat_extension(f, 0.3)
        for m in f.masks:
            assert np.allclose(a.components[m], b.components[m], atol=1e-12)


class TestSpectralGradient:
    def test_cosine(self):
        L = 1.0
        f = cosine_field(2, (32, 32), L, [1, 0], mask=1)
        g = spectral_gradient(f)
        x = np.arange(32) / 32
        want = -2 * np.pi * np.sin(2 * np.pi * x)[:, None] * np.ones((1, 32))
        assert g.shape == (1, 2, 32, 32)
        assert np.allclose(g[0, 0], want, atol=1e-10)
        assert np.allclose(g[0, 1], 0.0, atol=1e-12)

    def test_constant_zero_gradient(self):
        f = FormField.zeros(2, (8, 8), grades=[0])
        f.components[0][:] = 3.0
        g = spectral_gradient(f)
        assert np.allclose(g, 0.0, atol=1e-13)

    def test_discrete_plancherel(self):
        # independent oracle: energy of i 2 pi xi f_hat summed in frequency
        rng = np.random.default_rng(2)
        L = 1.5
        f = random_band_limited(2, (16, 16), L, rng, kmax=5)
        g = spectral_gradient(f)
        lhs = float(np.sum(g**2))
        rhs = 0.0
        k1 = np.fft.fftfreq(16) * 16
        ksq = (k1[:, None] ** 2 + k1[None, :] ** 2) / L**2
        for m in f.masks:
            chat = np.fft.fftn(f.components[m]) / f.components[m].size
            rhs += float(np.sum(4 * np.pi**2 * ksq * np.abs(chat) ** 2)) * 16 * 16
        assert abs(lhs - rhs) < 1e-10 * max(1.0, rhs)


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
        ]
        for n, dims, L, kmax, grades in cases:
            f = random_band_limited(n, dims, L, rng, kmax=kmax, grades=grades, mean_zero=False)
            got = apply_beurling_ahlfors(f)
            want = dense_route(f).real
            for c, mask in enumerate(f.masks):
                assert np.allclose(got.components[mask], want[c], atol=1e-12)

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

    @pytest.mark.parametrize("t_max", [0.0, np.inf, np.nan])
    def test_rejects_bad_t_max(self, t_max):
        f = cosine_field(2, (8, 8), 1.0, [1, 0], mask=1)
        with pytest.raises(ValueError, match="t_max"):
            psw_integral(f, f, 2.0, t_max=t_max)

    def test_one_inverse_transform_per_node(self, monkeypatch):
        # two all-grade 32^2 fields, t_max 1: 15 panels of GL_ORDER nodes,
        # plus the t = 0 gradients of the tail bound; each inverse is one
        # in-place ifft pass and one irfft
        calls = {}
        for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        rng = np.random.default_rng(10)
        f = random_band_limited(2, (32, 32), 1.0, rng, kmax=2)
        g = random_band_limited(2, (32, 32), 1.0, rng, kmax=2)
        calls.clear()
        psw_integral(f, g, 2.5, t_max=1.0)
        assert calls == {"rfftn": 1, "ifft": 15 * GL_ORDER + 1, "irfft": 15 * GL_ORDER + 1}

    def test_grid_mismatch_rejected(self):
        f = FormField.zeros(2, (8, 8))
        g = FormField.zeros(2, (16, 16))
        with pytest.raises(ValueError):
            psw_integral(f, g, 2.0, 1.0)
