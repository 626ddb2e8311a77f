"""Exact symmetries of the Beurling-Ahlfors operator T, as property tests.

M(xi) is built from the direction u = xi / |xi| alone, so T anticommutes
with the Hodge star and commutes with the pull-backs of the lattice
isometries, and a planar field wedged with a constant dx_J is carried as
the planar operator carries it. The star, the pull-backs and the wedge are
written out here, not taken from the package, so the reordering signs are
checked independently of heatforms.exterior.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatforms.fields import FormField, lp_norm, random_band_limited
from heatforms.fourier import apply_beurling_ahlfors

SIZES = {1: (8, 16, 32, 64), 2: (4, 8, 16, 32), 3: (4, 8, 16), 4: (4, 8)}


def inversions(seq) -> int:
    return sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :])


def relabel(f: FormField, rows: dict) -> FormField:
    """A field on f's grid from a mask -> row dict, rows in ascending-mask order."""
    masks = sorted(rows)
    return FormField(f.n, rows[masks[0]].shape, f.L, masks, np.stack([rows[m] for m in masks]))


def star(f: FormField) -> FormField:
    """Hodge star: f_K dx_K -> sign(K, K^c) f_K dx_{K^c}, the sign that of the list K then K^c."""
    n, top = f.n, (1 << f.n) - 1
    rows = {}
    for m, row in zip(f.masks, f.data):
        order = [a for a in range(n) if m >> a & 1] + [a for a in range(n) if not m >> a & 1]
        rows[top ^ m] = -row if inversions(order) & 1 else row
    return relabel(f, rows)


def permute_axes(f: FormField, perm) -> FormField:
    """Pull-back by y_b = x_perm[b]: axis b of the result is axis perm[b] of f.

    dx_a becomes dy_b with perm[b] = a, so f_K dx_K goes to the permuted
    set, times the sign of sorting it.
    """
    inverse = np.argsort(perm)
    rows = {}
    for m, row in zip(f.masks, f.data):
        image = [int(inverse[a]) for a in range(f.n) if m >> a & 1]
        moved = np.transpose(row, perm)
        rows[sum(1 << b for b in image)] = -moved if inversions(image) & 1 else moved
    return relabel(f, rows)


def flip_axis(f: FormField, a: int) -> FormField:
    """Pull-back by x_a -> -x_a: grid index j -> -j mod d on axis a, and f_K negated when a is in K."""
    rows = {}
    for m, row in zip(f.masks, f.data):
        flipped = np.roll(np.flip(row, axis=a), 1, axis=a)
        rows[m] = -flipped if m >> a & 1 else flipped
    return relabel(f, rows)


def wedge_planar(f: FormField, n: int, J: int) -> FormField:
    """A planar field f, constant along axes 3..n (each of length 4), with f_K dx_K moved to f_K dx_{K u J}.

    J holds axes 3..n only, so every element of K is below every element
    of J and the wedge needs no sign.
    """
    dims = f.dims + (4,) * (n - 2)
    data = np.broadcast_to(f.data.reshape(f.data.shape + (1,) * (n - 2)), f.data.shape[:1] + dims)
    return FormField(n, dims, f.L, [m | J for m in f.masks], data.copy())


def assert_same_field(got: FormField, want: FormField, rel=1e-13):
    assert got.masks == want.masks and got.dims == want.dims
    assert np.max(np.abs(got.data - want.data)) <= rel * np.max(np.abs(want.data))


@st.composite
def fields(draw, nyquist_axes=None):
    """Real fields, n <= 4, one grade or all, kmax up to the largest N/2.

    With nyquist_axes=1, kmax stays below the second smallest N/2, so at
    most one axis reaches its Nyquist index.
    """
    n = draw(st.integers(1, 4))
    dims = tuple(draw(st.lists(st.sampled_from(SIZES[n]), min_size=n, max_size=n)))
    top = max(dims) // 2 if nyquist_axes is None or n == 1 else max(1, sorted(dims)[1] // 2 - 1)
    kmax = draw(st.integers(1, top))
    grades = draw(st.sampled_from([None] + [[r] for r in range(n + 1)]))
    seed = draw(st.integers(0, 2**32 - 1))
    L = draw(st.sampled_from([1.0, 0.7]))
    return random_band_limited(n, dims, L, np.random.default_rng(seed), kmax=kmax, grades=grades)


class TestSymmetries:
    @given(fields())
    @settings(max_examples=60, deadline=None)
    def test_star_anticommutes(self, f):
        # the star swaps u ^ and u _|, so it conjugates P to I - P and M to -M
        t_star = apply_beurling_ahlfors(star(f))
        neg = star(apply_beurling_ahlfors(f))
        assert_same_field(t_star, neg.like(-neg.data))

    @given(fields(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_axis_permutations_commute(self, f, data):
        perm = data.draw(st.permutations(range(f.n)))
        want = permute_axes(apply_beurling_ahlfors(f), perm)
        assert_same_field(apply_beurling_ahlfors(permute_axes(f, perm)), want)

    @given(fields(nyquist_axes=1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sign_flips_commute_with_at_most_one_nyquist_axis(self, f, data):
        # with two or more axes at N/2 the identity fails: a point with m >= 2
        # Nyquist coordinates takes the mean of 2 of its 2^m aliases, and a
        # flip swaps that pair for another
        a = data.draw(st.integers(0, f.n - 1))
        want = flip_axis(apply_beurling_ahlfors(f), a)
        assert_same_field(apply_beurling_ahlfors(flip_axis(f, a)), want)


class TestPlanarEmbedding:
    @pytest.mark.parametrize("kmax", [3, 8])  # 8 = N/2 reaches both Nyquist lines
    def test_wedge_with_dx_J_carries_the_planar_operator(self, kmax):
        # u lies in the plane, so u ^ and u _| leave dx_J alone: T(f ^ dx_J) = (T f) ^ dx_J
        f = random_band_limited(2, (16, 16), 1.0, np.random.default_rng(kmax), kmax=kmax)
        tf = apply_beurling_ahlfors(f)
        ratio = lp_norm(tf, 4.0) / lp_norm(f, 4.0)
        for n in (3, 4):
            for J in range(0, 1 << n, 4):  # every subset of axes 3..n, the empty one too
                g = wedge_planar(f, n, J)
                tg = apply_beurling_ahlfors(g)
                assert_same_field(tg, wedge_planar(tf, n, J))
                assert abs(lp_norm(tg, 4.0) / lp_norm(g, 4.0) - ratio) <= 1e-13 * ratio
