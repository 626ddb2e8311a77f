import pytest
from hypothesis import given, strategies as st

from heatforms.exterior import (
    MultiIndex,
    _substitution_table,
    enumerate_all,
    enumerate_grade,
    interval_count,
    substitute_with_sign,
    substitutions,
    wedge_reorder_oracle,
)


def mi(elements, n):
    return MultiIndex.from_elements(elements, n)


class TestEnumerate:
    def test_grade_2_of_3(self):
        got = enumerate_grade(3, 2)
        assert [I.elements() for I in got] == [(1, 2), (1, 3), (2, 3)]

    def test_grade_0(self):
        assert enumerate_grade(4, 0) == [MultiIndex(0, 4)]

    def test_full_grade(self):
        (full,) = enumerate_grade(5, 5)
        assert full.elements() == (1, 2, 3, 4, 5)

    def test_counts_and_order(self):
        from math import comb

        for n in range(7):
            for r in range(n + 1):
                got = enumerate_grade(n, r)
                assert len(got) == comb(n, r)
                masks = [I.mask for I in got]
                assert masks == sorted(masks)

    def test_grades_equal_the_mask_scan(self):
        for n in range(11):
            for r in range(n + 1):
                want = [MultiIndex(m, n) for m in range(1 << n) if m.bit_count() == r]
                assert enumerate_grade(n, r) == want

    def test_low_grade_of_a_large_dimension(self):
        # built from its C(n, r) combinations: no scan of the 2^64 masks
        got = [I.mask for I in enumerate_grade(64, 2)]
        assert len(got) == 2016
        assert got == sorted(set(got))
        assert all(m.bit_count() == 2 and m >> 64 == 0 for m in got)

    def test_returned_lists_are_the_callers(self):
        # the subsets are cached; each call hands out a new list of them
        for enumerate_ in (lambda: enumerate_grade(4, 2), lambda: enumerate_all(3)):
            first = enumerate_()
            want = list(first)
            first.clear()
            assert enumerate_() == want

    def test_bad_grade(self):
        with pytest.raises(ValueError):
            enumerate_grade(3, 4)
        with pytest.raises(ValueError):
            enumerate_grade(3, -1)


class TestIntervalCount:
    def test_examples(self):
        assert interval_count(mi([1, 2, 4], 5), 1, 4) == 1
        assert interval_count(mi([2], 3), 1, 3) == 1
        assert interval_count(mi([1, 3], 3), 1, 2) == 0

    def test_symmetric(self):
        K = mi([2, 4, 5], 6)
        for k in range(1, 7):
            for l in range(1, 7):
                if k != l:
                    assert interval_count(K, k, l) == interval_count(K, l, k)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            interval_count(mi([1], 3), 2, 2)


class TestSubstitute:
    def test_examples(self):
        assert substitute_with_sign(mi([1, 2], 3), 1, 3) == (mi([2, 3], 3), -1)
        assert substitute_with_sign(mi([1], 2), 1, 2) == (mi([2], 2), 1)
        assert substitute_with_sign(mi([1, 2, 3], 5), 2, 5) == (mi([1, 3, 5], 5), -1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            substitute_with_sign(mi([1, 2], 3), 3, 1)
        with pytest.raises(ValueError):
            substitute_with_sign(mi([1, 2], 3), 1, 2)

    def test_exhaustive_against_wedge_oracle(self):
        # replace k by l in place, then compare the reordering signs
        for n in range(1, 7):
            for K in enumerate_all(n):
                for k in K.elements():
                    for l in range(1, n + 1):
                        if l in K:
                            continue
                        got_set, got_sign = substitute_with_sign(K, k, l)
                        seq = [l if e == k else e for e in K.elements()]
                        ref_set, ref_sign = wedge_reorder_oracle(seq, n)
                        assert got_set == ref_set
                        assert got_sign == ref_sign

    def test_involution_with_same_sign(self):
        for n in range(1, 7):
            for K in enumerate_all(n):
                for k in K.elements():
                    for l in range(1, n + 1):
                        if l in K:
                            continue
                        K2, s = substitute_with_sign(K, k, l)
                        K3, s2 = substitute_with_sign(K2, l, k)
                        assert K3 == K and s2 == s
                        assert K2.grade == K.grade


class TestSubstitutionTable:
    def test_rows_are_the_substitution_lists(self):
        for n in range(7):
            want = [(K.mask, k - 1, l - 1, T.mask, s) for K in enumerate_all(n) for k, l, T, s in substitutions(K)]
            table = _substitution_table(n)
            assert list(zip(*(a.tolist() for a in table))) == want
            assert all(a.dtype.kind == "i" and not a.flags.writeable for a in table)


class TestWedgeOracle:
    def test_examples(self):
        assert wedge_reorder_oracle([3, 2], 3) == (mi([2, 3], 3), -1)
        assert wedge_reorder_oracle([1, 2, 3], 3) == (mi([1, 2, 3], 3), 1)
        assert wedge_reorder_oracle([5, 1, 3], 5) == (mi([1, 3, 5], 5), 1)

    def test_degenerate_wedge(self):
        with pytest.raises(ValueError):
            wedge_reorder_oracle([1, 2, 1], 3)


@given(st.data())
def test_substitution_properties_random(data):
    n = data.draw(st.integers(1, 8))
    mask = data.draw(st.integers(1, (1 << n) - 1))
    K = MultiIndex(mask, n)
    k = data.draw(st.sampled_from(K.elements()))
    outside = [e for e in range(1, n + 1) if e not in K]
    if not outside:
        return
    l = data.draw(st.sampled_from(outside))
    K2, s = substitute_with_sign(K, k, l)
    assert k not in K2 and l in K2
    assert K2.grade == K.grade
    assert s in (-1, 1)
    seq = [l if e == k else e for e in K.elements()]
    assert wedge_reorder_oracle(seq, n) == (K2, s)


@given(st.integers(0, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_substitutions_list_each_pair_once(n_mask):
    n, mask = n_mask
    K = MultiIndex(mask, n)
    subs = substitutions(K)
    outside = [e for e in range(1, n + 1) if e not in K]
    assert [(k, l) for k, l, _, _ in subs] == [(k, l) for k in K.elements() for l in outside]
    for k, l, target, sign in subs:
        seq = [l if e == k else e for e in K.elements()]
        assert wedge_reorder_oracle(seq, n) == (target, sign)


class TestMultiIndex:
    def test_rejects_negative_dimension(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MultiIndex(0, -1)

    def test_mask_encoding(self):
        I = mi([1, 3], 4)
        assert I.mask == 0b101
        assert 1 in I and 3 in I and 2 not in I and 9 not in I

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            MultiIndex(0b1000, 3)
        with pytest.raises(ValueError):
            MultiIndex.from_elements([0], 3)

    def test_equality_requires_same_n(self):
        assert mi([1], 2) != mi([1], 3)
