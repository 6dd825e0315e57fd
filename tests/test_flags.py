"""Flag vectors, the f/h transforms, coarse aggregation, realizability."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from flagshift import (
    CoarseFVector,
    FlagVector,
    coarse_f,
    f_from_h,
    flag_f,
    h_from_f,
    two_color_realizable,
)
from flagshift.formats import DocumentError, parse_flag_vector
from flagshift.flags import (
    MAX_COLORS,
    canonical_key,
    colors_of_mask,
    mask_of_colors,
    mask_sort_key,
    subset_masks,
)

from helpers import brute_f_from_h, brute_flag_f, brute_h_from_f, edge2


# ===================================================================
# masks
# ===================================================================

def test_mask_round_trip():
    assert mask_of_colors([1, 3], 3) == 0b101
    assert colors_of_mask(0b101) == (1, 3)
    assert colors_of_mask(0) == ()
    for mask in range(16):
        assert mask_of_colors(colors_of_mask(mask), 4) == mask


def test_mask_rejects_out_of_range():
    with pytest.raises(ValueError):
        mask_of_colors([3], 2)
    with pytest.raises(ValueError):
        mask_of_colors([0], 2)


def test_subset_masks_canonical_order():
    assert subset_masks(2) == (0b00, 0b01, 0b10, 0b11)
    masks = subset_masks(3)
    assert masks == (0, 1, 2, 4, 3, 5, 6, 7)
    sizes = [bin(m).count("1") for m in masks]
    assert sizes == sorted(sizes)


def test_subset_masks_equal_the_sorted_order():
    """The masks by size, each size lexicographic in its colors, are all
    2^n masks sorted by (popcount, colors), by mask_sort_key and by its
    memo canonical_key, whose every key is mask_sort_key's."""
    for n in range(17):
        want = sorted(range(1 << n), key=lambda m: (m.bit_count(), colors_of_mask(m)))
        assert subset_masks(n) == tuple(want), n
        assert sorted(range(1 << n), key=mask_sort_key) == want, n
        assert sorted(range(1 << n), key=canonical_key) == want, n
    memo = canonical_key.__self__
    assert len(memo) == 1 << MAX_COLORS
    assert all(key == mask_sort_key(mask) for mask, key in memo.items())


# ===================================================================
# FlagVector basics
# ===================================================================

def test_flag_vector_from_mapping():
    fv = FlagVector(2, {(): 1, (1,): 2, (2,): 1, (1, 2): 2}, kind="f")
    assert fv.count(()) == 1
    assert fv.count([1]) == 2
    assert fv.count((1, 2)) == 2
    assert fv[[1]] == 2 and fv[(2, 1)] == 2 and fv[()] == 1
    assert fv.dense() == (1, 2, 1, 2)
    assert fv.total() == 6


def test_flag_vector_rejects_a_color_set_named_twice():
    """Two mapping keys naming one color set raise instead of keeping the
    last count; a document with the same defect keeps its own message."""
    with pytest.raises(ValueError, match=r"^color set \[1, 2\] listed twice$"):
        FlagVector(2, {(1, 2): 3, (2, 1): 4})
    with pytest.raises(ValueError, match=r"^color set \[\] listed twice$"):
        FlagVector(1, {(): 1, frozenset(): 1})
    doc = (
        '{"num_colors": 2, "entries": [{"colors": [1, 2], "count": 3},'
        ' {"colors": [2, 1], "count": 4}]}'
    )
    with pytest.raises(DocumentError, match=r"^duplicate entry for color set \[1, 2\]$"):
        parse_flag_vector(doc)


def test_flag_vector_rejects_bad_arguments():
    """A color twice in one set, a color count outside 0..16, an unknown
    kind and a dense list of the wrong length each raise their own
    message."""
    with pytest.raises(ValueError, match=r"^color 1 listed twice$"):
        FlagVector(2, {(1, 1): 1})
    for n in (-1, MAX_COLORS + 1):
        with pytest.raises(ValueError, match=r"^num_colors must be in 0\.\.16$"):
            FlagVector(n)
    with pytest.raises(ValueError, match=r"^kind must be 'f' or 'h', got 'g'$"):
        FlagVector(2, kind="g")
    with pytest.raises(ValueError, match=r"^dense entries must have length 4, got 3$"):
        FlagVector(2, [1, 2, 3])


def test_flag_vector_zero_entries_default():
    fv = FlagVector(2, {(): 1}, kind="f")
    assert fv.count((1, 2)) == 0
    assert list(fv.nonzero_items()) == [((), 1)]


def test_flag_vector_items_are_canonical():
    fv = FlagVector(3, {(): 1, (1, 3): 4}, kind="f")
    keys = [colors for colors, _ in fv.items()]
    assert keys == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


def test_f_kind_semantics_enforced():
    with pytest.raises(ValueError, match="0 or 1"):
        FlagVector(1, {(): 2}, kind="f")
    with pytest.raises(ValueError, match="nonnegative"):
        FlagVector(1, {(): 1, (1,): -1}, kind="f")
    # h-vectors may go negative
    FlagVector(1, {(): 1, (1,): -1}, kind="h")


def test_flag_vector_rejects_overflow():
    with pytest.raises(OverflowError):
        FlagVector(1, {(): 1, (1,): 2**63}, kind="f")
    # the range check runs before the f-vector check
    with pytest.raises(OverflowError):
        FlagVector(1, [-2**64, 0])
    with pytest.raises(OverflowError):
        FlagVector(1, {(): 2, (1,): 2**64}, kind="f")


def test_flag_vector_range_is_signed_64_bit():
    """Both ends of the signed 64-bit range are accepted, and one past
    either end raises."""
    for count in (-2**63, 2**63 - 1):
        assert FlagVector(1, [1, count], kind="h").dense() == (1, count)
    for count in (-2**63 - 1, 2**63):
        with pytest.raises(OverflowError, match="64-bit range"):
            FlagVector(1, [1, count], kind="h")


def test_flag_vector_equality_and_kind():
    a = FlagVector(2, {(): 1, (1,): 1}, kind="f")
    b = FlagVector(2, (1, 1, 0, 0), kind="f")
    assert a == b
    assert a != FlagVector(2, (1, 1, 0, 0), kind="h")


# ===================================================================
# flag_f on complexes
# ===================================================================

def test_flag_f_sample_a(sample_a):
    fv = flag_f(sample_a)
    assert fv.dense() == (1, 2, 1, 2)


def test_flag_f_sample_b(sample_b):
    fv = flag_f(sample_b)
    assert fv.count(()) == 1
    assert fv.count((1,)) == 2
    assert fv.count((2,)) == 2
    assert fv.count((1, 2)) == 3


def test_flag_f_trivial_complexes():
    from flagshift import trivial_complex

    assert flag_f(trivial_complex(0)).dense() == (1,)
    assert flag_f(trivial_complex(2)).dense() == (1, 0, 0, 0)


def test_flag_f_matches_brute_force(corpus):
    for c in corpus:
        fv = flag_f(c)
        expected = brute_flag_f(c)
        for colors, count in fv.items():
            assert count == expected.get(colors, 0), (c, colors)


def test_carried_counts_match_a_recount(enumerated_corpus):
    """Complexes built by the layered walk carry their flag counts; they
    must equal a face-by-face recount, over all 74,963 two-color
    complexes within 4 x 4 vertices and the 1,230-complex corpus."""
    from flagshift import enumerate_all_colored_complexes

    every = list(enumerate_all_colored_complexes(2, [4, 4]))
    assert len(every) == 74_963
    for c in [*every, *enumerated_corpus]:
        assert c._record is not None
        assert dict(flag_f(c).nonzero_items()) == brute_flag_f(c), c


def test_flag_f_total_is_face_count(corpus):
    for c in corpus:
        assert flag_f(c).total() == len(c)


def test_flag_f_color_cap():
    from flagshift import trivial_complex

    with pytest.raises(ValueError, match="at most 16"):
        flag_f(trivial_complex(MAX_COLORS + 1))


# ===================================================================
# f <-> h transforms
# ===================================================================

def test_h_from_f_sample_a(sample_a):
    hv = h_from_f(flag_f(sample_a))
    assert hv.kind == "h"
    assert hv.dense() == (1, 1, 0, 0)


def test_h_from_f_full_simplex():
    from flagshift import from_generators

    fv = flag_f(from_generators(2, [edge2(1, 1)]))
    assert h_from_f(fv).dense() == (1, 0, 0, 0)


def test_transforms_invert_each_other(corpus):
    for c in corpus:
        fv = flag_f(c)
        assert f_from_h(h_from_f(fv)) == fv


def test_transforms_match_brute_force(corpus):
    for c in corpus:
        fv = flag_f(c)
        hv = h_from_f(fv)
        assert dict(hv.items()) == brute_h_from_f(fv)
        assert dict(f_from_h(hv).items()) == brute_f_from_h(hv)


def test_transforms_reject_overflow():
    """A transformed count outside signed 64-bit range raises, as the
    constructor does, though each input count is in range."""
    big = 2**63 - 1
    fv = FlagVector(2, (1, big, big, 0), kind="f")
    with pytest.raises(OverflowError, match="64-bit range"):
        h_from_f(fv)  # h_12 = 1 - 2 * big
    hv = FlagVector(2, (1, big, big, 0), kind="h")
    with pytest.raises(OverflowError, match="64-bit range"):
        f_from_h(hv)  # f_12 = 1 + 2 * big


def test_transform_kind_checks():
    fv = FlagVector(1, (1, 1), kind="f")
    hv = h_from_f(fv)
    with pytest.raises(ValueError, match="expects an f-vector"):
        h_from_f(hv)
    with pytest.raises(ValueError, match="expects an h-vector"):
        f_from_h(fv)


@given(
    st.integers(min_value=0, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(min_value=0, max_value=50),
                min_size=2**n - 1,
                max_size=2**n - 1,
            ),
        )
    ),
    st.booleans(),
)
def test_round_trip_property(args, empty_bit):
    n, tail = args
    dense = [1 if empty_bit else 0, *tail]
    fv = FlagVector(n, dense[: 2**n], kind="f") if dense[0] == 1 else None
    if fv is None:
        return
    assert f_from_h(h_from_f(fv)) == fv


# ===================================================================
# coarse aggregation
# ===================================================================

def test_coarse_f_sample_a(sample_a):
    coarse = coarse_f(flag_f(sample_a))
    assert coarse.entries == (1, 3, 2)
    assert list(coarse) == [1, 3, 2] and len(coarse) == 3


def test_coarse_f_sample_b(sample_b):
    assert coarse_f(flag_f(sample_b)).entries == (1, 4, 3)


def test_coarse_f_counts_by_cardinality(corpus):
    for c in corpus:
        entries = coarse_f(flag_f(c)).entries
        for i, count in enumerate(entries):
            assert count == sum(1 for f in c.faces if len(f) == i)


def test_coarse_f_rejects_an_h_vector():
    hv = h_from_f(FlagVector(1, (1, 2)))
    with pytest.raises(ValueError, match=r"^coarse_f expects an f-vector$"):
        coarse_f(hv)


def test_coarse_validates_entries():
    with pytest.raises(ValueError):
        CoarseFVector((2, 1))
    with pytest.raises(ValueError):
        CoarseFVector((1, -1))


# ===================================================================
# two-color realizability
# ===================================================================

@pytest.mark.parametrize(
    "dense,expected",
    [
        ((1, 0, 0, 0), True),
        ((1, 2, 1, 2), True),
        ((1, 2, 2, 4), True),
        ((1, 2, 2, 5), False),
        ((1, 0, 0, 1), False),
        ((0, 0, 0, 0), False),
        ((1, 1, 1, 1), True),
    ],
)
def test_two_color_realizable_cases(dense, expected):
    fv = FlagVector(2, dense, kind="f")
    assert two_color_realizable(fv) is expected


def test_two_color_realizable_rejects_negative_counts():
    # f_from_h skips the f-kind checks, so its output can hold f_1 = -2
    fv = f_from_h(FlagVector(2, (1, -3, 0, 0), kind="h"))
    assert fv.kind == "f" and fv.dense() == (1, -2, 1, -2)
    with pytest.raises(ValueError, match="^flag counts must be nonnegative$"):
        two_color_realizable(fv)


def test_two_color_realizable_rejects_wrong_shape():
    with pytest.raises(ValueError):
        two_color_realizable(FlagVector(1, (1, 1), kind="f"))
    hv = h_from_f(FlagVector(2, (1, 1, 1, 1), kind="f"))
    with pytest.raises(ValueError):
        two_color_realizable(hv)


def test_realizable_vectors_are_realized():
    """Each realizable small vector comes from an actual complex."""
    from flagshift.oracle import SearchBudget, enumerate_color_shifted_with_flag

    for f1 in range(3):
        for f2 in range(3):
            for f12 in range(5):
                fv = FlagVector(2, (1, f1, f2, f12), kind="f")
                ok = two_color_realizable(fv)
                outcome = enumerate_color_shifted_with_flag(
                    fv, SearchBudget(max_nodes=100_000, max_witnesses=1)
                )
                assert outcome.exhausted or outcome.witnesses
                assert bool(outcome.witnesses) is ok
