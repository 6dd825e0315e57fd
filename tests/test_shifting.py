"""Dominance order, the shifted property, maximal faces, closures."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from flagshift import (
    ColoredComplex,
    EMPTY_FACE,
    Face,
    dominance_le,
    down_set_faces,
    find_shift_violation,
    is_color_shifted,
    principal_downset,
    shift_closure,
    shift_maximal_faces,
    trivial_complex,
    validate_faces,
)

from helpers import (
    all_candidate_faces,
    brute_dominance_le,
    brute_is_color_shifted,
    brute_shift_maximal,
    edge2,
    face,
    reference_find_shift_violation,
)


# ===================================================================
# dominance order
# ===================================================================

def test_dominance_basic_cases():
    assert dominance_le(EMPTY_FACE, face((1, 3)))
    assert dominance_le(face((1, 2)), face((1, 3)))
    assert not dominance_le(face((1, 3)), face((1, 2)))
    assert dominance_le(face((2, 1)), face((1, 4), (2, 2)))
    assert not dominance_le(face((3, 1)), face((1, 4), (2, 2)))
    assert not dominance_le(face((1, 1), (2, 1)), face((1, 5)))


def test_dominance_is_reflexive_and_antisymmetric():
    faces = [EMPTY_FACE, face((1, 1)), face((1, 2)), face((1, 1), (2, 2))]
    for a in faces:
        assert dominance_le(a, a)
        for b in faces:
            if dominance_le(a, b) and dominance_le(b, a):
                assert a == b


@st.composite
def random_faces(draw):
    pairs = draw(
        st.dictionaries(st.integers(1, 4), st.integers(1, 4), max_size=4)
    )
    return Face(pairs.items())


@given(random_faces(), random_faces())
def test_dominance_matches_brute_force(a, b):
    assert dominance_le(a, b) == brute_dominance_le(a, b)


@given(random_faces(), random_faces(), random_faces())
def test_dominance_is_transitive(a, b, c):
    if dominance_le(a, b) and dominance_le(b, c):
        assert dominance_le(a, c)


# ===================================================================
# down-sets
# ===================================================================

def test_down_set_of_edge():
    got = set(down_set_faces(edge2(2, 2)))
    assert got == {
        EMPTY_FACE,
        face((1, 1)),
        face((1, 2)),
        face((2, 1)),
        face((2, 2)),
        edge2(1, 1),
        edge2(1, 2),
        edge2(2, 1),
        edge2(2, 2),
    }


def test_down_set_is_exactly_the_dominated_pool(enumerated_corpus):
    """down_set_faces yields each face that f dominates once, and no
    other: the dominance filter over every face within the vertex counts
    of f's complex, for every face of the corpus."""
    f = face((1, 2), (3, 2))
    got = set(down_set_faces(f))
    # brute: every subface pattern with indices at most the originals
    assert all(dominance_le(g, f) for g in got)
    assert len(got) == (2 + 1) * (2 + 1)  # (idx options + absent) per color
    pools = {}
    for c in enumerated_corpus:
        key = (c.num_colors, c.vertex_counts())
        if key not in pools:
            pools[key] = all_candidate_faces(*key)
        for f in c.faces:
            got = list(down_set_faces(f))
            assert len(got) == len(set(got)), f
            assert set(got) == {g for g in pools[key] if brute_dominance_le(g, f)}, f


def test_down_set_of_empty_face():
    assert list(down_set_faces(EMPTY_FACE)) == [EMPTY_FACE]


# ===================================================================
# the shifted property
# ===================================================================

def test_worked_examples_are_shifted(sample_a, sample_b):
    assert is_color_shifted(sample_a)
    assert is_color_shifted(sample_b)


def test_shifted_corpus_is_shifted(shifted_corpus):
    for c in shifted_corpus:
        assert is_color_shifted(c), c


def test_violation_names_a_missing_dominated_face():
    c = ColoredComplex(
        2,
        [
            EMPTY_FACE,
            face((1, 1)),
            face((1, 2)),
            face((2, 1)),
            face((1, 2), (2, 1)),
        ],
    )
    found = find_shift_violation(c)
    assert found is not None
    missing, containing = found
    assert missing == edge2(1, 1)
    assert containing == edge2(2, 1)
    assert missing not in c and containing in c
    assert dominance_le(missing, containing)


def test_violation_none_for_shifted(shifted_corpus):
    for c in shifted_corpus:
        assert find_shift_violation(c) is None


def test_violation_matches_the_face_level_reference(corpus, enumerated_corpus):
    """find_shift_violation and the error of shift_maximal_faces name the
    reference's witness on both corpora and on each one-face drop of the
    enumerated corpus that is still a valid complex, shifted or not."""
    cases = list(corpus)
    for c in enumerated_corpus:
        cases.append(c)
        drops = (c.faces - {f} for f in c.faces)
        cases += (
            ColoredComplex._raw(c.num_colors, d)
            for d in drops
            if validate_faces(c.num_colors, d) is None
        )
    unshifted = 0
    for m in cases:
        want = reference_find_shift_violation(m)
        assert find_shift_violation(m) == want, m
        if want is None:
            shift_maximal_faces(m)
            continue
        missing, containing = want
        with pytest.raises(ValueError) as exc:
            shift_maximal_faces(m)
        assert str(exc.value) == (
            f"complex is not color-shifted: {containing} present but {missing} missing"
        )
        unshifted += 1
    # 6,625 valid drops, 2,687 of them not shifted; corpus adds 5 unshifted
    assert (len(cases) - len(corpus) - len(enumerated_corpus), unshifted) == (6625, 2692)


def test_is_color_shifted_matches_brute_force(corpus):
    for c in corpus:
        assert is_color_shifted(c) == brute_is_color_shifted(set(c.faces)), c


def test_padding_with_unused_colors_preserves_shiftedness(shifted_corpus):
    for c in shifted_corpus:
        padded = ColoredComplex(c.num_colors + 2, c.faces)
        assert is_color_shifted(padded)


# ===================================================================
# shift-maximal faces
# ===================================================================

def test_maximal_faces_sample_a(sample_a):
    assert shift_maximal_faces(sample_a) == [edge2(2, 1)]


def test_maximal_faces_sample_b(sample_b):
    assert shift_maximal_faces(sample_b) == [edge2(1, 2), edge2(2, 1)]


def test_maximal_face_of_the_trivial_complex():
    assert shift_maximal_faces(trivial_complex(0)) == [EMPTY_FACE]
    assert shift_maximal_faces(trivial_complex(3)) == [EMPTY_FACE]


def test_maximal_faces_reject_unshifted(corpus, shifted_corpus):
    shifted = {id(c) for c in shifted_corpus}
    for c in corpus:
        if id(c) in shifted or is_color_shifted(c):
            continue
        with pytest.raises(ValueError):
            shift_maximal_faces(c)


def test_maximal_faces_match_brute_force(shifted_corpus, enumerated_corpus):
    for c in [*shifted_corpus, *enumerated_corpus]:
        assert set(shift_maximal_faces(c)) == brute_shift_maximal(set(c.faces)), c


def test_maximal_faces_generate_the_complex(shifted_corpus):
    for c in shifted_corpus:
        rebuilt = shift_closure(c.num_colors, shift_maximal_faces(c))
        assert rebuilt == c


def test_removal_test_equivalence(shifted_corpus):
    """A face is shift-maximal iff dropping it leaves a valid shifted complex.

    Dropping the empty face only works for the one-face complex, where the
    result is the valid faceless complex; anywhere else it breaks validity.
    """
    from flagshift import InvalidComplexError

    for c in shifted_corpus:
        maximal = set(shift_maximal_faces(c))
        for f in c.sorted_faces():
            try:
                smaller = ColoredComplex(c.num_colors, c.faces - {f})
            except InvalidComplexError:
                removable = False
            else:
                removable = is_color_shifted(smaller)
            assert (f in maximal) == removable, (c, f)


# ===================================================================
# principal down-sets and closures
# ===================================================================

def test_principal_downset_sample_a(sample_a):
    sub = principal_downset(sample_a, edge2(2, 1))
    assert sub == sample_a


def test_principal_downset_requires_membership(sample_a):
    with pytest.raises(ValueError):
        principal_downset(sample_a, edge2(2, 2))


def test_principal_downset_of_smaller_face(sample_b):
    sub = principal_downset(sample_b, face((1, 2)))
    assert sub.faces == frozenset([EMPTY_FACE, face((1, 1)), face((1, 2))])
    assert sub.num_colors == sample_b.num_colors


def test_shift_closure_of_single_edge(sample_a):
    assert shift_closure(2, [edge2(2, 1)]) == sample_a


def test_shift_closure_empty_generators():
    c = shift_closure(2, [])
    assert len(c) == 0


def test_shift_closure_validates_colors():
    with pytest.raises(ValueError):
        shift_closure(1, [edge2(1, 1)])
    with pytest.raises(ValueError):
        shift_closure(-1, [])


def test_shift_closure_idempotent(shifted_corpus):
    for c in shifted_corpus:
        assert shift_closure(c.num_colors, c.faces) == c


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.dictionaries(st.integers(1, n), st.integers(1, 3), max_size=n),
            max_size=3,
        ).map(lambda gens: (n, [Face(g.items()) for g in gens]))
    )
)
def test_shift_closure_always_shifted(args):
    n, gens = args
    c = shift_closure(n, gens)
    assert is_color_shifted(c)
    for g in gens:
        assert g in c
