"""Acceptance gate: the contract checks, one pass/fail line per criterion.

Each criterion is one test function, so `pytest -v` shows one verdict
line per criterion; the collected "criterion N (...): PASS|FAIL" lines
are also printed as a terminal summary section (see conftest).  All
tolerances are exact.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from itertools import product

from flagshift import (
    ColoredComplex,
    Face,
    FlagVector,
    InvalidComplexError,
    SearchBudget,
    coarse_f,
    cone_extension,
    count_two_color_shifted_by_edges,
    enumerate_all_colored_complexes,
    enumerate_color_shifted_complexes,
    f_from_h,
    find_color_shifted_with_flag,
    flag_f,
    h_from_f,
    is_color_shifted,
    partition_number,
    principal_downset,
    select_colors,
    shift_closure,
    shift_maximal_faces,
    verify_uniqueness,
)

from helpers import (
    brute_flag_f,
    reference_color_shift,
    is_colex_initial,
    is_lex_initial,
    is_swap_invariant_shifted,
)


VERDICTS: list[str] = []


@contextmanager
def verdict(num: int, slug: str):
    try:
        yield
    except BaseException:
        VERDICTS.append(f"criterion {num} ({slug}): FAIL")
        raise
    VERDICTS.append(f"criterion {num} ({slug}): PASS")


# ===================================================================
# criterion 1: selection round trip
# ===================================================================

def test_criterion_1_selection_round_trip():
    with verdict(1, "selection round trip"):
        complexes = list(enumerate_color_shifted_complexes(2, [3, 3]))
        assert len(complexes) == 69
        for delta in complexes:
            extended, _ = cone_extension(delta)
            assert select_colors(extended, [1, 2]) == delta, delta


def test_criterion_1_selection_round_trip_wider():
    # same property one bound higher, a few hundred complexes
    with verdict(1, "selection round trip, wider bound"):
        complexes = list(enumerate_color_shifted_complexes(2, [4, 4]))
        assert len(complexes) == 251
        for delta in complexes:
            extended, _ = cone_extension(delta)
            assert select_colors(extended, [1, 2]) == delta, delta


# ===================================================================
# criterion 2: uniqueness, conclusively, under the default budget
# ===================================================================

def test_criterion_2_uniqueness(sample_a, sample_b):
    with verdict(2, "extension uniqueness"):
        start = time.monotonic()
        bases = list(enumerate_color_shifted_complexes(2, [2, 2]))
        assert len(bases) == 19
        bases += [sample_a, sample_b]
        for delta in bases:
            result = verify_uniqueness(delta)
            assert result.unique is True, delta
            assert result.outcome.exhausted
            assert result.outcome.witnesses == [result.extended]
        assert time.monotonic() - start < 60.0


# ===================================================================
# criterion 3: predicted flag entries of every constructed extension
# ===================================================================

def test_criterion_3_proof_bookkeeping(sample_a, sample_b):
    with verdict(3, "apex flag bookkeeping"):
        bases = list(enumerate_color_shifted_complexes(2, [3, 3]))
        bases += list(enumerate_color_shifted_complexes(2, [4, 4]))
        bases += list(enumerate_color_shifted_complexes(2, [2, 2]))
        bases += [sample_a, sample_b]
        for delta in bases:
            extended, report = cone_extension(delta)
            n = delta.num_colors
            fv = flag_f(extended)
            for p, maximal in enumerate(report.shift_maximal, start=1):
                apex_color = n + p
                assert fv.count((apex_color,)) == 1, (delta, p)
                downset_fv = flag_f(principal_downset(delta, maximal))
                for r in maximal.colors:
                    assert fv.count(tuple(sorted((r, apex_color)))) == (
                        downset_fv.count((r,))
                    ), (delta, p, r)


# ===================================================================
# criterion 4: f <-> h inversion
# ===================================================================

def test_criterion_4_transform_inversion(corpus):
    with verdict(4, "flag transform inversion"):
        rng = random.Random(20260815)
        for _ in range(1000):
            n = rng.randint(0, 5)
            dense = [rng.randint(0, 1)]
            dense += [rng.randint(0, 20) for _ in range(2**n - 1)]
            fv = FlagVector(n, dense, kind="f")
            assert f_from_h(h_from_f(fv)) == fv
        for c in corpus:
            fv = flag_f(c)
            assert f_from_h(h_from_f(fv)) == fv, c


# ===================================================================
# criterion 5: coarse aggregation
# ===================================================================

def test_criterion_5_coarse_aggregation(corpus):
    with verdict(5, "coarse aggregation"):
        for c in corpus:
            entries = coarse_f(flag_f(c)).entries
            assert len(entries) == c.num_colors + 1
            for size, count in enumerate(entries):
                assert count == sum(1 for f in c.faces if len(f) == size), (c, size)


# ===================================================================
# criterion 6: two-color realizability characterization
# ===================================================================

def test_criterion_6_two_color_characterization():
    with verdict(6, "two-color characterization"):
        realized = {
            flag_f(c).dense()
            for c in enumerate_all_colored_complexes(2, [4, 4])
        }
        expected = {
            (1, f1, f2, f12)
            for f1, f2 in product(range(5), repeat=2)
            for f12 in range(f1 * f2 + 1)
        }
        assert len(expected) == 125
        assert realized == expected


# ===================================================================
# criterion 7: partition-number cross-check
# ===================================================================

def test_criterion_7_partition_count():
    with verdict(7, "partition-number count"):
        frozen = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        for e in range(9):
            count = count_two_color_shifted_by_edges(e)
            assert count == partition_number(e) == frozen[e], e


# ===================================================================
# criterion 8: a color-shifted complex exists for every flag vector
# ===================================================================

def _assert_witnesses_hold_the_shifts(sources: list[ColoredComplex]) -> None:
    """Search each distinct flag vector of `sources` once, with no cap:
    for each source the search finds a color-shifted witness with its
    flag f-vector, and its witness list holds the source's compression
    (helpers.reference_color_shift)."""
    by_vector: dict[FlagVector, list[ColoredComplex]] = {}
    for source in sources:
        by_vector.setdefault(flag_f(source), []).append(source)
    for vector, group in by_vector.items():
        outcome = find_color_shifted_with_flag(group[0], SearchBudget(max_witnesses=len(sources)))
        assert outcome.exhausted and not outcome.truncated, vector
        assert outcome.witnesses, group[0]
        witness = outcome.witnesses[0]
        assert is_color_shifted(witness)
        witnesses = {frozenset(w.faces) for w in outcome.witnesses}
        for source in group:
            assert flag_f(witness) == flag_f(source), source
            assert brute_flag_f(witness) == brute_flag_f(source), source
            assert frozenset(reference_color_shift(source.faces)) in witnesses, source


def test_criterion_8_witness_for_every_flag_vector():
    with verdict(8, "shifted witness exists"):
        two_color = list(enumerate_all_colored_complexes(2, [3, 3]))
        assert len(two_color) == 689
        _assert_witnesses_hold_the_shifts(two_color)
        three_color = list(enumerate_all_colored_complexes(3, [2, 2, 2]))
        assert len(three_color) == 14159
        _assert_witnesses_hold_the_shifts(three_color)


# ===================================================================
# criterion 9: removal test agrees with dominance maximality
# ===================================================================

def test_criterion_9_shift_maximal_equivalence(shifted_corpus):
    with verdict(9, "shift-maximal equivalence"):
        pool = list(shifted_corpus)
        pool += list(enumerate_color_shifted_complexes(2, [3, 3]))
        pool += list(enumerate_color_shifted_complexes(3, [1, 1, 1]))
        for c in pool:
            maximal = set(shift_maximal_faces(c))
            for face in c.sorted_faces():
                try:
                    smaller = ColoredComplex(c.num_colors, c.faces - {face})
                except InvalidComplexError:
                    removable = False
                else:
                    removable = is_color_shifted(smaller)
                assert (face in maximal) == removable, (c, face)


# ===================================================================
# criterion 10: no condition stronger than color-shifting keeps the
# flag f-vectors
# ===================================================================

def _smallest_failing(corpus, prop):
    """The canonically smallest complex of `corpus` without `prop`: by
    colors, then number of faces, then sorted face keys; None if every
    complex has it."""
    failing = [c for c in corpus if not prop(c)]
    return min(
        failing,
        key=lambda c: (c.num_colors, len(c), [f.sort_key for f in c.sorted_faces()]),
        default=None,
    )


def test_criterion_10_no_stronger_condition(enumerated_corpus):
    """For a property P that implies color-shifted and survives color
    selection, a color-shifted delta without P has a cone extension E
    without P, since selecting E's base colors gives delta back.  E is the
    only color-shifted complex with f(E), so no complex with P has f(E),
    a flag f-vector all the same.  Checked here for three properties, the
    last step independently: every colored complex on E's vertex counts
    is enumerated, and none with f(E) has P."""
    with verdict(10, "no stronger condition than color-shifting"):
        # negative control: color-shifting itself finds no delta
        assert _smallest_failing(enumerated_corpus, is_color_shifted) is None
        properties = [is_lex_initial, is_colex_initial, is_swap_invariant_shifted]
        deltas = [_smallest_failing(enumerated_corpus, prop) for prop in properties]
        # lex: the closure of the edge {(1,2),(2,1)} and the vertex (2,2),
        # whose edge layer, the points (1,1) and (2,1), is not lex-initial
        assert deltas[0] == shift_closure(2, [Face([(1, 2), (2, 1)]), Face([(2, 2)])])
        extensions = []
        for prop, delta in zip(properties, deltas):
            result = verify_uniqueness(delta)
            assert result.unique is True and result.outcome.exhausted, prop.__name__
            assert not prop(result.extended), prop.__name__
            extensions.append(result.extended)
        assert {e.vertex_counts() for e in extensions} == {(2, 2, 1, 1)}
        matching: dict[tuple[int, ...], list[ColoredComplex]] = {
            flag_f(e).dense(): [] for e in extensions
        }
        total = 0
        for c in enumerate_all_colored_complexes(4, (2, 2, 1, 1)):
            total += 1
            fv = flag_f(c).dense()
            if fv in matching:
                matching[fv].append(c)
        assert total == 74_773
        assert len(matching[flag_f(extensions[0]).dense()]) == 2
        for prop, extended in zip(properties, extensions):
            same_flag = matching[flag_f(extended).dense()]
            assert extended in same_flag
            assert not any(prop(c) for c in same_flag), prop.__name__
