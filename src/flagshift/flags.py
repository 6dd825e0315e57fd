"""Flag f- and h-vectors of colored complexes.

The flag f-vector of a complex over n colors assigns to every color set
S the number f_S of faces whose color set is exactly S.  The flag
h-vector is its alternating-sum transform,

    h_S = sum over T subset of S of (-1)^(|S|-|T|) f_T,

inverted by f_S = sum over T subset of S of h_T.  The coarse f-vector
aggregates by cardinality: f_{i-1} = sum over |S| = i of f_S.

Vectors are stored densely over all 2^n color sets, encoded as bitmasks
(bit i-1 stands for color i), with n capped so the tables stay at desk
scale.  Counts stay within signed 64-bit range, which
FlagVector.__init__ and the two transforms check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .complexes import ColoredComplex, _Immutable, colors_of_mask

MAX_COLORS = 16
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def mask_of_colors(colors: Iterable[int], num_colors: int) -> int:
    mask = 0
    for c in colors:
        c = int(c)
        if c < 1 or c > num_colors:
            raise ValueError(f"color {c} out of range 1..{num_colors}")
        bit = 1 << (c - 1)
        if mask & bit:
            raise ValueError(f"color {c} listed twice")
        mask |= bit
    return mask


_REVERSED_BYTES = tuple(int(f"{b:08b}"[::-1], 2) for b in range(256))


def mask_sort_key(mask: int) -> int:
    """Key of a mask of at most MAX_COLORS = 16 colors in canonical order
    (that of subset_masks).  Reversing the 16 bits puts color 1 on top,
    so among masks of one size the complement of the reversal ascends
    lexicographically."""
    reversal = _REVERSED_BYTES[mask & 255] << 8 | _REVERSED_BYTES[mask >> 8]
    return mask.bit_count() << 16 | reversal ^ 0xFFFF


@lru_cache(maxsize=None)
def subset_masks(num_colors: int) -> tuple[int, ...]:
    """All color-set bitmasks in canonical order: size, then lexicographic."""
    bits = [1 << i for i in range(num_colors)]
    return tuple(
        sum(combo) for size in range(num_colors + 1) for combo in combinations(bits, size)
    )


class FlagVector(_Immutable):
    """A flag f- or h-vector over num_colors colors.

    kind "f" requires nonnegative counts with f_emptyset in {0, 1}; kind
    "h" allows arbitrary (signed) counts.  Construct from a mapping of
    color iterables to counts (each color set named once), from a dense
    sequence of length 2^num_colors indexed by color bitmask, or from
    nothing (all zeros).
    """

    __slots__ = ("_n", "_kind", "_counts")

    def __init__(self, num_colors: int, entries=None, kind: str = "f"):
        num_colors = int(num_colors)
        if num_colors < 0 or num_colors > MAX_COLORS:
            raise ValueError(f"num_colors must be in 0..{MAX_COLORS}")
        if kind not in ("f", "h"):
            raise ValueError(f"kind must be 'f' or 'h', got {kind!r}")
        size = 1 << num_colors
        if entries is None:
            counts = [0] * size
        elif isinstance(entries, Mapping):
            counts = [0] * size
            named = set()
            for colors, count in entries.items():
                mask = mask_of_colors(colors, num_colors)
                if mask in named:
                    raise ValueError(f"color set {list(colors_of_mask(mask))} listed twice")
                named.add(mask)
                counts[mask] = int(count)
        else:
            counts = [int(x) for x in entries]
            if len(counts) != size:
                raise ValueError(
                    f"dense entries must have length {size}, got {len(counts)}"
                )
        _check_range(counts)
        if kind == "f":
            _check_f_semantics(counts)
        _set_n(self, num_colors)
        _set_kind(self, kind)
        _set_counts(self, tuple(counts))

    @classmethod
    def _raw(cls, num_colors: int, counts: list[int], kind: str) -> "FlagVector":
        """Internal fast path: the caller guarantees 2^num_colors counts
        within 64-bit range.  No f check runs, so f_from_h may return an
        f-vector with negative counts, as two_color_realizable expects."""
        obj = object.__new__(cls)
        _set_n(obj, num_colors)
        _set_kind(obj, kind)
        _set_counts(obj, tuple(counts))
        return obj

    def __reduce__(self):
        return FlagVector._raw, (self._n, self._counts, self._kind)

    @property
    def num_colors(self) -> int:
        return self._n

    @property
    def kind(self) -> str:
        return self._kind

    def count(self, colors: Iterable[int]) -> int:
        return self._counts[mask_of_colors(colors, self._n)]

    def __getitem__(self, colors: Iterable[int]) -> int:
        return self.count(colors)

    def count_at_mask(self, mask: int) -> int:
        return self._counts[mask]

    def dense(self) -> tuple[int, ...]:
        return self._counts

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """(color set, count) for every color set, in canonical order."""
        for mask in subset_masks(self._n):
            yield colors_of_mask(mask), self._counts[mask]

    def nonzero_items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """(color set, count) for every color set with a non-zero count, in
        canonical order; no color set is built for a zero count."""
        counts = self._counts
        for mask in subset_masks(self._n):
            if counts[mask]:
                yield colors_of_mask(mask), counts[mask]

    def total(self) -> int:
        return sum(self._counts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FlagVector)
            and self._n == other._n
            and self._kind == other._kind
            and self._counts == other._counts
        )

    def __hash__(self) -> int:
        return hash((self._n, self._kind, self._counts))

    def __repr__(self) -> str:
        shown = {"".join(map(str, cs)) or "0": v for cs, v in self.nonzero_items()}
        return f"FlagVector(n={self._n}, kind={self._kind!r}, {shown})"


_set_n = FlagVector._n.__set__  # slot setters, as in complexes
_set_kind = FlagVector._kind.__set__
_set_counts = FlagVector._counts.__set__


def _check_range(counts: list[int]) -> None:
    for count in counts:
        if not _INT64_MIN <= count <= _INT64_MAX:
            raise OverflowError("flag counts are limited to 64-bit range")


def _check_f_semantics(counts: list[int]) -> None:
    for count in counts:
        if count < 0:
            raise ValueError("flag f-vectors must be nonnegative")
    if counts[0] not in (0, 1):
        raise ValueError("f_emptyset must be 0 or 1")


def flag_f(c: ColoredComplex) -> FlagVector:
    """Flag f-vector of a complex: faces counted by exact color set.

    A complex that carries a record holds one bitmask of faces per color
    set (see ColoredComplex._raw) and is counted without reading its
    faces; any other is counted face by face.
    """
    n = c._num_colors
    if n > MAX_COLORS:
        raise ValueError(f"flag vectors support at most {MAX_COLORS} colors")
    counts = [0] * (1 << n)
    if c._record is None:
        for face in c.faces:
            mask = 0
            for color, _ in face._vertices:
                mask |= 1 << (color - 1)
            counts[mask] += 1
    else:
        for mask, points in c._record.items():
            counts[mask] = points.bit_count()
    # face counts of a complex in memory: nonnegative, f_emptyset <= 1,
    # and far below 2^63
    return FlagVector._raw(n, counts, "f")


def _subset_sums(v: FlagVector, sign: int) -> list[int]:
    """Counts with each entry S replaced by the sum over T subset of S of
    sign^(|S|-|T|) v_T, one color at a time."""
    counts = list(v.dense())
    n = v.num_colors
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                counts[mask] += sign * counts[mask ^ bit]
    return counts


def h_from_f(f: FlagVector) -> FlagVector:
    """Flag h-vector: h_S = sum_{T subset S} (-1)^(|S|-|T|) f_T."""
    if f.kind != "f":
        raise ValueError("h_from_f expects an f-vector")
    counts = _subset_sums(f, -1)
    _check_range(counts)
    return FlagVector._raw(f.num_colors, counts, "h")


def f_from_h(h: FlagVector) -> FlagVector:
    """Inverse transform: f_S = sum_{T subset S} h_T."""
    if h.kind != "h":
        raise ValueError("f_from_h expects an h-vector")
    counts = _subset_sums(h, 1)
    _check_range(counts)
    return FlagVector._raw(h.num_colors, counts, "f")


@dataclass(frozen=True)
class CoarseFVector:
    """Face counts by cardinality: entries[i] is the number of i-vertex faces."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("coarse f-vector needs at least the empty-face entry")
        if any(e < 0 for e in self.entries):
            raise ValueError("coarse f-vector entries must be nonnegative")
        if self.entries[0] not in (0, 1):
            raise ValueError("the empty-face count must be 0 or 1")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def coarse_f(f: FlagVector) -> CoarseFVector:
    """Aggregate a flag f-vector by color-set size."""
    if f.kind != "f":
        raise ValueError("coarse_f expects an f-vector")
    sums = [0] * (f.num_colors + 1)
    for mask in range(1 << f.num_colors):
        sums[mask.bit_count()] += f.count_at_mask(mask)
    return CoarseFVector(tuple(sums))


def two_color_realizable(f: FlagVector) -> bool:
    """Whether a two-color flag f-vector is realized by some complex.

    Exactly the vectors with f_emptyset = 1 and f_1 * f_2 >= f_12 are
    realized (the empty complex, with f_emptyset = 0, is excluded).
    """
    if f._kind != "f":
        raise ValueError("two_color_realizable expects an f-vector")
    if f._n != 2:
        raise ValueError("two_color_realizable expects exactly 2 colors")
    d = f._counts
    if min(d) < 0:
        raise ValueError("flag counts must be nonnegative")
    return d[0b00] == 1 and d[0b01] * d[0b10] >= d[0b11]
