"""Colored simplicial complexes, and the index grids their layers live in.

A vertex is a (color, index) pair, both starting at 1.  A face holds at
most one vertex per color (a "rainbow" set), and a complex is a finite
family of faces over colors 1..num_colors that is closed under taking
subsets.  Within each color the vertex indices present as singletons are
kept contiguous from 1, so the labeling of a complex is canonical: two
complexes describe the same object exactly when they compare equal.

The faces with exactly the colors S lie in the index grid of S, the
product over c in S of {1..t_c}, whose radices are the vertex counts.
A grid point has one rank, row-major with the last color fastest: the
index v_c of color c adds (v_c - 1) times c's stride, the product of
the later colors' radices.  Every grid helper of the package reads that
ranking.  A layer's geometry (_layer_geometry) holds its strides with
its shape, _grid_face decodes a rank by them, and _boxes writes the
points a face dominates in closed form.  Dropping a color of radix r
and stride s sends rank hi * r * s + i * s + lo, i < r and lo < s, to
sub-rank hi * s + lo, so the fiber of a sub-point, the points
projecting onto it, is a column of r bits s apart (_repeat), shifted.
The geometry also holds each drop's radix, stride and column, built
when the search first reads them; _project and the search's fiber
unions are computed from them, both moving the s-bit blocks of a mask
with the one regroup (_regroup), and no per-point table is kept.  A
kernel reads the down-set of a point v, the points at or below it, from
the geometry's `downs`, computed on first read as a box like the points
a face dominates.

A complex may also carry a record of its faces as one bitmask per color
set over that color set's index grid (ColoredComplex._raw).  A complex
built by the layered walk, a cone extension and a parsed "faces"
document (formats.parse_complex) hold only that.
_record_grids walks its color sets with their grids' geometries, read
from one table per vertex-count vector (_grids), keyed by the counts up
to the last color with vertices, as the parser and the search key it
too; a table takes each geometry from the cache keyed by color set and
radices (_layer_geometry) on its first read.  A geometry also holds its
colors, a memo by rank of the faces decoded so far, and two memos by a
layer's points, bounded in bytes (_Memo): the layer texts
formats.emit_complex wrote and the mask shift test's verdicts.  A
record's faces are decoded into the face memo on first use, and the
emitter formats a layer from it only on a text miss; no drops are
built, so no mask as wide as a grid.  A geometry, with its
memos, is freed once neither the cache nor a table holds it.  The
parser and shifting test a record in masks, with its grids' drops (a
color's points above its bottom row, _above_bottom_row), only where
each layer's grid holds at most _GRID_BITS_PER_FACE points per face of
the layer (_dense_enough).

Faces and complexes are immutable; operations return new objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import prod
from sys import getsizeof
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple


class Vertex(NamedTuple):
    """The index-th vertex of a color."""

    color: int
    index: int

    def label(self) -> str:
        return f"v_{self.index}^{self.color}"


def _vertex_tuple(pairs: list) -> tuple[Vertex, ...]:
    """The Vertex tuple of sorted integer (color, index) pairs.

    Raises ValueError naming the first pair with a component below 1,
    and only then the first color held twice.
    """
    for c, i in pairs:
        if c < 1 or i < 1:
            raise ValueError(f"vertex components must be >= 1, got ({c}, {i})")
    for (c1, _), (c2, _) in zip(pairs, pairs[1:]):
        if c1 == c2:
            raise ValueError(f"face holds two vertices of color {c1}")
    return tuple(Vertex(c, i) for c, i in pairs)


class _Immutable:
    """Base of the immutable value types, which store through slot setters."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def colors_of_mask(mask: int) -> tuple[int, ...]:
    """The colors of a color-set bitmask, ascending: bit c - 1 is color c."""
    colors = []
    while mask:
        colors.append((mask & -mask).bit_length())
        mask &= mask - 1  # clears the lowest set bit
    return tuple(colors)


class Face(_Immutable):
    """A set of vertices with pairwise distinct colors, sorted by color.

    Faces are immutable and hashable.  The canonical order on faces is
    by (cardinality, color tuple, index tuple); `sort_key` exposes it.
    """

    __slots__ = ("_vertices",)

    def __init__(self, vertices: Iterable[tuple[int, int]] = ()):
        pairs = sorted((int(c), int(i)) for c, i in vertices)
        _set_vertices(self, _vertex_tuple(pairs))

    @classmethod
    def _raw(cls, vertices: tuple[Vertex, ...]) -> "Face":
        """Internal fast path: the caller guarantees a tuple of Vertex
        values with components >= 1, sorted by strictly increasing color,
        which is what __init__ would have stored."""
        obj = object.__new__(cls)
        _set_vertices(obj, vertices)
        return obj

    def __reduce__(self):
        return Face._raw, (self._vertices,)

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self._vertices

    @property
    def colors(self) -> tuple[int, ...]:
        return tuple(v.color for v in self._vertices)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(v.index for v in self._vertices)

    @property
    def sort_key(self) -> tuple:
        vertices = self._vertices
        if not vertices:
            return (0, (), ())
        colors, indices = zip(*vertices)
        return (len(vertices), colors, indices)

    def get(self, color: int) -> int | None:
        for v in self._vertices:
            if v.color == color:
                return v.index
        return None

    def subfaces(self) -> Iterator["Face"]:
        """All subsets of this face, itself and the empty face included."""
        for size in range(len(self._vertices) + 1):
            for combo in combinations(self._vertices, size):
                yield Face._raw(combo)

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertices)

    def __contains__(self, vertex) -> bool:
        return Vertex(*vertex) in self._vertices

    def __eq__(self, other) -> bool:
        return isinstance(other, Face) and self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"Face({[(v.color, v.index) for v in self._vertices]})"

    def __str__(self) -> str:
        return "{" + ",".join(v.label() for v in self._vertices) + "}"


_set_vertices = Face._vertices.__set__
EMPTY_FACE = Face()


@dataclass(frozen=True)
class Violation:
    """One reason a face family is not a valid colored complex."""

    kind: str  # "color-range" | "empty-face" | "closure" | "saturation"
    message: str
    face: Face | None = None
    missing: Face | None = None
    color: int | None = None


class InvalidComplexError(ValueError):
    def __init__(self, violation: Violation):
        super().__init__(violation.message)
        self.violation = violation


def validate_faces(num_colors: int, faces: Iterable[Face]) -> Violation | None:
    """First violation of the complex invariants, or None if valid.

    Checks, in order: colors within 1..num_colors, presence of the empty
    face (for a non-empty family), closure under dropping one vertex
    (which implies full subset closure), and index contiguity of the
    singleton faces within each color.  Within a check the canonically
    smallest offending face is named.

    One pass over the vertex tuples collects the offenders and each
    color's singleton indices: a face's colors are sorted, so its last
    vertex has its largest color, and its one-vertex drops are its tuple
    with one entry cut out.  A color's indices are distinct and at least
    1, so they run from 1 without a gap exactly when the largest equals
    their number; otherwise they cannot fill 1..their number, where the
    smallest gap lies.
    """
    face_set = frozenset(faces)
    if not face_set:
        return None
    tuples = {face._vertices for face in face_set}
    out_of_range = []
    unclosed = []  # (face, its first missing one-vertex drop)
    indices: dict[int, list[int]] = {}  # color -> its singleton indices
    for vertices in tuples:
        if not vertices:
            continue
        if vertices[-1][0] > num_colors:
            out_of_range.append(Face._raw(vertices))
        elif len(vertices) == 1:
            color, index = vertices[0]
            indices.setdefault(color, []).append(index)
        else:
            for j in range(len(vertices)):
                drop = vertices[:j] + vertices[j + 1:]
                if drop not in tuples:
                    unclosed.append((Face._raw(vertices), drop))
                    break
    if out_of_range:
        face = min(out_of_range, key=lambda f: f.sort_key)
        color = next(c for c in face.colors if c > num_colors)
        return Violation(
            "color-range",
            f"face {face} uses color {color} but the complex has {num_colors} colors",
            face=face,
            color=color,
        )
    if () not in tuples:
        return Violation("empty-face", "non-empty complex must contain the empty face")
    if unclosed:
        face, drop = min(unclosed, key=lambda pair: pair[0].sort_key)
        missing = Face._raw(drop)
        return Violation(
            "closure",
            f"face {face} is present but its subset {missing} is missing",
            face=face,
            missing=missing,
        )
    for color in sorted(indices):
        have = indices[color]
        if max(have) != len(have):
            gap = min(set(range(1, len(have) + 1)).difference(have))
            return Violation(
                "saturation",
                f"color {color} skips vertex index {gap}: indices must be contiguous from 1",
                color=color,
            )
    return None


def _repeat(copies: int, stride: int) -> int:
    """The mask with `copies` bits, `stride` apart from bit 0, by
    shift-and-OR doubling with an overlapping last shift, as _project
    folds: log(copies) shifts, where the division by (1 << stride) - 1
    is quadratic in the width."""
    mask = 1 if copies > 0 else 0
    have = 1
    while 2 * have <= copies:
        mask |= mask << (have * stride)
        have *= 2
    if have < copies:
        mask |= mask << ((copies - have) * stride)
    return mask


def _above_bottom_row(size: int, r: int, s: int) -> int:
    """The points of a grid of `size` points whose index of the color of
    radix r and stride s is above 1: the top (r - 1) * s ranks of each
    block of r * s ranks."""
    return _repeat(size // (r * s), r * s) * (((1 << (r - 1) * s) - 1) << s)


def _boxes(vertices: tuple[Vertex, ...], radix) -> list[tuple[int, int, int, int]]:
    """Per subset T of a face's colors, T = {} first: (T's bitmask, the
    size of the box of points the face dominates in the grid of T, the
    grid's size with radix[c] vertices of each color c, the box).

    Putting a color c ahead of T's colors adds (i - 1) * |grid of T| to
    the rank of index i, so the box grows from the last color down, each
    color repeating it as many times as its index, at that stride."""
    boxes = [(0, 1, 1, 1)]
    for color, index in reversed(vertices):
        bit = 1 << (color - 1)
        boxes += [
            (mask | bit, size * index, grid * radix[color], points * _repeat(index, grid))
            for mask, size, grid, points in boxes
        ]
    return boxes


class _Principal(dict):
    """rank -> the down-set of the point of that rank, computed on its
    first read and kept; a dict, for C-speed reads."""

    __slots__ = ("radices",)

    def __init__(self, radices: tuple[int, ...]):
        self.radices = radices

    def __missing__(self, rank: int) -> int:
        box = stride = 1
        for r in reversed(self.radices):
            # v_c copies of the later colors' box at c's stride, as in _boxes
            box *= _repeat(rank // stride % r + 1, stride)
            stride *= r
        self[rank] = box
        return box


@lru_cache(maxsize=256)  # the recursion and repeated targets reread sizes of a grid
def _within(radices: tuple[int, ...], size: int) -> int:
    """The points of the grid whose down-set, a box of the product of
    their indices, holds at most `size` points, without building a box.
    A down-set of `size` points lies within them."""
    first, rest = radices[0], radices[1:]
    if not rest:
        return (1 << min(first, size)) - 1
    stride = prod(rest)
    return sum(_within(rest, size // i) << (i - 1) * stride for i in range(1, min(first, size) + 1))


# What a layer memo (_Memo) may hold per grid, by its own count: each
# entry costs the sys.getsizeof of its key and result (a tuple's items
# counted in) plus _ENTRY_BYTES for its slot in the dict's table.  16 KiB
# holds the distinct layer texts of all but 3 of the 189 grids that the
# benchmark corpus's extensions are emitted over, and keeps a few hundred
# cached grids' memos within a few MiB.
_MEMO_BYTES = 1 << 14
_ENTRY_BYTES = 64


def _size(obj) -> int:
    """sys.getsizeof of obj, counting in the items of a tuple."""
    if type(obj) is tuple:
        return getsizeof(obj) + sum(map(_size, obj))
    return getsizeof(obj)


class _Memo(dict):
    """A layer's points -> what a reader computed from them on its grid,
    holding at most _MEMO_BYTES: a result that would pass the bound
    empties the memo first, and one that alone passes it is not kept.
    So it holds at most _MEMO_BYTES // _ENTRY_BYTES layers."""

    __slots__ = ("used",)

    def __init__(self):
        self.used = 0  # bytes held, by the count above

    def keep(self, points: int, result):
        """Store result under points, bound permitting, and return it."""
        size = _size(points) + _size(result) + _ENTRY_BYTES
        if size <= _MEMO_BYTES:
            if self.used + size > _MEMO_BYTES:
                self.clear()
                self.used = 0
            self[points] = result
            self.used += size
        return result


class _Geometry:
    """One layer grid, shared through the _layer_geometry cache and the
    record tables (_grids).  Its shape, the radices with the size,
    strides and chain flag they give, is set once, in one pass over the
    colors from the last.  Its drops and down-sets, which only the
    search, the diagram count and the mask tests read, are built on
    first read, as their masks are as wide as the grid.  Its memos fill
    as records over it are read: `faces`, rank -> the face decoded there,
    holds at most one face per point, and two _Memo tables keyed by a
    layer's points, `texts` (the layer's text, by formats.emit_complex)
    and `shifts` (the mask shift test's verdict, free points and drop
    projections, by shifting._maximal_in_masks), each hold at most
    _MEMO_BYTES = 16 KiB by their own count, so at most 256 layers.  So
    reading a record costs the faces it holds, never the whole grid."""

    __slots__ = (
        "mask", "colors", "radices", "size", "strides", "chain", "faces", "texts", "shifts",
        "_downs", "_drops",
    )

    def __init__(self, mask: int, radices: tuple[int, ...]):
        self.mask = mask  # color-set bitmask
        self.colors = colors = colors_of_mask(mask)
        self.radices = radices
        strides = [0] * (mask.bit_length() + 1)  # by color, 0 outside the set
        size = 1
        wide = 0  # colors with more than one vertex
        j = len(radices)
        while j:  # from the last color: a stride is the product of the later radices
            j -= 1
            r = radices[j]
            strides[colors[j]] = size
            size *= r
            wide += r > 1
        self.size = size  # number of points
        self.strides = tuple(strides)
        self.chain = wide <= 1
        self.faces: dict[int, Face] = {}  # rank -> face, decoded by _grid_face
        self.texts = _Memo()  # points -> the layer's text
        self.shifts = _Memo()  # points -> the layer's shift-test verdict
        self._downs = self._drops = None

    @property
    def drops(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Per dropped color, in color order: (sub-layer mask, full
        sub-layer mask, the color's radix r, its stride s, the column
        _repeat(r, s))."""
        if self._drops is None:
            drops = []
            for color, r in zip(self.colors, self.radices):
                s = self.strides[color]
                full = (1 << self.size // r) - 1
                drops.append((self.mask ^ 1 << (color - 1), full, r, s, _repeat(r, s)))
            self._drops = tuple(drops)
        return self._drops

    @property
    def downs(self) -> MappingProxyType:  # read-only, made on the first kernel read
        if self._downs is None:
            self._downs = MappingProxyType(_Principal(self.radices))
        return self._downs


_layer_geometry = lru_cache(maxsize=256)(_Geometry)  # searches and records reopen a few grids


class _Grids(dict):
    """Color-set mask -> the _layer_geometry of its grid for the vertex
    counts `counts` (color c has counts[c - 1]), looked up on first read."""

    __slots__ = ("counts",)

    def __init__(self, counts: tuple[int, ...]):
        self.counts = counts

    def __missing__(self, mask: int) -> _Geometry:
        counts = self.counts
        radices = tuple([counts[c - 1] for c in colors_of_mask(mask)])
        self[mask] = geo = _layer_geometry(mask, radices)
        return geo


# One table per vertex-count vector; a pass over a corpus revisits a few
# hundred of them
_grids = lru_cache(maxsize=256)(_Grids)

# Points per face a layer's grid may hold for a mask as wide as the grid to
# stand in for the layer's faces: a Face holds about 258 bytes, so the mask
# never outgrows them.  A sparser layer takes the face route.
_GRID_BITS_PER_FACE = 512


def _dense_enough(points: int, faces: int) -> bool:
    """Whether a layer of `faces` faces in a grid of `points` points may
    be read in masks (formats._parse_record, shifting._maximal_in_masks)."""
    return points <= _GRID_BITS_PER_FACE * faces


def _grid_face(geo: _Geometry, rank: int) -> Face:
    """The face of row-major rank `rank` in the grid `geo`: the index
    of color c is rank // strides[c] % r_c + 1."""
    strides = geo.strides
    # colors ascend and indices start at 1: the tuple is a Face's own
    return Face._raw(tuple([
        Vertex(c, rank // strides[c] % r + 1) for c, r in zip(geo.colors, geo.radices)
    ]))


def _grid_faces(points: int, geo: _Geometry) -> list[Face]:
    """The faces of a bitmask of points of the grid `geo`, in rank
    order, each decoded once into the grid's face memo."""
    memo = geo.faces
    built = []
    while points:
        low = points & -points
        rank = low.bit_length() - 1
        face = memo.get(rank)
        if face is None:  # the empty face is falsy
            face = memo[rank] = _grid_face(geo, rank)
        built.append(face)
        points ^= low
    return built


def _regroup(mask: int, s: int, src: int, dst: int) -> int:
    """`mask`'s s-bit blocks at bits k * src, moved to bits k * dst and the
    bits between them dropped: _project gathers blocks r * s apart to s
    apart, and oracle._allowed_mask spreads them back.  Shifting `mask` a
    block at a time when it spans at most 16 blocks, otherwise one slice
    of its binary text per offset below s, keeps this linear in the width."""
    if mask.bit_length() <= 16 * src:
        block = (1 << s) - 1
        moved = 0
        shift = 0
        while mask:
            moved |= (mask & block) << shift
            mask >>= src
            shift += dst
        return moved
    bits = format(mask, "b").encode()[::-1]  # bits[i]: bit i, as b"0" or b"1"
    blocks = -(-len(bits) // src)
    bits += b"0" * (blocks * src - len(bits))
    moved = bytearray(b"0" * (blocks * dst))
    for lo in range(s):
        moved[lo::dst] = bits[lo::src]
    return int(moved[::-1], 2)


def _project(points: int, r: int, s: int) -> int:
    """The sub-layer points that `points` project onto along the drop of
    a color with radix r and stride s.

    The point of rank hi * r * s + i * s + lo, lo < s and i < r, drops to
    the sub-point of rank hi * s + lo.  Folding ORs the r copies of
    `points` shifted down by 0, s, ..., (r - 1) * s, doubling the copies
    each step and overlapping the last, so bit hi * r * s + lo of the
    fold is set when some point of that sub-point's fiber is.  The
    gather then takes the low s bits of each r * s-bit block (_regroup)."""
    if r == 1:
        return points
    folded = points
    copies = 1
    while 2 * copies <= r:
        folded |= folded >> (copies * s)
        copies *= 2
    if copies < r:
        folded |= folded >> ((r - copies) * s)
    return _regroup(folded, s, r * s, s)


class ColoredComplex(_Immutable):
    """An immutable colored simplicial complex.

    The constructor validates the invariants and raises
    InvalidComplexError on the first violation.  The empty complex (zero
    faces) is representable; operations that need the empty face reject
    it explicitly.
    """

    __slots__ = ("_num_colors", "_faces", "_record")

    def __init__(self, num_colors: int, faces: Iterable[Face] = ()):
        num_colors = int(num_colors)
        if num_colors < 0:
            raise ValueError("num_colors must be >= 0")
        face_set = frozenset(faces)
        violation = validate_faces(num_colors, face_set)
        if violation is not None:
            raise InvalidComplexError(violation)
        _set_num_colors(self, num_colors)
        _set_faces(self, face_set)
        _set_record(self, None)

    @classmethod
    def _raw(
        cls,
        num_colors: int,
        faces: frozenset[Face] | None,
        record: dict[int, int] | None = None,
    ) -> "ColoredComplex":
        """Internal fast path: the caller guarantees the invariants.

        A record, which nobody changes after, maps color-set masks to
        bitmasks: bit r of record[S] is set exactly when the face of rank
        r in the row-major grid of S is in the complex, the grid of S
        having as many vertices of each color c as the bit length of
        record[{c}].  Record[0] is 1 for the empty face, record[{c}] is
        (1 << t_c) - 1 for the t_c vertices of color c, and a color set
        without an entry has no face.  Its entries are in canonical order
        (flags.canonical_key), as the walk, cone_extension and the parser
        write them, and those callers pass faces=None: `faces` builds
        them on first use, and `sorted_faces` and formats.emit_complex
        read them off in that order.  flag_f and len read the counts from the record.
        """
        obj = object.__new__(cls)
        _set_num_colors(obj, num_colors)
        _set_faces(obj, faces)
        _set_record(obj, record)
        return obj

    def __reduce__(self):  # by _raw: a record complex keeps its record, not its faces
        faces = self._faces if self._record is None else None
        return ColoredComplex._raw, (self._num_colors, faces, self._record)

    @property
    def num_colors(self) -> int:
        return self._num_colors

    def _recorded_faces(self) -> list[Face]:
        """The faces of the record, in the record's order of color sets
        and rank order within each."""
        built = []
        for points, geo in _record_grids(self._record):
            built += _grid_faces(points, geo)
        return built

    @property
    def faces(self) -> frozenset[Face]:
        faces = self._faces
        if faces is None:
            # two threads racing here build equal sets
            faces = frozenset(self._recorded_faces())
            _set_faces(self, faces)
        return faces

    def sorted_faces(self) -> list[Face]:
        """Faces in canonical order: cardinality, then colors, then indices."""
        if self._faces is None:
            return self._recorded_faces()
        return sorted(self._faces, key=lambda f: f.sort_key)

    def vertex_counts(self) -> tuple[int, ...]:
        """Number of vertices of each color 1..num_colors: a record's are
        the bit lengths of its vertex entries, read without its faces."""
        record = self._record
        if record is not None:
            return tuple(record.get(1 << c, 0).bit_length() for c in range(self._num_colors))
        counts = [0] * self._num_colors
        for face in self.faces:
            if len(face) == 1:
                counts[face.vertices[0].color - 1] += 1
        return tuple(counts)

    def validate(self) -> Violation | None:
        return validate_faces(self._num_colors, self.faces)

    def __len__(self) -> int:
        if self._faces is None:
            return sum(m.bit_count() for m in self._record.values())
        return len(self._faces)

    def __contains__(self, face: Face) -> bool:
        return face in self.faces

    def __eq__(self, other) -> bool:
        """Equal colors and face sets.  Two complexes that both carry a
        record compare their non-zero entries instead, which is the same
        test.  A record's vertex counts are the bit lengths of its vertex
        entries, and once they are fixed, each (color set, rank) is
        exactly one face, the point of that rank in the grid of the color
        set.  So equal non-zero entries give equal faces; and equal faces
        give equal vertex entries, hence the same grids, and then set the
        same bits.
        """
        if not isinstance(other, ColoredComplex) or self._num_colors != other._num_colors:
            return False
        mine, theirs = self._record, other._record
        if mine is None or theirs is None:
            return self.faces == other.faces
        return mine == theirs or _nonzero(mine) == _nonzero(theirs)

    def __hash__(self) -> int:
        return hash((self._num_colors, self.faces))

    def __repr__(self) -> str:
        return f"ColoredComplex(num_colors={self._num_colors}, faces=<{len(self)}>)"


_set_num_colors = ColoredComplex._num_colors.__set__
_set_faces = ColoredComplex._faces.__set__
_set_record = ColoredComplex._record.__set__


def _record_grids(record: dict[int, int]) -> list[tuple[int, _Geometry]]:
    """(points, grid) per color set of a record that holds a face, in the
    record's order, from the table (_grids) of its vertex counts up to
    its highest color, the bit lengths of its vertex entries
    (ColoredComplex._raw)."""
    top = max(record, default=0).bit_length()
    grids = _grids(tuple([record.get(1 << c, 0).bit_length() for c in range(top)]))
    return [(points, grids[mask]) for mask, points in record.items() if points]


def _nonzero(record: dict[int, int]) -> dict[int, int]:
    return {mask: points for mask, points in record.items() if points}


def trivial_complex(num_colors: int) -> ColoredComplex:
    """The complex whose only face is the empty face."""
    return ColoredComplex(num_colors, (EMPTY_FACE,))


def empty_complex(num_colors: int) -> ColoredComplex:
    """The complex with no faces at all."""
    return ColoredComplex(num_colors, ())


def from_generators(
    num_colors: int, generators: Iterable[Face]
) -> ColoredComplex:
    """Downward closure of the given faces as a complex over num_colors colors.

    Raises InvalidComplexError if a generator uses a color out of range or
    the closure leaves an index gap within some color (saturation).
    """
    closed: set[Face] = set()
    for gen in generators:
        if gen in closed:
            continue
        closed.update(gen.subfaces())
    return ColoredComplex(num_colors, closed)


def select_colors(c: ColoredComplex, colors: Iterable[int]) -> ColoredComplex:
    """Subcomplex of faces using only the given colors, renumbered.

    The selected colors are renumbered 1..len(colors) by the unique
    order-preserving bijection, so the result is a complex over
    len(colors) colors.
    """
    selected = sorted(set(int(s) for s in colors))
    if selected and (selected[0] < 1 or selected[-1] > c.num_colors):
        raise ValueError(f"selected colors must lie in 1..{c.num_colors}")
    keep = set(selected)
    mapping = {old: new for new, old in enumerate(selected, start=1)}
    # the renumbering preserves order, so each vertex tuple stays sorted
    faces = frozenset(
        Face._raw(tuple(Vertex(mapping[c], i) for c, i in face._vertices))
        for face in c.faces
        if keep.issuperset(face.colors)
    )
    return ColoredComplex._raw(len(selected), faces)


def cone(c: ColoredComplex, apex: tuple[int, int]) -> ColoredComplex:
    """Join every face of c with a fresh apex vertex.

    The apex must be the first vertex of a color not used by any face of
    c, so the result stays saturated.  The result has twice as many
    faces as c.
    """
    apex = Vertex(*map(int, apex))
    if apex.index != 1:
        raise ValueError(f"apex must be the first vertex of its color, got index {apex.index}")
    if apex.color < 1:
        raise ValueError("apex color must be >= 1")
    for face in c.faces:
        if apex.color in face.colors:
            raise ValueError(f"apex color {apex.color} already used by face {face}")
    # no face uses the apex color, so sorting places the apex among
    # distinct colors
    lifted = frozenset(
        Face._raw(tuple(sorted(face._vertices + (apex,)))) for face in c.faces
    )
    return ColoredComplex._raw(
        max(c.num_colors, apex.color), c.faces | lifted
    )


def union(a: ColoredComplex, b: ColoredComplex) -> ColoredComplex:
    """Union of two complexes; vertices are identified by their labels.

    The union of two valid complexes is valid, so it is not re-checked:
    a subset of a face of either is in that one; the empty face is in
    any non-empty one; a color's singleton indices run from 1 to the
    larger of its two counts without a gap; and every color lies within
    max(num_colors).
    """
    return ColoredComplex._raw(max(a.num_colors, b.num_colors), a.faces | b.faces)
