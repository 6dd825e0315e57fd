"""Cone extension of a color-shifted complex.

Given a non-empty color-shifted complex over n colors with shift-maximal
faces F_1 .. F_k (canonical order), the extension adds one fresh color
per maximal face and cones the principal down-set of F_p with the first
vertex of color n+p.  The result, over m = n+k colors:

  * restricted to the original n colors it is the input complex, and
  * it is the unique color-shifted m-colored complex with its flag
    f-vector (checked exhaustively by the enumeration oracle).

The bookkeeping that drives the uniqueness argument is recorded in a
report: each apex color n+p carries exactly one vertex, and for each
color r used by F_p the number of {r, n+p}-colored edges equals the
index of F_p's vertex of color r.

The extension is built as its record alone (ColoredComplex._raw), in
closed form from the F_p: no face is built until one is read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ColoredComplex, Face, Vertex, _boxes, select_colors
from .flags import MAX_COLORS, FlagVector, canonical_key, colors_of_mask, flag_f, subset_masks
from .shifting import find_shift_violation, shift_maximal_faces
# unused here, but perfbench's tracer and its tests look the bindings up
from .complexes import cone, union  # noqa: F401
from .shifting import principal_downset  # noqa: F401


@dataclass(frozen=True)
class ConstructionReport:
    """Everything the extension predicts about its own output."""

    base_colors: int                               # n
    apex_count: int                                # k
    total_colors: int                              # m = n + k
    shift_maximal: tuple[Face, ...]                # F_1 .. F_k, canonical order
    apexes: tuple[Vertex, ...]                     # first vertex of each fresh color
    predicted_singletons: tuple[int, ...]          # apex colors; each claims count 1
    predicted_edges: tuple[tuple[int, int, int], ...]  # (color r, apex color, count)
    predicted_flag: FlagVector                     # full flag f-vector of the output


class TooManyColorsError(ValueError):
    """The cone extension would need more colors than flag vectors support."""


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failed_check: str | None = None
    detail: str | None = None


def cone_extension(delta: ColoredComplex) -> tuple[ColoredComplex, ConstructionReport]:
    """Extend a non-empty color-shifted complex as described above.

    Returns the extended complex together with its construction report.
    Raises ValueError if delta is empty or, from shift_maximal_faces, if
    it is not color-shifted, and TooManyColorsError, before building
    anything, if the extension would need more than MAX_COLORS colors.

    The predicted flag f-vector is computed in closed form, not read off
    the output.  The faces on base colors are delta's, and for T within
    the colors of F_p, f_{T + {n+p}} is the product of F_p's indices on
    T; every other color set has no face.

    The output is its record alone (ColoredComplex._raw), the points of
    each color set in its grid, computed in closed form too and listed
    in canonical order, so no grid and no face is built.  It records a
    valid complex: delta and each cone over a principal down-set are
    closed under taking subsets, and so is their union; it holds the
    empty face; every apex color n+p has only the vertex 1; and the
    vertices of the base colors are delta's own.  A base color c has as
    many vertices as the largest index of c among the F_p.  The grid of
    T + {n+p} is the grid of T with one more index, always 1, so its
    points are the box of F_p on T (complexes._boxes) at its ranks in the
    grid of T; and delta is the union of the principal down-sets of its
    maximal faces, so a base layer T is the OR of the boxes of the F_p
    on T.
    """
    if len(delta) == 0:
        raise ValueError("cannot extend the empty complex")
    n = delta.num_colors
    maximal = shift_maximal_faces(delta)
    k = len(maximal)
    if n + k > MAX_COLORS:
        raise TooManyColorsError(
            f"the extension of a complex with n={n} colors and k={k} shift-maximal "
            f"faces needs n+k={n + k} colors; flag vectors support at most {MAX_COLORS}"
        )
    radix = [0] * (n + 1)  # radix[c]: delta's vertices of color c
    for face in maximal:
        for color, index in face._vertices:
            if index > radix[color]:
                radix[color] = index
    apexes = []
    predicted_edges = []
    counts = list(flag_f(delta).dense()) + [0] * ((1 << (n + k)) - (1 << n))
    chosen: dict[int, int] = {}
    for p, face in enumerate(maximal, start=1):
        apex = Vertex(n + p, 1)
        apexes.append(apex)
        predicted_edges.extend(
            (color, n + p, index) for color, index in face.vertices
        )
        # the cone over each box: f_{T + apex} = prod_{c in T} F_p[c]
        apex_bit = 1 << (n + p - 1)
        for mask, size, _, points in _boxes(face._vertices, radix):
            counts[mask | apex_bit] = size
            chosen[mask | apex_bit] = points
            chosen[mask] = chosen.get(mask, 0) | points
    record = {mask: chosen[mask] for mask in sorted(chosen, key=canonical_key)}
    extended = ColoredComplex._raw(n + k, None, record)
    report = ConstructionReport(
        base_colors=n,
        apex_count=k,
        total_colors=n + k,
        shift_maximal=tuple(maximal),
        apexes=tuple(apexes),
        predicted_singletons=tuple(range(n + 1, n + k + 1)),
        predicted_edges=tuple(predicted_edges),
        # delta's counts and the box sizes, each a number of faces held in
        # memory: nonnegative, f_0 = 1 and far below 2^63
        predicted_flag=FlagVector._raw(n + k, counts, "f"),
    )
    return extended, report


def _flag_name(colors) -> str:
    return "f_{" + ",".join(map(str, colors)) + "}"


def verify_cone_extension(
    delta: ColoredComplex, extended: ColoredComplex, report: ConstructionReport
) -> VerificationResult:
    """Re-check every claim of a construction report against `extended`.

    Checks run in a fixed order and the first failure is named:
    (a) selecting the base colors recovers delta, (b) the flag f-vector
    matches every prediction, (c) the extension is color-shifted,
    (d) no face uses more than one fresh color.
    """
    n = report.base_colors
    if extended.num_colors != report.total_colors:
        return VerificationResult(
            False,
            "total-colors",
            f"expected {report.total_colors} colors, found {extended.num_colors}",
        )
    if select_colors(extended, range(1, n + 1)) != delta:
        return VerificationResult(
            False, "selection", f"selecting colors 1..{n} does not recover the input"
        )
    # counted face by face: the faces are decoded from the record, so
    # this checks the decoding against the closed-form predictions, which
    # the record's own counts, computed alongside them, would not
    fv = flag_f(ColoredComplex._raw(extended.num_colors, extended.faces))
    for apex_color in report.predicted_singletons:
        got = fv.count((apex_color,))
        if got != 1:
            return VerificationResult(
                False,
                f"flag:{_flag_name((apex_color,))}",
                f"expected 1 vertex of color {apex_color}, found {got}",
            )
    for color, apex_color, expected in report.predicted_edges:
        got = fv.count((color, apex_color))
        if got != expected:
            return VerificationResult(
                False,
                f"flag:{_flag_name((color, apex_color))}",
                f"expected {expected} edges on colors {{{color},{apex_color}}}, found {got}",
            )
    if fv != report.predicted_flag:
        for mask in subset_masks(report.predicted_flag.num_colors):
            if fv.count_at_mask(mask) != report.predicted_flag.count_at_mask(mask):
                colors = colors_of_mask(mask)
                return VerificationResult(
                    False,
                    f"flag:{_flag_name(colors)}",
                    f"expected {report.predicted_flag.count_at_mask(mask)} faces "
                    f"on colors {set(colors) or '{}'}, found {fv.count_at_mask(mask)}",
                )
    if find_shift_violation(extended) is not None:
        return VerificationResult(False, "color-shifted", "the extension is not color-shifted")
    for face in extended.faces:
        fresh = [c for c in face.colors if c > n]
        if len(fresh) > 1:
            return VerificationResult(
                False, "apex-faces", f"face {face} uses {len(fresh)} fresh colors"
            )
    return VerificationResult(True)
