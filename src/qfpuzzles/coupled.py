"""Exact box dynamics for coupled quadratic maps and puzzle extraction.

The family is ``F(x, y) = (a(1-4x^2) + c y^2 - 1/2, b(1-4y^2) + c x^2 - 1/2)``
on the square ``Q = [-1/2, 1/2]^2`` with the sign partition into four
quadrants.  All geometry is exact rational interval arithmetic: quadratic
images of rational boxes are rational, so covers carry no rounding.

Cylinder refinement is an outer approximation on a dyadic grid: a grid
box is assigned every itinerary its forward bounding-box images can
touch.  Pieces may merge under this approximation but never split, so
extracted puzzles are sound in the merge direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable, Mapping, Sequence

from qfpuzzles.diagram import RateTable, _rate_table
from qfpuzzles.polys import RationalPolynomial
from qfpuzzles.puzzle import Puzzle

HALF = Fraction(1, 2)

Interval = tuple[Fraction, Fraction]


class CoupledError(ValueError):
    pass


def _ivl(lo, hi) -> Interval:
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise CoupledError(f"empty interval [{lo}, {hi}]")
    return (lo, hi)


def _ivl_scale(s: Fraction, iv: Interval) -> Interval:
    a, b = s * iv[0], s * iv[1]
    return (a, b) if a <= b else (b, a)


def _ivl_square(iv: Interval) -> Interval:
    lo, hi = iv
    if lo <= 0 <= hi:
        return (Fraction(0), max(lo * lo, hi * hi))
    cands = (lo * lo, hi * hi)
    return (min(cands), max(cands))


def _ivl_gap(u: Interval, v: Interval) -> Fraction:
    return max(Fraction(0), u[0] - v[1], v[0] - u[1])


def _ivl_intersect(u: Interval, v: Interval) -> Interval | None:
    lo, hi = max(u[0], v[0]), min(u[1], v[1])
    return (lo, hi) if lo <= hi else None


@dataclass(frozen=True)
class Box:
    x: Interval
    y: Interval

    def __post_init__(self):
        _ivl(*self.x)
        _ivl(*self.y)

    def distance(self, other: "Box") -> Fraction:
        """L-infinity gap between the closed boxes (zero when touching)."""
        return max(_ivl_gap(self.x, other.x), _ivl_gap(self.y, other.y))

    def touches(self, other: "Box") -> bool:
        return self.distance(other) == 0

    def intersection(self, other: "Box") -> "Box | None":
        ix = _ivl_intersect(self.x, other.x)
        iy = _ivl_intersect(self.y, other.y)
        if ix is None or iy is None:
            return None
        return Box(ix, iy)

    def area(self) -> Fraction:
        return (self.x[1] - self.x[0]) * (self.y[1] - self.y[0])

    def corners(self) -> list[tuple[Fraction, Fraction]]:
        return [(x, y) for x in self.x for y in self.y]


UNIT_SQUARE = Box((-HALF, HALF), (-HALF, HALF))


@dataclass(frozen=True)
class CouplingParams:
    a: Fraction
    b: Fraction
    c: Fraction

    @classmethod
    def make(cls, a, b, c) -> "CouplingParams":
        return cls(Fraction(a), Fraction(b), Fraction(c))

    def in_domain(self) -> bool:
        """Parameter region where the square is strictly forward-invariant."""
        return (
            0 < self.a < 1
            and 0 < self.b < 1
            and 0 < self.c < 1
            and self.c < 4 - 4 * max(self.a, self.b)
        )

    def apply(self, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
        return (
            self.a * (1 - 4 * x * x) + self.c * y * y - HALF,
            self.b * (1 - 4 * y * y) + self.c * x * x - HALF,
        )


def _coord(main: Fraction, c: Fraction, m2: Interval, o2: Interval) -> Interval:
    """Range of ``main * (1 - 4 s) + c * t - 1/2`` over ``s`` in m2, ``t`` in o2."""
    lo, hi = _ivl_scale(main, (1 - 4 * m2[1], 1 - 4 * m2[0]))
    clo, chi = _ivl_scale(c, o2)
    return (lo + clo - HALF, hi + chi - HALF)


def _image(p: CouplingParams, cell: tuple[Interval, Interval]) -> tuple[Interval, Interval]:
    x2, y2 = _ivl_square(cell[0]), _ivl_square(cell[1])
    return (_coord(p.a, p.c, x2, y2), _coord(p.b, p.c, y2, x2))


def image_box(p: CouplingParams, box: Box) -> Box:
    """Exact bounding box of the image of a box.

    Each coordinate is a sum of two univariate quadratics, so its exact
    range over a product box is the sum of the univariate ranges.
    """
    return Box(*_image(p, (box.x, box.y)))


_SIGN = {"P": (Fraction(0), HALF), "N": (-HALF, Fraction(0))}


def sign_partition() -> dict[str, Box]:
    """The four closed quadrant boxes of the square, keyed PP/PN/NP/NN

    by the signs of x and y.  Their union covers the square; overlaps
    sit on the axes (outer approximation of the open quadrants).
    """
    return {f"{sx}{sy}": Box(_SIGN[sx], _SIGN[sy]) for sx in "PN" for sy in "PN"}


def boundary_pieces() -> list[Box]:
    """The partition boundary: both axes and the square's edge."""
    z = (Fraction(0), Fraction(0))
    return [
        Box((-HALF, HALF), z),
        Box(z, (-HALF, HALF)),
        Box((-HALF, HALF), (-HALF, -HALF)),
        Box((-HALF, HALF), (HALF, HALF)),
        Box((-HALF, -HALF), (-HALF, HALF)),
        Box((HALF, HALF), (-HALF, HALF)),
    ]


def on_boundary(x: Fraction, y: Fraction) -> bool:
    return x == 0 or y == 0 or abs(x) == HALF or abs(y) == HALF


def boundary_return_counts(p: CouplingParams, x, y, steps: int) -> list[int]:
    """Times k <= steps at which the exact orbit of a rational point sits

    on the partition boundary.  Statistics only; no finiteness claim.
    """
    x, y = Fraction(x), Fraction(y)
    hits = []
    for k in range(steps + 1):
        if on_boundary(x, y):
            hits.append(k)
        x, y = p.apply(x, y)
    return hits


def _grid(resolution: int) -> list[Interval]:
    """``[-1/2, 1/2]`` cut into ``2^resolution`` dyadic intervals."""
    if resolution < 1:
        raise CoupledError("resolution must be >= 1")
    n = 2**resolution
    step = Fraction(1, n)
    return [(-HALF + k * step, -HALF + (k + 1) * step) for k in range(n)]


def dyadic_grid(resolution: int) -> list[Box]:
    """The square tiled by ``2^resolution x 2^resolution`` dyadic boxes."""
    return [Box(x, y) for x, y in product(_grid(resolution), repeat=2)]


Itinerary = tuple[str, ...]
Cell = tuple[Interval, ...]


def _options(cell: Cell, step: Callable[[Cell], Cell], depth: int) -> list[list[str]]:
    """Sign words touched by the first ``depth`` iterates of a cell.

    Iterate ``k`` is ``step`` applied to iterate ``k - 1`` clipped to
    ``[-1/2, 1/2]`` in each coordinate; its word lists, in
    ``itertools.product`` order, every choice of ``P`` (the coordinate
    reaches ``>= 0``) or ``N`` (``<= 0``) per coordinate.  The list stops
    at the first iterate that misses the square, so a cell whose first
    ``n`` iterates stay in it has at least ``n`` entries.
    """
    options: list[list[str]] = []
    while len(options) < depth:
        if options:
            cell = step(cell)
        cell = tuple(_ivl_intersect(iv, (-HALF, HALF)) for iv in cell)
        if None in cell:
            break
        contacts = [[s for s, hit in (("P", hi >= 0), ("N", lo <= 0)) if hit] for lo, hi in cell]
        options.append(["".join(word) for word in product(*contacts)])
    return options


def _cell_options(
    p: CouplingParams, depth: int, resolution: int
) -> list[tuple[Box, list[list[str]]]]:
    """Every grid cell with its :func:`_options` under the coupled map."""
    step = partial(_image, p)
    return [(box, _options((box.x, box.y), step, depth)) for box in dyadic_grid(resolution)]


def _covers_from_options(cells: list[tuple], n: int) -> dict[Itinerary, tuple]:
    """Covers of the depth-``n`` cylinders by the cells with >= n options."""
    covers: dict[Itinerary, list] = {}
    for cell, options in cells:
        if len(options) >= n:
            for itin in product(*options[:n]):
                covers.setdefault(itin, []).append(cell)
    return {itin: tuple(members) for itin, members in sorted(covers.items())}


def _covers_by_depth(
    p: CouplingParams, n_range: Sequence[int], resolution: int
) -> list[tuple[int, dict[Itinerary, tuple[Box, ...]]]]:
    """``(n, refine_cylinders(p, n, resolution))`` for n in sorted(n_range), from one pass."""
    ns = sorted(n_range)
    if not ns:
        return []
    if ns[0] < 1:
        raise CoupledError("depth must be >= 1")
    cells = _cell_options(p, ns[-1], resolution)
    return [(n, _covers_from_options(cells, n)) for n in ns]


def refine_cylinders(
    p: CouplingParams, depth: int, resolution: int
) -> dict[Itinerary, tuple[Box, ...]]:
    """Outer covers of the depth-n cylinders on the dyadic grid.

    A grid box is assigned every itinerary whose quadrants its iterated
    bounding-box images touch.  Covers may overlap (never
    under-approximate).  Escape rule: a box is dropped when one of its
    first ``depth`` iterates misses the square, so a box whose orbit
    leaves later still covers depth-``depth`` cylinders here (unlike
    :func:`build_puzzle`, which drops it at every level).
    """
    return _covers_by_depth(p, [depth], resolution)[0][1]


def almost_connected_components(boxes: Sequence[Box], gap: Fraction) -> list[tuple[Box, ...]]:
    """Partition boxes into groups that cannot be split at distance >= gap.

    Union-find with adjacency ``distance < gap``; the gap is an explicit
    parameter because "positive distance" has no canonical value at a
    finite resolution.  Coordinates are compared as integers over their
    common denominator.
    """
    gap = Fraction(gap)
    if gap <= 0:
        raise CoupledError("gap must be positive")
    denom = math.lcm(gap.denominator, *(v.denominator for b in boxes for v in (*b.x, *b.y)))
    coords = [tuple(int(v * denom) for v in (*b.x, *b.y)) for b in boxes]
    rho = int(gap * denom)
    order = sorted(range(len(boxes)), key=lambda k: coords[k])
    parent = list(range(len(boxes)))

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for pos, k in enumerate(order):
        x0k, x1k, y0k, y1k = coords[k]
        for other in order[pos + 1 :]:
            x0o, x1o, y0o, y1o = coords[other]
            if x0o - x1k >= rho:
                break  # sorted by x0; later boxes sit further right
            if x0k - x1o < rho and y0o - y1k < rho and y0k - y1o < rho:
                ru, rv = find(k), find(other)
                if ru != rv:
                    parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, list[int]] = {}
    for k in range(len(boxes)):
        groups.setdefault(find(k), []).append(k)
    comps = [
        tuple(boxes[k] for k in sorted(members, key=lambda k: coords[k]))
        for members in groups.values()
    ]
    comps.sort(key=lambda comp: (comp[0].x, comp[0].y))
    return comps


def default_gap(resolution: int) -> Fraction:
    return Fraction(1, 2 ** (resolution - 2)) if resolution >= 2 else Fraction(1)


@dataclass(frozen=True)
class ExtractedPiece:
    label: str
    itinerary: Itinerary
    boxes: tuple[Box, ...]


@dataclass(frozen=True)
class PuzzleBuild:
    puzzle: Puzzle
    pieces: Mapping[str, ExtractedPiece]
    ambiguous: tuple[str, ...]  # pieces whose image assignment needed tie-breaking


ROOT = "Q"


def _piece_label(itin: Itinerary, comp_index: int) -> str:
    return "-".join(itin) + f"/{comp_index}"


def build_puzzle(
    p: CouplingParams,
    depth: int,
    resolution: int,
    gap: Fraction | None = None,
) -> PuzzleBuild:
    """Extract the puzzle of almost connected cylinder components.

    Levels are the components of the cylinder covers; ``i`` follows
    containment one level up, ``f`` the component containing the image
    cover, resolved by maximal overlap when the outer approximation is
    ambiguous.  Unresolvable assignments (exact overlap ties) raise.

    Escape rule: a grid box is dropped from every level when one of its
    first ``depth`` iterates misses the square, so level ``n`` can hold
    fewer boxes than ``refine_cylinders(p, n, resolution)``.
    """
    if depth < 1:
        raise CoupledError("depth must be >= 1")
    gap = default_gap(resolution) if gap is None else Fraction(gap)
    cells = [c for c in _cell_options(p, depth, resolution) if len(c[1]) == depth]

    levels: list[list[str]] = [[ROOT]]
    pieces: dict[str, ExtractedPiece] = {
        ROOT: ExtractedPiece(ROOT, (), (UNIT_SQUARE,))
    }
    by_level: list[list[ExtractedPiece]] = [[pieces[ROOT]]]
    for n in range(1, depth + 1):
        level_pieces: list[ExtractedPiece] = []
        for itin, boxes in _covers_from_options(cells, n).items():
            for ci, comp in enumerate(almost_connected_components(boxes, gap)):
                piece = ExtractedPiece(_piece_label(itin, ci), itin, comp)
                level_pieces.append(piece)
                pieces[piece.label] = piece
        levels.append([q.label for q in level_pieces])
        by_level.append(level_pieces)

    i_map: dict[str, str] = {}
    f_map: dict[str, str] = {}
    ambiguous: list[str] = []
    for n in range(1, depth + 1):
        home_of = {
            (q.itinerary, box): q.label for q in by_level[n - 1] for box in q.boxes
        }
        for piece in by_level[n]:
            i_map[piece.label] = _containing_piece(piece, home_of)
            f_map[piece.label], flagged = _image_piece(p, piece, by_level[n - 1])
            if flagged:
                ambiguous.append(piece.label)
    puzzle = Puzzle(levels, i_map, f_map, name="coupled")
    return PuzzleBuild(puzzle, pieces, tuple(ambiguous))


def _containing_piece(piece: ExtractedPiece, home_of: Mapping) -> str:
    if not piece.itinerary[:-1]:
        return ROOT
    want = piece.itinerary[:-1]
    homes = {home_of.get((want, box)) for box in piece.boxes}
    if len(homes) != 1 or None in homes:
        raise CoupledError(
            f"unresolvable containment for {piece.label!r}: candidates {sorted(filter(None, homes))}"
        )
    return homes.pop()


def _image_piece(
    p: CouplingParams, piece: ExtractedPiece, parents: list[ExtractedPiece]
) -> tuple[str, bool]:
    if len(parents) == 1 and parents[0].label == ROOT:
        return ROOT, False
    want = piece.itinerary[1:]
    candidates = [q for q in parents if q.itinerary == want]
    if not candidates:
        raise CoupledError(f"no image cylinder for {piece.label!r}")
    if len(candidates) == 1:
        return candidates[0].label, False
    images = [image_box(p, b).intersection(UNIT_SQUARE) for b in piece.boxes]
    overlaps: list[tuple[Fraction, int, str]] = []
    for q in candidates:
        area = Fraction(0)
        touches = 0
        for img in images:
            if img is None:
                continue
            for target in q.boxes:
                cut = img.intersection(target)
                if cut is not None:
                    area += cut.area()
                    touches += 1
        overlaps.append((area, touches, q.label))
    overlaps.sort(key=lambda t: (-t[0], -t[1], t[2]))
    best, runner = overlaps[0], overlaps[1]
    if best[0] == runner[0] and best[1] == runner[1]:
        raise CoupledError(
            f"unresolvable image assignment for {piece.label!r}: tie between "
            f"{best[2]!r} and {runner[2]!r}"
        )
    flagged = runner[0] > 0  # outer slop touched a second component
    return best[2], flagged


# -- entropy-flavored upper estimates ------------------------------------------


def boundary_entropy_estimate(
    p: CouplingParams, n_range: Sequence[int], resolution: int
) -> RateTable:
    """Number of distinct length-n itineraries realized by grid boxes

    meeting the partition boundary; an outer upper-estimate table.
    """
    boundary = boundary_pieces()

    def count(covers: dict[Itinerary, tuple[Box, ...]]) -> int:
        return sum(
            any(any(b.touches(edge) for edge in boundary) for b in boxes)
            for boxes in covers.values()
        )

    return _rate_table(
        ((n, count(covers)) for n, covers in _covers_by_depth(p, n_range, resolution)),
        exact=False,
    )


def multiplicity_estimate(
    p: CouplingParams, n_range: Sequence[int], resolution: int
) -> dict[int, int]:
    """Max number of cylinder covers whose closure shares a point, per depth.

    Evaluated at grid corners, where incidences of an aligned tiling
    peak; an upper estimate within the outer approximation.
    """
    out = {}
    for n, covers in _covers_by_depth(p, n_range, resolution):
        incidence: dict[tuple[Fraction, Fraction], set[Itinerary]] = {}
        for itin, boxes in covers.items():
            for box in boxes:
                for corner in box.corners():
                    incidence.setdefault(corner, set()).add(itin)
        out[n] = max((len(s) for s in incidence.values()), default=0)
    return out


# -- symbolic orbit polynomials -------------------------------------------------


def iterate_polynomial(p: CouplingParams, k: int) -> RationalPolynomial:
    """The polynomial whose roots are the x with the x-coordinate of the

    k-th image of (x, 0) equal to zero; built by exact coordinate
    iteration.
    """
    if k < 1:
        raise CoupledError("k must be >= 1")
    X = RationalPolynomial.x()
    Y = RationalPolynomial.zero()
    for _ in range(k):
        X, Y = (
            (1 - X * X * 4) * p.a + Y * Y * p.c - HALF,
            (1 - Y * Y * 4) * p.b + X * X * p.c - HALF,
        )
    return X


# -- 1d reference pipeline (product checks) -------------------------------------


def _cell_options_1d(
    alpha: Fraction, depth: int, resolution: int
) -> list[tuple[Interval, list[list[str]]]]:
    """Every grid interval with its :func:`_options` under ``t -> a(1-4t^2) - 1/2``,

    the x-coordinate of the coupled map with ``a = alpha``, ``c = 0``.
    """
    if depth < 1:
        raise CoupledError("depth must be >= 1")

    def step(cell: Cell) -> Cell:
        sq = _ivl_square(cell[0])
        return (_coord(alpha, 0, sq, sq),)

    return [(iv, _options((iv,), step, depth)) for iv in _grid(resolution)]


def refine_cylinders_1d(
    alpha: Fraction, depth: int, resolution: int
) -> dict[Itinerary, tuple[Interval, ...]]:
    """1d analogue of :func:`refine_cylinders` for ``t -> a(1-4t^2) - 1/2``."""
    return _covers_from_options(_cell_options_1d(alpha, depth, resolution), depth)


def component_counts_1d(
    alpha: Fraction, depth: int, resolution: int, gap: Fraction | None = None
) -> list[int]:
    """Component counts per level 1..depth of the 1d pipeline."""
    gap = default_gap(resolution) if gap is None else Fraction(gap)
    cells = _cell_options_1d(alpha, depth, resolution)
    out = []
    for n in range(1, depth + 1):
        total = 0
        for ivs in _covers_from_options(cells, n).values():
            boxes = [Box(iv, (Fraction(0), Fraction(0))) for iv in ivs]
            total += len(almost_connected_components(boxes, gap))
        out.append(total)
    return out


def component_counts_2d(build: PuzzleBuild) -> list[int]:
    p = build.puzzle
    return [len(p.level(n)) for n in range(1, p.depth + 1)]
