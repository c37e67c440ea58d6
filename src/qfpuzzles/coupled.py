"""Exact box dynamics for coupled quadratic maps and puzzle extraction.

The family is ``F(x, y) = (a(1-4x^2) + c y^2 - 1/2, b(1-4y^2) + c x^2 - 1/2)``
on the square ``Q = [-1/2, 1/2]^2`` with the sign partition into four
quadrants.  All geometry is exact: quadratic images of rational boxes
are rational, so covers carry no rounding.  The grid pipeline carries
each iterate as integer interval numerators over one denominator per
iterate.  A set of cells is one ``int`` bit mask, bit ``i * 2^res + j``
for cell ``(i, j)``, and each iterate's sign words are one mask per word.
The quadrants are the product of the axes' sign partitions, so at every
iterate a word's mask is the AND over the axes of the cells reaching its
sign on that axis.  The map is even in each coordinate, so the grid cells
mirrored through the axes share every iterate after the first: one orbit
is kept per mirror class, and its cells are ORed into the reach masks
of the signs it reaches.  The classes of an iterate share its
denominator, so they are held as coordinate columns (per axis, the lists
of lower and upper numerators) and stepped by one batched call per
iterate.  ``Box`` values are built only for returned
data.  Two cells lie within a gap iff their Chebyshev index distance is
at most ``k = ceil(gap / cell width)``, so components grow by dilation
of radius ``k``, in shift-or steps on the mask.

Cylinder refinement is an outer approximation on a dyadic grid: a grid
box is assigned every itinerary its forward bounding-box images can
touch.  Pieces may merge under this approximation but never split, so
extracted puzzles are sound in the merge direction.  Covers and pieces
grow by one level walk, each level cut from the one before, so a piece
lies inside one parent piece: its ``i`` in :func:`build_puzzle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import compress, product, zip_longest
from operator import and_, le, or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from qfpuzzles.diagram import RateTable, _rate_table
from qfpuzzles.polys import RationalPolynomial, _common, _fraction, _product
from qfpuzzles.puzzle import Puzzle

HALF = Fraction(1, 2)

Interval = tuple[Fraction, Fraction]


class CoupledError(ValueError):
    pass


_exact = partial(_fraction, error=CoupledError)  # a float raises CoupledError


def _int(name: str, value) -> int:
    """``value``, a depth, resolution or count, if it is an ``int`` and not a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise CoupledError(f"{name} must be an int, got {value!r}")
    return value


def _ivl(lo, hi) -> Interval:
    lo, hi = _exact(lo), _exact(hi)
    if lo > hi:
        raise CoupledError(f"empty interval [{lo}, {hi}]")
    return (lo, hi)


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
        object.__setattr__(self, "x", _ivl(*self.x))
        object.__setattr__(self, "y", _ivl(*self.y))

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


UNIT_SQUARE = Box((-HALF, HALF), (-HALF, HALF))


@dataclass(frozen=True)
class CouplingParams:
    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, _exact(getattr(self, name)))

    @classmethod
    def make(cls, a, b, c) -> "CouplingParams":
        return cls(a, b, c)

    def in_domain(self) -> bool:
        """Parameter region where the square is strictly forward-invariant."""
        return (
            0 < self.a < 1
            and 0 < self.b < 1
            and 0 < self.c < 1
            and self.c < 4 - 4 * max(self.a, self.b)
        )

    def apply(self, x, y) -> tuple[Fraction, Fraction]:
        img = image_box(self, Box((x, x), (y, y)))
        return img.x[0], img.y[0]


IntCell = Sequence[tuple[Sequence[int], Sequence[int]]]  # per coordinate, (los, his) of many cells over one denominator
Step = Callable[[IntCell, int], tuple[IntCell, int]]


def _step(mains: tuple[int, ...], c: int, lcd: int, columns: IntCell, denom: int) -> tuple[IntCell, int]:
    """Exact bounding intervals of the images of many cells, over ``lcd * denom^2``.

    ``columns`` holds per coordinate the ``(los, his)`` lists of the cells'
    interval numerators over ``denom``, one entry per cell, and the map's
    coefficients are numerators over ``lcd``, which is even.  Coordinate ``k``
    maps to ``(mains[k] (1 - 4 s^2) + c t^2) / lcd - 1/2``, where ``s`` is the
    coordinate and ``t`` the other one (itself in 1-D, where ``c = 0``).  Each
    coordinate is a sum of two univariate quadratics, so its exact range over a
    product box is the sum of the univariate ranges.  The signs of ``mains[k]``
    and ``c`` are those of the whole call, so they pick ends once per column.
    """
    d2 = denom * denom
    half = lcd * d2 // 2
    squares = [
        ([lo * lo if lo > 0 else hi * hi if hi < 0 else 0 for lo, hi in zip(los, his)],
         [hi * hi if hi > -lo else lo * lo for lo, hi in zip(los, his)])
        for los, his in columns
    ]
    image = []
    for k, main in enumerate(mains):
        (s_lo, s_hi), (t_lo, t_hi) = squares[k], squares[-1 - k]
        if main < 0:
            s_lo, s_hi = s_hi, s_lo
        if c < 0:
            t_lo, t_hi = t_hi, t_lo
        base, m4 = main * d2 - half, 4 * main
        image.append(([base - m4 * s + c * t for s, t in zip(s_hi, t_lo)],
                      [base - m4 * s + c * t for s, t in zip(s_lo, t_hi)]))
    return image, lcd * d2


def _map_step(mains: tuple[Fraction, ...], c: Fraction) -> Step:
    """:func:`_step` for the map with these main coefficients and coupling ``c``."""
    (*nums, c_num, _), lcd = _common((*mains, c, HALF))
    return partial(_step, tuple(nums), c_num, lcd)


def image_box(p: CouplingParams, box: Box) -> Box:
    """Exact bounding box of the image of a box."""
    (x0, x1, y0, y1), denom = _common((*box.x, *box.y))
    columns, denom = _map_step((p.a, p.b), p.c)((([x0], [x1]), ([y0], [y1])), denom)
    return Box(*((Fraction(lo, denom), Fraction(hi, denom)) for (lo,), (hi,) in columns))


def on_boundary(x: Fraction, y: Fraction) -> bool:
    return x == 0 or y == 0 or abs(x) == HALF or abs(y) == HALF


def boundary_return_counts(p: CouplingParams, x, y, steps: int) -> list[int]:
    """Times k <= steps at which the exact orbit of a rational point sits

    on the partition boundary.  Statistics only; no finiteness claim.
    """
    x, y = _exact(x), _exact(y)
    if _int("steps", steps) < 0:
        raise CoupledError(f"steps must be >= 0, got {steps}")
    hits = []
    for k in range(steps + 1):
        if on_boundary(x, y):
            hits.append(k)
        x, y = p.apply(x, y)
    return hits


def _grid_size(resolution: int) -> int:
    if _int("resolution", resolution) < 1:
        raise CoupledError("resolution must be >= 1")
    return 2**resolution


def _grid(resolution: int) -> list[Interval]:
    """``[-1/2, 1/2]`` cut into ``2^resolution`` dyadic intervals."""
    n = _grid_size(resolution)
    ends = [Fraction(2 * k - n, 2 * n) for k in range(n + 1)]  # -1/2 + k/n
    return [_ivl(lo, hi) for lo, hi in zip(ends, ends[1:])]


def _grid_boxes(resolution: int) -> list[Box]:
    """The dyadic box of grid cell ``(i, j)`` (``i`` along x) at ``i * 2^res + j``, its bit;
    :func:`_grid` checked the intervals, so the boxes skip ``Box.__post_init__``."""
    boxes = []
    for x, y in product(_grid(resolution), repeat=2):
        boxes.append(box := object.__new__(Box))
        object.__setattr__(box, "x", x)
        object.__setattr__(box, "y", y)
    return boxes


Itinerary = tuple[str, ...]
_FLAGS = bytes.maketrans(b"01", b"\0\1")  # binary digits as false and true bytes

def _grid_options(step: Step, dim: int, depth: int, resolution: int) -> list[dict[str, int]]:
    """``masks[n][word]`` for ``n < depth``: the grid cells whose ``n``-th iterate touches
    the sign word ``word``, as bits ``i * 2^res + j`` for cell ``(i, j)``, or ``i * 2^res``
    for cell ``i`` in 1-D; words that no cell touches are left out.

    Iterate ``k`` of a cell is ``step`` applied to iterate ``k - 1`` clipped to the
    square, and a cell drops out at its first iterate that misses it.  The quadrants
    are the product of the axes' sign partitions, so at every iterate the mask of a
    word is the AND over the axes of the cells reaching its sign there: ``P`` where
    ``hi >= 0``, ``N`` where ``lo <= 0``.  An iterate is held as axis columns, the
    ``(los, his)`` lists of :func:`_step`, beside one mask per entry.  At iterate 0
    the entries on an axis are its slabs (rows, then columns); later, one orbit per
    mirror class, whose mask is the AND of its slab pairs ``{i, n - 1 - i}``, and all
    classes are stepped in one call per iterate."""
    n = _grid_size(resolution)
    h = n // 2
    row = (1 << n) - 1 if dim == 2 else 1
    column = sum(1 << i * n for i in range(n))  # bit 0 of every row
    slabs = [[row << i * n for i in range(n)], [column << j for j in range(n)]][:dim]
    pairs = product(*([axis[i] | axis[n - 1 - i] for i in range(h, n)] for axis in slabs))
    orbits = [reduce(and_, pair) for pair in pairs]  # one per mirror class, in product order
    corners = zip(*product(range(h), repeat=dim))  # per axis, each class's low numerator over n
    columns, denom = [(list(los), [lo + 1 for lo in los]) for los in corners], n
    spans = [(list(range(-h, h)), list(range(1 - h, h + 1)), axis) for axis in slabs]  # (los, his, masks)
    words = ["".join(word) for word in product("PN", repeat=dim)]
    masks = []
    for k in range(depth):
        if k:  # iterate k of the classes still in the square
            columns, denom = step(columns, denom)
            r = denom // 2
            columns = [([lo if lo > -r else -r for lo in los], [hi if hi < r else r for hi in his])
                       for los, his in columns]
            if not all(all(map(le, los, his)) for los, his in columns):  # some class escaped
                keep = list(map(all, zip(*(map(le, los, his) for los, his in columns))))
                columns = [(list(compress(los, keep)), list(compress(his, keep))) for los, his in columns]
                orbits = list(compress(orbits, keep))
            spans = [(los, his, orbits) for los, his in columns]
        reach = [{"P": reduce(or_, compress(axis, [hi >= 0 for hi in his]), 0),
                  "N": reduce(or_, compress(axis, [lo <= 0 for lo in los]), 0)} for los, his, axis in spans]
        masks.append({word: mask for word in words if (mask := reduce(and_, map(dict.get, reach, word)))})
    return masks


def _cell_options(p: CouplingParams, depth: int, resolution: int) -> list[dict[str, int]]:
    """The :func:`_grid_options` mask table of the coupled map."""
    return _grid_options(_map_step((p.a, p.b), p.c), 2, depth, resolution)


def _level_walk(
    masks: Sequence[Mapping[str, int]], split: Callable[[int], Iterable[int]], start: int
) -> Iterator[list[tuple[Itinerary, int, int]]]:
    """Levels 1..``len(masks)`` of the cylinder covers by the :func:`_grid_options` table
    ``masks``, as lists of ``(itinerary, part, position of the parent part in the level
    before)``; a part is a mask of grid cells.  Level ``n`` cuts each part of level
    ``n - 1`` (level 0: ``start``) by ``masks[n - 1][a]`` for each sign word ``a``, and
    ``split`` divides each cut into parts; a cell whose ``n``-th iterate missed the
    square is in no mask and drops out.  As ``cover(w·a)`` lies inside ``cover(w)``, a
    component of a child cover lies inside one component of its parent.  Parts come in
    itinerary order, then by lowest bit."""
    level = [((), start, None)]
    for words in masks:
        cut = []
        for at, (itin, part, _) in enumerate(level):
            for word, mask in words.items():
                if group := part & mask:
                    cut.extend((itin + (word,), piece, at) for piece in split(group))
        yield (level := sorted(cut, key=lambda t: (t[0], t[1] & -t[1])))


def _members(mask: int, items: Sequence) -> list:
    """``items[b]`` for each set bit ``b`` of ``mask``, in bit order, in time linear in its length."""
    return list(compress(items, bin(mask)[:1:-1].encode().translate(_FLAGS)))


def _covers_by_depth(p: CouplingParams, n_range: Sequence[int], resolution: int) -> list[tuple[int, dict]]:
    """``(n, covers)`` for n in sorted(n_range), from one walk; the covers are those of
    ``refine_cylinders(p, n, resolution)``, as masks of grid cells."""
    ns = sorted(map(partial(_int, "depth"), n_range))
    if not ns:
        return []
    if ns[0] < 1:
        raise CoupledError("depth must be >= 1")
    levels = list(_level_walk(_cell_options(p, ns[-1], resolution), lambda part: [part], -1))
    return [(n, {itin: part for itin, part, _ in levels[n - 1]}) for n in ns]


def refine_cylinders(p: CouplingParams, depth: int, resolution: int) -> dict[Itinerary, tuple[Box, ...]]:
    """Outer covers of the depth-n cylinders on the dyadic grid.

    A grid box is assigned every itinerary whose quadrants its iterated
    bounding-box images touch.  Covers may overlap (never
    under-approximate).  Escape rule: a box is dropped when one of its
    first ``depth`` iterates misses the square, so a box whose orbit
    leaves later still covers depth-``depth`` cylinders here (unlike
    :func:`build_puzzle`, which drops it at every level).
    """
    boxes = _grid_boxes(resolution)  # checks the resolution before the depth
    covers = _covers_by_depth(p, [depth], resolution)[0][1]
    return {itin: tuple(_members(part, boxes)) for itin, part in covers.items()}


def _find(parent, u):
    """Root of ``u`` in the union-find forest ``parent`` (a list or dict), halving the path."""
    while parent[u] != u:
        parent[u] = parent[parent[u]]
        u = parent[u]
    return u


def _components(rects: Sequence[tuple[int, int, int, int]], rho: int) -> list[list[int]]:
    """Positions of the ``(x0, x1, y0, y1)`` integer rectangles grouped by
    union-find with adjacency "L-infinity gap ``< rho``".

    Members are listed in rectangle order (position order among equal
    rectangles), and components in the order of their first members.
    """
    order = sorted(range(len(rects)), key=rects.__getitem__)
    ranked = [rects[k] for k in order]
    parent = list(range(len(ranked)))  # union-find over ranks
    for a, (_, x1a, y0a, y1a) in enumerate(ranked):
        root = _find(parent, a)
        for b, (x0b, x1b, y0b, y1b) in enumerate(ranked[a + 1 :], a + 1):
            if x0b - x1a >= rho:
                break  # sorted by x0, so later rectangles sit further right
            # x0a <= x0b <= x1b, so b never lies rho or more left of a
            if y0b - y1a < rho and y0a - y1b < rho and parent[b] != root:
                parent[_find(parent, b)] = root
    groups: dict[int, list[int]] = {}
    for a, k in enumerate(order):
        groups.setdefault(_find(parent, a), []).append(k)
    return list(groups.values())


def almost_connected_components(boxes: Sequence[Box], gap: Fraction) -> list[tuple[Box, ...]]:
    """Partition boxes into groups that cannot be split at distance >= gap.

    Union-find with adjacency ``distance < gap``; the gap is an explicit
    parameter because "positive distance" has no canonical value at a
    finite resolution.  Coordinates are compared as integers over their
    common denominator.  Components come sorted by their first box, and
    each lists its boxes in ``(x, y)`` order.
    """
    gap = _positive_gap(gap)
    (rho, *coords), _ = _common([gap, *(v for b in boxes for v in (*b.x, *b.y))])
    rects = [tuple(coords[4 * k : 4 * k + 4]) for k in range(len(boxes))]
    return [tuple(boxes[k] for k in comp) for comp in _components(rects, rho)]


def _grid_components(resolution: int, gap: Fraction) -> Callable[[int], list[int]]:
    """The split of a mask of cells of the ``n x n`` grid, ``n = 2^res``, into its
    :func:`almost_connected_components`, as masks in the order of their lowest bits.
    Cells are within the gap iff their Chebyshev index distance is at most ``k``, so a
    component grows from the lowest bit left by dilation of radius ``k`` until it stops.
    Dilation sweeps right, left, up, then down, each by shift-or steps of 1, 2, 4, ...;
    along rows a column mask keeps a bit from wrapping into the next row."""
    n = _grid_size(resolution)
    k = min(math.ceil(gap * n), n - 1)  # ceil(gap / cell width); n - 1 joins every cell
    shifts, reach = [], 0
    while reach < k:
        shifts.append(s := min(reach + 1, k - reach))
        reach += s
    row, column = (1 << n) - 1, ((1 << n * n) - 1) // ((1 << n) - 1)  # bit 0 of every row
    steps = [(s, (row >> s) * column) for s in shifts] + [(-s, (row >> s << s) * column) for s in shifts]
    steps += [(s * n, -1) for s in shifts] + [(-s * n, -1) for s in shifts]  # (shift, bits it moves)

    def dilate(mask: int) -> int:
        for s, moved in steps:
            mask |= (mask & moved) << s if s > 0 else (mask & moved) >> -s
        return mask

    def split(part: int) -> list[int]:
        comps = []
        while part:
            comp = part & -part
            while comp != part and (grown := dilate(comp) & part) != comp:
                comp = grown
            comps.append(comp)
            part ^= comp
        return comps

    return split


def default_gap(resolution: int) -> Fraction:
    return Fraction(1, 2 ** (resolution - 2)) if _int("resolution", resolution) >= 2 else Fraction(1)


def _positive_gap(gap, resolution: int | None = None) -> Fraction:
    """``gap`` as an exact positive value; ``None`` stands for :func:`default_gap`."""
    gap = default_gap(resolution) if gap is None else _exact(gap)
    if gap <= 0:
        raise CoupledError("gap must be positive")
    return gap


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


def build_puzzle(p: CouplingParams, depth: int, resolution: int, gap: Fraction | None = None) -> PuzzleBuild:
    """Extract the puzzle of almost connected cylinder components.

    Level ``n`` holds the components of the depth-``n`` cylinder covers,
    grown from level ``n - 1`` by one level walk: each component of
    ``cover(w·a)`` lies inside one component of ``cover(w)``, and ``i`` is
    that parent component by construction.  ``f`` is the component among
    those carrying the shifted itinerary that holds the image cover,
    resolved by maximal overlap when the outer approximation is ambiguous.
    Only a piece with no image cylinder and an exact overlap tie raise.

    Escape rule: a grid box is dropped from every level when one of its
    first ``depth`` iterates misses the square, so level ``n`` can hold
    fewer boxes than ``refine_cylinders(p, n, resolution)``.
    """
    if _int("depth", depth) < 1:
        raise CoupledError("depth must be >= 1")
    gap = _positive_gap(gap, resolution)
    masks = _cell_options(p, depth, resolution)
    boxes = _grid_boxes(resolution)
    root = ExtractedPiece(ROOT, (), (UNIT_SQUARE,))
    pieces, ids, levels = {ROOT: root}, {ROOT: 0}, [[ROOT]]
    by_itin = {(): [root]}  # the last level's pieces per itinerary, in label order
    i_map: list[int | None] = [None]  # by id, the root first
    f_map: list[int | None] = [None]
    ambiguous: list[str] = []
    # the walk starts at the cells whose last iterate is still in the square: the escape rule
    for level in _level_walk(masks, _grid_components(resolution, gap), reduce(or_, masks[-1].values(), 0)):
        parents, by_itin = by_itin, {}
        levels.append([])
        for itin, part, at in level:
            group = by_itin.setdefault(itin, [])
            piece = ExtractedPiece("-".join(itin) + f"/{len(group)}", itin, tuple(_members(part, boxes)))
            group.append(piece)
            levels[-1].append(piece.label)
            ids[piece.label] = len(pieces)
            pieces[piece.label] = piece
            i_map.append(ids[levels[-2][at]])
            target, flagged = _image_piece(p, piece, parents.get(itin[1:], []))
            f_map.append(ids[target])
            if flagged:
                ambiguous.append(piece.label)
    return PuzzleBuild(Puzzle._from_ids(levels, i_map, f_map, "coupled"), pieces, tuple(ambiguous))


def _image_piece(
    p: CouplingParams, piece: ExtractedPiece, candidates: list[ExtractedPiece]
) -> tuple[str, bool]:
    """The piece one level up holding the image of ``piece``, among the
    ``candidates`` carrying its shifted itinerary, and whether that needed
    tie-breaking."""
    if not candidates:
        raise CoupledError(f"no image cylinder for {piece.label!r}")
    if len(candidates) == 1:
        return candidates[0].label, False
    images = [img for b in piece.boxes if (img := image_box(p, b).intersection(UNIT_SQUARE))]
    overlaps: list[tuple[Fraction, int, str]] = []
    for q in candidates:
        cuts = [cut for img in images for target in q.boxes if (cut := img.intersection(target))]
        overlaps.append((sum(cut.area() for cut in cuts), len(cuts), q.label))
    overlaps.sort(key=lambda t: (-t[0], -t[1], t[2]))
    best, runner = overlaps[0], overlaps[1]
    if best[:2] == runner[:2]:
        raise CoupledError(f"unresolvable image assignment for {piece.label!r}: "
                           f"tie between {best[2]!r} and {runner[2]!r}")
    return best[2], runner[0] > 0  # flagged when the outer slop touched a second component


# -- entropy-flavored upper estimates ------------------------------------------


def boundary_entropy_estimate(p: CouplingParams, n_range: Sequence[int], resolution: int) -> RateTable:
    """Number of distinct length-n itineraries realized by grid boxes

    meeting the partition boundary; an outer upper-estimate table.
    """
    n = _grid_size(resolution)
    ends = {0, n // 2 - 1, n // 2, n - 1}  # grid rows and columns on an axis or the frame
    row = sum(1 << j for j in ends)
    edge = sum(((1 << n) - 1 if i in ends else row) << i * n for i in range(n))
    covers_by_depth = _covers_by_depth(p, n_range, resolution)
    counts = [(depth, sum(1 for part in covers.values() if part & edge)) for depth, covers in covers_by_depth]
    return _rate_table(counts, exact=False)


def multiplicity_estimate(p: CouplingParams, n_range: Sequence[int], resolution: int) -> dict[int, int]:
    """Max number of cylinder covers whose closure shares a point, per depth.

    Evaluated at grid corners, where incidences of an aligned tiling
    peak; an upper estimate within the outer approximation.  A cover's
    cells are laid out again on rows one bit wider, as the grid has one
    more corner than cells per row.
    """
    out = {}
    n = _grid_size(resolution)
    width = n + 1  # corner (i, j) of the grid is bit i * width + j
    for depth, covers in _covers_by_depth(p, n_range, resolution):
        more: list[int] = []  # more[t]: the corners in more than t of the covers read
        for part in covers.values():
            cells = sum((part >> i * n & (1 << n) - 1) << i * width for i in range(n))
            corners = cells | cells << 1
            corners |= corners << width
            more = [grown for old, below in zip([*more, 0], [-1, *more]) if (grown := old | below & corners)]
        out[depth] = len(more)
    return out


# -- symbolic orbit polynomials -------------------------------------------------


def iterate_polynomial(p: CouplingParams, k: int) -> RationalPolynomial:
    """The polynomial whose roots are the x with the x-coordinate of the

    k-th image of (x, 0) equal to zero; built by exact coordinate
    iteration on ``int`` coefficient lists over one denominator, as in :func:`_step`.
    """
    if _int("k", k) < 1:
        raise CoupledError("k must be >= 1")
    (a, b, c, half), lcd = _common((p.a, p.b, p.c, HALF))
    X, Y, denom = [0, 1], [0], 1
    for _ in range(k):
        X2, Y2 = _product(X, X), _product(Y, Y)
        d2 = denom * denom
        X, Y = _quadratic(a, X2, c, Y2, (a - half) * d2), _quadratic(b, Y2, c, X2, (b - half) * d2)
        denom = lcd * d2
    return RationalPolynomial([Fraction(x, denom) for x in X])


def _quadratic(main: int, S2: list[int], c: int, T2: list[int], constant: int) -> list[int]:
    """``constant - 4 main S2 + c T2``."""
    out = [c * t - 4 * main * s for s, t in zip_longest(S2, T2, fillvalue=0)]
    out[0] += constant
    return out


# -- 1d reference pipeline (product checks) -------------------------------------


def component_counts_1d(
    alpha: Fraction, depth: int, resolution: int, gap: Fraction | None = None
) -> list[int]:
    """Component counts per level 1..depth of the 1d pipeline ``t -> a(1-4t^2) - 1/2``,
    the x-coordinate of the coupled map with ``a = alpha``, ``c = 0``.  Cell ``i`` is
    bit ``i * 2^res``, the 2-D cell ``(i, 0)``: all cells share one y-interval."""
    gap = _positive_gap(gap, resolution)
    if _int("depth", depth) < 1:
        raise CoupledError("depth must be >= 1")
    step = _map_step((_exact(alpha),), Fraction(0))
    masks = _grid_options(step, 1, depth, resolution)
    return [len(level) for level in _level_walk(masks, _grid_components(resolution, gap), -1)]


def component_counts_2d(build: PuzzleBuild) -> list[int]:
    p = build.puzzle
    return [len(p.level(n)) for n in range(1, p.depth + 1)]
