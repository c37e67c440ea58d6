import importlib.util
import json
import math
import random
from fractions import Fraction
from functools import cache, partial
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import pytest

from qfpuzzles.cli import main
from qfpuzzles.coupled import (
    HALF,
    ROOT,
    Box,
    CoupledError,
    CouplingParams,
    ExtractedPiece,
    Itinerary,
    PuzzleBuild,
    Step,
    UNIT_SQUARE,
    almost_connected_components,
    boundary_entropy_estimate,
    boundary_return_counts,
    build_puzzle,
    component_counts_1d,
    component_counts_2d,
    default_gap,
    image_box,
    iterate_polynomial,
    multiplicity_estimate,
    refine_cylinders,
    _cell_options,
    _exact,
    _find,
    _grid,
    _grid_boxes,
    _grid_components,
    _grid_options,
    _grid_size,
    _image_piece,
    _level_walk,
    _ivl_intersect,
    _map_step,
    _members,
    _positive_gap,
)
from qfpuzzles.polys import RationalPolynomial, sylvester_resultant
from qfpuzzles.puzzle import Puzzle

H = Fraction(1, 2)


def dyadic_grid(resolution: int) -> list[Box]:
    """The square tiled by ``2^resolution x 2^resolution`` dyadic boxes."""
    return _grid_boxes(resolution)


GridCell = tuple[int, ...]  # grid index (i, j) with i along x, or (i,) in 1-D


def bit_of(cell: GridCell, width: int) -> int:
    """The bit of a grid cell in a mask with rows ``width`` bits wide: ``i * width + j``
    for ``(i, j)``, and ``i * width`` for ``(i,)``."""
    return cell[0] * width + sum(cell[1:])


def masks_of(cells, depth, width):
    """The mask table of :func:`_grid_options` from per-cell option lists: ``masks[n][word]``
    has the bit of each cell with ``word`` among its ``n``-th options, set one cell at a time."""
    masks = [{} for _ in range(depth)]
    for cell, options in cells:
        bit = 1 << bit_of(cell, width)
        for words, option in zip(masks, options):
            for word in option:
                words[word] = words.get(word, 0) | bit
    return masks


def options_of(masks, cells, width):
    """The inverse of :func:`masks_of`: each of ``cells`` with, per iterate, the words
    whose mask holds its bit, in ``itertools.product`` order.  A cell's iterates are
    contiguous: one that is in no mask of an iterate is in none of a later one."""
    held = [{word: {b for b, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"}
             for word, mask in words.items()} for words in masks]
    out = []
    for cell in cells:
        b = bit_of(cell, width)
        options = [tuple(w for w in ("PP", "PN", "NP", "NN", "P", "N") if b in bits.get(w, ())) for bits in held]
        depth = options.index(()) if () in options else len(options)
        assert not any(options[depth:]), (cell, options)
        out.append((cell, options[:depth]))
    return out


def options_1d(alpha, depth, resolution):
    """The mask table of ``t -> a(1-4t^2) - 1/2`` for ``a = alpha``, as :func:`component_counts_1d`
    walks it."""
    return _grid_options(_map_step((_exact(alpha),), Fraction(0)), 1, depth, resolution)


def cell_options(p, depth, resolution):
    """Every grid index ``(i, j)``, in ``product`` order, with its options under the
    coupled map, read back from the mask table of :func:`_cell_options`."""
    n = 2**resolution
    return options_of(_cell_options(p, depth, resolution), product(range(n), repeat=2), n)


def cell_options_1d(alpha, depth, resolution):
    """Every grid index ``(i,)`` with its options, read back from :func:`options_1d`."""
    n = 2**resolution
    return options_of(options_1d(alpha, depth, resolution), [(i,) for i in range(n)], n)


def refine_cylinders_1d(alpha: Fraction, depth: int, resolution: int) -> dict[tuple[str, ...], tuple]:
    """1d analogue of :func:`refine_cylinders` for ``t -> a(1-4t^2) - 1/2``,
    with cell ``i`` at bit ``i * 2^res``, as :func:`component_counts_1d` walks it."""
    n = _grid_size(resolution)
    *_, covers = _level_walk(options_1d(alpha, depth, resolution), lambda part: [part], -1)
    by_bit = [iv for iv in _grid(resolution) for _ in range(n)]  # cell (i, 0) is bit i * n
    return {itin: tuple(_members(part, by_bit)) for itin, part, _ in covers}


DECOUPLED = CouplingParams.make(1, 1, 0)
_SIGN = {"P": (Fraction(0), H), "N": (-H, Fraction(0))}


def block_size(resolution, gap):
    """``ceil(gap / cell width)``: grid cells within the gap are at most this many cells apart."""
    return math.ceil(gap * 2**resolution)


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
        Box((-H, H), z),
        Box(z, (-H, H)),
        Box((-H, H), (-H, -H)),
        Box((-H, H), (H, H)),
        Box((-H, -H), (-H, H)),
        Box((H, H), (-H, H)),
    ]


def test_image_of_unit_square_is_unit_square():
    assert image_box(DECOUPLED, UNIT_SQUARE) == UNIT_SQUARE


def test_image_of_origin_point():
    point = Box((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    img = image_box(DECOUPLED, point)
    assert img == Box((H, H), (H, H))


def test_decoupled_image_is_product_of_1d_images():
    box = Box((Fraction(1, 8), Fraction(1, 4)), (-Fraction(1, 3), Fraction(0)))
    img = image_box(DECOUPLED, box)
    # x-range of 1/2 - 4t^2 over [1/8, 1/4]: [1/2 - 1/4, 1/2 - 1/16]
    assert img.x == (Fraction(1, 4), Fraction(7, 16))
    # y-range over [-1/3, 0]: squares in [0, 1/9]
    assert img.y == (Fraction(1, 2) - Fraction(4, 9), H)


def test_coupling_shifts_image():
    coupled = CouplingParams.make(Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))
    box = Box((Fraction(0), Fraction(1, 4)), (Fraction(0), Fraction(1, 2)))
    img = image_box(coupled, box)
    assert img.x[1] == Fraction(1, 2) * 1 + Fraction(1, 4) * Fraction(1, 4) - H


def test_domain_check():
    assert CouplingParams.make(Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)).in_domain()
    assert not DECOUPLED.in_domain()


def test_sign_partition_covers_square():
    quads = sign_partition()
    assert len(quads) == 4
    assert quads["PP"] == Box((Fraction(0), H), (Fraction(0), H))
    # union covers: every grid cell touches some quadrant
    for cell in dyadic_grid(3):
        assert any(cell.touches(q) for q in quads.values())


def test_boundary_pieces_are_axes_and_frame():
    edges = boundary_pieces()
    assert len(edges) == 6
    assert Box((-H, H), (Fraction(0), Fraction(0))) in edges


def test_refine_depth_one_matches_quadrants():
    covers = refine_cylinders(DECOUPLED, 1, 4)
    assert sorted(covers) == [("NN",), ("NP",), ("PN",), ("PP",)]
    quads = sign_partition()
    for (sym,), boxes in covers.items():
        for box in boxes:
            assert box.touches(quads[sym])


def test_refine_nesting():
    shallow = refine_cylinders(DECOUPLED, 1, 5)
    deep = refine_cylinders(DECOUPLED, 2, 5)
    for itin, boxes in deep.items():
        parent = itin[:1]
        assert set(boxes) <= set(shallow[parent])


def test_refine_cover_grows_with_resolution():
    coarse = sum(len(b) for b in refine_cylinders(DECOUPLED, 2, 4).values())
    fine = sum(len(b) for b in refine_cylinders(DECOUPLED, 2, 5).values())
    assert fine >= coarse


def test_outer_approximation_soundness():
    # The bounding-box image of every cover box must touch the cover of
    # the shifted itinerary (outer soundness in the merge direction).
    covers = refine_cylinders(DECOUPLED, 2, 5)
    quads = sign_partition()
    for itin, boxes in covers.items():
        for box in boxes:
            img = image_box(DECOUPLED, box).intersection(UNIT_SQUARE)
            assert img is not None
            assert img.touches(quads[itin[1]])


def reference_covers(p, depth, resolution):
    """Covers from the Box loop, one depth at a time: each grid box clips its
    iterates to the square and takes every quadrant they touch."""
    quads = sign_partition()
    covers = {}
    for cell in dyadic_grid(resolution):
        itins, img = [()], cell
        for _ in range(depth):
            clipped = img.intersection(UNIT_SQUARE)
            if clipped is None:
                break
            itins = [w + (q,) for w in itins for q in quads if clipped.touches(quads[q])]
            img = image_box(p, clipped)
        else:
            for w in itins:
                covers.setdefault(w, []).append(cell)
    return {w: tuple(boxes) for w, boxes in sorted(covers.items())}


ORACLE_PARAMS = [
    (1, 1, 0),
    (Fraction(9, 10), Fraction(9, 10), Fraction(1, 20)),
    (Fraction(7, 8), Fraction(5, 8), Fraction(-1, 4)),
    (3, 3, 0),  # the rest leave the domain: orbits escape the square
    (Fraction(3, 2), Fraction(1, 2), Fraction(1, 4)),
    (2, 1, 1),
]


@pytest.mark.parametrize("abc", ORACLE_PARAMS)
def test_refine_matches_box_loop_reference(abc):
    p = CouplingParams.make(*abc)
    for resolution in (3, 4):
        for depth in (1, 2, 3):
            assert refine_cylinders(p, depth, resolution) == reference_covers(p, depth, resolution)


@pytest.mark.parametrize("alpha", sorted({Fraction(a) for a, _, _ in ORACLE_PARAMS}))
def test_refine_1d_is_x_coordinate_of_box_loop_reference(alpha):
    # With c = 0 and b = 1 the y-dynamics keep the square, so a box
    # survives exactly when its x-interval does.
    p = CouplingParams.make(alpha, 1, 0)
    for resolution in (3, 4):
        for depth in (1, 2, 3):
            projected = {}
            for w, boxes in reference_covers(p, depth, resolution).items():
                projected.setdefault(tuple(q[0] for q in w), set()).update(b.x for b in boxes)
            expected = {w: tuple(sorted(xs)) for w, xs in sorted(projected.items())}
            assert refine_cylinders_1d(alpha, depth, resolution) == expected


# -- the Fraction cell iterates as first written: the oracle of the integer path


def _ivl_scale(s, iv):
    a, b = s * iv[0], s * iv[1]
    return (a, b) if a <= b else (b, a)


def _ivl_square(iv):
    lo, hi = iv
    if lo <= 0 <= hi:
        return (Fraction(0), max(lo * lo, hi * hi))
    cands = (lo * lo, hi * hi)
    return (min(cands), max(cands))


def _coord(main, c, m2, o2):
    """Range of ``main * (1 - 4 s) + c * t - 1/2`` over ``s`` in m2, ``t`` in o2."""
    lo, hi = _ivl_scale(main, (1 - 4 * m2[1], 1 - 4 * m2[0]))
    clo, chi = _ivl_scale(c, o2)
    return (lo + clo - HALF, hi + chi - HALF)


def _image(p, cell):
    x2, y2 = _ivl_square(cell[0]), _ivl_square(cell[1])
    return (_coord(p.a, p.c, x2, y2), _coord(p.b, p.c, y2, x2))


def reference_options(cell, step, depth):
    """Sign words touched by the first ``depth`` iterates of a cell.

    Iterate ``k`` is ``step`` applied to iterate ``k - 1`` clipped to
    ``[-1/2, 1/2]`` in each coordinate; its word lists, in
    ``itertools.product`` order, every choice of ``P`` (the coordinate
    reaches ``>= 0``) or ``N`` (``<= 0``) per coordinate.  The list stops
    at the first iterate that misses the square, so a cell whose first
    ``n`` iterates stay in it has at least ``n`` entries.
    """
    options = []
    while len(options) < depth:
        if options:
            cell = step(cell)
        cell = tuple(_ivl_intersect(iv, (-HALF, HALF)) for iv in cell)
        if None in cell:
            break
        contacts = [[s for s, hit in (("P", hi >= 0), ("N", lo <= 0)) if hit] for lo, hi in cell]
        options.append(["".join(word) for word in product(*contacts)])
    return options


def reference_cell_options(p, depth, resolution):
    """Every grid cell with its :func:`reference_options` under the coupled map.  The
    Fraction step is memoised by the exact clipped cell within this call: cells share
    a step only when their inputs are equal."""
    step = cache(partial(_image, p))
    return [(box, reference_options((box.x, box.y), step, depth)) for box in dyadic_grid(resolution)]


def reference_cell_options_1d(alpha, depth, resolution):
    """Every grid interval with its :func:`reference_options` under ``t -> a(1-4t^2) - 1/2``,

    the x-coordinate of the coupled map with ``a = alpha``, ``c = 0``.
    """
    if depth < 1:
        raise CoupledError("depth must be >= 1")

    def step(cell):
        sq = _ivl_square(cell[0])
        return (_coord(alpha, 0, sq, sq),)

    return [(iv, reference_options((iv,), step, depth)) for iv in _grid(resolution)]


def as_reference(cells, resolution):
    """Integer-path ``(grid index, options)`` pairs as reference ``(box or interval, options)``."""
    ivs = _grid(resolution)
    return [
        (Box(*(ivs[i] for i in cell)) if len(cell) == 2 else ivs[cell[0]], [list(w) for w in options])
        for cell, options in cells
    ]


def sweep_universe():
    """The coupled-sweep grid: a, b, c in k/8; c = 0 only with a = b, else in_domain()."""
    grid = [Fraction(k, 8) for k in range(1, 8)]
    for a, b, c in product(grid, grid, [Fraction(0), *grid]):
        if (c == 0 and a == b) or (c > 0 and CouplingParams.make(a, b, c).in_domain()):
            yield a, b, c


def test_cell_options_match_fraction_reference_on_sweep_universe():
    points = list(sweep_universe())
    assert len(points) == 298  # the 290 benchmark draws and the 8 it leaves out
    for abc in points:
        p = CouplingParams.make(*abc)
        assert as_reference(cell_options(p, 3, 4), 4) == reference_cell_options(p, 3, 4), abc


@pytest.mark.parametrize("abc", ORACLE_PARAMS)
def test_cell_options_match_fraction_reference(abc):
    p = CouplingParams.make(*abc)
    for resolution in range(1, 6):
        for depth in range(1, 5):
            got = as_reference(cell_options(p, depth, resolution), resolution)
            assert got == reference_cell_options(p, depth, resolution), (resolution, depth)


@pytest.mark.parametrize("alpha", sorted({Fraction(a) for a, _, _ in ORACLE_PARAMS}))
def test_cell_options_1d_match_fraction_reference(alpha):
    for resolution in range(1, 6):
        for depth in range(1, 5):
            got = as_reference(cell_options_1d(alpha, depth, resolution), resolution)
            assert got == reference_cell_options_1d(alpha, depth, resolution), (resolution, depth)


@pytest.mark.parametrize("abc", ORACLE_PARAMS)
def test_image_box_matches_fraction_reference(abc):
    # Odd and mixed denominators: the box's common denominator need not be even.
    p = CouplingParams.make(*abc)
    rng = random.Random(f"image:{abc}")

    def interval():
        return sorted(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))

    for _ in range(200):
        box = Box(interval(), interval())
        assert image_box(p, box) == Box(*_image(p, (box.x, box.y))), box
        x, y = box.x[0], box.y[1]
        assert p.apply(x, y) == tuple(iv[0] for iv in _image(p, ((x, x), (y, y))))


def test_batched_step_matches_fraction_reference_on_mixed_signs():
    # No oracle point has a < 0 or b < 0: every sign of a, b and c, on columns mixing
    # cells that straddle 0 (ends at 0 included), lie below it or lie above it.
    rng = random.Random("batched-step")

    def straddle(m):
        return -rng.randint(0, m), rng.randint(0, m)

    def positive(m):
        return tuple(sorted(rng.randint(1, m) for _ in range(2)))

    def negative(m):
        lo, hi = positive(m)
        return -hi, -lo

    for signs in product((1, -1), repeat=3):
        a, b, c = (s * Fraction(rng.randint(1, 9), rng.randint(1, 9)) for s in signs)
        p, denom = CouplingParams.make(a, b, c), rng.choice([1, 3, 8, 15])
        cells = [(kx(3 * denom), ky(3 * denom)) for kx, ky in product((straddle, positive, negative), repeat=2)] * 3
        for dim, step in ((2, _map_step((a, b), c)), (1, _map_step((a,), Fraction(0)))):
            columns = [([cell[k][0] for cell in cells], [cell[k][1] for cell in cells]) for k in range(dim)]
            image, d = step(columns, denom)
            for at, cell in enumerate(cells):  # the reference, one cell at a time
                box = tuple((Fraction(lo, denom), Fraction(hi, denom)) for lo, hi in cell)
                sq = _ivl_square(box[0])
                want = _image(p, box) if dim == 2 else (_coord(a, 0, sq, sq),)
                assert tuple((Fraction(los[at], d), Fraction(his[at], d)) for los, his in image) == want, (signs, cell)


# -- components and estimators against the Box loop ----------------------------


def reference_build(covers, depth, gap):
    """Levels 1..depth of ``(label, itinerary, boxes)`` from ``covers[n] =
    reference_covers(p, n, resolution)``: the boxes whose first ``depth`` iterates
    stay in the square, grouped per cover by the public
    :func:`almost_connected_components`."""
    survivors = {b for boxes in covers[depth].values() for b in boxes}
    levels = []
    for n in range(1, depth + 1):
        level = []
        for itin, boxes in covers[n].items():
            kept = [b for b in boxes if b in survivors]
            if kept:
                for ci, comp in enumerate(almost_connected_components(kept, gap)):
                    level.append(("-".join(itin) + f"/{ci}", itin, comp))
        levels.append(level)
    return levels


def reference_boundary(p, n_range, resolution):
    edges = boundary_pieces()
    return [
        sum(
            any(b.touches(e) for b in boxes for e in edges)
            for boxes in reference_covers(p, n, resolution).values()
        )
        for n in n_range
    ]


def reference_multiplicity(p, n_range, resolution):
    out = {}
    for n in n_range:
        incidence = {}
        for itin, boxes in reference_covers(p, n, resolution).items():
            for box in boxes:
                for corner in product(box.x, box.y):
                    incidence.setdefault(corner, set()).add(itin)
        out[n] = max((len(s) for s in incidence.values()), default=0)
    return out


def pairwise_components(boxes, gap):
    """Components of the graph "distance < gap" by flood fill over all pairs,
    ordered as :func:`almost_connected_components` promises."""
    comps, left = [], list(boxes)
    while left:
        comp = [left.pop(0)]
        for box in comp:  # grows while it is read
            near = [other for other in left if box.distance(other) < gap]
            left = [other for other in left if other not in near]
            comp.extend(near)
        comps.append(tuple(sorted(comp, key=lambda b: (b.x, b.y))))
    return sorted(comps, key=lambda comp: (comp[0].x, comp[0].y))


def oracle_gaps(resolution):
    """The default gap, gaps off the grid's spacing, and 1/n, 2/n, at which
    cells of one cover often sit exactly one gap apart."""
    n = 2**resolution
    return [default_gap(resolution), Fraction(3, 7), Fraction(1, 3 * n), Fraction(1),
            Fraction(1, n), Fraction(2, n)]


@pytest.mark.parametrize("abc", ORACLE_PARAMS)
def test_build_puzzle_matches_box_loop_reference(abc):
    p = CouplingParams.make(*abc)
    for resolution in (2, 3, 4):
        covers = {n: reference_covers(p, n, resolution) for n in (1, 2, 3)}
        for gap in oracle_gaps(resolution):
            for depth in (1, 2, 3):
                build = build_puzzle(p, depth, resolution, gap)
                label = build.puzzle.label
                got = [
                    [(q.label, q.itinerary, q.boxes)
                     for q in (build.pieces[label(v)] for v in build.puzzle.level(n))]
                    for n in range(1, depth + 1)
                ]
                assert got == reference_build(covers, depth, gap), (resolution, gap, depth)


def test_components_of_sparse_grid_cells_match_pairwise_grouping():
    # Random cell sets put many pairs exactly one gap apart, in x and in y.
    rng = random.Random("sparse-cells")
    for resolution in (3, 4):
        grid = dyadic_grid(resolution)
        for gap in oracle_gaps(resolution):
            for density in (0.05, 0.15, 0.3):
                boxes = [b for b in grid if rng.random() < density]
                rng.shuffle(boxes)
                assert almost_connected_components(boxes, gap) == pairwise_components(boxes, gap), gap


@pytest.mark.parametrize("abc", ORACLE_PARAMS)
def test_components_match_pairwise_grouping(abc):
    p = CouplingParams.make(*abc)
    for resolution in (3, 4):
        for gap in oracle_gaps(resolution):
            for boxes in refine_cylinders(p, 2, resolution).values():
                assert almost_connected_components(boxes, gap) == pairwise_components(boxes, gap), gap
            want = [
                sum(len(pairwise_components([Box(iv, (0, 0)) for iv in ivs], gap))
                    for ivs in refine_cylinders_1d(p.a, n, resolution).values())
                for n in (1, 2)
            ]
            assert component_counts_1d(p.a, 2, resolution, gap) == want, gap


# -- the level walk against the label-resolving build it replaced ----------------


def reference_covers_from_options(cells, n):
    """Covers of the depth-``n`` cylinders by the cells with >= n options,
    each cell under every itinerary of its first ``n`` option lists."""
    covers = {}
    for cell, options in cells:
        if len(options) >= n:
            for itin in product(*options[:n]):
                covers.setdefault(itin, []).append(cell)
    return {itin: tuple(members) for itin, members in sorted(covers.items())}


def reference_containing_piece(piece, cells, home_of):
    want = piece.itinerary[:-1]
    homes = {home_of.get((want, cell)) for cell in cells}
    if len(homes) != 1 or None in homes:
        raise CoupledError(
            f"unresolvable containment for {piece.label!r}: candidates {sorted(filter(None, homes))}"
        )
    return homes.pop()


def reference_build_puzzle(p, depth, resolution, gap=None):
    """:func:`build_puzzle` as first written: every level rebuilt from the
    cover expansion, ``i`` searched for by containment, labels resolved by
    the public :class:`Puzzle` constructor."""
    if depth < 1:
        raise CoupledError("depth must be >= 1")
    gap = _positive_gap(gap, resolution)
    cells = [c for c in cell_options(p, depth, resolution) if len(c[1]) == depth]
    box_of = grid_box_index(resolution)[0]
    root = ExtractedPiece(ROOT, (), (UNIT_SQUARE,))
    by_level = [{(): [(root, tuple(cell for cell, _ in cells))]}]
    for n in range(1, depth + 1):
        by_level.append({
            itin: [
                (ExtractedPiece("-".join(itin) + f"/{ci}", itin, tuple(box_of[c] for c in comp)), comp)
                for ci, comp in enumerate(reference_grid_components(members, block_size(resolution, gap)))
            ]
            for itin, members in reference_covers_from_options(cells, n).items()
        })
    levels = [[q.label for group in level.values() for q, _ in group] for level in by_level]
    pieces = {q.label: q for level in by_level for group in level.values() for q, _ in group}
    i_map, f_map, ambiguous = {}, {}, []
    for parents, level in zip(by_level, by_level[1:]):
        home_of = {
            (itin, c): q.label for itin, group in parents.items() for q, comp in group for c in comp
        }
        for itin, group in level.items():
            candidates = [q for q, _ in parents.get(itin[1:], ())]
            for piece, comp in group:
                i_map[piece.label] = reference_containing_piece(piece, comp, home_of)
                f_map[piece.label], flagged = _image_piece(p, piece, candidates)
                if flagged:
                    ambiguous.append(piece.label)
    return PuzzleBuild(Puzzle(levels, i_map, f_map, name="coupled"), pieces, tuple(ambiguous))


def build_outcome(build, *args):
    """What a build shows: the puzzle's JSON, the flagged pieces and every
    piece in order, or the text of the :class:`CoupledError` it raises."""
    try:
        got = build(*args)
    except CoupledError as exc:
        return str(exc)
    pieces = [(q.label, q.itinerary, q.boxes) for q in got.pieces.values()]
    return got.puzzle.to_json(), got.ambiguous, pieces


# The sweep-universe points where build_puzzle(depth 3, res 4) finds no
# image cylinder; the coupled-sweep benchmark leaves them out.
COUPLED_UNRESOLVED = {
    (Fraction(a), Fraction(b), Fraction(c)) for a, b, c in [
        ("3/8", "5/8", "7/8"), ("3/8", "3/4", "5/8"), ("3/8", "3/4", "3/4"), ("3/8", "3/4", "7/8"),
        ("5/8", "3/8", "7/8"), ("3/4", "3/8", "5/8"), ("3/4", "3/8", "3/4"), ("3/4", "3/8", "7/8"),
    ]
}


def test_build_puzzle_matches_reference_build_puzzle_on_sweep_universe():
    raised = set()
    for abc in sweep_universe():
        p = CouplingParams.make(*abc)
        got = build_outcome(build_puzzle, p, 3, 4)
        assert got == build_outcome(reference_build_puzzle, p, 3, 4), abc
        if isinstance(got, str):
            assert got.startswith("no image cylinder for "), abc
            raised.add(abc)
    assert raised == COUPLED_UNRESOLVED


@pytest.mark.parametrize("abc", ORACLE_PARAMS)
def test_build_puzzle_matches_reference_build_puzzle_on_oracle_params(abc):
    p = CouplingParams.make(*abc)
    for resolution in (2, 3, 4):
        for gap in oracle_gaps(resolution):
            for depth in (1, 2, 3):
                args = (p, depth, resolution, gap)
                assert build_outcome(build_puzzle, *args) == build_outcome(reference_build_puzzle, *args), args


def test_build_puzzle_matches_reference_build_puzzle_at_d3_r7():
    p = CouplingParams.make(Fraction(9, 10), Fraction(9, 10), Fraction(1, 20))
    got = build_outcome(build_puzzle, p, 3, 7)
    assert got == build_outcome(reference_build_puzzle, p, 3, 7)
    assert [len(level) for level in got[0]["levels"]] == [1, 4, 16, 64]


@pytest.mark.parametrize("c", [Fraction(3, 4), Fraction(7, 8)])
def test_build_puzzle_matches_reference_build_puzzle_where_components_interleave(c):
    # Here a cover has a component whose first cell comes before another's
    # and whose last cell comes after it: labels follow the first cell.
    p = CouplingParams.make(Fraction(1, 8), Fraction(3, 4), c)
    for gap in (Fraction(1, 8), Fraction(1, 24)):
        for depth in (1, 2, 3):
            assert build_outcome(build_puzzle, p, depth, 3, gap) == build_outcome(
                reference_build_puzzle, p, depth, 3, gap), (gap, depth)


def test_flagged_image_assignments_are_pinned():
    # Out of the domain, the outer slop of every level-2 piece touches a
    # second image component; the maximal overlap picks its f.
    p = CouplingParams.make(Fraction(3, 2), Fraction(1, 2), Fraction(1, 4))
    build = build_puzzle(p, 3, 4, Fraction(1, 16))
    image = {"NN": "NN/1", "NP": "NP/1", "PN": "PN/0", "PP": "PP/0"}  # f by the second word
    want = {f"{s}-{t}/0": image[t] for s in image for t in image}
    assert build.ambiguous == tuple(want)
    puzzle = build.puzzle
    assert {label: puzzle.label(puzzle.f(puzzle.id_of(label))) for label in build.ambiguous} == want


def test_no_image_cylinder_at_res_4_and_a_valid_build_at_res_5(capsys):
    # ``NN-NN-PP/0`` needs an image in a depth-2 cylinder that no res-4
    # grid cell realizes; at res 5 the same point builds.
    p = CouplingParams.make(Fraction(3, 8), Fraction(5, 8), Fraction(7, 8))
    with pytest.raises(CoupledError, match=r"^no image cylinder for 'NN-NN-PP/0'$"):
        build_puzzle(p, 3, 4)
    status = main(["coupled", "build", "--a", "3/8", "--b", "5/8", "--c", "7/8",
                   "--depth", "3", "--res", "4"])
    out = capsys.readouterr()
    assert (status, out.out) == (2, "")
    assert out.err == "precondition violation: no image cylinder for 'NN-NN-PP/0'\n"
    build = build_puzzle(p, 3, 5)
    assert build.puzzle.validate().ok
    assert [len(build.puzzle.level(n)) for n in range(4)] == [1, 4, 12, 28]
    assert len(build.pieces) == 45 and build.ambiguous == ()


# -- the mirror and block fast paths against the per-cell loop and the sweep


# The sign words of one iterate, keyed by the contacts of each coordinate
# ("P", "N" or "PN"), in ``itertools.product`` order.
WORDS = {
    signs: tuple("".join(word) for word in product(*signs))
    for dim in (1, 2)
    for signs in product(("P", "N", "PN"), repeat=dim)
}


def per_cell_options(cell: Sequence[tuple[int, int]], denom: int, step: Step, depth: int) -> list[tuple[str, ...]]:
    """Sign words touched by the first ``depth`` iterates of a cell, one cell at a time:
    the integer per-cell route that the mask table's product rule replaced.

    ``cell`` holds interval numerators over ``denom``.  Iterate ``k`` is
    ``step`` applied to iterate ``k - 1`` clipped to ``[-1/2, 1/2]`` in
    each coordinate; its word lists, in ``itertools.product`` order, every
    choice of ``P`` (the coordinate reaches ``>= 0``) or ``N`` (``<= 0``)
    per coordinate.  The list stops at the first iterate that misses the
    square, so a cell whose first ``n`` iterates stay in it has at least
    ``n`` entries.
    """
    options: list[tuple[str, ...]] = []
    while len(options) < depth:
        if options:  # the cell alone, as one-element columns
            columns, denom = step([([lo], [hi]) for lo, hi in cell], denom)
            cell = [(lo, hi) for (lo,), (hi,) in columns]
        r = denom // 2
        cell = [(lo if lo > -r else -r, hi if hi < r else r) for lo, hi in cell]
        if any(lo > hi for lo, hi in cell):
            break
        options.append(WORDS[tuple(["P" * (hi >= 0) + "N" * (lo <= 0) for lo, hi in cell])])
    return options


def per_cell_grid_options(step, dim, depth, resolution):
    """Every grid index, in ``product`` order, with the :func:`per_cell_options` of its cell."""
    n = _grid_size(resolution)
    return [
        (cell, per_cell_options(tuple((i - n // 2, i + 1 - n // 2) for i in cell), n, step, depth))
        for cell in product(range(n), repeat=dim)
    ]


@pytest.mark.parametrize("abc", ORACLE_PARAMS)
def test_mirror_cells_share_tails_and_match_per_cell_options(abc):
    p = CouplingParams.make(*abc)
    for dim, step in ((2, _map_step((p.a, p.b), p.c)), (1, _map_step((p.a,), Fraction(0)))):
        for resolution in range(1, 7):
            n = 2**resolution
            for depth in range(1, 5):
                want = per_cell_grid_options(step, dim, depth, resolution)
                got = _grid_options(step, dim, depth, resolution)
                assert got == masks_of(want, depth, n), (dim, resolution, depth)
                assert options_of(got, [cell for cell, _ in want], n) == want
                options = dict(want)
                for cell, opts in want:
                    for mirrored in product(*({i, n - 1 - i} for i in cell)):
                        assert options[mirrored][1:] == opts[1:], (cell, mirrored)


def test_grid_boxes_match_validating_constructor():
    for resolution in range(1, 7):
        ivs = _grid(resolution)
        want = [Box(ivs[i], ivs[j]) for i, j in product(range(len(ivs)), repeat=2)]  # cell (i, j) at i * n + j
        got = _grid_boxes(resolution)
        assert got == want, resolution
        assert all(type(v) is Fraction for box in got for v in (*box.x, *box.y))
        assert [hash(box) for box in got] == [hash(box) for box in want]
    assert _grid(2) == [(-H, Fraction(-1, 4)), (Fraction(-1, 4), 0), (0, Fraction(1, 4)), (Fraction(1, 4), H)]


@cache
def grid_box_index(resolution):
    """Each grid cell's ``Box``, and each such box's cell by object identity."""
    n = _grid_size(resolution)
    box_of = dict(zip(product(range(n), repeat=2), _grid_boxes(resolution)))
    return box_of, {id(box): cell for cell, box in box_of.items()}


def sweep_grid_components(cells, resolution, gap):
    """The grid cells grouped by the rectangle sweep of the public
    :func:`almost_connected_components`, through their ``Box`` values."""
    box_of, cell_of = grid_box_index(resolution)
    comps = almost_connected_components([box_of[c] for c in cells], gap)
    return [tuple(cell_of[id(b)] for b in comp) for comp in comps]


# -- the mask walk and components against the cell-list route they replaced


def reference_level_walk(
    cells: Sequence[tuple[GridCell, Sequence[tuple[str, ...]]]], depth: int,
    split: Callable[[list[GridCell]], Iterable[Sequence[GridCell]]],
) -> Iterator[list[tuple[Itinerary, Sequence[GridCell], int]]]:
    """Levels 1..``depth`` of the cylinder covers by the ``(grid index,
    options)`` pairs ``cells``, as lists of ``(itinerary, part, position of
    the parent part in the level before)``.

    Level ``n`` cuts each part of level ``n - 1`` (level 0: every cell) by
    the cells' ``n``-th sign word, and ``split`` divides each group into
    parts; a cell with fewer than ``n`` options drops out.  As
    ``cover(w·a)`` lies inside ``cover(w)``, a component of a child cover
    lies inside one component of its parent.  Parts come in itinerary
    order, then by first cell.
    """
    options = dict(cells)
    level = [((), list(options), None)]
    for n in range(depth):
        cut = []
        for at, (itin, part, _) in enumerate(level):
            groups: dict[str, list[GridCell]] = {}
            for cell in part:
                if len(options[cell]) > n:
                    for word in options[cell][n]:
                        groups.setdefault(word, []).append(cell)
            cut.extend((itin + (word,), piece, at)
                       for word, group in groups.items() for piece in split(group))
        level = sorted(cut, key=lambda t: (t[0], t[1][0]))
        yield level


def reference_grid_components(cells: Sequence[GridCell], k: int) -> list[tuple[GridCell, ...]]:
    """:func:`almost_connected_components` of the 2-D grid cells at these
    indices, for the block size ``k`` of :func:`block_size`.  The cells of
    one ``k x k`` block are always within the gap, so union-find runs over
    blocks, and a block meets only its 4 forward neighbours, in a pair test
    that stops at its first pair within ``k``."""
    cells = sorted(cells)
    blocks: dict[tuple[int, int], list[GridCell]] = {}
    for i, j in cells:
        blocks.setdefault((i // k, j // k), []).append((i, j))
    parent = {b: b for b in blocks}
    for (bi, bj), members in blocks.items():
        for near in ((bi, bj + 1), (bi + 1, bj - 1), (bi + 1, bj), (bi + 1, bj + 1)):
            if near in blocks and _find(parent, near) != _find(parent, (bi, bj)) and any(
                abs(i - u) <= k and abs(j - v) <= k for i, j in members for u, v in blocks[near]
            ):
                parent[_find(parent, near)] = _find(parent, (bi, bj))
    root = {b: _find(parent, b) for b in blocks}
    groups: dict[tuple[int, int], list[GridCell]] = {}
    for i, j in cells:
        groups.setdefault(root[i // k, j // k], []).append((i, j))
    return [tuple(g) for g in groups.values()]


def mask_of(cells, width):
    """Bit ``i * width + j`` for each cell ``(i, j)``, set one cell at a time."""
    mask = 0
    for i, j in cells:
        mask |= 1 << (i * width + j)
    return mask


def cells_of(mask, width):
    """The cells ``(i, j)`` of the set bits ``i * width + j`` of ``mask``, in bit order."""
    return [divmod(b, width) for b in range(mask.bit_length()) if mask >> b & 1]


def mask_components(cells, resolution, gap):
    """The mask route's components of these grid cells, as cell tuples."""
    n = 2**resolution
    return [tuple(cells_of(comp, n)) for comp in _grid_components(resolution, gap)(mask_of(cells, n))]


def mask_walk(masks, width, resolution=None, gap=None, start=-1):
    """The levels of :func:`_level_walk` on the mask table ``masks`` from the cells of
    ``start``, with parts as cell tuples, split into components at ``gap`` on rows
    ``width = 2^resolution`` bits wide (``gap=None``: not split)."""
    split = (lambda part: [part]) if gap is None else _grid_components(resolution, gap)
    return [[(itin, tuple(cells_of(part, width)), at) for itin, part, at in level]
            for level in _level_walk(masks, split, start)]


def cell_walk(cells, depth, resolution=None, gap=None):
    """The levels of :func:`reference_level_walk` with parts as cell tuples."""
    split = (lambda part: [part]) if gap is None else partial(
        reference_grid_components, k=block_size(resolution, gap))
    return [[(itin, tuple(part), at) for itin, part, at in level]
            for level in reference_level_walk(cells, depth, split)]


def test_grid_components_match_sweep_on_sweep_universe():
    for abc in sweep_universe():
        cells = cell_options(CouplingParams.make(*abc), 3, 4)
        covers = [cover for n in (1, 2, 3) for cover in reference_covers_from_options(cells, n).values()]
        for gap in (default_gap(4), Fraction(3, 7)):
            for members in covers:
                assert mask_components(members, 4, gap) == sweep_grid_components(members, 4, gap), abc


def test_grid_components_match_sweep_on_d3_r7_build():
    p = CouplingParams.make(Fraction(9, 10), Fraction(9, 10), Fraction(1, 20))
    cells = [c for c in cell_options(p, 3, 7) if len(c[1]) == 3]
    covers = [cover for n in (1, 2, 3) for cover in reference_covers_from_options(cells, n).values()]
    assert len(covers) == 84
    gap = default_gap(7)
    for members in covers:
        assert mask_components(members, 7, gap) == sweep_grid_components(members, 7, gap)


def test_grid_components_of_sparse_cells_match_sweep():
    rng = random.Random("sparse-grid-cells")
    for resolution in (3, 4, 5):
        n = 2**resolution
        gaps = oracle_gaps(resolution)
        assert {(gap * n).denominator == 1 for gap in gaps} == {True, False}  # k = rho/unit or not
        for gap in gaps:
            for density in (0.02, 0.1, 0.3):
                cells = [cell for cell in product(range(n), repeat=2) if rng.random() < density]
                rng.shuffle(cells)
                want = sweep_grid_components(cells, resolution, gap)
                assert mask_components(cells, resolution, gap) == want, (resolution, gap)
                assert reference_grid_components(cells, block_size(resolution, gap)) == want


@pytest.mark.parametrize("resolution, gap, cells", [
    # bit 8i + 7 sits next to bit 8(i + 1): cells at opposite ends of two rows
    (3, Fraction(1, 8), [(2, 7), (3, 0)]),
    (3, Fraction(1, 4), [(0, 7), (1, 0), (1, 6), (4, 1), (5, 7), (6, 0), (6, 2)]),
    (2, Fraction(1, 4), [(i, j) for i in range(4) for j in (0, 3)]),
    # k = 1
    (4, Fraction(1, 16), [(0, 0), (1, 1), (3, 1), (2, 2), (5, 5), (7, 5), (6, 15), (7, 0), (15, 15), (14, 14)]),
    (3, Fraction(1, 8), [(i, j) for i in range(8) for j in range(8) if (i + j) % 3 == 0]),
    # k >= 2^res: every pair of cells is within the gap
    (3, Fraction(1), [(0, 0), (7, 7), (3, 5), (0, 7)]),
    (2, Fraction(5, 2), [(3, 0), (0, 3)]),
    # resolution 1
    (1, Fraction(1, 4), [(0, 0), (1, 1)]),
    (1, default_gap(1), [(0, 1), (1, 0), (1, 1)]),
    # an empty part
    (3, default_gap(3), []),
    (1, Fraction(1, 2), []),
    # 1-D cells (i, 0), as component_counts_1d walks them
    (4, Fraction(1, 8), [(i, 0) for i in (0, 1, 3, 6, 9, 12, 15)]),
    (4, Fraction(1, 16), [(i, 0) for i in (0, 1, 3, 4, 5, 7, 15)]),
])
def test_mask_layout_cases_match_sweep(resolution, gap, cells):
    want = sweep_grid_components(cells, resolution, gap)
    assert mask_components(cells, resolution, gap) == want
    assert reference_grid_components(cells, block_size(resolution, gap)) == want


def test_two_cells_join_iff_within_the_block_size():
    # The first dilation of a lone cell is its Chebyshev ball of radius k,
    # clipped to the grid: no bit wraps across a row or off the grid.
    for resolution in (1, 2, 3):
        n = 2**resolution
        for k in range(1, n + 2):
            split = _grid_components(resolution, Fraction(k, n))
            for (i, j), (u, v) in product(product(range(n), repeat=2), repeat=2):
                if (i, j) != (u, v):
                    joined = len(split(mask_of([(i, j), (u, v)], n))) == 1
                    assert joined == (max(abs(i - u), abs(j - v)) <= k), (n, k, i, j, u, v)


def test_members_read_the_set_bits_in_order():
    rng = random.Random("members")
    items = list(range(300))
    for mask in [0, 1, 1 << 299, (1 << 300) - 1, *(rng.getrandbits(300) for _ in range(50))]:
        assert _members(mask, items) == [b for b in items if mask >> b & 1]


def test_level_walk_matches_reference_level_walk_on_sweep_universe():
    for abc in sweep_universe():
        p = CouplingParams.make(*abc)
        masks = _cell_options(p, 3, 4)
        full = options_of(masks, product(range(16), repeat=2), 16)
        kept = [c for c in full if len(c[1]) == 3]  # as build_puzzle walks them
        survivors = mask_of([cell for cell, _ in kept], 16)
        assert mask_walk(masks, 16) == cell_walk(full, 3), abc
        for gap in (default_gap(4), Fraction(3, 7)):
            assert mask_walk(masks, 16, 4, gap, survivors) == cell_walk(kept, 3, 4, gap), (abc, gap)
        masks_1d = options_1d(p.a, 3, 4)
        cells_1d = options_of(masks_1d, [(i, 0) for i in range(16)], 16)  # bit 16 i is cell (i, 0)
        gap = default_gap(4)
        assert mask_walk(masks_1d, 16, 4, gap) == cell_walk(cells_1d, 3, 4, gap), abc


def test_level_walk_matches_reference_level_walk_at_d3_r7():
    p = CouplingParams.make(Fraction(9, 10), Fraction(9, 10), Fraction(1, 20))
    masks = _cell_options(p, 3, 7)
    cells = [c for c in options_of(masks, product(range(128), repeat=2), 128) if len(c[1]) == 3]
    gap = default_gap(7)
    survivors = mask_of([cell for cell, _ in cells], 128)
    assert mask_walk(masks, 128, 7, gap, survivors) == cell_walk(cells, 3, 7, gap)


def test_level_walk_matches_reference_level_walk_on_random_options():
    # Random sign words and lengths split covers into many components that
    # interleave, which the map's own covers rarely do at these gaps.
    rng = random.Random("walk-options")
    for dim in (1, 2):
        words = [w for w in WORDS.values() if len(w[0]) == dim]
        for resolution in (1, 2, 3, 4):
            n = 2**resolution
            for density in (0.3, 0.7, 1.0):
                cells = [
                    (cell if dim == 2 else (cell[0], 0), [rng.choice(words) for _ in range(rng.randint(0, 3))])
                    for cell in product(range(n), repeat=dim) if rng.random() < density
                ]
                masks = masks_of(cells, 3, n)
                assert mask_walk(masks, n) == cell_walk(cells, 3), (dim, resolution)
                for gap in oracle_gaps(resolution):
                    want = cell_walk(cells, 3, resolution, gap)
                    assert mask_walk(masks, n, resolution, gap) == want, (dim, resolution, gap)


@pytest.mark.parametrize("abc", ORACLE_PARAMS)
def test_level_walk_matches_reference_level_walk_where_cells_escape(abc):
    # Cells with fewer options drop out level by level.
    p = CouplingParams.make(*abc)
    for resolution in (1, 2, 3, 4):
        n = 2**resolution
        cells = cell_options(p, 3, resolution)
        assert mask_walk(_cell_options(p, 3, resolution), n) == cell_walk(cells, 3), resolution
        for gap in oracle_gaps(resolution):
            want = cell_walk(cells, 3, resolution, gap)
            assert mask_walk(_cell_options(p, 3, resolution), n, resolution, gap) == want, (resolution, gap)


def test_coupled_sweep_jobs_match_golden_on_whole_universe():
    # The benchmark checks only the points its seed draws; here every point
    # of its universe runs the benchmark's job against its golden digest.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    golden = json.loads((bench / "golden" / "coupled-sweep.json").read_text())
    universe = list(workloads.coupled_universe())
    assert len(universe) == 290 and {workloads.coupled_key(item) for item in universe} == set(golden)
    for item in universe:
        record, _ = workloads.coupled_job(item)
        workloads.verify(record, golden[workloads.coupled_key(item)])


@pytest.mark.parametrize("abc", ORACLE_PARAMS)
def test_estimators_match_box_loop_reference(abc):
    p = CouplingParams.make(*abc)
    n_range = [1, 2, 3]
    for resolution in (1, 2, 3, 4):
        boundary = boundary_entropy_estimate(p, n_range, resolution)
        assert [r.count for r in boundary.rows] == reference_boundary(p, n_range, resolution)
        want = reference_multiplicity(p, n_range, resolution)
        assert multiplicity_estimate(p, n_range, resolution) == want


def test_escape_rule_refine_versus_build():
    # refine_cylinders(p, n) drops a box only when it leaves the square
    # within n steps; build_puzzle drops it from every level when it
    # leaves within `depth` steps.
    p = CouplingParams.make(3, 3, 0)
    assert sum(len(boxes) for boxes in refine_cylinders(p, 1, 4).values()) == 324
    build = build_puzzle(p, 3, 4)
    level1 = [build.pieces[build.puzzle.label(v)] for v in build.puzzle.level(1)]
    assert sum(len(q.boxes) for q in level1) == 16
    survivors = {(w[:1], b) for w, boxes in refine_cylinders(p, 3, 4).items() for b in boxes}
    assert {(q.itinerary, b) for q in level1 for b in q.boxes} == survivors


def test_components_touching_boxes_merge():
    a = Box((Fraction(0), Fraction(1, 4)), (Fraction(0), Fraction(1, 4)))
    b = Box((Fraction(1, 4), H), (Fraction(0), Fraction(1, 4)))
    assert len(almost_connected_components([a, b], Fraction(1, 8))) == 1


def test_components_split_at_gap():
    a = Box((Fraction(0), Fraction(1, 8)), (Fraction(0), Fraction(1, 8)))
    b = Box((Fraction(3, 8), H), (Fraction(0), Fraction(1, 8)))  # distance 1/4
    assert len(almost_connected_components([a, b], Fraction(1, 8))) == 2
    assert len(almost_connected_components([a, b], Fraction(1, 2))) == 1


def test_components_exact_beyond_64_bit_denominators():
    # The common denominator 2^63 * 3^40 exceeds 2^62.
    d, gap, z = Fraction(1, 3**40), Fraction(1, 2**63), Fraction(0)
    a = Box((z, d), (z, d))
    b = Box((d, 2 * d), (z, d))
    c = Box((2 * d + gap, 3 * d + gap), (z, d))  # exactly `gap` right of b
    assert almost_connected_components([c, a, b], gap) == [(a, b), (c,)]
    assert almost_connected_components([c, a, b], gap + gap * d) == [(a, b, c)]


def test_components_annulus_stable_under_refinement():
    def annulus_cells(resolution):
        cells = []
        for cell in dyadic_grid(resolution):
            cx = (cell.x[0] + cell.x[1]) / 2
            cy = (cell.y[0] + cell.y[1]) / 2
            r2 = cx * cx + cy * cy
            if Fraction(1, 64) <= r2 <= Fraction(9, 64):
                cells.append(cell)
        return cells

    rho = Fraction(1, 8)
    counts = [len(almost_connected_components(annulus_cells(r), rho)) for r in (4, 5)]
    assert counts[0] == counts[1] == 1


def test_build_puzzle_depth_one_is_quadrants():
    build = build_puzzle(DECOUPLED, 1, 4)
    p = build.puzzle
    assert p.validate().ok
    assert sorted(p.label(v) for v in p.level(1)) == ["NN/0", "NP/0", "PN/0", "PP/0"]


def test_build_puzzle_decoupled_product_counts():
    build = build_puzzle(DECOUPLED, 2, 5)
    assert build.puzzle.validate().ok
    c2d = component_counts_2d(build)
    c1d = component_counts_1d(Fraction(1), 2, 5)
    assert c2d == [c * c for c in c1d]


def test_build_puzzle_ambiguity_flags_are_rare_here():
    build = build_puzzle(DECOUPLED, 2, 5)
    assert build.ambiguous == ()


def test_boundary_entropy_table():
    table = boundary_entropy_estimate(DECOUPLED, [1, 2], 5)
    counts = [r.count for r in table.rows]
    assert counts[0] <= 4
    assert counts == sorted(counts)  # monotone in depth
    assert not table.exact  # upper estimate only


def test_multiplicity_depth_one_is_four():
    mult = multiplicity_estimate(DECOUPLED, [1, 2], 5)
    assert mult[1] == 4
    assert mult[2] >= mult[1]  # monotone within the outer approximation


def test_extracted_puzzle_routes_through_refinement_constructor():
    from qfpuzzles.puzzle import from_refinement

    build = build_puzzle(DECOUPLED, 2, 4)
    p = build.puzzle
    levels = [[p.label(v) for v in p.level(n)] for n in range(p.depth + 1)]
    containing = {}
    image = {}
    for n in range(1, p.depth + 1):
        for v in p.level(n):
            containing[p.label(v)] = p.label(p.i(v))
            image[p.label(v)] = p.label(p.f(v))
    q = from_refinement(levels, containing, image)
    assert q.validate().ok
    assert q.to_json() == p.to_json()


def test_multiplicity_decoupled_is_square_of_1d():
    mult = multiplicity_estimate(DECOUPLED, [1, 2], 5)

    def mult_1d(depth):
        covers = refine_cylinders_1d(Fraction(1), depth, 5)
        incidence = {}
        for itin, ivs in covers.items():
            for iv in ivs:
                for endpoint in iv:
                    incidence.setdefault(endpoint, set()).add(itin)
        return max(len(s) for s in incidence.values())

    assert mult[1] == mult_1d(1) ** 2
    assert mult[2] == mult_1d(2) ** 2


def test_iterate_polynomial_known_forms():
    p1 = iterate_polynomial(DECOUPLED, 1)
    assert p1 == RationalPolynomial([H, 0, -4])
    p2 = iterate_polynomial(DECOUPLED, 2)
    assert p2 == RationalPolynomial([H]) - (p1 * p1) * 4
    assert p2 == RationalPolynomial([-H, 0, 16, 0, -64])


def reference_iterate_polynomial(p, k):
    """The parent's ``Fraction`` recursion on :class:`RationalPolynomial` values."""
    X = RationalPolynomial.x()
    Y = RationalPolynomial.zero()
    for _ in range(k):
        X, Y = (
            (1 - X * X * 4) * p.a + Y * Y * p.c - H,
            (1 - Y * Y * 4) * p.b + X * X * p.c - H,
        )
    return X


def test_iterate_polynomial_matches_fraction_reference_on_eighths():
    eighths = [Fraction(k, 8) for k in range(1, 8)]
    for abc in product(eighths, repeat=3):
        p = CouplingParams.make(*abc)
        for k in (1, 2, 3):
            assert iterate_polynomial(p, k) == reference_iterate_polynomial(p, k), (abc, k)


@pytest.mark.parametrize("abc", [
    (Fraction(1, 3), Fraction(2, 7), Fraction(5, 9)),
    (Fraction(9, 10), Fraction(9, 10), Fraction(1, 20)),
    (1, 1, 0),
    (Fraction(1, 3), Fraction(3, 4), 0),
    (0, Fraction(1, 2), Fraction(-2, 7)),  # a = 0: X drops to the degree of c Y^2
])
def test_iterate_polynomial_matches_fraction_reference_off_the_dyadics(abc):
    p = CouplingParams.make(*abc)
    for k in range(1, 6):
        got, want = iterate_polynomial(p, k), reference_iterate_polynomial(p, k)
        assert got == want and repr(got) == repr(want), k
        assert all(type(v) is Fraction for v in got.coeffs)


def test_iterate_polynomial_degrees_double_when_decoupled():
    for k in (1, 2, 3, 4):
        assert iterate_polynomial(DECOUPLED, k).degree == 2**k


def test_resultant_of_first_two_iterates_nonzero():
    p1 = iterate_polynomial(DECOUPLED, 1)
    p2 = iterate_polynomial(DECOUPLED, 2)
    assert sylvester_resultant(p1, p2) != 0


def test_boundary_return_statistics():
    # Orbit of x-coordinate 0: subsequent x-values are 1/2, -1/2, -1/2, ...
    x, y = Fraction(0), Fraction(1, 8)
    xs = []
    cx, cy = x, y
    for _ in range(4):
        cx, cy = DECOUPLED.apply(cx, cy)
        xs.append(cx)
    assert xs[:3] == [H, -H, -H]
    hits = boundary_return_counts(DECOUPLED, 0, Fraction(1, 8), 4)
    assert 0 in hits


def test_bad_inputs():
    with pytest.raises(CoupledError):
        refine_cylinders(DECOUPLED, 0, 4)
    with pytest.raises(CoupledError):
        almost_connected_components([], Fraction(0))
    with pytest.raises(CoupledError):
        iterate_polynomial(DECOUPLED, 0)
    with pytest.raises(CoupledError):
        Box((H, Fraction(0)), (Fraction(0), H))
    with pytest.raises(CoupledError, match=r"^steps must be >= 0, got -1$"):
        boundary_return_counts(DECOUPLED, 0, Fraction(1, 8), -1)
    assert boundary_return_counts(DECOUPLED, 0, Fraction(1, 8), 0) == [0]



def test_box_and_params_store_fractions():
    box = Box((0, "1/4"), (Fraction(-1, 2), 1))
    assert box == Box((Fraction(0), Fraction(1, 4)), (-H, Fraction(1)))
    assert all(type(v) is Fraction for v in (*box.x, *box.y))
    assert type(box.area()) is Fraction
    assert almost_connected_components([box], 1) == [(box,)]
    p = CouplingParams(1, "9/10", Fraction(1, 20))
    assert all(type(v) is Fraction for v in (p.a, p.b, p.c))
    assert p == CouplingParams.make(Fraction(1), Fraction(9, 10), Fraction(1, 20))


@pytest.mark.parametrize(
    "call",
    [
        lambda: Box((0.25, 0.5), (0, 1)),
        lambda: Box((0, 1), (Fraction(0), 0.5)),
        lambda: CouplingParams.make(0.9, 0.9, 0.05),
        lambda: CouplingParams(Fraction(1, 2), Fraction(1, 2), 0.25),
        lambda: DECOUPLED.apply(0.5, 0),
        lambda: component_counts_1d(0.5, 1, 2),
        lambda: component_counts_1d(Fraction(1, 2), 1, 2, gap=0.5),
        lambda: almost_connected_components([UNIT_SQUARE], 0.5),
        lambda: build_puzzle(DECOUPLED, 1, 2, gap=0.5),
        lambda: boundary_return_counts(DECOUPLED, 0.0, 0, 2),
        lambda: boundary_return_counts(DECOUPLED, 0, 0.125, 2),
    ],
    ids=["box-x", "box-y", "make", "init", "apply", "counts-1d", "counts-1d-gap",
         "components-gap", "build-gap", "return-x", "return-y"],
)
def test_floats_are_refused(call):
    with pytest.raises(CoupledError, match="float"):
        call()

@pytest.mark.parametrize(
    "call",
    [
        lambda: build_puzzle(DECOUPLED, 2.0, 2),
        lambda: build_puzzle(DECOUPLED, True, 2),
        lambda: build_puzzle(DECOUPLED, 2, 2.0),
        lambda: build_puzzle(DECOUPLED, 2, 2.0, gap=H),
        lambda: refine_cylinders(DECOUPLED, 1.0, 2),
        lambda: refine_cylinders(DECOUPLED, 1, True),
        lambda: boundary_return_counts(DECOUPLED, 0, 0, 2.0),
        lambda: boundary_return_counts(DECOUPLED, 0, 0, True),
        lambda: component_counts_1d(Fraction(1), True, 2),
        lambda: component_counts_1d(Fraction(1), 2, 2.0, gap=H),
        lambda: boundary_entropy_estimate(DECOUPLED, [1, 2.0], 2),
        lambda: multiplicity_estimate(DECOUPLED, [1], 2.0),
        lambda: multiplicity_estimate(DECOUPLED, [False], 2),
        lambda: iterate_polynomial(DECOUPLED, 1.0),
        lambda: default_gap(2.0),
    ],
    ids=["build-depth", "build-depth-bool", "build-res", "build-res-gap", "refine-depth", "refine-res-bool",
         "return-steps", "return-steps-bool", "counts-1d-depth-bool", "counts-1d-res", "boundary-n",
         "multiplicity-res", "multiplicity-n-bool", "polynomial-k", "default-gap"],
)
def test_integer_parameters_are_refused_unless_int(call):
    with pytest.raises(CoupledError, match=r"^(depth|resolution|steps|k) must be an int, got (True|False|\d\.0)$"):
        call()


@pytest.mark.parametrize("depth, resolution", [(0, 4), (-1, 4), (2, 0), (2, -1)])
def test_1d_and_2d_paths_share_depth_and_resolution_checks(depth, resolution):
    with pytest.raises(CoupledError):
        component_counts_1d(Fraction(1), depth, resolution)
    with pytest.raises(CoupledError):
        refine_cylinders(DECOUPLED, depth, resolution)
    with pytest.raises(CoupledError):
        build_puzzle(DECOUPLED, depth, resolution)


@pytest.mark.parametrize("gap", [0, Fraction(0), "-1/8", Fraction(-1, 2)])
def test_every_entry_point_refuses_a_gap_that_is_not_positive(gap):
    # a gap <= 0 would make every cell its own component
    with pytest.raises(CoupledError, match="^gap must be positive$"):
        almost_connected_components([UNIT_SQUARE], gap)
    with pytest.raises(CoupledError, match="^gap must be positive$"):
        component_counts_1d(Fraction(9, 10), 2, 3, gap=gap)
    with pytest.raises(CoupledError, match="^gap must be positive$"):
        build_puzzle(CouplingParams.make(Fraction(9, 10), Fraction(9, 10), Fraction(1, 20)), 2, 3, gap)


def test_default_gap_tracks_resolution():
    assert default_gap(6) == Fraction(1, 16)
    assert default_gap(2) == Fraction(1)
