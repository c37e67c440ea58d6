from fractions import Fraction

import pytest

from qfpuzzles.coupled import (
    Box,
    CoupledError,
    CouplingParams,
    UNIT_SQUARE,
    almost_connected_components,
    boundary_entropy_estimate,
    boundary_pieces,
    boundary_return_counts,
    build_puzzle,
    component_counts_1d,
    component_counts_2d,
    default_gap,
    dyadic_grid,
    image_box,
    iterate_polynomial,
    multiplicity_estimate,
    refine_cylinders,
    refine_cylinders_1d,
    sign_partition,
)
from qfpuzzles.polys import RationalPolynomial, sylvester_resultant

H = Fraction(1, 2)
DECOUPLED = CouplingParams.make(1, 1, 0)


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


@pytest.mark.parametrize("depth, resolution", [(0, 4), (-1, 4), (2, 0), (2, -1)])
def test_1d_and_2d_paths_share_depth_and_resolution_checks(depth, resolution):
    alpha = Fraction(1)
    with pytest.raises(CoupledError):
        refine_cylinders_1d(alpha, depth, resolution)
    with pytest.raises(CoupledError):
        component_counts_1d(alpha, depth, resolution)
    with pytest.raises(CoupledError):
        refine_cylinders(DECOUPLED, depth, resolution)
    with pytest.raises(CoupledError):
        build_puzzle(DECOUPLED, depth, resolution)


def test_default_gap_tracks_resolution():
    assert default_gap(6) == Fraction(1, 16)
    assert default_gap(2) == Fraction(1)
