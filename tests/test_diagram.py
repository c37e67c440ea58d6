import math
import random

import pytest

from qfpuzzles.constructions import (
    full_shift_puzzle,
    golden_mean_puzzle,
    layered_full_shifts_puzzle,
    periodic_orbit_tower_puzzle,
    undetermined_puzzle,
    words_avoiding,
)
from qfpuzzles.diagram import (
    SCC,
    DepthExhausted,
    DiagramError,
    MarkovDiagram,
    _assert_path_piece,
    _rate_table,
    _validate_path,
    build_diagram,
    entropy_at_infinity_estimate,
    gurevich_entropy_estimate,
    path_to_piece,
    project_path,
    scc_decomposition,
)
from qfpuzzles.graphs import Edge, GraphTruncation, complete_graph, loop_graph, sft_graph
from qfpuzzles.puzzle import Puzzle, dual, from_subshift
from qfpuzzles.reducibility import ReducibilityAnalyzer

from test_fuzz import random_puzzle
from test_graphs import dot_strings, matrix_power_traces


def no111_puzzle(depth):
    return from_subshift(words_avoiding("01", [("1", "1", "1")], depth), depth, name="no111")


def arrows_by_label(d):
    p = d.puzzle
    return sorted(
        (p.label(a.source), p.label(a.target), p.label(a.witness)) for a in d.arrows
    )


def test_full_shift_diagram_is_complete_two_graph():
    p = full_shift_puzzle(5)
    d = build_diagram(p, 3)
    assert [p.label(v) for v in d.vertices] == ["0", "1"]
    assert arrows_by_label(d) == [
        ("0", "0", "00"),
        ("0", "1", "01"),
        ("1", "0", "10"),
        ("1", "1", "11"),
    ]
    assert d.is_complete


def test_golden_mean_diagram_matches_sft_graph():
    p = golden_mean_puzzle(5)
    d = build_diagram(p, 3)
    graph = d.to_graph()
    assert sorted((e.src, e.dst) for e in graph.edges) == [
        ("0", "0"), ("0", "1"), ("1", "0"),
    ]
    # total closed-path counts equal the adjacency-trace oracle
    from qfpuzzles.graphs import periodic_point_counts

    assert periodic_point_counts(graph, 8) == matrix_power_traces([[1, 1], [1, 0]], 8)


def test_no111_diagram_has_tower_arrow():
    p = no111_puzzle(6)
    d = build_diagram(p, 3)
    labels = [(p.label(a.source), p.label(a.target)) for a in d.arrows]
    assert sorted(labels) == [
        ("0", "0"), ("0", "1"), ("1", "0"), ("1", "11"), ("11", "0"),
    ]
    up = d.arrow(p.id_of("1"), p.id_of("11"))
    assert up.steps == 0 and p.label(up.witness) == "11"


def test_unary_shift_diagram_is_empty():
    p = from_subshift({"", "0", "00", "000"}, 3, name="unary")
    d = build_diagram(p, 2)
    assert d.vertices == () and d.arrows == () and d.frontier == ()


def test_cutoff_precondition():
    p = full_shift_puzzle(3)
    with pytest.raises(DiagramError, match="^cutoff 3 needs depth >= 4, have 3$"):
        build_diagram(p, 3)


@pytest.mark.parametrize("cutoff", [0, -3])
def test_cutoff_below_one_names_the_cutoff(cutoff):
    with pytest.raises(DiagramError, match=f"^cutoff must be >= 1, got {cutoff}$"):
        build_diagram(golden_mean_puzzle(6), cutoff)


def test_frontier_on_unknown_verdict():
    p = no111_puzzle(3)
    d = build_diagram(p, 2)
    reasons = {(p.label(m.source), m.reason) for m in d.frontier}
    assert ("11", "unknown-verdict") in reasons
    assert not d.is_complete


def test_frontier_on_target_beyond_cutoff():
    p = no111_puzzle(6)
    d = build_diagram(p, 1)
    reasons = {(p.label(m.source), p.label(m.witness), m.reason) for m in d.frontier}
    assert ("1", "11", "target-beyond-cutoff") in reasons


def test_dot_export_quotes_labels():
    """Labels with quotes and backslashes come out as well-formed DOT
    strings that read back as the labels, for vertices, arrows and the
    frontier."""
    p = no111_puzzle(3)
    new = lambda w: f'a"{w}\\'
    pieces = [v for v in p.pieces() if p.order(v) > 0]
    q = Puzzle(
        [[new(p.label(v)) for v in p.level(n)] for n in range(p.depth + 1)],
        {new(p.label(v)): new(p.label(p.i(v))) for v in pieces},
        {new(p.label(v)): new(p.label(p.f(v))) for v in pieces},
        name=new(p.name),
    )
    d = build_diagram(q, 2)
    assert arrows_by_label(d) == [tuple(map(new, a)) for a in arrows_by_label(build_diagram(p, 2))]
    assert d.arrows and d.frontier
    expected = [
        q.name,
        *(s for v in d.vertices for s in (q.label(v), f"{q.label(v)}|{q.order(v)}")),
        *(q.label(x) for a in d.arrows for x in (a.source, a.target, a.witness)),
        *(s for m in d.frontier for s in (q.label(m.source), "?" + q.label(m.witness))),
    ]
    assert dot_strings(d.to_dot()) == expected


def test_witness_uniqueness_brute_force():
    for p in (full_shift_puzzle(5), golden_mean_puzzle(5), no111_puzzle(5)):
        an = ReducibilityAnalyzer(p)
        d = build_diagram(p, 3, an)
        for arrow in d.arrows:
            candidates = []
            for u in p.i_preimages(arrow.source):
                chain = an.reduction_chain(u)
                if chain.kind == "irreducible" and chain.terminal == arrow.target:
                    candidates.append(u)
            assert candidates == [arrow.witness]


def test_path_to_piece_base_and_example():
    p = full_shift_puzzle(5)
    d = build_diagram(p, 3)
    zero = p.id_of("0")
    one = p.id_of("1")
    assert path_to_piece(d, [zero]) == zero
    assert p.label(path_to_piece(d, [zero, one, zero])) == "010"


def test_path_to_piece_prefix_coherence():
    p = full_shift_puzzle(5)
    d = build_diagram(p, 3)
    ids = [p.id_of(x) for x in "0110"]
    full = path_to_piece(d, ids)
    prefix = path_to_piece(d, ids[:-1])
    assert p.i(full) == prefix


def test_path_to_piece_depth_exhaustion():
    p = full_shift_puzzle(3)
    d = build_diagram(p, 2)
    ids = [p.id_of("0")] * 4
    with pytest.raises(DepthExhausted):
        path_to_piece(d, ids)


def test_path_to_piece_rejects_non_arrows():
    p = golden_mean_puzzle(4)
    d = build_diagram(p, 2)
    with pytest.raises(DiagramError):
        path_to_piece(d, [p.id_of("1"), p.id_of("1")])


def test_path_through_tower_arrow():
    # The zero-step arrow 1 ~> 11 pulls back trivially; the encoded piece
    # of 1 ~> 11 ~> 0 is the order-3 word 110.
    p = no111_puzzle(6)
    d = build_diagram(p, 3)
    path = [p.id_of("1"), p.id_of("11"), p.id_of("0")]
    assert d.arrow(path[1], path[2]).steps == 2
    assert p.label(path_to_piece(d, path)) == "110"
    xs, pis = project_path(d, path)
    assert xs == ["1", "11", "110"]
    assert pis == ["ε", "1", "10"]


def test_project_path_example():
    p = full_shift_puzzle(5)
    d = build_diagram(p, 3)
    ids = [p.id_of(x) for x in "0101"]
    xs, pis = project_path(d, ids)
    assert xs == ["0", "01", "010", "0101"]
    assert pis == ["ε", "1", "10", "101"]


def test_project_path_constant_loop():
    p = full_shift_puzzle(4)
    d = build_diagram(p, 2)
    ids = [p.id_of("0")] * 3
    xs, pis = project_path(d, ids)
    assert xs == ["0", "00", "000"]
    assert pis == ["ε", "0", "00"]


def test_distinct_paths_have_distinct_coordinates():
    # In determined puzzles the path -> point map is injective; check all
    # short paths exhaustively.
    for p in (full_shift_puzzle(5), golden_mean_puzzle(5)):
        d = build_diagram(p, 3)
        seen = {}
        paths = [[v] for v in d.vertices]
        for _ in range(3):
            paths = [
                path + [w]
                for path in paths
                for w in d.successors(path[-1])
            ]
            for path in paths:
                xs, _ = project_path(d, path)
                key = tuple(xs)
                assert key not in seen or seen[key] == tuple(path)
                seen[key] = tuple(path)


def reference_path_to_piece(d, path):
    """:func:`path_to_piece` as first written: starting from the last vertex,
    each hop pulls the piece back through the whole i-tree below the arrow's
    witness, ``j - 1`` levels deep for hop ``j``."""
    p = d.puzzle
    hops = _validate_path(d, path)
    n = len(path) - 1
    if p.order(path[0]) + n > p.depth:
        raise DepthExhausted(f"piece of order {p.order(path[0]) + n} exceeds depth {p.depth}")
    w = path[-1]
    for j, arrow in enumerate(reversed(hops), start=1):
        frontier = [arrow.witness]
        for _ in range(j - 1):
            frontier = [x for q in frontier for x in p.i_preimages(q)]
        matches = [x for x in frontier if p.f_iter(x, arrow.steps) == w]
        if len(matches) != 1:
            raise DepthExhausted(
                f"pullback through witness {p.label(arrow.witness)!r} found {len(matches)} preimages"
            )
        w = matches[0]
        if p.order(w) != p.order(arrow.source) + j:
            raise DiagramError("pullback produced a piece at the wrong order")
    _assert_path_piece(d, path, w)
    return w


def reference_project_path(d, path):
    """:func:`project_path` as first written: one pullback per prefix."""
    p = d.puzzle
    _validate_path(d, path)
    shift = p.order(path[0])
    pieces = [reference_path_to_piece(d, path[: j + 1]) for j in range(len(path))]
    return [p.label(w) for w in pieces], [p.label(p.f_iter(w, shift)) for w in pieces]


def path_outcome(fn, d, path):
    try:
        return fn(d, path)
    except DiagramError as exc:
        return type(exc), str(exc)


def random_paths(rng, d, count):
    """The empty path, then random walks in the diagram that may run past the
    depth; about one in eight ends at a random vertex, arrow or not."""
    p = d.puzzle
    yield []
    for _ in range(count):
        path = [rng.choice(d.vertices)]
        length = rng.randint(0, p.depth - p.order(path[0]) + 2)
        while len(path) <= length and d.successors(path[-1]):
            path.append(rng.choice(d.successors(path[-1])))
        if len(path) > 1 and rng.random() < 1 / 8:
            path[-1] = rng.choice(d.vertices)
        yield path


def assert_paths_match_pullback_reference(p, rng, kinds):
    for q in (p, dual(p)):
        an = ReducibilityAnalyzer(q)
        for cutoff in range(1, q.depth):
            d = build_diagram(q, cutoff, an)
            if not d.vertices:
                continue
            for path in random_paths(rng, d, 50):
                got = path_outcome(path_to_piece, d, path)
                assert got == path_outcome(reference_path_to_piece, d, path), (q.name, cutoff, path)
                assert path_outcome(project_path, d, path) == path_outcome(
                    reference_project_path, d, path
                ), (q.name, cutoff, path)
                kinds.add(got[0] if isinstance(got, tuple) else "piece")


PATH_ORACLE_PUZZLES = {
    "full-shift": lambda: full_shift_puzzle(5),
    "golden-mean": lambda: golden_mean_puzzle(7),
    "tower": lambda: periodic_orbit_tower_puzzle([2, 3, 2, 3, 2, 4], 6),
    "layered": lambda: layered_full_shifts_puzzle(3, 6),
    "undetermined": undetermined_puzzle,
}


@pytest.mark.parametrize("name", PATH_ORACLE_PUZZLES)
def test_forward_walk_matches_pullback_reference_on_constructions(name):
    kinds = set()
    assert_paths_match_pullback_reference(PATH_ORACLE_PUZZLES[name](), random.Random(name), kinds)
    assert {"piece", DepthExhausted} <= kinds


@pytest.mark.parametrize("block", range(4))
def test_forward_walk_matches_pullback_reference_on_fuzz_puzzles(block):
    # 4 blocks x 25 puzzles, each with its dual, at every cutoff
    rng = random.Random(7000 + block)
    kinds = set()
    for _ in range(25):
        p = random_puzzle(rng, rng.randint(2, 5), max_width=rng.randint(2, 6))
        assert_paths_match_pullback_reference(p, rng, kinds)
    assert kinds == {"piece", DepthExhausted, DiagramError}


def test_diagram_counts_match_level_transition_graphs():
    # For subshift puzzles whose irreducible pieces all sit at order <= n0,
    # the diagram's closed-path counts match the level-N transition graph
    # for every N > n0 (the diagram is a finite presentation of the shift).
    from qfpuzzles.graphs import gamma_n, periodic_point_counts

    cases = [
        (full_shift_puzzle(6), 1),
        (golden_mean_puzzle(6), 1),
        (no111_puzzle(6), 2),
    ]
    for p, n0 in cases:
        d = build_diagram(p, n0 + 1)
        assert d.is_complete
        diagram_counts = periodic_point_counts(d.to_graph(), 8)
        for N in range(n0 + 1, p.depth - 1):
            level_counts = periodic_point_counts(gamma_n(p, N), 8)
            assert diagram_counts == level_counts, (p.name, N)



def test_rate_table_ratio_of_huge_counts():
    # log(c / prev) where the quotient is a positive float, a difference of
    # logs where it overflows or rounds to zero
    table = _rate_table([(1, 3), (2, 7), (3, 7 * 10**400), (4, 5)])
    assert [r.ratio for r in table.rows[:2]] == [None, math.log(7 / 3)]
    assert table.rows[2].ratio == pytest.approx(math.log(10**400), abs=1e-9)
    assert table.rows[3].ratio == pytest.approx(math.log(5) - math.log(7 * 10**400), abs=1e-9)


def reference_scc(g):
    """:func:`scc_decomposition` as first written: an iterative Tarjan, then
    one potential search per component for its period."""
    if isinstance(g, MarkovDiagram):
        g = g.to_graph()
    outs = g.adjacency

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = [0]

    def strongconnect(root: str):
        work = [(root, iter(outs[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for e in it:
                w = e.dst
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(outs[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)

    for v in g.vertices:
        if v not in index:
            strongconnect(v)

    out = []
    for comp in components:
        cset = set(comp)
        period = reference_component_period(comp, outs, cset)
        out.append(SCC(tuple(sorted(comp)), period))
    out.sort(key=lambda s: s.vertices)
    return out


def reference_component_period(comp, outs, cset):
    root = comp[0]
    pot: dict[str, int] = {root: 0}
    queue = [root]
    g = 0
    while queue:
        v = queue.pop()
        for e in outs[v]:
            w = e.dst
            if w not in cset:
                continue
            if w not in pot:
                pot[w] = pot[v] + e.length
                queue.append(w)
            else:
                g = math.gcd(g, abs(pot[v] + e.length - pot[w]))
    return g or None


def random_bundle_graph(rng):
    """0-12 vertices (some isolated), self-loops, bundles of length 1-6 and
    multiplicity 1-2, at a random density."""
    names = [f"v{k}" for k in range(rng.randint(0, 12))]
    rng.shuffle(names)
    density = rng.random()
    keys = {
        (u, v, rng.randint(1, 6))
        for u in names for v in names for _ in range(2) if rng.random() < density / 2
    }
    edges = tuple(Edge(u, v, L, rng.randint(1, 2)) for u, v, L in sorted(keys))
    return GraphTruncation(tuple(names), edges)


def test_scc_matches_tarjan_reference_on_random_graphs():
    rng = random.Random(1800)
    shapes = set()
    for _ in range(2500):
        g = random_bundle_graph(rng)
        got = scc_decomposition(g)
        assert got == reference_scc(g), g
        shapes.update((len(s.vertices) > 1, s.period) for s in got)
    assert scc_decomposition(GraphTruncation((), ())) == reference_scc(GraphTruncation((), ())) == []
    assert {(False, None), (False, 1), (True, 1), (True, 2), (True, 3)} <= shapes


@pytest.mark.parametrize("name", PATH_ORACLE_PUZZLES)
def test_scc_matches_tarjan_reference_on_construction_diagrams(name):
    built = 0
    for q in (PATH_ORACLE_PUZZLES[name](), dual(PATH_ORACLE_PUZZLES[name]())):
        an = ReducibilityAnalyzer(q)
        for cutoff in range(1, q.depth):
            try:
                d = build_diagram(q, cutoff, an)
            except DiagramError:
                continue
            built += 1
            assert scc_decomposition(d) == reference_scc(d), (q.name, cutoff)
    assert built

def test_scc_of_full_shift_diagram():
    p = full_shift_puzzle(4)
    d = build_diagram(p, 2)
    sccs = scc_decomposition(d)
    assert len(sccs) == 1
    assert sccs[0].vertices == ("0", "1") and sccs[0].period == 1


def test_scc_pure_cycle_period_three():
    g = sft_graph([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    sccs = scc_decomposition(g)
    assert len(sccs) == 1 and sccs[0].period == 3


def test_scc_two_cycles_with_connector():
    g = GraphTruncation(
        ("a", "b", "c", "d", "e"),
        (
            Edge("a", "b"), Edge("b", "a"),          # 2-cycle
            Edge("c", "d"), Edge("d", "e"), Edge("e", "c"),  # 3-cycle
            Edge("b", "c"),                            # one-way bridge
        ),
    )
    sccs = scc_decomposition(g)
    periods = sorted(s.period for s in sccs)
    assert periods == [2, 3]
    assert len(sccs) == 2


def test_scc_trivial_component_has_no_period():
    g = GraphTruncation(("a", "b"), (Edge("a", "b"),))
    sccs = scc_decomposition(g)
    assert all(s.period is None for s in sccs)


def test_scc_respects_bundle_lengths():
    g = loop_graph([0, 0, 2])  # only 3-loops
    sccs = scc_decomposition(g)
    assert sccs[0].period == 3


def test_scc_period_divides_every_cycle_length():
    rng = random.Random(71)
    for _ in range(10):
        d = rng.randint(2, 5)
        matrix = [[rng.randint(0, 1) for _ in range(d)] for _ in range(d)]
        g = sft_graph(matrix)
        sccs = scc_decomposition(g)
        adj = {v: [] for v in g.vertices}
        for e in g.edges:
            adj[e.src].append(e.dst)
        for scc in sccs:
            if scc.period is None:
                continue
            members = set(scc.vertices)

            def cycles_from(start, limit=6):
                found = []
                stack = [(start, 0)]
                while stack:
                    v, steps = stack.pop()
                    if steps > 0 and v == start:
                        found.append(steps)
                    if steps >= limit:
                        continue
                    for w in adj[v]:
                        if w in members:
                            stack.append((w, steps + 1))
                return found

            for v in scc.vertices:
                for length in cycles_from(v):
                    assert length % scc.period == 0


def test_gurevich_estimate_complete_graph():
    k3 = complete_graph(3)
    table = gurevich_entropy_estimate(k3, "0", 10)
    assert [r.count for r in table.rows] == [3**(n - 1) for n in range(1, 11)]
    assert abs(table.row(10).ratio - math.log(3)) < 1e-12
    assert table.exact


def test_gurevich_single_loop_rate_zero():
    g = loop_graph([1])
    table = gurevich_entropy_estimate(g, "a", 6)
    assert all(r.count == 1 for r in table.rows)
    assert table.row(6).rate == 0.0


def test_hinf_avoiding_everything_dies():
    k3 = complete_graph(3)
    table = entropy_at_infinity_estimate(k3, k3.vertices, 6)
    assert [r.count for r in table.rows] == [1, 0, 0, 0, 0, 0]


def test_hinf_loop_graph_counts_are_first_returns():
    g = loop_graph([0, 2])
    table = entropy_at_infinity_estimate(g, ["a"], 8)
    assert [r.count for r in table.rows] == [0, 2, 0, 0, 0, 0, 0, 0]
    assert abs(table.row(2).rate - math.log(2) / 2) < 1e-12


def test_hinf_requires_nonempty_set():
    with pytest.raises(DiagramError):
        entropy_at_infinity_estimate(complete_graph(2), [], 4)


def test_recurrence_evidence_on_two_hub():
    from qfpuzzles.diagram import recurrence_evidence
    from qfpuzzles.graphs import two_hub_graph

    L = 14
    q = [0] * (L + 1)
    for m in range(L):
        if 6 + 2 * m <= L:
            q[6 + 2 * m] = 2**m
    g = two_hub_graph([5**n - q[n] for n in range(1, L + 1)], [0, 2], [0, 1],
                      [0, 0, 0, 1], L)
    ev = recurrence_evidence(g, "a", ["a", "b"], 12)
    assert ev.gap is not None and ev.gap > 0
    # loops grow like 10^n, excursions like 5^n: the sampled gap sits
    # near log 2
    assert abs(ev.gap - math.log(2)) < 0.05


def test_recurrence_evidence_on_finite_graph():
    from qfpuzzles.diagram import recurrence_evidence

    k3 = complete_graph(3)
    ev = recurrence_evidence(k3, "0", k3.vertices, 8)
    assert ev.gap is not None and ev.gap > 0  # excursions die entirely
