import random
import re
import warnings
from fractions import Fraction

import pytest

from qfpuzzles.constructions import full_shift_puzzle, golden_mean_puzzle
from qfpuzzles.graphs import (
    Edge,
    GraphError,
    GraphTruncation,
    _excursion_counts,
    avoiding_path_counts,
    based_loop_counts,
    complete_graph,
    from_spec,
    gamma_n,
    loop_graph,
    periodic_point_counts,
    sft_graph,
    two_hub_graph,
)
from qfpuzzles.puzzle import PuzzleError
from qfpuzzles.series import PowerSeries, _reciprocal
from qfpuzzles.zeta import (
    TruncationWarning,
    _series_det,
    first_return_matrix,
    periodic_empirical_measure,
    semi_local_zeta_brute,
    semi_local_zeta_det,
    zeta_from_counts,
)


# Reference route for the closed walks of the excursion pass: the all-pairs
# walk table and periodic counts read from it.
def path_count_table(g: GraphTruncation, max_length: int) -> list[dict[str, dict[str, int]]]:
    """``table[j][x][y]`` = number of walks x->y of total length j through

    named vertices (bundle interiors contribute length, not choices).
    """
    verts = g.vertices
    table: list[dict[str, dict[str, int]]] = []
    ident = {x: {y: (1 if x == y else 0) for y in verts} for x in verts}
    table.append(ident)
    outs = g.adjacency
    for j in range(1, max_length + 1):
        row = {x: {y: 0 for y in verts} for x in verts}
        for x in verts:
            for e in outs[x]:
                if e.length > j:
                    continue
                prev = table[j - e.length][e.dst]
                for y in verts:
                    c = prev[y]
                    if c:
                        row[x][y] += e.multiplicity * c
        table.append(row)
    return table


def table_periodic_point_counts(g: GraphTruncation, max_length: int) -> list[int]:
    """Number of n-periodic sequences of the shift on the graph's paths,

    for n = 1..max_length.  Counted as sequences (points), not orbits;
    equals the trace of the n-th adjacency power of the explicit graph.
    """
    table = path_count_table(g, max_length)
    outs = g.adjacency
    out = []
    for n in range(1, max_length + 1):
        total = 0
        for v in g.vertices:
            for e in outs[v]:
                if e.length <= n:
                    total += e.length * e.multiplicity * table[n - e.length][e.dst][v]
        out.append(total)
    return out


# Reference route for the excursion pass: one dictionary DP per source.
def reference_avoiding_path_counts(g: GraphTruncation, src: str, avoid, max_length: int) -> dict[str, list[int]]:
    """For every named vertex y, the walks src->y of each length 1..max_length

    whose intermediate named vertices avoid the given set (endpoints exempt).
    """
    if src not in g.vertices:
        raise GraphError(f"unknown source vertex {src!r}")
    if max_length < 0:
        raise GraphError(f"max_length must be >= 0, got {max_length}")
    forbidden = set(avoid)
    outs = g.adjacency
    # reach[j][x]: walks src->x of length j whose intermediate named
    # vertices avoid the set; arrivals at an avoided vertex are counted
    # but not extended.
    reach: list[dict[str, int]] = [{} for _ in range(max_length + 1)]
    reach[0][src] = 1
    for j in range(max_length + 1):
        for x, c in reach[j].items():
            if j > 0 and x in forbidden:
                continue
            for e in outs[x]:
                nj = j + e.length
                if nj <= max_length:
                    reach[nj][e.dst] = reach[nj].get(e.dst, 0) + c * e.multiplicity
    return {y: [reach[j].get(y, 0) for j in range(1, max_length + 1)] for y in g.vertices}


def excursions(g: GraphTruncation, sources, avoid, max_length: int) -> dict[str, dict[str, list[int]]]:
    """The excursion pass read out: ``counts[u][y]`` for every source u and named vertex y."""
    counts = _excursion_counts(g, sources, avoid, max_length)
    return {u: {y: counts(u, y) for y in g.vertices} for u in sources}


def matrix_power_traces(matrix, n_max):
    """Independent big-int oracle: traces of adjacency powers."""
    d = len(matrix)
    power = [[1 if r == c else 0 for c in range(d)] for r in range(d)]
    traces = []
    for _ in range(n_max):
        power = [
            [sum(power[r][k] * matrix[k][c] for k in range(d)) for c in range(d)]
            for r in range(d)
        ]
        traces.append(sum(power[r][r] for r in range(d)))
    return traces


def brute_walk_counts(g, start, end, length, avoid=()):
    """Independent DFS walk counter over explicit unit edges; walks stop

    at a vertex of ``avoid`` reached after the start.
    """
    adj = {}
    for e in g.edges:
        assert e.length == 1
        adj.setdefault(e.src, []).extend([e.dst] * e.multiplicity)
    total = 0
    stack = [(start, 0)]
    while stack:
        v, steps = stack.pop()
        if steps == length:
            total += v == end
            continue
        if steps > 0 and v in avoid:
            continue
        for w in adj.get(v, []):
            stack.append((w, steps + 1))
    return total


def test_complete_graph_shape_and_counts():
    k3 = complete_graph(3)
    assert len(k3.edges) == 9
    assert periodic_point_counts(k3, 6) == [3**n for n in range(1, 7)]
    k1 = complete_graph(1)
    assert periodic_point_counts(k1, 4) == [1, 1, 1, 1]


def test_complete_graph_counts_match_matrix_oracle():
    k2 = complete_graph(2)
    assert periodic_point_counts(k2, 8) == matrix_power_traces([[1, 1], [1, 1]], 8)


def test_sft_graph_golden_mean_lucas():
    g = sft_graph([[1, 1], [1, 0]])
    assert periodic_point_counts(g, 5) == matrix_power_traces([[1, 1], [1, 0]], 5)
    assert periodic_point_counts(g, 5) == [1, 3, 4, 7, 11]


@pytest.mark.parametrize("build", [
    lambda: sft_graph([[1.5]]),
    lambda: sft_graph([[0.5]]),
    lambda: sft_graph([[1, 0], [True, 1]]),
    lambda: two_hub_graph([1.5], [], [], []),
    lambda: two_hub_graph([1], [], [], [2, 0.5]),
    lambda: loop_graph([1.5]),
    lambda: loop_graph([True]),
    lambda: loop_graph([0.0, 1]),
])
def test_builders_refuse_non_integer_entries(build):
    with pytest.raises(GraphError, match=r"must be integers, got (1\.5|0\.5|0\.0|True)"):
        build()


def test_loop_graph_refuses_negative_counts():
    with pytest.raises(GraphError, match="^loop counts must be non-negative$"):
        loop_graph([1, -1])


def test_sft_graph_identity_and_zero():
    ident = sft_graph([[1, 0], [0, 1]])
    assert periodic_point_counts(ident, 4) == [2, 2, 2, 2]
    zero = sft_graph([[0, 0], [0, 0]])
    assert periodic_point_counts(zero, 4) == [0, 0, 0, 0]


def test_loop_graph_single_self_loop():
    g = loop_graph([1])
    assert periodic_point_counts(g, 5) == [1, 1, 1, 1, 1]
    assert based_loop_counts(g, "a", 5) == [1, 1, 1, 1, 1]


def test_loop_graph_two_two_loops():
    g = loop_graph([0, 2])
    loops = based_loop_counts(g, "a", 8)
    assert loops == [0, 2, 0, 4, 0, 8, 0, 16]
    explicit = g.materialize()
    assert based_loop_counts(explicit, "a", 8) == loops
    for n in (2, 4, 6):
        assert brute_walk_counts(explicit, "a", "a", n) == loops[n - 1]


def test_materialize_size_guard():
    g = loop_graph([0, 0, 0, 0, 0, 1000])
    with pytest.raises(GraphError):
        g.materialize(max_vertices=100)


def test_two_hub_identity_asserted_on_construction():
    g = two_hub_graph([1, 1], [0, 2], [0, 1], [0, 0, 0, 1], 10)
    assert g.completeness_bound == 10
    assert ("a", "b") == g.distinguished


def test_two_hub_excursion_counts():
    # No b-loops, single a->b and b->a paths: excursions add one length-2
    # first return on top of the a-loops.
    g = two_hub_graph([1, 0], [0, 0], [1], [1], 8)
    first = avoiding_path_counts(g, "a", {"a"}, 8)["a"]
    assert first == [1, 1, 0, 0, 0, 0, 0, 0]


def test_two_hub_without_transitions_reduces_to_loop_graph():
    g = two_hub_graph([1, 2], [0, 3], [], [], 8)
    assert avoiding_path_counts(g, "a", {"a"}, 8)["a"] == [1, 2, 0, 0, 0, 0, 0, 0]
    loops_hub = based_loop_counts(g, "a", 8)
    loops_plain = based_loop_counts(loop_graph([1, 2]), "a", 8)
    assert loops_hub == loops_plain


def test_gamma_n_full_shift_is_complete():
    p = full_shift_puzzle(3)
    g = gamma_n(p, 1)
    assert sorted(g.vertices) == ["0", "1"]
    assert sorted((e.src, e.dst) for e in g.edges) == [
        ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"),
    ]


def test_gamma_n_golden_mean_misses_forbidden_edge():
    p = golden_mean_puzzle(3)
    g = gamma_n(p, 1)
    assert sorted((e.src, e.dst) for e in g.edges) == [("0", "0"), ("0", "1"), ("1", "0")]


def test_gamma_n_needs_next_level():
    p = golden_mean_puzzle(3)
    with pytest.raises(PuzzleError):
        gamma_n(p, 3)


def test_avoiding_path_counts_k3():
    k3 = complete_graph(3)
    counts = avoiding_path_counts(k3, "0", {"0"}, 8)["0"]
    assert counts == [1] + [2 ** (k - 1) for k in range(2, 9)]


def test_negative_lengths_raise_graph_error():
    from qfpuzzles.diagram import entropy_at_infinity_estimate, gurevich_entropy_estimate, recurrence_evidence

    k2 = complete_graph(2)
    calls = [
        lambda n: avoiding_path_counts(k2, "0", {"0"}, n),
        lambda n: entropy_at_infinity_estimate(k2, ["0"], n),
        lambda n: based_loop_counts(k2, "0", n),
        lambda n: gurevich_entropy_estimate(k2, "0", n),
        lambda n: periodic_point_counts(k2, n),
        lambda n: recurrence_evidence(k2, "0", ["1"], n),
    ]
    for call in calls:
        for n in (-1, -3):
            with pytest.raises(GraphError, match=rf"^max_length must be >= 0, got {n}$"):
                call(n)
        call(0)  # length 0 is an empty table, not an error


def random_bundle_graph(rng, names):
    """Random bundles: lengths 1..3, multiplicities 1..2, no duplicate key."""
    edges = {}
    for _ in range(rng.randint(1, 2 * len(names))):
        key = (rng.choice(names), rng.choice(names), rng.randint(1, 3))
        edges[key] = Edge(*key, rng.randint(1, 2))
    return GraphTruncation(tuple(names), tuple(edges.values()))


def test_based_loop_counts_match_the_path_count_table():
    """The one-source excursion pass against the diagonal of the all-pairs table."""
    rng = random.Random(5)
    for _ in range(10):
        d = rng.randint(1, 4)
        graphs = [
            sft_graph([[rng.randint(0, 2) for _ in range(d)] for _ in range(d)]),
            random_bundle_graph(rng, ["a", "b", "c"][: rng.randint(1, 3)]),
        ]
        for g in graphs:
            table = path_count_table(g, 7)
            for v in g.vertices:
                expected = [table[n][v][v] for n in range(1, 8)]
                assert based_loop_counts(g, v, 7) == expected


def test_based_loop_counts_edge_cases():
    g = complete_graph(2)
    assert based_loop_counts(g, "0", 0) == []
    with pytest.raises(GraphError, match=r"^max_length must be >= 0, got -3$"):
        based_loop_counts(g, "0", -3)
    with pytest.raises(GraphError, match="unknown base vertex 'x'"):
        based_loop_counts(g, "x", 4)


def test_avoiding_path_counts_brute_cross_check():
    """Every (source, target) pair against DFS on the materialized graph,

    on 0/1 graphs and on bundle graphs, with avoid sets that contain the
    source and sets that do not.
    """
    rng = random.Random(3)
    graphs = []
    for _ in range(8):
        d = rng.randint(2, 4)
        graphs.append(sft_graph([[rng.randint(0, 1) for _ in range(d)] for _ in range(d)]))
        graphs.append(random_bundle_graph(rng, ["a", "b", "c"][: rng.randint(2, 3)]))
    bundles = [e for g in graphs for e in g.edges]
    assert any(e.length > 1 for e in bundles) and any(e.multiplicity > 1 for e in bundles)
    L = 5
    for g in graphs:
        explicit = g.materialize()
        for src in g.vertices:
            others = [v for v in g.vertices if v != src]
            avoid_sets = [
                {src},
                set(others),
                set(),
                set(rng.sample(g.vertices, rng.randint(1, len(g.vertices)))),
            ]
            for avoid in avoid_sets:
                counts = avoiding_path_counts(g, src, avoid, L)
                assert set(counts) == set(g.vertices)
                for dst in g.vertices:
                    brute = [brute_walk_counts(explicit, src, dst, n, avoid) for n in range(1, L + 1)]
                    assert counts[dst] == brute, (g.edges, src, dst, avoid)


def test_periodic_counts_on_bundles_match_explicit():
    rng = random.Random(5)
    for _ in range(10):
        f = [rng.randint(0, 2) for _ in range(rng.randint(1, 4))]
        if not any(f):
            continue
        g = loop_graph(f)
        compact = periodic_point_counts(g, 7)
        explicit = periodic_point_counts(g.materialize(), 7)
        assert compact == explicit


def test_graph_json_roundtrip():
    g = two_hub_graph([1], [0, 1], [1], [1], 6)
    again = from_spec(g.to_json())
    assert again.vertices == g.vertices
    assert again.edges == g.edges
    assert again.completeness_bound == g.completeness_bound


def test_from_spec_kinds():
    assert len(from_spec({"kind": "complete", "d": 4}).edges) == 16
    assert from_spec({"kind": "adjacency", "matrix": [[1]]}).vertices == ("0",)
    assert from_spec({"kind": "loop_graph", "f": [0, 2]}).completeness_bound == 2
    hub = from_spec({"kind": "two_hub", "a": [1], "b": [], "s": [1], "t": [1], "bound": 6})
    assert set(hub.distinguished) == {"a", "b"}
    with pytest.raises(GraphError):
        from_spec({"kind": "mystery"})


def test_duplicate_edges_rejected():
    with pytest.raises(GraphError):
        GraphTruncation(("a",), (Edge("a", "a", 1, 1), Edge("a", "a", 1, 2)))


def test_dot_export_mentions_vertices_and_bundles():
    g = loop_graph([0, 3])
    dot = g.to_dot()
    assert '"a"' in dot and "len 2 x3" in dot


DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


def dot_strings(dot: str) -> list[str]:
    """The quoted strings of a DOT text in order, unescaped; no quote or
    backslash may be left outside them."""
    outside = DOT_STRING.sub("", dot)
    assert '"' not in outside and "\\" not in outside, outside
    return [re.sub(r"\\(.)", r"\1", q) for q in DOT_STRING.findall(dot)]


def test_dot_export_quotes_names():
    """Names with quotes and backslashes come out as well-formed DOT strings
    that read back as the names."""
    names = ('a"b', "x\\", '\\"', "plain")
    edges = (Edge('a"b', "x\\"), Edge("x\\", '\\"', 2, 3), Edge("plain", 'a"b'))
    g = GraphTruncation(names, edges, distinguished=("x\\",), name='g"\\')
    nodes = [s for v in names for s in (v, v)]
    assert dot_strings(g.to_dot()) == [g.name, *nodes, 'a"b', "x\\", "x\\", '\\"', "len 2 x3", "plain", 'a"b']
    assert dot_strings(loop_graph([0, 3]).to_dot()) == ["loop", "a", "a", "a", "a", "len 2 x3"]


def test_path_count_table_identity_row():
    k2 = complete_graph(2)
    table = path_count_table(k2, 3)
    assert table[0]["0"]["0"] == 1 and table[0]["0"]["1"] == 0
    assert table[3]["0"]["1"] == 4


def test_non_integer_bundles_rejected():
    for length, multiplicity in [(1, 1.5), (1.0, 1), (2, 2.0), (True, 1), (1, True), (1, "2")]:
        with pytest.raises(GraphError, match="integer length and multiplicity"):
            GraphTruncation(("a", "b"), (Edge("a", "b", length, multiplicity),))
    with pytest.raises(GraphError):
        loop_graph([1, 1.5])


def kernel_oracle_graphs(rng):
    """Random bundle graphs (lengths 1..4, multiplicities up to 10**6), the
    loop and two-hub builders, F-deleted subgraphs and edgeless graphs."""
    graphs = []
    for _ in range(12):
        names = [f"v{k}" for k in range(rng.randint(1, 6))]
        edges = {}
        for _ in range(rng.randint(0, 3 * len(names))):
            key = (rng.choice(names), rng.choice(names), rng.randint(1, 4))
            edges[key] = Edge(*key, rng.choice([1, 2, rng.randint(1, 10**6)]))
        g = GraphTruncation(tuple(names), tuple(edges.values()))
        graphs += [g, g.without(rng.sample(names, rng.randint(1, len(names))))]
    graphs += [
        loop_graph([0, 3, 1, 0, 10**6]),
        loop_graph([1]),
        two_hub_graph([1, 1], [0, 2], [0, 1], [0, 0, 0, 1], 10),
        two_hub_graph([0, 5], [1], [2], [3, 0, 10**6]).without(["b"]),
        GraphTruncation(("a", "b", "c"), ()),
        GraphTruncation((), ()),
    ]
    return graphs


def test_excursion_pass_avoiding_nothing_matches_the_path_count_table():
    """Every walk count of the pass from all vertices, avoiding nothing,

    against the table at lengths 1..N."""
    rng = random.Random(11)
    N = 12
    for g in kernel_oracle_graphs(rng):
        table = path_count_table(g, N)
        counts = excursions(g, g.vertices, (), N)
        for j in range(1, N + 1):
            for x in g.vertices:
                for y in g.vertices:
                    assert counts[x][y][j - 1] == table[j][x][y], (g.edges, j, x, y)


def test_periodic_point_counts_match_the_table_route():
    """The packed route against the parent's table route at orders 0..24,

    and the brute semi-local zeta against the table's counts."""
    rng = random.Random(7)
    for g in kernel_oracle_graphs(rng):
        expected = table_periodic_point_counts(g, 24)
        for order in range(25):
            assert periodic_point_counts(g, order) == expected[:order], (g.edges, order)
        if g.vertices:
            F = rng.sample(g.vertices, rng.randint(1, len(g.vertices)))
            meeting = [t - r for t, r in zip(expected, table_periodic_point_counts(g.without(F), 24))]
            with warnings.catch_warnings():  # the builders' graphs are faithful to short cycles only
                warnings.simplefilter("ignore", TruncationWarning)
                assert semi_local_zeta_brute(g, F, 24) == zeta_from_counts(meeting, order=24)


def test_excursion_slots_avoiding_nothing_do_not_carry_at_the_degree_bound():
    """A slot that holds exactly D**N, with the next source's slot above it.

    Vertex ``a`` has D = 2 self-loops, so walks a -> a of length j number
    2**j, the largest count the slot width allows; ``b -> a`` gives the
    slot above a nonzero count, which a carry would corrupt.
    """
    g = GraphTruncation(("a", "b"), (Edge("a", "a", 1, 2), Edge("b", "a")))
    for N in (1, 2, 7, 24):
        counts = excursions(g, g.vertices, (), N)
        assert counts["a"]["a"][N - 1] == 2**N
        assert counts["b"]["a"][N - 1] == 2 ** (N - 1)
        assert counts["a"]["b"][N - 1] == counts["b"]["b"][N - 1] == 0
        assert periodic_point_counts(g, N) == [2**n for n in range(1, N + 1)]


def test_excursion_pass_matches_the_per_source_passes():
    """The packed pass over all of F against the reference DP for each

    member, to every target, for every size of F, at every max_length
    0..24; and ``avoiding_path_counts`` against the reference DP from every
    source, with avoided names that are not vertices, a one-shot
    generator, a set holding a source that has a self-loop, and no set."""
    rng = random.Random(19)
    graphs = kernel_oracle_graphs(rng)
    bundles = [e for g in graphs for e in g.edges]
    assert any(e.length > 1 for e in bundles) and any(e.multiplicity > 1 for e in bundles)
    member_loops = 0
    for g in graphs:
        for size in range(1, len(g.vertices) + 1):
            F = sorted(rng.sample(g.vertices, size))
            member_loops += any(e.src == e.dst and e.src in F for e in g.edges)
            reference = {u: reference_avoiding_path_counts(g, u, F, 24) for u in F}
            for N in range(25):
                expected = {u: {y: reference[u][y][:N] for y in g.vertices} for u in F}
                assert excursions(g, F, F, N) == expected, (g.edges, F, N)
    assert member_loops > 10
    looped_sources = 0
    for g in graphs:
        for src in g.vertices:
            others = [v for v in g.vertices if v != src][:2]
            cases = [["ghost", "nowhere"], [*others, "ghost"], set()]
            if any(e.src == e.dst == src for e in g.edges):
                looped_sources += 1
                cases.append({src, *others})
            for avoid in cases:
                reference = reference_avoiding_path_counts(g, src, avoid, 24)
                for N in range(25):
                    expected = {y: counts[:N] for y, counts in reference.items()}
                    assert avoiding_path_counts(g, src, avoid, N) == expected, (g.edges, src, avoid, N)
                    assert avoiding_path_counts(g, src, (v for v in avoid), N) == expected, (g.edges, src, avoid, N)
    assert looped_sources > 5


def test_excursion_slots_do_not_carry_at_the_degree_bound():
    """A slot that holds exactly D**N, with the next source's slot above it.

    The chain ``a -> x1 -> ... -> x(N-1) -> a`` of double bundles gives
    2**N excursions ``a -> a`` of length N, the largest count the slot
    width allows (D = 2); ``b -> x1`` puts 2**(N-1) excursions ``b -> a``
    into the slot above in the same integer, which a carry would corrupt.
    """
    for N in (1, 2, 7, 24):
        chain = ["a", *(f"x{k}" for k in range(1, N)), "a"]
        edges = [Edge(u, v, 1, 2) for u, v in zip(chain, chain[1:])] + [Edge("b", chain[1])]
        g = GraphTruncation(("a", "b", *chain[1:-1]), tuple(edges))
        counts = excursions(g, ["a", "b"], ["a", "b"], N)
        assert counts["a"]["a"] == [0] * (N - 1) + [2**N]
        assert counts["b"]["a"] == [0] * (N - 1) + [2 ** (N - 1)]
        assert counts["a"]["b"] == counts["b"]["b"] == [0] * N


def test_excursion_pass_waits_out_the_longest_bundle():
    """The last live walk sits at ``c`` at length 1; the next two rows have

    nothing live, yet ``c``'s length-3 bundle still lands at ``b`` at
    length 4.  A quiet window shorter than the longest bundle loses it."""
    g = GraphTruncation(("a", "b", "c"), (Edge("a", "c"), Edge("c", "b"), Edge("c", "b", 3)))
    for N in (4, 5, 12):
        counts = excursions(g, ["a", "b"], ["a", "b"], N)
        assert counts["a"]["b"] == [0, 1, 0, 1] + [0] * (N - 4)
        assert counts == {u: reference_avoiding_path_counts(g, u, ["a", "b"], N) for u in "ab"}


def test_excursion_callers_match_the_per_source_route():
    """``first_return_matrix``, ``semi_local_zeta_det`` and

    ``entropy_at_infinity_estimate`` against the reference DP from each
    member, with F handed over as a set."""
    from qfpuzzles.diagram import entropy_at_infinity_estimate

    rng = random.Random(23)
    with warnings.catch_warnings():  # the builders' graphs are faithful to short cycles only
        warnings.simplefilter("ignore", TruncationWarning)
        for g in kernel_oracle_graphs(rng):
            for size in range(1, len(g.vertices) + 1):
                F = sorted(rng.sample(g.vertices, size))
                for order in (0, 1, 12):
                    passes = {u: reference_avoiding_path_counts(g, u, F, order) for u in F}
                    L = first_return_matrix(g, set(F), order)
                    assert L.index == tuple(F)
                    assert L.entries == {
                        (u, v): PowerSeries.from_counts(passes[u][v], order=order) for u in F for v in F
                    }
                    matrix = [[[int(u == v), *(-c for c in passes[u][v])] for v in F] for u in F]
                    expected = PowerSeries(_reciprocal(_series_det(matrix)))
                    assert semi_local_zeta_det(g, set(F), order) == expected
                    maxima = [max(col) for col in zip(*(passes[u][v] for u in F for v in F))]
                    table = entropy_at_infinity_estimate(g, set(F), order)
                    assert [r.count for r in table.rows] == maxima


def test_excursion_det_route_equals_brute_on_random_24_vertex_graphs():
    """The shape of the benchmark's graphs: 24 vertices, 86 arcs, |F| = 6, order 24."""
    rng = random.Random(29)
    for _ in range(4):
        cells = rng.sample(range(24 * 24), 86)
        g = sft_graph([[int(24 * r + c in cells) for c in range(24)] for r in range(24)])
        F = set(rng.sample(g.vertices, 6))
        assert semi_local_zeta_det(g, F, 24) == semi_local_zeta_brute(g, F, 24)


def test_excursion_pass_errors():
    """Unknown members first, then a negative length, as the per-source pass."""
    from qfpuzzles.diagram import entropy_at_infinity_estimate

    k2 = complete_graph(2)
    for F in (["0", "x"], ["x"], ["0", "1", "y"]):
        with pytest.raises(GraphError, match="unknown source vertex '[xy]'"):
            entropy_at_infinity_estimate(k2, F, 4)
        with pytest.raises(GraphError, match="unknown source vertex '[xy]'"):
            entropy_at_infinity_estimate(k2, F, -1)
    with pytest.raises(GraphError, match="unknown source vertex 'x'"):
        avoiding_path_counts(k2, "x", ["0", "y"], -1)
    with pytest.raises(GraphError, match="max_length must be >= 0, got -1"):
        _excursion_counts(k2, ["0", "1"], ["0", "1"], -1)
    with pytest.raises(ValueError, match="F must be a subset"):
        semi_local_zeta_det(k2, ["0", "x"], -1)


def test_periodic_empirical_measure_matches_the_table():
    rng = random.Random(13)
    for _ in range(15):
        d = rng.randint(1, 5)
        g = sft_graph([[rng.randint(0, 1) for _ in range(d)] for _ in range(d)])
        for n in range(1, 10):
            loops = path_count_table(g, n)[n]
            total = sum(loops[v][v] for v in g.vertices)
            if total == 0:
                with pytest.raises(ValueError, match="periodic sequences"):
                    periodic_empirical_measure(g, n)
                continue
            expected = {v: Fraction(loops[v][v], total) for v in g.vertices}
            assert periodic_empirical_measure(g, n) == expected
