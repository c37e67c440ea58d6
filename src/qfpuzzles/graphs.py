"""Finite presentations of countable directed graphs and exact path counting.

A :class:`GraphTruncation` names finitely many vertices and connects them
with *bundles*: an edge record ``(src, dst, length, multiplicity)`` stands
for ``multiplicity`` pairwise-disjoint simple paths of ``length`` edges
from ``src`` to ``dst`` whose interior vertices are fresh and anonymous.
Plain digraphs are the special case ``length == multiplicity == 1``.

This presentation keeps countable graphs (loop graphs with huge
first-return counts) finite while preserving exact path counting: interior
vertices carry no choices, so every walk statistic reduces to big-integer
dynamic programming over named vertices, length-aware.

Adjacency is indexed once per graph (:attr:`GraphTruncation.adjacency`);
every kernel reads that index, and :func:`avoiding_path_counts` runs one
excursion pass per source and returns the counts to every target.

``completeness_bound`` records up to which cycle length the presentation
is guaranteed faithful to the intended (possibly infinite) graph; ``None``
means the graph is exactly as presented.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from qfpuzzles.puzzle import Puzzle, PuzzleError


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    length: int = 1
    multiplicity: int = 1


@dataclass(frozen=True)
class GraphTruncation:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    distinguished: tuple[str, ...] = ()
    completeness_bound: int | None = None
    name: str = "graph"

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise GraphError("duplicate vertex names")
        seen = set()
        for e in self.edges:
            if e.src not in vset or e.dst not in vset:
                raise GraphError(f"edge {e} mentions unknown vertex")
            if e.length < 1 or e.multiplicity < 1:
                raise GraphError(f"edge {e} needs length >= 1 and multiplicity >= 1")
            key = (e.src, e.dst, e.length)
            if key in seen:
                raise GraphError(f"duplicate edge bundle {key}")
            seen.add(key)
        for d in self.distinguished:
            if d not in vset:
                raise GraphError(f"distinguished vertex {d!r} unknown")

    # -- structure ---------------------------------------------------------

    @cached_property
    def adjacency(self) -> dict[str, tuple[Edge, ...]]:
        """Out-edges of every vertex, sorted by ``(dst, length)``; built once."""
        outs: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in sorted(self.edges, key=lambda e: (e.dst, e.length)):
            outs[e.src].append(e)
        return {v: tuple(es) for v, es in outs.items()}

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        return self.adjacency[v]

    @property
    def is_plain(self) -> bool:
        """True when every bundle is a single ordinary edge."""
        return all(e.length == 1 and e.multiplicity == 1 for e in self.edges)

    def without(self, removed: Iterable[str]) -> "GraphTruncation":
        gone = set(removed)
        return GraphTruncation(
            tuple(v for v in self.vertices if v not in gone),
            tuple(e for e in self.edges if e.src not in gone and e.dst not in gone),
            tuple(d for d in self.distinguished if d not in gone),
            self.completeness_bound,
            self.name + "-sub",
        )

    def materialize(self, max_vertices: int = 100_000) -> "GraphTruncation":
        """Expand bundles into explicit unit edges with fresh interior

        vertices.  Multiplicity of unit bundles is preserved (parallel
        edges), so walk counting on the result agrees with the compact
        presentation.
        """
        extra = sum(e.multiplicity * (e.length - 1) for e in self.edges)
        if len(self.vertices) + extra > max_vertices:
            raise GraphError(f"materialization would need {extra} interior vertices")
        vertices = list(self.vertices)
        edges: list[Edge] = []
        for e in self.edges:
            if e.length == 1:
                edges.append(e)
                continue
            for copy in range(e.multiplicity):
                chain = [e.src]
                for step in range(1, e.length):
                    v = f"{e.src}>{e.dst}#{e.length}.{copy}.{step}"
                    vertices.append(v)
                    chain.append(v)
                chain.append(e.dst)
                for a, b in zip(chain, chain[1:]):
                    edges.append(Edge(a, b, 1, 1))
        return GraphTruncation(
            tuple(vertices), tuple(edges), self.distinguished, self.completeness_bound,
            self.name + "-explicit",
        )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [
                [e.src, e.dst]
                if e.length == 1 and e.multiplicity == 1
                else [e.src, e.dst, e.length, e.multiplicity]
                for e in self.edges
            ],
            "distinguished": list(self.distinguished),
            "completeness_bound": self.completeness_bound,
        }

    def to_dot(self) -> str:
        lines = [f'digraph "{self.name}" {{']
        for v in self.vertices:
            shape = ' shape=doublecircle' if v in self.distinguished else ""
            lines.append(f'  "{v}"[label="{v}"{shape}];')
        for e in self.edges:
            tag = ""
            if e.length != 1 or e.multiplicity != 1:
                tag = f' [label="len {e.length} x{e.multiplicity}"]'
            lines.append(f'  "{e.src}" -> "{e.dst}"{tag};')
        lines.append("}")
        return "\n".join(lines)


# -- builders ------------------------------------------------------------


def complete_graph(d: int) -> GraphTruncation:
    """Complete oriented graph on d vertices, self-loops included."""
    if d < 1:
        raise GraphError("d must be >= 1")
    names = tuple(str(k) for k in range(d))
    edges = tuple(Edge(u, v) for u in names for v in names)
    return GraphTruncation(names, edges, name=f"K{d}")


def sft_graph(matrix: Sequence[Sequence[int]]) -> GraphTruncation:
    """Digraph of a 0/1 adjacency matrix (vertex shift presentation)."""
    d = len(matrix)
    if any(len(row) != d for row in matrix):
        raise GraphError("adjacency matrix must be square")
    names = tuple(str(k) for k in range(d))
    edges = []
    for r, row in enumerate(matrix):
        for c, entry in enumerate(row):
            if entry < 0:
                raise GraphError("adjacency entries must be non-negative")
            if entry:
                edges.append(Edge(names[r], names[c], 1, int(entry)))
    return GraphTruncation(names, tuple(edges), name="sft")


LOOP_VERTEX = "a"


def loop_graph(first_return_counts: Sequence[int]) -> GraphTruncation:
    """One distinguished vertex with ``f_n`` disjoint first-return loops of

    each length ``n``; faithful up to cycle length ``len(counts)``.
    """
    if any(c < 0 for c in first_return_counts):
        raise GraphError("loop counts must be non-negative")
    edges = tuple(
        Edge(LOOP_VERTEX, LOOP_VERTEX, n, c)
        for n, c in enumerate(first_return_counts, start=1)
        if c > 0
    )
    return GraphTruncation(
        (LOOP_VERTEX,),
        edges,
        distinguished=(LOOP_VERTEX,),
        completeness_bound=len(first_return_counts),
        name="loop",
    )


def two_hub_graph(
    a_counts: Sequence[int],
    b_counts: Sequence[int],
    s_counts: Sequence[int],
    t_counts: Sequence[int],
    bound: int | None = None,
) -> GraphTruncation:
    """Two loop graphs at hubs ``a`` and ``b`` joined by disjoint simple

    paths: ``s_n`` paths a->b and ``t_n`` paths b->a of each length n.
    The measured first-return series at ``a`` then satisfies
    ``a(z) + s(z) t(z) / (1 - b(z))`` coefficientwise, which is asserted
    up to the completeness bound at construction time.
    """
    for counts in (a_counts, b_counts, s_counts, t_counts):
        if any(c < 0 for c in counts):
            raise GraphError("counts must be non-negative")
    bound = bound if bound is not None else max(
        len(a_counts), len(b_counts), len(s_counts) + len(t_counts) + len(b_counts)
    )
    edges = []
    for counts, src, dst in (
        (a_counts, "a", "a"),
        (b_counts, "b", "b"),
        (s_counts, "a", "b"),
        (t_counts, "b", "a"),
    ):
        for n, c in enumerate(counts, start=1):
            if c > 0:
                edges.append(Edge(src, dst, n, int(c)))
    g = GraphTruncation(
        ("a", "b"), tuple(edges), distinguished=("a", "b"),
        completeness_bound=bound, name="two-hub",
    )
    _assert_two_hub_identity(g, a_counts, b_counts, s_counts, t_counts, bound)
    return g


def _assert_two_hub_identity(g, a_counts, b_counts, s_counts, t_counts, bound):
    from qfpuzzles.series import PowerSeries

    measured = PowerSeries.from_counts(
        avoiding_path_counts(g, "a", {"a"}, bound)["a"], order=bound
    )
    a = PowerSeries.from_counts(a_counts, order=bound)
    b = PowerSeries.from_counts(b_counts, order=bound)
    s = PowerSeries.from_counts(s_counts, order=bound)
    t = PowerSeries.from_counts(t_counts, order=bound)
    expected = a + s * t * (PowerSeries.one(bound) - b).reciprocal()
    if measured != expected:
        raise GraphError("first-return identity violated; construction is inconsistent")


def gamma_n(p: Puzzle, n: int) -> GraphTruncation:
    """Level-n transition graph of a puzzle: ``u -> v`` when some piece of

    order n+1 has i-parent u and f-image v.  Needs level n+1, so
    ``n <= depth - 1``.
    """
    if not 1 <= n <= p.depth - 1:
        raise PuzzleError(f"level {n} needs pieces of order {n + 1}; depth is {p.depth}")
    names = tuple(p.label(v) for v in p.level(n))
    edges = tuple(Edge(*e) for e in sorted((p.label(u), p.label(v)) for u, v in p.fibres(n + 1)))
    return GraphTruncation(names, edges, name=f"{p.name}-gamma{n}")


def from_spec(data: Mapping) -> GraphTruncation:
    """Build a graph from its JSON description.

    Kinds: ``complete`` (``d``), ``adjacency`` (``matrix``), ``loop_graph``
    (``f``), ``two_hub`` (``a``, ``b``, ``s``, ``t``, optional ``bound``),
    or a generic ``vertices``/``edges`` listing.  Raises :class:`GraphError`
    on a spec that is not an object or has a missing or ill-typed key.
    """
    if not isinstance(data, Mapping):
        raise GraphError("a graph spec must be a JSON object")
    kind = data.get("kind")
    if kind == "complete":
        return complete_graph(_spec_key(data, "d", _is_int, "an integer"))
    if kind == "adjacency":
        return sft_graph(_spec_key(data, "matrix", _is_int_rows, "a list of integer rows"))
    if kind == "loop_graph":
        return loop_graph(_spec_key(data, "f", _is_ints, "a list of integers"))
    if kind == "two_hub":
        counts = [_spec_key(data, k, _is_ints, "a list of integers", []) for k in "abst"]
        return two_hub_graph(*counts, _spec_key(data, "bound", _is_bound, _BOUND, None))
    if kind is None and "vertices" in data:
        edges = _spec_key(data, "edges", _is_edges, "a list of [u, v] or [u, v, length, multiplicity]", [])
        return GraphTruncation(
            tuple(_spec_key(data, "vertices", _is_strs, "a list of strings")),
            tuple(Edge(*e) for e in edges),
            tuple(_spec_key(data, "distinguished", _is_strs, "a list of strings", [])),
            _spec_key(data, "completeness_bound", _is_bound, _BOUND, None),
        )
    raise GraphError(f"unrecognized graph spec kind {kind!r}")


_REQUIRED = object()
_BOUND = "a non-negative integer or null"


def _spec_key(data: Mapping, key: str, ok, what: str, default=_REQUIRED):
    if key not in data:
        if default is _REQUIRED:
            raise GraphError(f"graph spec needs {key!r}")
        return default
    if not ok(data[key]):
        raise GraphError(f"graph spec {key!r} must be {what}")
    return data[key]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_ints(x) -> bool:
    return isinstance(x, list) and all(map(_is_int, x))


def _is_int_rows(x) -> bool:
    return isinstance(x, list) and all(map(_is_ints, x))


def _is_strs(x) -> bool:
    return isinstance(x, list) and all(isinstance(v, str) for v in x)


def _is_bound(x) -> bool:
    return x is None or (_is_int(x) and x >= 0)


def _is_edges(x) -> bool:
    return isinstance(x, list) and all(
        isinstance(e, list) and len(e) in (2, 4) and _is_strs(e[:2]) and _is_ints(e[2:]) for e in x
    )


def loads(text: str) -> GraphTruncation:
    return from_spec(json.loads(text))


# -- exact counting ----------------------------------------------------------


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


def based_loop_counts(g: GraphTruncation, base: str, max_length: int) -> list[int]:
    """Loops (closed walks) of each length 1..max_length based at a vertex."""
    if base not in g.vertices:
        raise GraphError(f"unknown base vertex {base!r}")
    table = path_count_table(g, max_length)
    return [table[n][base][base] for n in range(1, max_length + 1)]


def periodic_point_counts(g: GraphTruncation, max_length: int) -> list[int]:
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


def avoiding_path_counts(
    g: GraphTruncation,
    src: str,
    avoid: Iterable[str],
    max_length: int,
) -> dict[str, list[int]]:
    """For every named vertex y, the counts of walks src->y of each length

    1..max_length whose intermediate named vertices avoid the given set
    (endpoints exempt).  Anonymous bundle interiors are never avoidable.
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
