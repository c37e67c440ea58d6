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

Adjacency is indexed once per graph (:attr:`GraphTruncation.adjacency`).
One packed pass counts walks from all its sources at once, the counts
from every source packed into one big integer per vertex and length, so
a step is one multiply-add per bundle.  It counts the walks that avoid a
set between their ends: from one source (:func:`avoiding_path_counts`),
the first returns to a finite set F from all of F, and, avoiding nothing,
the closed walks of :func:`periodic_point_counts`.  The semi-local zeta's
two routes stay independent in what they compute (first returns to F
against traces of G and G minus F), and the tests' oracles share no code
with the pass.

``completeness_bound`` records up to which cycle length the presentation
is guaranteed faithful to the intended (possibly infinite) graph; ``None``
means the graph is exactly as presented.  :meth:`GraphTruncation.exact_up_to`
is the one place that reads it to decide whether counts are exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

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
            if not (_is_int(e.length) and _is_int(e.multiplicity)):
                raise GraphError(f"edge {e} needs integer length and multiplicity")
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

    def exact_up_to(self, n: int) -> bool:
        """True when counts up to length ``n`` are exact: ``n`` is within
        the completeness bound, or there is none."""
        return self.completeness_bound is None or n <= self.completeness_bound

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
        lines = [f"digraph {_dot_quote(self.name)} {{"]
        for v in self.vertices:
            shape = ' shape=doublecircle' if v in self.distinguished else ""
            lines.append(f"  {_dot_quote(v)}[label={_dot_quote(v)}{shape}];")
        for e in self.edges:
            tag = ""
            if e.length != 1 or e.multiplicity != 1:
                tag = f' [label="len {e.length} x{e.multiplicity}"]'
            lines.append(f"  {_dot_quote(e.src)} -> {_dot_quote(e.dst)}{tag};")
        lines.append("}")
        return "\n".join(lines)


def _dot_quote(text: str) -> str:
    """``text`` as a double-quoted DOT string, with ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


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
    _check_counts([entry for row in matrix for entry in row], "adjacency entries")
    names = tuple(str(k) for k in range(d))
    edges = []
    for r, row in enumerate(matrix):
        for c, entry in enumerate(row):
            if entry:
                edges.append(Edge(names[r], names[c], 1, entry))
    return GraphTruncation(names, tuple(edges), name="sft")


def _check_counts(counts: Iterable, what: str) -> None:
    """Refuse an entry that is not an ``int`` (a ``bool`` included) or is negative."""
    for c in counts:
        if not _is_int(c):
            raise GraphError(f"{what} must be integers, got {c!r}")
        if c < 0:
            raise GraphError(f"{what} must be non-negative")


LOOP_VERTEX = "a"


def loop_graph(first_return_counts: Sequence[int]) -> GraphTruncation:
    """One distinguished vertex with ``f_n`` disjoint first-return loops of

    each length ``n``; faithful up to cycle length ``len(counts)``.
    """
    _check_counts(first_return_counts, "loop counts")
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
        _check_counts(counts, "counts")
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
                edges.append(Edge(src, dst, n, c))
    g = GraphTruncation(
        ("a", "b"), tuple(edges), distinguished=("a", "b"),
        completeness_bound=bound, name="two-hub",
    )
    _assert_two_hub_identity(g, a_counts, b_counts, s_counts, t_counts, bound)
    return g


def _assert_two_hub_identity(g, a_counts, b_counts, s_counts, t_counts, bound):
    from qfpuzzles.series import PowerSeries, _reciprocal

    measured = PowerSeries.from_counts(
        avoiding_path_counts(g, "a", {"a"}, bound)["a"], order=bound
    )
    a = PowerSeries.from_counts(a_counts, order=bound)
    one_minus_b = [1, *(-c for c in b_counts[:bound])] + [0] * (bound - len(b_counts))
    s = PowerSeries.from_counts(s_counts, order=bound)
    t = PowerSeries.from_counts(t_counts, order=bound)
    expected = a + s * t * PowerSeries(_reciprocal(one_minus_b))
    if measured != expected:
        raise GraphError("first-return identity violated; construction is inconsistent")


def gamma_n(p: Puzzle, n: int) -> GraphTruncation:
    """Level-n transition graph of a puzzle: ``u -> v`` when some piece of

    order n+1 has i-parent u and f-image v.  Needs level n+1, so
    ``n <= depth - 1``.
    """
    _check_gamma_level(p, n)
    names = tuple(p.label(v) for v in p.level(n))
    edges = tuple(Edge(*e) for e in sorted((p.label(u), p.label(v)) for u, v in p.fibres(n + 1)))
    return GraphTruncation(names, edges, name=f"{p.name}-gamma{n}")


def _check_gamma_level(p: Puzzle, n: int) -> None:
    if not 1 <= n <= p.depth - 1:
        raise PuzzleError(f"level {n} needs pieces of order {n + 1}; depth is {p.depth}")


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


def based_loop_counts(g: GraphTruncation, base: str, max_length: int) -> list[int]:
    """Loops (closed walks) of each length 1..max_length based at a vertex."""
    if base not in g.vertices:
        raise GraphError(f"unknown base vertex {base!r}")
    return avoiding_path_counts(g, base, (), max_length)[base]


def periodic_point_counts(g: GraphTruncation, max_length: int) -> list[int]:
    """Number of n-periodic sequences of the shift on the graph's paths,

    for n = 1..max_length.  Counted as sequences (points), not orbits: the
    trace of the n-th adjacency power of the explicit graph, read off one
    excursion pass from every vertex, avoiding nothing.  With ``W(j, x, y)``
    the walks ``x -> y`` of length ``j`` and ``W(0, x, y) = [x == y]``,
    ``p_n`` sums ``W(n, v, v)`` over the named vertices ``v`` and
    ``(L - 1) * m * W(n - L, dst, src)`` over the bundles of length
    ``L > 1`` and multiplicity ``m``, one term per interior vertex.
    """
    counts = _excursion_counts(g, g.vertices, (), max_length)
    points = list(map(sum, zip(*map(counts, g.vertices, g.vertices)))) or [0] * max_length
    for e in g.edges:
        if 1 < e.length <= max_length:
            walks = [int(e.dst == e.src), *counts(e.dst, e.src)]
            for n in range(e.length, max_length + 1):
                points[n - 1] += (e.length - 1) * e.multiplicity * walks[n - e.length]
    return points


def _excursion_counts(
    g: GraphTruncation, sources: Sequence[str], avoid: Iterable[str], max_length: int
) -> Callable[[str, str], list[int]]:
    """``counts(u, y)``: walks from source ``u`` to named vertex ``y`` of each length

    1..max_length whose intermediate named vertices avoid ``avoid`` (names
    that are not vertices are ignored).  One pull serves every source:
    ``rows[j - 1][y]`` holds the count from ``sources[k]`` in bit slot ``k``,
    ``sum m * live[j - L][u]`` over the bundles ``u -> y`` of length
    ``L <= j`` and multiplicity ``m``.  ``live`` is the rows, but row 0
    holds only the sources, one bit each, and later rows are zero on
    ``avoid``: arrivals there are counted but not extended, on whole
    integers, as every slot avoids the same set.  With ``D`` the largest
    weighted out-degree (at least 1), induction on ``j`` bounds the walks
    of length ``j`` from a source by ``sum_e m_e D^(j - L_e) <= D^j``, so
    slots of the bit length of ``D ** max_length`` never carry.  Nothing
    lands after ``longest`` rows with nothing live: the pass stops there.
    """
    index = {v: k for k, v in enumerate(g.vertices)}
    for u in sources:
        if u not in index:
            raise GraphError(f"unknown source vertex {u!r}")
    if max_length < 0:
        raise GraphError(f"max_length must be >= 0, got {max_length}")
    degree = max((sum(e.multiplicity for e in es) for es in g.adjacency.values()), default=0)
    width = (max(1, degree) ** max_length).bit_length()
    by_length: dict[int, list[tuple[int, int, int]]] = {}
    for e in g.edges:
        by_length.setdefault(e.length, []).append((index[e.src], index[e.dst], e.multiplicity))
    longest = max(by_length, default=1)
    stops = [index[v] for v in set(avoid) if v in index]
    zero = [0] * len(index)
    live = [zero] * longest + [zero[:]]  # row j at longest + j
    for k, u in enumerate(sources):
        live[longest][index[u]] += 1 << width * k
    rows = [zero] * max_length
    last = 0  # the last row with a live entry
    for j in range(1, max_length + 1):
        ends = zero[:]
        for L, bundles in by_length.items():
            before = live[longest + j - L]
            for u, y, m in bundles:
                if before[u]:
                    ends[y] += m * before[u]
        rows[j - 1] = ends
        if stops:
            ends = ends[:]
            for t in stops:
                ends[t] = 0
        live.append(ends)
        if any(ends):
            last = j
        elif j - last >= longest:
            break
    shifts = {u: width * k for k, u in enumerate(sources)}
    mask = (1 << width) - 1

    def counts(u: str, y: str) -> list[int]:
        b, shift = index[y], shifts[u]
        return [row[b] >> shift & mask for row in rows]
    return counts


def avoiding_path_counts(g: GraphTruncation, src: str, avoid: Iterable[str], max_length: int) -> dict[str, list[int]]:
    """For every named vertex y, the counts of walks src->y of each length

    1..max_length whose intermediate named vertices avoid the given set
    (endpoints exempt).  Anonymous bundle interiors are never avoidable.
    """
    counts = _excursion_counts(g, [src], avoid, max_length)
    return {y: counts(src, y) for y in g.vertices}
