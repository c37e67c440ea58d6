"""The Markov diagram of a puzzle and its graph-theoretic estimators.

Vertices are the certified irreducible pieces up to a cutoff order.  For
each vertex ``v`` and each piece ``u`` with ``i(u) = v``, the reduction
chain ``u, f(u), f^2(u), ...`` is followed while pieces stay reducible:
if it stops at an irreducible piece ``w`` inside the cutoff, the diagram
gains the arrow ``v ~> w`` with witness ``u``; chains leaving the
certified region produce explicit frontier markers instead of arrows, so
truncation degrades to interval answers rather than wrong ones.  Chains
that die at the root prove the absence of an arrow.

For any fixed pair ``(v, w)`` the witness is unique; this is asserted
during construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from qfpuzzles.graphs import Edge, GraphTruncation, _dot_quote, _excursion_counts, based_loop_counts
from qfpuzzles.puzzle import Puzzle
from qfpuzzles.reducibility import ReducibilityAnalyzer


class DiagramError(ValueError):
    pass


class DepthExhausted(DiagramError):
    """A path walk or witness search left the puzzle truncation."""


@dataclass(frozen=True)
class Arrow:
    source: int
    target: int
    witness: int
    chain: tuple[int, ...]  # witness, f(witness), ..., target (certificate)

    @property
    def steps(self) -> int:
        return len(self.chain) - 1


@dataclass(frozen=True)
class FrontierMarker:
    source: int
    witness: int
    reason: str  # "unknown-verdict" | "target-beyond-cutoff"


class MarkovDiagram:
    def __init__(
        self,
        puzzle: Puzzle,
        analyzer: ReducibilityAnalyzer,
        cutoff: int,
        vertices: Sequence[int],
        arrows: Sequence[Arrow],
        frontier: Sequence[FrontierMarker],
    ):
        self.puzzle = puzzle
        self.analyzer = analyzer
        self.cutoff = cutoff
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        self.frontier = tuple(frontier)
        self._arrow_by_pair = {(a.source, a.target): a for a in self.arrows}
        if len(self._arrow_by_pair) != len(self.arrows):
            raise DiagramError("duplicate arrows between a vertex pair")

    def arrow(self, source: int, target: int) -> Arrow | None:
        return self._arrow_by_pair.get((source, target))

    def successors(self, vertex: int) -> list[int]:
        return sorted(t for (s, t) in self._arrow_by_pair if s == vertex)

    @property
    def is_complete(self) -> bool:
        """True when no reduction chain hit the truncation frontier."""
        return not self.frontier

    def to_graph(self) -> GraphTruncation:
        p = self.puzzle
        return GraphTruncation(
            tuple(p.label(v) for v in self.vertices),
            tuple(Edge(p.label(a.source), p.label(a.target)) for a in self.arrows),
            completeness_bound=None if self.is_complete else self.cutoff,
            name=f"{p.name}-diagram",
        )

    def to_dot(self) -> str:
        p = self.puzzle
        q = _dot_quote
        lines = [f"digraph {q(p.name)} {{"]
        for v in self.vertices:
            lines.append(f"  {q(p.label(v))}[label={q(f'{p.label(v)}|{p.order(v)}')}];")
        for a in self.arrows:
            lines.append(f"  {q(p.label(a.source))} -> {q(p.label(a.target))} [label={q(p.label(a.witness))}];")
        for m in self.frontier:
            lines.append(f"  {q(p.label(m.source))} -> {q('?' + p.label(m.witness))} [style=dashed];")
        lines.append("}")
        return "\n".join(lines)


def build_diagram(
    p: Puzzle, cutoff: int, analyzer: ReducibilityAnalyzer | None = None
) -> MarkovDiagram:
    """Construct the Markov diagram on irreducible pieces of order <= cutoff.

    Witness search needs one extra level, so ``cutoff <= depth - 1``.
    """
    if cutoff < 1:
        raise DiagramError(f"cutoff must be >= 1, got {cutoff}")
    if cutoff + 1 > p.depth:
        raise DiagramError(f"cutoff {cutoff} needs depth >= {cutoff + 1}, have {p.depth}")
    an = analyzer or ReducibilityAnalyzer(p)
    vertices: list[int] = []
    for n in range(1, cutoff + 1):
        level = an.irreducible_pieces(n)
        vertices.extend(level.certified)
        if level.unknown:
            raise DiagramError(
                f"order-{n} pieces with unknown verdicts cannot seed a diagram"
            )
    vset = set(vertices)
    arrows: list[Arrow] = []
    frontier: list[FrontierMarker] = []
    for v in sorted(vertices):
        for u in p.i_preimages(v):
            chain = an.reduction_chain(u)
            if chain.kind == "root":
                continue
            if chain.kind == "unknown":
                frontier.append(FrontierMarker(v, u, "unknown-verdict"))
                continue
            w = chain.terminal
            if w in vset:
                arrows.append(Arrow(v, w, u, chain.pieces))
            else:
                frontier.append(FrontierMarker(v, u, "target-beyond-cutoff"))
    return MarkovDiagram(p, an, cutoff, sorted(vertices), arrows, frontier)


# -- path / piece correspondence ----------------------------------------------


def _validate_path(d: MarkovDiagram, path: Sequence[int]) -> list[Arrow]:
    if not path:
        raise DiagramError("empty path")
    hops = []
    for v, w in zip(path, path[1:]):
        a = d.arrow(v, w)
        if a is None:
            raise DiagramError(
                f"no arrow {d.puzzle.label(v)!r} ~> {d.puzzle.label(w)!r}"
            )
        hops.append(a)
    return hops


def path_to_piece(d: MarkovDiagram, path: Sequence[int]) -> int:
    """The unique piece encoding a diagram path of length n.

    One forward walk from ``v_0``: each arrow leads to the one child of the
    current piece ``w`` whose ``f^t``-image, ``t = |w| - |source|``, is the
    arrow's witness (a reducible piece maps its i-tree isomorphically).
    The returned piece ``w`` has order ``|v_0| + n`` and satisfies
    ``i^n(w) = v_0`` and, for every k, ``i^k(w)`` reduces onto ``v_{n-k}``;
    both are asserted, with reduction verdicts consulted wherever the
    truncation certifies them.
    """
    p = d.puzzle
    hops = _validate_path(d, path)
    n = len(path) - 1
    if p.order(path[0]) + n > p.depth:
        raise DepthExhausted(f"piece of order {p.order(path[0]) + n} exceeds depth {p.depth}")
    return _path_pieces(d, path, hops)[-1]


def _path_pieces(d: MarkovDiagram, path: Sequence[int], hops: Sequence[Arrow]) -> list[int]:
    """The pieces of every prefix of a valid path, by one forward walk; each is
    an i-ancestor of the last, so one :func:`_assert_path_piece` checks them all."""
    p = d.puzzle
    w = path[0]
    pieces = [w]
    for arrow in hops:
        if p.order(w) == p.depth:  # w has no children; name the depth, not an empty match
            raise DepthExhausted(f"piece of order {p.depth + 1} exceeds depth {p.depth}")
        t = p.order(w) - p.order(arrow.source)
        matches = [x for x in p.i_preimages(w) if p.f_iter(x, t) == arrow.witness]
        if len(matches) != 1:
            raise DepthExhausted(
                f"pullback through witness {p.label(arrow.witness)!r} found {len(matches)} preimages"
            )
        w = matches[0]
        pieces.append(w)
    _assert_path_piece(d, path, w)
    return pieces


def _assert_path_piece(d: MarkovDiagram, path: Sequence[int], w: int) -> None:
    p, an = d.puzzle, d.analyzer
    n = len(path) - 1
    if p.i_iter(w, n) != path[0]:
        raise DiagramError("constructed piece does not project onto the path start")
    for k in range(n + 1):
        q = p.i_iter(w, k)
        target = path[n - k]
        m = p.order(q) - p.order(target)
        current = q
        for _ in range(m):
            verdict = an.verdict(current)
            if verdict.is_irreducible:
                raise DiagramError("reduction certificate broken along the path")
            current = p.f(current)
        if current != target:
            raise DiagramError("reduction chain misses the path vertex")


def project_path(d: MarkovDiagram, path: Sequence[int]) -> tuple[list[str], list[str]]:
    """Coordinates of the puzzle point encoded by a path.

    Returns two label lists: the coordinates ``x_{|v_0|} .. x_{|v_0|+n}``
    of the encoded point (each depending only on the path prefix), and
    the shifted prefix realizing the projection (the ``|v_0|``-fold
    f-image of each coordinate).
    """
    p = d.puzzle
    pieces = _path_pieces(d, path, _validate_path(d, path))
    shift = p.order(path[0])
    return [p.label(w) for w in pieces], [p.label(p.f_iter(w, shift)) for w in pieces]


# -- SCCs and entropy estimators ----------------------------------------------


@dataclass(frozen=True)
class SCC:
    vertices: tuple[str, ...]
    period: int | None  # None when the component carries no cycle


def scc_decomposition(g: GraphTruncation | MarkovDiagram) -> list[SCC]:
    """Strongly connected components with periods, by Kosaraju's two passes.

    Pass 1 records the finishing order of a depth-first search over the
    out-edges.  Pass 2 takes the vertices in reverse finishing order; each
    unclaimed root gathers, over in-edges, the unclaimed vertices that
    reach it, setting ``pot(u) = pot(v) - length`` along each tree edge
    ``u -> v``.  The period of a component is the gcd of
    ``|pot(u) + length - pot(v)|`` over its internal edges (bundle lengths
    count), and ``None`` when it has no internal edge, hence no cycle.
    Each such discrepancy is the difference of two cycle lengths, and the
    discrepancies along any cycle sum to its length, so the gcd is the gcd
    of the cycle lengths.  Components are sorted by their sorted vertices.
    """
    if isinstance(g, MarkovDiagram):
        g = g.to_graph()
    outs = g.adjacency
    finished: list[str] = []
    seen: set[str] = set()
    for start in g.vertices:
        if start in seen:
            continue
        seen.add(start)
        work = [(start, iter(outs[start]))]
        while work:
            v, it = work[-1]
            for e in it:
                if e.dst not in seen:
                    seen.add(e.dst)
                    work.append((e.dst, iter(outs[e.dst])))
                    break
            else:
                finished.append(v)
                work.pop()
    ins: dict[str, list[Edge]] = {v: [] for v in g.vertices}
    for e in g.edges:
        ins[e.dst].append(e)
    root_of: dict[str, str] = {}
    pot: dict[str, int] = {}
    comps: dict[str, list[str]] = {}
    for root in reversed(finished):
        if root in root_of:
            continue
        root_of[root], pot[root], todo = root, 0, [root]
        comp = comps[root] = []
        while todo:
            v = todo.pop()
            comp.append(v)
            for e in ins[v]:
                if e.src not in root_of:
                    root_of[e.src], pot[e.src] = root, pot[v] - e.length
                    todo.append(e.src)
    period = dict.fromkeys(comps, 0)
    for e in g.edges:
        root = root_of[e.src]
        if root == root_of[e.dst]:
            period[root] = math.gcd(period[root], abs(pot[e.src] + e.length - pot[e.dst]))
    out = [SCC(tuple(sorted(comp)), period[root] or None) for root, comp in comps.items()]
    out.sort(key=lambda s: s.vertices)
    return out


@dataclass(frozen=True)
class RateRow:
    n: int
    count: int
    rate: float | None  # (1/n) log count; None when the count vanishes
    ratio: float | None  # log(count_n / count_{n-1}); successive-ratio estimate


@dataclass(frozen=True)
class RateTable:
    """Exact counts with log-rate estimates; counts are exact integers,

    rates are floats and always labeled estimates.
    """

    rows: tuple[RateRow, ...]
    exact: bool = True  # False when the truncation cannot guarantee the counts

    def row(self, n: int) -> RateRow:
        for r in self.rows:
            if r.n == n:
                return r
        raise KeyError(n)

    @property
    def final_rate(self) -> float | None:
        return self.rows[-1].rate if self.rows else None

    @property
    def final_ratio(self) -> float | None:
        return self.rows[-1].ratio if self.rows else None


def _rate_table(pairs: Iterable[tuple[int, int]], exact: bool = True) -> RateTable:
    """Rate rows for ``(n, count)`` pairs; ratios compare consecutive pairs."""
    rows = []
    prev = None
    for n, c in pairs:
        rate = math.log(c) / n if c > 0 else None
        ratio = None
        if prev and c > 0:
            try:
                ratio = math.log(c / prev)
            except (OverflowError, ValueError):  # the quotient overflows a float or rounds to 0.0
                ratio = math.log(c) - math.log(prev)
        rows.append(RateRow(n, c, rate, ratio))
        prev = c
    return RateTable(tuple(rows), exact)


def gurevich_entropy_estimate(
    g: GraphTruncation | MarkovDiagram, base: str, max_length: int
) -> RateTable:
    """Exact loop counts at a base vertex with their log-rate table.

    No extrapolation: the table reports (1/n) log c_n and the successive
    ratio log(c_n / c_{n-1}); the latter converges much faster on
    irreducible graphs.
    """
    if isinstance(g, MarkovDiagram):
        g = g.to_graph()
    counts = based_loop_counts(g, base, max_length)
    return _rate_table(enumerate(counts, start=1), g.exact_up_to(max_length))


@dataclass(frozen=True)
class RecurrenceEvidence:
    """Finite-scale comparison of loop growth vs excursion growth.

    ``gap`` is (loop ratio) - (excursion rate) at the deepest sampled
    length; a clearly positive gap is the desk-scale signature of a
    strongly recurrent graph (excursions avoiding the finite set grow
    strictly slower than loops).  No claim is certified: both numbers
    are sampled estimates.
    """

    loops: RateTable
    excursions: RateTable
    gap: float | None


def recurrence_evidence(
    g: GraphTruncation | MarkovDiagram,
    base: str,
    finite_set: Iterable[str],
    max_length: int,
) -> RecurrenceEvidence:
    """Collect loop-count and excursion-count tables and their tail gap."""
    loops = gurevich_entropy_estimate(g, base, max_length)
    excursions = entropy_at_infinity_estimate(g, finite_set, max_length)
    loop_tail = loops.final_ratio if loops.final_ratio is not None else loops.final_rate
    exc_tail = excursions.final_rate
    gap = None
    if loop_tail is not None:
        gap = loop_tail - (exc_tail if exc_tail is not None else 0.0)
    return RecurrenceEvidence(loops, excursions, gap)


def entropy_at_infinity_estimate(
    g: GraphTruncation | MarkovDiagram,
    finite_set: Iterable[str],
    max_length: int,
) -> RateTable:
    """Growth of excursions avoiding a finite vertex set.

    For each pair (u, v) in the set, counts n-paths u -> v whose strictly
    intermediate named vertices avoid the whole set (one packed pass over
    all sources); the table reports the max count over pairs for each n.
    The outer infimum over finite sets is the caller's loop.
    """
    if isinstance(g, MarkovDiagram):
        g = g.to_graph()
    F = sorted(set(finite_set))
    if not F:
        raise DiagramError("the avoided set must be nonempty")
    counts = _excursion_counts(g, F, F, max_length)
    maxima = [max(col) for col in zip(*(counts(u, v) for u in F for v in F))]
    return _rate_table(enumerate(maxima, start=1), g.exact_up_to(max_length))
