"""Reducibility of puzzle pieces: verdicts, constraints, determinacy.

A piece ``v`` of positive order is *f-reducible* when
(R1) ``f`` maps the i-tree below ``v`` level-by-level bijectively onto the
i-tree below ``f(v)``, and
(R2) no sibling ``w != v`` shares both images (``i(w) = i(v)`` and
``f(w) = f(v)``).
Otherwise ``v`` is *f-irreducible*.  Irreducible pieces encode the
constraints of the puzzle dynamics; reducible pieces extend exactly like
their f-image.

Condition (R2) is applied to every same-image sibling regardless of
whether the sibling itself satisfies (R1).  With the weaker sibling rule
the diagram of the golden-mean puzzle would lose its base vertices and
could not carry the dynamics, so sibling competition alone blocks
reducibility here.

Under the commutation axiom ``f`` maps the children of ``v`` into the
children of ``f(v)``, and two children share an image exactly when they
share an ``(i, f)``-fibre.  So (R1) holds at ``v`` exactly when ``v`` and
``f(v)`` have equally many children, no child of ``v`` shares its fibre,
and (R1) holds at every child.  The analyzer computes all verdicts by
these counts in one bottom-up pass, and it refuses puzzles that fail
:meth:`Puzzle.validate`.

Truncation semantics: bijectivity can only be checked on materialized
tree levels.  A failure at any materialized level is definitive; success
on all available levels yields a ``REDUCIBLE`` verdict certified to that
depth, or ``UNKNOWN`` when no level below the piece is materialized.
R2 verdicts are exact at any depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from qfpuzzles.puzzle import DyadicDistance, EntropyTable, Puzzle, PuzzleError, sequence_entropy


class Status(Enum):
    REDUCIBLE = "Reducible"
    IRREDUCIBLE_R1 = "Irreducible_R1"
    IRREDUCIBLE_R2 = "Irreducible_R2"
    UNKNOWN = "UnknownBeyondDepth"


@dataclass(frozen=True)
class ReducibilityVerdict:
    status: Status
    certified_depth: int
    witness_level: int | None = None  # set for IRREDUCIBLE_R1
    witness_piece: int | None = None  # set for IRREDUCIBLE_R2

    @property
    def is_irreducible(self) -> bool:
        return self.status in (Status.IRREDUCIBLE_R1, Status.IRREDUCIBLE_R2)

    @property
    def is_reducible(self) -> bool:
        return self.status is Status.REDUCIBLE

    @property
    def is_unknown(self) -> bool:
        return self.status is Status.UNKNOWN


@dataclass(frozen=True)
class ReductionOutcome:
    """Result of following a reduction chain for a fixed number of steps."""

    piece: int | None
    status: str  # "ok" | "blocked" | "unknown"


@dataclass(frozen=True)
class ChainResult:
    """A maximal reduction chain ``v, f(v), f^2(v), ...``.

    ``kind`` tells how it ended: at an ``"irreducible"`` piece, at the
    ``"root"`` with every chain piece reducible, or at an ``"unknown"``
    verdict (truncation frontier).  ``pieces`` lists the visited pieces,
    ending with the terminal one.
    """

    kind: str
    pieces: tuple[int, ...]

    @property
    def terminal(self) -> int:
        return self.pieces[-1]


@dataclass(frozen=True)
class IrreducibleLevel:
    certified: tuple[int, ...]
    unknown: tuple[int, ...]


@dataclass(frozen=True)
class DeterminacyResult:
    determined: bool
    counterexample: tuple[int, int] | None
    checked_through_order: int


class ReducibilityAnalyzer:
    """Per-puzzle verdict engine; all verdicts are computed on construction.

    Raises :class:`PuzzleError` listing the violations when the puzzle
    fails :meth:`Puzzle.validate`: the one-pass rule needs commutation.
    """

    def __init__(self, puzzle: Puzzle):
        report = puzzle.validate()
        if not report.ok:
            raise PuzzleError(f"{puzzle.name} fails validation:\n{report}")
        self.puzzle = p = puzzle
        # The verdicts of every piece, deepest level first.  r1_fail[v] is the
        # first tree level below v where (R1) fails, None when it holds on
        # every materialized level.  shared[v] tells that v shares its fibre;
        # level n + 1 sets it before level n reads it.
        children = p.i_preimages
        table: list[ReducibilityVerdict | None] = [None] * len(p.pieces())
        r1_fail: list[int | None] = [None] * len(p.pieces())
        shared = [False] * len(p.pieces())
        for n in range(p.depth, 0, -1):
            d_avail = p.depth - n
            settled = ReducibilityVerdict(Status.REDUCIBLE if d_avail else Status.UNKNOWN, d_avail)
            # the members of a fibre are each other's (R2) rivals
            for (_, fv), group in p.fibres(n).items():
                for piece in group:
                    shared[piece] = len(group) > 1
                    if d_avail:
                        kids = children(piece)
                        if len(kids) != len(children(fv)) or any(shared[w] for w in kids):
                            r1_fail[piece] = 1
                        else:
                            below = [r1_fail[w] for w in kids if r1_fail[w] is not None]
                            r1_fail[piece] = 1 + min(below) if below else None
                    if r1_fail[piece] is not None:
                        table[piece] = ReducibilityVerdict(
                            Status.IRREDUCIBLE_R1, d_avail, witness_level=r1_fail[piece]
                        )
                    elif shared[piece]:
                        rival = group[1] if group[0] == piece else group[0]
                        table[piece] = ReducibilityVerdict(
                            Status.IRREDUCIBLE_R2, d_avail, witness_piece=rival
                        )
                    else:
                        table[piece] = settled
        self._table = table

    # -- verdicts ------------------------------------------------------------

    def verdict(self, piece: int) -> ReducibilityVerdict:
        if self.puzzle.order(piece) == 0:
            raise ValueError("reducibility is defined for pieces of order >= 1")
        return self._table[piece]

    # -- derived notions -----------------------------------------------------

    def irreducible_pieces(self, n: int) -> IrreducibleLevel:
        """The set of irreducible pieces of order ``n``; pieces whose

        verdict is unknown beyond the truncation are reported separately.
        """
        if not 1 <= n <= self.puzzle.depth:
            raise ValueError(f"order {n} outside 1..{self.puzzle.depth}")
        certified, unknown = [], []
        for piece in self.puzzle.level(n):
            v = self._table[piece]
            if v.is_irreducible:
                certified.append(piece)
            elif v.is_unknown:
                unknown.append(piece)
        return IrreducibleLevel(tuple(certified), tuple(unknown))

    def reduces(self, piece: int, k: int) -> ReductionOutcome:
        """``f^k(piece)`` when every intermediate piece is reducible.

        ``k = 0`` returns the piece itself.  A definite irreducible on the
        way yields ``"blocked"``; an unknown verdict yields ``"unknown"``.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        if k > self.puzzle.order(piece):
            raise ValueError("cannot reduce below the root")
        current = piece
        for _ in range(k):
            v = self.verdict(current)
            if v.is_unknown:
                return ReductionOutcome(None, "unknown")
            if not v.is_reducible:
                return ReductionOutcome(None, "blocked")
            current = self.puzzle.f(current)
        return ReductionOutcome(current, "ok")

    def reduction_chain(self, piece: int) -> ChainResult:
        """Follow ``f`` while pieces are reducible; stop at the first

        irreducible piece, at the root, or at an unknown verdict.
        """
        p = self.puzzle
        pieces = [piece]
        current = piece
        while p.order(current) >= 1:
            v = self.verdict(current)
            if v.is_irreducible:
                return ChainResult("irreducible", tuple(pieces))
            if v.is_unknown:
                return ChainResult("unknown", tuple(pieces))
            current = p.f(current)
            pieces.append(current)
        return ChainResult("root", tuple(pieces))

    def constraint_entropy(
        self,
        eps_list: Sequence[DyadicDistance],
        n_range: Sequence[int],
    ) -> EntropyTable:
        """Covering-number entropy table of the irreducible families C_n.

        Only certified irreducible pieces enter; unknown-verdict pieces
        are excluded (they are reported by :meth:`irreducible_pieces`).
        """

        def family(n: int) -> Iterable[int]:
            if not 1 <= n <= self.puzzle.depth:
                return ()
            return self.irreducible_pieces(n).certified

        return sequence_entropy(self.puzzle, family, eps_list, n_range)

    def is_determined(self) -> DeterminacyResult:
        """Search for pairs ``u != v`` with a common one-step reduction and

        equal order-1 projection.  The scan covers every order whose
        pieces admit certified reducibility verdicts; the first
        counterexample in (order, label) order is returned.
        """
        p = self.puzzle
        top = p.depth - 1
        first: dict[int, int] = {}  # order-1 ancestors, filled level by level
        for n in range(1, top + 1):
            by_target: dict[tuple[int, int], list[int]] = {}
            for piece in p.level(n):
                first[piece] = piece if n == 1 else first[p.i(piece)]
                if self._table[piece].is_reducible:
                    by_target.setdefault((p.f(piece), first[piece]), []).append(piece)
            # each group's two least labels; groups are disjoint, so the least first label decides
            pairs = [sorted(group, key=p.label)[:2] for group in by_target.values() if len(group) > 1]
            if pairs:
                u, v = min(pairs, key=lambda uv: p.label(uv[0]))
                return DeterminacyResult(False, (u, v), n)
        return DeterminacyResult(True, None, top)
