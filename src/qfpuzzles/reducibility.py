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
:meth:`Puzzle.validate`.  The derived notions read a per-piece
:class:`Status` table and the puzzle's id tables.  Verdicts are frozen
values shared where equal (one per level when settled, one per level and
witness level for (R1)), so compare them with ``==``, not ``is``.

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


_REDUCIBLE, _R1, _R2, _UNKNOWN = (Status.REDUCIBLE, Status.IRREDUCIBLE_R1, Status.IRREDUCIBLE_R2,
                                  Status.UNKNOWN)


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
        # Verdicts and statuses, deepest level first: each level starts settled and
        # its failing pieces are overwritten.  below[w], w one level down, is where
        # w makes (R1) fail at i(w): 1 if w shares its fibre, else 1 + its own.
        i, f = p._i, p._f
        widths = list(map(len, p._children))
        size = len(widths)
        table: list[ReducibilityVerdict | None] = [None] * size  # None at the root
        status: list[Status | None] = [None] * size
        below: dict[int, int] = {}
        stop = size
        for n in range(p.depth, 0, -1):
            d_avail = p.depth - n
            start = stop - len(p.levels[n])
            settled = ReducibilityVerdict(_REDUCIBLE if d_avail else _UNKNOWN, d_avail)
            table[start:stop] = [settled] * (stop - start)
            status[start:stop] = [settled.status] * (stop - start)
            fail: dict[int, int] = {}  # the first tree level where (R1) fails at each piece
            if d_avail:
                fail = dict.fromkeys([v for v, fv in zip(range(start, stop), f[start:stop])
                                      if widths[v] != widths[fv]], 1)
                for w, k in below.items():
                    if k < fail.get(i[w], size):
                        fail[i[w]] = k
            r1: dict[int, ReducibilityVerdict] = {}  # one verdict per witness level
            for v, k in fail.items():
                table[v] = r1.get(k) or r1.setdefault(k, ReducibilityVerdict(_R1, d_avail, witness_level=k))
                status[v] = _R1
            below = {v: k + 1 for v, k in fail.items()}
            # the members of a fibre are each other's (R2) rivals; a level without rivals builds no fibres
            for group in [group for group in p.fibres(n).values() if len(group) > 1] if p._has_rivals(n) else ():
                for v in group:
                    below[v] = 1
                    if v not in fail:
                        rival = group[1] if group[0] == v else group[0]
                        table[v] = ReducibilityVerdict(_R2, d_avail, witness_piece=rival)
                        status[v] = _R2
            stop = start
        self._table, self._status = table, status

    # -- verdicts ------------------------------------------------------------

    def _check(self, piece: int) -> None:
        if not 0 <= piece < len(self._table):  # a negative id is no index from the end
            raise ValueError(f"no piece with id {piece}")

    def verdict(self, piece: int) -> ReducibilityVerdict:
        try:
            if piece >= 0 and (verdict := self._table[piece]) is not None:
                return verdict
        except IndexError:
            pass
        self._check(piece)
        raise ValueError("reducibility is defined for pieces of order >= 1")

    # -- derived notions -----------------------------------------------------

    def irreducible_pieces(self, n: int) -> IrreducibleLevel:
        """The set of irreducible pieces of order ``n``; pieces whose

        verdict is unknown beyond the truncation are reported separately.
        """
        if not 1 <= n <= self.puzzle.depth:
            raise ValueError(f"order {n} outside 1..{self.puzzle.depth}")
        status, level = self._status, self.puzzle.levels[n]
        return IrreducibleLevel(
            tuple(v for v in level if status[v] is _R1 or status[v] is _R2),
            tuple(v for v in level if status[v] is _UNKNOWN),
        )

    def reduces(self, piece: int, k: int) -> ReductionOutcome:
        """``f^k(piece)`` when every intermediate piece is reducible.

        ``k = 0`` returns the piece itself.  A definite irreducible on the
        way yields ``"blocked"``; an unknown verdict yields ``"unknown"``.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        chain = self.reduction_chain(piece)  # f^j(piece) for every reducible step j
        if k > self.puzzle.order(piece):
            raise ValueError("cannot reduce below the root")
        if k < len(chain.pieces):
            return ReductionOutcome(chain.pieces[k], "ok")
        return ReductionOutcome(None, "blocked" if chain.kind == "irreducible" else "unknown")

    def reduction_chain(self, piece: int) -> ChainResult:
        """Follow ``f`` while pieces are reducible; stop at the first

        irreducible piece, at the root, or at an unknown verdict.
        """
        self._check(piece)
        level_of, f, status = self.puzzle._level_of, self.puzzle._f, self._status
        pieces = [piece]
        while level_of[pieces[-1]] >= 1:
            s = status[pieces[-1]]
            if s is _R1 or s is _R2:
                return ChainResult("irreducible", tuple(pieces))
            if s is _UNKNOWN:
                return ChainResult("unknown", tuple(pieces))
            pieces.append(f[pieces[-1]])
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
        p, status = self.puzzle, self._status
        i, f, label = p._i, p._f, p._labels.__getitem__
        top = p.depth - 1
        first = list(p.pieces())  # order-1 ancestors, filled level by level
        for n in range(1, top + 1):
            for v in p.levels[n] if n > 1 else ():
                first[v] = first[i[v]]
            reducible = [v for v in p.levels[n] if status[v] is _REDUCIBLE]
            targets = [(f[v], first[v]) for v in reducible]
            if len(set(targets)) < len(targets):  # some reducible pieces share a target
                by_target: dict[tuple[int, int], list[int]] = {}
                for key, piece in zip(targets, reducible):
                    by_target.setdefault(key, []).append(piece)
                # each group's two least labels; groups are disjoint, so the least first label decides
                pairs = [sorted(group, key=label)[:2] for group in by_target.values() if len(group) > 1]
                u, v = min(pairs, key=lambda uv: label(uv[0]))
                return DeterminacyResult(False, (u, v), n)
        return DeterminacyResult(True, None, top)
