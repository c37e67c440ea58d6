"""The four benchmark workloads: seeded inputs, jobs, checks and counters.

Each workload has

* ``generate(seed)`` -- the seeded input pool, built from the seed alone;
* ``job(item)`` -- one job on one input, returning ``(record, counters)``.
  The job runs the library and every independent check the paper gives
  (two routes that must agree); a failed check raises :class:`CheckFailed`;
* ``key(item)`` -- the input's key in the golden file written at the
  commit that defined the benchmark (``perfbench/golden``).

``record`` holds the job's exact results under ``"exact"``, which must
match the golden digest, and the cover-table counts under ``"cells"``
(see :func:`verify`: greedy counts are upper bounds).  Float rate
estimates never enter a record: they are recomputed from the exact
counts and compared there.

Input universes are finite so that every input a seed can draw has a
golden entry; ``universe()`` enumerates each one for
``make_golden.py``.  Library modules are reached through their module
attributes at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple

from qfpuzzles import cli
from qfpuzzles import constructions as cons
from qfpuzzles import coupled as cp
from qfpuzzles import diagram as dg
from qfpuzzles import graphs as gr
from qfpuzzles import polys as pl
from qfpuzzles import puzzle as pz
from qfpuzzles import reducibility as rd
from qfpuzzles import series as sr
from qfpuzzles import zeta as zt


class CheckFailed(Exception):
    """A job's result disagrees with an independent route or its golden value."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def check_rates(rows, what: str) -> None:
    """Rate-table floats must be the logs of their own exact counts."""
    prev = None
    for r in rows:
        rate = math.log(r.count) / r.n if r.count > 0 else None
        ratio = math.log(r.count / prev) if prev and r.count > 0 else None
        check(_close(r.rate, rate) and _close(r.ratio, ratio), f"{what}: rate of n={r.n}")
        prev = r.count


def _close(x, y) -> bool:
    if x is None or y is None:
        return x is y
    return abs(x - y) <= 1e-12 * max(1.0, abs(y))


def verdict_counters(verdicts) -> dict[str, int]:
    hist = Counter(v.status.value for v in verdicts)
    out = {"reducibility.verdicts": len(verdicts)}
    for status in rd.Status:
        out[f"reducibility.status.{status.value}"] = hist.get(status.value, 0)
    return out


def verdict_record(p, verdicts_by_piece) -> list:
    return [
        [p.label(v), x.status.value, x.certified_depth, x.witness_level,
         None if x.witness_piece is None else p.label(x.witness_piece)]
        for v, x in verdicts_by_piece
    ]


def all_verdicts(p, an):
    return [(v, an.verdict(v)) for v in p.pieces() if p.order(v) >= 1]


# -- shift-pipeline -------------------------------------------------------------

SHIFT_DEPTH = 12
SHIFT_WORD_LENGTHS = (2, 3, 4)
SHIFT_MAX_WORDS = 3
DIAGRAM_CUTOFF = 5
GUREVICH_LENGTH = 10
PULLBACK_PATHS = 4
PULLBACK_LENGTH = 3
ZETA_LEVEL, ZETA_ORDER, ZETA_CERT = 2, 10, 6
COVER_DEPTH = 7
COVER_EPS = (1, 2)
COVER_N = range(1, 6)
SHIFT_PER_STRATUM = 2
# Upper bounds of 21 strata of shift_work(), at its 21-quantiles over the
# accepted universe.  A pool takes SHIFT_PER_STRATUM draws from every
# stratum, so pools of different seeds hold the same mix of small and
# large jobs and the seed-to-seed spread of job times stays small.
SHIFT_STRATA = (
    1054, 1272, 1504, 1760, 1984, 2236, 2276, 2544, 2824, 2980,
    3287, 3666, 4077, 4518, 4911, 5249, 5568, 5960, 6526, 7483,
)
SHIFT_POOL = SHIFT_PER_STRATUM * (len(SHIFT_STRATA) + 1)


def level_sizes(forbidden, depth: int) -> list[int]:
    """Allowed binary words of each length 0..depth (benchmark's own count,
    by a transfer over the last three letters)."""
    sizes = [1]
    states = {"": 1}
    for _ in range(depth):
        nxt: dict[str, int] = {}
        for tail, count in states.items():
            for a in "01":
                w = tail + a
                if not any(w.endswith(f) for f in forbidden):
                    nxt[w[-3:]] = nxt.get(w[-3:], 0) + count
        states = nxt
        sizes.append(sum(states.values()))
    return sizes


def shift_accepts(forbidden, depth: int) -> bool:
    """The redraw rules.

    * no words at the full depth: ``from_subshift`` refuses the language;
    * the top level has not doubled over the last four levels: the shift
      has (near) zero entropy, so its verdicts, diagram and zeta are
      trivial and the job would not measure the pipeline.
    """
    sizes = level_sizes(forbidden, depth)
    return sizes[depth] > 0 and sizes[depth] >= 2 * sizes[depth - 4]


def shift_work(forbidden) -> float:
    """Predicted job cost, in units of one verdict.

    Pieces at depth 12 (verdicts), plus |V_5| times the pieces at depth 7
    (the cover table's Bowen balls), plus half the periodic words of the
    level-2 graph up to order 10 (the lift search).  On 220 random draws
    it correlates 0.91 with the measured job time.
    """
    sizes = level_sizes(forbidden, SHIFT_DEPTH)
    allowed = [w for w in ("00", "01", "10", "11") if not any(f in w for f in forbidden)]
    arcs = [[int(u[1] == v[0] and not any(f in u + v[1] for f in forbidden)) for v in allowed]
            for u in allowed]
    power = [[int(i == j) for j in range(len(allowed))] for i in range(len(allowed))]
    words = 0
    for _ in range(ZETA_ORDER):
        power = [[sum(row[m] * arcs[m][j] for m in range(len(allowed))) for j in range(len(allowed))]
                 for row in power]
        words += sum(power[i][i] for i in range(len(allowed)))
    return sum(sizes) + sizes[5] * sum(sizes[: COVER_DEPTH + 1]) + words / 2


def _shift_words():
    return ["".join(w) for n in SHIFT_WORD_LENGTHS for w in itertools.product("01", repeat=n)]


def draw_forbidden(rng: random.Random, words: list[str], max_words: int) -> tuple[str, ...]:
    """A uniform draw among the sets of 1..max_words distinct words."""
    sizes = range(1, max_words + 1)
    k = rng.choices(sizes, weights=[math.comb(len(words), n) for n in sizes])[0]
    return tuple(sorted(rng.sample(words, k)))


def shift_universe():
    for k in range(1, SHIFT_MAX_WORDS + 1):
        for forbidden in itertools.combinations(_shift_words(), k):
            if shift_accepts(forbidden, SHIFT_DEPTH):
                yield tuple(sorted(forbidden))


def shift_stratum(forbidden) -> int:
    work = shift_work(forbidden)
    return sum(work > bound for bound in SHIFT_STRATA)


def shift_generate(seed: int) -> list[tuple[str, ...]]:
    """Draws are redrawn when rejected or when their stratum is full."""
    rng = random.Random(f"shift-pipeline:{seed}")
    words = _shift_words()
    strata: list[list[tuple[str, ...]]] = [[] for _ in range(len(SHIFT_STRATA) + 1)]
    while any(len(s) < SHIFT_PER_STRATUM for s in strata):
        forbidden = draw_forbidden(rng, words, SHIFT_MAX_WORDS)
        if not shift_accepts(forbidden, SHIFT_DEPTH):
            continue
        stratum = strata[shift_stratum(forbidden)]
        if len(stratum) < SHIFT_PER_STRATUM:
            stratum.append(forbidden)
    pool = [f for s in strata for f in s]
    rng.shuffle(pool)
    return pool


def shift_warmup(pool):
    """The draw of median predicted work, so that the warm-up job, and with
    it ``setup_s``, costs about the same on every seed (job times span
    more than tenfold)."""
    return sorted(pool, key=lambda f: (shift_work(f), f))[len(pool) // 2]


def _pullback_paths(d) -> list[list[int]]:
    """Up to PULLBACK_PATHS diagram paths, each the first-successor walk."""
    paths = []
    for v in d.vertices:
        path = [v]
        while len(path) <= PULLBACK_LENGTH and d.successors(path[-1]):
            path.append(d.successors(path[-1])[0])
        if len(path) > 1:
            paths.append(path)
        if len(paths) == PULLBACK_PATHS:
            break
    return paths


def shift_job(forbidden: tuple[str, ...]):
    words = cons.words_avoiding("01", forbidden, SHIFT_DEPTH)
    p = pz.from_subshift(words, SHIFT_DEPTH, name="shift")
    check(p.validate().ok, "shift puzzle fails validate()")
    an = rd.ReducibilityAnalyzer(p)
    verdicts = all_verdicts(p, an)
    levels = [an.irreducible_pieces(n) for n in range(1, SHIFT_DEPTH + 1)]
    det = an.is_determined()

    d = dg.build_diagram(p, DIAGRAM_CUTOFF, an)
    sccs = dg.scc_decomposition(d)
    cyclic = [s for s in sccs if s.period is not None]
    base = (cyclic[0] if cyclic else sccs[0]).vertices[0]
    loops = dg.gurevich_entropy_estimate(d, base, GUREVICH_LENGTH)
    check_rates(loops.rows, "gurevich table")
    pullbacks = [[[p.label(v) for v in path], p.label(dg.path_to_piece(d, path))]
                 for path in _pullback_paths(d)]

    res = zt.puzzle_zeta_n(p, ZETA_LEVEL, ZETA_ORDER, ZETA_CERT, an)
    memory = max(2, max(len(w) for w in forbidden) - 1)
    direct = gr.periodic_point_counts(gr.gamma_n(p, memory), ZETA_ORDER)
    check(list(res.counts_certified) == direct,
          "certified puzzle-zeta counts differ from the periodic points of the SFT graph")

    p7 = pz.from_subshift({w for w in words if len(w) <= COVER_DEPTH}, COVER_DEPTH, name="shift7")
    table = pz.sequence_entropy(
        p7, lambda n: p7.level(n), [pz.DyadicDistance(e) for e in COVER_EPS], COVER_N)
    for cell in table.cells:
        check(_close(cell.rate, math.log(max(cell.count, 1)) / cell.n), "cover-table rate")

    record = {
        "exact": {
            "verdicts": verdict_record(p, verdicts),
            "irreducible": [[[p.label(v) for v in lv.certified], [p.label(v) for v in lv.unknown]]
                            for lv in levels],
            "determined": [det.determined, det.checked_through_order,
                           None if det.counterexample is None
                           else [p.label(v) for v in det.counterexample]],
            "diagram": [
                [p.label(v) for v in d.vertices],
                [[p.label(a.source), p.label(a.target), p.label(a.witness), a.steps] for a in d.arrows],
                [[p.label(m.source), p.label(m.witness), m.reason] for m in d.frontier],
            ],
            "sccs": [[list(s.vertices), s.period] for s in sccs],
            "loops": [base, [r.count for r in loops.rows], loops.exact],
            "pullbacks": pullbacks,
            "zeta": [list(res.counts_total), list(res.counts_certified),
                     sorted(Counter(c.tag for c in res.classes).items())],
        },
        "cells": [[c.count, c.exact] for c in table.cells],
    }
    frontier = Counter(m.reason for m in d.frontier)
    counters = {
        "puzzle.pieces": len(p.pieces()) + len(p7.pieces()),
        "puzzle.cover_cells": len(table.cells),
        "puzzle.cover_inexact": sum(not c.exact for c in table.cells),
        **verdict_counters([x for _, x in verdicts]),
        "diagram.vertices": len(d.vertices),
        "diagram.arrows": len(d.arrows),
        "diagram.frontier.unknown-verdict": frontier.get("unknown-verdict", 0),
        "diagram.frontier.target-beyond-cutoff": frontier.get("target-beyond-cutoff", 0),
        "zeta.words_total": sum(res.counts_total),
        "zeta.words_certified": sum(res.counts_certified),
    }
    return record, counters


def shift_key(forbidden) -> str:
    return ",".join(forbidden)


# -- graph-zeta -----------------------------------------------------------------

GRAPH_VERTICES = 24
GRAPH_DENSITY = 0.15
GRAPH_SUBSET = 6
GRAPH_ORDER = 24
LOOP_RETURNS = 5  # first-return counts f_1..f_5 of the loop graph
GRAPH_POOL = 28


def graph_generate(seed: int) -> list[dict]:
    """Random 0/1 digraphs with exactly ``round(density * n^2)`` arcs.

    Fixing the arc count (instead of drawing each arc independently)
    keeps the work per graph steady across seeds; loops are allowed.
    """
    rng = random.Random(f"graph-zeta:{seed}")
    n = GRAPH_VERTICES
    arcs = round(GRAPH_DENSITY * n * n)
    pool = []
    for _ in range(GRAPH_POOL):
        cells = rng.sample(range(n * n), arcs)
        matrix = [[0] * n for _ in range(n)]
        for cell in cells:
            matrix[cell // n][cell % n] = 1
        subset = sorted(rng.sample(range(n), GRAPH_SUBSET))
        returns = [rng.randint(0, 3) for _ in range(LOOP_RETURNS - 1)] + [rng.randint(1, 3)]
        pool.append({"matrix": matrix, "subset": [str(v) for v in subset], "returns": returns})
    return pool


def avoiding_counts_direct(matrix, u: int, v: int, avoid: set[int], length: int) -> list[int]:
    """Walks u -> v of each length 1..length whose interior avoids a set,

    by integer vector iteration over the adjacency matrix (independent of
    the graph layer's dictionary DP)."""
    n = len(matrix)
    inner = [x for x in range(n) if x not in avoid]
    counts = [matrix[u][v]]
    vec = {x: matrix[u][x] for x in inner if matrix[u][x]}
    for _ in range(2, length + 1):
        counts.append(sum(c * matrix[x][v] for x, c in vec.items()))
        nxt: dict[int, int] = {}
        for x, c in vec.items():
            row = matrix[x]
            for y in inner:
                if row[y]:
                    nxt[y] = nxt.get(y, 0) + c
        vec = nxt
    return counts


def graph_job(item: dict):
    matrix = item["matrix"]
    g = gr.sft_graph(matrix)
    subset = item["subset"]
    det = zt.semi_local_zeta_det(g, subset, GRAPH_ORDER)
    brute = zt.semi_local_zeta_brute(g, subset, GRAPH_ORDER)
    check(det == brute, "semi-local zeta: determinant route differs from direct counting")
    counts = zt.counts_from_zeta(det)
    # Newton: n z_n = sum_k p_k z_{n-k}, from zeta' = zeta * sum p_k z^(k-1).
    for n in range(1, GRAPH_ORDER + 1):
        check(n * det[n] == sum(counts[k - 1] * det[n - k] for k in range(1, n + 1)),
              f"counts_from_zeta: Newton identity fails at n={n}")

    hinf = dg.entropy_at_infinity_estimate(g, subset, GRAPH_ORDER)
    avoid = {int(v) for v in subset}
    maxima = [0] * GRAPH_ORDER
    for u in avoid:
        for v in avoid:
            for k, c in enumerate(avoiding_counts_direct(matrix, u, v, avoid, GRAPH_ORDER)):
                maxima[k] = max(maxima[k], c)
    check([r.count for r in hinf.rows] == maxima, "entropy at infinity: excursion counts")
    check_rates(hinf.rows, "entropy-at-infinity table")

    f = item["returns"]
    first = sr.PowerSeries([0, *f], order=GRAPH_ORDER)
    local = zt.loop_graph_zeta(first)
    expected = [1]
    for n in range(1, GRAPH_ORDER + 1):
        expected.append(sum(f[k - 1] * expected[n - k] for k in range(1, min(n, len(f)) + 1)))
    check(list(local.coeffs) == expected, "loop-graph zeta differs from 1/(1-f)")
    pade = zt.pade_pole_analysis(local, 0, len(f))
    check(pade.rational.numerator == (1,) and pade.rational.denominator == (1, *(-c for c in f)),
          "pade_pole_analysis does not recover 1 - f")
    den = pl.RationalPolynomial([1, *(-c for c in f)])
    check(all(den(pole) == 0 for pole in pade.poles), "reported pole is not a root of 1 - f")

    record = {"exact": None, "cells": []}  # every value above is checked by a second route
    counters = {
        "zeta.words_total": sum(counts),
        "zeta.words_certified": sum(counts),
    }
    return record, counters


# -- coupled-sweep --------------------------------------------------------------

COUPLED_GRID = tuple(Fraction(k, 8) for k in range(1, 8))
COUPLED_DEPTH, COUPLED_RES = 3, 4
COUPLED_N = (1, 2)
COUPLED_POOL = 20
COUPLED_DECOUPLED = 3  # c = 0 draws per pool
# Grid points where build_puzzle(depth 3, res 4) raises CoupledError ("no
# image cylinder": an image itinerary that no res-4 grid cell realizes)
# at the commit that defined the benchmark.  They are left out of the
# draws because a workload must succeed on every input; any other draw
# that raises still counts as a failed job.
COUPLED_UNRESOLVED = frozenset({
    ("3/8", "5/8", "7/8"), ("3/8", "3/4", "5/8"), ("3/8", "3/4", "3/4"), ("3/8", "3/4", "7/8"),
    ("5/8", "3/8", "7/8"), ("3/4", "3/8", "5/8"), ("3/4", "3/8", "3/4"), ("3/4", "3/8", "7/8"),
})


def coupled_accepts(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """``in_domain()`` for c > 0.  ``in_domain()`` demands 0 < c, so a
    c = 0 draw is the decoupled product map with a = b, which meets
    every other inequality of ``in_domain()`` on this grid."""
    if (str(a), str(b), str(c)) in COUPLED_UNRESOLVED:
        return False
    if c == 0:
        return a == b
    return cp.CouplingParams.make(a, b, c).in_domain()


def coupled_universe():
    for a, b in itertools.product(COUPLED_GRID, repeat=2):
        for c in (Fraction(0), *COUPLED_GRID):
            if coupled_accepts(a, b, c):
                yield (str(a), str(b), str(c))


def coupled_generate(seed: int) -> list[tuple[str, str, str]]:
    rng = random.Random(f"coupled-sweep:{seed}")
    pool = []
    while len(pool) < COUPLED_POOL:
        a, b, c = rng.choice(COUPLED_GRID), rng.choice(COUPLED_GRID), rng.choice(COUPLED_GRID)
        if len(pool) < COUPLED_DECOUPLED:
            b, c = a, Fraction(0)
        if coupled_accepts(a, b, c):
            pool.append((str(a), str(b), str(c)))
    rng.shuffle(pool)
    return pool


def coupled_job(item: tuple[str, str, str]):
    a, b, c = (Fraction(x) for x in item)
    params = cp.CouplingParams.make(a, b, c)
    build = cp.build_puzzle(params, COUPLED_DEPTH, COUPLED_RES)
    p = build.puzzle
    check(p.validate().ok, "extracted puzzle fails validate()")
    if c == 0:
        c1d = cp.component_counts_1d(a, COUPLED_DEPTH, COUPLED_RES)
        check(cp.component_counts_2d(build) == [x * x for x in c1d],
              "decoupled 2-D component counts are not the squares of the 1-D counts")
    an = rd.ReducibilityAnalyzer(p)
    verdicts = all_verdicts(p, an)
    boundary = cp.boundary_entropy_estimate(params, COUPLED_N, COUPLED_RES)
    check_rates(boundary.rows, "boundary table")
    mult = cp.multiplicity_estimate(params, COUPLED_N, COUPLED_RES)
    res = pl.sylvester_resultant(cp.iterate_polynomial(params, 1), cp.iterate_polynomial(params, 2))

    pieces = [q for label, q in build.pieces.items() if label != cp.ROOT]
    record = {
        "exact": {
            "puzzle": p.to_json(),
            "ambiguous": list(build.ambiguous),
            "verdicts": verdict_record(p, verdicts),
            "boundary": [r.count for r in boundary.rows],
            "multiplicity": sorted(mult.items()),
            "resultant": str(res),
        },
        "cells": [],
    }
    counters = {
        "puzzle.pieces": len(p.pieces()),
        **verdict_counters([x for _, x in verdicts]),
        "coupled.cells": sum(len(q.boxes) for q in pieces),
        "coupled.pieces": len(pieces),
        "coupled.ambiguous": len(build.ambiguous),
    }
    return record, counters


def coupled_key(item) -> str:
    return ",".join(item)


# -- cli-readme -----------------------------------------------------------------

CLI_SHIFT_DEPTH = 8
CLI_SHIFT_LENGTHS = (2, 3)
CLI_SHIFT_MAX_WORDS = 2
# 20 requests per command put the tail (the 11th-slowest request) among the
# alike `coupled build` requests; with 10 it was the slowest `puzzle zeta`
# request, which hinged on the seed's largest shift.
CLI_PER_COMMAND = 20
# The README runs `puzzle zeta` to --trunc 10.  There the lift search
# takes 4-40 times as long as any other request, so the workload would
# time the zeta layer, not the CLI's fixed costs, and its mean would
# hinge on which shifts the seed draws.  Order 6 keeps the request cheap.
CLI_ZETA_TRUNC = 6
CLI_GRID = tuple(Fraction(k, 4) for k in range(1, 4))


def cli_graph_specs() -> list[dict]:
    specs = [{"kind": "complete", "d": d} for d in range(1, 5)]
    for bits in itertools.product((0, 1), repeat=9):
        specs.append({"kind": "adjacency", "matrix": [list(bits[0:3]), list(bits[3:6]), list(bits[6:9])]})
    for f in itertools.product(range(3), repeat=3):
        specs.append({"kind": "loop_graph", "f": list(f)})
    return specs


def cli_shifts() -> list[tuple[str, ...]]:
    words = ["".join(w) for n in CLI_SHIFT_LENGTHS for w in itertools.product("01", repeat=n)]
    out = []
    for k in range(1, CLI_SHIFT_MAX_WORDS + 1):
        for forbidden in itertools.combinations(words, k):
            if shift_accepts(forbidden, CLI_SHIFT_DEPTH):
                out.append(tuple(sorted(forbidden)))
    return out


def cli_params() -> list[tuple[str, str, str]]:
    out = []
    for a, b, c in itertools.product(CLI_GRID, repeat=3):
        if cp.CouplingParams.make(a, b, c).in_domain():
            out.append((str(a), str(b), str(c)))
    return out


def _spec_vertices(spec: dict) -> list[str]:
    if spec["kind"] == "loop_graph":
        return [gr.LOOP_VERTEX]
    d = spec["d"] if spec["kind"] == "complete" else len(spec["matrix"])
    return [str(k) for k in range(d)]


def _file(prefix: str, text: str) -> tuple[str, str]:
    return f"{prefix}-{hashlib.sha256(text.encode()).hexdigest()[:12]}.json", text


def _shift_file(forbidden) -> tuple[str, str, list[str]]:
    p = pz.from_subshift(cons.words_avoiding("01", forbidden, CLI_SHIFT_DEPTH), CLI_SHIFT_DEPTH)
    name, text = _file("puzzle", p.dumps())
    return name, text, [p.label(v) for v in p.level(2)]


def cli_requests(graph_spec: dict | None, shift, params, piece: int, command: str) -> tuple[list[str], dict]:
    """argv and input files of one README command on given inputs.

    ``piece`` picks the ``verdict`` piece among the level-2 labels."""
    files: dict[str, str] = {}
    if command.startswith("graph"):
        name, text = _file("graph", json.dumps(graph_spec, sort_keys=True))
        files[name] = text
        verts = _spec_vertices(graph_spec)
        argv = {
            "graph build": ["graph", "build", "--spec", name, "--out", "out.json", "--dot", "d.dot"],
            "graph zeta": ["graph", "zeta", "--spec", name, "--subset", verts[0], "--order", "12",
                           "--out", "out.csv"],
            "graph entropy": ["graph", "entropy", "--spec", name, "--base", verts[0],
                              "--length", "10", "--out", "out.csv"],
            "graph hinf": ["graph", "hinf", "--spec", name, "--subset", ",".join(verts[:2]),
                           "--length", "20", "--out", "out.csv"],
        }[command]
    elif command.startswith("puzzle"):
        name, text, level2 = _shift_file(shift)
        files[name] = text
        argv = {
            "puzzle validate": ["puzzle", "validate", "--in", name, "--out", "out.json"],
            "puzzle irreducibles": ["puzzle", "irreducibles", "--in", name, "--level", "2",
                                    "--out", "out.json"],
            "puzzle verdict": ["puzzle", "verdict", "--in", name, "--piece",
                               level2[piece % len(level2)], "--out", "out.json"],
            "puzzle determined": ["puzzle", "determined", "--in", name, "--out", "out.json"],
            "puzzle diagram": ["puzzle", "diagram", "--in", name, "--cutoff", "3", "--dot", "d.dot",
                               "--out", "out.json"],
            "puzzle zeta": ["puzzle", "zeta", "--in", name, "--level", "1", "--cert", "4",
                            "--trunc", str(CLI_ZETA_TRUNC), "--out", "out.csv"],
        }[command]
    else:
        a, b, c = params
        argv = {
            "coupled build": ["coupled", "build", "--a", a, "--b", b, "--c", c, "--depth", "2",
                              "--res", "2", "--out", "out.json"],
            "coupled resultant": ["coupled", "resultant", "--a", a, "--b", b, "--c", c,
                                  "--n", "1", "--m", "2", "--out", "out.json"],
        }[command]
    return argv, files


CLI_COMMANDS = (
    "graph build", "graph zeta", "graph entropy", "graph hinf",
    "puzzle validate", "puzzle irreducibles", "puzzle verdict", "puzzle determined",
    "puzzle diagram", "puzzle zeta", "coupled build", "coupled resultant",
)
CLI_OUTPUTS = ("out.json", "out.csv", "d.dot")
MAX_LEVEL2 = 4  # binary words of length 2


def cli_universe():
    specs, shifts, params = cli_graph_specs(), cli_shifts(), cli_params()
    for command in CLI_COMMANDS:
        if command.startswith("graph"):
            choices = [(s, None, None, 0) for s in specs]
        elif command == "puzzle verdict":
            choices = [(None, f, None, k) for f in shifts for k in range(MAX_LEVEL2)]
        elif command.startswith("puzzle"):
            choices = [(None, f, None, 0) for f in shifts]
        else:
            choices = [(None, None, q, 0) for q in params]
        for spec, shift, q, piece in choices:
            yield cli_requests(spec, shift, q, piece, command)


def cli_generate(seed: int) -> list[tuple[list[str], dict]]:
    """CLI_PER_COMMAND requests per command.  Each puzzle command takes one
    shift from each of CLI_PER_COMMAND strata of the shifts ordered by
    size, so every seed gives it the same mix of small and large puzzles."""
    rng = random.Random(f"cli-readme:{seed}")
    specs, params = cli_graph_specs(), cli_params()
    shifts = sorted(cli_shifts(), key=lambda f: (sum(level_sizes(f, CLI_SHIFT_DEPTH)), f))
    pool = []
    for command in CLI_COMMANDS:
        for k in range(CLI_PER_COMMAND):
            stratum = shifts[k * len(shifts) // CLI_PER_COMMAND:(k + 1) * len(shifts) // CLI_PER_COMMAND]
            pool.append(cli_requests(rng.choice(specs), rng.choice(stratum), rng.choice(params),
                                     rng.randrange(MAX_LEVEL2), command))
    rng.shuffle(pool)
    return pool


def cli_job(item):
    """One README command through ``cli.main`` in the current directory.

    Input files must already exist there (see :func:`write_inputs`).  A
    non-zero exit changes the output digest, so it fails the golden check.
    """
    argv, _files = item
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(list(argv))
    blobs = [out.getvalue().encode()]
    for name in CLI_OUTPUTS:
        if os.path.exists(name):
            with open(name, "rb") as fh:
                blobs.append(fh.read())
            os.remove(name)
        else:
            blobs.append(b"")
    payload = hashlib.sha256(b"\0".join([str(status).encode(), *blobs])).hexdigest()
    record = {"exact": payload, "cells": []}
    counters = {
        "cli.requests": 1,
        f"cli.exit.{status}": 1,
        "cli.bytes_out": sum(len(b) for b in blobs),
    }
    return record, counters


def write_inputs(pool) -> None:
    for _argv, files in pool:
        for name, text in files.items():
            with open(name, "w") as fh:
                fh.write(text)


def cli_key(item) -> str:
    argv, _files = item
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()[:24]


# -- registry -----------------------------------------------------------------------


class Workload(NamedTuple):
    name: str
    generate: Callable  # seed -> input pool
    job: Callable  # input -> (record, counters)
    key: Callable | None  # input -> golden key; None: every value has a second route
    universe: Callable | None  # every input a seed can draw
    warmup: Callable | None = None  # pool -> the set-up's warm-up input; None: the first


WORKLOADS = {
    w.name: w
    for w in (
        Workload("shift-pipeline", shift_generate, shift_job, shift_key, shift_universe, shift_warmup),
        Workload("graph-zeta", graph_generate, graph_job, None, None),
        Workload("coupled-sweep", coupled_generate, coupled_job, coupled_key, coupled_universe),
        Workload("cli-readme", cli_generate, cli_job, cli_key, cli_universe),
    )
}


def verify(record: dict, golden: dict | None) -> None:
    """Compare a job's record with its golden entry (``None``: no golden).

    ``cells`` are cover counts: a cell exact at the golden commit must
    match; a greedy (upper-bound) cell may only fall."""
    if golden is None:
        return
    check(digest(record["exact"]) == golden["digest"], "exact results differ from the golden digest")
    cells = [count for count, _exact in record["cells"]]
    gold = golden.get("cells", [])
    check(len(cells) == len(gold), "cover table has a different shape")
    inexact = set(golden.get("inexact", ()))
    for k, (new, old) in enumerate(zip(cells, gold)):
        check(new <= old if k in inexact else new == old, f"cover cell {k}: {new} vs golden {old}")


def golden_entry(record: dict) -> dict:
    entry = {"digest": digest(record["exact"])}
    if record["cells"]:
        entry["cells"] = [count for count, _exact in record["cells"]]
        entry["inexact"] = [k for k, (_c, exact) in enumerate(record["cells"]) if not exact]
    return entry
