"""Batch command-line front end.

JSON in, JSON/CSV/DOT out.  Every output embeds a run manifest (command,
parameters, input hashes, tool version, truncation bounds), and reruns
with an identical manifest produce byte-identical output.  Warnings go to
stderr; exit status is 0 on success, 1 on input errors and 2 on
precondition violations.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Callable

from qfpuzzles import __version__
from qfpuzzles import coupled as cp
from qfpuzzles import graphs as gr
from qfpuzzles import zeta as zt
from qfpuzzles.diagram import build_diagram, entropy_at_infinity_estimate, gurevich_entropy_estimate, scc_decomposition
from qfpuzzles.polys import sylvester_resultant
from qfpuzzles.puzzle import Puzzle, PuzzleError
from qfpuzzles.reducibility import ReducibilityAnalyzer
from qfpuzzles.series import SeriesError

DEFAULT_TRUNC = 16


class InputError(Exception):
    pass


def _manifest(args, params: dict, bounds: dict) -> dict:
    """The run manifest; the files named by the ``in``/``spec`` parameters are hashed."""
    return {
        "command": f"{args.group} {args.op}",
        "parameters": params,
        "inputs": {
            name: hashlib.sha256(Path(params[name]).read_bytes()).hexdigest()
            for name in ("in", "spec") if name in params
        },
        "version": __version__,
        "truncation": bounds,
    }


def _emit_json(manifest: dict, result, out: str | None) -> None:
    text = json.dumps({"manifest": manifest, "result": result}, sort_keys=True, indent=1)
    _write(out, text + "\n")


def _emit_csv(manifest: dict, header: list[str], rows: list[list], out: str | None) -> None:
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    _write(out, "\n".join(lines) + "\n")


def _emit_dot(manifest: dict, dot: str, out: str | None) -> None:
    text = "// manifest: " + json.dumps(manifest, sort_keys=True) + "\n" + dot
    _write(out, text + "\n")


def _write(out: str | None, text: str) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}")


def _load(path: str, parse: Callable[[str], object], error: type[Exception]):
    """``parse`` of a UTF-8 JSON file; every way it can fail is an :class:`InputError`."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"malformed JSON in {path}: {exc}")
    except error as exc:
        raise InputError(f"bad input file {path}: {exc}")


def _load_puzzle(path: str) -> Puzzle:
    return _load(path, lambda text: Puzzle.loads(text, name=Path(path).stem), PuzzleError)


def _load_graph(path: str) -> gr.GraphTruncation:
    return _load(path, gr.loads, gr.GraphError)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not a rational: {text!r} (use p/q)")


def _coupling(args) -> tuple[cp.CouplingParams, dict]:
    """The ``--a --b --c`` parameters and their manifest entries."""
    params = cp.CouplingParams.make(_fraction(args.a), _fraction(args.b), _fraction(args.c))
    return params, {"a": str(params.a), "b": str(params.b), "c": str(params.c)}


def _subset(text: str, g: gr.GraphTruncation) -> list[str]:
    subset = [part for part in text.split(",") if part]
    missing = [v for v in subset if v not in g.vertices]
    if missing:
        raise InputError(f"subset vertices not in graph: {missing}")
    return subset


def _nonnegative(flag: str, value: int) -> int:
    if value < 0:
        raise InputError(f"{flag} must be >= 0, got {value}")
    return value


def _emit_series(args, manifest: dict, series, counts: list[int], certified: list[str]) -> int:
    """Zeta coefficients 1..``--trunc`` as CSV, with the counts behind them."""
    rows = [
        [n, counts[n - 1], certified[n - 1], series[n].numerator, series[n].denominator]
        for n in range(1, args.trunc + 1)
    ]
    _emit_csv(manifest, ["n", "count", "certified", "coeff_num", "coeff_den"], rows, args.out)
    return 0


def _emit_rates(args, g: gr.GraphTruncation, params: dict, table) -> int:
    """A growth-rate table of ``graph entropy`` or ``graph hinf`` as CSV."""
    manifest = _manifest(
        args, {"spec": args.spec, "length": args.length, **params},
        {"length": args.length, "completeness_bound": g.completeness_bound},
    )
    rows = [
        [r.n, r.count, "exact" if table.exact else "lower-bound",
         "" if r.rate is None else f"{r.rate:.12f}",
         "" if r.ratio is None else f"{r.ratio:.12f}"]
        for r in table.rows
    ]
    _emit_csv(manifest, ["n", "count", "certified", "rate_estimate", "ratio_estimate"], rows, args.out)
    return 0


# -- puzzle commands ----------------------------------------------------------


def cmd_puzzle_validate(args) -> int:
    puzzle = _load_puzzle(args.infile)
    report = puzzle.validate()
    manifest = _manifest(args, {"in": args.infile}, {"depth": puzzle.depth})
    result = {
        "ok": report.ok,
        "violations": [
            {"kind": v.kind, "piece": v.piece, "detail": v.detail}
            for v in report.violations
        ],
    }
    _emit_json(manifest, result, args.out)
    return 0 if report.ok else 1


def cmd_puzzle_irreducibles(args) -> int:
    puzzle = _load_puzzle(args.infile)
    level = ReducibilityAnalyzer(puzzle).irreducible_pieces(args.level)
    manifest = _manifest(args, {"in": args.infile, "level": args.level}, {"depth": puzzle.depth})
    result = {
        "level": args.level,
        "irreducible": [puzzle.label(v) for v in level.certified],
        "unknown_beyond_depth": [puzzle.label(v) for v in level.unknown],
    }
    _emit_json(manifest, result, args.out)
    return 0


def cmd_puzzle_verdict(args) -> int:
    puzzle = _load_puzzle(args.infile)
    try:
        piece = puzzle.id_of(args.piece)
    except PuzzleError as exc:
        raise InputError(str(exc)) from None
    if puzzle.order(piece) == 0:
        raise InputError(f"piece {args.piece!r} is the root; verdicts need order >= 1")
    v = ReducibilityAnalyzer(puzzle).verdict(piece)
    manifest = _manifest(args, {"in": args.infile, "piece": args.piece}, {"depth": puzzle.depth})
    result = {
        "piece": args.piece,
        "status": v.status.value,
        "certified_depth": v.certified_depth,
        "witness_level": v.witness_level,
        "witness_piece": puzzle.label(v.witness_piece) if v.witness_piece is not None else None,
    }
    _emit_json(manifest, result, args.out)
    return 0


def cmd_puzzle_determined(args) -> int:
    puzzle = _load_puzzle(args.infile)
    res = ReducibilityAnalyzer(puzzle).is_determined()
    manifest = _manifest(args, {"in": args.infile}, {"depth": puzzle.depth})
    result = {
        "determined": res.determined,
        "checked_through_order": res.checked_through_order,
        "counterexample": [puzzle.label(u) for u in res.counterexample]
        if res.counterexample
        else None,
    }
    _emit_json(manifest, result, args.out)
    return 0


def cmd_puzzle_diagram(args) -> int:
    puzzle = _load_puzzle(args.infile)
    d = build_diagram(puzzle, args.cutoff)
    manifest = _manifest(
        args, {"in": args.infile, "cutoff": args.cutoff},
        {"depth": puzzle.depth, "cutoff": args.cutoff, "complete": d.is_complete},
    )
    if args.dot:
        _emit_dot(manifest, d.to_dot(), args.dot)
    sccs = scc_decomposition(d)
    result = {
        "vertices": [puzzle.label(v) for v in d.vertices],
        "arrows": [
            {
                "source": puzzle.label(a.source),
                "target": puzzle.label(a.target),
                "witness": puzzle.label(a.witness),
                "steps": a.steps,
            }
            for a in d.arrows
        ],
        "frontier": [
            {"source": puzzle.label(m.source), "witness": puzzle.label(m.witness), "reason": m.reason}
            for m in d.frontier
        ],
        "sccs": [{"vertices": list(s.vertices), "period": s.period} for s in sccs],
    }
    _emit_json(manifest, result, args.out)
    return 0


def cmd_puzzle_zeta(args) -> int:
    puzzle = _load_puzzle(args.infile)
    _nonnegative("--trunc", args.trunc)
    res = zt.puzzle_zeta_n(puzzle, args.level, args.trunc, args.cert)
    manifest = _manifest(
        args, {"in": args.infile, "level": args.level, "cert": args.cert, "trunc": args.trunc},
        {"depth": puzzle.depth, "trunc": args.trunc, "cert_depth": args.cert},
    )
    certified = ["certified" if k == 0 else "partial" for k in res.counts_uncertified]
    return _emit_series(args, manifest, res.zeta, res.counts_certified, certified)


# -- graph commands ------------------------------------------------------------


def cmd_graph_build(args) -> int:
    g = _load_graph(args.spec)
    manifest = _manifest(args, {"spec": args.spec}, {"completeness_bound": g.completeness_bound})
    if args.dot:
        _emit_dot(manifest, g.to_dot(), args.dot)
    _emit_json(manifest, g.to_json(), args.out)
    return 0


def cmd_graph_zeta(args) -> int:
    g = _load_graph(args.spec)
    subset = _subset(args.subset, g) if args.subset else list(g.vertices)
    _nonnegative("--trunc/--order", args.trunc)
    fn = zt.semi_local_zeta_det if args.method == "det" else zt.semi_local_zeta_brute
    series = fn(g, subset, args.trunc)
    counts = zt.counts_from_zeta(series)
    manifest = _manifest(
        args, {"spec": args.spec, "subset": ",".join(subset), "method": args.method, "trunc": args.trunc},
        {"trunc": args.trunc, "completeness_bound": g.completeness_bound},
    )
    certified = ["exact" if g.exact_up_to(args.trunc) else "lower-bound"] * args.trunc
    return _emit_series(args, manifest, series, counts, certified)


def cmd_graph_entropy(args) -> int:
    g = _load_graph(args.spec)
    if args.base not in g.vertices:
        raise InputError(f"base vertex {args.base!r} not in graph")
    _nonnegative("--length", args.length)
    table = gurevich_entropy_estimate(g, args.base, args.length)
    return _emit_rates(args, g, {"base": args.base}, table)


def cmd_graph_hinf(args) -> int:
    g = _load_graph(args.spec)
    subset = _subset(args.subset, g)
    _nonnegative("--length", args.length)
    table = entropy_at_infinity_estimate(g, subset, args.length)
    return _emit_rates(args, g, {"subset": ",".join(subset)}, table)


# -- coupled commands -----------------------------------------------------------


def cmd_coupled_build(args) -> int:
    params, abc = _coupling(args)
    gap = _fraction(args.gap) if args.gap else None
    build = cp.build_puzzle(params, args.depth, args.res, gap)
    report = build.puzzle.validate()
    manifest = _manifest(
        args,
        {**abc, "depth": args.depth, "res": args.res,
         "gap": str(gap if gap is not None else cp.default_gap(args.res))},
        {"depth": args.depth, "resolution": args.res},
    )
    payload = dict(build.puzzle.to_json())
    payload["ambiguous_pieces"] = list(build.ambiguous)
    payload["valid"] = report.ok
    _emit_json(manifest, payload, args.out)
    return 0 if report.ok else 2


def cmd_coupled_resultant(args) -> int:
    params, abc = _coupling(args)
    pn = cp.iterate_polynomial(params, args.n)
    pm = cp.iterate_polynomial(params, args.m)
    value = sylvester_resultant(pn, pm)
    manifest = _manifest(args, {**abc, "n": args.n, "m": args.m}, {})
    result = {
        "resultant_numerator": value.numerator,
        "resultant_denominator": value.denominator,
        "nonzero": value != 0,
        "degrees": [pn.degree, pm.degree],
    }
    _emit_json(manifest, result, args.out)
    return 0


# -- dispatch --------------------------------------------------------------------

_REQ = dict(required=True)
_INT = dict(type=int, required=True)
_TRUNC = dict(type=int, default=DEFAULT_TRUNC)
_IN = {"--in": dict(dest="infile", required=True)}
_ABC = {"--a": _REQ, "--b": _REQ, "--c": _REQ}

GROUPS = {
    "puzzle": "puzzle-side operations",
    "graph": "graph-side operations",
    "coupled": "coupled quadratic map pipeline",
}

# The command surface: (group, op) -> (function, flags).  A flag key holds
# the option strings, space-separated; every command also takes --out.
COMMANDS: dict[tuple[str, str], tuple[Callable, dict[str, dict]]] = {
    ("puzzle", "validate"): (cmd_puzzle_validate, _IN),
    ("puzzle", "irreducibles"): (cmd_puzzle_irreducibles, {**_IN, "--level": _INT}),
    ("puzzle", "verdict"): (cmd_puzzle_verdict, {**_IN, "--piece": _REQ}),
    ("puzzle", "determined"): (cmd_puzzle_determined, _IN),
    ("puzzle", "diagram"): (cmd_puzzle_diagram, {**_IN, "--cutoff": _INT, "--dot": {}}),
    ("puzzle", "zeta"): (cmd_puzzle_zeta, {**_IN, "--level": _INT, "--cert": _INT, "--trunc": _TRUNC}),
    ("graph", "build"): (cmd_graph_build, {"--spec": _REQ, "--dot": {}}),
    ("graph", "zeta"): (cmd_graph_zeta, {
        "--spec": _REQ,
        "--subset": dict(help="comma-separated vertices; default all"),
        "--method": dict(choices=("det", "brute"), default="det"),
        "--trunc --order": _TRUNC,
    }),
    ("graph", "entropy"): (cmd_graph_entropy, {"--spec": _REQ, "--base": _REQ, "--length": _TRUNC}),
    ("graph", "hinf"): (cmd_graph_hinf, {"--spec": _REQ, "--subset": _REQ, "--length": _TRUNC}),
    ("coupled", "build"): (cmd_coupled_build, {**_ABC, "--depth": _INT, "--res": _INT, "--gap": {}}),
    ("coupled", "resultant"): (cmd_coupled_resultant, {**_ABC, "--n": _INT, "--m": _INT}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of :data:`COMMANDS`, built once per process."""
    top = argparse.ArgumentParser(prog="qfpuzzles", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True)
    ops = {
        group: groups.add_parser(group, help=text).add_subparsers(dest="op", required=True)
        for group, text in GROUPS.items()
    }
    for (group, op), (fn, flags) in COMMANDS.items():
        sub = ops[group].add_parser(op)
        for names, kw in {**flags, "--out": {}}.items():
            sub.add_argument(*names.split(), **kw)
        sub.set_defaults(func=fn)
    return top


def main(argv=None) -> int:
    """Run one command; returns the exit status and never raises ``SystemExit``."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed its usage error (2) or --help (0)
        return exc.code
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = args.func(args)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        return status
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (PuzzleError, gr.GraphError, SeriesError, cp.CoupledError, zt.NotRationalError, ValueError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
