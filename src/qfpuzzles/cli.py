"""Batch command-line front end.

JSON in, JSON/CSV/DOT out.  Every output embeds a run manifest (command,
parameters, input hashes, tool version, truncation bounds), and reruns
with an identical manifest produce byte-identical output.  Warnings go to
stderr; exit status is 0 on success, 1 on input errors and 2 on
precondition violations.
"""

from __future__ import annotations

import argparse
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
from qfpuzzles.puzzle import Puzzle, PuzzleError
from qfpuzzles.reducibility import ReducibilityAnalyzer
from qfpuzzles.series import SeriesError

DEFAULT_TRUNC = 16


class InputError(Exception):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest(command: str, params: dict, inputs: dict[str, Path], bounds: dict) -> dict:
    return {
        "command": command,
        "parameters": {k: v for k, v in sorted(params.items())},
        "inputs": {name: _sha256(path) for name, path in sorted(inputs.items())},
        "version": __version__,
        "truncation": {k: v for k, v in sorted(bounds.items())},
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


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not a rational: {text!r} (use p/q)")


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


# -- puzzle commands ----------------------------------------------------------


def cmd_puzzle_validate(args) -> int:
    puzzle = _load_puzzle(args.infile)
    report = puzzle.validate()
    manifest = _manifest(
        "puzzle validate", {"in": args.infile}, {"in": Path(args.infile)},
        {"depth": puzzle.depth},
    )
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
    an = ReducibilityAnalyzer(puzzle)
    level = an.irreducible_pieces(args.level)
    manifest = _manifest(
        "puzzle irreducibles",
        {"in": args.infile, "level": args.level},
        {"in": Path(args.infile)},
        {"depth": puzzle.depth},
    )
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
    manifest = _manifest(
        "puzzle verdict",
        {"in": args.infile, "piece": args.piece},
        {"in": Path(args.infile)},
        {"depth": puzzle.depth},
    )
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
    an = ReducibilityAnalyzer(puzzle)
    res = an.is_determined()
    manifest = _manifest(
        "puzzle determined", {"in": args.infile}, {"in": Path(args.infile)},
        {"depth": puzzle.depth},
    )
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
        "puzzle diagram",
        {"in": args.infile, "cutoff": args.cutoff},
        {"in": Path(args.infile)},
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
        "puzzle zeta",
        {"in": args.infile, "level": args.level, "cert": args.cert, "trunc": args.trunc},
        {"in": Path(args.infile)},
        {"depth": puzzle.depth, "trunc": args.trunc, "cert_depth": args.cert},
    )
    rows = []
    for n in range(1, args.trunc + 1):
        coeff = res.zeta[n]
        rows.append(
            [
                n,
                res.counts_certified[n - 1],
                "certified" if res.counts_uncertified[n - 1] == 0 else "partial",
                coeff.numerator,
                coeff.denominator,
            ]
        )
    _emit_csv(manifest, ["n", "count", "certified", "coeff_num", "coeff_den"], rows, args.out)
    return 0


# -- graph commands ------------------------------------------------------------


def cmd_graph_build(args) -> int:
    g = _load(args.spec, gr.loads, gr.GraphError)
    manifest = _manifest(
        "graph build", {"spec": args.spec}, {"spec": Path(args.spec)},
        {"completeness_bound": g.completeness_bound},
    )
    if args.dot:
        _emit_dot(manifest, g.to_dot(), args.dot)
    _emit_json(manifest, g.to_json(), args.out)
    return 0


def cmd_graph_zeta(args) -> int:
    g = _load(args.spec, gr.loads, gr.GraphError)
    subset = _subset(args.subset, g) if args.subset else list(g.vertices)
    _nonnegative("--trunc/--order", args.trunc)
    fn = zt.semi_local_zeta_det if args.method == "det" else zt.semi_local_zeta_brute
    series = fn(g, subset, args.trunc)
    counts = zt.counts_from_zeta(series)
    manifest = _manifest(
        "graph zeta",
        {"spec": args.spec, "subset": ",".join(subset), "method": args.method, "trunc": args.trunc},
        {"spec": Path(args.spec)},
        {"trunc": args.trunc, "completeness_bound": g.completeness_bound},
    )
    exact = g.completeness_bound is None or args.trunc <= g.completeness_bound
    rows = []
    for n in range(1, args.trunc + 1):
        coeff = series[n]
        rows.append([n, counts[n - 1], "exact" if exact else "lower-bound", coeff.numerator, coeff.denominator])
    _emit_csv(manifest, ["n", "count", "certified", "coeff_num", "coeff_den"], rows, args.out)
    return 0


def cmd_graph_entropy(args) -> int:
    g = _load(args.spec, gr.loads, gr.GraphError)
    if args.base not in g.vertices:
        raise InputError(f"base vertex {args.base!r} not in graph")
    _nonnegative("--length", args.length)
    table = gurevich_entropy_estimate(g, args.base, args.length)
    manifest = _manifest(
        "graph entropy",
        {"spec": args.spec, "base": args.base, "length": args.length},
        {"spec": Path(args.spec)},
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


def cmd_graph_hinf(args) -> int:
    g = _load(args.spec, gr.loads, gr.GraphError)
    subset = _subset(args.subset, g)
    _nonnegative("--length", args.length)
    table = entropy_at_infinity_estimate(g, subset, args.length)
    manifest = _manifest(
        "graph hinf",
        {"spec": args.spec, "subset": ",".join(subset), "length": args.length},
        {"spec": Path(args.spec)},
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


# -- coupled commands -----------------------------------------------------------


def cmd_coupled_build(args) -> int:
    params = cp.CouplingParams.make(
        _fraction(args.a), _fraction(args.b), _fraction(args.c)
    )
    gap = _fraction(args.gap) if args.gap else None
    build = cp.build_puzzle(params, args.depth, args.res, gap)
    report = build.puzzle.validate()
    manifest = _manifest(
        "coupled build",
        {
            "a": str(params.a), "b": str(params.b), "c": str(params.c),
            "depth": args.depth, "res": args.res,
            "gap": str(gap if gap is not None else cp.default_gap(args.res)),
        },
        {},
        {"depth": args.depth, "resolution": args.res},
    )
    payload = dict(build.puzzle.to_json())
    payload["ambiguous_pieces"] = list(build.ambiguous)
    payload["valid"] = report.ok
    _emit_json(manifest, payload, args.out)
    return 0 if report.ok else 2


def cmd_coupled_resultant(args) -> int:
    params = cp.CouplingParams.make(
        _fraction(args.a), _fraction(args.b), _fraction(args.c)
    )
    from qfpuzzles.polys import sylvester_resultant

    pn = cp.iterate_polynomial(params, args.n)
    pm = cp.iterate_polynomial(params, args.m)
    value = sylvester_resultant(pn, pm)
    manifest = _manifest(
        "coupled resultant",
        {"a": str(params.a), "b": str(params.b), "c": str(params.c), "n": args.n, "m": args.m},
        {},
        {},
    )
    result = {
        "resultant_numerator": value.numerator,
        "resultant_denominator": value.denominator,
        "nonzero": value != 0,
        "degrees": [pn.degree, pm.degree],
    }
    _emit_json(manifest, result, args.out)
    return 0


# -- dispatch --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qfpuzzles", description=__doc__)
    sub = top.add_subparsers(dest="group", required=True)

    puzzle = sub.add_parser("puzzle", help="puzzle-side operations")
    psub = puzzle.add_subparsers(dest="op", required=True)

    def pz(name, fn, **extra):
        sp = psub.add_parser(name)
        sp.add_argument("--in", dest="infile", required=True)
        sp.add_argument("--out", default=None)
        for flag, kw in extra.items():
            sp.add_argument(flag, **kw)
        sp.set_defaults(func=fn)
        return sp

    pz("validate", cmd_puzzle_validate)
    pz("irreducibles", cmd_puzzle_irreducibles, **{"--level": dict(type=int, required=True)})
    pz("verdict", cmd_puzzle_verdict, **{"--piece": dict(required=True)})
    pz("determined", cmd_puzzle_determined)
    pz("diagram", cmd_puzzle_diagram, **{
        "--cutoff": dict(type=int, required=True),
        "--dot": dict(default=None),
    })
    pz("zeta", cmd_puzzle_zeta, **{
        "--level": dict(type=int, required=True),
        "--cert": dict(type=int, required=True),
        "--trunc": dict(type=int, default=DEFAULT_TRUNC),
    })

    graph = sub.add_parser("graph", help="graph-side operations")
    gsub = graph.add_subparsers(dest="op", required=True)

    gb = gsub.add_parser("build")
    gb.add_argument("--spec", required=True)
    gb.add_argument("--out", default=None)
    gb.add_argument("--dot", default=None)
    gb.set_defaults(func=cmd_graph_build)

    gz = gsub.add_parser("zeta")
    gz.add_argument("--spec", required=True)
    gz.add_argument("--subset", default=None, help="comma-separated vertices; default all")
    gz.add_argument("--method", choices=("det", "brute"), default="det")
    gz.add_argument("--trunc", "--order", dest="trunc", type=int, default=DEFAULT_TRUNC)
    gz.add_argument("--out", default=None)
    gz.set_defaults(func=cmd_graph_zeta)

    ge = gsub.add_parser("entropy")
    ge.add_argument("--spec", required=True)
    ge.add_argument("--base", required=True)
    ge.add_argument("--length", type=int, default=DEFAULT_TRUNC)
    ge.add_argument("--out", default=None)
    ge.set_defaults(func=cmd_graph_entropy)

    gh = gsub.add_parser("hinf")
    gh.add_argument("--spec", required=True)
    gh.add_argument("--subset", required=True)
    gh.add_argument("--length", type=int, default=DEFAULT_TRUNC)
    gh.add_argument("--out", default=None)
    gh.set_defaults(func=cmd_graph_hinf)

    coupled = sub.add_parser("coupled", help="coupled quadratic map pipeline")
    csub = coupled.add_subparsers(dest="op", required=True)

    cb = csub.add_parser("build")
    for flag in ("--a", "--b", "--c"):
        cb.add_argument(flag, required=True)
    cb.add_argument("--depth", type=int, required=True)
    cb.add_argument("--res", type=int, required=True)
    cb.add_argument("--gap", default=None)
    cb.add_argument("--out", default=None)
    cb.set_defaults(func=cmd_coupled_build)

    cr = csub.add_parser("resultant")
    for flag in ("--a", "--b", "--c"):
        cr.add_argument(flag, required=True)
    cr.add_argument("--n", type=int, required=True)
    cr.add_argument("--m", type=int, required=True)
    cr.add_argument("--out", default=None)
    cr.set_defaults(func=cmd_coupled_resultant)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
