import json
import math
from fractions import Fraction

import pytest

from qfpuzzles import cli
from qfpuzzles.cli import main
from qfpuzzles.constructions import full_shift_puzzle, golden_mean_puzzle
from qfpuzzles.series import PowerSeries

from test_fuzz import with_f_override


@pytest.fixture()
def k3_spec(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps({"kind": "complete", "d": 3}))
    return path


@pytest.fixture()
def fullshift_file(tmp_path):
    path = tmp_path / "fullshift.json"
    path.write_text(full_shift_puzzle(4).dumps())
    return path


def run(capsys, argv):
    status = main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def test_graph_zeta_matches_rational_expansion(capsys, k3_spec):
    status, out, err = run(
        capsys, ["graph", "zeta", "--spec", str(k3_spec), "--subset", "0", "--order", "12"]
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# manifest:")
    assert lines[1] == "n,count,certified,coeff_num,coeff_den"
    rows = [line.split(",") for line in lines[2:]]
    counts = [int(r[1]) for r in rows]
    assert counts == [3**n - 2**n for n in range(1, 13)]
    target = PowerSeries([1, -2], order=12) * PowerSeries([1, -3], order=12).reciprocal()
    coeffs = [Fraction(int(r[3]), int(r[4])) for r in rows]
    assert coeffs == list(target.coeffs[1:])


def test_graph_zeta_brute_agrees(capsys, k3_spec):
    _, det_out, _ = run(
        capsys, ["graph", "zeta", "--spec", str(k3_spec), "--subset", "0", "--order", "8"]
    )
    _, brute_out, _ = run(
        capsys,
        ["graph", "zeta", "--spec", str(k3_spec), "--subset", "0", "--order", "8",
         "--method", "brute"],
    )
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
    assert strip(det_out) == strip(brute_out)


def test_puzzle_irreducibles_level_two_empty(capsys, fullshift_file):
    status, out, _ = run(
        capsys,
        ["puzzle", "irreducibles", "--in", str(fullshift_file), "--level", "2"],
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["result"]["irreducible"] == []
    assert payload["manifest"]["command"] == "puzzle irreducibles"


def test_puzzle_validate_broken_exits_one(capsys, tmp_path):
    p = with_f_override(full_shift_puzzle(3), {"01": "ε"})
    path = tmp_path / "broken.json"
    path.write_text(p.dumps())
    status, out, _ = run(capsys, ["puzzle", "validate", "--in", str(path)])
    assert status == 1
    payload = json.loads(out)
    assert not payload["result"]["ok"]
    assert payload["result"]["violations"]


@pytest.mark.parametrize(
    "op, extra",
    [
        ("irreducibles", ["--level", "1"]),
        ("verdict", ["--piece", "0"]),
        ("determined", []),
        ("diagram", ["--cutoff", "2"]),
        ("zeta", ["--level", "1", "--cert", "2", "--trunc", "3"]),
    ],
)
def test_analyses_refuse_invalid_puzzle(capsys, tmp_path, op, extra):
    path = tmp_path / "broken.json"
    path.write_text(with_f_override(full_shift_puzzle(3), {"01": "ε"}).dumps())
    status, out, err = run(capsys, ["puzzle", op, "--in", str(path), *extra])
    assert status == 2 and out == ""
    assert "fails validation" in err and "level-skip" in err


def test_verdict_unknown_piece_is_input_error(capsys, fullshift_file):
    status, out, err = run(
        capsys, ["puzzle", "verdict", "--in", str(fullshift_file), "--piece", "2"]
    )
    assert status == 1 and out == ""
    assert "no piece labeled '2'" in err


def test_puzzle_zeta_trunc_zero_prints_no_counts(capsys, tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(golden_mean_puzzle(5).dumps())
    status, out, err = run(
        capsys, ["puzzle", "zeta", "--in", str(path), "--level", "2", "--cert", "4", "--trunc", "0"]
    )
    assert status == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("# manifest:") and '"trunc": 0' in lines[0]
    assert lines[1:] == ["n,count,certified,coeff_num,coeff_den"]


K3 = {"kind": "complete", "d": 3}
DIRECTORY = object()


@pytest.mark.parametrize(
    "spec, argv",
    [
        (K3, ["graph", "zeta", "--trunc", "-3"]),
        (K3, ["graph", "zeta", "--order", "-1"]),
        (K3, ["graph", "hinf", "--subset", "0", "--length", "-1"]),
        (K3, ["graph", "entropy", "--base", "0", "--length", "-2"]),
        ({"kind": "complete"}, ["graph", "zeta"]),
        ([K3], ["graph", "zeta"]),
        ({"kind": "complete", "d": "3"}, ["graph", "build"]),
        ({"kind": "loop_graph", "f": "12"}, ["graph", "build"]),
        ({"kind": "adjacency", "matrix": [1, 0]}, ["graph", "build"]),
        ({"kind": "two_hub", "a": [1], "bound": -1}, ["graph", "build"]),
        ({"vertices": "ab"}, ["graph", "build"]),
        ({"vertices": ["a"], "edges": [["a", "a", 2]]}, ["graph", "build"]),
        (None, ["puzzle", "zeta", "--level", "1", "--cert", "2", "--trunc", "-1"]),
        (None, ["puzzle", "verdict", "--piece", "ε"]),
        ([{"levels": [["e"], ["a"]], "i": {"a": "e"}, "f": {"a": "e"}}], ["puzzle", "validate"]),
        ({"levels": [["e"], ["a"]], "i": ["a", "e"], "f": {"a": "e"}}, ["puzzle", "validate"]),
        ({"levels": "ab", "i": {}, "f": {}}, ["puzzle", "validate"]),
        ({"levels": [["e"], [1]], "i": {}, "f": {}}, ["puzzle", "validate"]),
        (DIRECTORY, ["puzzle", "validate"]),
        (DIRECTORY, ["graph", "build"]),
        (None, ["puzzle", "validate", "--out", "{tmp}"]),
        (None, ["puzzle", "irreducibles", "--level", "1", "--out", "{tmp}/missing/out.json"]),
        (None, ["puzzle", "diagram", "--cutoff", "2", "--dot", "{tmp}"]),
        (None, ["puzzle", "diagram", "--cutoff", "2", "--dot", "{tmp}/missing/d.dot"]),
        (K3, ["graph", "build", "--out", "{tmp}"]),
        (K3, ["graph", "build", "--dot", "{tmp}/missing/k3.dot"]),
        ("[" * 100_000 + "]" * 100_000, ["puzzle", "validate"]),
        ("[" * 100_000 + "]" * 100_000, ["graph", "zeta"]),
        (b'{"kind": "complete", "d": 3, "note": "\xff"}', ["graph", "zeta"]),
        (b'{"levels": [["\xe9"]], "i": {}, "f": {}}', ["puzzle", "validate"]),
        (K3, ["graph", "zeta", "--subset", "", "--order", "4"]),
        (K3, ["graph", "zeta", "--subset", ",", "--order", "4"]),
        (K3, ["graph", "hinf", "--subset", ",", "--length", "4"]),
    ],
    ids=[
        "zeta-negative-trunc", "zeta-negative-order", "hinf-negative-length",
        "entropy-negative-length", "spec-missing-key", "spec-top-level-array", "spec-string-d",
        "spec-string-f", "spec-flat-matrix", "spec-negative-bound", "spec-string-vertices",
        "spec-three-field-edge", "puzzle-zeta-negative-trunc", "verdict-root-piece",
        "puzzle-top-level-array", "puzzle-i-array", "puzzle-string-levels", "puzzle-int-label",
        "puzzle-in-directory", "graph-spec-directory", "out-directory", "out-missing-folder",
        "dot-directory", "dot-missing-folder", "graph-out-directory", "graph-dot-missing-folder",
        "puzzle-deep-nesting", "spec-deep-nesting", "spec-not-utf8", "puzzle-not-utf8",
        "zeta-empty-subset", "zeta-comma-subset", "hinf-comma-subset",
    ],
)
def test_bad_input_exits_one_without_output(capsys, tmp_path, fullshift_file, spec, argv):
    # spec: None for the full-shift file, a directory, raw text or bytes, or JSON data
    path = tmp_path / "spec.json"
    if spec is None:
        path = fullshift_file
    elif spec is DIRECTORY:
        path = tmp_path
    elif isinstance(spec, bytes):
        path.write_bytes(spec)
    else:
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    flags = [a.format(tmp=tmp_path) for a in argv[2:]]
    argv = [*argv[:2], "--in" if argv[0] == "puzzle" else "--spec", str(path), *flags]
    status, out, err = run(capsys, argv)
    assert (status, out) == (1, "")
    assert err.startswith("input error:") and "Traceback" not in err


def test_puzzle_determined_and_verdict(capsys, fullshift_file):
    status, out, _ = run(capsys, ["puzzle", "determined", "--in", str(fullshift_file)])
    assert status == 0 and json.loads(out)["result"]["determined"]
    status, out, _ = run(
        capsys, ["puzzle", "verdict", "--in", str(fullshift_file), "--piece", "0"]
    )
    payload = json.loads(out)["result"]
    assert payload["status"] == "Irreducible_R2" and payload["witness_piece"] == "1"


def test_puzzle_diagram_output(capsys, tmp_path):
    path = tmp_path / "gm.json"
    path.write_text(golden_mean_puzzle(5).dumps())
    status, out, _ = run(
        capsys, ["puzzle", "diagram", "--in", str(path), "--cutoff", "3"]
    )
    assert status == 0
    result = json.loads(out)["result"]
    assert result["vertices"] == ["0", "1"]
    pairs = {(a["source"], a["target"]) for a in result["arrows"]}
    assert pairs == {("0", "0"), ("0", "1"), ("1", "0")}
    assert result["sccs"][0]["period"] == 1


@pytest.mark.parametrize("cutoff, message", [
    ("0", "cutoff must be >= 1, got 0"),
    ("-3", "cutoff must be >= 1, got -3"),
    ("6", "cutoff 6 needs depth >= 7, have 6"),
], ids=["zero", "negative", "too-deep"])
def test_puzzle_diagram_cutoff_out_of_range(capsys, tmp_path, cutoff, message):
    path = tmp_path / "gm.json"
    path.write_text(golden_mean_puzzle(6).dumps())
    status, out, err = run(capsys, ["puzzle", "diagram", "--in", str(path), "--cutoff", cutoff])
    assert (status, out, err) == (2, "", f"precondition violation: {message}\n")


def test_puzzle_zeta_csv(capsys, fullshift_file):
    status, out, _ = run(
        capsys,
        ["puzzle", "zeta", "--in", str(fullshift_file), "--level", "1",
         "--cert", "3", "--trunc", "6"],
    )
    assert status == 0
    rows = [l.split(",") for l in out.strip().splitlines()[2:]]
    assert [int(r[1]) for r in rows] == [2, 4, 8, 16, 32, 64]
    assert all(r[2] == "certified" for r in rows)


def test_determinism_byte_identical(capsys, k3_spec, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for target in (out1, out2):
        status = main(
            ["graph", "zeta", "--spec", str(k3_spec), "--subset", "0",
             "--order", "10", "--out", str(target)]
        )
        assert status == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_missing_file_is_input_error(capsys):
    status, _, err = run(capsys, ["puzzle", "validate", "--in", "nope.json"])
    assert status == 1
    assert err.startswith("input error:")


def test_precondition_violation_exits_two(capsys, fullshift_file):
    status, _, err = run(
        capsys,
        ["puzzle", "zeta", "--in", str(fullshift_file), "--level", "3",
         "--cert", "3", "--trunc", "4"],
    )
    assert status == 2
    assert err.startswith("precondition violation:")


def test_truncation_warning_routed_to_stderr(capsys, tmp_path):
    spec = tmp_path / "loop.json"
    spec.write_text(json.dumps({"kind": "loop_graph", "f": [0, 2]}))
    status, out, err = run(
        capsys,
        ["graph", "zeta", "--spec", str(spec), "--subset", "a", "--order", "6"],
    )
    assert status == 0
    assert "warning:" in err
    rows = [l.split(",") for l in out.strip().splitlines()[2:]]
    assert all(r[2] == "lower-bound" for r in rows)


def test_graph_entropy_and_hinf(capsys, k3_spec):
    status, out, _ = run(
        capsys, ["graph", "entropy", "--spec", str(k3_spec), "--base", "0", "--length", "6"]
    )
    assert status == 0
    rows = [l.split(",") for l in out.strip().splitlines()[2:]]
    assert [int(r[1]) for r in rows] == [3 ** (n - 1) for n in range(1, 7)]
    status, out, _ = run(
        capsys, ["graph", "hinf", "--spec", str(k3_spec), "--subset", "0,1", "--length", "5"]
    )
    assert status == 0


@pytest.mark.parametrize("spec, argv", [
    ({"kind": "loop_graph", "f": [1, 10**400]}, ["graph", "entropy", "--base", "a", "--length", "3"]),
    ({"kind": "two_hub", "a": [], "b": [], "s": [10**400, 1], "t": []},
     ["graph", "hinf", "--subset", "a,b", "--length", "3"]),
])
def test_rate_ratio_of_huge_counts(capsys, tmp_path, spec, argv):
    # the quotient of consecutive counts overflows a float, or rounds to zero
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(spec))
    status, out, err = run(capsys, argv[:2] + ["--spec", str(path)] + argv[2:])
    assert (status, err) == (0, "")
    rows = [l.split(",") for l in out.strip().splitlines()[2:]]
    counts = [int(r[1]) for r in rows]
    ratios = [(prev, c, float(row[4])) for prev, c, row in zip(counts, counts[1:], rows[1:]) if c]
    assert max(counts) > 10**399 and ratios
    for prev, c, ratio in ratios:
        assert abs(ratio - (math.log(c) - math.log(prev))) < 1e-9


def test_coupled_resultant_cli(capsys):
    status, out, _ = run(
        capsys,
        ["coupled", "resultant", "--a", "1", "--b", "1", "--c", "0", "--n", "1", "--m", "2"],
    )
    assert status == 0
    result = json.loads(out)["result"]
    assert result["nonzero"] is True
    assert result["degrees"] == [2, 4]


def test_coupled_build_cli(capsys, tmp_path):
    out_path = tmp_path / "puzzle.json"
    status = main(
        ["coupled", "build", "--a", "1", "--b", "1", "--c", "0",
         "--depth", "1", "--res", "4", "--out", str(out_path)]
    )
    assert status == 0
    payload = json.loads(out_path.read_text())
    assert payload["result"]["valid"] is True
    assert len(payload["result"]["levels"][1]) == 4


@pytest.mark.parametrize("gap", ["0", "0/5", "-1", "--gap=-1/4"])
def test_coupled_build_refuses_a_gap_that_is_not_positive(capsys, tmp_path, gap):
    out_path = tmp_path / "puzzle.json"
    flags = [gap] if gap.startswith("--") else ["--gap", gap]
    status, out, err = run(
        capsys,
        ["coupled", "build", "--a", "9/10", "--b", "9/10", "--c", "1/20",
         "--depth", "2", "--res", "3", *flags, "--out", str(out_path)],
    )
    assert (status, out) == (2, "")
    assert err == "precondition violation: gap must be positive\n"
    assert not out_path.exists()


def test_graph_build_dot(capsys, k3_spec, tmp_path):
    dot_path = tmp_path / "k3.dot"
    status = main(
        ["graph", "build", "--spec", str(k3_spec), "--dot", str(dot_path),
         "--out", str(tmp_path / "k3.out.json")]
    )
    assert status == 0
    assert dot_path.read_text().splitlines()[0].startswith("// manifest:")


def test_puzzle_diagram_dot_labels_orders_and_witnesses(capsys, tmp_path):
    path = tmp_path / "fs.json"
    path.write_text(full_shift_puzzle(4).dumps())
    dot_path = tmp_path / "fs.dot"
    status = main(
        ["puzzle", "diagram", "--in", str(path), "--cutoff", "2",
         "--dot", str(dot_path), "--out", str(tmp_path / "fs.out.json")]
    )
    assert status == 0
    dot = dot_path.read_text()
    assert 'label="0|1"' in dot
    assert 'label="01"' in dot  # arrows carry their witness


def test_two_hub_spec_via_cli(capsys, tmp_path):
    spec = tmp_path / "hub.json"
    spec.write_text(
        json.dumps({"kind": "two_hub", "a": [1], "b": [0, 1], "s": [1], "t": [1],
                    "bound": 10})
    )
    status, out, _ = run(
        capsys,
        ["graph", "zeta", "--spec", str(spec), "--subset", "a", "--order", "8"],
    )
    assert status == 0
    rows = [l.split(",") for l in out.strip().splitlines()[2:]]
    assert all(r[2] == "exact" for r in rows)
    status, out, _ = run(
        capsys,
        ["graph", "hinf", "--spec", str(spec), "--subset", "a,b", "--length", "8"],
    )
    assert status == 0


def test_coupled_build_depth_two_cli(capsys, tmp_path):
    out_path = tmp_path / "coupled2.json"
    status = main(
        ["coupled", "build", "--a", "1", "--b", "1", "--c", "0",
         "--depth", "2", "--res", "5", "--out", str(out_path)]
    )
    assert status == 0
    payload = json.loads(out_path.read_text())
    result = payload["result"]
    assert result["valid"] is True
    assert len(result["levels"][2]) == 16
    # the emitted puzzle is itself loadable and analyzable
    from qfpuzzles.puzzle import Puzzle
    from qfpuzzles.reducibility import ReducibilityAnalyzer

    puzzle = Puzzle.from_json(
        {k: result[k] for k in ("depth", "levels", "i", "f")}
    )
    assert puzzle.validate().ok
    ReducibilityAnalyzer(puzzle).irreducible_pieces(1)


def test_shared_parser_matches_fresh_build(capsys, monkeypatch, k3_spec, fullshift_file):
    valid = [
        ["graph", "zeta", "--spec", str(k3_spec), "--subset", "0", "--order", "6"],
        ["graph", "entropy", "--spec", str(k3_spec), "--base", "0", "--length", "4"],
        ["graph", "hinf", "--spec", str(k3_spec), "--subset", "0,1", "--length", "4"],
        ["puzzle", "verdict", "--in", str(fullshift_file), "--piece", "0"],
        ["puzzle", "zeta", "--in", str(fullshift_file), "--level", "1", "--cert", "3", "--trunc", "4"],
        ["puzzle", "diagram", "--in", str(fullshift_file), "--cutoff", "2"],
        ["coupled", "resultant", "--a", "1", "--b", "1", "--c", "0", "--n", "1", "--m", "2"],
        ["coupled", "build", "--a", "1", "--b", "1", "--c", "0", "--depth", "1", "--res", "3"],
    ]
    rejected = [
        ["puzzle", "zeta", "--in", str(fullshift_file), "--level", "x", "--cert", "1"],
        ["graph", "hinf", "--spec", str(k3_spec)],
        ["graph", "nope"],
        ["coupled"],
    ]
    shared = cli.build_parser()
    for argv in valid:
        assert vars(shared.parse_args(argv)) == vars(cli.build_parser.__wrapped__().parse_args(argv))
    outputs = [run(capsys, argv) for argv in valid + rejected]
    assert [status for status, _, _ in outputs] == [0] * len(valid) + [2] * len(rejected)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [run(capsys, argv) for argv in valid + rejected] == outputs
    monkeypatch.undo()
    status, out, _ = run(capsys, ["--help"])
    assert status == 0 and out.startswith("usage: qfpuzzles")
    assert cli.build_parser() is shared and cli.build_parser.cache_info().misses == 1
