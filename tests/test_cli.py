"""Command-line interface: every subcommand in both text and JSON form,
exit codes, byte-stable JSON output, file round trips."""

import argparse
import copy
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plumbcalc.cli as cli
import plumbcalc.divisor as divisor
from plumbcalc.cli import main
from plumbcalc.family import build_boundary_graph
from plumbcalc.graphs import (
    DomainError,
    Edge,
    OutOfScopeError,
    Vertex,
    WeightedGraph,
    canonical_encoding,
    canonical_json,
    graphs_isomorphic,
)
from plumbcalc.invariants import dihedral_group, group_catalog
from plumbcalc.plumbing import from_divisor_graph


def run(capsys, *argv):
    """Invoke main() in-process; argparse SystemExit is folded into the code."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def capture(argv) -> tuple:
    """Exit code, stdout and stderr of main(argv) in this process, for
    the frozen pins; argparse's SystemExit is folded into the code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, stdout.getvalue(), stderr.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def family_file(tmp_path, capsys):
    path = tmp_path / "fam23.json"
    code, out, err = run(capsys, "construct", "--d1", "2", "--d2", "3",
                         "--json")
    assert code == 0, err
    path.write_text(out)
    return str(path)


@pytest.fixture
def dpart_file(tmp_path, capsys):
    path = tmp_path / "dpart23.json"
    code, out, err = run(capsys, "construct", "--d1", "2", "--d2", "3",
                         "--d-part", "--json")
    assert code == 0, err
    path.write_text(out)
    return str(path)


# -- construct ------------------------------------------------------------------


def test_construct_text_summary(capsys):
    code, out, _ = run(capsys, "construct", "--d1", "1", "--d2", "1")
    assert code == 0
    assert "kind divisor" in out
    assert "6 vertices" in out


def test_construct_json_is_byte_stable(capsys):
    a = run(capsys, "construct", "--d1", "2", "--d2", "2", "--json")
    b = run(capsys, "construct", "--d1", "2", "--d2", "2", "--json")
    assert a == b
    assert a[0] == 0


def test_construct_round_trips_through_file(capsys, family_file):
    data = json.load(open(family_file))
    g = WeightedGraph.from_json_dict(data)
    direct = build_boundary_graph(2, 3).graph
    assert g == direct


def test_construct_by_blowups_matches_direct(capsys):
    a = run_json(capsys, "construct", "--d1", "2", "--d2", "2")
    b = run_json(capsys, "construct", "--d1", "2", "--d2", "2",
                 "--by-blowups")
    ga = WeightedGraph.from_json_dict(a)
    gb = WeightedGraph.from_json_dict(b)
    assert graphs_isomorphic(ga, gb)[0]


def test_construct_polynomial_flags(capsys):
    d = run_json(capsys, "construct", "--d1", "2", "--d2", "1",
                 "--by-blowups", "--p1", "0,1", "--p2", "1")
    assert WeightedGraph.from_json_dict(d).kind == "divisor"
    code, _, err = run(capsys, "construct", "--d1", "2", "--d2", "1",
                       "--by-blowups", "--p1", "1")  # degree mismatch
    assert code == 2
    assert "usage error" in err
    code, _, err = run(capsys, "construct", "--d1", "2", "--d2", "1",
                       "--p1", "0,1")  # --p1 needs --by-blowups
    assert code == 2


# -- standardize / minimalize / flow ------------------------------------------------


def test_standardize_dpart_is_a_no_op(capsys, dpart_file):
    d = run_json(capsys, "standardize", dpart_file)
    g = WeightedGraph.from_json_dict(d)
    assert g == build_boundary_graph(2, 3).d_part()


def test_standardize_full_graph_contracts_tails(capsys, family_file, tmp_path):
    log = tmp_path / "std.json"
    code, out, _ = run(capsys, "standardize", family_file,
                       "--log-out", str(log))
    assert code == 0
    assert "moves applied:" in out
    assert json.load(open(log))  # nonempty move log


def test_minimalize_reports_zero_moves_on_minimal_input(capsys, dpart_file):
    code, out, _ = run(capsys, "minimalize", dpart_file)
    assert code == 0
    assert "moves applied: 0" in out


@pytest.mark.parametrize("argv", [
    ("standardize", "{g}"), ("minimalize", "{g}"),
    ("flow", "{g}", "--vertex", "L1_inf", "--toward", "L2_0"),
])
def test_unwritable_log_out_is_a_usage_error(capsys, dpart_file, tmp_path, argv):
    code, out, err = run(capsys, *(a.format(g=dpart_file) for a in argv),
                         "--log-out", str(tmp_path), "--json")
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: cannot write {tmp_path}: ")
    assert "Traceback" not in err


def test_flow_and_replay_round_trip(capsys, tmp_path):
    from plumbcalc.graphs import Vertex, Edge

    src = tmp_path / "chain.json"
    g = WeightedGraph(
        "divisor",
        [Vertex("v0", -3), Vertex("v1", 0), Vertex("v2", -5)],
        [Edge("v0", "v1"), Edge("v1", "v2")],
    )
    src.write_text(json.dumps(g.to_json_dict()))
    log = tmp_path / "flow.json"
    d = run_json(capsys, "flow", str(src), "--vertex", "v1",
                 "--toward", "v2", "--log-out", str(log))
    moved = WeightedGraph.from_json_dict(d)
    assert {v["id"]: v["weight"] for v in d["vertices"]} != {}
    weights = sorted(x.weight for x in moved.vertices.values())
    assert weights == [-4, -4, 0]
    # replaying the recorded log on the source reproduces the output
    out2 = run_json(capsys, "replay", str(src), str(log))
    assert WeightedGraph.from_json_dict(out2) == moved


@pytest.mark.parametrize("entry, message", [
    ({"move": "blowdown"}, "'vertex' must be a vertex id string"),
    ({"move": "R1"}, "'vertex' must be a vertex id string"),
    ({"move": "flow", "vertex": "L1_0"}, "'toward' must be a vertex id string"),
    ({"move": "blowup", "center": {"edge": ["L1_0"]}},
     "blowup edge must be two vertex ids"),
    ({"move": "blowup", "center": {"edge": ["L1_0", 5]}},
     "blowup edge must be two vertex ids"),
    ({"move": "R3", "vertex": ["x"]}, "'vertex' must be a vertex id string"),
    ({"move": "blowup", "center": 5}, "malformed blowup center 5"),
    ({"move": "blowdown", "vertex": ["x"]}, "'vertex' must be a vertex id string"),
    ({"move": "blowup", "center": {"vertex": "L1_0"}, "new_id": 7},
     "new_id must be a string"),
    ({"move": "blowup", "center": {"vertex": "L1_0"}, "new_id": ""},
     "new_id must not be empty"),
])
def test_replay_rejects_malformed_entries(capsys, family_file, tmp_path, entry,
                                          message):
    log = tmp_path / "log.json"
    log.write_text(json.dumps([entry]))
    code, out, err = run(capsys, "replay", family_file, str(log), "--json")
    assert (code, out) == (1, "")
    assert err.startswith("error: replay: ") and message in err


@pytest.mark.parametrize("move", ["R1", "R3"])
def test_replay_names_the_move_whose_vertex_is_missing(capsys, tmp_path, move):
    src = tmp_path / "plumbed.json"
    plumbed = from_divisor_graph(build_boundary_graph(2, 3).d_part())
    src.write_text(json.dumps(plumbed.to_json_dict()))
    log = tmp_path / "log.json"
    log.write_text(json.dumps([{"move": move, "vertex": "x"}]))
    code, out, err = run(capsys, "replay", str(src), str(log))
    assert (code, out) == (1, "")
    assert err == f"error: move_{move}: vertex 'x' not found\n"


def test_replay_of_a_recorded_blowup_log(capsys, family_file, tmp_path):
    """A well-formed log with both blowup centers, a given and a fresh
    new_id, and blowdowns that undo them replays to the input."""
    log = tmp_path / "log.json"
    log.write_text(json.dumps([
        {"move": "blowup", "center": {"vertex": "L1_0"}, "new_id": "X"},
        {"move": "blowup", "center": {"edge": ["X", "L1_0"]}},
        {"move": "blowdown", "vertex": "E1"},
        {"move": "blowdown", "vertex": "X"},
    ]))
    assert run_json(capsys, "replay", family_file, str(log)) == json.load(
        open(family_file))


LOG_IDS = st.sampled_from(["L1_0", "L2_0", "L1_inf", "L2_inf", "T1_01", "A1",
                           "X", ""])
LOG_JUNK = (st.none() | st.booleans() | st.integers(-2, 2)
            | st.lists(LOG_IDS, max_size=3))


@st.composite
def log_values(draw):
    """Mostly a vertex id of the (2,3) boundary, sometimes any JSON value."""
    return draw(LOG_IDS if draw(st.integers(0, 3)) else LOG_JUNK)


@st.composite
def log_entries(draw):
    """A move-log entry: mostly a known move with each field present or
    missing, well typed or not; sometimes any JSON value."""
    if not draw(st.integers(0, 7)):
        return draw(log_values())
    moves = st.sampled_from(["blowup", "blowdown", "flow", "R1", "R3"])
    entry = {"move": draw(moves if draw(st.integers(0, 7)) else log_values())}
    for key in ("vertex", "toward", "new_id"):
        if draw(st.booleans()):
            entry[key] = draw(log_values())
    shape = draw(st.integers(0, 3))
    if shape == 1:
        entry["center"] = {"vertex": draw(log_values())}
    elif shape == 2:
        size = draw(st.sampled_from([2, 2, 1, 3]))
        ends = [draw(log_values()) for _ in range(size)]
        entry["center"] = {"edge": ends if draw(st.integers(0, 3)) else draw(LOG_JUNK)}
    elif shape == 3:
        entry["center"] = draw(log_values())
    return entry


@settings(max_examples=150, deadline=None)
@given(st.lists(log_entries(), max_size=4) | log_values(), st.booleans())
def test_replay_never_raises(log, plumbed):
    """Any JSON log on the (2,3) boundary, or its plumbing graph, ends in a
    documented exit code, never a traceback."""
    g = build_boundary_graph(2, 3).graph
    if plumbed:
        g = from_divisor_graph(g)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "g.json", Path(tmp) / "log.json"]
        paths[0].write_text(json.dumps(g.to_json_dict()))
        paths[1].write_text(json.dumps(log))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["replay", *map(str, paths), "--json"])
    assert code in (0, 1, 2, 3)


def test_bark_fractions(capsys, tmp_path):
    from plumbcalc.graphs import Vertex, Edge

    g = WeightedGraph(
        "divisor",
        [Vertex("t0", -3), Vertex("t1", -2)],
        [Edge("t0", "t1")],
    )
    src = tmp_path / "twig.json"
    src.write_text(json.dumps(g.to_json_dict()))
    d = run_json(capsys, "bark", str(src), "--twig", "t0,t1")
    assert d == {"t0": "2/5", "t1": "1/5"}


# -- normalize / reverse / compare / jsj --------------------------------------------


def test_normalize_json_shape(capsys, dpart_file):
    d = run_json(capsys, "normalize", dpart_file)
    assert set(d) == {"graph", "ordering", "certificate", "seifert", "log"}
    assert d["certificate"] == "generic"
    assert [m["move"] for m in d["log"]] == ["R3"]


def test_normalize_text_certificate_line(capsys, dpart_file):
    code, out, _ = run(capsys, "normalize", dpart_file)
    assert code == 0
    assert "certificate: generic" in out


def test_reverse_then_compare_not_isomorphic(capsys, dpart_file, tmp_path):
    norm = tmp_path / "norm.json"
    rev = tmp_path / "rev.json"
    dn = run_json(capsys, "normalize", dpart_file)
    norm.write_text(json.dumps(dn["graph"]))
    dr = run_json(capsys, "reverse", dpart_file)
    rev.write_text(json.dumps(dr["graph"]))
    cmp_ = run_json(capsys, "compare", str(norm), str(rev))
    assert cmp_["isomorphic"] is False
    code, out, _ = run(capsys, "compare", str(norm), str(rev))
    assert code == 0
    assert "not isomorphic" in out
    same = run_json(capsys, "compare", str(norm), str(norm))
    assert same["isomorphic"] is True
    assert same["mapping"]


def test_compare_past_the_recursion_limit_is_out_of_scope(capsys, tmp_path):
    """The canonical search recurses once per individualized vertex, and
    isolated vertices of one weight are individualized one at a time.  A
    graph that needs more levels than the recursion limit allows is out
    of scope: the library raises OutOfScopeError and the CLI exits 3, with
    no traceback.  The limit is lowered so that 300 vertices reach it."""
    g = WeightedGraph("plumbing", [Vertex(f"v{i:03}", -2) for i in range(300)], [])
    path = tmp_path / "g.json"
    path.write_text(canonical_json(g.to_json_dict()))
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        with pytest.raises(OutOfScopeError) as err:
            canonical_encoding(g)
        code, out, stderr = run(capsys, "compare", str(path), str(path))
    finally:
        sys.setrecursionlimit(limit)
    message = ("canonical labelling of a graph on 300 vertices needs a deeper "
               "search than the recursion limit allows")
    assert str(err.value) == message
    assert (code, out, stderr) == (3, "", f"out of scope: {message}\n")


def test_jsj_lists_seifert_pieces(capsys, dpart_file):
    d = run_json(capsys, "jsj", dpart_file)
    assert isinstance(d, list) and len(d) == 2
    assert {p["exceptional"][0] for p in d} == {"1/2", "1/3"}


# -- invariant subcommands -------------------------------------------------------


def test_h1_accepts_divisor_input(capsys, dpart_file):
    d = run_json(capsys, "h1", dpart_file)
    assert d == {"rank": 1, "torsion": [], "display": "Z"}
    code, out, _ = run(capsys, "h1", dpart_file)
    assert "H1 = Z" in out


def test_pi1_with_quotient_counts(capsys):
    d = run_json(capsys, "pi1", "--d1", "1", "--d2", "1",
                 "--quotients", "6")
    assert d["generators"] == ["delta1", "delta2", "lambda"]
    assert len(d["relators"]) == 3
    assert d["abelianization"] == {"rank": 1, "torsion": []}
    assert d["quotients"]["S3"] == 12
    assert d["quotients"]["C6"] == 6


@pytest.mark.parametrize("order", ["0", "-3"])
def test_pi1_quotients_below_one_is_a_usage_error(capsys, order):
    code, out, err = run(capsys, "pi1", "--d1", "1", "--d2", "1",
                         "--quotients", order, "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "--quotients" in err


def test_pi1_with_group_table_file(capsys, tmp_path):
    from plumbcalc.invariants import dihedral_group

    gf = tmp_path / "s3.json"
    gf.write_text(json.dumps(dihedral_group(3).to_json_dict()))
    d = run_json(capsys, "pi1", "--d1", "1", "--d2", "1",
                 "--group", str(gf))
    assert d["quotients"]["S3"] == 12


def test_pi1_group_named_like_a_selected_catalog_group_is_a_usage_error(capsys,
                                                                       tmp_path):
    """A table must not overwrite the count of a catalogue group that
    --quotients selects: a C2 table named A4 would print A4: 2."""
    from plumbcalc.invariants import cyclic_group

    gf = tmp_path / "a4.json"
    gf.write_text(json.dumps({**cyclic_group(2).to_json_dict(), "name": "A4"}))
    code, out, err = run(capsys, "pi1", "--d1", "1", "--d2", "1",
                         "--quotients", "12", "--group", str(gf), "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "'A4'" in err and "--quotients 12" in err
    d = run_json(capsys, "pi1", "--d1", "1", "--d2", "1", "--group", str(gf))
    assert d["quotients"] == {"A4": 2}
    d = run_json(capsys, "pi1", "--d1", "1", "--d2", "1",
                 "--quotients", "6", "--group", str(gf))
    assert d["quotients"]["A4"] == 2 and "C6" in d["quotients"]


@pytest.mark.parametrize("d1, d2, homs",
                         [(1, 1, 36), (1, 2, 12), (2, 3, 12), (3, 3, 36)])
def test_pi1_with_a_relabelled_a4_table_gives_the_catalog_counts(capsys, tmp_path,
                                                                 d1, d2, homs):
    """A user table enters the hom count's per-table orbit cache on its own
    labels; renaming A4's elements (identity kept at 0) changes no count."""
    a4 = group_catalog()["A4"]
    sigma = (0,) + tuple(range(11, 0, -1))
    table = [[0] * 12 for _ in range(12)]
    for a in range(12):
        for b in range(12):
            table[sigma[a]][sigma[b]] = sigma[a4.table[a][b]]
    assert table != [list(row) for row in a4.table]
    gf = tmp_path / "a4.json"
    gf.write_text(json.dumps({"order": 12, "table": table, "name": "A4relabelled"}))
    d = run_json(capsys, "pi1", "--d1", str(d1), "--d2", str(d2),
                 "--quotients", "12", "--group", str(gf))
    assert d["quotients"]["A4relabelled"] == d["quotients"]["A4"] == homs


def test_alexander_output(capsys):
    d = run_json(capsys, "alexander", "--d1", "2", "--d2", "2")
    assert d["coefficients"] == {"-1": 4, "0": -7, "1": 4}
    assert d["determinant"] == 15
    assert d["two_bridge"] == [15, 4]
    code, out, _ = run(capsys, "alexander", "--d1", "2", "--d2", "2")
    assert "4*t^-1 - 7 + 4*t" in out


def test_homology_output(capsys):
    d = run_json(capsys, "homology", "--d1", "3", "--d2", "4")
    assert d["counts"] == [1, 2, 3, 0]
    assert d["chi"] == 2
    assert (d["H0"], d["H1"], d["H2"]) == ("Z", "0", "Z")
    assert d["framings"] == [["h", 0], ["a1", -3], ["a2", -4]]


def test_picard_output(capsys):
    d = run_json(capsys, "picard", "--d1", "2", "--d2", "2")
    assert d["unimodular"] is True
    assert d["det"] == -1
    assert d["relations_verified"] is True


def test_verify_chart_output(capsys):
    d = run_json(capsys, "verify-chart", "--case", "aa",
                 "--p1", "0,1", "--p2", "0,0,1")
    assert d["chart"]["residuals_zero"] is True
    assert d["chart"]["inverse_ok"] is True
    assert d["volume"]["sign"] == 1
    d = run_json(capsys, "verify-chart", "--case", "al2",
                 "--p1", "1", "--p2", "0,3,1")
    assert d["volume"]["sign"] == -1


def test_verify_chart_unit_precondition(capsys):
    code, _, err = run(capsys, "verify-chart", "--case", "al1",
                       "--p1", "0,1", "--p2", "0,3,1")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("construct", "--d1", "2", "--d2", "3", "--by-blowups", "--p2", "0,0,1"),
    ("verify-chart", "--case", "aa", "--p2", "0,0,1"),
])
def test_negative_leading_coefficient_is_attached_to_its_flag(capsys, argv):
    """argparse reads -1/2,1 after a space as an option, so the help and
    README give the attached form --p1=-1/2,1; the spaced form is a usage
    error, not a traceback."""
    code, _, err = run(capsys, *argv, "--p1=-1/2,1")
    assert code == 0, err
    code, out, err = run(capsys, *argv, "--p1", "-1/2,1")
    assert code == 2 and out == ""
    assert "argument --p1: expected one argument" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("construct", "--d1", "2", "--d2", "1", "--by-blowups"),
    ("verify-chart", "--case", "aa", "--p2", "1"),
])
@pytest.mark.parametrize("p1, message", [
    ("1,,1", "empty coefficient in '1,,1'"),
    ("x", "bad coefficient 'x': Invalid literal for Fraction: 'x'"),
    ("1/0", "bad coefficient '1/0': Fraction(1, 0)"),
])
def test_malformed_coefficient_list_is_a_usage_error(capsys, argv, p1, message):
    code, out, err = run(capsys, *argv, f"--p1={p1}", "--json")
    assert (code, out, err) == (2, "", f"usage error: --p1: {message}\n")


LAURENT_PINS = Path(__file__).parent / "data" / "laurent_cli_pins.json"
CHART_ARGS = (
    ("aa", "1", "1"), ("aa", "0,1", "0,0,1"), ("aa", "1/2,1", "-3,2/3,1"),
    ("aa", "-1/3,0,2,1", "1/2,1"), ("aa", "5,-7/4,0,1", "0,0,0,0,1"),
    ("al1", "1", "1"), ("al1", "1/2,1", "1"), ("al1", "3,-2/5,1", "1"),
    ("al1", "0,1", "0,3,1"),
    ("al2", "1", "1"), ("al2", "1", "-1/2,1"), ("al2", "1", "0,3,1"),
    ("al2", "2,1", "1,1"),
    ("lc1", "1", "1"), ("lc1", "1", "0,1"),
    ("lc2", "1", "1"), ("lc2", "1/2,1", "1"),
    ("aa", "1,2", "1"),
)


def laurent_cli_pins() -> dict:
    """Exit code, stdout and stderr of `alexander --json` for every
    d1, d2 <= 6 and of `verify-chart --json` on CHART_ARGS, which cover
    all five cases, Fraction coefficients and failed preconditions.

    Regenerate the frozen file only on purpose:
    ``PYTHONPATH=src:tests python -c "import test_cli as t;
    t.LAURENT_PINS.write_text(t.canonical_json(t.laurent_cli_pins()))"``
    """
    argvs = [("alexander", "--d1", str(d1), "--d2", str(d2))
             for d1 in range(1, 7) for d2 in range(1, 7)]
    argvs += [("verify-chart", "--case", case, f"--p1={p1}", f"--p2={p2}")
              for case, p1, p2 in CHART_ARGS]
    out = {}
    for argv in argvs:
        code, stdout, stderr = capture([*argv, "--json"])
        out[" ".join(argv)] = {"code": code, "stdout": stdout,
                               "stderr": stderr}
    return out


def test_alexander_and_verify_chart_match_frozen_pins():
    assert laurent_cli_pins() == json.loads(LAURENT_PINS.read_text())


CLI_PINS = Path(__file__).parent / "data" / "cli_pins.json"
D_FLAGS = ("--d1", "{d1}", "--d2", "{d2}")
PIN_ARGVS = (
    ("construct", *D_FLAGS),
    ("construct", *D_FLAGS, "--d-part"),
    ("construct", *D_FLAGS, "--by-blowups"),
    ("standardize", "{full}", "--log-out", "{log}"),
    ("minimalize", "{full}"),
    ("flow", "{part}", "--vertex", "L1_inf", "--toward", "L2_0", "--log-out",
     "{flow_log}"),
    ("bark", "{part}", "--twig", "{twig}"),
    ("normalize", "{part}"),
    ("reverse", "{part}"),
    ("compare", "{part}", "{part}"),
    ("compare", "{part}", "{full}"),
    ("jsj", "{part}"),
    ("h1", "{part}"),
    ("pi1", *D_FLAGS, "--quotients", "6"),
    ("pi1", *D_FLAGS, "--group", "{group}"),
    ("alexander", *D_FLAGS),
    ("homology", *D_FLAGS),
    ("picard", *D_FLAGS),
    *(("verify-chart", "--case", case, "--p1={p1}", "--p2={p2}")
      for case in ("aa", "al1", "al2", "lc1", "lc2")),
    ("replay", "{full}", "{log}"),
    ("replay", "{full}", "{flow_log}"),
    ("normalize", "{missing}"),
    ("normalize", "{group}"),
    ("normalize", "{notjson}"),
    ("pi1", *D_FLAGS, "--quotients", "0"),
)


def cli_pins(tmp: Path) -> dict:
    """Exit code and sha256 of stdout of every subcommand on the pairs
    (1,1) and (2,3), in text form and with --json (`dot` in text form
    only), plus the sha256 of each move log written by --log-out.  Graph
    files are made by `construct` under tmp; the keys name them by role,
    so no pin holds a path.

    Regenerate the frozen file only on purpose:
    ``PYTHONPATH=src:tests python -c "import tempfile, pathlib, test_cli as t;
    t.CLI_PINS.write_text(t.canonical_json(t.cli_pins(pathlib.Path(
    tempfile.mkdtemp()))))"``
    """
    group = tmp / "group.json"
    group.write_text(json.dumps(dihedral_group(3).to_json_dict()))
    notjson = tmp / "notjson.json"
    notjson.write_text("{")
    out = {}
    for d1, d2 in ((1, 1), (2, 3)):
        files = {role: tmp / f"{role}_{d1}_{d2}.json"
                 for role in ("full", "part", "log", "flow_log")}
        for role, extra in (("full", []), ("part", ["--d-part"])):
            files[role].write_text(capture(["construct", "--d1", str(d1),
                                            "--d2", str(d2), "--json",
                                            *extra])[1])
        fields = {
            "d1": d1, "d2": d2, "group": group, "notjson": notjson,
            "missing": tmp / "missing.json",
            "twig": ",".join(f"T2_{i:02d}" for i in range(d2 - 1, 0, -1)),
            "p1": ",".join(["0"] * (d1 - 1) + ["1"]),
            "p2": ",".join(["0"] * (d2 - 1) + ["1"]),
            **files,
        }
        argvs = [(argv, json_flag) for argv in PIN_ARGVS
                 for json_flag in ((), ("--json",))]
        argvs.append((("dot", "{part}"), ()))
        for argv, json_flag in argvs:
            key = f"{d1},{d2}: " + " ".join(argv + json_flag)
            code, stdout, _ = capture([a.format(**fields)
                                       for a in argv + json_flag])
            out[key] = {"code": code, "stdout_sha256": sha256(stdout)}
            for role in ("log", "flow_log"):
                if "{%s}" % role in argv and argv[0] != "replay":
                    out[f"{key} [{role}]"] = sha256(files[role].read_text())
    return out


def test_every_subcommand_matches_frozen_pins(tmp_path):
    assert cli_pins(tmp_path) == json.loads(CLI_PINS.read_text())


USAGE_PINS = Path(__file__).parent / "data" / "cli_usage_pins.json"
SUBCOMMANDS = (
    "construct", "standardize", "minimalize", "flow", "bark", "normalize",
    "reverse", "compare", "jsj", "h1", "pi1", "alexander", "homology",
    "picard", "verify-chart", "dot", "replay",
)
USAGE_ARGVS = (
    ("--help",),
    *((sub, "--help") for sub in SUBCOMMANDS),
    (),
    ("frobnicate",),
    ("construct", "--d2", "3"),
    ("construct", "--d1", "x", "--d2", "3"),
)


def usage_pins() -> dict:
    """Exit code, stdout and stderr of argparse's own output at 80
    columns: the top-level and every subcommand's --help, and the usage
    errors for no arguments, an unknown subcommand, a missing --d1 and a
    non-integer --d1.

    Regenerate the frozen file only on purpose:
    ``COLUMNS=80 PYTHONPATH=src:tests python -c "import test_cli as t;
    t.USAGE_PINS.write_text(t.canonical_json(t.usage_pins()))"``
    """
    out = {}
    for argv in USAGE_ARGVS:
        code, stdout, stderr = capture(argv)
        out[" ".join(argv) or "(no arguments)"] = {
            "code": code, "stdout": stdout, "stderr": stderr}
    return out


def test_argparse_output_matches_frozen_pins(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert usage_pins() == json.loads(USAGE_PINS.read_text())


ERROR_ORDER_PINS = Path(__file__).parent / "data" / "constructor_error_order.json"
# (kind, vertex ids, edges): graphs with two or more faults each
ERROR_ORDER_GRAPHS = {
    "divisor loop, then multi-edge": (
        "divisor", "abc", [("a", "a", 1), ("b", "c", 1), ("b", "c", 1)]),
    "divisor multi-edge, then loop": (
        "divisor", "abc", [("a", "b", 1), ("a", "b", 1), ("c", "c", 1)]),
    "divisor missing end, then -1 sign": (
        "divisor", "abc", [("a", "z", 1), ("b", "c", -1)]),
    "divisor -1 sign, then missing end": (
        "divisor", "abc", [("a", "b", -1), ("c", "z", 1)]),
    "divisor missing end with a -1 sign": ("divisor", "ab", [("a", "z", -1)]),
    "divisor -1 copy of a +1 edge": ("divisor", "ab", [("a", "b", 1), ("a", "b", -1)]),
    "plumbing two missing ends": ("plumbing", "ab", [("a", "x", -1), ("b", "y", 1)]),
    "duplicate id, then missing end": ("plumbing", "aab", [("a", "z", 1)]),
    "duplicate id, then divisor loop": ("divisor", "abb", [("a", "a", 1), ("a", "b", -1)]),
}


def error_order_pins(tmp: Path) -> dict:
    """For each graph of ERROR_ORDER_GRAPHS, with its edges as given and
    reversed: the graph JSON, the error `WeightedGraph(...)` raises, and
    the exit code and stderr of `normalize FILE` on it.  The first fault
    in the constructor's check order is the one reported.

    Regenerate the frozen file only on purpose:
    ``PYTHONPATH=src:tests python -c "import tempfile, pathlib, test_cli as t;
    t.ERROR_ORDER_PINS.write_text(t.canonical_json(t.error_order_pins(pathlib.Path(
    tempfile.mkdtemp()))))"``
    """
    out = {}
    for name, (kind, ids, edges) in ERROR_ORDER_GRAPHS.items():
        for order, es in ("", edges), (", edges reversed", edges[::-1]):
            data = {"kind": kind, "vertices": [{"id": x, "weight": -2} for x in ids],
                    "edges": [{"u": u, "v": v, "sign": s} for u, v, s in es]}
            try:
                WeightedGraph(kind, [Vertex(x, -2) for x in ids], [Edge(*e) for e in es])
            except DomainError as e:
                message = f"DomainError: {e}"
            path = tmp / "graph.json"
            path.write_text(json.dumps(data))
            code, stdout, stderr = capture(["normalize", str(path)])
            assert stdout == ""
            out[name + order] = {"graph": data, "constructor": message,
                                 "normalize": {"code": code, "stderr": stderr}}
    return out


def test_constructor_reports_the_first_fault_as_frozen(tmp_path):
    assert error_order_pins(tmp_path) == json.loads(ERROR_ORDER_PINS.read_text())


def fresh_process(argv) -> tuple:
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-m", "plumbcalc.cli", *argv],
                         env=env, capture_output=True, text=True, timeout=60)
    return out.returncode, out.stdout, out.stderr


def test_one_parser_serves_every_call_of_a_process(monkeypatch):
    """The first main call builds the parser and later calls reuse it: a
    usage error, --help and two --json runs in a row print what a fresh
    process or the frozen pins print, and construct no ArgumentParser."""
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda p, *a, **k: built.append(p) or init(p, *a, **k))
    cli._build_parser.cache_clear()
    missing_d1 = ("construct", "--d2", "3")
    assert capture(missing_d1) == fresh_process(missing_d1)
    assert built  # the first call builds the parser
    built.clear()
    assert capture(("--help",)) == fresh_process(("--help",))
    pins = json.loads(CLI_PINS.read_text())
    for argv in ("construct --d1 {d1} --d2 {d2} --json",
                 "pi1 --d1 {d1} --d2 {d2} --quotients 6 --json"):
        code, stdout, _ = capture(argv.format(d1=2, d2=3).split())
        assert pins[f"2,3: {argv}"] == {"code": code,
                                        "stdout_sha256": sha256(stdout)}
    assert built == []


# -- dot / errors ------------------------------------------------------------------


def test_dot_prints_graphviz_source(capsys, dpart_file):
    code, out, err = run(capsys, "dot", dpart_file)
    assert code == 0, err
    assert out.startswith("graph") and "L1_0" in out


def test_text_output_shows_genus_and_boundary(capsys, tmp_path):
    """`minimalize` prints a vertex's genus and boundary count, and `dot`
    labels them g= and r=."""
    g = WeightedGraph("divisor", [Vertex("a", -2, genus=1), Vertex("b", -3, boundary=2),
                                  Vertex("c", -1)], [Edge("a", "c"), Edge("b", "c")])
    path = tmp_path / "g.json"
    path.write_text(canonical_json(g.to_json_dict()))
    code, out, err = run(capsys, "minimalize", str(path))
    assert code == 0, err
    assert "  a: weight -1, genus 1\n  b: weight -2, boundary 2\n" in out
    code, out, err = run(capsys, "dot", str(path))
    assert code == 0, err
    assert '"a" [label="a\\n-2 g=1"];' in out and '"b" [label="b\\n-3 r=2"];' in out


def test_missing_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "normalize", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in err


def test_out_of_scope_exit_code(capsys, tmp_path):
    from plumbcalc.graphs import Vertex, Edge

    g = WeightedGraph("plumbing", [Vertex("x", 1)], [Edge("x", "x", 1)])
    src = tmp_path / "pos_loop.json"
    src.write_text(json.dumps(g.to_json_dict()))
    code, _, err = run(capsys, "normalize", str(src))
    assert code == 3
    assert "out of scope" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "alexander", "--d1", "0", "--d2", "2")
    assert code == 1
    assert err.startswith("error:")


def test_mistyped_graph_field_is_a_domain_error(capsys, tmp_path):
    src = tmp_path / "bad_genus.json"
    src.write_text(json.dumps({
        "kind": "plumbing",
        "vertices": [{"id": "x", "weight": -2, "genus": "x"}],
        "edges": [],
    }))
    code, _, err = run(capsys, "normalize", str(src))
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("table", [
    {"order": "2", "table": [[0, 1], [1, 0]]},
    {"order": 2, "table": [[0, 1], 5]},
    {"order": 2, "table": [[0, True], [1, 0]]},
    {"order": True, "table": [[0]]},
    {"order": 1, "table": [[0]], "name": 7},
    [1, "a"],
])
def test_mistyped_group_table_is_a_domain_error(capsys, tmp_path, table):
    src = tmp_path / "group.json"
    src.write_text(json.dumps(table))
    code, _, err = run(capsys, "pi1", "--d1", "1", "--d2", "2", "--group", str(src))
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["compare", "{bad}", "{bad}"],
    ["pi1", "--d1", "1", "--d2", "2", "--group", "{bad}"],
])
def test_non_utf8_input_is_a_domain_error(capsys, tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, *(a.format(bad=bad) for a in argv))
    assert code == 1
    assert err.startswith("error:") and "UTF-8" in err


def test_argparse_rejects_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


@st.composite
def graph_files(draw):
    """JSON of a graph with at most 6 vertices: a plumbing graph with
    loops and signed parallel edges, or a divisor graph."""
    ids = [f"v{i}" for i in range(draw(st.integers(0, 6)))]
    deco = st.sampled_from([0, 0, 0, 1])
    vertices = [{"id": x, "weight": draw(st.integers(-4, 2)),
                 "genus": draw(deco), "boundary": draw(deco)} for x in ids]
    if draw(st.booleans()):
        pairs = list(itertools.combinations(ids, 2))
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                               max_size=8)) if pairs else []
        return {"kind": "divisor", "vertices": vertices,
                "edges": [{"u": u, "v": v, "sign": 1} for u, v in chosen]}
    edges = draw(st.lists(st.fixed_dictionaries({
        "u": st.sampled_from(ids), "v": st.sampled_from(ids),
        "sign": st.sampled_from([1, -1])}), max_size=8)) if ids else []
    return {"kind": "plumbing", "vertices": vertices, "edges": edges}


@settings(max_examples=100, deadline=None)
@given(graph_files(), graph_files(),
       st.sampled_from(["normalize", "h1", "jsj", "reverse", "compare"]))
def test_graph_commands_never_raise(a, b, sub):
    """Any small graph ends in a documented exit code, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in enumerate((a, b)):
            paths.append(Path(tmp) / f"g{i}.json")
            paths[-1].write_text(json.dumps(data))
        argv = [sub, str(paths[0])] + ([str(paths[1])] if sub == "compare" else [])
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv + ["--json"])
    assert code in (0, 1, 2, 3)


JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(-2, 2)
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=5,
)
FIELD_NAMES = st.sampled_from(["id", "weight", "genus", "boundary", "label",
                               "u", "v", "sign", "kind", "vertices", "edges",
                               "order", "table", "name", "x"])


def _slots(doc) -> list:
    """(container, key) for every value nested in doc."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)):
            keys = list(node) if isinstance(node, dict) else range(len(node))
            out += [(node, k) for k in keys]
            stack += [node[k] for k in keys]
    return out


@st.composite
def mutated(draw, doc):
    """doc after one to three edits at random places, or sometimes replaced
    by any JSON value (a non-object).  An edit replaces a value by any
    JSON value (a wrong type) or by a small integer (an out-of-range
    entry or order), drops an object field or list item (a missing field,
    a ragged table), or adds one (an extra field, a duplicate vertex or
    edge, a longer row)."""
    if not draw(st.integers(0, 9)):
        return draw(JSON_JUNK)
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        node, key = draw(st.sampled_from(_slots(doc)))
        edit = draw(st.sampled_from(["junk", "int", "drop", "add"]))
        if edit == "junk":
            node[key] = draw(JSON_JUNK)
        elif edit == "int":
            node[key] = draw(st.integers(-2, 9))
        elif edit == "drop":
            del node[key]
        elif isinstance(node, dict):
            node[draw(FIELD_NAMES)] = draw(JSON_JUNK)
        else:
            node.insert(key, copy.deepcopy(node[key]) if draw(st.booleans())
                        else draw(JSON_JUNK))
        if not _slots(doc):
            break
    return doc


DPART_12 = build_boundary_graph(1, 2).d_part()
VALID_GRAPHS = st.sampled_from([
    DPART_12.to_json_dict(), from_divisor_graph(DPART_12).to_json_dict()])
GRAPH_ARGV = [
    ["standardize", "{g}"], ["minimalize", "{g}"], ["normalize", "{g}"],
    ["reverse", "{g}"], ["h1", "{g}"], ["jsj", "{g}"], ["compare", "{g}", "{g}"],
    ["flow", "{g}", "--vertex", "L1_inf", "--toward", "L2_0"],
    ["bark", "{g}", "--twig", "T2_01"], ["replay", "{g}", "{log}"],
]


def run_quietly(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=150, deadline=None)
@given(VALID_GRAPHS.flatmap(mutated),
       st.sampled_from(GRAPH_ARGV + [["dot", "{g}"]]))
def test_malformed_graph_files_never_raise(data, argv):
    """A divisor or plumbing graph file with wrong types, missing or extra
    fields, or that is not an object ends in a documented exit code, never a traceback.  The
    search budget is lowered so that a well-formed mutant standardizes or
    gives up quickly."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(divisor._SearchCaps, "budget", 300)
        g, log = Path(tmp) / "g.json", Path(tmp) / "log.json"
        g.write_text(json.dumps(data))
        log.write_text("[]")
        argv = [a.format(g=g, log=log) for a in argv]
        code = run_quietly(argv if argv[0] == "dot" else argv + ["--json"])
    assert code in (0, 1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(mutated(dihedral_group(3).to_json_dict()))
def test_malformed_group_tables_never_raise(data):
    """A `pi1 --group` table with wrong types, missing or extra fields, a
    ragged or out-of-range table, or that is not an object ends in a
    documented exit code, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "group.json"
        path.write_text(json.dumps(data))
        code = run_quietly(["pi1", "--d1", "1", "--d2", "2", "--group", str(path),
                            "--json"])
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize("argv", [
    ["normalize", "{f}"],
    ["pi1", "--d1", "1", "--d2", "2", "--group", "{f}", "--json"],
])
def test_deeply_nested_json_is_an_error_not_a_traceback(capsys, tmp_path, argv):
    """A graph file or group table of 200 000 nested arrays overflows the
    JSON reader's recursion; that is an input error, exit 1."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run(capsys, *(a.format(f=path) for a in argv))
    assert code == 1
    assert out == ""
    assert err == f"error: {path} is not valid JSON: nested too deeply\n"


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
def test_two_cycle_of_parallel_edges(capsys, tmp_path, signs):
    """Two vertices joined by two parallel edges and nothing else form a
    2-cycle (b1 = 1): normalize, reverse and h1 exit 0 or 3, and reversal
    keeps H_1."""
    src = tmp_path / "g.json"
    for wa, wc in itertools.product(range(-4, 3), repeat=2):
        src.write_text(json.dumps({
            "kind": "plumbing",
            "vertices": [{"id": "a", "weight": wa}, {"id": "c", "weight": wc}],
            "edges": [{"u": "a", "v": "c", "sign": s} for s in signs],
        }))
        h1 = run_json(capsys, "h1", str(src))
        assert h1["rank"] >= 1  # the cycle of the graph
        for sub in ("normalize", "reverse"):
            code, out, err = run(capsys, sub, str(src), "--json")
            assert code in (0, 3), err
            if code == 0:
                nf = tmp_path / "nf.json"
                nf.write_text(json.dumps(json.loads(out)["graph"]))
                assert run_json(capsys, "h1", str(nf)) == h1


def test_reverse_with_a_double_edge_into_a_loop_carrier(capsys, tmp_path):
    """a meets b by two parallel edges, so it is a bridge from b to b, not
    a twig; dualizing it as a twig changed H_1 under reversal."""
    src = tmp_path / "g.json"
    src.write_text(json.dumps({
        "kind": "plumbing",
        "vertices": [{"id": "a", "weight": -4}, {"id": "b", "weight": -4}],
        "edges": [{"u": "a", "v": "b", "sign": -1},
                  {"u": "a", "v": "b", "sign": -1},
                  {"u": "b", "v": "b", "sign": -1}],
    }))
    code, out, err = run(capsys, "reverse", str(src), "--json")
    assert code in (0, 3), err
    if code == 0:
        h1 = run_json(capsys, "h1", str(src))
        nf = tmp_path / "nf.json"
        nf.write_text(json.dumps(json.loads(out)["graph"]))
        assert run_json(capsys, "h1", str(nf)) == h1
