"""File formats, report plumbing, and the four subcommands end to end."""
import collections
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from conftest import random_connected_graph, record_eigensolves, record_inversions, record_laplacian_factors
from lapsparse import cli, core
from lapsparse.core import ParseError, WeightedGraph, _numpy_openblas, eigvalsh, laplacian
from lapsparse.patch import sparsify_patch
from lapsparse.cli import (
    dumps_report,
    format_float,
    graph_to_json,
    graph_to_text,
    main,
    parse_graph_json,
    parse_graph_text,
    read_graph,
    write_graph,
)


def save_text(tmp_path, name: str, g: WeightedGraph) -> str:
    p = tmp_path / name
    p.write_text(graph_to_text(g))
    return str(p)


# ---------------------------------------------------------------------------
# graph files


def test_text_format_round_trips_exactly():
    rng = np.random.default_rng(71)
    g = random_connected_graph(rng, 14, extra_edges=9, wmin=1e-3, wmax=1e3)
    back = parse_graph_text(graph_to_text(g), "round")
    assert back.n == g.n
    assert back.edges == g.edges


def test_json_format_round_trips_exactly():
    rng = np.random.default_rng(73)
    g = random_connected_graph(rng, 11, extra_edges=5, wmin=1e-6, wmax=1.0)
    back = parse_graph_json(graph_to_json(g), "round")
    assert back.edges == g.edges


def test_text_parser_handles_comments_blanks_and_parallel_edges():
    text = """# a comment
n 4

0 1 1.5
1 0 0.5
# another note
2 3 2.0
"""
    g = parse_graph_text(text, "inline")
    assert g.n == 4
    assert g.edges == ((0, 1, 2.0), (2, 3, 2.0))


def test_text_parser_errors_name_the_line():
    with pytest.raises(ParseError, match=r"missing 'n <count>' header"):
        parse_graph_text("", "bad.txt")
    with pytest.raises(ParseError, match=r"bad\.txt:1"):
        parse_graph_text("m 4\n", "bad.txt")
    with pytest.raises(ParseError, match=r"bad\.txt:2"):
        parse_graph_text("n 4\n0 1\n", "bad.txt")
    with pytest.raises(ParseError, match=r"bad\.txt:2"):
        parse_graph_text("n 4\n0 9 1.0\n", "bad.txt")
    with pytest.raises(ParseError, match=r"bad\.txt:3"):
        parse_graph_text("n 3\n0 1 1.0\n1 2 -1.0\n", "bad.txt")
    with pytest.raises(ParseError, match=r"bad\.txt:2"):
        parse_graph_text("n 3\n0 1 abc\n", "bad.txt")
    # a negative vertex count is the header's fault, not the first edge's
    with pytest.raises(ParseError, match=r"bad\.txt:1: vertex count must be nonnegative"):
        parse_graph_text("n -3\n0 1 1.0\n", "bad.txt")
    # and so is one whose square overflows the int64 edge keys u * n + v
    for n in ("99999999999999999999999", "3037000500"):
        with pytest.raises(ParseError, match=rf"bad\.txt:1: vertex count {n} exceeds 3037000499"):
            parse_graph_text(f"n {n}\n0 1 1.0\n", "bad.txt")


# Texts around the places where np.loadtxt and the line scanner could read a
# file differently: str.splitlines breaks lines at "\x0b", "\x0c", "\x1c", a
# lone "\r" and "\u2028", which loadtxt reads as field whitespace, and int()
# and float() take "_" and non-ASCII digits. Each text is a valid file with
# up to two of its pieces swapped for one of these.
_PARSE_ALPHABET = "0123456789 \n\x0b\x0c\x1c\r\u2028_+-.einfa\u0663#"
_ODD = st.one_of(
    st.sampled_from(["\x0b", "\x0c", "\x1c", "\r", "\u2028", "1_0", "\u0663", "1.0", "1e0", "inf", "nan", "-1", "#"]),
    st.text(alphabet=_PARSE_ALPHABET, min_size=1, max_size=3),
)


@st.composite
def graph_texts(draw):
    pieces = [draw(st.sampled_from(["n 6"] * 4 + ["n 6 # six", "# head\r\nn 6", "n 0", "n 1_0", "m 6"]))]
    pieces.append(draw(st.sampled_from(["\n", "\r\n"])))
    for _ in range(draw(st.integers(0, 6))):
        u, v = draw(st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True))
        weight = draw(st.sampled_from(["0.5", "2", ".5", "5.", "1e0", "+3", "007", "1.25e-3", "1e308"]))
        gaps = [draw(st.sampled_from([" ", " ", "\t", "  ", "\xa0", "\x1f"])) for _ in range(2)]
        comment = draw(st.one_of(st.just(""), st.text(alphabet=_PARSE_ALPHABET, max_size=5).map(" #".__add__)))
        pieces += [str(u), gaps[0], str(v), gaps[1], weight, comment, draw(st.sampled_from(["\n", "\r\n", "\n\n"]))]
    for _ in range(draw(st.integers(0, 2))):
        pieces[draw(st.integers(0, len(pieces) - 1))] = draw(_ODD)
    return "".join(pieces)


def _parsed_or_error(parse, text):
    try:
        g = parse(text, "g.txt")
    except ParseError as exc:
        return "error", str(exc)
    return g.n, g.u.tobytes(), g.v.tobytes(), g.w.tobytes()


def _scanned(text, name):
    """parse_graph_text with its np.loadtxt call failing, so that the line
    scanner reads every line after the header."""
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("scanner only")):
        return parse_graph_text(text, name)


@settings(max_examples=400, deadline=None)
@given(graph_texts())
@example("n 6\n0 1 0.5 # c\r1 2 2\n")
@example("n 6\n0 1 0.5 # c\x0c1 2 2\n")
@example("n 6\n0 1 0.5\u20281 2 2\n")
@example("n 6\n0 1\x0b2\n")
@example("n 6\n0\x1c1 2\n")
@example("n 6\n1.0 2 1\n")
@example("n 6\n0 1 2 3\n")
def test_loadtxt_parse_and_line_scanner_agree(text):
    assert _parsed_or_error(parse_graph_text, text) == _parsed_or_error(_scanned, text)


def test_plain_files_take_the_loadtxt_path_and_odd_ones_the_scanner(monkeypatch):
    scans = []
    scan = cli._scan_edges

    def recording_scan(n, body, start, name):
        scans.append(start)
        return scan(n, body, start, name)

    monkeypatch.setattr(cli, "_scan_edges", recording_scan)
    g = random_connected_graph(np.random.default_rng(5), 30, extra_edges=40, wmin=1e-3, wmax=1e3)
    assert parse_graph_text(graph_to_text(g), "g") == g
    assert parse_graph_text("# note\r\nn 4\r\n0 1 1.5 # c\r\n\r\n1 2 2\r\n", "x") == WeightedGraph(
        4, [(0, 1, 1.5), (1, 2, 2.0)]
    )
    # every line break of str.splitlines ends a line on both paths
    assert parse_graph_text("n 3\r0 1 1\x0b1 2 1\u20282 0 1\n", "x").num_edges == 3
    assert scans == []
    # "_" in numbers, a float id, no edges, an out-of-range vertex
    for odd in ("n 3\n0 1 1_0\n", "n 3\n1.0 2 1\n", "n 3\n", "n 3", "n 3\n# c\n", "n 3\n0 5 1\n"):
        _parsed_or_error(parse_graph_text, odd)
    assert scans == [1, 1, 1, 1, 1, 1]
    assert parse_graph_text("n 3\n0 1 1\x0b1 2 1_0\n", "x").edges == ((0, 1, 1.0), (1, 2, 10.0))


def test_merge_overflow_before_an_out_of_range_line_names_that_line(tmp_path, capsys):
    # the merged weight overflows on line 3, before line 4's bad vertex
    path = tmp_path / "g.txt"
    path.write_text("n 3\n0 1 1e308\n1 0 1e308\n0 5 1.0\n")
    assert main(["verify", str(path), str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:3: parallel edges (0,1) merge to a non-finite weight\n"
    path.write_text("n 3\n0 1 1e308\n1 0 1e308\n")
    assert main(["verify", str(path), str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:3: parallel edges (0,1) merge to a non-finite weight\n"


def test_the_line_scanner_builds_one_graph_and_names_the_line_at_its_edge_position(monkeypatch):
    built = []

    class CountingGraph(WeightedGraph):
        def __init__(self, n, edges):
            built.append(n)
            super().__init__(n, edges)

    monkeypatch.setattr(cli, "WeightedGraph", CountingGraph)
    body = ["0 1 1.0", "# note", "", *(f"{i} {i + 1} 1.0" for i in range(1, 200)), "5 5 1.0", "0 2 1.0"]
    with pytest.raises(ParseError, match=r"^g\.txt:204: self-loop at vertex 5 rejected$"):
        cli._scan_edges(300, body, 1, "g.txt")
    assert built == [300]
    # a degree overflow belongs to no one line
    with pytest.raises(ParseError, match=r"^g\.txt: weighted degree of vertex 1 overflows"):
        cli._scan_edges(3, ["0 1 1e308", "1 2 1e308"], 1, "g.txt")
    assert cli._scan_edges(3, ["0 1 1.0", "", "2 1 0.5"], 1, "g.txt") == WeightedGraph(3, [(0, 1, 1.0), (1, 2, 0.5)])
    assert built == [300, 3, 3]


def test_json_parser_rejects_malformed_documents():
    with pytest.raises(ParseError):
        parse_graph_json("{not json", "x.json")
    with pytest.raises(ParseError):
        parse_graph_json('{"edges": []}', "x.json")
    # a three-character string or a three-key object is no triple either
    for item in ("[0, 1]", "[0, 1, 1.0, 2]", '"012"', '{"u": 0, "v": 1, "w": 1}', "3"):
        with pytest.raises(ParseError, match=r"^x\.json: edges\[1\]: edge .* is not a \(u, v, w\) triple$"):
            parse_graph_json('{"n": 3, "edges": [[1, 2, 1.0], ' + item + "]}", "x.json")
    with pytest.raises(ParseError):
        parse_graph_json('{"n": 3, "edges": [[0, 3, 1.0]]}', "x.json")
    # JSON booleans are not numbers
    for doc in ('{"n": 3, "edges": [[0, 1, true]]}', '{"n": 3, "edges": [[1, 2, 1.0], [false, 1, 1.0]]}'):
        with pytest.raises(ParseError, match=r"edges\[\d\]: edge \(.*\) needs integer vertex ids and a real weight"):
            parse_graph_json(doc, "x.json")
    with pytest.raises(ParseError, match="vertex count must be an integer"):
        parse_graph_json('{"n": true, "edges": []}', "x.json")
    # the first bad edge in input order is named by its index
    with pytest.raises(ParseError, match=r"^x\.json: edges\[1\]: edge \(2,2\) out of range for n=2$"):
        parse_graph_json('{"n": 2, "edges": [[0, 1, 1], [2, 2, 1], [0, 1, "x"]]}', "x.json")
    # an integer weight too large for a float
    with pytest.raises(ParseError, match=r"edges\[1\]: edge \(0,1\) needs a positive finite weight, got an integer"):
        parse_graph_json('{"n": 2, "edges": [[0, 1, 2], [0, 1, ' + "9" * 400 + ']]}', "x.json")
    # an integer past Python's 4300-digit string limit is no JSON number
    with pytest.raises(ParseError, match=r"x\.json: invalid JSON: Exceeds the limit"):
        parse_graph_json('{"n": 2, "edges": [[0, 1, ' + "9" * 5000 + "]]}", "x.json")
    with pytest.raises(ParseError, match=r"x\.json: 'edges' must be a list"):
        parse_graph_json('{"n": 2, "edges": {"0": [0, 1, 1.0]}}', "x.json")
    # a vertex count whose square overflows the int64 edge keys
    with pytest.raises(ParseError, match=r"x\.json: vertex count 100000000000000000000000 exceeds"):
        parse_graph_json('{"n": 100000000000000000000000, "edges": []}', "x.json")


def test_read_and_write_dispatch_on_extension(tmp_path):
    g = WeightedGraph(3, [(0, 1, 0.25), (1, 2, 4.0)])
    t_path = tmp_path / "g.txt"
    j_path = tmp_path / "g.json"
    write_graph(str(t_path), g)
    write_graph(str(j_path), g)
    assert read_graph(str(t_path)).edges == g.edges
    assert read_graph(str(j_path)).edges == g.edges
    assert json.loads(j_path.read_text())["n"] == 3


# ---------------------------------------------------------------------------
# report serialization


def test_float_formatting_round_trips_and_names_specials():
    for x in (1 / 3, 0.1, 1.0, 5e-324, 1.7976931348623157e308, 12345.6789, 2**-52):
        assert float(format_float(x)) == x
    assert format_float(math.inf) == "Infinity"
    assert format_float(-math.inf) == "-Infinity"
    assert format_float(math.nan) == "NaN"


def test_report_serializer_handles_numpy_scalars_and_nesting():
    report = {
        "a": np.float64(0.5),
        "b": np.int64(3),
        "c": [True, None, "text"],
        "d": {"nested": [1.5, np.bool_(False)]},
    }
    text = dumps_report(report)
    parsed = json.loads(text)
    assert parsed == {
        "a": 0.5,
        "b": 3,
        "c": [True, None, "text"],
        "d": {"nested": [1.5, False]},
    }
    assert dumps_report(report) == text  # deterministic


# ---------------------------------------------------------------------------
# subcommands end to end


def patch_inputs(tmp_path):
    """A connected G on 16 vertices and a 40-edge patch W, saved as text."""
    rng = np.random.default_rng(75)
    n = 16
    g = random_connected_graph(rng, n, extra_edges=10)
    pool = sorted({(u, v) for u in range(n) for v in range(u + 1, n)} - g.edge_pairs())
    w = WeightedGraph(
        n,
        [
            (u, v, float(rng.uniform(0.05, 0.5)))
            for u, v in (pool[int(j)] for j in rng.choice(len(pool), 40, replace=False))
        ],
    )
    return g, w, save_text(tmp_path, "G.txt", g), save_text(tmp_path, "W.txt", w)


def split_patch_graphs():
    """G and W on 29 shuffled vertex ids whose G+W splits into components of
    12, 9, 7 and 1 vertices, the 7-vertex one without patch edges."""
    rng = np.random.default_rng(76)
    ids = rng.permutation(29)
    g_edges, w_edges, off = [], [], 0
    for size, patched in ((12, True), (9, True), (7, False), (1, False)):
        comp = random_connected_graph(rng, size, extra_edges=3)
        g_edges += [(int(ids[off + u]), int(ids[off + v]), w) for u, v, w in comp.edges]
        if patched:
            pool = sorted({(u, v) for u in range(size) for v in range(u + 1, size)} - comp.edge_pairs())
            for j in rng.choice(len(pool), 2 * size, replace=False):
                u, v = pool[int(j)]
                w_edges.append((int(ids[off + u]), int(ids[off + v]), float(rng.uniform(0.05, 0.5))))
        off += size
    return WeightedGraph(29, g_edges), WeightedGraph(29, w_edges)


def algconn_inputs(tmp_path) -> list:
    """Base and candidate files of an 8-vertex instance whose k = 1 rounding
    selects more than one edge."""
    rng = np.random.default_rng(38)
    base = random_connected_graph(rng, 8, extra_edges=2)
    pool = sorted({(u, v) for u in range(8) for v in range(u + 1, 8)} - base.edge_pairs())
    cand = WeightedGraph(8, [pool[int(j)] + (1.0,) for j in rng.choice(len(pool), size=6, replace=False)])
    return [save_text(tmp_path, "base.txt", base), save_text(tmp_path, "cand.txt", cand)]


def mark_writes(monkeypatch, *records) -> list:
    """Patch cli.write_graph to note, at each call, the length of each list
    in `records`; the list it returns fills as the patched code runs."""
    marks = []

    def marking(*args, _original=cli.write_graph):
        marks.append(tuple(len(r) for r in records))
        return _original(*args)

    monkeypatch.setattr(cli, "write_graph", marking)
    return marks


def test_sparsify_patch_command_writes_selection_report_and_trace(tmp_path, capsys):
    k = 1
    g, w, g_path, w_path = patch_inputs(tmp_path)
    out = tmp_path / "Wk.txt"
    rep = tmp_path / "report.json"
    trace = tmp_path / "trace.csv"
    code = main(
        [
            "sparsify-patch", g_path, w_path, str(out),
            "--k", str(k), "--report", str(rep), "--trace-csv", str(trace),
        ]
    )
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["command"] == "sparsify-patch"
    assert report["parameters"]["k"] == k
    assert report["coherence"]["max_relative_deviation"] == 0.0
    assert report["measured"]["pencil_lower"] >= report["certified"]["pencil_lower"] - 1e-9
    assert report["measured"]["pencil_upper"] <= report["certified"]["pencil_upper"] + 1e-9

    wk = read_graph(str(out))
    assert wk.num_edges <= 8 * k + 1
    assert wk.edge_pairs() <= w.edge_pairs()

    with open(trace, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows and set(rows[0]) >= {"engine", "q", "index", "t", "lower_potential"}

    # no --report: the report goes to stdout instead
    code2 = main(["sparsify-patch", g_path, w_path, str(out), "--k", str(k)])
    assert code2 == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["command"] == "sparsify-patch"


def test_ultra_command_reports_a_verifiable_sandwich(tmp_path):
    rng = np.random.default_rng(77)
    g = random_connected_graph(rng, 18, extra_edges=24)
    g_path = save_text(tmp_path, "G.txt", g)
    out = tmp_path / "U.txt"
    rep = tmp_path / "ultra.json"
    assert main(["ultra", g_path, str(out), "--k", "2", "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["command"] == "ultra"
    measured = report["measured"]
    assert measured["kappa"] >= measured["c"] > 0
    assert report["output"]["edges"] <= (g.n - 1) + 8 * 2 + 1
    assert report["coherence"]["max_relative_deviation"] == 0.0

    rep_v = tmp_path / "verify.json"
    assert main(["verify", g_path, str(out), "--report", str(rep_v)]) == 0
    verified = json.loads(rep_v.read_text())["measured"]
    assert verified["c"] == pytest.approx(measured["c"], rel=1e-7)
    assert verified["kappa"] == pytest.approx(measured["kappa"], rel=1e-7)


def test_ultra_command_measures_u_against_the_factor_of_g_as_verify_does(tmp_path, monkeypatch):
    # The library measures the (L_U, L_G) pencil against its one factor of
    # L_G, as verify G U does: c and kappa equal verify's bit for bit. The
    # command's Cholesky factorizations are the factors of L_T (trace
    # check), L_{T+W} (patch) and L_G, each of its grounded (n - 1)-wide
    # block, and it decomposes nothing n wide. The written U reads back as
    # the measured one, so nothing is solved or factored after the write.
    rng = np.random.default_rng(77)
    g = random_connected_graph(rng, 18, extra_edges=24)
    g_path = save_text(tmp_path, "G.txt", g)
    out, rep, rep_v = tmp_path / "U.txt", tmp_path / "ultra.json", tmp_path / "verify.json"
    solves = record_eigensolves(monkeypatch)
    factored = record_laplacian_factors(monkeypatch)
    marks = mark_writes(monkeypatch, solves, factored)
    assert main(["ultra", g_path, str(out), "--k", "2", "--report", str(rep)]) == 0
    assert factored == [g.n - 1] * 3
    assert max(width for _, width, _ in solves) == g.n - 1
    assert marks == [(len(solves), len(factored))]

    report = json.loads(rep.read_text())
    assert report["coherence"]["max_relative_deviation"] == 0.0
    del solves[:], factored[:]
    # verify: one factor of L_G, of order n - 1, and one values-only pencil
    assert main(["verify", g_path, str(out), "--report", str(rep_v)]) == 0
    assert (factored, [solve[:2] for solve in solves]) == ([g.n - 1], [("eigvalsh", g.n - 1)])
    measured, verified = report["measured"], json.loads(rep_v.read_text())["measured"]
    assert (measured["c"], measured["kappa"]) == (verified["c"], verified["kappa"])
    assert measured["relative_condition_number"] == verified["relative_condition_number"]
    assert (measured["pencil_g_over_u_lower"], measured["pencil_g_over_u_upper"]) == (
        1.0 / verified["kappa"], 1.0 / verified["c"]
    )


def test_verify_reduces_a_wide_pencil_without_inverting_its_factor(tmp_path, monkeypatch):
    # n - 1 > REDUCTION_WIDTH: verify factors L_G once and reduces its one
    # block, with no inverse of the factor and no eigensolve; ultra's final
    # (U, G) measure takes the same path, so its c and kappa still equal
    # verify's bit for bit. A narrow verify inverts its factor once and
    # solves its pencil matrix; sparsify-patch inverts each block's factor
    # once, for the pencil matrices that its certificate and engine read.
    n = core.REDUCTION_WIDTH + 11
    rng = np.random.default_rng(89)
    g_path = save_text(tmp_path, "G.txt", random_connected_graph(rng, n, extra_edges=2 * n))
    h_path = save_text(tmp_path, "H.txt", random_connected_graph(rng, n, extra_edges=n))
    small_path = save_text(tmp_path, "small.txt", random_connected_graph(rng, 18, extra_edges=24))
    rep_u, rep_v = tmp_path / "ultra.json", tmp_path / "verify.json"
    solves = record_eigensolves(monkeypatch)
    factored = record_laplacian_factors(monkeypatch)
    inverted = record_inversions(monkeypatch)
    assert main(["verify", g_path, h_path, "--report", str(rep_v)]) == 0
    assert (factored, [solve[:2] for solve in solves], inverted) == ([n - 1], [("reduced", n - 1)], [])
    del solves[:], factored[:]
    assert main(["verify", small_path, small_path, "--report", str(rep_v)]) == 0
    assert (factored, [solve[:2] for solve in solves], inverted) == ([17], [("eigvalsh", 17)], [17])
    del inverted[:]
    g, w = split_patch_graphs()
    assert main(["sparsify-patch", save_text(tmp_path, "Gs.txt", g), save_text(tmp_path, "Ws.txt", w),
                 str(tmp_path / "Wk.txt"), "--k", "2", "--report", str(rep_v)]) == 0
    assert sorted(inverted) == [0, 6, 8, 11]

    out = tmp_path / "U.txt"
    assert main(["ultra", g_path, str(out), "--k", "2", "--report", str(rep_u)]) == 0
    del solves[:]
    assert main(["verify", g_path, str(out), "--report", str(rep_v)]) == 0
    assert [solve[:2] for solve in solves] == [("reduced", n - 1)]
    measured, verified = (json.loads(p.read_text())["measured"] for p in (rep_u, rep_v))
    assert (measured["c"], measured["kappa"]) == (verified["c"], verified["kappa"])


def test_ultra_command_on_a_tree_returns_the_tree(tmp_path):
    rng = np.random.default_rng(79)
    g = random_connected_graph(rng, 9, extra_edges=0)
    g_path = save_text(tmp_path, "T.txt", g)
    out = tmp_path / "U.txt"
    rep = tmp_path / "rep.json"
    assert main(["ultra", g_path, str(out), "--k", "1", "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["measured"]["kappa"] == pytest.approx(1.0, abs=1e-9)
    assert read_graph(str(out)).edges == g.edges


def test_algconn_command_with_oracle_block(tmp_path, monkeypatch):
    # the oracle runs first and solves its two subsets, the empty one being
    # L_base; its block then reads lambda_{k+2} off the rounding, which read
    # it and lambda_2(base) off one spectrum of L_base
    solves = record_eigensolves(monkeypatch)
    marks = mark_writes(monkeypatch, solves)
    base = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    cand = WeightedGraph(3, [(0, 2, 1.0)])
    b_path = save_text(tmp_path, "base.txt", base)
    c_path = save_text(tmp_path, "cand.txt", cand)
    out = tmp_path / "sel.txt"
    rep = tmp_path / "rep.json"
    code = main(
        ["algconn", b_path, c_path, str(out), "--k", "1", "--oracle", "--report", str(rep)]
    )
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["fractional"]["lambda_sdp"] == pytest.approx(3.0, abs=1e-3)
    frac = report["fractional"]
    assert frac["lambda_sdp"] <= frac["lambda_upper"]
    assert frac["gap"] == frac["lambda_upper"] - frac["lambda_sdp"]
    assert frac["converged"] is (frac["gap"] <= 1e-4)
    assert report["rounded"]["selected"] == [[0, 2]]
    assert report["rounded"]["lambda2_unweighted"] == pytest.approx(3.0, abs=1e-9)
    assert report["oracle"]["value"] == pytest.approx(3.0, abs=1e-9)
    assert report["oracle"]["edges"] == [[0, 2]]
    assert report["oracle"]["within_sdp_upper"] is True
    assert report["oracle"]["within_lambda_k2_upper"] is True
    l_base = hashlib.sha1(laplacian(base).tobytes()).hexdigest()
    hashes = [solve[2] for solve in solves[: marks[0][0]]]
    assert hashes[0] == l_base and hashes[2:].count(l_base) == 1
    sel = read_graph(str(out))
    assert sel.edge_pairs() == {(0, 2)}


def test_algconn_oracle_past_its_cap_exits_three_before_any_solve(tmp_path, capsys, monkeypatch):
    base = WeightedGraph(40, [(i, i + 1, 1.0) for i in range(39)])
    pool = [(u, v) for u in range(40) for v in range(u + 2, 40)]
    cand = WeightedGraph(40, [(u, v, 1.0) for u, v in pool[:60]])
    b_path, c_path = save_text(tmp_path, "base.txt", base), save_text(tmp_path, "cand.txt", cand)
    out, rep = tmp_path / "sel.txt", tmp_path / "rep.json"
    solves = record_eigensolves(monkeypatch)
    assert main(["algconn", b_path, c_path, str(out), "--k", "6", "--oracle", "--report", str(rep)]) == 3
    assert capsys.readouterr().err == "error: C(60,6) subsets exceed the 1e6 enumeration cap\n"
    assert solves == []
    assert not out.exists() and not rep.exists()


def test_algconn_command_zero_budget_selects_nothing(tmp_path):
    base = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    cand = WeightedGraph(4, [(0, 3, 1.0)])
    b_path = save_text(tmp_path, "base.txt", base)
    c_path = save_text(tmp_path, "cand.txt", cand)
    out = tmp_path / "sel.txt"
    rep = tmp_path / "rep.json"
    assert main(["algconn", b_path, c_path, str(out), "--k", "0", "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["rounded"]["selected"] == []
    base_l2 = float(eigvalsh(laplacian(base))[1])
    assert report["rounded"]["lambda2_weighted"] == pytest.approx(base_l2, abs=1e-9)
    assert read_graph(str(out)).num_edges == 0


def test_algconn_command_solves_nothing_after_writing_its_selection(tmp_path, monkeypatch):
    # the written selection reads back as the one the library certified, so
    # no lambda_2 is solved again and the coherence deviation reads 0
    solves = record_eigensolves(monkeypatch)
    factored = record_laplacian_factors(monkeypatch)
    marks = mark_writes(monkeypatch, solves, factored)
    rep = tmp_path / "rep.json"
    argv = ["algconn", *algconn_inputs(tmp_path), str(tmp_path / "sel.txt"), "--k", "1", "--report", str(rep)]
    assert main(argv) == 0
    assert marks == [(len(solves), len(factored))]
    report = json.loads(rep.read_text())
    assert len(report["rounded"]["selected"]) > 1
    assert report["coherence"]["max_relative_deviation"] == 0.0


def test_verify_command_identity_and_doubling(tmp_path):
    rng = np.random.default_rng(81)
    g = random_connected_graph(rng, 10, extra_edges=8)
    g_path = save_text(tmp_path, "G.txt", g)
    h_path = save_text(tmp_path, "H.txt", g.scale(2.0))
    rep = tmp_path / "rep.json"

    assert main(["verify", g_path, g_path, "--report", str(rep)]) == 0
    same = json.loads(rep.read_text())["measured"]
    assert same["c"] == pytest.approx(1.0, abs=1e-9)
    assert same["kappa"] == pytest.approx(1.0, abs=1e-9)

    assert main(["verify", g_path, h_path, "--report", str(rep)]) == 0
    doubled = json.loads(rep.read_text())["measured"]
    assert doubled["c"] == pytest.approx(2.0, abs=1e-9)
    assert doubled["kappa"] == pytest.approx(2.0, abs=1e-9)
    assert doubled["relative_condition_number"] == pytest.approx(1.0, abs=1e-9)


def test_verify_on_graphs_without_edges_reads_one(tmp_path):
    # an empty common image: c = kappa = 1 by convention
    rep = tmp_path / "rep.json"
    for n in (0, 1, 3):
        path = save_text(tmp_path, f"empty{n}.txt", WeightedGraph(n, []))
        assert main(["verify", path, path, "--report", str(rep)]) == 0
        measured = json.loads(rep.read_text())["measured"]
        assert measured == {"c": 1.0, "kappa": 1.0, "relative_condition_number": 1.0}
    # the same convention gives sparsify-patch its sandwich of an empty W on an edgeless G
    empty = save_text(tmp_path, "empty3.txt", WeightedGraph(3, []))
    assert main(["sparsify-patch", empty, empty, str(tmp_path / "wk.txt"), "--k", "0",
                 "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["measured"]["pencil_lower"] == 1.0


def test_an_h_finer_than_g_reads_c_zero_and_a_crossing_edge_exits_three(tmp_path):
    # G splits G + W into more than k + 1 pieces, so the engine certifies a
    # floor of 0, and the five edges of W_k leave G + W_k finer than G + W
    g_path = save_text(tmp_path, "G.txt", WeightedGraph(8, [(2 * i, 2 * i + 1, 1.0) for i in range(4)]))
    w = WeightedGraph(8, [(i, (i + j) % 8, 1.0) for i in range(8) for j in (1, 2)])
    w_path = save_text(tmp_path, "W.txt", w)
    out, rep = tmp_path / "wk.txt", tmp_path / "rep.json"
    assert main(["sparsify-patch", g_path, w_path, str(out), "--k", "1", "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["certified"]["pencil_lower"] == 0.0
    assert report["measured"]["pencil_lower"] == 0.0
    assert report["coherence"] == {"recomputed_from_output": True, "max_relative_deviation": 0.0}
    # verify of a refining H reports c = 0 and an infinite condition number;
    # an H edge between two of G's components is still a precondition error
    finer = save_text(tmp_path, "finer.txt", WeightedGraph(8, [(0, 1, 1.0), (2, 3, 1.0)]))
    assert main(["verify", w_path, finer, "--report", str(rep)]) == 0
    measured = json.loads(rep.read_text())["measured"]
    assert measured["c"] == 0.0 and measured["kappa"] > 0.0
    assert measured["relative_condition_number"] == math.inf
    assert main(["verify", finer, w_path]) == 3


def test_main_reuses_one_parser_and_each_call_gets_its_own_arguments(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser().format_help() == cli.build_parser.__wrapped__().format_help()
    rng = np.random.default_rng(85)
    g = random_connected_graph(rng, 8, extra_edges=4)
    g_path = save_text(tmp_path, "G.txt", g)
    h_path = save_text(tmp_path, "H.txt", g.scale(3.0))
    rep = tmp_path / "rep.json"

    assert main(["verify", g_path, h_path, "--report", str(rep)]) == 0
    assert capsys.readouterr().out == ""
    # no --report this time: the report goes to stdout, the first file stays
    assert main(["verify", g_path, g_path]) == 0
    assert json.loads(capsys.readouterr().out)["measured"]["c"] == pytest.approx(1.0, abs=1e-9)
    assert json.loads(rep.read_text())["measured"]["c"] == pytest.approx(3.0, abs=1e-9)

    # usage errors and --help exit as before, and leave the parser usable
    with pytest.raises(SystemExit) as exc:
        main(["verify", g_path])
    assert exc.value.code == 2 and "usage: lapsparse verify" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: lapsparse")
    assert main(["verify", h_path, h_path, "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["measured"]["c"] == pytest.approx(1.0, abs=1e-9)


def test_sparsify_patch_command_factors_the_patched_laplacian_once(tmp_path, monkeypatch):
    # one Cholesky factorization of the grounded block of L_{G+W}; no solve
    # is n wide, and nothing is solved or factored after the write
    g, _, g_path, w_path = patch_inputs(tmp_path)
    solves = record_eigensolves(monkeypatch)
    factored = record_laplacian_factors(monkeypatch)
    marks = mark_writes(monkeypatch, solves, factored)
    assert main(["sparsify-patch", g_path, w_path, str(tmp_path / "Wk.txt"), "--k", "1",
                 "--report", str(tmp_path / "rep.json")]) == 0
    assert factored == [g.n - 1]
    assert max(width for _, width, _ in solves) == g.n - 1
    assert marks == [(len(solves), len(factored))]


def test_ultra_and_split_sparsify_patch_solve_no_matrix_twice(tmp_path, monkeypatch):
    # every eigensolve wider than the protected count k = 2 is of a matrix
    # that no other solve of the command saw (the engine's k x k solves of
    # its protected block may repeat), but one: split G+W's 7-vertex
    # component has no patch edges, so W_k adds nothing there and the final
    # sandwich solves that block's pencil X_c again, 6 wide, after the
    # certificate decomposed it
    solves = record_eigensolves(monkeypatch)
    g_path = save_text(tmp_path, "G.txt", random_connected_graph(np.random.default_rng(77), 18, extra_edges=24))
    g, w = split_patch_graphs()
    commands = [
        (["ultra", g_path, str(tmp_path / "U.txt"), "--k", "2"], []),
        (["sparsify-patch", save_text(tmp_path, "Gs.txt", g), save_text(tmp_path, "Ws.txt", w),
          str(tmp_path / "Wk.txt"), "--k", "2"], [6]),
    ]
    for argv, repeated_widths in commands:
        solves.clear()
        assert main(argv + ["--report", str(tmp_path / "rep.json")]) == 0
        wide = [(width, digest) for _, width, digest in solves if width > 2]
        repeated = [width for (width, _), count in collections.Counter(wide).items() if count > 1]
        assert len(wide) > 10 and repeated == repeated_widths, argv[0]


def test_split_sparsify_patch_solves_nothing_wider_than_a_component(tmp_path, monkeypatch):
    # G+W in components of 12, 9, 7 and 1 vertices: every Laplacian the
    # command builds is at most one component wide, and every factorization
    # and eigensolve at most one component less one vertex; each
    # component's Laplacian is factored once
    g, w = split_patch_graphs()
    assert len(set(g.union(w).component_labels().tolist())) == 4
    widths = []
    for owner in (np.linalg, scipy.linalg):
        for name in ("eigh", "eigvalsh"):
            def counting(a, *args, _original=getattr(owner, name), **kwargs):
                widths.append(a.shape[0])
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
    factored = record_laplacian_factors(monkeypatch)
    built = []

    def building(n, *args, _original=core._edge_laplacian):
        built.append(n)
        return _original(n, *args)

    monkeypatch.setattr(core, "_edge_laplacian", building)
    assert main(["sparsify-patch", save_text(tmp_path, "G.txt", g), save_text(tmp_path, "W.txt", w),
                 str(tmp_path / "Wk.txt"), "--k", "2", "--report", str(tmp_path / "rep.json")]) == 0
    assert max(widths) == 11
    assert sorted(factored) == [0, 6, 8, 11]
    assert max(built) == 12

    # the report's certified floor is the weakest engine floor over the
    # components, and the measured sandwich of the split G+W clears it
    report = json.loads((tmp_path / "rep.json").read_text())
    engine_results = sparsify_patch(g, w, 2).engine_results
    assert len(engine_results) == 2
    assert report["certified"]["pencil_lower"] == min(r.floor for r in engine_results)
    assert report["measured"]["pencil_lower"] >= report["certified"]["pencil_lower"]


def one_ulp_off_write(path, graph, _write=cli.write_graph):
    """write_graph with the heaviest weight moved up by one ulp."""
    w = graph.w.copy()
    heavy = int(np.argmax(w))
    w[heavy] = np.nextafter(w[heavy], math.inf)
    _write(path, WeightedGraph.from_arrays(graph.n, graph.u, graph.v, w))


def test_re_check_measures_the_written_file(tmp_path, monkeypatch, capsys):
    # a written file whose heaviest weight reads back one ulp off the
    # measured graph's fails the command, in either file format: the check
    # reads the file rather than the in-memory result, names it, and leaves
    # no report behind
    _, _, g_path, w_path = patch_inputs(tmp_path)
    ultra_path = save_text(tmp_path, "U.txt", random_connected_graph(np.random.default_rng(77), 18, extra_edges=24))
    base_path, cand_path = algconn_inputs(tmp_path)
    rep = tmp_path / "rep.json"
    for suffix in (".txt", ".json"):
        out = str(tmp_path / f"out{suffix}")
        commands = [
            ["sparsify-patch", g_path, w_path, out, "--k", "1", "--report", str(rep)],
            ["ultra", ultra_path, out, "--k", "2", "--report", str(rep)],
            ["algconn", base_path, cand_path, out, "--k", "1", "--report", str(rep)],
        ]
        for argv in commands:
            assert main(argv) == 0
            os.remove(rep)
        with monkeypatch.context() as patched:
            patched.setattr(cli, "write_graph", one_ulp_off_write)
            for argv in commands:
                capsys.readouterr()
                assert main(argv) == 4, argv[0]
                lines = capsys.readouterr().err.strip().splitlines()
                assert lines[0].startswith(f"error: {out}: ") and "reads back" in lines[0], argv[0]
                assert json.loads(lines[-1])["error"] == "NumericalError"
                assert not rep.exists()


def test_commands_run_on_one_numpy_blas_thread_and_restore_it(tmp_path, monkeypatch):
    blas = _numpy_openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    count = blas[1]
    before = count()
    seen = []
    verify = cli.cmd_verify

    def recording_verify(args):
        seen.append(count())
        return verify(args)

    monkeypatch.setattr(cli, "cmd_verify", recording_verify)
    g_path = save_text(tmp_path, "G.txt", random_connected_graph(np.random.default_rng(83), 8, extra_edges=4))
    assert main(["verify", g_path, g_path, "--report", str(tmp_path / "rep.json")]) == 0
    assert seen == [1]
    assert count() == before


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_two_on_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 3\n0 1\n")
    out = tmp_path / "u.txt"
    assert main(["ultra", str(bad), str(out), "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert "bad.txt:2" in err

    # parallel edges whose weights overflow when merged
    huge = tmp_path / "huge.txt"
    huge.write_text("n 2\n0 1 1e308\n1 0 1e308\n")
    assert main(["verify", str(huge), str(huge)]) == 2
    assert "huge.txt:3: parallel edges (0,1) merge to a non-finite weight" in capsys.readouterr().err

    # a vertex count beyond 64-bit edge keys, in either format
    big_txt, big_json = tmp_path / "big.txt", tmp_path / "big.json"
    big_txt.write_text("n 99999999999999999999999\n")
    big_json.write_text('{"n": 100000000000000000000000, "edges": []}')
    for path, where in ((big_txt, f"{big_txt}:1"), (big_json, f"{big_json}")):
        assert main(["verify", str(path), str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}: vertex count ")


@pytest.mark.parametrize(
    "argv",
    [
        ["ultra", "{bad}", "{out}", "--k", "1"],
        ["sparsify-patch", "{bad}", "{ok}", "{out}", "--k", "0"],
        ["sparsify-patch", "{ok}", "{bad}", "{out}", "--k", "0"],
        ["algconn", "{bad}", "{ok}", "{out}", "--k", "1"],
        ["verify", "{bad}", "{ok}"],
        ["verify", "{ok}", "{bad}"],
    ],
)
def test_exit_code_two_on_a_weighted_degree_that_overflows(tmp_path, capsys, argv):
    # every edge weight is finite, but vertex 1's weighted degree is not
    bad, ok, out = tmp_path / "bad.txt", tmp_path / "ok.txt", tmp_path / "out.txt"
    bad.write_text("n 3\n0 1 1e308\n1 2 1e308\n")
    ok.write_text("n 3\n0 1 1\n1 2 1\n")
    argv = [a.format(bad=bad, ok=ok, out=out) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: weighted degree of vertex 1 overflows the largest float\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{g}", "{g}", "--report", "{bad}"],
        ["sparsify-patch", "{g}", "{g}", "{bad}", "--k", "0", "--report", "{rep}"],
        ["ultra", "{g}", "{out}", "--k", "1", "--trace-csv", "{bad}"],
        ["ultra", "{g}", "{out}", "--k", "1", "--report", "{rep}", "--trace-csv", "{bad}"],
        ["algconn", "{g}", "{g}", "{bad}", "--k", "1", "--trace-csv", "{trace}"],
    ],
)
def test_exit_code_two_on_an_unwritable_output_path(tmp_path, capsys, monkeypatch, argv):
    # every written path is claimed before the command solves anything, and
    # a failed claim removes the files claimed before it
    g = save_text(tmp_path, "G.txt", random_connected_graph(np.random.default_rng(84), 6, extra_edges=4))
    bad = tmp_path / "missing" / "file"
    argv = [a.format(g=g, bad=bad, out=tmp_path / "out.txt", rep=tmp_path / "rep.json", trace=tmp_path / "t.csv")
            for a in argv]
    solves = record_eigensolves(monkeypatch)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: cannot write: ")
    assert err.count("\n") == 1  # one message, no traceback
    assert solves == []
    assert [path.name for path in tmp_path.iterdir()] == ["G.txt"]


@pytest.mark.parametrize("name", ["bad.txt", "bad.json"])
def test_exit_code_two_on_a_graph_file_that_is_not_utf8(tmp_path, capsys, name):
    bad = tmp_path / name
    bad.write_bytes(b"n 2\n0 1 \xff\n" if name.endswith(".txt") else b'{"n": 2, "edges": [], "\xff": 1}')
    assert main(["verify", str(bad), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: cannot read: ")
    assert err.count("\n") == 1  # one message, no traceback


def test_input_hashes_are_taken_before_the_output_overwrites_an_input(tmp_path):
    rng = np.random.default_rng(86)
    g = random_connected_graph(rng, 10, extra_edges=6)
    g_path = save_text(tmp_path, "G.txt", g)
    w_path = save_text(tmp_path, "W.txt", random_connected_graph(rng, 10, extra_edges=20))
    before = hashlib.sha256((tmp_path / "W.txt").read_bytes()).hexdigest()
    rep = tmp_path / "rep.json"
    assert main(["sparsify-patch", g_path, w_path, w_path, "--k", "1", "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["inputs"]["w"]["sha256"] == before
    assert hashlib.sha256((tmp_path / "W.txt").read_bytes()).hexdigest() != before


def test_each_input_is_read_once_and_hashed_as_parsed(tmp_path, monkeypatch):
    rng = np.random.default_rng(89)
    g_path = save_text(tmp_path, "G.txt", random_connected_graph(rng, 8, extra_edges=5))
    h_path = str(tmp_path / "H.json")
    write_graph(h_path, random_connected_graph(rng, 8, extra_edges=9))
    opened = []
    real_open = open

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    report = cli.cmd_verify(cli.build_parser().parse_args(["verify", g_path, h_path]))
    monkeypatch.undo()
    assert [opened.count(path) for path in (g_path, h_path)] == [1, 1]
    for name, path in (("g", g_path), ("h", h_path)):
        with open(path, "rb") as handle:
            assert report["inputs"][name]["sha256"] == hashlib.sha256(handle.read()).hexdigest()


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_inputs_read_line_breaks_as_text_mode_does(tmp_path, capsys, newline):
    # str.splitlines ends a text line at LF, CRLF and a lone CR alike, so the
    # three copies of a file parse to one graph and name one line for a bad edge
    def write(path, text):
        path.write_bytes(text.replace("\n", newline).encode())
        return str(path)

    good = write(tmp_path / "g.txt", "# head\nn 3\n0 1 1\n\n1 2 2.5 # c\n")
    assert read_graph(good) == WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.5)])
    with open(good, "rb") as handle:  # the hash is of the bytes as read
        report = cli.cmd_verify(cli.build_parser().parse_args(["verify", good, good]))
        assert report["inputs"]["g"]["sha256"] == hashlib.sha256(handle.read()).hexdigest()
    for body, message in (("0 1 1\n1 2 x\n", "3: cannot parse edge line '1 2 x'"),
                          ("0 1 1\n\n2 2 1\n", "4: self-loop at vertex 2 rejected")):
        bad = write(tmp_path / "bad.txt", "n 3\n" + body)
        assert main(["verify", bad, bad]) == 2
        assert capsys.readouterr().err == f"error: {bad}:{message}\n"

    # json.loads reads CR as whitespace; a decode error gives json's position
    # in the file's own text, whose lines it counts by LF alone
    doc = '{"n": 3,\n "edges": [[0, 1, 1.0],\n [1, 2, 2.5]]}\n'
    assert read_graph(write(tmp_path / "g.json", doc)) == WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.5)])
    bad = write(tmp_path / "bad.json", doc.replace("2.5", ""))
    assert main(["verify", bad, bad]) == 2
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(doc.replace("2.5", "").replace("\n", newline))
    assert capsys.readouterr().err == f"error: {bad}: invalid JSON: {want.value}\n"


def test_report_path_is_checked_before_the_command_and_a_failure_leaves_no_report(tmp_path, capsys):
    g_path = save_text(tmp_path, "G.txt", random_connected_graph(np.random.default_rng(87), 6, extra_edges=4))
    out, bad = tmp_path / "out.txt", tmp_path / "missing" / "r.json"
    assert main(["sparsify-patch", g_path, g_path, str(out), "--k", "0", "--report", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: cannot write: ")
    assert not out.exists()

    # exit 3 (a disconnected input) and exit 4 (an output that reads back
    # one ulp off) remove the output, report and trace files they created ...
    disc = save_text(tmp_path, "disc.txt", WeightedGraph(5, [(0, 1, 1.0)]))
    rep, trace = tmp_path / "rep.json", tmp_path / "t.csv"
    written = [str(out), "--k", "1", "--report", str(rep), "--trace-csv", str(trace)]
    assert main(["ultra", disc, *written]) == 3
    assert not out.exists() and not rep.exists() and not trace.exists()
    with mock.patch.object(cli, "write_graph", one_ulp_off_write):
        assert main(["ultra", g_path, *written]) == 4
    assert not out.exists() and not rep.exists() and not trace.exists()
    # ... and leave a file that was there before as it was
    for path in (out, rep, trace):
        path.write_text("earlier file\n")
    assert main(["ultra", disc, *written]) == 3
    assert [path.read_text() for path in (out, rep, trace)] == ["earlier file\n"] * 3
    assert main(["ultra", g_path, *written]) == 0
    assert json.loads(rep.read_text())["command"] == "ultra"


def test_two_written_files_on_one_path_exit_two_before_any_work(tmp_path, capsys):
    # the output, --report and --trace-csv must be three files: two that
    # resolve to one path (here also through a "sub/.." spelling) stop the
    # command before it reads, writes or claims anything
    _, _, g_path, w_path = patch_inputs(tmp_path)
    ultra_path = save_text(tmp_path, "U.txt", random_connected_graph(np.random.default_rng(77), 12, extra_edges=12))
    (tmp_path / "sub").mkdir()
    first, same = str(tmp_path / "o.txt"), str(tmp_path / "sub" / ".." / "o.txt")
    commands = [
        ["sparsify-patch", g_path, w_path],
        ["ultra", ultra_path],
        ["algconn", *algconn_inputs(tmp_path)],
    ]
    pairs = [("out", "--report"), ("out", "--trace-csv"), ("--report", "--trace-csv")]
    inputs = set(tmp_path.iterdir())
    for command in commands:
        for a, b in pairs:
            paths = {"out": str(tmp_path / "out.txt"), "--report": str(tmp_path / "rep.json"),
                     "--trace-csv": str(tmp_path / "trace.csv")}
            paths[a], paths[b] = first, same
            argv = [*command, paths["out"], "--k", "1", "--report", paths["--report"],
                    "--trace-csv", paths["--trace-csv"]]
            assert main(argv) == 2, (command[0], a, b)
            assert capsys.readouterr().err.startswith(f"error: {a} and {b} both name {tmp_path / 'o.txt'}: ")
            assert set(tmp_path.iterdir()) == inputs, (command[0], a, b)
    # an output may still overwrite its input, which is read first
    copy = save_text(tmp_path, "copy.txt", read_graph(ultra_path))
    assert main(["ultra", copy, copy, "--k", "1", "--report", str(tmp_path / "rep.json")]) == 0
    assert json.loads((tmp_path / "rep.json").read_text())["output"]["path"] == copy


def test_exit_code_three_on_violated_preconditions(tmp_path, capsys):
    rng = np.random.default_rng(83)
    g = random_connected_graph(rng, 8, extra_edges=4)
    g_path = save_text(tmp_path, "G.txt", g)
    w = WeightedGraph(8, [(0, 5, 0.3), (1, 6, 0.2)])
    w_path = save_text(tmp_path, "W.txt", w)
    out = tmp_path / "o.txt"

    # undersized edge budget
    code = main(["sparsify-patch", g_path, w_path, str(out), "--k", "1", "--n-budget", "8"])
    assert code == 3
    assert "8k+1" in capsys.readouterr().err

    # disconnected input to ultra
    disc = save_text(tmp_path, "disc.txt", WeightedGraph(5, [(0, 1, 1.0)]))
    assert main(["ultra", disc, str(out), "--k", "1"]) == 3

    # a negative k with an empty W
    empty = save_text(tmp_path, "empty.txt", WeightedGraph(8, []))
    assert main(["sparsify-patch", g_path, empty, str(out), "--k", "-1"]) == 3
    assert "k must be nonnegative" in capsys.readouterr().err

    # vertex-count mismatch in sparsify-patch, with W empty or not
    for w_n, edges in ((9, []), (9, [(0, 8, 1.0)])):
        other = save_text(tmp_path, "other.txt", WeightedGraph(w_n, edges))
        assert main(["sparsify-patch", g_path, other, str(out), "--k", "0"]) == 3
        assert "vertex count mismatch: 8 vs 9" in capsys.readouterr().err

    # vertex-count mismatch in verify
    small = save_text(tmp_path, "small.txt", WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    assert main(["verify", g_path, small]) == 3
    assert "vertex counts differ: 8 vs 3" in capsys.readouterr().err

    # non-unit candidate weights in algconn
    base = save_text(tmp_path, "base.txt", WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    heavy = save_text(tmp_path, "heavy.txt", WeightedGraph(3, [(0, 2, 2.0)]))
    capsys.readouterr()
    assert main(["algconn", base, heavy, str(out), "--k", "1"]) == 3
    assert "candidates must have weight 1 (a pair listed twice has 2): [(0, 2)]" in capsys.readouterr().err

    # algconn candidates on another vertex count than the base
    wide = save_text(tmp_path, "wide.txt", WeightedGraph(4, [(0, 3, 1.0)]))
    assert main(["algconn", base, wide, str(out), "--k", "1"]) == 3
    assert "candidate graph has 4 vertices, base has 3" in capsys.readouterr().err

    # a negative tree-ensemble seed
    assert main(["ultra", g_path, str(out), "--k", "1", "--seed", "-1"]) == 3
    assert "seed must be a nonnegative integer" in capsys.readouterr().err

    # a gap tolerance that is not a positive number
    cand = save_text(tmp_path, "cand.txt", WeightedGraph(3, [(0, 2, 1.0)]))
    for tol in ("nan", "inf", "-1", "0"):
        capsys.readouterr()
        assert main(["algconn", base, cand, str(out), "--k", "1", "--tol", tol]) == 3
        assert "tol must be finite and positive" in capsys.readouterr().err


def test_exit_code_four_prints_the_infeasible_step_as_json(tmp_path, capsys, monkeypatch):
    import lapsparse.engine as engine

    real_scores = engine._selection_scores

    def no_feasible_candidate(problem, state, schedule, phi_u, phi_l):
        lhs, rhs = real_scores(problem, state, schedule, phi_u, phi_l)
        return lhs + np.max(rhs - lhs) + 1.0, rhs

    monkeypatch.setattr(engine, "_selection_scores", no_feasible_candidate)
    rng = np.random.default_rng(77)
    g_path = save_text(tmp_path, "G.txt", random_connected_graph(rng, 18, extra_edges=24))
    assert main(["ultra", g_path, str(tmp_path / "U.txt"), "--k", "2"]) == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines[0].startswith("error: no candidate satisfies")
    failure = json.loads(lines[-1])
    assert failure["error"] == "InfeasibleStepError"
    assert failure["q"] == 1
    diag = failure["diagnostics"]
    assert diag["q"] == 1 and diag["max_slack"] < 0
    assert diag["upper_potential"] > 0 and diag["lower_potential"] > 0


def test_exit_code_four_when_ultra_scaling_underflows_a_valid_weight(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("n 4\n0 1 5e-324\n1 2 1\n2 3 1\n0 3 1\n0 2 1\n")
    assert main(["ultra", str(g), str(tmp_path / "u.txt"), "--k", "1"]) == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert "kappa_target" in lines[0] and "edge (0,1)" in lines[0]
    assert json.loads(lines[-1])["error"] == "NumericalError"


def test_ultra_on_a_subnormal_weight_writes_only_its_error_to_stderr(tmp_path):
    # in a fresh interpreter, where numpy's RuntimeWarning would print itself
    # and its source line before the error
    g = tmp_path / "g.txt"
    g.write_text("n 4\n0 1 5e-324\n1 2 1\n2 3 1\n0 3 1\n0 2 1\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "lapsparse.cli", "ultra", str(g), str(tmp_path / "u.txt"), "--k", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 4
    lines = run.stderr.splitlines()
    assert len(lines) == 2 and lines[0].startswith("error: scaling by 1/kappa_target")
    assert json.loads(lines[1])["error"] == "NumericalError"


def test_exit_code_four_when_ultra_update_vectors_underflow(tmp_path, capsys):
    # W = G / kappa_target takes the chords (0,11) and (3,9) to about
    # 1.6e-302; their update vectors' entries, near 3.6e-301, square to 0
    edges = [(i, i + 1, 1e300) for i in range(11)] + [(0, 11, 1e-300), (3, 9, 1e-300), (2, 7, 1e300), (1, 5, 1.0)]
    g_path = save_text(tmp_path, "G.txt", WeightedGraph(12, edges))
    assert main(["ultra", g_path, str(tmp_path / "u.txt"), "--k", "1"]) == 4
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 2 and "Traceback" not in err
    assert lines[0].startswith("error: edge (0,11) of W, weight 1.56") and "underflow" in lines[0]
    assert json.loads(lines[1])["error"] == "NumericalError"


def test_exit_code_four_when_memory_runs_out_and_no_report_is_left(tmp_path, capsys, monkeypatch):
    class _ArrayMemoryError(MemoryError):  # numpy raises a private subclass too
        pass

    message = "Unable to allocate 2.98 GiB for an array with shape (400000000,) and data type float64"

    def out_of_memory(*args):
        raise _ArrayMemoryError(message)

    monkeypatch.setattr(core, "_edge_laplacian", out_of_memory)
    g_path = save_text(tmp_path, "G.txt", random_connected_graph(np.random.default_rng(88), 6, extra_edges=4))
    rep = tmp_path / "rep.json"
    assert main(["verify", g_path, g_path, "--report", str(rep)]) == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines[0] == f"error: {message}"
    assert json.loads(lines[-1]) == {"error": "MemoryError", "message": message, "q": None, "diagnostics": {}}
    assert not rep.exists()


def test_exit_code_four_prints_a_json_line_for_errors_without_diagnostics(tmp_path, capsys, monkeypatch):
    # a written selection that reads back as a graph other than the measured one
    monkeypatch.setattr(cli, "write_graph", one_ulp_off_write)
    base = save_text(tmp_path, "base.txt", WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    cand = save_text(tmp_path, "cand.txt", WeightedGraph(3, [(0, 2, 1.0)]))
    sel = tmp_path / "sel.txt"
    assert main(["algconn", base, cand, str(sel), "--k", "1"]) == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines[0].startswith(f"error: {sel}: the written graph reads back as a graph other")
    failure = json.loads(lines[-1])
    assert failure == {
        "error": "NumericalError",
        "message": lines[0][len("error: "):],
        "q": None,
        "diagnostics": {},
    }


# ---------------------------------------------------------------------------
# engine trace fields and wide weight ranges


def test_trace_rows_and_csv_carry_barrier_distances_and_feasible_counts(tmp_path):
    rng = np.random.default_rng(77)
    g_path = save_text(tmp_path, "G.txt", random_connected_graph(rng, 18, extra_edges=24))
    rep = tmp_path / "ultra.json"
    trace = tmp_path / "trace.csv"
    code = main(
        ["ultra", g_path, str(tmp_path / "U.txt"), "--k", "2",
         "--report", str(rep), "--trace-csv", str(trace)]
    )
    assert code == 0
    steps = json.loads(rep.read_text())["potential_trace"][0]["steps"]
    assert steps
    for row in steps:
        assert row["upper_gap"] > 0 and row["lower_gap"] > 0
        assert row["feasible_candidates"] >= 1
    with open(trace, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(steps)
    for row, step in zip(rows, steps):
        assert float(row["upper_gap"]) == step["upper_gap"]
        assert float(row["lower_gap"]) == step["lower_gap"]
        assert int(row["feasible_candidates"]) == step["feasible_candidates"]


@pytest.mark.parametrize("seed", [0, 5, 7])
def test_ultra_accepts_weights_spread_over_ten_decades(tmp_path, seed):
    # Laplacian entries near 1e10 carry rounding asymmetry above 1e-12, and
    # the pencil congruence of a badly conditioned pair carries more; both
    # used to be rejected as "matrix not symmetric" (exit 3). Seed 7 failed
    # the engine's entrywise X + sum Y_i = M* check (exit 3) under an
    # eigendecomposed factor of L_{T+W}; seed 0 fails it when the factor
    # grounds vertex 0 instead of eliminating vertices by descending degree.
    rng = np.random.default_rng(seed)
    g0 = random_connected_graph(rng, 40, extra_edges=80)
    w = 10.0 ** rng.uniform(0, 10, size=g0.num_edges)
    g = WeightedGraph(40, [(u, v, float(x)) for (u, v, _), x in zip(g0.edges, w)])
    g_path = save_text(tmp_path, "G.txt", g)
    rep = tmp_path / "ultra.json"
    assert main(["ultra", g_path, str(tmp_path / "U.txt"), "--k", "2", "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["coherence"]["max_relative_deviation"] == 0.0
    assert report["measured"]["kappa"] >= report["measured"]["c"] > 0
