import argparse
import dataclasses
import json

import pytest

import hornlr
from hornlr import FormatError
from hornlr.cli import build_parser, main, partition, spectrum
from hornlr.graphs import graph_to_text, complete_bipartite, even_cycle, load_graph, matching
from hornlr.horn import DEFAULT_TOL, SampleReport
from hornlr.spectra import analyze_line_graph


@pytest.fixture
def k13_file(tmp_path):
    path = tmp_path / "k13.txt"
    path.write_text(graph_to_text(complete_bipartite(1, 3)))
    return path


@pytest.fixture
def k22_file(tmp_path):
    path = tmp_path / "k22.txt"
    path.write_text(graph_to_text(complete_bipartite(2, 2)))
    return path


@pytest.fixture
def k23_file(tmp_path):
    path = tmp_path / "k23.txt"
    path.write_text(graph_to_text(complete_bipartite(2, 3)))
    return path


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("X 2\nY 2\n0 0\n1 0\n1 1\n")
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lr_count(capsys):
    code, out, _ = run(capsys, "lr", "--alpha", "3", "--beta", "1,1,1", "--gamma", "4,1,1", "--count")
    assert code == 0
    assert out == "1\n"


def test_lr_positive(capsys):
    code, out, _ = run(capsys, "lr", "--alpha", "3", "--beta", "1,1,1", "--gamma", "6", "--positive")
    assert code == 0
    assert out == "false\n"


def test_enum_p(capsys):
    code, out, _ = run(capsys, "spectra", "enum-p", "--alpha", "3", "--beta", "1,1,1")
    assert code == 0
    assert out == "4,1,1\n"


def test_horn_triples(capsys):
    code, out, _ = run(capsys, "horn", "triples", "--n", "2", "--r", "1")
    assert code == 0
    assert out.splitlines() == [
        "I={1} J={1} K={1}",
        "I={1} J={2} K={2}",
        "I={2} J={1} K={2}",
    ]


def test_horn_triples_u_only(capsys):
    code, t_out, _ = run(capsys, "horn", "triples", "--n", "4", "--r", "2")
    code2, u_out, _ = run(capsys, "horn", "triples", "--n", "4", "--r", "2", "--u-only")
    assert code == code2 == 0
    assert set(t_out.splitlines()) < set(u_out.splitlines())


def test_horn_check_compatible(capsys):
    code, out, _ = run(
        capsys, "horn", "check", "--alpha", "3", "--beta", "1,1,1", "--gamma", "4,1,1", "--n", "4"
    )
    assert code == 0
    assert out == "compatible\n"


def test_horn_check_incompatible_names_witness(capsys):
    code, out, _ = run(
        capsys, "horn", "check", "--alpha", "3", "--beta", "1,1,1", "--gamma", "6", "--n", "4"
    )
    assert code == 0
    assert out.splitlines()[0] == "incompatible"
    assert out.splitlines()[1].startswith("violated: ")


def test_horn_check_orders_within_the_tolerance(capsys):
    # a negative tolerance does not refuse equal entries; it widens nothing
    argv = ["horn", "check", "--alpha", "1.0,1.0", "--beta", "0,0", "--gamma", "1.0,1.0"]
    assert run(capsys, *argv, "--tol", "-0.5") == (0, "incompatible\nviolated: trace\n", "")
    assert run(capsys, *argv)[:2] == (0, "compatible\n")
    # inexact entries inverted by less than the tolerance are accepted
    argv = ["horn", "check", "--alpha", "1.0,1.5", "--beta", "0,0", "--gamma", "1.0,1.5"]
    assert run(capsys, *argv, "--tol", "1")[:2] == (0, "compatible\n")
    assert run(capsys, *argv)[0] == 2


def test_horn_weyl(capsys):
    code, out, _ = run(capsys, "horn", "weyl", "--alpha", "1,0", "--beta", "1,0", "--k", "1")
    assert code == 0
    assert out == "1 <= gamma_1 <= 2\n"


def test_horn_sample(capsys):
    code, out, _ = run(capsys, "horn", "sample", "--n", "2", "--trials", "25")
    assert code == 0
    assert "trace_violations=0" in out


def test_tol_defaults_are_the_library_default():
    # the very object, not an equal literal: the tolerance rule lives in
    # hornlr.errors (as_tolerance), and hornlr.horn re-exports its default
    assert DEFAULT_TOL is hornlr.errors.DEFAULT_TOL
    parser = build_parser()
    for argv in (["horn", "sample", "--n", "2"], ["spectra", "ramanujan", "--file", "g.txt"]):
        assert parser.parse_args(argv).tol is DEFAULT_TOL


def test_graph_spectrum_exact(capsys, k22_file, p4_file):
    code, out, _ = run(capsys, "graph", "spectrum", "--file", str(k22_file))
    assert code == 0
    assert out.splitlines() == ["integral", "2 1", "0 2", "-2 1"]
    # the path x0-y0-x1-y1 has eigenvalues (+-1 +-sqrt(5)) / 2
    code, out, _ = run(capsys, "graph", "spectrum", "--file", str(p4_file))
    assert code == 0
    assert out.splitlines() == ["not integral", "char-poly 1 0 -3 0 1"]


def test_graph_spectrum_numeric(capsys, k13_file):
    code, out, _ = run(capsys, "graph", "spectrum", "--file", str(k13_file), "--numeric")
    assert code == 0
    values = [float(v) for v in out.split()]
    assert values == pytest.approx([3**0.5, 0, 0, -(3**0.5)])


def test_graph_linegraph(capsys, k13_file, tmp_path):
    out_path = tmp_path / "lg.json"
    code, _, _ = run(capsys, "graph", "linegraph", "--file", str(k13_file), "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["order"] == 3
    assert payload["vertices"] == [[0, 0], [0, 1], [0, 2]]
    assert payload["edges"] == [[0, 1], [0, 2], [1, 2]]


def test_graph_complement(capsys, tmp_path):
    path = tmp_path / "m2.txt"
    path.write_text(graph_to_text(matching(2)))
    code, out, _ = run(capsys, "graph", "complement", "--file", str(path))
    assert code == 0
    assert out == "X 2\nY 2\n0 1\n1 0\n"


def test_spectra_analyze_json_round_trip(capsys, k13_file, p4_file, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "spectra", "analyze", "--file", str(k13_file), "--json", str(report_path)
    )
    assert code == 0
    assert "integral gamma=4,1,1" in out
    raw = report_path.read_text()
    payload = json.loads(raw)
    assert payload["is_integral"] is True
    assert payload["gamma"] == [4, 1, 1]
    assert payload["p_set"] == [[4, 1, 1]]
    assert payload["minus_two_multiplicity"] == 0
    assert payload["diameter"] == 1
    assert payload["max_k_gamma"] == 2
    assert payload["two_omega"] == 6
    # canonical form: parse and re-serialize byte-identically
    assert json.dumps(payload, indent=2, sort_keys=False) + "\n" == raw
    # the line graph of the path x0-y0-x1-y1 is P3, not integral: its
    # spectrum sqrt(2), 0, -sqrt(2) is written as floats of 12 digits
    code, out, _ = run(
        capsys, "spectra", "analyze", "--file", str(p4_file), "--json", str(report_path)
    )
    assert code == 0
    assert "not integral" in out
    raw = report_path.read_text()
    payload = json.loads(raw)
    assert payload["is_integral"] is False
    assert payload["char_poly"] == [1, 0, -2, 0]
    assert payload["gamma"] is None and payload["p_set"] is None and payload["ramanujan"] is None
    top, middle, least = payload["spectrum"]
    assert (top, least) == (1.41421356237, -1.41421356237)
    assert abs(middle) < 1e-9
    assert all(float(f"{v:.12g}") == v for v in payload["spectrum"])
    assert json.dumps(payload, indent=2, sort_keys=False) + "\n" == raw


def test_spectra_analyze_text_and_json_agree(capsys, k22_file, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "spectra", "analyze", "--file", str(k22_file), "--json", str(report_path)
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    summary = out.splitlines()[0]
    assert f"minus_two_multiplicity={payload['minus_two_multiplicity']}" in summary
    assert f"diameter={payload['diameter']}" in summary
    assert f"two_omega={payload['two_omega']}" in summary
    assert f"gamma={','.join(str(v) for v in payload['gamma'])}" in summary


def test_spectra_ramanujan(capsys, k22_file):
    code, out, _ = run(capsys, "spectra", "ramanujan", "--file", str(k22_file))
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert lines["degree"] == "2"
    assert lines["ramanujan-second-largest"] == "yes"
    assert lines["ramanujan-all-nontrivial"] == "yes"


def test_spectra_ramanujan_non_integral(capsys, tmp_path):
    # L(C_8) = C_8, with eigenvalues 2cos(pi j / 4): the verdict reads the
    # numeric spectrum, and sqrt(2) <= 2 = 2 sqrt(k - 1)
    path = tmp_path / "c8.txt"
    path.write_text(graph_to_text(even_cycle(8)))
    code, out, _ = run(capsys, "spectra", "ramanujan", "--file", str(path))
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert lines["degree"] == "2"
    assert lines["exact"] == "no"
    assert lines["ramanujan-second-largest"] == "yes"
    assert lines["ramanujan-all-nontrivial"] == "yes"


def test_corpus_verify(capsys, tmp_path, k13_file, k22_file, p4_file):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for src in (k13_file, k22_file, p4_file):
        (corpus / src.name).write_text(src.read_text())
    code, out, _ = run(capsys, "corpus", "verify", "--dir", str(corpus))
    assert code == 0
    assert "3 graphs: 2 integral, 1 non-integral, 0 violations" in out


def test_corpus_verify_empty_dir(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, _ = run(capsys, "corpus", "verify", "--dir", str(empty))
    assert code == 0
    assert "0 graphs" in out


def test_corpus_verify_bad_file(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "broken.txt").write_text("X 1\nnope\n")
    code, _, err = run(capsys, "corpus", "verify", "--dir", str(corpus))
    assert code == 2
    assert "broken.txt" in err


def test_corpus_verify_reports_bad_files_and_finishes(capsys, tmp_path, k22_file):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a_broken.txt").write_text("X 1\nnope\n")
    (corpus / "b_disconnected.txt").write_text(graph_to_text(matching(2)))
    (corpus / "c_k22.txt").write_text(k22_file.read_text())
    code, out, err = run(capsys, "corpus", "verify", "--dir", str(corpus))
    assert code == 2
    assert "a_broken.txt" in err and "b_disconnected.txt" in err
    assert "c_k22.txt: integral" in out
    assert "3 graphs: 1 integral, 0 non-integral, 0 violations, 2 failed" in out


def test_out_of_memory_exits_2(capsys, monkeypatch, tmp_path, k22_file):
    # a graph past the machine's memory fails as an input, not as a theorem
    # violation; `load_graph` raises here without allocating anything
    def loading(path):
        if "huge" in str(path):
            raise MemoryError
        return load_graph(path)

    monkeypatch.setattr("hornlr.cli.load_graph", loading)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    huge = corpus / "a_huge.txt"
    huge.write_text("X 99999999999\nY 1\n")
    (corpus / "b_k22.txt").write_text(k22_file.read_text())
    for command in (("spectra", "analyze"), ("graph", "spectrum")):
        code, _, err = run(capsys, *command, "--file", str(huge))
        assert (code, err) == (2, "error: out of memory\n")
    code, out, err = run(capsys, "corpus", "verify", "--dir", str(corpus))
    assert code == 2
    assert err == "a_huge.txt: error: out of memory\n"
    assert "b_k22.txt: integral" in out
    assert "2 graphs: 1 integral, 0 non-integral, 0 violations, 1 failed" in out


def test_theorem_violations_exit_1(capsys, monkeypatch, tmp_path, k13_file, k22_file):
    # a failed law is a bug, not an input error: the report's violation is
    # printed and the command exits 1; the analysis is patched to report one
    def analyzing(bg, include_p_set=False):
        report = analyze_line_graph(bg, include_p_set=include_p_set)
        if bg.edge_count == 4:
            return dataclasses.replace(report, violations=("diameter 9 exceeds 8",))
        return report

    monkeypatch.setattr("hornlr.cli.analyze_line_graph", analyzing)
    code, out, err = run(capsys, "spectra", "analyze", "--file", str(k22_file))
    assert code == 1
    assert out.splitlines()[-1] == f"{k22_file}: VIOLATION diameter 9 exceeds 8"
    assert err == "theorem violation: diameter 9 exceeds 8\n"
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a_k13.txt").write_text(k13_file.read_text())
    (corpus / "b_k22.txt").write_text(k22_file.read_text())
    code, out, err = run(capsys, "corpus", "verify", "--dir", str(corpus))
    assert code == 1
    assert "b_k22.txt: VIOLATION diameter 9 exceeds 8" in out
    assert out.splitlines()[-1] == "2 graphs: 2 integral, 0 non-integral, 1 violations, 0 failed"
    assert err == "theorem violation: 1 corpus violations\n"


def test_sample_violations_exit_1(capsys, monkeypatch):
    def sampling(n, trials, tol, seed):
        return SampleReport(n, trials, tol, 1, 2, 0)

    monkeypatch.setattr("hornlr.cli.sample_necessity", sampling)
    code, out, err = run(capsys, "horn", "sample", "--n", "3", "--trials", "5")
    assert code == 1
    assert " trace_violations=1 inequality_violations=2 weyl_violations=0" in out
    assert err == "theorem violation: 3 sampled spectra violated a necessary condition\n"


# one malformed file each: a typed FormatError, never a traceback or a misread graph
MALFORMED = {
    "edge_str.json": b'{"x_size": 1, "y_size": 1, "edges": [["a", 0]]}',
    "size_str.json": b'{"x_size": "2", "y_size": 1, "edges": [[0, 0], [1, 0]]}',
    "size_float.json": b'{"x_size": 2.5, "y_size": 1, "edges": [[0, 0], [1, 0]]}',
    "edges_int.json": b'{"x_size": 1, "y_size": 1, "edges": 5}',
    "latin1.txt": b"X 1\nY 1\n0 0\xa0\n",
    "edge_float.json": b'{"x_size": 1, "y_size": 2, "edges": [[0, 0], [0, 1.7]]}',
    "size_bool.json": b'{"x_size": true, "y_size": 1, "edges": [[0, 0]]}',
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_graph_files_are_format_errors(capsys, tmp_path, k22_file, name):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    bad = corpus / name
    bad.write_bytes(MALFORMED[name])
    (corpus / "z_k22.txt").write_text(k22_file.read_text())
    with pytest.raises(FormatError):
        load_graph(bad)
    code, _, err = run(capsys, "spectra", "analyze", "--file", str(bad))
    assert code == 2 and err.startswith("error: ")
    code, out, err = run(capsys, "corpus", "verify", "--dir", str(corpus))
    assert code == 2
    assert name in err
    assert "2 graphs: 1 integral, 0 non-integral, 0 violations, 1 failed" in out


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "lr", "--alpha", "3")[0] == 2  # missing flags
    assert run(capsys, "horn", "triples", "--n", "2", "--r", "5")[0] == 2
    assert run(capsys, "lr", "--alpha", "x", "--beta", "1", "--gamma", "1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    # a negative seed, a non-finite tolerance, and a negative one under
    # which a violation count proves nothing
    for flags in (["--seed", "-1"], ["--tol", "nan"], ["--tol", "inf"], ["--tol", "-0.5"]):
        assert run(capsys, "horn", "sample", "--n", "3", "--trials", "5", *flags)[0] == 2
    assert run(capsys, "horn", "check", "--alpha", "1", "--beta", "1", "--gamma", "2", "--tol", "nan")[0] == 2
    # a non-finite spectrum entry is an input error, not a verdict or a window
    for alpha in ("inf,0", "nan,0", "-inf,0"):
        code, _, err = run(capsys, "horn", "check", f"--alpha={alpha}", "--beta", "1,0", "--gamma", "inf,1")
        assert code == 2 and "finite" in err
    code, _, err = run(capsys, "horn", "weyl", "--alpha", "inf,0", "--beta", "1,0", "--k", "1")
    assert code == 2 and "finite" in err
    code, _, err = run(capsys, "horn", "weyl", "--alpha", "1,0", "--beta", "1", "--k", "1")
    assert code == 2 and "equal length" in err
    code, _, err = run(capsys, "horn", "weyl", "--alpha", "0,1", "--beta", "0,0", "--k", "1")
    assert code == 2 and "weakly decreasing" in err
    # weyl_bounds takes no tolerance, so neither does its command
    code, _, err = run(capsys, "horn", "weyl", "--alpha", "1,0", "--beta", "1,0", "--k", "1", "--tol", "1")
    assert code == 2 and "--tol" in err
    # a float whose sums overflow: refused, not answered "incompatible"
    code, _, err = run(capsys, "horn", "check", "--alpha", "1e308,0", "--beta", "1e308,0", "--gamma", "1e308,1e308")
    assert code == 2 and "magnitude" in err
    # --n below 1 is named as such, not reported as empty spectra
    code, _, err = run(capsys, "horn", "check", "--n", "0", "--alpha", "1", "--beta", "1", "--gamma", "2")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "horn", "check", "--alpha", "-", "--beta", "-", "--gamma", "-")
    assert code == 2 and "empty" in err
    code, _, err = run(capsys, "horn", "check", "--alpha", "1,2", "--beta", "0,0", "--gamma", "1,2")
    assert code == 2 and "weakly decreasing" in err
    assert run(capsys, "horn", "check", "--alpha", "1,x", "--beta", "0,0", "--gamma", "1,0")[0] == 2
    code, _, err = run(capsys, "horn", "check", "--n", "1", "--alpha", "1,0", "--beta", "1", "--gamma", "2")
    assert code == 2 and "longer than n=1" in err
    c8 = tmp_path / "c8.txt"
    c8.write_text(graph_to_text(even_cycle(8)))
    assert run(capsys, "spectra", "ramanujan", "--file", str(c8), "--tol", "nan")[0] == 2
    code, _, err = run(capsys, "corpus", "verify", "--dir", str(c8))
    assert code == 2 and "not a directory" in err
    huge = tmp_path / "huge.txt"
    huge.write_text(f"X {'9' * 5000}\nY 1\n")
    code, _, err = run(capsys, "spectra", "analyze", "--file", str(huge))
    assert code == 2 and "too many digits" in err


def test_missing_file_exits_3(capsys, tmp_path):
    code, _, err = run(capsys, "graph", "spectrum", "--file", str(tmp_path / "nope.txt"))
    assert code == 3
    assert "i/o error" in err


def test_disconnected_analyze_exits_2(capsys, tmp_path):
    path = tmp_path / "m2.txt"
    path.write_text(graph_to_text(matching(2)))
    code, _, err = run(capsys, "spectra", "analyze", "--file", str(path))
    assert code == 2
    assert "connected" in err


# every numeric or partition slot of every subcommand: a valid command
# line ("{file}" stands for a graph file), and its flags whose values are
# replaced in turn by each of HOSTILE_VALUES
CLI_SLOTS = [
    (["lr", "--alpha", "3", "--beta", "1,1,1", "--gamma", "4,1,1"], ["--alpha", "--beta", "--gamma"]),
    (["horn", "triples", "--n", "4", "--r", "2"], ["--n", "--r"]),
    (
        ["horn", "check", "--alpha", "3", "--beta", "1,1,1", "--gamma", "4,1,1", "--n", "4", "--tol", "1e-9"],
        ["--alpha", "--beta", "--gamma", "--n", "--tol"],
    ),
    (["horn", "weyl", "--alpha", "1,0", "--beta", "1,0", "--k", "1"], ["--alpha", "--beta", "--k"]),
    (
        ["horn", "sample", "--n", "2", "--trials", "5", "--tol", "1e-9", "--seed", "0"],
        ["--n", "--trials", "--tol", "--seed"],
    ),
    (["spectra", "enum-p", "--alpha", "3", "--beta", "1,1,1"], ["--alpha", "--beta"]),
    (["spectra", "ramanujan", "--file", "{file}", "--tol", "1e-9"], ["--tol"]),
]

# none starts a long run: sizes past the machine's memory are left out
HOSTILE_VALUES = ["9" * 5000, "True", "nan", "-1", "1e400", "0", "-"]


SLOTS = [(argv, flag) for argv, flags in CLI_SLOTS for flag in flags]


def _command(argv):
    return " ".join(argv[:1] if argv[0] == "lr" else argv[:2])


def _subcommands(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, (*prefix, name))
            return
    yield prefix, parser


def test_cli_table_covers_every_numeric_slot():
    # an option parsed as a number, a partition or a spectrum
    kinds = (int, float, partition, spectrum)
    found = {
        (" ".join(prefix), action.option_strings[0])
        for prefix, sub in _subcommands(build_parser())
        for action in sub._actions
        if action.type in kinds
    }
    assert found == {(_command(argv), flag) for argv, flag in SLOTS}


@pytest.mark.parametrize("argv, flag", SLOTS, ids=[f"{_command(argv)} {flag}" for argv, flag in SLOTS])
def test_hostile_values_exit_cleanly(capsys, k23_file, argv, flag):
    """Each subcommand, with one numeric or partition value replaced by a
    hostile one, exits 0, 1 or 2 with no traceback."""
    argv = [a.replace("{file}", str(k23_file)) for a in argv]
    assert run(capsys, *argv)[0] == 0
    at = argv.index(flag)
    for value in HOSTILE_VALUES:
        code, _, err = run(capsys, *argv[:at], f"{flag}={value}", *argv[at + 2 :])
        assert code in (0, 1, 2) and "Traceback" not in err, (flag, value[:20], code, err)
