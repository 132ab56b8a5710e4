"""The CLI's JSON writer against the standard library's, byte for byte.

Every JSON report is ``json.dumps(report, sort_keys=True, indent=2)``
plus a newline (``oracles.json_report``). The CLI writes it with its own
writer, and the per-sample rows of ``bigs enumerate`` through a row
template, so both are checked here against that reference: on generated
values, on generated sample tables, and on the reports the subcommands
really write.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bigs.cli import _json, _sample_rows, main

from oracles import json_report

SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-7, 2.5)

scalars = (st.none() | st.booleans() | st.integers() | st.text(max_size=8)
           | st.floats() | st.sampled_from(SPECIAL_FLOATS))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@example({"aé☃\x00\x1f\"\\": [[], {}, (), -0.0, 1e16, math.nan, math.inf, -math.inf,
                                        True, False, None, 10 ** 30, ""]})
@given(json_values)
def test_writer_matches_the_standard_library(value):
    assert _json(value) + "\n" == json_report(value)


@pytest.mark.parametrize("value", [{1: "x"}, [object()], {"a": {1, 2}}, Fraction(1, 3)])
def test_writer_refuses_what_json_cannot_hold(value):
    with pytest.raises(TypeError):
        _json(value)


def sample_dicts(labels, samples):
    """The per-sample rows as dicts, the shape the row template stands for."""
    return [{"sample": sorted(s0), "probability": str(p),
             "estimates": {label: {"value": float(est), "exact": str(est)}
                           for label, est in zip(labels, estimates)}}
            for s0, p, estimates in samples]


LABELS = ("ht", "hh:equal-share", "hh:inverse-alpha", "rb:modified-ht")
fractions = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))


@st.composite
def sample_tables(draw):
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5))
    units = st.frozensets(st.text(max_size=4), max_size=4)
    rows = st.tuples(units, fractions,
                     st.lists(fractions, min_size=len(labels), max_size=len(labels)))
    return labels, draw(st.lists(rows, max_size=5))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@example((["hh:equal-share", "ht", "hh:equal-share"],
          [(frozenset({"b", "a"}), Fraction(1, 3), [Fraction(1), Fraction(-2, 7), Fraction(9)])]))
@example((["ht"], []))
@example((["ht"], [(frozenset(), Fraction(1), [Fraction(0)])]))
@given(sample_tables())
def test_row_template_matches_the_dicts(table):
    labels, samples = table
    report = {"big": "x", "samples": _sample_rows(labels, samples)}
    want = {"big": "x", "samples": sample_dicts(labels, samples)}
    assert _json(report) + "\n" == json_report(want)


TOY_GRAPH = "1 2\n2 3\n3 1\n3 4\n"
DESIGN = "1/4: 1 0\n1/2: 2 10\n1/4: 0 1000\n"
ACS_B = ("thompson1990", "--rule", "acs-b")

REPORTS = {
    "motifs": ("motifs", "{graph}", "--motif", "k3", "--motif", "s2", "--out", "{out}"),
    "motifs-count": ("motifs", "{graph}", "--motif", "k3", "--motif", "s2", "--count",
                     "--out", "{out}"),
    "big-check": ("big", "check", "thompson1990", "--rule", "acs-b-star"),
    "big-check-infeasible": ("big", "check", *ACS_B),
    "sample": ("sample", *ACS_B, "--estimator", "modified-ht", "--estimator",
               "rb:modified-ht", "--seeds", "2", "10"),
    "enumerate": ("enumerate", *ACS_B, "--estimator", "ht", "--estimator", "hh:equal-share",
                  "--estimator", "hh:inverse-alpha", "--estimator", "rb:modified-ht",
                  "--out", "{out}"),
    "enumerate-design-file": ("enumerate", "thompson1990", "--rule", "acs-b-star",
                              "--estimator", "ht", "--scale", "mean",
                              "--design", "{design}", "--out", "{out}"),
    "enumerate-duplicate-labels": ("enumerate", *ACS_B, "--estimator", "hh",
                                   "--estimator", "hh:equal-share", "--out", "{out}"),
    "simulate": ("simulate", *ACS_B, "--estimator", "ht", "--estimator", "modified-ht",
                 "--replicates", "50", "--seed", "3", "--out", "{out}"),
    "reproduce-thompson1990": ("reproduce", "thompson1990", "--out", "{out}"),
    "reproduce-table4-bigs": ("reproduce", "table4-bigs", "--out", "{out}"),
}


def run_report(tmp_path, capsys, argv):
    (tmp_path / "graph.txt").write_text(TOY_GRAPH)
    (tmp_path / "three-point.design").write_text(DESIGN)
    out = tmp_path / "report.json"
    argv = [a.format(graph=tmp_path / "graph.txt", design=tmp_path / "three-point.design",
                     out=out) for a in argv]
    code = main(argv)
    stdout, _ = capsys.readouterr()
    return code, out.read_text() if "--out" in argv else stdout


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_match_the_standard_library(name, tmp_path, capsys):
    code, text = run_report(tmp_path, capsys, REPORTS[name])
    assert code == (1 if name == "big-check-infeasible" else 0)
    assert text == json_report(json.loads(text))


def test_no_report_reaches_the_pure_python_encoder(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for name in ("enumerate", "sample"):
        code, text = run_report(tmp_path, capsys, REPORTS[name])
        assert code == 0 and json.loads(text)
