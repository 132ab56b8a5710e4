"""Tests for the command-line experiment runner.

These go through bigs.cli.main the way a shell invocation would, and
check exit codes, report formats, config-file merging, and that reruns
with the same inputs produce identical bytes.
"""

import json
import random
from fractions import Fraction

import pytest

from bigs.big import acs_big, AncestorRule
from bigs.builtins import builtin_population
from bigs.cli import main
from bigs.design import Design, realize_sample_big
from bigs.estimators import EstimatorSpec, estimate, rao_blackwellize


TOY_GRAPH = """\
# triangle with a tail
1 2
2 3
3 1
3 4
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_graph(tmp_path, text=TOY_GRAPH, name="pop.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def csv_rows(text):
    """Split a CSV report into (comment_lines, header, data_rows)."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return comments, body[0].split(","), [ln.split(",") for ln in body[1:]]


def test_version_flag_reports_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.startswith("bigs ")


def test_motif_counts_csv(tmp_path, capsys):
    path = write_graph(tmp_path)
    code, out, err = run_cli(capsys, "motifs", path,
                             "--motif", "k3", "--motif", "s2", "--count")
    assert code == 0 and err == ""
    comments, header, rows = csv_rows(out)
    assert comments[0].startswith("# bigs ")
    assert comments[1].startswith("# config ")
    assert header == ["class", "count"]
    assert rows == [["k3", "1"], ["s2", "2"]]


def test_motif_listing_includes_members(tmp_path, capsys):
    path = write_graph(tmp_path)
    code, out, _ = run_cli(capsys, "motifs", path, "--motif", "k3")
    assert code == 0
    _, header, rows = csv_rows(out)
    assert header == ["class", "motif", "order", "members"]
    assert len(rows) == 1
    assert rows[0][0] == "k3"
    assert rows[0][2] == "3"
    assert rows[0][3] == "1 2 3"


def test_motifs_json_output_file(tmp_path, capsys):
    path = write_graph(tmp_path)
    out_path = tmp_path / "motifs.json"
    code, _, _ = run_cli(capsys, "motifs", path, "--motif", "k2",
                         "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["config"]["motif_classes"] == ["k2"]
    assert data["config"]["mode"] == "motifs"
    assert "version" in data
    assert len(data["results"]) == 4
    assert all(r["class"] == "k2" for r in data["results"])


def test_motifs_without_class_is_an_error(tmp_path, capsys):
    path = write_graph(tmp_path)
    code, _, err = run_cli(capsys, "motifs", path)
    assert code == 2
    assert err.startswith("error:")
    assert "--motif" in err


def test_missing_input_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "motifs", "/no/such/file", "--motif", "k2")
    assert code == 2
    assert "cannot read" in err


def test_big_build_emits_loadable_big_file(tmp_path, capsys):
    from bigs.big import load_big

    path = write_graph(tmp_path)
    code, out, _ = run_cli(capsys, "big", "build", path,
                           "--motif", "k3", "--rule", "motif-only")
    assert code == 0
    assert out.splitlines()[0] == "FRAME"
    big = load_big(out)
    assert big.frame == ("1", "2", "3", "4")
    (key,) = [m.key for m in big.motifs]
    assert big.ancestors(key) == frozenset({"1", "2", "3"})
    assert big.motifs.y(key) == 1


def test_big_export_matches_build(tmp_path, capsys):
    path = write_graph(tmp_path)
    _, built, _ = run_cli(capsys, "big", "build", path,
                          "--motif", "k3", "--rule", "motif-only")
    _, exported, _ = run_cli(capsys, "big", "export", path,
                             "--motif", "k3", "--rule", "motif-only")
    assert built == exported


def test_big_check_feasible_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "big", "check", "thompson1990",
                           "--rule", "acs-b-star")
    assert code == 0
    data = json.loads(out)
    assert data["feasible"] is True
    assert data["violations"] == []
    assert data["checks"] > 0


def test_big_check_reports_violation_and_exits_one(capsys):
    code, out, _ = run_cli(capsys, "big", "check", "thompson1990",
                           "--rule", "acs-b")
    assert code == 1
    data = json.loads(out)
    assert data["feasible"] is False
    assert any("observes motif" in v for v in data["violations"])
    # Five structural checks plus nine empirical ones; the builtin's
    # fallback design would add five frame-unit checks.
    assert data["checks"] == 14


def test_big_check_csv_format(tmp_path, capsys):
    out_path = tmp_path / "check.csv"
    code, _, _ = run_cli(capsys, "big", "check", "thompson1990",
                         "--rule", "acs-b", "--out", str(out_path))
    assert code == 1
    _, header, rows = csv_rows(out_path.read_text())
    assert header == ["feasible", "checks", "violation"]
    assert rows[0][0] == "false"
    assert "observes motif" in ",".join(rows[0][2:])


def test_big_check_accepts_big_file_with_design(tmp_path, capsys):
    big_path = tmp_path / "toy.big"
    big_path.write_text("FRAME\na\nb\nc\nMOTIFS\nm 4 a b\nEDGES\na m\nb m\n")
    code, out, _ = run_cli(capsys, "big", "check", str(big_path), "--n", "2")
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_sample_json_report_fields(capsys):
    code, out, _ = run_cli(capsys, "sample", "thompson1990", "--rule", "acs-b",
                           "--estimator", "modified-ht",
                           "--estimator", "rb:modified-ht",
                           "--seeds", "2", "10")
    assert code == 0
    data = json.loads(out)
    assert data["big"] == "thompson1990:acs-b"
    assert data["initial_sample"] == ["10", "2"]
    assert data["observed_motifs"] == ["2", "10", "1000"]
    assert data["out_ancestors"] == ["1000"]
    assert "seed" not in data
    assert [r["estimator"] for r in data["results"]] == ["modified-ht",
                                                         "rb:modified-ht"]

    pop = builtin_population("thompson1990")
    big = pop.bigs["acs-b"]
    sample = realize_sample_big(big, frozenset({"2", "10"}))
    direct = estimate(EstimatorSpec.parse("modified-ht"), pop.design, big, sample)
    rb = rao_blackwellize(EstimatorSpec.parse("modified-ht"), pop.design,
                          big, sample)
    assert data["results"][0]["estimate"] == float(direct.estimate)
    assert Fraction(data["results"][0]["exact"]) == direct.estimate
    assert data["results"][1]["estimate"] == float(rb.estimate)
    contributions = data["results"][0]["contributions"]
    assert {c["id"] for c in contributions} == {"2", "10", "1000"}
    assert {c["probability"] for c in contributions} == {"2/5", "7/10"}


def test_sample_seeded_draw_is_recorded_and_repeatable(capsys):
    argv = ("sample", "thompson1990", "--rule", "acs-b-star",
            "--estimator", "ht", "--seed", "11")
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    data = json.loads(out_a)
    assert data["seed"] == 11
    pop = builtin_population("thompson1990")
    expected = sorted(pop.design.draw(random.Random(11)))
    assert data["initial_sample"] == expected


def test_sample_generates_and_records_a_seed(capsys):
    code, out, _ = run_cli(capsys, "sample", "thompson1990",
                           "--rule", "acs-b-star", "--estimator", "ht")
    assert code == 0
    data = json.loads(out)
    assert isinstance(data["seed"], int)
    assert len(data["initial_sample"]) == 2


def test_sample_csv_output(tmp_path, capsys):
    out_path = tmp_path / "sample.csv"
    code, _, _ = run_cli(capsys, "sample", "thompson1990", "--rule", "acs-b",
                         "--estimator", "modified-ht", "--seeds", "1", "0",
                         "--scale", "mean", "--out", str(out_path))
    assert code == 0
    comments, header, rows = csv_rows(out_path.read_text())
    assert not any(c.startswith("# seed") for c in comments)
    assert header == ["estimator", "scale", "estimate"]
    assert rows == [["modified-ht", "mean", "0.500000"]]

    code, _, _ = run_cli(capsys, "sample", "thompson1990", "--rule", "acs-b",
                         "--estimator", "modified-ht", "--seed", "5",
                         "--out", str(out_path))
    assert code == 0
    comments, _, _ = csv_rows(out_path.read_text())
    assert "# seed 5" in comments


def test_sample_without_design_is_an_error(tmp_path, capsys):
    big_path = tmp_path / "toy.big"
    big_path.write_text("FRAME\na\nb\nc\nMOTIFS\nm 4 a b\nEDGES\na m\nb m\n")
    code, _, err = run_cli(capsys, "sample", str(big_path),
                           "--estimator", "ht", "--seeds", "a")
    assert code == 2
    assert "no design" in err

    code, out, _ = run_cli(capsys, "sample", str(big_path), "--n", "2",
                           "--estimator", "ht", "--seeds", "a", "b")
    assert code == 0
    assert json.loads(out)["results"][0]["exact"] == "4"


def test_sample_refuses_seeds_outside_the_design_support(tmp_path, capsys):
    code, out, err = run_cli(capsys, "sample", "thompson1990", "--rule", "acs-b-star",
                             "--estimator", "ht", "--seeds", "1", "2", "10")
    assert (code, out) == (2, "")
    assert "size 3" in err and "size 2" in err
    code, _, err = run_cli(capsys, "sample", "thompson1990", "--rule", "acs-b-star",
                           "--estimator", "ht", "--seeds", "1", "99")
    assert code == 2
    assert "outside the frame" in err

    design_path = tmp_path / "three-point.design"
    design_path.write_text("1/4: 1 0\n1/2: 2 10\n1/4: 0 1000\n")
    argv = ("sample", "thompson1990", "--rule", "acs-b-star", "--estimator", "ht",
            "--design", str(design_path), "--seeds")
    code, out, err = run_cli(capsys, *argv, "1", "2")
    assert (code, out) == (2, "")
    assert "not a support point" in err
    code, out, _ = run_cli(capsys, *argv, "10", "2")
    assert code == 0
    assert json.loads(out)["initial_sample"] == ["10", "2"]


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"input": "thompson1990",
                               "rule": "acs-b-star",
                               "estimators": ["ht"],
                               "seeds": ["1", "0"],
                               "scale": "mean"}))
    code, out, _ = run_cli(capsys, "sample", "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["big"] == "thompson1990:acs-b-star"
    assert data["initial_sample"] == ["0", "1"]
    assert data["config"]["scale"] == "mean"
    assert data["results"][0]["estimate"] == 0.5


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"input": "thompson1990",
                               "rule": "acs-b-star",
                               "estimators": ["ht"],
                               "seeds": ["1", "0"]}))
    code, out, _ = run_cli(capsys, "sample", "--config", str(cfg),
                           "--rule", "acs-b", "--estimator", "modified-ht")
    assert code == 0
    data = json.loads(out)
    assert data["config"]["rule"] == "acs-b"
    assert data["big"] == "thompson1990:acs-b"
    assert [r["estimator"] for r in data["results"]] == ["modified-ht"]


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"input": "thompson1990", "esimators": ["ht"]}))
    code, _, err = run_cli(capsys, "sample", "--config", str(cfg))
    assert code == 2
    assert "unknown keys" in err and "esimators" in err


def test_config_file_rejects_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, "sample", "--config", str(cfg))
    assert code == 2
    assert "invalid JSON" in err


def test_enumerate_csv_moments(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "thompson1990",
                           "--rule", "acs-b-star", "--estimator", "ht",
                           "--scale", "mean")
    assert code == 0
    _, header, rows = csv_rows(out)
    assert header == ["estimator", "scale", "expectation", "variance",
                      "mse", "support"]
    assert rows[0][0] == "ht"
    assert rows[0][1] == "mean"
    assert rows[0][2] == "202.600000"
    assert rows[0][3].startswith("17418.41")
    assert rows[0][5] == "10"


def test_enumerate_json_lists_every_sample(tmp_path, capsys):
    out_path = tmp_path / "moments.json"
    code, _, _ = run_cli(capsys, "enumerate", "thompson1990",
                         "--rule", "acs-b-star", "--estimator", "ht",
                         "--scale", "mean", "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["big"] == "thompson1990:acs-b-star"
    result = data["results"][0]
    assert result["exact"]["expectation"] == "1013/5"
    assert result["support"] == 10
    assert len(data["samples"]) == 10
    assert all(entry["probability"] == "1/10" for entry in data["samples"])
    assert all("exact" in entry["estimates"]["ht"] for entry in data["samples"])


def test_enumerate_json_walks_the_design_once_per_compile(tmp_path, capsys, monkeypatch):
    calls = []
    walk = Design.enumerate

    def counted(self, cap=None):
        calls.append(cap)
        return walk(self, cap)

    monkeypatch.setattr(Design, "enumerate", counted)
    out_path = tmp_path / "rb.json"
    code, _, _ = run_cli(capsys, "enumerate", "thompson1990", "--rule", "acs-b",
                         "--estimator", "rb:modified-ht", "--out", str(out_path))
    assert code == 0
    # One walk groups the Rao-Blackwell means, one fills the table and moments.
    assert len(calls) == 2
    data = json.loads(out_path.read_text())
    assert len(data["samples"]) == data["results"][0]["support"] == 10
    assert data["results"][0]["exact"]["expectation"] == "1013"


def test_enumerate_accepts_design_file(tmp_path, capsys):
    design_path = tmp_path / "three-point.design"
    design_path.write_text("# every unit has positive inclusion probability\n"
                           "1/4: 1 0\n1/2: 2 10\n1/4: 0 1000\n")
    code, out, _ = run_cli(capsys, "enumerate", "thompson1990",
                           "--rule", "acs-b-star", "--estimator", "ht",
                           "--scale", "mean", "--design", str(design_path))
    assert code == 0
    _, _, rows = csv_rows(out)
    assert rows[0][2] == "202.600000"
    assert rows[0][5] == "3"


def test_simulate_seeded_runs_are_identical(capsys):
    argv = ("simulate", "thompson1990", "--rule", "acs-b-star",
            "--estimator", "ht", "--replicates", "200", "--seed", "3")
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    comments, header, rows = csv_rows(out_a)
    assert "# seed 3" in comments
    assert header == ["estimator", "scale", "replicates", "seed", "mean",
                      "se_mean", "variance", "se_variance", "mse", "se_mse"]
    assert rows[0][2] == "200"
    assert rows[0][3] == "3"


def test_simulate_records_a_generated_seed(capsys):
    code, out, _ = run_cli(capsys, "simulate", "thompson1990",
                           "--rule", "acs-b-star", "--estimator", "ht",
                           "--replicates", "50")
    assert code == 0
    comments, _, rows = csv_rows(out)
    seed_lines = [c for c in comments if c.startswith("# seed ")]
    assert len(seed_lines) == 1
    seed = int(seed_lines[0].split()[-1])
    assert rows[0][3] == str(seed)


def test_simulate_rejects_zero_replicates(capsys):
    code, _, err = run_cli(capsys, "simulate", "thompson1990",
                           "--rule", "acs-b-star", "--estimator", "ht",
                           "--replicates", "0")
    assert code == 2
    assert "replicates" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cap_below_one_is_rejected(capsys, cap):
    code, out, err = run_cli(capsys, "enumerate", "thompson1990",
                             "--rule", "acs-b", "--estimator", "ht",
                             "--cap", cap)
    assert code == 2
    assert out == ""
    assert "cap must be >= 1" in err


def test_reproduce_five_grid_table(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "thompson1990")
    assert code == 0
    _, header, rows = csv_rows(out)
    assert header == ["sample", "observed", "acs-b:modified-ht",
                      "acs-b-star:ht", "acs-b-dagger:ht",
                      "acs-b:rb:modified-ht"]
    assert len(rows) == 12
    assert rows[0][:2] == ["1 0", "1 0"]
    assert rows[0][2:] == ["0.500", "0.500", "0.500", "0.500"]
    assert rows[7][:2] == ["2 10", "2 10 1000"]
    assert rows[7][2:] == ["289.571", "289.571", "289.143", "289.238"]
    assert rows[10][0] == "expectation"
    assert rows[10][2:] == ["202.600"] * 4
    assert rows[11][0] == "variance"
    assert rows[11][2] == "17418.411"
    assert rows[11][3] == "17418.411"
    assert rows[11][4] == "17533.683"
    assert float(rows[11][5]) <= float(rows[11][2])


def test_reproduce_forty_unit_estimates(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "reproduce", "table4-bigs")
    assert code == 0
    _, header, rows = csv_rows(out)
    assert header == ["big", "estimator", "estimate"]
    assert rows == [["t2", "ht", "15.600"],
                    ["t2", "hh:equal-share", "15.000"],
                    ["t2", "hh:inverse-alpha", "13.571"],
                    ["t4", "ht", "6.827"],
                    ["t4", "hh:equal-share", "5.679"]]

    out_path = tmp_path / "table.json"
    code, _, _ = run_cli(capsys, "reproduce", "table4-bigs",
                         "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["initial_sample"] == ["3", "12"]
    exact = {(r["big"], r["estimator"]): r["exact"] for r in data["results"]}
    assert exact[("t2", "ht")] == "78/5"
    assert exact[("t2", "hh:equal-share")] == "15"
    assert exact[("t2", "hh:inverse-alpha")] == "95/7"
    assert exact[("t4", "ht")] == "76847/11256"
    assert exact[("t4", "hh:equal-share")] == "159/28"


def test_reproduce_unknown_builtin_exits_two(capsys):
    code, _, err = run_cli(capsys, "reproduce", "nonesuch")
    assert code == 2
    assert "unknown builtin" in err


def test_rerun_to_same_output_file_is_byte_identical(tmp_path, capsys):
    out_path = tmp_path / "moments.csv"
    argv = ("enumerate", "thompson1990", "--rule", "acs-b",
            "--estimator", "modified-ht", "--estimator", "rb:modified-ht",
            "--scale", "mean", "--out", str(out_path))
    assert run_cli(capsys, *argv)[0] == 0
    first = out_path.read_bytes()
    out_path.unlink()
    assert run_cli(capsys, *argv)[0] == 0
    assert out_path.read_bytes() == first


def test_stage_horizon_flag_fills_bare_full_rule(tmp_path, capsys):
    path = write_graph(tmp_path)
    code, out, _ = run_cli(capsys, "big", "build", path,
                           "--motif", "k2", "--rule", "full", "--t", "1")
    assert code == 0
    assert out.splitlines()[0] == "FRAME"


def test_stage_horizon_flag_conflicts_with_explicit_rule(tmp_path, capsys):
    path = write_graph(tmp_path)
    code, _, err = run_cli(capsys, "big", "build", path,
                           "--motif", "k2", "--rule", "full:2", "--t", "3")
    assert code == 2
    assert "conflicts" in err


def test_full_rule_without_horizon_is_an_error(tmp_path, capsys):
    path = write_graph(tmp_path)
    code, _, err = run_cli(capsys, "sample", path, "--motif", "k3",
                           "--rule", "full", "--n", "2", "--estimator", "ht")
    assert code == 2
    assert "stage horizon" in err


def test_adaptive_rule_from_files(tmp_path, capsys):
    graph_path = write_graph(tmp_path, "1 2\n2 3\n", name="strip.txt")
    y_path = tmp_path / "y.txt"
    y_path.write_text("1 10\n2 1\n3 7\n")
    code, out, _ = run_cli(capsys, "big", "build", graph_path,
                           "--rule", "acs-b", "--y-values", str(y_path),
                           "--threshold", "5")
    assert code == 0
    expected = acs_big(__import__("bigs").graph.load_edge_list("1 2\n2 3\n"),
                       {"1": Fraction(10), "2": Fraction(1), "3": Fraction(7)},
                       Fraction(5), AncestorRule.acs_b())
    from bigs.big import dump_big
    assert out == dump_big(expected)

    code, _, err = run_cli(capsys, "big", "build", graph_path,
                           "--rule", "acs-b-dagger", "--y-values", str(y_path),
                           "--threshold", "5")
    assert code == 2
    assert "networks" in err

    code, _, err = run_cli(capsys, "big", "build", graph_path,
                           "--rule", "acs-b", "--threshold", "5")
    assert code == 2
    assert "--y-values" in err
