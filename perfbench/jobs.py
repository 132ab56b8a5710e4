"""One pipeline per workload, run over one generated input per job.

Every call into the library goes through ``Job.call`` with a span name
``<module>.<function>``, so the traced run can time it; the untraced run
calls straight through. A pipeline appends the exact outputs it wants
hashed to ``Job.exact``, Monte Carlo summaries with their exact targets to
``Job.mc``, and self-checks that need no recorded digest to ``Job.checks``.
Hashing and checking happen after the job's timer stops.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from bigs import (AncestorRule, Design, EstimatorSpec, MotifClass, MotifSet,
                  WeightScheme, acs_big, acs_sample, check_feasibility,
                  delta_matrix, dump_big, enumerate_motifs, exact_moments,
                  first_order_inclusion, hh_estimate, ht_estimate,
                  induced_ht_moments, load_big, load_edge_list,
                  monte_carlo_moments, parse_design_file, rao_blackwellize,
                  realize_sample_big, reproduce, snowball_big, snowball_sample,
                  srswor_equal_share_delta)
from bigs import cli
from spans import Job

CENSUS_CLASSES = ("k1", "k2", "s2", "k3", "component:6")


def _build_and_check(job: Job, g, motifs, rule_text: str, design: Design):
    big = job.call("big.snowball_big", snowball_big, g, motifs, AncestorRule.parse(rule_text))
    job.count("big.edges", big.n_edges)
    report = job.call("big.check_feasibility", check_feasibility, big, design, g)
    job.count("big.checks", report.checks)
    job.count("big.violations", len(report.violations))
    job.exact.append((f"big {rule_text}", big))
    job.checks.append((f"feasible {rule_text}", report.feasible))
    return big


def _point_estimates(job: Job, big, design: Design, seeds, label: str):
    sample = job.call("design.realize_sample_big", realize_sample_big, big, seeds)
    ht = job.call("estimators.point", ht_estimate, sample, design, big)
    hh = job.call("estimators.point", hh_estimate, sample, design, big,
                  WeightScheme.equal_share())
    job.exact.append((f"sample {label}", sample))
    job.exact.append((f"ht {label}", ht))
    job.exact.append((f"hh {label}", hh))


def motif_census(job: Job, inp: dict) -> None:
    g = job.call("graph.load_edge_list", load_edge_list, inp["edges"])
    job.count("graph.nodes", g.n_nodes)
    job.count("graph.edges", g.n_edges)
    found = {}
    for label in CENSUS_CLASSES + (inp["four_node"],):
        ms = job.call("motifs.enumerate_motifs", enumerate_motifs, g, MotifClass.parse(label))
        job.count("motifs.found", len(ms))
        job.exact.append((f"motifs {label}", ms))
        found[label] = ms
    design = Design.srswor(g.labels, inp["n"])
    plans = (("k3", "full:2"), (inp["four_node"], "motif-only"), ("s2", "motif-plus:1"))
    bigs = []
    for label, rule in plans:
        big = _build_and_check(job, g, found[label], rule, design)
        for key in big.motifs.keys():
            pi = job.call("design.first_order_inclusion", first_order_inclusion,
                          design, big, key)
            job.exact.append((f"pi {rule} {key}", pi))
        bigs.append(big)
    sample = job.call("sampling.snowball_sample", snowball_sample, g, inp["sample"], 2)
    job.count("sampling.observed_nodes", len(sample.nodes))
    job.exact.append(("snowball", sample))
    for (label, rule), big in zip(plans, bigs):
        _point_estimates(job, big, design, inp["sample"], rule)
        text = job.call("big.dump_big", dump_big, big)
        job.count("big.file_bytes", len(text))
        back = job.call("big.load_big", load_big, text)
        job.exact.append((f"file {rule}", text))
        job.checks.append((f"round trip {rule}", list(back.edges()) == list(big.edges())))


# Every job builds all three rules: rotating one rule per job gives a
# three-mode job time whose median jumps between modes from run to run.
SNOWBALL_RULES = ("full:2", "motif-only", "motif-plus:1")


def sparse_snowball(job: Job, inp: dict) -> None:
    g = job.call("graph.load_edge_list", load_edge_list, inp["edges"])
    job.count("graph.nodes", g.n_nodes)
    job.count("graph.edges", g.n_edges)
    motifs = job.call("motifs.enumerate_motifs", enumerate_motifs, g,
                      MotifClass.parse("component:4"))
    job.count("motifs.found", len(motifs))
    job.exact.append(("motifs", motifs))
    design = Design.srswor(g.labels, inp["n"])
    bigs = [_build_and_check(job, g, motifs, rule, design) for rule in SNOWBALL_RULES]
    big = bigs[0]
    for text in ("ht", "hh:inverse-alpha"):
        mc = job.call("estimators.monte_carlo_moments", monte_carlo_moments, design, big,
                      EstimatorSpec.parse(text), inp["replicates"], inp["mc_seed"])
        job.count("estimators.replicates", mc.replicates)
        job.mc.append((text, mc, big.theta()))
    sample = job.call("sampling.snowball_sample", snowball_sample, g, inp["sample"],
                      big.stages_required)
    job.count("sampling.observed_nodes", len(sample.nodes))
    job.exact.append(("snowball", sample))
    _point_estimates(job, big, design, inp["sample"], SNOWBALL_RULES[0])


def _moments(job: Job, design: Design, big, text: str, label: str = "moments"):
    mom = job.call("estimators.exact_moments", exact_moments, design, big,
                   EstimatorSpec.parse(text))
    job.count("design.support_points", mom.support)
    job.exact.append((f"{label} {text}", mom))
    return mom


def _incidence_job(job: Job, inp: dict) -> None:
    big = job.call("big.load_big", load_big, inp["big"])
    job.count("big.edges", big.n_edges)
    srs = Design.srswor(big.frame, inp["n"])
    for text in ("ht", "hh:equal-share", "hh:inverse-alpha"):
        mom = _moments(job, srs, big, text)
        job.checks.append((f"unbiased {text}", mom.expectation == big.theta()))
    job.exact.append(("delta", job.call("estimators.delta_matrix", delta_matrix, big, srs,
                                        WeightScheme.equal_share())))
    job.exact.append(("delta closed form", job.call("estimators.srswor_equal_share_delta",
                                                    srswor_equal_share_delta, big, srs)))
    listed = job.call("design.parse_design_file", parse_design_file, inp["design"], big.frame)
    mom = _moments(job, listed, big, "ht", label="listed")
    mc = job.call("estimators.monte_carlo_moments", monte_carlo_moments, listed, big,
                  EstimatorSpec.parse("ht"), inp["replicates"], inp["mc_seed"])
    job.count("estimators.replicates", mc.replicates)
    job.mc.append(("enumerated ht", mc, mom.expectation))
    # The report embeds its input and output paths, so both are relative
    # to the worker's scratch directory to keep the bytes reproducible.
    Path("job.big").write_text(inp["big"])
    status = job.call("cli.main", cli.main,
                      ["enumerate", "job.big", "--n", str(inp["n"]), "--out", "report.json"])
    report = Path("report.json").read_bytes()
    job.count("cli.report_bytes", len(report))
    job.checks.append(("cli status", status == 0))
    job.exact.append(("cli report", report))


def _acs_job(job: Job, inp: dict) -> None:
    grid = job.call("graph.load_edge_list", load_edge_list, inp["grid"])
    job.count("graph.nodes", grid.n_nodes)
    job.count("graph.edges", grid.n_edges)
    y = {u: Fraction(v) for u, v in (line.split() for line in inp["y"].splitlines())}
    threshold = inp["threshold"]
    design = Design.srswor(grid.labels, inp["n"])
    bigs = {}
    for rule in ("acs-b", "acs-b-star"):
        big = job.call("big.acs_big", acs_big, grid, y, threshold, AncestorRule.parse(rule))
        job.count("big.edges", big.n_edges)
        job.exact.append((f"big {rule}", big))
        bigs[rule] = big
    # Only the self-only restriction is feasible: selecting an edge grid
    # does not observe the networks that acs-b adds to its ancestors.
    report = job.call("big.check_feasibility", check_feasibility, bigs["acs-b-star"], design, grid)
    job.count("big.checks", report.checks)
    job.count("big.violations", len(report.violations))
    job.checks.append(("feasible acs-b-star", report.feasible))
    modified = _moments(job, design, bigs["acs-b"], "modified-ht")
    rb = _moments(job, design, bigs["acs-b"], "rb:modified-ht")
    _moments(job, design, bigs["acs-b-star"], "ht")
    job.checks.append(("rb keeps the expectation", rb.expectation == modified.expectation))
    mc = job.call("estimators.monte_carlo_moments", monte_carlo_moments, design, bigs["acs-b"],
                  EstimatorSpec.parse("modified-ht"), inp["replicates"], inp["mc_seed"])
    job.count("estimators.replicates", mc.replicates)
    job.mc.append(("modified-ht", mc, modified.expectation))
    obs = job.call("sampling.acs_sample", acs_sample, grid, y, threshold, inp["sample"])
    job.count("sampling.observed_nodes", len(obs.observed))
    job.exact.append(("acs sample", obs))
    sample = job.call("design.realize_sample_big", realize_sample_big, bigs["acs-b"],
                      inp["sample"])
    report = job.call("estimators.rao_blackwellize", rao_blackwellize,
                      EstimatorSpec.parse("rb:modified-ht"), design, bigs["acs-b"], sample)
    job.exact.append(("rao-blackwell", report))
    for name in ("thompson1990", "table4-bigs"):
        job.exact.append((f"reproduce {name}", job.call("builtins.reproduce", reproduce, name)))


def _planted_job(job: Job, inp: dict) -> None:
    g = job.call("graph.load_edge_list", load_edge_list, inp["edges"])
    job.count("graph.nodes", g.n_nodes)
    job.count("graph.edges", g.n_edges)
    sets = []
    for label in ("s2", "k3"):
        ms = job.call("motifs.enumerate_motifs", enumerate_motifs, g, MotifClass.parse(label))
        job.count("motifs.found", len(ms))
        job.exact.append((f"motifs {label}", ms))
        sets.append(ms)
    motifs = MotifSet([m for ms in sets for m in ms])
    big = job.call("big.snowball_big", snowball_big, g, motifs, AncestorRule.motif_only())
    job.count("big.edges", big.n_edges)
    job.exact.append(("big motif-only", big))
    _moments(job, Design.srswor(g.labels, inp["n"]), big, "ht")
    for n in inp["induced_n"]:
        induced = job.call("estimators.induced_ht_moments", induced_ht_moments, motifs,
                           Design.srswor(g.labels, n))
        job.exact.append((f"induced n={n}", induced))


def exact_moments_job(job: Job, inp: dict) -> None:
    if inp["kind"] == "incidence":
        _incidence_job(job, inp)
    elif inp["kind"] == "acs":
        _acs_job(job, inp)
    else:
        _planted_job(job, inp)


PIPELINES = {
    "motif-census": motif_census,
    "sparse-snowball": sparse_snowball,
    "exact-moments": exact_moments_job,
}
