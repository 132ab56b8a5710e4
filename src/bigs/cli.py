"""Command-line experiment runner.

Subcommands: motifs (list or count motifs of a graph), big (build, check
or export an incidence graph), sample (evaluate estimators on one initial
sample), enumerate (exact moments over the whole design), simulate (Monte
Carlo moments), reproduce (built-in worked examples).

A run is described by an ExperimentConfig, assembled from defaults, an
optional JSON config file, and command-line flags, in that order of
precedence. Reports are CSV (with comment headers) or JSON, chosen by the
output file extension; both embed the config, the seed when one is used,
and the package version, and are byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

from . import __version__
from .big import (ACS_B, ACS_B_DAGGER, ACS_B_STAR, FULL, MOTIF_PLUS,
                  AncestorRule, Big, acs_big, check_feasibility, dump_big,
                  load_big, snowball_big)
from .builtins import (BUILTIN_NAMES, TABLE4_BIGS, THOMPSON1990,
                       Table1Reproduction, Table4Reproduction,
                       builtin_population, reproduce)
from .design import Design, parse_design_file, realize_sample_big
from .errors import BigsError
from .estimators import (INV_ALPHA, EstimatorSpec, WeightScheme, enumerate_moments,
                         estimate, monte_carlo_moments)
from .graph import Graph, load_edge_list
from .motifs import Motif, MotifClass, MotifSet, enumerate_motifs

_ACS_RULES = (ACS_B, ACS_B_STAR, ACS_B_DAGGER)


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved experiment description."""

    mode: str
    action: str | None = None
    input: str | None = None
    motif_classes: tuple[str, ...] = ()
    rule: str | None = None
    t: int | None = None
    design: str = "srswor"
    n: int | None = None
    estimators: tuple[str, ...] = ("ht",)
    weights: str = "equal-share"
    scale: str = "total"
    seed: int | None = None
    seeds: tuple[str, ...] | None = None
    replicates: int = 10000
    threshold: str | None = None
    y_values: str | None = None
    graph: str | None = None
    cap: int | None = None
    count: bool = False
    out: str | None = None

    def __post_init__(self):
        if self.cap is not None and self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")

    def to_dict(self) -> dict:
        out = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if value is None or value == ():
                continue
            if isinstance(value, tuple):
                value = list(value)
            out[field.name] = value
        return out


_TUPLE_FIELDS = {"motif_classes", "estimators", "seeds"}
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def load_config(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"config {path}: expected a JSON object")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"config {path}: unknown keys {sorted(unknown)}")
    for key in _TUPLE_FIELDS:
        if key in data and data[key] is not None:
            data[key] = tuple(str(v) for v in data[key])
    return data


def _merge_config(mode: str, ns: argparse.Namespace) -> ExperimentConfig:
    merged: dict = {"mode": mode}
    config_path = getattr(ns, "config", None)
    if config_path:
        merged.update(load_config(config_path))
    for key, value in vars(ns).items():
        if key in ("config", "mode") or value is None:
            continue
        if key in _TUPLE_FIELDS:
            value = tuple(str(v) for v in value)
        merged[key] = value
    merged["mode"] = mode
    return ExperimentConfig(**merged)


def _fmt(value, places: int = 6) -> str:
    return f"{float(value):.{places}f}"


def _write(cfg: ExperimentConfig, text: str) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _wants_json(cfg: ExperimentConfig, default_json: bool = False) -> bool:
    if cfg.out is None:
        return default_json
    return cfg.out.endswith(".json")


def _csv(cfg: ExperimentConfig, header: list[str], rows: list[list[str]],
         seed: int | None = None) -> str:
    lines = [f"# bigs {__version__}",
             "# config " + json.dumps(cfg.to_dict(), sort_keys=True,
                                      separators=(",", ":"))]
    if seed is not None:
        lines.append(f"# seed {seed}")
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_report(cfg: ExperimentConfig, body: dict, seed: int | None = None) -> str:
    report = {"version": __version__, "config": cfg.to_dict()}
    if seed is not None:
        report["seed"] = seed
    report.update(body)
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _looks_like_big_file(text: str) -> bool:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            return line.upper() == "FRAME"
    return False


def _ancestor_rule(cfg: ExperimentConfig) -> AncestorRule:
    if cfg.rule is None:
        raise ValueError("an ancestor rule is required here (--rule)")
    raw = cfg.rule.strip().lower()
    if cfg.t is not None and ":" not in raw:
        if raw in (FULL, MOTIF_PLUS):
            return AncestorRule(raw, cfg.t)
        return AncestorRule.parse(raw)
    rule = AncestorRule.parse(raw)
    if cfg.t is not None and rule.t is not None and rule.t != cfg.t:
        raise ValueError(f"--t {cfg.t} conflicts with rule {cfg.rule!r}")
    return rule


def _parse_y_values(path: str) -> dict[str, Fraction]:
    values: dict[str, Fraction] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path} line {lineno}: expected 'unit value'")
        try:
            values[parts[0]] = Fraction(parts[1])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{path} line {lineno}: bad value {parts[1]!r}") from None
    if not values:
        raise ValueError(f"{path}: no y-values")
    return values


def _merge_motif_sets(sets: list[MotifSet]) -> MotifSet:
    motifs: list[Motif] = []
    y: dict[str, Fraction] = {}
    for ms in sets:
        for m in ms:
            motifs.append(m)
            y[m.key] = ms.y(m.key)
    return MotifSet(motifs, y)


def _enumerate_classes(cfg: ExperimentConfig, g: Graph) -> list[tuple[MotifClass, MotifSet]]:
    if not cfg.motif_classes:
        raise ValueError("pass at least one --motif class "
                         "(k1, k2, s2, k3, k4, c4, s3, p3 or component:MAX)")
    out = []
    for text in cfg.motif_classes:
        cls = MotifClass.parse(text)
        out.append((cls, enumerate_motifs(g, cls)))
    return out


@dataclass(frozen=True)
class _Resolved:
    big: Big
    fallback_design: Design | None
    graph: Graph | None
    alpha_sizes: dict | None
    big_label: str


def _design_for(cfg: ExperimentConfig, frame, fallback: Design | None = None) -> Design | None:
    if cfg.design != "srswor":
        return parse_design_file(_read_text(cfg.design), frame)
    if cfg.n is not None:
        return Design.srswor(frame, cfg.n)
    return fallback


def _resolve(cfg: ExperimentConfig) -> _Resolved:
    """Turn the config's input (builtin, BIG file or edge list) into a Big."""
    if cfg.input is None:
        raise ValueError("no input given (edge-list path, BIG path or builtin name)")
    if cfg.input in BUILTIN_NAMES:
        pop = builtin_population(cfg.input)
        if cfg.input == THOMPSON1990:
            if cfg.rule is None or cfg.rule not in pop.bigs:
                raise ValueError("builtin thompson1990 needs --rule acs-b, "
                                 "acs-b-star or acs-b-dagger")
            label = cfg.rule
        else:
            label = f"t{cfg.t}" if cfg.t is not None else None
            if label not in pop.bigs:
                raise ValueError("builtin table4-bigs needs --t 2 or --t 4")
        alpha = None
        if pop.alpha_sizes is not None:
            alpha = pop.alpha_sizes.get(label)
        return _Resolved(pop.bigs[label], pop.design, pop.graph, alpha,
                         f"{cfg.input}:{label}")
    text = _read_text(cfg.input)
    if _looks_like_big_file(text):
        graph = load_edge_list(_read_text(cfg.graph)) if cfg.graph else None
        return _Resolved(load_big(text), None, graph, None, cfg.input)
    graph = load_edge_list(text)
    rule = _ancestor_rule(cfg)
    if rule.kind in _ACS_RULES:
        if cfg.y_values is None or cfg.threshold is None:
            raise ValueError("adaptive-cluster rules need --y-values FILE and "
                             "--threshold VALUE")
        y = _parse_y_values(cfg.y_values)
        big = acs_big(graph, y, Fraction(cfg.threshold), rule)
    else:
        motifs = _merge_motif_sets([ms for _, ms in _enumerate_classes(cfg, graph)])
        if not motifs:
            raise ValueError("no motifs of the requested classes in the graph")
        big = snowball_big(graph, motifs, rule)
    return _Resolved(big, None, graph, None, f"{cfg.input}:{rule.label}")


def _estimator_specs(cfg: ExperimentConfig, alpha_sizes: dict | None) -> list[EstimatorSpec]:
    specs = []
    for label in cfg.estimators:
        body = label.strip().lower()
        if body == "hh" or body == "rb:hh":
            body = f"{body}:{cfg.weights}"
        spec = EstimatorSpec.parse(body, scale=cfg.scale)
        if (alpha_sizes and spec.weights is not None
                and spec.weights.kind == INV_ALPHA
                and spec.weights.alpha_sizes is None):
            spec = replace(spec, weights=WeightScheme.inverse_alpha(alpha_sizes))
        specs.append(spec)
    if not specs:
        raise ValueError("no estimators requested")
    return specs


def _require_design(cfg: ExperimentConfig, resolved: _Resolved) -> Design:
    design = _design_for(cfg, resolved.big.frame, resolved.fallback_design)
    if design is None:
        raise ValueError("no design given: pass --n SIZE for simple random "
                         "sampling or --design FILE for an enumerated design")
    return design


def _new_seed() -> int:
    return random.SystemRandom().randrange(2 ** 32)


def _run_motifs(cfg: ExperimentConfig) -> int:
    if cfg.input is None:
        raise ValueError("no input graph given")
    if cfg.input in BUILTIN_NAMES:
        pop = builtin_population(cfg.input)
        if pop.graph is None:
            raise ValueError(f"builtin {cfg.input} has no population graph")
        g = pop.graph
    else:
        g = load_edge_list(_read_text(cfg.input))
    pairs = _enumerate_classes(cfg, g)
    if cfg.count:
        header = ["class", "count"]
        rows = [[cls.label, str(len(ms))] for cls, ms in pairs]
    else:
        header = ["class", "motif", "order", "members"]
        rows = []
        for cls, ms in pairs:
            for m in ms:
                rows.append([cls.label, m.key, str(len(m.members)),
                             " ".join(sorted(m.members))])
    if _wants_json(cfg):
        body = {"results": [dict(zip(header, row)) for row in rows]}
        _write(cfg, _json_report(cfg, body))
    else:
        _write(cfg, _csv(cfg, header, rows))
    return 0


def _run_big(cfg: ExperimentConfig) -> int:
    action = cfg.action
    if action in ("build", "export"):
        _write(cfg, dump_big(_resolve(cfg).big))
        return 0
    if action == "check":
        resolved = _resolve(cfg)
        design = _design_for(cfg, resolved.big.frame)
        report = check_feasibility(resolved.big, design=design, graph=resolved.graph,
                                   stages=cfg.t)
        body = {"feasible": report.feasible,
                "violations": list(report.violations),
                "checks": report.checks}
        if _wants_json(cfg, default_json=True):
            _write(cfg, _json_report(cfg, body))
        else:
            header = ["feasible", "checks", "violation"]
            rows = [[str(report.feasible).lower(), str(report.checks), v]
                    for v in report.violations] or \
                   [[str(report.feasible).lower(), str(report.checks), ""]]
            _write(cfg, _csv(cfg, header, rows))
        return 0 if report.feasible else 1
    raise ValueError(f"unknown big action {action!r} (build, check or export)")


def _run_sample(cfg: ExperimentConfig) -> int:
    resolved = _resolve(cfg)
    big = resolved.big
    design = _require_design(cfg, resolved)
    specs = _estimator_specs(cfg, resolved.alpha_sizes)
    seed = None
    if cfg.seeds:
        s0 = design.require_support(cfg.seeds)
    else:
        seed = cfg.seed if cfg.seed is not None else _new_seed()
        s0 = design.draw(random.Random(seed))
    sample = realize_sample_big(big, s0)
    results = [(spec, estimate(spec, design, big, sample, cap=cfg.cap)) for spec in specs]
    if _wants_json(cfg, default_json=True):
        body = {
            "big": resolved.big_label,
            "initial_sample": sorted(s0),
            "observed_motifs": list(sample.motifs),
            "out_ancestors": sorted(sample.out_ancestors),
            "results": [
                {"estimator": spec.label, "scale": spec.scale,
                 "estimate": float(report.estimate),
                 "exact": str(report.estimate),
                 "contributions": [
                     {"id": ident, "probability": str(prob), "share": str(part)}
                     for ident, prob, part in report.contributions]}
                for spec, report in results],
        }
        _write(cfg, _json_report(cfg, body, seed=seed))
    else:
        header = ["estimator", "scale", "estimate"]
        rows = [[spec.label, spec.scale, _fmt(report.estimate)]
                for spec, report in results]
        _write(cfg, _csv(cfg, header, rows, seed=seed))
    return 0


def _run_enumerate(cfg: ExperimentConfig) -> int:
    resolved = _resolve(cfg)
    big = resolved.big
    design = _require_design(cfg, resolved)
    specs = _estimator_specs(cfg, resolved.alpha_sizes)
    samples = [] if _wants_json(cfg) else None
    summaries = list(zip(specs, enumerate_moments(design, big, specs, cap=cfg.cap,
                                                  samples=samples)))
    header = ["estimator", "scale", "expectation", "variance", "mse", "support"]
    rows = [[spec.label, spec.scale, _fmt(mom.expectation), _fmt(mom.variance),
             _fmt(mom.mse), str(mom.support)] for spec, mom in summaries]
    if samples is not None:
        table = [{"sample": sorted(s0), "probability": str(p),
                  "estimates": {spec.label: {"value": float(est), "exact": str(est)}
                                for spec, est in zip(specs, estimates)}}
                 for s0, p, estimates in samples]
        body = {"big": resolved.big_label,
                "results": [
                    {"estimator": spec.label, "scale": spec.scale,
                     "expectation": float(mom.expectation),
                     "variance": float(mom.variance),
                     "mse": float(mom.mse),
                     "target": float(mom.target),
                     "exact": {"expectation": str(mom.expectation),
                               "variance": str(mom.variance),
                               "mse": str(mom.mse),
                               "target": str(mom.target)},
                     "support": mom.support}
                    for spec, mom in summaries],
                "samples": table}
        _write(cfg, _json_report(cfg, body))
    else:
        _write(cfg, _csv(cfg, header, rows))
    return 0


def _run_simulate(cfg: ExperimentConfig) -> int:
    resolved = _resolve(cfg)
    big = resolved.big
    design = _require_design(cfg, resolved)
    specs = _estimator_specs(cfg, resolved.alpha_sizes)
    seed = cfg.seed if cfg.seed is not None else _new_seed()
    summaries = [(spec, monte_carlo_moments(design, big, spec, cfg.replicates,
                                            seed, cap=cfg.cap)) for spec in specs]
    header = ["estimator", "scale", "replicates", "seed", "mean", "se_mean",
              "variance", "se_variance", "mse", "se_mse"]
    rows = [[spec.label, spec.scale, str(mc.replicates), str(mc.seed),
             _fmt(mc.mean), _fmt(mc.se_mean), _fmt(mc.variance),
             _fmt(mc.se_variance), _fmt(mc.mse), _fmt(mc.se_mse)]
            for spec, mc in summaries]
    if _wants_json(cfg):
        body = {"big": resolved.big_label,
                "results": [
                    {"estimator": spec.label, "scale": spec.scale,
                     "replicates": mc.replicates, "seed": mc.seed,
                     "mean": mc.mean, "se_mean": mc.se_mean,
                     "variance": mc.variance, "se_variance": mc.se_variance,
                     "mse": mc.mse, "se_mse": mc.se_mse,
                     "target": mc.target}
                    for spec, mc in summaries]}
        _write(cfg, _json_report(cfg, body, seed=seed))
    else:
        _write(cfg, _csv(cfg, header, rows, seed=seed))
    return 0


def _emit_table1(cfg: ExperimentConfig, rep: Table1Reproduction) -> None:
    labels = [col.label for col in rep.columns]
    if _wants_json(cfg):
        body = {"builtin": THOMPSON1990,
                "samples": [
                    {"sample": list(sample), "observed": list(observed),
                     "estimates": {col.label: float(col.estimates[i])
                                   for col in rep.columns}}
                    for i, (sample, observed)
                    in enumerate(zip(rep.samples, rep.observed))],
                "expectation": {col.label: float(col.expectation)
                                for col in rep.columns},
                "variance": {col.label: float(col.variance)
                             for col in rep.columns}}
        _write(cfg, _json_report(cfg, body))
        return
    header = ["sample", "observed"] + labels
    rows = []
    for i, (sample, observed) in enumerate(zip(rep.samples, rep.observed)):
        rows.append([" ".join(sample), " ".join(observed)]
                    + [_fmt(col.estimates[i], 3) for col in rep.columns])
    rows.append(["expectation", ""] + [_fmt(col.expectation, 3) for col in rep.columns])
    rows.append(["variance", ""] + [_fmt(col.variance, 3) for col in rep.columns])
    _write(cfg, _csv(cfg, header, rows))


def _emit_table4(cfg: ExperimentConfig, rep: Table4Reproduction) -> None:
    if _wants_json(cfg):
        body = {"builtin": TABLE4_BIGS,
                "initial_sample": list(rep.seeds),
                "results": [
                    {"big": big_label, "estimator": estimator,
                     "estimate": float(rep.value(big_label, estimator)),
                     "exact": str(rep.value(big_label, estimator))}
                    for big_label, estimator in rep.labels]}
        _write(cfg, _json_report(cfg, body))
        return
    header = ["big", "estimator", "estimate"]
    rows = [[big_label, estimator, _fmt(rep.value(big_label, estimator), 3)]
            for big_label, estimator in rep.labels]
    _write(cfg, _csv(cfg, header, rows))


def _run_reproduce(cfg: ExperimentConfig) -> int:
    if cfg.input is None:
        raise ValueError(f"pass a builtin name: {', '.join(BUILTIN_NAMES)}")
    rep = reproduce(cfg.input)
    if isinstance(rep, Table1Reproduction):
        _emit_table1(cfg, rep)
    else:
        _emit_table4(cfg, rep)
    return 0


_RUNNERS = {
    "motifs": _run_motifs,
    "big": _run_big,
    "sample": _run_sample,
    "enumerate": _run_enumerate,
    "simulate": _run_simulate,
    "reproduce": _run_reproduce,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    runner = _RUNNERS.get(config.mode)
    if runner is None:
        raise ValueError(f"unknown mode {config.mode!r}")
    return runner(config)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--out", help="output path (.json for JSON, else CSV)")


def _add_build_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--motif", dest="motif_classes", action="append",
                        metavar="CLASS",
                        help="motif class (k1,k2,s2,k3,k4,c4,s3,p3,component:MAX);"
                             " repeatable")
    parser.add_argument("--rule", help="ancestor rule: full[:T], motif-only, "
                                       "motif-plus:t, acs-b, acs-b-star, acs-b-dagger")
    parser.add_argument("--t", type=int, help="stage horizon or neighborhood radius")
    parser.add_argument("--threshold", help="adaptive-cluster threshold value")
    parser.add_argument("--y-values", dest="y_values",
                        help="file of 'unit value' lines for adaptive rules")


def _add_design_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--design", help="'srswor' (default) or an enumerated-design file")
    parser.add_argument("--n", type=int, help="initial sample size for srswor")


def _add_estimator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--estimator", dest="estimators", action="append",
                        metavar="SPEC",
                        help="ht, hh:equal-share, hh:inverse-alpha, modified-ht; "
                             "prefix rb: to Rao-Blackwellize; repeatable")
    parser.add_argument("--weights", help="scheme for a bare 'hh': equal-share "
                                          "or inverse-alpha")
    parser.add_argument("--scale", choices=["total", "mean"],
                        help="report totals (default) or per-unit means")
    parser.add_argument("--cap", type=int, help="design enumeration cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigs",
        description="Graph sampling with bipartite incidence representations: "
                    "build ancestor graphs, compute inclusion probabilities, "
                    "and evaluate design-based estimators.")
    parser.add_argument("--version", action="version", version=f"bigs {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("motifs", help="enumerate or count motifs of a graph")
    p.add_argument("input", nargs="?", help="edge-list file or builtin name")
    p.add_argument("--motif", dest="motif_classes", action="append", metavar="CLASS")
    p.add_argument("--count", action="store_const", const=True,
                   help="emit per-class counts only")
    _add_common(p)

    p = sub.add_parser("big", help="build, check or export an incidence graph")
    p.add_argument("action", choices=["build", "check", "export"])
    p.add_argument("input", nargs="?", help="edge list, BIG file or builtin name")
    _add_build_flags(p)
    _add_design_flags(p)
    p.add_argument("--graph", help="population edge list for empirical checks")
    _add_common(p)

    p = sub.add_parser("sample", help="evaluate estimators on one initial sample")
    p.add_argument("input", nargs="?", help="edge list, BIG file or builtin name")
    _add_build_flags(p)
    _add_design_flags(p)
    _add_estimator_flags(p)
    p.add_argument("--seeds", nargs="+", help="explicit initial sample units")
    p.add_argument("--seed", type=int, help="RNG seed used to draw the initial sample")
    _add_common(p)

    p = sub.add_parser("enumerate", help="exact moments over the whole design")
    p.add_argument("input", nargs="?", help="edge list, BIG file or builtin name")
    _add_build_flags(p)
    _add_design_flags(p)
    _add_estimator_flags(p)
    _add_common(p)

    p = sub.add_parser("simulate", help="Monte Carlo moments")
    p.add_argument("input", nargs="?", help="edge list, BIG file or builtin name")
    _add_build_flags(p)
    _add_design_flags(p)
    _add_estimator_flags(p)
    p.add_argument("--replicates", type=int, help="number of replicate draws")
    p.add_argument("--seed", type=int, help="RNG seed (generated and recorded if absent)")
    _add_common(p)

    p = sub.add_parser("reproduce", help="run a built-in worked example")
    p.add_argument("input", nargs="?", metavar="builtin",
                   help=", ".join(BUILTIN_NAMES))
    p.add_argument("--t", type=int, help=argparse.SUPPRESS)
    _add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        config = _merge_config(ns.mode, ns)
        return run(config)
    except (BigsError, ValueError, KeyError, OSError) as exc:
        detail = exc.args[0] if exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
