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
import functools
import json
import random
import sys
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import __version__
from .big import (ACS_B, ACS_B_DAGGER, ACS_B_STAR, FULL, MOTIF_PLUS,
                  AncestorRule, Big, acs_big, check_feasibility, dump_big,
                  load_big, snowball_big)
from .builtins import (BUILTIN_NAMES, TABLE4_BIGS, THOMPSON1990,
                       Table1Reproduction, Table4Reproduction,
                       builtin_population, reproduce)
from .design import Design, parse_design_file, realize_sample_big
from .errors import BigsError, ParseError, exact, records
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
_INT_FIELDS = {"n", "t", "seed", "replicates", "cap"}
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def load_config(path: str) -> dict:
    """The config file's keys, null ones left unset; every other value must
    have its field's JSON type: a list of strings, an integer, true or
    false for ``count``, a number or a string for ``threshold`` and a
    string for every other field."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"config {path}: expected a JSON object")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"config {path}: unknown keys {sorted(unknown)}")
    checked = {}
    for key, value in data.items():
        if value is None:
            continue
        if key in _TUPLE_FIELDS:
            want = "a list of strings"
            ok = type(value) is list and all(type(v) is str for v in value)
        elif key in _INT_FIELDS:
            want, ok = "an integer", type(value) is int
        elif key == "count":
            want, ok = "true or false", type(value) is bool
        elif key == "threshold":
            want, ok = "a number or a string", type(value) in (int, float, str)
        else:
            want, ok = "a string", type(value) is str
        if not ok:
            raise ValueError(f"config {path}: key {key!r} expects {want}")
        checked[key] = tuple(value) if key in _TUPLE_FIELDS else value
    return checked


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


def _emit(cfg: ExperimentConfig, header: list[str], rows: list[list[str]],
          body: Callable[[], dict], seed: int | None = None,
          default_json: bool = False) -> None:
    """Write a report to ``--out`` or stdout: ``body()`` as JSON when the
    output path ends in .json (with no path, when ``default_json``), else
    ``header`` and ``rows`` as CSV.

    Both carry the package version, the config and the seed when one is
    used, the CSV as ``#`` comment lines.
    """
    if _wants_json(cfg, default_json):
        report = {"version": __version__, "config": cfg.to_dict()}
        if seed is not None:
            report["seed"] = seed
        report.update(body())
        _write(cfg, _json(report) + "\n")
        return
    lines = [f"# bigs {__version__}",
             "# config " + json.dumps(cfg.to_dict(), sort_keys=True,
                                      separators=(",", ":"))]
    if seed is not None:
        lines.append(f"# seed {seed}")
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    _write(cfg, "\n".join(lines) + "\n")


_ascii = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _json(value, pad: str = "\n") -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes
    it, where ``pad`` is the line break and indent of the value's own
    line. It stands in for that call because with ``indent`` set the
    stdlib takes its slower pure-Python encoder. A callable stands for
    text it renders itself: it is called with ``pad``."""
    if isinstance(value, str):
        return _ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        items = [_json(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{pad}]" if items else "[]"
    if isinstance(value, dict):
        # Non-str keys raise TypeError in _ascii; no report has them.
        items = [f"{_ascii(key)}: {_json(value[key], inner)}" for key in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}" if items else "{}"
    if callable(value):
        return value(pad)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _sample_rows(labels: list[str], samples: list) -> Callable[[str], str]:
    """The ``samples`` list of the enumerate report, rendered for ``_json``
    straight from (initial sample, probability, estimates) tuples through
    one row template: the bytes of the equivalent dicts, without them."""
    # A repeated label keeps its last estimate, as the dict would.
    order = sorted({label: j for j, label in enumerate(labels)}.items())

    def render(pad: str) -> str:
        if not samples:
            return "[]"
        p1, p2, p3, p4 = (pad + "  " * depth for depth in range(1, 5))
        # Fractions print as digits, "-" and "/": nothing to escape.
        estimates = f",{p3}".join(f'{_ascii(label)}: {{{p4}"exact": "%s",{p4}"value": %s{p3}}}'
                                  for label, _ in order)
        row = (f'{{{p2}"estimates": {{{p3}{estimates}{p2}}},{p2}"probability": "%s",'
               f'{p2}"sample": %s{p1}}}')
        rows = []
        for s0, p, values in samples:
            numbers = [text for _, j in order
                       for text in (values[j], float.__repr__(float(values[j])))]
            units = f",{p3}".join(map(_ascii, sorted(s0)))
            rows.append(row % (*numbers, p, f"[{p3}{units}{p2}]" if units else "[]"))
        return f"[{p1}{f',{p1}'.join(rows)}{pad}]"

    return render


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _looks_like_big_file(text: str) -> bool:
    for _, tokens in records(text):
        return len(tokens) == 1 and tokens[0].upper() == "FRAME"
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
    try:
        for lineno, parts in records(_read_text(path)):
            if len(parts) != 2:
                raise ParseError("expected 'unit value'", line=lineno)
            values[parts[0]] = exact(parts[1], "value", lineno)
    except ParseError as exc:
        raise ValueError(f"{path} {exc}") from None
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
        if cfg.n is not None:
            raise ValueError(f"--n {cfg.n} conflicts with design file {cfg.design!r}")
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
        big = acs_big(graph, y, cfg.threshold, rule)
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


def _experiment(cfg: ExperimentConfig) -> tuple[_Resolved, Design, list[EstimatorSpec]]:
    """The resolved input, the design and the estimator specs of a run."""
    resolved = _resolve(cfg)
    design = _design_for(cfg, resolved.big.frame, resolved.fallback_design)
    if design is None:
        raise ValueError("no design given: pass --n SIZE for simple random "
                         "sampling or --design FILE for an enumerated design")
    return resolved, design, _estimator_specs(cfg, resolved.alpha_sizes)


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
        results = [[cls.label, len(ms)] for cls, ms in pairs]
    else:
        header = ["class", "motif", "order", "members"]
        results = [[cls.label, m.key, len(m.members), sorted(m.members)]
                   for cls, ms in pairs for m in ms]
    rows = [[" ".join(v) if isinstance(v, list) else str(v) for v in row] for row in results]
    _emit(cfg, header, rows, lambda: {"results": [dict(zip(header, row)) for row in results]})
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
        rows = [[str(report.feasible).lower(), str(report.checks), v]
                for v in report.violations or [""]]
        _emit(cfg, ["feasible", "checks", "violation"], rows,
              lambda: {"feasible": report.feasible,
                       "violations": list(report.violations),
                       "checks": report.checks},
              default_json=True)
        return 0 if report.feasible else 1
    raise ValueError(f"unknown big action {action!r} (build, check or export)")


def _run_sample(cfg: ExperimentConfig) -> int:
    resolved, design, specs = _experiment(cfg)
    big = resolved.big
    seed = None
    if cfg.seeds:
        s0 = design.require_support(cfg.seeds)
    else:
        seed = cfg.seed if cfg.seed is not None else _new_seed()
        s0 = design.draw(random.Random(seed))
    sample = realize_sample_big(big, s0)
    results = [(spec, estimate(spec, design, big, sample, cap=cfg.cap)) for spec in specs]

    def body() -> dict:
        return {
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

    rows = [[spec.label, spec.scale, _fmt(report.estimate)] for spec, report in results]
    _emit(cfg, ["estimator", "scale", "estimate"], rows, body, seed=seed, default_json=True)
    return 0


def _run_enumerate(cfg: ExperimentConfig) -> int:
    resolved, design, specs = _experiment(cfg)
    # Only the JSON report lists the per-sample estimates.
    samples = [] if _wants_json(cfg) else None
    summaries = list(zip(specs, enumerate_moments(design, resolved.big, specs,
                                                  cap=cfg.cap, samples=samples)))
    header = ["estimator", "scale", "expectation", "variance", "mse", "support"]
    rows = [[spec.label, spec.scale, _fmt(mom.expectation), _fmt(mom.variance),
             _fmt(mom.mse), str(mom.support)] for spec, mom in summaries]

    def body() -> dict:
        return {"big": resolved.big_label,
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
                "samples": _sample_rows([spec.label for spec in specs], samples)}
    _emit(cfg, header, rows, body)
    return 0


def _run_simulate(cfg: ExperimentConfig) -> int:
    resolved, design, specs = _experiment(cfg)
    seed = cfg.seed if cfg.seed is not None else _new_seed()
    summaries = [(spec, monte_carlo_moments(design, resolved.big, spec, cfg.replicates,
                                            seed, cap=cfg.cap)) for spec in specs]
    header = ["estimator", "scale", "replicates", "seed", "mean", "se_mean",
              "variance", "se_variance", "mse", "se_mse"]
    rows = [[spec.label, spec.scale, str(mc.replicates), str(mc.seed),
             _fmt(mc.mean), _fmt(mc.se_mean), _fmt(mc.variance),
             _fmt(mc.se_variance), _fmt(mc.mse), _fmt(mc.se_mse)]
            for spec, mc in summaries]
    _emit(cfg, header, rows,
          lambda: {"big": resolved.big_label,
                   "results": [{"estimator": spec.label, **asdict(mc)}
                               for spec, mc in summaries]},
          seed=seed)
    return 0


def _emit_table1(cfg: ExperimentConfig, rep: Table1Reproduction) -> None:
    def body() -> dict:
        return {"builtin": THOMPSON1990,
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
    header = ["sample", "observed"] + [col.label for col in rep.columns]
    rows = []
    for i, (sample, observed) in enumerate(zip(rep.samples, rep.observed)):
        rows.append([" ".join(sample), " ".join(observed)]
                    + [_fmt(col.estimates[i], 3) for col in rep.columns])
    rows.append(["expectation", ""] + [_fmt(col.expectation, 3) for col in rep.columns])
    rows.append(["variance", ""] + [_fmt(col.variance, 3) for col in rep.columns])
    _emit(cfg, header, rows, body)


def _emit_table4(cfg: ExperimentConfig, rep: Table4Reproduction) -> None:
    def body() -> dict:
        return {"builtin": TABLE4_BIGS,
                "initial_sample": list(rep.seeds),
                "results": [
                    {"big": big_label, "estimator": estimator,
                     "estimate": float(rep.value(big_label, estimator)),
                     "exact": str(rep.value(big_label, estimator))}
                    for big_label, estimator in rep.labels]}
    rows = [[big_label, estimator, _fmt(rep.value(big_label, estimator), 3)]
            for big_label, estimator in rep.labels]
    _emit(cfg, ["big", "estimator", "estimate"], rows, body)


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call; parsing leaves it unchanged."""
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
    ns = build_parser().parse_args(argv)
    try:
        config = _merge_config(ns.mode, ns)
        return run(config)
    except (BigsError, ValueError, KeyError, OSError) as exc:
        detail = exc.args[0] if exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
