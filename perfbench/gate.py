"""The exact-output gate.

Each job's exact outputs are turned into a canonical string (sets sorted,
fractions as ``str``) and hashed with SHA-256. The digest is compared with
the one recorded in ``expected.json`` when that file has one for the
(workload, seed, job); every job also passes its own self-checks, the
Monte Carlo rule, and, for incidence jobs, the first-principles oracles in
``tests/oracles.py``, so seeds without a recording are still checked.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

from bigs import (AcsObservation, Big, DeltaMatrix, EstimatorReport,
                  FeasibilityReport, MomentSummary, MotifSet, SampleBig,
                  SampleGraph)
from bigs.builtins import Table1Reproduction, Table4Reproduction

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
DIGEST_CHARS = 16
MC_SE_LIMIT = 5


def _s(values) -> list[str]:
    return sorted(str(v) for v in values)


def canon(obj) -> str:
    """Canonical text of one exact output; independent of set order."""
    if isinstance(obj, bytes):
        return obj.decode()
    if isinstance(obj, (str, int, Fraction)):
        return str(obj)
    if isinstance(obj, MotifSet):
        return str([(m.key, None if m.members is None else _s(m.members), str(obj.y(m.key)))
                    for m in obj])
    if isinstance(obj, Big):
        return str((obj.frame, obj.rule.label, obj.stages_required, list(obj.edges()),
                    canon(obj.motifs)))
    if isinstance(obj, SampleBig):
        return str((_s(obj.seeds), obj.motifs, sorted(obj.edges), _s(obj.out_ancestors)))
    if isinstance(obj, SampleGraph):
        return str((obj.mode, _s(obj.seeds), obj.stages, _s(obj.nodes), sorted(obj.edges),
                    _s(obj.resolved), sorted(obj.waves.items())))
    if isinstance(obj, AcsObservation):
        return str((_s(obj.observed), _s(obj.initial), _s(obj.via_network)))
    if isinstance(obj, EstimatorReport):
        return str((str(obj.estimate), obj.scale,
                    [(i, str(p), str(part)) for i, p, part in obj.contributions]))
    if isinstance(obj, MomentSummary):
        return str((str(obj.expectation), str(obj.variance), str(obj.mse), str(obj.target),
                    obj.scale, obj.support))
    if isinstance(obj, DeltaMatrix):
        return str((obj.keys, sorted((k, l, str(v)) for (k, l), v in obj.entries.items())))
    if isinstance(obj, FeasibilityReport):
        return str((obj.violations, obj.checks))
    if isinstance(obj, Table1Reproduction):
        return str((obj.samples, obj.observed,
                    [(c.label, [str(e) for e in c.estimates], str(c.expectation),
                      str(c.variance)) for c in obj.columns]))
    if isinstance(obj, Table4Reproduction):
        return str((obj.seeds, obj.labels, [str(obj.estimates[k]) for k in obj.labels]))
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(exact) -> str:
    h = hashlib.sha256()
    for label, obj in exact:
        h.update(label.encode())
        h.update(b"\0")
        h.update(canon(obj).encode())
        h.update(b"\0")
    return h.hexdigest()[:DIGEST_CHARS]


def mc_ok(summary, target: Fraction) -> bool:
    """Mean within MC_SE_LIMIT standard errors of the exact target."""
    slack = MC_SE_LIMIT * summary.se_mean + 1e-9 * max(1.0, abs(float(target)))
    return math.isfinite(summary.mean) and abs(summary.mean - float(target)) <= slack


def load_oracles(root: Path):
    """tests/oracles.py as a module, read without importing the package."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_failures(oracles, inp: dict, exact: dict) -> list[str]:
    """Compare an incidence job's SRSWOR moments with the oracles."""
    frame = inp["frame"]
    beta = {k: frozenset(v) for k, v in inp["beta"].items()}
    y = {k: Fraction(v) for k, v in inp["y"].items()}
    refs = {"ht": oracles.oracle_ht_moments(frame, inp["n"], beta, y)}
    for scheme in ("equal-share", "inverse-alpha"):
        refs[f"hh:{scheme}"] = oracles.oracle_hh_moments(frame, inp["n"], beta, y, scheme)
    bad = []
    for text, (expectation, variance) in refs.items():
        mom = exact[f"moments {text}"]
        if (mom.expectation, mom.variance) != (expectation, variance):
            bad.append(f"oracle {text}")
    return bad


def check(job, inp: dict, oracles) -> list[str]:
    """Reasons the job fails the gate, apart from the recorded digest."""
    bad = [name for name, ok in job.checks if not ok]
    bad += [f"monte carlo {name}" for name, summary, target in job.mc
            if not mc_ok(summary, target)]
    if inp.get("kind") == "incidence":
        bad += oracle_failures(oracles, inp, dict(job.exact))
    return bad


def recorded_digests(workload: str, seed: int) -> list[str]:
    """Digests recorded in expected.json for this workload and seed, by job."""
    if not EXPECTED.exists():
        return []
    return json.loads(EXPECTED.read_text())["digests"].get(workload, {}).get(str(seed), [])


class Gate:
    """check() plus a comparison with the recorded digests, if any."""

    def __init__(self, root: Path, recorded: list[str] = ()):
        self.recorded = recorded
        self.oracles = load_oracles(root)

    def failures(self, index: int, job, inp: dict, error) -> tuple[str, list[str]]:
        """(digest, reasons the job fails); error is what the job raised."""
        if error is not None:
            return "", [error]
        try:
            got = digest(job.exact)
            bad = check(job, inp, self.oracles)
        except Exception as exc:  # an output the gate cannot read is a failure
            return "", [f"gate: {type(exc).__name__}: {exc}"]
        if index < len(self.recorded) and got != self.recorded[index]:
            bad.append(f"digest {got} != recorded {self.recorded[index]}")
        return got, bad
