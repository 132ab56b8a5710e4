"""The package's public name list and its dependencies."""

import os
import subprocess
import sys
from pathlib import Path

import bigs

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_imports():
    assert len(set(bigs.__all__)) == len(bigs.__all__)
    for name in bigs.__all__:
        assert hasattr(bigs, name), name


def test_removed_aliases_are_not_exported():
    for name in ("enumerate_design", "exclusion_probability", "modified_ht_acs",
                 "snowball_observation_distance", "sample_evaluator", "induced_inclusion",
                 "hypernode_transform", "HypernodeGraph", "second_order_inclusion",
                 "induced_ht_evaluator"):
        assert name not in bigs.__all__
        assert not hasattr(bigs, name)
    for name in ("exclusion", "unit_inclusion", "pair_inclusion"):
        assert not hasattr(bigs.Design, name)


def test_import_loads_only_the_standard_library():
    # Compared with a snapshot taken at interpreter start, since site hooks
    # may already have loaded third-party modules before any import of ours.
    code = ("import sys; before = set(sys.modules); import bigs, bigs.cli; "
            "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    loaded = set(out.stdout.split()) - {"bigs"}
    assert loaded <= sys.stdlib_module_names, sorted(loaded - sys.stdlib_module_names)
