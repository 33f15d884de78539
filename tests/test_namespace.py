"""The numpy boundary and the lazy package namespace: `import qompress` and
pricing load no numpy, and every name the package exported before its
namespace went lazy still resolves to the same object."""

from __future__ import annotations

import importlib
import io
import os
import subprocess
import sys
import textwrap
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import qompress
from qompress.cli import main

SRC = Path(qompress.__file__).resolve().parent.parent

# the names the package exported when its __init__ imported every module
# eagerly, by the module it imported each one from
EAGER_EXPORTS = {
    "compress": (
        "BACKENDS", "BackendCost", "CircuitFormatError", "CircuitIR", "CompressionError",
        "CostReport", "Gate", "QuditLayout", "classify_gates", "cost_report", "parse_circuit",
        "parse_layout", "qfa_circuit", "qfa_layout", "simulate_compressed", "trigger_sets",
    ),
    "mcz": (
        "BELL_LABELS", "BsmModel", "BsmOutcome", "TriggerSet", "bell_measurement", "bell_vector",
        "correction_unitary", "multi_level_cz", "prepare_ancillas", "trigger_pattern",
        "two_level_cz",
    ),
    "optics": (
        "ModeUnitary", "PhotonConfig", "TwoPhotonState", "build_smr_mesh", "evolve_two_photon",
        "pair_swap_mesh", "postselect_coincidence", "route_with_ancilla", "smr_abstract",
    ),
    "qstate": (
        "PureState", "Unitary", "apply", "fidelity_up_to_phase", "hadamard",
        "permute_subsystems", "random_state", "tensor", "truncate_subsystem",
    ),
    "schemes": (
        "SCHEMES", "BranchOutcome", "SchemeResult", "run_state_dependent",
        "run_state_independent_joint", "success_probability", "verified_two_level_cz",
    ),
}
EAGER_MODULES = ("compress", "mcz", "optics", "qstate", "schemes")


def fresh_python(code: str) -> str:
    """Run `code` in a new interpreter with this checkout's package on the
    path; returns its stdout and fails on a nonzero exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_and_pricing_load_no_numpy():
    # numpy set to None in sys.modules makes any import of it raise
    out = fresh_python("""
        import contextlib, runpy, sys
        sys.modules["numpy"] = None
        import qompress
        from qompress import cost_report, qfa_circuit, qfa_layout
        cost_report(qfa_circuit(), qfa_layout())
        sys.argv = ["qompress", "compress", "--format", "json"]
        with contextlib.suppress(SystemExit):
            runpy.run_module("qompress.cli", run_name="__main__")
        loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "numpy" and mod)
        assert not loaded, loaded
    """)
    normal = io.StringIO()
    with redirect_stdout(normal):
        assert main(["compress", "--format", "json"]) == 0
    assert out == normal.getvalue()


def test_names_bind_on_first_read():
    fresh_python("""
        import sys
        import qompress
        assert [m for m in sys.modules if m.startswith("qompress.")] == []
        assert "run_state_dependent" not in vars(qompress)
        assert set(qompress.__all__) <= set(dir(qompress))
        f = qompress.run_state_dependent
        assert vars(qompress)["run_state_dependent"] is f
        assert vars(qompress)["schemes"] is sys.modules["qompress.schemes"]
    """)


def test_every_eager_export_is_the_same_object():
    names = {name for names in EAGER_EXPORTS.values() for name in names}
    assert names | set(EAGER_MODULES) <= set(qompress.__all__)
    star: dict = {}
    exec("from qompress import *", star)
    for module, exported in EAGER_EXPORTS.items():
        home = importlib.import_module(f"qompress.{module}")
        for name in exported:
            assert getattr(qompress, name) is getattr(home, name), name
            assert star[name] is getattr(home, name), name
            assert name in vars(qompress)
    for module in EAGER_MODULES:
        assert star[module] is getattr(qompress, module) is sys.modules[f"qompress.{module}"]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qompress.no_such_name
