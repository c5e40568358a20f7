"""The package resolves its public names on first use, and each CLI command
loads only the twinfo modules it runs."""

import importlib
import json
import subprocess
import sys

import numpy as np
import pytest

import twinfo
from twinfo.io import write_state_file

from conftest import SIGMA_Z, bell_vector

# The public names and their defining modules.
PUBLIC = {
    "kernels": ["BACKEND", "tensor_product"],
    "entropy": ["entanglement_entropy", "mutual_information", "mutual_information_via_relative",
                "relative_entropy", "shannon_entropy", "von_neumann_entropy"],
    "measurement": ["CoherenceDecomposition", "DistantDecomposition", "JointDistribution",
                    "Observable", "SubsystemObservable", "coherence_decomposition",
                    "distant_decomposition", "entropy_of_coherence", "information_gain",
                    "joint_distribution", "joint_mutual_information", "luders_apply",
                    "luders_apply_subsystem", "observable_from_basis", "observable_from_matrix"],
    "optimize": ["OptimizationConfig", "SupremumResult", "grid_information_gain_qubit",
                 "quantum_discord", "sup_information_gain", "sup_joint_mutual_information"],
    "sampling": ["sample_random_density", "sample_random_observable", "sample_random_pure",
                 "sample_random_unitary"],
    "states": ["BipartiteState", "DensityOperator", "Dims", "SchmidtForm", "StateValidationError",
               "bipartite_from_pure", "make_bipartite", "partial_trace", "purity_class",
               "schmidt_decompose", "schmidt_reconstruct", "validate_density"],
    "twins": ["ConditionMismatchError", "DetectableSpectrum", "TwinReport", "construct_pure_twins",
              "dephase_in_schmidt_basis", "detectable_spectrum", "verify_twins"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)
# The twinfo modules every command loads.
CORE = {"cli", "entropy", "io", "kernels", "states"}


def run_python(code, *args):
    """``python -c code args``; returns stdout's last line as JSON."""
    res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_all_lists_the_public_names():
    assert len(NAMES) == 52
    assert sorted(twinfo.__all__) == NAMES


@pytest.mark.parametrize("module, name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_name_is_the_defining_module_object(module, name):
    assert getattr(twinfo, name) is getattr(importlib.import_module(f"twinfo.{module}"), name)


def test_from_import_and_dir():
    from twinfo import SubsystemObservable, verify_twins

    assert verify_twins is twinfo.twins.verify_twins
    assert SubsystemObservable is twinfo.measurement.SubsystemObservable
    listed = dir(twinfo)
    assert set(NAMES) <= set(listed)
    assert {"twins", "optimize", "cli", "io", "__version__"} <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        twinfo.not_a_name
    with pytest.raises(ImportError):
        from twinfo import not_a_name


def test_submodules_resolve_in_a_fresh_process():
    code = ("import json, twinfo\n"
            "print(json.dumps([twinfo.twins.__name__, twinfo.optimize.__name__,"
            " twinfo.twins.verify_twins is twinfo.verify_twins]))")
    assert run_python(code) == ["twinfo.twins", "twinfo.optimize", True]


def test_submodule_load_is_logged_by_importtime():
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import twinfo; twinfo.twins"],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert any(line.rstrip().endswith("| twinfo.twins") for line in res.stderr.splitlines())


def test_import_twinfo_loads_no_submodule():
    code = ("import json, sys, twinfo\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('twinfo.'))))")
    assert run_python(code) == []


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    bell = bell_vector()
    werner = 0.5 * np.outer(bell, bell.conj()) + 0.5 * np.eye(4) / 4
    paths = {name: str(d / f"{name}.json") for name in ("bell", "werner", "z")}
    write_state_file(paths["bell"], "pure", bell, [2, 2])
    write_state_file(paths["werner"], "density", werner, [2, 2])
    write_state_file(paths["z"], "observable", SIGMA_Z, [2])
    paths["out"] = str(d / "violations")
    return paths


# Each command's argv and the exact set of twinfo modules it loads.
COMMANDS = {
    "report": (["report", "{werner}"], CORE),
    "schmidt": (["schmidt", "{bell}"], CORE),
    "twins": (["twins", "{bell}", "{z}", "{z}"], CORE | {"measurement", "twins"}),
    "discord": (["discord", "{werner}", "--restarts", "2"], CORE | {"sampling", "optimize"}),
    "sweep": (["sweep", "--samples", "2", "--out", "{out}"],
              CORE | {"sampling", "measurement", "chains"}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_only_its_modules(command, inputs):
    argv, expected = COMMANDS[command]
    code = ("import json, sys\n"
            "from twinfo.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "loaded = sorted(m.split('.')[1] for m in sys.modules if m.startswith('twinfo.'))\n"
            "print(json.dumps([code, loaded]))")
    code, loaded = run_python(code, *[a.format(**inputs) for a in argv])
    assert code == 0
    assert set(loaded) == expected
