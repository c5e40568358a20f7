"""Correlation and information measures for finite-dimensional bipartite
quantum states: entropies, mutual information in both forms, nonselective
measurement channels, measurement-basis suprema and quantum discord, and
twin-observable verification and construction.

``import twinfo`` loads no submodule: each public name below is imported from
its defining module on first use (PEP 562), so a CLI command loads only the
modules it runs.
"""

__version__ = "0.1.0"

_SOURCES = {
    "kernels": ("BACKEND", "tensor_product"),
    "entropy": ("entanglement_entropy", "mutual_information", "mutual_information_via_relative",
                "relative_entropy", "shannon_entropy", "von_neumann_entropy"),
    "measurement": (
        "CoherenceDecomposition", "DistantDecomposition", "JointDistribution", "Observable",
        "SubsystemObservable", "coherence_decomposition", "distant_decomposition",
        "entropy_of_coherence", "information_gain", "joint_distribution",
        "joint_mutual_information", "luders_apply", "luders_apply_subsystem",
        "observable_from_basis", "observable_from_matrix",
    ),
    "optimize": ("OptimizationConfig", "SupremumResult", "grid_information_gain_qubit",
                 "quantum_discord", "sup_information_gain", "sup_joint_mutual_information"),
    "sampling": ("sample_random_density", "sample_random_observable", "sample_random_pure",
                 "sample_random_unitary"),
    "states": ("BipartiteState", "DensityOperator", "Dims", "SchmidtForm", "StateValidationError",
               "bipartite_from_pure", "make_bipartite", "partial_trace", "purity_class",
               "schmidt_decompose", "schmidt_reconstruct", "validate_density"),
    "twins": ("ConditionMismatchError", "DetectableSpectrum", "TwinReport",
              "construct_pure_twins", "dephase_in_schmidt_basis", "detectable_spectrum",
              "verify_twins"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}
_SUBMODULES = (*_SOURCES, "chains", "cli", "io")
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        # __import__, not importlib.import_module, so that ``python -X importtime`` logs the load.
        return getattr(__import__(f"{__name__}.{name}"), name)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_MODULE_OF[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
