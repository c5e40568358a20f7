"""Correlation and information measures for finite-dimensional bipartite
quantum states: entropies, mutual information in both forms, nonselective
measurement channels, measurement-basis suprema and quantum discord, and
twin-observable verification and construction."""

__version__ = "0.1.0"

from .kernels import BACKEND
from .entropy import (
    entanglement_entropy,
    mutual_information,
    mutual_information_via_relative,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .linalg import (
    Dims,
    SpectralDecomposition,
    hermitian_eig,
    partial_trace,
    tensor_product,
)
from .measurement import (
    CoherenceDecomposition,
    DistantDecomposition,
    JointDistribution,
    Observable,
    SubsystemObservable,
    coherence_decomposition,
    distant_decomposition,
    entropy_of_coherence,
    information_gain,
    joint_distribution,
    joint_mutual_information,
    luders_apply,
    luders_apply_subsystem,
    observable_from_basis,
    observable_from_matrix,
)
from .optimize import (
    OptimizationConfig,
    SupremumResult,
    grid_information_gain_qubit,
    quantum_discord,
    sup_information_gain,
    sup_joint_mutual_information,
)
from .sampling import (
    sample_random_density,
    sample_random_observable,
    sample_random_pure,
    sample_random_unitary,
)
from .states import (
    BipartiteState,
    DensityOperator,
    SchmidtForm,
    StateValidationError,
    bipartite_from_pure,
    make_bipartite,
    purity_class,
    schmidt_decompose,
    schmidt_reconstruct,
    validate_density,
)
from .twins import (
    ConditionMismatchError,
    DetectableSpectrum,
    SpectralPairing,
    TwinReport,
    construct_pure_twins,
    dephase_in_schmidt_basis,
    detectable_spectrum,
    verify_twins,
)
