"""Periodic matrix product states as partial observations of entangled
hidden Markov models: state builders, both correspondence directions,
tensor-factorization feasibility, and the relative-entropy lower bound."""

from .linalg import (
    TensorVector,
    partial_inner_product,
    partial_trace,
    hermitian_eig,
)
from .ehmm import (
    EhmmModel,
    validate,
    build_psi_hon,
    build_psi_hn,
    build_psi_on,
)
from .mps import SiteTensorSet, gauge_check, coefficient, build_state, state_norm
from .bridge import (
    tensors_from_ehmm,
    build_e_vector,
    observed_mps,
    extract_classical_hmm,
    isometries_from_mps,
    decompose_tensors,
)
from .entropy import (
    DensityMatrix,
    BoundReport,
    mps_density,
    observation_density_formula,
    observation_density_trace,
    diagonal_channel,
    relative_entropy,
    bound_rhs,
    check_bound,
)
from . import catalog, serialize

__version__ = "0.1.0"

__all__ = [
    "TensorVector",
    "partial_inner_product",
    "partial_trace",
    "hermitian_eig",
    "EhmmModel",
    "validate",
    "build_psi_hon",
    "build_psi_hn",
    "build_psi_on",
    "SiteTensorSet",
    "gauge_check",
    "coefficient",
    "build_state",
    "state_norm",
    "tensors_from_ehmm",
    "build_e_vector",
    "observed_mps",
    "extract_classical_hmm",
    "isometries_from_mps",
    "decompose_tensors",
    "DensityMatrix",
    "BoundReport",
    "mps_density",
    "observation_density_formula",
    "observation_density_trace",
    "diagonal_channel",
    "relative_entropy",
    "bound_rhs",
    "check_bound",
    "catalog",
    "serialize",
]
