"""Periodic matrix product states as partial observations of entangled
hidden Markov models: state builders, both correspondence directions,
tensor-factorization feasibility, and the relative-entropy lower bound.

The root exports the quick-start API of README.md; every other name is
imported from its module.
"""

from .ehmm import EhmmModel
from .mps import SiteTensorSet, build_state
from .bridge import tensors_from_ehmm, observed_mps, extract_classical_hmm, decompose_tensors
from .entropy import check_bound
from . import catalog, serialize

__version__ = "0.1.0"

__all__ = [
    "EhmmModel",
    "SiteTensorSet",
    "build_state",
    "tensors_from_ehmm",
    "observed_mps",
    "extract_classical_hmm",
    "decompose_tensors",
    "check_bound",
    "catalog",
    "serialize",
]
