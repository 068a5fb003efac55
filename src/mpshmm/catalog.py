"""Named exact constructions: GHZ, cluster, AKLT, its extracted cousin, and
a one-parameter family, each as site tensors and (where one exists) a model.

Every tensor set here satisfies the gauge condition exactly, so GHZ keeps its
raw norm sqrt(2): folding 1/sqrt(2) into site 1 would break the gauge there.

An entry is built once per process: `get` checks its arguments, then returns
the entry memoized for that name and those theta values (a bounded LRU cache,
filled on first use).  Callers share it read-only: its tensor set and model
hold read-only arrays, and its `parameters` is a read-only mapping.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .ehmm import EhmmModel
from .mps import SiteTensorSet

__all__ = [
    "CatalogEntry",
    "NAMES",
    "get",
    "random_model",
]

_SQ2 = math.sqrt(2.0)
_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
_SPLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
_SMINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / _SQ2
_CACHED_ENTRIES = 32


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    tensors: SiteTensorSet | None = None
    model: EhmmModel | None = None
    parameters: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    notes: str = ""

    def __post_init__(self) -> None:
        # a shared entry must not be mutable through its parameters either
        object.__setattr__(self, "parameters", MappingProxyType(dict(self.parameters)))


def _uniform_pi(m: int) -> np.ndarray:
    return np.full(m, 1.0 / m)


def _ghz(name: str) -> CatalogEntry:
    tensors = SiteTensorSet(((_P0.copy(), _P1.copy()),), translation_invariant=True)
    model = EhmmModel(
        pi=_uniform_pi(2),
        hidden=(np.eye(2, dtype=np.complex128),),
        emission=(np.eye(2, dtype=np.complex128),),
        translation_invariant=True,
    )
    return CatalogEntry(
        name=name,
        tensors=tensors,
        model=model,
        notes=(
            "Perfectly correlated qubits: projector tensors at every site, "
            "identity transitions and emissions, uniform start. The raw state "
            "is |0..0> + |1..1> with norm sqrt(2); scaling site 1 by "
            "1/sqrt(2) would give a unit norm but break the site-1 gauge "
            "condition."
        ),
    )


def _cluster(name: str) -> CatalogEntry:
    a0 = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=np.complex128) / _SQ2
    a1 = np.array([[0.0, 0.0], [1.0, -1.0]], dtype=np.complex128) / _SQ2
    tensors = SiteTensorSet(((a0, a1),), translation_invariant=True)
    model = EhmmModel(
        pi=_uniform_pi(2),
        hidden=(_HADAMARD.copy(),),
        emission=(np.eye(2, dtype=np.complex128),),
        translation_invariant=True,
    )
    return CatalogEntry(
        name=name,
        tensors=tensors,
        model=model,
        notes=(
            "1D cluster state: Hadamard-driven hidden dynamics with identity "
            "emissions. The tensors factor exactly as U[i,j]*chi[i,k] with U "
            "the standard Hadamard [[1,1],[1,-1]]/sqrt(2)."
        ),
    )


def _aklt(name: str) -> CatalogEntry:
    a_plus = math.sqrt(2.0 / 3.0) * _SPLUS
    a_zero = math.sqrt(1.0 / 3.0) * _SZ
    a_minus = -math.sqrt(2.0 / 3.0) * _SMINUS
    tensors = SiteTensorSet(((a_plus, a_zero, a_minus),), translation_invariant=True)
    return CatalogEntry(
        name=name,
        tensors=tensors,
        model=None,
        notes=(
            "Spin-1 valence-bond tensors sqrt(2/3) s+, sqrt(1/3) sz, "
            "-sqrt(2/3) s-. Gauge-satisfying but admits no U*chi "
            "factorization, so no companion model exists."
        ),
    )


def _aklt_derived(name: str) -> CatalogEntry:
    r13 = math.sqrt(1.0 / 3.0)
    r23 = math.sqrt(2.0 / 3.0)
    u = np.array([[r13, r23], [-r23, r13]], dtype=np.complex128)
    chi = np.array([[r23, r13, 0.0], [0.0, r13, -r23]], dtype=np.complex128)
    r2 = math.sqrt(2.0)
    a_plus = np.array([[r2, 2.0], [0.0, 0.0]], dtype=np.complex128) / 3.0
    a_zero = np.array([[1.0, r2], [-r2, 1.0]], dtype=np.complex128) / 3.0
    a_minus = np.array([[0.0, 0.0], [2.0, -r2]], dtype=np.complex128) / 3.0
    tensors = SiteTensorSet(((a_plus, a_zero, a_minus),), translation_invariant=True)
    model = EhmmModel(
        pi=_uniform_pi(2),
        hidden=(u,),
        emission=(chi,),
        translation_invariant=True,
    )
    return CatalogEntry(
        name=name,
        tensors=tensors,
        model=model,
        notes=(
            "Rebuilt from the classical HMM of the AKLT tensors: orthogonal U "
            "with |U|^2 = [[1/3,2/3],[2/3,1/3]] and signed chi with |chi|^2 = "
            "[[2/3,1/3,0],[0,1/3,2/3]]. Generates a different state than the "
            "AKLT tensors. Uniform pi (none is prescribed)."
        ),
    )


def _theta(name: str, theta_values: tuple[float, ...]) -> CatalogEntry:
    sites_t = []
    sites_u = []
    sites_chi = []
    for th in theta_values:
        c, s = math.cos(th), math.sin(th)
        sites_t.append(
            (
                np.array([[c, 0.0], [0.0, 1.0]], dtype=np.complex128),
                np.array([[0.0, s], [0.0, 0.0]], dtype=np.complex128),
            )
        )
        sites_u.append(np.array([[abs(c), abs(s)], [0.0, 1.0]], dtype=np.complex128))
        sites_chi.append(np.array([[abs(c), abs(s)], [1.0, 0.0]], dtype=np.complex128))
    ti = len(theta_values) == 1
    tensors = SiteTensorSet(tuple(sites_t), translation_invariant=ti)
    model = EhmmModel(
        pi=_uniform_pi(2),
        hidden=tuple(sites_u),
        emission=tuple(sites_chi),
        translation_invariant=ti,
    )
    return CatalogEntry(
        name=name,
        tensors=tensors,
        model=model,
        parameters={"theta": theta_values},
        notes=(
            "One-parameter family A_1 = diag(cos t, 1), A_2 = [[0, sin t], "
            "[0, 0]] per site. The companion model takes moduli |cos t|, "
            "|sin t|; its hidden matrix is row-normalized but not unitary, "
            "so the rebuilt tensors differ from these and need not satisfy "
            "the gauge condition. Uniform pi."
        ),
    )


# name -> (builder, one-line summary, required parameter or None); NAMES,
# `get` and `mpshmm catalog list` all read this one table
_TABLE: dict[str, tuple[Callable[..., CatalogEntry], str, str | None]] = {
    "ghz": (_ghz, "perfectly correlated qubit pair states", None),
    "cluster": (_cluster, "stabilizer ground state, Hadamard hidden dynamics", None),
    "aklt": (_aklt, "spin-1 valence-bond tensors (no factorization)", None),
    "aklt-derived": (_aklt_derived, "rebuilt from the AKLT classical HMM", None),
    "theta": (_theta, "one-parameter diag/offdiag family", "theta"),
}

NAMES = tuple(_TABLE)


def get(name: str, theta: float | Sequence[float] | None = None) -> CatalogEntry:
    """Fetch a catalog entry by name; the theta family needs its parameter.

    The entry is built on the first request for its name and theta values
    and shared by every later one, so it must be treated as read-only.
    """
    if name not in _TABLE:
        raise KeyError(f"unknown catalog name {name!r}; known: {', '.join(NAMES)}")
    required = _TABLE[name][2]
    if required is None:
        return _build(name, (), ())
    if theta is None:
        raise ValueError(f"{name} entry requires a {required} parameter")
    values = (float(theta),) if np.isscalar(theta) else tuple(float(x) for x in theta)
    if not values or not all(map(math.isfinite, values)):
        raise ValueError(f"{required} must be one or more finite values, got {theta!r}")
    # -0.0 == 0.0 as a key, but the theta tensors keep sin(-0.0) = -0.0; the signs split them
    return _build(name, values, tuple(math.copysign(1.0, x) for x in values))


@functools.lru_cache(maxsize=_CACHED_ENTRIES)
def _build(name: str, values: tuple[float, ...], signs: tuple[float, ...]) -> CatalogEntry:
    """The entry for checked arguments; ``signs`` only keys the cache."""
    builder = _TABLE[name][0]
    return builder(name, values) if values else builder(name)


def random_model(m: int, d: int, sites: int, seed: int) -> EhmmModel:
    """Seed-deterministic random model with unitary hidden matrices.

    Uses a PCG64 stream.  Draw order: pi from a flat Dirichlet over m, then
    per site a hidden matrix (modified Gram-Schmidt row orthonormalization of
    a complex standard-normal matrix) followed by per-row emission amplitudes
    (flat Dirichlet over d under independent uniform phases).  The same seed
    reproduces the model bit for bit.
    """
    if m < 1 or d < 1 or sites < 1:
        raise ValueError("m, d and sites must all be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    pi = rng.dirichlet(np.ones(m))
    hidden = []
    emission = []
    for _ in range(sites):
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        u = _gram_schmidt_rows(g)
        chi = np.empty((m, d), dtype=np.complex128)
        for i in range(m):
            weights = rng.dirichlet(np.ones(d))
            phases = np.exp(2j * math.pi * rng.random(d))
            chi[i] = np.sqrt(weights) * phases
        hidden.append(u)
        emission.append(chi)
    return EhmmModel(pi=pi, hidden=tuple(hidden), emission=tuple(emission))


def _gram_schmidt_rows(g: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt orthonormalization of the rows."""
    m = g.shape[0]
    u = np.array(g, dtype=np.complex128)
    for i in range(m):
        for j in range(i):
            u[i] -= np.vdot(u[j], u[i]) * u[j]
        norm = np.linalg.norm(u[i])
        if norm < 1e-12:
            raise ValueError("degenerate random draw; use a different seed")
        u[i] /= norm
    return u
