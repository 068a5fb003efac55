"""Both directions of the MPS / entangled-HMM correspondence.

Forward: a model with row-normalized hidden amplitudes generates site
tensors a[k][i,j] = U[i,j] * chi[i,k]; contracting the joint state against a
boundary vector reproduces the periodic MPS built from those tensors. The
gauge condition additionally holds whenever U is unitary.

Backward: any gauge-satisfying tensor set yields classical transition and
emission matrices by summing squared moduli, and square roots of those turn
it into a model again.  Whether the tensors factor exactly as U * chi is a
rank-one feasibility question on the per-hidden-index slices, settled here
by singular values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ehmm import DEFAULT_SIZE_CAP, EhmmModel, _chain_step, _check_cap, is_unitary
from .linalg import TensorVector
from .mps import SiteTensorSet, require_gauge

DECOMPOSE_TOL = 1e-8

__all__ = [
    "DECOMPOSE_TOL",
    "ExtractedHmm",
    "DecompositionWitness",
    "DecompositionResult",
    "tensors_from_ehmm",
    "build_e_vector",
    "observed_mps",
    "extract_classical_hmm",
    "isometries_from_mps",
    "decompose_tensors",
]


@dataclass(frozen=True)
class ExtractedHmm:
    """Classical transition/emission matrices read off a tensor set."""

    transitions: tuple[np.ndarray, ...] = field(repr=False)
    emissions: tuple[np.ndarray, ...] = field(repr=False)
    translation_invariant: bool = False


@dataclass(frozen=True)
class DecompositionWitness:
    """First obstruction found: 1-based site and hidden index, second singular value."""

    site: int
    hidden_index: int
    sigma2: float
    reason: str


@dataclass(frozen=True)
class DecompositionResult:
    feasible: bool
    hidden: tuple[np.ndarray, ...] | None = None
    emission: tuple[np.ndarray, ...] | None = None
    translation_invariant: bool = False
    reconstruction_error: float | None = None
    witness: DecompositionWitness | None = None

    def model(self, pi: np.ndarray | None = None) -> EhmmModel:
        """Package the recovered amplitudes as a model (uniform pi by default)."""
        if not self.feasible or self.hidden is None or self.emission is None:
            raise ValueError("decomposition was infeasible; no model available")
        m = self.hidden[0].shape[0]
        if pi is None:
            pi = np.full(m, 1.0 / m)
        return EhmmModel(
            pi=pi,
            hidden=self.hidden,
            emission=self.emission,
            translation_invariant=self.translation_invariant,
        )


def tensors_from_ehmm(model: EhmmModel, require_unitary: bool = True) -> SiteTensorSet:
    """Site tensors a[k][i,j] = U[i,j] * chi[i,k] of a model.

    With unitary hidden matrices the result satisfies the gauge condition;
    `require_unitary=False` skips that check for models that are merely
    row-normalized (the partial-measurement identity still holds, the gauge
    condition need not).
    """
    if require_unitary:
        for idx, u in enumerate(model.hidden, start=1):
            if not is_unitary(u):
                raise ValueError(f"hidden matrix at site {idx} is not unitary")
    sites = []
    for u, chi in zip(model.hidden, model.emission):
        fam = tuple(chi[:, k, None] * u for k in range(model.d))
        sites.append(fam)
    return SiteTensorSet(tuple(sites), model.translation_invariant)


def _check_boundary_args(model: EhmmModel, n_keep: int, n: int) -> None:
    """The arguments both boundary routes need: 1 <= N <= n and pi > 0."""
    if n_keep < 1:
        raise ValueError("number of kept sites must be >= 1")
    if n < n_keep:
        raise ValueError(f"n = {n} must be >= kept sites {n_keep}")
    if float(model.pi.min()) <= 0.0:
        raise ValueError("boundary vector needs strictly positive pi entries")


def build_e_vector(
    model: EhmmModel, n_keep: int, n: int, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorVector:
    """Boundary vector pairing the joint n-site state down to an N-site MPS.

    Lives on n+1 hidden factors and the trailing n-N observation factors;
    its coefficient is  (1/sqrt(pi[i1])) * prod_{l=N+1..n} U[l][i_l,i_{l+1}]
    * chi[l][i_l,k_l]  times the periodic constraint delta(i_{N+1}, i1).
    The middle hidden indices i_2..i_N are unconstrained.  For n = N the
    product is empty and only the weight and the delta remain.
    """
    _check_boundary_args(model, n_keep, n)
    m, d = model.m, model.d
    _check_cap(size_cap, (m, n + 1), (d, n - n_keep))

    # tail over (i_{N+1}, ..., i_{n+1}, k_{N+1}, ..., k_n)
    n_tail = n - n_keep
    tail = np.ones((1, m, 1), dtype=np.complex128)
    for l in range(n_keep + 1, n + 1):
        tail = _chain_step(tail, model.hidden_at(l), model.emission_at(l))
    tail_dims = (m,) * (n_tail + 1) + (d,) * n_tail

    inv_sqrt_pi = 1.0 / np.sqrt(model.pi)
    mid = m ** (n_keep - 1)
    rest = tail.size // m
    out = np.zeros((m, mid, m, rest), dtype=np.complex128)
    tail_flat = tail.reshape(m, rest)
    for i in range(m):
        out[i, :, i, :] = inv_sqrt_pi[i] * tail_flat[i][None, :]
    dims = (m,) * (n_keep - 1 + 1) + tail_dims  # i1, i2..iN, then tail factors
    return TensorVector(dims, out.reshape(-1))


def observed_mps(
    model: EhmmModel, n_keep: int, n: int, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorVector:
    """Partial measurement of the joint state down to an N-site word vector.

    Evaluates <e|psi_hon> over all hidden factors plus the trailing n-N
    observation factors, leaving a vector on the first N observation
    factors.  For every n >= N this equals the dense periodic MPS of
    `tensors_from_ehmm(model)` on N sites.

    The network is contracted one site at a time and neither the joint state
    nor the boundary vector is formed.  Each trailing site N+1..n pairs the
    psi factor with the conjugated e factor and sums k_l, giving the m x m
    matrix T_l = |U_l|^2 * (sum_k |chi_l[:,k]|^2)[:, None]; these fold right
    to left, from ones at i_{n+1}, into an m-vector r over i_{N+1}.  The kept
    sites 1..N grow a block X[i1, word, i] from the identity, one matrix
    product per site against chi_l[i,k] U_l[i,j], with words in C order.  The
    e-vector weight sqrt(pi[i1]) conj(1/sqrt(pi[i1])), the periodic delta
    i_{N+1} = i1 and r close the chain.  The size cap bounds both X, the
    largest array formed, with m^2 d^N entries, and the n-N trailing sites
    folded one Python step each, so the work stays bounded for any n.
    """
    _check_boundary_args(model, n_keep, n)
    m, d = model.m, model.d
    _check_cap(size_cap, (m, 2), (d, n_keep))
    if n - n_keep > size_cap:
        raise ValueError(f"{n - n_keep} trailing sites exceed size cap {size_cap}")

    r = np.ones(m, dtype=np.complex128)
    for l in range(n, n_keep, -1):
        chi = model.emission_at(l)
        u = model.hidden_at(l)
        r = ((u.conj() * u) * (chi.conj() * chi).sum(axis=1)[:, None]) @ r

    x = np.eye(m, dtype=np.complex128)
    for l in range(1, n_keep + 1):
        step = model.emission_at(l)[:, :, None] * model.hidden_at(l)[:, None, :]
        x = x.reshape(-1, m) @ step.reshape(m, d * m)

    sqrt_pi = np.sqrt(model.pi)
    weight = sqrt_pi * np.conj(1.0 / sqrt_pi) * r
    diag = x.reshape(m, d**n_keep, m)[np.arange(m), :, np.arange(m)]
    return TensorVector((d,) * n_keep, weight @ diag)


def extract_classical_hmm(t: SiteTensorSet) -> ExtractedHmm:
    """Classical HMM of a gauge-satisfying tensor set.

    Transition (i,j) sums |a[k][i,j]|^2 over symbols; emission (i,k) sums it
    over the column index.  The gauge condition makes both row-stochastic.
    """
    require_gauge(t)
    transitions = []
    emissions = []
    for fam in t.sites:
        sq = np.stack([np.abs(a) ** 2 for a in fam])  # (d, m, m)
        transitions.append(sq.sum(axis=0))
        emissions.append(sq.sum(axis=2).T.copy())
    return ExtractedHmm(tuple(transitions), tuple(emissions), t.translation_invariant)


def isometries_from_mps(t: SiteTensorSet, pi: np.ndarray | None = None) -> EhmmModel:
    """Model whose amplitudes are the nonnegative roots of the extracted HMM.

    Any complex square root would do; the nonnegative branch is canonical and
    reproducible.  The hidden matrices need not come out unitary.  The source
    fixes no initial distribution, so `pi` defaults to uniform.
    """
    extracted = extract_classical_hmm(t)
    if pi is None:
        pi = np.full(t.m, 1.0 / t.m)
    return EhmmModel(
        pi=pi,
        hidden=tuple(np.sqrt(p).astype(np.complex128) for p in extracted.transitions),
        emission=tuple(np.sqrt(q).astype(np.complex128) for q in extracted.emissions),
        translation_invariant=t.translation_invariant,
    )


def _first_nonzero_phase(v: np.ndarray, floor: float = 1e-12) -> complex:
    """Unit phase making the first significant entry of v nonnegative real."""
    for entry in v:
        if abs(entry) > floor:
            return entry.conjugate() / abs(entry)
    return 1.0 + 0.0j


def decompose_tensors(t: SiteTensorSet, tol: float = DECOMPOSE_TOL) -> DecompositionResult:
    """Test whether tensors factor as a[k][i,j] = U[i,j] * chi[i,k].

    For each site and hidden index i the m-by-d slice M[j,k] = a[k][i,j] must
    be rank one: chi row i is the unit right factor (phase fixed so its first
    nonzero entry is nonnegative real), U row i the left factor.  Feasible
    only if every slice passes and the assembled U is unitary within `tol`.
    Callers are expected to hand in gauge-satisfying tensors.
    """
    hidden_out = []
    emission_out = []
    worst_err = 0.0
    for s, fam in enumerate(t.sites, start=1):
        stack = np.stack(fam)  # (d, m, m): stack[k, i, j]
        m = t.m
        u_site = np.zeros((m, m), dtype=np.complex128)
        chi_site = np.zeros((m, t.d), dtype=np.complex128)
        for i in range(m):
            slice_m = stack[:, i, :].T  # (m, d) with [j, k] = a[k][i, j]
            if np.linalg.norm(slice_m) <= tol:
                return DecompositionResult(
                    feasible=False,
                    witness=DecompositionWitness(s, i + 1, 0.0, "zero emission row"),
                )
            left, sing, right_h = np.linalg.svd(slice_m)
            sigma2 = float(sing[1]) if sing.size > 1 else 0.0
            if sigma2 > tol * float(sing[0]):
                return DecompositionResult(
                    feasible=False,
                    witness=DecompositionWitness(
                        s, i + 1, sigma2, "slice has rank greater than one"
                    ),
                )
            phase = _first_nonzero_phase(right_h[0])
            chi_site[i] = right_h[0] * phase
            u_site[i] = float(sing[0]) * left[:, 0] * np.conj(phase)
            err = float(
                np.max(np.abs(slice_m - np.outer(u_site[i], chi_site[i])))
            )
            worst_err = max(worst_err, err)
        gram_dev = float(np.linalg.norm(u_site.conj().T @ u_site - np.eye(m)))
        if gram_dev > tol:
            return DecompositionResult(
                feasible=False,
                witness=DecompositionWitness(
                    s, 0, gram_dev, "assembled hidden matrix is not unitary"
                ),
            )
        hidden_out.append(u_site)
        emission_out.append(chi_site)
    return DecompositionResult(
        feasible=True,
        hidden=tuple(hidden_out),
        emission=tuple(emission_out),
        translation_invariant=t.translation_invariant,
        reconstruction_error=worst_err,
    )
