"""Density matrices, quantum relative entropy, and the divergence lower bound.

Two observation density matrices are built for the same object: a transfer
formula chaining Schur products of site tensors, and the partial trace of
the joint pure state over all hidden factors.  They agree whenever the
tensors come from a model, and the pair doubles as a cross-check.  The trace
route forms neither the joint state nor |psi><psi|: tracing out the hidden
factors leaves pi and the classical transitions |U|^2 of the hidden Markov
chain, so sigma is a forward recursion over that chain (the HMM forward
algorithm run over pairs of words).

The lower bound compares the periodic-MPS density (1/m)|psi><psi| against
the observation density: dephasing both in the word basis turns the relative
entropy into a classical divergence between |Tr prod A|^2 / m and the
diagonal transfer weights, which is exactly the closed-form right-hand side
evaluated here.  Because the MPS density has rank one, its relative entropy
needs only the observation density's spectrum, and the dephased pair needs
no eigendecomposition at all.  Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bridge import tensors_from_ehmm
from .ehmm import DEFAULT_SIZE_CAP, EhmmModel, _chain_step, _check_cap, is_unitary
from .linalg import SUPPORT_EPS, as_matrix, hermitian_eig
from .mps import SiteTensorSet, _site_stacks, _word_sums, build_state

BOUND_SLACK = 1e-8
HERMITIAN_TOL = 1e-10
EIGEN_FLOOR = -1e-10

__all__ = [
    "BOUND_SLACK",
    "DensityMatrix",
    "BoundReport",
    "mps_density",
    "observation_density_formula",
    "observation_density_trace",
    "diagonal_channel",
    "relative_entropy",
    "bound_rhs",
    "check_bound",
]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD matrix with its factorization and recorded (not forced) trace."""

    matrix: np.ndarray = field(repr=False)
    factor_dims: tuple[int, ...]
    trace_value: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        mat = as_matrix(self.matrix)
        dims = tuple(int(x) for x in self.factor_dims)
        if mat.shape != (math.prod(dims), math.prod(dims)):
            raise ValueError(f"matrix shape {mat.shape} incompatible with factors {dims}")
        scale = max(1.0, float(np.linalg.norm(mat)))
        if float(np.linalg.norm(mat - mat.conj().T)) > HERMITIAN_TOL * scale:
            raise ValueError("density matrix is not Hermitian within tolerance")
        low = float(np.linalg.eigvalsh(mat).min())
        if low < EIGEN_FLOOR * scale:
            raise ValueError(f"density matrix has eigenvalue {low}, not PSD")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "factor_dims", dims)
        object.__setattr__(self, "trace_value", float(np.trace(mat).real))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def normalized(self) -> "DensityMatrix":
        if self.trace_value <= 0.0:
            raise ValueError("cannot normalize a traceless density matrix")
        return DensityMatrix(self.matrix / self.trace_value, self.factor_dims)


def mps_density(
    t: SiteTensorSet, n_sites: int, size_cap: int = DEFAULT_SIZE_CAP
) -> DensityMatrix:
    """The literal (1/m) |psi_N><psi_N|; trace equals |psi|^2 / m, recorded as is.

    The size cap counts the d^(2N) entries of the matrix, not only the state.
    """
    _check_cap(size_cap, (t.d, 2 * n_sites))
    psi = build_state(t, n_sites, size_cap)
    mat = np.outer(psi.entries, psi.entries.conj()) / t.m
    return DensityMatrix(mat, psi.factor_dims)


def observation_density_formula(
    t: SiteTensorSet,
    pi: np.ndarray,
    n_sites: int,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> DensityMatrix:
    """Observation density via the Schur-product transfer formula.

    Entry at (word, word') is sqrt(m) * pi^T (prod_l A_{k_l} o conj(A_{k'_l})) e
    with e the normalized all-ones vector; bra and ket words each run over
    all d^N values independently.  All d^(2N) entries come from one
    split-half contraction over the d^2 pair symbols (k_l, k'_l).
    """
    pi = np.asarray(pi, dtype=np.float64).reshape(-1)
    if pi.size != t.m:
        raise ValueError(f"pi has length {pi.size}, expected {t.m}")
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    _check_cap(size_cap, (t.d, 2 * n_sites))
    n_words = t.d**n_sites
    if not t.compatible_length(n_sites):
        raise ValueError(f"{n_sites} sites exceed {len(t.sites)} stored sites")

    # the pair family A_k o conj(A_k') over d*d symbols (k, k'), one word
    # of pairs per (word, word'), with the pair axes unzipped afterwards
    stacks = _site_stacks(
        t, n_sites, lambda s: (s[:, None] * s.conj()[None]).reshape(-1, t.m, t.m)
    )
    e_vec = np.ones((t.m, 1)) / math.sqrt(t.m)
    sums = _word_sums(stacks, pi[None], e_vec)
    order = [*range(0, 2 * n_sites, 2), *range(1, 2 * n_sites, 2)]
    mat = sums.reshape((t.d,) * (2 * n_sites)).transpose(order).reshape(n_words, n_words)
    return DensityMatrix(math.sqrt(t.m) * mat, (t.d,) * n_sites)


def _hidden_chain_density(model: EhmmModel, n_sites: int, size_cap: int) -> np.ndarray:
    """Observation density of a valid model by a forward recursion over its hidden chain.

    sigma[w, w'] = sum_{i_1..i_{N+1}} pi[i_1] prod_l |U_l[i_l, i_{l+1}]|^2
    chi_l[i_l, k_l] conj(chi_l[i_l, k'_l]), the joint state's partial trace
    over its hidden factors.  Each site is one `_chain_step` over the pair
    alphabet (k, k'), carrying an (m, d^l * d^l) array; the last site sums
    i_{N+1} through the computed row sums of |U_N|^2.  The pair axes are
    unzipped to (word, word') at the end.
    """
    m, d = model.m, model.d
    _check_cap(size_cap, (d, 2 * n_sites))
    _check_cap(size_cap, (m, 1), (d, 2 * n_sites), what="observation-density recursion")
    n_words = d**n_sites
    x = model.pi.astype(np.complex128).reshape(1, m, 1)
    for l in range(1, n_sites + 1):
        chi = model.emission_at(l)
        pair = (chi[:, :, None] * chi.conj()[:, None, :]).reshape(m, d * d)
        trans = np.abs(model.hidden_at(l)) ** 2
        if l == n_sites:
            trans = trans.sum(axis=1, keepdims=True)
        x = _chain_step(x, trans, pair, sum_hidden=True)
    # x runs over pair words (k1 k1')..(kN kN'); unzip them to (word, word')
    order = [*range(0, 2 * n_sites, 2), *range(1, 2 * n_sites, 2)]
    return x.reshape((d,) * (2 * n_sites)).transpose(order).reshape(n_words, n_words)


def observation_density_trace(
    model: EhmmModel, n_sites: int, size_cap: int = DEFAULT_SIZE_CAP
) -> DensityMatrix:
    """Observation density: the joint pure state traced over its hidden factors.

    Computed by the hidden-chain recursion; the joint state is never formed.
    """
    return DensityMatrix(
        _hidden_chain_density(model, n_sites, size_cap), (model.d,) * n_sites
    )


def diagonal_channel(rho: DensityMatrix) -> DensityMatrix:
    """Dephase in the word basis: zero all off-diagonal entries."""
    return DensityMatrix(np.diag(np.diag(rho.matrix)), rho.factor_dims)


def relative_entropy(
    rho: DensityMatrix, sigma: DensityMatrix, eps: float = SUPPORT_EPS
) -> float:
    """Tr(rho log rho) - Tr(rho log sigma) on supports; +inf if supports split.

    Eigenvalues at or below eps count as zero.  An eigenvector of rho with
    eigenvalue above eps overlapping the null space of sigma by more than eps
    makes the divergence infinite.
    """
    r = rho.matrix if isinstance(rho, DensityMatrix) else as_matrix(rho)
    s = sigma.matrix if isinstance(sigma, DensityMatrix) else as_matrix(sigma)
    if r.shape != s.shape:
        raise ValueError(f"shape mismatch {r.shape} vs {s.shape}")
    spec_r = hermitian_eig(r)
    spec_s = hermitian_eig(s)
    if spec_r.eigenvalues.min() < -eps or spec_s.eigenvalues.min() < -eps:
        raise ValueError("inputs must be positive semidefinite within eps")

    lam = spec_r.eigenvalues
    mu = spec_s.eigenvalues
    overlap = np.abs(spec_r.eigenvectors.conj().T @ spec_s.eigenvectors) ** 2
    r_support = lam > eps
    s_null = mu <= eps
    if np.any(s_null):
        null_mass = overlap[:, s_null].sum(axis=1)
        if np.any(null_mass[r_support] > eps):
            return math.inf

    term_r = float(np.sum(lam[r_support] * np.log(lam[r_support])))
    s_support = ~s_null
    log_mu = np.log(mu[s_support])
    term_s = float(lam[r_support] @ overlap[np.ix_(r_support, s_support)] @ log_mu)
    return term_r - term_s


def _rhs_terms(
    t: SiteTensorSet, pi: np.ndarray, n_sites: int, psi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-word numerators |Tr prod A|^2 and denominators m^{3/2} pi^T (prod A o conj A) e.

    ``psi`` holds the trace coefficients Tr prod A (the `build_state`
    entries); the denominators come from one boundary-vector contraction
    over the real family |A_k|^2.
    """
    num = np.abs(psi)
    num **= 2
    m = t.m
    stacks = _site_stacks(t, n_sites, lambda s: s.real**2 + s.imag**2)
    e_vec = np.ones((m, 1)) / math.sqrt(m)
    den = _word_sums(stacks, pi[None], e_vec)
    den *= m**1.5
    return num, den


def _weigh_rhs(
    num: np.ndarray, den: np.ndarray, m: int, eps: float, trace_normalized: bool
) -> float:
    """(1/m) sum_words num log(num / den), optionally for the unit-trace rescaling.

    Words with num <= eps contribute nothing; a kept word with den <= eps
    makes the bound +inf.
    """
    scale = float(num.sum()) / m if trace_normalized else 1.0
    if trace_normalized and scale <= 0.0:
        raise ValueError("cannot trace-normalize a zero state")
    keep = num > eps
    if np.any(keep & (den <= eps)):
        return math.inf
    terms = np.divide(num, den, out=np.ones_like(num), where=keep)
    if trace_normalized:
        terms /= scale
    np.log(terms, out=terms)
    terms *= num
    return float(terms.sum()) / (m * scale)


def bound_rhs(
    t: SiteTensorSet,
    pi: np.ndarray,
    n_sites: int,
    eps: float = SUPPORT_EPS,
    trace_normalized: bool = False,
) -> float:
    """Closed-form lower bound for the MPS-vs-observation relative entropy.

    (1/m) sum_words |Tr prod A|^2 * log(|Tr prod A|^2 / (m^{3/2} pi^T
    (prod A o conj A) e)).  Zero numerators contribute nothing; a nonzero
    numerator over a vanishing denominator gives +inf.  With
    ``trace_normalized`` the word weights are rescaled to the unit-trace
    version of the MPS density.  Numerators and denominators for all words
    come from two split-half contractions: the dense state, and the
    boundary-vector form over the family |A_k|^2.
    """
    pi = np.asarray(pi, dtype=np.float64).reshape(-1)
    if pi.size != t.m:
        raise ValueError(f"pi has length {pi.size}, expected {t.m}")
    psi = build_state(t, n_sites).entries
    num, den = _rhs_terms(t, pi, n_sites, psi)
    return _weigh_rhs(num, den, t.m, eps, trace_normalized)


@dataclass(frozen=True)
class BoundReport:
    """Everything measured while checking the entropy lower bound.

    Literal quantities use the density (1/m)|psi><psi| exactly as defined even
    when its trace is not 1; the *_normalized fields rescale it to unit trace
    first.  ``holds`` compares the literal pair, ``holds_normalized`` the
    rescaled one; an infinite divergence satisfies the bound trivially.
    """

    s_value: float
    rhs_value: float
    s_diag: float
    holds: bool
    trace_rho: float
    trace_sigma: float
    s_value_normalized: float
    rhs_value_normalized: float
    s_diag_normalized: float
    holds_normalized: bool
    support_violation: bool
    hidden_unitary: bool

    @property
    def trace_deviation(self) -> float:
        return abs(self.trace_rho - 1.0)


def _classical_divergence(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """sum_w p ln(p / q) over words with p > eps; +inf if such a word has q <= eps."""
    keep = p > eps
    if np.any(q[keep] <= eps):
        return math.inf
    pk = p[keep]
    return float(np.sum(pk * np.log(pk / q[keep])))


def _rank_one_divergence(
    t: float, weights: np.ndarray, mu: np.ndarray, eps: float
) -> float:
    """S(t |v><v| || sigma) from sigma's eigenvalues mu and weights |<u_j|v>|^2.

    Same support rules as `relative_entropy`: t <= eps gives 0, and a mass
    above eps of v on sigma's null space (mu <= eps) gives +inf.
    """
    if t <= eps:
        return 0.0
    support = mu > eps
    if float(weights[~support].sum()) > eps:
        return math.inf
    return t * math.log(t) - t * float(weights[support] @ np.log(mu[support]))


def check_bound(
    model: EhmmModel,
    n_sites: int,
    eps: float = SUPPORT_EPS,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> BoundReport:
    """Run the full lower-bound pipeline for a model at N sites.

    The observation density sigma comes from the trace route (the
    hidden-chain recursion, which never forms the joint state) and is
    eigendecomposed once; the model was validated when it was built.  The
    MPS density (1/m)|psi><psi| has rank one, so S against sigma is
    t ln t - t <v|log sigma|v> with t = |psi|^2 / m and v = psi / |psi|.
    Both densities dephased are diagonal, so their S is the classical
    divergence between |psi|^2 / m and diag(sigma).  Support cuts at ``eps``
    match `relative_entropy`, which stays the literal oracle.  The RHS word
    terms are evaluated once and weighted for both the literal and the
    unit-trace bound.
    """
    t = tensors_from_ehmm(model, require_unitary=False)
    hidden_unitary = all(is_unitary(u) for u in model.hidden)
    psi = build_state(t, n_sites, size_cap).entries
    sigma = _hidden_chain_density(model, n_sites, size_cap)

    spec = hermitian_eig(sigma)
    mu = spec.eigenvalues
    if mu.min() < -eps:
        raise ValueError("inputs must be positive semidefinite within eps")
    num, den = _rhs_terms(t, model.pi, n_sites, psi)
    p = num / t.m
    q = np.diag(sigma).real
    trace_rho = float(p.sum())
    if trace_rho <= 0.0:
        raise ValueError("cannot normalize a traceless density matrix")
    v = psi / math.sqrt(trace_rho * t.m)
    weights = np.abs(spec.eigenvectors.conj().T @ v) ** 2

    s_value = _rank_one_divergence(trace_rho, weights, mu, eps)
    s_diag = _classical_divergence(p, q, eps)
    rhs_value = _weigh_rhs(num, den, t.m, eps, trace_normalized=False)

    s_norm = _rank_one_divergence(1.0, weights, mu, eps)
    s_diag_norm = _classical_divergence(p / trace_rho, q, eps)
    rhs_norm = _weigh_rhs(num, den, t.m, eps, trace_normalized=True)

    return BoundReport(
        s_value=s_value,
        rhs_value=rhs_value,
        s_diag=s_diag,
        holds=bool(s_value >= rhs_value - BOUND_SLACK),
        trace_rho=trace_rho,
        trace_sigma=float(q.sum()),
        s_value_normalized=s_norm,
        rhs_value_normalized=rhs_norm,
        s_diag_normalized=s_diag_norm,
        holds_normalized=bool(s_norm >= rhs_norm - BOUND_SLACK),
        support_violation=math.isinf(s_value),
        hidden_unitary=bool(hidden_unitary),
    )
