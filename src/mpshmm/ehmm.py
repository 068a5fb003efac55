"""Entangled hidden Markov models and their finite-volume state vectors.

A model is the triple (pi, U, chi): an initial distribution over m hidden
states and, per site, m-by-m hidden amplitudes U and m-by-d emission
amplitudes chi with unit-norm rows, held as read-only (L, m, m) and (L, m, d)
stacks over the L stored sites, so that per-site checks and factors such as
|U|^2 (the classical transitions) are one array operation each.

A model is checked once, when it is built, by `require_valid`: it raises at
the first problem, in the order pi, site counts, then the hidden and the
emission matrices site by site, as ``invalid model: <location>: <message>``.
Its pi rule is also the one for formulas that take pi apart from a model.

Every route in the package takes sites 1..n of a stack from one rule,
`_over_sites`: a translation-invariant stack (L = 1) serves any n >= 1 as a
read-only view of stride 0 over the sites, a site-dependent one 1 <= n <= L,
and any other n raises one message.  A per-site factor is computed on the
stored stack, then spread.

A model is immutable, so what is derived from it alone is derived once per
process and shared read-only: whether its hidden stack is unitary
(`EhmmModel.hidden_unitary`), its site tensors (`bridge.tensors_from_ehmm`)
and the factors of its forward passes over the L stored sites (the classical
transitions |U|^2, the steps of `build_psi_on` and of `bridge.observed_mps`,
the latter's fold transfers and its boundary weight, sigma's pair steps and
last-site pair weights, and whether every emission Gram matrix is diagonal).
Each is built on first use and kept for the model's lifetime.  None grows
with a site count, which arrays built per call do; only the pair steps hold
more than the L * d * m^2 entries of the site tensors, L * m^2 * d^2.

The joint state on n sites lives in H^(n+1) (x) K^n and has coefficients

    sqrt(pi[i1]) * U[1][i1,i2] * ... * U[n][i_n,i_{n+1}]
                 * chi[1][i1,k1] * ... * chi[n][i_n,k_n]

on the basis vector e_{i1..i_{n+1}} (x) |k1..kn>.  Hidden factors come first,
then observation factors, both lexicographic.  The joint and hidden states
keep every hidden index (`_chain_step`); the observation vector, sigma and
the partial measurement sum it out by the HMM forward pass, one GEMM per
site with the hidden index last (`_sum_chain`).  The dense MPS state and the
bound's word weights run the same pass over a tensor set's steps
step[j, (k, j')] = A_k[j, j'] (`mps._word_sums`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .linalg import ATOL, TensorVector, as_matrix, partial_inner_product

if TYPE_CHECKING:
    from .mps import SiteTensorSet

DEFAULT_SIZE_CAP = 2**22
ROW_NORM_TOL = 1e-10
PI_SUM_TOL = 1e-12

__all__ = [
    "DEFAULT_SIZE_CAP",
    "EhmmModel",
    "require_valid",
    "build_psi_hon",
    "build_psi_hn",
    "build_psi_on",
    "observation_from_joint",
]


@dataclass(frozen=True)
class EhmmModel:
    """Initial distribution plus per-site hidden/emission amplitude matrices.

    ``hidden[l]`` and ``emission[l]`` describe site l+1 (sites are 1-based in
    formulas).  A translation-invariant model stores a single pair and serves
    it for every site.  Construction copies U and chi into read-only (L, m, m)
    and (L, m, d) stacks over the L stored sites, of which ``hidden`` and
    ``emission`` are views, and raises `ValueError` unless the model is valid.
    The site tensors `bridge.tensors_from_ehmm` builds are kept in ``_tensors``.
    The forward-pass factors (the private cached properties below) are
    derived from the stacks on first read, never at construction, and kept,
    read-only, as long as the model lives.
    """

    pi: np.ndarray
    hidden: tuple[np.ndarray, ...] = field(repr=False)
    emission: tuple[np.ndarray, ...] = field(repr=False)
    translation_invariant: bool = False
    _hidden: np.ndarray = field(init=False, repr=False, compare=False)
    _emission: np.ndarray = field(init=False, repr=False, compare=False)
    _tensors: SiteTensorSet | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        pi, hidden, emission = require_valid(
            self.pi, self.hidden, self.emission, self.translation_invariant
        )
        pi.flags.writeable = hidden.flags.writeable = emission.flags.writeable = False
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "_hidden", hidden)
        object.__setattr__(self, "_emission", emission)
        object.__setattr__(self, "hidden", tuple(hidden))
        object.__setattr__(self, "emission", tuple(emission))

    @property
    def m(self) -> int:
        return self.hidden[0].shape[0]

    @property
    def d(self) -> int:
        return self.emission[0].shape[1]

    @functools.cached_property
    def _non_unitary_site(self) -> int | None:
        """1-based site of the first stored hidden matrix that is not unitary, or None."""
        return _first_non_unitary(self._hidden)

    @functools.cached_property
    def _transitions(self) -> np.ndarray:
        """(L, m, m) classical transitions |U|^2 of the stored sites."""
        return _read_only(np.abs(self._hidden) ** 2)

    @functools.cached_property
    def _observation_steps(self) -> np.ndarray:
        """`build_psi_on`'s (L, m, d*m) steps chi[i, k] |U|^2[i, j]."""
        return _read_only(_summed_steps(self._emission, self._transitions))

    @functools.cached_property
    def _kept_steps(self) -> np.ndarray:
        """`bridge.observed_mps`'s (L, m, d*m) kept-site steps chi[i, k] U[i, j]."""
        return _read_only(_summed_steps(self._emission, self._hidden))

    @functools.cached_property
    def _fold_transfers(self) -> np.ndarray:
        """`bridge.observed_mps`'s (L, m, m) trailing transfers |U|^2 * sum_k |chi[:, k]|^2."""
        u, chi = self._hidden, self._emission
        return _read_only((u.conj() * u) * (chi.conj() * chi).sum(axis=2)[..., None])

    @functools.cached_property
    def _pair_steps(self) -> np.ndarray:
        """Sigma's (L, m, d*d*m) steps chi[i, k] conj(chi[i, k']) |U|^2[i, j] over pair symbols (k, k')."""
        return _read_only(_summed_steps(_emission_pairs(self._emission), self._transitions))

    @functools.cached_property
    def _pair_last(self) -> np.ndarray:
        """Sigma's (L, m, d*d) last-site weights chi[i, k] conj(chi[i, k']) sum_j |U|^2[i, j]."""
        pairs = _emission_pairs(self._emission)
        return _read_only(pairs * self._transitions.sum(axis=2)[..., None])

    @functools.cached_property
    def _gram_diagonal(self) -> np.ndarray | None:
        """(L, m) diagonals g of the Grams G = conj(chi) chi^T, or None unless each is exactly diagonal.

        A diagonal G means orthogonal emission rows, so that sigma's spectrum
        follows from the hidden chain alone (`entropy.check_bound`).
        """
        chi = self._emission
        gram = chi.conj() @ chi.transpose(0, 2, 1)
        diagonal = gram.diagonal(axis1=1, axis2=2)
        if np.count_nonzero(gram) != np.count_nonzero(diagonal):
            return None
        return _read_only(diagonal.real.copy())

    @functools.cached_property
    def _boundary_weight(self) -> np.ndarray:
        """`bridge.observed_mps`'s weight sqrt(pi) conj(1/sqrt(pi)); read once pi > 0 is checked."""
        sqrt_pi = np.sqrt(self.pi)
        return _read_only(sqrt_pi * np.conj(1.0 / sqrt_pi))

    @property
    def hidden_unitary(self) -> bool:
        """Whether every hidden matrix is unitary; decided once per model."""
        return self._non_unitary_site is None

    def site_stacks(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(n, m, m) hidden and (n, m, d) emission stacks of sites 1..n, by `_over_sites`."""
        ti = self.translation_invariant
        return _over_sites(self._hidden, ti, n), _over_sites(self._emission, ti, n)


def _over_sites(stack: np.ndarray, translation_invariant: bool, n: int) -> np.ndarray:
    """Sites 1..n of a stack over the stored sites: the one site rule.

    A translation-invariant stack holds one site, served to n sites as a
    read-only view of it with stride 0 over the sites, built directly on the
    stack's memory, which must be contiguous as every stored stack is (this
    skips `np.broadcast_to`'s iterator set-up); a site-dependent one serves
    its first n.  A per-site factor is computed on the stored stack, then
    spread by this rule.
    """
    if n < 1 or not (translation_invariant or n <= len(stack)):
        serves = "any count >= 1" if translation_invariant else f"counts 1..{len(stack)}"
        raise ValueError(f"site count {n} is below 1 or exceeds the stored sites ({serves})")
    if translation_invariant:
        view = np.ndarray((n, *stack.shape[1:]), stack.dtype, stack, 0, (0, *stack.strides[1:]))
        view.flags.writeable = False
        return view
    return stack[:n]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _invalid(location: str, message: str) -> ValueError:
    return ValueError(f"invalid model: {location}: {message}")


def _require_pi(pi: np.ndarray | Sequence, m: int) -> np.ndarray:
    """``pi`` as a new flat float64 array, after checking it is a distribution on m states.

    The one pi rule, for models and for the formulas that take pi apart from
    one: length m, numeric dtype (integer, float or complex; not bool, str or
    object), real, finite and non-negative entries, and a sum within
    `PI_SUM_TOL` of 1.  Raises at the first problem.
    """
    pi = np.reshape(pi, -1)
    if pi.size != m:
        raise _invalid("pi", f"length {pi.size} != hidden dim {m}")
    if pi.dtype.kind not in "iufc":
        raise _invalid("pi", f"non-numeric entry of dtype {pi.dtype}")
    if np.iscomplexobj(pi) and pi.imag.any():
        raise _invalid("pi", f"non-real entry {pi[pi.imag != 0][0]}")
    pi = np.array(pi.real, dtype=np.float64)
    finite = np.isfinite(pi)
    if not finite.all():
        raise _invalid("pi", f"non-finite entry {pi[~finite][0]}")
    neg = float(pi.min(initial=0.0))
    if neg < 0:
        raise _invalid("pi", f"negative entry {neg}")
    total = float(pi.sum())
    if abs(total - 1.0) > PI_SUM_TOL:
        raise _invalid("pi", f"pi sum = {total}")
    return pi


def _unit_row_stack(kind: str, family: list[np.ndarray], shape: tuple[int, int]) -> np.ndarray:
    """A family of matrices as a new (L, rows, cols) stack with unit-norm rows.

    Raises at the first problem, site by site: a row whose squared moduli do
    not sum to 1 within `ROW_NORM_TOL`, or a matrix of another shape.  The
    row sums of the matrices before the first misshapen one come from one
    reduction over their stack; an entry too large to square gives an
    infinite sum, a problem, not a warning.
    """
    fit = next((l for l, a in enumerate(family) if a.shape != shape), len(family))
    stack = np.array(family[:fit]) if fit else np.zeros((0, *shape), dtype=np.complex128)
    with np.errstate(over="ignore"):
        sums = (np.abs(stack) ** 2).sum(axis=-1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_NORM_TOL)
    if bad.size:
        site, row = divmod(int(bad[0]), shape[0])
        message = f"squared-modulus row sum = {sums[site, row]}"
        raise _invalid(f"{kind}[{site + 1}] row {row}", message)
    if fit < len(family):
        raise _invalid(f"{kind}[{fit + 1}]", f"shape {family[fit].shape} != {shape}")
    return stack


def require_valid(
    pi: np.ndarray | Sequence,
    hidden: Sequence,
    emission: Sequence,
    translation_invariant: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """pi and the (L, m, m) hidden and (L, m, d) emission stacks of a valid model, as new arrays.

    Every matrix must be a finite 2-d array.  Raises `ValueError`
    ``invalid model: <location>: <message>`` at the first problem, in this
    order: pi, the site counts, then the hidden and the emission matrices,
    site by site.
    """
    hidden, emission = [as_matrix(u) for u in hidden], [as_matrix(c) for c in emission]
    if not hidden or not emission:
        raise ValueError("model needs at least one site pair")
    m, d = hidden[0].shape[0], emission[0].shape[1]
    pi = _require_pi(pi, m)
    if len(hidden) != len(emission):
        raise _invalid("sites", f"{len(hidden)} hidden vs {len(emission)} emission matrices")
    if translation_invariant and len(hidden) > 1:
        raise _invalid(
            "sites", f"translation-invariant model stores {len(hidden)} site pairs, expected 1"
        )
    hidden = _unit_row_stack("hidden", hidden, (m, m))
    return pi, hidden, _unit_row_stack("emission", emission, (m, d))


def _first_non_unitary(stack: np.ndarray) -> int | None:
    """1-based index of the first matrix of an (L, m, m) stack that is not unitary, or None."""
    gram = stack.conj().transpose(0, 2, 1) @ stack
    gaps = np.linalg.norm(gram - np.eye(stack.shape[-1]), axis=(1, 2))
    return next((l for l, gap in enumerate(gaps, start=1) if gap > ATOL), None)


def _check_cap(
    size_cap: int, *powers: tuple[int, int], what: str = "state"
) -> None:
    """Refuse a dense array of prod(base**exp) entries above ``size_cap``.

    Each base is at least 2^(bit_length - 1).  When that lower bound already
    exceeds 2^64 times the cap, the count is refused, named by its powers,
    without building its integer; otherwise it is computed exactly, so the
    boundary is exact.
    """
    if sum(e * (b.bit_length() - 1) for b, e in powers) > int(size_cap).bit_length() + 64:
        shape = " * ".join(f"{b}^{e}" for b, e in powers)
        raise ValueError(f"{what} of {shape} entries exceeds size cap {size_cap}")
    entries = math.prod(b**e for b, e in powers)
    if entries > size_cap:
        raise ValueError(f"{what} of {entries} entries exceeds size cap {size_cap}")


def _chain_step(x: np.ndarray, u: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Advance the hidden chain x[h, i, w] by one site, keeping every hidden index.

    h is the kept hidden prefix, i the current index and w the observation
    prefix, both in C order.  out[h, i, j, w, k] = x[h, i, w] * u[i, j] *
    chi[i, k] is one batched (W, 1) @ (1, d) matmul, which writes the
    (h * m, out_m, W * d) state and nothing else beside x.
    """
    h, m, w = x.shape
    site = u[:, :, None] * chi[:, None, :]
    out = np.matmul(x[:, :, None, :, None], site[None, :, :, None, :])
    return out.reshape(h * m, u.shape[1], w * chi.shape[1])


def _summed_steps(alphabet: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """`_sum_chain`'s steps of the L stored sites: step[i, (k, j)] = alphabet[i, k] * trans[i, j]."""
    steps = alphabet[..., None] * trans[:, :, None, :]
    return steps.reshape(len(steps), trans.shape[1], -1)


def _emission_pairs(chi: np.ndarray) -> np.ndarray:
    """The (L, m, d*d) pair alphabet chi[i, k] conj(chi[i, k']) of an (L, m, d) emission stack."""
    return (chi[..., None] * chi.conj()[:, :, None]).reshape(*chi.shape[:2], -1)


def _sum_chain(x: np.ndarray, steps: Sequence[np.ndarray]) -> np.ndarray:
    """The HMM forward pass: the chain x[w, i] with its hidden index summed out site by site.

    Each site is one GEMM x.reshape(-1, m) @ step that appends the step's
    symbol k to the words w, writing the chain x[(w, k), j] and nothing else.
    """
    for step in steps:
        x = x.reshape(-1, len(step)) @ step
    return x


def build_psi_hon(
    model: EhmmModel, n: int, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorVector:
    """Joint hidden/observation state on n sites; a unit vector.

    Factors: n+1 hidden (dimension m) followed by n observation (dimension d).
    """
    m, d = model.m, model.d
    _check_cap(size_cap, (m, n + 1), (d, n))
    u, chi = model.site_stacks(n)
    x = np.sqrt(model.pi.astype(np.complex128)).reshape(1, m, 1)
    for u_l, chi_l in zip(u, chi):
        x = _chain_step(x, u_l, chi_l)
    return TensorVector((m,) * (n + 1) + (d,) * n, x.reshape(-1))


def build_psi_hn(
    model: EhmmModel, n: int, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorVector:
    """Hidden Markov chain state on n+1 hidden factors; a unit vector."""
    m = model.m
    _check_cap(size_cap, (m, n + 1))
    u, _ = model.site_stacks(n)
    x = np.sqrt(model.pi.astype(np.complex128)).reshape(1, m, 1)
    no_emission = np.ones((m, 1))
    for u_l in u:
        x = _chain_step(x, u_l, no_emission)
    return TensorVector((m,) * (n + 1), x.reshape(-1))


def build_psi_on(
    model: EhmmModel, n: int, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorVector:
    """Observation-process vector on n observation factors (not unit norm).

    Coefficients chain the classical transition matrices of sites 1..n-1
    between consecutive hidden indices and weight each site with the
    emission amplitudes:

        sum_{i1..in} pi[i1] * Pi_1[i1,i2] * ... * Pi_{n-1}[i_{n-1},i_n]
                            * chi[1][i1,k1] * ... * chi[n][i_n,k_n]

    This is the site numbering the partial-inner-product route
    (`observation_from_joint`) gives, also for site-dependent models.  The
    size cap counts the d^n output and the chain after site n-1, m d^(n-1)
    entries.
    """
    d, ti = model.d, model.translation_invariant
    _check_cap(size_cap, (d, n))
    _check_cap(size_cap, (model.m, 1), (d, n - 1), what="observation-vector recursion")
    steps = _over_sites(model._observation_steps, ti, n)
    last = _over_sites(model._emission, ti, n)[-1]  # no transition at site n: chi_n alone
    x = _sum_chain(model.pi.astype(np.complex128)[None], [*steps[:-1], last])
    return TensorVector((d,) * n, x.reshape(-1))


def observation_from_joint(model: EhmmModel, n: int, size_cap: int = DEFAULT_SIZE_CAP) -> TensorVector:
    """Observation vector via partial inner product against the hidden chain.

    This is the defining route: contract the joint state over all n+1 hidden
    factors, holding the hidden chain vector.
    """
    joint = build_psi_hon(model, n, size_cap)
    chain = build_psi_hn(model, n, size_cap)
    return partial_inner_product(joint, chain, n + 1)
