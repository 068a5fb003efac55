import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpshmm import catalog, entropy
from mpshmm.bridge import tensors_from_ehmm
from mpshmm.ehmm import DEFAULT_SIZE_CAP, EhmmModel, build_psi_hon
from mpshmm.entropy import (
    BOUND_SLACK,
    DensityMatrix,
    bound_rhs,
    check_bound,
    diagonal_channel,
    mps_density,
    observation_density_formula,
    observation_density_trace,
    relative_entropy,
)
from mpshmm.linalg import partial_trace
from mpshmm.mps import SiteTensorSet, build_state, coefficient
from test_mps import random_site_tensors


def normalized(rho):
    """The unit-trace copy of a density matrix."""
    return DensityMatrix(rho.matrix / rho.trace_value, rho.factor_dims)


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---- density containers ----


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0, 1], [0, 0]], dtype=complex), (2,))


def test_density_matrix_rejects_negative():
    # the constructor checks shape and Hermiticity; PSD is refused where it is used
    rho = DensityMatrix(np.diag([1.0, -0.5]), (2,))
    with pytest.raises(ValueError, match=r"^inputs must be positive semidefinite: smallest "
                       r"eigenvalue -5\.000e-01 is below -1e-12$"):
        relative_entropy(rho, DensityMatrix(np.eye(2) / 2, (2,)))


# ---- MPS density ----


def test_ghz_mps_density_pure_unit_trace():
    rho = mps_density(catalog.get("ghz").tensors, 3)
    assert np.isclose(rho.trace_value, 1.0)
    eigs = np.linalg.eigvalsh(rho.matrix)
    assert np.isclose(eigs[-1], 1.0)
    assert np.allclose(eigs[:-1], 0.0, atol=1e-12)


def test_zero_tensors_give_zero_density():
    t = SiteTensorSet(((np.zeros((2, 2), dtype=complex),) * 2,), True)
    rho = mps_density(t, 2)
    assert np.array_equal(rho.matrix, np.zeros((4, 4)))
    assert rho.trace_value == 0.0


def test_aklt_density_trace_against_enumeration():
    t = catalog.get("aklt").tensors
    rho = mps_density(t, 3)
    total = 0.0
    fam = t.sites[0]
    for word in np.ndindex(3, 3, 3):
        prod = np.eye(2, dtype=complex)
        for k in word:
            prod = prod @ fam[k]
        total += abs(np.trace(prod)) ** 2
    assert np.isclose(rho.trace_value, total / 2.0, atol=1e-12)
    assert np.isclose(rho.trace_value, 4.0 / 9.0, atol=1e-12)


# ---- observation densities ----


def test_formula_ghz_two_sites():
    t = catalog.get("ghz").tensors
    rho = observation_density_formula(t, np.array([0.5, 0.5]), 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.allclose(rho.matrix, expected, atol=1e-14)


def test_formula_matches_partial_trace_of_joint_state():
    model = catalog.get("aklt-derived").model
    t = tensors_from_ehmm(model)
    psi = build_psi_hon(model, 2)
    joint = np.outer(psi.entries, psi.entries.conj())
    traced = partial_trace(joint, psi.factor_dims, {3, 4})
    formula = observation_density_formula(t, model.pi, 2)
    assert np.max(np.abs(formula.matrix - traced)) <= 1e-12


def test_formula_scalar_case():
    t = SiteTensorSet(((np.array([[1.0]], dtype=complex),),), True)
    rho = observation_density_formula(t, np.array([1.0]), 2)
    assert rho.matrix.shape == (1, 1)
    assert np.isclose(rho.matrix[0, 0], 1.0)


def test_trace_route_ghz():
    rho = observation_density_trace(catalog.get("ghz").model, 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.allclose(rho.matrix, expected, atol=1e-12)


def test_formula_equals_trace_route():
    cases = [
        (catalog.get("theta", theta=math.pi / 3).model, 3),
        (catalog.get("cluster").model, 4),
        (catalog.random_model(2, 2, 4, 60), 4),
        (catalog.random_model(2, 3, 2, 61), 2),
        (catalog.random_model(3, 2, 3, 62), 3),
    ]
    for model, max_n in cases:
        t = tensors_from_ehmm(model, require_unitary=False)
        for n in range(1, max_n + 1):
            formula = observation_density_formula(t, model.pi, n)
            traced = observation_density_trace(model, n)
            assert np.max(np.abs(formula.matrix - traced.matrix)) <= 1e-12
            assert np.isclose(traced.trace_value, 1.0, atol=1e-10)


def test_chi_row_phase_leaves_observation_density_invariant():
    model = catalog.random_model(2, 2, 3, 63)
    phased_chi = tuple(c.copy() for c in model.emission)
    phased_chi[1][0] *= np.exp(0.9j)
    phased = EhmmModel(pi=model.pi, hidden=model.hidden, emission=phased_chi)
    a = observation_density_trace(model, 3)
    b = observation_density_trace(phased, 3)
    assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12


# ---- dephasing channel ----


def test_diagonal_channel_fixes_diagonal_input():
    rho = DensityMatrix(np.diag([0.25, 0.75]), (2,))
    out = diagonal_channel(rho)
    assert np.array_equal(out.matrix, rho.matrix)


def test_diagonal_channel_ghz_density():
    rho = diagonal_channel(mps_density(catalog.get("ghz").tensors, 3))
    expected = np.zeros((8, 8))
    expected[0, 0] = expected[7, 7] = 0.5
    assert np.allclose(rho.matrix, expected)


def test_diagonal_channel_idempotent_trace_preserving():
    rng = np.random.default_rng(64)
    rho = DensityMatrix(random_density(rng, 4), (4,))
    once = diagonal_channel(rho)
    twice = diagonal_channel(once)
    assert np.array_equal(once.matrix, twice.matrix)
    assert np.isclose(once.trace_value, rho.trace_value)


# ---- relative entropy ----


def test_relative_entropy_self_is_zero():
    rng = np.random.default_rng(65)
    rho = DensityMatrix(random_density(rng, 4), (4,))
    assert abs(relative_entropy(rho, rho)) <= 1e-10


def test_relative_entropy_two_level_cases():
    pure = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    mixed = DensityMatrix(np.diag([0.5, 0.5]), (2,))
    assert np.isclose(relative_entropy(pure, mixed), math.log(2.0), atol=1e-12)
    assert relative_entropy(mixed, pure) == math.inf


def test_relative_entropy_rejects_non_psd():
    with pytest.raises(ValueError, match=r"^inputs must be positive semidefinite: smallest "
                       r"eigenvalue -2\.000e-01 is below -1e-12$"):
        relative_entropy(np.diag([1.0, -0.2]), np.eye(2) / 2)


def test_check_bound_psd_message_states_the_bound(monkeypatch):
    monkeypatch.setattr(entropy, "_hidden_chain_density", lambda *args: np.diag([1.0, -0.5]))
    with pytest.raises(ValueError, match=r"smallest eigenvalue -5\.000e-01 is below -1e-12$"):
        check_bound(catalog.get("ghz").model, 1)


def test_relative_entropy_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(66)
    for _ in range(10):
        rho = DensityMatrix(random_density(rng, 4), (4,))
        sigma = DensityMatrix(random_density(rng, 4), (4,))
        s = relative_entropy(rho, sigma)
        assert s >= -1e-10
        assert s > 1e-8  # distinct random states are strictly separated
    rho = DensityMatrix(random_density(rng, 4), (4,))
    assert abs(relative_entropy(rho, DensityMatrix(rho.matrix.copy(), (4,)))) <= 1e-10


# ---- the lower bound ----


def test_bound_rhs_ghz_is_zero():
    t = catalog.get("ghz").tensors
    assert abs(bound_rhs(t, np.array([0.5, 0.5]), 3)) <= 1e-10


def test_bound_rhs_single_word_hand_value():
    # one symbol, A = I/sqrt(2), uniform pi, one site:
    # numerator |Tr A|^2 = 2, denominator m^(3/2) pi (A o conj A) e = 1,
    # so the bound is (1/2) * 2 * ln 2 = ln 2
    t = SiteTensorSet(((np.eye(2, dtype=complex) / math.sqrt(2.0),),), True)
    val = bound_rhs(t, np.array([0.5, 0.5]), 1)
    assert np.isclose(val, math.log(2.0), atol=1e-12)


def test_bound_rhs_equals_dephased_relative_entropy():
    for seed, (m, d) in ((67, (2, 2)), (68, (2, 3)), (69, (3, 2))):
        model = catalog.random_model(m, d, 3, seed)
        t = tensors_from_ehmm(model)
        for n in (1, 2):
            rho = mps_density(t, n)
            sigma = observation_density_trace(model, n)
            lhs = relative_entropy(diagonal_channel(rho), diagonal_channel(sigma))
            assert np.isclose(bound_rhs(t, model.pi, n), lhs, atol=1e-10)
            rho_hat = normalized(rho)
            lhs_hat = relative_entropy(diagonal_channel(rho_hat), diagonal_channel(sigma))
            assert np.isclose(
                bound_rhs(t, model.pi, n, trace_normalized=True), lhs_hat, atol=1e-10
            )


def test_check_bound_ghz():
    rep = check_bound(catalog.get("ghz").model, 3)
    assert abs(rep.s_value - math.log(2.0)) <= 1e-8
    assert abs(rep.rhs_value) <= 1e-10
    assert rep.holds and rep.holds_normalized
    assert rep.s_diag <= rep.s_value + BOUND_SLACK
    assert np.isclose(rep.trace_rho, 1.0)
    assert rep.hidden_unitary


def test_check_bound_cluster():
    rep = check_bound(catalog.get("cluster").model, 3)
    assert rep.holds and rep.holds_normalized
    assert rep.s_diag <= rep.s_value + BOUND_SLACK


def test_check_bound_theta():
    rep = check_bound(catalog.get("theta", theta=math.pi / 4).model, 2)
    assert rep.holds and rep.holds_normalized
    assert rep.s_diag <= rep.s_value + BOUND_SLACK
    assert not rep.hidden_unitary


def test_data_processing_both_channels():
    rng = np.random.default_rng(70)
    for _ in range(10):
        dims = (2, 2)
        rho_m, sigma_m = random_density(rng, 4), random_density(rng, 4)
        rho = DensityMatrix(rho_m, dims)
        sigma = DensityMatrix(sigma_m, dims)
        s = relative_entropy(rho, sigma)
        s_deph = relative_entropy(diagonal_channel(rho), diagonal_channel(sigma))
        red_r = DensityMatrix(partial_trace(rho_m, dims, {0}), (2,))
        red_s = DensityMatrix(partial_trace(sigma_m, dims, {0}), (2,))
        s_red = relative_entropy(red_r, red_s)
        assert s_deph <= s + 1e-8
        assert s_red <= s + 1e-8


def test_bound_report_flags_trace_deviation():
    # cluster MPS on 3 sites has squared norm 1, so the literal density has
    # trace 1/2; the report records it rather than hiding it
    rep = check_bound(catalog.get("cluster").model, 3)
    assert np.isclose(rep.trace_rho, 0.5, atol=1e-12)
    assert abs(rep.trace_rho - 1.0) > 0.4


# ---- check_bound against the literal density-matrix route ----


def explicit_partial_trace(model, n):
    """sigma from the joint |psi><psi| traced over the hidden factors."""
    psi = build_psi_hon(model, n)
    joint = np.outer(psi.entries, psi.entries.conj())
    return partial_trace(joint, psi.factor_dims, range(n + 1, 2 * n + 1))


def literal_divergences(model, n):
    """(S, S dephased, S normalized, S dephased normalized) by `relative_entropy`."""
    rho = mps_density(tensors_from_ehmm(model, require_unitary=False), n)
    sigma = DensityMatrix(explicit_partial_trace(model, n), (model.d,) * n)
    rho_hat = normalized(rho)
    return (
        relative_entropy(rho, sigma),
        relative_entropy(diagonal_channel(rho), diagonal_channel(sigma)),
        relative_entropy(rho_hat, sigma),
        relative_entropy(diagonal_channel(rho_hat), diagonal_channel(sigma)),
    )


def pinned_model():
    # pi = (1, 0): the MPS trace runs over hidden index 2 as well, the joint
    # state does not, so psi leaks out of sigma's support
    return EhmmModel(
        pi=np.array([1.0, 0.0]),
        hidden=(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),),
        emission=(np.eye(2, dtype=complex),),
        translation_invariant=True,
    )


CROSS_CHECK_MODELS = [
    ("ghz", catalog.get("ghz").model),
    ("cluster", catalog.get("cluster").model),
    ("theta(pi/3)", catalog.get("theta", theta=math.pi / 3).model),
    ("aklt-derived", catalog.get("aklt-derived").model),
    ("random(2,2)", catalog.random_model(2, 2, 3, 71)),
    ("random(2,3)", catalog.random_model(2, 3, 3, 72)),
    ("random(3,2)", catalog.random_model(3, 2, 3, 73)),
    ("pinned", pinned_model()),
]


@pytest.mark.parametrize("name, model", CROSS_CHECK_MODELS, ids=[c[0] for c in CROSS_CHECK_MODELS])
def test_check_bound_equals_literal_route(name, model):
    for n in (1, 2, 3):
        rep = check_bound(model, n)
        fast = (rep.s_value, rep.s_diag, rep.s_value_normalized, rep.s_diag_normalized)
        for got, want in zip(fast, literal_divergences(model, n)):
            if math.isinf(want) or math.isinf(got):
                assert got == want, (name, n, fast)
            else:
                assert abs(got - want) <= 1e-10, (name, n, got, want)


def test_pinned_model_exercises_infinite_divergence():
    rep = check_bound(pinned_model(), 2)
    assert rep.s_value == math.inf and rep.support_violation
    assert rep.holds and rep.holds_normalized


def test_gram_trace_route_equals_explicit_partial_trace():
    for _, model in CROSS_CHECK_MODELS:
        for n in (1, 2, 3):
            gram = observation_density_trace(model, n).matrix
            assert np.max(np.abs(gram - explicit_partial_trace(model, n))) <= 1e-12


# explicit_partial_trace forms the (m^(N+1) d^N)^2 joint outer product
OUTER_CAP = 2**20


def partial_trace_reference(model, n):
    """explicit_partial_trace, or the joint state's Gram matrix where the outer product is too big."""
    psi = build_psi_hon(model, n)
    if psi.dim**2 <= OUTER_CAP:
        return explicit_partial_trace(model, n)
    b = psi.entries.reshape(-1, model.d**n)
    return b.T @ b.conj()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_hidden_chain_density_equals_partial_trace(m, d):
    for n in range(1, 5):
        model = catalog.random_model(m, d, n, 500 + 100 * m + 10 * d + n)
        sigma = observation_density_trace(model, n).matrix
        assert np.max(np.abs(sigma - partial_trace_reference(model, n))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 3),
    d=st.integers(2, 3),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_hidden_chain_density_equals_partial_trace_property(m, d, n, seed):
    assume((m ** (n + 1) * d**n) ** 2 <= OUTER_CAP)
    model = catalog.random_model(m, d, n, seed)
    sigma = observation_density_trace(model, n).matrix
    assert np.max(np.abs(sigma - explicit_partial_trace(model, n))) <= 1e-12


def test_check_bound_random_model_beyond_joint_state_reach():
    # the joint state at N=9 would hold 3^10 * 2^9 entries, above the cap
    for seed in (7, 8):
        rep = check_bound(catalog.random_model(3, 2, 9, seed), 9)
        assert rep.holds and rep.holds_normalized
        assert abs(rep.rhs_value_normalized - rep.s_diag_normalized) <= 1e-10


def test_size_cap_counts_observation_density_recursion():
    # m=2, d=3, N=3: sigma 729 entries, recursion 2 * 729 = 1458
    model = catalog.random_model(2, 3, 3, 74)
    for refuse in (
        lambda: check_bound(model, 3, size_cap=1457),
        lambda: observation_density_trace(model, 3, size_cap=1000),
    ):
        with pytest.raises(ValueError, match="recursion of 1458 entries exceeds size cap"):
            refuse()
    assert check_bound(model, 3, size_cap=1458).holds


def _complex_eig(a):
    """The complex `eigh` route, whatever the imaginary part."""
    vals, vecs = np.linalg.eigh(np.asarray(a, dtype=np.complex128))
    return vals[::-1].copy(), vecs[:, ::-1].copy()


REAL_SIGMA_MODELS = [
    ("ghz", None),
    ("cluster", None),
    ("aklt-derived", None),
    ("theta", math.pi / 6),
    ("theta", math.pi / 4),
    ("theta", math.pi / 3),
]


@pytest.mark.parametrize("name, theta", REAL_SIGMA_MODELS)
def test_exactly_real_sigma_takes_real_eigh_and_matches_complex_route(name, theta, monkeypatch):
    model = catalog.get(name, theta=theta).model
    eigh = np.linalg.eigh
    checked = 0
    for n in range(1, 9):
        if model.m * model.d ** (2 * n) > DEFAULT_SIZE_CAP:  # the recursion's cap
            break
        dtypes = []
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", lambda a: dtypes.append(a.dtype) or eigh(a))
            real = check_bound(model, n)
        assert dtypes == [np.float64]
        with monkeypatch.context() as patch:
            patch.setattr(entropy, "hermitian_eig", _complex_eig)
            ref = check_bound(model, n)
        for field in ("s_value", "s_diag", "rhs_value", "s_value_normalized", "s_diag_normalized",
                      "rhs_value_normalized"):
            a, b = getattr(real, field), getattr(ref, field)
            assert math.isinf(a) == math.isinf(b), (field, n)
            assert a == b or abs(a - b) <= 1e-12, (field, n)
        assert (real.holds, real.holds_normalized) == (ref.holds, ref.holds_normalized)
        checked += 1
    assert checked == (6 if name == "aklt-derived" else 8)


def test_check_bound_ghz_beyond_joint_outer_product_reach():
    # the joint |psi><psi| at N=8 would hold (2^17)^2 entries, far above the cap
    rep = check_bound(catalog.get("ghz").model, 8)
    assert abs(rep.s_value - math.log(2.0)) <= 1e-8
    assert rep.holds and rep.holds_normalized


def test_small_size_cap_refuses_observation_density():
    # m=2, d=3, N=3: state 27, joint state 432, sigma 729 entries
    model = catalog.random_model(2, 3, 3, 74)
    with pytest.raises(ValueError, match="729 entries exceeds size cap 500"):
        check_bound(model, 3, size_cap=500)
    with pytest.raises(ValueError, match="exceeds size cap 500"):
        observation_density_trace(model, 3, size_cap=500)


def test_formula_route_past_the_former_pair_cap_equals_trace_route():
    # d=2, N=7: 2^14 word pairs, within the default size cap
    model = catalog.random_model(2, 2, 7, 75)
    t = tensors_from_ehmm(model, require_unitary=False)
    formula = observation_density_formula(t, model.pi, 7)
    traced = observation_density_trace(model, 7)
    assert np.max(np.abs(formula.matrix - traced.matrix)) <= 1e-12


def test_density_builders_share_one_size_cap():
    # GHZ, m=2, d=2 under cap 600: N=4 gives 256 matrix entries (512 in the
    # recursion), N=5 gives 1024
    entry = catalog.get("ghz")
    routes = (
        lambda n: observation_density_formula(entry.tensors, entry.model.pi, n, size_cap=600),
        lambda n: observation_density_trace(entry.model, n, size_cap=600),
        lambda n: mps_density(entry.tensors, n, size_cap=600),
    )
    for route in routes:
        assert route(4).dim == 16
        with pytest.raises(ValueError, match="^state of 1024 entries exceeds size cap 600$"):
            route(5)


@pytest.mark.parametrize("n", [12, 22])
def test_mps_density_cap_counts_the_matrix(n):
    # d=2: the state has 2^N entries, within the default cap; the matrix 2^(2N)
    with pytest.raises(ValueError, match="exceeds size cap"):
        mps_density(catalog.get("ghz").tensors, n)


def test_check_bound_zero_state_raises():
    # a hidden swap returns to its start only after an even number of sites,
    # so every periodic trace at N=1 vanishes
    swap = EhmmModel(
        pi=np.array([0.5, 0.5]),
        hidden=(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),),
        emission=(np.eye(2, dtype=complex),),
        translation_invariant=True,
    )
    assert np.all(build_state(tensors_from_ehmm(swap), 1).entries == 0)
    with pytest.raises(ValueError, match="cannot normalize a traceless density matrix"):
        check_bound(swap, 1)


# ---- batched word kernel against per-word reference loops ----


def loop_bound_rhs(t, pi, n, eps=1e-12, trace_normalized=False):
    """The bound's word sum, one running product per word."""
    m = t.m
    e_vec = np.ones(m) / math.sqrt(m)
    nums, dens = [], []
    for word in np.ndindex(*(t.d,) * n):
        prod = np.eye(m, dtype=complex)
        prod_sq = np.eye(m, dtype=complex)
        for fam, k in zip(t.site_stack(n), word):
            a = fam[k]
            prod = prod @ a
            prod_sq = prod_sq @ (a * a.conj())
        nums.append(abs(complex(np.trace(prod))) ** 2)
        dens.append((m**1.5) * float((pi @ prod_sq @ e_vec).real))
    scale = sum(nums) / m if trace_normalized else 1.0
    total = 0.0
    for num, den in zip(nums, dens):
        if num <= eps:
            continue
        if den <= eps:
            return math.inf
        if trace_normalized:
            total += (num / (m * scale)) * math.log(num / (scale * den))
        else:
            total += (num / m) * math.log(num / den)
    return total


def loop_observation_density(t, pi, n):
    """The Schur-product formula, one chained product per (word, word') pair."""
    e_vec = np.ones(t.m) / math.sqrt(t.m)
    words = list(np.ndindex(*(t.d,) * n))
    mat = np.empty((len(words), len(words)), dtype=complex)
    for a, word in enumerate(words):
        for b, word_p in enumerate(words):
            prod = np.eye(t.m, dtype=complex)
            for fam, k, k_p in zip(t.site_stack(n), word, word_p):
                prod = prod @ (fam[k] * fam[k_p].conj())
            mat[a, b] = math.sqrt(t.m) * (pi @ prod @ e_vec)
    return mat


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_bound_rhs_matches_word_loop(m, d):
    rng = np.random.default_rng(200 + 10 * m + d)
    for n in range(1, 6):
        t = random_site_tensors(rng, m, d, n)
        pi = rng.dirichlet(np.ones(m))
        for norm in (False, True):
            expected = loop_bound_rhs(t, pi, n, trace_normalized=norm)
            got = bound_rhs(t, pi, n, trace_normalized=norm)
            assert math.isclose(got, expected, rel_tol=1e-10, abs_tol=1e-10)


def test_bound_rhs_zero_numerator_words_are_skipped():
    # Tr A_0 = 0 but pi^T (A_0 o conj A_0) e > 0: every word of A_0 alone
    # has a zero numerator and a positive denominator
    a0 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    t = SiteTensorSet(((a0, np.eye(2, dtype=complex) / math.sqrt(2.0)),), True)
    pi = np.array([0.5, 0.5])
    assert abs(coefficient(t, (0, 0, 0))) == 0.0
    for n in (1, 2, 3):
        for norm in (False, True):
            got = bound_rhs(t, pi, n, trace_normalized=norm)
            assert math.isfinite(got)
            assert math.isclose(got, loop_bound_rhs(t, pi, n, trace_normalized=norm), rel_tol=1e-12)


def test_bound_rhs_vanishing_denominator_is_infinite():
    # GHZ projectors with pi = (1, 0): the word 111 has trace 1 but
    # pi^T P_1 e = 0
    t = catalog.get("ghz").tensors
    pi = np.array([1.0, 0.0])
    for norm in (False, True):
        assert loop_bound_rhs(t, pi, 3, trace_normalized=norm) == math.inf
        assert bound_rhs(t, pi, 3, trace_normalized=norm) == math.inf


def test_bound_rhs_zero_state_cannot_be_trace_normalized():
    t = SiteTensorSet(((np.zeros((2, 2), dtype=complex),) * 2,), True)
    assert bound_rhs(t, np.array([0.5, 0.5]), 2) == 0.0
    with pytest.raises(ValueError, match="zero state"):
        bound_rhs(t, np.array([0.5, 0.5]), 2, trace_normalized=True)


@pytest.mark.parametrize("pi", [[0.5, math.nan], [-0.5, 1.5], [0.5, math.inf]])
def test_pi_must_be_finite_and_non_negative(pi):
    t = tensors_from_ehmm(catalog.get("aklt-derived").model)
    with pytest.raises(ValueError, match="^pi entries must be finite and non-negative$"):
        bound_rhs(t, pi, 3)
    with pytest.raises(ValueError, match="^pi entries must be finite and non-negative$"):
        observation_density_formula(t, pi, 3)
    with pytest.raises(ValueError, match="^pi has length 3, expected 2$"):
        bound_rhs(t, [0.2, 0.3, 0.5], 3)


def test_density_builders_need_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigendecomposition called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    model = catalog.random_model(2, 2, 3, 5)
    t = tensors_from_ehmm(model)
    DensityMatrix(np.diag([1.0, -0.5]), (2,))
    rho = mps_density(t, 3)
    assert np.isclose(rho.trace_value, build_state(t, 3).norm() ** 2 / 2)
    sigma = observation_density_formula(t, model.pi, 3)
    assert np.abs(sigma.matrix - observation_density_trace(model, 3).matrix).max() <= 1e-12
    assert np.array_equal(diagonal_channel(sigma).matrix, np.diag(np.diag(sigma.matrix)))


def test_bound_report_stores_only_the_unit_trace_triple():
    names = [f.name for f in dataclasses.fields(entropy.BoundReport)]
    assert names == [
        "trace_rho",
        "trace_sigma",
        "s_value_normalized",
        "rhs_value_normalized",
        "s_diag_normalized",
        "hidden_unitary",
    ]
    rep = check_bound(catalog.get("cluster").model, 3)
    t = rep.trace_rho
    for literal, unit in (("s_value", "s_value_normalized"), ("rhs_value", "rhs_value_normalized"),
                          ("s_diag", "s_diag_normalized")):
        assert getattr(rep, literal) == t * getattr(rep, unit) + t * math.log(t)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d, sites", [(2, (1, 2, 3, 4)), (3, (1, 2, 3))])
def test_formula_matches_pair_loop(m, d, sites):
    rng = np.random.default_rng(300 + 10 * m + d)
    for n in sites:
        t = random_site_tensors(rng, m, d, n)
        pi = rng.dirichlet(np.ones(m))
        expected = loop_observation_density(t, pi, n)
        got = observation_density_formula(t, pi, n).matrix
        assert np.abs(got - expected).max() <= 1e-12 * max(1.0, float(np.abs(expected).max()))


def test_bound_rhs_peak_memory_within_build_state_bound():
    # the same limit the AKLT N=7 state has: 1.2x its 3^7 complex entries
    limit = 1.2 * build_state(catalog.get("aklt").tensors, 7).entries.nbytes
    derived = catalog.get("aklt-derived")
    for norm in (False, True):
        bound_rhs(derived.tensors, derived.model.pi, 6, trace_normalized=norm)
        tracemalloc.start()
        try:
            bound_rhs(derived.tensors, derived.model.pi, 6, trace_normalized=norm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit


def test_check_bound_peak_memory_is_sigma_plus_eigenvectors():
    # sigma and the eigenvectors of the complex eigh, 2 x 16 * 4^8 bytes at random m=3, d=2
    model = catalog.random_model(3, 2, 10, 7)
    check_bound(model, 8)
    tracemalloc.start()
    try:
        check_bound(model, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 16 * 4**8


# ---- the scale-aware support rule ----


def uncut_bound_rhs(t, pi, n, trace_normalized):
    """The bound's word sum over every word with a nonzero numerator, no cut at all."""
    num = np.abs(build_state(t, n).entries) ** 2
    row = np.asarray(pi, dtype=float)[None, :]
    for fam in t.site_stack(n):
        sq = np.abs(fam) ** 2
        row = (row[:, None, None, :] @ sq[None]).reshape(-1, t.m)
    den = t.m * row.sum(axis=1)  # m^{3/2} pi^T (prod A o conj A) e, e = 1 / sqrt(m)
    scale = num.sum() / t.m if trace_normalized else 1.0
    keep = num > 0
    weights = num[keep] / (t.m * scale)
    return float(weights @ np.log(num[keep] / (scale * den[keep])))


@pytest.mark.parametrize("norm", [False, True])
def test_bound_rhs_stays_finite_where_word_weights_fall_below_an_absolute_cut(norm):
    # at N=13 the 3^13 word weights shrink past 1e-12; an absolute cut read
    # real denominators as zero and returned inf
    model = catalog.random_model(2, 3, 13, 7)
    t = tensors_from_ehmm(model)
    got = bound_rhs(t, model.pi, 13, trace_normalized=norm)
    assert math.isfinite(got)
    assert abs(got - uncut_bound_rhs(t, model.pi, 13, norm)) <= 1e-10


def test_check_bound_keeps_small_real_eigenvalues_of_sigma():
    # sigma has a dozen eigenvalues between 7e-15 and 1e-12 carrying about
    # 4e-12 of v's mass; an absolute cut counted them as null and gave S = inf
    model = catalog.random_model(3, 3, 8, 24)
    rep = check_bound(model, 6)
    assert math.isfinite(rep.s_value) and math.isfinite(rep.s_value_normalized)
    assert not rep.support_violation
    psi = build_state(tensors_from_ehmm(model), 6).entries
    v = psi / np.linalg.norm(psi)
    mu, vecs = np.linalg.eigh(observation_density_trace(model, 6).matrix)
    w = np.abs(vecs.conj().T @ v) ** 2
    positive = mu > 0
    assert abs(rep.s_value_normalized + float(w[positive] @ np.log(mu[positive]))) <= 1e-9
    assert rep.holds and rep.holds_normalized


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 3),
    d=st.integers(1, 3),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_check_bound_property(m, d, n, seed):
    assume(n <= (2 if d == 3 else 3))
    model = catalog.random_model(m, d, n, seed)
    rep = check_bound(model, n)
    assert rep.holds and rep.holds_normalized
    assert abs(rep.rhs_value_normalized - rep.s_diag_normalized) <= 1e-10
    fast = (rep.s_value, rep.s_diag, rep.s_value_normalized, rep.s_diag_normalized)
    for got, want in zip(fast, literal_divergences(model, n)):
        if math.isinf(want) or math.isinf(got):
            assert got == want
        else:
            assert abs(got - want) <= 1e-10
