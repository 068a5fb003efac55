import math
import string

import numpy as np
import pytest

from mpshmm import catalog
from mpshmm.bridge import observed_mps
from mpshmm.ehmm import (
    PI_SUM_TOL,
    ROW_NORM_TOL,
    EhmmModel,
    Violation,
    _check_cap,
    build_psi_hn,
    build_psi_hon,
    build_psi_on,
    observation_from_joint,
    validate,
)
from mpshmm.entropy import check_bound
from mpshmm.linalg import TensorVector, as_matrix
from mpshmm.mps import build_state

# sign variant whose rows realize e_i -> (e_i x e_i + (-1)^i e_i x e_{1-i})/sqrt(2)
HADAMARD_VARIANT = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)


def trivial_model():
    return EhmmModel(
        pi=np.array([1.0]),
        hidden=(np.array([[1.0]]),),
        emission=(np.array([[1.0]]),),
        translation_invariant=True,
    )


# ---- validation ----


def test_ghz_model_is_valid():
    assert validate(catalog.get("ghz").model) == []


def test_pi_sum_violation_reported():
    model = EhmmModel(
        pi=np.array([0.6, 0.6]),
        hidden=(np.eye(2, dtype=complex),),
        emission=(np.eye(2, dtype=complex),),
        translation_invariant=True,
    )
    report = validate(model)
    assert any("pi sum = 1.2" in v.message for v in report)


@pytest.mark.parametrize("bad", [[math.nan, math.nan], [math.inf, -math.inf], [0.5, math.nan]])
def test_non_finite_pi_reported(bad):
    model = EhmmModel(
        pi=np.array(bad),
        hidden=(np.eye(2, dtype=complex),),
        emission=(np.eye(2, dtype=complex),),
        translation_invariant=True,
    )
    report = validate(model)
    assert [v.location for v in report] == ["pi"]
    assert report[0].message.startswith("non-finite entry")
    with pytest.raises(ValueError, match="non-finite entry"):
        build_psi_hon(model, 1)


def test_bad_emission_row_names_index():
    chi = np.array([[1.0, 0.0], [0.5, 0.5]], dtype=complex)  # row 1 not normalized
    model = EhmmModel(
        pi=np.array([0.5, 0.5]),
        hidden=(np.eye(2, dtype=complex),),
        emission=(chi,),
        translation_invariant=True,
    )
    report = validate(model)
    assert any("emission[1] row 1" == v.location for v in report)


def test_translation_invariant_model_with_several_sites_reported():
    model = catalog.random_model(2, 2, 2, 26)
    shared = EhmmModel(
        pi=model.pi, hidden=model.hidden, emission=model.emission, translation_invariant=True
    )
    report = validate(shared)
    assert [v.location for v in report] == ["sites"]
    assert "translation-invariant model stores 2 site pairs" in report[0].message
    with pytest.raises(ValueError, match="translation-invariant model stores 2"):
        build_psi_hon(shared, 2)
    assert validate(model) == []


# ---- isometry matrices: the paper's V_H and V_O, as test-only oracles ----


def hidden_isometry_matrix(u: np.ndarray) -> np.ndarray:
    """Explicit (m^2 x m) matrix of e_i |-> sum_j U[i,j] e_i (x) e_j."""
    u = as_matrix(u)
    m = u.shape[0]
    if u.shape != (m, m):
        raise ValueError(f"hidden amplitude matrix must be square, got {u.shape}")
    v = np.zeros((m * m, m), dtype=np.complex128)
    for i in range(m):
        v[i * m : (i + 1) * m, i] = u[i]
    return v


def emission_isometry_matrix(chi: np.ndarray) -> np.ndarray:
    """Explicit (m*d x m) matrix of e_i |-> sum_k chi[i,k] e_i (x) |k>."""
    chi = as_matrix(chi)
    m, d = chi.shape
    v = np.zeros((m * d, m), dtype=np.complex128)
    for i in range(m):
        v[i * d : (i + 1) * d, i] = chi[i]
    return v


def isometry_chain_state(model: EhmmModel, n: int) -> TensorVector:
    """The joint state by its definition: the isometry chain on sum_i sqrt(pi_i) e_i.

    Site l applies V_O then V_H to the current hidden factor i_l, leaving the
    factors in the order k_1 i_1 k_2 i_2 .. k_n i_n i_{n+1}; they are permuted
    to hidden-then-observation order at the end.
    """
    m, d = model.m, model.d
    x = np.sqrt(model.pi).astype(complex)
    for l in range(1, n + 1):
        x = x.reshape(-1, m) @ emission_isometry_matrix(model.emission_at(l)).T
        x = x.reshape(-1, m, d).transpose(0, 2, 1)  # bring i_l last again
        x = x.reshape(-1, m) @ hidden_isometry_matrix(model.hidden_at(l)).T
    chain = TensorVector((d, m) * n + (m,), x.reshape(-1))
    hidden_first = [*range(1, 2 * n + 1, 2), 2 * n, *range(0, 2 * n, 2)]
    return chain.permute_factors(hidden_first)


ISOMETRY_CHAIN_MODELS = [
    ("ghz", catalog.get("ghz").model),
    ("cluster", catalog.get("cluster").model),
    ("aklt-derived", catalog.get("aklt-derived").model),
    ("theta", catalog.get("theta", theta=math.pi / 3).model),
    ("theta-sites", catalog.get("theta", theta=(0.3, 0.9, 1.4)).model),
] + [
    (f"random-m{m}-d{d}", catalog.random_model(m, d, 3, 10 * m + d))
    for m in (2, 3)
    for d in (2, 3)
]


@pytest.mark.parametrize(
    "model",
    [model for _, model in ISOMETRY_CHAIN_MODELS],
    ids=[name for name, _ in ISOMETRY_CHAIN_MODELS],
)
def test_joint_state_equals_isometry_chain(model):
    for n in (1, 2, 3):
        chain = isometry_chain_state(model, n)
        psi = build_psi_hon(model, n)
        assert chain.factor_dims == psi.factor_dims
        assert np.max(np.abs(chain.entries - psi.entries)) <= 1e-12


def test_hidden_isometry_identity_is_copier():
    v = hidden_isometry_matrix(np.eye(2, dtype=complex))
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1
        assert np.allclose(v[:, i], np.kron(e, e))


def test_hidden_isometry_hadamard_variant_signs():
    v = hidden_isometry_matrix(HADAMARD_VARIANT)
    basis = np.eye(2)
    for i in range(2):
        expected = (
            np.kron(basis[i], basis[i]) + (-1) ** i * np.kron(basis[i], basis[1 - i])
        ) / np.sqrt(2)
        assert np.allclose(v[:, i], expected)


def test_hidden_isometry_is_isometry_for_random_unitary():
    u = catalog.random_model(3, 2, 1, 11).hidden[0]
    v = hidden_isometry_matrix(u)
    assert np.linalg.norm(v.conj().T @ v - np.eye(3)) <= 1e-10


def test_emission_isometry_identity():
    v = emission_isometry_matrix(np.eye(2, dtype=complex))
    basis = np.eye(2)
    for i in range(2):
        assert np.allclose(v[:, i], np.kron(basis[i], basis[i]))


def test_emission_isometry_aklt_derived():
    chi = catalog.get("aklt-derived").model.emission[0]
    v = emission_isometry_matrix(chi)
    assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-10


def test_emission_isometry_extracted_square_roots():
    from mpshmm.bridge import isometries_from_mps

    chi = isometries_from_mps(catalog.get("aklt").tensors).emission[0]
    v = emission_isometry_matrix(chi)
    assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-10


def test_emission_isometry_random_rows():
    chi = catalog.random_model(2, 3, 1, 12).emission[0]
    v = emission_isometry_matrix(chi)
    assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-10


# ---- joint state ----


def test_ghz_joint_state_structure():
    model = catalog.get("ghz").model
    for n in (1, 3):
        psi = build_psi_hon(model, n).as_tensor()
        expected = np.zeros_like(psi)
        for i in range(2):
            expected[(i,) * (n + 1) + (i,) * n] = 1 / np.sqrt(2)
        assert np.allclose(psi, expected)


def test_joint_state_unit_norm():
    models = [
        catalog.get("cluster").model,
        catalog.get("theta", theta=1.1).model,
        catalog.random_model(2, 3, 5, 19),
        catalog.random_model(3, 2, 5, 20),
    ]
    for model in models:
        for n in range(1, 6):
            assert abs(build_psi_hon(model, n).norm() - 1.0) <= 1e-10


def test_theta_joint_state_matches_index_loop():
    model = catalog.get("theta", theta=math.pi / 3).model
    u = model.hidden[0]
    chi = model.emission[0]
    pi = model.pi
    psi = build_psi_hon(model, 2).as_tensor()
    oracle = np.zeros((2, 2, 2, 2, 2), dtype=complex)
    for i1 in range(2):
        for i2 in range(2):
            for i3 in range(2):
                for k1 in range(2):
                    for k2 in range(2):
                        oracle[i1, i2, i3, k1, k2] = (
                            math.sqrt(pi[i1]) * u[i1, i2] * u[i2, i3] * chi[i1, k1] * chi[i2, k2]
                        )
    assert np.allclose(psi, oracle, atol=1e-14)


def test_hidden_chain_state():
    model = catalog.get("ghz").model
    psi = build_psi_hn(model, 3).as_tensor()
    expected = np.zeros_like(psi)
    for i in range(2):
        expected[(i,) * 4] = 1 / np.sqrt(2)
    assert np.allclose(psi, expected)
    for seed in (21, 22):
        rnd = catalog.random_model(2, 2, 4, seed)
        assert abs(build_psi_hn(rnd, 4).norm() - 1.0) <= 1e-10


def test_trivial_one_state_model():
    model = trivial_model()
    assert np.allclose(build_psi_hn(model, 3).entries, [1.0])
    assert np.allclose(build_psi_on(model, 3).entries, [1.0])


def test_observation_state_ghz_hand_value():
    psi = build_psi_on(catalog.get("ghz").model, 2)
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 0.5
    assert np.allclose(psi.entries, expected)


def test_observation_state_equals_partial_inner_product():
    model = catalog.get("theta", theta=math.pi / 3).model
    direct = build_psi_on(model, 3)
    via_pip = observation_from_joint(model, 3)
    assert np.allclose(direct.entries, via_pip.entries, atol=1e-10)
    # also for a site-dependent random model, where the site-numbering
    # ambiguity would show up if the wrong reading were used
    rnd = catalog.random_model(2, 2, 5, 23)
    assert np.allclose(
        build_psi_on(rnd, 4).entries, observation_from_joint(rnd, 4).entries, atol=1e-12
    )


def test_back_measurement_against_observation_vector_is_computable():
    from mpshmm.linalg import partial_inner_product

    # contracting the joint state against the observation vector leaves a
    # hidden-factor vector; no identity with the hidden chain is claimed
    model = catalog.get("theta", theta=0.8).model
    n = 3
    joint = build_psi_hon(model, n)
    obs = build_psi_on(model, n)
    obs_first = joint.permute_factors(list(range(n + 1, 2 * n + 1)) + list(range(n + 1)))
    back = partial_inner_product(obs_first, obs, n)
    assert back.factor_dims == (2,) * (n + 1)
    assert back.norm() > 0
    chain = build_psi_hn(model, n)
    assert np.max(np.abs(back.entries - chain.entries)) > 1e-3  # visibly not a product split


def test_size_cap_enforced():
    model = catalog.get("ghz").model
    with pytest.raises(ValueError, match="size cap"):
        build_psi_hon(model, 4, size_cap=100)


HUGE_N_ROUTES = {
    "build_state": lambda n: build_state(catalog.get("ghz").tensors, n),
    "build_psi_hon": lambda n: build_psi_hon(catalog.get("ghz").model, n),
    "observed_mps": lambda n: observed_mps(catalog.get("ghz").model, n, n),
    "check_bound": lambda n: check_bound(catalog.get("ghz").model, n),
}


@pytest.mark.parametrize("n", [20_000, 10**8])
@pytest.mark.parametrize("route", sorted(HUGE_N_ROUTES))
def test_size_cap_refuses_huge_n_without_its_entry_count(route, n):
    with pytest.raises(ValueError, match=f"2\\^{n} entries exceeds size cap"):
        HUGE_N_ROUTES[route](n)


@pytest.mark.parametrize("powers", [((2, 70),), ((3, 45),), ((2, 3), (3, 40)), ((2, 10),)])
def test_size_cap_is_exact_at_the_boundary(powers):
    entries = math.prod(b**e for b, e in powers)
    _check_cap(entries, *powers)
    message = f"^state of {entries} entries exceeds size cap {entries - 1}$"
    with pytest.raises(ValueError, match=message):
        _check_cap(entries - 1, *powers)


def test_size_cap_message_is_unchanged_for_ordinary_sizes():
    assert build_state(catalog.get("ghz").tensors, 10, size_cap=1024).dim == 1024
    with pytest.raises(ValueError, match="^state of 1024 entries exceeds size cap 1023$"):
        build_state(catalog.get("ghz").tensors, 10, size_cap=1023)


def test_site_dependent_model_length_guard():
    model = catalog.random_model(2, 2, 2, 25)
    with pytest.raises(ValueError, match="exceeds"):
        build_psi_hon(model, 3)


# ---- chain builders against the literal einsum contractions ----


def _letters(count):
    return list(string.ascii_letters[:count])


def einsum_psi_hon(model, n):
    """The joint state as one einsum over all 2n+1 factors (52-letter limit)."""
    us = [model.hidden_at(l) for l in range(1, n + 1)]
    chis = [model.emission_at(l) for l in range(1, n + 1)]
    hid = _letters(2 * n + 1)[: n + 1]
    obs = _letters(2 * n + 1)[n + 1 :]
    subs = [hid[0]]
    subs += [hid[l] + hid[l + 1] for l in range(n)]
    subs += [hid[l] + obs[l] for l in range(n)]
    out = "".join(hid) + "".join(obs)
    coeff = np.einsum(
        ",".join(subs) + "->" + out,
        np.sqrt(model.pi.astype(np.complex128)),
        *us,
        *chis,
        optimize=True,
    )
    return coeff.reshape(-1)


def einsum_psi_hn(model, n):
    us = [model.hidden_at(l) for l in range(1, n + 1)]
    hid = _letters(n + 1)
    subs = [hid[0]] + [hid[l] + hid[l + 1] for l in range(n)]
    coeff = np.einsum(
        ",".join(subs) + "->" + "".join(hid),
        np.sqrt(model.pi.astype(np.complex128)),
        *us,
        optimize=True,
    )
    return coeff.reshape(-1)


def einsum_psi_on(model, n):
    trans = [np.abs(model.hidden_at(l)) ** 2 for l in range(1, n)]
    chis = [model.emission_at(l) for l in range(1, n + 1)]
    hid = _letters(2 * n)[:n]
    obs = _letters(2 * n)[n:]
    subs = [hid[0]]
    subs += [hid[l] + hid[l + 1] for l in range(n - 1)]
    subs += [hid[l] + obs[l] for l in range(n)]
    coeff = np.einsum(
        ",".join(subs) + "->" + "".join(obs),
        model.pi.astype(np.complex128),
        *trans,
        *chis,
        optimize=True,
    )
    return coeff.reshape(-1)


def _chain_cases():
    """Site-dependent and translation-invariant random models, m in 1..3, d in 2..3."""
    cases = []
    for m in (1, 2, 3):
        for d in (2, 3):
            rnd = catalog.random_model(m, d, 5, 300 + 10 * m + d)
            shared = EhmmModel(
                pi=rnd.pi,
                hidden=rnd.hidden[:1],
                emission=rnd.emission[:1],
                translation_invariant=True,
            )
            cases += [(f"m{m}-d{d}-sites", rnd), (f"m{m}-d{d}-shared", shared)]
    return cases


CHAIN_CASES = _chain_cases()


@pytest.mark.parametrize("name, model", CHAIN_CASES, ids=[c[0] for c in CHAIN_CASES])
def test_chain_builders_equal_einsum_reference(name, model):
    for n in range(1, 6):
        pairs = [
            (build_psi_hon(model, n).entries, einsum_psi_hon(model, n)),
            (build_psi_hn(model, n).entries, einsum_psi_hn(model, n)),
            (build_psi_on(model, n).entries, einsum_psi_on(model, n)),
        ]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14, (name, n)


def test_chain_builders_past_einsum_letter_limit():
    # 2n+1 = 61 and 2n = 80 tensor factors; one einsum string has 52 letters
    model = trivial_model()
    assert np.allclose(build_psi_hon(model, 30).entries, [1.0])
    assert np.allclose(build_psi_on(model, 40).entries, [1.0])
    assert np.allclose(build_psi_hn(model, 60).entries, [1.0])


# ---- vectorized validation against the per-row loop ----


def loop_validate(model):
    """The per-row reference: every matrix and row checked in a Python loop."""
    out = []
    m, d = model.m, model.d
    pi = model.pi
    if pi.size != m:
        out.append(Violation("pi", f"length {pi.size} != hidden dim {m}", abs(pi.size - m)))
    finite = np.isfinite(pi)
    if not finite.all():
        bad = pi[~finite][0]
        out.append(Violation("pi", f"non-finite entry {bad}", math.inf))
    else:
        neg = float(pi.min(initial=0.0))
        if neg < 0:
            out.append(Violation("pi", f"negative entry {neg}", -neg))
        s = float(pi.sum())
        if abs(s - 1.0) > PI_SUM_TOL:
            out.append(Violation("pi", f"pi sum = {s}", abs(s - 1.0)))
    if len(model.hidden) != len(model.emission):
        out.append(
            Violation(
                "sites",
                f"{len(model.hidden)} hidden vs {len(model.emission)} emission matrices",
                abs(len(model.hidden) - len(model.emission)),
            )
        )
    stored = max(len(model.hidden), len(model.emission))
    if model.translation_invariant and stored > 1:
        out.append(
            Violation(
                "sites",
                f"translation-invariant model stores {stored} site pairs, expected 1",
                stored - 1,
            )
        )
    for idx, u in enumerate(model.hidden, start=1):
        if u.shape != (m, m):
            out.append(Violation(f"hidden[{idx}]", f"shape {u.shape} != ({m}, {m})", 0.0))
            continue
        rows = np.abs(u) ** 2
        for i, rsum in enumerate(rows.sum(axis=1)):
            if abs(rsum - 1.0) > ROW_NORM_TOL:
                out.append(
                    Violation(
                        f"hidden[{idx}] row {i}",
                        f"squared-modulus row sum = {rsum}",
                        abs(rsum - 1.0),
                    )
                )
    for idx, c in enumerate(model.emission, start=1):
        if c.shape != (m, d):
            out.append(Violation(f"emission[{idx}]", f"shape {c.shape} != ({m}, {d})", 0.0))
            continue
        for i, rsum in enumerate((np.abs(c) ** 2).sum(axis=1)):
            if abs(rsum - 1.0) > ROW_NORM_TOL:
                out.append(
                    Violation(
                        f"emission[{idx}] row {i}",
                        f"squared-modulus row sum = {rsum}",
                        abs(rsum - 1.0),
                    )
                )
    return out


def _malformed_models():
    rnd = catalog.random_model(3, 2, 4, 330)
    hidden, emission = list(rnd.hidden), list(rnd.emission)
    scaled = [h.copy() for h in hidden]
    scaled[1][2] *= 1.1  # one bad row at site 2
    scaled[3] *= 0.5  # every row bad at site 4
    shaped = list(scaled)
    shaped[2] = np.eye(2, dtype=complex)  # wrong shape between sites with bad rows
    bad_chi = [c.copy() for c in emission]
    bad_chi[0][0] = 0.0
    bad_chi[3] = np.ones((3, 3), dtype=complex)
    wide = catalog.random_model(9, 2, 2, 331)
    wide_h = [h.copy() for h in wide.hidden]
    wide_h[0][4] *= 1 + 1e-9
    wide_h[1][8] *= 1 + 1e-11  # within tolerance
    return [
        ("valid", rnd),
        ("rows", EhmmModel(pi=rnd.pi, hidden=tuple(scaled), emission=rnd.emission)),
        ("shape", EhmmModel(pi=rnd.pi, hidden=tuple(shaped), emission=rnd.emission)),
        (
            "shapes-and-rows",
            EhmmModel(pi=rnd.pi, hidden=tuple(scaled[:3]), emission=tuple(bad_chi)),
        ),
        (
            "nan-pi",
            EhmmModel(pi=np.array([0.5, np.nan, 0.5]), hidden=tuple(scaled), emission=rnd.emission),
        ),
        (
            "pi-length-shared",
            EhmmModel(
                pi=np.array([0.7, 0.6]),
                hidden=tuple(shaped),
                emission=tuple(bad_chi),
                translation_invariant=True,
            ),
        ),
        ("wide", EhmmModel(pi=wide.pi, hidden=tuple(wide_h), emission=wide.emission)),
    ]


MALFORMED_MODELS = _malformed_models()


@pytest.mark.parametrize("name, model", MALFORMED_MODELS, ids=[c[0] for c in MALFORMED_MODELS])
def test_validate_equals_per_row_loop(name, model):
    assert validate(model) == loop_validate(model)
