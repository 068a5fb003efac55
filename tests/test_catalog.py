import dataclasses
import math

import numpy as np
import pytest

from mpshmm import catalog, serialize
from mpshmm.bridge import decompose_tensors, tensors_from_ehmm
from mpshmm.ehmm import require_valid
from mpshmm.mps import build_state, gauge_check
from test_mps import ghz_normalized_tensors


def test_ghz_entry_matrices():
    entry = catalog.get("ghz")
    assert np.array_equal(entry.tensors.sites[0][0], np.diag([1.0, 0.0]))
    assert np.array_equal(entry.tensors.sites[0][1], np.diag([0.0, 1.0]))
    assert np.array_equal(entry.model.hidden[0], np.eye(2))
    assert np.array_equal(entry.model.pi, [0.5, 0.5])


def test_cluster_entry_matrices():
    entry = catalog.get("cluster")
    root2 = math.sqrt(2.0)
    assert np.allclose(entry.tensors.sites[0][0], np.array([[1, 1], [0, 0]]) / root2)
    assert np.allclose(entry.model.hidden[0], np.array([[1, 1], [1, -1]]) / root2)


def test_aklt_entry_matrices():
    fam = catalog.get("aklt").tensors.sites[0]
    assert np.allclose(fam[0], math.sqrt(2 / 3) * np.array([[0, 1], [0, 0]]))
    assert np.allclose(fam[1], math.sqrt(1 / 3) * np.diag([1.0, -1.0]))
    assert np.allclose(fam[2], -math.sqrt(2 / 3) * np.array([[0, 0], [1, 0]]))
    assert catalog.get("aklt").model is None


def test_aklt_derived_entry_values():
    entry = catalog.get("aklt-derived")
    r2 = math.sqrt(2.0)
    assert np.allclose(entry.tensors.sites[0][0], np.array([[r2, 2], [0, 0]]) / 3, atol=1e-16)
    assert np.allclose(entry.tensors.sites[0][1], np.array([[1, r2], [-r2, 1]]) / 3, atol=1e-16)
    assert np.allclose(entry.tensors.sites[0][2], np.array([[0, 0], [2, -r2]]) / 3, atol=1e-16)


def test_aklt_derived_tensors_match_bundled_model():
    entry = catalog.get("aklt-derived")
    rebuilt = tensors_from_ehmm(entry.model)
    for a, b in zip(entry.tensors.sites[0], rebuilt.sites[0]):
        assert np.max(np.abs(a - b)) <= 1e-15


def test_theta_entry_per_site_parameters():
    entry = catalog.get("theta", theta=[0.3, 0.9])
    assert len(entry.tensors.sites) == 2
    assert np.isclose(entry.tensors.sites[0][0][0, 0], math.cos(0.3))
    assert np.isclose(entry.tensors.sites[1][1][0, 1], math.sin(0.9))
    assert entry.parameters["theta"] == (0.3, 0.9)


def test_theta_requires_parameter():
    with pytest.raises(ValueError, match="theta"):
        catalog.get("theta")


@pytest.mark.parametrize(
    "theta, shown",
    [(math.inf, "inf"), (math.nan, "nan"), ([0.5, math.nan], "[0.5, nan]"), ((0.5, -math.inf), "(0.5, -inf)")],
)
def test_theta_must_be_finite(theta, shown):
    with pytest.raises(ValueError) as info:
        catalog.get("theta", theta=theta)
    assert str(info.value) == f"theta must be one or more finite values, got {shown}"


def test_unknown_name():
    with pytest.raises(KeyError):
        catalog.get("w-state")


@pytest.mark.parametrize(
    "name, theta",
    [("ghz", None), ("aklt", None), ("theta", 0.3), ("theta", [0.3, 0.9]), ("cluster", 5.0)],
)
def test_repeated_get_returns_the_same_entry(name, theta):
    assert catalog.get(name, theta=theta) is catalog.get(name, theta=theta)


def test_shared_entry_is_read_only():
    entry = catalog.get("theta", theta=[0.3, 0.9])
    arrays = [entry.model.pi, entry.model.hidden[0], entry.model.emission[1], entry.tensors.sites[1][0]]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    with pytest.raises(TypeError):
        entry.parameters["theta"] = (1.0,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.parameters = {}
    assert catalog.get("theta", theta=[0.3, 0.9]).parameters == {"theta": (0.3, 0.9)}


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zero_theta_exports_as_a_fresh_build(first, second):
    # sin(-0.0) = -0.0 is stored, so the two zeros export differently
    catalog._build.cache_clear()
    catalog.get("theta", theta=first)
    entry = catalog.get("theta", theta=second)
    fresh = catalog._theta("theta", (second,))
    for part, to_dict in (("tensors", serialize.tensors_to_dict), ("model", serialize.model_to_dict)):
        exported = serialize.dump_json(to_dict(getattr(entry, part)))
        assert exported == serialize.dump_json(to_dict(getattr(fresh, part)))


@pytest.mark.parametrize(
    "name, theta, error, message",
    [
        ("w-state", None, KeyError, "unknown catalog name 'w-state'; known: "
         "ghz, cluster, aklt, aklt-derived, theta"),
        ("theta", None, ValueError, "theta entry requires a theta parameter"),
        ("theta", [0.5, math.inf], ValueError,
         "theta must be one or more finite values, got [0.5, inf]"),
        ("theta", [], ValueError, "theta must be one or more finite values, got []"),
    ],
)
def test_refused_request_caches_nothing(name, theta, error, message):
    catalog._build.cache_clear()
    with pytest.raises(error) as info:
        catalog.get(name, theta=theta)
    assert info.value.args == (message,)
    assert catalog._build.cache_info().currsize == 0


def test_entry_cache_is_bounded():
    for k in range(catalog._CACHED_ENTRIES + 5):
        catalog.get("theta", theta=k / 10)
    assert catalog._build.cache_info().currsize == catalog._CACHED_ENTRIES


def test_listing_and_gauge_of_all_entries():
    assert catalog.NAMES == ("ghz", "cluster", "aklt", "aklt-derived", "theta")
    for name in catalog.NAMES:
        entry = catalog.get(name, theta=0.8) if name == "theta" else catalog.get(name)
        assert entry.name == name
        assert gauge_check(entry.tensors).max_deviation <= 1e-12


def test_cluster_decomposes_with_hadamard_moduli():
    result = decompose_tensors(catalog.get("cluster").tensors)
    assert result.feasible
    assert np.allclose(np.abs(result.hidden[0]), 1 / math.sqrt(2), atol=1e-12)
    assert np.allclose(np.abs(result.emission[0]), np.eye(2), atol=1e-12)


def test_aklt_state_distinct_from_derived_state():
    psi = build_state(catalog.get("aklt").tensors, 3)
    psi_new = build_state(catalog.get("aklt-derived").tensors, 3)
    overlap = abs(psi.inner(psi_new)) / (psi.norm() * psi_new.norm())
    assert overlap < 1.0 - 1e-6


# <AKLT|aklt-derived> of the N-site states, summed exactly over the 3^N words with sympy
EXACT_AKLT_DERIVED_INNER = {3: 0.0, 4: 164 / 729, 5: 0.0}


@pytest.mark.parametrize("n_sites, exact", EXACT_AKLT_DERIVED_INNER.items())
def test_aklt_inner_product_with_derived_state_is_exact(n_sites, exact):
    psi = build_state(catalog.get("aklt").tensors, n_sites)
    psi_new = build_state(catalog.get("aklt-derived").tensors, n_sites)
    assert abs(psi.inner(psi_new) - exact) <= 1e-15


def test_ghz_normalized_variant():
    t = ghz_normalized_tensors(3)
    report = gauge_check(t)
    assert not report.passes[0]  # the folded normalization breaks site 1
    assert all(report.passes[1:])
    assert np.isclose(build_state(t, 3).norm(), 1.0)


def test_random_model_valid_and_deterministic():
    a = catalog.random_model(2, 3, 3, seed=1)
    b = catalog.random_model(2, 3, 3, seed=1)
    require_valid(a.pi, a.hidden, a.emission)
    assert np.array_equal(a.pi, b.pi)
    for x, y in zip(a.hidden + a.emission, b.hidden + b.emission):
        assert np.array_equal(x, y)
    c = catalog.random_model(2, 3, 3, seed=2)
    assert not np.array_equal(a.hidden[0], c.hidden[0])


def test_random_model_tensors_pass_gauge():
    t = tensors_from_ehmm(catalog.random_model(2, 3, 2, seed=7))
    assert gauge_check(t).max_deviation <= 1e-12


def test_random_model_edge_dimensions():
    tiny = catalog.random_model(1, 1, 1, seed=3)
    require_valid(tiny.pi, tiny.hidden, tiny.emission)
    wide = catalog.random_model(1, 4, 2, seed=4)
    require_valid(wide.pi, wide.hidden, wide.emission)
