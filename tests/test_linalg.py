import numpy as np
import pytest

from mpshmm.entropy import DensityMatrix
from mpshmm.linalg import (
    ATOL,
    TensorVector,
    hermitian_eig,
    partial_inner_product,
    partial_trace,
)

SPLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n):
    g = random_complex(rng, n, n)
    return (g + g.conj().T) / 2


# ---- partial inner product ----


def test_pip_product_state():
    rng = np.random.default_rng(4)
    u = random_complex(rng, 3)
    v = random_complex(rng, 4)
    w = TensorVector((3, 4), np.kron(u, v))
    held = TensorVector((3,), u)
    out = partial_inner_product(w, held, 1)
    assert np.allclose(out.entries, (np.linalg.norm(u) ** 2) * v)


def test_pip_bell_slice():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    out = partial_inner_product(
        TensorVector((2, 2), bell), TensorVector((2,), np.array([1, 0])), 1
    )
    assert np.allclose(out.entries, np.array([1, 0]) / np.sqrt(2))


def test_pip_antilinear_in_held_vector():
    rng = np.random.default_rng(5)
    w = TensorVector((2, 3), random_complex(rng, 6))
    u = random_complex(rng, 2)
    a = partial_inner_product(w, TensorVector((2,), 1j * u), 1)
    b = partial_inner_product(w, TensorVector((2,), u), 1)
    assert np.allclose(a.entries, -1j * b.entries)


def test_pip_dimension_mismatch():
    w = TensorVector((2, 2), np.zeros(4))
    with pytest.raises(ValueError):
        partial_inner_product(w, TensorVector((3,), np.zeros(3)), 1)


def test_pip_ghz_joint_against_hidden_chain():
    from mpshmm import catalog
    from mpshmm.ehmm import build_psi_hn, build_psi_hon, build_psi_on

    model = catalog.get("ghz").model
    joint = build_psi_hon(model, 3)
    chain = build_psi_hn(model, 3)
    out = partial_inner_product(joint, chain, 4)
    assert np.allclose(out.entries, build_psi_on(model, 3).entries, atol=1e-12)


# ---- partial trace ----


def test_partial_trace_kron_case():
    rng = np.random.default_rng(6)
    ga, gb = random_complex(rng, 2, 2), random_complex(rng, 3, 3)
    rho_a = ga @ ga.conj().T
    rho_b = gb @ gb.conj().T
    out = partial_trace(np.kron(rho_a, rho_b), (2, 3), {1})
    assert np.allclose(out, np.trace(rho_a) * rho_b)


def test_partial_trace_bell():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(rho, (2, 2), {1}), np.eye(2) / 2)


def test_partial_trace_preserves_trace_and_composes():
    rng = np.random.default_rng(7)
    g = random_complex(rng, 12, 12)
    rho = g @ g.conj().T
    dims = (2, 3, 2)
    reduced = partial_trace(rho, dims, {0, 2})
    assert np.isclose(np.trace(reduced), np.trace(rho))
    # tracing factor 1 then factor 2 equals tracing {1, 2} at once
    step = partial_trace(rho, dims, {0, 2})
    step = partial_trace(step, (2, 2), {0})
    joint = partial_trace(rho, dims, {0})
    assert np.allclose(step, joint)


def test_partial_trace_errors():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), (2, 3), {0})
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), (2, 2), {5})


# ---- hermitian eigendecomposition ----


def test_eig_diagonal():
    vals, vecs = hermitian_eig(np.diag([3.0, 1.0]))
    assert np.allclose(vals, [3, 1])
    assert np.allclose(np.abs(vecs), np.eye(2))


def test_eig_pauli_x():
    vals, _ = hermitian_eig(SX)
    assert np.allclose(vals, [1, -1])


def test_eig_random_reconstruction():
    rng = np.random.default_rng(8)
    a = random_hermitian(rng, 6)
    w, v = hermitian_eig(a)
    assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-10 * max(1, np.linalg.norm(a))
    assert np.isclose(w.sum(), np.trace(a).real, atol=1e-10)
    gram = v.conj().T @ v
    assert np.linalg.norm(gram - np.eye(6)) <= 1e-10


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(SPLUS)


def _near_boundary(kind, factor):
    """A 4 x 4 matrix whose Hermitian residual is ``factor`` * ATOL * max(1, |A|_F).

    The perturbation sits where the Hermitian part is exactly zero, so the
    residual is exact: 2 delta on an imaginary diagonal entry, sqrt(2) delta
    on a real off-diagonal one.
    """
    rng = np.random.default_rng(21)
    h = random_hermitian(rng, 4) if kind == "complex" else random_hermitian(rng, 4).real
    h[0, 1] = h[1, 0] = 0.0
    scale = max(1.0, float(np.linalg.norm(h)))
    a = h.copy()
    if kind == "complex":
        a[0, 0] += 1j * factor * ATOL * scale / 2
    else:
        a[0, 1] += factor * ATOL * scale / np.sqrt(2)
    return a


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_eig_hermitian_check_is_exact_at_the_boundary(kind):
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
        hermitian_eig(_near_boundary(kind, 1 + 1e-6))
    with pytest.raises(ValueError, match="^density matrix is not Hermitian within tolerance$"):
        DensityMatrix(_near_boundary(kind, 1 + 1e-6), (4,))
    vals, vecs = hermitian_eig(_near_boundary(kind, 1 - 1e-6))
    assert np.all(np.diff(vals) <= 0)
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(4)) <= 1e-12


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_eig_descending_orthonormal_and_reconstructs(kind):
    rng = np.random.default_rng(9)
    a = random_hermitian(rng, 7) if kind == "complex" else random_hermitian(rng, 7).real
    vals, vecs = hermitian_eig(a)
    assert vecs.dtype == (np.complex128 if kind == "complex" else np.float64)
    assert np.all(np.diff(vals) <= 0)
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(7)) <= 1e-12
    assert np.linalg.norm((vecs * vals) @ vecs.conj().T - a) <= 1e-12 * np.linalg.norm(a)


# ---- TensorVector container ----


def test_tensor_vector_length_check():
    with pytest.raises(ValueError):
        TensorVector((2, 2), np.zeros(3))


def test_tensor_vector_rejects_nan():
    with pytest.raises(ValueError):
        TensorVector((2,), np.array([np.nan, 1.0]))


def test_tensor_vector_permute_factors():
    rng = np.random.default_rng(10)
    v = TensorVector((2, 3), random_complex(rng, 6))
    swapped = v.permute_factors([1, 0])
    assert swapped.factor_dims == (3, 2)
    assert np.array_equal(swapped.as_tensor(), v.as_tensor().T)
