"""One cached Spectrum per generator, and spectra built from tensor-sum structure."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qmixing.liouville import (
    LindbladModel,
    Superoperator,
    TensorSumModel,
    TensorSumStructure,
    build_liouvillian,
    random_gkls_model,
    tensor_sum,
)
from qmixing.models import GraphSpec, amplitude_damping_model, graph_state_model, path_graph, star_graph
from qmixing.spectral import (
    asymptotic_projector,
    decay_constants,
    is_primitive,
    spectral_report,
    spectrum,
    stationary_state,
)

KAPPA_AD = 1.0 + np.sqrt(2.0)


def dense_copy(L):
    """The same matrix without its structure, so its spectrum is dense."""
    return Superoperator(L.dim, L.matrix)


def structured_cases():
    cases = []
    for n in (2, 3, 4):
        for shape in (path_graph, star_graph):
            g = shape(n, 0.8)
            cases.append((f"{shape.__name__}{n}", lambda g=g: build_liouvillian(graph_state_model(g)), 0.8, n))
    for n in (1, 2, 3):
        cases.append((f"ad_sum{n}", lambda n=n: tensor_sum(TensorSumModel(amplitude_damping_model(1.3), n)), 1.3, n))
    return cases


CASES = structured_cases()


@pytest.mark.parametrize("label,build,gamma,n", CASES, ids=[c[0] for c in CASES])
def test_structured_spectrum_matches_dense(label, build, gamma, n):
    L = build()
    spec = spectrum(L)
    assert spec.structured
    assert spec.residual <= 1e-12
    dense = np.linalg.eigvals(L.matrix)
    np.testing.assert_allclose(np.sort(spec.eigenvalues.real), np.sort(dense.real), atol=1e-9)
    np.testing.assert_allclose(np.sort(spec.eigenvalues.imag), np.sort(dense.imag), atol=1e-9)
    rep = spectral_report(L)
    assert rep.structured
    assert rep.gap == pytest.approx(gamma / 2, rel=1e-12)
    assert rep.kappa == pytest.approx(KAPPA_AD**n, rel=1e-9)
    assert rep.jordan_index == 1 and not rep.kappa_flagged
    D = dense_copy(L)
    for t in (0.0, 1.7):
        np.testing.assert_allclose(asymptotic_projector(L, t).matrix, asymptotic_projector(D, t).matrix, atol=1e-10)
    np.testing.assert_allclose(stationary_state(L), stationary_state(D), atol=1e-10)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 4))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return GraphSpec(n, tuple(edges), draw(st.floats(0.05, 20.0)))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(random_graphs())
def test_random_graph_spectra_are_sums_of_site_values(g):
    L = build_liouvillian(graph_state_model(g))
    spec = spectrum(L)
    assert spec.structured
    assert spec.residual <= 1e-12 * max(spec.scale, 1.0)
    dense = np.linalg.eigvals(L.matrix)
    atol = 1e-9 * max(spec.scale, 1.0)
    np.testing.assert_allclose(np.sort(spec.eigenvalues.real), np.sort(dense.real), atol=atol)
    np.testing.assert_allclose(np.sort(spec.eigenvalues.imag), np.sort(dense.imag), atol=atol)
    assert spectral_report(L).gap == pytest.approx(g.gamma / 2, rel=1e-12)


def test_structured_projectors_with_rotating_peripheral_modes():
    # two undamped qubits precessing about z, seen in a random product basis:
    # every mode is peripheral and most rotate
    site = LindbladModel(dim=2, hamiltonian=np.diag([0.5, -0.5]).astype(complex))
    W, _ = np.linalg.qr(random_gkls_model(4, 1, seed=3).lindblad_ops[0])
    U = np.kron(W, W.conj())
    M = U @ tensor_sum(TensorSumModel(site, 2)).matrix @ U.conj().T
    L = Superoperator(4, M, structure=TensorSumStructure(site, 2, W))
    assert spectrum(L).structured
    D = dense_copy(L)
    for t in (0.0, 0.6, 2.5):
        np.testing.assert_allclose(asymptotic_projector(L, t).matrix, asymptotic_projector(D, t).matrix, atol=1e-10)


def test_decay_constants_finite_on_five_vertex_graph():
    # side 1024: the dense eigenvector matrix is nearly singular here, the structured one is not
    L = build_liouvillian(graph_state_model(path_graph(5, 1.0)))
    lo, up = decay_constants(L, 0.25)
    rd = np.sqrt(32.0)
    assert np.isfinite(up)
    assert lo == pytest.approx(1.0 / (8.0 * rd * KAPPA_AD**5), rel=1e-9)
    assert up == pytest.approx(0.5 * rd * KAPPA_AD**5, rel=1e-9)


def test_wrong_structure_falls_back_to_dense():
    g = path_graph(3, 1.0)
    L = build_liouvillian(graph_state_model(g))
    # declared without the graph basis unitary: the residual rejects it
    wrong = Superoperator(L.dim, L.matrix, structure=TensorSumStructure(amplitude_damping_model(1.0), 3))
    assert not spectrum(wrong).structured
    assert spectral_report(wrong).gap == pytest.approx(0.5, abs=1e-8)


def test_spectrum_belongs_to_its_generator():
    # an equal matrix queried first, under a wrong declaration, does not decide
    # which spectrum a correctly declared generator gets
    L = build_liouvillian(graph_state_model(path_graph(3, 1.0)))
    wrong = Superoperator(L.dim, L.matrix, structure=TensorSumStructure(amplitude_damping_model(1.0), 3))
    assert not spectrum(wrong).structured
    assert spectrum(L).structured
    assert spectrum(L) is spectrum(L)


def test_partial_placement_carries_no_structure():
    site = amplitude_damping_model(1.0)
    assert tensor_sum(TensorSumModel(site, 2)).structure is not None
    assert tensor_sum(TensorSumModel(site, 2, placement=[0])).structure is None


def count_eig(monkeypatch):
    calls = []
    original = scipy.linalg.eig

    def counting(A, *args, **kwargs):
        calls.append(np.asarray(A).shape)
        return original(A, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig", counting)
    return calls


def every_query(L):
    rep = spectral_report(L)
    is_primitive(L)
    for t in (0.0, 0.5, 1.0, 2.0, 4.0):
        asymptotic_projector(L, t)
    decay_constants(L, rep.gap / 2)


def test_one_dense_eig_per_generator(monkeypatch):
    calls = count_eig(monkeypatch)
    every_query(build_liouvillian(random_gkls_model(3, 2, seed=11)))
    assert calls == [(9, 9)]


def test_structured_generator_eigendecomposes_only_its_site(monkeypatch):
    calls = count_eig(monkeypatch)
    every_query(build_liouvillian(graph_state_model(star_graph(3, 1.0))))
    assert calls == [(4, 4)]


def test_matrix_is_read_only_and_owned():
    M = np.diag([0.0, -1.0, -1.0, -2.0]).astype(complex)
    S = Superoperator(2, M)
    M[1, 1] = -5.0
    assert S.matrix[1, 1] == -1.0
    with pytest.raises(ValueError):
        S.matrix[0, 0] = 1.0
