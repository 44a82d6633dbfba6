"""Liouvillians in GKLS form and their dense superoperator matrices.

Matrix representation convention, fixed toolkit-wide: the operator basis is
the set of matrix units E_ab ordered row-major (index i = a*d + b), so that
vec(X) = X.reshape(-1) and the map X -> A X B^dag has the matrix
np.kron(A, B.conj()).  Under this convention the Heisenberg dual of a map is
the transpose of its matrix conjugated by the index-swap permutation
(a,b) -> (b,a); for Hermiticity-preserving maps this coincides with the
conjugate transpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericalError, ShapeError
from .matcore import (
    as_cmatrix,
    check_cap,
    dagger,
    ginibre,
    herm_part,
    is_hermitian,
    mat_exp,
    operator_norm,
    require_square,
)

HERMITICITY_TOL = 1e-10


def vec(X: np.ndarray) -> np.ndarray:
    """Row-major vectorization."""
    return np.asarray(X, dtype=np.complex128).reshape(-1)


def unvec(x: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(x, dtype=np.complex128).reshape(dim, dim)


@dataclass(frozen=True)
class TensorSumStructure:
    """Declares that a generator on n_sites copies of C^d equals

        kron(W, W.conj()) (sum_i id x ... x L_site x ... x id) kron(W, W.conj())^dag,

    the tensor sum of one site generator conjugated by the basis unitary W
    (None for the identity).  The spectral layer builds eigendata from it and
    certifies them on the dense matrix, so a wrong declaration costs a dense
    eigendecomposition, never a wrong number.
    """

    site: "LindbladModel"
    n_sites: int
    unitary: Optional[np.ndarray] = None


@dataclass
class LindbladModel:
    """A GKLS generator: optional Hamiltonian plus a list of Lindblad operators.

    All operators must be dim x dim; the Hamiltonian, when present, must be
    Hermitian within HERMITICITY_TOL.  ``structure`` optionally declares the
    generator a (conjugated) tensor sum; build_liouvillian passes it on.
    """

    dim: int
    hamiltonian: Optional[np.ndarray] = None
    lindblad_ops: list = field(default_factory=list)
    label: str = ""
    structure: Optional[TensorSumStructure] = None

    def __post_init__(self):
        d = int(self.dim)
        if d < 1:
            raise ShapeError("dim must be a positive integer")
        self.dim = d
        if self.hamiltonian is not None:
            H = require_square(as_cmatrix(self.hamiltonian, "hamiltonian"), "hamiltonian")
            if H.shape[0] != d:
                raise ShapeError(f"hamiltonian must be {d}x{d}, got {H.shape}")
            if not is_hermitian(H, HERMITICITY_TOL):
                raise ShapeError("hamiltonian is not Hermitian within tolerance")
            self.hamiltonian = H
        ops = []
        for k, L in enumerate(self.lindblad_ops):
            L = require_square(as_cmatrix(L, f"lindblad_ops[{k}]"), f"lindblad_ops[{k}]")
            if L.shape[0] != d:
                raise ShapeError(f"lindblad_ops[{k}] must be {d}x{d}, got {L.shape}")
            ops.append(L)
        self.lindblad_ops = ops


@dataclass
class Superoperator:
    """Dense d^2 x d^2 matrix representation of a linear map on d x d matrices.

    The matrix is read-only (a writable input is copied), so the spectrum the
    spectral layer caches on first use can never go stale.
    """

    dim: int
    matrix: np.ndarray
    structure: Optional[TensorSumStructure] = None
    _spectrum: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        M = as_cmatrix(self.matrix, "superoperator matrix")
        if M.flags.writeable or not M.flags.c_contiguous:
            M = np.array(M, order="C")
        M.flags.writeable = False
        self.matrix = M
        require_square(self.matrix, "superoperator matrix")
        if self.matrix.shape[0] != self.dim * self.dim:
            raise ShapeError(
                f"superoperator side {self.matrix.shape[0]} does not match dim {self.dim}"
            )
        check_cap(self.matrix.shape[0])

    def apply(self, X) -> np.ndarray:
        """Apply the represented map to a d x d matrix."""
        X = require_square(as_cmatrix(X), "operand")
        if X.shape[0] != self.dim:
            raise ShapeError(f"operand must be {self.dim}x{self.dim}, got {X.shape}")
        return unvec(self.matrix @ vec(X), self.dim)


@dataclass
class TensorSumModel:
    """n_sites copies of a site generator acting on disjoint tensor factors.

    placement lists the site indices carrying a copy of the generator;
    by default every site gets one.
    """

    site_model: LindbladModel
    n_sites: int
    placement: Optional[Sequence[int]] = None

    def __post_init__(self):
        if self.n_sites < 1:
            raise ShapeError("n_sites must be >= 1")
        if self.placement is None:
            self.placement = list(range(self.n_sites))
        else:
            self.placement = [int(i) for i in self.placement]
            for i in self.placement:
                if not 0 <= i < self.n_sites:
                    raise ShapeError(f"placement index {i} outside 0..{self.n_sites - 1}")


def _frozen(M: np.ndarray) -> np.ndarray:
    """Mark a freshly built matrix read-only, so Superoperator takes it uncopied."""
    M.flags.writeable = False
    return M


def site_operator(op: np.ndarray, site: int, n_sites: int, d: int) -> np.ndarray:
    """Embed a single-site operator at the given site; site 0 is the leftmost factor."""
    op = as_cmatrix(op)
    left = d**site
    right = d ** (n_sites - site - 1)
    out = op
    if left > 1:
        out = np.kron(np.eye(left), out)
    if right > 1:
        out = np.kron(out, np.eye(right))
    return out


def build_liouvillian(model: LindbladModel) -> Superoperator:
    """Matrix of rho -> -i[H, rho] + sum_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2)."""
    d = model.dim
    check_cap(d * d)
    eye = np.eye(d)
    M = np.zeros((d * d, d * d), dtype=np.complex128)
    if model.hamiltonian is not None:
        H = model.hamiltonian
        M += -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for L in model.lindblad_ops:
        K = dagger(L) @ L
        M += np.kron(L, L.conj())
        M -= 0.5 * (np.kron(K, eye) + np.kron(eye, K.T))
    return Superoperator(d, _frozen(M), structure=model.structure)


def superop_matrix(
    action: Callable[[np.ndarray], np.ndarray],
    dim: int,
    check_linearity: bool = True,
    tol: float = 1e-9,
    seed: int = 0,
) -> Superoperator:
    """Matrix of an arbitrary linear map given as a callable on d x d matrices.

    Column a*d+b is vec(action(E_ab)).  Linearity is spot-checked on random
    operator pairs unless disabled.
    """
    d = int(dim)
    check_cap(d * d)
    M = np.zeros((d * d, d * d), dtype=np.complex128)
    E = np.zeros((d, d), dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            E[a, b] = 1.0
            M[:, a * d + b] = vec(as_cmatrix(action(E), "action output"))
            E[a, b] = 0.0
    if check_linearity:
        rng = np.random.default_rng(seed)
        for _ in range(3):
            X = ginibre(d, d, rng)
            Y = ginibre(d, d, rng)
            alpha, beta = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            lhs = as_cmatrix(action(alpha * X + beta * Y))
            rhs = alpha * as_cmatrix(action(X)) + beta * as_cmatrix(action(Y))
            scale = max(1.0, float(np.abs(rhs).max()))
            if np.abs(lhs - rhs).max() > tol * scale:
                raise ShapeError("action is not linear within tolerance")
    return Superoperator(d, _frozen(M))


def _swap_permutation(d: int) -> np.ndarray:
    # perm[a*d + b] = b*d + a
    return np.arange(d * d).reshape(d, d).T.reshape(-1)


def dual_superop(S: Superoperator) -> Superoperator:
    """Heisenberg-picture dual: satisfies tr[A S*(B)] = tr[S(A) B] for all A, B."""
    p = _swap_permutation(S.dim)
    M = S.matrix.T[np.ix_(p, p)]
    return Superoperator(S.dim, _frozen(M))


def channel_at(L: Superoperator, t: float) -> Superoperator:
    """The semigroup element exp(t L) as a superoperator."""
    t = float(t)
    if t < 0:
        raise ValueError("channel_at requires t >= 0")
    return Superoperator(L.dim, _frozen(mat_exp(L.matrix, t)))


def tensor_sum(model: TensorSumModel) -> Superoperator:
    """Explicit matrix of sum_i (id x ... x L x ... x id) over the placement.

    With every site placed once, the result carries its TensorSumStructure, so
    its spectrum is built from the site generator's."""
    site = model.site_model
    d = site.dim
    n = model.n_sites
    D = d**n
    check_cap(D * D)
    ops = []
    H = np.zeros((D, D), dtype=np.complex128)
    has_h = site.hamiltonian is not None
    for i in model.placement:
        for L in site.lindblad_ops:
            ops.append(site_operator(L, i, n, d))
        if has_h:
            H += site_operator(site.hamiltonian, i, n, d)
    joint = LindbladModel(
        dim=D,
        hamiltonian=H if has_h else None,
        lindblad_ops=ops,
        label=f"tensor_sum[{site.label or 'site'} x {n}]",
        structure=TensorSumStructure(site, n) if sorted(model.placement) == list(range(n)) else None,
    )
    return build_liouvillian(joint)


def superop_commutator_norm(A: Superoperator, B: Superoperator) -> float:
    """Operator norm of the matrix commutator; near zero certifies commuting parts."""
    if A.dim != B.dim:
        raise ShapeError("superoperators act on different dimensions")
    return operator_norm(A.matrix @ B.matrix - B.matrix @ A.matrix)


def check_channel(S: Superoperator, n_samples: int = 32, seed: int = 0, tol: float = 1e-9) -> dict:
    """Statistical channel sanity check on sampled density matrices.

    Returns a report dict; key 'ok' is True when every sampled output has
    unit trace within tol and minimum eigenvalue >= -tol.
    """
    rng = np.random.default_rng(seed)
    d = S.dim
    trace_dev = 0.0
    min_eig = np.inf
    herm_dev = 0.0
    for _ in range(n_samples):
        G = ginibre(d, d, rng)
        rho = G @ dagger(G)
        rho /= np.trace(rho).real
        out = S.apply(rho)
        trace_dev = max(trace_dev, abs(np.trace(out).real - 1.0))
        herm_dev = max(herm_dev, float(np.abs(out - dagger(out)).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(herm_part(out)).min()))
    ok = trace_dev <= tol and min_eig >= -tol and herm_dev <= max(tol, 1e-8)
    return {
        "ok": bool(ok),
        "trace_dev": float(trace_dev),
        "min_eig": float(min_eig),
        "hermiticity_dev": float(herm_dev),
        "n_samples": n_samples,
    }


def choi_matrix(S: Superoperator) -> np.ndarray:
    """Choi matrix sum_ab E_ab (x) S(E_ab); positive semidefinite iff S is CP."""
    d = S.dim
    if d > 8:
        raise NumericalError("Choi diagnostic is provided only for d <= 8")
    C = np.zeros((d * d, d * d), dtype=np.complex128)
    E = np.zeros((d, d), dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            E[a, b] = 1.0
            C += np.kron(E, S.apply(E))
            E[a, b] = 0.0
    return C


def is_completely_positive(S: Superoperator, tol: float = 1e-9) -> bool:
    """Choi-positivity diagnostic for small dimensions (d <= 8)."""
    C = choi_matrix(S)
    w = np.linalg.eigvalsh(herm_part(C))
    return bool(w.min() >= -tol * max(1.0, w.max()))


def is_trace_preserving_generator(L: Superoperator, tol: float = 1e-9) -> bool:
    """True when the dual annihilates the identity, i.e. L*(1) = 0 within tol."""
    dual = dual_superop(L)
    out = dual.apply(np.eye(L.dim))
    scale = max(1.0, operator_norm(L.matrix))
    return bool(np.abs(out).max() <= tol * scale)


def random_gkls_model(d: int, n_ops: int, seed: int, with_hamiltonian: bool = False) -> LindbladModel:
    """Random GKLS generator used as a test-instance source."""
    rng = np.random.default_rng(seed)
    ops = [ginibre(d, d, rng) / np.sqrt(d) for _ in range(n_ops)]
    H = None
    if with_hamiltonian:
        H = herm_part(ginibre(d, d, rng))
    return LindbladModel(dim=d, hamiltonian=H, lindblad_ops=ops, label=f"random_gkls(d={d}, seed={seed})")
