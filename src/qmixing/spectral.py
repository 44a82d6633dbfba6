"""Spectral analysis of Liouvillians: gap, peripheral structure, asymptotic
projection, primitivity, Jordan diagnostics, and instance-specific decay
constants bracketing the trace-norm contraction.

Every query reads one Spectrum per generator, computed on the first query
and cached on it (see ``spectrum``).  Generators that carry a
TensorSumStructure get eigendata built from the site generator's and
certified by their residual on the dense matrix; the others get one dense
eigendecomposition.

Eigenvalue classification is scale-invariant: an eigenvalue counts as
peripheral iff |Re(lambda)| <= tol * ||L||, with tol defaulting to 1e-9.
Spectral projectors of dense spectra are computed from reordered Schur forms
with a Sylvester block-diagonalization, which stays well-defined for
clustered eigenvalues.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
from scipy.special import gammaln, logsumexp

from .errors import NumericalError, ShapeError, StateError
from .liouville import Superoperator, build_liouvillian, dual_superop, unvec, vec
from .matcore import eig, herm_part, operator_norm
from .metrics import validate_state

DEFAULT_PERIPHERAL_TOL = 1e-9
JORDAN_RANK_TOL = 1e-8
CLUSTER_TOL = 1e-8
# An eigenvector matrix with smallest singular value at or below this is
# treated as singular: the spectrum may be defective and kappa is flagged.
SINGULAR_V_TOL = 1e-8
# Structured eigendata are accepted when their residual is at most this
# times max(||L||, 1); otherwise the dense eigendecomposition is used.
STRUCTURE_RESIDUAL_TOL = 1e-10
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


def _abs_tol(rel: float, scale: float, floor: float = 1e-14) -> float:
    """The module's one tolerance rule: rel * ||L||, floored."""
    return max(rel * max(scale, 1e-30), floor)


@dataclass(eq=False)
class _TensorFactors:
    """Eigenvectors of a structured generator, V = U G (V_s x ... x V_s):
    n Kronecker factors of the site eigenvectors V_s, the row gather G from
    the site-grouped index order ((a_1 b_1), ..., (a_n b_n)) to row-major
    (a_1..a_n, b_1..b_n), and U = kron(W, W.conj()) (None: identity)."""

    site_vectors: np.ndarray
    site_inverse: np.ndarray
    n: int
    unitary: Optional[np.ndarray]
    gather: np.ndarray

    def _digits(self, idx):
        return np.unravel_index(np.asarray(idx), (self.site_vectors.shape[1],) * self.n)

    def columns(self, idx) -> np.ndarray:
        """Columns idx of V."""
        return _conjugate(self.unitary, _khatri_rao(self.site_vectors, self._digits(idx))[self.gather])

    def inverse_rows(self, idx) -> np.ndarray:
        """Rows idx of V^-1 = (V_s^-1 x ... x V_s^-1) G^T U^dag."""
        rows = _khatri_rao(self.site_inverse.T, self._digits(idx))[self.gather]
        return _conjugate(self.unitary, rows.conj()).conj().T


def _khatri_rao(A: np.ndarray, digits) -> np.ndarray:
    """Column j is A[:, digits[0][j]] x ... x A[:, digits[-1][j]]."""
    out = A[:, digits[0]]
    for dk in digits[1:]:
        out = (out[:, None, :] * A[:, dk][None, :, :]).reshape(-1, out.shape[1])
    return out


def _conjugate(W: Optional[np.ndarray], Y: np.ndarray) -> np.ndarray:
    """kron(W, W.conj()) @ Y, column by column as vec(W unvec(y) W^dag)."""
    if W is None:
        return Y
    D = W.shape[0]
    T = np.tensordot(W, Y.reshape(D, D, -1), axes=(1, 0))
    return np.matmul(W.conj(), T).reshape(D * D, -1)


def _site_gather(d: int, n: int) -> np.ndarray:
    """For each row-major superoperator index, its site-grouped position."""
    grouped = np.arange(d ** (2 * n)).reshape((d,) * (2 * n))
    return grouped.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))).reshape(-1)


@dataclass(eq=False)
class Spectrum:
    """Eigendata of one generator matrix M, shared by every spectral query.

    The core does not depend on a tolerance: the eigenvalues, the residual
    max_j ||M v_j - lambda_j v_j|| of the unit eigenvectors v_j, the scale
    ||M||, the extreme singular values of V = [v_j] (kappa = sv_max / sv_min)
    and the eigenvector of the eigenvalue of least modulus.  V itself is not
    kept.  Parts that depend on tolerances (conditioning at the gap, cluster
    projectors) are memoised in ``memo`` under their arguments.

    ``factors`` is set when the eigendata came from a TensorSumStructure: V is
    then a certified eigenbasis with kappa = kappa_site^n, and its columns and
    the rows of V^-1 are rebuilt from the site data on demand.
    """

    eigenvalues: np.ndarray
    residual: float
    scale: float
    sv_max: float
    sv_min: float
    kernel_vector: np.ndarray
    factors: Optional[_TensorFactors] = None
    memo: dict = field(default_factory=dict, repr=False)

    @property
    def structured(self) -> bool:
        return self.factors is not None

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False


def _dense_spectrum(M: np.ndarray, scale: float) -> Spectrum:
    es = eig(M)
    V = es.right_vectors
    sv = np.linalg.svd(V, compute_uv=False)
    k = int(np.argmin(np.abs(es.eigenvalues)))
    return Spectrum(es.eigenvalues, es.residual, scale, float(sv[0]), float(sv[-1]), V[:, k].copy())


def _structured_spectrum(L: Superoperator, scale: float) -> Optional[Spectrum]:
    """Eigendata from the declared tensor-sum structure, or None when the
    declaration does not fit L or the residual does not certify it."""
    st = L.structure
    W = st.unitary
    d, n = st.site.dim, st.n_sites
    if d**n != L.dim:
        return None
    if W is not None and np.abs(W.conj().T @ W - np.eye(L.dim)).max() > 1e-12:
        return None
    site = eig(build_liouvillian(st.site).matrix)
    sv = np.linalg.svd(site.right_vectors, compute_uv=False)
    if float(sv[-1]) ** n <= SINGULAR_V_TOL:
        return None
    factors = _TensorFactors(site.right_vectors, np.linalg.inv(site.right_vectors), n, W, _site_gather(d, n))
    lam = site.eigenvalues
    for _ in range(n - 1):
        lam = np.add.outer(lam, site.eigenvalues).reshape(-1)
    V = factors.columns(np.arange(lam.size))
    R = L.matrix @ V
    R -= V * lam[np.newaxis, :]
    residual = float(np.linalg.norm(R, axis=0).max())
    if residual > STRUCTURE_RESIDUAL_TOL * max(scale, 1.0):
        return None
    k = int(np.argmin(np.abs(lam)))
    return Spectrum(lam, residual, scale, float(sv[0]) ** n, float(sv[-1]) ** n, V[:, k].copy(), factors)


def spectrum(L: Superoperator) -> Spectrum:
    """The Spectrum of L, built on the first query and cached on L.

    The cache cannot go stale: a Superoperator's matrix is read-only.
    """
    if L._spectrum is None:
        scale = operator_norm(L.matrix)
        spec = _structured_spectrum(L, scale) if L.structure is not None else None
        L._spectrum = spec if spec is not None else _dense_spectrum(L.matrix, scale)
    return L._spectrum


def _memo(spec: Spectrum, key: tuple, compute):
    if key not in spec.memo:
        spec.memo[key] = compute()
    return spec.memo[key]


def _peripheral(spec: Spectrum, tol: float) -> tuple[np.ndarray, float]:
    """Mask of the peripheral eigenvalues and the gap (0 if none decays)."""
    w = spec.eigenvalues
    per = np.abs(w.real) <= _abs_tol(tol, spec.scale)
    gap = float((-w.real[~per]).min()) if not per.all() else 0.0
    return per, gap


def _cluster_indices(values: np.ndarray, ctol: float) -> list[list[int]]:
    """Connected components of the eigenvalue set under distance <= ctol."""
    n = len(values)
    if n == 0:
        return []
    dist = np.abs(values[:, None] - values[None, :])
    adj = dist <= ctol
    seen = np.zeros(n, dtype=bool)
    clusters = []
    for i in range(n):
        if seen[i]:
            continue
        stack = [i]
        seen[i] = True
        comp = []
        while stack:
            j = stack.pop()
            comp.append(j)
            for k in np.nonzero(adj[j] & ~seen)[0]:
                seen[k] = True
                stack.append(int(k))
        clusters.append(sorted(comp))
    return clusters


def _cluster_projector(M: np.ndarray, cluster_values: np.ndarray, match_tol: float) -> np.ndarray:
    """Spectral projector onto the invariant subspace of an eigenvalue cluster."""
    vals = np.atleast_1d(cluster_values)

    def select(lam):
        return bool(np.min(np.abs(lam - vals)) <= match_tol)

    T, Z, sdim = scipy.linalg.schur(M, output="complex", sort=select)
    if sdim != len(vals):
        raise NumericalError(
            f"ambiguous eigenvalue cluster: selected {sdim} Schur values, expected {len(vals)}"
        )
    n = M.shape[0]
    if sdim == n:
        return np.eye(n, dtype=np.complex128)
    if sdim == 0:
        return np.zeros((n, n), dtype=np.complex128)
    m = sdim
    T11, T12, T22 = T[:m, :m], T[:m, m:], T[m:, m:]
    X = scipy.linalg.solve_sylvester(T11, -T22, -T12)
    block = np.zeros((n, n), dtype=np.complex128)
    block[:m, :m] = np.eye(m)
    block[:m, m:] = -X
    return Z @ block @ Z.conj().T


def _peripheral_split(M: np.ndarray, ptol: float, expected: int) -> tuple[float, int, float]:
    """Reordered Schur form with the peripheral block leading, block-diagonalized.

    Returns (kappa, q, nnorm): kappa is the condition number of the full
    similarity taking M to blockdiag(peripheral, decaying), q the side of the
    triangular decaying block T22 (the whole form when nothing is peripheral)
    and nnorm the norm of its strictly upper (nilpotent) part.
    """

    def select(lam):
        return bool(abs(lam.real) <= ptol)

    T, Z, sdim = scipy.linalg.schur(M, output="complex", sort=select)
    if sdim != expected:
        raise NumericalError(
            f"ambiguous peripheral split: selected {sdim} Schur values, expected {expected}"
        )
    n = M.shape[0]
    T22 = T[sdim:, sdim:]
    q = T22.shape[0]
    nnorm = operator_norm(np.triu(T22, 1)) if q else 0.0
    if sdim in (0, n):
        return 1.0, q, nnorm
    m = sdim
    T11, T12 = T[:m, :m], T[:m, m:]
    X = scipy.linalg.solve_sylvester(T11, -T22, -T12)
    sx = np.linalg.svd(X, compute_uv=False)
    top = float(sx[0]) if sx.size else 0.0
    # W = Z [[I, X], [0, I]]; cond(W) = cond([[I, X], [0, I]]) has closed form.
    kappa = (top + np.sqrt(top * top + 4.0)) ** 2 / 4.0
    return float(kappa), q, nnorm


class PrimitivityResult(NamedTuple):
    primitive: bool
    witness: Optional[np.ndarray]


def _kernel(spec: Spectrum, dim: int, tol: float) -> tuple[int, Optional[np.ndarray]]:
    """Kernel dimension and, when it is one, the unit-trace state spanning the
    kernel (None if that representative is traceless)."""
    n_kernel = int((np.abs(spec.eigenvalues) <= _abs_tol(tol, spec.scale)).sum())
    if n_kernel != 1:
        return n_kernel, None
    rho = herm_part(unvec(spec.kernel_vector, dim))
    tr = float(np.trace(rho).real)
    return 1, (rho / tr if abs(tr) > 1e-12 else None)


def _primitivity(spec: Spectrum, dim: int, tol: float) -> PrimitivityResult:
    ktol = _abs_tol(tol, spec.scale)
    absw = np.abs(spec.eigenvalues)
    if ((absw > ktol) & (absw <= 10.0 * ktol)).any():
        raise NumericalError(
            "ambiguous kernel dimension: eigenvalues sit at the tolerance boundary"
        )
    n_kernel, witness = _kernel(spec, dim, tol)
    if n_kernel == 0:
        raise NumericalError("no zero eigenvalue found; input is not a Liouvillian")
    per, _ = _peripheral(spec, tol)
    if n_kernel != 1 or per.sum() > 1 or witness is None:
        return PrimitivityResult(False, witness)
    lam_min = float(np.linalg.eigvalsh(witness).min())
    return PrimitivityResult(bool(lam_min > tol), witness)


@dataclass
class SpectralReport:
    """Spectral fingerprint of a Liouvillian."""

    eigenvalues: np.ndarray
    gap: float
    peripheral: list = field(default_factory=list)
    jordan_index: int = 1
    primitive: bool = False
    kappa: float = 1.0
    kappa_flagged: bool = False
    residual: float = 0.0
    scale: float = 0.0
    structured: bool = False

    def subdominant_modulus(self, t: float) -> float:
        """Largest interior eigenvalue modulus of exp(t L), i.e. exp(-t * gap)."""
        return float(np.exp(-self.gap * float(t)))


def _jordan_index_at_gap(M: np.ndarray, w: np.ndarray, gap: float, scale: float) -> int:
    """Largest Jordan block among eigenvalue clusters at the gap, by rank tests."""
    if gap <= 0.0:
        return 1
    ctol = _abs_tol(CLUSTER_TOL, scale, 1e-12)
    at_gap = [i for i in range(len(w)) if abs(-w[i].real - gap) <= ctol]
    if not at_gap:
        return 1
    clusters = _cluster_indices(w[at_gap], ctol)
    J = 1
    n = M.shape[0]
    eye = np.eye(n)
    for cl in clusters:
        m_alg = len(cl)
        if m_alg == 1:
            continue
        lam = complex(np.mean(w[at_gap][cl]))
        A = M - lam * eye
        P = np.eye(n, dtype=np.complex128)
        for k in range(1, m_alg + 1):
            P = P @ A
            thr = JORDAN_RANK_TOL * max(scale, 1e-16) ** k
            sv = np.linalg.svd(P, compute_uv=False)
            rank = int((sv > thr).sum())
            if n - rank >= m_alg:
                J = max(J, k)
                break
        else:
            J = max(J, m_alg)
    return J


class _Conditioning(NamedTuple):
    jordan_index: int
    kappa: float
    flagged: bool
    q: int = 0          # flagged only: side of the decaying Schur block
    nnorm: float = 0.0  # flagged only: norm of its nilpotent part


def _conditioning(L: Superoperator, spec: Spectrum, tol: float) -> _Conditioning:
    """Jordan index at the gap and kappa of the (block-)diagonalizing similarity.

    Structured: a certified eigenbasis, so index 1 and kappa = kappa_site^n.
    Dense: kappa from the eigenvector matrix, or, when that is numerically
    singular (flagged), from the Schur block split of the peripheral part.
    """
    if spec.structured:
        return _Conditioning(1, spec.sv_max / spec.sv_min, False)

    def compute():
        per, gap = _peripheral(spec, tol)
        J = _jordan_index_at_gap(L.matrix, spec.eigenvalues, gap, spec.scale)
        if spec.sv_min > SINGULAR_V_TOL:
            return _Conditioning(J, spec.sv_max / spec.sv_min, False)
        kappa, q, nnorm = _peripheral_split(L.matrix, _abs_tol(tol, spec.scale), int(per.sum()))
        return _Conditioning(J, kappa, True, q, nnorm)

    return _memo(spec, ("conditioning", tol), compute)


def spectral_report(L: Superoperator, tol: float = DEFAULT_PERIPHERAL_TOL) -> SpectralReport:
    """Eigenvalues, gap, peripheral set, Jordan index at the gap, primitivity
    and the condition number kappa of the diagonalizing similarity.

    For a generator with a TensorSumStructure whose residual certifies it,
    the eigendata come from the site generator (``structured`` is True),
    kappa = kappa_site^n and the Jordan index is 1.  Otherwise kappa comes
    from the dense eigenvector matrix, or, flagged, from the Schur block split
    when that matrix is numerically singular.
    """
    spec = spectrum(L)
    res_tol = 1e-8 * max(spec.scale, 1.0)
    if spec.residual > res_tol:
        raise NumericalError(f"eigen residual {spec.residual:.3e} above tolerance {res_tol:.3e}")
    per, gap = _peripheral(spec, tol)
    cond = _conditioning(L, spec, tol)
    return SpectralReport(
        eigenvalues=spec.eigenvalues.copy(),
        gap=gap,
        peripheral=[int(i) for i in np.nonzero(per)[0]],
        jordan_index=cond.jordan_index,
        primitive=_primitivity(spec, L.dim, tol).primitive,
        kappa=cond.kappa,
        kappa_flagged=cond.flagged,
        residual=spec.residual,
        scale=spec.scale,
        structured=spec.structured,
    )


def is_primitive(L: Superoperator, tol: float = DEFAULT_PERIPHERAL_TOL) -> PrimitivityResult:
    """True iff the kernel is one-dimensional, its state has full rank, and no
    other peripheral eigenvalue exists.  The witness is the stationary state
    whenever the kernel is one-dimensional."""
    return _primitivity(spectrum(L), L.dim, tol)


def stationary_state(L: Superoperator, tol: float = DEFAULT_PERIPHERAL_TOL) -> np.ndarray:
    """Density-matrix representative of a one-dimensional kernel of L."""
    n_kernel, rho = _kernel(spectrum(L), L.dim, tol)
    if n_kernel != 1:
        raise NumericalError(f"kernel dimension {n_kernel}, expected 1")
    if rho is None:
        raise NumericalError("kernel representative has vanishing trace")
    return rho


def _projectors(L: Superoperator, spec: Spectrum, tol: float) -> list:
    """(center, P, defect) per peripheral eigenvalue cluster: the spectral
    projector P and the nilpotent norm ||(L - center) P||, which is 0 for a
    structured (certified diagonalizable) spectrum."""

    def compute():
        M = L.matrix
        per, _ = _peripheral(spec, tol)
        per_idx = np.nonzero(per)[0]
        if per_idx.size == 0:
            raise NumericalError("no peripheral eigenvalue found; input is not a Liouvillian")
        per_vals = spec.eigenvalues[per_idx]
        ctol = _abs_tol(CLUSTER_TOL, spec.scale, 1e-12)
        out = []
        for cl in _cluster_indices(per_vals, ctol):
            vals = per_vals[cl]
            center = complex(np.mean(vals))
            if spec.structured:
                idx = per_idx[cl]
                P = spec.factors.columns(idx) @ spec.factors.inverse_rows(idx)
                defect = 0.0
            else:
                P = _cluster_projector(M, vals, max(ctol / 2.0, 1e-12))
                defect = operator_norm((M - center * np.eye(M.shape[0])) @ P)
            P.flags.writeable = False
            out.append((center, P, defect))
        return out

    return _memo(spec, ("projectors", tol), compute)


def asymptotic_projector(
    L: Superoperator,
    t: float = 0.0,
    tol: float = DEFAULT_PERIPHERAL_TOL,
    defect_tol: float = 1e-7,
) -> Superoperator:
    """Phase-preserving projection onto the peripheral eigenspaces at time t.

    Built as sum over peripheral eigenvalue clusters of exp(i t Im(lambda))
    P_lambda, with t-independent spectral projectors P_lambda that are
    computed once per generator; peripheral Jordan blocks must be trivial,
    which is asserted numerically.
    """
    t = float(t)
    if t < 0:
        raise ValueError("asymptotic projector requires t >= 0")
    spec = spectrum(L)
    clusters = _projectors(L, spec, tol)
    for _, _, defect in clusters:
        if defect > defect_tol * max(spec.scale, 1.0):
            raise NumericalError(f"defective peripheral spectrum: nilpotent norm {defect:.3e}")
    phases = [np.exp(1j * center.imag * t) for center, _, _ in clusters]
    if len(clusters) == 1 and phases[0] == 1.0:
        return Superoperator(L.dim, clusters[0][1])
    out = np.zeros_like(L.matrix)
    for phase, (_, P, _) in zip(phases, clusters):
        out = out + phase * P
    out.flags.writeable = False
    return Superoperator(L.dim, out)


def norm_bracket(T: Superoperator, T_phi: Superoperator, d: int) -> tuple[float, float]:
    """Two-sided bracket on the trace-norm contraction from the superoperator
    matrix distance:  ||T - T_phi|| / (8 sqrt(d)) <= eta <= sqrt(d)/2 * ||T - T_phi||."""
    if T.matrix.shape != T_phi.matrix.shape:
        raise ShapeError("superoperator shapes differ")
    nrm = operator_norm(T.matrix - T_phi.matrix)
    rd = np.sqrt(float(d))
    return (nrm / (8.0 * rd), 0.5 * rd * nrm)


def _log_poly_sup(q: int, nnorm: float, decay: float) -> float:
    """log sup_t exp(-decay t) sum_{k<q} (t nnorm)^k / k!, on a 4000-point
    grid, with the whole sum in log space so that it cannot overflow."""
    if q <= 1 or nnorm == 0.0:
        return 0.0
    t_max = 3.0 * q * max(1.0, nnorm) / decay + 1.0
    ts = np.linspace(0.0, t_max, 4000)
    ks = np.arange(q)
    logterms = ks[None, :] * np.log(np.maximum(ts[:, None] * nnorm, 1e-300)) - gammaln(ks + 1)[None, :]
    return float(logsumexp(logterms - decay * ts[:, None], axis=1).max())


def decay_constants(
    L: Superoperator,
    nu: float,
    tol: float = DEFAULT_PERIPHERAL_TOL,
) -> tuple[float, float]:
    """Instance-specific constants (L_lower, R_upper) such that

        L_lower * exp(-t*gap) <= eta_tr[exp(t L)] <= R_upper * exp(-t*nu)

    holds for all t >= 0, assembled from the condition number kappa of the
    diagonalizing (or block-diagonalizing) similarity and the operator-norm
    bracket relating eta_tr to the superoperator matrix distance.

    kappa comes from the same place as in spectral_report: kappa_site^n for a
    certified TensorSumStructure, else the dense eigenvector matrix.  When
    that matrix is numerically singular (flagged), R_upper also carries the
    supremum of the Schur block's polynomial factor, summed in log space; if
    R_upper still exceeds the float range, NumericalError is raised.
    """
    spec = spectrum(L)
    _, gap = _peripheral(spec, tol)
    if gap == 0.0:
        raise ValueError("zero gap: no decaying spectrum")
    nu = float(nu)
    if not (0.0 < nu < gap):
        raise ValueError(f"nu must satisfy 0 < nu < gap ({gap:.6g}), got {nu:.6g}")
    cond = _conditioning(L, spec, tol)
    if cond.jordan_index > 1:
        warnings.warn(
            f"Jordan index {cond.jordan_index} at the gap: the polynomial factor widens the upper constant",
            stacklevel=2,
        )
    rd = np.sqrt(float(L.dim))
    log_poly = _log_poly_sup(cond.q, cond.nnorm, gap - nu) if cond.flagged else 0.0
    if np.log(0.5 * rd * cond.kappa) + log_poly >= LOG_FLOAT_MAX:
        raise NumericalError(
            f"upper decay constant exceeds the float range (log polynomial factor {log_poly:.4g})"
        )
    L_lower = 1.0 / (8.0 * rd * cond.kappa)
    R_upper = 0.5 * rd * cond.kappa * np.exp(log_poly)
    return (float(L_lower), float(R_upper))


def occupied_decay_rate(
    L: Superoperator,
    psi,
    tol: float = DEFAULT_PERIPHERAL_TOL,
    occupancy_tol: float = 1e-8,
) -> float:
    """Smallest |Re(lambda)| over the decaying eigenmodes of the dual that carry
    nonzero weight in the mode decomposition of the stationary state psi.

    psi must be the unique stationary state of L (asserted).  For generators
    with a unique pure fixed point the result lies between the gap and twice
    the gap.
    """
    psi = validate_state(psi, "psi")
    if psi.shape[0] != L.dim:
        raise ShapeError(f"psi must be {L.dim}x{L.dim}")
    v_psi = vec(psi)
    dual = dual_superop(L).matrix
    # the dual is a permuted adjoint of L: the same norm, and the conjugates of its eigenvalues
    scale = operator_norm(dual)
    if np.linalg.norm(L.matrix @ v_psi) > max(1e-8 * max(scale, 1.0), 1e-12):
        raise StateError("psi is not stationary for L")
    es = eig(dual)
    wd, Vd = es.eigenvalues, es.right_vectors
    n_kernel = int((np.abs(wd) <= _abs_tol(tol, scale)).sum())
    if n_kernel != 1:
        raise StateError(f"stationary state is not unique (kernel dimension {n_kernel})")
    sv = np.linalg.svd(Vd, compute_uv=False)
    if sv[-1] <= 1e-10 or sv[0] / sv[-1] > 1e10:
        raise NumericalError("ill-conditioned mode decomposition of the dual")
    coeff = np.linalg.solve(Vd, v_psi)
    cnorm = float(np.linalg.norm(coeff))
    ptol = _abs_tol(tol, scale)
    best = None
    for cl in _cluster_indices(wd, _abs_tol(CLUSTER_TOL, scale, 1e-12)):
        center = complex(np.mean(wd[cl]))
        weight = float(np.linalg.norm(coeff[cl]))
        if weight <= occupancy_tol * cnorm:
            continue
        if abs(center.real) <= ptol:
            continue
        rate = abs(center.real)
        if best is None or rate < best:
            best = rate
    if best is None:
        raise NumericalError("psi occupies no decaying mode of the dual")
    return float(best)
