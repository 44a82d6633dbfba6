"""Model zoo and file ingestion.

Generators provided: qubit amplitude damping with an optional dephasing
variant, depolarizing on any dimension, dissipative graph-state preparation,
and seeded random primitive generators.  Models round-trip through a
schema-versioned JSON file format; complex entries are stored as [re, im]
pairs.

Site ordering convention: site 0 is the leftmost Kronecker factor everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
import numpy as np

from .errors import CapExceededError, ModelFormatError, NumericalError, ShapeError
from .liouville import LindbladModel, TensorSumStructure, build_liouvillian, site_operator
from .matcore import ginibre

SCHEMA_VERSION = 1
MODEL_KINDS = ("amplitude_damping", "graph_state", "depolarizing", "custom")

GRAPH_EXPLICIT_MAX_VERTICES = 6

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
_HAD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


@dataclass(frozen=True)
class GraphSpec:
    """An undirected simple graph with a decay rate attached to each vertex."""

    n_vertices: int
    edges: tuple = ()
    gamma: float = 1.0

    def __post_init__(self):
        n = self.n_vertices
        if n < 1:
            raise ShapeError("graph needs at least one vertex")
        if not self.gamma > 0:
            raise ShapeError("gamma must be positive")
        seen = set()
        norm_edges = []
        for e in self.edges:
            a, b = int(e[0]), int(e[1])
            if a == b:
                raise ShapeError(f"self-loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ShapeError(f"edge ({a},{b}) outside vertex range 0..{n - 1}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ShapeError(f"duplicate edge ({a},{b})")
            seen.add(key)
            norm_edges.append(key)
        object.__setattr__(self, "edges", tuple(sorted(norm_edges)))

    def neighbors(self, k: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == k:
                out.append(b)
            elif b == k:
                out.append(a)
        return sorted(out)

    @property
    def max_degree(self) -> int:
        deg = [0] * self.n_vertices
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return max(deg) if deg else 0


def path_graph(n: int, gamma: float = 1.0) -> GraphSpec:
    return GraphSpec(n, tuple((i, i + 1) for i in range(n - 1)), gamma)


def star_graph(n: int, gamma: float = 1.0) -> GraphSpec:
    return GraphSpec(n, tuple((0, i) for i in range(1, n)), gamma)


def amplitude_damping_model(gamma: float, alpha: float = 0.0, beta: float = 0.0) -> LindbladModel:
    """Qubit decay |1> -> |0> at rate gamma, no coherent part.

    With alpha or beta nonzero the dephasing operators sqrt(alpha)|0><0| and
    sqrt(beta)|1><1| are added; the stationary state stays |0><0| and the gap
    becomes min(gamma, (gamma + alpha + beta)/2).
    """
    if not gamma > 0:
        raise ShapeError("gamma must be positive")
    if alpha < 0 or beta < 0:
        raise ShapeError("alpha and beta must be nonnegative")
    ops = [np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)]
    if alpha > 0:
        ops.append(np.sqrt(alpha) * np.diag([1.0, 0.0]).astype(np.complex128))
    if beta > 0:
        ops.append(np.sqrt(beta) * np.diag([0.0, 1.0]).astype(np.complex128))
    label = f"amplitude_damping(gamma={gamma}, alpha={alpha}, beta={beta})"
    return LindbladModel(dim=2, lindblad_ops=ops, label=label)


def depolarizing_model(dim: int = 2, rate: float = 1.0) -> LindbladModel:
    """Generator of rho -> rate * (tr[rho] I / d - rho); primitive with full-rank fixed point."""
    if not rate > 0:
        raise ShapeError("rate must be positive")
    d = int(dim)
    c = np.sqrt(rate / d)
    ops = []
    for a in range(d):
        for b in range(d):
            E = np.zeros((d, d), dtype=np.complex128)
            E[a, b] = c
            ops.append(E)
    return LindbladModel(dim=d, lindblad_ops=ops, label=f"depolarizing(d={d}, rate={rate})")


def stabilizer_operators(g: GraphSpec) -> list[np.ndarray]:
    """The vertex stabilizers: X on the vertex times Z on each neighbor."""
    n = g.n_vertices
    if n > GRAPH_EXPLICIT_MAX_VERTICES:
        raise CapExceededError(f"explicit stabilizers limited to {GRAPH_EXPLICIT_MAX_VERTICES} qubits")
    out = []
    for k in range(n):
        S = site_operator(_SX, k, n, 2)
        for j in g.neighbors(k):
            S = S @ site_operator(_SZ, j, n, 2)
        out.append(S)
    return out


def graph_state_model(g: GraphSpec) -> LindbladModel:
    """Dissipative graph-state preparation: one Lindblad operator per vertex,
    L_k = sqrt(gamma) Z_k (1 - S_k)/2, each acting on the vertex and its
    neighborhood.  The unique stationary state is the graph state.

    In the graph basis (graph_basis_unitary) L_k is amplitude damping on qubit
    k, and the model carries that TensorSumStructure."""
    n = g.n_vertices
    if n > GRAPH_EXPLICIT_MAX_VERTICES:
        raise CapExceededError(
            f"explicit graph model limited to {GRAPH_EXPLICIT_MAX_VERTICES} qubits; "
            "use the scalable family path for larger sizes"
        )
    D = 2**n
    eye = np.eye(D, dtype=np.complex128)
    ops = []
    for k, S in enumerate(stabilizer_operators(g)):
        Zk = site_operator(_SZ, k, n, 2)
        ops.append(np.sqrt(g.gamma) * Zk @ (eye - S) / 2.0)
    label = f"graph_state(n={n}, edges={list(g.edges)}, gamma={g.gamma})"
    structure = TensorSumStructure(amplitude_damping_model(g.gamma), n, graph_basis_unitary(g))
    return LindbladModel(dim=D, lindblad_ops=ops, label=label, structure=structure)


def graph_basis_unitary(g: GraphSpec) -> np.ndarray:
    """Unitary sending the computational basis to the joint stabilizer eigenbasis.

    Columns are the CZ circuit applied to the Hadamard basis; column 0 is the
    graph state itself.  Conjugating the graph Liouvillian by it produces the
    tensor sum of single-qubit amplitude damping generators.
    """
    n = g.n_vertices
    if n > GRAPH_EXPLICIT_MAX_VERTICES:
        raise CapExceededError(f"explicit graph basis limited to {GRAPH_EXPLICIT_MAX_VERTICES} qubits")
    H = _HAD
    W = np.array([[1.0]], dtype=np.complex128)
    for _ in range(n):
        W = np.kron(W, H)
    D = 2**n
    phase = np.ones(D)
    for a, b in g.edges:
        for idx in range(D):
            bits = (idx >> (n - 1 - a)) & 1, (idx >> (n - 1 - b)) & 1
            if bits[0] and bits[1]:
                phase[idx] = -phase[idx]
    return phase[:, None] * W


def graph_state_vector(g: GraphSpec) -> np.ndarray:
    """The graph state as a unit vector (first column of the graph basis)."""
    return graph_basis_unitary(g)[:, 0].copy()


def random_primitive_liouvillian(
    d: int,
    seed: int,
    n_ops: int = 2,
    floor_fraction: float = 0.05,
    max_tries: int = 5,
) -> LindbladModel:
    """Seeded random GKLS model whose Liouvillian is primitive.

    Random Lindblad operators plus a depolarizing floor at a small fraction of
    the strongest rate; the floor forces a full-rank fixed point.  Primitivity
    is verified numerically, retrying with fresh draws a bounded number of
    times.
    """
    from .spectral import is_primitive  # local import to avoid a cycle

    if d > 8:
        raise CapExceededError("random primitive generator restricted to d <= 8")
    for attempt in range(max_tries):
        rng = np.random.default_rng(seed + 7919 * attempt)
        ops = [ginibre(d, d, rng) / np.sqrt(d) for _ in range(n_ops)]
        max_rate = max(float(np.linalg.norm(op, 2)) ** 2 for op in ops)
        floor_rate = floor_fraction * max_rate
        c = np.sqrt(floor_rate / d)
        for a in range(d):
            for b in range(d):
                E = np.zeros((d, d), dtype=np.complex128)
                E[a, b] = c
                ops.append(E)
        model = LindbladModel(dim=d, lindblad_ops=ops, label=f"random_primitive(d={d}, seed={seed})")
        if is_primitive(build_liouvillian(model)).primitive:
            return model
    raise NumericalError(f"primitivity not achieved after {max_tries} attempts (d={d}, seed={seed})")


@dataclass
class ModelSpec:
    """Parsed content of a model file; builds the corresponding generator."""

    kind: str
    params: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def graph(self) -> GraphSpec:
        if self.kind != "graph_state":
            raise ModelFormatError(f"model kind {self.kind!r} carries no graph")
        p = self.params
        return GraphSpec(
            n_vertices=int(p["n_vertices"]),
            edges=tuple(tuple(e) for e in p.get("edges", [])),
            gamma=float(p["gamma"]),
        )

    def build(self) -> LindbladModel:
        p = self.params
        if self.kind == "amplitude_damping":
            return amplitude_damping_model(
                float(p["gamma"]), float(p.get("alpha", 0.0)), float(p.get("beta", 0.0))
            )
        if self.kind == "depolarizing":
            return depolarizing_model(int(p.get("dim", 2)), float(p["rate"]))
        if self.kind == "graph_state":
            return graph_state_model(self.graph())
        if self.kind == "custom":
            H = _matrix_from_pairs(p["hamiltonian"], "parameters.hamiltonian") if p.get("hamiltonian") is not None else None
            ops = [
                _matrix_from_pairs(m, f"parameters.lindblad_ops[{k}]")
                for k, m in enumerate(p.get("lindblad_ops", []))
            ]
            return LindbladModel(
                dim=int(p["dim"]),
                hamiltonian=H,
                lindblad_ops=ops,
                label=str(p.get("label", "custom")),
            )
        raise ModelFormatError(f"kind: unknown model kind {self.kind!r}")


def _matrix_to_pairs(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def _matrix_from_pairs(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ModelFormatError(f"{path}: expected a nonempty list of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ModelFormatError(f"{path}[{i}]: expected a list of [re, im] pairs")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ModelFormatError(f"{path}[{i}]: row length {len(row)} != {width}")
        entries = []
        for j, z in enumerate(row):
            if (
                not isinstance(z, list)
                or len(z) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in z)
            ):
                raise ModelFormatError(f"{path}[{i}][{j}]: expected an [re, im] pair of numbers")
            entries.append(complex(z[0], z[1]))
        rows.append(entries)
    return np.array(rows, dtype=np.complex128)


def _require(cond: bool, message: str):
    if not cond:
        raise ModelFormatError(message)


def _validate_spec_dict(doc: dict) -> ModelSpec:
    _require(isinstance(doc, dict), "document: expected a JSON object")
    _require("schema_version" in doc, "schema_version: missing")
    _require(doc["schema_version"] == SCHEMA_VERSION, f"schema_version: expected {SCHEMA_VERSION}")
    _require("kind" in doc, "kind: missing")
    kind = doc["kind"]
    _require(kind in MODEL_KINDS, f"kind: unknown model kind {kind!r}")
    params = doc.get("parameters", {})
    _require(isinstance(params, dict), "parameters: expected an object")
    if kind == "amplitude_damping":
        _require("gamma" in params, "parameters.gamma: missing")
        for key in ("gamma", "alpha", "beta"):
            if key in params:
                _require(
                    isinstance(params[key], (int, float)) and not isinstance(params[key], bool),
                    f"parameters.{key}: expected a number",
                )
    elif kind == "depolarizing":
        _require("rate" in params, "parameters.rate: missing")
        _require(isinstance(params["rate"], (int, float)), "parameters.rate: expected a number")
    elif kind == "graph_state":
        for key in ("n_vertices", "gamma"):
            _require(key in params, f"parameters.{key}: missing")
        _require(isinstance(params["n_vertices"], int), "parameters.n_vertices: expected an integer")
        edges = params.get("edges", [])
        _require(isinstance(edges, list), "parameters.edges: expected a list")
        for i, e in enumerate(edges):
            _require(
                isinstance(e, list) and len(e) == 2 and all(isinstance(v, int) for v in e),
                f"parameters.edges[{i}]: expected a pair of vertex indices",
            )
    elif kind == "custom":
        _require("dim" in params, "parameters.dim: missing")
        _require(isinstance(params["dim"], int), "parameters.dim: expected an integer")
        _require("lindblad_ops" in params or "hamiltonian" in params,
                 "parameters: custom model needs lindblad_ops or hamiltonian")
        # matrices validated on build, with per-entry paths
    return ModelSpec(kind=kind, params=params, schema_version=doc["schema_version"])


def load_model(path) -> ModelSpec:
    """Parse and validate a model file; errors name the offending field path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"document: invalid JSON ({exc})") from exc
    spec = _validate_spec_dict(doc)
    try:
        model = spec.build()
    except (ShapeError, CapExceededError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    del model
    return spec


def model_to_spec(model: LindbladModel) -> ModelSpec:
    """Explicit-matrix representation of any generator (kind 'custom')."""
    params = {
        "dim": model.dim,
        "lindblad_ops": [_matrix_to_pairs(L) for L in model.lindblad_ops],
        "label": model.label,
    }
    if model.hamiltonian is not None:
        params["hamiltonian"] = _matrix_to_pairs(model.hamiltonian)
    return ModelSpec(kind="custom", params=params)


def save_model(model_or_spec, path) -> None:
    """Write a model file; ModelSpec inputs keep their kind, plain models are
    written as explicit-matrix custom models.  Round-trips are lossless."""
    if isinstance(model_or_spec, ModelSpec):
        spec = model_or_spec
    elif isinstance(model_or_spec, LindbladModel):
        spec = model_to_spec(model_or_spec)
    else:
        raise ModelFormatError(f"cannot save object of type {type(model_or_spec).__name__}")
    doc = {
        "schema_version": spec.schema_version,
        "kind": spec.kind,
        "parameters": spec.params,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
