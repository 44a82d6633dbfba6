"""In-memory span recorder that wraps qmixing's public functions from outside.

Nothing in ``src/`` is edited: while a ``Tracer`` is installed, the public
functions of each layer are replaced, in every qmixing module that binds them,
by timing wrappers, and so are the LAPACK entry points on ``numpy.linalg`` and
``scipy.linalg`` themselves, whichever module calls them.  The wrappers pass
straight through outside ``Tracer.task``.  ``install`` raises if a function it
should wrap is missing, so a layer that moves stops the traced run instead of
reading 0; ``uninstall`` puts every original object back.

Each layer call becomes a span (id, parent, task, name, start, end, self
time).  Calls that happen thousands of times per task (kernel entry points,
``x_of_t``, witness objective evaluations) are leaves: they are aggregated
into per-name totals and charged to the enclosing span's child time, but not
stored one by one.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import warnings
from collections import defaultdict

perf = time.perf_counter

# (module attribute, span name, leaf) for the layers' public functions.
LAYER_FUNCTIONS = [
    ("models.amplitude_damping_model", "models.amplitude_damping_model", False),
    ("models.graph_state_model", "models.graph_state_model", False),
    ("models.path_graph", "models.path_graph", False),
    ("models.star_graph", "models.star_graph", False),
    ("models.random_primitive_liouvillian", "models.random_primitive_liouvillian", False),
    # model constructor that lives in liouville; counted with the models layer
    ("liouville.random_gkls_model", "models.random_gkls_model", False),
    ("liouville.build_liouvillian", "liouville.build_liouvillian", False),
    ("liouville.channel_at", "liouville.channel_at", False),
    ("liouville.dual_superop", "liouville.dual_superop", False),
    ("spectral.spectral_report", "spectral.spectral_report", False),
    ("spectral.asymptotic_projector", "spectral.asymptotic_projector", False),
    ("spectral.decay_constants", "spectral.decay_constants", False),
    ("spectral.norm_bracket", "spectral.norm_bracket", False),
    ("spectral.is_primitive", "spectral.is_primitive", False),
    ("contraction.eta_tr_estimate", "contraction.estimate", False),
    ("contraction.eta_b_estimate", "contraction.estimate", False),
    ("contraction.eta_sep_bounds", "contraction.eta_sep_bounds", False),
    ("cutoff.run_cutoff_experiment", "cutoff.run_cutoff_experiment", False),
    ("cutoff.cutoff_curve", "cutoff.cutoff_curve", False),
    ("cutoff.estimate_cutoff_time", "cutoff.estimate_cutoff_time", False),
    ("cutoff.classify", "cutoff.classify", False),
    ("cutoff.CutoffFamily.x_of_t", "cutoff.x_of_t", True),
    ("cli.main", "cli.main", False),
]

# Factories of the witness-search objective; the closures they return are
# counted as objective evaluations.
OBJECTIVE_FACTORIES = ["contraction._trace_objective", "contraction._bures_objective"]

# Kernel entry points, wrapped on the module that owns them, and the counter name.
KERNEL_NUMPY = {"eig": "matcore.eig", "svd": "matcore.svd", "eigh": "matcore.eigh", "eigvalsh": "matcore.eigh"}
KERNEL_SCIPY = {
    "eig": "matcore.eig",
    "expm": "matcore.expm",
    "schur": "matcore.schur",
    "solve_sylvester": "matcore.sylvester",
}
N3_COUNTED = ("matcore.eig", "matcore.expm")

UNCONVERGED_TEXT = "did not converge"


def _require(owner, path: str):
    """``owner.a.b`` for ``path`` "a.b"; raise if any part is missing."""
    obj = owner
    for part in path.split("."):
        if not hasattr(obj, part):
            raise AttributeError(f"tracer: {getattr(owner, '__name__', owner)}.{path} is missing; "
                                 "update bench/tracer.py to the new layer")
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records spans and counters while installed, inside ``task`` calls."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # (id, parent, task, name, start, end, self)
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, s, self s]
        self.counts = defaultdict(float)
        self.eig_inputs = set()
        self._stack = []  # frames: [span id, task id, child seconds]
        self._next_id = 1
        self._patches = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------
    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        task = self._stack[-1][1] if self._stack else sid
        frame = [sid, task, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name, start, leaf):
        end = perf()
        self._stack.pop()
        dur = end - start
        own = dur - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        tot = self.totals[name]
        tot[0] += 1
        tot[1] += dur
        tot[2] += own
        if not leaf:
            self.spans.append((frame[0], parent[0] if parent else None, frame[1], name, start, end, own))

    def task(self, label: str, fn):
        """Run one benchmark task as a root span; record only inside it."""
        self.enabled = True
        start = perf()
        frame = self._enter()
        try:
            return fn()
        finally:
            self._exit(frame, "task." + label, start, False)
            self.enabled = False

    def _wrap(self, name, fn, leaf, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args)
            start = perf()
            frame = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, name, start, leaf)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_estimate(self, fn):
        inner = self._wrap("contraction.estimate", fn, False)
        tracer = self

        def estimate(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                result = inner(*args, **kwargs)
            unconverged = [w for w in log if issubclass(w.category, UserWarning) and UNCONVERGED_TEXT in str(w.message)]
            tracer.counts["contraction.unconverged"] += 1 if unconverged else 0
            tracer.counts["warnings.other"] += len(log) - len(unconverged)
            return result

        estimate.__wrapped__ = fn
        return estimate

    def _wrap_objective_factory(self, factory):
        tracer = self

        def make(*args, **kwargs):
            objective = factory(*args, **kwargs)
            return tracer._wrap("contraction.objective", objective, True)

        make.__wrapped__ = factory
        return make

    def _kernel_hook(self, name):
        tracer = self

        def hook(args):
            A = args[0] if args else None
            shape = getattr(A, "shape", None)
            if name in N3_COUNTED and shape:
                tracer.counts[name + ".n3_sum"] += float(shape[0]) ** 3
            if name == "matcore.eig" and shape is not None:
                tracer.eig_inputs.add((shape, hashlib.sha1(A.tobytes()).hexdigest()))

        return hook

    # -- installing --------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement):
        """Rebind every qmixing module attribute that holds ``original``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qmixing" or modname.startswith("qmixing.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self):
        import numpy
        import scipy.linalg

        import qmixing
        import qmixing.cli  # noqa: F401  (the package does not import it)

        for path, name, leaf in LAYER_FUNCTIONS:
            fn = _require(qmixing, path)
            if path.count(".") == 2:  # a method: module.Class.method
                cls_path, _, meth = path.rpartition(".")
                self._set(_require(qmixing, cls_path), meth, self._wrap(name, fn, leaf))
            elif name == "contraction.estimate":
                self._replace_everywhere(fn, self._wrap_estimate(fn))
            else:
                self._replace_everywhere(fn, self._wrap(name, fn, leaf))

        for path in OBJECTIVE_FACTORIES:
            modname, _, attr = path.partition(".")
            self._set(getattr(qmixing, modname), attr, self._wrap_objective_factory(_require(qmixing, path)))

        for owner, kernels in ((numpy.linalg, KERNEL_NUMPY), (scipy.linalg, KERNEL_SCIPY)):
            for attr, name in kernels.items():
                self._set(owner, attr, self._wrap(name, _require(owner, attr), True, self._kernel_hook(name)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------
    def calls(self, name):
        return self.totals[name][0] if name in self.totals else 0

    def seconds(self, name):
        return self.totals[name][1] if name in self.totals else 0.0

    def self_seconds(self, name):
        return self.totals[name][2] if name in self.totals else 0.0

    def outermost_seconds(self, prefix):
        """Inclusive time of spans under ``prefix`` not nested in another such span."""
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for sid, parent, _task, name, start, end, _own in self.spans:
            if not name.startswith(prefix):
                continue
            p = by_id.get(parent)
            while p is not None and not p[3].startswith(prefix):
                p = by_id.get(p[1])
            if p is None:
                total += end - start
        return total

    def seconds_minus_children(self, parent_name, child_names):
        """Per parent span: duration minus its direct children named in ``child_names``."""
        ids = {s[0]: s for s in self.spans if s[3] == parent_name}
        total = sum(s[5] - s[4] for s in ids.values())
        for sid, parent, _task, name, start, end, _own in self.spans:
            if parent in ids and name in child_names:
                total -= end - start
        return total

    def write(self, path):
        """Write spans, then per-name totals and counters, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, task, name, start, end, own in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "task": task, "name": name,
                                     "start": start, "end": end, "self": own}) + "\n")
            for name in sorted(self.totals):
                calls, secs, own = self.totals[name]
                fh.write(json.dumps({"total": name, "calls": calls, "s": secs, "self_s": own}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts), "distinct_eig_inputs": len(self.eig_inputs)}) + "\n")
