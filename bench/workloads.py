"""Workload definitions: seeded inputs, the fixed task list and its checks.

``build(workload, seed)`` makes the workload's models and Liouvillians (the
part timed as set-up).  ``tasks(workload, inputs, seed, tmpdir)`` returns the
task list of one pass: each task calls qmixing's public API and comes with a
check that returns an ``Outcome``.  Checks run outside the timed region.

Every random draw comes from ``numpy.random.default_rng(seed)``.  Rates are
drawn per seed, but times are given in units of 1/gamma, so the amount of work
and the exact references do not depend on the drawn rate.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import qmixing as qm
from qmixing import cli
from qmixing.contraction import reevaluate_witness

EXACT_TOL = 1e-12          # witness re-evaluation, closed-form and bracket order
GAP_REL_TOL = 1e-9         # graph-state gap against gamma / 2
RESIDUAL_REL_TOL = 1e-10   # eigen residual against the superoperator norm
IDEMPOTENT_REL_TOL = 1e-8  # ||P P - P||_F / ||P||_F at t = 0
# Relative errors below the resolution of the float64 references read as it.
REL_ERR_FLOOR = 1e-13

# 8 restarts, a count the tests use (callers use 4 to 32): more than d for
# every d <= 4, so the seeded random starts run after the d basis starts.
WITNESS_RESTARTS = 8
# The d = 8 brute-force curve uses 16 restarts, as tests/test_cutoff.py does,
# again more than d.  One time point keeps the pass near 12 s.
BRUTE_RESTARTS = 16
BRUTE_TIMES = [1.0]
# Three random models per dimension, one estimated at each of these times.
# With three, the tail sample falls inside the d = 3 eta_b group, not at its
# edge, so it depends less on how hard one drawn model is.
RANDOM_TIMES = (0.5, 1.0, 1.5)
CUTOFF_LADDER = [int(round(10 ** (3 + 0.5 * k))) for k in range(19)]  # 1e3 .. 1e12
PROBE_LADDER = [10**3, 10**6, 10**9]


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    digest: str = ""
    brackets: list = field(default_factory=list)  # (lower, upper) pairs
    t_hat_errs: list = field(default_factory=list)
    nu_errs: list = field(default_factory=list)

    def require(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)


@dataclass
class Task:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


def _r(x) -> str:
    return repr(float(x))


def _rel(a: float, b: float) -> float:
    return max(abs(a - b) / abs(b), REL_ERR_FLOOR)


def exact_t_hat(gamma: float, n: int) -> float:
    """Time where 1 - (1 - exp(-gamma t))^n crosses 1/2."""
    return -math.log(-math.expm1(math.log(0.5) / n)) / gamma


def _rates(rng, k):
    return [float(g) for g in rng.uniform(0.5, 2.0, size=k)]


# -- set-up ----------------------------------------------------------------

def build(workload: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    if workload == "witness":
        random = []
        for d in (2, 3, 4):
            for k, s in enumerate(rng.integers(0, 2**31, size=len(RANDOM_TIMES))):
                # through the module, so that a traced build sees the call
                model = qm.liouville.random_gkls_model(d, 2, int(s))
                random.append((d, RANDOM_TIMES[k], qm.build_liouvillian(model)))
        (gamma,) = _rates(rng, 1)
        prim = qm.random_primitive_liouvillian(2, int(rng.integers(0, 2**31)))
        return {
            "random": random,
            "ad_gamma": gamma,
            "ad": qm.build_liouvillian(qm.amplitude_damping_model(gamma)),
            "primitive": qm.build_liouvillian(prim),
            "probe_gamma": _rates(rng, 1)[0],
        }
    if workload == "spectral":
        shape = {"path": qm.path_graph, "star": qm.star_graph}[str(rng.choice(["path", "star"]))]
        g4, g5 = _rates(rng, 2)
        s16, s32 = (int(s) for s in rng.integers(0, 2**31, size=2))
        return {
            "models": [
                ("graph4", g4, qm.build_liouvillian(qm.graph_state_model(shape(4, g4)))),
                ("random16", None, qm.build_liouvillian(qm.liouville.random_gkls_model(16, 2, s16))),
                ("graph5", g5, qm.build_liouvillian(qm.graph_state_model(shape(5, g5)))),
                ("random32", None, qm.build_liouvillian(qm.liouville.random_gkls_model(32, 2, s32))),
            ],
            "probe_gamma": _rates(rng, 1)[0],
        }
    if workload == "cutoff":
        g = _rates(rng, 6)
        api = [qm.amplitude_damping_family(g[0]), qm.amplitude_damping_family(g[1]),
               qm.amplitude_damping_family(g[2]), qm.graph_state_family(g[5], "star")]
        for fam in api:
            fam.site_liouvillian  # noqa: B018  build and cache the site Liouvillian
        return {"api": list(zip((g[0], g[1], g[2], g[5]), api)), "cli_ad": g[3], "cli_graph": g[4]}
    raise ValueError(f"unknown workload {workload!r}")


# -- task lists --------------------------------------------------------------

def tasks(workload: str, inputs: dict, seed: int, tmpdir: str) -> list:
    return {"witness": _witness_tasks, "spectral": _spectral_tasks, "cutoff": _cutoff_tasks}[workload](
        inputs, seed, tmpdir
    )


def _check_estimate(L, est, closed_form=None) -> Outcome:
    out = Outcome(digest=f"{_r(est.eta_lower)},{_r(est.eta_upper)}", brackets=[(est.eta_lower, est.eta_upper)])
    out.require(est.eta_lower <= est.eta_upper + EXACT_TOL, f"eta_lower {est.eta_lower} > eta_upper {est.eta_upper}")
    again = reevaluate_witness(L, est)
    out.require(abs(again - est.eta_lower) <= EXACT_TOL, f"witness re-evaluates to {again}, not {est.eta_lower}")
    if closed_form is not None:
        out.require(est.eta_lower <= closed_form + EXACT_TOL, f"eta_lower {est.eta_lower} above closed form {closed_form}")
    return out


def _witness_tasks(inp, seed, tmpdir):
    out = []
    for d, t, L in inp["random"]:
        for kind, fn in (("tr", qm.eta_tr_estimate), ("b", qm.eta_b_estimate)):
            out.append(Task(
                f"eta_{kind}_d{d}",
                lambda L=L, t=t, fn=fn: fn(L, t, restarts=WITNESS_RESTARTS, seed=seed),
                lambda est, L=L: _check_estimate(L, est),
            ))
    gamma, L_ad = inp["ad_gamma"], inp["ad"]
    for c in (0.25, 1.0, 2.5):
        t = c / gamma
        out.append(Task(
            "eta_tr_ad",
            lambda t=t: qm.eta_tr_estimate(L_ad, t, restarts=WITNESS_RESTARTS, seed=seed),
            lambda est, t=t: _check_estimate(L_ad, est, qm.eta_ad_closed_form(gamma, t)),
        ))

    def brute():
        return qm.cutoff_curve(qm.graph_state_family(1.0, "path"), 3, BRUTE_TIMES, method="brute",
                               restarts=BRUTE_RESTARTS, seed=seed)

    def check_brute(curve):
        o = Outcome(digest=",".join(map(_r, np.concatenate([curve.eta_lower, curve.eta_upper]))),
                    brackets=list(zip(curve.eta_lower, curve.eta_upper)))
        o.require(bool(np.all(curve.eta_lower <= curve.eta_upper + EXACT_TOL)), "brute curve: eta_lower > eta_upper")
        return o

    out.append(Task("brute_graph_d8", brute, check_brute))

    L_prim = inp["primitive"]

    def check_sep(bounds):
        lo, up = bounds
        o = Outcome(digest=f"{_r(lo)},{_r(up)}", brackets=[(lo, up)])
        o.require(0.0 <= lo <= up + EXACT_TOL <= 1.0 + 2 * EXACT_TOL, f"separable bracket out of order: {bounds}")
        return o

    out.append(Task("eta_sep_bounds",
                    lambda: qm.eta_sep_bounds(L_prim, 1.0, 10, restarts=WITNESS_RESTARTS, seed=seed), check_sep))

    path = os.path.join(tmpdir, "contraction.csv")
    argv = ["contraction", "--kind", "amplitude_damping", "--gamma", repr(gamma), "--t-start", "0",
            "--t-stop", repr(3.0 / gamma), "--t-points", "3", "--restarts", str(WITNESS_RESTARTS),
            "--seed", str(seed), "--out", path]

    def check_cli(code):
        o = Outcome()
        o.require(code == 0, f"cli contraction exited {code}")
        if code != 0:
            return o
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        rows = list(csv.DictReader(text.splitlines()))
        o.digest = text
        o.require(len(rows) == 3, f"cli contraction wrote {len(rows)} rows")
        for row in rows:
            lo, up, cf = float(row["eta_lower"]), float(row["eta_upper"]), float(row["closed_form"])
            o.brackets.append((lo, up))
            o.require(lo <= up + EXACT_TOL, f"cli row {row}: eta_lower > eta_upper")
            o.require(lo <= cf + EXACT_TOL, f"cli row {row}: eta_lower above closed form")
        return o

    out.append(Task("cli_contraction", lambda: cli.main(argv), check_cli))
    return out


def _spectral_tasks(inp, seed, tmpdir):
    out = []
    for label, gamma, L in inp["models"]:
        state: dict = {}
        small = L.matrix.shape[0] <= 256
        unit = 1.0 / gamma if gamma else 1.0
        times = [c * unit for c in (0.25, 0.5, 1.0, 2.0, 4.0)] if small else [unit]

        def report(L=L, state=state):
            state["rep"] = qm.spectral_report(L)
            return state["rep"]

        def check_report(rep, L=L, gamma=gamma):
            o = Outcome(digest=f"{_r(rep.gap)},{_r(rep.residual)},{_r(rep.kappa)},{len(rep.peripheral)}")
            tol = RESIDUAL_REL_TOL * max(rep.scale, 1.0)
            o.require(rep.residual <= tol, f"eigen residual {rep.residual:.3e} above {tol:.3e}")
            if gamma is not None:
                o.require(abs(rep.gap - gamma / 2) <= GAP_REL_TOL * gamma / 2, f"gap {rep.gap} != gamma/2 = {gamma / 2}")
            return o

        out.append(Task(f"spectral_report_{label}", report, check_report))
        if label != "random32":
            for t in times:
                def projector(L=L, t=t, state=state):
                    state[("P", t)] = qm.asymptotic_projector(L, t)
                    return state[("P", t)]

                def check_projector(P, L=L, t=t, state=state):
                    rep = state["rep"]
                    M = P.matrix
                    o = Outcome(digest=_r(np.linalg.norm(M)))
                    # with a real peripheral spectrum P(t) = P(0); otherwise build P(0)
                    if np.abs(rep.eigenvalues[rep.peripheral].imag).max() > 1e-9 * max(rep.scale, 1.0):
                        M = qm.asymptotic_projector(L, 0.0).matrix
                    err = np.linalg.norm(M @ M - M) / max(np.linalg.norm(M), 1e-300)
                    o.require(err <= IDEMPOTENT_REL_TOL, f"asymptotic_projector(L, 0) not idempotent: {err:.3e}")
                    return o

                def channel(L=L, t=t, state=state):
                    state[("T", t)] = qm.channel_at(L, t)
                    return state[("T", t)]

                def check_channel(T, L=L):
                    o = Outcome(digest=_r(np.linalg.norm(T.matrix)))
                    tr = np.trace(T.apply(np.eye(L.dim) / L.dim)).real
                    o.require(abs(tr - 1.0) <= 1e-9, f"channel_at does not preserve trace: {tr}")
                    return o

                def bracket(L=L, t=t, state=state):
                    return qm.norm_bracket(state[("T", t)], state[("P", t)], L.dim)

                def check_bracket(b):
                    lo, up = b
                    o = Outcome(digest=f"{_r(lo)},{_r(up)}", brackets=[(min(lo, 1.0), min(up, 1.0))])
                    o.require(0.0 <= lo <= up, f"norm bracket out of order: {b}")
                    return o

                out.append(Task(f"asymptotic_projector_{label}", projector, check_projector))
                out.append(Task(f"channel_at_{label}", channel, check_channel))
                out.append(Task(f"norm_bracket_{label}", bracket, check_bracket))

        def decay(L=L, state=state):
            return qm.decay_constants(L, state["rep"].gap / 2)

        def check_decay(c):
            lo, up = c
            o = Outcome(digest=f"{_r(lo)},{_r(up)}")
            o.require(0.0 < lo <= up and math.isfinite(up), f"decay constants out of order: {c}")
            return o

        out.append(Task(f"decay_constants_{label}", decay, check_decay))
    return out


def _check_report(report, gamma, kind) -> Outcome:
    v = report["verdict"]
    o = Outcome()
    o.require(v["kind"] == "cutoff", f"{kind}: verdict {v['kind']!r}, expected 'cutoff'")
    if v["nu_hat"] is not None:
        o.nu_errs.append(_rel(v["nu_hat"], gamma))
    for n, t_hat in zip(report["n_values"], report["cutoff_times"]):
        o.t_hat_errs.append(_rel(t_hat, exact_t_hat(gamma, n)))
    for n in report["n_values"]:
        curve = report["curves"][str(n)]
        o.brackets.extend(zip(curve["eta_lower"], curve["eta_upper"]))
    o.digest = json.dumps([report["cutoff_times"], v["nu_hat"]])
    return o


def _report_dict(rep) -> dict:
    """The fields of a CutoffReport that the checks read, as the CLI writes them."""
    return {
        "verdict": {"kind": rep.verdict.kind, "nu_hat": rep.verdict.nu_hat},
        "n_values": rep.n_values,
        "cutoff_times": rep.cutoff_times,
        "curves": {str(n): {"eta_lower": rep.curves[n].eta_lower.tolist(),
                            "eta_upper": rep.curves[n].eta_upper.tolist()} for n in rep.n_values},
    }


def _cutoff_tasks(inp, seed, tmpdir):
    out = []
    for gamma, fam in inp["api"]:
        out.append(Task(
            "run_cutoff_experiment",
            lambda fam=fam: qm.run_cutoff_experiment(fam, CUTOFF_LADDER, seed=seed),
            lambda rep, gamma=gamma: _check_report(_report_dict(rep), gamma, rep.family),
        ))
    ladder = ",".join(map(str, CUTOFF_LADDER))
    g_ad, g_graph = inp["cli_ad"], inp["cli_graph"]
    for label, gamma, extra in (
        ("amplitude_damping_dephasing", g_ad, ["--kind", "amplitude_damping", "--alpha", repr(0.3 * g_ad),
                                               "--beta", repr(0.2 * g_ad)]),
        ("graph_state_path", g_graph, ["--kind", "graph_state"]),
    ):
        path = os.path.join(tmpdir, f"cutoff_{label}.json")
        argv = ["cutoff", *extra, "--gamma", repr(gamma), "--n-ladder", ladder, "--seed", str(seed),
                "--format", "json", "--out", path]

        def check_cli(code, path=path, gamma=gamma, label=label):
            if code != 0:
                return Outcome(problems=[f"cli cutoff {label} exited {code}"])
            with open(path, encoding="utf-8") as fh:
                return _check_report(json.load(fh), gamma, label)

        out.append(Task(f"cli_cutoff_{label}", lambda argv=argv: cli.main(argv), check_cli))
    return out


def probe(inputs: dict):
    """Cutoff accuracy reference for the workloads whose tasks carry no cutoff
    time (their inputs hold a ``probe_gamma``): one amplitude-damping
    experiment on a 3-rung ladder, run outside the task list and untraced.
    None for the other workloads."""
    gamma = inputs.get("probe_gamma")
    if gamma is None:
        return None
    rep = qm.run_cutoff_experiment(qm.amplitude_damping_family(gamma), PROBE_LADDER)
    return _check_report(_report_dict(rep), gamma, "probe")
