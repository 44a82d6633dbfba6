"""qmixing benchmark: one closed-loop caller runs a workload's fixed task list.

    python3 bench/run.py --workload witness|spectral|cutoff --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths are taken relative to this
file).  qmixing is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.

A run times set-up in fresh processes, then repeats the task list while
another pass fits in ``--seconds`` (always at least ``TAIL_PASSES`` passes),
checks every task, and prints its metrics.  ``--trace 1`` adds one traced
pass after the untraced ones and reports per-layer metrics instead of
end-to-end ones.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

# One BLAS thread (nproc is 2 on the reference machine): single-threaded
# LAPACK is deterministic and, at side 256, faster than two threads.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread pins)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 7
# Time of one Calibrator() call on the reference machine (2 vCPUs at 2.0 GHz)
# at its usual speed; timings are reported at this speed.
CAL_REF_S = 0.018
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
# Every run makes at least this many untraced passes, and the tail is taken
# over exactly these passes, so that parent and change report the same
# percentile however many passes fit in --seconds.  Each is at most the
# number of passes a 20-s run makes on the reference machine.
TAIL_PASSES = {"witness": 2, "spectral": 1, "cutoff": 7}


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"set-up child timed out: {argv}")
    if proc.returncode != 0:
        fail(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc


class Calibrator:
    """A fixed mix of interpreter work, small numpy calls and a 96x96 complex
    eig, timed around every task.  The shared host's speed drifts by up to 2x
    over minutes; dividing each wall time by the calibration time measured
    next to it removes most of that drift (pass-time CV 0.16 -> 0.06 on the
    witness workload)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        self.small = a + a.T
        self.medium = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i
        for _ in range(40):
            np.linalg.eigvalsh(self.small)
        np.linalg.eig(self.medium)
        return time.perf_counter() - start


def pin_cpu():
    """Keep this process and its set-up children on one CPU, the lowest one
    allowed, so that the calibration times the CPU the work runs on.  With
    both vCPUs allowed, scaled import times spread 0.15-0.19 (CV); pinned,
    0.08-0.10."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure_setup(workload: str, seed: int, cal: Calibrator) -> list:
    """Fresh-process ``import qmixing`` plus building the workload's inputs,
    each child's times scaled to the reference speed."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    out = []
    before = cal()
    for _ in range(SETUP_REPEATS):
        times = json.loads(run_child(argv).stdout.strip().splitlines()[-1])
        after = cal()
        times["scale"] = CAL_REF_S / (0.5 * (before + after))
        out.append(times)
        before = after
    return out


def scipy_optimize_import_s() -> float:
    """Cumulative ``-X importtime`` of scipy.optimize inside ``import qmixing``.

    numpy, scipy.linalg and scipy.special are imported first, so what remains
    is the marginal cost of the module only the witness search needs; 0 when
    qmixing does not import it.
    """
    proc = run_child([sys.executable, "-X", "importtime", "-c",
                      "import numpy, scipy.linalg, scipy.special; import qmixing"])
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "scipy.optimize" and parts[1].isdigit():
            return int(parts[1]) * 1e-6
    return 0.0


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(list((SRC / "qmixing").glob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def environment() -> dict:
    import scipy

    def blas(config):
        info = config.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "code_digest": code_digest(),
    }


def tail(samples: list) -> tuple:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    s = sorted(samples)
    if len(s) <= TAIL_BEYOND:
        return s[0], 0.0
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * k / (len(s) - 1)


class Pass:
    """One execution of the task list: per-task wall times (raw, and scaled to
    the reference speed) and check outcomes."""

    def __init__(self):
        self.raw = []
        self.durations = []
        self.outcomes = []  # Outcome, or None when the task raised
        self.errors = []

    @property
    def run_s(self):
        return sum(self.durations)

    def digest(self) -> str:
        h = hashlib.sha256()
        for o in self.outcomes:
            h.update(((o.digest if o is not None else "<error>") + "\n").encode())
        return h.hexdigest()


def run_pass(task_list, tracer, cal: Calibrator) -> Pass:
    """Run every task.  Checks and calibration run outside the timed region,
    and untraced: the tracer records only inside ``tracer.task``."""
    p = Pass()
    before = cal()
    for task in task_list:
        outcome = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            start = time.perf_counter()
            try:
                result = tracer.task(task.label, task.run) if tracer else task.run()
            except Exception as exc:  # a raised error is a failed task, not a crash
                elapsed = time.perf_counter() - start
                p.errors.append(f"{task.label}: {type(exc).__name__}: {exc}")
            else:
                elapsed = time.perf_counter() - start
                try:
                    outcome = task.check(result)
                except Exception as exc:
                    p.errors.append(f"{task.label} check: {type(exc).__name__}: {exc}")
        after = cal()
        p.raw.append(elapsed)
        p.durations.append(elapsed * CAL_REF_S / (0.5 * (before + after)))
        before = after
        p.outcomes.append(outcome)
        if outcome is not None:
            p.errors.extend(f"{task.label}: {msg}" for msg in outcome.problems)
    return p


def check_digests(workload, seed, passes, env) -> list:
    """Outputs must be identical across passes and across runs of the same code."""
    problems = []
    digests = [p.digest() for p in passes]
    if len(set(digests)) != 1:
        problems.append(f"output digest differs between passes of one run: {digests}")
    key = f"{workload}|seed={seed}|blas_threads={BLAS_THREADS}|code={env['code_digest'][:16]}"
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key in known and known[key] != digests[0]:
        problems.append(f"output digest {digests[0][:16]} differs from an earlier run ({known[key][:16]})")
    elif key not in known:
        known[key] = digests[0]
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, store)
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("witness", "spectral", "cutoff"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qmixing" / "__init__.py").is_file():
        fail(f"no qmixing sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qmixing

    if not Path(qmixing.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported qmixing from {qmixing.__file__}, not from {SRC}")
    import workloads
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    pin_cpu()
    env = environment()
    cal = Calibrator()
    setups = measure_setup(args.workload, args.seed, cal)
    setup_s = statistics.median((s["import_s"] + s["build_s"]) * s["scale"] for s in setups)

    inputs = workloads.build(args.workload, args.seed)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        task_list = workloads.tasks(args.workload, inputs, args.seed, tmpdir)
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(task_list, None, cal))
            elapsed = time.perf_counter() - start
            if (len(passes) >= TAIL_PASSES[args.workload]
                    and elapsed + statistics.median(sum(p.raw) for p in passes) > args.seconds):
                break
        tracer = None
        if args.trace:
            tracer = Tracer()
            try:
                tracer.install()
                traced_inputs = tracer.task("setup", lambda: workloads.build(args.workload, args.seed))
                passes.append(run_pass(workloads.tasks(args.workload, traced_inputs, args.seed, tmpdir), tracer, cal))
            finally:
                tracer.uninstall()
        probe = workloads.probe(inputs)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    untraced = passes[:-1] if args.trace else passes
    problems = [e for p in passes for e in p.errors]
    digest_problems = check_digests(args.workload, args.seed, passes, env)
    attempted = sum(len(p.durations) for p in passes)
    failed = sum(sum(1 for o in p.outcomes if o is None or o.problems) for p in passes) + len(digest_problems)
    problems += digest_problems
    if probe is not None:
        attempted += 1
        failed += 1 if probe.problems else 0
        problems += [f"probe: {m}" for m in probe.problems]

    durations_ms = [d * 1e3 for p in untraced for d in p.durations]
    tail_samples = [d * 1e3 for p in untraced[:TAIL_PASSES[args.workload]] for d in p.durations]
    tail_ms, tail_pct = tail(tail_samples)
    outcomes = [o for o in untraced[0].outcomes if o is not None]
    widths = [(up - lo, (up - lo) / up if up > 0 else 0.0) for o in outcomes for lo, up in o.brackets]
    accuracy = [probe] if probe is not None else outcomes
    t_hat_errs = [e for o in accuracy for e in o.t_hat_errs]
    nu_errs = [e for o in accuracy for e in o.nu_errs]
    # a pass's typical time: per-task medians over the passes, summed
    run_s = sum(statistics.median(ds) for ds in zip(*(p.durations for p in untraced)))

    e2e = {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "task_p50_ms": (statistics.median(durations_ms), "ms"),
        "task_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "bracket_rel_width_mean": (float(np.mean([w[1] for w in widths])) if widths else float("nan"), "ratio"),
        "t_hat_rel_err_max": (max(t_hat_errs) if t_hat_errs else float("nan"), "ratio"),
        "nu_rel_err_max": (max(nu_errs) if nu_errs else float("nan"), "ratio"),
    }

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} passes {len(untraced)} untraced"
          f"{' + 1 traced' if args.trace else ''}, {len(task_list)} tasks per pass, closed loop, 1 caller")
    print(f"setup: median of {len(setups)} fresh processes; import_s "
          f"{[round(s['import_s'], 4) for s in setups]} build_s {[round(s['build_s'], 4) for s in setups]}")
    print(f"pass run_s {[round(p.run_s, 4) for p in passes]} at reference speed, "
          f"{[round(sum(p.raw), 4) for p in passes]} wall")
    if widths:
        print(f"bracket_width_mean (absolute) {float(np.mean([w[0] for w in widths])):.6g} over {len(widths)} brackets")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    for msg in problems[:20]:
        print(f"FAILED {msg}")

    if args.trace:
        metrics = layer_metrics(tracer, passes[-1], run_s, scipy_optimize_import_s(), setups)
        tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.jsonl")
        print("metrics module: not measured (off every workload's blocking path)")
    else:
        metrics = e2e
        print(f"task_tail_ms is p{tail_pct:.1f} of {len(tail_samples)} task samples from the first "
              f"{TAIL_PASSES[args.workload]} passes ({TAIL_BEYOND} beyond it)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"env": env, "problems": problems, **result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def layer_metrics(tr, traced_pass, untraced_run_s, scipy_optimize_s, setups) -> dict:
    """Per-layer metrics from the traced set-up build and traced pass."""
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def ratio(a, b):
        return a / b if b else 0.0

    put("import.qmixing_s", statistics.median(s["import_s"] * s["scale"] for s in setups), "s")
    put("import.scipy_optimize_s", scipy_optimize_s, "s")
    put("models.s", tr.outermost_seconds("models."), "s")
    put("liouville.build_liouvillian.s", tr.seconds("liouville.build_liouvillian"), "s")
    put("liouville.channel_at.calls", tr.calls("liouville.channel_at"), "count")
    put("liouville.channel_at.s", tr.seconds("liouville.channel_at"), "s")
    put("liouville.dual_superop.calls", tr.calls("liouville.dual_superop"), "count")
    for k in ("expm", "eig", "schur", "sylvester", "svd", "eigh"):
        put(f"matcore.{k}.calls", tr.calls(f"matcore.{k}"), "count")
        put(f"matcore.{k}.s", tr.seconds(f"matcore.{k}"), "s")
    put("matcore.eig.n3_sum", tr.counts["matcore.eig.n3_sum"], "count")
    put("matcore.expm.n3_sum", tr.counts["matcore.expm.n3_sum"], "count")
    for k in ("spectral_report", "asymptotic_projector", "decay_constants", "norm_bracket", "is_primitive"):
        put(f"spectral.{k}.calls", tr.calls(f"spectral.{k}"), "count")
        put(f"spectral.{k}.s", tr.seconds(f"spectral.{k}"), "s")
    put("spectral.eig_per_generator", ratio(tr.calls("matcore.eig"), len(tr.eig_inputs)), "ratio")
    estimates = tr.calls("contraction.estimate")
    put("contraction.estimate.calls", estimates, "count")
    put("contraction.estimate.s", tr.seconds("contraction.estimate"), "s")
    put("contraction.search_self_s", tr.seconds_minus_children(
        "contraction.estimate", {"liouville.channel_at", "spectral.asymptotic_projector", "spectral.norm_bracket"}), "s")
    put("contraction.objective_evals", tr.calls("contraction.objective"), "count")
    put("contraction.objective_evals_per_estimate", ratio(tr.calls("contraction.objective"), estimates), "count")
    put("contraction.unconverged_frac", ratio(tr.counts["contraction.unconverged"], estimates), "ratio")
    put("cutoff.run_cutoff_experiment.calls", tr.calls("cutoff.run_cutoff_experiment"), "count")
    put("cutoff.run_cutoff_experiment.s", tr.seconds("cutoff.run_cutoff_experiment"), "s")
    put("cutoff.cutoff_curve.calls", tr.calls("cutoff.cutoff_curve"), "count")
    put("cutoff.x_of_t.calls", tr.calls("cutoff.x_of_t"), "count")
    put("cutoff.x_of_t.s", tr.seconds("cutoff.x_of_t"), "s")
    put("cutoff.x_of_t_per_rung", ratio(tr.calls("cutoff.x_of_t"), tr.calls("cutoff.estimate_cutoff_time")), "count")
    put("cutoff.estimate_cutoff_time.s", tr.seconds("cutoff.estimate_cutoff_time"), "s")
    put("cutoff.classify.s", tr.seconds("cutoff.classify"), "s")
    put("cli.main.calls", tr.calls("cli.main"), "count")
    put("cli.main.s", tr.seconds("cli.main"), "s")
    put("cli.self_s", tr.self_seconds("cli.main"), "s")
    put("trace_overhead_frac", ratio(traced_pass.run_s, untraced_run_s), "ratio")
    return m


if __name__ == "__main__":
    sys.exit(main())
