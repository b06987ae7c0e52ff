"""ordense benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload verify|series|charform --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of the workload runs in a
fresh single-threaded worker process (``worker.py``), one worker at a time,
with BLAS/OpenMP threads pinned to 1.  Repetitions start while the run's
``--seconds`` budget still fits one more, and every metric is the median
over the repetitions.  A worker still running at twice ``--seconds`` (plus
twice a repetition for the traced one) fails the run.  Every output is
checked against ``references.json`` (see ``check.py``).

Each CPU of the shared host flips between a fast and a slow state, the
same code running up to 1.6 times as fast in the first.  So this process
and its workers are pinned to one CPU, a fixed loop is timed here before
and after every worker (``calibration_s``), and ``wall_s`` and
``first_result_s`` are each repetition's time scaled to the reference
speed (``run_calibrated``); the unscaled medians are printed as
``wall_raw_s`` and ``first_result_raw_s``.  ``setup_s`` and
``peak_rss_mb`` are not scaled.

With ``--trace 1`` the untraced repetitions are followed by one traced
repetition (``tracer.py``) and the per-layer metrics are printed instead.

Earlier stdout lines give the machine facts and every metric by name and
unit; the last line is the JSON result.  Exits 2 without a result when the
checkout has no ``src/ordense`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build")

WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


CALIBRATION_PASSES = 16
# calibration_s() on the 2-core x86_64 box of the README's numbers: its median
# in the CPU's slow state
CALIBRATION_REF_S = 0.0133


class BenchError(Exception):
    pass


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts(numpy_version: str, cpus: set[int]) -> dict:
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if rev else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(cpus),
        "pinned_cpu": min(cpus),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": rev or "unknown (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "workers": "one worker process at a time, single-threaded (BLAS/OpenMP threads pinned to 1),"
        " on the pinned CPU with the calibration",
    }


def run_worker(job: dict, deadline: float) -> dict:
    env = dict(os.environ, **WORKER_ENV)
    env.pop("ORDENSE_PMAX", None)  # the references hold the default prime cutoff
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps({"root": ROOT, "trace": False, **job}),
            capture_output=True,
            text=True,
            env=env,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibration_s() -> float:
    """Median seconds this process takes for one pass of a fixed pure-Python loop.

    The loop mixes integer, dict and Fraction arithmetic, as ordense's own
    code does, and depends on nothing in ``src/``.  The median of short
    passes (CALIBRATION_PASSES of them) follows the host's speed but not
    a single preemption.
    """
    times = []
    for _ in range(CALIBRATION_PASSES):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(60_000):
            table[i & 1023] = acc
            acc += i * i % 7
        sum((Fraction(1, i) for i in range(1, 300)), Fraction(0))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_calibrated(job: dict, deadline: float, cal_before: float) -> tuple[dict, float]:
    """Run one worker between two calibrations; returns its result and the second.

    The result gains ``scale``: CALIBRATION_REF_S over the mean of the
    calibrations just before and just after the worker.  A worker's times
    multiplied by it read as on a host as fast as the reference one, which
    takes out the host's speed swings that last longer than a repetition.
    """
    rep = run_worker(job, deadline)
    cal_after = calibration_s()
    rep["scale"] = CALIBRATION_REF_S / ((cal_before + cal_after) / 2)
    return rep, cal_after


def check_outputs(reqs, workers, refs) -> tuple[int, list[str]]:
    """Requests attempted by ``workers`` (each sent ``reqs``) and why any failed."""
    attempted = 0
    reasons = []
    for w in workers:
        for req, out in zip(reqs, w["outputs"]):
            attempted += 1
            key = workloads.request_key(req)
            why = check.check(refs[key], out)
            if why:
                reasons.append(f"{key}: {why}")
    return attempted, reasons


def bracket_width(outputs) -> float:
    """Sum of hi - lo over the bracketed (UNSUPPORTED) results of one repetition."""
    return sum(
        v["hi"] - v["lo"]
        for out in outputs
        for v in out.get("values", [])
        if v["lo"] is not None
    )


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    reqs = workloads.requests_for(workload, seed)
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    missing = [workloads.request_key(r) for r in reqs if workloads.request_key(r) not in refs]
    if missing:
        raise BenchError(f"no reference output for {missing[0]}")
    os.makedirs(OUT_DIR, exist_ok=True)
    # this process and its workers share one CPU, so the calibration times
    # the CPU the workers run on: the two CPUs of a shared host slow down
    # independently of each other
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})

    start = time.perf_counter()
    deadline = start + 2 * seconds
    reps, rep_times = [], []
    cal = calibration_s()
    while True:
        t0 = time.perf_counter()
        rep, cal = run_calibrated({"requests": reqs}, deadline, cal)
        reps.append(rep)
        rep_times.append(time.perf_counter() - t0)
        # start another repetition only while it (and the traced one) still fits
        room = statistics.median(rep_times) * (2 if trace else 1)
        if time.perf_counter() - start + room > seconds:
            break
    traced = None
    if trace:
        spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
        job = {"requests": reqs, "trace": True, "spans_path": spans}
        traced, _ = run_calibrated(job, deadline + 2 * statistics.median(rep_times), cal)

    attempted, reasons = check_outputs(reqs, reps + ([traced] if traced else []), refs)
    failed = len(reasons)
    for why in reasons[:10]:
        print(f"FAILED {why}", file=sys.stderr)
    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] * r["scale"] for r in reps),
        "first_result_s": statistics.median(r["first_result_s"] * r["scale"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    width = bracket_width(reps[0]["outputs"])
    if traced:
        values = dict(traced["layers"])
        values["density.bracket_width"] = width
        values["trace.overhead_s"] = traced["wall_s"] * traced["scale"] - e2e["wall_s"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in metric_units("per_layer").items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in metric_units("end_to_end").items()}

    print(json.dumps({"facts": machine_facts(reps[0]["numpy"], cpus), "workload": workload, "seed": seed}))
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']!r} {m['unit']}")
    # these two are not in BENCHMARK.json: both are 0 on a healthy run of some
    # workloads, so a relative bound is meaningless; the result line carries
    # attempted/failed, and bracket_width is also the per-layer density.bracket_width
    print(f"{workload} failed_frac = {failed / attempted!r} ratio ({failed} of {attempted} requests)")
    print(f"{workload} bracket_width = {width!r} density")
    # the unscaled times, as the clock read them
    for name in ("wall_s", "first_result_s"):
        raw = statistics.median(r[name] for r in reps)
        print(f"{workload} {name.removesuffix('_s')}_raw_s = {raw!r} s")
    print(f"{workload} repetitions = {len(reps)} untraced, {len(reqs)} requests each,"
          f" wall_s {[round(r['wall_s'], 4) for r in reps]},"
          f" scale {[round(r['scale'], 4) for r in reps]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ordense", "__init__.py")):
        print(f"error: no src/ordense under {ROOT}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
