"""One repetition of a workload, run in a fresh single-threaded process.

Reads a job as JSON on stdin::

    {"root": <checkout>, "requests": [...], "trace": bool,
     "spans_path": <file for the traced run's spans>}

and writes one JSON object to stdout: ``setup_s`` (importing numpy and
ordense), ``first_result_s``, ``wall_s``, ``peak_rss_mb``, the normalised
``outputs`` and, when traced, ``layers``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> None:
    job = json.load(sys.stdin)
    src = os.path.realpath(os.path.join(job["root"], "src"))
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import numpy

    import ops  # imports ordense

    setup_s = time.perf_counter() - t0
    import ordense

    if not os.path.realpath(ordense.__file__).startswith(src + os.sep):
        sys.exit(f"ordense was imported from {ordense.__file__}, not from {src}")
    result = {"setup_s": setup_s, "numpy": numpy.__version__}
    rec = None
    if job["trace"]:
        import tracer

        rec = tracer.Recorder()
        cg = tracer.install(rec)
    raws, ends = [], []
    start = time.perf_counter()
    for i, req in enumerate(job["requests"]):
        if rec is not None:
            rec.request = i
        try:
            raws.append(ops.execute(req))
        except Exception as exc:  # a failed request is counted, not fatal
            raws.append(exc)
        ends.append(time.perf_counter())
    result["first_result_s"] = ends[0] - start
    result["wall_s"] = ends[-1] - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs = []
    for req, raw in zip(job["requests"], raws):
        try:
            if isinstance(raw, Exception):
                raise raw
            outputs.append(ops.normalise(req, raw))
        except Exception as exc:
            outputs.append({"error": f"{type(exc).__name__}: {exc}"})
    result["outputs"] = outputs

    if rec is not None:
        result["layers"] = tracer.layer_metrics(rec, *tracer.replay_cg(cg, rec.cg_sample))
        tracer.write_spans(rec, job["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
