"""Record the reference output of every request any seed can generate.

    python3 perfbench/record_references.py

Runs in one process from the root of a checkout (under a minute on a
2-core x86_64 box) and rewrites ``perfbench/references.json``.  Run it only
on a commit whose outputs are trusted: the benchmark counts a request as
failed when its output leaves the recorded reference (see ``check.py``).

Each entry holds the normalised output (``ops.normalise``).  A verify entry
also holds, per class row, the error bound of its prediction: the library's
``error_bound`` of ``evaluate_density`` for ``verify --d``, and 0 for the
joint rows of ``verify --d1``, whose predictions are exact closed forms.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ops  # noqa: E402
import ordense  # noqa: E402
import workloads  # noqa: E402


def _verify_bounds(argv: list[str], payload: dict) -> list[float]:
    if "--d1" in argv:
        return [0.0] * len(payload["classes"])
    g = Fraction(argv[argv.index("--g") + 1])
    d = int(argv[argv.index("--d") + 1])
    vals = [ordense.evaluate_density(g, row["a"], d) for row in payload["classes"]]
    if not all(v.rigorous for v in vals):
        # check.py holds verify predictions to their error bound, which only a rigorous one proves
        sys.exit(f"verify {argv}: a prediction is not rigorous")
    return [v.error_bound for v in vals]


def main() -> None:
    if os.environ.get("ORDENSE_PMAX"):
        sys.exit("unset ORDENSE_PMAX: the benchmark runs at the default prime cutoff")
    refs = {}
    for req in workloads.every_request():
        key = workloads.request_key(req)
        out = ops.normalise(req, ops.execute(req))
        entry = {"output": out}
        if req["op"] == "cli":
            if out["rc"] != 0:
                sys.exit(f"{key} exited {out['rc']}: {out['stderr']}")
            entry["bounds"] = _verify_bounds(req["argv"], out["json"])
        refs[key] = entry
        print(key, file=sys.stderr)
    path = os.path.join(HERE, "references.json")
    with open(path, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(refs.items())))
        fh.write("\n}\n")
    print(f"wrote {len(refs)} references to {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
