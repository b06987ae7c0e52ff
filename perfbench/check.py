"""Output checker: compare one normalised output with its recorded reference.

A request fails when any of these holds:

* the CLI exited non-zero, or the request raised;
* a count differs at all (per-class counts, ``primes_considered``);
* an exact rational differs;
* a rigorous analytic value (an Euler product, ``rigorous=True``) leaves the
  reference value +- the reference ``error_bound``;
* a series value (``rigorous=False``) or its bracket ``lo``/``hi`` differs
  from the reference by more than float roundoff, ``ROUNDOFF`` relative.

A series' ``error_bound`` is a heuristic estimate of the distance from its
truncated sum to the infinite one.  That distance is the same for any
correct implementation at the same truncation, so it says nothing about
whether two implementations agree; a wrong term or a swapped class can
stay well inside it.  The truncated sum itself is fixed up to the order of
float additions, which is what ``ROUNDOFF`` allows for.

The verify CLI output carries no error bound for its predictions, so its
references store the bound the library reported for each prediction at
recording time (every one of them is rigorous).
"""

from __future__ import annotations

ROUNDOFF = 1e-9  # relative tolerance on series values: float roundoff, not truncation

def check(ref: dict, out: dict) -> str | None:
    """None when ``out`` matches ``ref``, else the first reason it fails."""
    if "error" in out:
        return f"raised {out['error']}"
    if "rc" in ref["output"]:
        return _check_cli(ref, out)
    vals, rvals = out["values"], ref["output"]["values"]
    if len(vals) != len(rvals):
        return f"{len(vals)} values, expected {len(rvals)}"
    for i, (v, r) in enumerate(zip(vals, rvals)):
        why = check_density(r, v)
        if why:
            return f"value {i}: {why}"
    return None


def check_density(ref: dict, out: dict) -> str | None:
    if ref["exact"] is not None and out["exact"] != ref["exact"]:
        return f"exact {out['exact']} != {ref['exact']}"
    if ref["rigorous"]:
        return check_value(out["value"], ref["value"], ref["error_bound"])
    if (out["lo"] is None) != (ref["lo"] is None):
        return "bracketed/point result changed"
    for field in ("value", "lo", "hi"):
        if ref[field] is not None:
            why = check_value(out[field], ref[field], ROUNDOFF * max(1.0, abs(ref[field])))
            if why:
                return f"{field}: {why}"
    return None


def check_value(value: float, ref: float, bound: float) -> str | None:
    if abs(value - ref) > bound:
        return f"value {value!r} off reference {ref!r} by more than {bound!r}"
    return None


def _check_cli(ref: dict, out: dict) -> str | None:
    if out["rc"] != 0:
        return f"exit code {out['rc']}: {out['stderr'].strip()}"
    got, want = out["json"], ref["output"]["json"]
    if got.get("primes_considered") != want["primes_considered"]:
        return f"primes_considered {got.get('primes_considered')} != {want['primes_considered']}"
    rows, wrows = got.get("classes", []), want["classes"]
    if [_row_key(r) for r in rows] != [_row_key(r) for r in wrows]:
        return "different set of classes"
    for row, wrow, bound in zip(rows, wrows, ref["bounds"]):
        key = _row_key(row)
        if row["count"] != wrow["count"]:
            return f"class {key}: count {row['count']} != {wrow['count']}"
        if ("predicted" in row) != ("predicted" in wrow):
            return f"class {key}: prediction present/absent changed"
        if "predicted" in wrow:
            why = check_value(row["predicted"], wrow["predicted"], bound)
            if why:
                return f"class {key}: {why}"
    return None


def _row_key(row: dict):
    return row["a"] if "a" in row else (row["p_class"], row["ord_class"])
