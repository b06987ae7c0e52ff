"""Execute one benchmark request against ordense and normalise its output.

Every call goes through a module attribute (``ordense.density.delta_charform``
rather than a name bound at import), so the wrappers the traced run installs
see it.  ``execute`` returns the raw result; ``normalise`` turns it into plain
JSON data for the output check, outside the timed region.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction

import ordense.cli
import ordense.decomp
import ordense.density


def execute(req: dict):
    op = req["op"]
    if op == "cli":
        out, err = io.StringIO(), io.StringIO()
        rc = ordense.cli.run(req["argv"], stdout=out, stderr=err)
        return rc, out.getvalue(), err.getvalue()
    den = ordense.density
    dec = ordense.decomp.decompose(Fraction(req["g"]))
    if op == "general_series":
        cfg = den.TruncationConfig(t_max=req["t_max"], n_max=req["n_max"])
        return den.delta_general_series(dec, req["a"], req["d"], cfg)
    if op == "level_q":
        cfg = den.TruncationConfig(v_max=req["v_max"])
        return den.delta_level_q_series(dec, req["a"], req["q"], cfg)
    if op == "charform":
        return den.delta_charform(dec, req["a"], req["q"], req["pmax"])
    if op == "zero_class":
        return den.delta_g_zero_class(dec, req["q"])
    if op == "joint_one":
        return den.delta_joint_one_mod_q(dec, req["q"], req["a"])
    raise ValueError(f"unknown op {op!r}")


def density_dict(val) -> dict:
    exact = None if val.exact is None else f"{val.exact.numerator}/{val.exact.denominator}"
    return {
        "value": val.value,
        "error_bound": val.error_bound,
        "rigorous": val.rigorous,
        "exact": exact,
        "lo": val.lo,
        "hi": val.hi,
    }


def normalise(req: dict, raw) -> dict:
    """Plain-data form of a raw result: what the checker and references hold."""
    if req["op"] == "cli":
        rc, out, err = raw
        return {"rc": rc, "json": json.loads(out) if rc == 0 else None, "stderr": err[-500:]}
    if isinstance(raw, tuple):
        return {"values": [density_dict(v) for v in raw]}
    return {"values": [density_dict(raw)]}
