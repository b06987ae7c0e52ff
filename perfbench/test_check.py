"""The output checker flags each kind of failure it is meant to catch.

    python3 -m pytest perfbench/test_check.py
"""

from __future__ import annotations

import copy
import json
import os

import pytest

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def refs():
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def _ref(refs, workload, op):
    req = next(r for r in workloads.requests_for(workload, 0) if r["op"] == op)
    return refs[workloads.request_key(req)]


def _analytic_ref(refs):
    """A charform reference: a point value with a nonzero error bound."""
    ref = _ref(refs, "charform", "charform")
    assert ref["output"]["values"][0]["error_bound"] > 0
    return ref


def test_references_pass_unchanged(refs):
    for ref in refs.values():
        assert check.check(ref, copy.deepcopy(ref["output"])) is None


def test_every_seed_has_references(refs):
    for workload in workloads.NAMES:
        for seed in range(20):
            for req in workloads.requests_for(workload, seed):
                assert workloads.request_key(req) in refs


def test_count_off_by_one_fails(refs):
    ref = _ref(refs, "verify", "cli")
    out = copy.deepcopy(ref["output"])
    out["json"]["classes"][0]["count"] += 1
    assert "count" in check.check(ref, out)


def test_primes_considered_off_by_one_fails(refs):
    ref = _ref(refs, "verify", "cli")
    out = copy.deepcopy(ref["output"])
    out["json"]["primes_considered"] -= 1
    assert "primes_considered" in check.check(ref, out)


def test_nonzero_exit_fails(refs):
    ref = _ref(refs, "verify", "cli")
    out = {"rc": 2, "json": None, "stderr": "error: bad rational\n"}
    assert "exit code 2" in check.check(ref, out)


def test_raised_request_fails(refs):
    ref = _analytic_ref(refs)
    assert "raised" in check.check(ref, {"error": "ValueError: boom"})


@pytest.mark.parametrize("factor, fails", [(2.0, True), (-2.0, True), (0.5, False)])
def test_value_moved_by_multiples_of_bound(refs, factor, fails):
    ref = _analytic_ref(refs)
    out = copy.deepcopy(ref["output"])
    v = out["values"][0]
    v["value"] += factor * ref["output"]["values"][0]["error_bound"]
    assert (check.check(ref, out) is not None) == fails


def test_verify_prediction_moved_by_twice_its_bound_fails(refs):
    ref = _ref(refs, "verify", "cli")
    row = next(i for i, b in enumerate(ref["bounds"]) if b > 0)
    out = copy.deepcopy(ref["output"])
    out["json"]["classes"][row]["predicted"] += 2 * ref["bounds"][row]
    assert "class" in check.check(ref, out)


def test_exact_rational_differs_fails(refs):
    ref = _ref(refs, "charform", "zero_class")
    out = copy.deepcopy(ref["output"])
    num, den = out["values"][0]["exact"].split("/")
    out["values"][0]["exact"] = f"{int(num) + 1}/{den}"
    assert "exact" in check.check(ref, out)


def _series_ref(refs, op, bracketed):
    """A series reference (rigorous=False) and the index of a value in it."""
    for req in workloads.requests_for("series", 0):
        ref = refs[workloads.request_key(req)]
        if req["op"] != op:
            continue
        for i, v in enumerate(ref["output"]["values"]):
            if (v["lo"] is not None) == bracketed:
                assert not v["rigorous"]
                return ref, i
    raise AssertionError(f"no {op} reference with bracketed={bracketed}")


@pytest.mark.parametrize("field", ["value", "lo", "hi"])
def test_general_series_moved_by_a_hundredth_fails(refs, field):
    # 0.01 is far inside the heuristic tail bound, so only the roundoff rule catches it
    ref, i = _series_ref(refs, "general_series", bracketed=True)
    assert ref["output"]["values"][i]["error_bound"] > 0.01
    out = copy.deepcopy(ref["output"])
    out["values"][i][field] += 0.01
    assert field in check.check(ref, out)


def test_general_series_point_value_moved_fails(refs):
    ref, i = _series_ref(refs, "general_series", bracketed=False)
    out = copy.deepcopy(ref["output"])
    out["values"][i]["value"] += 0.01
    assert "value" in check.check(ref, out)


def test_level_q_moved_by_half_its_bound_fails(refs):
    ref, i = _series_ref(refs, "level_q", bracketed=False)
    out = copy.deepcopy(ref["output"])
    out["values"][i]["value"] += ref["output"]["values"][i]["error_bound"] / 2
    assert "value" in check.check(ref, out)


def test_series_bracket_turned_into_point_fails(refs):
    ref, i = _series_ref(refs, "general_series", bracketed=True)
    out = copy.deepcopy(ref["output"])
    out["values"][i].update(lo=None, hi=None)
    assert "bracketed" in check.check(ref, out)


def test_series_roundoff_passes(refs):
    # a different order of float additions moves the last few digits only
    ref, i = _series_ref(refs, "general_series", bracketed=True)
    out = copy.deepcopy(ref["output"])
    for field in ("value", "lo", "hi"):
        out["values"][i][field] *= 1 + 1e-13
    assert check.check(ref, out) is None
