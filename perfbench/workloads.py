"""Workload definitions: which requests each workload sends, drawn from a seed.

A request is a JSON-serialisable dict with an ``op`` naming the public entry
point it calls (see ``ops.py``) and that entry point's arguments.

Every seed draws each ``g`` of a workload's panel from a fixed pool.  The
members of one pool share the sign, the exponent ``h`` and the discriminant
``D(g0)`` of the canonical decomposition ``g = sign * g0**h`` (2 ~ 18 ~ 1/2,
-3 ~ -12 ~ -1/3, ...).  Every analytic layer depends on ``g`` only through
those invariants, so it does the same work and returns the same values for
each member.  The sieve counts different primes for each member, at nearly
the same cost.
Moduli and truncations are fixed.  A run's cost is therefore comparable
across seeds, while the literal inputs (and for ``verify`` the counted
primes) differ.
"""

from __future__ import annotations

import random

# sizes keep a repetition at about 2-2.5 s, so a 40-s run holds 13-19 of them
# (see the README's Sizes)
VERIFY_X = 10**6
SERIES_T = SERIES_N = 300
SERIES_V = 25_000
CHARFORM_PMAX = 3 * 10**6

# pools of equivalent g, keyed by the representative named in the docs
POOLS = {
    "2": ["2", "18", "50", "1/2", "9/2"],
    "-3": ["-3", "-12", "-75", "-1/3", "-3/4"],
    "3": ["3", "75", "1/3", "3/4", "4/3"],
    "12": ["12", "48", "1/12", "3/16", "27/4"],
    "5": ["5", "20", "45", "1/5", "5/4"],
    "4": ["4", "324", "1/4", "81/4", "4/81"],
    "8": ["8", "5832", "1/8", "729/8", "8/729"],
    "9": ["9", "5625", "1/9", "9/16", "16/9"],
    # the sieve pays one extra modular inverse per prime for a non-integer
    # g, so the verify slots keep integers and non-integers in separate pools
    "2int": ["2", "18", "50", "98", "242"],
    "-3int": ["-3", "-12", "-48", "-75", "-147"],
    "1/2": ["1/2", "9/2", "1/18", "25/2", "1/50"],
}

# verify: empirical does about 89 % of the work.  The first request pays the
# p-1 factor sieve and the later ones reuse it, so a change that trades that
# cache for memory shows in wall_s, first_result_s and peak_rss_mb.
VERIFY_SLOTS = [
    ("2int", ["--d", "3"]),
    ("-3int", ["--d", "5"]),
    ("1/2", ["--d", "3", "--d1", "3"]),
]

# series: no sieve and no Euler products; kummer and density do all the work.
# The double series repeats its whole pass once per class (what a one-pass
# evaluation targets); the level-q accumulators are already shared across
# classes.  The only workload with UNSUPPORTED brackets (g ~ 2, d = 6).
SERIES_GENERAL = [("2", 6), ("-3", 4)]
SERIES_LEVEL_Q = [("2", 3), ("5", 5), ("-3", 7), ("4", 5)]

# charform: characters does nearly all the work.  The h = 1 members of the
# panel (2, 3, -3, 12) reuse the same A_chi, so its cache gets hits; h > 1
# (4, 8, 9) needs fresh C_chi products.  Cost grows with phi(q).
CHARFORM_Q = [3, 5, 7, 11]
CHARFORM_PANEL = ["2", "3", "-3", "4", "8", "9", "12"]

def _verify(pick) -> list[dict]:
    return [
        {"op": "cli", "argv": ["verify", "--g", pick(pool), *extra, "--x", str(VERIFY_X)]}
        for pool, extra in VERIFY_SLOTS
    ]


def _series(pick) -> list[dict]:
    out = []
    for pool, d in SERIES_GENERAL:
        g = pick(pool)
        out += [
            {"op": "general_series", "g": g, "a": a, "d": d, "t_max": SERIES_T, "n_max": SERIES_N}
            for a in range(d)
        ]
    for pool, q in SERIES_LEVEL_Q:
        g = pick(pool)
        out += [
            {"op": "level_q", "g": g, "a": a, "q": q, "v_max": SERIES_V} for a in range(1, q)
        ]
    return out


def _charform(pick) -> list[dict]:
    panel = [pick(pool) for pool in CHARFORM_PANEL]
    out = []
    for q in CHARFORM_Q:
        for g in panel:
            out += [
                {"op": "charform", "g": g, "a": a, "q": q, "pmax": CHARFORM_PMAX}
                for a in range(1, q)
            ]
            out.append({"op": "zero_class", "g": g, "q": q})
            out += [{"op": "joint_one", "g": g, "a": a, "q": q} for a in range(1, q)]
    return out


_BUILDERS = {"verify": _verify, "series": _series, "charform": _charform}
NAMES = tuple(_BUILDERS)


def requests_for(workload: str, seed: int) -> list[dict]:
    """The requests of one repetition of ``workload`` at ``seed``, in order."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](lambda pool: rng.choice(POOLS[pool]))


def every_request() -> list[dict]:
    """Every distinct request any seed can generate, for recording references."""
    seen = {}
    for build in _BUILDERS.values():
        for i in range(max(map(len, POOLS.values()))):
            # member i of every pool at once covers each member of each pool
            for req in build(lambda pool: POOLS[pool][i % len(POOLS[pool])]):
                seen.setdefault(request_key(req), req)
    return list(seen.values())


def request_key(req: dict) -> str:
    """Stable text key of a request, used to look up its reference output."""
    if req["op"] == "cli":
        return "cli " + " ".join(req["argv"])
    args = ",".join(f"{k}={req[k]}" for k in sorted(req) if k != "op")
    return f"{req['op']} {args}"
