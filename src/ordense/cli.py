"""Command-line front end.

Subcommands expose every evaluator plus the empirical harness:

    density    --g <rat> --a <int> --d <int> [--method ...] [--tmax/--nmax/--vmax/--pmax]
    verify     --g <rat> --d <int> --x <int> [--d1 <int>] [--tmax/--nmax/--pmax]
    degree     --g <rat> --kr <int> --k <int>
    decompose  --g <rat>
    cg         --g <rat> --b <int> --f <int> --v <int>
    constants  --q <odd prime power> [--pmax <int>]
    census     --q <odd prime> --x <int>

A g that starts with "-" and is not a plain number, such as -1/3, is
written --g=-1/3: argparse reads only -N and -N.N as negative numbers, and
takes "--g -1/3" for an option missing its value.

Output is JSON by default (schema 2, fixed key order, each float in Python's
shortest round-trip form, so identical requests serialize byte-identically),
or CSV/plain text via --format.  Exit codes: 0 success, 2 validation error,
3 unsupported case.  A refusal prints the library's ValueError after
"error:"; only verify checks d and x itself, before any prediction.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict, replace
from functools import lru_cache

from .arith import is_prime, parse_rational
from .characters import a_chi, character_group
from .decomp import decompose
from .density import (
    DEFAULT_CONFIG,
    TruncationConfig,
    delta_g_zero_class,
    delta_joint_one_mod_q,
    evaluate_density,
)
from .empirical import census_exceptional, check_x, compare, count_joint
from .kummer import UNSUPPORTED, entanglement_coefficient, kummer_degree

SCHEMA = 2


def _emit(payload: dict, fmt: str, stream) -> None:
    payload = {"schema": SCHEMA, **payload}
    if fmt == "json":
        stream.write(json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n")
    elif fmt == "csv":
        flat = _flatten(payload)
        stream.write(",".join(k for k, _ in flat) + "\n")
        stream.write(",".join(str(v) for _, v in flat) + "\n")
    else:
        for k, v in _flatten(payload):
            stream.write(f"{k} = {v}\n")


def _flatten(obj, prefix="") -> list:
    rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), obj))
    return rows


def _density_payload(val) -> dict:
    out = {k: v for k, v in asdict(val).items() if v is not None}
    if val.exact is not None:
        out["exact"] = f"{val.exact.numerator}/{val.exact.denominator}"
    return out


def _cmd_density(args, cfg) -> dict:
    val = evaluate_density(parse_rational(args.g), args.a, args.d, args.method, cfg)
    return _density_payload(val)


def _cmd_verify(args, cfg) -> dict:
    g = parse_rational(args.g)
    if args.d < 2 or args.x < 2:
        raise ValueError("need d >= 2 and x >= 2")
    check_x(args.x)
    if args.d1 is None:
        analytic = {a: evaluate_density(g, a, args.d, "auto", cfg) for a in range(args.d)}
        return compare(g, args.d, args.x, analytic)
    table = count_joint(g, args.d1, args.d, args.x)
    considered = table.require_primes()
    dec = decompose(g)
    rows = []
    for (a1, a2), cnt in sorted(table.counts.items()):
        row = {
            "p_class": a1,
            "ord_class": a2,
            "count": cnt,
            "frequency": cnt / considered,
        }
        pred = _joint_prediction(dec, args.d1, args.d, a1, a2)
        if pred is not None:
            row["predicted"] = pred
        rows.append(row)
    return {
        "g": str(g),
        "d1": args.d1,
        "d": args.d,
        "x": args.x,
        "primes_considered": considered,
        "classes": rows,
    }


def _joint_prediction(dec, d1, d2, a1, a2):
    """Analytic joint density where this artifact knows one: d1 = d2 = q odd
    prime, stratum p = 1 (mod q), plus the zero ord class."""
    if d1 != d2 or d1 == 2 or not is_prime(d1):
        return None
    q = d1
    if a2 % q == 0:
        # ord = 0 (mod q) forces p = 1 (mod q)
        return delta_g_zero_class(dec, q).value if a1 % q == 1 else 0.0
    if a1 % q == 1:
        return delta_joint_one_mod_q(dec, q, a2).value
    return None


def _cmd_degree(args, cfg) -> dict:
    g = parse_rational(args.g)
    deg = kummer_degree(decompose(g), args.kr, args.k)
    return {"g": str(g), "kr": args.kr, "k": args.k, "degree": deg}


def _cmd_decompose(args, cfg) -> dict:
    g = parse_rational(args.g)
    dec = decompose(g)
    return {
        "g": str(dec.g),
        "sign": dec.sign,
        "g0": str(dec.g0),
        "h": dec.h,
        "disc_g0": dec.disc_g0,
        "m": dec.m,
        "generic": dec.h == 1,
    }


def _cmd_cg(args, cfg) -> dict:
    g = parse_rational(args.g)
    c = entanglement_coefficient(decompose(g), args.b, args.f, args.v)
    cg = "unsupported" if c is UNSUPPORTED else c
    return {"g": str(g), "b": args.b, "f": args.f, "v": args.v, "cg": cg}


def _cmd_constants(args, cfg) -> dict:
    grp = character_group(args.q)
    rows = []
    for chi in grp:
        av = a_chi(chi, cfg.prime_cutoff)
        rows.append(
            {
                "index": chi.index,
                "order": chi.order,
                "re": av.value.real,
                "im": av.value.imag,
                "tail_bound": av.tail_bound,
            }
        )
    return {"q": args.q, "prime_cutoff": cfg.prime_cutoff, "characters": rows}


def _cmd_census(args, cfg) -> dict:
    count = census_exceptional(args.q, args.x)
    return {"q": args.q, "x": args.x, "count": count, "fraction": count / args.x}


_COMMANDS = {
    "density": _cmd_density,
    "verify": _cmd_verify,
    "degree": _cmd_degree,
    "decompose": _cmd_decompose,
    "cg": _cmd_cg,
    "constants": _cmd_constants,
    "census": _cmd_census,
}


# built once per process: parsing leaves the parser unchanged, and building
# it cost about 0.6 ms of every request
@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ordense", description=__doc__)
    ap.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="evaluate delta_g(a, d)")
    p.add_argument("--g", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=("auto", "series", "char", "closed"), default="auto")
    _add_truncation(p)

    p = sub.add_parser("verify", help="count primes and compare with predictions")
    p.add_argument("--g", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--d1", type=int, default=None)
    # no route verify predicts with reads v_max
    _add_truncation(p, ("tmax", "nmax", "pmax"))

    p = sub.add_parser("degree", help="[Q(zeta_kr, g^(1/k)) : Q]")
    p.add_argument("--g", required=True)
    p.add_argument("--kr", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("decompose", help="canonical g = sign * g0^h data")
    p.add_argument("--g", required=True)

    p = sub.add_parser("cg", help="entanglement coefficient c_g(b, f, v)")
    p.add_argument("--g", required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--v", type=int, required=True)

    p = sub.add_parser("constants", help="A_chi table for the characters mod q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--pmax", type=int, default=None)

    p = sub.add_parser("census", help="count g <= x with no prime 1 (mod q) in D(g)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    return ap


def _add_truncation(p, flags=("tmax", "nmax", "vmax", "pmax")) -> None:
    for flag in flags:
        p.add_argument(f"--{flag}", type=int, default=None)


def _config_from(args) -> TruncationConfig:
    given = {
        "t_max": getattr(args, "tmax", None),
        "n_max": getattr(args, "nmax", None),
        "v_max": getattr(args, "vmax", None),
        "prime_cutoff": getattr(args, "pmax", None),
    }
    # an explicit 0 reaches TruncationConfig's check instead of the default
    return replace(DEFAULT_CONFIG, **{k: v for k, v in given.items() if v is not None})


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    ap = _build_parser()
    try:
        # argparse prints usage errors and --help to sys.stderr/sys.stdout
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        cfg = _config_from(args)
        payload = _COMMANDS[args.command](args, cfg)
    except ValueError as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    _emit(payload, args.format, stdout)
    if args.command == "cg" and payload.get("cg") == "unsupported":
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
