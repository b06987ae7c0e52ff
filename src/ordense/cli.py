"""Command-line front end.

Subcommands expose every evaluator plus the empirical harness:

    density    --g <rat> --a <int> --d <int> [--method ...] [truncations]
    verify     --g <rat> --d <int> --x <int> [--d1 <int>]
    degree     --g <rat> --kr <int> --k <int>
    decompose  --g <rat>
    cg         --g <rat> --b <int> --f <int> --v <int>
    constants  --q <odd prime power> [--pmax <int>]
    census     --q <odd prime> --x <int>

Output is JSON by default (schema 1, fixed key order, floats rendered with
17 significant digits so identical requests serialize byte-identically),
or CSV/plain text via --format.  Exit codes: 0 success, 2 validation error,
3 unsupported case.  ORDENSE_PMAX overrides the default prime cutoff.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from fractions import Fraction

from .arith import factorize, is_prime, parse_rational
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

SCHEMA = 1


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _to_json(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            _to_json(str(k), out)
            out.append(":")
            _to_json(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _to_json(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def _emit(payload: dict, fmt: str, stream) -> None:
    payload = {"schema": SCHEMA, **payload}
    if fmt == "json":
        buf: list[str] = []
        _to_json(payload, buf)
        stream.write("".join(buf) + "\n")
    elif fmt == "csv":
        flat = _flatten(payload)
        stream.write(",".join(k for k, _ in flat) + "\n")
        stream.write(",".join(_csv_cell(v) for _, v in flat) + "\n")
    else:
        for k, v in _flatten(payload):
            stream.write(f"{k} = {_csv_cell(v)}\n")


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return _fmt_float(v)
    return str(v)


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


class _CliError(Exception):
    pass


def _parse_g(text: str) -> Fraction:
    try:
        g = parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _CliError(f"bad rational {text!r}: {exc}")
    if g in (0, 1, -1):
        raise _CliError("g must avoid -1, 0, 1")
    return g


def _density_payload(val) -> dict:
    out = {
        "value": val.value,
        "error_bound": val.error_bound,
        "rigorous": val.rigorous,
        "method": val.method,
    }
    if val.exact is not None:
        out["exact"] = f"{val.exact.numerator}/{val.exact.denominator}"
    if val.lo is not None:
        out["lo"] = val.lo
        out["hi"] = val.hi
    return out


def _cmd_density(args, cfg) -> dict:
    g = _parse_g(args.g)
    if args.d < 2:
        raise _CliError("d must be at least 2")
    try:
        val = evaluate_density(g, args.a, args.d, args.method, cfg)
    except ValueError as exc:
        raise _CliError(str(exc))
    return _density_payload(val)


def _cmd_verify(args, cfg) -> dict:
    g = _parse_g(args.g)
    if args.d < 2 or args.x < 2:
        raise _CliError("need d >= 2 and x >= 2")
    check_x(args.x)
    if args.d1 is None:
        analytic = {a: evaluate_density(g, a, args.d, "auto", cfg) for a in range(args.d)}
        report = compare(g, args.d, args.x, analytic)
        return report.to_dict()
    table = count_joint(g, args.d1, args.d, args.x)
    dec = decompose(g)
    rows = []
    for (a1, a2), cnt in sorted(table.counts.items()):
        row = {
            "p_class": a1,
            "ord_class": a2,
            "count": cnt,
            "frequency": cnt / table.primes_considered,
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
        "primes_considered": table.primes_considered,
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
    g = _parse_g(args.g)
    if args.k < 1 or args.kr < 1 or args.kr % args.k:
        raise _CliError("need positive kr, k with k | kr")
    deg = kummer_degree(decompose(g), args.kr, args.k)
    return {"g": args.g, "kr": args.kr, "k": args.k, "degree": deg}


def _cmd_decompose(args, cfg) -> dict:
    g = _parse_g(args.g)
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
    g = _parse_g(args.g)
    c = entanglement_coefficient(decompose(g), args.b, args.f, args.v)
    if c is UNSUPPORTED:
        return {"g": args.g, "b": args.b, "f": args.f, "v": args.v, "cg": "unsupported"}
    return {"g": args.g, "b": args.b, "f": args.f, "v": args.v, "cg": c}


def _cmd_constants(args, cfg) -> dict:
    fac = factorize(args.q) if args.q >= 2 else None
    if fac is None or len(fac) != 1 or fac.pairs[0][0] == 2:
        raise _CliError("q must be an odd prime power")
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
    _add_truncation(p)

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


def _add_truncation(p) -> None:
    p.add_argument("--tmax", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--vmax", type=int, default=None)
    p.add_argument("--pmax", type=int, default=None)


def _config_from(args) -> TruncationConfig:
    env_pmax = os.environ.get("ORDENSE_PMAX")
    pmax = getattr(args, "pmax", None)
    if pmax is None and env_pmax is not None:
        pmax = int(env_pmax)
    given = {
        "t_max": getattr(args, "tmax", None),
        "n_max": getattr(args, "nmax", None),
        "v_max": getattr(args, "vmax", None),
        "prime_cutoff": pmax,
    }
    # an explicit 0 reaches TruncationConfig's check instead of the default
    return replace(DEFAULT_CONFIG, **{k: v for k, v in given.items() if v is not None})


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        cfg = _config_from(args)
        payload = _COMMANDS[args.command](args, cfg)
    except _CliError as exc:
        stderr.write(f"error: {exc}\n")
        return 2
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
