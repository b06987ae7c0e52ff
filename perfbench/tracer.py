"""Spans around ordense's layer entry points, for the traced run only.

``install`` replaces each entry point, at every name an ordense module binds
it under (``ordense.density.a_chi``, ``ordense.cli.count_joint``, ...), with a
wrapper that records a span: name, start, end, parent span and request id.
Spans stay in memory and are written out once, after the last request.  A
span's self time is its duration minus the part its child spans cover.

``entanglement_coefficient`` is called millions of times by the double
series, so a span per call would distort the series.  It gets a counting
wrapper instead (calls, UNSUPPORTED results, and every ``CG_STRIDE``-th
argument tuple).  After the requests the sampled arguments are replayed
on the bare function, which gives ``kummer.cg_ns_per_call`` and
``kummer.cg_s`` (calls x that), and through a fresh counting wrapper, whose
cost per call times the calls is what the double series' span holds for
them and is subtracted to give ``density.general_series_self_s``.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

import ordense.characters
import ordense.cli
import ordense.density
import ordense.empirical
import ordense.kummer

CG_STRIDE = 16
CG_SAMPLE_CAP = 200_000
CG_REPLAYS = 3


def _miss_key(*names):
    """Factory of a key function over the named arguments of a call.

    A miss is a key the wrapper has not seen before.  Characters count as
    (modulus, index), a decomposition as its g, a truncation config as its
    v_max, and s as |s|, matching what the library's own caches key on.
    """

    def make(fn):
        sig = inspect.signature(fn)

        def key(args, kw):
            bound = sig.bind(*args, **kw)
            bound.apply_defaults()
            return tuple(_plain(n, bound.arguments[n]) for n in names)

        return key

    return make


def _plain(name, x):
    if name == "chi":
        return (x.modulus, x.index)
    if name == "dec":
        return x.g
    if name == "cfg":
        return x.v_max
    if name == "s":
        return abs(x)
    return x


def _add_primes(rec, table):
    rec.primes += table.primes_considered


# (module, attribute, span name, miss-key factory, result hook)
ENTRY_POINTS = [
    (ordense.cli, "run", "cli.run", None, None),
    (ordense.cli, "evaluate_density", "density.evaluate_density", None, None),
    (ordense.empirical, "count_residues", "empirical.count_residues", None, _add_primes),
    (ordense.empirical, "count_joint", "empirical.count_joint", None, _add_primes),
    (ordense.density, "delta_charform", "density.delta_charform", None, None),
    (ordense.density, "delta_level_q_series", "density.level_q", _miss_key("dec", "q", "cfg"), None),
    (ordense.density, "delta_general_series", "density.general_series", None, None),
    (ordense.characters, "a_chi", "characters.a_chi", _miss_key("chi", "prime_cutoff"), None),
    (
        ordense.characters,
        "c_chi",
        "characters.c_chi",
        _miss_key("chi", "h", "r", "s", "prime_cutoff"),
        None,
    ),
    (ordense.characters, "primes_upto", "characters.primes_upto", None, None),
]


class Recorder:
    """In-memory spans and counters of one traced repetition."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.request = -1
        self.calls: dict[str, int] = {}
        self.misses: dict[str, int] = {}
        self.primes = 0
        self.cg_calls = 0
        self.cg_unsupported = 0
        self.cg_sample: list[tuple] = []
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}

    def span(self, name, fn, key=None, on_result=None):
        self.calls[name] = 0
        self.misses[name] = 0
        seen = self._seen.setdefault(name, set())

        @functools.wraps(fn)
        def traced(*args, **kw):
            self.calls[name] += 1
            if key is not None:
                k = key(args, kw)
                if k not in seen:
                    seen.add(k)
                    self.misses[name] += 1
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request])
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1] = t0
                self.spans[idx][2] = t1
            if on_result is not None:
                on_result(self, out)
            return out

        return traced

    def counter(self, fn, unsupported):
        @functools.wraps(fn)
        def counted(*args):
            n = self.cg_calls
            self.cg_calls = n + 1
            if n % CG_STRIDE == 0 and len(self.cg_sample) < CG_SAMPLE_CAP:
                self.cg_sample.append(args)
            out = fn(*args)
            if out is unsupported:
                self.cg_unsupported += 1
            return out

        return counted


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` at every name an ordense module binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ordense" or mod_name.startswith("ordense.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)


def _unsupported():
    return getattr(ordense.kummer, "UNSUPPORTED", object())


def install(rec: Recorder):
    """Wrap every entry point in ENTRY_POINTS; returns the unwrapped cg function."""
    for mod, attr, name, key_factory, hook in ENTRY_POINTS:
        fn = getattr(mod, attr)
        key = key_factory(fn) if key_factory else None
        _rebind(fn, rec.span(name, fn, key, hook))
    cg = ordense.kummer.entanglement_coefficient
    _rebind(cg, rec.counter(cg, _unsupported()))
    return cg


def _replay(fn, sample) -> float:
    """Mean ns per call of ``fn`` over the recorded argument tuples."""
    if not sample:
        return 0.0
    t0 = time.perf_counter()
    for args in sample:
        fn(*args)
    return (time.perf_counter() - t0) / len(sample) * 1e9


def replay_cg(cg, sample) -> tuple[float, float]:
    """ns per call of the bare ``cg`` and of ``cg`` behind a counting wrapper.

    The two replays alternate ``CG_REPLAYS`` times and each gives its median,
    so a slow moment of the host does not land on one side only.
    """
    counted = Recorder().counter(cg, _unsupported())
    rounds = [(_replay(cg, sample), _replay(counted, sample)) for _ in range(CG_REPLAYS)]
    return statistics.median(r[0] for r in rounds), statistics.median(r[1] for r in rounds)


def _durations(spans, name):
    return [s[2] - s[1] for s in spans if s[0] == name]


def _self_times(spans, name):
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - child[i] for i, s in enumerate(spans) if s[0] == name]


def layer_metrics(rec: Recorder, cg_ns: float, counted_ns: float) -> dict:
    """Per-layer numbers of one traced repetition (values only; units in BENCHMARK.json).

    ``cg_ns`` and ``counted_ns`` are the replayed ns per call of the bare and
    the counted ``entanglement_coefficient`` (see ``replay_cg``).
    """
    spans = rec.spans
    counts = sorted(
        (s for s in spans if s[0] in ("empirical.count_residues", "empirical.count_joint")),
        key=lambda s: s[1],
    )
    count_times = [s[2] - s[1] for s in counts]
    count_s = sum(count_times)
    a_calls, c_calls = rec.calls["characters.a_chi"], rec.calls["characters.c_chi"]
    a_miss, c_miss = rec.misses["characters.a_chi"], rec.misses["characters.c_chi"]
    chi_calls = a_calls + c_calls
    cg_s = rec.cg_calls * cg_ns / 1e9
    return {
        "cli.run_self_s": sum(_self_times(spans, "cli.run")),
        "empirical.count_s": count_s,
        "empirical.count_first_s": count_times[0] if count_times else 0.0,
        "empirical.count_rest_s": statistics.median(count_times[1:]) if len(count_times) > 1 else 0.0,
        "empirical.primes": rec.primes,
        "empirical.ns_per_prime": count_s / rec.primes * 1e9 if rec.primes else 0.0,
        "characters.primes_upto_s": sum(_durations(spans, "characters.primes_upto")),
        "characters.a_chi_s": sum(_durations(spans, "characters.a_chi")),
        "characters.a_chi_calls": a_calls,
        "characters.a_chi_misses": a_miss,
        "characters.c_chi_s": sum(_durations(spans, "characters.c_chi")),
        "characters.c_chi_calls": c_calls,
        "characters.c_chi_misses": c_miss,
        "characters.cache_hit_ratio": (chi_calls - a_miss - c_miss) / chi_calls if chi_calls else 0.0,
        "density.charform_self_s": sum(_self_times(spans, "density.delta_charform")),
        "density.level_q_s": sum(_durations(spans, "density.level_q")),
        "density.level_q_calls": rec.calls["density.level_q"],
        "density.level_q_misses": rec.misses["density.level_q"],
        "density.general_series_self_s": sum(_self_times(spans, "density.general_series"))
        - rec.cg_calls * counted_ns / 1e9,
        "density.general_series_calls": rec.calls["density.general_series"],
        "kummer.cg_s": cg_s,
        "kummer.cg_calls": rec.cg_calls,
        "kummer.cg_unsupported": rec.cg_unsupported,
        "kummer.cg_ns_per_call": cg_ns,
    }


def write_spans(rec: Recorder, path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "request"], "spans": rec.spans}, fh)
