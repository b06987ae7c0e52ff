import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import ordense.cli
from ordense.cli import run
from ordense.density import TruncationConfig


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_density_closed_form_example():
    code, out, _ = _run(["density", "--g", "2", "--a", "0", "--d", "3", "--method", "closed"])
    assert code == 0
    assert '"value":0.375' in out
    assert '"exact":"3/8"' in out
    assert '"method":"closed_form"' in out


def test_density_char_default():
    code, out, _ = _run(["density", "--g", "2", "--a", "1", "--d", "3", "--pmax", "1000000"])
    assert code == 0
    assert '"method":"char_form"' in out
    assert '"rigorous":true' in out


def test_byte_identical_serialization():
    argv = ["density", "--g", "5", "--a", "2", "--d", "5", "--pmax", "1000000"]
    _, out1, _ = _run(argv)
    _, out2, _ = _run(argv)
    assert out1.encode() == out2.encode()
    argv = ["constants", "--q", "5", "--pmax", "1000000"]
    _, out1, _ = _run(argv)
    _, out2, _ = _run(argv)
    assert out1.encode() == out2.encode()


def test_degree_and_decompose():
    code, out, _ = _run(["degree", "--g", "2", "--kr", "8", "--k", "2"])
    assert code == 0 and '"degree":4' in out
    code, out, _ = _run(["decompose", "--g", "-4"])
    assert code == 0
    assert '"sign":-1' in out and '"g0":"2"' in out and '"h":2' in out
    code, out, _ = _run(["decompose", "--g", "16/81"])
    assert '"g0":"2/3"' in out and '"h":4' in out


def test_cg_values_and_unsupported_exit():
    code, out, _ = _run(["cg", "--g", "5", "--b", "2", "--f", "5", "--v", "2"])
    assert code == 0 and '"cg":0' in out
    code, out, _ = _run(["cg", "--g", "2", "--b", "3", "--f", "8", "--v", "2"])
    assert code == 3 and '"cg":"unsupported"' in out


def test_degree_and_cg_echo_parsed_g():
    # the raw --g text "8\n" would split a JSON, CSV or text row
    code, out, _ = _run(["degree", "--g", "8\n", "--kr", "8", "--k", "2"])
    assert code == 0 and out == '{"schema":2,"g":"8","kr":8,"k":2,"degree":4}\n'
    argv = ["--format", "csv", "cg", "--g", "10/2", "--b", "2", "--f", "5", "--v", "2"]
    code, out, _ = _run(argv)
    assert code == 0 and out == "schema,g,b,f,v,cg\n2,5,2,5,2,0\n"
    code, out, _ = _run(["--format", "text", "degree", "--g", " 4/2", "--kr", "8", "--k", "2"])
    assert code == 0 and out.splitlines()[1] == "g = 2"
    # strings are JSON-escaped, floats print in their shortest round-trip form
    out = io.StringIO()
    ordense.cli._emit({"s": 'a\n"b\\', "x": 0.1, "n": [None, True, 3]}, "json", out)
    assert out.getvalue() == '{"schema":2,"s":"a\\n\\"b\\\\","x":0.1,"n":[null,true,3]}\n'


def test_validation_exit_codes():
    for argv in (
        ["density", "--g", "1", "--a", "0", "--d", "3"],
        ["density", "--g", "2", "--a", "0", "--d", "1"],
        ["cg", "--g", "2", "--b", "3", "--f", "9", "--v", "2"],
        ["constants", "--q", "8"],
        ["census", "--q", "4", "--x", "100"],
        ["degree", "--g", "2", "--kr", "8", "--k", "3"],
        ["nonsense"],
    ):
        code, out, err = _run(argv)
        assert code == 2, argv


def test_bad_rational_exits_2():
    for text in ("1/0", "abc"):
        code, out, err = _run(["density", "--g", text, "--a", "0", "--d", "3"])
        assert code == 2 and out == "" and err.startswith(f"error: bad rational {text!r}: ")


def test_parser_built_once_and_reused():
    # the one cached parser keeps no state from a request to the next
    assert ordense.cli._build_parser() is ordense.cli._build_parser()
    joint = ["verify", "--g", "2", "--d", "3", "--x", "2000", "--d1", "3"]
    plain = joint[:-2]
    first = _run(joint)
    assert first[0] == 0
    assert _run(plain)[1] != first[1]
    assert _run(joint) == first
    assert _run(["verify", "--g", "2"])[0] == 2
    assert _run(joint) == first


def test_argparse_messages_go_to_run_streams(capsys):
    code, out, err = _run(["verify", "--g", "2"])
    assert code == 2 and out == ""
    assert "usage: ordense verify" in err and "required" in err
    code, out, err = _run(["--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: ordense")
    assert capsys.readouterr() == ("", "")


# `ordense constants --q 5 --pmax 10000000`, byte for byte
CONSTANTS_Q5_1E7 = (
    '{"schema":2,"q":5,"prime_cutoff":10000000,"characters":[{"index":0,"order":1,"re":1.0,"im":0.0'
    ',"tail_bound":0.0}'
    ',{"index":1,"order":4,"re":0.36468962861594334,"im":0.22404109573765058'
    ',"tail_bound":1.3808420003684339e-08}'
    ',{"index":2,"order":2,"re":0.12930793928585047,"im":0.0'
    ',"tail_bound":4.171716770158906e-09}'
    ',{"index":3,"order":4,"re":0.36468962861594334,"im":-0.22404109573765058'
    ',"tail_bound":1.3808420003684339e-08}]}\n'
)


def test_constants_table():
    code, out, _ = _run(["constants", "--q", "3", "--pmax", "1000000"])
    assert code == 0
    assert '"index":0' in out and '"order":1' in out
    assert '"re":1.0,"im":0.0,"tail_bound":0.0' in out  # principal character
    code, out, _ = _run(["constants", "--q", "5", "--pmax", "1000000"])
    # the real character mod 5 prints an exact 0, not -0 or a round-off
    assert re.search(r'"index":2,"order":2,"re":[0-9.e-]+,"im":0\.0,', out)
    # the whole table at the default cutoff, byte for byte: the generic and
    # class sums and their truncation above 2e5 move no printed digit
    code, out, _ = _run(["constants", "--q", "5", "--pmax", "10000000"])
    assert code == 0 and out == CONSTANTS_Q5_1E7


def test_census_output():
    code, out, _ = _run(["census", "--q", "3", "--x", "30"])
    assert code == 0 and '"count":23' in out


def test_verify_small():
    code, out, _ = _run(
        ["verify", "--g", "2", "--d", "3", "--x", "100000", "--pmax", "1000000"]
    )
    assert code == 0
    assert '"ok":true' in out
    assert '"primes_considered":9591' in out


def test_verify_joint():
    code, out, _ = _run(["verify", "--g", "2", "--d", "3", "--x", "50000", "--d1", "3"])
    assert code == 0
    assert '"p_class":1' in out and '"predicted":0.375' in out


def test_verify_joint_without_prediction():
    # d1 != d has no analytic joint density: counts only
    code, out, _ = _run(["verify", "--g", "2", "--d", "3", "--x", "100", "--d1", "4"])
    assert code == 0
    report = json.loads(out)
    assert all("predicted" not in row for row in report["classes"])
    assert sum(row["count"] for row in report["classes"]) == report["primes_considered"] == 24


def test_verify_refuses_x_below_2():
    code, out, err = _run(["verify", "--g", "2", "--d", "3", "--x", "1"])
    assert code == 2 and out == "" and err == "error: need d >= 2 and x >= 2\n"


# the README's nine commands, verify at x = 1e6: each with its keys, then
# each row's keys (a row may stop before its last key)
CONTRACT = [
    ("density --g 2 --a 0 --d 3 --method closed", "value error_bound rigorous method exact", ""),
    ("density --g 2 --a 1 --d 3", "value error_bound rigorous method", ""),
    ("degree --g 2 --kr 8 --k 2", "g kr k degree", ""),
    ("decompose --g -4", "g sign g0 h disc_g0 m generic", ""),
    ("cg --g 5 --b 2 --f 5 --v 2", "g b f v cg", ""),
    ("constants --q 5 --pmax 10000000", "q prime_cutoff characters", "index order re im tail_bound"),
    ("census --q 3 --x 1000000", "q x count fraction", ""),
    (
        "verify --g 2 --d 3 --x 1000000",
        "g d x primes_considered tolerance ok classes",
        "a count frequency predicted deviation ok",
    ),
    (
        "verify --g 2 --d 3 --x 1000000 --d1 3",
        "g d1 d x primes_considered classes",
        "p_class ord_class count frequency predicted",
    ),
]


def test_output_contract():
    floats = []

    def parse_float(text):
        floats.append(text)
        return float(text)

    for command, keys, row_keys in CONTRACT:
        code, out, _ = _run(command.split())
        assert code == 0 and out.count("\n") == 1, command
        payload = json.loads(out, parse_float=parse_float)
        assert list(payload) == ["schema", *keys.split()], command
        assert payload["schema"] == 2
        for row in payload.get("characters", payload.get("classes", [])):
            assert list(row) == row_keys.split()[: len(row)], command
        # CSV cells are str() of the JSON values, in the same order
        code, out, _ = _run(["--format", "csv", *command.split()])
        header, cells = out.splitlines()
        flat = ordense.cli._flatten(payload)
        assert header == ",".join(k for k, _ in flat), command
        assert cells == ",".join(str(v) for _, v in flat), command
    # every float is printed in its shortest round-trip form
    assert len(floats) > 30
    assert all(text == repr(float(text)) for text in floats), floats


def test_formats():
    code, out, _ = _run(["--format", "text", "decompose", "--g", "8"])
    assert code == 0 and "h = 3" in out
    code, out, _ = _run(["--format", "csv", "decompose", "--g", "8"])
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.split(",")[0] == "schema"
    assert row.split(",")[0] == "2"


def test_format_bytes_pinned():
    argv = ["density", "--g", "2", "--a", "0", "--d", "3", "--method", "closed"]
    _, out, _ = _run(["--format", "csv", *argv])
    assert out == (
        "schema,value,error_bound,rigorous,method,exact\n"
        "2,0.375,0.0,True,closed_form,3/8\n"
    )
    _, out, _ = _run(["--format", "text", *argv])
    assert out == (
        "schema = 2\nvalue = 0.375\nerror_bound = 0.0\nrigorous = True\n"
        "method = closed_form\nexact = 3/8\n"
    )
    # nested lists of dicts flatten to dotted keys
    _, out, _ = _run(["--format", "text", "verify", "--g", "2", "--d", "3", "--x", "20", "--d1", "3"])
    assert out.startswith(
        "schema = 2\ng = 2\nd1 = 3\nd = 3\nx = 20\nprimes_considered = 7\n"
        "classes.0.p_class = 0\nclasses.0.ord_class = 2\nclasses.0.count = 1\n"
        "classes.0.frequency = 0.14285714285714285\nclasses.1.p_class = 1\n"
    )
    # the plain verify report, key order and float digits included
    _, out, _ = _run(["verify", "--g", "2", "--d", "3", "--x", "20000", "--pmax", "100000"])
    assert out == (
        '{"schema":2,"g":"2","d":3,"x":20000,"primes_considered":2261,'
        '"tolerance":0.06309151753013043,"ok":true,"classes":['
        '{"a":0,"count":845,"frequency":0.37372843874391865,"predicted":0.375,'
        '"deviation":0.001271561256081355,"ok":true},'
        '{"a":1,"count":787,"frequency":0.34807607253427686,"predicted":0.345120736683172,'
        '"deviation":0.0029553358511048566,"ok":true},'
        '{"a":2,"count":629,"frequency":0.2781954887218045,"predicted":0.279879263316828,'
        '"deviation":0.0016837745950235017,"ok":true}]}\n'
    )


def test_verify_rejects_oversized_g_before_sieving(monkeypatch):
    import ordense.empirical as emp

    def no_sieve(*args):
        raise AssertionError("sieved before validating g")

    monkeypatch.setattr(emp, "_factored_chunks", no_sieve)
    code, _, err = _run(["verify", "--g", str(2**70 + 1), "--d", "3", "--x", "1000000"])
    assert code == 2 and "factorize" in err


def test_env_pmax_override(monkeypatch):
    # --pmax is the only way to set the prime cutoff: the environment is not read
    monkeypatch.setenv("ORDENSE_PMAX", "250000")
    code, out, _ = _run(["constants", "--q", "3"])
    assert code == 0 and '"prime_cutoff":10000000' in out
    code, out, _ = _run(["constants", "--q", "3", "--pmax", "1000000"])
    assert '"prime_cutoff":1000000' in out


def test_density_bracketed_output():
    # undecided entanglement terms give a bracket lo < value < hi
    argv = ["density", "--g", "2", "--a", "1", "--d", "6", "--tmax", "50", "--nmax", "50"]
    code, out, _ = _run(argv)
    assert code == 0
    row = json.loads(out)
    assert row["lo"] < row["value"] < row["hi"]
    code, out, _ = _run(["--format", "text", *argv])
    assert code == 0
    row = dict(line.split(" = ") for line in out.splitlines())
    assert float(row["lo"]) < float(row["value"]) < float(row["hi"])


def test_density_composite_modulus_series():
    code, out, _ = _run(
        ["density", "--g", "2", "--a", "0", "--d", "15", "--tmax", "120", "--nmax", "120"]
    )
    assert code == 0
    assert '"method":"series"' in out
    assert '"rigorous":false' in out


def _forbid_sieve(monkeypatch):
    def boom(*args, **kw):
        raise AssertionError("a truncation reached the sieve")

    # every module of the package, so a name bound by a module added later
    # is forbidden too
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ordense" or mod_name.startswith("ordense.")):
            continue
        for name in ("primes_upto", "sieve_primes", "tables"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, boom)


def test_zero_truncation_flags_rejected(monkeypatch):
    # an explicit 0 is invalid, not a request for the default
    closed = ["density", "--g", "2", "--a", "0", "--d", "3", "--method", "closed"]
    for flag in ("--tmax", "--nmax", "--vmax", "--pmax"):
        code, _, err = _run([*closed, flag, "0"])
        assert code == 2 and ">= 1" in err, flag
    code, _, _ = _run(["density", "--g", "2", "--a", "1", "--d", "6", "--tmax", "0", "--nmax", "5"])
    assert code == 2
    # truncations past the bounds are refused before anything is sieved
    _forbid_sieve(monkeypatch)
    series6 = ["density", "--g", "2", "--a", "1", "--d", "6", "--method", "series"]
    series3 = ["density", "--g", "2", "--a", "1", "--d", "3", "--method", "series"]
    for argv in (
        ["constants", "--q", "3", "--pmax", "100000001"],
        ["density", "--g", "2", "--a", "1", "--d", "3", "--method", "char", "--pmax", "1000000000"],
        ["verify", "--g", "2", "--d", "3", "--x", "1000", "--pmax", "100000001"],
        [*series6, "--tmax", "10000001"],
        [*series6, "--nmax", "10000001"],
        [*series3, "--vmax", "100000000"],
    ):
        code, _, err = _run(argv)
        assert code == 2 and "<= 1e" in err, argv
    # no route verify predicts with reads v_max, so verify has no --vmax
    code, _, err = _run(["verify", "--g", "2", "--d", "3", "--x", "1000", "--vmax", "10000001"])
    assert code == 2 and "unrecognized arguments: --vmax" in err
    TruncationConfig(t_max=10**7, n_max=10**7, v_max=10**7, prime_cutoff=10**8)


def test_verify_refuses_cutoff_below_euler_range():
    # every class gets a prediction or the run fails: a cutoff a_chi refuses
    # used to drop the char-form classes and report ok
    code, out, err = _run(["verify", "--g", "2", "--d", "3", "--x", "100000", "--pmax", "50"])
    assert code == 2 and out == "" and "at least 100" in err


def test_verify_evaluator_error_exits_2(monkeypatch):
    evaluate = ordense.cli.evaluate_density

    def refuse_class_1(g, a, d, *args):
        if a == 1:
            raise ValueError("no evaluator for this class")
        return evaluate(g, a, d, *args)

    monkeypatch.setattr(ordense.cli, "evaluate_density", refuse_class_1)
    code, out, err = _run(["verify", "--g", "2", "--d", "3", "--x", "10000", "--pmax", "1000000"])
    assert code == 2 and out == "" and "no evaluator" in err


def test_verify_without_a_coprime_prime_exits_2():
    # every prime <= x divides g: this used to end in a ZeroDivisionError
    for g, x in (("2", "2"), ("6", "3")):
        code, out, err = _run(["verify", "--g", g, "--d", "3", "--x", x, "--pmax", "1000000"])
        assert code == 2 and out == "", (g, x)
        assert err == f"error: no prime p <= {x} has nu_p(g) = 0 for g = {g}\n"


def test_verify_joint_without_a_coprime_prime_exits_2():
    # the --d1 path used to exit 0 with "classes":[]
    for g, x in (("2", "2"), ("6", "3")):
        code, out, err = _run(["verify", "--g", g, "--d", "3", "--x", x, "--d1", "3"])
        assert code == 2 and out == "", (g, x)
        assert err == f"error: no prime p <= {x} has nu_p(g) = 0 for g = {g}\n"


_NO_MA_SCRIPT = """
import io, sys
from ordense.cli import run
from ordense.decomp import decompose
from ordense.density import (
    TruncationConfig, delta_charform, delta_general_series, delta_level_q_series,
)
dec = decompose(2)
cfg = TruncationConfig(t_max=40, n_max=40, v_max=400)
delta_general_series(dec, 1, 6, cfg)
delta_level_q_series(dec, 1, 3, cfg)
delta_charform(dec, 1, 5, 1000)
# above P1 = 2e5: the generic pass and both class passes (w_1, and w_2 up to P1)
delta_charform(dec, 1, 5, 3 * 10**5)
for argv in (
    ["verify", "--g", "2", "--d", "3", "--x", "20000", "--pmax", "1000"],
    ["constants", "--q", "7", "--pmax", "300000"],
    ["census", "--q", "3", "--x", "30"],
    ["degree", "--g", "2", "--kr", "8", "--k", "2"],
    ["cg", "--g", "5", "--b", "2", "--f", "5", "--v", "2"],
):
    assert run(argv, io.StringIO(), io.StringIO()) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_series_and_verify_never_import_numpy_ma():
    # a bare np.unique imports numpy.ma on first use, about 15 ms per process
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _NO_MA_SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False", out.stderr
