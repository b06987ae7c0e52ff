import io
import os

import ordense.characters
import ordense.cli
import ordense.density
import ordense.empirical
import ordense.sieve
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


def test_constants_table():
    code, out, _ = _run(["constants", "--q", "3", "--pmax", "1000000"])
    assert code == 0
    assert '"index":0' in out and '"order":1' in out
    assert '"re":1,"im":0,"tail_bound":0' in out  # principal character


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


def test_formats():
    code, out, _ = _run(["--format", "text", "decompose", "--g", "8"])
    assert code == 0 and "h = 3" in out
    code, out, _ = _run(["--format", "csv", "decompose", "--g", "8"])
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.split(",")[0] == "schema"
    assert row.split(",")[0] == "1"


def test_format_bytes_pinned():
    argv = ["density", "--g", "2", "--a", "0", "--d", "3", "--method", "closed"]
    _, out, _ = _run(["--format", "csv", *argv])
    assert out == (
        "schema,value,error_bound,rigorous,method,exact\n"
        "1,0.375,0,True,closed_form,3/8\n"
    )
    _, out, _ = _run(["--format", "text", *argv])
    assert out == (
        "schema = 1\nvalue = 0.375\nerror_bound = 0\nrigorous = True\n"
        "method = closed_form\nexact = 3/8\n"
    )
    # nested lists of dicts flatten to dotted keys
    _, out, _ = _run(["--format", "text", "verify", "--g", "2", "--d", "3", "--x", "20", "--d1", "3"])
    assert out.startswith(
        "schema = 1\ng = 2\nd1 = 3\nd = 3\nx = 20\nprimes_considered = 7\n"
        "classes.0.p_class = 0\nclasses.0.ord_class = 2\nclasses.0.count = 1\n"
        "classes.0.frequency = 0.14285714285714285\nclasses.1.p_class = 1\n"
    )


def test_verify_rejects_oversized_g_before_sieving(monkeypatch):
    import ordense.empirical as emp

    def no_sieve(*args):
        raise AssertionError("sieved before validating g")

    monkeypatch.setattr(emp, "_factored_chunks", no_sieve)
    code, _, err = _run(["verify", "--g", str(2**70 + 1), "--d", "3", "--x", "1000000"])
    assert code == 2 and "factorize" in err


def test_env_pmax_override(monkeypatch):
    monkeypatch.setenv("ORDENSE_PMAX", "250000")
    code, out, _ = _run(["constants", "--q", "3"])
    assert code == 0 and '"prime_cutoff":250000' in out
    monkeypatch.delenv("ORDENSE_PMAX")
    code, out, _ = _run(["constants", "--q", "3", "--pmax", "1000000"])
    assert '"prime_cutoff":1000000' in out


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

    for mod in (ordense.sieve, ordense.characters, ordense.empirical, ordense.density):
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
        ["verify", "--g", "2", "--d", "3", "--x", "1000", "--vmax", "10000001"],
    ):
        code, _, err = _run(argv)
        assert code == 2 and "<= 1e" in err, argv
    TruncationConfig(t_max=10**7, n_max=10**7, v_max=10**7, prime_cutoff=10**8)
    monkeypatch.setenv("ORDENSE_PMAX", "100000001")
    code, _, err = _run(["constants", "--q", "3"])
    assert code == 2 and "<= 1e8" in err
    monkeypatch.setenv("ORDENSE_PMAX", "0")
    code, _, err = _run(closed)
    assert code == 2 and ">= 1" in err


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
