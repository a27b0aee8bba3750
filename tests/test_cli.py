import contextlib
import inspect
import io
import json
import os
import sys

import pytest

from ffpn.cli import build_parser, main
from ffpn.search import resolve_pair


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_factor_int_text(capsys):
    code, out = run_cli(capsys, "factor-int", "--n", "387420488")
    assert code == 0
    assert "2^3 * 7 * 13 * 19 * 37 * 757" in out
    assert "omega = 6" in out


def test_factor_int_on_a_prime_power_minus_one(capsys):
    code, out = run_cli(capsys, "--json", "factor-int", "--n", str(3**86 - 1))
    assert code == 0
    assert json.loads(out)["factors"][-2:] == [["380808546861411923", 1], ["82064241848634269407", 1]]


def test_factor_int_json_roundtrip(capsys):
    code, out = run_cli(capsys, "--json", "factor-int", "--n", "26")
    assert code == 0
    payload = json.loads(out)
    assert payload["theta"] == {"num": "6", "den": "13"}
    # byte-identical re-rendering
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


def test_check_verdicts_agree_between_modes(capsys):
    code, text = run_cli(capsys, "check", "--q", "3", "--m", "4")
    assert code == 0 and "fail" in text and "384" in text
    code, js = run_cli(capsys, "--json", "check", "--q", "3", "--m", "4")
    payload = json.loads(js)
    assert payload["verdict"] == "fail" and payload["rhs"] == 384


def test_check_reports_the_w_certificate(capsys, monkeypatch):
    from ffpn import sieve

    code, text = run_cli(capsys, "check", "--q", "3", "--m", "4")
    assert code == 0 and "W bound: exact\n" in text
    # without rho the 28-digit cofactor of Phi_59(3) stays unsplit
    monkeypatch.setattr(sieve, "PARTIAL_RHO_ITERS", 0)
    code, text = run_cli(capsys, "check", "--q", "3", "--m", "59")
    assert code == 0 and "W bound: partial (unsplit cofactor: 28 digits)\n" in text
    code, js = run_cli(capsys, "--json", "check", "--q", "3", "--m", "59")
    payload = json.loads(js)
    assert (payload["W_bound"], payload["unsplit_digits"], payload["verdict"]) == ("partial", [28], "pass")


def test_corrupt_cache_exits_2(capsys, tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{truncated", encoding="utf-8")
    assert main(["--cache", str(path), "check", "--q", "3", "--m", "4"]) == 2
    assert f"error: factor cache {path} is not valid JSON" in capsys.readouterr().err
    assert path.read_text(encoding="utf-8") == "{truncated"


@pytest.mark.parametrize("where", ["tmp-directory", "missing-directory", "read-only-directory"])
def test_unwritable_cache_path_is_refused_before_factoring(capsys, monkeypatch, tmp_path, where):
    # all used to factor n and then exit 1 with a traceback from the cache write
    import ffpn.numtheory as numtheory_mod

    def no_trial_division(*args):
        raise AssertionError("factored for a cache that cannot be written")

    monkeypatch.setattr(numtheory_mod, "small_primes", no_trial_division)
    if where == "tmp-directory":
        path = tmp_path / "c.json"
        (tmp_path / "c.json.tmp").mkdir()
        want = f"error: factor cache {path}: {path}.tmp is a directory\n"
    elif where == "missing-directory":
        path = tmp_path / "missing" / "c.json"
        want = f"error: factor cache {path} is in no existing directory\n"
    else:
        path = tmp_path / "c.json"
        want = f"error: factor cache {path} is in a read-only directory\n"
        # root may write anywhere, so the directory is made read-only by decree
        access = os.access
        monkeypatch.setattr(
            os, "access", lambda p, *a, **k: os.fspath(p) != str(tmp_path) and access(p, *a, **k)
        )
    assert main(["--cache", str(path), "factor-int", "--n", "1000001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == want
    assert sorted(os.listdir(tmp_path)) == (["c.json.tmp"] if where == "tmp-directory" else [])


_F81_COUNT = ("count", "--p", "3", "--m", "4", "--a", "1", "--b", "0", "--c", "1")


@pytest.mark.parametrize(
    "argv",
    [
        ("sieve", "--q", "3", "--m", "4", "--d", "7"),
        ("sieve", "--q", "3", "--m", "4", "--d", "1", "--g", "-1"),
        ("sieve", "--q", "3", "--m", "4", "--d", "1", "--g", "7"),
        ("check", "--q", "6", "--m", "2"),
        ("enumerate", "--p", "4", "--m", "2"),
        ("witness", "--p", "3", "--m", "2", "--a", "1", "--b", "1", "--c", "1"),
        _F81_COUNT + ("--e1", "7", "--e2", "80"),
        _F81_COUNT + ("--e1", "80", "--e2", "80", "--g", "7"),
        _F81_COUNT + ("--e1", "80", "--e2", "80", "--g", "-1"),
        ("resolve-pair", "--q", "3", "--m", "0"),
        # in characteristic 2 admissibility is b != 0, not one c' per b'
        ("resolve-pair", "--q", "2", "--m", "3"),
        ("resolve-pair", "--q", "4", "--m", "2"),
        # no quadratic leaves no worst row to report
        ("char-audit", "--p", "3", "--m", "2", "--quadratics", "0"),
        ("char-audit", "--p", "3", "--m", "2", "--quadratics", "-1"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_refused_requests_exit_2(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        # codes from Q up name no field element
        ("witness", "--p", "3", "--m", "2", "--a", "9", "--b", "1", "--c", "1"),
        ("count", "--p", "3", "--m", "4", "--a", "81", "--b", "0", "--c", "1", "--e1", "80", "--e2", "80"),
        # count admits f as witness does: a != 0, b^2 != 4ac
        ("count", "--p", "3", "--m", "4", "--a", "0", "--b", "0", "--c", "1", "--e1", "1", "--e2", "80"),
        ("count", "--p", "3", "--m", "4", "--a", "1", "--b", "1", "--c", "1", "--e1", "1", "--e2", "80"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_out_of_field_codes_and_inadmissible_counts_exit_2(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_sieve_command(capsys):
    code, out = run_cli(capsys, "--json", "sieve", "--q", "3", "--m", "18", "--d", "14")
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["n"] == 4
    lam = payload["Lambda"]
    assert abs(int(lam["num"]) / int(lam["den"]) - 12.231) < 5e-4


def test_auto_sieve_command(capsys):
    code, out = run_cli(capsys, "--json", "auto-sieve", "--q", "3", "--m", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "fail"


def test_auto_sieve_has_no_budget_flag():
    with pytest.raises(SystemExit) as exc:
        main(["auto-sieve", "--q", "3", "--m", "3", "--budget", "5"])
    assert exc.value.code == 2


def test_factor_poly_9_43_exits_0(capsys):
    # the degree-21 factors come from F_{3^42}, whose codes exceed int64
    code, out = run_cli(capsys, "--json", "factor-poly", "--q", "9", "--m", "43")
    assert code == 0
    assert [f["degree"] for f in json.loads(out)["factors"]] == [1, 21, 21]


def test_table_command(capsys):
    code, out = run_cli(capsys, "--json", "table", "--which", "1")
    rows = json.loads(out)
    assert code == 0 and len(rows) == 8
    by_pair = {(int(r["q"]), int(r["m"])): r for r in rows}
    assert by_pair[(9, 9)]["rhs_matches"] is False
    assert by_pair[(3, 18)]["lambda_matches"] is True
    code, text_out = run_cli(capsys, "table", "--which", "2")
    assert code == 0 and "(27,5)" in text_out and "printed 67.72974" in text_out


def test_enumerate_command(capsys):
    code, out = run_cli(capsys, "--json", "enumerate", "--p", "3", "--r", "1", "--m", "3")
    payload = json.loads(out)
    assert payload["count"] == 9


def test_count_and_witness(capsys):
    code, out = run_cli(
        capsys, "--json", "count", "--p", "3", "--r", "2", "--m", "2",
        "--a", "1", "--b", "0", "--c", "2", "--e1", "1", "--e2", "1", "--g", "1",
    )
    assert json.loads(out)["count"] == 78
    code, out = run_cli(
        capsys, "--json", "witness", "--p", "3", "--r", "1", "--m", "3",
        "--a", "1", "--b", "1", "--c", "2",
    )
    assert json.loads(out)["witness"] is None
    code, out = run_cli(
        capsys, "--json", "witness", "--p", "3", "--r", "1", "--m", "3",
        "--a", "1", "--b", "0", "--c", "1",
    )
    assert json.loads(out)["witness"] is not None


def test_resolve_pair_command(capsys, tmp_path):
    code, out = run_cli(
        capsys, "--json", "--threads", "1",
        "resolve-pair", "--q", "3", "--m", "2",
        "--checkpoint", str(tmp_path / "ck.json"),
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["status"] == "exception_found"
    assert len(payload["bad_quadratics"]) == 32


@pytest.mark.parametrize(
    "where", ["missing-directory", "directory", "tmp-directory", "read-only-directory"]
)
def test_resolve_pair_refuses_unwritable_checkpoint_path_before_sweeping(
    capsys, monkeypatch, tmp_path, where
):
    # all used to end in a traceback with exit 1, a missing or read-only
    # directory and a directory at PATH.tmp only after the whole sweep
    import ffpn.search as search_mod

    def no_tables(*args):
        raise AssertionError("built sweep tables for a checkpoint that cannot be written")

    monkeypatch.setattr(search_mod, "_sweep_context", no_tables)
    path = {
        "missing-directory": tmp_path / "missing" / "ck.json",
        "directory": tmp_path,
        "tmp-directory": tmp_path / "ck.json",
        "read-only-directory": tmp_path / "ck.json",
    }[where]
    if where == "tmp-directory":
        (tmp_path / "ck.json.tmp").mkdir()
    if where == "read-only-directory":
        # root may write anywhere, so the directory is made read-only by decree
        access = os.access
        monkeypatch.setattr(
            os, "access", lambda p, *a, **k: os.fspath(p) != str(tmp_path) and access(p, *a, **k)
        )
    code = main(["--json", "--threads", "1", "resolve-pair", "--q", "3", "--m", "2",
                 "--checkpoint", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: checkpoint path ") and captured.err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == (["ck.json.tmp"] if where == "tmp-directory" else [])


def test_resolve_pair_ignores_non_utf8_checkpoint(capsys, tmp_path):
    # refused, no longer ignored: the sweep restarted from 0 over the file
    ck = tmp_path / "ck.json"
    ck.write_bytes(b"\xff\xfe{")
    code = main(["--json", "--threads", "1", "resolve-pair", "--q", "3", "--m", "2",
                 "--checkpoint", str(ck)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: checkpoint {ck} is not UTF-8\n"
    assert ck.read_bytes() == b"\xff\xfe{"


def test_char_audit_command(capsys):
    code, out = run_cli(
        capsys, "--json", "--threads", "1",
        "char-audit", "--p", "3", "--r", "1", "--m", "2", "--quadratics", "10",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["weil_violations"] == 0
    assert payload["orthogonality_worst"] < 1e-9


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sieve", "--q", "3"])  # missing required flags
    assert exc.value.code == 2


def test_budget_error_exit_3(capsys):
    code = main(["--json", "enumerate", "--p", "3", "--r", "1", "--m", "17"])
    assert code == 3


def test_resolve_pair_oversized_exit_3(capsys):
    # Q = 3^8 = 6561 is above the pair-sweep cap
    code = main(["--json", "--threads", "1", "resolve-pair", "--q", "3", "--m", "8"])
    assert code == 3
    # F_{27^3}: rad(N) = 19682, so cover rows built before the refusal would take 97 MB
    code = main(["--json", "--threads", "1", "resolve-pair", "--q", "27", "--m", "3"])
    assert code == 3


def test_resolve_pair_default_budget_finishes_3_7():
    cli_default = build_parser().parse_args(["resolve-pair", "--q", "3", "--m", "7"]).budget
    api_default = inspect.signature(resolve_pair).parameters["budget"].default
    # probes_done of the whole (2187,1) sweep; (3,7) counts 20,921,201,317.  Q = 2187
    # is the largest field under SWEEP_FIELD_LIMIT
    assert cli_default == api_default > 20_922_951_606


def test_factor_poly_command(capsys):
    code, out = run_cli(capsys, "--json", "factor-poly", "--q", "3", "--m", "9")
    payload = json.loads(out)
    assert payload["multiplicity"] == 9
    assert len(payload["factors"]) == 1


def test_cache_flag(capsys, tmp_path):
    path = str(tmp_path / "cache.json")
    code, _ = run_cli(capsys, "--cache", path, "factor-int", "--n", "4782968")
    assert code == 0
    with open(path, encoding="utf-8") as fh:
        assert str(4782968) in json.load(fh)


def test_env_cache_variable(capsys, tmp_path, monkeypatch):
    path = str(tmp_path / "envcache.json")
    monkeypatch.setenv("FFPN_CACHE", path)
    code, _ = run_cli(capsys, "factor-int", "--n", "26")
    assert code == 0
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["26"] == ["2", "13"]


def test_sieve_g_flag_variants(capsys):
    code, out = run_cli(capsys, "--json", "sieve", "--q", "3", "--m", "4", "--d", "80", "--g", "1")
    payload = json.loads(out)
    assert code == 0 and payload["k"] == 3  # all three factors remain
    code, out = run_cli(capsys, "--json", "sieve", "--q", "3", "--m", "4", "--d", "80", "--g", "0,1")
    assert json.loads(out)["k"] == 1


GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_cli.json")
# (argv, drop) of each frozen request; regenerate the file (only from code
# already known to be right) with `PYTHONPATH=src python tests/test_cli.py --write`
GOLDEN_REQUESTS = [
    (("factor-poly", "--q", "9", "--m", "5"), ()),
    (("enumerate", "--p", "3", "--r", "2", "--m", "2"), ()),
    (("count", "--p", "3", "--m", "4", "--a", "1", "--b", "0", "--c", "1",
      "--e1", "80", "--e2", "80", "--g", "all"), ()),
    (("witness", "--p", "3", "--r", "2", "--m", "2", "--a", "1", "--b", "1", "--c", "2"), ()),
    (("--threads", "1", "char-audit", "--p", "3", "--m", "3", "--quadratics", "10"), ()),
    (("--threads", "1", "resolve-pair", "--q", "3", "--m", "3"), ("elapsed",)),
    (("check", "--q", "3", "--m", "59"), ()),
    # auto_sieve's tie orders: t + s = 13 leaves out the highest-index factors,
    # t + s = 18 and 38 the lowest-index ones; each report differs under the other
    (("auto-sieve", "--q", "9", "--m", "8"), ()),
    (("auto-sieve", "--q", "9", "--m", "16"), ()),
    (("auto-sieve", "--q", "27", "--m", "26"), ()),
    (("sieve", "--q", "3", "--m", "18", "--d", "14"), ()),
    # its g are FqPolynomial divisors
    (("table", "--which", "2"), ()),
    # explicit factors built in untabled scratch fields F_{3^29} and F_{3^12}
    (("factor-poly", "--q", "3", "--m", "59"), ()),
    (("factor-poly", "--q", "81", "--m", "7"), ()),
]


def golden_stdout(argv, drop=()):
    """--json stdout of one request, re-rendered without the keys in drop."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["--json", *argv]) == 0
    out = buf.getvalue()
    if drop:
        payload = json.loads(out)
        for key in drop:
            del payload[key]
        out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return out


def test_golden_json_outputs_are_byte_identical():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)["requests"]
    assert len(golden) == 14
    assert [(req["argv"], req["drop"]) for req in golden] == [
        (list(argv), list(drop)) for argv, drop in GOLDEN_REQUESTS
    ]
    for req in golden:
        assert golden_stdout(req["argv"], req["drop"]) == req["stdout"], req["argv"]


def _write():
    requests = [
        {"argv": list(argv), "drop": list(drop), "stdout": golden_stdout(argv, drop)}
        for argv, drop in GOLDEN_REQUESTS
    ]
    payload = {
        "about": "stdout of `ffpn --json <argv>` for each request; the first six frozen "
        "from the code before the per-tower context refactor, the next six (the "
        "conditions route) before x^m - 1 was factored into coset data, the last two "
        "(factor-poly in untabled scratch fields) before untabled field arithmetic went "
        "through the F_p polynomial helpers; keys in drop vary between runs and are "
        "removed before comparing; written by "
        "`PYTHONPATH=src python tests/test_cli.py --write`",
        "requests": requests,
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli.py --write")
    _write()
