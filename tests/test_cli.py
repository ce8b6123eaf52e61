"""Command-line surface: envelopes, exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multsquares.arith as arith_module
import multsquares.constraints as constraints_module
import multsquares.replay as replay_module
import multsquares.squares as squares_module
import multsquares.theorem as theorem_module
from multsquares.cli import build_parser, main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse(out):
    return json.loads(out)


def test_frobenius_envelope(capsys):
    code, out, _ = run_cli("frobenius", "--a", "3", "--b", "8", capsys=capsys)
    assert code == 0
    env = parse(out)
    assert env["status"] == "ok"
    assert env["result"]["frobenius"] == 13
    assert env["result"]["nonrepresentable"] == [1, 2, 4, 5, 7, 10, 13]
    assert set(env) == {"command", "elapsed_ms", "parameters", "result", "status"}


def test_frobenius_above_limit_exits_2(capsys, monkeypatch):
    def refuse(size):
        raise AssertionError("the gap table must not be allocated")

    # 1000 * 1003 - 1000 - 1003 = 1000997
    monkeypatch.setattr(arith_module, "bytearray", refuse, raising=False)
    code, out, err = run_cli("frobenius", "--a", "1000", "--b", "1003", capsys=capsys)
    assert code == 2
    assert out == ""
    assert "Frobenius number must be at most 1000000" in err


def test_frobenius_not_coprime_fails(capsys):
    code, out, _ = run_cli("frobenius", "--a", "6", "--b", "9", capsys=capsys)
    assert code == 1
    env = parse(out)
    assert env["status"] == "failed"
    assert env["result"]["error"] == "NotCoprimeError"


def test_repr_command(capsys):
    code, out, _ = run_cli("repr", "--n", "40", "--k", "5", capsys=capsys)
    assert code == 0
    env = parse(out)
    assert env["result"]["count"] == 3
    assert [6, 1, 1, 1, 1] in env["result"]["representations"]
    assert [3, 3, 3, 3, 2] in env["result"]["representations"]
    assert env["result"]["truncated"] is False


def test_exceptions_command(capsys):
    code, out, _ = run_cli("exceptions", "--k", "4", "--bound", "50", capsys=capsys)
    env = parse(out)
    assert env["result"]["exceptional"] == [
        1, 2, 3, 5, 6, 8, 9, 11, 14, 17, 24, 29, 32, 41,
    ]


def test_verify_dubouis_command(capsys):
    code, out, _ = run_cli("verify-dubouis", "--k", "6", "--bound", "200",
                           capsys=capsys)
    assert code == 0
    env = parse(out)
    assert env["result"]["agree"] is True


def test_solve_command(capsys):
    code, out, _ = run_cli("solve", "--k", "4", "--bound", "50", capsys=capsys)
    assert code == 0
    env = parse(out)
    assert env["result"]["pinned"] == list(range(1, 51))
    assert env["result"]["unresolved"] == []
    assert env["result"]["steps"] == []  # no --trace


def test_replay_command(capsys):
    code, out, _ = run_cli("replay", "--k", "7", capsys=capsys)
    assert code == 0
    env = parse(out)
    names = [s["name"] for s in env["result"]["stages"]]
    assert "chain-55" in names


def test_theorem_command(capsys):
    code, out, _ = run_cli("theorem", "--k", "5", "--bound", "40", capsys=capsys)
    assert code == 0
    env = parse(out)
    assert env["result"]["all_passed"] is True


def test_theorem_large_k_exits_0(capsys):
    # 11 * 10 = 110 < 111, so n = 11 needs a witness m other than n - 1
    code, out, _ = run_cli("theorem", "--k", "111", "--bound", "60", capsys=capsys)
    assert code == 0, out
    env = parse(out)
    assert env["status"] == "ok"
    assert env["result"]["all_passed"] is True
    assert env["result"]["checks"][-1] == {
        "name": "pinned-to-60", "passed": True, "detail": ""
    }


def test_check_command(tmp_path, capsys):
    values = {
        str(q): str(q)
        for q in (2, 4, 8, 3, 9, 5, 7, 11, 13)
    }
    values["3"] = "-3"
    path = tmp_path / "values.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    code, out, _ = run_cli(
        "check", "--k", "4", "--bound", "12", "--values", str(path),
        capsys=capsys,
    )
    # a violated constraint is a failed check
    assert code == 1
    env = parse(out)
    assert env["status"] == "failed"
    assert env["result"]["violation_count"] == 1
    v = env["result"]["violations"][0]
    assert v["target"] == 12 and v["lhs"] == "-12" and v["rhs"] == "12"


def test_check_identity_exits_0(tmp_path, capsys):
    values = {str(q): str(q) for q in (2, 4, 8, 3, 9, 5, 7, 11)}
    path = tmp_path / "values.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    code, out, _ = run_cli(
        "check", "--k", "4", "--bound", "12", "--values", str(path),
        capsys=capsys,
    )
    assert code == 0
    env = parse(out)
    assert env["status"] == "ok"
    assert env["result"] == {
        "k": 4, "bound": 12, "violations": [], "violation_count": 0,
    }


def test_check_missing_value(tmp_path, capsys):
    path = tmp_path / "values.json"
    path.write_text(json.dumps({"2": "2"}), encoding="utf-8")
    code, out, _ = run_cli(
        "check", "--k", "4", "--bound", "12", "--values", str(path),
        capsys=capsys,
    )
    assert code == 1
    env = parse(out)
    assert env["result"]["error"] == "MissingValueError"


def test_check_malformed_values_exit_2(tmp_path, capsys):
    for raw in (["2", "2"], {"2": 2}):
        path = tmp_path / "values.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, out, err = run_cli(
            "check", "--k", "4", "--bound", "12", "--values", str(path),
            capsys=capsys,
        )
        assert code == 2, raw
        assert out == ""
        assert "--values must hold a JSON object" in err


def test_check_bad_values_exit_2(tmp_path, capsys):
    identity = {str(q): str(q) for q in (2, 3, 4, 5, 7)}
    for extra, message in (
        ({"2": "2/0"}, "zero denominator in '2/0'"),
        ({"2": "2ii"}, "cannot parse value '2ii'"),
        ({"3": "3 4"}, "cannot parse value '3 4'"),
        ({"6": "99"}, "key 6 of the values is not a prime power"),
        ({"-2": "1"}, "key -2 of the values is not a prime power"),
    ):
        path = tmp_path / "values.json"
        path.write_text(json.dumps({**identity, **extra}), encoding="utf-8")
        code, out, err = run_cli(
            "check", "--k", "4", "--bound", "10", "--values", str(path),
            capsys=capsys,
        )
        assert code == 2, extra
        assert out == ""
        assert message in err


def test_theorem_bound_below_1_exits_2(capsys):
    for k, bound in (("5", "-5"), ("4", "0")):
        code, out, err = run_cli("theorem", "--k", k, "--bound", bound, capsys=capsys)
        assert code == 2, (k, bound)
        assert out == ""
        assert "bound must be >= 1" in err


def test_dp_bound_above_limit_exits_2(capsys, monkeypatch):
    def refuse(k, bound):
        raise AssertionError("the DP must not start")

    monkeypatch.setattr(squares_module, "_representable_mask", refuse)
    for command, k in (("exceptions", "4"), ("verify-dubouis", "5")):
        code, out, err = run_cli(command, "--k", k, "--bound", "1000001", capsys=capsys)
        assert code == 2, command
        assert out == ""
        assert "bound must be at most 1000000" in err


def test_verify_dubouis_k_below_4_exits_2(capsys):
    for k in ("0", "1", "2", "3"):
        code, out, err = run_cli("verify-dubouis", "--k", k, "--bound", "5",
                                 capsys=capsys)
        assert code == 2, k
        assert out == ""
        assert "closed forms require k >= 4" in err


@pytest.mark.parametrize(
    "n, k, message",
    [
        ("5000", "1500", "k must be at most 500"),
        ("1000000", "2", "(n + 1) * (k + 1) must be at most 1500000"),
        ("2000000", "4", "(n + 1) * (k + 1) must be at most 1500000"),
    ],
)
def test_repr_above_limits_exits_2(n, k, message, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("neither the count table nor the list may be built")

    monkeypatch.setattr(squares_module, "_build_count_table", refuse)
    monkeypatch.setattr(squares_module, "iter_representations", refuse)
    code, out, err = run_cli("repr", "--n", n, "--k", k, capsys=capsys)
    assert code == 2
    assert out == ""
    assert message in err


def test_repr_without_limit_refuses_a_long_listing(capsys, monkeypatch):
    # 19,155,428 representations: counted, never enumerated
    def refuse(*args, **kwargs):
        raise AssertionError("the representations may not be listed")

    monkeypatch.setattr(squares_module, "iter_representations", refuse)
    code, out, err = run_cli("repr", "--n", "1000", "--k", "50", capsys=capsys)
    assert code == 2
    assert out == ""
    assert "19155428 representations exceed the listing limit" in err
    assert "--limit" in err
    monkeypatch.undo()
    code, out, _ = run_cli("repr", "--n", "1000", "--k", "50", "--limit", "5",
                           capsys=capsys)
    assert code == 0
    env = parse(out)
    assert env["result"]["count"] == 19155428
    assert len(env["result"]["representations"]) == 5
    assert env["result"]["truncated"] is True


def test_solver_bound_above_limit_exits_2(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the solver must not start")

    monkeypatch.setattr(constraints_module, "enumerate_representations", refuse)
    monkeypatch.setattr(theorem_module, "replay_script", refuse)
    monkeypatch.setattr(theorem_module, "solve", refuse)
    path = tmp_path / "values.json"
    path.write_text(json.dumps({"2": "2"}), encoding="utf-8")
    for command, extra in (
        ("solve", ()),
        ("check", ("--values", str(path))),
        ("theorem", ()),
    ):
        for k in ("3", "5"):
            code, out, err = run_cli(
                command, "--k", k, "--bound", "10001", *extra, capsys=capsys
            )
            assert code == 2, (command, k)
            assert out == ""
            assert "bound must be at most 10000" in err


def test_k_above_limit_exits_2(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the replay or the constraint enumeration started")

    monkeypatch.setattr(constraints_module, "enumerate_representations", refuse)
    monkeypatch.setattr(replay_module, "_stages", refuse)
    monkeypatch.setattr(replay_module, "pad", refuse)
    path = tmp_path / "values.json"
    path.write_text(json.dumps({"2": "2"}), encoding="utf-8")
    for argv in (
        ("solve", "--k", "501", "--bound", "600"),
        ("check", "--k", "501", "--bound", "600", "--values", str(path)),
        ("replay", "--k", "501"),
        ("theorem", "--k", "501", "--bound", "5"),
        ("exceptions", "--k", "501", "--bound", "600"),
        ("verify-dubouis", "--k", "501", "--bound", "600"),
    ):
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 2, argv
        assert out == ""
        assert "k must be at most 500" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "--budget", "-1"), "argument --budget: must be >= 0, got -1"),
        (("theorem", "--budget", "-5"), "unrecognized arguments: --budget"),
        (("repr", "--n", "40", "--limit", "-1"),
         "argument --limit: must be >= 0, got -1"),
        (("repr", "--n", "40", "--limit", "x"),
         "argument --limit: invalid int value: 'x'"),
        # the solver caps are module constants, not options
        (("solve", "--seed-cap", "8"), "unrecognized arguments: --seed-cap"),
        (("solve", "--rep-cap", "4"), "unrecognized arguments: --rep-cap"),
        (("check", "--values", "f.json", "--rep-cap", "4"),
         "unrecognized arguments: --rep-cap"),
    ],
    ids=["solve-budget", "theorem-budget", "limit", "limit-not-int",
         "no-seed-cap", "no-solve-rep-cap", "no-check-rep-cap"],
)
def test_cap_out_of_range_exits_2(argv, message, capsys):
    command, *rest = argv
    bound = () if command == "repr" else ("--bound", "20")
    with pytest.raises(SystemExit) as exc:
        main([command, "--k", "5", *bound, *rest])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert message in err


def test_json_roundtrip_byte_identical(capsys):
    _, out, _ = run_cli("exceptions", "--k", "5", "--bound", "40", capsys=capsys)
    env = parse(out)
    assert json.dumps(env, sort_keys=True, indent=2) + "\n" == out


def test_no_floats_anywhere(capsys):
    # values travel as exact strings, never as floats or Python reprs
    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, str):
            assert "GaussianRational" not in node and "frozenset" not in node, node
        elif isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    for argv in (
        ("solve", "--k", "4", "--bound", "40", "--trace"),
        ("theorem", "--k", "4", "--bound", "60"),
    ):
        _, out, _ = run_cli(*argv, capsys=capsys)
        walk(parse(out))


def test_text_and_json_agree(capsys):
    code_j, out_j, _ = run_cli("verify-dubouis", "--k", "4", "--bound", "100",
                               capsys=capsys)
    code_t, out_t, _ = run_cli("--format", "text", "verify-dubouis", "--k", "4",
                               "--bound", "100", capsys=capsys)
    assert code_j == code_t == 0
    assert parse(out_j)["status"] == "ok"
    assert "status: ok" in out_t


def test_check_help_names_the_representation_cap():
    # check evaluates the generated corpus, not every representation
    text = " ".join(build_parser().format_help().split())
    assert (
        f"at most {constraints_module.REP_CAP} sums of squares and every coprime split"
        in text
    )


def test_usage_error_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "multsquares.cli", "repr", "--n", "40"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_determinism_subprocess():
    cmd = [
        sys.executable, "-m", "multsquares.cli",
        "solve", "--k", "5", "--bound", "200", "--trace",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True)
    second = subprocess.run(cmd, capture_output=True, text=True, check=True)
    a = json.loads(first.stdout)
    b = json.loads(second.stdout)
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_python_m_multsquares_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "multsquares", "theorem", "--k", "4", "--bound", "40"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"
