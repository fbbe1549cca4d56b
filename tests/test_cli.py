"""End-to-end tests of the command-line interface and its report contract."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from optrig import cli

PKG_ROOT = pathlib.Path(__file__).resolve().parent.parent
EX35 = str(PKG_ROOT / "data" / "ex35.json")
T10 = str(PKG_ROOT / "data" / "t10.json")
A01 = str(PKG_ROOT / "data" / "a01.json")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("OPTRIG_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "optrig.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=PKG_ROOT,
    )


def report_of(*args, **kw):
    proc = run_cli(*args, "--output", "json", **kw)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout)


def test_cos_reports_golden_values():
    doc = report_of("cos", "--matrix", EX35)
    assert doc["command"] == "cos"
    assert doc["results"]["cos"] == pytest.approx(2**-0.5, abs=1e-6)
    assert doc["results"]["epsilon0"] == pytest.approx(0.5, abs=1e-6)
    assert doc["inputs"]["matrix"]["name"] == "diag(1, 1+i)"
    assert len(doc["inputs"]["matrix"]["sha256"]) == 64
    assert doc["diagnostics"]["seed"] == 0


def test_real_commands_do_not_import_scipy_optimize():
    code = (
        "import sys, optrig.cli; "
        "optrig.cli.main(['cos', '--matrix', 'data/ex35.json']); "
        "print('scipy.optimize' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=PKG_ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# every command variant, each with --verify, on a bundled file it accepts
ALL_VARIANTS = [
    ["cos", "--matrix", "data/ex35.json"],
    ["total-cos", "--matrix", "data/ex35.json"],
    ["sin", "--matrix", "data/ex35.json"],
    ["center-of-mass", "--matrix", "data/ex35.json", "--relative-to", "data/t10.json"],
    ["center-of-mass", "--matrix", "data/ex35.json", "--complex"],
    ["orthogonal", "--matrix", "data/t10.json", "--relative-to", "data/a01.json"],
    ["orthogonal", "--matrix", "data/ex35.json", "--complex"],
    ["w0", "--matrix", "data/ex35.json", "--relative-to", "data/a01.json"],
    ["minmax", "--matrix", "data/ex35.json"],
    ["minmax", "--matrix", "data/ex35.json", "--complex"],
]


def test_no_command_imports_scipy():
    code = (
        "import sys, optrig.cli; "
        "code = optrig.cli.main(sys.argv[1:]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    for args in ALL_VARIANTS:
        proc = subprocess.run(
            [sys.executable, "-c", code, *args, "--verify"],
            capture_output=True,
            text=True,
            cwd=PKG_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []", args


def test_total_cos_with_verification():
    doc = report_of("total-cos", "--matrix", EX35, "--verify")
    assert doc["results"]["total_cos"] == pytest.approx(0.9101797, abs=1e-6)
    lam = doc["results"]["lambda0"]
    assert lam[0] == pytest.approx(0.7071068, abs=1e-6)
    assert lam[1] == pytest.approx(-0.2928932, abs=1e-6)
    assert abs(doc["diagnostics"]["oracle"]["delta"]) <= 1e-3


def test_orthogonal_golden_pair():
    doc = report_of("orthogonal", "--matrix", T10, "--relative-to", A01)
    assert doc["results"]["orthogonal"] is True
    assert doc["results"]["w0"] == [0.0, 0.0]
    doc2 = report_of("orthogonal", "--matrix", T10, "--relative-to", A01, "--complex")
    assert doc2["results"]["orthogonal"] is True


def test_default_relative_operator_is_identity():
    doc = report_of("center-of-mass", "--matrix", EX35, "--complex")
    assert doc["inputs"]["relative_to"] == {"identity": True}
    assert doc["results"]["lambda0"][0] == pytest.approx(1.0, abs=1e-6)
    assert doc["results"]["lambda0"][1] == pytest.approx(0.5, abs=1e-6)
    assert doc["results"]["residual"] == pytest.approx(0.5, abs=1e-8)


def test_center_of_mass_flat_pair():
    doc = report_of("center-of-mass", "--matrix", T10, "--relative-to", A01)
    assert doc["results"]["residual"] == pytest.approx(1.0)
    lo, hi = doc["results"]["flat_interval"]
    assert lo <= -0.99 and hi >= 0.99
    assert doc["results"]["unique"] is False
    assert doc["results"]["relative_nonsingular"] is False


def test_w0_and_minmax_commands():
    doc = report_of("w0", "--matrix", T10, "--relative-to", A01, "--verify")
    assert doc["results"]["lo"] == 0.0
    assert doc["results"]["hi"] == 0.0
    doc2 = report_of("minmax", "--matrix", EX35, "--verify")
    assert doc2["results"]["lhs"] == pytest.approx(0.5, abs=1e-6)
    assert doc2["results"]["gap"] <= 1e-5
    doc3 = report_of("minmax", "--matrix", EX35, "--complex")
    assert doc3["results"]["rhs"] == pytest.approx(3.0 - 2.0 * 2**0.5, abs=1e-6)


def test_json_output_round_trips_byte_identically():
    proc = run_cli("total-cos", "--matrix", EX35, "--output", "json")
    assert proc.returncode == 0
    body = proc.stdout.rstrip("\n")
    doc = json.loads(body)
    again = json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": "), ensure_ascii=False)
    assert again == body


def test_identical_invocations_are_byte_identical():
    a = run_cli("cos", "--matrix", EX35, "--output", "json", "--verify")
    b = run_cli("cos", "--matrix", EX35, "--output", "json", "--verify")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_text_and_json_agree_to_seven_digits():
    doc = report_of("total-cos", "--matrix", EX35)
    text = run_cli("total-cos", "--matrix", EX35).stdout
    lines = dict(
        line.split(" = ", 1) for line in text.strip().splitlines() if " = " in line
    )
    assert lines["results.total_cos"] == f"{doc['results']['total_cos']:.7g}"
    assert lines["results.lambda0"] == " ".join(
        f"{v:.7g}" for v in doc["results"]["lambda0"]
    )
    assert lines["results.total_cos_via_center"] == (
        f"{doc['results']['total_cos_via_center']:.7g}"
    )


def test_seed_flag_and_environment_precedence():
    via_flag = run_cli("cos", "--matrix", EX35, "--seed", "7", "--output", "json")
    via_env = run_cli(
        "cos", "--matrix", EX35, "--output", "json", env_extra={"OPTRIG_SEED": "7"}
    )
    assert via_flag.stdout == via_env.stdout
    flag_wins = run_cli(
        "cos",
        "--matrix",
        EX35,
        "--seed",
        "3",
        "--output",
        "json",
        env_extra={"OPTRIG_SEED": "7"},
    )
    assert json.loads(flag_wins.stdout)["diagnostics"]["seed"] == 3


def test_missing_file_exits_one_with_cause_on_stderr():
    proc = run_cli("cos", "--matrix", "no/such/file.json")
    assert proc.returncode == 1
    assert "no/such/file.json" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "payload,needle",
    [
        ("not json at all", "invalid JSON"),
        ('[1, 2, 3]', "object"),
        ('{"entries": []}', "missing required key"),
        ('{"n": 0, "entries": []}', "positive integer"),
        ('{"n": true, "entries": []}', "positive integer"),
        ('{"n": 2, "entries": [[1, 2], [3, 4]]}', "shape"),
        ('{"n": 1, "entries": [[[1, "x"]]]}', "not numeric"),
        ('{"n": 1, "entries": [[[1e999, 0]]]}', "non-finite"),
        ('{"n": 1, "entries": [[[1, 0]]], "name": 5}', "string"),
    ],
)
def test_malformed_files_exit_one(tmp_path, payload, needle):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    proc = run_cli("cos", "--matrix", str(bad))
    assert proc.returncode == 1
    assert str(bad) in proc.stderr
    assert needle in proc.stderr


def test_bad_environment_seed_exits_one():
    proc = run_cli("cos", "--matrix", EX35, env_extra={"OPTRIG_SEED": "pi"})
    assert proc.returncode == 1
    assert "OPTRIG_SEED" in proc.stderr


def test_precondition_violations_exit_two_with_machine_readable_error():
    proc = run_cli("cos", "--matrix", T10)
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "NotAccretive"
    proc2 = run_cli("total-cos", "--matrix", T10)
    assert proc2.returncode == 2
    assert json.loads(proc2.stdout)["error"]["type"] == "SingularOperator"


def test_zero_relative_operator_exits_two(tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text(
        json.dumps({"n": 2, "entries": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]})
    )
    proc = run_cli("center-of-mass", "--matrix", EX35, "--relative-to", str(zero))
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "ZeroRelativeOperator"


def test_dimension_mismatch_exits_two(tmp_path):
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"n": 1, "entries": [[[1.0, 0.0]]]}))
    proc = run_cli("w0", "--matrix", EX35, "--relative-to", str(one))
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "DimensionMismatch"


def test_forced_cross_check_failure_exits_three(tmp_path):
    # a non-normal input: on a diagonal one the two routes can agree to the bit
    upper = tmp_path / "upper.json"
    upper.write_text(json.dumps({"n": 2, "entries": [[[2.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [3.0, 0.0]]]}))
    proc = run_cli("minmax", "--matrix", str(upper), "--tol", "1e-18")
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"]["type"] == "RouteDisagreement"


def main_json(monkeypatch, capsys, *args):
    """Run the CLI in this process; return its exit code and parsed stdout."""
    monkeypatch.delenv("OPTRIG_SEED", raising=False)
    code = cli.main([*args, "--output", "json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "args", [["total-cos"], ["minmax", "--complex"]], ids=["total-cos", "minmax"]
)
def test_total_commands_ignore_seed_and_restarts(monkeypatch, capsys, args):
    outputs = []
    for seed, restarts in (("0", "32"), ("7", "1")):
        code, doc = main_json(
            monkeypatch, capsys, args[0], "--matrix", EX35, *args[1:],
            "--seed", seed, "--restarts", restarts,
        )
        assert code == 0
        assert doc["diagnostics"].pop("seed") == int(seed)
        assert doc["diagnostics"].pop("restarts") == int(restarts)
        outputs.append(cli.canonical_json(doc))
    assert outputs[0] == outputs[1]


def norm_of(path):
    with open(path) as fh:
        entries = np.asarray(json.load(fh)["entries"])
    return np.linalg.norm(entries[:, :, 0] + 1j * entries[:, :, 1], 2)


@pytest.mark.parametrize(
    "args,key",
    [
        (("center-of-mass", "--matrix", EX35), "grid_min"),
        (("orthogonal", "--matrix", T10, "--relative-to", A01), "grid_min"),
        (("orthogonal", "--matrix", EX35, "--relative-to", T10), "grid_min"),
        (("orthogonal", "--matrix", T10, "--relative-to", A01, "--complex"), "grid_min"),
        (("orthogonal", "--matrix", EX35, "--complex"), "grid_min"),
        (("minmax", "--matrix", EX35, "--complex"), "grid_min_squared"),
    ],
)
def test_grid_oracles_verify_in_process(monkeypatch, capsys, args, key):
    code, doc = main_json(monkeypatch, capsys, *args, "--verify")
    assert code == 0
    oracle = doc["diagnostics"]["oracle"]
    assert set(oracle) == {key, "delta"}
    slack = 1e-3 * max(1.0, norm_of(args[2]))
    if args[0] != "orthogonal" or doc["results"]["orthogonal"]:
        assert abs(oracle["delta"]) <= slack
    else:
        # a false verdict: the grid finds ||T + s*A|| clearly below ||T||
        assert oracle["delta"] < -slack


def shifted(fn, index, shift):
    def call(*args, **kwargs):
        out = list(fn(*args, **kwargs))
        out[index] += shift
        return tuple(out)

    return call


@pytest.mark.parametrize(
    "args,oracle,index,shift",
    [
        (("center-of-mass", "--matrix", EX35), "grid_min_real", 1, 1.0),
        # verdict true: the oracle drops below ||T||
        (("orthogonal", "--matrix", T10, "--relative-to", A01), "grid_min_real", 1, -1.0),
        # verdict false: the oracle stays above ||T||
        (("orthogonal", "--matrix", EX35), "grid_min_real", 1, 1.0),
        (("cos", "--matrix", EX35), "sphere_refine_min", 0, 1.0),
    ],
)
def test_oracle_mismatch_exits_three(monkeypatch, capsys, args, oracle, index, shift):
    monkeypatch.setattr(cli, oracle, shifted(getattr(cli, oracle), index, shift))
    code, doc = main_json(monkeypatch, capsys, *args, "--verify")
    assert code == 3
    assert doc["error"]["type"] == "OracleMismatch"
