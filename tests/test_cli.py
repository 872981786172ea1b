import io
import json
import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lpvi
from lpvi.cli import _build_parser, _vec, _write_trace, main
from lpvi.config import load_config
from lpvi.errors import DivergenceError
from lpvi.oracle import GridSpec, grid_vi_solve
from lpvi.solver import picard_solve

BOX_IDENTITY = """
    [space]
    n = 2
    p = 2

    [set]
    kind = box
    lo = 1 1
    hi = 2 2

    [map]
    kind = affine
    matrix = 1 0
             0 1

    [certificate]
    u = 0.1
    v = 1
    mu = 1

    [solver]
    x0 = 2 2
    lambda = auto
"""


def write(tmp_path, text, name="prob.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_happy_path(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY)
    out_csv = str(tmp_path / "trace.csv")
    code, out, err = run(capsys, "solve", "--config", cfg, "--out", out_csv)
    assert code == 0 and err == ""
    summary = json.loads(out)
    assert summary["final_point"] == [1.0, 1.0]
    assert summary["certification"] == "hilbert"
    assert summary["lambda"] == pytest.approx(0.9, rel=1e-12)
    assert summary["status"] == "converged"
    assert summary["iterations"] == 2
    assert summary["final_residual"] == 0.0
    assert summary["trace"] == out_csv
    # the Hilbert rule's factor at lambda = 0.9, not the strict rule's 5.5
    assert summary["contraction_factor_sq"] == pytest.approx(0.19, rel=1e-12)
    lines = Path(out_csv).read_text().splitlines()
    assert lines[0] == "iter,step_norm,residual"
    assert lines[1] == "1,1.4142135623730951,0"
    assert lines[2] == "2,0,0"


def test_solve_is_byte_deterministic(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY)
    out_csv = str(tmp_path / "trace.csv")
    _, out1, _ = run(capsys, "solve", "--config", cfg, "--out", out_csv)
    bytes1 = Path(out_csv).read_bytes()
    _, out2, _ = run(capsys, "solve", "--config", cfg, "--out", out_csv)
    assert out1 == out2
    assert Path(out_csv).read_bytes() == bytes1


def test_solve_explicit_lambda_is_uncertified(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY)
    code, out, _ = run(capsys, "solve", "--config", cfg,
                       "--out", str(tmp_path / "t.csv"), "--lambda", "0.5")
    assert code == 0
    summary = json.loads(out)
    assert summary["certification"] == "uncertified"
    assert summary["contraction_factor_sq"] is None


def test_solve_unwritable_out_fails_before_solving(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY)
    out_csv = tmp_path / "missing" / "trace.csv"
    code, out, err = run(capsys, "solve", "--config", cfg, "--out", str(out_csv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --out ") and str(out_csv) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "-1", "tol must be positive, got -1.0"),
    ("--max-iter", "0", "max_iter must be >= 1, got 0"),
])
def test_solve_refused_stopping_rule_leaves_no_out_file(tmp_path, capsys,
                                                         flag, value, message):
    cfg = write(tmp_path, BOX_IDENTITY)
    out_csv = tmp_path / "trace.csv"
    code, out, err = run(capsys, "solve", "--config", cfg, "--out",
                         str(out_csv), flag, value)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert not out_csv.exists()


def test_solve_refuses_an_infinite_tol(tmp_path, capsys):
    # with tol = inf the first step would pass the stop test as "converged"
    cfg = write(tmp_path, BOX_IDENTITY)
    out_csv = tmp_path / "trace.csv"
    code, out, err = run(capsys, "solve", "--config", cfg, "--out",
                         str(out_csv), "--tol", "inf")
    assert code == 2 and out == ""
    assert err == "error: tol must be finite, got inf\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_config_tol_inf_is_refused(tmp_path, capsys, command):
    cfg = write(tmp_path, BOX_IDENTITY + "    tol = inf\n")
    out_flag = ["--out", str(tmp_path / "t.csv")] if command == "solve" else []
    code, out, err = run(capsys, command, "--config", cfg, *out_flag)
    assert code == 2 and out == ""
    assert err == "error: [solver] tol: must be finite\n"


def test_solve_refuses_auto_step_from_inconsistent_certificate(tmp_path, capsys):
    bad = BOX_IDENTITY.replace("v = 1", "v = 10").replace("u = 0.1", "u = 1")
    cfg = write(tmp_path, bad)
    code, out, err = run(capsys, "solve", "--config", cfg,
                         "--out", str(tmp_path / "t.csv"))
    assert code == 2
    assert "inconsistent" in err
    assert out == ""


@pytest.mark.parametrize("u, v, mu", [
    pytest.param("1", "5e-171", "1e-170", id="mu2-zero"),
    pytest.param("1", "5e-161", "1e-160", id="mu2-subnormal"),
    pytest.param("1e-320", "2", "1e160", id="mu2-inf"),
    pytest.param("1e-323", "4.5e-323", "2", id="step-underflow"),
])
def test_a_certificate_without_a_representable_step_exits_2_with_no_file(
        tmp_path, capsys, u, v, mu):
    text = BOX_IDENTITY.replace("u = 0.1\n    v = 1\n    mu = 1",
                                f"u = {u}\n    v = {v}\n    mu = {mu}")
    cfg = write(tmp_path, text)
    message = ("error: certificate does not certify a step size for this"
               " space; supply lambda explicitly\n")
    trace = tmp_path / "t.csv"
    code, out, err = run(capsys, "solve", "--config", cfg, "--out", str(trace))
    assert (code, out, err) == (2, "", message)
    assert not trace.exists()
    # the oracle asks the solver once its grid has a verdict to compare
    code, out, err = run(capsys, "oracle", "--config", cfg, "--grid", "5,5")
    assert (code, out, err) == (2, "", message)


def test_solve_requires_x0(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY.replace("x0 = 2 2", ""))
    code, _, err = run(capsys, "solve", "--config", cfg,
                       "--out", str(tmp_path / "t.csv"))
    assert code == 2 and "x0" in err


def test_solve_unsupported_exponent_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY.replace("p = 2", "p = 1"))
    code, _, err = run(capsys, "solve", "--config", cfg,
                       "--out", str(tmp_path / "t.csv"))
    assert code == 5
    assert "[space] p" in err


def test_solve_unsupported_retraction_exit_code(tmp_path, capsys):
    text = BOX_IDENTITY.replace("p = 2", "p = 3").replace(
        "kind = box\n    lo = 1 1\n    hi = 2 2", "kind = ball\n    radius = 1")
    cfg = write(tmp_path, text)
    code, _, err = run(capsys, "solve", "--config", cfg,
                       "--out", str(tmp_path / "t.csv"))
    assert code == 5 and "p = 2" in err


def test_solve_iteration_limit_exit_code(tmp_path, capsys):
    slow = """
        [space]
        n = 2
        p = 2
        [set]
        kind = box
        lo = 0 0
        hi = 1 1
        [map]
        kind = affine
        matrix = 1 0 0 1
        offset = -0.5 -0.5
        [solver]
        x0 = 1 1
        lambda = 0.1
    """
    cfg = write(tmp_path, slow)
    code, out, err = run(capsys, "solve", "--config", cfg,
                         "--out", str(tmp_path / "t.csv"), "--max-iter", "3")
    assert code == 3
    assert json.loads(out)["status"] == "iteration-limit"
    assert "iteration limit" in err


def test_solve_divergence_exit_code_and_partial_trace(tmp_path, capsys):
    divergent = """
        [space]
        n = 2
        p = 2
        [set]
        kind = whole_space
        [map]
        kind = affine
        matrix = -1 0 0 -1
        [solver]
        x0 = 1 1
        lambda = 1
    """
    cfg = write(tmp_path, divergent)
    out_csv = tmp_path / "t.csv"
    code, out, err = run(capsys, "solve", "--config", cfg, "--out", str(out_csv))
    assert code == 4
    assert "diverged" in err
    assert out == ""
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "iter,step_norm,residual"
    assert len(lines) > 10   # partial trace was preserved


def test_solve_malformed_config(tmp_path, capsys):
    cfg = write(tmp_path, "[space]\nn = 2\n")
    code, _, err = run(capsys, "solve", "--config", cfg,
                       "--out", str(tmp_path / "t.csv"))
    assert code == 2 and "required section" in err


def test_solve_refuses_a_map_the_config_cannot_build(tmp_path, capsys):
    text = BOX_IDENTITY.replace(
        "kind = affine\n    matrix = 1 0\n             0 1",
        "kind = residual\n    alpha = 1.5\n    t_matrix = 1 0 0 1")
    cfg = write(tmp_path, text)
    code, out, err = run(capsys, "solve", "--config", cfg,
                         "--out", str(tmp_path / "t.csv"))
    assert (code, out) == (2, "")
    assert err == "error: [map]: contraction constant must be in [0, 1), got 1.5\n"


def test_solve_refuses_an_ini_line_without_a_delimiter(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY.replace("n = 2", "n 2"))
    code, out, err = run(capsys, "solve", "--config", cfg,
                         "--out", str(tmp_path / "t.csv"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed config {cfg!r}: ")
    assert "Traceback" not in err


COMMAND_ARGS = {"solve": ["--out", "t.csv"], "oracle": ["--grid", "5,5"],
                "check-map": []}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_a_config_that_is_not_utf8_is_refused_in_one_line(tmp_path, capsys,
                                                          monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    # one Latin-1 byte, an e with an acute accent, in a comment
    data = textwrap.dedent(BOX_IDENTITY).encode() + b"# caf\xe9\n"
    cfg = tmp_path / "latin1.ini"
    cfg.write_bytes(data)
    code, out, err = run(capsys, command, "--config", str(cfg),
                         *COMMAND_ARGS[command])
    line = data.count(b"\n")
    assert (code, out) == (2, "")
    assert err == (f"error: malformed config {str(cfg)!r}: line {line}:"
                   f" byte 0xe9 is not UTF-8\n")


@pytest.mark.parametrize("text, line, detail", [
    ("\ufeff" + textwrap.dedent(BOX_IDENTITY), 1,
     "'\\ufeff' comes before the first section header"),
    (BOX_IDENTITY.replace("n = 2", "n 2"), 3, "'n 2' is not 'key = value'"),
    (BOX_IDENTITY.replace("n = 2", "n 2").replace("\n", "\r\n"), 3,
     "'n 2' is not 'key = value'"),
    (BOX_IDENTITY.replace("n = 2", "= 2"), 3, "'= 2' has no key"),
    (BOX_IDENTITY.replace("p = 2", "N = 3"), 4,
     "key 'n' appears twice in [space]"),
    (BOX_IDENTITY + "\n    [set]\n", BOX_IDENTITY.count("\n") + 2,
     "section [set] appears twice"),
    ("x0 = 2 2\n" + BOX_IDENTITY, 1,
     "'x0 = 2 2' comes before the first section header"),
], ids=["byte-order-mark", "no-delimiter", "crlf-no-delimiter", "no-key",
        "repeated-key", "repeated-section", "before-any-section"])
@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_a_malformed_config_is_refused_in_one_line(tmp_path, capsys,
                                                   monkeypatch, command,
                                                   text, line, detail):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(text.encode())
    code, out, err = run(capsys, command, "--config", str(cfg),
                         *COMMAND_ARGS[command])
    assert (code, out) == (2, "")
    assert err == f"error: malformed config {str(cfg)!r}: line {line}: {detail}\n"


@pytest.mark.parametrize("old, new, message", [
    ("    hi = 2 2\n", "", "[set] hi: required key is missing"),
    ("matrix = 1 0\n             0 1", "matrix = 1 0 0 inf",
     "[map]: matrix contains non-finite entries"),
    ("kind = box\n    lo = 1 1\n    hi = 2 2",
     "kind = halfspace\n    normal = 1 0\n    offset = inf",
     "[set]: halfspace offset must be finite"),
])
def test_solve_refuses_a_set_or_map_the_config_cannot_build(tmp_path, capsys,
                                                           old, new, message):
    assert old in BOX_IDENTITY
    cfg = write(tmp_path, BOX_IDENTITY.replace(old, new))
    out_path = tmp_path / "t.csv"
    code, out, err = run(capsys, "solve", "--config", cfg, "--out", str(out_path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_path.exists()


def test_oracle_refuses_an_empty_grid_key(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY + "\n    [oracle]\n    grid =\n")
    code, out, err = run(capsys, "oracle", "--config", cfg)
    assert (code, out, err) == (2, "", "error: [oracle] grid: value is empty\n")


def test_check_map_no_violation(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY)
    code, out, _ = run(capsys, "check-map", "--config", cfg)
    assert code == 0
    record = json.loads(out)
    assert record["result"] == "no violation found"
    assert record["verdict"] == "hilbert-only"
    assert record["violations"] == []
    assert record["mu_hat"] == pytest.approx(1.0, rel=1e-9)
    assert record["seed"] == 0


def test_check_map_flags_false_claims(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY.replace("v = 1", "v = 2"))
    code, out, _ = run(capsys, "check-map", "--config", cfg)
    assert code == 1
    record = json.loads(out)
    assert record["result"] == "violated"
    assert any("cocoercivity" in v for v in record["violations"])


def test_check_map_lipschitz_violation(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY.replace("mu = 1", "mu = 0.5"))
    code, out, _ = run(capsys, "check-map", "--config", cfg)
    assert code == 1
    record = json.loads(out)
    assert any("lipschitz" in v for v in record["violations"])


def test_check_map_without_certificate(tmp_path, capsys):
    text = BOX_IDENTITY.replace(
        "[certificate]\n    u = 0.1\n    v = 1\n    mu = 1\n", "")
    cfg = write(tmp_path, text)
    code, out, _ = run(capsys, "check-map", "--config", cfg)
    assert code == 0
    record = json.loads(out)
    assert record["certificate"] is None
    assert record["result"] == "no violation found"


def test_check_map_unbounded_set_needs_bounds(tmp_path, capsys):
    text = """
        [space]
        n = 2
        p = 2
        [set]
        kind = halfspace
        normal = 1 0
        offset = 0
        [map]
        kind = affine
        matrix = 1 0 0 1
    """
    cfg = write(tmp_path, text)
    code, _, err = run(capsys, "check-map", "--config", cfg)
    assert code == 2 and "unbounded" in err
    bounded = text + "\n[check]\nbounds_lo = -2 -2\nbounds_hi = 0 2\n"
    cfg2 = write(tmp_path, bounded, name="bounded.ini")
    code, out, _ = run(capsys, "check-map", "--config", cfg2)
    assert code == 0
    assert json.loads(out)["mu_hat"] == pytest.approx(1.0, rel=1e-9)


def test_check_map_draws_its_pairs_once(tmp_path, capsys, monkeypatch):
    # the Lipschitz, cocoercivity and strong-monotonicity probes read one
    # sample: one draw, B once on each side of the pairs, one J(x - y)
    calls = {"sample_in_set": 0, "evaluate_rows": 0, "duality": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name, key in ((lpvi.maps, "sample_in_set", "sample_in_set"),
                              (lpvi.maps, "evaluate_rows", "evaluate_rows"),
                              (lpvi.spaces, "_duality_rows", "duality")):
        monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
    cfg = write(tmp_path, BOX_IDENTITY)
    code, out, _ = run(capsys, "check-map", "--config", cfg)
    assert code == 0 and json.loads(out)["verdict"] == "hilbert-only"
    assert calls == {"sample_in_set": 1, "evaluate_rows": 2, "duality": 1}


def test_check_map_seed_precedence(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, BOX_IDENTITY + "\n[check]\nseed = 9\n")
    _, out, _ = run(capsys, "check-map", "--config", cfg)
    assert json.loads(out)["seed"] == 9
    _, out, _ = run(capsys, "check-map", "--config", cfg, "--seed", "5")
    assert json.loads(out)["seed"] == 5
    plain = write(tmp_path, BOX_IDENTITY, name="plain.ini")
    monkeypatch.setenv("LPVI_SEED", "7")
    _, out, _ = run(capsys, "check-map", "--config", plain)
    assert json.loads(out)["seed"] == 7


def test_invalid_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LPVI_SEED", "abc")
    code, _, err = run(capsys, "verify", "factor")
    # the factor suite does not sample, so the env must not break it
    assert code == 0
    cfg = write(tmp_path, BOX_IDENTITY)
    code, _, err = run(capsys, "check-map", "--config", cfg)
    assert code == 2 and "LPVI_SEED" in err


def test_negative_seed_is_a_config_error(tmp_path, capsys, monkeypatch):
    code, out, err = run(capsys, "verify", "pairing", "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: --seed must be a nonnegative integer, got -1\n"
    cfg = write(tmp_path, BOX_IDENTITY + "\n[check]\nseed = -3\n")
    code, _, err = run(capsys, "check-map", "--config", cfg)
    assert code == 2 and "[check] seed" in err
    monkeypatch.setenv("LPVI_SEED", "-2")
    code, _, err = run(capsys, "verify", "duality")
    assert code == 2 and "LPVI_SEED" in err


def test_verify_factor(capsys):
    code, out, err = run(capsys, "verify", "factor")
    assert code == 0 and err == ""
    assert "-0.97" in out and "PASS" in out and "FAIL" not in out


def test_verify_duality(capsys):
    code, out, err = run(capsys, "verify", "duality", "--count", "200")
    assert code == 0 and err == ""
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 6
    assert all(ln.endswith("PASS") for ln in lines)


def test_verify_pairing_with_explicit_exponent(capsys):
    code, out, _ = run(capsys, "verify", "pairing", "--p", "3", "--count", "1500")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3   # n = 2, 5, 20 for the one exponent
    assert all("p=3" in ln and ln.endswith("PASS") for ln in lines)


def test_verify_retraction(capsys):
    code, out, _ = run(capsys, "verify", "retraction", "--count", "1500")
    assert code == 0
    assert "box sunny deviation" in out
    assert all(ln.endswith("PASS") for ln in out.splitlines() if ln)


def test_oracle_agreement(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY)
    code, out, _ = run(capsys, "oracle", "--config", cfg, "--grid", "21,21")
    assert code == 0
    record = json.loads(out)
    assert record["agreement"] == "pass"
    assert [1.0, 1.0] in record["accepted"]
    assert record["solver_status"] == "converged"


@pytest.mark.parametrize("p", ["2000", "1e6", "1e300"])
def test_verify_pairing_at_huge_exponents(capsys, p):
    code, out, err = run(capsys, "verify", "pairing", "--p", p, "--count", "500")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 3 and all(ln.endswith("PASS") for ln in lines)


def test_oracle_agreement_at_a_huge_exponent(tmp_path, capsys):
    text = (BOX_IDENTITY.replace("p = 2", "p = 2000")
            .replace("lo = 1 1", "lo = -1 -1").replace("hi = 2 2", "hi = 0 0")
            .replace("matrix = 1 0\n             0 1",
                     "matrix = 3 0\n             0 3\n    offset = 1.5 1.5")
            .replace("lambda = auto", "lambda = 0.1"))
    code, out, err = run(capsys, "oracle", "--config", write(tmp_path, text),
                         "--grid", "21,21")
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["agreement"] == "pass"
    assert record["accepted"] == [[-0.5, -0.5]]


# B = s (x - 1/2) on [0, 1]; a 5-point grid has the exact step h = 1/4
UNIT_LINE = """
    [space]
    n = 1
    p = 2

    [set]
    kind = box
    lo = 0
    hi = 1

    [map]
    kind = affine
    matrix = {s}
    offset = {offset}

    [solver]
    lambda = 0.5
"""
H = 0.25
NEAR_BOUND = H + 1e-12        # both as cmd_oracle rounds them
FAR_BOUND = 2.0 * H + 1e-12


BEYOND = 2.0 ** -40           # about 9e-13, past either bound's 1e-12


@pytest.mark.parametrize("s, point, near, far, agreement", [
    # s = 1 accepts 1/2 alone, so the nearest accepted point is the farthest
    (1.0, 0.25, H, H, "pass"),
    (1.0, 0.5 - NEAR_BOUND, NEAR_BOUND, NEAR_BOUND, "pass"),
    (1.0, 0.5 - NEAR_BOUND - BEYOND, NEAR_BOUND + BEYOND,
     NEAR_BOUND + BEYOND, "fail"),
    # s = 1/2 accepts 1/4, 1/2 and 3/4
    (0.5, 0.25, 0.0, 2.0 * H, "pass"),
    (0.5, 0.75 - FAR_BOUND, FAR_BOUND - 0.5, FAR_BOUND, "pass"),
    (0.5, 0.75 - FAR_BOUND - BEYOND, FAR_BOUND - 0.5 + BEYOND,
     FAR_BOUND + BEYOND, "fail"),
])
def test_oracle_agreement_holds_up_to_its_slack_and_no_further(
        tmp_path, capsys, monkeypatch, s, point, near, far, agreement):
    # the solver's point is placed by hand, so that the nearest and the
    # farthest accepted points lie exactly h and 2h from it, exactly at
    # each bound, and just beyond one bound while the other holds
    cfg = write(tmp_path, UNIT_LINE.format(s=s, offset=-s / 2.0))
    monkeypatch.setattr(lpvi.cli, "solve", lambda *args, **kwargs: SimpleNamespace(
        final_point=np.array([point]), status=lpvi.SolveStatus.CONVERGED))
    code, out, err = run(capsys, "oracle", "--config", cfg, "--grid", "5")
    record = json.loads(out)
    assert record["accepted"] == ([[0.5]] if s == 1.0
                                  else [[0.25], [0.5], [0.75]])
    assert (record["cell"], record["nearest_accepted_linf"],
            record["farthest_accepted_linf"]) == (H, near, far)
    assert (code, err, record["agreement"]) == (int(agreement == "fail"), "",
                                                agreement)


def test_oracle_starts_the_solver_at_the_centre_of_the_set(tmp_path, capsys):
    # the solution is the centre of [0, 1], so one iteration from the
    # default start converges, and from any other start it does not
    text = UNIT_LINE.format(s=1.0, offset=-0.5) + "    max_iter = 1\n"
    code, out, _ = run(capsys, "oracle", "--config", write(tmp_path, text),
                       "--grid", "5")
    record = json.loads(out)
    assert code == 0 and record["agreement"] == "pass"
    assert record["solver_status"] == "converged"
    assert record["solver_point"] == [0.5]


def test_oracle_skips_when_everything_is_accepted(tmp_path, capsys):
    zero = BOX_IDENTITY.replace("matrix = 1 0\n             0 1",
                                "matrix = 0 0\n             0 0")
    cfg = write(tmp_path, zero)
    code, out, _ = run(capsys, "oracle", "--config", cfg, "--grid", "11,11")
    assert code == 0
    record = json.loads(out)
    assert record["agreement"].startswith("skipped")
    assert len(record["accepted"]) == 121


def test_oracle_fails_when_it_accepts_no_grid_point(tmp_path, capsys):
    # B = 100 (x - (0.375, 0.625)) vanishes between the points of a 3 x 3
    # grid on [0, 1]^2, and every point has a rival it pairs below -h
    text = """
        [space]
        n = 2
        p = 2

        [set]
        kind = box
        lo = 0 0
        hi = 1 1

        [map]
        kind = affine
        matrix = 100 0
                 0 100
        offset = -37.5 -62.5

        [solver]
        lambda = 0.005
    """
    cfg = write(tmp_path, text)
    code, out, err = run(capsys, "oracle", "--config", cfg, "--grid", "3,3")
    assert (code, err) == (1, "")
    record = json.loads(out)
    assert record["agreement"] == "fail: oracle accepted no grid point"
    assert record["accepted"] == [] and record["searched"] == 9
    assert "solver_point" not in record


def test_oracle_refuses_unbounded_sets(tmp_path, capsys):
    text = BOX_IDENTITY.replace(
        "kind = box\n    lo = 1 1\n    hi = 2 2", "kind = whole_space")
    cfg = write(tmp_path, text)
    code, _, err = run(capsys, "oracle", "--config", cfg)
    assert code == 5 and "bounded" in err


def test_oracle_grid_cap(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY)
    code, _, err = run(capsys, "oracle", "--config", cfg, "--grid", "1100,1100")
    assert code == 2 and "cap" in err


def test_oracle_over_cap_grid_is_refused_at_once(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY)
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "--config", cfg, "--grid", "999,1000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "MAX_SCREEN_PAIRS" in err
    assert "Traceback" not in err


def test_oracle_grid_with_no_point_inside_the_set_is_refused(tmp_path, capsys):
    text = BOX_IDENTITY.replace(
        "kind = box\n    lo = 1 1\n    hi = 2 2", "kind = ball\n    radius = 1")
    cfg = write(tmp_path, text)
    # a 2 x 2 grid over [-1, 1]^2 holds only the corners, all outside
    code, out, err = run(capsys, "oracle", "--config", cfg, "--grid", "2,2")
    assert code == 2 and out == ""
    assert err.startswith("error: grid [2, 2] has no point inside the set")
    assert "Traceback" not in err
    code, out, _ = run(capsys, "oracle", "--config", cfg, "--grid", "3,3")
    assert code == 0 and json.loads(out)["searched"] == 5


@pytest.mark.parametrize("grid, bad", [("3,x", "'x'"), ("3.5,3", "'3.5'")])
def test_oracle_grid_flag_with_a_bad_count_is_a_config_error(tmp_path, capsys,
                                                             grid, bad):
    cfg = write(tmp_path, BOX_IDENTITY)
    code, out, err = run(capsys, "oracle", "--config", cfg, "--grid", grid)
    assert code == 2 and out == ""
    assert err.startswith(f"error: --grid: {bad} is not a whole number")


def test_module_entry_point_runs_in_a_subprocess():
    # the child imports the same lpvi this test does, wherever pytest found it
    src = str(Path(lpvi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "lpvi", "verify", "factor"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_reader_that_closes_early_gets_status_141_and_no_traceback(
        unbuffered):
    # stdout is a pipe whose read end is closed before the child starts,
    # so its first write (unbuffered) or its flush at exit meets EPIPE
    src = str(Path(lpvi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "lpvi", "verify",
                               "pairing", "--count", "2000"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def _break_kernel(monkeypatch, kernel):
    """Put NaN into row 3 of every result of `kernel` that has four rows
    or more, wherever lpvi calls it; returns the count of such results.
    A kernel that returns J(x) and |x| gets NaN in row 3 of both."""
    from lpvi import maps, oracle, sets, solver, spaces, sweeps
    real = getattr(sets if kernel == "retract_rows" else spaces, kernel)
    broken_results = [0]

    def nan_row(result):
        out = np.array(result, dtype=float)
        if out.shape[0] > 3:
            out[3] = np.nan
            broken_results[0] += 1
        return out

    def broken(*args, **kwargs):
        result = real(*args, **kwargs)
        if isinstance(result, tuple):
            return tuple(nan_row(part) for part in result)
        return nan_row(result)

    for module in (spaces, sets, maps, sweeps, oracle, solver):
        if hasattr(module, kernel):
            monkeypatch.setattr(module, kernel, broken)
    return broken_results


@pytest.mark.parametrize("suite", ["duality", "pairing", "retraction"])
@pytest.mark.parametrize("kernel",
                         ["duality_map_rows", "duality_norm_rows", "norm_rows",
                          "retract_rows"])
def test_verify_fails_on_a_nan_row(capsys, monkeypatch, kernel, suite):
    _, clean, _ = run(capsys, "verify", suite, "--count", "300")
    broken_results = _break_kernel(monkeypatch, kernel)
    code, out, err = run(capsys, "verify", suite, "--count", "300")
    if broken_results[0]:
        assert code == 1
        assert err == f"error: verify {suite} failed; reproduce with --seed 0\n"
        # every figure the NaN reaches fails; none turns into a pass
        pairs = list(zip(out.splitlines(), clean.splitlines(), strict=True))
        changed = [line for line, was in pairs if line != was]
        assert changed and all(line.endswith("FAIL") for line in changed)
        # a NaN row has a NaN norm and a non-finite duality map
        reached = {("retract_rows", "retraction"): ["box sunny deviation",
                                                    "nonexpansiveness excess"],
                   ("duality_map_rows", "duality"): ["duality homogeneity"],
                   ("duality_norm_rows", "duality"): [
                       "duality pairing identity", "duality norm identity"],
                   ("duality_norm_rows", "pairing"): ["pairing inequality"]}
        for name in reached.get((kernel, suite), []):
            assert any(line.startswith(name) for line in changed), name
    else:
        # the duality and pairing suites retract nothing, the pairing
        # suite takes its norms from the duality kernel, and the retraction
        # suite never needs J(x) and |x| together
        assert (code, out) == (0, clean)
        assert (kernel, suite) in {("retract_rows", "duality"),
                                   ("retract_rows", "pairing"),
                                   ("norm_rows", "pairing"),
                                   ("duality_norm_rows", "retraction")}


def test_verify_pairing_checks_the_pinned_pair(capsys, monkeypatch):
    from lpvi import oracle
    real = oracle.duality_norm_rows

    def j_of_zero_is_one(xs, p):
        out, norms = real(xs, p)
        out[~np.any(xs, axis=1)] = 1.0
        return out, norms

    code, out, _ = run(capsys, "verify", "pairing", "--count", "300")
    assert code == 0 and len(out.splitlines()) == 9
    monkeypatch.setattr(oracle, "duality_norm_rows", j_of_zero_is_one)
    code, broken, _ = run(capsys, "verify", "pairing", "--count", "300")
    assert code == 1
    lines = broken.splitlines()
    # the drawn pairs still pass; each pinned pair fails on its own line
    assert [ln for ln in lines if ln.endswith("PASS")] == out.splitlines()
    pinned = [ln for ln in lines if ln.startswith("pinned pair x = 0")]
    assert len(pinned) == 9 and all(ln.endswith("FAIL") for ln in pinned)


def test_verify_suites_norm_no_row_the_duality_kernel_normed(capsys,
                                                            monkeypatch):
    from lpvi import maps, oracle, sets, solver, spaces, sweeps
    real = spaces.norm_rows
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    for module in (spaces, sets, maps, sweeps, oracle, solver):
        if hasattr(module, "norm_rows"):
            monkeypatch.setattr(module, "norm_rows", counted)
    seen = {}
    for suite in ("pairing", "duality"):
        calls[0] = 0
        code, _, _ = run(capsys, "verify", suite, "--seed", "0")
        assert code == 0
        seen[suite] = calls[0]
    # |x| and |y| come with J(x) and J(y); each of the duality suite's
    # 4 p x 3 n blocks norms only |Jx|_q, the homogeneity gaps and its
    # probe functionals
    assert seen == {"pairing": 0, "duality": 36}


def test_verify_pairing_needs_two_pairs(capsys):
    code, out, err = run(capsys, "verify", "pairing", "--count", "1")
    assert code == 2 and out == ""
    assert "pairs >= 2" in err and "Traceback" not in err
    code, out, _ = run(capsys, "verify", "pairing", "--count", "2")
    assert code == 0 and len(out.splitlines()) == 9


def test_verify_duality_needs_a_vector_past_the_pinned_origin(capsys):
    code, out, err = run(capsys, "verify", "duality", "--count", "1")
    assert (code, out) == (2, "")
    assert err == ("error: need count >= 2 (one vector is pinned at the"
                   " origin), got count = 1\n")
    code, out, _ = run(capsys, "verify", "duality", "--count", "2")
    assert code == 0 and len(out.splitlines()) == 6
    assert "-inf" not in out


def test_parser_is_built_once_and_reused():
    assert _build_parser() is _build_parser()


def test_main_calls_the_command_functions_bound_now(monkeypatch):
    # the cached parser holds no handlers, so a rebinding made after it
    # was built (a test double, a tracing wrapper) still takes effect
    _build_parser()
    monkeypatch.setattr(lpvi.cli, "cmd_verify", lambda args: 7)
    assert main(["verify", "factor"]) == 7


def test_repeated_parses_share_no_state(capsys):
    # a repeatable --p in one call must not carry over into the next
    code, out, _ = run(capsys, "verify", "pairing", "--p", "3", "--count", "50")
    assert code == 0 and len(out.splitlines()) == 3
    code, out, _ = run(capsys, "verify", "pairing", "--count", "50")
    assert code == 0 and len(out.splitlines()) == 9


def test_a_parse_error_leaves_the_parser_usable(tmp_path, capsys):
    out_csv = str(tmp_path / "t.csv")
    with pytest.raises(SystemExit) as info:
        main(["solve", "--out", out_csv])
    assert info.value.code == 2
    assert "--config" in capsys.readouterr().err
    code, out, err = run(capsys, "solve", "--config",
                         write(tmp_path, BOX_IDENTITY), "--out", out_csv)
    assert code == 0 and err == ""
    assert json.loads(out)["status"] == "converged"


def _trace_text(trace):
    # the per-row formatting the trace CSV has always had
    return "iter,step_norm,residual\n" + "".join(
        f"{k},{step:.17g},{residual:.17g}\n" for k, step, residual in trace)


def test_trace_csv_bytes_at_special_values():
    trace = [(1, 0.1, 1e-300), (2, -0.0, math.inf), (3, math.nan, 5e-324),
             (10 ** 6, 1.0 / 3.0, 2.0 ** 70), (7, 0.0, -math.inf)]
    handle = io.StringIO()
    _write_trace(handle, trace)
    assert handle.getvalue() == _trace_text(trace)
    handle = io.StringIO()
    _write_trace(handle, [])
    assert handle.getvalue() == _trace_text([])


def test_divergent_solve_writes_the_partial_trace_bytes(tmp_path, capsys):
    cfg = write(tmp_path, """
        [space]
        n = 2
        p = 3
        [set]
        kind = whole_space
        [map]
        kind = affine
        matrix = -1 0 0 -1
        [solver]
        x0 = 1 -0.5
        lambda = 1
    """)
    out_csv = tmp_path / "t.csv"
    code, _, _ = run(capsys, "solve", "--config", cfg, "--out", str(out_csv))
    assert code == 4
    loaded = load_config(cfg)
    with pytest.raises(DivergenceError) as info:
        picard_solve(loaded.problem, 1.0, loaded.solver.x0)
    assert len(info.value.trace) > 1000
    assert out_csv.read_bytes() == _trace_text(info.value.trace).encode()


def test_oracle_accepted_rows_print_as_floats(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY)
    _, out, _ = run(capsys, "oracle", "--config", cfg, "--grid", "21,21")
    sol = grid_vi_solve(load_config(cfg).problem, GridSpec((21, 21)))
    rows = json.dumps([[float(v) for v in row] for row in sol.accepted])
    assert f'"accepted": {rows}' in out
    assert json.dumps(_vec(np.array([1, 2]))) == "[1.0, 2.0]"


@pytest.mark.parametrize("normal", ["1e-170 0", "1e170 0"])
def test_halfspace_normal_with_no_float_square_is_a_config_error(tmp_path,
                                                                 capsys,
                                                                 normal):
    cfg = write(tmp_path, f"""
        [space]
        n = 2
        p = 2
        [set]
        kind = halfspace
        normal = {normal}
        offset = 0
        [map]
        kind = affine
        matrix = 1 0 0 1
    """)
    code, out, err = run(capsys, "check-map", "--config", cfg)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "[set]: halfspace normal" in err
    assert "Traceback" not in err


def test_solve_refuses_an_infinite_explicit_step(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY)
    out_csv = tmp_path / "t.csv"
    code, out, err = run(capsys, "solve", "--config", cfg, "--out",
                         str(out_csv), "--lambda", "inf")
    assert (code, out) == (2, "")
    assert err == "error: explicit step size must be positive and finite, got inf\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("suite, command", [("duality", "duality_sweep"),
                                            ("pairing", "pairing_sweeps"),
                                            ("retraction", "retraction_suite")])
def test_a_refused_allocation_exits_2_with_one_error_line(capsys, monkeypatch,
                                                          suite, command):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr(lpvi.cli, command, refuse)
    code, out, err = run(capsys, "verify", suite, "--count", "1000000000000")
    assert (code, out) == (2, "")
    assert err == "error: out of memory: Unable to allocate 14.6 TiB for an array\n"


def rng_seeds(monkeypatch) -> list:
    """The seed of every numpy Generator built from now on, in order."""
    seeds = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: seeds.append(seed) or real(seed))
    return seeds


@pytest.mark.parametrize("suite, command, widest",
                         [("duality", "duality_sweep", 50),
                          ("pairing", "pairing_sweeps", 20),
                          ("retraction", "retraction_suite", 7)])
def test_a_count_past_the_largest_array_is_refused_before_any_draw(
        capsys, monkeypatch, suite, command, widest):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    draws = rng_seeds(monkeypatch)
    code, out, err = run(capsys, "verify", suite,
                         "--count", "1000000000000000000")
    assert (code, out, draws) == (2, "", [])
    assert err == ("error: --count 1000000000000000000: a sample of"
                   f" 1000000000000000000 rows of {widest} doubles passes"
                   " the largest array size\n")
    # the largest count that passes reaches the suite
    monkeypatch.setattr(lpvi.cli, command, refuse)
    limit = sys.maxsize // (8 * widest)
    code, out, err = run(capsys, "verify", suite, "--count", str(limit))
    assert (code, out, err) == (2, "", "error: out of memory: Unable to allocate\n")
    code, _, err = run(capsys, "verify", suite, "--count", str(limit + 1))
    assert code == 2 and err.startswith(f"error: --count {limit + 1}: ")


def test_verify_pairing_draws_each_n_once_for_every_p(capsys, monkeypatch):
    seeds = rng_seeds(monkeypatch)
    code, out, _ = run(capsys, "verify", "pairing", "--count", "300",
                       "--seed", "4")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"pairing inequality p={p} n={n}"
        for p in (1.5, 3.0, 4.0) for n in (2, 5, 20)]
    assert seeds == [4, 4, 4]


def test_verify_pairing_checks_every_exponent_before_it_prints(capsys):
    code, out, err = run(capsys, "verify", "pairing", "--p", "3", "--p", "1",
                         "--count", "300")
    assert (code, out) == (5, "")
    assert (5, "", err) == run(capsys, "verify", "pairing", "--p", "1",
                               "--count", "300")


def test_verify_retraction_runs_the_exponents_it_is_given(capsys, monkeypatch):
    called = []

    def spy(p_values, **kwargs):
        called.append(list(p_values))
        return real(p_values, **kwargs)

    real = lpvi.cli.retraction_suite
    monkeypatch.setattr(lpvi.cli, "retraction_suite", spy)
    _, default, _ = run(capsys, "verify", "retraction", "--count", "300")
    code, out, _ = run(capsys, "verify", "retraction", "--count", "300",
                       "--p", "5")
    assert called == [[1.5, 2.0, 3.0], [5.0]]
    assert code == 0 and out != default


@pytest.mark.parametrize("flags", [["--seed", "9"], ["--count", "100"],
                                   ["--p", "5"],
                                   ["--seed", "9", "--count", "100", "--p", "5"]])
def test_verify_factor_refuses_flags_it_cannot_use(capsys, flags):
    code, out, err = run(capsys, "verify", "factor", *flags)
    assert (code, out) == (2, "")
    assert err == "error: verify factor takes no --seed, --count or --p\n"


def test_oracle_refuses_an_empty_grid_flag(tmp_path, capsys):
    cfg = write(tmp_path, BOX_IDENTITY + "\n    [oracle]\n    grid = 5 5\n")
    code, out, err = run(capsys, "oracle", "--config", cfg, "--grid", "")
    assert (code, out) == (2, "")
    assert err == "error: grid needs at least one axis\n"


def test_check_map_takes_every_point_of_the_sampler_budget(tmp_path, capsys,
                                                           monkeypatch):
    from lpvi import sets
    cfg = write(tmp_path, BOX_IDENTITY)
    _, full, _ = run(capsys, "check-map", "--config", cfg, "--count", "768")
    # 768 pairs are 1536 points: three chunks of draws, all in the box
    monkeypatch.setattr(sets, "_MAX_CHUNKS", 3)
    code, out, err = run(capsys, "check-map", "--config", cfg, "--count", "768")
    assert (code, out, err) == (0, full, "")
    code, out, err = run(capsys, "check-map", "--config", cfg, "--count", "769")
    assert (code, out) == (2, "")
    assert err == "error: pairs must be between 1 and 768, got 769\n"
    code, out, err = run(capsys, "check-map", "--config", cfg, "--count", "0")
    assert (code, out) == (2, "")
    assert err == "error: pairs must be between 1 and 768, got 0\n"


def test_verify_retraction_fails_a_clamp_onto_a_shifted_box(capsys, monkeypatch):
    from lpvi import sets
    real = sets.retraction_kernel

    def shifted(cset, p):
        if isinstance(cset, lpvi.Box):
            lo, hi = cset.lo + 0.5, cset.hi + 0.5
            return lambda xs, out=None: xs.clip(lo, hi, out=out)
        return real(cset, p)

    monkeypatch.setattr(sets, "retraction_kernel", shifted)
    code, out, err = run(capsys, "verify", "retraction", "--count", "300")
    assert code == 1
    line = next(ln for ln in out.splitlines() if ln.startswith("characterization"))
    assert line.endswith("FAIL")
    # normalized by 1 + |x|_p^2, the shift's pairing stays well inside (-1, 0)
    assert -1.0 < float(line.split()[1]) < -1e-3
