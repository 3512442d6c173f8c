import contextlib
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refleq
from refleq.cli import main, run


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    return header, np.array(rows)


def test_kernel_dump(tmp_path):
    out = tmp_path / "k.csv"
    code = run(["kernel", "--m", str(math.pi / 4), "--T", "1", "--grid", "21", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "s", "value"]
    assert rows.shape == (441, 3)
    assert np.all(rows[:, 2] >= -1e-12)  # alpha = pi/4: nonnegative kernel


def test_kernel_resonant_exit_2(tmp_path, capsys):
    code = run(["kernel", "--m", str(math.pi), "--T", "1", "--out", str(tmp_path / "k.csv")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ResonantKernel"


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["sign", "--m", "0.5", "--T", "1"], 0, None),
        (["sign", "--m", "0.5"], 1, "ArgumentError"),
        (["kernel", "--m", str(math.pi), "--T", "1"], 2, "ResonantKernel"),
    ],
)
def test_console_script_exits_with_the_contract_code(monkeypatch, capsys, argv, code, error):
    # main is the `refleq` console script: it reads sys.argv and exits with run's code
    monkeypatch.setattr(sys, "argv", ["refleq", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == code
    out, err = capsys.readouterr()
    if error is None:
        assert json.loads(out)["classification"] == "strictly_positive" and err == ""
    else:
        assert json.loads(err)["error"] == error and out == ""


def test_sign_json(tmp_path):
    out = tmp_path / "s.json"
    assert run(["sign", "--m", "0.5", "--T", "1", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["classification"] == "strictly_positive"


def test_resonance_verdict(capsys):
    assert run(["resonance", "--m", str(2 * math.pi), "--T", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["resonant"] is True
    assert rep["k"] == 2


def test_solve_constant(tmp_path):
    sol = tmp_path / "u.csv"
    res = tmp_path / "r.json"
    code = run(
        ["solve", "--m", "1", "--T", "1", "--h", "const:1", "--n", "100", "--out", str(sol), "--residual-out", str(res)]
    )
    assert code == 0
    header, rows = read_csv(sol)
    assert header == ["t", "value"]
    assert np.max(np.abs(rows[:, 1] - 1.0)) <= 1e-8
    assert json.loads(res.read_text())["sup_residual"] <= 1e-3


def test_solve_unknown_forcing_exit_1(capsys):
    assert run(["solve", "--m", "1", "--T", "1", "--h", "nope"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "KeyError"


@pytest.mark.parametrize("argv", [["solve", "--m", "1", "--T", "1"], ["compare", "--m1", "0.5", "--m2", "0.6", "--T", "1"]])
def test_unknown_forcing_message_is_not_quoted_twice(capsys, argv):
    assert run(argv + ["--h", "nope"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "KeyError", "message": "unknown forcing id 'nope'"}


def test_solve_odd_n_exit_1_with_error_json(capsys):
    assert run(["solve", "--m", "1", "--T", "1", "--h", "const:1", "--n", "7"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "n must be even"}


@pytest.mark.parametrize("mode", ["periodic", "ivp"])
@pytest.mark.parametrize("steps, message", [("7", "n_steps must be even"), ("0", "n_steps must be >= 1")])
def test_reduce_bad_step_count_exit_1_with_error_json(capsys, mode, steps, message):
    assert run(["reduce", "--example", "e-ex", "--mode", mode, "--steps", steps]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "ValueError", "message": message}
    assert captured.out == ""


@pytest.mark.parametrize("mode", ["periodic", "ivp"])
@pytest.mark.parametrize("T", ["0", "-1", "nan"])
def test_reduce_bad_T_exit_1_with_error_json(capsys, mode, T):
    assert run(["reduce", "--example", "e-ex", "--mode", mode, f"--T={T}", "--steps", "4"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "ValueError", "message": "T must be finite and strictly positive"}
    assert captured.out == ""


@pytest.mark.parametrize("mode", ["periodic", "ivp"])
@pytest.mark.parametrize("T", ["1e-310", "1e-320"])
def test_reduce_subnormal_T_exit_1_with_error_json(capsys, mode, T):
    assert run(["reduce", "--example", "e-ex", "--mode", mode, f"--T={T}"]) == 1
    captured = capsys.readouterr()
    message = f"T must be a normal double, at least 2.2250738585072014e-308, got {T}"
    assert json.loads(captured.err) == {"error": "ValueError", "message": message}
    assert captured.out == ""


@pytest.mark.parametrize("flag, value", [("--m", "inf"), ("--m", "nan"), ("--T", "-inf"), ("--T", "nan")])
def test_non_finite_params_exit_1_with_error_json(capsys, flag, value):
    args = {"--m": "0.5", "--T": "1", flag: value}
    assert run(["sign", *(f"{k}={v}" for k, v in args.items())]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


def test_bad_flags_exit_1(capsys):
    assert run(["solve", "--m", "1"]) == 1
    assert run(["bogus"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["solve", "--m", "1"],
        ["solve", "--m", "abc", "--T", "1", "--h", "zero"],
        ["kernel", "--m", "0.5", "--T", "1", "--which", "X"],
        ["reduce", "--example", "e-ex", "--guess", "-1e-3"],
        ["exists", "--example", "exa2", "--branch", "3", "--sweep"],
    ],
)
def test_usage_errors_exit_1_with_one_error_json(capsys, argv):
    # json.loads rejects anything after the first object, usage text included
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "ArgumentError"
    assert captured.out == ""


@pytest.mark.parametrize("value", ["-1e-3", "-1E+2", "-.5e1", "-2.", "-3"])
def test_negative_numbers_in_exponent_form_are_values(capsys, value):
    assert run(["resonance", "--m", value, "--T", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == float(value)


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan"])
def test_negative_non_finite_values_reach_validation(capsys, value):
    assert run(["sign", "--m", "0.5", "--T", value]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


def test_negative_exponent_guess_and_tol(tmp_path, capsys):
    traj, verd = tmp_path / "t.csv", tmp_path / "v.json"
    argv = ["reduce", "--example", "e-ex", "--guess", "-1e-3", "1e-3", "--out", str(traj), "--verdict-out", str(verd)]
    assert run(argv) == 0
    assert json.loads(verd.read_text())["genuine"] is True
    assert run(["iterate", "--example", "exa3", "--tol", "-1e-8"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "ValueError", "message": "tol must be >= 0"}
    assert captured.out == ""


def test_compare(capsys):
    assert run(["compare", "--m1", "0.3", "--m2", "0.7", "--T", "1", "--h", "const:1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ordering_holds"] is True
    assert rep["solution_gap_min"] > 0


def test_reduce_e_ex_periodic(tmp_path):
    traj = tmp_path / "t.csv"
    verd = tmp_path / "v.json"
    code = run(["reduce", "--example", "e-ex", "--out", str(traj), "--verdict-out", str(verd)])
    assert code == 0
    header, rows = read_csv(traj)
    assert header == ["t", "y", "x", "z", "w"]
    assert json.loads(verd.read_text())["genuine"] is True


def test_reduce_sinh_ivp(tmp_path):
    traj = tmp_path / "t.csv"
    verd = tmp_path / "v.json"
    code = run(
        ["reduce", "--example", "sinh", "--mode", "ivp", "--T", "0.5", "--x0", "0.5",
         "--out", str(traj), "--verdict-out", str(verd)]
    )
    assert code == 0
    v = json.loads(verd.read_text())
    assert v["genuine"] is True
    assert v["second_order_initial_state"][0] == 0.5


def test_iterate_report(capsys):
    assert run(["iterate", "--example", "exa3", "--lambda", "0.1", "--max-iters", "15", "--n", "64"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["monotone"] is True
    assert rep["gap_history"][0] > rep["gap_history"][-1]


def test_iterate_bad_window_exit_2(capsys):
    assert run(["iterate", "--example", "exa3", "--m", "2.0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadWindow"


@pytest.mark.parametrize("m", ["0", "nan", "inf", "-inf"])
def test_iterate_m_outside_both_windows_exit_2(m, capsys):
    # the window check runs before ProblemParams, whose ValueError exits 1
    assert run(["iterate", "--example", "exa3", "--m", m]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "BadWindow"
    assert captured.out == ""


OVERFLOWING = [
    ["solve", "--m", "1", "--T", "1", "--h", "const:1e308", "--n", "4"],
    ["compare", "--m1", "0.3", "--m2", "0.7", "--T", "1", "--h", "const:1e308"],
    ["iterate", "--example", "exa3", "--lambda", "inf"],
    ["iterate", "--example", "exa3", "--lambda", "1e308"],
    ["iterate", "--example", "exa3", "--lambda", "-inf", "--max-iters", "0"],
    ["solve", "--m", "2", "--T", "2", "--h", "const:2", "--lambda", "-1e308"],
    ["solve", "--m", "1e308", "--T", "1e-308", "--h", "zero", "--lambda", "20"],
]


@pytest.mark.parametrize("argv", OVERFLOWING, ids=lambda a: "-".join(a[:1] + a[-2:]))
def test_overflow_exits_2_with_one_error_json_and_no_output(argv, tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would escape run() as an exception
        assert run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "QuadratureFailure"
    assert captured.out == "" and not out.exists()


def test_reduce_sinh_overflow_exits_2_with_one_error_json(capsys):
    # math.sinh raises OverflowError where numpy would return inf
    assert run(["reduce", "--example", "sinh", "--x0", "20"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "NonFinite"
    assert captured.out == ""


def _fresh_python(*args):
    src = str(Path(refleq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_stderr_of_an_overflowing_command_is_one_json_object():
    proc = _fresh_python("-m", "refleq.cli", "iterate", "--example", "exa3", "--lambda", "inf")
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "QuadratureFailure"  # raises if warnings precede it
    assert proc.stdout == ""


def test_module_entry_point_runs_a_command():
    proc = _fresh_python("-m", "refleq.cli", "resonance", "--m", "1", "--T", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"alpha": 1.0, "k": None, "resonant": False}
    assert proc.stderr == ""


def test_import_does_not_load_scipy_interpolate():
    proc = _fresh_python("-c", "import sys, refleq; print([m for m in sys.modules if m.startswith('scipy.interp')])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exists_asymptotic(capsys):
    assert run(["exists", "--example", "exa2", "--m", "0.5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "positive_solution"


def test_exists_with_annulus(capsys):
    assert run(["exists", "--example", "exa2", "--m", "0.5", "--r", "1", "--R", "10", "--density", "11"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "violated"


def test_exists_sweep(capsys):
    assert run(["exists", "--example", "exa2", "--m", "0.5", "--sweep"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["admissible_pair"] is None
    assert out["report"]["samples"] == 46305


#: exists flags that leave the sign window (BadWindow) or hit an eigenvalue (ResonantKernel)
OUT_OF_WINDOW = [
    (["--m", "1", "--r", "0.1", "--R", "10"], "BadWindow"),
    (["--m", "1", "--sweep"], "BadWindow"),
    (["--m", "-1", "--r", "0.1", "--R", "10"], "BadWindow"),
    (["--m", "-1", "--sweep"], "BadWindow"),
    (["--m", "3.14159", "--r", "0.1", "--R", "10"], "BadWindow"),
    (["--m", "0.7853981633974483", "--r", "0.1", "--R", "10"], "BadWindow"),
    (["--m", "1", "--cone", "negative", "--r", "0.1", "--R", "10"], "BadWindow"),
    (["--m", "-0.5", "--r", "0.1", "--R", "10"], "BadWindow"),
    (["--m", "-0.5"], "BadWindow"),
    (["--m", "1"], "BadWindow"),
    (["--m", "3.141592653589793", "--r", "0.1", "--R", "10"], "ResonantKernel"),
    (["--m", "0.001", "--T", "1e-7"], "ResonantKernel"),
    (["--m", "0.001", "--T", "1e-7", "--cone", "negative"], "ResonantKernel"),
]


@pytest.mark.parametrize("flags, error", OUT_OF_WINDOW, ids=[" ".join(f) for f, _ in OUT_OF_WINDOW])
def test_exists_out_of_window_exit_2(flags, error, capsys):
    assert run(["exists", "--example", "exa2", *flags]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == error
    assert captured.out == ""


#: stdout sha256 of the negative-cone and single-branch exists modes, recorded
#: when the cone systems were written out per variant; the last three were
#: recorded before the sweep sampled each distinct constraint once
EXISTS_DIGESTS = {
    "negative": (
        ["--cone", "negative"],
        "9a33dc3085404c8b12689b6189d226567112cf019d86d1233788cd03297beea1",
    ),
    "negative-annulus": (
        ["--cone", "negative", "--r", "0.1", "--R", "10"],
        "4556031372482de648fed880b8d59f0ac38aff38fc051d2e70311c53e96009e7",
    ),
    "negative-sweep": (
        ["--cone", "negative", "--sweep"],
        "47165d05f1c0ed9dc19b700abc6bc165041c407456af2f98e53a07a7926db7af",
    ),
    "sweep-branch-1": (
        ["--sweep", "--branch", "1"],
        "be7d836976cd6353ee7de553da84242d453cd9d1d5f960415060fede48a73936",
    ),
    "sweep-branch-2": (
        ["--sweep", "--branch", "2"],
        "37f2784f45b6218828f25c63cd11e6c40d0f7c4f4689b531012a2652764f6504",
    ),
    "negative-sweep-branch-1": (
        ["--cone", "negative", "--sweep", "--branch", "1"],
        "24c3f1dddd9a8822c0e19530b94490e7da511601f56b5bb1a7afaf9df44c5716",
    ),
    "negative-sweep-branch-2": (
        ["--cone", "negative", "--sweep", "--branch", "2"],
        "e95753ffaff54797ea8c632f5755861a4d78031d4a09dfb2b5aab8a1fd674533",
    ),
}


@pytest.mark.parametrize("name", list(EXISTS_DIGESTS))
def test_exists_output_is_unchanged(name, capsys):
    flags, digest = EXISTS_DIGESTS[name]
    assert run(["exists", "--example", "exa2", "--m", "0.5", *flags]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--r", "0.1"], "--r and --R must be given together"),
        (["--R", "10"], "--r and --R must be given together"),
        (["--sweep", "--r", "0.1", "--R", "10"], "--sweep scans its own (r, R) lattice and takes no --r or --R"),
        (["--sweep", "--R", "10"], "--r and --R must be given together"),
        (["--branch", "1"], "--branch applies only with --sweep"),
        (["--r", "0.1", "--R", "10", "--branch", "2"], "--branch applies only with --sweep"),
        (["--density", "11"], "--density applies only with --sweep or --r and --R"),
        (["--r", "0.1", "--R", "10", "--density", "1"], "sample_density must be >= 2"),
        (["--r", "0.1", "--R", "10", "--density", "0"], "sample_density must be >= 2"),
        (["--sweep", "--density", "-2"], "sample_density must be >= 2"),
    ],
)
def test_exists_rejects_unused_or_bad_flags(capsys, flags, message):
    assert run(["exists", "--example", "exa2", *flags]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "ValueError", "message": message}
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kernel", "--m", "0.5", "--T", "1", "--grid", "0"], "grid must be >= 2"),
        (["kernel", "--m", "0.5", "--T", "1", "--grid", "1"], "grid must be >= 2"),
        (["iterate", "--example", "exa3", "--tol", "nan"], "tol must be >= 0"),
        (["iterate", "--example", "exa3", "--tol=-1e-8"], "tol must be >= 0"),
        (["iterate", "--example", "exa3", "--tol", "inf"], "tol must be finite"),
        (["iterate", "--example", "exa3", "--max-iters", "-1"], "max_iters must be >= 0"),
        (["reduce", "--example", "e-ex", "--tol", "nan", "--steps", "20"], "tol must be finite and >= 0"),
        (["exists", "--example", "exa2", "--r", "0.1", "--R", "inf"], "need finite 0 < r < R"),
        (["exists", "--example", "exa2", "--r", "0.1", "--R", "1e308"], "the sampled annulus [L*r/M, M*R/L] overflows"),
        (["compare", "--m1", "0.3", "--m2", "0.7", "--T", "1", "--grid", "0"], "grid must be >= 2"),
        (["compare", "--m1", "0.3", "--m2", "0.7", "--T", "1", "--grid", "1"], "grid must be >= 2"),
        (["solve", "--m", "1", "--T", "1", "--h", "const:1", "--n", "0"], "n must be even and >= 2"),
        (["solve", "--m", "1", "--T", "1", "--h", "const:1", "--n=-2"], "n must be even and >= 2"),
        (["compare", "--m1", "0.3", "--m2", "0.7", "--T", "1", "--n", "0"], "n must be even and >= 2"),
        (["compare", "--m1", "0.3", "--m2", "0.7", "--T", "1", "--n=-4"], "n must be even and >= 2"),
        (["iterate", "--example", "exa3", "--n", "0"], "n must be even and >= 2"),
        (["iterate", "--example", "exa3", "--n=-2"], "n must be even and >= 2"),
    ],
)
def test_bad_grid_or_tol_exit_1_with_error_json(capsys, argv, message):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "ValueError", "message": message}
    assert captured.out == ""


def test_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["kernel", "--m", "0.5", "--T", "1", "--grid", "31", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


# Flag values for the property over run(): finite, zero, signed, huge, tiny,
# NaN and infinite floats, and only small sizes, since --grid allocates
# grid^2 kernel points and --density density^3 samples per constraint.
FLOATS = st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.0, 20.0, 1e10, 1e308, -1e308, 1e-308, math.nan, math.inf, -math.inf,
                          math.pi, math.pi / 4])
SIZES = st.integers(-2, 16)
STEPS = st.integers(-2, 20)


#: the file flags of each command; every other command has --out alone
OUT_FLAGS = {"solve": ("--out", "--residual-out"), "reduce": ("--out", "--verdict-out")}


@st.composite
def argvs(draw):
    """(argv, outputs): outputs holds (flag, where) with where "stdout", "dir" or "missing-dir"."""
    flags = {}

    def some(flag, strategy):
        if draw(st.booleans()):
            flags[flag] = draw(strategy)

    cmd = draw(st.sampled_from(["kernel", "sign", "resonance", "solve", "compare", "reduce", "iterate", "exists"]))
    if cmd == "compare":
        flags.update({"--m1": draw(FLOATS), "--m2": draw(FLOATS), "--T": draw(FLOATS)})
    elif cmd in ("kernel", "sign", "resonance", "solve"):
        flags.update({"--m": draw(FLOATS), "--T": draw(FLOATS)})
    if cmd in ("kernel", "sign", "compare"):
        some("--grid", SIZES)
    if cmd == "kernel":
        some("--which", st.sampled_from(["G", "Gbar"]))
    if cmd in ("solve", "compare"):
        h = st.sampled_from(["zero", "cos", "sin", "cos_minus_sin"]) | FLOATS.map(lambda v: f"const:{v!r}")
        flags["--h"] = draw(h)
        some("--n", SIZES)
    if cmd == "solve":
        some("--lambda", FLOATS)
        some("--n-quad", st.sampled_from([0, 7, 8, 16]))
    if cmd == "reduce":
        flags["--example"] = draw(st.sampled_from(["e-ex", "sinh"]))
        some("--mode", st.sampled_from(["periodic", "ivp"]))
        some("--x0", FLOATS)
        some("--guess", st.tuples(FLOATS, FLOATS))
        flags["--steps"] = draw(STEPS)
        some("--tol", FLOATS)
    if cmd == "iterate":
        flags["--example"] = "exa3"
        some("--lambda", FLOATS)
        some("--m", FLOATS)
        flags["--n"] = draw(SIZES)
        some("--tol", FLOATS)
        some("--max-iters", st.integers(-1, 5))
    if cmd in ("reduce", "iterate", "exists"):
        some("--T", FLOATS)
    if cmd == "exists":
        flags["--example"] = "exa2"
        some("--m", FLOATS)
        some("--cone", st.sampled_from(["positive", "negative"]))
        if draw(st.booleans()):
            flags["--sweep"] = None
            flags["--density"] = draw(st.integers(2, 3))
            some("--branch", st.sampled_from([1, 2]))
        else:
            some("--r", FLOATS)
            some("--R", FLOATS)
            some("--density", st.integers(2, 3))
    argv = [cmd]
    for flag, value in flags.items():
        argv.append(flag)
        if isinstance(value, tuple):
            argv += map(str, value)
        elif value is not None:
            argv.append(str(value))
    where = st.sampled_from(["stdout", "dir", "missing-dir"])
    return argv, [(flag, draw(where)) for flag in OUT_FLAGS.get(cmd, ("--out",))]


@settings(max_examples=300, deadline=None)
@given(case=argvs())
def test_every_command_exits_by_the_contract(case):
    argv, outputs = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for i, (flag, where) in enumerate(outputs):
            if where != "stdout":
                name = f"out{i}"
                files[name] = os.path.join(tmp, "missing", name) if where == "missing-dir" else os.path.join(tmp, name)
                argv = [*argv, flag, files[name]]
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")  # a warning would reach stderr beside the error JSON
            code = run(argv)
        left = sorted(os.listdir(tmp))
        written = "".join(Path(tmp, name).read_text() for name in left)
    assert code in (0, 1, 2)
    if code:
        assert isinstance(json.loads(err.getvalue()), dict)
        assert out.getvalue() == "" and left == []
    else:
        assert ("missing-dir" not in dict(outputs).values()) and left == sorted(files)
        assert err.getvalue() == ""
        text = out.getvalue() + written
        assert "NaN" not in text and "Infinity" not in text


OVERSIZED = [
    ["kernel", "--m", "0.5", "--T", "1", "--grid", "1000000"],
    ["sign", "--m", "0.5", "--T", "1", "--grid", "1000000"],
    ["compare", "--m1", "0.3", "--m2", "0.7", "--T", "1", "--grid", "1000000"],
    ["exists", "--example", "exa2", "--r", "0.1", "--R", "10", "--density", "100000"],
    ["exists", "--example", "exa2", "--sweep", "--density", "100000"],
    ["solve", "--m", "1", "--T", "1", "--h", "const:1", "--n", "10000000000000"],
    ["solve", "--m", "1", "--T", "1", "--h", "const:1", "--n-quad", "10000000000000"],
    # each flag is within the cap, but the solver's cell edges, n_quad + 2*(n + 1), are not
    ["solve", "--m", "1", "--T", "1", "--h", "const:1", "--n", "10000000", "--n-quad", "9999998"],
    ["compare", "--m1", "0.3", "--m2", "0.7", "--T", "1", "--n", "10000000000000"],
    ["reduce", "--example", "e-ex", "--steps", "10000000000000"],
    ["reduce", "--example", "sinh", "--steps", "10000000000000"],
    ["iterate", "--example", "exa3", "--n", "10000000000000"],
]


@pytest.mark.parametrize("argv", OVERSIZED, ids=lambda a: "-".join(a[:1] + a[-2:]))
def test_oversized_lattice_exits_1_before_allocating(argv, tmp_path, capsys):
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = run([*argv, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 10_000_000  # bytes; the lattice would take terabytes
    captured = capsys.readouterr()
    error = json.loads(captured.err)
    assert error["error"] == "ValueError" and "above the cap of 10000000" in error["message"]
    assert captured.out == "" and not out.exists()


def test_exists_all_nan_constraint_exits_2_with_one_error_json(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["exists", "--example", "exa2", "--r", "1", "--R", "1e200", "--density", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "NonFinite"
    assert captured.out == "" and not out.exists()


UNWRITABLE = [
    ["sign", "--m", "0.5", "--T", "1", "--out", "{missing}/s.json"],
    ["solve", "--m", "1", "--T", "1", "--h", "const:1", "--n", "10", "--out", "{dir}/u.csv", "--residual-out", "{missing}/r.json"],
    ["reduce", "--example", "e-ex", "--steps", "20", "--out", "{missing}/t.csv", "--verdict-out", "{dir}/v.json"],
]


@pytest.mark.parametrize("argv", UNWRITABLE, ids=lambda a: a[0])
def test_unwritable_output_exits_1_and_leaves_no_file(argv, tmp_path, capsys):
    paths = {"dir": tmp_path, "missing": tmp_path / "missing"}
    assert run([a.format(**paths) for a in argv]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.err)
    assert error["error"] == "FileNotFoundError" and str(paths["missing"]) in error["message"]
    assert ".tmp" not in error["message"]
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_existing_output_file_keeps_its_mode_and_survives_a_failure(tmp_path, capsys):
    out = tmp_path / "u.csv"
    out.write_text("old\n")
    out.chmod(0o640)
    argv = ["solve", "--m", "1", "--T", "1", "--h", "const:1", "--n", "10", "--out", str(out)]
    assert run([*argv, "--residual-out", str(tmp_path / "missing" / "r.json")]) == 1
    assert out.read_text() == "old\n" and sorted(tmp_path.iterdir()) == [out]
    assert run([*argv, "--residual-out", str(tmp_path / "r.json")]) == 0
    assert run([*argv[:-1], str(tmp_path / "fresh.csv"), "--residual-out", str(tmp_path / "r.json")]) == 0
    assert out.read_text() == (tmp_path / "fresh.csv").read_text()
    assert out.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "r.json", "u.csv"]


def test_failed_replace_exits_1_and_names_the_target(tmp_path, monkeypatch, capsys):
    real_replace, calls = os.replace, []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError(13, "Permission denied", src)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    residual_out = tmp_path / "r.json"
    argv = ["solve", "--m", "1", "--T", "1", "--h", "const:1", "--n", "10"]
    assert run([*argv, "--out", str(tmp_path / "u.csv"), "--residual-out", str(residual_out)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "PermissionError" and str(residual_out) in error["message"]
    assert ".tmp" not in error["message"]
    # the first output was already in place; the pending temporary file is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["u.csv"]


def test_symlinked_output_writes_the_link_target(tmp_path, capsys):
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("old\n")
    link.symlink_to(real)
    argv = ["sign", "--m", "0.5", "--T", "1", "--grid", "21"]
    assert run([*argv, "--out", str(link)]) == 0
    assert run(argv) == 0
    assert link.is_symlink() and real.read_text() == capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_output_to_a_device_is_written_in_place(capsys):
    before = os.stat(os.devnull)
    assert run(["sign", "--m", "0.5", "--T", "1", "--grid", "21", "--out", os.devnull]) == 0
    after = os.stat(os.devnull)
    assert stat.S_ISCHR(after.st_mode) and (after.st_ino, after.st_rdev) == (before.st_ino, before.st_rdev)
    assert capsys.readouterr() == ("", "")
    assert not [name for name in os.listdir(os.path.dirname(os.devnull)) if name.endswith(".tmp")]


def test_memory_error_exits_1_with_one_error_json(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("no room")

    monkeypatch.setitem(refleq.cli._HANDLERS, "sign", exhausted)
    assert run(["sign", "--m", "0.5", "--T", "1"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "MemoryError", "message": "no room"}
    assert captured.out == ""


def test_kernel_csv_is_written_in_blocks(tmp_path):
    # the CSV is 5.4 MB; holding its text whole peaked at 21.6 MB
    out = tmp_path / "k.csv"
    tracemalloc.start()
    try:
        code = run(["kernel", "--m", "0.7853981633974483", "--T", "1", "--grid", "301", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.stat().st_size > 5_000_000
    assert peak < 10_000_000


def _snapshot(directory):
    return {p.name: os.readlink(p) if p.is_symlink() else p.read_text() for p in directory.iterdir()}


@pytest.mark.parametrize("existing", [False, True], ids=["missing", "existing"])
@pytest.mark.parametrize("second", ["x", "./x", "link"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--m", "1", "--T", "1", "--h", "const:1", "--n", "10", "--out", "x", "--residual-out"],
        ["reduce", "--example", "e-ex", "--steps", "20", "--out", "x", "--verdict-out"],
    ],
    ids=lambda a: a[0],
)
def test_two_outputs_naming_one_file_exit_1_and_write_nothing(argv, second, existing, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if existing:
        (tmp_path / "x").write_text("old\n")
    (tmp_path / "link").symlink_to("x")
    before = _snapshot(tmp_path)
    assert run([*argv, second]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "ValueError", "message": f"outputs 'x' and {second!r} name one file"}
    assert captured.out == "" and _snapshot(tmp_path) == before


def test_two_outputs_to_one_device_still_exit_0(capsys):
    argv = ["solve", "--m", "1", "--T", "1", "--h", "const:1", "--n", "10", "--out", os.devnull, "--residual-out", os.devnull]
    assert run(argv) == 0
    assert capsys.readouterr() == ("", "")


SOLVE = ["solve", "--m", "1", "--T", "1", "--h", "const:1", "--n", "2000"]


def test_solve_to_a_device_beside_a_regular_file_exits_0(tmp_path, capsys):
    assert run([*SOLVE, "--out", str(tmp_path / "u.csv"), "--residual-out", str(tmp_path / "r.json")]) == 0
    assert run([*SOLVE, "--out", os.devnull, "--residual-out", str(tmp_path / "beside.json")]) == 0
    assert capsys.readouterr() == ("", "")
    assert (tmp_path / "beside.json").read_bytes() == (tmp_path / "r.json").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["beside.json", "r.json", "u.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_a_fifo_output_receives_the_bytes_of_a_regular_file(tmp_path, capsys):
    # the CSV is larger than a pipe's buffer, so the write blocks until the reader drains it
    assert run([*SOLVE, "--out", str(tmp_path / "u.csv"), "--residual-out", str(tmp_path / "r.json")]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    try:
        code = run([*SOLVE, "--out", str(fifo), "--residual-out", str(tmp_path / "beside.json")])
    finally:  # a run that never opened the FIFO leaves the reader blocked in open: open and close it for writing
        with contextlib.suppress(OSError):
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=60)
    assert code == 0 and not reader.is_alive()
    assert capsys.readouterr() == ("", "")
    assert received == [(tmp_path / "u.csv").read_bytes()]
    assert (tmp_path / "beside.json").read_bytes() == (tmp_path / "r.json").read_bytes()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--example", "sinh", "--mode", "periodic"], "--example sinh runs only in ivp mode"),
        (["--example", "sinh", "--guess", "0", "0"], "--guess applies only in periodic mode"),
        (["--example", "e-ex", "--mode", "ivp", "--guess", "0", "0"], "--guess applies only in periodic mode"),
        (["--example", "e-ex", "--x0", "0.5"], "--x0 applies only in ivp mode"),
        (["--example", "e-ex", "--mode", "periodic", "--x0", "0.5"], "--x0 applies only in ivp mode"),
    ],
)
def test_reduce_rejects_flags_its_mode_does_not_use(flags, message, capsys):
    assert run(["reduce", *flags, "--steps", "20"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "ValueError", "message": message}
    assert captured.out == ""


@pytest.mark.parametrize("example, mode", [("sinh", "ivp"), ("e-ex", "periodic")])
def test_reduce_mode_defaults_by_example(example, mode, capsys):
    argv = ["reduce", "--example", example, "--steps", "20"]
    assert run(argv) == 0
    default = capsys.readouterr().out
    assert run([*argv, "--mode", mode]) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("module", ["refleq", "refleq.reduce", "refleq.chebyshev"])  # reduce's shooting and collocation are numpy-only
def test_import_loads_no_scipy_module(module):
    proc = _fresh_python("-c", f"import sys, {module}; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
