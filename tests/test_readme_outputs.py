"""The README's CLI commands give byte-identical output.

Each command runs through refleq.cli.run in a fresh directory; the sha256
of its stdout and of every file it writes must match the digest recorded
for it.  A change that alters any of these bytes must say why and
re-record the digest.
"""

import contextlib
import hashlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

import refleq
from refleq.cli import _build_parser, run

#: (argv, {stdout or output file name: sha256})
README_COMMANDS = {
    "sign": (
        ["sign", "--m", "0.5", "--T", "1"],
        {"stdout": "0cfdf8c10d127504a356d5be3393e5d21769d45bf89997b18aed6282498c8d5a"},
    ),
    "kernel": (
        ["kernel", "--m", "0.7853981633974483", "--T", "1", "--grid", "101", "--out", "surface.csv"],
        {"surface.csv": "03cdd604b73e4cdd90d3dcd0ed40beb16862c5e48080e8f3bb50f83c60797cd5"},
    ),
    "solve": (
        ["solve", "--m", "1", "--T", "1", "--h", "const:1", "--n", "1000", "--out", "u.csv", "--residual-out", "r.json"],
        {
            "u.csv": "112d58f750e6a4bc2858226d07bc785fec5187f04c339d13e23886528bb0e234",
            "r.json": "36ae12a0d3e1ac5523f1da20e49b30dc83462acc41dd85c9c3e7c1a6522d4670",
        },
    ),
    "compare": (
        ["compare", "--m1", "0.3", "--m2", "0.7", "--T", "1", "--h", "const:1"],
        {"stdout": "21cbae746fb1e106cb29eb41968bd20dc36ea04818862b787fc22a884df9e3d3"},
    ),
    "reduce": (
        ["reduce", "--example", "e-ex", "--mode", "periodic", "--out", "traj.csv", "--verdict-out", "v.json"],
        {
            "traj.csv": "974c45808b154da807786c61b4b925c59a92e41474e27ccca9ca833af6a46511",
            "v.json": "7810533be2d01b3889e16e51e0d5f3bcb756b1705cfd4ebaab08bea351d26765",
        },
    ),
    "iterate": (
        ["iterate", "--example", "exa3", "--lambda", "0.1", "--max-iters", "60"],
        {"stdout": "5b15914f172f40ad2d792a03345526c8a94318fc98f3861ac912c04077d1d127"},
    ),
    "exists": (
        ["exists", "--example", "exa2", "--m", "0.5"],
        {"stdout": "3a49bddb46b5ec1d02d9787fd77d18d2f1f3a4288637e63744e4cc084108fe98"},
    ),
    "exists-annulus": (
        ["exists", "--example", "exa2", "--m", "0.5", "--r", "0.1", "--R", "10"],
        {"stdout": "76a77f32ba5257fed7f129b2273aab31c7b096e011b37cd6af9515e048232f24"},
    ),
    "exists-sweep": (
        ["exists", "--example", "exa2", "--m", "0.5", "--sweep"],
        {"stdout": "7145f1aac0152129a5380d3a42390606320e46e7833a630d09ed95ca74554059"},
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(argv, directory, monkeypatch, capsys) -> dict:
    """Run argv through cli.run in directory, which must be empty; the sha256 of its stdout and files."""
    monkeypatch.chdir(directory)
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    got = {path.name: sha256(path.read_bytes()) for path in directory.iterdir()}
    if captured.out:
        got["stdout"] = sha256(captured.out.encode())
    return got


@pytest.mark.parametrize("name", list(README_COMMANDS))
def test_readme_command_output_is_unchanged(name, tmp_path, monkeypatch, capsys):
    argv, digests = README_COMMANDS[name]
    assert output_digests(argv, tmp_path, monkeypatch, capsys) == digests


def test_one_parser_serves_every_command(tmp_path, monkeypatch, capsys):
    # cli.run builds its parser once per process; no command, order, usage
    # error or help request may leave state in it that changes an output
    assert _build_parser() is _build_parser()
    names = list(README_COMMANDS)

    def run_all(order, label):
        for name in order:
            directory = tmp_path / f"{label}-{name}"
            directory.mkdir()
            argv, digests = README_COMMANDS[name]
            assert output_digests(argv, directory, monkeypatch, capsys) == digests, (label, name)

    run_all(names, "forward")
    run_all(names[::-1], "reversed")
    assert run(["sign", "--m", "0.5", "--T", "1", "--bogus"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "ArgumentError" and captured.out == ""
    run_all(names, "after-error")
    for argv in (["--help"], ["kernel", "--help"]):
        assert run(argv) == 0
        assert capsys.readouterr().out.startswith("usage: refleq")
    run_all(names[::-1], "after-help")


def test_every_readme_cli_example_has_a_recorded_digest():
    # a README edit must not leave the digests testing commands it no longer shows
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## CLI examples\n\n```\n(.*?)```", readme, re.DOTALL | re.MULTILINE)
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("refleq ")]
    assert lines
    recorded = [argv for argv, _ in README_COMMANDS.values()]
    for _, *argv in lines:
        assert argv in recorded, argv


def test_readme_library_example_runs():
    # the README's only python block: it imports the whole top-level
    # namespace and prints the residual its comment quotes
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    (names,) = re.findall(r"^from refleq import (.*)$", block, re.MULTILINE)
    assert sorted(refleq.__all__) == sorted(names.split(", "))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert float(out.getvalue()) < 1e-6
