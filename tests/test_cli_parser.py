"""The refleq parser accepts the same flags and parses them to the same values.

PARENT_ACTIONS records every subcommand's actions, keyed by dest, as
(option strings, type, default, required, choices, help, nargs, metavar),
and PARENT_NAMESPACES the parsed namespace of each README command, both as
the parser gave them when every subcommand declared its own flags.  They
are compared as mappings: a flag shared through parents= comes first in
its subcommand.
"""

import argparse

import pytest
from test_readme_outputs import README_COMMANDS

from refleq.cli import _build_parser

PARENT_HELPS = {
    "kernel": "dump a kernel surface as CSV t,s,value",
    "sign": "sign classification of the reflection kernel",
    "resonance": "eigenvalue / resonance verdict",
    "solve": "solve the linear problem; CSV solution + residual JSON",
    "compare": "pointwise ordering of two coefficients",
    "reduce": "integrate a reduced system and filter the result",
    "iterate": "monotone lower/upper iteration",
    "exists": "cone existence hypothesis checks",
}

PARENT_ACTIONS = {
    "kernel": {
        "help": (("-h", "--help"), None, argparse.SUPPRESS, False, None, "show this help message and exit", 0, None),
        "m": (("--m",), float, None, True, None, None, None, None),
        "T": (("--T",), float, None, True, None, None, None, None),
        "grid": (("--grid",), int, 101, False, None, None, None, None),
        "which": (("--which",), None, "Gbar", False, ["G", "Gbar"], None, None, None),
        "out": (("--out",), None, None, False, None, None, None, None),
    },
    "sign": {
        "help": (("-h", "--help"), None, argparse.SUPPRESS, False, None, "show this help message and exit", 0, None),
        "m": (("--m",), float, None, True, None, None, None, None),
        "T": (("--T",), float, None, True, None, None, None, None),
        "grid": (("--grid",), int, 201, False, None, None, None, None),
        "out": (("--out",), None, None, False, None, None, None, None),
    },
    "resonance": {
        "help": (("-h", "--help"), None, argparse.SUPPRESS, False, None, "show this help message and exit", 0, None),
        "m": (("--m",), float, None, True, None, None, None, None),
        "T": (("--T",), float, None, True, None, None, None, None),
        "out": (("--out",), None, None, False, None, None, None, None),
    },
    "solve": {
        "help": (("-h", "--help"), None, argparse.SUPPRESS, False, None, "show this help message and exit", 0, None),
        "m": (("--m",), float, None, True, None, None, None, None),
        "T": (("--T",), float, None, True, None, None, None, None),
        "h": (("--h",), None, None, True, None, "forcing id (const:<v>, zero, cos, sin, cos_minus_sin)", None, None),
        "lam": (("--lambda",), float, 0.0, False, None, "boundary jump x(-T)-x(T)", None, None),
        "n": (("--n",), int, 1000, False, None, "output grid subintervals (even)", None, None),
        "n_quad": (("--n-quad",), int, 2000, False, None, None, None, None),
        "out": (("--out",), None, None, False, None, "solution CSV path (stdout if omitted)", None, None),
        "residual_out": (("--residual-out",), None, None, False, None, "residual JSON path (stdout if omitted)", None, None),
    },
    "compare": {
        "help": (("-h", "--help"), None, argparse.SUPPRESS, False, None, "show this help message and exit", 0, None),
        "m1": (("--m1",), float, None, True, None, None, None, None),
        "m2": (("--m2",), float, None, True, None, None, None, None),
        "T": (("--T",), float, None, True, None, None, None, None),
        "h": (("--h",), None, "const:1", False, None, None, None, None),
        "n": (("--n",), int, 200, False, None, None, None, None),
        "grid": (("--grid",), int, 201, False, None, None, None, None),
        "out": (("--out",), None, None, False, None, None, None, None),
    },
    "reduce": {
        "help": (("-h", "--help"), None, argparse.SUPPRESS, False, None, "show this help message and exit", 0, None),
        "example": (("--example",), None, None, True, ["e-ex", "sinh"], None, None, None),
        "mode": (("--mode",), None, None, False, ["periodic", "ivp"], "default: periodic for e-ex, ivp for sinh", None, None),
        "T": (("--T",), float, 1.0, False, None, None, None, None),
        "x0": (("--x0",), float, None, False, None, "initial value (ivp mode, default 0.5)", None, None),
        "guess": (("--guess",), float, None, False, None, "periodic mode, default 0 0", 2, ("A", "B")),
        "steps": (("--steps",), int, 2000, False, None, None, None, None),
        "tol": (("--tol",), float, 1e-08, False, None, "filter tolerance", None, None),
        "out": (("--out",), None, None, False, None, "trajectory CSV path (stdout if omitted)", None, None),
        "verdict_out": (("--verdict-out",), None, None, False, None, "filter verdict JSON path", None, None),
    },
    "iterate": {
        "help": (("-h", "--help"), None, argparse.SUPPRESS, False, None, "show this help message and exit", 0, None),
        "example": (("--example",), None, None, True, ["exa3"], None, None, None),
        "lam": (("--lambda",), float, 0.1, False, None, None, None, None),
        "m": (("--m",), float, 0.7853981633974483, False, None, None, None, None),
        "T": (("--T",), float, 1.0, False, None, None, None, None),
        "n": (("--n",), int, 256, False, None, None, None, None),
        "tol": (("--tol",), float, 1e-08, False, None, None, None, None),
        "max_iters": (("--max-iters",), int, 60, False, None, None, None, None),
        "out": (("--out",), None, None, False, None, None, None, None),
    },
    "exists": {
        "help": (("-h", "--help"), None, argparse.SUPPRESS, False, None, "show this help message and exit", 0, None),
        "example": (("--example",), None, None, True, ["exa2"], None, None, None),
        "m": (("--m",), float, 0.5, False, None, None, None, None),
        "T": (("--T",), float, 1.0, False, None, None, None, None),
        "r": (("--r",), float, None, False, None, None, None, None),
        "R": (("--R",), float, None, False, None, None, None, None),
        "cone": (("--cone",), None, "positive", False, ["positive", "negative"], None, None, None),
        "sweep": (("--sweep",), None, False, False, None, "scan a log-spaced (r, R) lattice", 0, None),
        "branch": (("--branch",), int, None, False, [1, 2], None, None, None),
        "density": (("--density",), int, None, False, None, "lattice points per axis (default 21; not in asymptotic mode)", None, None),
        "out": (("--out",), None, None, False, None, None, None, None),
    },
}

PARENT_NAMESPACES = {
    "sign": {"cmd": "sign", "m": 0.5, "T": 1.0, "grid": 201, "out": None},
    "kernel": {"cmd": "kernel", "m": 0.7853981633974483, "T": 1.0, "grid": 101, "which": "Gbar", "out": "surface.csv"},
    "solve": {"cmd": "solve", "m": 1.0, "T": 1.0, "h": "const:1", "lam": 0.0, "n": 1000, "n_quad": 2000, "out": "u.csv", "residual_out": "r.json"},
    "compare": {"cmd": "compare", "m1": 0.3, "m2": 0.7, "T": 1.0, "h": "const:1", "n": 200, "grid": 201, "out": None},
    "reduce": {"cmd": "reduce", "example": "e-ex", "mode": "periodic", "T": 1.0, "x0": None, "guess": None, "steps": 2000, "tol": 1e-08, "out": "traj.csv", "verdict_out": "v.json"},
    "iterate": {"cmd": "iterate", "example": "exa3", "lam": 0.1, "m": 0.7853981633974483, "T": 1.0, "n": 256, "tol": 1e-08, "max_iters": 60, "out": None},
    "exists": {"cmd": "exists", "example": "exa2", "m": 0.5, "T": 1.0, "r": None, "R": None, "cone": "positive", "sweep": False, "branch": None, "density": None, "out": None},
    "exists-annulus": {"cmd": "exists", "example": "exa2", "m": 0.5, "T": 1.0, "r": 0.1, "R": 10.0, "cone": "positive", "sweep": False, "branch": None, "density": None, "out": None},
    "exists-sweep": {"cmd": "exists", "example": "exa2", "m": 0.5, "T": 1.0, "r": None, "R": None, "cone": "positive", "sweep": True, "branch": None, "density": None, "out": None},
}


def _subcommands():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


def test_every_subcommand_has_its_recorded_help():
    assert {a.dest: a.help for a in _subcommands()._choices_actions} == PARENT_HELPS


@pytest.mark.parametrize("name", list(PARENT_ACTIONS))
def test_subcommand_actions_are_unchanged(name):
    parser = _subcommands().choices[name]
    got = {
        a.dest: (tuple(a.option_strings), a.type, a.default, a.required, a.choices and list(a.choices), a.help, a.nargs, a.metavar)
        for a in parser._actions
    }
    assert got == PARENT_ACTIONS[name]
    assert len(parser._actions) == len(got)  # no two actions share a dest


@pytest.mark.parametrize("name", list(README_COMMANDS))
def test_readme_command_parses_to_the_recorded_namespace(name):
    argv, _ = README_COMMANDS[name]
    assert vars(_build_parser().parse_args(argv)) == PARENT_NAMESPACES[name]
