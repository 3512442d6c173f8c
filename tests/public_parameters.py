"""What the argument-table tests share, read only by tests.

public_parameters walks refleq's public callables for the completeness
guards of test_size_arguments, test_real_arguments and
test_array_arguments; counting and bracket are the user function and the
bracket their rows call.
"""

import enum
import importlib
import inspect

import numpy as np

from refleq.linsolve import GridFunction
from refleq.monotone import BracketOrdering, LowerUpperPair


def public_parameters(modules, names, dunders=()):
    """(qualified name, parameter) for each parameter in names of a public callable of the refleq modules named.

    A public callable is a function or class defined in its module whose
    name has no leading underscore, and the public methods of such a class
    together with those of its dunder methods named in dunders.  Enum
    classes are skipped: their signature is Enum's functional API.
    """
    found = set()
    for module in (importlib.import_module(f"refleq.{name}") for name in modules):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__ or not callable(obj):
                continue
            if inspect.isclass(obj) and issubclass(obj, enum.Enum):
                continue
            targets = [(name, obj)]
            if inspect.isclass(obj):
                methods = (k for k, v in vars(obj).items() if inspect.isfunction(v) or isinstance(v, (classmethod, staticmethod)))
                targets += [(f"{name}.{k}", getattr(obj, k)) for k in methods if not k.startswith("_") or k in dunders]
            for qualname, target in targets:
                try:
                    parameters = inspect.signature(target).parameters
                except (TypeError, ValueError):
                    continue
                found |= {(f"{module.__name__}.{qualname}", p) for p in parameters if p in names}
    return found


def counting():
    """A user function that returns zeros at the broadcast shape of its arguments, and the list of its calls."""
    calls = []

    def f(*args):
        calls.append(args)
        return np.zeros(np.broadcast(*args).shape)

    return f, calls


def bracket():
    """A valid bracket on 9 points of [-1, 1]: lower = 1 above upper = -1."""
    upper, lower = GridFunction(1.0, -np.ones(9)), GridFunction(1.0, np.ones(9))
    return LowerUpperPair(lower, upper, BracketOrdering.LOWER_ABOVE_UPPER)
