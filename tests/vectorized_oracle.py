"""linsolve.vectorized from before its same-shape fast path, kept as a test oracle.

It computes the broadcast shape of the arguments before it calls f, and
returns f's result only when its shape is that one.  The library's wrapper
calls f first and returns a result of every argument's shape without
broadcasting; on broadcastable arguments the two must agree in value,
dtype, shape and in the class and message of what they raise.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from refleq.errors import NonFinite, QuadratureFailure, RefleqError


def vectorized(f: Callable) -> Callable:
    """Wrap f so it maps broadcastable arrays elementwise to a float array."""

    def call(*args):
        shape = np.broadcast(*args).shape
        try:
            try:
                out = np.asarray(f(*args), dtype=float)
                return out if out.shape == shape else np.array(np.broadcast_to(out, shape))
            except (TypeError, ValueError):
                cols = [np.ravel(a) for a in np.broadcast_arrays(*args)]
                return np.array(list(map(f, *cols)), dtype=float).reshape(shape)
        except (RefleqError, MemoryError):
            raise
        except OverflowError as exc:
            raise NonFinite(f"forcing evaluation overflowed: {exc}") from exc
        except Exception as exc:  # noqa: BLE001 - surfaced with context
            raise QuadratureFailure(f"forcing evaluation failed: {exc}") from exc

    return call
