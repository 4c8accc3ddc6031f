"""The numpy kernels of the RNS/NTT hot path.

Every batched kernel the profiler ranks hot — elementwise modular
arithmetic, the Barrett-range reductions, the stacked GEMM four-step
NTT/INTT and the key-switch ``wide_dot`` inner product — is a method of
:class:`NumpyBackend`. Callers reach it through :func:`active_backend`,
which returns one module-level instance: per-layer profilers wrap its
methods on that instance, so every hot call goes through it (DESIGN.md
§11).
"""

from __future__ import annotations

from .numpy_backend import NumpyBackend

_BACKEND = NumpyBackend()


def active_backend() -> NumpyBackend:
    """The one kernel instance every hot path dispatches through."""
    return _BACKEND


def backend_name() -> str:
    """Name of the kernel set, as benchmark host records report it."""
    return "numpy"


__all__ = ["NumpyBackend", "active_backend", "backend_name"]
