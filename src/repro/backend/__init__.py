"""Pluggable array-ops backends for the RNS/NTT hot path.

Every batched kernel the profiler ranks hot — elementwise modular
arithmetic, the Barrett-range reductions, the stacked Shoup
NTT/INTT sweeps, and the key-switch ``wide_dot`` inner product — is
expressed once against the :class:`ArrayBackend` interface and routed
through :func:`active_backend`. Selection, in priority order:

1. an explicit :func:`set_backend` / :func:`use_backend` call;
2. the ``REPRO_BACKEND`` environment variable (``numpy`` | ``numba`` |
   ``auto``);
3. the numpy reference backend.

Optional backends are probed lazily; an unavailable or
failing-``self_check`` choice falls back to numpy with a single
``RuntimeWarning`` — never an ImportError, and never silently-divergent
arithmetic: a backend only activates after proving bit-exact agreement
with numpy on a deterministic op battery.

See DESIGN.md §11 for the interface contract (canonical-value equality,
lazy-representative freedom, the (num_primes, ...) leading-axis layout).
"""

from __future__ import annotations

from .base import (
    AUTO_ORDER,
    BACKEND_ENV,
    ArrayBackend,
    BackendUnavailable,
    active_backend,
    available_backends,
    backend_name,
    backend_names,
    resolve_backend,
    set_backend,
    use_backend,
)
from .numpy_backend import NumpyBackend

__all__ = [
    "AUTO_ORDER",
    "BACKEND_ENV",
    "ArrayBackend",
    "BackendUnavailable",
    "NumpyBackend",
    "active_backend",
    "available_backends",
    "backend_name",
    "backend_names",
    "resolve_backend",
    "set_backend",
    "use_backend",
]
