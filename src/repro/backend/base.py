"""Array-ops backend interface and selection machinery.

The batched RNS engine's hot kernels — row-wise modular arithmetic,
Barrett-range reductions, the stacked NTT/INTT and the key-switch
wide-accumulator inner product — are all
*array programs*: dense passes over ``(num_primes, ...)`` uint64 tensors
with per-row constants. This module defines the small interface those
programs are written against, so the whole hot path can switch between

* the **numpy** reference backend (always available, the default), and
* a **numba** backend that JIT-fuses the reduce chains, radix-2 NTT
  butterfly sweeps and ``wide_dot`` into single compiled kernels
  (LibFHE shows CUDA-Python FHE via Numba is viable for exactly these
  kernel shapes),

with one environment variable (``REPRO_BACKEND``) or one call
(:func:`set_backend`). Optional backends import lazily and *gracefully*:
a requested backend that is not importable, or that fails its
bit-exactness self-check against numpy, falls back to numpy with a
single warning — no code path in this library may hard-require numba.

Contract
--------
Backends must agree on **values**, not instruction sequences: every
method returns the same canonical residues the numpy reference returns,
bit for bit (asserted by ``self_check`` and by the parity test suite).
The one representational freedom is ``lazy=True`` NTT outputs, whose
representatives are backend-specific but always congruent mod ``q`` and
below ``2**32`` — exactly what their only consumers (``wide_dot``, the
stacked inner product) accept.
"""

from __future__ import annotations

import importlib.util
import os
import warnings
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..analysis.annotations import bounded

#: Environment variable naming the backend to use (read once, at first
#: :func:`active_backend` call): ``numpy`` | ``numba`` | ``auto``.
#: ``auto`` picks the first available of numba > numpy.
#: Deprecated: prefer the declared ``backend`` knob in ``repro.tuning``
#: (the env var stays honored as that knob's default source).
BACKEND_ENV = "REPRO_BACKEND"

#: Selection order tried by ``auto`` (most to least accelerated).
AUTO_ORDER = ("numba", "numpy")

# -- declared tuning knobs (DESIGN.md §14) ----------------------------------

from ..tuning.knobs import Choice, KnobSpec, \
    register_knob  # noqa: E402


def _backend_default() -> str:
    """Default backend name: the (deprecated) env var, else numpy.

    Garbage env values degrade to ``numpy`` here so the knob default is
    always in-domain; :func:`resolve_backend` still warns when an
    explicitly requested backend turns out unavailable.
    """
    value = os.environ.get(BACKEND_ENV, "numpy").strip().lower() or "numpy"
    return value if value in ("auto", *_FACTORIES) else "numpy"


register_knob(KnobSpec(
    name="backend", layer="backend",
    domain=Choice(("auto", "numpy", "numba")),
    default_factory=_backend_default,
    doc="Array-ops backend the functional engine dispatches through "
        "(``auto`` takes the first available of numba > numpy).",
    observe=lambda pipe: pipe.backend,
))


class BackendUnavailable(RuntimeError):
    """The requested backend cannot be constructed on this machine."""


class ArrayBackend:
    """Abstract array-ops backend.

    All array arguments are uint64 with the prime index on axis 0;
    per-row moduli ``q`` arrive as 1-D ``(num_primes,)``
    uint64 arrays. Methods must return canonical residues (``< q`` per
    row) and never mutate their inputs unless documented otherwise.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    # ---- elementwise modular arithmetic ---------------------------------

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mod_add(self, a: np.ndarray, b: np.ndarray,
                q: np.ndarray) -> np.ndarray:
        """Row-wise ``a + b mod q_i`` for entries below ``q_i``."""
        raise NotImplementedError

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mod_sub(self, a: np.ndarray, b: np.ndarray,
                q: np.ndarray) -> np.ndarray:
        """Row-wise ``a - b mod q_i`` for entries below ``q_i``."""
        raise NotImplementedError

    @bounded(assume=True, params={"a": {"q": 1}}, out_q=1)
    def mod_neg(self, a: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Row-wise ``-a mod q_i`` for entries below ``q_i``."""
        raise NotImplementedError

    @bounded(assume=True, params={"t": {"ubound": 1 << 63}}, out_q=1)
    def mod_reduce(self, t: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Row-wise ``t mod q_i`` for any uint64 ``t`` (the Barrett-range
        reduce: callers feed products below ``q_i**2`` plus slack)."""
        raise NotImplementedError

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mod_mul(self, a: np.ndarray, b: np.ndarray,
                q: np.ndarray) -> np.ndarray:
        """Row-wise ``a * b mod q_i`` for entries below ``q_i``; operands
        broadcast against each other (numpy rules)."""
        raise NotImplementedError

    # ---- fused transform kernels ----------------------------------------

    @bounded(assume=True, in_bits=32, out_q=1, out_q_lazy=2,
             params={"x": {"bits": 32}})
    def ntt_forward(self, x: np.ndarray, stack, *,
                    lazy: bool = False) -> np.ndarray:
        """Forward stacked negacyclic NTT of a ``(P, G, N)`` digit batch.

        ``stack`` is a :class:`repro.ntt.stacked.ShoupStack` (duck-typed:
        only its tables are read). Accepts lazy inputs ``< 2**32``;
        returns canonical values, or (allowed, not required) backend-
        specific lazy representatives ``< 2q`` when ``lazy=True``.
        """
        raise NotImplementedError

    @bounded(assume=True, in_q=2, out_q=1, params={"x": {"q": 2}})
    def ntt_inverse(self, x: np.ndarray, stack) -> np.ndarray:
        """Inverse stacked negacyclic NTT of a ``(P, G, N)`` batch
        (inputs ``< 2q``, canonical output)."""
        raise NotImplementedError

    @bounded(assume=True, out_q=1, max_lanes=1 << 20,
             params={"ext": {"bits": 32}, "rows": {"q": 1}})
    def wide_dot(self, ext: np.ndarray, rows: np.ndarray,
                 q: np.ndarray) -> np.ndarray:
        """``sum_g ext[..., g, :] * rows[..., g, :] mod q_i`` reduced over
        the digit axis ``-2`` without per-digit reduction. ``rows`` must
        be canonical; ``ext`` may hold any representatives below
        ``2**32``. Canonical output."""
        raise NotImplementedError

    # ---- lifecycle -------------------------------------------------------

    def self_check(self) -> None:
        """Assert bit-exactness against the numpy reference backend.

        Runs every interface method on small deterministic inputs and
        compares with :class:`~repro.backend.numpy_backend.NumpyBackend`.
        Raises :class:`BackendUnavailable` on any mismatch — selection
        then falls back to numpy, so a miscompiled or subtly wrong
        accelerated backend can never corrupt ciphertexts silently.
        """
        from .numpy_backend import NumpyBackend

        ref = NumpyBackend()
        if type(self) is NumpyBackend:
            return
        rng = np.random.default_rng(0xC0FFEE)
        # 30-bit NTT-friendly primes for ring degree 64 (q = 1 mod 128),
        # so the ShoupStack checks below can build real twiddle tables.
        moduli = np.array([1073741441, 1073739649, 1073738753],
                          dtype=np.uint64)
        n = 64
        a = np.stack([rng.integers(0, q, size=n, dtype=np.uint64)
                      for q in moduli])
        b = np.stack([rng.integers(0, q, size=n, dtype=np.uint64)
                      for q in moduli])
        t = np.stack([rng.integers(0, int(q) * int(q), size=n,
                                   dtype=np.uint64) for q in moduli])
        checks = [
            ("mod_add", lambda be: be.mod_add(a, b, moduli)),
            ("mod_sub", lambda be: be.mod_sub(a, b, moduli)),
            ("mod_neg", lambda be: be.mod_neg(a, moduli)),
            ("mod_reduce", lambda be: be.mod_reduce(t, moduli)),
            ("mod_mul", lambda be: be.mod_mul(a, b, moduli)),
        ]
        # NTT checks need a ShoupStack; import lazily (repro.ntt imports
        # this package, so the import must not run at module load).
        from ..ntt.stacked import get_shoup_stack

        stack = get_shoup_stack(tuple(int(q) for q in moduli), n)
        batch = np.stack([a, b], axis=1)  # (P, 2, n)
        checks += [
            ("ntt_forward", lambda be: be.ntt_forward(batch, stack)),
            ("ntt_roundtrip",
             lambda be: be.ntt_inverse(be.ntt_forward(batch, stack),
                                       stack)),
            ("wide_dot",
             lambda be: be.wide_dot(batch, np.stack([b, a], axis=1),
                                    moduli)),
        ]
        # A non-square ring (n = 128 splits 8 x 16 in the GEMM four-step)
        # at the input ceilings: lazy forward inputs at 2**32 - 1, inverse
        # inputs at 2q - 1. Lazy outputs compare by residue.
        from ..numtheory import find_ntt_primes

        wide = get_shoup_stack(tuple(find_ntt_primes(3, 31, 128)), 128)
        q_col = wide.q[:, None, None]
        top = np.full((3, 2, 128), (1 << 32) - 1, dtype=np.uint64)
        edge = np.broadcast_to(2 * q_col - 1, top.shape)
        checks += [
            ("ntt_forward_8x16_top",
             lambda be: be.ntt_forward(top, wide, lazy=True) % q_col),
            ("ntt_inverse_8x16_edge",
             lambda be: be.ntt_inverse(edge, wide)),
        ]
        for label, fn in checks:
            got = np.asarray(fn(self))
            want = fn(ref)
            if not np.array_equal(got, want):
                raise BackendUnavailable(
                    f"backend {self.name!r} failed its bit-exactness "
                    f"self-check on {label}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r}>"


# ---- registry and selection ---------------------------------------------

def _make_numpy() -> ArrayBackend:
    from .numpy_backend import NumpyBackend

    return NumpyBackend()


def _make_numba() -> ArrayBackend:
    if importlib.util.find_spec("numba") is None:
        raise BackendUnavailable("numba is not importable")
    from .numba_backend import NumbaBackend

    return NumbaBackend()


_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {
    "numpy": _make_numpy,
    "numba": _make_numba,
}

_active: Optional[ArrayBackend] = None


def backend_names() -> List[str]:
    """Registered backend names (available or not)."""
    return sorted(_FACTORIES)


def available_backends() -> Dict[str, bool]:
    """Importability of each registered backend (no construction, no
    JIT warm-up — just the module probe)."""
    return {
        "numpy": True,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def _construct(name: str, *, verify: bool = True) -> ArrayBackend:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise BackendUnavailable(
            f"unknown backend {name!r}; choose from {backend_names()}"
        ) from None
    backend = factory()
    if verify:
        backend.self_check()
    return backend


def resolve_backend(name: Optional[str] = None) -> ArrayBackend:
    """Construct the backend ``name`` (or the env-var/auto choice),
    falling back to numpy with one warning when unavailable.

    Selection order: an explicit ``name`` argument wins, then the
    ``backend`` knob default (which reads the deprecated
    ``REPRO_BACKEND`` environment variable), then ``numpy``. The special
    name ``auto`` walks :data:`AUTO_ORDER` and takes the first backend
    that constructs and passes its self-check.
    """
    from ..tuning.knobs import knob_default

    requested = name or knob_default("backend")
    requested = requested.strip().lower() or "numpy"
    if requested == "auto":
        for candidate in AUTO_ORDER:
            try:
                return _construct(candidate)
            except BackendUnavailable:
                continue
        return _construct("numpy")
    try:
        return _construct(requested)
    except BackendUnavailable as exc:
        if requested != "numpy":
            warnings.warn(
                f"repro backend {requested!r} unavailable ({exc}); "
                f"falling back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
            return _construct("numpy")
        raise


def active_backend() -> ArrayBackend:
    """The process-wide backend every hot kernel dispatches through.

    Resolved lazily from ``REPRO_BACKEND`` on first use; override with
    :func:`set_backend` / :func:`use_backend`.
    """
    global _active
    if _active is None:
        _active = resolve_backend()
    return _active


def set_backend(backend: Union[str, ArrayBackend, None]) -> ArrayBackend:
    """Install ``backend`` (a name or an instance) as the active backend.

    ``None`` resets to the environment-variable default. Returns the
    backend actually installed (which may be the numpy fallback).
    """
    global _active
    if backend is None:
        _active = resolve_backend()
    elif isinstance(backend, ArrayBackend):
        _active = backend
    else:
        _active = resolve_backend(backend)
    return _active


@contextmanager
def use_backend(backend: Union[str, ArrayBackend]):
    """Context manager: temporarily switch the active backend.

    Yields the installed backend (after fallback resolution), then
    restores the previous one — the bench harness and the parity tests
    flip backends per measurement with this.
    """
    global _active
    previous = active_backend()
    installed = set_backend(backend)
    try:
        yield installed
    finally:
        _active = previous


def backend_name() -> str:
    """Name of the currently active backend."""
    return active_backend().name
