"""The declarative tuning-knob registry (DESIGN.md §14).

Every layer of the stack exposes performance/co-design knobs — ``dnum``
in the CKKS parameters, ``fft_factored``/``fuse`` in the bootstrap,
NTT variant and launch geometry, the GPU machine model, lowering style,
batch size.  Before this module they were smeared
across constructors as ad-hoc kwargs whose defaults were duplicated (and
drifted — the schedule layer's ``fuse`` default diverged from
``BootstrapConfig``'s once already).  Now each owning module *declares*
its knobs here at import time::

    register_knob(KnobSpec(
        name="boot.fuse", layer="ckks", domain=IntRange(1, 8), default=1,
        doc="Level-collapse this many adjacent FFT radix factors.",
        observe=lambda pipe: pipe.boot_config.fuse,
    ))

and reads its own defaults back through :func:`knob_default` — one
source of truth, so two layers can never disagree about a default again
(:func:`overriding_default` lets tests prove it).  A flat
:class:`~repro.tuning.config.TuningConfig` assignment over these names
materializes a fully configured stack via
:func:`~repro.tuning.config.build_pipeline`, and :mod:`repro.gym`
searches the registry's domains as its action space.

This module is import-cycle-free by construction: it depends on nothing
inside :mod:`repro`, while the declaring modules import only this file.
Registry accessors lazily import the declaring modules
(:func:`ensure_registered`) so the registry is complete no matter which
corner of the library was imported first.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

#: Modules that declare knobs at import time.  Only the *names* live
#: here — every domain and default is owned by the declaring module.
DECLARING_MODULES: Tuple[str, ...] = (
    "repro.ckks.params",
    "repro.ckks.bootstrap",
    "repro.workloads.recorded",
    "repro.core.kernels",
    "repro.core.ntt_engine",
    "repro.gpusim.device",
    "repro.trace.lowering",
    "repro.serving.simulator",
)


class UnknownKnob(KeyError):
    """Lookup of a knob name no layer declared."""


class KnobDomainError(ValueError):
    """A knob assignment outside its declared domain."""


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


class Domain:
    """Value domain of one knob: membership plus a finite search grid."""

    def contains(self, value: Any) -> bool:
        raise NotImplementedError

    def points(self) -> Tuple[Any, ...]:
        """Finite, ordered grid the gym searches over (a subset of the
        domain; membership is *not* limited to these points)."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Choice(Domain):
    """An explicit finite set of admissible values."""

    values: Tuple[Any, ...]

    def contains(self, value: Any) -> bool:
        return value in self.values

    def points(self) -> Tuple[Any, ...]:
        return self.values

    def describe(self) -> str:
        return "{" + ", ".join(repr(v) for v in self.values) + "}"


@dataclass(frozen=True)
class Boolean(Domain):
    """``False``/``True`` (kept distinct from ``Choice`` so tooling can
    render flags as flags)."""

    def contains(self, value: Any) -> bool:
        return isinstance(value, bool)

    def points(self) -> Tuple[Any, ...]:
        return (False, True)

    def describe(self) -> str:
        return "{False, True}"


@dataclass(frozen=True)
class IntRange(Domain):
    """Integers in ``[lo, hi]``; ``optional=True`` also admits ``None``
    (the "inherit from the owning layer" sentinel).

    ``grid`` overrides the search points; without it small ranges
    enumerate and wide ones take a power-of-two-ish subsample.
    """

    lo: int
    hi: int
    optional: bool = False
    grid: Optional[Tuple[int, ...]] = None

    def contains(self, value: Any) -> bool:
        if value is None:
            return self.optional
        return (isinstance(value, int) and not isinstance(value, bool)
                and self.lo <= value <= self.hi)

    def points(self) -> Tuple[Any, ...]:
        if self.grid is not None:
            pts: Tuple[Any, ...] = self.grid
        elif self.hi - self.lo <= 16:
            pts = tuple(range(self.lo, self.hi + 1))
        else:
            v, pts_list = self.lo, []
            while v < self.hi:
                pts_list.append(v)
                v = max(v + 1, v * 2)
            pts_list.append(self.hi)
            pts = tuple(pts_list)
        return ((None,) + pts) if self.optional else pts

    def describe(self) -> str:
        opt = " | None" if self.optional else ""
        return f"[{self.lo}, {self.hi}]{opt}"


@dataclass(frozen=True)
class FloatRange(Domain):
    """Floats in ``[lo, hi]``; integers coerce (``6`` is a fine 6.0)."""

    lo: float
    hi: float
    grid: Optional[Tuple[float, ...]] = None

    def contains(self, value: Any) -> bool:
        return (isinstance(value, (int, float))
                and not isinstance(value, bool)
                and self.lo <= float(value) <= self.hi)

    def points(self) -> Tuple[Any, ...]:
        if self.grid is not None:
            return self.grid
        mid = (self.lo + self.hi) / 2.0
        return (self.lo, mid, self.hi)

    def describe(self) -> str:
        return f"[{self.lo}, {self.hi}]"


# ---------------------------------------------------------------------------
# KnobSpec + registry
# ---------------------------------------------------------------------------


@dataclass
class KnobSpec:
    """One declared tuning knob.

    ``observe`` maps a built :class:`~repro.tuning.config.Pipeline` back
    to the value this knob materialized as — the round-trip contract the
    property suite checks for every registered knob: assigning an
    in-domain, non-``None`` value must be observable on the built object.
    """

    name: str
    layer: str
    domain: Domain
    doc: str
    default: Any = None
    observe: Optional[Callable[[Any], Any]] = None

    def resolve_default(self) -> Any:
        if self.name in _DEFAULT_OVERRIDES:
            return _DEFAULT_OVERRIDES[self.name]
        return self.default

    def validate(self, value: Any) -> Any:
        if not self.domain.contains(value):
            raise KnobDomainError(
                f"knob {self.name!r} ({self.layer}): value {value!r} "
                f"outside domain {self.domain.describe()}"
            )
        return value


_REGISTRY: Dict[str, KnobSpec] = {}
_DEFAULT_OVERRIDES: Dict[str, Any] = {}
_ensured = False


def register_knob(spec: KnobSpec) -> KnobSpec:
    """Declare (or re-declare, on module reload) one knob.

    A re-declaration must come from the same layer — two layers claiming
    one name is exactly the default-duplication this registry exists to
    kill, so it raises.
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.layer != spec.layer:
        raise ValueError(
            f"knob {spec.name!r} already declared by layer "
            f"{existing.layer!r}; {spec.layer!r} must not redeclare it"
        )
    spec.validate(spec.default)
    _REGISTRY[spec.name] = spec
    return spec


def ensure_registered() -> None:
    """Import every declaring module once so the registry is complete."""
    global _ensured
    if _ensured:
        return
    _ensured = True
    for module in DECLARING_MODULES:
        importlib.import_module(module)


def all_knobs() -> Dict[str, KnobSpec]:
    """Name -> spec for every declared knob, in declaration order."""
    ensure_registered()
    return dict(_REGISTRY)


def knob(name: str) -> KnobSpec:
    ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownKnob(
            f"unknown knob {name!r}; declared knobs: {known}"
        ) from None


def knob_default(name: str) -> Any:
    """The single source of truth for a knob's default value.

    Layer code reads its own defaults through this call (never a literal
    copy), so every consumer — ``BootstrapConfig``, the recorded
    bootstrap, ``build_pipeline`` — agrees by construction.
    """
    spec = _REGISTRY.get(name)
    if spec is not None:  # fast path: declaring module already imported
        return spec.resolve_default()
    return knob(name).resolve_default()


def defaults() -> Dict[str, Any]:
    """Flat default assignment over every registered knob."""
    return {name: spec.resolve_default()
            for name, spec in all_knobs().items()}


@contextmanager
def overriding_default(name: str, value: Any) -> Iterator[None]:
    """Temporarily override one knob's default (tests only).

    The no-drift regression tests use this to prove every consumer of a
    default reads the registry: override it, observe *all* layers move.
    """
    spec = knob(name)
    spec.validate(value)
    had, old = name in _DEFAULT_OVERRIDES, _DEFAULT_OVERRIDES.get(name)
    _DEFAULT_OVERRIDES[name] = value
    try:
        yield
    finally:
        if had:
            _DEFAULT_OVERRIDES[name] = old
        else:
            _DEFAULT_OVERRIDES.pop(name, None)


def render_registry() -> str:
    """Human-readable knob table (the ``python -m repro.gym --knobs``
    output)."""
    rows = []
    for name, spec in all_knobs().items():
        rows.append(
            f"{name:32s} {spec.layer:10s} "
            f"default={spec.resolve_default()!r:12} "
            f"domain={spec.domain.describe()}"
        )
    return "\n".join(rows)
