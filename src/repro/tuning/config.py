"""Flat tuning configuration -> fully materialized pipeline.

A :class:`TuningConfig` is a flat assignment over the declared knob
names (see :mod:`repro.tuning.knobs`); :func:`build_pipeline` turns it
into one complete, consistent stack — CKKS parameters, bootstrap
config, GPU machine model, launch geometry, NTT variant and an
:class:`~repro.core.scheduler.OperationScheduler` wired from all of
them — in a single call.  Unassigned knobs resolve to their declaring
layer's default, so ``build_pipeline()`` with no arguments is exactly
the stack every example in this repo used to construct by hand.

Validation happens in two stages, both at build time:

* declared-domain checks (:meth:`TuningConfig.validate`) raise
  :class:`~repro.tuning.knobs.KnobDomainError` for any assignment
  outside its knob's domain;
* cross-knob constraints are delegated to the owning layers — e.g. an
  explicit ``ckks.dnum`` is re-checked against the chosen set's
  ``[1, L+1]`` bound by ``CkksParams.__post_init__``.

``to_dict()`` snapshots the *effective* assignment (every knob, default
or not); feeding that snapshot back through :meth:`TuningConfig.from_dict`
rebuilds a pipeline that prices bit-identically — the reproducibility
contract the gym's trajectory logs rely on.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from .knobs import all_knobs, ensure_registered, knob, knob_default

__all__ = ["TuningConfig", "Pipeline", "build_pipeline"]


class TuningConfig:
    """An immutable flat assignment ``knob name -> value``.

    Unknown names raise :class:`~repro.tuning.knobs.UnknownKnob`
    immediately; domain membership is checked by :meth:`validate`
    (called from :func:`build_pipeline`), so a config object can hold a
    tentative out-of-domain point but can never be *built*.
    """

    __slots__ = ("_assignments",)

    def __init__(self, assignments: Optional[Mapping[str, Any]] = None,
                 **kwargs: Any):
        merged: Dict[str, Any] = dict(assignments or {})
        merged.update(kwargs)
        for name in merged:
            knob(name)  # raises UnknownKnob with the declared-name list
        object.__setattr__(self, "_assignments", dict(merged))

    # -- mapping-ish access ------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        return self.value(name)

    def value(self, name: str) -> Any:
        """The effective value of ``name``: explicit assignment if
        present, else the declaring layer's (possibly env-derived)
        default."""
        if name in self._assignments:
            return self._assignments[name]
        return knob_default(name)

    @property
    def explicit(self) -> Dict[str, Any]:
        """Only the explicitly assigned knobs (a copy)."""
        return dict(self._assignments)

    def __contains__(self, name: str) -> bool:
        return name in self._assignments

    def __iter__(self) -> Iterator[str]:
        return iter(self._assignments)

    def __len__(self) -> int:
        return len(self._assignments)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, TuningConfig):
            return NotImplemented
        return self._assignments == other._assignments

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}"
                         for k, v in sorted(self._assignments.items()))
        return f"TuningConfig({body})"

    # -- derivation --------------------------------------------------------

    def replace(self, **assignments: Any) -> "TuningConfig":
        """A new config with ``assignments`` overlaid on this one."""
        merged = dict(self._assignments)
        merged.update(assignments)
        return TuningConfig(merged)

    def key(self) -> Tuple[Tuple[str, Any], ...]:
        """Canonical hashable identity of the explicit assignment (the
        gym's evaluation-cache key)."""
        return tuple(sorted(self._assignments.items()))

    # -- whole-assignment views --------------------------------------------

    def effective(self) -> Dict[str, Any]:
        """Every declared knob with its effective value, in declaration
        order."""
        ensure_registered()
        return {name: self.value(name) for name in all_knobs()}

    def to_dict(self) -> Dict[str, Any]:
        """Snapshot of the full effective assignment.

        Round-trip contract: ``TuningConfig.from_dict(cfg.to_dict())``
        builds a pipeline that prices bit-identically to ``cfg``'s, even
        if registry defaults change in between —
        the snapshot pins *every* knob explicitly.
        """
        return self.effective()

    @classmethod
    def from_dict(cls, assignments: Mapping[str, Any]) -> "TuningConfig":
        return cls(assignments)

    # -- validation --------------------------------------------------------

    def validate(self) -> "TuningConfig":
        """Check the *effective* assignment against every declared
        domain; raises :class:`~repro.tuning.knobs.KnobDomainError` on
        the first violation.  Returns ``self`` for chaining."""
        ensure_registered()
        for name, spec in all_knobs().items():
            spec.validate(self.value(name))
        return self


@dataclasses.dataclass(frozen=True)
class Pipeline:
    """One fully configured stack, materialized from a
    :class:`TuningConfig`.

    Every field is the real object the rest of the library consumes —
    the scheduler is wired from the params/device/variant/geometry
    fields, so pricing through ``pipe.scheduler`` and lowering with
    ``pipe.style`` needs no further configuration.  Knob ``observe``
    hooks read these fields back for the round-trip property tests.
    """

    config: TuningConfig
    params: Any           # repro.ckks.params.CkksParams
    boot_config: Any      # repro.ckks.bootstrap.BootstrapConfig
    device: Any           # repro.gpusim.device.GpuSpec
    geometry: Any         # repro.core.kernels.GeometryConfig
    scheduler: Any        # repro.core.scheduler.OperationScheduler
    style: str
    batch: int
    optimize: bool
    search: bool

    def describe(self) -> str:
        """One-line summary for logs and the reproduce report."""
        return (
            f"{self.params.name} on {self.device.name} "
            f"[{self.scheduler.ntt.variant}/{self.style}, "
            f"tpb={self.geometry.threads_per_block}, "
            f"batch={self.batch}"
            f"{', dagopt' if self.optimize else ''}]"
        )


def build_pipeline(config: Optional[TuningConfig] = None,
                   **overrides: Any) -> Pipeline:
    """Materialize a complete configured stack from one flat assignment.

    ``overrides`` are knob assignments overlaid on ``config`` (which
    defaults to the all-defaults config).  All validation fires here:
    unknown names from the overlay, declared-domain violations, and the
    layers' own cross-knob checks (``CkksParams.__post_init__`` for an
    out-of-range ``ckks.dnum``, ``KNOWN_DEVICES`` membership for the
    machine model).
    """
    # Layer imports live here: repro.tuning.knobs must stay dependency-
    # free, and the declaring modules import it — importing them at
    # module scope would re-enter this package during bootstrap.
    from ..ckks.bootstrap import BootstrapConfig
    from ..ckks.params import ParameterSets
    from ..core.kernels import GeometryConfig
    from ..core.scheduler import OperationScheduler
    from ..gpusim.device import KNOWN_DEVICES

    cfg = config if config is not None else TuningConfig()
    if overrides:
        cfg = cfg.replace(**overrides)
    cfg.validate()

    params = ParameterSets.by_name(cfg["params.set"])
    dnum = cfg["ckks.dnum"]
    if dnum is not None and dnum != params.dnum:
        params = dataclasses.replace(params, dnum=dnum)

    boot_config = BootstrapConfig(
        sine_degree=cfg["boot.sine_degree"],
        eval_range=cfg["boot.eval_range"],
        bsgs=cfg["boot.bsgs"],
        fft_factored=cfg["boot.fft_factored"],
        fuse=cfg["boot.fuse"],
    )

    device = KNOWN_DEVICES[cfg["gpu.model"]]
    spec_overrides: Dict[str, Any] = {}
    if cfg["gpu.sm_count"] is not None:
        spec_overrides["sm_count"] = cfg["gpu.sm_count"]
    if cfg["gpu.tensor_macs_per_sm"] is not None:
        spec_overrides["tensor_int8_macs_per_cycle_per_sm"] = \
            cfg["gpu.tensor_macs_per_sm"]
    if spec_overrides:
        device = device.with_overrides(**spec_overrides)

    geometry = GeometryConfig(
        threads_per_block=cfg["geometry.threads_per_block"],
        ntt_coeffs_per_thread=cfg["geometry.ntt_coeffs_per_thread"],
    )
    scheduler = OperationScheduler(
        params, device=device, ntt_variant=cfg["ntt.variant"],
        geometry=geometry,
    )

    return Pipeline(
        config=cfg,
        params=params,
        boot_config=boot_config,
        device=device,
        geometry=geometry,
        scheduler=scheduler,
        style=cfg["machine.style"],
        batch=cfg["serving.batch"],
        optimize=cfg["dagopt.optimize"],
        search=cfg["dagopt.search"],
    )
