"""Workload operation schedules and their pricing.

A workload (HELR, ResNet-20, AES transciphering) is a counted sequence of
homomorphic operations at known levels plus a count of bootstraps. The
operations are priced with the same per-operation simulator used
everywhere else, with one workload-specific mechanism: *hoisting* —
consecutive rotations of the same input share their ModUp, so each
additional hoisted rotation costs a fraction of a full HROTATE (the
standard BSGS linear-transform optimization every system in Table XIV
uses). The fraction is derived per parameter set from a recorded
``hoisted_rotations`` call
(:func:`repro.workloads.recorded.derived_hoisted_rotation_factor`).
Every bootstrap is priced as the recorded functional bootstrap
(:func:`repro.workloads.recorded.simulate_recorded_bootstrap`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.scheduler import OperationScheduler


@dataclass
class ScheduleItem:
    """``count`` executions of ``op`` at ``level``."""

    op: str
    level: int
    count: float = 1.0
    #: Rotations inside a hoisted BSGS group (cheaper per §workloads).
    hoisted: bool = False
    note: str = ""


@dataclass
class WorkloadTiming:
    """Priced workload: total and per-item breakdown."""

    name: str
    total_us: float
    batch: int
    breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        return self.total_us / 1e3

    @property
    def amortized_ms(self) -> float:
        """Per-ciphertext time when ``batch`` inputs share the run."""
        return self.total_ms / self.batch

    @property
    def total_s(self) -> float:
        return self.total_us / 1e6


@dataclass
class WorkloadSchedule:
    """A named list of schedule items plus a (possibly fractional,
    amortized) number of bootstraps."""

    name: str
    items: List[ScheduleItem] = field(default_factory=list)
    bootstraps: float = 0.0

    def add(self, op: str, level: int, count: float = 1.0, *,
            hoisted: bool = False, note: str = "") -> "WorkloadSchedule":
        self.items.append(
            ScheduleItem(op=op, level=level, count=count, hoisted=hoisted,
                         note=note)
        )
        return self

    def op_counts(self) -> Dict[str, float]:
        counts: Dict[str, float] = {}
        for item in self.items:
            counts[item.op] = counts.get(item.op, 0.0) + item.count
        return counts

    def price(self, scheduler: OperationScheduler, *,
              batch: int = 1) -> WorkloadTiming:
        """Total simulated time of the schedule on one device.

        ``batch`` ciphertexts ride through every kernel together (the
        amortization mechanism of Table XIV's BS column). Hoisted
        rotations cost the trace-derived fraction of a full HROTATE; each
        bootstrap costs one recorded bootstrap, booked as
        ``boot(recorded)``.
        """
        from .recorded import (
            derived_hoisted_rotation_factor,
            simulate_recorded_bootstrap,
        )

        factor = derived_hoisted_rotation_factor(scheduler)
        total = 0.0
        breakdown: Dict[str, float] = {}
        cache: Dict[tuple, float] = {}
        for item in self.items:
            key = (item.op, item.level)
            if key not in cache:
                cache[key] = scheduler.simulate(
                    item.op, level=item.level, batch=batch
                ).elapsed_us
            cost = cache[key] * item.count
            if item.hoisted:
                cost *= factor
            total += cost
            label = item.note or item.op
            breakdown[label] = breakdown.get(label, 0.0) + cost
        if self.bootstraps:
            boot = simulate_recorded_bootstrap(
                scheduler.params, scheduler=scheduler, batch=batch
            )
            breakdown["boot(recorded)"] = self.bootstraps * boot.total_us
            total += breakdown["boot(recorded)"]
        return WorkloadTiming(
            name=self.name, total_us=total, batch=batch,
            breakdown=breakdown,
        )
