"""Discrete-event serving simulator: arrivals -> batches -> GPU fleet.

One :class:`ServingSimulator` run is a single pass over a time-ordered
event heap with three event kinds:

* **arrival** — a request enters its kind's batching queue; if that
  closes the batch (size trigger) it goes straight to placement, else a
  deadline event is scheduled for the request's own wait bound.
* **deadline** — the batcher flushes every queue whose oldest request
  has waited out ``max_wait_us`` (stale events are no-ops).
* **complete** — a batch retires on its device: per-job completion
  times are recorded, the HBM reservation is freed, the device starts
  its next queued batch, and every batch waiting on admission is
  retried (memory may have just been freed).  Closed-loop clients see
  their completion and schedule their next request.

Ties at one timestamp resolve completions first (free capacity), then
arrivals, then deadlines — fixed, so runs are deterministic.  All
randomness flows through one ``numpy`` generator seeded from
``ServingConfig.seed``: the same config always produces the identical
:class:`~repro.serving.metrics.ServingReport`.

Service times come from the :class:`~repro.serving.jobs.JobCatalog`
(priced ``run_dag`` latencies, cached per (kind, batch, optimized)), so
the event loop itself is O(events) regardless of DAG sizes.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..gpusim.device import A100_PCIE_80G, GpuSpec
from ..gpusim.multi import DEFAULT_HBM_BYTES, FleetJob, FleetResult, GpuFleet
from .arrivals import (
    ArrivalProcess,
    ClosedLoop,
    OpenLoop,
    burst_arrivals,
    poisson_arrivals,
)
from .batcher import Batch, Batcher, BatchingPolicy, Job
from .jobs import DEFAULT_JOB_KINDS, JobCatalog, default_catalog
from .metrics import ServingReport, latency_stats
from .policies import PlacementPolicy, make_policy

# Event tags, in tie-break order at equal timestamps.
_COMPLETE, _ARRIVAL, _DEADLINE = 0, 1, 2


@dataclass(frozen=True)
class ServingConfig:
    """One serving experiment, fully specified (and fully seeded)."""

    gpus: int = 1
    kinds: Tuple[str, ...] = DEFAULT_JOB_KINDS
    #: Relative traffic weights per kind (uniform when ``None``).
    mix: Optional[Tuple[float, ...]] = None
    rate_per_s: float = 10.0
    #: ``poisson`` | ``burst`` (open loop) or ``closed`` (client pool).
    arrival: str = "poisson"
    clients: int = 8
    think_time_us: float = 0.0
    horizon_us: float = 1_000_000.0
    policy: str = "least_loaded"
    max_batch: Optional[int] = None
    max_wait_us: float = 5_000.0
    #: Pre-compile job DAGs with the dagopt pipeline before pricing.
    optimize: bool = False
    seed: int = 0
    hbm_bytes: int = DEFAULT_HBM_BYTES
    #: Per-job reservation source: ``formula`` (S_max working-set
    #: estimate) or ``certified`` (static DAG liveness certificate).
    hbm_model: str = "formula"
    style: str = "pe"
    burst_factor: float = 4.0
    burst_period_us: float = 250_000.0
    burst_duty: float = 0.25

    def to_dict(self) -> Dict[str, Any]:
        return {
            "gpus": self.gpus, "kinds": list(self.kinds),
            "mix": list(self.mix) if self.mix is not None else None,
            "rate_per_s": self.rate_per_s, "arrival": self.arrival,
            "clients": self.clients, "think_time_us": self.think_time_us,
            "horizon_us": self.horizon_us, "policy": self.policy,
            "max_batch": self.max_batch, "max_wait_us": self.max_wait_us,
            "optimize": self.optimize, "seed": self.seed,
            "hbm_bytes": self.hbm_bytes, "hbm_model": self.hbm_model,
            "style": self.style,
            "burst_factor": self.burst_factor,
            "burst_period_us": self.burst_period_us,
            "burst_duty": self.burst_duty,
        }


# -- declared tuning knobs (DESIGN.md §14) ----------------------------------

from ..tuning.knobs import IntRange, KnobSpec, register_knob  # noqa: E402

register_knob(KnobSpec(
    name="serving.batch", layer="serving",
    domain=IntRange(1, 64, grid=(1, 2, 4, 8, 16)), default=1,
    doc="Ciphertext batch size priced per lowered DAG (amortizes launch "
        "overhead; the serving batcher's size trigger).",
    observe=lambda pipe: pipe.batch,
))


class ServingSimulator:
    """Drives one :class:`ServingConfig` through the event loop.

    Pass a shared :class:`JobCatalog` to amortize trace pricing across
    many runs (the benchmark sweeps hundreds of configs against one
    catalog); otherwise a fresh default catalog is built.
    """

    def __init__(self, config: ServingConfig,
                 catalog: Optional[JobCatalog] = None,
                 spec: GpuSpec = A100_PCIE_80G):
        self.config = config
        self.catalog = catalog if catalog is not None else default_catalog(
            config.kinds, device=spec, style=config.style,
            hbm_model=config.hbm_model,
        )
        self.fleet = GpuFleet(
            config.gpus, spec, hbm_bytes=config.hbm_bytes
        )
        self.policy: PlacementPolicy = make_policy(config.policy)
        self.batcher = Batcher(
            BatchingPolicy(max_batch=config.max_batch,
                           max_wait_us=config.max_wait_us),
            self.catalog.max_batch,
        )
        self.jobs: List[Job] = []
        #: Jobs whose batch has started running on a device.
        self._started_jobs = 0
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._seq = itertools.count()
        # Batches admitted nowhere yet: pinned wait per device,
        # unpinned wait in one shared pool (policy.pins decides).
        self._pinned: List[List[FleetJob]] = [
            [] for _ in range(config.gpus)
        ]
        self._deferred: List[FleetJob] = []
        self._batch_sizes: List[int] = []
        self._now = 0.0
        self._depth_integral = 0.0
        self._max_depth = 0
        self._ran = False

    # -- event plumbing ---------------------------------------------------
    def _push(self, t: float, tag: int, payload: Any) -> None:
        # (t, tag, seq): the tag breaks timestamp ties (completions
        # first, so freed HBM is visible to same-instant arrivals), the
        # monotone seq breaks equal-tag ties in insertion order.
        heapq.heappush(self._heap, (t, tag, next(self._seq), payload))

    def _schedule_completion(self, started: Optional[FleetJob]) -> None:
        if started is not None:
            self._started_jobs += len(started.jobs)
            self._push(started.end_us, _COMPLETE, started)

    def _waiting_depth(self) -> int:
        """Requests submitted but not yet running on a device (in the
        batcher, a pinned or deferred queue, or a device queue)."""
        return len(self.jobs) - self._started_jobs

    def _advance(self, t: float) -> None:
        depth = self._waiting_depth()
        self._depth_integral += depth * max(t - self._now, 0.0)
        self._max_depth = max(self._max_depth, depth)
        self._now = max(self._now, t)

    # -- batch placement --------------------------------------------------
    def _fleet_job(self, batch: Batch) -> FleetJob:
        priced = self.catalog.price(
            batch.kind, batch.size, optimized=self.config.optimize
        )
        if priced.hbm_bytes > self.config.hbm_bytes:
            raise ValueError(
                f"batch {batch.label!r} needs "
                f"{priced.hbm_bytes / 2**30:.1f} GiB but devices have "
                f"{self.config.hbm_bytes / 2**30:.1f}; lower max_batch"
            )
        return FleetJob(
            label=batch.label, service_us=priced.service_us,
            hbm_bytes=priced.hbm_bytes,
            certified_hbm_bytes=priced.certified_hbm_bytes,
            kind=batch.kind,
            batch=batch.size, jobs=tuple(j.jid for j in batch.jobs),
            payload=batch,
        )

    def _dispatch(self, batch: Batch, now: float) -> None:
        self._batch_sizes.append(batch.size)
        fj = self._fleet_job(batch)
        device = self.policy.select(self.fleet, fj.hbm_bytes, now)
        if device is None:
            # Unpinned policy found nothing with room: defer, re-place
            # at the next completion.
            self.fleet.rejections += 1
            self._deferred.append(fj)
            return
        admitted, started = self.fleet.admit(fj, device, now)
        if not admitted:
            if self.policy.pins:
                self._pinned[device].append(fj)
            else:
                self._deferred.append(fj)
            return
        self._schedule_completion(started)

    def _retry_waiting(self, now: float) -> None:
        """Re-attempt admission after memory was freed.

        Pre-checks ``fits`` so retries do not inflate the rejection
        counter — a batch is counted rejected once, at dispatch.
        """
        for device, waiting in enumerate(self._pinned):
            while waiting and self.fleet.devices[device].fits(
                    waiting[0].hbm_bytes):
                fj = waiting.pop(0)
                _, started = self.fleet.admit(fj, device, now)
                self._schedule_completion(started)
        progress = True
        while progress and self._deferred:
            progress = False
            for i, fj in enumerate(self._deferred):
                device = self.policy.select(self.fleet, fj.hbm_bytes, now)
                if device is None:
                    continue
                admitted, started = self.fleet.admit(fj, device, now)
                if admitted:
                    self._deferred.pop(i)
                    self._schedule_completion(started)
                    progress = True
                    break

    # -- event handlers ---------------------------------------------------
    def _on_arrival(self, kind: str, now: float) -> None:
        job = Job(jid=len(self.jobs), kind=kind, arrival_us=now)
        self.jobs.append(job)
        closed = self.batcher.add(job, now)
        if closed is not None:
            self._dispatch(closed, now)
        else:
            self._push(now + self.config.max_wait_us, _DEADLINE, None)

    def _on_complete(self, fj: FleetJob, now: float,
                     process: ArrivalProcess,
                     rng: np.random.Generator) -> None:
        batch: Batch = fj.payload
        for job in batch.jobs:
            job.completion_us = now
            follow = process.on_completion(job.kind, now, rng)
            if follow is not None:
                self._push(follow.t_us, _ARRIVAL, follow.kind)
        self._schedule_completion(self.fleet.complete(fj, now))
        self._retry_waiting(now)

    # -- the loop ---------------------------------------------------------
    def _make_process(self) -> ArrivalProcess:
        cfg = self.config
        if cfg.arrival == "poisson":
            return OpenLoop(lambda rng: poisson_arrivals(
                cfg.rate_per_s, cfg.horizon_us, cfg.kinds, rng,
                mix=cfg.mix,
            ))
        if cfg.arrival == "burst":
            return OpenLoop(lambda rng: burst_arrivals(
                cfg.rate_per_s, cfg.horizon_us, cfg.kinds, rng,
                mix=cfg.mix, burst_factor=cfg.burst_factor,
                period_us=cfg.burst_period_us, duty=cfg.burst_duty,
            ))
        if cfg.arrival == "closed":
            return ClosedLoop(
                clients=cfg.clients, kinds=tuple(cfg.kinds), mix=cfg.mix,
                think_time_us=cfg.think_time_us,
                horizon_us=cfg.horizon_us,
            )
        raise ValueError(
            f"unknown arrival process {cfg.arrival!r}; "
            "one of poisson, burst, closed"
        )

    def run(self) -> ServingReport:
        if self._ran:
            raise RuntimeError("simulator instances are single-use")
        self._ran = True
        rng = np.random.default_rng(self.config.seed)
        process = self._make_process()
        for arrival in process.initial(rng):
            self._push(arrival.t_us, _ARRIVAL, arrival.kind)
        while True:
            while self._heap:
                t, tag, _, payload = heapq.heappop(self._heap)
                self._advance(t)
                if tag == _COMPLETE:
                    self._on_complete(payload, t, process, rng)
                elif tag == _ARRIVAL:
                    self._on_arrival(payload, t)
                else:
                    for batch in self.batcher.flush_due(t):
                        self._dispatch(batch, t)
            # Safety drain: anything still queued (e.g. infinite
            # max_wait_us) is flushed at the final clock and the loop
            # resumes to run it down.
            leftovers = self.batcher.flush_all(self._now)
            if not leftovers:
                break
            for batch in leftovers:
                self._dispatch(batch, self._now)
        return self._report()

    def fleet_result(self) -> FleetResult:
        return self.fleet.result()

    # -- reporting --------------------------------------------------------
    def _report(self) -> ServingReport:
        cfg = self.config
        done = [j for j in self.jobs if j.done]
        latencies = [j.latency_us for j in done]
        by_horizon = sum(
            1 for j in done if j.completion_us <= cfg.horizon_us
        )
        per_kind: Dict[str, Dict[str, float]] = {}
        slo_hits = 0
        for kind in cfg.kinds:
            kind_done = [j for j in done if j.kind == kind]
            stats = latency_stats([j.latency_us for j in kind_done])
            slo = self.catalog.slo_us(kind)
            hits = sum(1 for j in kind_done if j.latency_us <= slo)
            slo_hits += hits
            stats["slo_us"] = round(slo, 3)
            stats["slo_attainment"] = round(
                hits / len(kind_done), 4) if kind_done else 1.0
            per_kind[kind] = stats
        makespan = max((j.completion_us for j in done), default=0.0)
        horizon_s = cfg.horizon_us / 1e6
        span = max(makespan, cfg.horizon_us)
        devices = []
        for dev in self.fleet.devices:
            devices.append({
                "index": dev.index,
                "busy_us": round(dev.busy_us, 3),
                "utilization": round(dev.utilization(span), 4),
                "batches": len(dev.entries),
                "hbm_peak_mib": round(
                    dev.pool.stats["peak_bytes"] / 2**20, 1),
            })
        return ServingReport(
            config=cfg.to_dict(),
            horizon_us=cfg.horizon_us,
            makespan_us=makespan,
            submitted=len(self.jobs),
            completed=len(done),
            completed_by_horizon=by_horizon,
            throughput_jobs_per_s=by_horizon / horizon_s,
            latency=latency_stats(latencies),
            per_kind=per_kind,
            batches={
                "count": len(self._batch_sizes),
                "mean_size": round(
                    sum(self._batch_sizes) / len(self._batch_sizes), 3
                ) if self._batch_sizes else 0.0,
                "max_size": max(self._batch_sizes, default=0),
            },
            queue={
                "mean_depth": round(
                    self._depth_integral / span, 3) if span > 0 else 0.0,
                "max_depth": self._max_depth,
            },
            devices=devices,
            rejections=self.fleet.rejections,
            slo_attainment=round(
                slo_hits / len(done), 4) if done else 1.0,
        )


def simulate_serving(config: ServingConfig,
                     catalog: Optional[JobCatalog] = None,
                     spec: GpuSpec = A100_PCIE_80G) -> ServingReport:
    """Run one config through a fresh simulator; see module docstring."""
    return ServingSimulator(config, catalog, spec).run()
