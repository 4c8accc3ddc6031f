"""D-HBM: liveness-based static peak-HBM certificates.

The serving layer's ``memory_aware`` placement and the
:class:`~repro.core.memory_pool.MemoryPool` admission check both need a
per-job HBM figure *before* the job runs.  This module derives one from
the lowered DAG alone — no workload execution, no pool measurements:

1. **Schedule prediction** — an independent replay of the
   :func:`~repro.gpusim.streams.run_dag` discipline (event-driven,
   ready nodes launch in index order when their grids fit the free SMs)
   using the analytic per-kernel cost model, yielding a
   ``[start, end)`` window per node.
2. **Liveness sweep** — every node's output (``gmem_write_bytes``) is
   allocated at its launch and freed when its last consumer completes;
   the peak of the live-byte total over the predicted timeline, padded
   by :data:`CERT_HEADROOM`, is the certificate.

Schedule-universal structural bounds (max-weight antichains over the
"can coexist" order, dependency-closed frontier cuts) were evaluated and
rejected: legal-but-never-taken schedules inflate them 2–10x above any
peak the deterministic scheduler reaches, which is useless for
admission.  The certificate instead fixes the scheduling discipline and
stays within the headroom of the simulator's observed peak; CI asserts
exactly that bracket (``observed <= cert <= 1.25 * observed``) for every
catalog job, which cross-validates this module's liveness model against
:mod:`repro.gpusim`'s timeline accounting — two independent
implementations that must agree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Tuple

from ..fhelint.findings import Finding
from ...gpusim.device import GpuSpec
from ...gpusim.streams import ExecutionResult
from ...trace.lowering import KernelDag

#: Multiplicative pad on the predicted-schedule liveness peak: absorbs
#: allocator fragmentation and scheduling transients while staying well
#: inside the 25% tightness bound CI asserts against the simulator.
CERT_HEADROOM = 1.10


@dataclass(frozen=True)
class HbmCertificate:
    """Static liveness certificate for one lowered DAG."""

    label: str
    peak_bytes: float
    node_count: int

    @property
    def peak_gib(self) -> float:
        return self.peak_bytes / 2 ** 30


def predicted_schedule(dag: KernelDag,
                       device: GpuSpec = None
                       ) -> List[Tuple[float, float]]:
    """``(start_us, end_us)`` per node under the run_dag discipline.

    Re-implements the event loop independently of
    :func:`~repro.gpusim.streams.run_dag` (same rules: dependencies
    complete first, ready nodes launch in index order, a grid launches
    only when it fits the free SMs) so the CI bracket check compares two
    separate codepaths rather than one with itself; only the per-kernel
    pricing, :func:`~repro.gpusim.engine.profile_kernel`, is shared.

    Every grid needs at least one SM, so the scan of the ready heap
    stops once the array is full.
    """
    from ...gpusim import A100_PCIE_80G, profile_kernel

    dev = device if device is not None else (dag.device or A100_PCIE_80G)
    nodes = dag.nodes
    n = len(nodes)
    profiles = [profile_kernel(node.spec, dev) for node in nodes]
    latency = [prof.elapsed_us for prof in profiles]
    sms = [prof.occupancy.sm_used for prof in profiles]

    children: List[List[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for i, node in enumerate(nodes):
        for d in node.deps:
            children[d].append(i)
        indegree[i] = len(node.deps)

    windows: List[Tuple[float, float]] = [(0.0, 0.0)] * n
    ready = [i for i in range(n) if indegree[i] == 0]
    heapq.heapify(ready)
    running: List[Tuple[float, int]] = []
    busy_sms = 0
    now = 0.0
    sm_count = dev.sm_count
    while ready or running:
        deferred: List[int] = []
        while ready and busy_sms < sm_count:
            i = heapq.heappop(ready)
            if sm_count - busy_sms < sms[i]:
                deferred.append(i)
                continue
            end = now + latency[i]
            windows[i] = (now, end)
            heapq.heappush(running, (end, i))
            busy_sms += sms[i]
        for i in deferred:
            heapq.heappush(ready, i)
        if not running:
            break
        now = running[0][0]
        while running and running[0][0] <= now:
            _, i = heapq.heappop(running)
            busy_sms -= sms[i]
            for child in children[i]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
    return windows


def _liveness_peak(byte_count: List[float],
                   windows: List[Tuple[float, float]],
                   deps_of: List[Tuple[int, ...]]) -> float:
    """Peak live bytes: buffers alive from producer launch until the
    last consumer completes (or the producer's own completion when
    unconsumed)."""
    n = len(byte_count)
    death = [windows[i][1] for i in range(n)]
    for i in range(n):
        for d in deps_of[i]:
            if windows[i][1] > death[d]:
                death[d] = windows[i][1]
    points: List[Tuple[float, int, float]] = []
    for i in range(n):
        b = byte_count[i]
        if b <= 0:
            continue
        points.append((windows[i][0], 0, b))  # birth sorts before
        points.append((death[i], 1, -b))      # death at equal timestamps
    points.sort()
    peak = live = 0.0
    for _, _, b in points:
        live += b
        if live > peak:
            peak = live
    return peak


def static_hbm_certificate(dag: KernelDag,
                           device: GpuSpec = None) -> HbmCertificate:
    """The admission certificate: predicted-schedule liveness peak plus
    :data:`CERT_HEADROOM`."""
    windows = predicted_schedule(dag, device)
    byte_count = [float(nd.spec.gmem_write_bytes) for nd in dag.nodes]
    deps_of = [nd.deps for nd in dag.nodes]
    peak = _liveness_peak(byte_count, windows, deps_of)
    return HbmCertificate(label=dag.label or "<dag>",
                          peak_bytes=peak * CERT_HEADROOM,
                          node_count=len(dag.nodes))


def observed_peak_bytes(result: ExecutionResult) -> float:
    """Peak live bytes of one simulated execution's timeline, under the
    same allocate-at-launch / free-at-last-consumer-completion model."""
    entries = sorted(result.entries, key=lambda e: e.index)
    if not entries:
        return 0.0
    index_of = {e.index: pos for pos, e in enumerate(entries)}
    byte_count = [float(e.spec.gmem_write_bytes) for e in entries]
    windows = [(e.start_us, e.end_us) for e in entries]
    deps_of = [tuple(index_of[d] for d in e.deps if d in index_of)
               for e in entries]
    return _liveness_peak(byte_count, windows, deps_of)


def check_hbm_budget(label: str, declared_bytes: float,
                     certificate: HbmCertificate) -> List[Finding]:
    """D-HBM finding when a declared budget undercuts the certificate —
    admission on that figure would overcommit the pool."""
    if declared_bytes >= certificate.peak_bytes:
        return []
    return [Finding(
        rule="D-HBM", path=label, line=0, func="hbm_budget",
        message=(
            f"declared {declared_bytes / 2**30:.3f} GiB is below the "
            f"static liveness certificate "
            f"{certificate.peak_gib:.3f} GiB"),
    )]
